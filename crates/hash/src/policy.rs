//! Automatic resize policy.

/// Controls if and when an [`crate::RpHashMap`] resizes itself.
///
/// Resizing is always available explicitly through
/// [`crate::RpHashMap::resize_to`], [`crate::RpHashMap::expand`] and
/// [`crate::RpHashMap::shrink`]; the policy additionally lets insert/remove
/// trigger resizes when the load factor crosses the configured thresholds
/// (the way the Linux kernel's rhashtable — the descendant of this paper's
/// algorithm — behaves).
///
/// The writers drive automatic resizes, and none of them waits: the
/// triggering write begins the resize under the writer lock it holds, and
/// the first write after a grace period has elapsed finishes it (the
/// `resize` module's docs). Readers are unaffected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResizePolicy {
    /// Grow (double) when `len > buckets * max_load_factor`.
    pub auto_expand: bool,
    /// Shrink (halve) when `len < buckets * min_load_factor`.
    pub auto_shrink: bool,
    /// Load factor above which an automatic expand triggers.
    pub max_load_factor: f64,
    /// Load factor below which an automatic shrink triggers.
    pub min_load_factor: f64,
    /// Lower bound on the number of buckets.
    pub min_buckets: usize,
    /// Upper bound on the number of buckets.
    pub max_buckets: usize,
}

impl Default for ResizePolicy {
    fn default() -> Self {
        ResizePolicy {
            auto_expand: false,
            auto_shrink: false,
            max_load_factor: 2.0,
            min_load_factor: 0.25,
            min_buckets: 1,
            max_buckets: 1 << 30,
        }
    }
}

impl ResizePolicy {
    /// A policy with automatic growing and shrinking enabled.
    pub fn automatic() -> Self {
        ResizePolicy {
            auto_expand: true,
            auto_shrink: true,
            ..ResizePolicy::default()
        }
    }

    /// A policy that never resizes automatically (the default).
    pub fn manual() -> Self {
        ResizePolicy::default()
    }

    /// Returns `true` if a map with `len` entries and `buckets` buckets
    /// should grow.
    ///
    /// Exposed so that a caller outside the map (a test checking that a
    /// table is back inside its bounds) applies the same load-factor
    /// thresholds the map applies.
    ///
    /// Only returns `true` when a doubling is actually possible
    /// (`2 * buckets <= max_buckets`) — the same condition the expand
    /// itself checks — so a `true` trigger can never pair with a resize
    /// that refuses to start (which would retry on every write).
    pub fn should_expand(&self, len: usize, buckets: usize) -> bool {
        self.auto_expand
            && buckets
                .checked_mul(2)
                .is_some_and(|doubled| doubled <= self.max_buckets)
            && (len as f64) > (buckets as f64) * self.max_load_factor
    }

    /// Returns `true` if a map with `len` entries and `buckets` buckets
    /// should shrink.
    ///
    /// See [`ResizePolicy::should_expand`] for why this is public.
    pub fn should_shrink(&self, len: usize, buckets: usize) -> bool {
        self.auto_shrink
            && buckets > self.min_buckets.max(1)
            && (len as f64) < (buckets as f64) * self.min_load_factor
    }

    /// Clamps a requested bucket count to the policy bounds and rounds it up
    /// to a power of two.
    pub(crate) fn clamp_buckets(&self, requested: usize) -> usize {
        requested
            .clamp(self.min_buckets.max(1), self.max_buckets)
            .next_power_of_two()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_manual() {
        let p = ResizePolicy::default();
        assert!(!p.auto_expand);
        assert!(!p.auto_shrink);
        assert!(!p.should_expand(1_000_000, 1));
        assert!(!p.should_shrink(0, 1 << 20));
    }

    #[test]
    fn automatic_policy_triggers_on_load_factor() {
        let p = ResizePolicy::automatic();
        assert!(p.should_expand(17, 8)); // load factor > 2
        assert!(!p.should_expand(16, 8)); // exactly 2: not strictly above
        assert!(p.should_shrink(1, 8)); // load factor 0.125 < 0.25
        assert!(!p.should_shrink(2, 8)); // exactly 0.25: not strictly below
    }

    #[test]
    fn should_expand_requires_a_possible_doubling() {
        // A trigger that fires when the expand itself would refuse to start
        // (2 * buckets > max_buckets) would retry on every write; the
        // trigger must use the expand's own feasibility check.
        let p = ResizePolicy {
            auto_expand: true,
            max_buckets: 24, // not a power of two: 16 < 24 but 32 > 24
            ..ResizePolicy::automatic()
        };
        assert!(p.should_expand(1_000, 8));
        assert!(!p.should_expand(1_000, 16));
    }

    #[test]
    fn bounds_are_respected() {
        let p = ResizePolicy {
            auto_expand: true,
            auto_shrink: true,
            min_buckets: 4,
            max_buckets: 64,
            ..ResizePolicy::automatic()
        };
        assert!(
            !p.should_expand(1_000, 64),
            "must not grow past max_buckets"
        );
        assert!(!p.should_shrink(0, 4), "must not shrink below min_buckets");
        assert_eq!(p.clamp_buckets(1), 4);
        assert_eq!(p.clamp_buckets(100), 64);
        assert_eq!(p.clamp_buckets(33), 64);
        assert_eq!(p.clamp_buckets(32), 32);
    }
}
