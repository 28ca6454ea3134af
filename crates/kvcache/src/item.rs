//! Stored values and the keys they are stored under.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU32;
use std::ops::Deref;
use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime};

use bytes::Bytes;

/// The longest key an [`ItemKey`] holds inline.
const INLINE_KEY_LEN: usize = 22;

/// A cache key laid out for the index node it lives in: 24 bytes — what a
/// `String` header alone would take — holding keys of up to 22 bytes
/// inline, so a lookup compares the key without leaving the node and a SET
/// allocates nothing for it. Longer keys (memcached allows 250 bytes) sit
/// behind a `Box<str>`.
///
/// It hashes and compares exactly like the `str` it was built from, which
/// is what lets it [`Borrow<str>`] and lets the GET path probe with hashed
/// raw bytes.
#[derive(Clone)]
pub struct ItemKey(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `bytes` are the key; always a whole `str`.
    Inline {
        len: u8,
        bytes: [u8; INLINE_KEY_LEN],
    },
    Heap(Box<str>),
}

const _: () = assert!(std::mem::size_of::<ItemKey>() == 24);

impl ItemKey {
    /// The key's bytes. Unlike the `str` view this never re-validates an
    /// inline key, so it is what the lookup path compares.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(key) => key.as_bytes(),
        }
    }
}

impl From<&str> for ItemKey {
    fn from(key: &str) -> Self {
        ItemKey(match key.len() {
            len @ 0..=INLINE_KEY_LEN => {
                let mut bytes = [0; INLINE_KEY_LEN];
                bytes[..len].copy_from_slice(key.as_bytes());
                Repr::Inline {
                    len: len as u8,
                    bytes,
                }
            }
            _ => Repr::Heap(key.into()),
        })
    }
}

impl Borrow<str> for ItemKey {
    fn borrow(&self) -> &str {
        match &self.0 {
            // Writer-side only (removal by `&str`); the bytes were copied
            // from a `str` and are never mutated.
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("an ItemKey is built from a str")
            }
            Repr::Heap(key) => key,
        }
    }
}

impl Hash for ItemKey {
    /// `str`'s hashing scheme (the bytes, then `0xff`), as `Borrow<str>`
    /// requires; a test pins it against std's.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl PartialEq for ItemKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for ItemKey {}

impl Ord for ItemKey {
    /// `str`'s order: byte-wise.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl PartialOrd for ItemKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Debug for ItemKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let key: &str = self.borrow();
        key.fmt(f)
    }
}

/// The longest value a [`Payload`] holds inline: what fits beside its
/// length byte and its tag in 72 bytes.
const INLINE_VALUE_LEN: usize = 70;

/// An item's value bytes, laid out for the index node they live in: 72
/// bytes, holding values of up to 70 bytes (`INLINE_VALUE_LEN`) inline, so
/// a GET hit copies the value out of the node its walk already loaded and
/// a SET allocates nothing for it. A longer value is a shared [`Bytes`]: a
/// reply over `COALESCE_LIMIT` (1 KiB) queues it by reference, which needs
/// the bytes to outlive the node they were found in.
///
/// It compares, hashes and dereferences as its bytes, and which form it
/// takes follows from their length alone: every constructor inlines first.
#[derive(Clone)]
pub struct Payload(Held);

#[derive(Clone)]
enum Held {
    /// The first `len` bytes of `bytes` are the value.
    Inline {
        len: u8,
        bytes: [u8; INLINE_VALUE_LEN],
    },
    Shared(Bytes),
}

impl Payload {
    /// Copies `value` into the payload itself when it fits, else into a
    /// new shared buffer.
    pub fn copy_from_slice(value: &[u8]) -> Payload {
        Payload::inline(value)
            .unwrap_or_else(|| Payload(Held::Shared(Bytes::copy_from_slice(value))))
    }

    /// `value` copied inline, or `None` if it is too long.
    fn inline(value: &[u8]) -> Option<Payload> {
        let len = value.len();
        (len <= INLINE_VALUE_LEN).then(|| {
            let mut bytes = [0; INLINE_VALUE_LEN];
            bytes[..len].copy_from_slice(value);
            Payload(Held::Inline {
                len: len as u8,
                bytes,
            })
        })
    }

    /// The shared buffer of a value longer than 70 bytes; `None` for an
    /// inline one. Cloning it is what a reply that queues the value by
    /// reference does.
    pub(crate) fn shared(&self) -> Option<&Bytes> {
        match &self.0 {
            Held::Inline { .. } => None,
            Held::Shared(bytes) => Some(bytes),
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Held::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Held::Shared(bytes) => bytes,
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(value: &[u8]) -> Self {
        Payload::copy_from_slice(value)
    }
}

impl From<&str> for Payload {
    fn from(value: &str) -> Self {
        Payload::copy_from_slice(value.as_bytes())
    }
}

impl From<Vec<u8>> for Payload {
    fn from(value: Vec<u8>) -> Self {
        Payload::inline(&value).unwrap_or_else(|| Payload(Held::Shared(Bytes::from(value))))
    }
}

impl From<String> for Payload {
    fn from(value: String) -> Self {
        Payload::from(value.into_bytes())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl Hash for Payload {
    /// `[u8]`'s hashing, as `Bytes` hashes.
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"{}\"", self.escape_ascii())
    }
}

/// The largest `exptime` memcached reads as a TTL in seconds (30 days);
/// anything larger is an absolute Unix time.
const MAX_RELATIVE_EXPTIME: u64 = 30 * 24 * 60 * 60;

/// When an item expires, in 4 bytes: whole seconds on the expiry clock,
/// which counts from an epoch one second before the first time anything
/// asked for it (a monotonic [`Instant`]). memcached keeps its deadlines
/// the same way, as a `rel_time_t` from its process start, and for the
/// same reason: `exptime` comes in whole seconds, and an item's deadline
/// is 4 bytes of its header rather than 16.
///
/// A deadline is rounded up to the next whole second, so an item never
/// expires early and expires at most one second late. `NonZeroU32` gives
/// `Option<Deadline>` its 4 bytes. The clock's first second is spent
/// before any deadline is made, so a deadline still ahead is second 2 or
/// later, and second 1, which [`Item::expired`] stores, has always passed,
/// even against an instant read before the clock was. A deadline past the
/// clock's range (136 years) saturates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline(NonZeroU32);

const _: () = assert!(std::mem::size_of::<Option<Deadline>>() == 4);

impl Deadline {
    /// A deadline that has already passed: an item stored with it is never
    /// served.
    const PASSED: Deadline = Deadline(NonZeroU32::MIN);

    /// The latest deadline there is.
    const LAST: Deadline = Deadline(NonZeroU32::MAX);

    /// The expiry clock's epoch, set the first time it is asked for. A
    /// clock that reads less than a second since boot has no second to
    /// spare, and then a deadline made in its first second may read as
    /// passed early.
    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(|| {
            let now = Instant::now();
            now.checked_sub(Duration::from_secs(1)).unwrap_or(now)
        })
    }

    /// The first whole second on the expiry clock at or after `at`.
    fn at(at: Instant) -> Deadline {
        let since = at.saturating_duration_since(Deadline::epoch());
        let secs = since.as_secs() + u64::from(since.subsec_nanos() > 0);
        NonZeroU32::new(u32::try_from(secs).unwrap_or(u32::MAX)).map_or(Deadline::PASSED, Deadline)
    }

    /// The deadline `ttl` from now.
    pub fn after(ttl: Duration) -> Deadline {
        Instant::now()
            .checked_add(ttl)
            .map_or(Deadline::LAST, Deadline::at)
    }

    /// The deadline a memcached `exptime` names, `None` for `0` (never). A
    /// negative one has already passed (as [`Item::expired`]'s has). Up to
    /// 30 days it is a TTL in seconds; past that, a Unix time, read against
    /// the system clock once here: one already gone has passed too, and one
    /// past the clock's range saturates.
    pub fn from_exptime(exptime: i64) -> Option<Deadline> {
        let Ok(secs) = u64::try_from(exptime) else {
            return Some(Deadline::PASSED);
        };
        match secs {
            0 => None,
            1..=MAX_RELATIVE_EXPTIME => Some(Deadline::after(Duration::from_secs(secs))),
            _ => {
                let unix_now = SystemTime::now()
                    .duration_since(SystemTime::UNIX_EPOCH)
                    .unwrap_or_default();
                Some(match Duration::from_secs(secs).checked_sub(unix_now) {
                    Some(ttl) if !ttl.is_zero() => Deadline::after(ttl),
                    _ => Deadline::PASSED,
                })
            }
        }
    }

    /// The instant this deadline names.
    pub fn instant(self) -> Instant {
        Deadline::epoch() + Duration::from_secs(self.0.get().into())
    }

    /// Whether this deadline has passed at `now`.
    pub fn has_passed(self, now: Instant) -> bool {
        self == Deadline::PASSED || now >= self.instant()
    }
}

/// A value stored in the cache: opaque client flags, an optional expiry
/// deadline and the payload bytes.
///
/// Cloning an `Item` is cheap: it copies at most 70 bytes of payload, and
/// a longer payload is reference-counted ([`Bytes`]) rather than copied.
///
/// The fields are laid out in the order written (`repr(C)`): the 4-byte
/// deadline and the 4-byte flags first and the payload last, so that in an
/// index node the deadline sits beside the chain link, the key and the
/// access word, which are all the eviction scan reads, with no padding
/// between.
#[derive(Debug, Clone, PartialEq, Eq)]
#[repr(C)]
pub struct Item {
    /// Expiry deadline; `None` means the item never expires.
    pub expires_at: Option<Deadline>,
    /// Opaque client-supplied flags (returned verbatim on GET).
    pub flags: u32,
    /// The payload.
    pub data: Payload,
}

impl Item {
    /// Creates an item that never expires.
    pub fn new(flags: u32, data: impl Into<Payload>) -> Self {
        Item {
            expires_at: None,
            flags,
            data: data.into(),
        }
    }

    /// Creates an item that expires `ttl` from now, to the next whole
    /// second; a zero `ttl` means the item never expires (memcached's
    /// `exptime 0` convention).
    pub fn with_ttl(flags: u32, data: impl Into<Payload>, ttl: Duration) -> Self {
        Item {
            expires_at: (!ttl.is_zero()).then(|| Deadline::after(ttl)),
            flags,
            data: data.into(),
        }
    }

    /// Creates an item whose deadline has already passed.
    pub fn expired(flags: u32, data: impl Into<Payload>) -> Self {
        Item {
            expires_at: Some(Deadline::PASSED),
            flags,
            data: data.into(),
        }
    }

    /// Returns `true` if the item has passed its expiry deadline.
    pub fn is_expired(&self, now: Instant) -> bool {
        self.expires_at
            .is_some_and(|deadline| deadline.has_passed(now))
    }

    /// [`Item::is_expired`] for a scan that reads the clock once, into
    /// `now`, and only when it meets an item with a deadline.
    pub(crate) fn has_expired_by(&self, now: &mut Option<Instant>) -> bool {
        self.expires_at
            .is_some_and(|deadline| deadline.has_passed(*now.get_or_insert_with(Instant::now)))
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rp_hash::FnvBuildHasher;
    use std::hash::BuildHasher;

    /// Arbitrary UTF-8 of 0..=250 bytes, every length about as likely.
    fn key_strategy() -> impl Strategy<Value = String> {
        let chars = proptest::collection::vec(any::<char>(), 0..251);
        (chars, 0_usize..251).prop_map(|(chars, max_len)| {
            let mut key = String::new();
            for c in chars {
                if key.len() + c.len_utf8() > max_len {
                    break;
                }
                key.push(c);
            }
            key
        })
    }

    fn is_inline(key: &ItemKey) -> bool {
        matches!(key.0, Repr::Inline { .. })
    }

    /// What the indexes rely on: an `ItemKey` is its `str` to the hasher,
    /// to `Eq` and through `Borrow`.
    fn assert_behaves_as_its_str(text: &str) {
        let key = ItemKey::from(text);
        assert_eq!(is_inline(&key), text.len() <= INLINE_KEY_LEN, "{text:?}");
        assert_eq!(
            FnvBuildHasher.hash_one(&key),
            FnvBuildHasher.hash_one(text),
            "{text:?}"
        );
        assert_eq!(Borrow::<str>::borrow(&key), text);
        assert_eq!(key.as_bytes(), text.as_bytes());
        assert_eq!(key, key.clone());
    }

    #[test]
    fn keys_at_the_inline_boundary_behave_as_their_str() {
        let at = "k".repeat(INLINE_KEY_LEN);
        let over = "k".repeat(INLINE_KEY_LEN + 1);
        // Multi-byte text that ends exactly on, and one byte past, the boundary.
        let wide_at = format!("{}é", "k".repeat(INLINE_KEY_LEN - 2));
        let wide_over = format!("{}é", "k".repeat(INLINE_KEY_LEN - 1));
        for text in ["", "k", &at, &over, &wide_at, &wide_over, &"k".repeat(250)] {
            assert_behaves_as_its_str(text);
        }
        // The same prefix on either side of the boundary: distinct keys.
        assert_ne!(ItemKey::from(at.as_str()), ItemKey::from(over.as_str()));
    }

    proptest! {
        #[test]
        fn any_key_behaves_as_its_str(text in key_strategy()) {
            assert_behaves_as_its_str(&text);
        }

        #[test]
        fn keys_are_equal_iff_their_strs_are(a in key_strategy(), b in key_strategy(), cut in 0_usize..251) {
            prop_assert_eq!(ItemKey::from(a.as_str()) == ItemKey::from(b.as_str()), a == b);
            // A prefix differs from the whole exactly when it is shorter,
            // whichever representation each side lands in.
            let cut = (0..=cut.min(a.len())).rev().find(|&at| a.is_char_boundary(at)).unwrap_or(0);
            let prefix = &a[..cut];
            prop_assert_eq!(ItemKey::from(prefix) == ItemKey::from(a.as_str()), prefix == a);
        }
    }

    /// Arbitrary bytes of 0..=200 long, every length about as likely, so
    /// both sides of the inline boundary come up often.
    fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
        let bytes = proptest::collection::vec(any::<u8>(), 200..201);
        (bytes, 0_usize..201).prop_map(|(mut bytes, len)| {
            bytes.truncate(len);
            bytes
        })
    }

    /// `value` through each constructor a payload has.
    fn payloads_of(value: &[u8]) -> [Payload; 4] {
        [
            Payload::copy_from_slice(value),
            Payload::from(value),
            Payload::from(value.to_vec()),
            Item::new(0, value.to_vec()).data,
        ]
    }

    /// What the engines and the reply writer rely on: a `Payload` is its
    /// bytes to `Deref`, `Eq` and the hasher, a clone is equal, and it is
    /// inline exactly when its length allows.
    fn assert_behaves_as_its_bytes(value: &[u8]) {
        for payload in payloads_of(value) {
            assert_eq!(&*payload, value);
            assert_eq!(
                payload.shared().is_none(),
                value.len() <= INLINE_VALUE_LEN,
                "{} bytes",
                value.len()
            );
            assert_eq!(
                FnvBuildHasher.hash_one(&payload),
                FnvBuildHasher.hash_one(value)
            );
            let copy = payload.clone();
            assert_eq!(copy, payload);
            assert_eq!(&*copy, value);
            assert_eq!(payload, Payload::copy_from_slice(value));
        }
    }

    #[test]
    fn payloads_at_the_inline_boundary_behave_as_their_bytes() {
        for len in [
            0,
            1,
            INLINE_VALUE_LEN - 1,
            INLINE_VALUE_LEN,
            INLINE_VALUE_LEN + 1,
            1025,
        ] {
            // Not UTF-8, and not zero, so a stray pad byte would show.
            assert_behaves_as_its_bytes(&vec![0xfe; len]);
        }
        // The same prefix on either side of the boundary: distinct values.
        let at = Payload::from(vec![b'v'; INLINE_VALUE_LEN]);
        let over = Payload::from(vec![b'v'; INLINE_VALUE_LEN + 1]);
        assert_ne!(at, over);
        assert_eq!(
            format!("{at:?}"),
            format!("b\"{}\"", "v".repeat(INLINE_VALUE_LEN))
        );
    }

    proptest! {
        #[test]
        fn any_payload_behaves_as_its_bytes(value in value_strategy()) {
            assert_behaves_as_its_bytes(&value);
        }

        #[test]
        fn payloads_are_equal_iff_their_bytes_are(a in value_strategy(), b in value_strategy()) {
            prop_assert_eq!(Payload::from(a.clone()) == Payload::from(b.clone()), a == b);
            // A prefix differs from the whole exactly when it is shorter,
            // whichever form each side takes.
            let prefix = &a[..a.len() / 2];
            prop_assert_eq!(Payload::from(prefix) == Payload::from(a.as_slice()), prefix == a.as_slice());
        }
    }

    #[test]
    fn new_item_never_expires() {
        let item = Item::new(7, "hello");
        assert_eq!(item.flags, 7);
        assert_eq!(item.len(), 5);
        assert!(!item.is_empty());
        assert!(!item.is_expired(Instant::now() + Duration::from_secs(3600)));
    }

    #[test]
    fn zero_ttl_means_no_expiry() {
        let item = Item::with_ttl(0, "x", Duration::ZERO);
        assert!(item.expires_at.is_none());
    }

    #[test]
    fn ttl_expiry_is_respected() {
        let before = Instant::now();
        let item = Item::with_ttl(0, "x", Duration::from_secs(2));
        let after = Instant::now();
        let deadline = item.expires_at.unwrap().instant();
        // Never early, and at most a second late.
        assert!(deadline >= before + Duration::from_secs(2));
        assert!(deadline <= after + Duration::from_secs(3));
        assert!(!item.is_expired(deadline - Duration::from_nanos(1)));
        assert!(item.is_expired(deadline));
        assert!(item.is_expired(deadline + Duration::from_secs(1)));
    }

    #[test]
    fn an_expired_item_is_expired_from_the_clocks_first_second() {
        // `now` may predate the clock's epoch if this test runs first.
        let now = Instant::now();
        let item = Item::expired(0, "x");
        assert!(item.is_expired(now));
        assert_eq!(Deadline::at(Deadline::PASSED.instant()), Deadline::PASSED);
        // The clock's epoch and anything before it round up to second 1.
        assert_eq!(Deadline::at(Deadline::epoch()), Deadline::PASSED);
    }

    #[test]
    fn a_deadline_past_the_clocks_range_saturates() {
        let last = Deadline::after(Duration::MAX);
        assert_eq!(last, Deadline::LAST);
        assert_eq!(
            Deadline::after(Duration::from_secs(u64::from(u32::MAX))),
            last
        );
        assert!(!last.has_passed(Instant::now()));
    }

    #[test]
    fn exptime_reads_as_memcached_reads_it() {
        assert_eq!(Deadline::from_exptime(0), None);
        let before = Instant::now();
        let month = MAX_RELATIVE_EXPTIME as i64;
        let relative = Deadline::from_exptime(month).unwrap();
        assert!(relative.instant() >= before + Duration::from_secs(MAX_RELATIVE_EXPTIME));
        // One second more is a Unix time, long gone.
        assert_eq!(Deadline::from_exptime(month + 1), Some(Deadline::PASSED));
        assert_eq!(Deadline::from_exptime(i64::MAX), Some(Deadline::LAST));
        // A negative exptime has already passed.
        for negative in [-1, i64::MIN] {
            assert_eq!(Deadline::from_exptime(negative), Some(Deadline::PASSED));
        }
    }

    proptest! {
        #[test]
        fn a_deadline_passes_within_a_second_of_its_ttl(ttl_ms in 1..MAX_RELATIVE_EXPTIME * 1000 + 1) {
            let ttl = Duration::from_millis(ttl_ms);
            let now = Instant::now();
            let deadline = Deadline::at(now + ttl);
            prop_assert!(!deadline.has_passed(now + ttl - Duration::from_nanos(1)));
            prop_assert!(deadline.has_passed(now + ttl + Duration::from_secs(1)));
            // The same through `with_ttl`, which reads the clock itself.
            let before = Instant::now();
            let item = Item::with_ttl(0, "x", ttl);
            let after = Instant::now();
            prop_assert!(!item.is_expired(before + ttl - Duration::from_nanos(1)));
            prop_assert!(item.is_expired(after + ttl + Duration::from_secs(1)));
        }
    }

    #[test]
    fn clone_shares_the_payload_allocation() {
        let item = Item::new(0, vec![1_u8; 1024]);
        let copy = item.clone();
        assert_eq!(item.data.as_ptr(), copy.data.as_ptr());
    }
}
