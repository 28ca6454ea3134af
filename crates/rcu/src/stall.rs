//! A grace-period stall detector, in the spirit of the kernel's RCU CPU
//! stall warnings.
//!
//! The paper's wait-free-reader guarantee has a writer-side dual: a grace
//! period only ends when every reader cooperates (EBR readers by leaving
//! their critical sections, QSBR readers by announcing quiescence or going
//! offline). A reader that stops cooperating turns every
//! [`crate::GraceSync::synchronize`] into a silent hang — the hardest class
//! of bug to attribute in a relativistic system. This module makes such
//! hangs *observable and attributable*:
//!
//! * Every wait inside the funnel stamps its begin time into one of a fixed
//!   set of shared [`detector`] slots (allocation-free, RAII-cleared when
//!   the wait completes).
//! * [`StallDetector::check_now`] — driven from a watchdog thread
//!   ([`spawn_watchdog`], or the process-wide [`ensure_global_watchdog`]
//!   every server starts) — flags any wait that has exceeded the configured
//!   threshold, names every reader of the global domain still holding it
//!   up, whatever its flavor, by ordinal and thread name
//!   ([`RcuDomain::blocking_readers`]), bumps `rcu_grace_stalls_total`, and
//!   records a [`rp_obs::TraceKind::GraceStall`] event.
//! * With [`StallConfig::panic_on_stall`] (env `RP_RCU_STALL_PANIC`), a
//!   flagged stall panics with the report instead — torture suites convert
//!   silent hangs into named failures.
//!
//! Reports name the readers of the global domain, the one behind
//! [`crate::GraceSync::global`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::domain::RcuDomain;

/// Stall-detection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallConfig {
    /// A grace-period wait pending longer than this is flagged.
    pub threshold: Duration,
    /// Panic with the stall report instead of only counting it
    /// (env `RP_RCU_STALL_PANIC`).
    pub panic_on_stall: bool,
}

/// Default stall threshold when `RP_RCU_STALL_THRESHOLD_MS` is unset: well
/// past any healthy grace period (which completes in microseconds to
/// milliseconds even under torture), so production deployments only ever
/// flag genuine reader misbehavior.
pub const DEFAULT_STALL_THRESHOLD: Duration = Duration::from_millis(1000);

impl Default for StallConfig {
    fn default() -> Self {
        StallConfig {
            threshold: DEFAULT_STALL_THRESHOLD,
            panic_on_stall: false,
        }
    }
}

impl StallConfig {
    /// Reads the configuration from the environment:
    /// `RP_RCU_STALL_THRESHOLD_MS` (integer milliseconds, minimum 10) and
    /// `RP_RCU_STALL_PANIC` (`1`/`true`/`on`).
    pub fn from_env() -> StallConfig {
        let threshold = std::env::var("RP_RCU_STALL_THRESHOLD_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(|ms| Duration::from_millis(ms.max(10)))
            .unwrap_or(DEFAULT_STALL_THRESHOLD);
        let panic_on_stall = std::env::var("RP_RCU_STALL_PANIC")
            .map(|v| matches!(v.as_str(), "1" | "true" | "on"))
            .unwrap_or(false);
        StallConfig {
            threshold,
            panic_on_stall,
        }
    }
}

/// Concurrent grace-period waits the detector can track at once: live
/// stamps are bounded by the number of threads blocked in a funnel wait;
/// overflow simply leaves the excess waits unstamped.
const STALL_SLOTS: usize = 16;

#[derive(Default)]
struct StampSlot {
    /// 1 = claimed (fields may be in flux), publishes via `begin_us`.
    busy: AtomicU64,
    /// Wait begin time ([`rp_obs::now_us`], saturated to at least 1);
    /// 0 = no wait published in this slot.
    begin_us: AtomicU64,
    /// Set once the stall has been reported, so a wait is flagged at most
    /// once however many checkers race.
    reported: AtomicU64,
}

/// The process-wide stall detector: the stamp slots of the waits in
/// progress.
pub struct StallDetector {
    slots: [StampSlot; STALL_SLOTS],
}

impl std::fmt::Debug for StallDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StallDetector")
            .field("pending", &self.pending_waits())
            .finish()
    }
}

impl Default for StallDetector {
    fn default() -> Self {
        StallDetector::new()
    }
}

/// Returns the process-wide stall detector.
pub fn detector() -> &'static StallDetector {
    static GLOBAL: OnceLock<StallDetector> = OnceLock::new();
    GLOBAL.get_or_init(StallDetector::new)
}

/// RAII stamp of one in-progress grace-period wait; dropping it (the wait
/// completed) clears the slot.
#[derive(Debug)]
pub struct StampGuard<'a> {
    detector: &'a StallDetector,
    slot: usize,
}

impl Drop for StampGuard<'_> {
    fn drop(&mut self) {
        let slot = &self.detector.slots[self.slot];
        slot.begin_us.store(0, Ordering::Release);
        slot.reported.store(0, Ordering::Relaxed);
        slot.busy.store(0, Ordering::Release);
    }
}

impl StallDetector {
    /// Creates an isolated detector instance (tests; production code uses
    /// [`detector`]).
    pub fn new() -> StallDetector {
        StallDetector {
            slots: Default::default(),
        }
    }

    /// Stamps the begin of a grace-period wait. Returns `None` (the wait
    /// goes unwatched) when every slot is taken.
    pub fn stamp_begin(&self) -> Option<StampGuard<'_>> {
        for (i, slot) in self.slots.iter().enumerate() {
            if slot
                .busy
                .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            slot.reported.store(0, Ordering::Relaxed);
            slot.begin_us
                .store(rp_obs::now_us().max(1), Ordering::Release);
            return Some(StampGuard {
                detector: self,
                slot: i,
            });
        }
        None
    }

    /// Number of grace-period waits currently stamped (tests/diagnostics).
    pub fn pending_waits(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.begin_us.load(Ordering::Acquire) != 0)
            .count()
    }

    /// Scans the stamp slots and flags every wait pending longer than
    /// `config.threshold` that has not already been flagged. Each flagged
    /// stall bumps `rcu_grace_stalls_total`, records a
    /// [`rp_obs::TraceKind::GraceStall`] trace event carrying the elapsed
    /// nanoseconds, and prints an attribution report to stderr; with
    /// `config.panic_on_stall` it panics with the report instead. Returns
    /// how many stalls this call flagged.
    pub fn check_now(&self, config: &StallConfig) -> usize {
        let threshold_us = u64::try_from(config.threshold.as_micros()).unwrap_or(u64::MAX);
        let now = rp_obs::now_us();
        let mut flagged = 0;
        for slot in self.slots.iter() {
            let begin = slot.begin_us.load(Ordering::Acquire);
            if begin == 0 || now.saturating_sub(begin) < threshold_us {
                continue;
            }
            if slot
                .reported
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue; // already flagged (or a racing checker won)
            }
            // Re-read the begin time: the wait may have completed and the
            // slot been reused between the first load and the CAS. A fresh
            // wait is under threshold and is skipped; its `reported` flag
            // was re-zeroed by the reuse, so it is still watchable.
            let begin = slot.begin_us.load(Ordering::Acquire);
            if begin == 0 || now.saturating_sub(begin) < threshold_us {
                continue;
            }
            let elapsed_us = now - begin;
            let obs = rp_obs::global();
            obs.rcu.grace_stalls_total.inc();
            obs.trace.record(
                rp_obs::TraceKind::GraceStall,
                elapsed_us.saturating_mul(1000),
            );
            let report = report(elapsed_us);
            if config.panic_on_stall {
                panic!("{report}");
            }
            eprintln!("{report}");
            flagged += 1;
        }
        flagged
    }
}

/// Builds the human-readable attribution line for a flagged stall: every
/// reader of the global domain holding a grace period up, by ordinal and
/// thread name. Slow path only — allocates freely.
fn report(elapsed_us: u64) -> String {
    let blocking: Vec<String> = RcuDomain::global()
        .blocking_readers()
        .into_iter()
        .map(|(ordinal, thread)| format!("ordinal {ordinal} ({thread})"))
        .collect();
    let culprit = if blocking.is_empty() {
        "none found (it may have just resolved)".to_string()
    } else {
        blocking.join(", ")
    };
    format!(
        "rcu grace-period stall: grace period pending for {} ms (threshold exceeded); \
         blocking reader(s): {culprit}",
        elapsed_us / 1000
    )
}

/// A running stall watchdog thread; dropping the handle stops and joins
/// it.
#[derive(Debug)]
pub struct StallWatchdog {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl StallWatchdog {
    /// Signals the watchdog to exit and waits for it. Returns `Err` if the
    /// watchdog thread panicked (i.e. `panic_on_stall` fired).
    pub fn stop(mut self) -> std::thread::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.take() {
            Some(t) => t.join(),
            None => Ok(()),
        }
    }
}

impl Drop for StallWatchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Spawns a standalone watchdog thread that checks for stalls every
/// quarter threshold (clamped to 5–250 ms), guaranteeing detection within
/// well under 2× the configured threshold.
pub fn spawn_watchdog(config: StallConfig) -> StallWatchdog {
    let stop = Arc::new(AtomicBool::new(false));
    let tick = (config.threshold / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
    let thread = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("rp-rcu-stall-watchdog".into())
            .spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    detector().check_now(&config);
                    std::thread::sleep(tick);
                }
            })
            .expect("spawn stall watchdog")
    };
    StallWatchdog {
        stop,
        thread: Some(thread),
    }
}

/// Ensures a process-wide watchdog with the environment configuration is
/// running (idempotent; the thread lives for the rest of the process).
/// Servers call this at startup: a reader that stalls the reclaim thread's
/// pass, or a resize's wait, is reported by name.
pub fn ensure_global_watchdog() {
    static STARTED: OnceLock<()> = OnceLock::new();
    STARTED.get_or_init(|| {
        let config = StallConfig::from_env();
        let tick =
            (config.threshold / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
        std::thread::Builder::new()
            .name("rp-rcu-stall-watchdog".into())
            .spawn(move || loop {
                detector().check_now(&config);
                std::thread::sleep(tick);
            })
            .expect("spawn stall watchdog");
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    #[test]
    fn stamp_publish_and_clear() {
        let d = StallDetector::new();
        assert_eq!(d.pending_waits(), 0);
        let guard = d.stamp_begin().expect("a free slot");
        assert_eq!(d.pending_waits(), 1);
        drop(guard);
        assert_eq!(d.pending_waits(), 0);
    }

    #[test]
    fn fresh_waits_are_not_flagged() {
        let d = StallDetector::new();
        let _guard = d.stamp_begin().expect("a free slot");
        let config = StallConfig {
            threshold: Duration::from_secs(3600),
            panic_on_stall: false,
        };
        assert_eq!(d.check_now(&config), 0);
    }

    #[test]
    fn an_overdue_wait_is_flagged_exactly_once() {
        let d = StallDetector::new();
        let guard = d.stamp_begin().expect("a free slot");
        let config = StallConfig {
            threshold: Duration::from_millis(10),
            panic_on_stall: false,
        };
        std::thread::sleep(Duration::from_millis(25));
        let before = rp_obs::global().rcu.grace_stalls_total.get();
        assert_eq!(d.check_now(&config), 1);
        assert_eq!(d.check_now(&config), 0, "a stall is reported once");
        assert!(rp_obs::global().rcu.grace_stalls_total.get() > before);
        drop(guard);
    }

    #[test]
    fn slot_exhaustion_degrades_to_none() {
        let d = StallDetector::new();
        let guards: Vec<_> = (0..STALL_SLOTS)
            .map(|_| d.stamp_begin().expect("a free slot"))
            .collect();
        assert!(d.stamp_begin().is_none());
        drop(guards);
        assert!(d.stamp_begin().is_some());
    }

    #[test]
    fn config_from_env_parses_and_clamps() {
        // Edition 2021: set_var is safe. Serialize against the other env
        // test via a lock on the variable names.
        static ENV_LOCK: Mutex<()> = Mutex::new(());
        let _env = ENV_LOCK.lock();
        std::env::remove_var("RP_RCU_STALL_THRESHOLD_MS");
        std::env::remove_var("RP_RCU_STALL_PANIC");
        assert_eq!(StallConfig::from_env(), StallConfig::default());
        std::env::set_var("RP_RCU_STALL_THRESHOLD_MS", "250");
        std::env::set_var("RP_RCU_STALL_PANIC", "1");
        let config = StallConfig::from_env();
        assert_eq!(config.threshold, Duration::from_millis(250));
        assert!(config.panic_on_stall);
        std::env::set_var("RP_RCU_STALL_THRESHOLD_MS", "3");
        assert_eq!(
            StallConfig::from_env().threshold,
            Duration::from_millis(10),
            "threshold clamps to a sane floor"
        );
        std::env::remove_var("RP_RCU_STALL_THRESHOLD_MS");
        std::env::remove_var("RP_RCU_STALL_PANIC");
    }

    #[test]
    fn watchdog_starts_and_stops_cleanly() {
        let w = spawn_watchdog(StallConfig {
            threshold: Duration::from_secs(3600),
            panic_on_stall: false,
        });
        std::thread::sleep(Duration::from_millis(20));
        w.stop().expect("watchdog exits without panicking");
    }
}
