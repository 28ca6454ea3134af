//! Grace-period stall reports, like the kernel's RCU CPU stall warnings.
//!
//! A grace period ends only when every reader cooperates (EBR readers by
//! leaving their critical sections, QSBR readers by announcing quiescence
//! or going offline); one that stops turns [`crate::RcuDomain::synchronize`]
//! into a silent hang. The scan that waits is the detector: once it has spun
//! and yielded it sleeps between polls, reading the clock on its first sleep
//! and comparing on each later one, so a healthy grace period reads no
//! clock. The first time a scan sleeps past the threshold it reports once:
//! it bumps `rcu_grace_stalls_total`, records a
//! [`rp_obs::TraceKind::GraceStall`] event and prints a report naming every
//! reader of *its* domain that still blocks it, by ordinal and thread name.
//! With [`StallConfig::panic_on_stall`] (env `RP_RCU_STALL_PANIC`) it then
//! aborts the process: the waiter may be `rcu-reclaimer`, whose panic would
//! end reclamation unnoticed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::domain::Reader;

/// Stall-detection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallConfig {
    /// A grace-period scan pending longer than this is reported.
    pub threshold: Duration,
    /// Abort the process after printing the stall report instead of only
    /// counting it (env `RP_RCU_STALL_PANIC`).
    pub panic_on_stall: bool,
}

/// The threshold when `RP_RCU_STALL_THRESHOLD_MS` is unset: well past any
/// healthy grace period, which takes microseconds to milliseconds.
const DEFAULT_STALL_THRESHOLD: Duration = Duration::from_millis(1000);

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
        let var = |name| std::env::var(name).unwrap_or_default();
        let ms = var("RP_RCU_STALL_THRESHOLD_MS").parse::<u64>();
        StallConfig {
            threshold: ms.map_or(DEFAULT_STALL_THRESHOLD, |ms| {
                Duration::from_millis(ms.max(10))
            }),
            panic_on_stall: matches!(var("RP_RCU_STALL_PANIC").as_str(), "1" | "true" | "on"),
        }
    }
}

/// The process-wide configuration: the environment's, or [`configure`]'s.
static CONFIG: Mutex<Option<StallConfig>> = Mutex::new(None);

/// Sets the configuration every later stall check in the process uses, in
/// place of the environment's.
pub fn configure(config: StallConfig) {
    *CONFIG.lock() = Some(config);
}

fn config() -> StallConfig {
    *CONFIG.lock().get_or_insert_with(StallConfig::from_env)
}

/// One scan's stall clock, read only before the scan's sleeps.
#[derive(Debug, Default)]
pub(crate) struct Watch {
    /// When the scan first slept, and the configuration in force then.
    since: Option<(Instant, StallConfig)>,
    /// The scan has reported its stall.
    reported: bool,
}

impl Watch {
    /// Reports the stall of the scan that bumped the counter to `target`
    /// over `snapshot`, the first time its sleeps pass the threshold.
    pub(crate) fn before_sleep(&mut self, snapshot: &[Arc<CachePadded<Reader>>], target: u64) {
        let Some((since, config)) = self.since else {
            self.since = Some((Instant::now(), config()));
            return;
        };
        let elapsed = since.elapsed();
        if self.reported || elapsed < config.threshold {
            return;
        }
        self.reported = true;
        let obs = rp_obs::global();
        obs.rcu.grace_stalls_total.inc();
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        obs.trace.record(rp_obs::TraceKind::GraceStall, ns);
        eprintln!("{}", report(elapsed, snapshot, target));
        if config.panic_on_stall {
            std::process::abort();
        }
    }
}

/// The stall report: every reader of `snapshot` that still blocks a grace
/// period whose target is `target`, by ordinal and thread name.
pub(crate) fn report(
    elapsed: Duration,
    snapshot: &[Arc<CachePadded<Reader>>],
    target: u64,
) -> String {
    let blocking: Vec<String> = snapshot
        .iter()
        .filter(|reader| reader.blocks(target))
        .map(|reader| format!("ordinal {} ({})", reader.ordinal, reader.thread))
        .collect();
    format!(
        "rcu grace-period stall: grace period pending for {} ms (threshold exceeded); \
         blocking reader(s): {}",
        elapsed.as_millis(),
        blocking.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_from_env_parses_and_clamps() {
        // The process-wide configuration is read once, before this test
        // changes the environment (edition 2021: set_var is safe), so a
        // scan that sleeps meanwhile never reads its values.
        config();
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
}
