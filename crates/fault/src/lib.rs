//! Deterministic, seeded fault injection.
//!
//! A *failpoint* is a named hook compiled into production code:
//!
//! ```
//! fn writev_with_faults() -> std::io::Result<usize> {
//!     if let Some(fault) = rp_fault::point("net.writev") {
//!         match fault {
//!             rp_fault::IoFault::Error(e) => return Err(e),
//!             rp_fault::IoFault::Short(_n) => { /* clamp the write to n bytes */ }
//!         }
//!     }
//!     Ok(0) // ... the real writev
//! }
//! ```
//!
//! Disarmed (the default, and the only state production ever sees) the
//! entire call is **one relaxed atomic load and a predicted-not-taken
//! branch** — no lock, no allocation, no syscall — so the hot-path
//! 0-alloc and observability-overhead gates stay green with failpoints
//! compiled in. Armed ([`arm`] / [`arm_from_env`]), each call consults a
//! seeded plan and may return a scripted [`IoFault`], sleep an injected
//! delay, or panic.
//!
//! # Plans
//!
//! A plan is a `;`-separated list of rules, each
//! `point=action[:arg][*count][@prob]`:
//!
//! | action | effect at the failpoint |
//! |---|---|
//! | `eintr`, `eagain`, `econnreset`, `emfile`, `enfile`, `enomem` | return [`IoFault::Error`] with that errno |
//! | `err:<errno>` | return [`IoFault::Error`] with an arbitrary raw errno |
//! | `short` / `short:<n>` | return [`IoFault::Short`] clamping the I/O to `n` bytes (default 1) |
//! | `delay:<n>ms` | sleep `n` milliseconds inline, then proceed normally |
//! | `panic` | `panic!` at the failpoint |
//!
//! `*count` caps how many times the rule fires (then it goes inert);
//! `@prob` (a float in `0..=1`) gates each evaluation through a seeded
//! xorshift64* stream so a given `RP_FAULT_SEED` replays the exact same
//! fault schedule. Rules are evaluated in plan order; the first that
//! fires wins. Example:
//!
//! ```text
//! RP_FAULT_PLAN='net.read=eintr*3;net.writev=short:128@0.05;hash.resize.step=delay:2ms@0.5'
//! RP_FAULT_SEED=42
//! ```
//!
//! The crate is dependency-free and does no tracing of its own — call
//! sites own their telemetry (the injected-fault counters here exist so
//! tests can assert a plan actually fired).

#![deny(unsafe_op_in_unsafe_fn)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What an armed failpoint told the call site to do.
#[derive(Debug)]
pub enum IoFault {
    /// Fail the operation with this error (scripted errno).
    Error(std::io::Error),
    /// Perform the I/O, but clamped to at most this many bytes.
    Short(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Errno(i32),
    Short(usize),
    DelayMs(u64),
    Panic,
}

#[derive(Debug, Clone)]
struct Rule {
    action: Action,
    /// Remaining firings (`None` = unlimited).
    remaining: Option<u64>,
    /// Probability gate in millionths (`None` = always).
    prob_ppm: Option<u64>,
}

#[derive(Default)]
struct Registry {
    /// Rules per failpoint name, evaluated in plan order.
    rules: HashMap<String, Vec<Rule>>,
    /// xorshift64* state for the probability gates.
    rng: u64,
    /// Faults actually injected, per point.
    injected: HashMap<String, u64>,
}

/// The disarmed fast path: one relaxed load.
static ARMED: AtomicBool = AtomicBool::new(false);

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

const EINTR: i32 = 4;
const EAGAIN: i32 = 11;
const ENOMEM: i32 = 12;
const ENFILE: i32 = 23;
const EMFILE: i32 = 24;
const ECONNRESET: i32 = 104;

fn parse_action(spec: &str) -> Result<Action, String> {
    let (name, arg) = match spec.split_once(':') {
        Some((n, a)) => (n, Some(a)),
        None => (spec, None),
    };
    let action = match name {
        "eintr" => Action::Errno(EINTR),
        "eagain" => Action::Errno(EAGAIN),
        "enomem" => Action::Errno(ENOMEM),
        "enfile" => Action::Errno(ENFILE),
        "emfile" => Action::Errno(EMFILE),
        "econnreset" => Action::Errno(ECONNRESET),
        "err" => {
            let raw = arg
                .ok_or_else(|| "err needs an errno argument (err:<n>)".to_string())?
                .parse::<i32>()
                .map_err(|e| format!("bad errno: {e}"))?;
            return Ok(Action::Errno(raw));
        }
        "short" => {
            let n = match arg {
                Some(a) => a
                    .parse::<usize>()
                    .map_err(|e| format!("bad short length: {e}"))?,
                None => 1,
            };
            return Ok(Action::Short(n));
        }
        "delay" => {
            let a = arg.ok_or_else(|| "delay needs a duration (delay:<n>ms)".to_string())?;
            let ms = a
                .strip_suffix("ms")
                .ok_or_else(|| format!("delay duration must end in `ms`, got `{a}`"))?
                .parse::<u64>()
                .map_err(|e| format!("bad delay: {e}"))?;
            return Ok(Action::DelayMs(ms));
        }
        "panic" => Action::Panic,
        other => return Err(format!("unknown fault action `{other}`")),
    };
    if arg.is_some() {
        return Err(format!("action `{name}` takes no argument"));
    }
    Ok(action)
}

/// Parses one `point=action[:arg][*count][@prob]` rule.
fn parse_rule(entry: &str) -> Result<(String, Rule), String> {
    let (point, mut spec) = entry
        .split_once('=')
        .ok_or_else(|| format!("rule `{entry}` is missing `=`"))?;
    let point = point.trim();
    if point.is_empty() {
        return Err(format!("rule `{entry}` has an empty point name"));
    }
    let mut prob_ppm = None;
    if let Some((rest, prob)) = spec.split_once('@') {
        let p: f64 = prob.parse().map_err(|e| format!("bad probability: {e}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("probability {p} is outside 0..=1"));
        }
        prob_ppm = Some((p * 1_000_000.0) as u64);
        spec = rest;
    }
    let mut remaining = None;
    if let Some((rest, count)) = spec.split_once('*') {
        let n: u64 = count.parse().map_err(|e| format!("bad count: {e}"))?;
        remaining = Some(n);
        spec = rest;
    }
    let action = parse_action(spec.trim())?;
    Ok((
        point.to_string(),
        Rule {
            action,
            remaining,
            prob_ppm,
        },
    ))
}

/// Arms the registry with `plan` (see the crate docs for the grammar),
/// seeding the probability gates from `seed`. Replaces any prior plan.
pub fn arm(plan: &str, seed: u64) -> Result<(), String> {
    let mut registry = Registry {
        // xorshift64* needs a nonzero state; fold seed 0 onto the golden
        // ratio so every seed is usable.
        rng: if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        },
        ..Registry::default()
    };
    for entry in plan.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (point, rule) = parse_rule(entry)?;
        registry.rules.entry(point).or_default().push(rule);
    }
    let mut slot = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    *slot = Some(registry);
    ARMED.store(true, Ordering::Release);
    Ok(())
}

/// Arms from `RP_FAULT_PLAN` / `RP_FAULT_SEED` when the plan variable is
/// set; returns whether a plan was armed. A malformed plan panics —
/// a chaos run silently running without its faults would be worse.
pub fn arm_from_env() -> bool {
    let Ok(plan) = std::env::var("RP_FAULT_PLAN") else {
        return false;
    };
    let seed = std::env::var("RP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(1);
    arm(&plan, seed).unwrap_or_else(|e| panic!("bad RP_FAULT_PLAN: {e}"));
    true
}

/// Disarms every failpoint, restoring the one-relaxed-load fast path.
/// Injected-fault counters are kept until the next [`arm`].
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
}

/// Whether a plan is currently armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// How many faults this point has injected since the last [`arm`].
pub fn injected(point: &str) -> u64 {
    let slot = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    slot.as_ref()
        .and_then(|r| r.injected.get(point).copied())
        .unwrap_or(0)
}

/// Total faults injected across all points since the last [`arm`].
pub fn injected_total() -> u64 {
    let slot = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    slot.as_ref().map_or(0, |r| r.injected.values().sum())
}

/// The failpoint hook. Disarmed this is one relaxed load; armed it
/// consults the plan and may return an [`IoFault`], sleep an injected
/// delay inline (returning `None` so the operation proceeds), or panic
/// with a message naming the point.
#[inline]
pub fn point(name: &str) -> Option<IoFault> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    point_armed(name)
}

#[cold]
fn point_armed(name: &str) -> Option<IoFault> {
    let fired = {
        let mut slot = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
        let registry = slot.as_mut()?;
        let mut rng = registry.rng;
        let mut fired = None;
        if let Some(rules) = registry.rules.get_mut(name) {
            for rule in rules.iter_mut() {
                if rule.remaining == Some(0) {
                    continue;
                }
                if let Some(ppm) = rule.prob_ppm {
                    if xorshift64star(&mut rng) % 1_000_000 >= ppm {
                        continue;
                    }
                }
                if let Some(n) = rule.remaining.as_mut() {
                    *n -= 1;
                }
                fired = Some(rule.action);
                break;
            }
        }
        registry.rng = rng;
        if fired.is_some() {
            *registry.injected.entry(name.to_string()).or_insert(0) += 1;
        }
        fired
    };
    // Lock dropped: delays and panics must not hold the registry.
    match fired? {
        Action::Errno(raw) => Some(IoFault::Error(std::io::Error::from_raw_os_error(raw))),
        Action::Short(n) => Some(IoFault::Short(n)),
        Action::DelayMs(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        Action::Panic => panic!("injected panic at failpoint `{name}`"),
    }
}

/// Arms a plan for a lexical scope and disarms on drop — for tests.
/// Fault-armed tests must live in their own integration-test binary
/// (their own process) and serialize on a local mutex: the registry is
/// process-global.
pub struct ArmGuard(());

impl ArmGuard {
    /// Arms `plan` with `seed`; panics on a malformed plan.
    pub fn new(plan: &str, seed: u64) -> ArmGuard {
        arm(plan, seed).unwrap_or_else(|e| panic!("bad fault plan: {e}"));
        ArmGuard(())
    }
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        disarm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The registry is process-global; unit tests that arm must not
    /// interleave.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disarmed_points_return_none() {
        let _s = serial();
        disarm();
        assert!(point("anything.at.all").is_none());
        assert!(!armed());
    }

    #[test]
    fn errno_actions_surface_as_errors() {
        let _s = serial();
        let _g = ArmGuard::new("p.err=econnreset", 1);
        match point("p.err") {
            Some(IoFault::Error(e)) => assert_eq!(e.raw_os_error(), Some(ECONNRESET)),
            other => panic!("expected ECONNRESET, got {other:?}"),
        }
        assert!(point("p.other").is_none(), "unlisted points stay silent");
        assert_eq!(injected("p.err"), 1);
    }

    #[test]
    fn count_budget_exhausts() {
        let _s = serial();
        let _g = ArmGuard::new("p.count=eintr*2", 7);
        assert!(point("p.count").is_some());
        assert!(point("p.count").is_some());
        assert!(point("p.count").is_none(), "budget of 2 is spent");
        assert_eq!(injected("p.count"), 2);
    }

    #[test]
    fn short_parses_explicit_and_default_lengths() {
        let _s = serial();
        let _g = ArmGuard::new("p.a=short:128;p.b=short", 1);
        match point("p.a") {
            Some(IoFault::Short(128)) => {}
            other => panic!("expected Short(128), got {other:?}"),
        }
        match point("p.b") {
            Some(IoFault::Short(1)) => {}
            other => panic!("expected Short(1), got {other:?}"),
        }
    }

    #[test]
    fn probability_stream_is_deterministic_per_seed() {
        let _s = serial();
        let observe = |seed: u64| -> Vec<bool> {
            let _g = ArmGuard::new("p.prob=eintr@0.5", seed);
            (0..64).map(|_| point("p.prob").is_some()).collect()
        };
        let a = observe(42);
        let b = observe(42);
        let c = observe(43);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_ne!(a, c, "different seeds should diverge");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn rules_fire_in_plan_order() {
        let _s = serial();
        let _g = ArmGuard::new("p.ord=eintr*1;p.ord=eagain", 1);
        match point("p.ord") {
            Some(IoFault::Error(e)) => assert_eq!(e.raw_os_error(), Some(EINTR)),
            other => panic!("expected EINTR first, got {other:?}"),
        }
        match point("p.ord") {
            Some(IoFault::Error(e)) => assert_eq!(e.raw_os_error(), Some(EAGAIN)),
            other => panic!("expected EAGAIN after EINTR budget, got {other:?}"),
        }
    }

    #[test]
    fn delay_sleeps_and_proceeds() {
        let _s = serial();
        let _g = ArmGuard::new("p.delay=delay:20ms*1", 1);
        let start = std::time::Instant::now();
        assert!(point("p.delay").is_none(), "delay lets the op proceed");
        assert!(start.elapsed() >= Duration::from_millis(15));
        assert_eq!(injected("p.delay"), 1, "the delay still counts as injected");
    }

    #[test]
    #[should_panic(expected = "injected panic at failpoint `p.boom`")]
    fn panic_action_panics_with_the_point_name() {
        let _s = serial();
        let _g = ArmGuard::new("p.boom=panic", 1);
        let _ = point("p.boom");
    }

    #[test]
    fn malformed_plans_are_rejected() {
        let _s = serial();
        disarm();
        for bad in [
            "no-equals",
            "p=unknownaction",
            "p=short:abc",
            "p=delay:5",
            "p=eintr@1.5",
            "p=eintr*x",
            "=eintr",
            "p=eintr:9",
        ] {
            assert!(arm(bad, 1).is_err(), "plan `{bad}` should be rejected");
        }
        assert!(!armed(), "a rejected plan must not arm");
    }

    #[test]
    fn empty_segments_are_tolerated() {
        let _s = serial();
        let _g = ArmGuard::new(" ; p.x=eintr ; ", 1);
        assert!(point("p.x").is_some());
    }
}
