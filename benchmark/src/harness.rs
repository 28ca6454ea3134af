//! The one harness shape every workload runs in: a driver executes
//! pre-generated units; a fixed count of them warms up, then each phase
//! measures units until its window closes. Threads of one workload move
//! from phase to phase together.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::measure::{cpu_us, steal_ticks, Outcome, SpanLog, UnitLog, SAMPLE_EVERY};

/// Executes units. `step` runs the next unit of the driver's stream between
/// two `Instant` reads and says what it did; when `spans` is given the unit
/// is a sampled one and the driver also records its spans.
pub trait Driver {
    fn step(&mut self, unit_id: u64, spans: Option<&mut SpanLog>) -> (Instant, Instant, Outcome);
}

#[derive(Clone, Copy)]
pub struct Phase {
    pub window: Duration,
    pub traced: bool,
}

/// How a thread warms up.
pub enum Warm<'a> {
    /// Run this many units, then raise the flag, if any.
    Units(u64, Option<&'a AtomicBool>),
    /// Run units until another thread raises the flag.
    Until(&'a AtomicBool),
}

#[derive(Clone, Copy)]
struct Mark {
    t0: Instant,
    target_cpu_us: u64,
    own_cpu_us: u64,
    /// Stolen and all ticks of the machine so far.
    ticks: (u64, u64),
}

/// Phase boundaries shared by the threads of one workload, with the CPU
/// time of the program under test (`target_pid`) and of the harness sampled
/// at each.
pub struct PhaseSync {
    barrier: Barrier,
    target_pid: u32,
    starts: Mutex<Vec<Mark>>,
    ends: Mutex<Vec<Mark>>,
}

/// One measured window: every thread's units, and the CPU spent meanwhile.
pub struct Window {
    pub log: UnitLog,
    pub spans: SpanLog,
    /// CPU time of the program under test over the window.
    pub target_cpu_us: u64,
    /// CPU time of the harness process over the window.
    pub own_cpu_us: u64,
    /// Share of the machine's CPU time the hypervisor gave to others over
    /// the window.
    pub steal_share: f64,
}

impl PhaseSync {
    pub fn new(threads: usize, target_pid: u32) -> PhaseSync {
        PhaseSync {
            barrier: Barrier::new(threads),
            target_pid,
            starts: Mutex::new(Vec::new()),
            ends: Mutex::new(Vec::new()),
        }
    }

    fn mark(&self) -> Mark {
        Mark {
            target_cpu_us: cpu_us(self.target_pid),
            own_cpu_us: cpu_us(std::process::id()),
            ticks: steal_ticks(),
            t0: Instant::now(),
        }
    }

    /// All threads arrive; one takes the mark; all leave with it.
    fn rendezvous(&self, marks: &Mutex<Vec<Mark>>, index: usize) -> Mark {
        if self.barrier.wait().is_leader() {
            let mark = self.mark();
            marks.lock().expect("mark lock").push(mark);
        }
        self.barrier.wait();
        marks.lock().expect("mark lock")[index]
    }

    /// When the first window opened: the end of set-up.
    pub fn first_start(&self) -> Option<Instant> {
        self.starts.lock().expect("mark lock").first().map(|m| m.t0)
    }

    /// Joins the per-thread results of [`run_thread`] into one [`Window`]
    /// per phase.
    pub fn windows(&self, per_thread: Vec<Vec<(UnitLog, SpanLog)>>) -> Vec<Window> {
        let starts = self.starts.lock().expect("mark lock");
        let ends = self.ends.lock().expect("mark lock");
        let mut windows: Vec<Window> = Vec::new();
        for thread in per_thread {
            for (phase, (log, spans)) in thread.into_iter().enumerate() {
                match windows.get_mut(phase) {
                    Some(window) => {
                        window.log.merge(log);
                        window.spans.append(spans);
                    }
                    None => {
                        let (start, end) = (starts[phase], ends[phase]);
                        let stolen = end.ticks.0 - start.ticks.0;
                        windows.push(Window {
                            log,
                            spans,
                            target_cpu_us: end.target_cpu_us - start.target_cpu_us,
                            own_cpu_us: end.own_cpu_us - start.own_cpu_us,
                            steal_share: stolen as f64
                                / (end.ticks.1 - start.ticks.1).max(1) as f64,
                        })
                    }
                }
            }
        }
        windows
    }
}

/// What one thread did: its warm-up units, then its units and spans of
/// every phase.
pub struct ThreadRun {
    pub warm: UnitLog,
    pub phases: Vec<(UnitLog, SpanLog)>,
}

/// One thread's whole run: counted warm-up, then every phase.
pub fn run_thread<D: Driver>(
    driver: &mut D,
    warm: Warm<'_>,
    sync: &PhaseSync,
    phases: &[Phase],
) -> ThreadRun {
    let warmed = warm_up(driver, warm);
    run_phases(driver, warmed, sync, phases)
}

/// Where a thread stands after warming up.
pub struct Warmed {
    next_unit: u64,
    /// The warm-up's units; wrong results among them count against the
    /// first window.
    log: UnitLog,
}

/// The counted warm-up of one thread.
pub fn warm_up<D: Driver>(driver: &mut D, warm: Warm<'_>) -> Warmed {
    let mut warmed = Warmed {
        next_unit: 0,
        log: UnitLog::new(),
    };
    let began = Instant::now();
    loop {
        let done = match warm {
            Warm::Units(count, _) => warmed.next_unit >= count,
            Warm::Until(done) => done.load(Ordering::Acquire),
        };
        if done {
            break;
        }
        let (start, end, outcome) = driver.step(warmed.next_unit, None);
        warmed.log.record(began, start, end, outcome);
        warmed.next_unit += 1;
    }
    if let Warm::Units(_, Some(done)) = warm {
        done.store(true, Ordering::Release);
    }
    warmed
}

/// Every phase of one thread, after [`warm_up`].
pub fn run_phases<D: Driver>(
    driver: &mut D,
    warmed: Warmed,
    sync: &PhaseSync,
    phases: &[Phase],
) -> ThreadRun {
    let Warmed {
        next_unit: mut unit_id,
        log: warm,
    } = warmed;
    let mut warm_failed = warm.failed;
    let mut results = Vec::with_capacity(phases.len());
    for (index, phase) in phases.iter().enumerate() {
        let mut log = UnitLog::new();
        log.failed = std::mem::take(&mut warm_failed);
        let t0 = sync.rendezvous(&sync.starts, index).t0;
        let mut spans = SpanLog::new();
        let deadline = t0 + phase.window;
        loop {
            let sampled = phase.traced && unit_id.is_multiple_of(SAMPLE_EVERY);
            let (start, end, outcome) = driver.step(unit_id, sampled.then_some(&mut spans));
            unit_id += 1;
            if end > deadline {
                // The unit that straddles the close is not timed, but a
                // wrong result in it still counts.
                log.failed += outcome.failed;
                break;
            }
            log.record(t0, start, end, outcome);
        }
        sync.rendezvous(&sync.ends, index);
        results.push((log, spans));
    }
    ThreadRun {
        warm,
        phases: results,
    }
}
