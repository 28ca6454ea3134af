//! The multi-threaded measurement harness.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crossbeam_utils::CachePadded;

use crate::latency::LatencyHistogram;

/// The result of one measurement run.
#[derive(Debug, Clone)]
pub struct MeasureResult {
    /// Total operations completed by all reader threads.
    pub total_ops: u64,
    /// Operations per reader thread (same order the threads were spawned).
    pub per_thread: Vec<u64>,
    /// Iterations completed by each background task.
    pub background_iterations: Vec<u64>,
    /// Wall-clock measurement time.
    pub elapsed: Duration,
}

impl MeasureResult {
    /// Aggregate throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64()
    }

    /// Aggregate throughput in millions of operations per second (the unit
    /// the paper's figures use).
    pub fn mops_per_sec(&self) -> f64 {
        self.ops_per_sec() / 1.0e6
    }

    /// Ratio between the fastest and slowest reader thread, as a fairness
    /// indicator (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let min = self.per_thread.iter().copied().min().unwrap_or(0).max(1);
        let max = self.per_thread.iter().copied().max().unwrap_or(0).max(1);
        max as f64 / min as f64
    }
}

/// Handle describing a background task to run alongside the readers (e.g. a
/// continuous resizer or an update thread).
pub struct BackgroundHandle<'a> {
    /// Human-readable label (reported in logs).
    pub name: &'static str,
    /// Body executed repeatedly until the measurement stops. The iteration
    /// counter passed in is the number of completed iterations so far.
    pub body: Box<dyn FnMut(u64) + Send + 'a>,
    /// Pause inserted between iterations (zero for a tight loop).
    pub pause: Duration,
}

impl<'a> BackgroundHandle<'a> {
    /// Creates a background task that runs `body` in a tight loop.
    pub fn new(name: &'static str, body: impl FnMut(u64) + Send + 'a) -> Self {
        BackgroundHandle {
            name,
            body: Box::new(body),
            pause: Duration::ZERO,
        }
    }

    /// Sets a pause between iterations.
    pub fn with_pause(mut self, pause: Duration) -> Self {
        self.pause = pause;
        self
    }
}

/// Runs a timed measurement, with per-operation latency sampling.
///
/// Spawns `reader_threads` threads; each builds its operation closure by
/// calling `make_reader` with its index **on its own thread**, then invokes
/// it repeatedly (one invocation = one operation) until `duration` has
/// elapsed. `background` tasks run concurrently in their own threads for
/// the same window. All threads start together on a barrier, so the
/// measured window excludes setup cost.
///
/// A closure and whatever it writes per operation (a key generator's
/// state, a read-side handle) are allocated by the thread that runs it and
/// live on that thread's stack or heap, never in one allocation beside
/// another reader's, so the readers' own state shares no cache line. The
/// closure may own thread-pinned (`!Send`) state, such as an
/// `rp_hash::QsbrReadHandle`, whose owning thread announces its own
/// quiescent states. Besides its own state a reader touches only the
/// shared stop flag, which it reads; its operation count is returned when
/// it is joined.
///
/// Every `sample_every`-th operation is timed and recorded into a
/// per-thread [`LatencyHistogram`]; the histograms are merged after the run
/// (sampling keeps the `Instant::now` overhead off the other operations, so
/// throughput numbers stay honest). Use `sample_every = 1` to time every
/// operation and `u64::MAX` to time only the first.
pub fn measure_thread_local<F>(
    reader_threads: usize,
    duration: Duration,
    sample_every: u64,
    make_reader: impl Fn(usize) -> F + Sync,
    background: Vec<BackgroundHandle<'_>>,
) -> (MeasureResult, LatencyHistogram)
where
    F: FnMut(),
{
    assert!(reader_threads > 0, "need at least one reader thread");
    let sample_every = sample_every.max(1);

    let stop = AtomicBool::new(false);
    let bg_counters: Vec<CachePadded<AtomicU64>> = (0..background.len())
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect();
    // Readers + background tasks + the timer (this thread).
    let barrier = Arc::new(Barrier::new(reader_threads + background.len() + 1));
    let make_reader = &make_reader;

    let (elapsed, per_thread, merged) = std::thread::scope(|scope| {
        let mut readers = Vec::with_capacity(reader_threads);
        for idx in 0..reader_threads {
            let stop = &stop;
            let barrier = Arc::clone(&barrier);
            readers.push(scope.spawn(move || {
                let mut reader = make_reader(idx);
                let mut hist = LatencyHistogram::new();
                barrier.wait();
                let mut local: u64 = 0;
                // A countdown, not `local % sample_every`: a division per
                // operation would be the harness's cost, not the table's.
                let mut until_sample = 0;
                while !stop.load(Ordering::Relaxed) {
                    if until_sample == 0 {
                        let started = Instant::now();
                        reader();
                        hist.record(started.elapsed());
                        until_sample = sample_every;
                    } else {
                        reader();
                    }
                    until_sample -= 1;
                    local += 1;
                }
                (local, hist)
            }));
        }

        for (idx, task) in background.into_iter().enumerate() {
            let stop = &stop;
            let counter = &bg_counters[idx];
            let barrier = Arc::clone(&barrier);
            let BackgroundHandle {
                name: _name,
                mut body,
                pause,
            } = task;
            scope.spawn(move || {
                barrier.wait();
                let mut iterations: u64 = 0;
                while !stop.load(Ordering::Relaxed) {
                    body(iterations);
                    iterations += 1;
                    counter.store(iterations, Ordering::Relaxed);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
            });
        }

        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::SeqCst);
        let elapsed = start.elapsed();

        let mut per_thread = Vec::with_capacity(reader_threads);
        let mut merged = LatencyHistogram::new();
        for handle in readers {
            let (ops, hist) = handle.join().expect("reader thread panicked");
            per_thread.push(ops);
            merged.merge(&hist);
        }
        (elapsed, per_thread, merged)
    });

    let background_iterations: Vec<u64> = bg_counters
        .iter()
        .map(|c| c.load(Ordering::SeqCst))
        .collect();
    (
        MeasureResult {
            total_ops: per_thread.iter().sum(),
            per_thread,
            background_iterations,
            elapsed,
        },
        merged,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn counts_operations_from_all_threads() {
        let (result, _) = measure_thread_local(
            4,
            Duration::from_millis(50),
            u64::MAX,
            |_| std::hint::spin_loop,
            Vec::new(),
        );
        assert_eq!(result.per_thread.len(), 4);
        assert!(result.total_ops > 0);
        assert!(result.ops_per_sec() > 0.0);
        assert!(result.elapsed >= Duration::from_millis(50));
    }

    #[test]
    fn background_task_runs_alongside_readers() {
        let resizes = AtomicUsize::new(0);
        let (result, _) = measure_thread_local(
            2,
            Duration::from_millis(50),
            u64::MAX,
            |_| std::hint::spin_loop,
            vec![BackgroundHandle::new("toggler", |_| {
                resizes.fetch_add(1, Ordering::Relaxed);
            })
            .with_pause(Duration::from_millis(5))],
        );
        assert_eq!(result.background_iterations.len(), 1);
        assert!(result.background_iterations[0] > 0);
        assert!(resizes.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn reader_closures_receive_their_index() {
        let seen = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let seen_ref = &seen;
        measure_thread_local(
            2,
            Duration::from_millis(20),
            u64::MAX,
            |idx| {
                move || {
                    seen_ref[idx].store(idx + 1, Ordering::Relaxed);
                }
            },
            Vec::new(),
        );
        assert_eq!(seen[0].load(Ordering::Relaxed), 1);
        assert_eq!(seen[1].load(Ordering::Relaxed), 2);
    }

    #[test]
    fn thread_local_factory_runs_on_worker_threads_and_samples_latency() {
        use std::collections::HashSet;
        use std::sync::Mutex;

        let spawn_threads = Mutex::new(HashSet::new());
        let driver_thread = std::thread::current().id();
        let (result, hist) = measure_thread_local(
            3,
            Duration::from_millis(40),
            4,
            |idx| {
                // Factory runs on the worker thread itself; a !Send value
                // can live inside the closure, which runs where it was built.
                let not_send = std::rc::Rc::new(idx);
                let built = std::thread::current().id();
                spawn_threads.lock().unwrap().insert(built);
                move || {
                    assert_eq!(std::thread::current().id(), built);
                    std::hint::black_box(*not_send);
                }
            },
            Vec::new(),
        );
        let threads = spawn_threads.lock().unwrap();
        assert_eq!(threads.len(), 3, "one factory call per worker thread");
        assert!(!threads.contains(&driver_thread));
        assert_eq!(result.per_thread.len(), 3);
        assert!(result.total_ops > 0);
        assert!(hist.count() > 0, "sampled latencies recorded");
        assert!(hist.count() <= result.total_ops);
    }

    #[test]
    fn mops_conversion_is_consistent() {
        let r = MeasureResult {
            total_ops: 2_000_000,
            per_thread: vec![1_000_000, 1_000_000],
            background_iterations: vec![],
            elapsed: Duration::from_secs(1),
        };
        assert!((r.mops_per_sec() - 2.0).abs() < 1e-9);
        assert!((r.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one reader")]
    fn zero_readers_panics() {
        let _ = measure_thread_local(0, Duration::from_millis(1), 1, |_| || (), Vec::new());
    }
}
