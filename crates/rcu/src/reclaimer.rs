//! A background reclaimer thread (the `call_rcu` helper-thread equivalent).
//!
//! Writers that retire memory with [`GraceSync::defer`] / `defer_free` can
//! either reclaim synchronously at convenient points
//! ([`GraceSync::synchronize_and_reclaim`]) or hand the work to a
//! [`Reclaimer`], which wakes periodically — or when kicked — and runs that
//! same pass on its own thread, keeping grace-period latency entirely off
//! the writer's fast path. Threads that may not wait at all (QSBR-online
//! event-loop workers) rely on one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::sync::GraceSync;

struct Shared {
    stop: AtomicBool,
    kicked: Mutex<bool>,
    wakeup: Condvar,
}

/// Handle to a background reclamation thread for [`GraceSync::global`].
///
/// Dropping the handle stops the thread after one final reclamation pass, so
/// callbacks queued before the drop are guaranteed to run.
pub struct Reclaimer {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<u64>>,
}

impl Reclaimer {
    /// Spawns a reclaimer that wakes at least every `interval` and empties
    /// the global funnel's queue if anything is pending.
    pub fn spawn(interval: Duration) -> Self {
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            kicked: Mutex::new(false),
            wakeup: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("rcu-reclaimer".to_string())
            .spawn(move || {
                let sync = GraceSync::global();
                let mut passes = 0_u64;
                loop {
                    {
                        let mut kicked = thread_shared.kicked.lock();
                        if !*kicked && !thread_shared.stop.load(Ordering::SeqCst) {
                            thread_shared.wakeup.wait_for(&mut kicked, interval);
                        }
                        *kicked = false;
                    }
                    let stopping = thread_shared.stop.load(Ordering::SeqCst);
                    if sync.deferred_pending() > 0 || stopping {
                        sync.synchronize_and_reclaim();
                        passes += 1;
                    }
                    if stopping {
                        return passes;
                    }
                }
            })
            .expect("spawn rcu-reclaimer thread");
        Reclaimer {
            shared,
            thread: Some(thread),
        }
    }

    /// Spawns a reclaimer with a 10 ms wake interval.
    pub fn spawn_global() -> Self {
        Self::spawn(Duration::from_millis(10))
    }

    /// Wakes the reclaimer immediately (e.g. after retiring a large batch).
    pub fn kick(&self) {
        let mut kicked = self.shared.kicked.lock();
        *kicked = true;
        self.shared.wakeup.notify_one();
    }

    /// Stops the thread after one final reclamation pass and returns the
    /// number of passes it performed over its lifetime.
    pub fn shutdown(mut self) -> u64 {
        self.stop_and_join().unwrap_or(0)
    }

    fn stop_and_join(&mut self) -> Option<u64> {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.kick();
        self.thread
            .take()
            .map(|t| t.join().expect("reclaimer thread panicked"))
    }
}

impl Drop for Reclaimer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for Reclaimer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reclaimer")
            .field("running", &self.thread.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reclaimer_runs_queued_callbacks_without_writer_involvement() {
        let reclaimer = Reclaimer::spawn(Duration::from_millis(5));
        let ran = GraceSync::global().defer_counting(32);
        reclaimer.kick();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ran.load(Ordering::SeqCst) < 32 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ran.load(Ordering::SeqCst), 32);
        reclaimer.shutdown();
    }

    #[test]
    fn shutdown_flushes_remaining_callbacks() {
        let reclaimer = Reclaimer::spawn(Duration::from_secs(3600));
        let ran = GraceSync::global().defer_counting(1);
        // The interval is huge, so of this reclaimer's passes only the
        // shutdown one can run it.
        assert!(reclaimer.shutdown() >= 1);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropping_the_handle_stops_the_thread() {
        let ran = {
            let _reclaimer = Reclaimer::spawn(Duration::from_millis(5));
            GraceSync::global().defer_counting(1)
        };
        // After drop, the callback queued above must have been executed.
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }
}
