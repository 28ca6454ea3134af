//! A multi-connection closed-loop client driver.
//!
//! Where [`driver::measure_thread_local`](crate::driver::measure_thread_local)
//! benchmarks in-process data structures, this module drives *servers*: it
//! opens N connections, shares them across M driver threads (round-robin,
//! so N can vastly exceed M — exactly the regime an event-loop server is
//! built for), fires request/response operations in a closed loop for a
//! fixed duration, and reports throughput plus a latency histogram with
//! per-operation resolution.
//!
//! The driver is transport-agnostic: `connect` produces any connection
//! value (a `CacheClient`, a raw `TcpStream`, …) and `make_op` produces
//! each thread's operation closure. The chaos suite plugs in a memcached
//! client; the unit tests plug in an in-memory fake.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::latency::LatencyHistogram;

/// The result of one [`drive_connections_reconnecting`] run.
#[derive(Clone)]
pub struct NetDriveResult {
    /// Completed operations across all connections.
    pub total_ops: u64,
    /// Operations that returned an error (their connection is replaced,
    /// or — past the reconnect budget — retired).
    pub errors: u64,
    /// Connections successfully re-established after an operation error.
    pub reconnects: u64,
    /// Wall-clock measurement time.
    pub elapsed: Duration,
    /// Per-operation round-trip latency.
    pub latency: LatencyHistogram,
}

impl NetDriveResult {
    /// Aggregate throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Opens `connections` connections, spreads them over `threads` driver
/// threads, and runs `make_op`'s closures in a closed loop for `duration`.
///
/// Each thread round-robins over its share of the connections: one
/// operation on connection *i*, then *i+1*, … so every connection stays
/// live without needing a thread of its own. The per-thread operation
/// closure receives the connection and a global operation ordinal (usable
/// for key choice or read/write mixing) and returns how many requests it
/// completed — one for a plain request/response, a whole *window* for a
/// pipelining client that batches N requests into one write. Latency uses
/// window-based accounting: the operation's round-trip time is recorded
/// once **per completed request**, which keeps
/// [`NetDriveResult::total_ops`] equal to `latency.count()` either way.
///
/// An operation error is counted in [`NetDriveResult::errors`] and its
/// connection is replaced with a fresh one (via the same `connect`
/// callback), up to `reconnect_budget` replacements per driver thread;
/// past the budget, errors retire connections and the run continues on the
/// rest, stopping early only for a thread that lost *all* of its own. With
/// faults injected server-side (reads erroring, handlers panicking),
/// connection loss is *expected*, and the measurement should show the
/// recovered throughput rather than bleed lanes until the run starves.
pub fn drive_connections_reconnecting<C, Connect, MakeOp, Op>(
    connections: usize,
    threads: usize,
    duration: Duration,
    connect: Connect,
    make_op: MakeOp,
    reconnect_budget: usize,
) -> io::Result<NetDriveResult>
where
    C: Send,
    Connect: Fn(usize) -> io::Result<C> + Sync,
    MakeOp: Fn(usize) -> Op + Sync,
    Op: FnMut(&mut C, u64) -> io::Result<u64> + Send,
{
    assert!(connections > 0, "need at least one connection");
    let threads = threads.clamp(1, connections);

    // Connect up front so setup cost stays outside the measured window and
    // a refused connection fails the run loudly instead of skewing it.
    // Each lane remembers its original connection index so a reconnect can
    // reproduce the original `connect` call.
    let mut lanes: Vec<Vec<(usize, C)>> = (0..threads).map(|_| Vec::new()).collect();
    for idx in 0..connections {
        lanes[idx % threads].push((idx, connect(idx)?));
    }

    let stop = AtomicBool::new(false);
    let next_op = AtomicU64::new(0);
    let barrier = Barrier::new(threads + 1);
    let error_count = AtomicU64::new(0);
    let reconnect_count = AtomicU64::new(0);

    let mut per_thread: Vec<(u64, LatencyHistogram)> = Vec::new();
    let started = std::thread::scope(|scope| -> io::Result<Instant> {
        let mut handles = Vec::new();
        for (thread_idx, mut conns) in lanes.into_iter().enumerate() {
            let stop = &stop;
            let next_op = &next_op;
            let barrier = &barrier;
            let error_count = &error_count;
            let reconnect_count = &reconnect_count;
            let make_op = &make_op;
            let connect = &connect;
            handles.push(scope.spawn(move || {
                let mut op = make_op(thread_idx);
                let mut hist = LatencyHistogram::new();
                let mut ops = 0_u64;
                let mut lane = 0_usize;
                let mut budget = reconnect_budget;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) && !conns.is_empty() {
                    lane = (lane + 1) % conns.len();
                    let ordinal = next_op.fetch_add(1, Ordering::Relaxed);
                    let begin = Instant::now();
                    match op(&mut conns[lane].1, ordinal) {
                        Ok(done) => {
                            hist.record_many(begin.elapsed(), done);
                            ops += done;
                        }
                        Err(_) => {
                            error_count.fetch_add(1, Ordering::Relaxed);
                            let (idx, _dead) = conns.swap_remove(lane);
                            if budget > 0 {
                                budget -= 1;
                                if let Ok(fresh) = connect(idx) {
                                    reconnect_count.fetch_add(1, Ordering::Relaxed);
                                    conns.push((idx, fresh));
                                }
                            }
                            lane = 0;
                        }
                    }
                }
                (ops, hist)
            }));
        }

        barrier.wait();
        let started = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::SeqCst);
        for handle in handles {
            per_thread.push(handle.join().expect("driver thread panicked"));
        }
        Ok(started)
    })?;
    let elapsed = started.elapsed();

    let mut latency = LatencyHistogram::new();
    let mut total_ops = 0;
    for (ops, hist) in &per_thread {
        total_ops += ops;
        latency.merge(hist);
    }
    Ok(NetDriveResult {
        total_ops,
        errors: error_count.load(Ordering::Relaxed),
        reconnects: reconnect_count.load(Ordering::Relaxed),
        elapsed,
        latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake connection: counts ops, optionally fails after a quota.
    struct FakeConn {
        ops: u64,
        fail_after: Option<u64>,
    }

    #[test]
    fn drives_many_connections_with_few_threads() {
        let result = drive_connections_reconnecting(
            16,
            3,
            Duration::from_millis(40),
            |_idx| {
                Ok(FakeConn {
                    ops: 0,
                    fail_after: None,
                })
            },
            |_thread| {
                |conn: &mut FakeConn, _ordinal| {
                    conn.ops += 1;
                    Ok(1)
                }
            },
            0,
        )
        .unwrap();
        assert!(result.total_ops > 0);
        assert_eq!(result.errors, 0);
        assert_eq!(result.latency.count(), result.total_ops);
        assert!(result.elapsed >= Duration::from_millis(40));
        assert!(result.ops_per_sec() > 0.0);
    }

    #[test]
    fn a_pipelined_window_is_accounted_per_request() {
        let depth = 8_u64;
        let result = drive_connections_reconnecting(
            4,
            2,
            Duration::from_millis(40),
            |_idx| {
                Ok(FakeConn {
                    ops: 0,
                    fail_after: None,
                })
            },
            |_thread| {
                move |conn: &mut FakeConn, _ordinal| {
                    // One "window": depth requests complete per call.
                    conn.ops += depth;
                    Ok(depth)
                }
            },
            0,
        )
        .unwrap();
        assert!(result.total_ops >= depth, "windows completed");
        assert_eq!(
            result.total_ops % depth,
            0,
            "ops advance a window at a time"
        );
        assert_eq!(
            result.latency.count(),
            result.total_ops,
            "window RTT recorded once per request"
        );
        assert_eq!(result.errors, 0);
    }

    #[test]
    fn failed_connections_are_retired_not_fatal() {
        let result = drive_connections_reconnecting(
            4,
            2,
            Duration::from_millis(30),
            |idx| {
                Ok(FakeConn {
                    ops: 0,
                    // Half the connections die after 5 ops.
                    fail_after: (idx % 2 == 0).then_some(5),
                })
            },
            |_thread| {
                |conn: &mut FakeConn, _ordinal| {
                    conn.ops += 1;
                    match conn.fail_after {
                        Some(n) if conn.ops > n => {
                            Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
                        }
                        _ => Ok(1),
                    }
                }
            },
            0,
        )
        .unwrap();
        assert_eq!(result.errors, 2);
        assert_eq!(result.reconnects, 0);
        assert!(result.total_ops > 0, "surviving connections kept going");
    }

    #[test]
    fn reconnecting_driver_replaces_dead_connections() {
        use std::sync::atomic::AtomicU64 as Counter;
        let connects = Counter::new(0);
        let result = drive_connections_reconnecting(
            2,
            1,
            Duration::from_millis(40),
            |_idx| {
                connects.fetch_add(1, Ordering::Relaxed);
                Ok(FakeConn {
                    ops: 0,
                    // Every connection dies after 3 ops; the driver must
                    // keep replacing them within its budget.
                    fail_after: Some(3),
                })
            },
            |_thread| {
                |conn: &mut FakeConn, _ordinal| {
                    conn.ops += 1;
                    match conn.fail_after {
                        Some(n) if conn.ops > n => {
                            Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
                        }
                        _ => Ok(1),
                    }
                }
            },
            4,
        )
        .unwrap();
        assert!(result.reconnects >= 1, "dead connections were replaced");
        assert!(
            result.reconnects <= 4,
            "the per-thread reconnect budget is honored"
        );
        assert_eq!(
            connects.load(Ordering::Relaxed),
            2 + result.reconnects,
            "each reconnect goes through the connect callback"
        );
        assert!(
            result.total_ops > 6,
            "ops continued past the first connection deaths"
        );
    }

    #[test]
    fn connect_failure_fails_the_run() {
        let result = drive_connections_reconnecting(
            2,
            1,
            Duration::from_millis(10),
            |idx| {
                if idx == 1 {
                    Err(io::Error::new(io::ErrorKind::ConnectionRefused, "nope"))
                } else {
                    Ok(FakeConn {
                        ops: 0,
                        fail_after: None,
                    })
                }
            },
            |_thread| |_conn: &mut FakeConn, _ordinal| Ok(1),
            0,
        );
        assert!(result.is_err());
    }
}
