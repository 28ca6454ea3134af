//! What every workload measures with: raw per-unit samples, per-second
//! rates, `/proc` readers for CPU time and peak RSS, and the span log.

use std::time::Instant;

/// Every this-many-th unit is the sampled one: it gets spans on a traced
/// run, and its replies are compared byte for byte on the server workloads.
pub const SAMPLE_EVERY: u64 = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Read,
    Write,
}

/// What one timed unit did.
#[derive(Clone, Copy)]
pub struct Outcome {
    pub kind: Kind,
    /// Operations attempted.
    pub ops: u64,
    /// Reads that found a value (0 for write units).
    pub hits: u64,
    /// Operations whose result was wrong or missing.
    pub failed: u64,
}

/// The raw durations of one kind of unit: `u32` nanoseconds each, never
/// bucket edges. The store is a fixed size, touched once when it is made, so
/// that what it adds to the resident memory of a run does not depend on how
/// many units the run completed. When it fills, every other sample is
/// dropped and from then on only every second (fourth, ...) unit is kept.
pub struct Samples {
    ns: Vec<u32>,
    /// Units between kept samples.
    stride: u64,
    /// All units seen, kept or not, and their total duration.
    pub units: u64,
    pub total_ns: u64,
}

impl Samples {
    const CAPACITY: usize = 1 << 20;

    fn new() -> Samples {
        let mut ns = vec![1u32; Samples::CAPACITY];
        ns.clear();
        Samples {
            ns,
            stride: 1,
            units: 0,
            total_ns: 0,
        }
    }

    fn push(&mut self, ns: u32) {
        if self.units.is_multiple_of(self.stride) {
            if self.ns.len() == Samples::CAPACITY {
                for kept in 0..Samples::CAPACITY / 2 {
                    self.ns[kept] = self.ns[2 * kept];
                }
                self.ns.truncate(Samples::CAPACITY / 2);
                self.stride *= 2;
            }
            if self.units.is_multiple_of(self.stride) {
                self.ns.push(ns);
            }
        }
        self.units += 1;
        self.total_ns += u64::from(ns);
    }

    fn merge(&mut self, other: Samples) {
        self.ns.extend(other.ns);
        self.units += other.units;
        self.total_ns += other.total_ns;
    }

    pub fn kept(&self) -> &[u32] {
        &self.ns
    }
}

/// One thread's record of one measured window.
pub struct UnitLog {
    pub read_units: Samples,
    pub write_units: Samples,
    pub reads: u64,
    pub hits: u64,
    pub writes: u64,
    pub failed: u64,
    /// Reads completed in each whole second since the window opened.
    pub reads_by_second: Vec<u64>,
}

impl UnitLog {
    pub fn new() -> UnitLog {
        UnitLog {
            read_units: Samples::new(),
            write_units: Samples::new(),
            reads: 0,
            hits: 0,
            writes: 0,
            failed: 0,
            reads_by_second: Vec::with_capacity(64),
        }
    }

    /// Records a unit that ran from `start` to `end` in a window that opened
    /// at `opened`.
    pub fn record(&mut self, opened: Instant, start: Instant, end: Instant, out: Outcome) {
        let ns = (end - start).as_nanos().min(u128::from(u32::MAX)) as u32;
        self.failed += out.failed;
        match out.kind {
            Kind::Read => {
                self.read_units.push(ns);
                self.reads += out.ops;
                self.hits += out.hits;
                let second = (end - opened).as_secs() as usize;
                if self.reads_by_second.len() <= second {
                    self.reads_by_second.resize(second + 1, 0);
                }
                self.reads_by_second[second] += out.ops;
            }
            Kind::Write => {
                self.write_units.push(ns);
                self.writes += out.ops;
            }
        }
    }

    /// Folds another thread's log of the same window into this one.
    pub fn merge(&mut self, other: UnitLog) {
        self.read_units.merge(other.read_units);
        self.write_units.merge(other.write_units);
        self.reads += other.reads;
        self.hits += other.hits;
        self.writes += other.writes;
        self.failed += other.failed;
        if self.reads_by_second.len() < other.reads_by_second.len() {
            self.reads_by_second.resize(other.reads_by_second.len(), 0);
        }
        for (mine, theirs) in self.reads_by_second.iter_mut().zip(other.reads_by_second) {
            *mine += theirs;
        }
    }

    /// Median of the reads completed per whole second of the window, in
    /// thousands: the rate as the clock saw it.
    pub fn kops_per_second_median(&self, window: std::time::Duration) -> f64 {
        let whole = (window.as_secs() as usize).min(self.reads_by_second.len());
        let mut rates: Vec<f64> = self.reads_by_second[..whole]
            .iter()
            .map(|&reads| reads as f64 / 1000.0)
            .collect();
        if rates.is_empty() {
            return 0.0;
        }
        median_f64(&mut rates)
    }
}

/// The quantile every gated timing is read at: the 1st percentile of the raw
/// unit durations.
///
/// The host is a shared VM whose memory system is shared too. Between
/// identical 20 s runs the whole-window median of a unit moved by 10-35 %, the
/// median of the per-second rates by 10-30 % and the CPU time of a window by
/// 15-35 % (`results/noise.md` has them beside the gated numbers), more than
/// any bound the driver accepts; the 1st percentile moved by a third of that.
/// What the neighbours add is never negative, so the floor of the
/// distribution is the part that belongs to the code under test. It holds
/// whatever every unit contains, and nothing that only some units do: those
/// stalls are in the ungated numbers (`README.md`, *What the floor sees*).
pub const FLOOR: f64 = 0.01;

/// How a workload's units share its threads: what turns unit durations
/// into a rate.
#[derive(Clone, Copy)]
pub struct Threads {
    /// Threads that run read units.
    pub readers: u32,
    /// Whether write units run on a reading thread (and so take time from
    /// reads) or on a thread of their own.
    pub writes_on_reader: bool,
}

/// The timings of one window at the floor.
pub struct Floor {
    /// 1st-percentile duration of a read unit and of a write unit, us.
    pub read_us: f64,
    pub write_us: f64,
    /// Time the reading threads spent inside units, us: as measured, and had
    /// every unit taken its kind's 1st-percentile duration.
    pub measured_us: f64,
    pub floor_us: f64,
    /// Reads per second, in thousands, over `floor_us`: the window's own
    /// unit counts and read/write mix in a closed loop whose every unit
    /// takes its floor duration.
    pub read_kops_s: f64,
}

impl Floor {
    pub fn of(log: &UnitLog, threads: Threads) -> Floor {
        // A window with no unit of a kind (the `get`-only rungs) has no
        // floor for it and spends no time on it.
        let floor_us = |samples: &Samples| match samples.kept() {
            [] => 0.0,
            kept => quantile_ns(kept, FLOOR) / 1000.0,
        };
        let (reads, writes) = (&log.read_units, &log.write_units);
        let (read_us, write_us) = (floor_us(reads), floor_us(writes));
        let mut floor_us = reads.units as f64 * read_us;
        let mut measured_us = reads.total_ns as f64 / 1000.0;
        if threads.writes_on_reader {
            floor_us += writes.units as f64 * write_us;
            measured_us += writes.total_ns as f64 / 1000.0;
        }
        let seconds = floor_us / f64::from(threads.readers) / 1e6;
        Floor {
            read_us,
            write_us,
            measured_us,
            floor_us,
            read_kops_s: log.reads as f64 / seconds / 1000.0,
        }
    }

    /// `floor_us` over `measured_us` (at most 1): how much of the window ran
    /// at the floor. A diagnostic; 1 for a log with no unit.
    pub fn share(&self) -> f64 {
        if self.measured_us > 0.0 {
            self.floor_us / self.measured_us
        } else {
            1.0
        }
    }

    /// CPU time per 1000 operations at the floor. `cpu_us / measured_us` is
    /// the CPU time the program under test spent per microsecond the
    /// reading threads spent in units, a ratio the host's noise leaves alone
    /// (a slow spell stretches both); times `floor_us` it is the CPU time of
    /// the same units at their floor durations.
    pub fn cpu_us_per_kop(&self, cpu_us: u64, ops: u64) -> f64 {
        cpu_us as f64 * self.share() / (ops as f64 / 1000.0)
    }
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The `q` quantile of raw samples, in nanoseconds (nearest rank).
pub fn quantile_ns(samples: &[u32], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of nothing");
    let mut sorted = samples.to_vec();
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    let (_, value, _) = sorted.select_nth_unstable(rank);
    f64::from(*value)
}

pub fn p50_us(samples: &[u32]) -> f64 {
    quantile_ns(samples, 0.5) / 1000.0
}

/// The highest percentile that still has at least ten samples beyond it,
/// in nanoseconds, with the quantile it sits at.
pub fn tail_ns(samples: &[u32]) -> (f64, f64) {
    let n = samples.len();
    let q = if n > 20 { 1.0 - 10.0 / n as f64 } else { 0.5 };
    (quantile_ns(samples, q), q)
}

/// `utime + stime` of `pid` in microseconds (`/proc/<pid>/stat`, which
/// counts every thread, exited ones included). The kernel reports ticks of
/// 1/100 s.
pub fn cpu_us(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line.
    let rest = &stat[stat.rfind(')').expect("comm in stat") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next().expect("utime").parse().expect("utime");
    let stime: u64 = fields.next().expect("stime").parse().expect("stime");
    (utime + stime) * 10_000
}

/// Ticks the hypervisor took from this machine's CPUs since boot, and all
/// ticks since boot (the `cpu` line of `/proc/stat`).
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_ascii_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    let counted = &ticks[..ticks.len().min(8)];
    (counted.get(7).copied().unwrap_or(0), counted.iter().sum())
}

fn status_kb(pid: u32, field: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("no {field} for pid {pid}"))
}

/// Peak resident set of `pid`, MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    status_kb(pid, "VmHWM") / 1024.0
}

/// Current resident set of `pid`, bytes.
pub fn rss_bytes(pid: u32) -> f64 {
    status_kb(pid, "VmRSS") * 1024.0
}

extern "C" {
    /// glibc's `sched_setaffinity(2)` wrapper; `std` offers no way to pin.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on, as it started (`Cpus_allowed_list`).
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let list = status
            .lines()
            .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
            .unwrap_or("0");
        let mut cpus = Vec::new();
        for range in list.trim().split(',') {
            let (low, high) = range.split_once('-').unwrap_or((range, range));
            if let (Ok(low), Ok(high)) = (low.parse::<usize>(), high.parse::<usize>()) {
                cpus.extend((low..=high).filter(|&cpu| cpu < 1024));
            }
        }
        if cpus.is_empty() {
            cpus.push(0);
        }
        cpus
    })
}

/// Pins the calling thread, and every thread and process it starts from
/// now on, to the `slot`-th CPU this process is allowed (modulo how many
/// there are). A migration mid-window, or a client and server that wake
/// each other across CPUs, moved latencies here by more than any bound.
pub fn pin(slot: usize) {
    let cpus = allowed_cpus();
    let cpu = cpus[slot % cpus.len()];
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised bit set of exactly the size
    // passed; pid 0 names the calling thread; the call only reads `mask`.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        eprintln!("rpbench: cannot pin to CPU {cpu}; running unpinned");
    }
}

/// One metric of a result.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// One span of the trace: a call into a layer, or the unit around it.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the log, or -1.
    pub parent: i64,
    pub unit_id: u64,
}

/// Spans stay in memory until the run ends; their times count from
/// [`origin`].
pub struct SpanLog {
    pub spans: Vec<Span>,
}

/// The instant span times count from: the first call, made at process start.
pub fn origin() -> Instant {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog { spans: Vec::new() }
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: i64,
        unit_id: u64,
    ) -> i64 {
        self.spans.push(Span {
            name,
            start_ns: (start - origin()).as_nanos() as u64,
            end_ns: (end - origin()).as_nanos() as u64,
            parent,
            unit_id,
        });
        self.spans.len() as i64 - 1
    }

    /// Sets the end of a span pushed before its work began.
    pub fn close(&mut self, index: i64, end: Instant) {
        self.spans[index as usize].end_ns = (end - origin()).as_nanos() as u64;
    }

    pub fn append(&mut self, other: SpanLog) {
        let shift = self.spans.len() as i64;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            if span.parent >= 0 {
                span.parent += shift;
            }
            span
        }));
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"unit_id\":{}}}",
                span.name, span.start_ns, span.end_ns, span.parent, span.unit_id
            ));
        }
        out.push_str("\n]");
        out
    }
}

/// Host facts recorded with every run.
pub fn host_json() -> String {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find_map(|line| line.strip_prefix("model name")?.split(':').nth(1))
        .map(|model| model.trim().replace(['"', '\\'], ""))
        .unwrap_or_default();
    let kernel = read("/proc/sys/kernel/osrelease").trim().to_string();
    let load1 = read("/proc/loadavg")
        .split_ascii_whitespace()
        .next()
        .unwrap_or("0")
        .to_string();
    // As the process started: pinning narrows what `available_parallelism`
    // reports.
    let nproc = allowed_cpus().len();
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":\"{cpu_model}\",\"kernel\":\"{kernel}\",\"load_1min\":{load1}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_come_from_raw_samples() {
        let samples: Vec<u32> = (1..=1000).collect();
        assert_eq!(quantile_ns(&samples, 0.5), 501.0);
        let (tail, q) = tail_ns(&samples);
        assert_eq!(q, 0.99);
        assert_eq!(tail, 990.0);
    }

    #[test]
    fn rates_come_from_the_floor_of_the_unit_durations() {
        let mut log = UnitLog::new();
        // 1000 read units of 100 ops: most take 10 us, some were disturbed.
        for unit in 0..1000 {
            log.read_units
                .push(if unit % 3 == 0 { 30_000 } else { 10_000 });
        }
        for _ in 0..100 {
            log.write_units.push(50_000);
        }
        log.reads = 100_000;
        let one = Threads {
            readers: 1,
            writes_on_reader: true,
        };
        let floor = Floor::of(&log, one);
        assert_eq!((floor.read_us, floor.write_us), (10.0, 50.0));
        // 1000 * 10 us + 100 * 50 us = 15 ms for 100 000 reads.
        assert!((floor.read_kops_s - 100_000.0 / 0.015 / 1000.0).abs() < 1e-6);
        assert!(floor.share() < 1.0);
        // CPU time scales with the unit time it was spent in.
        let cpu = floor.cpu_us_per_kop(20_000, 100_000);
        assert!((cpu - 200.0 * floor.share()).abs() < 1e-9);
        // Writes on a thread of their own cost the readers nothing; two
        // readers halve the time.
        let apart = Threads {
            readers: 2,
            writes_on_reader: false,
        };
        assert!((Floor::of(&log, apart).read_kops_s - 100_000.0 / 0.005 / 1000.0).abs() < 1e-6);
    }

    #[test]
    fn a_full_sample_store_thins_itself_evenly() {
        let mut samples = Samples::new();
        let units = 3 * Samples::CAPACITY as u64;
        for unit in 0..units {
            samples.push(unit as u32);
        }
        assert_eq!((samples.units, samples.stride), (units, 4));
        assert!(samples.kept().iter().all(|&unit| unit % 4 == 0));
        assert_eq!(samples.kept().len() as u64, units / 4);
    }

    #[test]
    fn own_cpu_and_rss_are_readable() {
        let pid = std::process::id();
        assert!(peak_rss_mb(pid) > 0.0);
        assert!(rss_bytes(pid) > 0.0);
        let _ = cpu_us(pid);
    }
}
