//! `rpbench`: the repo's benchmark. With `--workload` it runs that workload
//! in this process and prints every metric by name with its unit; the last
//! line of standard output is the result object the driver reads. Without,
//! it runs every workload, each in a fresh process. See `README.md`.

mod gen;
mod harness;
mod kvcache_calls;
mod ladder;
mod measure;
mod noise;
mod server;
mod table;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gen::KeyDist;
use harness::{Phase, Window};
use measure::{median_f64, p50_us, peak_rss_mb, tail_ns, Floor, Metric, SpanLog, Threads, UnitLog};
use server::{ServerShape, ServerSpec, Traffic};
use table::{TableShape, TableSpec};

#[global_allocator]
static ALLOC: rp_workload::alloc::CountingAllocator = rp_workload::alloc::CountingAllocator;

/// How many times an untraced run sets up; `setup_s` is the median.
const SETUPS: usize = 3;

pub const WORKLOADS: [&str; 4] = ["table-steady", "table-resize", "server-get", "server-evict"];

/// The end-to-end metrics: name, unit, whether higher is better, and the
/// share of the parent's median by which it may get worse. `BENCHMARK.json`
/// says the same; a test holds the two together.
pub const END_TO_END: [(&str, &str, bool, f64); 7] = [
    ("setup_s", "s", false, 0.25),
    ("read_kops_s", "kops/s", true, 0.25),
    ("read_p01_us", "us", false, 0.25),
    ("write_p01_us", "us", false, 0.25),
    ("hit_ratio", "ratio", true, 0.01),
    ("cpu_us_per_kop", "us/kop", false, 0.25),
    ("mem_mb", "MiB", false, 0.05),
];

pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    /// Sets of runs the noise report compares, twice over.
    noise: Option<usize>,
    /// The `kvcached` binary `run.sh` built.
    kvcached: PathBuf,
    /// Where run records and traces go.
    out: PathBuf,
    /// Where `--noise` writes its report.
    report: Option<PathBuf>,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        smoke: false,
        noise: None,
        kvcached: "kvcached".into(),
        out: "benchmark/out".into(),
        report: None,
        commit: "unknown".into(),
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |text: String| text.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--noise" => args.noise = Some(number(value()?)? as usize),
            "--kvcached" => args.kvcached = value()?.into(),
            "--out" => args.out = value()?.into(),
            "--report" => args.report = Some(value()?.into()),
            "--commit" => args.commit = value()?,
            "--smoke" => args.smoke = true,
            // The driver passes `--trace 0|1`; by hand a bare `--trace` will do.
            "--trace" => {
                args.trace = argv.next_if(|v| v == "0" || v == "1").as_deref() != Some("0")
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(workload) = &args.workload {
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("--workload must be one of {WORKLOADS:?}"));
        }
    }
    if args.smoke {
        args.seconds = 1;
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// One workload: its sizes and its seeded streams. The table workloads run
/// in this process, the server workloads against a `kvcached` child.
enum Workload {
    Table(TableSpec, table::TableStreams),
    Server(ServerSpec, server::ServerStreams),
}

/// Whose half of the ladder a traced run climbs beside the workload's own
/// (the driver's contract has every traced run report every per-layer
/// metric): the workload of the other kind that stresses the same thing,
/// memory on the first pair, the write path on the second.
fn sibling(workload: &str) -> &'static str {
    match workload {
        "table-steady" => "server-get",
        "server-get" => "table-steady",
        "table-resize" => "server-evict",
        "server-evict" => "table-resize",
        other => unreachable!("workload {other} was checked"),
    }
}

impl Workload {
    fn new(name: &str, smoke: bool, seed: u64) -> Workload {
        let small = |full: usize, smoke_size: usize| if smoke { smoke_size } else { full };
        let uniform = KeyDist {
            zipf: None,
            absent_permille: 125,
        };
        let zipf = |absent_permille| KeyDist {
            zipf: Some(0.99),
            absent_permille,
        };
        match name {
            "table-steady" => {
                let spec = TableSpec {
                    shape: TableShape::Steady,
                    entries: small(1 << 22, 1 << 14),
                    dist: uniform,
                    read_unit: table::UNIT_OPS,
                    // The table reclaims replaced nodes, waiting out a
                    // grace period, every 256 updates: once per write unit.
                    write_ops: 256,
                    write_every: 16,
                    warm_units: small(8192, 256) as u64,
                };
                let streams = table::TableStreams::new(&spec, seed);
                Workload::Table(spec, streams)
            }
            "table-resize" => {
                let spec = TableSpec {
                    shape: TableShape::Resize,
                    entries: 1 << 14,
                    dist: uniform,
                    // A guard per small batch, as a request handler would
                    // hold it: grace periods then end while the resizer
                    // still spins, and entering the read side is a visible
                    // share of a unit.
                    read_unit: 64,
                    write_ops: 1,
                    write_every: u64::MAX,
                    warm_units: small(5 << 17, 1 << 15) as u64,
                };
                let streams = table::TableStreams::new(&spec, seed);
                Workload::Table(spec, streams)
            }
            "server-get" => {
                let keys = small(1 << 19, 1 << 14);
                let spec = ServerSpec {
                    shape: ServerShape::Get,
                    keys,
                    // The default, stated: with half as many keys nothing
                    // is ever evicted.
                    capacity: 1 << 20,
                    dist: zipf(50),
                    depth: 16,
                    stream_len: 2 * keys,
                    warm_units: small(49152, 512) as u64,
                };
                let streams = server::ServerStreams::new(&spec, seed);
                Workload::Server(spec, streams)
            }
            "server-evict" => {
                let spec = ServerSpec {
                    shape: ServerShape::Evict,
                    keys: small(1 << 16, 1 << 12),
                    capacity: small(1 << 14, 1 << 10),
                    dist: zipf(0),
                    depth: 1,
                    stream_len: 1 << 19,
                    warm_units: small(4096, 512) as u64,
                };
                let streams = server::ServerStreams::new(&spec, seed);
                Workload::Server(spec, streams)
            }
            other => unreachable!("workload {other} was checked"),
        }
    }

    /// How the workload's units share its threads.
    fn threads(&self) -> Threads {
        match self {
            // One client thread sends reads and writes alike.
            Workload::Server(..) => Threads {
                readers: 1,
                writes_on_reader: true,
            },
            Workload::Table(spec, _) => Threads {
                readers: if spec.shape == TableShape::Steady {
                    2
                } else {
                    1
                },
                writes_on_reader: spec.shape == TableShape::Steady,
            },
        }
    }

    /// One set-up, then one window per phase.
    fn run(&self, kvcached: &Path, phases: &[Phase]) -> Run {
        match self {
            Workload::Table(spec, streams) => {
                let run = table::run(spec, streams, phases);
                Run {
                    setup_s: setup_s(run.setup, &run.warm),
                    setup_clock_s: run.setup.as_secs_f64(),
                    windows: run.windows,
                    mem_mb: peak_rss_mb(std::process::id()),
                    failed_after: run.failed_after,
                    stats_json: None,
                }
            }
            Workload::Server(spec, streams) => {
                let run = server::run(kvcached, spec, streams, Traffic::Workload, phases)
                    .unwrap_or_else(|message| die(&message));
                Run {
                    setup_s: setup_s(run.setup, &run.warm),
                    setup_clock_s: run.setup.as_secs_f64(),
                    windows: run.windows,
                    mem_mb: run.mem_mb,
                    failed_after: run.failed_after,
                    stats_json: Some(run.stats_json),
                }
            }
        }
    }
}

/// What one set-up and its windows gave, whichever kind of workload ran.
struct Run {
    /// Set-up time: build or spawn, connect and prefill as the clock saw
    /// them, and each counted warm-up unit at its kind's 1st-percentile
    /// duration, as the units of a window are read.
    setup_s: f64,
    /// The same set-up as the clock saw it.
    setup_clock_s: f64,
    windows: Vec<Window>,
    /// Peak RSS of the program under test, MiB.
    mem_mb: f64,
    failed_after: u64,
    /// The post-window `STATS JSON` scrape (server workloads).
    stats_json: Option<String>,
}

/// A set-up that took `clock` with its warm-up units, all run by one
/// thread, charged their floor durations: the host slows a warm-up unit as
/// it slows a unit of the window, and between identical runs set-ups as the
/// clock saw them differed by up to 45 % in their medians.
fn setup_s(clock: Duration, warm: &UnitLog) -> f64 {
    let one_thread = Threads {
        readers: 1,
        writes_on_reader: true,
    };
    let floor = Floor::of(warm, one_thread);
    clock.as_secs_f64() - (floor.measured_us - floor.floor_us) / 1e6
}

fn die(message: &str) -> ! {
    eprintln!("rpbench: {message}");
    std::process::exit(1);
}

fn end_to_end(window: &Window, floor: &Floor, setup_s: f64, mem_mb: f64) -> Vec<Metric> {
    let log = &window.log;
    let values = [
        setup_s,
        floor.read_kops_s,
        floor.read_us,
        floor.write_us,
        log.hits as f64 / log.reads as f64,
        floor.cpu_us_per_kop(window.target_cpu_us, log.reads + log.writes),
        mem_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), value)| Metric { name, value, unit })
        .collect()
}

/// The result of one workload run, as the driver and the run record see it.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    spans: SpanLog,
    stats_json: Option<String>,
    /// JSON of [`as_the_clock_saw_it`] for the untraced window.
    diagnostics: String,
}

fn untraced(workload: &Workload, args: &Args, generate_s: f64) -> Outcome {
    let length = Duration::from_secs(args.seconds);
    // Set-up several times over; only the last goes on to a window.
    let mut clock = Vec::new();
    let mut setups: Vec<f64> = (1..SETUPS)
        .map(|_| {
            let run = workload.run(&args.kvcached, &[]);
            clock.push(run.setup_clock_s);
            run.setup_s
        })
        .collect();
    let mut run = workload.run(
        &args.kvcached,
        &[Phase {
            window: length,
            traced: false,
        }],
    );
    setups.push(run.setup_s);
    clock.push(run.setup_clock_s);
    eprintln!(
        "generated in {generate_s:.3} s; set-ups took {clock:.3?} s, {setups:.3?} s with the \
         warm-up units at their floor"
    );
    let setup_s = generate_s + median_f64(&mut setups);
    let setup_clock_s = generate_s + median_f64(&mut clock);
    let window = run.windows.remove(0);
    let floor = Floor::of(&window.log, workload.threads());
    let diagnostics = as_the_clock_saw_it(&window, &floor, length, setup_clock_s)
        .iter()
        .map(|metric| format!("\"{}\":{:.4}", metric.name, metric.value))
        .collect::<Vec<_>>()
        .join(",");
    let diagnostics = format!("{{{diagnostics}}}");
    eprintln!("{diagnostics}");
    Outcome {
        metrics: end_to_end(&window, &floor, setup_s, run.mem_mb),
        attempted: window.log.reads + window.log.writes,
        failed: window.log.failed + run.failed_after,
        spans: SpanLog::new(),
        stats_json: run.stats_json,
        diagnostics,
    }
}

/// The timings of a run with everything the host did to it left in, as
/// ISSUE 12 defines them: the set-up, medians of the units, the highest percentile of a
/// read unit with ten samples beyond it, the median of the per-second rates
/// and the CPU time of the whole window; then how much of the window ran at
/// the floor and how much of the machine's time the hypervisor gave away.
/// Reported, not gated: between identical runs on this host they move by
/// more than any bound (`results/noise.md`).
fn as_the_clock_saw_it(
    window: &Window,
    floor: &Floor,
    length: Duration,
    setup_clock_s: f64,
) -> Vec<Metric> {
    let log = &window.log;
    let kops = (log.reads + log.writes) as f64 / 1000.0;
    let p50 = |samples: &[u32]| {
        if samples.is_empty() {
            0.0
        } else {
            p50_us(samples)
        }
    };
    let values = [
        ("benchmark.setup_clock_s", setup_clock_s, "s"),
        ("benchmark.read_p50_us", p50(log.read_units.kept()), "us"),
        ("benchmark.write_p50_us", p50(log.write_units.kept()), "us"),
        (
            "benchmark.read_tail_us",
            tail_ns(log.read_units.kept()).0 / 1000.0,
            "us",
        ),
        (
            "benchmark.read_kops_s_median",
            log.kops_per_second_median(length),
            "kops/s",
        ),
        (
            "benchmark.cpu_us_per_kop_window",
            window.target_cpu_us as f64 / kops,
            "us/kop",
        ),
        ("benchmark.floor_share", floor.share(), "ratio"),
        ("benchmark.steal_share", window.steal_share, "ratio"),
    ];
    values
        .into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect()
}

/// The traced run: the table half of the ladder first (its first rung wants
/// a fresh heap), then the server half, then the workload itself twice,
/// untraced and traced, for the overhead.
fn traced(name: &str, workload: &Workload, args: &Args) -> Outcome {
    let other = Workload::new(sibling(name), args.smoke, args.seed);
    // Half the run is the ladder's, about twenty rungs; a smoke run still
    // gives each rung enough units for a floor.
    let slice = Duration::from_millis((args.seconds * 1000 / 50).max(100));
    let (table_half, server_half) = match (workload, &other) {
        (Workload::Table(table, tables), Workload::Server(server, servers))
        | (Workload::Server(server, servers), Workload::Table(table, tables)) => (
            ladder::table_half(table, tables, args.seed, slice),
            ladder::server_half(server, servers, &args.kvcached, args.seed, slice)
                .unwrap_or_else(|message| die(&message)),
        ),
        _ => unreachable!("a workload's sibling is of the other kind"),
    };
    drop(other);

    let length = Duration::from_secs((args.seconds / 4).max(1));
    let phase = |traced| Phase {
        window: length,
        traced,
    };
    let mut run = workload.run(&args.kvcached, &[phase(false), phase(true)]);
    let with_spans = run.windows.remove(1);
    let plain = run.windows.remove(0);
    let floor = Floor::of(&plain.log, workload.threads());
    let traced_rate = Floor::of(&with_spans.log, workload.threads()).read_kops_s;

    // What the rungs of the workload's own half add up to against what the
    // workload measured: a read unit per lookup in the table, CPU time per
    // request in the server. Only meaningful where the ladder is the
    // workload's whole read path (`table-steady`, `server-get`).
    let ops = plain.log.reads + plain.log.writes;
    let (summed, measured) = match workload {
        Workload::Table(spec, _) => (
            table_half.read_ns,
            floor.read_us * 1000.0 / spec.read_unit as f64,
        ),
        // A `get` costs what the `get`-only window measured; a write costs
        // the engine that much more than a read.
        Workload::Server(..) => (
            server_half.read_cpu_ns
                + plain.log.writes as f64 / ops as f64 * server_half.set_extra_ns,
            floor.cpu_us_per_kop(plain.target_cpu_us, ops),
        ),
    };
    let mut metrics = table_half.metrics;
    metrics.extend(server_half.metrics);
    metrics.extend(as_the_clock_saw_it(
        &plain,
        &floor,
        length,
        run.setup_clock_s,
    ));
    metrics.push(Metric {
        name: "benchmark.trace_overhead_pct",
        value: (floor.read_kops_s - traced_rate) / floor.read_kops_s * 100.0,
        unit: "%",
    });
    metrics.push(Metric {
        name: "benchmark.ladder_gap_pct",
        value: (summed - measured) / measured * 100.0,
        unit: "%",
    });
    let mut spans = table_half.spans;
    spans.append(server_half.spans);
    spans.append(with_spans.spans);
    let logs = [&plain.log, &with_spans.log];
    Outcome {
        metrics,
        attempted: logs.iter().map(|log| log.reads + log.writes).sum(),
        failed: logs.iter().map(|log| log.failed).sum::<u64>()
            + run.failed_after
            + table_half.failed
            + server_half.failed,
        spans,
        stats_json: run.stats_json.or(Some(server_half.stats_json)),
        diagnostics: "null".into(),
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run_one(args: &Args, name: &str) {
    // A fault plan would make the program under test fail on purpose.
    assert!(
        std::env::var_os("RP_FAULT_PLAN").is_none(),
        "RP_FAULT_PLAN is set; the benchmark measures the fault-free path"
    );
    let started = Instant::now();
    // The main thread, the client of the server workloads, and the
    // `kvcached` children it starts all stay on one CPU; second threads of
    // the table workloads take the next. Only here: the processes that
    // start these runs must leave their children every CPU.
    measure::pin(0);
    let workload = Workload::new(name, args.smoke, args.seed);
    let generate_s = started.elapsed().as_secs_f64();
    let outcome = if args.trace {
        traced(name, &workload, args)
    } else {
        untraced(&workload, args, generate_s)
    };

    let metrics = metrics_json(&outcome.metrics);
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
    );
    // The run record: the result with where and on what it was measured,
    // the server's own breakdown, and on a traced run the spans.
    let record = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"commit\": \"{}\", \"host\": {}, \"result\": {result}, \"diagnostics\": {}, \
         \"stats_json\": {}, \"spans\": {}}}\n",
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        args.commit,
        measure::host_json(),
        outcome.diagnostics,
        outcome.stats_json.as_deref().unwrap_or("null"),
        outcome.spans.to_json(),
    );
    let kind = if args.trace { "trace" } else { "run" };
    let path = args.out.join(format!("{kind}-{name}.json"));
    if let Err(e) = std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, record))
    {
        die(&format!("cannot write {}: {e}", path.display()));
    }

    for metric in &outcome.metrics {
        println!("{:<32} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    println!("{result}");
    if outcome.failed != 0 {
        std::process::exit(1);
    }
}

fn main() {
    measure::origin();
    let args = parse_args().unwrap_or_else(|message| {
        eprintln!("rpbench: {message}");
        std::process::exit(2);
    });
    match (&args.workload, args.noise) {
        (Some(name), None) => run_one(&args, name),
        (None, None) => noise::run_all(&args),
        (_, Some(sets)) => noise::report(&args, sets),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the harness name the same workloads and
    /// end-to-end metrics, with the same units and bounds.
    #[test]
    fn benchmark_json_agrees_with_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for workload in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{workload}\"")),
                "{workload}"
            );
        }
        for (name, unit, higher, bound) in END_TO_END {
            let better = if higher { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
