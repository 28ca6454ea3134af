//! `cargo test --manifest-path benchmark/Cargo.toml` runs the benchmark
//! itself, small: `run.sh --smoke` (1 s windows, small tables) on every
//! workload, untraced and traced, and checks what comes out.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["table-steady", "table-resize", "server-get", "server-evict"];

fn benchmark_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()
}

/// The metric names of one array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let json = std::fs::read_to_string(benchmark_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let from = json.find(&format!("\"{section}\"")).expect("section");
    let body = &json[from..from + json[from..].find(']').expect("array end")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name end")].to_string())
        .collect()
}

/// `(name, value, unit)` of every metric of a result line.
fn metrics(line: &str) -> Vec<(String, f64, String)> {
    let mut found = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name = rest[..at].rsplit('"').next().expect("name").to_string();
        let tail = &rest[at + 13..];
        let (number, after) = tail.split_once(", \"unit\": \"").expect("unit");
        let value = number.parse().unwrap_or(f64::NAN);
        let unit = after[..after.find('"').expect("unit end")].to_string();
        found.push((name, value, unit));
        rest = after;
    }
    found
}

/// Runs one smoke run and returns the last line of its standard output.
fn smoke(workload: &str, trace: bool) -> String {
    // Build into this test's own target directory, next to the debug
    // profile the test itself was built with.
    let exe = std::env::current_exe().expect("test binary path");
    let target = exe.ancestors().nth(3).expect("target directory");
    let output = Command::new("bash")
        .arg(benchmark_dir().join("run.sh"))
        .args(["--smoke", "--workload", workload, "--seed", "7"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("CARGO_TARGET_DIR", target)
        .env_remove("RP_FAULT_PLAN")
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a result line").to_string();
    assert!(
        line.contains("\"correct\": true") && line.contains("\"failed\": 0"),
        "{line}"
    );
    line
}

fn well_named(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// One test, so the runs never share the machine with each other.
#[test]
fn smoke_runs_measure_everything() {
    every_workload_measures_every_end_to_end_metric();
    traced_runs_climb_the_whole_ladder();
}

fn every_workload_measures_every_end_to_end_metric() {
    let names = declared("end_to_end");
    assert_eq!(names.len(), 7);
    for workload in WORKLOADS {
        let found = metrics(&smoke(workload, false));
        let found_names: Vec<&str> = found.iter().map(|(name, _, _)| name.as_str()).collect();
        assert_eq!(found_names, names, "{workload}");
        for (name, value, unit) in &found {
            assert!(
                well_named(name) && !unit.is_empty(),
                "{workload} {name} {unit}"
            );
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload} {name} = {value}"
            );
        }
        // A filled-in value would show up more than once.
        for (i, (name, value, _)) in found.iter().enumerate() {
            for (other, same, _) in &found[..i] {
                assert_ne!(value, same, "{workload}: {name} and {other} read the same");
            }
        }
        if workload.starts_with("table-") {
            let hit_ratio = found
                .iter()
                .find(|(name, _, _)| name == "hit_ratio")
                .expect("hit_ratio")
                .1;
            assert!(
                (hit_ratio - 0.875).abs() < 0.001,
                "{workload} hit_ratio {hit_ratio}"
            );
        }
    }
}

fn traced_runs_climb_the_whole_ladder() {
    let names = declared("per_layer");
    for workload in WORKLOADS {
        // Where the ladder is the workload's whole read path, its rungs add
        // up to what the workload measured. The host changes how its two
        // CPUs share their caches every few seconds, and a rung measured
        // before such a change disagrees with a window measured after it by
        // 30-45 % (one smoke run in six here), so the gap asserted is the
        // median of three runs'.
        let gap_matters = workload == "table-steady" || workload == "server-get";
        let mut gaps = Vec::new();
        for _ in 0..if gap_matters { 3 } else { 1 } {
            let found = metrics(&smoke(workload, true));
            let found_names: Vec<&str> = found.iter().map(|(name, _, _)| name.as_str()).collect();
            assert_eq!(found_names, names, "{workload}");
            for (name, value, unit) in &found {
                assert!(
                    well_named(name) && !unit.is_empty(),
                    "{workload} {name} {unit}"
                );
                assert!(value.is_finite(), "{workload} {name} = {value}");
            }
            let trace = benchmark_dir().join(format!("out/trace-{workload}.json"));
            let record = std::fs::read_to_string(&trace).expect("trace file");
            assert!(
                record.contains("\"spans\": [") && record.contains("\"parent\":"),
                "{workload}"
            );
            let gap = found
                .iter()
                .find(|(name, _, _)| name == "benchmark.ladder_gap_pct");
            gaps.push(gap.expect("benchmark.ladder_gap_pct").1);
        }
        gaps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = gaps[gaps.len() / 2];
        assert!(
            !gap_matters || median.abs() <= 15.0,
            "{workload}: the rungs miss the measured cost by {gaps:?} %"
        );
    }
}
