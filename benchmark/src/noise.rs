//! Running every workload, each in a fresh process, and the noise report:
//! two sets of runs of the same code compared cell by cell.

use std::fmt::Write as _;
use std::process::Command;

use crate::measure::median_f64;
use crate::{Args, END_TO_END, WORKLOADS};

/// The metrics of one child run, by name.
type Values = Vec<(String, f64)>;

/// The diagnostics an untraced run prints to standard error: the timings
/// as ISSUE 12 defines them, with everything the host did left in (name,
/// whether higher is better), and what the host was doing meanwhile.
const AS_THE_CLOCK_SAW_IT: [(&str, bool); 6] = [
    ("benchmark.setup_clock_s", false),
    ("benchmark.read_p50_us", false),
    ("benchmark.write_p50_us", false),
    ("benchmark.read_tail_us", false),
    ("benchmark.read_kops_s_median", true),
    ("benchmark.cpu_us_per_kop_window", false),
];
const HOST_SIGNS: [&str; 2] = ["benchmark.steal_share", "benchmark.floor_share"];

/// Runs one workload in a fresh process of this same binary and returns its
/// standard output and the metrics of its last line, [`HOST_SIGNS`] among
/// them when the run printed them.
fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<(String, Values), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--kvcached")
        .arg(&args.kvcached)
        .arg("--out")
        .arg(&args.out)
        .args(["--commit", &args.commit]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed}: {}\n{stdout}{stderr}",
            output.status
        ));
    }
    let mut metrics = parse_metrics(stdout.lines().last().unwrap_or_default());
    let diagnostics = AS_THE_CLOCK_SAW_IT.iter().map(|&(name, _)| name);
    for name in diagnostics.chain(HOST_SIGNS) {
        if let Ok(value) = crate::server::stat(&stderr, name) {
            metrics.push((name.to_string(), value));
        }
    }
    Ok((stdout, metrics))
}

/// `"name": {"value": 1.5, ...` pairs of a result line.
fn parse_metrics(line: &str) -> Values {
    let mut values = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name_from = rest[..at].rfind('"').map_or(0, |q| q + 1);
        let number = &rest[at + 13..];
        let end = number.find([',', '}']).unwrap_or(number.len());
        if let Ok(value) = number[..end].trim().parse() {
            values.push((rest[name_from..at].to_string(), value));
        }
        rest = &number[end..];
    }
    values
}

/// No `--workload`: every workload, untraced and then traced, each in a
/// fresh process; every metric printed by name with its unit.
pub fn run_all(args: &Args) {
    let mut wrong = false;
    for workload in WORKLOADS {
        for trace in [false, true] {
            println!("== {workload}{}", if trace { " (traced)" } else { "" });
            match child(args, workload, args.seed, trace) {
                Ok((stdout, _)) => print!("{stdout}"),
                Err(message) => {
                    eprintln!("{message}");
                    wrong = true;
                }
            }
        }
    }
    if wrong {
        std::process::exit(1);
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let at = |k: usize| {
        let position = (k * (sorted.len() + 1)) as f64 / 4.0;
        let below = (position.floor() as usize).clamp(1, sorted.len() - 1);
        let share = position - below as f64;
        sorted[below - 1] + share * (sorted[below] - sorted[below - 1])
    };
    (at(1), at(3))
}

/// Two sets of values of one metric compared: the medians, how much worse
/// the second is than the first as a share of the first, and the distance
/// between the first and third quartile as a share of the median, the larger
/// of the two sets'.
fn compare(first: &[f64], second: &[f64], higher_is_better: bool) -> (f64, f64, f64, f64) {
    let (m1, m2) = (
        median_f64(&mut first.to_vec()),
        median_f64(&mut second.to_vec()),
    );
    let drift = if higher_is_better {
        (m1 - m2) / m1
    } else {
        (m2 - m1) / m1
    };
    let spread = [(first, m1), (second, m2)]
        .iter()
        .map(|(values, median)| {
            let (q1, q3) = quartiles(values);
            (q3 - q1) / median
        })
        .fold(0.0, f64::max);
    (m1, m2, drift, spread)
}

/// `--noise N`: N runs of every workload, each with another seed, twice
/// over. A cell fails if the second set's median is worse than the first's
/// by more than half its bound, or a set's quartile spread exceeds the
/// bound. The report goes to `--report` as markdown.
pub fn report(args: &Args, sets: usize) {
    assert!(sets >= 2, "--noise needs at least 2 runs per set");
    // results[set][workload] = one Values per seed
    let mut results: Vec<Vec<Vec<Values>>> = Vec::new();
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for workload in WORKLOADS {
            let mut runs = Vec::new();
            for run in 0..sets {
                let seed = args.seed + (set * sets + run) as u64;
                eprintln!("set {} {workload} seed {seed}", set + 1);
                match child(args, workload, seed, false) {
                    Ok((_, values)) => runs.push(values),
                    Err(message) => {
                        eprintln!("{message}");
                        std::process::exit(1);
                    }
                }
            }
            per_workload.push(runs);
        }
        results.push(per_workload);
    }

    let mut out = String::new();
    let mut failed = false;
    let _ = writeln!(
        out,
        "# Noise report\n\nTwo sets of {sets} runs per workload of the same code, {} s windows, \
         seeds {}..{}, commit {}, host {}.\n\n`drift` is how much worse the second set's median \
         is than the first's (negative: better); it must stay within half the bound. `spread` \
         is the distance between the first and third quartile as a share of the median, the \
         larger of the two sets'; it must stay within the bound (`setup_s` is exempt).\n",
        args.seconds,
        args.seed,
        args.seed + 2 * sets as u64 - 1,
        args.commit,
        crate::measure::host_json(),
    );
    let _ = writeln!(
        out,
        "| workload | metric | median 1 | median 2 | drift | spread | bound | |"
    );
    let _ = writeln!(out, "|---|---|---:|---:|---:|---:|---:|---|");
    // One value per run of a set.
    let column = |set: usize, w: usize, name: &str| -> Vec<f64> {
        results[set][w]
            .iter()
            .filter_map(|values| values.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
            .collect()
    };
    let mut runs = String::new();
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (name, unit, higher_is_better, bound) in END_TO_END {
            let (first, second) = (column(0, w, name), column(1, w, name));
            for (set, values) in [&first, &second].iter().enumerate() {
                let _ = writeln!(runs, "| {workload} | {name} | {} | {values:.5?} |", set + 1);
            }
            let (m1, m2, drift, spread) = compare(&first, &second, higher_is_better);
            // Set-up time is exempt from the spread rule, not from drift.
            let ok = drift <= bound / 2.0 && (name == "setup_s" || spread <= bound);
            failed |= !ok;
            let _ = writeln!(
                out,
                "| {workload} | {name} ({unit}) | {m1:.4} | {m2:.4} | {:+.2}% | {:.2}% | {:.0}% | {} |",
                drift * 100.0,
                spread * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "FAIL" },
            );
        }
    }
    let _ = writeln!(
        out,
        "\n## As the clock saw it\n\nThe same windows by ISSUE 12's definitions, with \
         everything the host did left in: the median and the tail of a unit, the median of the \
         per-second rates, the CPU time of the whole window. Reported with every run, not \
         gated: compare their drift and spread with those above.\n\n\
         | workload | metric | median 1 | median 2 | drift | spread |\n|---|---|---:|---:|---:|---:|"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (name, higher_is_better) in AS_THE_CLOCK_SAW_IT {
            let (first, second) = (column(0, w, name), column(1, w, name));
            for (set, values) in [&first, &second].iter().enumerate() {
                let _ = writeln!(runs, "| {workload} | {name} | {} | {values:.5?} |", set + 1);
            }
            let (m1, m2, drift, spread) = compare(&first, &second, higher_is_better);
            let _ = writeln!(
                out,
                "| {workload} | {name} | {m1:.4} | {m2:.4} | {:+.2}% | {:.2}% |",
                drift * 100.0,
                spread * 100.0,
            );
        }
    }
    let _ = writeln!(
        out,
        "\n## What the host was doing\n\nMedians over the runs of a set: the share of the \
         machine's CPU time the hypervisor gave to others during the window, and the share of \
         the reading threads' unit time that would remain had every unit run at its floor.\n\n\
         | workload | set | steal | at the floor |\n|---|---|---:|---:|"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for set in 0..2 {
            let [steal, floor] = HOST_SIGNS.map(|sign| median_f64(&mut column(set, w, sign)));
            let _ = writeln!(
                out,
                "| {workload} | {} | {:.1}% | {:.1}% |",
                set + 1,
                steal * 100.0,
                floor * 100.0
            );
        }
    }
    let _ = writeln!(
        out,
        "\n## Every run\n\n| workload | metric | set | values, in seed order |\n|---|---|---|---|\n{runs}"
    );
    print!("{out}");
    if let Some(path) = &args.report {
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("cannot write {}: {e}", path.display());
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
    }

    #[test]
    fn result_lines_parse() {
        let line = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 1.25, "unit": "s"}, "hit_ratio": {"value": 0.875, "unit": "ratio"}}}"#;
        assert_eq!(
            parse_metrics(line),
            vec![
                ("setup_s".to_string(), 1.25),
                ("hit_ratio".to_string(), 0.875)
            ]
        );
    }
}
