//! Regenerates the paper's figures: `paper_figs [figure …]` runs the named
//! ones (all five without an argument), prints each as a markdown table and
//! writes `<figure>.csv` + `<figure>.md` into the output directory.

#![deny(unsafe_op_in_unsafe_fn)]

use rp_bench::{BenchConfig, FIGURES};

/// The checkout's commit, for the provenance line (`unknown` outside git).
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn main() -> std::io::Result<()> {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|name| !FIGURES.iter().any(|(stem, _)| stem == name))
    {
        let known: Vec<&str> = FIGURES.iter().map(|(stem, _)| *stem).collect();
        eprintln!(
            "unknown figure {unknown:?}; the figures are: {}",
            known.join(" ")
        );
        std::process::exit(2);
    }
    let cfg = BenchConfig::from_env();
    let provenance = cfg.provenance(&commit());
    eprintln!("{provenance}");
    for (stem, figure) in FIGURES {
        if !wanted.is_empty() && !wanted.iter().any(|name| name == stem) {
            continue;
        }
        eprintln!("== {stem} ==");
        let report = figure(&cfg);
        report.write_files(&cfg.out_dir, stem, &provenance)?;
        print!("{}", report.to_markdown());
    }
    eprintln!("results written to {}", cfg.out_dir.display());
    Ok(())
}
