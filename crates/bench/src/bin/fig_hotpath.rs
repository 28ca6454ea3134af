//! Regenerates the repo's hot-path figure and enforces the
//! allocation-regression gate: steady-state event-loop GETs must perform
//! **zero** heap allocations (measured exactly, by installing
//! [`rp_workload::alloc::CountingAllocator`] as this binary's global
//! allocator), a steady-state SET of a short key at most **two** (the index
//! node and the payload), and pipelined GET throughput at depth ≥ 8 must
//! beat the closed-loop driver on the same connections.
//!
//! `--smoke` shrinks the run for CI (short windows, few connections) while
//! keeping every assertion live — a regression that puts an allocation
//! back on the GET path, or a third on the SET path, fails this binary,
//! and therefore the build.
//!
//! Knobs: `RP_BENCH_HOTPATH_CONNECTIONS`, `RP_BENCH_HOTPATH_AUDIT_OPS`,
//! `RP_BENCH_DURATION_MS`, `RP_BENCH_ENTRIES`, `RP_BENCH_SERVER_WORKERS`.

use std::time::Duration;

#[global_allocator]
static ALLOC: rp_workload::alloc::CountingAllocator = rp_workload::alloc::CountingAllocator;

fn main() -> std::io::Result<()> {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let mut cfg = rp_bench::BenchConfig::from_env();
    if smoke {
        cfg.duration = cfg.duration.min(Duration::from_millis(150));
        cfg.entries = cfg.entries.min(2048);
        cfg.hotpath_connections = cfg.hotpath_connections.min(8);
        cfg.hotpath_audit_ops = cfg.hotpath_audit_ops.min(2000);
    }
    eprintln!(
        "hot-path benchmark on {} ({}; counting allocator installed)",
        cfg.host,
        if smoke { "smoke mode" } else { "full run" },
    );
    let report = rp_bench::fig_hotpath(&cfg);
    report.write_files(&cfg.out_dir, "fig_hotpath")?;
    print!("{}", report.to_markdown());
    if smoke {
        eprintln!(
            "fig_hotpath smoke gate passed: 0 allocs/GET, <= 2 allocs/SET, pipelining beats \
             closed loop"
        );
    }
    Ok(())
}
