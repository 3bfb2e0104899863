//! Section 7.4 overhead microbenchmark: per-decision CPU cost of each
//! algorithm and the FastMPC table's memory footprint (the paper reports
//! "similar CPU usage and only 60 kB extra memory").
//!
//! This subcommand gives a quick same-binary measurement. The benchmark
//! (`perfbench`, `--trace 1`) measures the same costs with their spread:
//! `core.mpc_decide_ns`, `fastmpc.lookup_ns` and `baselines.decide_ns`,
//! and table generation as `fastmpc.generate_ms`.

use super::ExpOptions;
use crate::registry::Algo;
use crate::report::{write_csv, Table};
use crate::runner::{global_opt_cache, global_table_cache};
use abr_core::ControllerContext;
use abr_fastmpc::{FastMpcTable, TableConfig, TableHandle};
use abr_video::{envivio_video, LevelIdx, QoeWeights};
use std::time::Instant;

/// Runs the experiment and returns the rendered report.
pub fn run(opts: &ExpOptions) -> String {
    let video = envivio_video();
    let weights = QoeWeights::balanced();
    let levels = if opts.quick { 30 } else { 100 };

    let cfg = TableConfig {
        weights: weights.clone(),
        ..TableConfig::with_levels(levels, 30.0)
    };
    let table = std::sync::Arc::new(FastMpcTable::generate(&video, 30.0, cfg));
    let handle = TableHandle::Owned(std::sync::Arc::clone(&table));

    let algos = [
        Algo::Rb,
        Algo::Bb,
        Algo::Festive,
        Algo::DashJs,
        Algo::FastMpc,
        Algo::Mpc,
        Algo::RobustMpc,
    ];
    let mut t = Table::new(
        "§7.4 overhead: per-decision CPU cost",
        &["algorithm", "ns/decision", "decisions/s"],
    );
    let iters = if opts.quick { 2_000 } else { 20_000 };
    for algo in algos {
        let mut controller = algo.build(Some(&handle), &weights, 5);
        // A mid-stream state; vary buffer/prediction per iteration so
        // nothing gets branch-predicted away unrealistically.
        let start = Instant::now();
        for i in 0..iters {
            let ctx = ControllerContext {
                chunk_index: 10 + (i % 40),
                buffer_secs: (i % 30) as f64,
                prev_level: Some(LevelIdx(i % 5)),
                prediction_kbps: Some(400.0 + (i % 50) as f64 * 60.0),
                robust_lower_kbps: Some(350.0 + (i % 50) as f64 * 50.0),
                last_throughput_kbps: Some(1000.0),
                recent_low_buffer: false,
                startup: false,
                video: &video,
                buffer_max_secs: 30.0,
                live: None,
            };
            std::hint::black_box(controller.decide(&ctx));
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        t.row(vec![
            algo.name().to_string(),
            format!("{ns:.0}"),
            format!("{:.0}", 1e9 / ns),
        ]);
    }
    write_csv(opts.out.as_deref(), "overhead", &t).expect("csv write");

    let mut mem = Table::new(
        "§7.4 overhead: FastMPC memory",
        &["artifact", "bytes"],
    );
    mem.row(vec![
        format!("decision table, full ({levels} levels)"),
        table.full_size_bytes().to_string(),
    ]);
    mem.row(vec![
        "decision table, run-length coded".to_string(),
        table.rle_size_bytes().to_string(),
    ]);
    mem.row(vec![
        "decision table, binary serialization".to_string(),
        table.binary_size_bytes().to_string(),
    ]);
    write_csv(opts.out.as_deref(), "overhead_memory", &mem).expect("csv write");

    // OPT result cache: under `abr_harness all` every experiment shares the
    // process-wide cache, so "unique solves" equals "entries" — each
    // distinct (trace, video, offline-config) DP ran exactly once.
    let stats = global_opt_cache().stats();
    let mut cache = Table::new(
        "§7.4 overhead: OPT result cache",
        &["metric", "value"],
    );
    cache.row(vec!["opt cache entries".to_string(), stats.entries.to_string()]);
    cache.row(vec![
        "opt cache unique solves".to_string(),
        stats.solves.to_string(),
    ]);
    cache.row(vec!["opt cache hits".to_string(), stats.hits.to_string()]);
    cache.row(vec![
        "opt cache solved exactly once per problem".to_string(),
        (stats.solves == stats.entries as u64).to_string(),
    ]);
    write_csv(opts.out.as_deref(), "overhead_opt_cache", &cache).expect("csv write");

    // FastMPC table store: the table-pipeline sibling of the OPT cache.
    // Under `abr_harness all` every experiment shares the process-wide
    // unbounded store, so "unique generations" equals "entries" — each
    // distinct (video, buffer, table-config) instance was enumerated
    // exactly once.
    let tstats = global_table_cache().stats();
    let mut tcache = Table::new(
        "§7.4 overhead: FastMPC table cache",
        &["metric", "value"],
    );
    tcache.row(vec![
        "table cache entries".to_string(),
        tstats.hot_entries.to_string(),
    ]);
    tcache.row(vec![
        "table cache unique generations".to_string(),
        tstats.generates.to_string(),
    ]);
    tcache.row(vec!["table cache hits".to_string(), tstats.hot_hits.to_string()]);
    tcache.row(vec![
        "table cache generated exactly once per instance".to_string(),
        (tstats.generates == tstats.hot_entries as u64).to_string(),
    ]);
    write_csv(opts.out.as_deref(), "overhead_table_cache", &tcache).expect("csv write");

    format!(
        "{}\n{}\n{}\n{}",
        t.render(),
        mem.render(),
        cache.render(),
        tcache.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_reports_all_algorithms() {
        let s = run(&ExpOptions {
            quick: true,
            ..ExpOptions::default()
        });
        assert!(s.contains("ns/decision"));
        assert!(s.contains("FastMPC"));
        assert!(s.contains("run-length coded"));
        assert!(s.contains("binary serialization"));
        assert!(s.contains("opt cache unique solves"));
        assert!(s.contains("opt cache solved exactly once per problem"));
        assert!(s.contains("table cache unique generations"));
        assert!(s.contains("table cache generated exactly once per instance"));
    }
}
