//! Evaluation driver: runs algorithm × trace grids, computes normalized QoE
//! against the offline optimum, and fans work across CPU cores.

use crate::registry::{Algo, PredictorSpec};
use abr_fastmpc::{FastMpcTable, TableConfig, TableHandle, TableStore};
use abr_net::{
    run_emulated_session_faulted_with, run_emulated_session_with, FaultSpec, NetConfig,
};
use abr_offline::{OfflineConfig, OfflineResult, OptCache};
use abr_sim::{run_session_with, SessionResult, SessionScratch, SimConfig};
use abr_trace::Trace;
use abr_video::{QoeWeights, Video};
use std::sync::{Arc, OnceLock};

/// The process-wide OPT cache shared by every experiment in a harness run.
static GLOBAL_OPT_CACHE: OnceLock<Arc<OptCache>> = OnceLock::new();

/// The process-wide OPT cache (created on first use). One shared cache is
/// what makes `abr_harness all` solve each distinct (trace, video, offline
/// config) problem exactly once across all experiments.
pub fn global_opt_cache() -> &'static Arc<OptCache> {
    GLOBAL_OPT_CACHE.get_or_init(|| Arc::new(OptCache::new()))
}

/// The process-wide table store shared by every experiment in a harness run.
static GLOBAL_TABLE_CACHE: OnceLock<Arc<TableStore>> = OnceLock::new();

/// The process-wide table store (created on first use): unbounded, so it
/// never evicts. One shared store is what makes `abr_harness all` generate
/// each distinct FastMPC table exactly once across experiments.
pub fn global_table_cache() -> &'static Arc<TableStore> {
    GLOBAL_TABLE_CACHE.get_or_init(|| Arc::new(TableStore::new()))
}

/// The FastMPC table for `(video, buffer, weights, levels)`, through `cache`
/// when one is attached (each distinct table generated once per process) or
/// by a direct generation otherwise. Every experiment that needs a
/// paper-shaped table goes through this helper, so the caching policy is
/// decided in exactly one place; a hit is bit-identical to a fresh
/// generation.
pub fn fastmpc_table(
    video: &Video,
    buffer_max_secs: f64,
    weights: &QoeWeights,
    levels: usize,
    cache: Option<&Arc<TableStore>>,
) -> TableHandle {
    let mut cfg = TableConfig::with_levels(levels, buffer_max_secs);
    cfg.weights = weights.clone();
    match cache {
        Some(cache) => cache.ensure(video, buffer_max_secs, &cfg),
        None => TableHandle::Owned(Arc::new(FastMpcTable::generate(
            video,
            buffer_max_secs,
            cfg,
        ))),
    }
}

/// Configuration of one evaluation run.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Simulator configuration (buffer size, weights, startup policy).
    pub sim: SimConfig,
    /// Offline-optimal solver configuration (normalized-QoE denominator).
    pub offline: OfflineConfig,
    /// Use the emulation path (real HTTP through the shaped link) instead
    /// of the analytic simulator. The headline Figure 8/9/10 experiments
    /// run emulated, matching the paper's testbed methodology; the
    /// sensitivity studies run simulated, matching Section 7.3.
    pub emulated: bool,
    /// Network parameters of the emulation path.
    pub net: NetConfig,
    /// MPC look-ahead horizon.
    pub horizon: usize,
    /// FastMPC discretization levels per continuous dimension.
    pub fastmpc_levels: usize,
    /// Base RNG seed (oracle predictors derive per-session seeds from it).
    pub seed: u64,
    /// Memo table for offline-optimal results ([`opt_results`] consults it
    /// before solving). `None` solves from scratch every time; results are
    /// bit-identical either way, only wall-clock differs.
    pub opt_cache: Option<Arc<OptCache>>,
    /// Store of generated FastMPC decision tables ([`fastmpc_table`]
    /// consults it before generating). `None` generates from scratch every
    /// time; tables are bit-identical either way, only wall-clock differs.
    pub table_cache: Option<Arc<TableStore>>,
    /// Fault injection for the emulated path (`None` = fault-free). Each
    /// session draws from the stream of its own seed, so every (trace,
    /// algorithm) cell has an independent, reproducible fault stream. Only
    /// consulted when `emulated` is set; the analytic simulator has no
    /// request/response layer to fault.
    pub faults: Option<FaultSpec>,
    /// Read by nothing: every grid decides one session at a time. It stays
    /// only because the benchmark crate (`perfbench`) sets it, and goes
    /// with the benchmark's next change.
    pub batch_size: usize,
}

impl EvalConfig {
    /// The paper's defaults: the shared OPT cache and table store attached
    /// (hits are bit-identical to fresh solves), fault-free. `ExpOptions::eval_config` layers the command-line
    /// options that change results on top.
    pub fn paper_default() -> Self {
        Self {
            sim: SimConfig::paper_default(),
            offline: OfflineConfig::paper_default(),
            emulated: false,
            net: NetConfig::parity(),
            horizon: 5,
            fastmpc_levels: 100,
            seed: 42,
            opt_cache: Some(Arc::clone(global_opt_cache())),
            table_cache: Some(Arc::clone(global_table_cache())),
            faults: None,
            batch_size: 1,
        }
    }

    /// QoE weights in effect.
    pub fn weights(&self) -> &QoeWeights {
        &self.sim.weights
    }
}

/// The offline optimum for every trace, through `cfg.opt_cache` when one is
/// attached (each distinct problem solved once per process) or by direct
/// parallel solves otherwise. Every experiment that normalizes by
/// `QoE(OPT)` goes through this helper — none call the solver directly —
/// so the cache policy is decided in exactly one place.
pub fn opt_results(traces: &[Trace], video: &Video, cfg: &EvalConfig) -> Vec<Arc<OfflineResult>> {
    match &cfg.opt_cache {
        Some(cache) => cache.ensure(traces, video, &cfg.offline),
        None => par_map(traces.len(), |i| {
            Arc::new(abr_offline::optimal_qoe(&traces[i], video, &cfg.offline))
        }),
    }
}

/// Evaluation of one trace: the offline optimum plus one session per
/// algorithm.
#[derive(Debug, Clone)]
pub struct TraceEval {
    /// Index of the trace within the dataset.
    pub trace_idx: usize,
    /// `QoE(OPT)` for this trace.
    pub opt_qoe: f64,
    /// One session per algorithm, in the order supplied to
    /// [`evaluate_dataset`].
    pub sessions: Vec<SessionResult>,
}

impl TraceEval {
    /// Normalized QoE of algorithm `i`: `QoE(A) / QoE(OPT)`.
    pub fn n_qoe(&self, i: usize) -> f64 {
        self.sessions[i].qoe.qoe / self.opt_qoe
    }
}

/// The full grid result.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Algorithms evaluated, in column order.
    pub algos: Vec<Algo>,
    /// Per-trace evaluations (traces whose offline optimum was not positive
    /// are skipped — normalization is meaningless there; see `skipped`).
    pub traces: Vec<TraceEval>,
    /// Number of traces skipped because `QoE(OPT) <= 0`.
    pub skipped: usize,
}

impl EvalOutcome {
    /// Normalized-QoE samples of one algorithm across all traces.
    pub fn n_qoe_samples(&self, algo: Algo) -> Vec<f64> {
        let i = self.col(algo);
        self.traces.iter().map(|t| t.n_qoe(i)).collect()
    }

    /// All sessions of one algorithm.
    pub fn sessions_of(&self, algo: Algo) -> Vec<&SessionResult> {
        let i = self.col(algo);
        self.traces.iter().map(|t| &t.sessions[i]).collect()
    }

    /// Median normalized QoE of one algorithm.
    pub fn median_n_qoe(&self, algo: Algo) -> f64 {
        abr_trace::stats::median(&self.n_qoe_samples(algo))
    }

    fn col(&self, algo: Algo) -> usize {
        self.algos
            .iter()
            .position(|a| *a == algo)
            .unwrap_or_else(|| panic!("{} was not evaluated", algo.name()))
    }
}

/// Derives a deterministic per-session seed.
fn session_seed(base: u64, trace_idx: usize, algo_idx: usize) -> u64 {
    base ^ (trace_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (algo_idx as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// Runs one algorithm over one trace under `cfg`, using `spec` as the
/// predictor (pass `algo.default_predictor()` unless an experiment overrides
/// it).
#[allow(clippy::too_many_arguments)]
pub fn run_algo_session(
    algo: Algo,
    table: Option<&TableHandle>,
    spec: PredictorSpec,
    seed: u64,
    trace: &Trace,
    video: &Video,
    cfg: &EvalConfig,
) -> SessionResult {
    let mut scratch = SessionScratch::new();
    let mut out = SessionResult::default();
    run_algo_session_with(
        &mut scratch,
        &mut out,
        algo,
        table,
        spec,
        seed,
        trace,
        video,
        cfg,
    );
    out
}

/// [`run_algo_session`] writing into caller-owned buffers: `scratch` carries
/// the session engine's reusable working memory across calls and `out` is
/// overwritten with the result. Grid drivers keep one scratch per worker so
/// the steady-state loop never touches the allocator; results are
/// bit-identical to [`run_algo_session`].
#[allow(clippy::too_many_arguments)]
pub fn run_algo_session_with(
    scratch: &mut SessionScratch,
    out: &mut SessionResult,
    algo: Algo,
    table: Option<&TableHandle>,
    spec: PredictorSpec,
    seed: u64,
    trace: &Trace,
    video: &Video,
    cfg: &EvalConfig,
) {
    let mut controller = algo.build(table, cfg.weights(), cfg.horizon);
    let predictor = spec.build(seed);
    if cfg.emulated {
        if let Some(spec) = &cfg.faults {
            run_emulated_session_faulted_with(
                scratch,
                out,
                controller.as_mut(),
                predictor,
                trace,
                video,
                &cfg.sim,
                &cfg.net,
                spec.plan(seed),
                &spec.policy,
            );
        } else {
            run_emulated_session_with(
                scratch,
                out,
                controller.as_mut(),
                predictor,
                trace,
                video,
                &cfg.sim,
                &cfg.net,
            );
        }
    } else {
        run_session_with(
            scratch,
            out,
            controller.as_mut(),
            predictor,
            trace,
            video,
            &cfg.sim,
        );
    }
}

/// Fork-join parallel map over trace indices. Re-exported from `abr-par`
/// (the same substrate the FastMPC table generator fans rows across), so the
/// `--threads` flag and the `ABR_THREADS` environment variable govern every
/// parallel section of the harness uniformly.
pub use abr_par::par_map;

/// Evaluates `algos` over `traces`, computing the offline optimum per trace
/// for normalization. Traces with a non-positive optimum are skipped.
pub fn evaluate_dataset(
    algos: &[Algo],
    traces: &[Trace],
    video: &Video,
    cfg: &EvalConfig,
) -> EvalOutcome {
    let table = if algos.iter().any(|a| a.needs_table()) {
        Some(fastmpc_table(
            video,
            cfg.sim.buffer_max_secs,
            cfg.weights(),
            cfg.fastmpc_levels,
            cfg.table_cache.as_ref(),
        ))
    } else {
        None
    };

    // One OPT result per trace, hoisted out of the session loop so the shared
    // cache (when attached) is consulted and filled exactly once per problem.
    let opts = opt_results(traces, video, cfg);

    let evals: Vec<Option<TraceEval>> = par_map(traces.len(), |t_idx| {
        let trace = &traces[t_idx];
        let opt = &opts[t_idx];
        if opt.qoe <= 0.0 {
            return None;
        }
        // One scratch per par_map item: every session on this trace reuses
        // the same working buffers, so the engine's steady state stays off
        // the allocator while each result lands in its own `SessionResult`.
        let mut scratch = SessionScratch::new();
        let sessions = algos
            .iter()
            .enumerate()
            .map(|(a_idx, algo)| {
                let mut out = SessionResult::default();
                run_algo_session_with(
                    &mut scratch,
                    &mut out,
                    *algo,
                    table.as_ref(),
                    algo.default_predictor(),
                    session_seed(cfg.seed, t_idx, a_idx),
                    trace,
                    video,
                    cfg,
                );
                out
            })
            .collect();
        Some(TraceEval {
            trace_idx: t_idx,
            opt_qoe: opt.qoe,
            sessions,
        })
    });

    let skipped = evals.iter().filter(|e| e.is_none()).count();
    EvalOutcome {
        algos: algos.to_vec(),
        traces: evals.into_iter().flatten().collect(),
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_trace::Dataset;
    use abr_video::envivio_video;

    fn quick_cfg() -> EvalConfig {
        EvalConfig {
            fastmpc_levels: 12,
            ..EvalConfig::paper_default()
        }
    }

    #[test]
    fn par_map_matches_serial() {
        let out = par_map(100, |i| i * i);
        let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_map_empty() {
        let out: Vec<u32> = par_map(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn evaluate_small_grid() {
        let video = envivio_video();
        let traces = Dataset::Fcc.generate(7, 4);
        let cfg = quick_cfg();
        let algos = [Algo::Rb, Algo::Bb, Algo::RobustMpc, Algo::FastMpc];
        let out = evaluate_dataset(&algos, &traces, &video, &cfg);
        assert_eq!(out.traces.len() + out.skipped, 4);
        for t in &out.traces {
            assert!(t.opt_qoe > 0.0);
            assert_eq!(t.sessions.len(), 4);
            for i in 0..4 {
                let n = t.n_qoe(i);
                assert!(n.is_finite());
                // No algorithm should (meaningfully) beat clairvoyant OPT.
                assert!(n <= 1.05, "n-QoE {n} for {}", out.algos[i].name());
            }
        }
        // Median accessor works.
        let med = out.median_n_qoe(Algo::RobustMpc);
        assert!(med.is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let video = envivio_video();
        let traces = Dataset::Hsdpa.generate(3, 2);
        let cfg = quick_cfg();
        let a = evaluate_dataset(&[Algo::RobustMpc], &traces, &video, &cfg);
        let b = evaluate_dataset(&[Algo::RobustMpc], &traces, &video, &cfg);
        assert_eq!(a.traces.len(), b.traces.len());
        for (x, y) in a.traces.iter().zip(&b.traces) {
            assert_eq!(x.sessions[0].qoe.qoe, y.sessions[0].qoe.qoe);
        }
    }

    #[test]
    fn opt_cache_does_not_change_results_and_solves_once() {
        let video = envivio_video();
        let traces = Dataset::Hsdpa.generate(11, 3);

        // A private cache (not the process-global one) keeps this test
        // independent of whatever other tests have cached.
        let cache = Arc::new(OptCache::new());
        let cached_cfg = EvalConfig {
            opt_cache: Some(Arc::clone(&cache)),
            ..quick_cfg()
        };
        let plain_cfg = EvalConfig {
            opt_cache: None,
            ..quick_cfg()
        };

        let first = evaluate_dataset(&[Algo::Rb], &traces, &video, &cached_cfg);
        let second = evaluate_dataset(&[Algo::Rb], &traces, &video, &cached_cfg);
        let plain = evaluate_dataset(&[Algo::Rb], &traces, &video, &plain_cfg);

        let stats = cache.stats();
        assert_eq!(
            stats.solves as usize, stats.entries,
            "each distinct problem must be solved exactly once"
        );
        assert_eq!(stats.entries, traces.len());
        assert!(stats.hits >= traces.len() as u64);

        assert_eq!(first.traces.len(), plain.traces.len());
        assert_eq!(first.skipped, plain.skipped);
        for ((a, b), c) in first.traces.iter().zip(&second.traces).zip(&plain.traces) {
            assert_eq!(a.opt_qoe.to_bits(), b.opt_qoe.to_bits());
            assert_eq!(a.opt_qoe.to_bits(), c.opt_qoe.to_bits());
            assert_eq!(a.sessions[0].qoe.qoe.to_bits(), c.sessions[0].qoe.qoe.to_bits());
        }
    }

    #[test]
    fn table_cache_does_not_change_results_and_generates_once() {
        let video = envivio_video();
        let traces = Dataset::Fcc.generate(13, 3);

        // A private store (not the process-global one) keeps this test
        // independent of whatever other tests have cached.
        let cache = Arc::new(TableStore::new());
        let cached_cfg = EvalConfig {
            table_cache: Some(Arc::clone(&cache)),
            ..quick_cfg()
        };
        let plain_cfg = EvalConfig {
            table_cache: None,
            ..quick_cfg()
        };

        let first = evaluate_dataset(&[Algo::FastMpc], &traces, &video, &cached_cfg);
        let second = evaluate_dataset(&[Algo::FastMpc], &traces, &video, &cached_cfg);
        let plain = evaluate_dataset(&[Algo::FastMpc], &traces, &video, &plain_cfg);

        let stats = cache.stats();
        assert_eq!(
            stats.generates as usize, stats.hot_entries,
            "each distinct table must be generated exactly once"
        );
        assert_eq!(stats.hot_entries, 1);
        assert!(stats.hot_hits >= 1);

        assert_eq!(first.traces.len(), plain.traces.len());
        assert_eq!(first.skipped, plain.skipped);
        for ((a, b), c) in first.traces.iter().zip(&second.traces).zip(&plain.traces) {
            assert_eq!(a.sessions[0].qoe.qoe.to_bits(), b.sessions[0].qoe.qoe.to_bits());
            assert_eq!(a.sessions[0].qoe.qoe.to_bits(), c.sessions[0].qoe.qoe.to_bits());
        }
    }

    #[test]
    fn emulated_grid_runs() {
        let video = envivio_video();
        let traces = Dataset::Fcc.generate(9, 2);
        let cfg = EvalConfig {
            emulated: true,
            fastmpc_levels: 12,
            ..EvalConfig::paper_default()
        };
        let out = evaluate_dataset(&[Algo::Bb], &traces, &video, &cfg);
        assert!(!out.traces.is_empty());
    }

    #[test]
    fn zero_rate_fault_spec_is_bit_identical_to_fault_free() {
        // The acceptance bar for the whole fault layer: arming it at rate
        // zero must not move a single bit of any result.
        let video = envivio_video();
        let traces = Dataset::Fcc.generate(21, 2);
        let plain_cfg = EvalConfig {
            emulated: true,
            fastmpc_levels: 12,
            ..EvalConfig::paper_default()
        };
        let armed_cfg = EvalConfig {
            faults: Some(FaultSpec::for_rate(0.0, 7)),
            ..plain_cfg.clone()
        };
        let plain = evaluate_dataset(&[Algo::Rb, Algo::Bb], &traces, &video, &plain_cfg);
        let armed = evaluate_dataset(&[Algo::Rb, Algo::Bb], &traces, &video, &armed_cfg);
        assert_eq!(plain.traces.len(), armed.traces.len());
        for (p, a) in plain.traces.iter().zip(&armed.traces) {
            for (ps, as_) in p.sessions.iter().zip(&a.sessions) {
                assert_eq!(ps.qoe.qoe.to_bits(), as_.qoe.qoe.to_bits());
                assert_eq!(ps.records.len(), as_.records.len());
                assert_eq!(ps.total_retries(), 0);
                assert_eq!(as_.total_retries(), 0);
                for (pr, ar) in ps.records.iter().zip(&as_.records) {
                    assert_eq!(pr.download_secs.to_bits(), ar.download_secs.to_bits());
                    assert_eq!(pr.throughput_kbps.to_bits(), ar.throughput_kbps.to_bits());
                }
            }
        }
    }

    #[test]
    fn faulted_grid_is_deterministic_and_finite() {
        let video = envivio_video();
        let traces = Dataset::Fcc.generate(27, 2);
        let cfg = EvalConfig {
            emulated: true,
            fastmpc_levels: 12,
            faults: Some(FaultSpec::for_rate(0.3, 99)),
            ..EvalConfig::paper_default()
        };
        let a = evaluate_dataset(&[Algo::RobustMpc], &traces, &video, &cfg);
        let b = evaluate_dataset(&[Algo::RobustMpc], &traces, &video, &cfg);
        assert_eq!(a.traces.len(), b.traces.len());
        for (x, y) in a.traces.iter().zip(&b.traces) {
            let (sx, sy) = (&x.sessions[0], &y.sessions[0]);
            assert!(sx.qoe.qoe.is_finite());
            assert_eq!(sx.qoe.qoe.to_bits(), sy.qoe.qoe.to_bits());
            assert_eq!(sx.total_retries(), sy.total_retries());
            assert_eq!(
                sx.total_wasted_kbits().to_bits(),
                sy.total_wasted_kbits().to_bits()
            );
        }
    }
}
