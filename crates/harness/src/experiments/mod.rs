//! One regenerator per table/figure of the paper's evaluation.
//!
//! Each submodule exposes a `run(&ExpOptions)` that renders the same
//! rows/series the paper plots and optionally writes CSV files. The index
//! mapping experiments to paper artifacts lives in DESIGN.md.

pub mod ablation;
pub mod fairness;
pub mod fig11;
pub mod fig12;
pub mod fig7;
pub mod fig8;
pub mod levels;
pub mod live;
pub mod multiplayer;
pub mod overhead;
pub mod robustness;
pub mod table1;

use crate::runner::EvalConfig;
use abr_net::FaultSpec;
use std::path::PathBuf;

/// Options common to all experiments.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Traces per dataset.
    pub traces: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Directory for CSV output (`None` = text only).
    pub out: Option<PathBuf>,
    /// Quick mode: smaller sweeps for smoke runs.
    pub quick: bool,
    /// Worker-thread cap for parallel sections (`None` = `ABR_THREADS`
    /// environment variable if set, else all cores). Set from `--threads`.
    pub threads: Option<usize>,
    /// Fault rate for the emulated path (`--fault-rate`). `None` leaves
    /// every experiment fault-free; the `robustness` experiment sweeps its
    /// own grid unless this pins a single rate.
    pub fault_rate: Option<f64>,
    /// Base seed for fault streams (`--fault-seed`), independent of the
    /// predictor seed so the two sources of randomness can be varied
    /// separately.
    pub fault_seed: u64,
    /// Players per shared bottleneck for the `fairness` experiment
    /// (`--players`, must be positive); `None` sweeps the default grid
    /// (8 and 64; 4 and 16 under `--quick`).
    pub players: Option<usize>,
    /// Independent bottleneck groups per fairness cell (`--bottlenecks`,
    /// must be positive). Each group is one shared-link run over its own
    /// trace and fault stream.
    pub bottlenecks: usize,
    /// Weight of the coordinator's fairness term (`--fairness-alpha`,
    /// finite and non-negative): 0 is pure efficiency, larger values
    /// approach max-min fairness.
    pub fairness_alpha: f64,
    /// Pins the `live` experiment's encoder delay (`--encode-delay`,
    /// seconds past each chunk's nominal end; finite and positive).
    /// `None` sweeps the default delays.
    pub encode_delay: Option<f64>,
    /// Pins the `live` experiment's player-side buffer cap
    /// (`--max-buffer-live`, seconds; finite and at least one chunk).
    /// `None` sweeps the default caps.
    pub max_buffer_live: Option<f64>,
    /// Latency QoE weight `w_lat` for live sessions (`--latency-weight`,
    /// finite and non-negative); `None` uses the live experiment's
    /// default.
    pub latency_weight: Option<f64>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            traces: 100,
            seed: 42,
            out: None,
            quick: false,
            threads: None,
            fault_rate: None,
            fault_seed: 7,
            players: None,
            bottlenecks: 4,
            fairness_alpha: 1.0,
            encode_delay: None,
            max_buffer_live: None,
            latency_weight: None,
        }
    }
}

impl ExpOptions {
    /// The paper's evaluation defaults plus the options that change a
    /// grid's results: fault injection from `--fault-rate`/`--fault-seed`.
    /// Every experiment builds its `EvalConfig` from this, so a run depends
    /// on its options and nothing else.
    pub fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            faults: self
                .fault_rate
                .map(|rate| FaultSpec::for_rate(rate, self.fault_seed)),
            ..EvalConfig::paper_default()
        }
    }

    /// Trace count, reduced for expensive sweeps.
    pub fn traces_capped(&self, cap: usize) -> usize {
        self.traces.min(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_config_carries_the_options_that_change_results() {
        let plain = ExpOptions::default().eval_config();
        assert!(plain.faults.is_none());
        assert!(plain.opt_cache.is_some() && plain.table_cache.is_some());

        let cfg = ExpOptions {
            fault_rate: Some(0.2),
            fault_seed: 11,
            ..ExpOptions::default()
        }
        .eval_config();
        let faults = cfg.faults.expect("--fault-rate arms the fault layer");
        assert_eq!(faults.seed, 11);
        assert_eq!(faults.config, FaultSpec::for_rate(0.2, 11).config);
    }
}
