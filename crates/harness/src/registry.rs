//! The algorithm registry: builds fresh controller/predictor pairs per
//! session, exactly as Section 7.1.2 configures them.

use abr_core::{BitrateController, Mpc, MpcConfig};
use abr_fastmpc::TableHandle;
use abr_predictor::{NoisyOracle, Predictor};
use abr_serve::{Backend, PredictorKind};
use abr_video::QoeWeights;

/// The throughput predictor driving a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorSpec {
    /// Harmonic mean of the past 5 chunks — the paper's default.
    Harmonic,
    /// Ground truth with bounded multiplicative noise (sensitivity studies);
    /// `0.0` is the perfect predictor used for MPC-OPT.
    Oracle(f64),
    /// Arithmetic mean over a window.
    Sliding(usize),
    /// Exponentially weighted moving average.
    Ewma(f64),
    /// The last observed chunk throughput.
    Last,
    /// Online-fitted AR(1) in the log domain (Section 8's "better
    /// predictors" direction).
    Ar1(usize),
    /// Crowdsourced prior worth `weight` pseudo-observations blended with a
    /// 5-chunk harmonic window (Section 8's control-plane direction).
    CrossSession {
        /// Prior throughput estimate from other sessions, kbps.
        prior_kbps: f64,
        /// Pseudo-observation weight of the prior.
        weight: f64,
    },
}

impl PredictorSpec {
    /// The predictor the decision service hosts for this spec, which builds
    /// it; `None` for the oracle, which needs the trace's future.
    pub fn kind(&self) -> Option<PredictorKind> {
        Some(match *self {
            PredictorSpec::Harmonic => PredictorKind::Harmonic,
            PredictorSpec::Oracle(_) => return None,
            PredictorSpec::Sliding(w) => PredictorKind::Sliding(w),
            PredictorSpec::Ewma(alpha) => PredictorKind::Ewma(alpha),
            PredictorSpec::Last => PredictorKind::Last,
            PredictorSpec::Ar1(w) => PredictorKind::Ar1(w),
            PredictorSpec::CrossSession { prior_kbps, weight } => {
                PredictorKind::CrossSession { prior_kbps, weight }
            }
        })
    }

    /// Builds a fresh predictor for one session; `seed` keeps oracle noise
    /// deterministic per (trace, algorithm).
    pub fn build(&self, seed: u64) -> Box<dyn Predictor> {
        match *self {
            PredictorSpec::Oracle(err) => Box::new(NoisyOracle::new(err, seed)),
            _ => self
                .kind()
                .expect("only the oracle lacks a service predictor")
                .build(),
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            PredictorSpec::Harmonic => "harmonic-5".to_string(),
            PredictorSpec::Oracle(e) => format!("oracle±{:.0}%", e * 100.0),
            PredictorSpec::Sliding(w) => format!("mean-{w}"),
            PredictorSpec::Ewma(a) => format!("ewma-{a}"),
            PredictorSpec::Last => "last-sample".to_string(),
            PredictorSpec::Ar1(w) => format!("ar1-{w}"),
            PredictorSpec::CrossSession { weight, .. } => format!("crowd-w{weight}"),
        }
    }
}

/// The algorithms of the evaluation (Section 7.1.2's list plus MPC-OPT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Rate-based: max bitrate under the harmonic-mean prediction.
    Rb,
    /// Buffer-based (Huang et al.), reservoir 5 s / cushion 10 s.
    Bb,
    /// FESTIVE with `α = 12`, stepwise switching.
    Festive,
    /// dash.js rule-based logic.
    DashJs,
    /// BOLA (extension): the Lyapunov buffer-based algorithm from
    /// follow-on work.
    Bola,
    /// FastMPC: 100×100-bin table lookup, harmonic-mean prediction.
    FastMpc,
    /// RobustMPC: exact MPC on the error-adjusted throughput lower bound.
    RobustMpc,
    /// Exact MPC on the raw prediction.
    Mpc,
    /// Exact MPC with perfect throughput prediction (simulation upper
    /// reference in Figures 11b–d).
    MpcOpt,
}

impl Algo {
    /// The six algorithms of the headline comparison (Figure 8), in the
    /// paper's legend order.
    pub const FIGURE8: [Algo; 6] = [
        Algo::Rb,
        Algo::Bb,
        Algo::FastMpc,
        Algo::RobustMpc,
        Algo::DashJs,
        Algo::Festive,
    ];

    /// The four algorithms of the sensitivity panels (Figures 11b–d).
    pub const SENSITIVITY: [Algo; 4] = [Algo::MpcOpt, Algo::FastMpc, Algo::Bb, Algo::Rb];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Rb => "RB",
            Algo::Bb => "BB",
            Algo::Festive => "FESTIVE",
            Algo::DashJs => "dash.js",
            Algo::Bola => "BOLA",
            Algo::FastMpc => "FastMPC",
            Algo::RobustMpc => "RobustMPC",
            Algo::Mpc => "MPC",
            Algo::MpcOpt => "MPC-OPT",
        }
    }

    /// The predictor this algorithm is evaluated with by default.
    pub fn default_predictor(self) -> PredictorSpec {
        match self {
            Algo::MpcOpt => PredictorSpec::Oracle(0.0),
            _ => PredictorSpec::Harmonic,
        }
    }

    /// Whether this algorithm needs the FastMPC decision table.
    pub fn needs_table(self) -> bool {
        matches!(self, Algo::FastMpc)
    }

    /// The decision-service backend hosting this algorithm, whose recipe
    /// builds it; `None` for MPC-OPT, whose perfect predictor only a
    /// simulator has.
    pub fn backend(self) -> Option<Backend> {
        Some(match self {
            Algo::Rb => Backend::Rb,
            Algo::Bb => Backend::Bb,
            Algo::Festive => Backend::Festive,
            Algo::DashJs => Backend::DashJs,
            Algo::Bola => Backend::Bola,
            Algo::FastMpc => Backend::FastMpc,
            Algo::RobustMpc => Backend::RobustMpc,
            Algo::Mpc => Backend::Mpc,
            Algo::MpcOpt => return None,
        })
    }

    /// Builds a fresh controller. `table` is required for
    /// [`Algo::FastMpc`]; `weights`/`horizon` configure the MPC family.
    pub fn build(
        self,
        table: Option<&TableHandle>,
        weights: &QoeWeights,
        horizon: usize,
    ) -> Box<dyn BitrateController> {
        match self.backend() {
            Some(backend) => backend.build(table, weights, horizon),
            None => Box::new(
                Mpc::new(MpcConfig {
                    horizon,
                    weights: weights.clone(),
                    ..MpcConfig::paper_default()
                })
                .named("MPC-OPT"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_video::envivio_video;

    #[test]
    fn all_algorithms_build() {
        let video = envivio_video();
        let weights = QoeWeights::balanced();
        let table = crate::runner::fastmpc_table(&video, 30.0, &weights, 10, None);
        for algo in [
            Algo::Rb,
            Algo::Bb,
            Algo::Festive,
            Algo::DashJs,
            Algo::Bola,
            Algo::FastMpc,
            Algo::RobustMpc,
            Algo::Mpc,
            Algo::MpcOpt,
        ] {
            let c = algo.build(Some(&table), &weights, 5);
            assert_eq!(c.name(), algo.name());
        }
    }

    #[test]
    fn figure8_set_matches_paper_legend() {
        let names: Vec<_> = Algo::FIGURE8.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["RB", "BB", "FastMPC", "RobustMPC", "dash.js", "FESTIVE"]
        );
    }

    #[test]
    fn predictor_specs_build() {
        let mut h = PredictorSpec::Harmonic.build(0);
        h.observe(1000.0);
        assert_eq!(h.predict(), Some(1000.0));
        let mut o = PredictorSpec::Oracle(0.0).build(1);
        o.hint_future(1234.0);
        assert_eq!(o.predict(), Some(1234.0));
    }

    #[test]
    fn mpc_opt_uses_perfect_oracle() {
        assert_eq!(Algo::MpcOpt.default_predictor(), PredictorSpec::Oracle(0.0));
        assert_eq!(Algo::RobustMpc.default_predictor(), PredictorSpec::Harmonic);
    }
}
