//! Decision backends and predictors the service can host.
//!
//! [`Backend::build`] and [`PredictorKind::build`] are the one construction
//! recipe of each controller and predictor: the harness registry builds
//! through them too, so a remote session and its in-process twin run
//! literally the same controller. Oracle predictors are deliberately
//! absent: they need the future of the throughput trace, which only the
//! client-side simulator knows — a server cannot host one, and rejecting
//! them at registration keeps the differential guarantee honest.

use crate::proto::ProtoError;
use abr_baselines::{Bola, BufferBased, DashJs, Festive, RateBased};
use abr_core::{BitrateController, Mpc, MpcConfig};
use abr_fastmpc::{FastMpc, TableHandle};
use abr_predictor::{Ar1, CrossSession, Ewma, HarmonicMean, LastSample, Predictor, SlidingMean};
use abr_video::QoeWeights;

/// Controller families the service hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Rate-based baseline.
    Rb,
    /// Buffer-based baseline (Huang et al.).
    Bb,
    /// FESTIVE.
    Festive,
    /// dash.js rule-based logic.
    DashJs,
    /// BOLA.
    Bola,
    /// FastMPC table lookup (shared process-wide table store).
    FastMpc,
    /// RobustMPC online solve.
    RobustMpc,
    /// Exact MPC online solve.
    Mpc,
}

impl Backend {
    /// Every backend, benchmark order: the table-lookup path first, then
    /// the online solvers, then the baselines.
    pub const ALL: [Backend; 8] = [
        Backend::FastMpc,
        Backend::RobustMpc,
        Backend::Mpc,
        Backend::Bb,
        Backend::Rb,
        Backend::Festive,
        Backend::DashJs,
        Backend::Bola,
    ];

    /// Wire token.
    pub fn token(self) -> &'static str {
        match self {
            Backend::Rb => "rb",
            Backend::Bb => "bb",
            Backend::Festive => "festive",
            Backend::DashJs => "dashjs",
            Backend::Bola => "bola",
            Backend::FastMpc => "fastmpc",
            Backend::RobustMpc => "robustmpc",
            Backend::Mpc => "mpc",
        }
    }

    /// Parses a wire token or paper display name, case-insensitively.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "rb" => Some(Backend::Rb),
            "bb" => Some(Backend::Bb),
            "festive" => Some(Backend::Festive),
            "dashjs" | "dash.js" => Some(Backend::DashJs),
            "bola" => Some(Backend::Bola),
            "fastmpc" => Some(Backend::FastMpc),
            "robustmpc" => Some(Backend::RobustMpc),
            "mpc" => Some(Backend::Mpc),
            _ => None,
        }
    }

    /// Whether this backend needs a FastMPC decision table.
    pub fn needs_table(self) -> bool {
        matches!(self, Backend::FastMpc)
    }

    /// Builds a fresh controller. FastMPC accepts a table from either tier
    /// of the [`abr_fastmpc::TableStore`] — hot (owned) or warm (mmap'd
    /// view) — since the two decide bit-identically.
    pub fn build(
        self,
        table: Option<&TableHandle>,
        weights: &QoeWeights,
        horizon: usize,
    ) -> Box<dyn BitrateController> {
        let mpc_cfg = |robust: bool| MpcConfig {
            horizon,
            weights: weights.clone(),
            robust,
            ..MpcConfig::paper_default()
        };
        match self {
            Backend::Rb => Box::new(RateBased::paper_default()),
            Backend::Bb => Box::new(BufferBased::paper_default()),
            Backend::Festive => Box::new(Festive::paper_default()),
            Backend::DashJs => Box::new(DashJs::paper_default()),
            Backend::Bola => Box::new(Bola::reference_default()),
            Backend::FastMpc => Box::new(FastMpc::from_handle(
                table.expect("FastMPC backend requires a decision table").clone(),
            )),
            Backend::RobustMpc => Box::new(Mpc::new(mpc_cfg(true))),
            Backend::Mpc => Box::new(Mpc::new(mpc_cfg(false))),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// Predictors the service can maintain server-side. All of these derive
/// their forecasts purely from observed chunk throughputs, which the
/// client reports — no oracle access needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorKind {
    /// Harmonic mean of the past 5 chunks (paper default).
    Harmonic,
    /// Arithmetic mean over a window.
    Sliding(usize),
    /// Exponentially weighted moving average.
    Ewma(f64),
    /// The last observed throughput.
    Last,
    /// Log-domain AR(1).
    Ar1(usize),
    /// Crowdsourced prior blended with a 5-chunk harmonic window.
    CrossSession {
        /// Prior throughput estimate, kbps.
        prior_kbps: f64,
        /// Pseudo-observation weight of the prior.
        weight: f64,
    },
}

impl PredictorKind {
    /// Wire encoding.
    pub fn encode(self) -> String {
        match self {
            PredictorKind::Harmonic => "harmonic".to_string(),
            PredictorKind::Sliding(w) => format!("sliding {w}"),
            PredictorKind::Ewma(a) => format!("ewma {a}"),
            PredictorKind::Last => "last".to_string(),
            PredictorKind::Ar1(w) => format!("ar1 {w}"),
            PredictorKind::CrossSession { prior_kbps, weight } => {
                format!("crowd {prior_kbps} {weight}")
            }
        }
    }

    /// Decodes the wire encoding. Oracle predictors are not representable,
    /// so a client can never register one.
    pub fn decode(v: &str) -> Result<Self, ProtoError> {
        let mut parts = v.split_whitespace();
        let num = |p: Option<&str>, what: &'static str| -> Result<f64, ProtoError> {
            p.ok_or(ProtoError::Missing(what))?
                .parse()
                .map_err(|_| ProtoError::Bad(what.to_string()))
        };
        match parts.next() {
            Some("harmonic") => Ok(PredictorKind::Harmonic),
            Some("sliding") => Ok(PredictorKind::Sliding(num(parts.next(), "sliding window")? as usize)),
            Some("ewma") => Ok(PredictorKind::Ewma(num(parts.next(), "ewma alpha")?)),
            Some("last") => Ok(PredictorKind::Last),
            Some("ar1") => Ok(PredictorKind::Ar1(num(parts.next(), "ar1 window")? as usize)),
            Some("crowd") => Ok(PredictorKind::CrossSession {
                prior_kbps: num(parts.next(), "crowd prior")?,
                weight: num(parts.next(), "crowd weight")?,
            }),
            other => Err(ProtoError::Unsupported(format!("predictor {other:?}"))),
        }
    }

    /// Refuses the parameters no predictor can be built with: a window
    /// below 1 (below 3 for AR(1)), an EWMA weight outside `(0, 1]`, a
    /// crowd prior that is not finite and positive, or a crowd weight that
    /// is not finite and non-negative.
    pub(crate) fn validate(self) -> Result<(), ProtoError> {
        let ok = match self {
            PredictorKind::Harmonic | PredictorKind::Last => true,
            PredictorKind::Sliding(window) => window >= 1,
            PredictorKind::Ewma(alpha) => alpha > 0.0 && alpha <= 1.0,
            PredictorKind::Ar1(window) => window >= 3,
            PredictorKind::CrossSession { prior_kbps, weight } => {
                prior_kbps > 0.0 && prior_kbps.is_finite() && weight >= 0.0 && weight.is_finite()
            }
        };
        if ok {
            Ok(())
        } else {
            Err(ProtoError::Bad(format!("predictor {}", self.encode())))
        }
    }

    /// This predictor with its window cut to `chunks`, all that a session
    /// of that many chunks can fill (it observes at most `chunks - 1`
    /// throughputs): it forecasts exactly as before, and a window the
    /// client sized allocates no more than the video.
    pub(crate) fn clamped(self, chunks: usize) -> Self {
        match self {
            PredictorKind::Sliding(window) => PredictorKind::Sliding(window.min(chunks)),
            PredictorKind::Ar1(window) => PredictorKind::Ar1(window.min(chunks.max(3))),
            other => other,
        }
    }

    /// Builds a fresh predictor.
    pub fn build(self) -> Box<dyn Predictor> {
        match self {
            PredictorKind::Harmonic => Box::new(HarmonicMean::paper_default()),
            PredictorKind::Sliding(w) => Box::new(SlidingMean::new(w)),
            PredictorKind::Ewma(alpha) => Box::new(Ewma::new(alpha)),
            PredictorKind::Last => Box::new(LastSample::new()),
            PredictorKind::Ar1(w) => Box::new(Ar1::new(w)),
            PredictorKind::CrossSession { prior_kbps, weight } => {
                Box::new(CrossSession::new(prior_kbps, weight, 5))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_video::envivio_video;
    use std::sync::Arc;

    #[test]
    fn tokens_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.token()), Some(b));
            assert_eq!(Backend::parse(&b.token().to_ascii_uppercase()), Some(b));
        }
        assert_eq!(Backend::parse("dash.js"), Some(Backend::DashJs));
        assert_eq!(Backend::parse("hal9000"), None);
    }

    #[test]
    fn predictor_kinds_round_trip() {
        for p in [
            PredictorKind::Harmonic,
            PredictorKind::Sliding(8),
            PredictorKind::Ewma(0.375),
            PredictorKind::Last,
            PredictorKind::Ar1(12),
            PredictorKind::CrossSession { prior_kbps: 1500.0, weight: 3.0 },
        ] {
            assert_eq!(PredictorKind::decode(&p.encode()).unwrap(), p);
        }
        assert!(PredictorKind::decode("oracle 0.1").is_err());
    }

    #[test]
    fn builds_match_registry_names() {
        let video = envivio_video();
        let weights = QoeWeights::balanced();
        let table = {
            let mut cfg =
                abr_fastmpc::TableConfig::with_levels(video.ladder().len(), 30.0);
            cfg.weights = weights.clone();
            TableHandle::Owned(Arc::new(abr_fastmpc::FastMpcTable::generate(
                &video, 30.0, cfg,
            )))
        };
        let expect = [
            (Backend::Rb, "RB"),
            (Backend::Bb, "BB"),
            (Backend::Festive, "FESTIVE"),
            (Backend::DashJs, "dash.js"),
            (Backend::Bola, "BOLA"),
            (Backend::FastMpc, "FastMPC"),
            (Backend::RobustMpc, "RobustMPC"),
            (Backend::Mpc, "MPC"),
        ];
        for (backend, name) in expect {
            let c = backend.build(Some(&table), &weights, 5);
            assert_eq!(c.name(), name);
        }
    }

    #[test]
    fn clamped_windows_forecast_as_before() {
        // A session of `chunks` chunks observes at most `chunks - 1`
        // throughputs; over those, a window cut to the video forecasts
        // bit for bit what the client's window does.
        for chunks in [1, 2, 3, 4, 9] {
            for kind in [
                PredictorKind::Sliding(2),
                PredictorKind::Sliding(500),
                PredictorKind::Ar1(3),
                PredictorKind::Ar1(500),
                PredictorKind::Ewma(0.5),
            ] {
                let mut wide = kind.build();
                let mut cut = kind.clamped(chunks).build();
                for k in 0..chunks - 1 {
                    let kbps = 400.0 + 350.0 * ((k * 7) % 5) as f64;
                    wide.observe(kbps);
                    cut.observe(kbps);
                    let (a, b) = (wide.predict(), cut.predict());
                    assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "{kind:?} at {k}");
                }
            }
        }
    }
}
