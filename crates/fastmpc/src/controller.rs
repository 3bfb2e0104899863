//! The online FastMPC controller: a table lookup per decision.

use crate::store::TableHandle;
use crate::table::FastMpcTable;
use abr_core::{BitrateController, ControllerContext, Decision};
use std::sync::Arc;

/// FastMPC bitrate controller — wraps a pre-generated decision table.
///
/// The table is shared via a [`TableHandle`], mirroring deployment: one
/// table artifact serves every player session, whether it lives in memory
/// (hot tier) or is mmap'd zero-copy from disk (warm tier — the tiers
/// decide identically, bit for bit). The optional robust mode feeds the
/// lookup the RobustMPC throughput lower bound instead of the raw
/// prediction — because RobustMPC *is* regular MPC on the lower bound
/// (Theorem 1), the same table serves both.
#[derive(Debug, Clone)]
pub struct FastMpc {
    table: TableHandle,
    robust: bool,
    name: &'static str,
}

impl FastMpc {
    /// FastMPC with the raw throughput prediction (name "FastMPC").
    pub fn new(table: Arc<FastMpcTable>) -> Self {
        Self::from_handle(TableHandle::Owned(table))
    }

    /// FastMPC driven by the robust lower bound (name "RobustFastMPC").
    pub fn robust(table: Arc<FastMpcTable>) -> Self {
        Self::robust_handle(TableHandle::Owned(table))
    }

    /// [`new`](Self::new) over a handle from either tier of a
    /// [`TableStore`](crate::TableStore).
    pub fn from_handle(table: TableHandle) -> Self {
        Self {
            table,
            robust: false,
            name: "FastMPC",
        }
    }

    /// [`robust`](Self::robust) over a handle from either tier.
    pub fn robust_handle(table: TableHandle) -> Self {
        Self {
            table,
            robust: true,
            name: "RobustFastMPC",
        }
    }

    /// Overrides the display name.
    pub fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// The underlying table handle.
    pub fn handle(&self) -> &TableHandle {
        &self.table
    }
}

impl BitrateController for FastMpc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn decide(&mut self, ctx: &ControllerContext<'_>) -> Decision {
        debug_assert_eq!(
            self.table.config().buffer_bins.hi, ctx.buffer_max_secs,
            "table generated for a different buffer capacity"
        );
        let throughput = if self.robust {
            ctx.robust_or_prediction()
        } else {
            ctx.prediction_or_floor()
        };
        let prev = ctx
            .prev_level
            .unwrap_or_else(|| ctx.video.ladder().lowest());
        if let Some(live) = &ctx.live {
            // Live session: pick the slice enumerated for the
            // availability-truncated horizon. The table approximates the
            // live solver by its truncated-horizon VOD optimum (no in-plan
            // latency term) — the latency penalty still lands in the
            // session QoE accounting.
            let h_eff = abr_core::mpc::live_effective_horizon(
                self.table.config().horizon,
                ctx.video.chunk_secs(),
                live.release_in_secs,
                ctx.buffer_secs,
            );
            return Decision::level(self.table.lookup_live(ctx.buffer_secs, prev, throughput, h_eff));
        }
        Decision::level(self.table.lookup(ctx.buffer_secs, prev, throughput))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableConfig;
    use abr_predictor::HarmonicMean;
    use abr_sim::{run_session, SimConfig};
    use abr_trace::{Dataset, Trace};
    use abr_video::{envivio_video, LevelIdx};

    fn table(levels: usize) -> Arc<FastMpcTable> {
        let video = envivio_video();
        Arc::new(FastMpcTable::generate(
            &video,
            30.0,
            TableConfig::with_levels(levels, 30.0),
        ))
    }

    #[test]
    fn completes_sessions_on_every_dataset() {
        let video = envivio_video();
        let t = table(20);
        for ds in Dataset::ALL {
            for trace in ds.generate(5, 2) {
                let mut c = FastMpc::new(t.clone());
                let r = run_session(
                    &mut c,
                    HarmonicMean::paper_default(),
                    &trace,
                    &video,
                    &SimConfig::paper_default(),
                );
                assert_eq!(r.records.len(), 65);
                assert!(r.qoe.qoe.is_finite());
            }
        }
    }

    #[test]
    fn tracks_exact_mpc_closely_with_fine_bins() {
        // Figure 12a's premise: with enough discretization levels FastMPC
        // approaches exact MPC. On a benign trace their session QoE should
        // be near-identical with 100+ bins.
        let video = envivio_video();
        let trace = Trace::new(vec![(30.0, 2200.0), (30.0, 1100.0), (30.0, 1800.0)]).unwrap();
        let cfg = SimConfig::paper_default();
        let mut exact = abr_core::Mpc::paper_default();
        let exact_r = run_session(
            &mut exact,
            HarmonicMean::paper_default(),
            &trace,
            &video,
            &cfg,
        );
        let mut fast = FastMpc::new(table(100));
        let fast_r = run_session(
            &mut fast,
            HarmonicMean::paper_default(),
            &trace,
            &video,
            &cfg,
        );
        // Figure 12a: FastMPC at 100 levels reaches ~90 % of the exact
        // optimizer's QoE — bin-boundary quantization costs the rest.
        let gap = (exact_r.qoe.qoe - fast_r.qoe.qoe).abs() / exact_r.qoe.qoe.abs();
        assert!(
            gap < 0.15,
            "FastMPC(100) {} vs exact {} (gap {gap})",
            fast_r.qoe.qoe,
            exact_r.qoe.qoe
        );
    }

    #[test]
    fn coarser_tables_do_no_better() {
        // Also Figure 12a: 5 bins should not beat 100 bins (averaged over
        // a few traces to avoid single-trace luck).
        let video = envivio_video();
        let cfg = SimConfig::paper_default();
        let coarse_t = table(5);
        let fine_t = table(100);
        let mut coarse_total = 0.0;
        let mut fine_total = 0.0;
        for trace in Dataset::Fcc.generate(21, 8) {
            let mut coarse = FastMpc::new(coarse_t.clone());
            coarse_total += run_session(
                &mut coarse,
                HarmonicMean::paper_default(),
                &trace,
                &video,
                &cfg,
            )
            .qoe
            .qoe;
            let mut fine = FastMpc::new(fine_t.clone());
            fine_total += run_session(
                &mut fine,
                HarmonicMean::paper_default(),
                &trace,
                &video,
                &cfg,
            )
            .qoe
            .qoe;
        }
        assert!(
            fine_total >= coarse_total,
            "fine {fine_total} vs coarse {coarse_total}"
        );
    }

    #[test]
    fn robust_variant_never_more_aggressive() {
        let video = envivio_video();
        let t = table(30);
        let ctx = |lower: Option<f64>| abr_core::ControllerContext {
            chunk_index: 5,
            buffer_secs: 10.0,
            prev_level: Some(LevelIdx(2)),
            prediction_kbps: Some(2500.0),
            robust_lower_kbps: lower,
            last_throughput_kbps: None,
            recent_low_buffer: false,
            startup: false,
            video: &video,
            buffer_max_secs: 30.0,
            live: None,
        };
        let mut plain = FastMpc::new(t.clone());
        let mut robust = FastMpc::robust(t);
        let a = plain.decide(&ctx(Some(900.0))).level;
        let b = robust.decide(&ctx(Some(900.0))).level;
        assert!(b <= a, "robust {b:?} vs plain {a:?}");
    }

    #[test]
    fn names() {
        let t = table(5);
        assert_eq!(FastMpc::new(t.clone()).name(), "FastMPC");
        assert_eq!(FastMpc::robust(t.clone()).name(), "RobustFastMPC");
        assert_eq!(FastMpc::new(t).named("X").name(), "X");
    }
}
