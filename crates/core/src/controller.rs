//! The bitrate-controller interface — Eq. (12) of the paper:
//! `R_k = f(B_k, {Ĉ_t, t > t_k}, {R_i, i < k})`.
//!
//! Every adaptation algorithm in the workspace (MPC, RobustMPC, FastMPC,
//! RB, BB, FESTIVE, the dash.js rules) implements [`BitrateController`].
//! The driver (simulator or network-emulation player) owns the throughput
//! predictor and hands each decision a [`ControllerContext`] snapshot; the
//! controller returns a [`Decision`]. Controllers that need history beyond
//! the context (e.g. FESTIVE's switch counting) keep it internally and clear
//! it in [`BitrateController::reset`].

use abr_video::{LevelIdx, LiveState, Video};

/// Everything a controller may look at when choosing the bitrate of chunk
/// `k` (the design space of Figure 4: buffer occupancy, throughput
/// prediction, past decisions).
#[derive(Debug, Clone, Copy)]
pub struct ControllerContext<'a> {
    /// Index `k` of the chunk about to be requested (0-based).
    pub chunk_index: usize,
    /// Current buffer occupancy `B_k` in seconds.
    pub buffer_secs: f64,
    /// The previous chunk's level `R_{k-1}`, `None` for the first chunk.
    pub prev_level: Option<LevelIdx>,
    /// Throughput prediction `Ĉ` in kbps (`None` before any observation).
    pub prediction_kbps: Option<f64>,
    /// RobustMPC's throughput lower bound `Ĉ/(1+err)` in kbps, when the
    /// driver tracks prediction errors.
    pub robust_lower_kbps: Option<f64>,
    /// Average measured throughput of the previous chunk download in kbps
    /// (used by the dash.js download-ratio rule).
    pub last_throughput_kbps: Option<f64>,
    /// Whether the buffer dipped below the panic threshold recently (used by
    /// the dash.js insufficient-buffer rule; maintained by the driver).
    pub recent_low_buffer: bool,
    /// Whether playback has not started yet (startup phase of Algorithm 1).
    pub startup: bool,
    /// The video being streamed.
    pub video: &'a Video,
    /// Buffer capacity `B_max` in seconds. In live mode the driver
    /// presents the *effective* cap, `min(B_max, max_buffer_live)`.
    pub buffer_max_secs: f64,
    /// Live-session state (chunk availability and live-edge latency) when
    /// the driver runs a [`abr_video::LiveSchedule`]; `None` for VOD.
    pub live: Option<LiveState>,
}

impl<'a> ControllerContext<'a> {
    /// Prediction with a conservative fallback: before the first observation
    /// (no prediction available) algorithms universally start from the
    /// lowest level, which we encode as a prediction equal to the lowest
    /// bitrate.
    pub fn prediction_or_floor(&self) -> f64 {
        self.prediction_kbps
            .unwrap_or_else(|| self.video.ladder().min_kbps())
    }

    /// Robust lower bound, falling back to the plain prediction and then to
    /// the ladder floor.
    pub fn robust_or_prediction(&self) -> f64 {
        self.robust_lower_kbps
            .unwrap_or_else(|| self.prediction_or_floor())
    }
}

/// A controller's output for one chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Ladder level to request for this chunk.
    pub level: LevelIdx,
    /// During the startup phase a controller may also choose the startup
    /// delay `T_s` (seconds before playback begins, counted from the session
    /// start). `None` leaves the driver's startup policy in effect.
    pub startup_wait_secs: Option<f64>,
}

impl Decision {
    /// A plain bitrate decision with no startup directive.
    pub fn level(level: LevelIdx) -> Self {
        Self {
            level,
            startup_wait_secs: None,
        }
    }
}

/// A bitrate-adaptation algorithm.
pub trait BitrateController: Send {
    /// Short display name used in experiment tables ("RobustMPC", "BB", …).
    fn name(&self) -> &'static str;

    /// Chooses the level for the chunk described by `ctx`.
    fn decide(&mut self, ctx: &ControllerContext<'_>) -> Decision;

    /// Decides each context in turn, writing one [`Decision`] per context
    /// into `out` positionally: exactly `ctxs.map(|c| decide(c))`.
    ///
    /// Nothing in the workspace overrides or calls this outside tests; it
    /// stays only because the benchmark crate (`perfbench`) forwards it, and
    /// goes with the benchmark's next change.
    fn decide_batch(&mut self, ctxs: &[ControllerContext<'_>], out: &mut Vec<Decision>) {
        out.clear();
        out.reserve(ctxs.len());
        for ctx in ctxs {
            out.push(self.decide(ctx));
        }
    }

    /// Clears internal history so the controller can start a fresh session.
    fn reset(&mut self) {}
}

impl<T: BitrateController + ?Sized> BitrateController for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn decide(&mut self, ctx: &ControllerContext<'_>) -> Decision {
        (**self).decide(ctx)
    }

    fn reset(&mut self) {
        (**self).reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_video::envivio_video;

    struct Fixed(LevelIdx);

    impl BitrateController for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn decide(&mut self, _ctx: &ControllerContext<'_>) -> Decision {
            Decision::level(self.0)
        }
    }

    fn ctx(video: &Video) -> ControllerContext<'_> {
        ControllerContext {
            chunk_index: 0,
            buffer_secs: 0.0,
            prev_level: None,
            prediction_kbps: None,
            robust_lower_kbps: None,
            last_throughput_kbps: None,
            recent_low_buffer: false,
            startup: true,
            video,
            buffer_max_secs: 30.0,
            live: None,
        }
    }

    #[test]
    fn fallbacks_use_ladder_floor() {
        let v = envivio_video();
        let c = ctx(&v);
        assert_eq!(c.prediction_or_floor(), 350.0);
        assert_eq!(c.robust_or_prediction(), 350.0);
    }

    #[test]
    fn fallback_chain_prefers_robust_bound() {
        let v = envivio_video();
        let mut c = ctx(&v);
        c.prediction_kbps = Some(2000.0);
        assert_eq!(c.robust_or_prediction(), 2000.0);
        c.robust_lower_kbps = Some(1500.0);
        assert_eq!(c.robust_or_prediction(), 1500.0);
        assert_eq!(c.prediction_or_floor(), 2000.0);
    }

    #[test]
    fn boxed_controller_delegates() {
        let v = envivio_video();
        let mut b: Box<dyn BitrateController> = Box::new(Fixed(LevelIdx(3)));
        assert_eq!(b.name(), "fixed");
        assert_eq!(b.decide(&ctx(&v)).level, LevelIdx(3));
        b.reset();
    }

    #[test]
    fn default_decide_batch_equals_mapped_decide() {
        let v = envivio_video();
        let contexts: Vec<ControllerContext<'_>> = (0..7)
            .map(|i| ControllerContext {
                chunk_index: i,
                buffer_secs: i as f64,
                ..ctx(&v)
            })
            .collect();
        let mut a = Fixed(LevelIdx(2));
        let mut batched = Vec::new();
        a.decide_batch(&contexts, &mut batched);
        let mut b = Fixed(LevelIdx(2));
        let scalar: Vec<Decision> = contexts.iter().map(|c| b.decide(c)).collect();
        assert_eq!(batched, scalar);
        // `out` is cleared and refilled, not appended to.
        a.decide_batch(&contexts[..2], &mut batched);
        assert_eq!(batched.len(), 2);
    }
}
