//! The one player core.
//!
//! [`SessionStepper`] is the only place a streaming session is accounted —
//! its docs list the paths that drive it and the accounting identities it
//! checks. [`run_session_core`] drives one stepper with one controller over
//! a [`ChunkDownloader`]: the simulator's [`TraceDownloader`] integrates
//! the trace; `abr-net`'s emulated and socket players fetch each chunk over
//! HTTP. Robust bounds, startup policy, live pacing and aborts are
//! therefore the same on every path, which is what makes the cross-path
//! parity tests meaningful.
//!
//! [`SessionScratch`] owns the per-session rings (low-buffer history,
//! predictor error window) and, combined with writing into a caller-owned
//! [`SessionResult`], lets grid drivers run thousands of sessions without
//! per-session allocations.

use crate::config::{SimConfig, StartupPolicy};
use crate::metrics::{ChunkRecord, SessionResult};
use abr_core::{advance_buffer, BitrateController, ControllerContext, Decision};
use abr_predictor::{ErrorTracked, Predictor};
use abr_trace::{Trace, TraceCursor};
use abr_video::{LevelIdx, QoeBreakdown, Video};
use std::collections::VecDeque;

/// Everything a [`ChunkDownloader`] reports about one chunk fetch. On the
/// fault-free path this is just [`DownloadOutcome::clean`]; a fault-injecting
/// downloader can additionally report retries, wasted bytes, delay lost to
/// failed attempts, a bitrate downshift (`delivered_level` below the
/// requested level), or a session abort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DownloadOutcome {
    /// Wall-clock seconds from the request until the chunk (or the abort)
    /// landed, including failed attempts and backoff waits.
    pub secs: f64,
    /// Ladder level actually delivered (== the requested level unless the
    /// downloader downshifted on a re-request).
    pub delivered_level: LevelIdx,
    /// Size of the delivered chunk, kilobits (0 when `aborted`).
    pub delivered_kbits: f64,
    /// Throughput of the *successful* attempt, kbps — what the predictor
    /// should observe (0 when `aborted`).
    pub throughput_kbps: f64,
    /// Re-requests before the chunk was delivered (or the abort).
    pub retries: u32,
    /// Kilobits received on failed attempts and thrown away.
    pub wasted_kbits: f64,
    /// Seconds of `secs` lost to failed attempts and backoff waits.
    pub fault_delay_secs: f64,
    /// The downloader gave up on this chunk; the session ends here.
    pub aborted: bool,
}

impl DownloadOutcome {
    /// A fault-free outcome: the requested chunk arrived in `secs`.
    pub fn clean(level: LevelIdx, size_kbits: f64, secs: f64) -> Self {
        Self {
            secs,
            delivered_level: level,
            delivered_kbits: size_kbits,
            throughput_kbps: size_kbits / secs,
            retries: 0,
            wasted_kbits: 0.0,
            fault_delay_secs: 0.0,
            aborted: false,
        }
    }
}

/// Produces the wall-clock seconds a chunk download takes. Implementations
/// are stateful: calls arrive in chunk order with non-decreasing
/// `start_secs`, so they may keep a [`TraceCursor`] (or a socket) warm.
pub trait ChunkDownloader {
    /// Seconds to fetch chunk `index` at `level` (`size_kbits` kilobits)
    /// starting at `start_secs`. Must be finite and positive.
    fn download_secs(
        &mut self,
        index: usize,
        level: LevelIdx,
        size_kbits: f64,
        start_secs: f64,
    ) -> f64;

    /// Full outcome of fetching chunk `index`. The default wraps
    /// [`download_secs`](Self::download_secs) in a clean outcome, so
    /// fault-free downloaders stay bit-identical to the pre-fault loop;
    /// fault-injecting downloaders override this instead.
    fn download_outcome(
        &mut self,
        index: usize,
        level: LevelIdx,
        size_kbits: f64,
        start_secs: f64,
    ) -> DownloadOutcome {
        DownloadOutcome::clean(
            level,
            size_kbits,
            self.download_secs(index, level, size_kbits, start_secs),
        )
    }
}

impl<D: ChunkDownloader + ?Sized> ChunkDownloader for &mut D {
    fn download_secs(
        &mut self,
        index: usize,
        level: LevelIdx,
        size_kbits: f64,
        start_secs: f64,
    ) -> f64 {
        (**self).download_secs(index, level, size_kbits, start_secs)
    }

    // Forwarded explicitly: falling back to the default would wrap
    // `download_secs` in a clean outcome and silently drop the inner
    // downloader's faults.
    fn download_outcome(
        &mut self,
        index: usize,
        level: LevelIdx,
        size_kbits: f64,
        start_secs: f64,
    ) -> DownloadOutcome {
        (**self).download_outcome(index, level, size_kbits, start_secs)
    }
}

/// The simulator's downloader: exact piecewise integration of the trace,
/// with a monotone cursor so each call resumes where the last one left off.
#[derive(Debug)]
pub struct TraceDownloader<'a> {
    trace: &'a Trace,
    cursor: TraceCursor,
}

impl<'a> TraceDownloader<'a> {
    /// Creates a downloader over `trace` with a fresh cursor.
    pub fn new(trace: &'a Trace) -> Self {
        Self {
            trace,
            cursor: TraceCursor::new(),
        }
    }
}

impl ChunkDownloader for TraceDownloader<'_> {
    fn download_secs(
        &mut self,
        _index: usize,
        _level: LevelIdx,
        size_kbits: f64,
        start_secs: f64,
    ) -> f64 {
        self.trace
            .time_to_download_at(&mut self.cursor, size_kbits, start_secs)
    }
}

/// Reusable per-session buffers. A grid worker keeps one `SessionScratch`
/// and threads it through every session it runs; after the first session
/// warms the capacities up, steady-state sessions allocate nothing (proven
/// by `tests/no_alloc.rs`).
#[derive(Debug, Default)]
pub struct SessionScratch {
    low_buffer_history: VecDeque<bool>,
    errors: VecDeque<f64>,
}

impl SessionScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs one streaming session: `controller` adapts `video` over `trace`
/// using `predictor` for throughput forecasts.
///
/// The controller is `reset()` at the start so sessions are independent;
/// the predictor is consumed (fresh per session by construction).
///
/// ```
/// use abr_predictor::HarmonicMean;
/// use abr_sim::{run_session, SimConfig};
/// use abr_trace::Trace;
/// use abr_video::envivio_video;
///
/// let video = envivio_video();
/// let trace = Trace::constant(1500.0, 60.0).unwrap();
/// let mut controller = abr_core::Mpc::robust();
/// let result = run_session(
///     &mut controller,
///     HarmonicMean::paper_default(),
///     &trace,
///     &video,
///     &SimConfig::paper_default(),
/// );
/// assert_eq!(result.records.len(), 65);
/// assert!(result.total_rebuffer_secs() < 1.0); // the link sustains 1000 kbps easily
/// ```
pub fn run_session<P: Predictor>(
    controller: &mut dyn BitrateController,
    predictor: P,
    trace: &Trace,
    video: &Video,
    cfg: &SimConfig,
) -> SessionResult {
    let mut scratch = SessionScratch::new();
    let mut out = SessionResult::default();
    run_session_with(&mut scratch, &mut out, controller, predictor, trace, video, cfg);
    out
}

/// [`run_session`] writing into caller-owned buffers: `scratch` and `out`
/// are cleared and refilled, retaining their allocations across sessions.
pub fn run_session_with<P: Predictor>(
    scratch: &mut SessionScratch,
    out: &mut SessionResult,
    controller: &mut dyn BitrateController,
    predictor: P,
    trace: &Trace,
    video: &Video,
    cfg: &SimConfig,
) {
    let mut downloader = TraceDownloader::new(trace);
    run_session_core(
        scratch,
        out,
        controller,
        predictor,
        &mut downloader,
        trace,
        video,
        cfg,
    );
}

/// The shared stepping loop behind both the simulator and the emulated
/// player. `trace` supplies the oracle hint (the true upcoming mean
/// throughput); `downloader` supplies per-chunk download times.
///
/// This is [`SessionStepper`] driven by one controller to completion;
/// drivers that interleave many sessions (`abr-serve`'s load generator and
/// its golden and differential tests) drive the stepper directly instead.
#[allow(clippy::too_many_arguments)]
pub fn run_session_core<P: Predictor, D: ChunkDownloader + ?Sized>(
    scratch: &mut SessionScratch,
    out: &mut SessionResult,
    controller: &mut dyn BitrateController,
    predictor: P,
    downloader: &mut D,
    trace: &Trace,
    video: &Video,
    cfg: &SimConfig,
) {
    controller.reset();
    let mut stepper = SessionStepper::start(scratch, out, predictor, downloader, trace, video, cfg);
    while !stepper.is_done() {
        let ctx = stepper.context();
        let decision = controller.decide(&ctx);
        let level = decision.level;
        assert!(
            level.get() < video.ladder().len(),
            "{} chose out-of-range level {level:?}",
            controller.name()
        );
        stepper.apply(decision);
    }
    stepper.finish(controller.name());
}

/// One chunk request, as [`SessionStepper::begin`] hands it to the driver
/// that fetches it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fetch {
    /// Chunk index `k`.
    pub index: usize,
    /// Ladder level the controller chose.
    pub level: LevelIdx,
    /// Size of chunk `index` at `level`, kilobits.
    pub size_kbits: f64,
    /// Session time at which the request goes out: the stepper's clock plus
    /// any live wait for the chunk to be encoded.
    pub not_before: f64,
}

/// One streaming session, unrolled into explicit steps so callers can
/// interleave many sessions: [`context`](Self::context) exposes the state
/// the controller sees for the next chunk, [`begin`](Self::begin) turns the
/// decision into a [`Fetch`], [`complete`](Self::complete) accounts its
/// [`DownloadOutcome`], [`finish`](Self::finish) writes the epilogue.
///
/// This is the only place a session is accounted — buffer dynamics
/// (Eqs. 1–4), the QoE of Eq. 5, startup, RobustMPC's error-discounted
/// bound, live pacing and catch-up, aborts and the chunk records. Its
/// drivers differ only in who fetches the chunk:
///
/// - [`apply`](Self::apply) is `begin` + the stepper's own
///   [`ChunkDownloader`] + `complete`. [`run_session_core`] is this driven
///   by one controller (the simulator, the emulated HTTP path and the
///   socket player); `abr-serve`'s load generator calls `context`/`apply`
///   per session per round, which is bit-identical to running the sessions
///   back to back.
/// - A driver that owns time, such as `abr-net`'s shared-link engine, holds
///   a stepper with no downloader (`D = ()`), sets each decision's time
///   with [`set_clock`](Self::set_clock), fetches the chunk itself, and
///   schedules its next request from the buffer-full wait `complete`
///   returns.
///
/// Protocol per chunk: `context()` (any number of times — the oracle hint
/// is applied once and the one forecast cached), then `begin(decision)` and
/// `complete(outcome)`, or `apply(decision)`. None of these may be called
/// once [`is_done`](Self::is_done) returns true. The caller validates the
/// decision's level (out of range panics inside `begin` on the chunk-size
/// lookup, without the controller name `run_session_core` includes).
///
/// # Accounting identities
///
/// Checked with `debug_assert!`, so every debug-mode run checks them:
///
/// - After every fetched chunk, `0 ≤ B ≤ B_cap`, where `B_cap` is the
///   effective cap (`B_max`, clamped by the live cap in live mode).
/// - When the session ends, with `t₀` the clock of the first request, `K`
///   the number of fetched (non-skipped) chunks and `B_end` the last
///   fetched record's `buffer_after_secs`:
///
///   `total_secs − t₀ = S + Σ rebuffer_secs + K·L − B_end + abort_secs`
///
///   Each chunk advances the clock by its availability wait, download and
///   buffer-full wait, which is `B_k − B_{k+1} + L + rebuffer_k`; the sum
///   telescopes. `S` is the initial buffer credit: the startup delay under
///   `FirstChunk` (chunk 0's stall is booked as startup, not rebuffering),
///   `min(T_s, B_cap)` under `Fixed` and `Controller`. Skipped live chunks
///   take no time and leave the buffer alone. An abort adds the time the
///   abandoned chunk burned: `abort_secs` plus its availability wait. An
///   abort at chunk 0 fetched nothing, so the clock has moved by exactly
///   that time: under `FirstChunk` it is the startup delay `S`, otherwise
///   the abort term.
#[derive(Debug)]
pub struct SessionStepper<'a, P: Predictor, D> {
    scratch: &'a mut SessionScratch,
    out: &'a mut SessionResult,
    predictor: ErrorTracked<P>,
    downloader: D,
    trace: &'a Trace,
    video: &'a Video,
    cfg: &'a SimConfig,
    qoe: QoeBreakdown,
    hint_cursor: TraceCursor,
    k: usize,
    now: f64,       // wall clock
    buffer: f64,    // B_k
    prev_level: Option<LevelIdx>,
    startup_secs: f64,
    last_throughput: Option<f64>,
    // True once this chunk's oracle hint has been applied and the
    // prediction cached; reset by `begin` so repeated `context()` calls
    // within one chunk are idempotent.
    hinted: bool,
    prediction: Option<f64>,
    robust_lower: Option<f64>,
    // True between `begin` and `complete`.
    in_flight: bool,
    aborted: bool,
}

impl<'a, P: Predictor, D> SessionStepper<'a, P, D> {
    /// Begins a session: clears `scratch`/`out` (retaining capacity) and
    /// wraps `predictor` in error tracking. Does **not** reset the
    /// controller — the caller owns it (a batch driver shares one
    /// controller across many steppers). `trace` feeds the oracle hint;
    /// `downloader` serves [`apply`](Self::apply) and is `()` for drivers
    /// that fetch chunks themselves.
    pub fn start(
        scratch: &'a mut SessionScratch,
        out: &'a mut SessionResult,
        predictor: P,
        downloader: D,
        trace: &'a Trace,
        video: &'a Video,
        cfg: &'a SimConfig,
    ) -> Self {
        assert!(
            cfg.buffer_max_secs >= video.chunk_secs(),
            "buffer must hold at least one chunk"
        );
        if let Some(live) = &cfg.live {
            assert!(
                live.max_buffer_secs >= video.chunk_secs(),
                "live buffer cap must hold at least one chunk"
            );
        }
        let predictor = ErrorTracked::with_buffer(
            predictor,
            cfg.error_window,
            std::mem::take(&mut scratch.errors),
        );
        out.records.clear();
        out.records.reserve(video.num_chunks());
        out.aborted = false;
        out.abort_secs = 0.0;
        out.abort_retries = 0;
        out.abort_wasted_kbits = 0.0;
        scratch.low_buffer_history.clear();
        Self {
            scratch,
            out,
            predictor,
            downloader,
            trace,
            video,
            cfg,
            qoe: QoeBreakdown::default(),
            hint_cursor: TraceCursor::new(),
            k: 0,
            now: 0.0,
            buffer: 0.0,
            prev_level: None,
            startup_secs: 0.0,
            last_throughput: None,
            hinted: false,
            prediction: None,
            robust_lower: None,
            in_flight: false,
            aborted: false,
        }
    }

    /// True once every chunk has played out (or the downloader aborted).
    pub fn is_done(&self) -> bool {
        self.aborted || self.k >= self.video.num_chunks()
    }

    /// Sets the session clock. A driver that owns time calls this before
    /// each chunk's [`context`](Self::context) with the instant the decision
    /// is made; drivers that let the stepper keep time never call it.
    pub fn set_clock(&mut self, now: f64) {
        assert!(!self.in_flight, "set_clock() with a fetch in flight");
        self.now = now;
    }

    /// The buffer cap in effect: `B_max`, additionally clamped by the live
    /// schedule's `max_buffer_secs` in live mode. This is the cap both the
    /// buffer dynamics and the controller context use, so baselines that
    /// steer on `buffer_max_secs` adapt to the live cap automatically.
    fn effective_buffer_max(&self) -> f64 {
        match &self.cfg.live {
            Some(live) => self.cfg.buffer_max_secs.min(live.max_buffer_secs),
            None => self.cfg.buffer_max_secs,
        }
    }

    /// Live catch-up: while the playhead has fallen `>= max(cap, join
    /// latency) + 2L` behind the live edge (a stall pushed it back — the
    /// buffer alone can never put it there, and a DVR join starts behind
    /// the edge *by construction*, so the baseline is part of the floor),
    /// skip chunks instead of fetching them. Each skip jumps the playhead
    /// one chunk toward the edge (latency drops by exactly `L`), records a
    /// skipped [`ChunkRecord`], and consumes no wall-clock time. The last
    /// chunk is never skipped so every session still ends.
    fn live_catch_up(&mut self) {
        let Some(live) = self.cfg.live else { return };
        let l = self.video.chunk_secs();
        let join_latency = live.latency_secs(0.0, 0, 0.0, l);
        let threshold = self.effective_buffer_max().max(join_latency) + 2.0 * l;
        while self.k + 1 < self.video.num_chunks() {
            let latency = live.latency_secs(self.now, self.k, self.buffer, l);
            if latency < threshold {
                break;
            }
            self.out.records.push(ChunkRecord {
                index: self.k,
                level: self.prev_level.unwrap_or(LevelIdx(0)),
                bitrate_kbps: 0.0,
                size_kbits: 0.0,
                start_secs: self.now,
                download_secs: 0.0,
                rebuffer_secs: 0.0,
                wait_secs: 0.0,
                availability_wait_secs: 0.0,
                buffer_before_secs: self.buffer,
                buffer_after_secs: self.buffer,
                throughput_kbps: 0.0,
                prediction_kbps: None,
                retries: 0,
                wasted_kbits: 0.0,
                fault_delay_secs: 0.0,
                skipped: true,
                latency_secs: latency,
            });
            self.k += 1;
        }
    }

    /// Index of the chunk the next [`context`](Self::context)/
    /// [`begin`](Self::begin) pair concerns.
    pub fn chunk_index(&self) -> usize {
        self.k
    }

    /// The controller's view of the session for the current chunk. The
    /// first call per chunk feeds an oracle predictor its hint and takes
    /// the chunk's one forecast, from which the robust bound is derived;
    /// further calls return the same context.
    pub fn context(&mut self) -> ControllerContext<'a> {
        assert!(!self.is_done(), "context() on a finished session");
        self.live_catch_up();
        if !self.hinted {
            // Oracle predictors get the true mean upcoming throughput; no
            // other predictor reads it, so only theirs is integrated.
            if self.predictor.wants_hint() {
                let horizon_end =
                    self.now + self.cfg.hint_horizon_secs.max(self.video.chunk_secs());
                let truth = self
                    .trace
                    .integrate_kbits_at(&mut self.hint_cursor, self.now, horizon_end)
                    / (horizon_end - self.now);
                if truth > 0.0 {
                    self.predictor.hint_future(truth);
                }
            }
            self.prediction = self.predictor.predict();
            self.robust_lower = match self.cfg.robust_bound {
                crate::config::RobustBound::MaxError => {
                    self.predictor.robust_lower_bound(self.prediction)
                }
                crate::config::RobustBound::MeanError => self
                    .prediction
                    .map(|p| p / (1.0 + self.predictor.mean_error())),
            };
            self.hinted = true;
        }
        ControllerContext {
            chunk_index: self.k,
            buffer_secs: self.buffer,
            prev_level: self.prev_level,
            prediction_kbps: self.prediction,
            robust_lower_kbps: self.robust_lower,
            last_throughput_kbps: self.last_throughput,
            recent_low_buffer: self.scratch.low_buffer_history.iter().any(|&b| b),
            startup: self.k == 0,
            video: self.video,
            buffer_max_secs: self.effective_buffer_max(),
            live: self
                .cfg
                .live
                .map(|l| l.state(self.now, self.k, self.buffer, self.video.chunk_secs())),
        }
    }

    /// Turns the controller's decision for the current chunk into the
    /// request to fetch: applies the startup policy at chunk 0 and the live
    /// availability wait. Follow it with [`complete`](Self::complete).
    pub fn begin(&mut self, decision: Decision) -> Fetch {
        assert!(self.hinted, "begin() without a matching context()");
        assert!(!self.in_flight, "begin() with a fetch in flight");
        self.hinted = false;
        let k = self.k;
        let level = decision.level;

        // Startup: establish T_s and the equivalent initial buffer credit.
        if k == 0 {
            match self.cfg.startup {
                StartupPolicy::FirstChunk => {} // handled after the download
                StartupPolicy::Fixed(ts) => {
                    assert!(ts >= 0.0, "negative fixed startup delay");
                    self.startup_secs = ts;
                    self.buffer = ts.min(self.effective_buffer_max());
                }
                StartupPolicy::Controller => {
                    let ts = decision.startup_wait_secs.unwrap_or(0.0);
                    self.startup_secs = ts;
                    self.buffer = ts.min(self.effective_buffer_max());
                }
            }
        }
        self.in_flight = true;
        Fetch {
            index: k,
            level,
            size_kbits: self.video.chunk_size_kbits(k, level),
            not_before: self.now + self.availability_wait(),
        }
    }

    /// Live mode: the current chunk may not exist yet — the wait for the
    /// encoder. The buffer keeps draining through it, exactly like a slow
    /// download.
    fn availability_wait(&self) -> f64 {
        match self.cfg.live {
            Some(live) => (live.available_at(self.k, self.video.chunk_secs()) - self.now).max(0.0),
            None => 0.0,
        }
    }

    /// Accounts the outcome of the fetch [`begin`](Self::begin) issued and
    /// advances buffer, QoE and clock to the next chunk. Returns the
    /// buffer-full wait before the next request may go out (0 after an
    /// abort, which ends the session).
    pub fn complete(&mut self, outcome: DownloadOutcome) -> f64 {
        assert!(self.in_flight, "complete() without a matching begin()");
        self.in_flight = false;
        let k = self.k;
        let availability_wait = self.availability_wait();
        let dl_start = self.now + availability_wait;
        if outcome.aborted {
            // Retry budget exhausted: the chunk never arrived. The time
            // burned failing drains the buffer like a slow download — past
            // the buffer it is rebuffering (or startup delay for chunk 0) —
            // and the session ends here.
            let elapsed = availability_wait + outcome.secs;
            let startup = k == 0 && matches!(self.cfg.startup, StartupPolicy::FirstChunk);
            if startup {
                self.startup_secs = elapsed;
            } else {
                self.qoe
                    .push_rebuffer(&self.cfg.weights, (elapsed - self.buffer).max(0.0));
            }
            self.now += elapsed;
            debug_assert!(
                self.keeps_time_identity(if startup { 0.0 } else { elapsed }),
                "session clock {} is off its accounting identity after an abort",
                self.now
            );
            self.out.aborted = true;
            self.out.abort_secs = outcome.secs;
            self.out.abort_retries = outcome.retries;
            self.out.abort_wasted_kbits = outcome.wasted_kbits;
            self.aborted = true;
            return 0.0;
        }
        let download_secs = outcome.secs;
        assert!(
            download_secs.is_finite() && download_secs > 0.0,
            "download of chunk {k} never completes at t={dl_start}"
        );
        let throughput = outcome.throughput_kbps;
        let cap = self.effective_buffer_max();

        let mut step = advance_buffer(
            self.buffer,
            availability_wait + download_secs,
            self.video.chunk_secs(),
            cap,
        );
        debug_assert!(
            (0.0..=cap * (1.0 + 1e-12)).contains(&step.next_buffer_secs),
            "buffer {} outside [0, {cap}] after chunk {k}",
            step.next_buffer_secs
        );
        // Latency when this chunk lands: the latency at the decision plus
        // however long the playhead was frozen getting it (the raw stall,
        // before any startup re-accounting — startup freezes the playhead
        // too). Computed only in live mode so VOD stays bit-identical.
        let live_latency = self.cfg.live.map(|live| {
            live.latency_secs(self.now, k, self.buffer, self.video.chunk_secs())
                + step.rebuffer_secs
        });
        if k == 0 && matches!(self.cfg.startup, StartupPolicy::FirstChunk) {
            // Playback starts when this chunk lands: the time to get it is
            // the startup delay, not a rebuffer.
            self.startup_secs = availability_wait + download_secs;
            step.rebuffer_secs = 0.0;
        }

        self.qoe.push_chunk(
            &self.cfg.weights,
            self.video.ladder().kbps(outcome.delivered_level),
            step.rebuffer_secs,
        );
        if let Some(latency) = live_latency {
            self.qoe.push_latency(&self.cfg.weights, latency);
        }
        self.out.records.push(ChunkRecord {
            index: k,
            level: outcome.delivered_level,
            bitrate_kbps: self.video.ladder().kbps(outcome.delivered_level),
            size_kbits: outcome.delivered_kbits,
            start_secs: dl_start,
            download_secs,
            rebuffer_secs: step.rebuffer_secs,
            wait_secs: step.wait_secs,
            availability_wait_secs: availability_wait,
            buffer_before_secs: self.buffer,
            buffer_after_secs: step.next_buffer_secs,
            throughput_kbps: throughput,
            prediction_kbps: self.prediction,
            retries: outcome.retries,
            wasted_kbits: outcome.wasted_kbits,
            fault_delay_secs: outcome.fault_delay_secs,
            skipped: false,
            latency_secs: live_latency.unwrap_or(0.0),
        });

        // Bookkeeping for the next iteration.
        if self.scratch.low_buffer_history.len() == self.cfg.low_buffer_window_chunks {
            self.scratch.low_buffer_history.pop_front();
        }
        self.scratch
            .low_buffer_history
            .push_back(self.buffer < self.cfg.low_buffer_threshold_secs);
        // Score the forecast this chunk was decided on.
        self.predictor.observe_scored(throughput, self.prediction);
        self.last_throughput = Some(throughput);
        self.now += availability_wait + download_secs + step.wait_secs;
        self.buffer = step.next_buffer_secs;
        self.prev_level = Some(outcome.delivered_level);
        self.k += 1;
        step.wait_secs
    }

    /// Whether the clock agrees, up to rounding, with the time identity in
    /// the type's docs; `abort` is the time an abort burned past the
    /// startup delay. A session that fetched nothing has nothing to check.
    fn keeps_time_identity(&self, abort: f64) -> bool {
        let Some(first) = self.out.records.first() else {
            return true;
        };
        let t0 = first.start_secs - first.availability_wait_secs;
        let credit = match self.cfg.startup {
            StartupPolicy::FirstChunk => self.startup_secs,
            StartupPolicy::Fixed(_) | StartupPolicy::Controller => {
                self.startup_secs.min(self.effective_buffer_max())
            }
        };
        let mut fetched = self.out.records.iter().filter(|r| !r.skipped);
        let chunks = fetched.clone().count() as f64;
        let rebuffer: f64 = fetched.clone().map(|r| r.rebuffer_secs).sum();
        let b_end = fetched.next_back().map_or(0.0, |r| r.buffer_after_secs);
        let expected = credit + rebuffer + chunks * self.video.chunk_secs() - b_end + abort;
        ((self.now - t0) - expected).abs() <= 1e-9 * (1.0 + self.now.abs())
    }

    /// Writes the session epilogue (startup QoE term, algorithm name,
    /// totals) into `out` and hands the predictor's error ring back to the
    /// scratch for the next session.
    pub fn finish(self, algorithm: &str) {
        debug_assert!(
            self.aborted || self.keeps_time_identity(0.0),
            "{algorithm}: session clock {} is off its accounting identity",
            self.now
        );
        let mut qoe = self.qoe;
        qoe.set_startup(&self.cfg.weights, self.startup_secs);
        self.out.algorithm.clear();
        self.out.algorithm.push_str(algorithm);
        self.out.startup_secs = self.startup_secs;
        self.out.total_secs = self.now;
        self.out.qoe = qoe;
        // Hand the predictor's error ring back for the next session.
        self.scratch.errors = self.predictor.into_parts().1;
    }
}

impl<P: Predictor, D: ChunkDownloader> SessionStepper<'_, P, D> {
    /// Plays out the decided download for the current chunk with the
    /// stepper's own downloader: [`begin`](Self::begin), the download,
    /// [`complete`](Self::complete).
    pub fn apply(&mut self, decision: Decision) {
        let fetch = self.begin(decision);
        let outcome = self.downloader.download_outcome(
            fetch.index,
            fetch.level,
            fetch.size_kbits,
            fetch.not_before,
        );
        self.complete(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_baselines::{BufferBased, DashJs, Festive, RateBased};
    use abr_core::{Decision, Mpc, MpcConfig};
    use abr_predictor::{HarmonicMean, NoisyOracle};
    use abr_trace::Dataset;
    use abr_video::{envivio_video, LevelIdx, LiveSchedule, QoeWeights};
    use abr_par::check;

    fn cfg() -> SimConfig {
        SimConfig::paper_default()
    }

    /// A controller that always requests the same level.
    struct Fixed(LevelIdx);
    impl BitrateController for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn decide(&mut self, _ctx: &ControllerContext<'_>) -> Decision {
            Decision::level(self.0)
        }
    }

    #[test]
    fn constant_trace_matches_analytic_math() {
        // 1000 kbps link, fixed 1000 kbps level: every chunk downloads in
        // exactly L seconds, so after startup the buffer stays at L and
        // there is never a rebuffer.
        let v = envivio_video();
        let t = Trace::constant(1000.0, 60.0).unwrap();
        let mut c = Fixed(LevelIdx(2));
        let r = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &cfg());
        assert_eq!(r.records.len(), 65);
        assert!((r.startup_secs - 4.0).abs() < 1e-9, "{}", r.startup_secs);
        assert!(r.total_rebuffer_secs() < 1e-9);
        for rec in &r.records {
            assert!((rec.download_secs - 4.0).abs() < 1e-9);
            assert!((rec.throughput_kbps - 1000.0).abs() < 1e-9);
        }
        // Buffer holds at exactly one chunk after each download.
        assert!((r.records[5].buffer_after_secs - 4.0).abs() < 1e-9);
        // QoE = 65 chunks * 1000 - startup penalty.
        let expect = 65.0 * 1000.0 - 3000.0 * 4.0;
        assert!((r.qoe.qoe - expect).abs() < 1e-6, "{}", r.qoe.qoe);
    }

    #[test]
    fn fast_link_fills_buffer_and_waits() {
        // 10 Mbps link, lowest level: downloads are much faster than
        // playback, so the buffer parks at Bmax and the player idles.
        let v = envivio_video();
        let t = Trace::constant(10_000.0, 60.0).unwrap();
        let mut c = Fixed(LevelIdx(0));
        let r = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &cfg());
        assert!(r.total_rebuffer_secs() < 1e-9);
        let max_buf = r
            .records
            .iter()
            .map(|x| x.buffer_after_secs)
            .fold(0.0, f64::max);
        assert!(max_buf <= 30.0 + 1e-9);
        assert!((max_buf - 30.0).abs() < 1e-6, "buffer should reach Bmax");
        assert!(r.records.iter().map(|x| x.wait_secs).sum::<f64>() > 0.0);
    }

    #[test]
    fn slow_link_high_level_rebuffers() {
        // 500 kbps link, fixed top level (3000 kbps): rebuffer every chunk.
        let v = envivio_video();
        let t = Trace::constant(500.0, 60.0).unwrap();
        let mut c = Fixed(LevelIdx(4));
        let r = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &cfg());
        // Each chunk takes 24 s to download but yields 4 s of video.
        assert!(r.total_rebuffer_secs() > 100.0);
        assert!(r.qoe.qoe < 0.0, "QoE should collapse: {}", r.qoe.qoe);
    }

    #[test]
    fn fixed_startup_gives_buffer_credit() {
        let v = envivio_video();
        let t = Trace::constant(1000.0, 60.0).unwrap();
        let mut c = Fixed(LevelIdx(2));
        let mut config = cfg();
        config.startup = StartupPolicy::Fixed(6.0);
        let r = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &config);
        assert_eq!(r.startup_secs, 6.0);
        // First chunk: 4 s download against 6 s credit -> no rebuffer.
        assert_eq!(r.records[0].rebuffer_secs, 0.0);
        assert!((r.records[0].buffer_before_secs - 6.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_startup_shortfall_is_rebuffering() {
        let v = envivio_video();
        let t = Trace::constant(1000.0, 60.0).unwrap();
        let mut c = Fixed(LevelIdx(4)); // 12 s first download
        let mut config = cfg();
        config.startup = StartupPolicy::Fixed(2.0);
        let r = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &config);
        assert!((r.records[0].rebuffer_secs - 10.0).abs() < 1e-9);
    }

    #[test]
    fn controller_startup_policy_uses_fst_mpc() {
        let v = envivio_video();
        let t = Trace::constant(600.0, 400.0).unwrap();
        let mut mpc = Mpc::new(MpcConfig {
            optimize_startup: true,
            weights: QoeWeights {
                mu_s: 10.0, // cheap startup: waiting is worthwhile
                ..QoeWeights::balanced()
            },
            ..MpcConfig::paper_default()
        });
        let mut config = cfg();
        config.startup = StartupPolicy::Controller;
        config.weights = QoeWeights {
            mu_s: 10.0,
            ..QoeWeights::balanced()
        };
        let r = run_session(&mut mpc, HarmonicMean::paper_default(), &t, &v, &config);
        assert!(r.startup_secs > 0.0);
    }

    #[test]
    fn all_algorithms_complete_all_datasets() {
        let v = envivio_video();
        let config = cfg();
        for ds in Dataset::ALL {
            for trace in ds.generate(99, 3) {
                let mut algos: Vec<Box<dyn BitrateController>> = vec![
                    Box::new(RateBased::paper_default()),
                    Box::new(BufferBased::paper_default()),
                    Box::new(Festive::paper_default()),
                    Box::new(DashJs::paper_default()),
                    Box::new(Mpc::paper_default()),
                    Box::new(Mpc::robust()),
                ];
                for a in &mut algos {
                    let r = run_session(
                        a.as_mut(),
                        HarmonicMean::paper_default(),
                        &trace,
                        &v,
                        &config,
                    );
                    assert_eq!(r.records.len(), 65);
                    assert!(r.total_secs > 0.0);
                    assert!(r.qoe.qoe.is_finite());
                    // Buffer invariant throughout.
                    for rec in &r.records {
                        assert!(rec.buffer_after_secs >= -1e-9);
                        assert!(rec.buffer_after_secs <= 30.0 + 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_hint_drives_perfect_predictions() {
        let v = envivio_video();
        let t = Trace::constant(1500.0, 60.0).unwrap();
        let mut c = Fixed(LevelIdx(1));
        let r = run_session(&mut c, NoisyOracle::perfect(), &t, &v, &cfg());
        // Constant trace: hints equal measured throughput, so error is 0.
        let err = r.mean_prediction_error().unwrap();
        assert!(err < 1e-9, "error {err}");
        assert!(r.records[0].prediction_kbps.is_some());
    }

    #[test]
    fn harmonic_mean_has_no_prediction_for_first_chunk() {
        let v = envivio_video();
        let t = Trace::constant(1500.0, 60.0).unwrap();
        let mut c = Fixed(LevelIdx(0));
        let r = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &cfg());
        assert_eq!(r.records[0].prediction_kbps, None);
        assert!(r.records[1].prediction_kbps.is_some());
    }

    #[test]
    fn wall_clock_is_downloads_plus_waits() {
        let v = envivio_video();
        let t = Trace::constant(2000.0, 60.0).unwrap();
        let mut c = Fixed(LevelIdx(2));
        let r = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &cfg());
        let sum: f64 = r
            .records
            .iter()
            .map(|x| x.download_secs + x.wait_secs)
            .sum();
        assert!((r.total_secs - sum).abs() < 1e-9);
    }

    #[test]
    fn mean_error_bound_is_less_conservative() {
        // On a volatile trace, the mean-error bound sits above the
        // max-error bound, so RobustMPC(mean) streams at least as high on
        // average as RobustMPC(max).
        let v = envivio_video();
        let t = Trace::new(vec![
            (20.0, 2500.0),
            (10.0, 700.0),
            (20.0, 2500.0),
            (10.0, 500.0),
        ])
        .unwrap();
        let mut cfg_max = cfg();
        cfg_max.robust_bound = crate::config::RobustBound::MaxError;
        let mut cfg_mean = cfg();
        cfg_mean.robust_bound = crate::config::RobustBound::MeanError;
        let mut a = Mpc::robust();
        let r_max = run_session(&mut a, HarmonicMean::paper_default(), &t, &v, &cfg_max);
        let mut b = Mpc::robust();
        let r_mean = run_session(&mut b, HarmonicMean::paper_default(), &t, &v, &cfg_mean);
        assert!(
            r_mean.avg_bitrate_kbps() >= r_max.avg_bitrate_kbps() - 1e-9,
            "mean {} vs max {}",
            r_mean.avg_bitrate_kbps(),
            r_max.avg_bitrate_kbps()
        );
    }

    #[test]
    fn mpc_beats_fixed_top_level_on_volatile_trace() {
        // Sanity: adaptation must beat the naive "always max" policy when
        // the link cannot sustain the max.
        let v = envivio_video();
        let t = Trace::new(vec![(30.0, 2500.0), (30.0, 600.0)]).unwrap();
        let mut top = Fixed(LevelIdx(4));
        let r_top = run_session(&mut top, HarmonicMean::paper_default(), &t, &v, &cfg());
        let mut mpc = Mpc::robust();
        let r_mpc = run_session(&mut mpc, HarmonicMean::paper_default(), &t, &v, &cfg());
        assert!(
            r_mpc.qoe.qoe > r_top.qoe.qoe,
            "MPC {} vs fixed-top {}",
            r_mpc.qoe.qoe,
            r_top.qoe.qoe
        );
    }

    #[test]
    fn vod_sessions_never_wait_for_availability() {
        let v = envivio_video();
        let t = Trace::constant(2000.0, 60.0).unwrap();
        let mut c = Fixed(LevelIdx(1));
        let r = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &cfg());
        assert!(r.records.iter().all(|x| x.availability_wait_secs == 0.0));
    }

    #[test]
    fn live_mode_paces_at_the_encoder() {
        // Infinite-feeling bandwidth, 8 s behind live: downloads are nearly
        // instant, so the player is gated by chunk availability — exactly
        // one chunk per L seconds — and the buffer parks near the offset.
        let v = envivio_video();
        let t = Trace::constant(100_000.0, 60.0).unwrap();
        let mut c = Fixed(LevelIdx(2));
        let mut config = cfg();
        // Joined 8 s behind the edge: chunk k releases at (k+1)·4 − 8,
        // i.e. encode_delay = −4 in wall-schedule terms.
        config.live = Some(LiveSchedule {
            encode_delay_secs: -4.0,
            max_buffer_secs: 30.0,
        });
        let r = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &config);
        assert!(r.total_rebuffer_secs() < 1e-6);
        // Mid-session: every chunk waits ~L for the encoder.
        for rec in &r.records[3..60] {
            assert!(
                rec.availability_wait_secs > 3.0,
                "chunk {} waited only {}",
                rec.index,
                rec.availability_wait_secs
            );
            // The buffer can never exceed what the encoder has produced.
            assert!(
                rec.buffer_after_secs <= 8.0 + 4.0 + 1e-6,
                "buffer {} outran the live edge",
                rec.buffer_after_secs
            );
        }
        // Wall clock ~ when the last chunk is encoded: 65*4 - 8 = 252 s.
        assert!(r.total_secs >= 251.9, "{}", r.total_secs);
    }

    #[test]
    fn live_mode_small_offset_rebuffers_on_dips() {
        // 4 s behind live with a mid-stream dip: the player cannot build a
        // protective buffer (the encoder hasn't produced it), so the dip
        // hits playback directly.
        let v = envivio_video();
        let t = Trace::new(vec![(60.0, 3000.0), (20.0, 400.0), (120.0, 3000.0)]).unwrap();
        let mut live_cfg = cfg();
        // Joined right at the edge: chunk k releases at k·4 exactly.
        live_cfg.live = Some(LiveSchedule {
            encode_delay_secs: 0.0,
            max_buffer_secs: 30.0,
        });
        let mut c1 = Fixed(LevelIdx(2));
        let live = run_session(&mut c1, HarmonicMean::paper_default(), &t, &v, &live_cfg);
        let mut c2 = Fixed(LevelIdx(2));
        let vod = run_session(&mut c2, HarmonicMean::paper_default(), &t, &v, &cfg());
        assert!(
            live.total_rebuffer_secs() > vod.total_rebuffer_secs(),
            "live {} should rebuffer more than VOD {}",
            live.total_rebuffer_secs(),
            vod.total_rebuffer_secs()
        );
        assert!(live.total_rebuffer_secs() > 1.0);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_sessions() {
        // One SessionScratch/SessionResult pair threaded through a mixed bag
        // of sessions must reproduce exactly what fresh-allocation runs
        // produce, byte for byte.
        let v = envivio_video();
        let traces = [
            Trace::constant(1200.0, 60.0).unwrap(),
            Trace::new(vec![(20.0, 2500.0), (10.0, 700.0), (15.0, 0.0), (20.0, 1800.0)]).unwrap(),
            Trace::new(vec![(30.0, 600.0), (30.0, 3000.0)]).unwrap(),
        ];
        let mut scratch = SessionScratch::new();
        let mut out = SessionResult::default();
        for trace in &traces {
            for bound in [
                crate::config::RobustBound::MaxError,
                crate::config::RobustBound::MeanError,
            ] {
                let mut config = cfg();
                config.robust_bound = bound;
                let mut a = Mpc::robust();
                let fresh =
                    run_session(&mut a, HarmonicMean::paper_default(), trace, &v, &config);
                let mut b = Mpc::robust();
                run_session_with(
                    &mut scratch,
                    &mut out,
                    &mut b,
                    HarmonicMean::paper_default(),
                    trace,
                    &v,
                    &config,
                );
                assert_eq!(fresh, out);
                assert_eq!(
                    fresh.qoe.qoe.to_bits(),
                    out.qoe.qoe.to_bits(),
                    "reused-scratch QoE drifted"
                );
                for (x, y) in fresh.records.iter().zip(&out.records) {
                    assert_eq!(x.download_secs.to_bits(), y.download_secs.to_bits());
                    assert_eq!(x.buffer_after_secs.to_bits(), y.buffer_after_secs.to_bits());
                }
            }
        }
    }

    #[test]
    fn stepper_lockstep_interleaving_is_bit_identical() {
        // Sessions advanced chunk-by-chunk in lockstep through one shared
        // controller (one `decide` per session per tick) must equal the same
        // sessions run back to back — the equivalence the load generator
        // relies on.
        let v = envivio_video();
        let config = cfg();
        let traces = [
            Trace::constant(1200.0, 60.0).unwrap(),
            Trace::new(vec![(20.0, 2500.0), (10.0, 700.0), (20.0, 1800.0)]).unwrap(),
            Trace::new(vec![(30.0, 600.0), (30.0, 3000.0)]).unwrap(),
        ];
        let sequential: Vec<SessionResult> = traces
            .iter()
            .map(|t| {
                let mut c = Mpc::robust();
                run_session(&mut c, HarmonicMean::paper_default(), t, &v, &config)
            })
            .collect();

        let mut shared = Mpc::robust();
        shared.reset();
        let mut scratches: Vec<SessionScratch> =
            traces.iter().map(|_| SessionScratch::new()).collect();
        let mut outs: Vec<SessionResult> =
            traces.iter().map(|_| SessionResult::default()).collect();
        {
            let mut steppers: Vec<_> = scratches
                .iter_mut()
                .zip(outs.iter_mut())
                .zip(traces.iter())
                .map(|((scratch, out), t)| {
                    SessionStepper::start(
                        scratch,
                        out,
                        HarmonicMean::paper_default(),
                        TraceDownloader::new(t),
                        t,
                        &v,
                        &config,
                    )
                })
                .collect();
            while steppers.iter().any(|s| !s.is_done()) {
                for s in steppers.iter_mut().filter(|s| !s.is_done()) {
                    let d = shared.decide(&s.context());
                    assert!(d.level.get() < v.ladder().len());
                    s.apply(d);
                }
            }
            let name = shared.name();
            for s in steppers {
                s.finish(name);
            }
        }
        for (seq, lock) in sequential.iter().zip(&outs) {
            assert_eq!(seq, lock);
            assert_eq!(
                seq.qoe.qoe.to_bits(),
                lock.qoe.qoe.to_bits(),
                "lockstep QoE drifted"
            );
            for (x, y) in seq.records.iter().zip(&lock.records) {
                assert_eq!(x.download_secs.to_bits(), y.download_secs.to_bits());
                assert_eq!(x.buffer_after_secs.to_bits(), y.buffer_after_secs.to_bits());
            }
        }
    }

    #[test]
    fn stepper_context_is_idempotent_within_a_chunk() {
        // Repeated context() calls before apply() must return the same
        // view — the oracle hint is applied once per chunk, not per call.
        let v = envivio_video();
        let t = Trace::new(vec![(20.0, 2500.0), (10.0, 700.0), (20.0, 1800.0)]).unwrap();
        let config = cfg();
        let mut c = Fixed(LevelIdx(2));
        let reference = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &config);

        let mut scratch = SessionScratch::new();
        let mut out = SessionResult::default();
        let mut stepper = SessionStepper::start(
            &mut scratch,
            &mut out,
            HarmonicMean::paper_default(),
            TraceDownloader::new(&t),
            &t,
            &v,
            &config,
        );
        while !stepper.is_done() {
            let first = stepper.context();
            let second = stepper.context();
            assert_eq!(first.chunk_index, second.chunk_index);
            assert_eq!(
                first.prediction_kbps.map(f64::to_bits),
                second.prediction_kbps.map(f64::to_bits)
            );
            assert_eq!(
                first.robust_lower_kbps.map(f64::to_bits),
                second.robust_lower_kbps.map(f64::to_bits)
            );
            assert_eq!(first.chunk_index, stepper.chunk_index());
            stepper.apply(Decision::level(LevelIdx(2)));
        }
        stepper.finish("fixed");
        assert_eq!(reference, out);
    }

    /// Wraps [`TraceDownloader`] but reports a fault-laden abort at one
    /// chosen chunk index — the sim-side stand-in for a hostile network.
    struct AbortAt<'a> {
        inner: TraceDownloader<'a>,
        at: usize,
        abort_secs: f64,
    }
    impl ChunkDownloader for AbortAt<'_> {
        fn download_secs(
            &mut self,
            index: usize,
            level: LevelIdx,
            size_kbits: f64,
            start_secs: f64,
        ) -> f64 {
            self.inner.download_secs(index, level, size_kbits, start_secs)
        }
        fn download_outcome(
            &mut self,
            index: usize,
            level: LevelIdx,
            size_kbits: f64,
            start_secs: f64,
        ) -> DownloadOutcome {
            if index == self.at {
                DownloadOutcome {
                    secs: self.abort_secs,
                    delivered_level: level,
                    delivered_kbits: 0.0,
                    throughput_kbps: 0.0,
                    retries: 3,
                    wasted_kbits: 42.0,
                    fault_delay_secs: self.abort_secs,
                    aborted: true,
                }
            } else {
                DownloadOutcome::clean(
                    level,
                    size_kbits,
                    self.download_secs(index, level, size_kbits, start_secs),
                )
            }
        }
    }

    #[test]
    fn abort_truncates_session_with_rebuffer_accounting() {
        let v = envivio_video();
        let t = Trace::constant(1000.0, 60.0).unwrap();
        let config = cfg();
        // Plain run, to learn the buffer level going into chunk 5.
        let mut c = Fixed(LevelIdx(2));
        let plain = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &config);
        let buffer_before = plain.records[5].buffer_before_secs;

        let abort_secs = 12.5;
        let mut downloader = AbortAt {
            inner: TraceDownloader::new(&t),
            at: 5,
            abort_secs,
        };
        let mut scratch = SessionScratch::new();
        let mut out = SessionResult::default();
        let mut c2 = Fixed(LevelIdx(2));
        run_session_core(
            &mut scratch,
            &mut out,
            &mut c2,
            HarmonicMean::paper_default(),
            &mut downloader,
            &t,
            &v,
            &config,
        );
        assert_eq!(out.records.len(), 5, "session stops at the aborted chunk");
        assert!(out.aborted);
        assert_eq!(out.abort_secs, abort_secs);
        assert_eq!(out.abort_retries, 3);
        assert_eq!(out.abort_wasted_kbits, 42.0);
        assert_eq!(out.total_retries(), 3);
        // The first 5 chunks are untouched by the abort.
        for (a, b) in out.records.iter().zip(&plain.records) {
            assert_eq!(a, b);
        }
        // Rebuffer: the failed 12.5 s drained the buffer, the rest stalled
        // playback. One extra rebuffer event, charged at mu + mu_event.
        let expect_rebuf = (abort_secs - buffer_before).max(0.0);
        assert!(expect_rebuf > 0.0, "test should exercise a real stall");
        let plain5: f64 = plain.records[..5].iter().map(|r| r.rebuffer_secs).sum();
        assert!(
            (out.qoe.total_rebuffer_secs - (plain5 + expect_rebuf)).abs() < 1e-9,
            "rebuffer {} vs expected {}",
            out.qoe.total_rebuffer_secs,
            plain5 + expect_rebuf
        );
        assert!(out.qoe.qoe.is_finite());
        // An aborted *first* chunk under FirstChunk startup is startup
        // delay, not rebuffering.
        let mut first = AbortAt {
            inner: TraceDownloader::new(&t),
            at: 0,
            abort_secs,
        };
        let mut c3 = Fixed(LevelIdx(2));
        run_session_core(
            &mut scratch,
            &mut out,
            &mut c3,
            HarmonicMean::paper_default(),
            &mut first,
            &t,
            &v,
            &config,
        );
        assert!(out.aborted);
        assert!(out.records.is_empty());
        assert_eq!(out.startup_secs, abort_secs);
        assert_eq!(out.qoe.total_rebuffer_secs, 0.0);
    }

    #[test]
    fn live_cap_limits_buffer_and_context() {
        // A 6 s live cap on a fast link: the buffer parks at the cap, never
        // at the 30 s VOD Bmax, and latency settles near L + buffer.
        let v = envivio_video();
        let t = Trace::constant(20_000.0, 60.0).unwrap();
        let mut config = cfg();
        config.live = Some(LiveSchedule {
            encode_delay_secs: -20.0, // deep DVR window: availability never gates
            max_buffer_secs: 6.0,
        });
        let mut c = Fixed(LevelIdx(1));
        let r = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &config);
        assert!(r.total_rebuffer_secs() < 1e-6);
        let max_buf = r
            .records
            .iter()
            .map(|x| x.buffer_after_secs)
            .fold(0.0, f64::max);
        assert!(max_buf <= 6.0 + 1e-9, "cap violated: {max_buf}");
        assert!((max_buf - 6.0).abs() < 1e-6, "buffer should park at the cap");
        // Every fetched chunk carries a latency sample.
        assert!(r.records.iter().all(|x| x.latency_secs > 0.0));
        assert!(r.mean_latency_secs().is_some());
        assert_eq!(r.skipped_chunks(), 0);
    }

    #[test]
    fn live_stall_triggers_catch_up_skips() {
        // A long mid-stream outage at the live edge: latency blows past
        // cap + 2L, so the player skips chunks to catch back up. Skips are
        // recorded, consume no wall-clock time, and drop latency by L each.
        let v = envivio_video();
        let t = Trace::new(vec![(40.0, 3000.0), (30.0, 1.0), (300.0, 3000.0)]).unwrap();
        let mut config = cfg();
        config.live = Some(LiveSchedule {
            encode_delay_secs: 0.0,
            max_buffer_secs: 8.0,
        });
        let mut c = Fixed(LevelIdx(0));
        let r = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &config);
        let skips = r.skipped_chunks();
        assert!(skips > 0, "the outage should force catch-up skips");
        // Indices still cover each chunk exactly once, in order.
        for (i, rec) in r.records.iter().enumerate() {
            assert_eq!(rec.index, i);
        }
        // Skipped records are pure markers.
        for rec in r.records.iter().filter(|x| x.skipped) {
            assert_eq!(rec.download_secs, 0.0);
            assert_eq!(rec.size_kbits, 0.0);
            assert_eq!(rec.rebuffer_secs, 0.0);
        }
        // After catch-up the session returns below the skip threshold.
        let last = r.records.last().unwrap();
        assert!(!last.skipped);
        assert!(last.latency_secs < 8.0 + 2.0 * 4.0);
        // The QoE total reflects the latency accounting.
        assert!(r.qoe.total_latency_secs > 0.0);
    }

    #[test]
    fn vod_qoe_ignores_latency_fields() {
        // VOD sessions never call push_latency: total_latency_secs stays 0
        // even with a non-zero w_lat configured.
        let v = envivio_video();
        let t = Trace::constant(1500.0, 60.0).unwrap();
        let mut config = cfg();
        config.weights.w_lat = 100.0;
        let mut c = Fixed(LevelIdx(1));
        let r = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &config);
        assert_eq!(r.qoe.total_latency_secs, 0.0);
        assert_eq!(r.mean_latency_secs(), None);
        let mut plain_cfg = cfg();
        plain_cfg.weights.w_lat = 0.0;
        let mut c2 = Fixed(LevelIdx(1));
        let plain = run_session(&mut c2, HarmonicMean::paper_default(), &t, &v, &plain_cfg);
        assert_eq!(r.qoe.qoe.to_bits(), plain.qoe.qoe.to_bits());
    }

    #[test]
    fn live_mpc_holds_lower_latency_than_buffer_based_weighting() {
        // Smoke the full live MPC path end to end: RobustMPC with a latency
        // weight completes a live session near the edge and records finite
        // latency for every chunk.
        let v = envivio_video();
        let t = Trace::new(vec![(30.0, 2500.0), (20.0, 900.0), (60.0, 2500.0)]).unwrap();
        let mut config = cfg();
        config.live = Some(LiveSchedule {
            encode_delay_secs: 1.0,
            max_buffer_secs: 8.0,
        });
        config.weights.w_lat = 50.0;
        let mut mpc = Mpc::robust();
        let r = run_session(&mut mpc, HarmonicMean::paper_default(), &t, &v, &config);
        assert_eq!(
            r.records.len(),
            65,
            "live session must account every chunk (fetched or skipped)"
        );
        assert!(r.qoe.qoe.is_finite());
        assert!(r.records.iter().all(|x| x.latency_secs.is_finite()));
        assert!(r.qoe.total_latency_secs > 0.0);
    }

    /// Live skip accounting conserves playhead monotonicity: across any
    /// live session the playhead at each record never moves backward,
    /// chunk indices cover 0..n exactly once, and latency samples are
    /// non-negative.
    #[test]
    fn live_playhead_monotone_across_skips() {
        check(24, |rng| {
            let delay = rng.range(-8.0..8.0);
            let cap = rng.range(4.0..16.0);
            let rates = rng.vec(3..7, |r| r.range(1.0..4000.0));
            let v = envivio_video();
            let segments: Vec<(f64, f64)> = rates.iter().map(|&r| (25.0, r)).collect();
            let t = Trace::new(segments).unwrap();
            let mut config = cfg();
            config.live = Some(LiveSchedule {
                encode_delay_secs: delay,
                max_buffer_secs: cap,
            });
            config.weights.w_lat = 10.0;
            let mut c = Mpc::robust();
            let r = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &config);
            let mut prev_playhead = f64::NEG_INFINITY;
            for (i, rec) in r.records.iter().enumerate() {
                assert_eq!(rec.index, i, "indices must cover every chunk in order");
                let playhead = rec.index as f64 * v.chunk_secs() - rec.buffer_before_secs;
                assert!(
                    playhead >= prev_playhead - 1e-9,
                    "playhead moved backward at chunk {}: {} -> {}",
                    i, prev_playhead, playhead
                );
                prev_playhead = playhead;
                assert!(rec.latency_secs >= -1e-9);
                assert!(rec.buffer_after_secs <= cap.min(30.0) + 1e-9);
                if rec.skipped {
                    assert_eq!(rec.download_secs, 0.0);
                    assert_eq!(rec.throughput_kbps, 0.0);
                }
            }
        });
    }

    #[test]
    fn per_chunk_throughput_consistent_with_trace() {
        let v = envivio_video();
        let t = Trace::new(vec![(20.0, 800.0), (20.0, 3000.0)]).unwrap();
        let mut c = Fixed(LevelIdx(1));
        let r = run_session(&mut c, HarmonicMean::paper_default(), &t, &v, &cfg());
        for rec in &r.records {
            let integrated =
                t.integrate_kbits(rec.start_secs, rec.start_secs + rec.download_secs);
            assert!(
                (integrated - rec.size_kbits).abs() < 1e-6 * rec.size_kbits.max(1.0),
                "chunk {} downloaded {} kbits but trace delivered {integrated}",
                rec.index,
                rec.size_kbits
            );
        }
    }
}
