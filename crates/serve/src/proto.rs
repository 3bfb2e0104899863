//! The wire protocol of the decision service.
//!
//! Three POST endpoints, all carrying plain-text bodies of `key value`
//! lines (one per line, `\n`-separated):
//!
//! * `POST /session` — register a session. The body carries the backend,
//!   predictor, MPC horizon, the session-accounting knobs of
//!   [`abr_sim::SimConfig`], the QoE weights, and — after a line reading
//!   just `manifest` — the video as a DASH MPD document. Response body:
//!   `sid <id>`.
//! * `POST /decision` — request the bitrate for one chunk. The client
//!   reports its chunk index, current buffer level and (for every chunk
//!   after the first) the level, measured throughput and download time of
//!   the chunk that just finished. Response body: `level <idx>` plus an
//!   optional `startup_wait <secs>` line.
//! * `POST /close` — retire a session (`sid <id>`).
//!
//! All floats are encoded with Rust's shortest round-trip-exact `f64`
//! formatting and decoded with `str::parse`, so every value crosses the
//! wire bit-for-bit — the foundation of the remote-vs-in-process
//! differential guarantee.

use crate::backend::{Backend, PredictorKind};
use abr_core::ControllerContext;
use abr_fastmpc::{TableConfig, TableHandle, TableStore};
use abr_net::mpd::{self, MpdError};
use abr_sim::{RobustBound, SimConfig};
use abr_video::{LiveSchedule, QoeWeights, QualityFn, Video};
use std::borrow::Cow;
use std::sync::Arc;

/// The largest MPC search a session may register, in plans per decision:
/// 5 levels at horizon 9, the largest search the paper evaluates (Figure
/// 12b's horizons 2-9). A decision runs on an event-loop thread, so a
/// larger search would stall every connection that loop serves.
const MAX_SEARCH_PLANS: u64 = 5u64.pow(9);

/// Errors decoding a protocol body.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// A required key was missing.
    Missing(&'static str),
    /// A value failed to parse.
    Bad(String),
    /// The manifest failed to parse.
    Manifest(String),
    /// A feature the wire format cannot express.
    Unsupported(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Missing(k) => write!(f, "missing field {k}"),
            ProtoError::Bad(what) => write!(f, "bad field: {what}"),
            ProtoError::Manifest(what) => write!(f, "bad manifest: {what}"),
            ProtoError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Everything `POST /session` registers.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Decision backend (controller family).
    pub backend: Backend,
    /// Throughput predictor maintained server-side.
    pub predictor: PredictorKind,
    /// MPC look-ahead horizon, chunks.
    pub horizon: usize,
    /// Buffer capacity `B_max`, seconds.
    pub buffer_max_secs: f64,
    /// Robust lower-bound statistic.
    pub robust_bound: RobustBound,
    /// Prediction-error tracking window, chunks.
    pub error_window: usize,
    /// Low-buffer flag threshold, seconds.
    pub low_buffer_threshold_secs: f64,
    /// Low-buffer history window, chunks.
    pub low_buffer_window_chunks: usize,
    /// QoE weights (drive the MPC objective and the FastMPC table).
    pub weights: QoeWeights,
    /// Shared-bottleneck group this session declares itself part of;
    /// sessions with the same id are jointly allocated by the server's
    /// fairness coordinator. `None` opts out of coordination entirely.
    pub bottleneck: Option<String>,
    /// Live availability schedule; `None` registers a VOD session. A live
    /// session crosses the wire as `mode live` plus the schedule's two
    /// knobs, and its decision requests must carry the wall clock (`now`).
    pub live: Option<LiveSchedule>,
    /// The video, registered via its manifest. Sessions registered with
    /// the same manifest share one copy.
    pub video: Arc<Video>,
}

impl SessionSpec {
    /// A spec with the paper's session-accounting defaults for `backend`
    /// over `video`.
    pub fn paper_default(backend: Backend, video: Video) -> Self {
        let sim = SimConfig::paper_default();
        Self {
            backend,
            predictor: PredictorKind::Harmonic,
            horizon: 5,
            buffer_max_secs: sim.buffer_max_secs,
            robust_bound: sim.robust_bound,
            error_window: sim.error_window,
            low_buffer_threshold_secs: sim.low_buffer_threshold_secs,
            low_buffer_window_chunks: sim.low_buffer_window_chunks,
            weights: sim.weights,
            bottleneck: None,
            live: None,
            video: Arc::new(video),
        }
    }

    /// The [`SimConfig`] an in-process twin must run with to match this
    /// session decision-for-decision (first-chunk startup; live when the
    /// spec is live).
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            buffer_max_secs: self.buffer_max_secs,
            live: self.live,
            weights: self.weights.clone(),
            error_window: self.error_window,
            robust_bound: self.robust_bound,
            low_buffer_threshold_secs: self.low_buffer_threshold_secs,
            low_buffer_window_chunks: self.low_buffer_window_chunks,
            ..SimConfig::paper_default()
        }
    }

    /// The buffer cap the controller sees: `B_max`, clamped by the live
    /// schedule's cap for a live session — `run_session_core`'s effective
    /// cap.
    pub(crate) fn effective_buffer_max_secs(&self) -> f64 {
        match &self.live {
            Some(live) => self.buffer_max_secs.min(live.max_buffer_secs),
            None => self.buffer_max_secs,
        }
    }

    /// The FastMPC table this session decides from, fetched from (or
    /// generated once into) `tables`; `None` for a backend without one.
    /// The table is enumerated at the effective buffer cap with the spec's
    /// QoE weights, and a live session's table also holds the
    /// availability-truncated horizon slices its lookups select. The
    /// server and every in-process twin take their table from here.
    pub fn table(&self, tables: &TableStore) -> Option<TableHandle> {
        if !self.backend.needs_table() {
            return None;
        }
        let cfg = self.table_config();
        Some(tables.ensure(&self.video, self.effective_buffer_max_secs(), &cfg))
    }

    fn table_config(&self) -> TableConfig {
        let cap = self.effective_buffer_max_secs();
        let mut cfg = TableConfig::with_levels(self.video.ladder().len(), cap);
        cfg.weights = self.weights.clone();
        if self.live.is_some() {
            let slices = cfg.horizon;
            cfg = cfg.live_slices(slices);
        }
        cfg
    }

    /// The horizon this session's MPC searches over, clipped to the video
    /// as the solver clips it (FastMPC's table searches at the table's
    /// horizon, which no buffer field changes); `None` for the backends
    /// that do not search.
    fn search_horizon(&self) -> Option<usize> {
        let horizon = match self.backend {
            Backend::Mpc | Backend::RobustMpc => self.horizon,
            Backend::FastMpc => TableConfig::HORIZON,
            _ => return None,
        };
        Some(horizon.min(self.video.num_chunks()))
    }

    /// Encodes the registration body.
    pub fn encode(&self) -> String {
        let w = &self.weights;
        let mut out = String::with_capacity(4096);
        out.push_str(&format!("backend {}\n", self.backend.token()));
        out.push_str(&format!("predictor {}\n", self.predictor.encode()));
        out.push_str(&format!("horizon {}\n", self.horizon));
        out.push_str(&format!("buffer_max {}\n", self.buffer_max_secs));
        out.push_str(&format!(
            "robust_bound {}\n",
            match self.robust_bound {
                RobustBound::MaxError => "max",
                RobustBound::MeanError => "mean",
            }
        ));
        out.push_str(&format!("error_window {}\n", self.error_window));
        out.push_str(&format!(
            "low_buffer_threshold {}\n",
            self.low_buffer_threshold_secs
        ));
        out.push_str(&format!(
            "low_buffer_window {}\n",
            self.low_buffer_window_chunks
        ));
        out.push_str(&format!("lambda {}\n", w.lambda));
        out.push_str(&format!("mu {}\n", w.mu));
        out.push_str(&format!("mu_s {}\n", w.mu_s));
        out.push_str(&format!("mu_event {}\n", w.mu_event));
        // Latency only matters to live sessions; omitting the zero keeps
        // every VOD registration body byte-identical to the pre-live wire.
        if w.w_lat != 0.0 {
            out.push_str(&format!("w_lat {}\n", w.w_lat));
        }
        out.push_str(&encode_quality(&w.quality));
        if let Some(id) = &self.bottleneck {
            out.push_str(&format!("bottleneck {id}\n"));
        }
        if let Some(live) = &self.live {
            out.push_str("mode live\n");
            out.push_str(&format!("encode_delay {}\n", live.encode_delay_secs));
            out.push_str(&format!("max_buffer_live {}\n", live.max_buffer_secs));
        }
        out.push_str("manifest\n");
        out.push_str(&mpd::generate(&self.video));
        out
    }

    /// Decodes a registration body, parsing its manifest.
    pub fn decode(body: &str) -> Result<Self, ProtoError> {
        Self::decode_with(body, |manifest| mpd::parse(manifest).map(Arc::new))
    }

    /// [`decode`](Self::decode) with the manifest turned into a video by
    /// `resolve`, which the service points at its intern table. The
    /// manifest is resolved after the other fields decode, and the checks
    /// that need the video run after it.
    pub fn decode_with(
        body: &str,
        resolve: impl FnOnce(&str) -> Result<Arc<Video>, MpdError>,
    ) -> Result<Self, ProtoError> {
        let mut f = SpecFields::default();
        let mut fields = Fields::new(body);
        for field in fields.by_ref() {
            let (key, value) = field?;
            let slot = match key {
                "backend" => &mut f.backend,
                "predictor" => &mut f.predictor,
                "horizon" => &mut f.horizon,
                "buffer_max" => &mut f.buffer_max,
                "robust_bound" => &mut f.robust_bound,
                "error_window" => &mut f.error_window,
                "low_buffer_threshold" => &mut f.low_buffer_threshold,
                "low_buffer_window" => &mut f.low_buffer_window,
                "lambda" => &mut f.lambda,
                "mu" => &mut f.mu,
                "mu_s" => &mut f.mu_s,
                "mu_event" => &mut f.mu_event,
                "w_lat" => &mut f.w_lat,
                "quality" => &mut f.quality,
                "bottleneck" => &mut f.bottleneck,
                "mode" => &mut f.mode,
                "encode_delay" => &mut f.encode_delay,
                "max_buffer_live" => &mut f.max_buffer_live,
                _ => continue,
            };
            slot.get_or_insert(value);
        }
        // Checked in this order whatever order the body lists its fields
        // in: the order decides which error a body with several faults
        // gets, and `tests/refusals.rs` pins it.
        let manifest = fields.manifest.ok_or(ProtoError::Missing("manifest"))?;
        let backend_tok = f.backend.ok_or(ProtoError::Missing("backend"))?;
        let backend = Backend::parse(backend_tok)
            .ok_or_else(|| ProtoError::Bad(format!("unknown backend {backend_tok:?}")))?;
        let predictor =
            PredictorKind::decode(f.predictor.ok_or(ProtoError::Missing("predictor"))?)?;
        let robust_bound = match f.robust_bound.ok_or(ProtoError::Missing("robust_bound"))? {
            "max" => RobustBound::MaxError,
            "mean" => RobustBound::MeanError,
            other => return Err(ProtoError::Bad(format!("robust_bound {other:?}"))),
        };
        let live = match f.mode {
            Some("live") => Some(LiveSchedule {
                encode_delay_secs: parse_value(f.encode_delay, "encode_delay")?,
                max_buffer_secs: parse_value(f.max_buffer_live, "max_buffer_live")?,
            }),
            Some(other) => return Err(ProtoError::Bad(format!("mode {other:?}"))),
            None => None,
        };
        let spec = Self {
            backend,
            predictor,
            horizon: parse_value(f.horizon, "horizon")?,
            buffer_max_secs: parse_value(f.buffer_max, "buffer_max")?,
            robust_bound,
            error_window: parse_value(f.error_window, "error_window")?,
            low_buffer_threshold_secs: parse_value(f.low_buffer_threshold, "low_buffer_threshold")?,
            low_buffer_window_chunks: parse_value(f.low_buffer_window, "low_buffer_window")?,
            weights: QoeWeights {
                lambda: parse_value(f.lambda, "lambda")?,
                mu: parse_value(f.mu, "mu")?,
                mu_s: parse_value(f.mu_s, "mu_s")?,
                mu_event: parse_value(f.mu_event, "mu_event")?,
                w_lat: match f.w_lat {
                    Some(v) => v.parse().map_err(|_| ProtoError::Bad("w_lat".into()))?,
                    None => 0.0,
                },
                quality: decode_quality(f.quality.ok_or(ProtoError::Missing("quality"))?)?,
            },
            bottleneck: f.bottleneck.map(str::to_string),
            live,
            video: resolve(manifest).map_err(|e| ProtoError::Manifest(e.to_string()))?,
        };
        if spec.horizon == 0 {
            return Err(ProtoError::Bad("horizon must be positive".into()));
        }
        if let Some(horizon) = spec.search_horizon() {
            let levels = spec.video.ladder().len();
            let plans = (levels as u64).saturating_pow(u32::try_from(horizon).unwrap_or(u32::MAX));
            if plans > MAX_SEARCH_PLANS {
                return Err(ProtoError::Bad(format!(
                    "{levels} levels at horizon {horizon} search more than {MAX_SEARCH_PLANS} plans"
                )));
            }
        }
        // The video's chunk length is finite and positive (the manifest
        // parser refuses anything else), so only the field can be NaN.
        let chunk_secs = spec.video.chunk_secs();
        if spec.buffer_max_secs.is_nan() || spec.buffer_max_secs < chunk_secs {
            return Err(ProtoError::Bad(
                "buffer_max must hold at least one chunk".into(),
            ));
        }
        if let Some(live) = &spec.live {
            if !live.encode_delay_secs.is_finite() || live.encode_delay_secs < 0.0 {
                return Err(ProtoError::Bad("encode_delay must be non-negative".into()));
            }
            if live.max_buffer_secs.is_nan() || live.max_buffer_secs < chunk_secs {
                return Err(ProtoError::Bad(
                    "max_buffer_live must hold at least one chunk".into(),
                ));
            }
        }
        // Last, so a body refused for anything else keeps its answer: the
        // values no predictor can be built with.
        if spec.error_window == 0 {
            return Err(ProtoError::Bad("error_window must be positive".into()));
        }
        spec.predictor.validate()?;
        // After every other check, for the same reason: the weights of
        // Eq. (5) are penalties, and the horizon search's pruning bounds
        // hold only while each is finite and non-negative.
        let w = &spec.weights;
        for (key, value) in [
            ("lambda", w.lambda),
            ("mu", w.mu),
            ("mu_s", w.mu_s),
            ("mu_event", w.mu_event),
            ("w_lat", w.w_lat),
        ] {
            if !(value >= 0.0 && value.is_finite()) {
                return Err(ProtoError::Bad(format!(
                    "{key} must be finite and non-negative"
                )));
            }
        }
        Ok(spec)
    }
}

/// The value of each `POST /session` key, as [`SessionSpec::decode_with`]
/// collects them in one pass over the body: the first value of a key
/// wins and unknown keys are ignored, as with every other body.
#[derive(Default)]
struct SpecFields<'a> {
    backend: Option<&'a str>,
    predictor: Option<&'a str>,
    horizon: Option<&'a str>,
    buffer_max: Option<&'a str>,
    robust_bound: Option<&'a str>,
    error_window: Option<&'a str>,
    low_buffer_threshold: Option<&'a str>,
    low_buffer_window: Option<&'a str>,
    lambda: Option<&'a str>,
    mu: Option<&'a str>,
    mu_s: Option<&'a str>,
    mu_event: Option<&'a str>,
    w_lat: Option<&'a str>,
    quality: Option<&'a str>,
    bottleneck: Option<&'a str>,
    mode: Option<&'a str>,
    encode_delay: Option<&'a str>,
    max_buffer_live: Option<&'a str>,
}

fn encode_quality(q: &QualityFn) -> String {
    match q {
        QualityFn::Identity => "quality identity\n".to_string(),
        QualityFn::Log { r0, scale } => format!("quality log {r0} {scale}\n"),
        QualityFn::Saturating { cap_kbps } => format!("quality saturating {cap_kbps}\n"),
        other => {
            // Callers registering exotic quality maps get a clear decode
            // failure server-side instead of a silently different QoE.
            format!("quality unsupported {other:?}\n")
        }
    }
}

fn decode_quality(v: &str) -> Result<QualityFn, ProtoError> {
    let mut parts = v.split_whitespace();
    match parts.next() {
        Some("identity") => Ok(QualityFn::Identity),
        Some("log") => Ok(QualityFn::Log {
            r0: parse_f64(parts.next(), "quality log r0")?,
            scale: parse_f64(parts.next(), "quality log scale")?,
        }),
        Some("saturating") => Ok(QualityFn::Saturating {
            cap_kbps: parse_f64(parts.next(), "quality saturating cap")?,
        }),
        other => Err(ProtoError::Unsupported(format!("quality {other:?}"))),
    }
}

/// What the client reports about the chunk that just finished downloading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LastChunk {
    /// Ladder level that was delivered.
    pub level: usize,
    /// Measured throughput of the download, kbps.
    pub throughput_kbps: f64,
    /// Wall-clock download time, seconds.
    pub download_secs: f64,
}

/// One `POST /decision` body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRequest {
    /// Session id from registration.
    pub sid: u64,
    /// Index of the chunk about to be requested.
    pub chunk: usize,
    /// Current buffer level, seconds.
    pub buffer_secs: f64,
    /// Outcome of chunk `chunk - 1`; required for every chunk after the
    /// first, forbidden for chunk 0.
    pub last: Option<LastChunk>,
    /// The client's session wall clock, seconds since playback start.
    /// Required for live sessions (the server rebuilds the availability
    /// state from it); omitted — and the line absent — for VOD.
    pub now_secs: Option<f64>,
}

impl DecisionRequest {
    /// Encodes the request body.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "sid {}\nchunk {}\nbuffer {}\n",
            self.sid, self.chunk, self.buffer_secs
        );
        if let Some(now) = self.now_secs {
            out.push_str(&format!("now {now}\n"));
        }
        if let Some(last) = &self.last {
            out.push_str(&format!(
                "last_level {}\nlast_tput {}\nlast_dl {}\n",
                last.level, last.throughput_kbps, last.download_secs
            ));
        }
        out
    }

    /// Builds the request a client sends for the player state in `ctx`,
    /// reconstructing the finished chunk's wall-clock download time from
    /// its size and measured throughput (reported for the server's logs,
    /// not used in the control state).
    pub fn from_context(sid: u64, ctx: &ControllerContext<'_>) -> Self {
        let last = (ctx.chunk_index > 0).then(|| {
            let level = ctx
                .prev_level
                .expect("chunk > 0 implies a previous level");
            let throughput_kbps = ctx
                .last_throughput_kbps
                .expect("chunk > 0 implies a measured throughput");
            LastChunk {
                level: level.get(),
                throughput_kbps,
                download_secs: ctx.video.chunk_size_kbits(ctx.chunk_index - 1, level)
                    / throughput_kbps,
            }
        });
        Self {
            sid,
            chunk: ctx.chunk_index,
            buffer_secs: ctx.buffer_secs,
            last,
            now_secs: ctx.live.as_ref().map(|l| l.now_secs),
        }
    }

    /// Decodes a request body in one pass over its fields, without
    /// allocating (errors aside): the first value of a key wins and
    /// unknown keys are ignored, as with every other body.
    pub fn decode(body: &str) -> Result<Self, ProtoError> {
        let [mut sid, mut chunk, mut buffer, mut now, mut last_level, mut last_tput, mut last_dl] =
            [None::<&str>; 7];
        for field in Fields::new(body) {
            let (key, value) = field?;
            let slot = match key {
                "sid" => &mut sid,
                "chunk" => &mut chunk,
                "buffer" => &mut buffer,
                "now" => &mut now,
                "last_level" => &mut last_level,
                "last_tput" => &mut last_tput,
                "last_dl" => &mut last_dl,
                _ => continue,
            };
            slot.get_or_insert(value);
        }
        let chunk: usize = parse_value(chunk, "chunk")?;
        let last = match last_level {
            Some(level) => Some(LastChunk {
                level: level
                    .parse()
                    .map_err(|_| ProtoError::Bad("last_level".into()))?,
                throughput_kbps: parse_value(last_tput, "last_tput")?,
                download_secs: parse_value(last_dl, "last_dl")?,
            }),
            None => None,
        };
        if chunk == 0 && last.is_some() {
            return Err(ProtoError::Bad("chunk 0 cannot report a last chunk".into()));
        }
        if chunk > 0 && last.is_none() {
            return Err(ProtoError::Missing("last_level"));
        }
        let now_secs = match now {
            Some(v) => Some(v.parse().map_err(|_| ProtoError::Bad("now".into()))?),
            None => None,
        };
        Ok(Self {
            sid: parse_value(sid, "sid")?,
            chunk,
            buffer_secs: parse_value(buffer, "buffer")?,
            last,
            now_secs,
        })
    }
}

/// `level N\n` for every level a table can store (`u8`), as bytes and
/// length: the static bodies of [`DecisionReply::body`].
static LEVEL_LINES: [([u8; 10], u8); 256] = level_lines();

const fn level_lines() -> [([u8; 10], u8); 256] {
    let mut lines = [([0u8; 10], 0u8); 256];
    let mut level = 0;
    while level < lines.len() {
        let line = &mut lines[level].0;
        let mut len = 0;
        while len < b"level ".len() {
            line[len] = b"level "[len];
            len += 1;
        }
        let mut place = 100;
        while place > 1 && level < place {
            place /= 10;
        }
        while place > 0 {
            line[len] = b'0' + (level / place % 10) as u8;
            len += 1;
            place /= 10;
        }
        line[len] = b'\n';
        lines[level].1 = len as u8 + 1;
        level += 1;
    }
    lines
}

/// One `POST /decision` response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionReply {
    /// The level to request next.
    pub level: usize,
    /// MPC's startup-wait directive, when the backend issues one.
    pub startup_wait_secs: Option<f64>,
}

impl DecisionReply {
    /// Encodes the response body.
    pub fn encode(&self) -> String {
        match self.startup_wait_secs {
            Some(w) => format!("level {}\nstartup_wait {w}\n", self.level),
            None => format!("level {}\n", self.level),
        }
    }

    /// The encoded body as bytes. The common reply, a level with no
    /// startup wait, is borrowed from a table laid out at compile time, so
    /// answering it allocates nothing; any other is rendered by
    /// [`encode`](Self::encode).
    pub fn body(&self) -> Cow<'static, [u8]> {
        match (self.startup_wait_secs, LEVEL_LINES.get(self.level)) {
            (None, Some((line, len))) => Cow::Borrowed(&line[..usize::from(*len)]),
            _ => Cow::Owned(self.encode().into_bytes()),
        }
    }

    /// Decodes a response body in one pass over its fields.
    pub fn decode(body: &str) -> Result<Self, ProtoError> {
        let (mut level, mut startup_wait) = (None, None);
        for field in Fields::new(body) {
            let (key, value) = field?;
            let slot = match key {
                "level" => &mut level,
                "startup_wait" => &mut startup_wait,
                _ => continue,
            };
            slot.get_or_insert(value);
        }
        let startup_wait_secs = match startup_wait {
            Some(v) => Some(
                v.parse()
                    .map_err(|_| ProtoError::Bad("startup_wait".into()))?,
            ),
            None => None,
        };
        Ok(Self {
            level: parse_value(level, "level")?,
            startup_wait_secs,
        })
    }
}

/// One positional slot of a bulk `POST /decisions` reply: the decision,
/// or the per-slot refusal (`status`, single-line message) that the
/// scalar `/decision` endpoint would have answered with.
pub type BulkSlot = Result<DecisionReply, (u16, String)>;

/// Encodes a bulk `POST /decisions` body: a `count N` line, then the `N`
/// per-session request blocks separated by blank lines. Each block is
/// exactly one [`DecisionRequest::encode`] body, so every float crosses
/// the wire with the same bit-exact formatting as the scalar endpoint.
pub fn encode_bulk(reqs: &[DecisionRequest]) -> String {
    let mut out = String::with_capacity(16 + reqs.len() * 96);
    out.push_str(&format!("count {}\n", reqs.len()));
    for req in reqs {
        out.push('\n');
        out.push_str(&req.encode());
    }
    out
}

/// Decodes a bulk request body; the declared `count` must match the
/// number of blocks.
pub fn decode_bulk(body: &str) -> Result<Vec<DecisionRequest>, ProtoError> {
    let (count, blocks) = split_blocks(body)?;
    let reqs = blocks
        .iter()
        .map(|b| DecisionRequest::decode(b))
        .collect::<Result<Vec<_>, _>>()?;
    if reqs.len() != count {
        return Err(ProtoError::Bad(format!(
            "count {count} but {} request blocks",
            reqs.len()
        )));
    }
    Ok(reqs)
}

/// Encodes a bulk reply: `count N`, then one blank-line-separated block
/// per slot — a [`DecisionReply::encode`] body, or a single
/// `error <status> <message>` line for a refused slot. Slots are strictly
/// positional: slot `i` answers request block `i`.
pub fn encode_bulk_reply(slots: &[BulkSlot]) -> String {
    let mut out = String::with_capacity(16 + slots.len() * 32);
    out.push_str(&format!("count {}\n", slots.len()));
    for slot in slots {
        out.push('\n');
        match slot {
            Ok(reply) => out.push_str(&reply.encode()),
            Err((status, message)) => out.push_str(&format!("error {status} {message}\n")),
        }
    }
    out
}

/// Decodes a bulk reply body into positional slots.
pub fn decode_bulk_reply(body: &str) -> Result<Vec<BulkSlot>, ProtoError> {
    let (count, blocks) = split_blocks(body)?;
    let mut slots = Vec::with_capacity(blocks.len());
    for block in &blocks {
        if let Some(rest) = block.strip_prefix("error ") {
            let rest = rest.trim_end_matches('\n');
            let (status, message) = rest
                .split_once(' ')
                .ok_or_else(|| ProtoError::Bad(format!("error slot {rest:?}")))?;
            let status: u16 = status
                .parse()
                .map_err(|_| ProtoError::Bad(format!("error status {status:?}")))?;
            slots.push(Err((status, message.to_string())));
        } else {
            slots.push(Ok(DecisionReply::decode(block)?));
        }
    }
    if slots.len() != count {
        return Err(ProtoError::Bad(format!(
            "count {count} but {} reply blocks",
            slots.len()
        )));
    }
    Ok(slots)
}

/// Splits a bulk body into its declared count and blank-line-separated
/// blocks (each block returned with its trailing newlines intact).
fn split_blocks(body: &str) -> Result<(usize, Vec<String>), ProtoError> {
    let mut lines = body.lines();
    let count: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("count "))
        .ok_or(ProtoError::Missing("count"))?
        .trim()
        .parse()
        .map_err(|_| ProtoError::Bad("count".into()))?;
    // Sized by the blocks actually present: `count` is the peer's claim.
    let mut blocks = Vec::new();
    let mut block = String::new();
    // The sentinel empty line flushes a final block with no trailing
    // separator.
    for line in lines.chain(std::iter::once("")) {
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            if !block.is_empty() {
                blocks.push(std::mem::take(&mut block));
            }
        } else {
            block.push_str(line);
            block.push('\n');
        }
    }
    Ok((count, blocks))
}

/// The `key value` lines of a body, in order, up to a bare `manifest`
/// line; blank lines are skipped and `\r\n` endings accepted. Once the
/// iterator is done, [`Fields::manifest`] holds whatever followed the
/// `manifest` line.
struct Fields<'a> {
    rest: &'a str,
    manifest: Option<&'a str>,
}

impl<'a> Fields<'a> {
    fn new(body: &'a str) -> Self {
        Self {
            rest: body,
            manifest: None,
        }
    }
}

/// One `key value` line of a body.
type Field<'a> = (&'a str, &'a str);

impl<'a> Iterator for Fields<'a> {
    type Item = Result<Field<'a>, ProtoError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.rest.is_empty() {
            let (line, after) = split_at_byte(self.rest, b'\n').unwrap_or((self.rest, ""));
            self.rest = after;
            let line = trim_cr(line);
            if line == "manifest" {
                self.manifest = Some(after);
                self.rest = "";
                return None;
            }
            if !line.is_empty() {
                return Some(
                    split_at_byte(line, b' ')
                        .ok_or_else(|| ProtoError::Bad(format!("line {line:?}"))),
                );
            }
        }
        None
    }
}

/// `s` split around the first `byte`, which must be ASCII (so both halves
/// are on character boundaries).
fn split_at_byte(s: &str, byte: u8) -> Option<(&str, &str)> {
    debug_assert!(byte.is_ascii());
    let at = s.bytes().position(|b| b == byte)?;
    Some((&s[..at], &s[at + 1..]))
}

/// `line` without its trailing carriage returns.
fn trim_cr(line: &str) -> &str {
    let bytes = line.as_bytes();
    let end = bytes.iter().rposition(|&b| b != b'\r').map_or(0, |i| i + 1);
    &line[..end]
}

/// Parses a key's value, if the body carried one.
fn parse_value<T: std::str::FromStr>(
    value: Option<&str>,
    key: &'static str,
) -> Result<T, ProtoError> {
    value
        .ok_or(ProtoError::Missing(key))?
        .parse()
        .map_err(|_| ProtoError::Bad(key.to_string()))
}

fn parse_f64(v: Option<&str>, what: &str) -> Result<f64, ProtoError> {
    v.ok_or_else(|| ProtoError::Bad(what.to_string()))?
        .parse()
        .map_err(|_| ProtoError::Bad(what.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_video::envivio_video;
    use std::f64::consts::{E, PI};

    /// Splits a body into `key value` fields, stopping at a bare
    /// `manifest` line; the remainder (if any) is returned as the manifest
    /// document. The decoders before the one-pass ones collected fields
    /// here and looked each key up; the oracles below still do.
    fn split_fields(body: &str) -> Result<(Vec<Field<'_>>, Option<&str>), ProtoError> {
        let mut fields = Fields::new(body);
        let collected = fields.by_ref().collect::<Result<_, _>>()?;
        Ok((collected, fields.manifest))
    }

    fn lookup<'a>(fields: &[Field<'a>], key: &'static str) -> Result<&'a str, ProtoError> {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or(ProtoError::Missing(key))
    }

    fn parse_field<T: std::str::FromStr>(
        fields: &[Field<'_>],
        key: &'static str,
    ) -> Result<T, ProtoError> {
        parse_value(lookup(fields, key).ok(), key)
    }

    #[test]
    fn session_spec_round_trips_bit_exactly() {
        let mut spec = SessionSpec::paper_default(Backend::RobustMpc, envivio_video());
        spec.buffer_max_secs = 29.73456120987123;
        spec.low_buffer_threshold_secs = 7.000_000_000_000_001;
        spec.weights.mu = 2_999.999_999_999_998;
        spec.predictor = PredictorKind::Ewma(0.648_297_134_665_43);
        spec.bottleneck = Some("cell-7".to_string());
        let back = SessionSpec::decode(&spec.encode()).unwrap();
        assert_eq!(back.bottleneck.as_deref(), Some("cell-7"));
        assert_eq!(back.backend, Backend::RobustMpc);
        assert_eq!(back.predictor, spec.predictor);
        assert_eq!(back.horizon, spec.horizon);
        assert_eq!(back.buffer_max_secs.to_bits(), spec.buffer_max_secs.to_bits());
        assert_eq!(
            back.low_buffer_threshold_secs.to_bits(),
            spec.low_buffer_threshold_secs.to_bits()
        );
        assert_eq!(back.weights.mu.to_bits(), spec.weights.mu.to_bits());
        assert_eq!(back.video.num_chunks(), spec.video.num_chunks());
        for k in 0..spec.video.num_chunks() {
            for l in 0..spec.video.ladder().len() {
                assert_eq!(
                    back.video
                        .chunk_size_kbits(k, abr_video::LevelIdx(l))
                        .to_bits(),
                    spec.video
                        .chunk_size_kbits(k, abr_video::LevelIdx(l))
                        .to_bits()
                );
            }
        }
    }

    #[test]
    fn live_spec_round_trips_and_vod_wire_is_unchanged() {
        let mut spec = SessionSpec::paper_default(Backend::RobustMpc, envivio_video());
        // A VOD spec encodes no live or latency lines at all.
        let vod_body = spec.encode();
        assert!(!vod_body.contains("mode "), "{vod_body}");
        assert!(!vod_body.contains("w_lat "), "{vod_body}");
        assert!(!vod_body.contains("now "), "{vod_body}");
        spec.live = Some(LiveSchedule {
            encode_delay_secs: E,
            max_buffer_secs: 11.999_999_999_999_998,
        });
        spec.weights.w_lat = 0.012_345_678_901_234_567;
        let back = SessionSpec::decode(&spec.encode()).unwrap();
        let live = back.live.unwrap();
        assert_eq!(
            live.encode_delay_secs.to_bits(),
            spec.live.unwrap().encode_delay_secs.to_bits()
        );
        assert_eq!(
            live.max_buffer_secs.to_bits(),
            spec.live.unwrap().max_buffer_secs.to_bits()
        );
        assert_eq!(back.weights.w_lat.to_bits(), spec.weights.w_lat.to_bits());
        assert!(back.sim_config().live.is_some());
        // Live knobs are validated at decode time.
        let body = spec.encode();
        assert!(matches!(
            SessionSpec::decode(&body.replace("mode live", "mode vr")),
            Err(ProtoError::Bad(_))
        ));
        assert!(SessionSpec::decode(
            &body.replace("encode_delay 2.718281828459045", "encode_delay -1")
        )
        .is_err());
        assert!(SessionSpec::decode(
            &body.replace("max_buffer_live 11.999999999999998", "max_buffer_live 0.5")
        )
        .is_err());
        assert!(SessionSpec::decode(
            &body.replace("encode_delay 2.718281828459045", "encode_delay NaN")
        )
        .is_err());
        assert!(SessionSpec::decode(
            &body.replace("max_buffer_live 11.999999999999998", "max_buffer_live NaN")
        )
        .is_err());
        // The decision request carries the wall clock bit-exactly.
        let req = DecisionRequest {
            sid: 7,
            chunk: 3,
            buffer_secs: 4.25,
            last: Some(LastChunk { level: 1, throughput_kbps: 900.0, download_secs: 2.0 }),
            now_secs: Some(17.484_931_002_384_756),
        };
        let back = DecisionRequest::decode(&req.encode()).unwrap();
        assert_eq!(
            back.now_secs.unwrap().to_bits(),
            req.now_secs.unwrap().to_bits()
        );
    }

    #[test]
    fn decision_round_trips_bit_exactly() {
        let req = DecisionRequest {
            sid: 17,
            chunk: 9,
            buffer_secs: 13.482_910_476_123_456,
            last: Some(LastChunk {
                level: 3,
                throughput_kbps: 1523.4567890123456,
                download_secs: PI,
            }),
            now_secs: None,
        };
        let back = DecisionRequest::decode(&req.encode()).unwrap();
        assert_eq!(back.sid, 17);
        assert_eq!(back.chunk, 9);
        assert_eq!(back.buffer_secs.to_bits(), req.buffer_secs.to_bits());
        let (a, b) = (back.last.unwrap(), req.last.unwrap());
        assert_eq!(a.level, b.level);
        assert_eq!(a.throughput_kbps.to_bits(), b.throughput_kbps.to_bits());
        assert_eq!(a.download_secs.to_bits(), b.download_secs.to_bits());

        let reply = DecisionReply {
            level: 4,
            startup_wait_secs: Some(0.123_456_789_012_345_68),
        };
        let back = DecisionReply::decode(&reply.encode()).unwrap();
        assert_eq!(back.level, 4);
        assert_eq!(
            back.startup_wait_secs.unwrap().to_bits(),
            reply.startup_wait_secs.unwrap().to_bits()
        );
        assert_eq!(
            DecisionReply::decode("level 2\n").unwrap(),
            DecisionReply { level: 2, startup_wait_secs: None }
        );
    }

    #[test]
    fn reply_bodies_are_the_encoded_replies() {
        for level in 0..300 {
            for startup_wait_secs in [None, Some(0.0), Some(2.5)] {
                let reply = DecisionReply {
                    level,
                    startup_wait_secs,
                };
                let body = reply.body();
                assert_eq!(body.as_ref(), reply.encode().as_bytes(), "{reply:?}");
                let borrowed = matches!(body, Cow::Borrowed(_));
                assert_eq!(
                    borrowed,
                    startup_wait_secs.is_none() && level < 256,
                    "{reply:?}"
                );
            }
        }
    }

    #[test]
    fn decode_rejects_inconsistent_requests() {
        assert!(matches!(
            DecisionRequest::decode("sid 1\nchunk 0\nbuffer 0\nlast_level 1\nlast_tput 5\nlast_dl 1\n"),
            Err(ProtoError::Bad(_))
        ));
        assert!(matches!(
            DecisionRequest::decode("sid 1\nchunk 3\nbuffer 0\n"),
            Err(ProtoError::Missing("last_level"))
        ));
        assert!(matches!(
            DecisionRequest::decode("sid 1\nbuffer 0\n"),
            Err(ProtoError::Missing("chunk"))
        ));
        assert!(matches!(
            DecisionRequest::decode("garbage-no-space\n"),
            Err(ProtoError::Bad(_))
        ));
    }

    #[test]
    fn decode_rejects_bad_specs() {
        let good = SessionSpec::paper_default(Backend::Rb, envivio_video()).encode();
        // An ungrouped spec stays ungrouped across the wire.
        assert!(SessionSpec::decode(&good).unwrap().bottleneck.is_none());
        assert!(matches!(
            SessionSpec::decode(&good.replace("backend rb", "backend hal9000")),
            Err(ProtoError::Bad(_))
        ));
        assert!(matches!(
            SessionSpec::decode(&good.replace("horizon 5", "horizon 0")),
            Err(ProtoError::Bad(_))
        ));
        // NaN compares false both ways; the buffer cap still refuses it.
        assert!(good.contains("buffer_max 30\n"), "{good}");
        for bad in ["buffer_max NaN", "buffer_max 1"] {
            assert!(matches!(
                SessionSpec::decode(&good.replace("buffer_max 30", bad)),
                Err(ProtoError::Bad(_))
            ));
        }
        assert!(matches!(
            SessionSpec::decode(&good.replace("quality identity", "quality cubic")),
            Err(ProtoError::Unsupported(_))
        ));
        // A chopped-off manifest must fail cleanly (cut mid-body so the
        // size list is visibly truncated, not just missing closing tags).
        let cut = &good[..good.len() / 2];
        assert!(SessionSpec::decode(cut).is_err());
        // No manifest at all.
        let no_manifest: String = good.lines().take(12).map(|l| format!("{l}\n")).collect();
        assert!(matches!(
            SessionSpec::decode(&no_manifest),
            Err(ProtoError::Missing("manifest"))
        ));
    }

    #[test]
    fn bulk_request_round_trips_bit_exactly() {
        let reqs = vec![
            DecisionRequest { sid: 3, chunk: 0, buffer_secs: 0.0, last: None, now_secs: None },
            DecisionRequest {
                sid: 9,
                chunk: 17,
                buffer_secs: 21.937_812_046_512_345,
                last: Some(LastChunk {
                    level: 4,
                    throughput_kbps: 2_831.556_677_889_901,
                    download_secs: 1.059_283_746_501_982_3,
                }),
                now_secs: Some(68.123_456_789_012_34),
            },
            DecisionRequest { sid: 3, chunk: 1, buffer_secs: 4.0, last: Some(LastChunk {
                level: 0,
                throughput_kbps: 512.0,
                download_secs: 2.734_375,
            }), now_secs: None },
        ];
        let back = decode_bulk(&encode_bulk(&reqs)).unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in back.iter().zip(&reqs) {
            assert_eq!(a.sid, b.sid);
            assert_eq!(a.chunk, b.chunk);
            assert_eq!(a.buffer_secs.to_bits(), b.buffer_secs.to_bits());
            assert_eq!(a.now_secs.map(f64::to_bits), b.now_secs.map(f64::to_bits));
            match (&a.last, &b.last) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.level, y.level);
                    assert_eq!(x.throughput_kbps.to_bits(), y.throughput_kbps.to_bits());
                    assert_eq!(x.download_secs.to_bits(), y.download_secs.to_bits());
                }
                other => panic!("last mismatch: {other:?}"),
            }
        }
        // The empty batch is legal and round-trips.
        assert_eq!(decode_bulk(&encode_bulk(&[])).unwrap().len(), 0);
    }

    #[test]
    fn bulk_reply_round_trips_with_positional_errors() {
        let slots: Vec<BulkSlot> = vec![
            Ok(DecisionReply { level: 3, startup_wait_secs: None }),
            Err((404, "unknown session 77".to_string())),
            Ok(DecisionReply {
                level: 0,
                startup_wait_secs: Some(0.728_501_962_348_715_6),
            }),
            Err((409, "out of order: expected chunk 4, got 9".to_string())),
        ];
        let back = decode_bulk_reply(&encode_bulk_reply(&slots)).unwrap();
        assert_eq!(back.len(), 4);
        assert_eq!(back[0], slots[0]);
        assert_eq!(back[1], slots[1]);
        assert_eq!(back[3], slots[3]);
        let (a, b) = (back[2].as_ref().unwrap(), slots[2].as_ref().unwrap());
        assert_eq!(a.level, b.level);
        assert_eq!(
            a.startup_wait_secs.unwrap().to_bits(),
            b.startup_wait_secs.unwrap().to_bits()
        );
    }

    #[test]
    fn bulk_decode_rejects_bad_framing() {
        assert!(matches!(
            decode_bulk("sid 1\nchunk 0\nbuffer 0\n"),
            Err(ProtoError::Missing("count"))
        ));
        assert!(matches!(
            decode_bulk("count two\n\nsid 1\nchunk 0\nbuffer 0\n"),
            Err(ProtoError::Bad(_))
        ));
        // Declared count disagreeing with the block count.
        assert!(matches!(
            decode_bulk("count 2\n\nsid 1\nchunk 0\nbuffer 0\n"),
            Err(ProtoError::Bad(_))
        ));
        assert!(matches!(
            decode_bulk_reply("count 1\n\nerror notanumber nope\n"),
            Err(ProtoError::Bad(_))
        ));
        assert!(matches!(
            decode_bulk_reply("count 1\n\nerror 404\n"),
            Err(ProtoError::Bad(_))
        ));
    }

    #[test]
    fn from_context_matches_the_remote_controller_shape() {
        use abr_video::LevelIdx;
        let video = envivio_video();
        let ctx = ControllerContext {
            chunk_index: 5,
            buffer_secs: 11.25,
            prev_level: Some(LevelIdx(2)),
            prediction_kbps: Some(1500.0),
            robust_lower_kbps: Some(1200.0),
            last_throughput_kbps: Some(1421.875),
            recent_low_buffer: false,
            startup: false,
            video: &video,
            buffer_max_secs: 30.0,
            live: None,
        };
        let req = DecisionRequest::from_context(42, &ctx);
        assert_eq!(req.sid, 42);
        assert_eq!(req.chunk, 5);
        assert_eq!(req.buffer_secs.to_bits(), 11.25f64.to_bits());
        let last = req.last.unwrap();
        assert_eq!(last.level, 2);
        assert_eq!(last.throughput_kbps.to_bits(), 1421.875f64.to_bits());
        assert_eq!(
            last.download_secs.to_bits(),
            (video.chunk_size_kbits(4, LevelIdx(2)) / 1421.875).to_bits()
        );
        // Chunk 0 carries no report.
        let first = ControllerContext {
            chunk_index: 0,
            buffer_secs: 0.0,
            prev_level: None,
            prediction_kbps: None,
            robust_lower_kbps: None,
            last_throughput_kbps: None,
            recent_low_buffer: false,
            startup: true,
            video: &video,
            buffer_max_secs: 30.0,
            live: None,
        };
        assert!(DecisionRequest::from_context(1, &first).last.is_none());
    }

    /// The `split_fields` + `lookup` decode the one-pass
    /// [`DecisionRequest::decode`] replaced, kept as its oracle.
    fn oracle_decode(body: &str) -> Result<DecisionRequest, ProtoError> {
        let (fields, _) = split_fields(body)?;
        let chunk: usize = parse_field(&fields, "chunk")?;
        let last = match lookup(&fields, "last_level") {
            Ok(level) => Some(LastChunk {
                level: level
                    .parse()
                    .map_err(|_| ProtoError::Bad("last_level".into()))?,
                throughput_kbps: parse_field(&fields, "last_tput")?,
                download_secs: parse_field(&fields, "last_dl")?,
            }),
            Err(_) => None,
        };
        if chunk == 0 && last.is_some() {
            return Err(ProtoError::Bad("chunk 0 cannot report a last chunk".into()));
        }
        if chunk > 0 && last.is_none() {
            return Err(ProtoError::Missing("last_level"));
        }
        let now_secs = match lookup(&fields, "now") {
            Ok(v) => Some(v.parse().map_err(|_| ProtoError::Bad("now".into()))?),
            Err(_) => None,
        };
        Ok(DecisionRequest {
            sid: parse_field(&fields, "sid")?,
            chunk,
            buffer_secs: parse_field(&fields, "buffer")?,
            last,
            now_secs,
        })
    }

    /// A decode outcome with floats as bit patterns and errors as text.
    fn outcome(r: Result<DecisionRequest, ProtoError>) -> String {
        match r {
            Ok(d) => format!(
                "sid {} chunk {} buffer {:#x} now {:?} last {:?}",
                d.sid,
                d.chunk,
                d.buffer_secs.to_bits(),
                d.now_secs.map(f64::to_bits),
                d.last.map(|l| (
                    l.level,
                    l.throughput_kbps.to_bits(),
                    l.download_secs.to_bits()
                )),
            ),
            Err(e) => format!("error: {e}"),
        }
    }

    #[test]
    fn one_pass_decode_matches_the_split_fields_oracle() {
        let first = DecisionRequest {
            sid: 5,
            chunk: 0,
            buffer_secs: 0.0,
            last: None,
            now_secs: None,
        };
        let later = DecisionRequest {
            sid: 12,
            chunk: 7,
            buffer_secs: 9.123_456_789_012_345,
            last: Some(LastChunk {
                level: 2,
                throughput_kbps: 1_234.567_890_123_4,
                download_secs: 0.987_654_321_098_765_4,
            }),
            now_secs: Some(31.000_000_000_000_004),
        };
        let mut bodies: Vec<Vec<u8>> = vec![
            first.encode().into_bytes(),
            later.encode().into_bytes(),
            DecisionRequest {
                now_secs: None,
                ..later
            }
            .encode()
            .into_bytes(),
        ];
        for body in [
            // Non-UTF-8 bytes, in a value and in a key.
            &b"sid 1\nchunk 0\nbuffer 0\xff\n"[..],
            b"sid 1\nchunk 0\nbuffer 0\n\xfe\xfd 3\n",
            // Duplicate keys: the first value wins, even a bad one.
            b"sid 1\nsid 2\nchunk 0\nbuffer 0\nbuffer 9\n",
            b"sid x\nsid 2\nchunk 0\nbuffer 0\n",
            // A manifest line ends the fields; nothing after it is read.
            b"sid 1\nchunk 0\nmanifest\nbuffer 3\n",
            b"sid 1\nchunk 0\nbuffer 2\nmanifest\nno-space-here\n",
            b"sid 1\nchunk 0\nbuffer 2\nmanifest",
            b"sid 1\nchunk 0\nbuffer 2\nmanifest \n",
            // CRLF (and CR-heavy) line ends.
            b"sid 1\r\nchunk 0\r\nbuffer 2.5\r\n",
            b"sid 1\r\r\nchunk 0\r\nbuffer 2.5\r\nmanifest\r\n",
            // A value after two spaces keeps its leading space.
            b"sid 1\nchunk 0\nbuffer  4\n",
            b"sid  1\nchunk 0\nbuffer 4\n",
            // Missing or extra last_* fields.
            b"sid 1\nchunk 3\nbuffer 4\n",
            b"sid 1\nchunk 3\nbuffer 4\nlast_level 1\nlast_tput 800\n",
            b"sid 1\nchunk 3\nbuffer 4\nlast_level 1\nlast_dl 2\n",
            b"sid 1\nchunk 3\nbuffer 4\nlast_tput 800\nlast_dl 2\n",
            b"sid 1\nchunk 3\nbuffer 4\nlast_level one\nlast_tput 800\nlast_dl 2\n",
            b"sid 1\nchunk 3\nbuffer 4\nlast_level 1\nlast_tput 800\nlast_dl 2\nlast_extra 5\n",
            // Chunk 0 reporting a last_* field.
            b"sid 1\nchunk 0\nbuffer 0\nlast_level 1\nlast_tput 800\nlast_dl 2\n",
            b"sid 1\nchunk 0\nbuffer 0\nlast_tput 800\n",
            // Other malformed or odd shapes.
            b"",
            b"\n\n",
            b"garbage-no-space\n",
            b"sid 1\nchunk 0\nbuffer 0\nno-space-here\n",
            b"sid 1\nchunk -1\nbuffer 0\n",
            b"sid 1\nchunk 0\nbuffer 0\nnow soon\n",
            b"sid 1\nchunk 0\nbuffer NaN\nnow inf\n",
            b"sid 1\nchunk 0\nbuffer 0\nunknown key\n",
            b"sid 1\nchunk 0\nbuffer 0",
            b"chunk 0\nbuffer 0\n",
            b"sid 1\nchunk 0\n",
            b"sid 1\n chunk 0\nbuffer 0\n",
            b"sid 1\nchunk 0\nbuffer 0\n\r\n",
        ] {
            bodies.push(body.to_vec());
        }
        for body in &bodies {
            let text = String::from_utf8_lossy(body);
            assert_eq!(
                outcome(DecisionRequest::decode(&text)),
                outcome(oracle_decode(&text)),
                "body {:?}",
                text
            );
        }
    }

    /// The `split_fields` + `lookup` registration decode the one-pass
    /// [`SessionSpec::decode_with`] replaced, kept as its oracle.
    fn oracle_decode_spec(body: &str) -> Result<SessionSpec, ProtoError> {
        let (fields, manifest) = split_fields(body)?;
        let manifest = manifest.ok_or(ProtoError::Missing("manifest"))?;
        let backend_tok = lookup(&fields, "backend")?;
        let backend = Backend::parse(backend_tok)
            .ok_or_else(|| ProtoError::Bad(format!("unknown backend {backend_tok:?}")))?;
        let predictor = PredictorKind::decode(lookup(&fields, "predictor")?)?;
        let robust_bound = match lookup(&fields, "robust_bound")? {
            "max" => RobustBound::MaxError,
            "mean" => RobustBound::MeanError,
            other => return Err(ProtoError::Bad(format!("robust_bound {other:?}"))),
        };
        let live = match lookup(&fields, "mode") {
            Ok("live") => Some(LiveSchedule {
                encode_delay_secs: parse_field(&fields, "encode_delay")?,
                max_buffer_secs: parse_field(&fields, "max_buffer_live")?,
            }),
            Ok(other) => return Err(ProtoError::Bad(format!("mode {other:?}"))),
            Err(_) => None,
        };
        let spec = SessionSpec {
            backend,
            predictor,
            horizon: parse_field(&fields, "horizon")?,
            buffer_max_secs: parse_field(&fields, "buffer_max")?,
            robust_bound,
            error_window: parse_field(&fields, "error_window")?,
            low_buffer_threshold_secs: parse_field(&fields, "low_buffer_threshold")?,
            low_buffer_window_chunks: parse_field(&fields, "low_buffer_window")?,
            weights: QoeWeights {
                lambda: parse_field(&fields, "lambda")?,
                mu: parse_field(&fields, "mu")?,
                mu_s: parse_field(&fields, "mu_s")?,
                mu_event: parse_field(&fields, "mu_event")?,
                w_lat: match lookup(&fields, "w_lat") {
                    Ok(v) => v.parse().map_err(|_| ProtoError::Bad("w_lat".into()))?,
                    Err(_) => 0.0,
                },
                quality: decode_quality(lookup(&fields, "quality")?)?,
            },
            bottleneck: lookup(&fields, "bottleneck").ok().map(str::to_string),
            live,
            video: mpd::parse(manifest)
                .map(Arc::new)
                .map_err(|e| ProtoError::Manifest(e.to_string()))?,
        };
        if spec.horizon == 0 {
            return Err(ProtoError::Bad("horizon must be positive".into()));
        }
        if let Some(horizon) = spec.search_horizon() {
            let levels = spec.video.ladder().len();
            let plans = (levels as u64).saturating_pow(u32::try_from(horizon).unwrap_or(u32::MAX));
            if plans > MAX_SEARCH_PLANS {
                return Err(ProtoError::Bad(format!(
                    "{levels} levels at horizon {horizon} search more than {MAX_SEARCH_PLANS} plans"
                )));
            }
        }
        // The video's chunk length is finite and positive (the manifest
        // parser refuses anything else), so only the field can be NaN.
        let chunk_secs = spec.video.chunk_secs();
        if spec.buffer_max_secs.is_nan() || spec.buffer_max_secs < chunk_secs {
            return Err(ProtoError::Bad(
                "buffer_max must hold at least one chunk".into(),
            ));
        }
        if let Some(live) = &spec.live {
            if !live.encode_delay_secs.is_finite() || live.encode_delay_secs < 0.0 {
                return Err(ProtoError::Bad("encode_delay must be non-negative".into()));
            }
            if live.max_buffer_secs.is_nan() || live.max_buffer_secs < chunk_secs {
                return Err(ProtoError::Bad(
                    "max_buffer_live must hold at least one chunk".into(),
                ));
            }
        }
        Ok(spec)
    }

    /// A spec decode outcome with floats as bit patterns and errors as text.
    fn spec_outcome(r: Result<SessionSpec, ProtoError>) -> String {
        match r {
            Ok(s) => {
                let w = &s.weights;
                format!(
                    "{} {:?} h{} b{:#x} {:?} e{} t{:#x} l{} w[{:#x} {:#x} {:#x} {:#x} {:#x} {:?}] {:?} {:?} v{:#x}",
                    s.backend.token(),
                    s.predictor,
                    s.horizon,
                    s.buffer_max_secs.to_bits(),
                    s.robust_bound,
                    s.error_window,
                    s.low_buffer_threshold_secs.to_bits(),
                    s.low_buffer_window_chunks,
                    w.lambda.to_bits(),
                    w.mu.to_bits(),
                    w.mu_s.to_bits(),
                    w.mu_event.to_bits(),
                    w.w_lat.to_bits(),
                    w.quality,
                    s.bottleneck,
                    s.live.map(|l| (l.encode_delay_secs.to_bits(), l.max_buffer_secs.to_bits())),
                    s.video.digest(),
                )
            }
            Err(e) => format!("error: {e}"),
        }
    }

    #[test]
    fn one_pass_spec_decode_matches_the_split_fields_oracle() {
        let ladder = abr_video::Ladder::new(vec![287.0, 604.0, 1271.0, 2674.0]).unwrap();
        let catalog = abr_video::VideoBuilder::new(ladder)
            .chunks(16)
            .chunk_secs(3.0)
            .vbr(|k| 0.8 + 0.4 * ((k * 5) % 9) as f64 / 8.0);
        let predictors = [
            PredictorKind::Harmonic,
            PredictorKind::Sliding(7),
            PredictorKind::Ewma(0.648_297_134_665_43),
            PredictorKind::Last,
            PredictorKind::Ar1(6),
            PredictorKind::CrossSession {
                prior_kbps: 1_234.5,
                weight: 2.25,
            },
        ];
        let qualities = [
            QualityFn::Identity,
            QualityFn::Log {
                r0: 350.0,
                scale: 1.25,
            },
            QualityFn::Saturating { cap_kbps: 2_500.0 },
        ];
        let mut bodies = Vec::new();
        for (i, backend) in Backend::ALL.into_iter().enumerate() {
            for (j, video) in [envivio_video(), catalog.clone()].into_iter().enumerate() {
                let mut spec = SessionSpec::paper_default(backend, video);
                spec.predictor = predictors[(i + j) % predictors.len()];
                spec.weights.quality = qualities[(i + 2 * j) % qualities.len()].clone();
                spec.robust_bound = [RobustBound::MaxError, RobustBound::MeanError][i % 2];
                spec.buffer_max_secs = 29.734_561_209_871_23;
                spec.low_buffer_threshold_secs = 7.000_000_000_000_001;
                spec.weights.mu = 2_999.999_999_999_998;
                bodies.push(spec.encode());
                spec.bottleneck = Some(format!("cell-{i}"));
                spec.live = Some(LiveSchedule {
                    encode_delay_secs: E,
                    max_buffer_secs: 11.999_999_999_999_998,
                });
                spec.weights.w_lat = 0.012_345_678_901_234_567;
                let live = spec.encode();
                // CRLF line ends, blank lines, duplicated keys (the first
                // value wins) and unknown keys.
                bodies.push(live.replace('\n', "\r\n"));
                bodies.push(live.replacen("horizon", "\n\nzzz 1\nhorizon 3\nhorizon", 1));
                bodies.push(live);
            }
        }
        for body in &bodies {
            let got = spec_outcome(SessionSpec::decode(body));
            assert!(!got.starts_with("error"), "{got}");
            assert_eq!(got, spec_outcome(oracle_decode_spec(body)), "body {body:?}");
        }
        // Refusals keep their text and precedence.
        let good = &bodies[1];
        for (from, to) in [
            ("backend fastmpc", "backend hal9000"),
            ("predictor harmonic", "predictor ewma x"),
            ("robust_bound max", "robust_bound median"),
            ("mode live", "mode vr"),
            ("encode_delay 2.718281828459045", "encode_delay x"),
            ("horizon 5", "horizon x"),
            ("buffer_max 29.73456120987123", "buffer_max 1"),
            ("lambda 1", "lambda"),
            ("quality identity", "quality cubic"),
            ("manifest", "manifest now"),
            ("backend fastmpc\r\n", ""),
            ("lambda 1\r\n", "lambda 1\r\ngarbage\r\n"),
        ] {
            assert!(good.contains(from), "{from:?} not in {good:?}");
            let body = good.replacen(from, to, 1);
            let got = spec_outcome(SessionSpec::decode(&body));
            assert!(got.starts_with("error"), "{from:?}: {got}");
            assert_eq!(got, spec_outcome(oracle_decode_spec(&body)), "{from:?}");
        }
    }
}
