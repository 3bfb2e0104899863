//! Server-side session state and the sharded store that holds it.
//!
//! [`SessionState::decide`] replicates `abr_sim::run_session_core`'s
//! per-chunk control state exactly, shifted by half a step: the simulator
//! does its post-download bookkeeping (low-buffer history, predictor
//! observation, previous-level update) at the *end* of chunk `k-1`, while
//! the server replays the identical bookkeeping at the *start* of the
//! request for chunk `k`, from the client's report of chunk `k-1`'s
//! outcome. Because every controller/predictor is deterministic and every
//! float crosses the wire bit-for-bit, the resulting
//! [`ControllerContext`] — and therefore the decision — is bit-identical
//! to the in-process run. The differential tests in this crate enforce
//! that claim.
//!
//! Sessions live in [`SessionStore`]: N independently mutexed shards keyed
//! by session id, so event loops serving different sessions almost never
//! contend on the same lock. Beside the shards sit the two tables that
//! registrations share: the FastMPC [`TableStore`], and the
//! `VideoIntern` table, which parses each distinct manifest once.

use crate::proto::{DecisionReply, DecisionRequest, SessionSpec};
use abr_core::{BitrateController, ControllerContext};
use abr_fastmpc::{TableStore, TableStoreConfig};
use abr_net::mpd::{self, MpdError};
use abr_predictor::{ErrorTracked, Predictor};
use abr_sim::RobustBound;
use abr_video::{LevelIdx, LiveSchedule, Video};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Why a decision request was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum DecideError {
    /// No session with that id.
    UnknownSession(u64),
    /// The client skipped or repeated a chunk.
    OutOfOrder {
        /// The chunk index the server expected next.
        expected: usize,
        /// The chunk index the client asked about.
        got: usize,
    },
    /// Every chunk of the video has already been decided.
    SessionComplete,
    /// The reported last-chunk level is off the ladder.
    BadLevel(usize),
    /// A live session's request arrived without the wall clock (`now`)
    /// the server needs to rebuild the availability state.
    MissingClock,
    /// The reported last-chunk throughput is not finite and positive.
    BadThroughput(f64),
    /// The reported buffer level is negative or not finite.
    BadBuffer(f64),
}

impl std::fmt::Display for DecideError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecideError::UnknownSession(sid) => write!(f, "unknown session {sid}"),
            DecideError::OutOfOrder { expected, got } => {
                write!(f, "out of order: expected chunk {expected}, got {got}")
            }
            DecideError::SessionComplete => write!(f, "session complete"),
            DecideError::BadLevel(l) => write!(f, "level {l} off the ladder"),
            DecideError::MissingClock => write!(f, "live session needs a `now` clock"),
            DecideError::BadThroughput(kbps) => {
                write!(f, "throughput {kbps} kbps is not finite and positive")
            }
            DecideError::BadBuffer(secs) => {
                write!(f, "buffer {secs} s is not finite and non-negative")
            }
        }
    }
}

impl std::error::Error for DecideError {}

/// One registered session's control state.
pub struct SessionState {
    backend_token: &'static str,
    controller: Box<dyn BitrateController>,
    predictor: ErrorTracked<Box<dyn Predictor>>,
    video: Arc<Video>,
    /// The buffer cap the controller sees: `B_max`, additionally clamped
    /// by the live schedule's `max_buffer_secs` for live sessions —
    /// exactly `run_session_core`'s effective cap.
    buffer_max_secs: f64,
    /// The availability schedule for live sessions; `None` is VOD.
    live: Option<LiveSchedule>,
    /// Live latency at the most recent decision, for the latency
    /// histogram on `GET /metrics`; always `None` for VOD sessions.
    last_live_latency: Option<f64>,
    robust_bound: RobustBound,
    low_buffer_threshold_secs: f64,
    low_buffer_window_chunks: usize,
    low_buffer_history: VecDeque<bool>,
    next_chunk: usize,
    /// Buffer level the client reported at the previous decision — the
    /// value `run_session_core` pushes into the low-buffer history when it
    /// finishes that chunk.
    prev_buffer_secs: f64,
    prev_level: Option<LevelIdx>,
    last_throughput: Option<f64>,
    /// The predictor's outstanding forecast: the one the previous decision
    /// was made on (before the first, the fresh predictor's). The next
    /// report scores it, so the predictor forecasts once per chunk.
    forecast: Option<f64>,
}

impl SessionState {
    /// Builds the state for a freshly registered session. FastMPC tables
    /// come from `tables`, the shared process-wide tiered store, so N
    /// sessions on the same (video, config) generate the table exactly
    /// once — and an evicted table comes back zero-copy from the warm
    /// tier instead of being regenerated.
    pub fn new(spec: SessionSpec, tables: &TableStore) -> Self {
        let buffer_max_secs = spec.effective_buffer_max_secs();
        let table = spec.table(tables);
        let mut controller = spec
            .backend
            .build(table.as_ref(), &spec.weights, spec.horizon);
        // Mirror run_session_core's reset-at-session-start.
        controller.reset();
        // Sized up front so no decision grows it, and never past one
        // entry per chunk: the window comes from the client. The
        // predictor's windows are cut the same way, which changes no
        // forecast (see `PredictorKind::clamped`).
        let chunks = spec.video.num_chunks();
        let history_len = spec.low_buffer_window_chunks.min(chunks);
        let predictor = ErrorTracked::new(
            spec.predictor.clamped(chunks).build(),
            spec.error_window.min(chunks),
        );
        Self {
            backend_token: spec.backend.token(),
            controller,
            forecast: predictor.inner().predict(),
            predictor,
            video: spec.video,
            buffer_max_secs,
            live: spec.live,
            last_live_latency: None,
            robust_bound: spec.robust_bound,
            low_buffer_threshold_secs: spec.low_buffer_threshold_secs,
            low_buffer_window_chunks: spec.low_buffer_window_chunks,
            low_buffer_history: VecDeque::with_capacity(history_len),
            next_chunk: 0,
            prev_buffer_secs: 0.0,
            prev_level: None,
            last_throughput: None,
        }
    }

    /// Wire token of this session's backend (feeds per-backend metrics).
    pub fn backend_token(&self) -> &'static str {
        self.backend_token
    }

    /// The video this session plays, shared with every session registered
    /// with the same manifest.
    #[cfg(test)]
    pub(crate) fn video(&self) -> &Arc<Video> {
        &self.video
    }

    /// Live latency at the most recent decision, seconds; `None` for VOD
    /// sessions (feeds the live latency histogram on `GET /metrics`).
    pub fn last_live_latency_secs(&self) -> Option<f64> {
        self.last_live_latency
    }

    /// Decides the bitrate for `req.chunk`, replaying the bookkeeping of
    /// the chunk the client just finished first.
    pub fn decide(&mut self, req: &DecisionRequest) -> Result<DecisionReply, DecideError> {
        self.decide_with(req, None)
    }

    /// [`decide`](Self::decide) with an optional coordinator override:
    /// `Some(level)` answers with the jointly allocated level instead of
    /// consulting the scalar controller. All session bookkeeping
    /// (ordering, low-buffer history, predictor observation) is identical
    /// either way, so a session whose overrides are all `None` is
    /// bit-exactly an uncoordinated session.
    pub fn decide_with(
        &mut self,
        req: &DecisionRequest,
        override_level: Option<usize>,
    ) -> Result<DecisionReply, DecideError> {
        if self.next_chunk >= self.video.num_chunks() {
            return Err(DecideError::SessionComplete);
        }
        // Live catch-up skips chunks client-side (the player jumps over
        // stale chunks after a stall at the edge), so a live session may
        // legally move forward by more than one — but never repeat or
        // rewind. VOD stays strictly sequential.
        let in_order = if self.live.is_some() {
            req.chunk >= self.next_chunk && req.chunk < self.video.num_chunks()
        } else {
            req.chunk == self.next_chunk
        };
        if !in_order {
            return Err(DecideError::OutOfOrder {
                expected: self.next_chunk,
                got: req.chunk,
            });
        }
        let live_state = match (&self.live, req.now_secs) {
            (Some(live), Some(now)) => {
                // The single chokepoint shared with the in-process twin:
                // the availability state is rebuilt from the reported wall
                // clock through the same LiveSchedule::state arithmetic,
                // which is what keeps wire decisions bit-identical.
                Some(live.state(now, req.chunk, req.buffer_secs, self.video.chunk_secs()))
            }
            (Some(_), None) => return Err(DecideError::MissingClock),
            (None, _) => None,
        };

        if let Some(last) = &req.last {
            if last.level >= self.video.ladder().len() {
                return Err(DecideError::BadLevel(last.level));
            }
            if !(last.throughput_kbps > 0.0 && last.throughput_kbps.is_finite()) {
                return Err(DecideError::BadThroughput(last.throughput_kbps));
            }
        }
        // Checked last, so a request refused for anything else keeps its
        // answer. The buffer model (`abr_core::advance_buffer`) is defined
        // only for a finite, non-negative level.
        if !(req.buffer_secs >= 0.0 && req.buffer_secs.is_finite()) {
            return Err(DecideError::BadBuffer(req.buffer_secs));
        }

        // Post-download bookkeeping of chunk k-1, exactly as
        // run_session_core performs it before looping to chunk k.
        if let Some(last) = &req.last {
            if self.low_buffer_history.len() == self.low_buffer_window_chunks {
                self.low_buffer_history.pop_front();
            }
            self.low_buffer_history
                .push_back(self.prev_buffer_secs < self.low_buffer_threshold_secs);
            self.predictor.observe_scored(last.throughput_kbps, self.forecast);
            self.last_throughput = Some(last.throughput_kbps);
            self.prev_level = Some(LevelIdx(last.level));
        }

        let prediction = self.predictor.predict();
        self.forecast = prediction;
        let robust_lower = match self.robust_bound {
            RobustBound::MaxError => self.predictor.robust_lower_bound(prediction),
            RobustBound::MeanError => {
                prediction.map(|p| p / (1.0 + self.predictor.mean_error()))
            }
        };
        let ctx = ControllerContext {
            chunk_index: req.chunk,
            buffer_secs: req.buffer_secs,
            prev_level: self.prev_level,
            prediction_kbps: prediction,
            robust_lower_kbps: robust_lower,
            last_throughput_kbps: self.last_throughput,
            recent_low_buffer: self.low_buffer_history.iter().any(|&b| b),
            startup: req.chunk == 0,
            video: &self.video,
            buffer_max_secs: self.buffer_max_secs,
            live: live_state,
        };
        self.last_live_latency = live_state.as_ref().map(|s| s.latency_secs);
        let decision = match override_level {
            Some(level) => abr_core::Decision {
                level: LevelIdx(level.min(self.video.ladder().len() - 1)),
                startup_wait_secs: None,
            },
            None => self.controller.decide(&ctx),
        };
        debug_assert!(
            decision.level.get() < self.video.ladder().len(),
            "{} chose out-of-range level",
            self.controller.name()
        );

        self.prev_buffer_secs = req.buffer_secs;
        self.next_chunk = req.chunk + 1;
        Ok(DecisionReply {
            level: decision.level.get(),
            startup_wait_secs: decision.startup_wait_secs,
        })
    }
}

/// An insert sweeps the intern table once it holds twice the entries the
/// last sweep left, and never below this many.
const SWEEP_FLOOR: usize = 64;

/// Registered videos, interned by manifest text: each distinct manifest is
/// parsed once, and every session registered with it shares one
/// `Arc<Video>`.
///
/// The key is the whole manifest under the default SipHash, so a hit is an
/// exact byte match and a peer cannot craft colliding keys. An insert that
/// finds the table at twice the size its last sweep left (at least
/// [`SWEEP_FLOOR`] entries) first drops every entry no session holds. The
/// table so holds at most twice the videos sessions held at its last
/// sweep, or [`SWEEP_FLOOR`] entries, and sweeps cost O(1) amortized per
/// insert.
#[derive(Debug, Default)]
pub(crate) struct VideoIntern {
    table: Mutex<InternTable>,
    parses: AtomicU64,
}

#[derive(Debug, Default)]
struct InternTable {
    videos: HashMap<String, Arc<Video>>,
    /// Entries the last sweep left.
    swept: usize,
}

impl VideoIntern {
    fn lock(&self) -> MutexGuard<'_, InternTable> {
        self.table
            .lock()
            .expect("nothing panics while holding the intern lock")
    }

    /// The shared video for `manifest`, parsed on its first registration.
    /// The parse runs outside the lock; when registrations of a new
    /// manifest race, each parses and the first insert wins, so they still
    /// share one video. A manifest that fails to parse is not interned.
    pub(crate) fn resolve(&self, manifest: &str) -> Result<Arc<Video>, MpdError> {
        if let Some(video) = self.lock().videos.get(manifest) {
            return Ok(Arc::clone(video));
        }
        self.parses.fetch_add(1, Ordering::Relaxed);
        let parsed = Arc::new(mpd::parse(manifest)?);
        let mut table = self.lock();
        if let Some(video) = table.videos.get(manifest) {
            return Ok(Arc::clone(video));
        }
        if table.videos.len() >= (2 * table.swept).max(SWEEP_FLOOR) {
            table.videos.retain(|_, video| Arc::strong_count(video) > 1);
            table.swept = table.videos.len();
        }
        table.videos.insert(manifest.into(), Arc::clone(&parsed));
        Ok(parsed)
    }

    /// Interned videos: those sessions hold, and those not yet swept.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().videos.len()
    }

    /// Manifest parses so far, failed ones included; a registration that
    /// finds its manifest interned parses nothing.
    pub(crate) fn parses(&self) -> u64 {
        self.parses.load(Ordering::Relaxed)
    }
}

/// Sharded session store: session ids map to shards round-robin, each
/// shard behind its own mutex.
pub struct SessionStore {
    shards: Vec<Mutex<HashMap<u64, SessionState>>>,
    next_id: AtomicU64,
    tables: Arc<TableStore>,
    videos: VideoIntern,
}

impl SessionStore {
    /// A store with `shards` independent locks (at least 1) and an
    /// unbounded, memory-only table store.
    pub fn new(shards: usize) -> Self {
        Self::with_table_config(shards, TableStoreConfig::default())
    }

    /// [`new`](Self::new) with an explicit table-store budget and spill
    /// policy (the million-video-fleet configuration).
    pub fn with_table_config(shards: usize, tables: TableStoreConfig) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Mutex::new(HashMap::new())).collect(),
            next_id: AtomicU64::new(1),
            tables: Arc::new(TableStore::with_config(tables)),
            videos: VideoIntern::default(),
        }
    }

    fn shard(&self, sid: u64) -> &Mutex<HashMap<u64, SessionState>> {
        &self.shards[(sid % self.shards.len() as u64) as usize]
    }

    /// Registers a session; returns its id.
    pub fn register(&self, spec: SessionSpec) -> u64 {
        let state = SessionState::new(spec, &self.tables);
        let sid = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shard(sid).lock().unwrap().insert(sid, state);
        sid
    }

    /// Runs `f` on session `sid` while holding only that shard's lock.
    pub fn with_session<R>(
        &self,
        sid: u64,
        f: impl FnOnce(&mut SessionState) -> R,
    ) -> Result<R, DecideError> {
        let mut shard = self.shard(sid).lock().unwrap();
        match shard.get_mut(&sid) {
            Some(state) => Ok(f(state)),
            None => Err(DecideError::UnknownSession(sid)),
        }
    }

    /// Resolves a whole batch of decision requests in one store pass:
    /// requests are grouped by shard and each touched shard's lock is
    /// taken exactly once, instead of once per request. Results are
    /// positional (`results[i]` answers `reqs[i]`); each carries the
    /// session's backend token when the session exists. Within a shard,
    /// requests resolve in batch order, so a batch may legally carry the
    /// same session twice with ascending chunk indices.
    pub fn decide_bulk(
        &self,
        reqs: &[DecisionRequest],
    ) -> Vec<(Option<&'static str>, Result<DecisionReply, DecideError>)> {
        self.decide_bulk_with(reqs, &[])
    }

    /// [`decide_bulk`](Self::decide_bulk) with positional coordinator
    /// overrides: `overrides[i]`, when present and `Some`, answers
    /// `reqs[i]` with the jointly allocated level. An empty or short
    /// slice means no override for the remaining slots.
    pub fn decide_bulk_with(
        &self,
        reqs: &[DecisionRequest],
        overrides: &[Option<usize>],
    ) -> Vec<(Option<&'static str>, Result<DecisionReply, DecideError>)> {
        let mut results: Vec<_> = reqs
            .iter()
            .map(|r| (None, Err(DecideError::UnknownSession(r.sid))))
            .collect();
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, req) in reqs.iter().enumerate() {
            by_shard[(req.sid % self.shards.len() as u64) as usize].push(i);
        }
        for (shard, idxs) in self.shards.iter().zip(&by_shard) {
            if idxs.is_empty() {
                continue;
            }
            let mut shard = shard.lock().unwrap();
            for &i in idxs {
                if let Some(state) = shard.get_mut(&reqs[i].sid) {
                    let over = overrides.get(i).copied().flatten();
                    results[i] =
                        (Some(state.backend_token()), state.decide_with(&reqs[i], over));
                }
            }
        }
        results
    }

    /// Retires session `sid`; true if it existed.
    pub fn remove(&self, sid: u64) -> bool {
        self.shard(sid).lock().unwrap().remove(&sid).is_some()
    }

    /// Live sessions across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared FastMPC table store (for stats reporting).
    pub fn tables(&self) -> &Arc<TableStore> {
        &self.tables
    }

    /// The registered videos, interned by manifest text.
    pub(crate) fn videos(&self) -> &VideoIntern {
        &self.videos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::proto::LastChunk;
    use abr_video::envivio_video;

    fn store() -> SessionStore {
        SessionStore::new(4)
    }

    fn first_request(sid: u64) -> DecisionRequest {
        DecisionRequest { sid, chunk: 0, buffer_secs: 0.0, last: None, now_secs: None }
    }

    #[test]
    fn sessions_step_in_chunk_order() {
        let s = store();
        let sid = s.register(SessionSpec::paper_default(Backend::Bb, envivio_video()));
        let r0 = s.with_session(sid, |st| st.decide(&first_request(sid))).unwrap().unwrap();
        assert!(r0.level < 5);
        // Repeating chunk 0 is out of order.
        let err = s.with_session(sid, |st| st.decide(&first_request(sid))).unwrap();
        assert_eq!(err, Err(DecideError::OutOfOrder { expected: 1, got: 0 }));
        // Chunk 1 with a report goes through.
        let req = DecisionRequest {
            sid,
            chunk: 1,
            buffer_secs: 4.0,
            last: Some(LastChunk { level: r0.level, throughput_kbps: 900.0, download_secs: 2.0 }),
            now_secs: None,
        };
        s.with_session(sid, |st| st.decide(&req)).unwrap().unwrap();
    }

    #[test]
    fn bad_level_and_unknown_session_are_rejected() {
        let s = store();
        let sid = s.register(SessionSpec::paper_default(Backend::Rb, envivio_video()));
        assert!(matches!(
            s.with_session(99_999, |_| ()),
            Err(DecideError::UnknownSession(99_999))
        ));
        s.with_session(sid, |st| st.decide(&first_request(sid)).unwrap()).unwrap();
        let req = DecisionRequest {
            sid,
            chunk: 1,
            buffer_secs: 4.0,
            last: Some(LastChunk { level: 42, throughput_kbps: 900.0, download_secs: 2.0 }),
            now_secs: None,
        };
        assert_eq!(
            s.with_session(sid, |st| st.decide(&req)).unwrap(),
            Err(DecideError::BadLevel(42))
        );
    }

    #[test]
    fn exhausted_sessions_report_complete_and_remove_retires() {
        let video = envivio_video();
        let n = video.num_chunks();
        let s = store();
        let sid = s.register(SessionSpec::paper_default(Backend::Bb, video));
        let mut level = s
            .with_session(sid, |st| st.decide(&first_request(sid)).unwrap().level)
            .unwrap();
        for k in 1..n {
            let req = DecisionRequest {
                sid,
                chunk: k,
                buffer_secs: 10.0,
                last: Some(LastChunk { level, throughput_kbps: 1200.0, download_secs: 1.0 }),
                now_secs: None,
            };
            level = s.with_session(sid, |st| st.decide(&req).unwrap().level).unwrap();
        }
        let req = DecisionRequest {
            sid,
            chunk: n,
            buffer_secs: 10.0,
            last: Some(LastChunk { level, throughput_kbps: 1200.0, download_secs: 1.0 }),
            now_secs: None,
        };
        assert_eq!(
            s.with_session(sid, |st| st.decide(&req)).unwrap(),
            Err(DecideError::SessionComplete)
        );
        assert_eq!(s.len(), 1);
        assert!(s.remove(sid));
        assert!(!s.remove(sid));
        assert!(s.is_empty());
    }

    #[test]
    fn decide_bulk_is_positional_and_matches_scalar() {
        let s = store();
        // Two live sessions plus a scalar twin of the first.
        let a = s.register(SessionSpec::paper_default(Backend::FastMpc, envivio_video()));
        let b = s.register(SessionSpec::paper_default(Backend::Bb, envivio_video()));
        let twin = s.register(SessionSpec::paper_default(Backend::FastMpc, envivio_video()));
        let batch = [first_request(a), first_request(777), first_request(b)];
        let results = s.decide_bulk(&batch);
        assert_eq!(results.len(), 3);
        let (token_a, ra) = &results[0];
        assert_eq!(*token_a, Some("fastmpc"));
        let ra = ra.clone().unwrap();
        assert_eq!(results[1], (None, Err(DecideError::UnknownSession(777))));
        assert_eq!(results[2].0, Some("bb"));
        assert!(results[2].1.is_ok());
        // Bulk resolution equals the scalar path bit-for-bit.
        let scalar = s
            .with_session(twin, |st| st.decide(&first_request(twin)))
            .unwrap()
            .unwrap();
        assert_eq!(ra.level, scalar.level);
        // A duplicate sid in one batch resolves in order: chunk 1 then an
        // out-of-order repeat of chunk 1.
        let next = DecisionRequest {
            sid: a,
            chunk: 1,
            buffer_secs: 4.0,
            last: Some(LastChunk {
                level: ra.level,
                throughput_kbps: 1100.0,
                download_secs: 1.5,
            }),
            now_secs: None,
        };
        let results = s.decide_bulk(&[next, next]);
        assert!(results[0].1.is_ok());
        assert_eq!(
            results[1].1,
            Err(DecideError::OutOfOrder { expected: 2, got: 1 })
        );
        // The empty batch is a no-op.
        assert!(s.decide_bulk(&[]).is_empty());
    }

    #[test]
    fn live_sessions_need_a_clock_and_tolerate_catch_up_skips() {
        let s = store();
        let mut spec = SessionSpec::paper_default(Backend::RobustMpc, envivio_video());
        spec.live = Some(LiveSchedule { encode_delay_secs: 2.0, max_buffer_secs: 12.0 });
        spec.weights.w_lat = 0.1;
        let sid = s.register(spec);
        // A live request without the wall clock is refused.
        let no_clock = DecisionRequest { sid, chunk: 0, buffer_secs: 0.0, last: None, now_secs: None };
        assert_eq!(
            s.with_session(sid, |st| st.decide(&no_clock)).unwrap(),
            Err(DecideError::MissingClock)
        );
        let first = DecisionRequest { now_secs: Some(0.0), ..no_clock };
        let r0 = s.with_session(sid, |st| st.decide(&first)).unwrap().unwrap();
        assert!(s
            .with_session(sid, |st| st.last_live_latency_secs())
            .unwrap()
            .is_some());
        // Catch-up: the client skipped chunks 1-3 after an edge stall; the
        // forward jump is accepted, a rewind is not.
        let jump = DecisionRequest {
            sid,
            chunk: 4,
            buffer_secs: 3.5,
            last: Some(LastChunk { level: r0.level, throughput_kbps: 800.0, download_secs: 2.5 }),
            now_secs: Some(21.0),
        };
        s.with_session(sid, |st| st.decide(&jump)).unwrap().unwrap();
        let rewind = DecisionRequest { chunk: 2, ..jump };
        assert_eq!(
            s.with_session(sid, |st| st.decide(&rewind)).unwrap(),
            Err(DecideError::OutOfOrder { expected: 5, got: 2 })
        );
    }

    #[test]
    fn live_fastmpc_tables_are_sliced_and_keyed_apart_from_vod() {
        let s = store();
        s.register(SessionSpec::paper_default(Backend::FastMpc, envivio_video()));
        let mut live = SessionSpec::paper_default(Backend::FastMpc, envivio_video());
        live.live = Some(LiveSchedule { encode_delay_secs: 2.0, max_buffer_secs: 30.0 });
        let sid = s.register(live);
        // Same video and cap, but the live session's sliced table is a
        // distinct artifact from the VOD table.
        assert_eq!(s.tables().len(), 2, "live and VOD configs must not collide");
        let first = DecisionRequest {
            sid,
            chunk: 0,
            buffer_secs: 0.0,
            last: None,
            now_secs: Some(0.0),
        };
        s.with_session(sid, |st| st.decide(&first)).unwrap().unwrap();
    }

    #[test]
    fn fastmpc_sessions_share_one_table() {
        let s = store();
        for _ in 0..4 {
            s.register(SessionSpec::paper_default(Backend::FastMpc, envivio_video()));
        }
        assert_eq!(s.tables().len(), 1, "same config must reuse one table");
        let stats = s.tables().stats();
        assert_eq!(stats.generates, 1, "exactly one generation for one config");
        assert_eq!(stats.hot_hits, 3, "later registrations hit the hot tier");
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn bounded_store_keeps_serving_after_eviction() {
        // A budget of ~one table forces the second registration's table to
        // evict the first; both sessions must still decide, and the first
        // config's return regenerates (no warm dir here) exactly once more.
        let probe = {
            let mut cfg = abr_fastmpc::TableConfig::with_levels(5, 30.0);
            cfg.weights =
                SessionSpec::paper_default(Backend::FastMpc, envivio_video()).weights;
            abr_fastmpc::FastMpcTable::generate(&envivio_video(), 30.0, cfg)
                .binary_size_bytes()
        };
        let s = SessionStore::with_table_config(
            2,
            TableStoreConfig { hot_budget_bytes: probe + probe / 2, warm_dir: None },
        );
        let a = s.register(SessionSpec::paper_default(Backend::FastMpc, envivio_video()));
        let mut other = SessionSpec::paper_default(Backend::FastMpc, envivio_video());
        other.buffer_max_secs = 24.0; // different table config => different key
        let b = s.register(other);
        assert!(s.tables().stats().evictions >= 1, "budget must evict");
        for sid in [a, b] {
            s.with_session(sid, |st| st.decide(&first_request(sid)).unwrap())
                .unwrap();
        }
    }
}
