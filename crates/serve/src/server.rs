//! The request router: [`AbrService`] maps one parsed HTTP request to its
//! response, independent of any transport. It is the
//! [`abr_net::server::Service`] that [`crate::event`] runs on the socket
//! server, which feeds it every request it reads.

use crate::coordinator::{CoordinatorConfig, FairnessCoordinator};
use crate::metrics::Metrics;
use crate::proto::{decode_bulk, encode_bulk_reply, BulkSlot, DecisionRequest, SessionSpec};
use crate::store::{DecideError, SessionStore};
use abr_net::http::{Request, Response};
use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Request router and session logic, independent of any transport.
pub struct AbrService {
    store: SessionStore,
    metrics: Metrics,
    coordinator: FairnessCoordinator,
}

impl AbrService {
    /// A fresh service with a `shards`-way sharded session store and an
    /// unbounded, memory-only table store.
    pub fn new(shards: usize) -> Self {
        Self::with_table_config(shards, abr_fastmpc::TableStoreConfig::default())
    }

    /// [`new`](Self::new) with an explicit tiered-table-store budget and
    /// spill policy.
    pub fn with_table_config(shards: usize, tables: abr_fastmpc::TableStoreConfig) -> Self {
        Self::with_coordinator_config(shards, tables, CoordinatorConfig::default())
    }

    /// [`with_table_config`](Self::with_table_config) with explicit
    /// fairness-coordinator knobs.
    pub fn with_coordinator_config(
        shards: usize,
        tables: abr_fastmpc::TableStoreConfig,
        coordinator: CoordinatorConfig,
    ) -> Self {
        let coordinator = FairnessCoordinator::new(coordinator);
        let metrics = Metrics::new();
        metrics.attach_coordinator(Arc::clone(coordinator.stats()));
        Self {
            store: SessionStore::with_table_config(shards, tables),
            metrics,
            coordinator,
        }
    }

    /// The session store.
    pub fn store(&self) -> &SessionStore {
        &self.store
    }

    /// The service counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The shared-bottleneck fairness coordinator.
    pub fn coordinator(&self) -> &FairnessCoordinator {
        &self.coordinator
    }

    fn reject(&self, resp: Response) -> Response {
        self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        resp
    }

    /// Routes one request to a response.
    ///
    /// Bodies are decoded where they lie (`body_text` borrows valid
    /// UTF-8), and replies carry no header strings, so a decision costs
    /// the allocations of its reply body and nothing else.
    pub fn handle(&self, req: &Request) -> Response {
        let body = || body_text(req.body());
        match (req.method(), req.path()) {
            ("POST", "/session") => match SessionSpec::decode_with(&body(), |manifest| {
                self.store.videos().resolve(manifest)
            }) {
                Ok(spec) => {
                    // Group membership is established before the first
                    // decision can arrive; the spec parts the coordinator
                    // needs outlive the store's take-over of the spec.
                    let group = spec.bottleneck.as_ref().map(|id| {
                        (
                            id.clone(),
                            Arc::clone(&spec.video),
                            spec.weights.quality.clone(),
                        )
                    });
                    let sid = self.store.register(spec);
                    if let Some((id, video, quality)) = group {
                        self.coordinator.join(&id, sid, &video, &quality);
                    }
                    self.metrics.sessions_registered.fetch_add(1, Ordering::Relaxed);
                    Response::ok(format!("sid {sid}\n").into_bytes(), "text/plain")
                }
                Err(e) => self.reject(Response::bad_request(&e.to_string())),
            },
            ("POST", "/decision") => {
                let parsed = match DecisionRequest::decode(&body()) {
                    Ok(p) => p,
                    Err(e) => return self.reject(Response::bad_request(&e.to_string())),
                };
                // Joint allocation (group members only) happens before the
                // shard lock; ungrouped deployments skip it via a lock-free
                // membership check.
                let over = self.coordinator.observe_and_allocate(&parsed);
                let start = Instant::now();
                let outcome = self.store.with_session(parsed.sid, |session| {
                    (
                        session.backend_token(),
                        session.decide_with(&parsed, over),
                        session.last_live_latency_secs(),
                    )
                });
                match outcome {
                    Ok((token, Ok(reply), live_latency)) => {
                        let stats = self.metrics.backend(token);
                        stats.decisions.fetch_add(1, Ordering::Relaxed);
                        stats.latency.record(start.elapsed().as_nanos() as u64);
                        if let Some(latency_secs) = live_latency {
                            self.metrics.record_live_latency(latency_secs);
                        }
                        Response::ok(reply.encode().into_bytes(), "text/plain")
                    }
                    Ok((_, Err(e), _)) => self.reject(decide_error_response(&e)),
                    Err(e) => self.reject(decide_error_response(&e)),
                }
            }
            ("POST", "/decisions") => {
                let reqs = match decode_bulk(&body()) {
                    Ok(r) => r,
                    Err(e) => return self.reject(Response::bad_request(&e.to_string())),
                };
                // Coordinator passes run in batch order, so a batch
                // carrying several group-mates sees each one's report
                // before the next allocation — same as scalar arrival.
                let overrides: Vec<Option<usize>> = reqs
                    .iter()
                    .map(|r| self.coordinator.observe_and_allocate(r))
                    .collect();
                let start = Instant::now();
                let outcomes = self.store.decide_bulk_with(&reqs, &overrides);
                // One store pass served the whole batch; attribute the
                // amortized per-decision service time to each slot.
                let per_slot_nanos =
                    start.elapsed().as_nanos() as u64 / outcomes.len().max(1) as u64;
                let slots: Vec<BulkSlot> = outcomes
                    .into_iter()
                    .zip(&reqs)
                    .map(|((token, result), req)| match result {
                        Ok(reply) => {
                            let stats = self
                                .metrics
                                .backend(token.expect("successful decide names its backend"));
                            stats.decisions.fetch_add(1, Ordering::Relaxed);
                            stats.latency.record(per_slot_nanos);
                            // Live slots carry a clock; VOD batches skip
                            // the extra per-session lock entirely.
                            if req.now_secs.is_some() {
                                if let Ok(Some(latency_secs)) = self
                                    .store
                                    .with_session(req.sid, |s| s.last_live_latency_secs())
                                {
                                    self.metrics.record_live_latency(latency_secs);
                                }
                            }
                            Ok(reply)
                        }
                        Err(e) => {
                            self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                            Err((decide_error_status(&e), e.to_string()))
                        }
                    })
                    .collect();
                Response::ok(encode_bulk_reply(&slots).into_bytes(), "text/plain")
            }
            ("POST", "/close") => match parse_close_sid(&body()) {
                Some(sid) if self.store.remove(sid) => {
                    self.coordinator.leave(sid);
                    self.metrics.sessions_closed.fetch_add(1, Ordering::Relaxed);
                    Response::ok(format!("closed {sid}\n").into_bytes(), "text/plain")
                }
                Some(sid) => {
                    self.reject(decide_error_response(&DecideError::UnknownSession(sid)))
                }
                None => self.reject(Response::bad_request("close needs `sid N`")),
            },
            ("GET", "/metrics") => Response::ok(
                self.metrics.render(
                    self.store.len(),
                    self.store.videos().parses(),
                    &self.store.tables().stats(),
                ).into_bytes(),
                "text/plain",
            ),
            _ => self.reject(Response::not_found()),
        }
    }
}

impl abr_net::server::Service for AbrService {
    fn handle(&self, req: &Request) -> Response {
        AbrService::handle(self, req)
    }
}

/// A request body as text. A valid UTF-8 body is borrowed after the
/// standard validator's check, which is several times faster than the
/// lossy scan; only a body with invalid bytes gets the lossy copy, so a
/// body decodes to the same text either way.
fn body_text(body: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(body) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(body),
    }
}

fn parse_close_sid(body: &str) -> Option<u64> {
    body.lines()
        .find_map(|l| l.strip_prefix("sid "))
        .and_then(|v| v.trim().parse().ok())
}

/// The status the scalar `/decision` endpoint answers with for `e` — and
/// the status a bulk reply slot carries, so per-slot refusals and whole
/// responses speak the same language.
fn decide_error_status(e: &DecideError) -> u16 {
    match e {
        DecideError::UnknownSession(_) => 404,
        DecideError::OutOfOrder { .. } => 409,
        DecideError::SessionComplete => 410,
        DecideError::BadLevel(_) => 400,
        DecideError::MissingClock => 400,
        DecideError::BadThroughput(_) => 400,
        DecideError::BadBuffer(_) => 400,
    }
}

fn decide_error_response(e: &DecideError) -> Response {
    Response::new(
        decide_error_status(e),
        format!("error: {e}\n").into_bytes(),
        "text/plain",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use abr_video::envivio_video;

    fn register(svc: &AbrService, body: String) -> Response {
        svc.handle(&Request::post("/session", body.as_bytes(), "text/plain"))
    }

    fn sid_of(resp: &Response) -> u64 {
        let body = String::from_utf8_lossy(&resp.body);
        body.trim().strip_prefix("sid ").unwrap().parse().unwrap()
    }

    /// The status line a response goes out with.
    fn status_line(resp: &Response) -> String {
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let wire = String::from_utf8(wire).unwrap();
        wire.split("\r\n").next().unwrap().to_string()
    }

    #[test]
    fn decision_refusals_carry_their_own_reason_phrase() {
        let svc = AbrService::new(2);
        let decide = |req: &DecisionRequest| {
            svc.handle(&Request::post("/decision", req.encode().as_bytes(), "text/plain"))
        };
        let report = |sid, chunk, level| DecisionRequest {
            sid,
            chunk,
            buffer_secs: 4.0,
            last: Some(crate::proto::LastChunk {
                level,
                throughput_kbps: 900.0,
                download_secs: 1.0,
            }),
            now_secs: None,
        };
        let first = |sid| DecisionRequest {
            sid,
            chunk: 0,
            buffer_secs: 0.0,
            last: None,
            now_secs: None,
        };

        // Unknown session.
        assert_eq!(status_line(&decide(&first(777))), "HTTP/1.1 404 Not Found");

        let spec = SessionSpec::paper_default(Backend::Bb, envivio_video());
        let chunks = spec.video.num_chunks();
        let sid = sid_of(&register(&svc, spec.encode()));
        assert_eq!(status_line(&decide(&first(sid))), "HTTP/1.1 200 OK");
        // Out-of-order chunk.
        assert_eq!(
            status_line(&decide(&report(sid, 3, 0))),
            "HTTP/1.1 409 Conflict"
        );
        // A last_level off the ladder.
        assert_eq!(
            status_line(&decide(&report(sid, 1, 42))),
            "HTTP/1.1 400 Bad Request"
        );
        // Completed session.
        for k in 1..chunks {
            assert_eq!(decide(&report(sid, k, 0)).status, 200, "chunk {k}");
        }
        let done = decide(&report(sid, chunks, 0));
        assert_eq!(status_line(&done), "HTTP/1.1 410 Gone");
        assert_eq!(done.body.as_ref(), b"error: session complete\n");
    }

    #[test]
    fn huge_low_buffer_window_is_served_not_allocated() {
        // The window is the client's to choose; whatever it says, the
        // session must register and decide without sizing memory by it.
        let svc = AbrService::new(1);
        let mut spec = SessionSpec::paper_default(Backend::Rb, envivio_video());
        spec.low_buffer_window_chunks = usize::MAX;
        let resp = register(&svc, spec.encode());
        assert_eq!(resp.status, 200);
        let sid = sid_of(&resp);
        for chunk in 0..3 {
            let req = DecisionRequest {
                sid,
                chunk,
                buffer_secs: 4.0,
                last: (chunk > 0).then_some(crate::proto::LastChunk {
                    level: 0,
                    throughput_kbps: 900.0,
                    download_secs: 1.0,
                }),
                now_secs: None,
            };
            let resp = svc.handle(&Request::post(
                "/decision",
                req.encode().as_bytes(),
                "text/plain",
            ));
            assert_eq!(resp.status, 200, "chunk {chunk}");
        }
    }

    #[test]
    fn mpc_searches_past_the_paper_bound_are_refused() {
        // One decision searches levels^horizon plans on a loop thread; the
        // largest search the paper evaluates, 5 levels at horizon 9, is
        // still served.
        let svc = AbrService::new(1);
        let mut spec = SessionSpec::paper_default(Backend::RobustMpc, envivio_video());
        spec.horizon = 9;
        let resp = register(&svc, spec.encode());
        assert_eq!(resp.status, 200);
        let sid = sid_of(&resp);
        let req = DecisionRequest {
            sid,
            chunk: 0,
            buffer_secs: 0.0,
            last: None,
            now_secs: None,
        };
        let resp = svc.handle(&Request::post(
                "/decision",
                req.encode().as_bytes(),
                "text/plain",
            ));
        assert_eq!(resp.status, 200);
        spec.horizon = 16;
        let resp = register(&svc, spec.encode());
        assert_eq!(resp.status, 400);
        let text = String::from_utf8_lossy(&resp.body);
        assert!(text.contains("5 levels at horizon 16"), "{text}");
        // 50 levels at horizon 5, online or in FastMPC's table; a backend
        // that searches nothing still registers on that ladder.
        let ladder = abr_video::Ladder::geometric(100.0, 10_000.0, 50).unwrap();
        let wide = abr_video::VideoBuilder::new(ladder).cbr();
        for (backend, status) in [
            (Backend::RobustMpc, 400),
            (Backend::Mpc, 400),
            (Backend::FastMpc, 400),
            (Backend::Bb, 200),
        ] {
            let spec = SessionSpec::paper_default(backend, wide.clone());
            assert_eq!(register(&svc, spec.encode()).status, status, "{backend}");
        }
    }

    /// Every bit of `video`: chunk length, ladder and chunk sizes.
    fn video_bits(video: &abr_video::Video) -> Vec<u64> {
        let mut bits = vec![video.chunk_secs().to_bits()];
        bits.extend(video.ladder().levels().iter().map(|r| r.to_bits()));
        for k in 0..video.num_chunks() {
            for level in video.ladder().iter() {
                bits.push(video.chunk_size_kbits(k, level).to_bits());
            }
        }
        bits
    }

    #[test]
    fn registrations_of_one_manifest_share_one_parsed_video() {
        let svc = AbrService::new(2);
        let spec = SessionSpec::paper_default(Backend::RobustMpc, envivio_video());
        let sids = [0, 1].map(|_| sid_of(&register(&svc, spec.encode())));
        let videos = sids.map(|sid| {
            svc.store()
                .with_session(sid, |s| Arc::clone(s.video()))
                .unwrap()
        });
        assert!(Arc::ptr_eq(&videos[0], &videos[1]));
        let fresh = abr_net::mpd::parse(&abr_net::mpd::generate(&spec.video)).unwrap();
        assert_eq!(video_bits(&videos[0]), video_bits(&fresh));
        assert_eq!(svc.store().videos().len(), 1);
        let metrics = svc.handle(&Request::get("/metrics"));
        let text = String::from_utf8_lossy(&metrics.body);
        assert!(text.contains("\nmanifest_parses 1\n"), "{text}");
    }

    #[test]
    fn a_manifest_that_fails_to_parse_is_refused_and_not_interned() {
        let svc = AbrService::new(1);
        let body = SessionSpec::paper_default(Backend::Bb, envivio_video()).encode();
        let cut = &body[..body.len() / 2];
        let resp = register(&svc, cut.to_string());
        assert_eq!(resp.status, 400);
        let text = String::from_utf8_lossy(&resp.body);
        assert!(text.contains("bad manifest"), "{text}");
        assert_eq!(svc.store().videos().len(), 0);
        assert_eq!(svc.store().videos().parses(), 1);
        // The same cut body parses, and is refused, again.
        assert_eq!(register(&svc, cut.to_string()).status, 400);
        assert_eq!(svc.store().videos().len(), 0);
        assert_eq!(svc.store().videos().parses(), 2);
    }

    #[test]
    fn closed_sessions_videos_are_swept() {
        // 10,000 distinct manifests, each registered and closed: the table
        // sweeps what no session holds instead of growing with them.
        let svc = AbrService::new(4);
        let mut most = 0;
        for i in 0..10_000 {
            let ladder = abr_video::Ladder::new(vec![100.0 + i as f64, 20_000.0]).unwrap();
            let video = abr_video::VideoBuilder::new(ladder).chunks(2).cbr();
            let spec = SessionSpec::paper_default(Backend::Bb, video);
            let sid = sid_of(&register(&svc, spec.encode()));
            let close = Request::post("/close", format!("sid {sid}\n").as_bytes(), "text/plain");
            assert_eq!(svc.handle(&close).status, 200);
            most = most.max(svc.store().videos().len());
        }
        assert!(most <= 128, "the intern table grew to {most} entries");
        assert_eq!(svc.store().videos().parses(), 10_000);
    }

    #[test]
    fn racing_registrations_of_a_new_manifest_leave_one_entry() {
        let svc = AbrService::new(2);
        let body = SessionSpec::paper_default(Backend::Bb, envivio_video()).encode();
        let barrier = std::sync::Barrier::new(2);
        let sids: Vec<u64> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        sid_of(&register(&svc, body.clone()))
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(svc.store().videos().len(), 1);
        let videos: Vec<_> = sids
            .iter()
            .map(|&sid| {
                svc.store()
                    .with_session(sid, |s| Arc::clone(s.video()))
                    .unwrap()
            })
            .collect();
        assert!(Arc::ptr_eq(&videos[0], &videos[1]));
    }

    #[test]
    fn huge_bulk_count_is_refused_not_allocated() {
        // The declared count is the client's to choose; a 17-byte body
        // must not size memory by it.
        let svc = AbrService::new(1);
        let spec = SessionSpec::paper_default(Backend::Bb, envivio_video());
        let sid = sid_of(&register(&svc, spec.encode()));
        for body in ["count 1000000000\n", "count 18446744073709551615\n"] {
            let resp = svc.handle(&Request::post("/decisions", body.as_bytes(), "text/plain"));
            assert_eq!(resp.status, 400, "{body:?}");
            assert!(crate::proto::decode_bulk_reply(body).is_err(), "{body:?}");
        }
        // The same service keeps deciding.
        let req = DecisionRequest { sid, chunk: 0, buffer_secs: 0.0, last: None, now_secs: None };
        let resp = svc.handle(&Request::post(
                "/decision",
                req.encode().as_bytes(),
                "text/plain",
            ));
        assert_eq!(resp.status, 200);
    }
}
