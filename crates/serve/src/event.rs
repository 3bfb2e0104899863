//! The decision server: the paper's §6 FastMPC deployment on the
//! workspace's one socket server.
//!
//! [`EventServer::spawn`] builds an [`AbrService`] (one sharded session
//! store, one FastMPC table store) and runs it on
//! [`abr_net::server::Server`]'s epoll readiness loops, which own every
//! transport concern: incremental parsing, pipelined keep-alive,
//! backpressure, hostile input, idle reaping, the connection cap and
//! shutdown. The loops' counters are attached to `GET /metrics`.
//!
//! Every request goes through [`AbrService::handle`], so the protocol and
//! the bit-identity contract live there: a decision sequence observed
//! through this server equals the in-process twin's, which
//! [`crate::run_mux_load`] checks session by session.

use crate::server::AbrService;
use abr_net::server::{Server, ServerConfig};
use std::io;

/// Session-store shards.
const SHARDS: usize = 16;

/// Configuration for [`EventServer::spawn`]; the loops' other transport
/// settings are [`ServerConfig`]'s defaults.
#[derive(Debug, Clone)]
pub struct EventConfig {
    /// Event-loop threads (at least 1). Loop 0 owns the listener.
    pub loops: usize,
    /// Tiered table-store sizing (hot-tier byte budget, warm spill dir).
    /// The default is unbounded and memory-only.
    pub tables: abr_fastmpc::TableStoreConfig,
}

impl EventConfig {
    /// Defaults with `loops` event-loop threads.
    pub fn with_loops(loops: usize) -> Self {
        Self { loops, ..Self::default() }
    }
}

impl Default for EventConfig {
    fn default() -> Self {
        Self {
            loops: ServerConfig::default().loops,
            tables: abr_fastmpc::TableStoreConfig::default(),
        }
    }
}

/// A running decision server; dropping it shuts it down.
pub type EventHandle = Server<AbrService>;

/// Spawns the decision server.
pub struct EventServer;

impl EventServer {
    /// Starts the server with `cfg`, binding a loopback listener.
    pub fn spawn(cfg: EventConfig) -> io::Result<EventHandle> {
        let service = AbrService::with_table_config(SHARDS, cfg.tables);
        let server = Server::spawn(
            service,
            ServerConfig { loops: cfg.loops, ..ServerConfig::default() },
        )?;
        server.service().metrics().attach_loops(server.loop_stats().to_vec());
        Ok(server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::proto::{
        decode_bulk_reply, encode_bulk, DecisionReply, DecisionRequest, LastChunk, SessionSpec,
    };
    use abr_net::http::{
        ChunkServer, HttpClient, Request, Response, MAX_LINE_BYTES, MAX_REQUEST_BODY_BYTES,
    };
    use abr_net::server::Service;
    use abr_video::{envivio_video, LiveSchedule, VideoBuilder};
    use std::io::{BufReader, Write as _};
    use std::net::TcpStream;
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    fn client(handle: &EventHandle) -> HttpClient<TcpStream> {
        HttpClient::new(TcpStream::connect(handle.addr()).unwrap())
    }

    fn register(c: &mut HttpClient<TcpStream>, backend: Backend) -> u64 {
        let spec = SessionSpec::paper_default(backend, envivio_video());
        let resp = c
            .post("/session", spec.encode().as_bytes(), "text/plain")
            .unwrap();
        assert_eq!(resp.status, 200);
        String::from_utf8_lossy(&resp.body)
            .trim()
            .strip_prefix("sid ")
            .unwrap()
            .parse()
            .unwrap()
    }

    #[test]
    fn registers_decides_and_reports_loop_metrics() {
        let handle = EventServer::spawn(EventConfig::with_loops(2)).unwrap();
        let mut c = client(&handle);
        let sid = register(&mut c, Backend::Bb);
        let req = DecisionRequest { sid, chunk: 0, buffer_secs: 0.0, last: None, now_secs: None };
        let resp = c
            .post("/decision", req.encode().as_bytes(), "text/plain")
            .unwrap();
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8_lossy(&resp.body).starts_with("level "));

        let text = String::from_utf8_lossy(&c.get("/metrics").unwrap().body).into_owned();
        assert!(text.contains("sessions_registered 1"), "{text}");
        assert!(text.contains("decisions{backend=bb} 1"), "{text}");
        // Event-loop observability: the accept and the open connection
        // are visible per loop.
        assert!(text.contains("loop_accepts{loop=0} 1"), "{text}");
        assert!(text.contains("conns_open 1"), "{text}");
        assert!(text.contains("loop_wakeups{loop=0}"), "{text}");
    }

    #[test]
    fn protocol_errors_map_to_statuses() {
        let handle = EventServer::spawn(EventConfig::with_loops(2)).unwrap();
        let mut c = client(&handle);
        let post = |c: &mut HttpClient<TcpStream>, path: &str, body: String| {
            c.post(path, body.as_bytes(), "text/plain")
                .unwrap()
                .status
        };
        // Unknown endpoint.
        assert_eq!(c.get("/nope").unwrap().status, 404);
        // Garbage registration.
        assert_eq!(post(&mut c, "/session", "nonsense".into()), 400);
        // Decision for a session that does not exist.
        let req = DecisionRequest {
            sid: 777,
            chunk: 0,
            buffer_secs: 0.0,
            last: None,
            now_secs: None,
        };
        assert_eq!(post(&mut c, "/decision", req.encode()), 404);
        // Out-of-order chunk on a real session.
        let sid = register(&mut c, Backend::Rb);
        let skip = DecisionRequest {
            sid,
            chunk: 3,
            buffer_secs: 1.0,
            last: Some(LastChunk {
                level: 0,
                throughput_kbps: 500.0,
                download_secs: 1.0,
            }),
            now_secs: None,
        };
        assert_eq!(post(&mut c, "/decision", skip.encode()), 409);
        // Closing twice: second close is a 404.
        assert_eq!(post(&mut c, "/close", format!("sid {sid}\n")), 200);
        assert_eq!(post(&mut c, "/close", format!("sid {sid}\n")), 404);
        // Refusals never close the connection.
        assert_eq!(c.get("/metrics").unwrap().status, 200);
    }

    /// A FastMPC registration of a manifest shorter than the table's
    /// 5-chunk horizon once panicked table generation on the loop thread
    /// that handled it: the client got no answer and the next connect was
    /// refused. On one loop, each such session, VOD and live, now decides
    /// every chunk, and the loop goes on serving. A read timeout turns a
    /// dead loop into a failure rather than a hang.
    #[test]
    fn short_fastmpc_manifests_decide_every_chunk_on_one_loop() {
        let handle = EventServer::spawn(EventConfig::with_loops(1)).unwrap();
        let connect = || {
            let stream = TcpStream::connect(handle.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            HttpClient::new(stream)
        };
        let live = LiveSchedule {
            encode_delay_secs: 2.0,
            max_buffer_secs: 8.0,
        };
        for chunks in [1, 3, 4] {
            let video = VideoBuilder::new(envivio_video().ladder().clone())
                .chunks(chunks)
                .cbr();
            for live in [None, Some(live)] {
                let what = format!("{chunks} chunks, live {live:?}");
                let mut spec = SessionSpec::paper_default(Backend::FastMpc, video.clone());
                spec.live = live;
                let mut c = connect();
                let resp = c.post("/session", spec.encode().as_bytes(), "text/plain");
                let resp = resp.unwrap_or_else(|e| panic!("{what}: registration: {e}"));
                let body = String::from_utf8_lossy(&resp.body).into_owned();
                assert_eq!(resp.status, 200, "{what}: {body}");
                let sid = body.trim().strip_prefix("sid ").unwrap().parse().unwrap();
                let mut last = None;
                for chunk in 0..chunks {
                    let req = DecisionRequest {
                        sid,
                        chunk,
                        buffer_secs: 2.0 * chunk as f64,
                        last,
                        now_secs: live.map(|_| 2.0 + 4.0 * chunk as f64),
                    };
                    let resp = c.post("/decision", req.encode().as_bytes(), "text/plain");
                    let resp = resp.unwrap_or_else(|e| panic!("{what}, chunk {chunk}: {e}"));
                    let body = String::from_utf8_lossy(&resp.body).into_owned();
                    assert_eq!(resp.status, 200, "{what}, chunk {chunk}: {body}");
                    last = Some(LastChunk {
                        level: DecisionReply::decode(&body).unwrap().level,
                        throughput_kbps: 2000.0,
                        download_secs: 1.5,
                    });
                }
            }
        }
        register(&mut connect(), Backend::Bb);
    }

    #[test]
    fn bulk_endpoint_answers_positionally() {
        let handle = EventServer::spawn(EventConfig::with_loops(2)).unwrap();
        let mut c = client(&handle);
        let sids: Vec<u64> = (0..3).map(|_| register(&mut c, Backend::FastMpc)).collect();
        // Three live sessions plus one unknown sid in slot 2.
        let reqs: Vec<DecisionRequest> = [sids[0], sids[1], 9_999, sids[2]]
            .iter()
            .map(|&sid| DecisionRequest {
                sid,
                chunk: 0,
                buffer_secs: 0.0,
                last: None,
                now_secs: None,
            })
            .collect();
        let resp = c
            .post("/decisions", encode_bulk(&reqs).as_bytes(), "text/plain")
            .unwrap();
        assert_eq!(resp.status, 200);
        let slots = decode_bulk_reply(&String::from_utf8_lossy(&resp.body)).unwrap();
        assert_eq!(slots.len(), 4);
        assert!(slots[0].is_ok() && slots[1].is_ok() && slots[3].is_ok());
        let (status, msg) = slots[2].as_ref().unwrap_err();
        assert_eq!(*status, 404);
        assert!(msg.contains("9999"), "{msg}");
        // Server-side metrics account the batch per slot: three decisions,
        // one rejection.
        let text = String::from_utf8_lossy(&c.get("/metrics").unwrap().body).into_owned();
        assert!(text.contains("decisions{backend=fastmpc} 3"), "{text}");
        assert!(text.contains("requests_rejected 1"), "{text}");
        // Garbage bulk framing is a 400 for the whole request, and so is a
        // declared count the body does not carry; the loop keeps deciding.
        for body in [
            "nonsense",
            "count 1000000000\n",
            "count 18446744073709551615\n",
        ] {
            let resp = c
                .post("/decisions", body.as_bytes(), "text/plain")
                .unwrap();
            assert_eq!(resp.status, 400, "{body:?}");
        }
        let sid = register(&mut c, Backend::Bb);
        let req = DecisionRequest {
            sid,
            chunk: 0,
            buffer_secs: 0.0,
            last: None,
            now_secs: None,
        };
        let resp = c
            .post("/decision", req.encode().as_bytes(), "text/plain")
            .unwrap();
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn pipelined_requests_answered_in_order() {
        let handle = EventServer::spawn(EventConfig::with_loops(2)).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Three pipelined requests in one write: a registration between
        // two metrics probes.
        let spec = SessionSpec::paper_default(Backend::Rb, envivio_video());
        let mut wire = Vec::new();
        Request::get("/metrics").write_to(&mut wire).unwrap();
        Request::post("/session", spec.encode().as_bytes(), "text/plain")
            .write_to(&mut wire)
            .unwrap();
        Request::get("/metrics").write_to(&mut wire).unwrap();
        stream.write_all(&wire).unwrap();
        let mut reader = BufReader::new(stream);
        let first = Response::read_from(&mut reader).unwrap();
        let second = Response::read_from(&mut reader).unwrap();
        let third = Response::read_from(&mut reader).unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(second.status, 200);
        assert!(String::from_utf8_lossy(&second.body).starts_with("sid "));
        assert_eq!(third.status, 200);
        // The third response observes the registration made by the
        // second request — strict in-order processing.
        assert!(
            String::from_utf8_lossy(&third.body).contains("sessions_registered 1"),
            "{}",
            String::from_utf8_lossy(&third.body)
        );
    }

    /// One hostile input: what the client writes (at once, or one byte per
    /// write), the statuses it must read back, and whether the connection
    /// must still be serving afterwards.
    struct Hostile {
        name: &'static str,
        wire: Vec<u8>,
        trickle: bool,
        statuses: &'static [u16],
        open: bool,
    }

    /// A request both services answer 404.
    const NOPE: &[u8] = b"GET /nope HTTP/1.1\r\n\r\n";

    fn hostile_corpus() -> Vec<Hostile> {
        let mut overlong =
            format!("GET /{} HTTP/1.1\r\nhost: x\r\n\r\n", "x".repeat(MAX_LINE_BYTES)).into_bytes();
        overlong.extend_from_slice(NOPE);
        let over = MAX_REQUEST_BODY_BYTES + 1;
        let mut over_cap =
            format!("POST /upload HTTP/1.1\r\ncontent-length: {over}\r\n\r\n").into_bytes();
        over_cap.resize(over_cap.len() + over, b'b');
        over_cap.extend_from_slice(NOPE);
        let case = |name, wire: &[u8], statuses, open| Hostile {
            name,
            wire: wire.to_vec(),
            trickle: false,
            statuses,
            open,
        };
        vec![
            case("garbled request line", b"NOT-HTTP-AT-ALL\r\n\r\n", &[400], false),
            case("POST without content-length", b"POST /x HTTP/1.1\r\n\r\n", &[400], false),
            case("over-long request line", &overlong, &[400, 404], true),
            case("body over the cap", &over_cap, &[413, 404], true),
            Hostile { trickle: true, ..case("one byte per write", NOPE, &[404], true) },
            case(
                "connection: close",
                b"GET /nope HTTP/1.1\r\nconnection: close\r\n\r\n",
                &[404],
                false,
            ),
        ]
    }

    /// Plays `case` on a fresh connection to `server`: the statuses read
    /// back, and whether the connection then answers a `GET /nope`.
    fn play<S: Service>(server: &Server<S>, case: &Hostile) -> (Vec<u16>, bool) {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        if case.trickle {
            // Each byte but the last is read by the server, which counts a
            // partial read, before the next one is sent.
            let (last, head) = case.wire.split_last().unwrap();
            for byte in head {
                let seen = partial_reads(server);
                stream.write_all(std::slice::from_ref(byte)).unwrap();
                let deadline = Instant::now() + Duration::from_secs(5);
                while partial_reads(server) == seen {
                    assert!(Instant::now() < deadline, "{}: no partial read", case.name);
                    std::thread::yield_now();
                }
            }
            stream.write_all(std::slice::from_ref(last)).unwrap();
        } else {
            stream.write_all(&case.wire).unwrap();
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let statuses = case
            .statuses
            .iter()
            .map(|_| Response::read_from(&mut reader).map_or(0, |r| r.status))
            .collect();
        // A closed connection fails the probe's write or its read.
        let open = stream.write_all(NOPE).is_ok()
            && Response::read_from(&mut reader).is_ok_and(|r| r.status == 404);
        (statuses, open)
    }

    fn partial_reads<S: Service>(server: &Server<S>) -> u64 {
        server
            .loop_stats()
            .iter()
            .map(|l| l.partial_reads.load(Ordering::Relaxed))
            .sum()
    }

    #[test]
    fn hostile_corpus_gets_the_same_answers_from_both_services() {
        let decisions = EventServer::spawn(EventConfig::with_loops(2)).unwrap();
        let origin =
            Server::spawn(ChunkServer::new(envivio_video()), ServerConfig::default()).unwrap();
        for case in hostile_corpus() {
            let got = play(&decisions, &case);
            assert_eq!(got, (case.statuses.to_vec(), case.open), "{}", case.name);
            assert_eq!(play(&origin, &case), got, "{}: the origin differs", case.name);
        }
    }
}
