//! Edge-case suite for the shared-bottleneck fairness coordinator, driven
//! through the real service router (`AbrService::handle`), so every path
//! exercised here is exactly what the wire serves:
//!
//! * a single-member group degrades to the scalar backend **bit-exactly**
//!   (reply-for-reply against an ungrouped twin);
//! * members can join and leave mid-stream without disturbing the
//!   group-mates' decision flow;
//! * closing a member concurrently with group-mates' allocations never
//!   poisons them (threaded chaos test);
//! * the coordinator's counters surface on `GET /metrics` and add up.

use abr_net::http::Request;
use abr_serve::{AbrService, Backend, DecisionReply, DecisionRequest, LastChunk, SessionSpec};
use abr_video::envivio_video;
use std::sync::Arc;

fn register(svc: &AbrService, backend: Backend, bottleneck: Option<&str>) -> u64 {
    let mut spec = SessionSpec::paper_default(backend, envivio_video());
    spec.bottleneck = bottleneck.map(str::to_string);
    let resp = svc.handle(&Request::post("/session", spec.encode().as_bytes(), "text/plain"));
    assert_eq!(resp.status, 200, "registration failed");
    String::from_utf8_lossy(&resp.body)
        .trim()
        .strip_prefix("sid ")
        .expect("sid line")
        .parse()
        .expect("sid number")
}

fn decide(svc: &AbrService, req: &DecisionRequest) -> Result<DecisionReply, u16> {
    let resp = svc.handle(&Request::post(
        "/decision",
        req.encode().as_bytes(),
        "text/plain",
    ));
    if resp.status != 200 {
        return Err(resp.status);
    }
    Ok(DecisionReply::decode(&String::from_utf8_lossy(&resp.body)).expect("reply body"))
}

fn close(svc: &AbrService, sid: u64) -> u16 {
    svc.handle(&Request::post("/close", format!("sid {sid}\n").as_bytes(), "text/plain"))
    .status
}

fn metrics(svc: &AbrService) -> String {
    String::from_utf8_lossy(&svc.handle(&Request::get("/metrics")).body).into_owned()
}

fn metric(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.trim().parse().ok()))
        .unwrap_or_else(|| panic!("metric {key} missing in:\n{text}"))
}

/// A deterministic synthetic client report for chunk `k` of session
/// `sid`, claiming `prev_level` for the finished chunk. The values are
/// arbitrary but fixed, so twin sessions see identical requests.
fn report(sid: u64, k: usize, prev_level: usize) -> DecisionRequest {
    let buffer = 6.0 + (k % 5) as f64 * 1.75;
    let tput = 2400.0 + ((k * 131) % 900) as f64;
    DecisionRequest {
        sid,
        chunk: k,
        buffer_secs: buffer,
        last: (k > 0).then_some(LastChunk {
            level: prev_level,
            throughput_kbps: tput,
            download_secs: 1.5 + (k % 3) as f64 * 0.5,
        }),
        now_secs: None,
    }
}

#[test]
fn single_member_group_is_bit_exactly_scalar() {
    let svc = AbrService::new(4);
    let grouped = register(&svc, Backend::RobustMpc, Some("lonely-cell"));
    let twin = register(&svc, Backend::RobustMpc, None);
    let chunks = envivio_video().num_chunks();
    let (mut lvl_a, mut lvl_b) = (0usize, 0usize);
    for k in 0..chunks {
        let a = decide(&svc, &report(grouped, k, lvl_a)).expect("grouped decision");
        let b = decide(&svc, &report(twin, k, lvl_b)).expect("twin decision");
        assert_eq!(a.level, b.level, "chunk {k}: single-member group diverged");
        assert_eq!(
            a.startup_wait_secs.map(f64::to_bits),
            b.startup_wait_secs.map(f64::to_bits),
            "chunk {k}: startup-wait diverged"
        );
        (lvl_a, lvl_b) = (a.level, b.level);
    }
    // Every grouped decision fell back to the scalar backend; none were
    // jointly allocated.
    let text = metrics(&svc);
    assert_eq!(metric(&text, "decisions_coordinated"), 0);
    assert_eq!(metric(&text, "decisions_scalar_fallback"), chunks as u64);
}

#[test]
fn members_join_and_leave_mid_stream() {
    let svc = AbrService::new(4);
    let a = register(&svc, Backend::RobustMpc, Some("cell"));
    let b = register(&svc, Backend::RobustMpc, Some("cell"));
    let mut levels = std::collections::HashMap::from([(a, 0usize), (b, 0usize)]);
    let step = |svc: &AbrService, sid: u64, k: usize, levels: &mut std::collections::HashMap<u64, usize>| {
        let reply = decide(svc, &report(sid, k, levels[&sid])).expect("live member decides");
        assert!(reply.level < envivio_video().ladder().len());
        levels.insert(sid, reply.level);
    };
    for k in 0..10 {
        step(&svc, a, k, &mut levels);
        step(&svc, b, k, &mut levels);
    }
    // A third member joins mid-stream: its startup chunk is scalar, then
    // it participates in joint allocations.
    let c = register(&svc, Backend::RobustMpc, Some("cell"));
    levels.insert(c, 0);
    for k in 0..5 {
        step(&svc, c, k, &mut levels);
    }
    let before = metric(&metrics(&svc), "decisions_coordinated");
    assert!(before > 0, "a 2-3 member group must coordinate");
    // One founding member leaves mid-stream; the survivors keep deciding.
    assert_eq!(close(&svc, b), 200);
    for k in 10..15 {
        step(&svc, a, k, &mut levels);
    }
    for k in 5..10 {
        step(&svc, c, k, &mut levels);
    }
    // Two eligible members remain: still a coordinated group.
    let text = metrics(&svc);
    assert!(metric(&text, "decisions_coordinated") > before);
    assert_eq!(metric(&text, "coordinator_members"), 2);
    // The last leave drops the group to one member: scalar fallback, but
    // decisions keep flowing.
    assert_eq!(close(&svc, c), 200);
    let fallbacks = metric(&metrics(&svc), "decisions_scalar_fallback");
    for k in 15..20 {
        step(&svc, a, k, &mut levels);
    }
    let text = metrics(&svc);
    assert_eq!(
        metric(&text, "decisions_scalar_fallback"),
        fallbacks + 5,
        "solo survivor must degrade to scalar"
    );
    assert_eq!(metric(&text, "coordinator_groups"), 1);
    assert_eq!(metric(&text, "coordinator_joins"), 3);
    assert_eq!(metric(&text, "coordinator_leaves"), 2);
}

#[test]
fn closing_members_mid_allocation_never_poisons_group_mates() {
    let svc = Arc::new(AbrService::new(8));
    let survivors: Vec<u64> = (0..6)
        .map(|_| register(&svc, Backend::FastMpc, Some("storm")))
        .collect();
    let victims: Vec<u64> = (0..2)
        .map(|_| register(&svc, Backend::FastMpc, Some("storm")))
        .collect();
    let chunks = envivio_video().num_chunks();

    let mut handles = Vec::new();
    for &sid in &survivors {
        let svc = Arc::clone(&svc);
        handles.push(std::thread::spawn(move || {
            let mut level = 0usize;
            for k in 0..chunks {
                let reply = decide(&svc, &report(sid, k, level))
                    .expect("surviving member must never be poisoned");
                level = reply.level;
            }
        }));
    }
    // Victims decide a few chunks concurrently, then get closed while the
    // survivors are mid-flight.
    for &sid in &victims {
        let svc = Arc::clone(&svc);
        handles.push(std::thread::spawn(move || {
            let mut level = 0usize;
            for k in 0..8 {
                match decide(&svc, &report(sid, k, level)) {
                    Ok(reply) => level = reply.level,
                    Err(status) => {
                        // Already closed under us: the only legal refusal.
                        assert_eq!(status, 404);
                        return;
                    }
                }
            }
            assert_eq!(close(&svc, sid), 200);
        }));
    }
    for h in handles {
        h.join().expect("no member thread may panic");
    }
    let text = metrics(&svc);
    assert_eq!(metric(&text, "coordinator_members"), 6);
    assert_eq!(metric(&text, "coordinator_joins"), 8);
    assert_eq!(metric(&text, "coordinator_leaves"), 2);
    // Every grouped decision is either coordinated or a scalar fallback;
    // the victims each answered exactly 8 before closing themselves.
    assert_eq!(
        metric(&text, "decisions_coordinated") + metric(&text, "decisions_scalar_fallback"),
        6 * chunks as u64 + 2 * 8
    );
}

#[test]
fn bulk_endpoint_carries_coordination() {
    use abr_serve::{decode_bulk_reply, encode_bulk};
    let svc = AbrService::new(4);
    let sids: Vec<u64> = (0..4)
        .map(|_| register(&svc, Backend::RobustMpc, Some("batch-cell")))
        .collect();
    let mut levels: Vec<usize> = vec![0; sids.len()];
    for k in 0..6 {
        let reqs: Vec<DecisionRequest> = sids
            .iter()
            .zip(&levels)
            .map(|(&sid, &l)| report(sid, k, l))
            .collect();
        let resp = svc.handle(&Request::post(
            "/decisions",
            encode_bulk(&reqs).as_bytes(),
            "text/plain",
        ));
        assert_eq!(resp.status, 200);
        let slots = decode_bulk_reply(&String::from_utf8_lossy(&resp.body)).unwrap();
        for (i, slot) in slots.iter().enumerate() {
            levels[i] = slot.as_ref().expect("live session slot").level;
        }
    }
    // Chunk 0 for all four was scalar (startup); chunk 1 of the first
    // requester sees only itself eligible (another fallback); everything
    // after coordinates.
    let text = metrics(&svc);
    assert!(metric(&text, "decisions_coordinated") >= 18, "{text}");
    assert_eq!(
        metric(&text, "decisions_coordinated") + metric(&text, "decisions_scalar_fallback"),
        24
    );
}

/// A report the store refuses never reaches the coordinator. In a
/// two-member RobustMPC group on a thin link, member A's chunk-2 report is
/// refused (its buffer is NaN, and it claims a throughput a million times
/// the link's); member B's next decision must be the one it gets when A
/// never sent that report, whether A sent it on `/decision` or in a
/// `/decisions` batch.
#[test]
fn a_refused_report_never_reaches_the_coordinator() {
    use abr_serve::{decode_bulk_reply, encode_bulk};
    let thin = |sid: u64, k: usize, prev_level: usize| DecisionRequest {
        buffer_secs: 10.0,
        last: (k > 0).then_some(LastChunk {
            level: prev_level,
            throughput_kbps: 900.0,
            download_secs: 3.0,
        }),
        ..report(sid, k, prev_level)
    };
    // `refused`: none, on `/decision`, or in a `/decisions` batch.
    let next_of_b = |refused: Option<&str>| {
        let svc = AbrService::new(4);
        let (a, b) = (
            register(&svc, Backend::RobustMpc, Some("thin-cell")),
            register(&svc, Backend::RobustMpc, Some("thin-cell")),
        );
        let mut levels = [0usize; 2];
        for k in 0..2 {
            for (level, sid) in levels.iter_mut().zip([a, b]) {
                *level = decide(&svc, &thin(sid, k, *level)).expect("accepted").level;
            }
        }
        let bad = DecisionRequest {
            buffer_secs: f64::NAN,
            last: Some(LastChunk {
                level: levels[0],
                throughput_kbps: 1e9,
                download_secs: 0.01,
            }),
            ..thin(a, 2, levels[0])
        };
        match refused {
            Some("/decision") => assert_eq!(decide(&svc, &bad).map(|r| r.level), Err(400)),
            Some(path) => {
                let body = encode_bulk(&[bad]);
                let resp = svc.handle(&Request::post(path, body.as_bytes(), "text/plain"));
                let slots = decode_bulk_reply(&String::from_utf8_lossy(&resp.body)).unwrap();
                assert_eq!(
                    slots[0].as_ref().map(|r| r.level).map_err(|e| e.0),
                    Err(400)
                );
            }
            None => {}
        }
        decide(&svc, &thin(b, 2, levels[1]))
            .expect("accepted")
            .level
    };
    let clean = next_of_b(None);
    assert_eq!(next_of_b(Some("/decision")), clean, "refused on /decision");
    assert_eq!(
        next_of_b(Some("/decisions")),
        clean,
        "refused in a /decisions batch"
    );
}
