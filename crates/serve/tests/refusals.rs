//! Golden answers to malformed and hostile bodies: every status and every
//! response byte the decision service sends back, driven through
//! `AbrService::handle` in process.
//!
//! The corpus: registrations missing each field (alone and in pairs, so the
//! order of the checks shows), each field duplicated with a bad value
//! before or after a good one, bad values in every numeric field, unknown
//! backends, predictors, qualities and modes, lines without a space,
//! missing and unparsable manifests, searches past the 5^9-plan bound,
//! non-UTF-8 bytes in `/session`, `/decision`, `/decisions` and `/close`
//! bodies, and the values that once ended the process or panicked the
//! handler (predictor and error windows, EWMA weights, crowd priors,
//! FastMPC buffer caps, reported throughputs), then reported buffers and
//! QoE weights that are negative or not finite, then live clocks that are
//! negative or not finite, then FastMPC manifests shorter than the table's
//! horizon. Each newer group is appended after the older ones, so their
//! answers never moved. The golden holds one line per request: a label and
//! the whole response as written to the wire, escaped. To re-record after
//! an intended change, delete `tests/golden/refusals.txt` and run this
//! test: a missing golden is written, and the test then passes.

use abr_net::http::{Request, Response};
use abr_serve::{encode_bulk, AbrService, Backend, DecisionRequest, LastChunk, SessionSpec};
use abr_video::{envivio_video, Ladder, LiveSchedule, VideoBuilder};

fn post(svc: &AbrService, path: &str, body: &[u8]) -> Response {
    svc.handle(&Request::post(path, body, "text/plain"))
}

/// The sid a registration's answer (escaped, as [`answer`] writes it)
/// carries.
fn sid_in(answer: &str) -> u64 {
    (answer.split("sid ").nth(1))
        .and_then(|rest| rest.split('\\').next())
        .and_then(|sid| sid.parse().ok())
        .expect("the registration answers with a sid")
}

/// One request's answer: `label => escaped wire bytes`.
fn answer(svc: &AbrService, label: &str, path: &str, body: &[u8]) -> String {
    let resp = post(svc, path, body);
    let mut wire = Vec::new();
    resp.write_to(&mut wire).unwrap();
    format!("{label} => {}\n", wire.escape_ascii())
}

/// The body's `key value` lines before `manifest`, and the rest from the
/// `manifest` line on.
fn split(body: &str) -> (Vec<String>, String) {
    let at = body
        .find("manifest\n")
        .expect("a registration carries a manifest");
    let fields = body[..at].lines().map(str::to_string).collect();
    (fields, body[at..].to_string())
}

fn join(fields: &[String], manifest: &str) -> String {
    let mut out: String = fields.iter().map(|l| format!("{l}\n")).collect();
    out.push_str(manifest);
    out
}

fn live_spec(backend: Backend) -> SessionSpec {
    let mut spec = SessionSpec::paper_default(backend, envivio_video());
    spec.live = Some(LiveSchedule {
        encode_delay_secs: 2.0,
        max_buffer_secs: 8.0,
    });
    spec.weights.w_lat = 10.0;
    spec.bottleneck = Some("cell-9".to_string());
    spec
}

/// Bad values for each field a registration parses (the ones that once
/// panicked are in [`hostile_values`]).
const BAD_VALUES: &[(&str, &[&str])] = &[
    ("backend", &["hal9000", "", "FastMPC", "fastmpc "]),
    ("predictor", &["oracle", "ewma", "ewma x", "crowd 100", ""]),
    (
        "horizon",
        &["x", "-1", "0", "1.5", "", "18446744073709551616", "16"],
    ),
    ("buffer_max", &["x", "NaN", "1", "inf", "", "3.99"]),
    ("robust_bound", &["median", "", "MAX"]),
    ("error_window", &["x", "-1", "", "1.5"]),
    ("low_buffer_threshold", &["x", "", "NaN"]),
    ("low_buffer_window", &["x", "-1", ""]),
    ("lambda", &["x", "", "1,5"]),
    ("mu", &["x", ""]),
    ("mu_s", &["x", ""]),
    ("mu_event", &["x", ""]),
    ("w_lat", &["x", ""]),
    (
        "quality",
        &[
            "cubic",
            "",
            "log",
            "log 1",
            "log a b",
            "saturating",
            "saturating x",
            "unsupported Table",
        ],
    ),
    ("mode", &["vr", "", "LIVE", "vod"]),
    ("encode_delay", &["x", "-1", "NaN", "inf", ""]),
    ("max_buffer_live", &["x", "0.5", "NaN", ""]),
];

fn registrations(svc: &AbrService) -> String {
    let mut out = String::new();
    let bodies = [
        (
            "vod",
            SessionSpec::paper_default(Backend::RobustMpc, envivio_video()).encode(),
        ),
        ("live", live_spec(Backend::FastMpc).encode()),
    ];
    for (name, body) in &bodies {
        let (fields, manifest) = split(body);
        out += &answer(
            svc,
            &format!("session {name} valid"),
            "/session",
            body.as_bytes(),
        );
        // Each field missing, then each pair: the first check that fails
        // names the error.
        for i in 0..fields.len() {
            let mut less = fields.clone();
            let gone = less.remove(i);
            let label = format!("session {name} without {gone:?}");
            out += &answer(svc, &label, "/session", join(&less, &manifest).as_bytes());
            for j in i + 1..fields.len() {
                let kept: Vec<String> = (fields.iter().enumerate())
                    .filter(|&(k, _)| k != i && k != j)
                    .map(|(_, l)| l.clone())
                    .collect();
                let label = format!("session {name} without {gone:?} and {:?}", fields[j]);
                out += &answer(svc, &label, "/session", join(&kept, &manifest).as_bytes());
            }
        }
        for (key, bads) in BAD_VALUES {
            let Some(at) = fields.iter().position(|l| l.split(' ').next() == Some(key)) else {
                // A field the body lacks: add it with each bad value.
                for bad in *bads {
                    let mut more = fields.clone();
                    more.push(format!("{key} {bad}"));
                    let label = format!("session {name} added {key} {bad:?}");
                    out += &answer(svc, &label, "/session", join(&more, &manifest).as_bytes());
                }
                continue;
            };
            for bad in *bads {
                let line = format!("{key} {bad}");
                // The bad value alone, before the good one, after it.
                let mut alone = fields.clone();
                alone[at] = line.clone();
                let mut first = fields.clone();
                first.insert(at, line.clone());
                let mut second = fields.clone();
                second.insert(at + 1, line.clone());
                for (how, f) in [
                    ("bad", alone),
                    ("bad then good", first),
                    ("good then bad", second),
                ] {
                    let label = format!("session {name} {key} {how} {bad:?}");
                    out += &answer(svc, &label, "/session", join(&f, &manifest).as_bytes());
                }
            }
        }
        // Lines without a space, in front, in the middle and at the end of
        // the fields; a `manifest` key with a value is a field, not the
        // manifest.
        for (where_, at) in [
            ("first", 0),
            ("middle", fields.len() / 2),
            ("last", fields.len()),
        ] {
            let mut f = fields.clone();
            f.insert(at, "garbage".to_string());
            let label = format!("session {name} spaceless line {where_}");
            out += &answer(svc, &label, "/session", join(&f, &manifest).as_bytes());
        }
        let label = format!("session {name} manifest with a value");
        let body_kv = join(
            &fields,
            &manifest.replacen("manifest\n", "manifest now\n", 1),
        );
        out += &answer(svc, &label, "/session", body_kv.as_bytes());
        // CRLF line ends register like LF ones.
        let crlf = join(
            &fields.iter().map(|l| format!("{l}\r")).collect::<Vec<_>>(),
            &manifest,
        );
        out += &answer(
            svc,
            &format!("session {name} crlf"),
            "/session",
            crlf.as_bytes(),
        );
        // No manifest; manifests that fail to parse.
        let no_manifest: String = fields.iter().map(|l| format!("{l}\n")).collect();
        out += &answer(
            svc,
            &format!("session {name} no manifest"),
            "/session",
            no_manifest.as_bytes(),
        );
        let cut = &body[..body.len() / 2 + fields.len() * 8];
        out += &answer(
            svc,
            &format!("session {name} cut manifest"),
            "/session",
            cut.as_bytes(),
        );
        for (what, doc) in [
            ("empty", ""),
            ("garbage", "<MPD><nope/>\n"),
            ("not xml", "hello\n"),
        ] {
            let label = format!("session {name} {what} manifest");
            let bad = join(&fields, &format!("manifest\n{doc}"));
            out += &answer(svc, &label, "/session", bad.as_bytes());
        }
        // Non-UTF-8 bytes in a value, in a key and in the manifest.
        let mut bytes = body.as_bytes().to_vec();
        let at = body.find("backend ").unwrap() + "backend ".len();
        bytes.insert(at, 0xff);
        out += &answer(
            svc,
            &format!("session {name} non-utf8 value"),
            "/session",
            &bytes,
        );
        let mut bytes = body.as_bytes().to_vec();
        bytes.splice(0..0, *b"\xfe\xfd 3\n");
        out += &answer(
            svc,
            &format!("session {name} non-utf8 key"),
            "/session",
            &bytes,
        );
        let mut bytes = body.as_bytes().to_vec();
        let at = body.find("manifest\n").unwrap() + "manifest\n".len() + 10;
        bytes.insert(at, 0xc3);
        out += &answer(
            svc,
            &format!("session {name} non-utf8 manifest"),
            "/session",
            &bytes,
        );
        out += &answer(svc, &format!("session {name} empty"), "/session", b"");
    }
    // Searches past the 5^9-plan bound: a long horizon, a wide ladder.
    let mut deep = SessionSpec::paper_default(Backend::Mpc, envivio_video());
    deep.horizon = 10;
    out += &answer(
        svc,
        "session mpc horizon 10",
        "/session",
        deep.encode().as_bytes(),
    );
    let ladder = Ladder::geometric(100.0, 10_000.0, 50).unwrap();
    let wide = VideoBuilder::new(ladder).chunks(12).cbr();
    for backend in [Backend::RobustMpc, Backend::FastMpc, Backend::Bb] {
        let spec = SessionSpec::paper_default(backend, wide.clone());
        let label = format!("session {backend} 50 levels");
        out += &answer(svc, &label, "/session", spec.encode().as_bytes());
    }
    out
}

fn decisions(svc: &AbrService) -> String {
    let spec = SessionSpec::paper_default(Backend::Bb, envivio_video());
    let mut out = answer(svc, "session bb", "/session", spec.encode().as_bytes());
    let sid = sid_in(&out);
    let first = DecisionRequest {
        sid,
        chunk: 0,
        buffer_secs: 0.0,
        last: None,
        now_secs: None,
    };
    let later = DecisionRequest {
        sid,
        chunk: 1,
        buffer_secs: 4.5,
        last: Some(LastChunk {
            level: 1,
            throughput_kbps: 900.0,
            download_secs: 2.0,
        }),
        now_secs: None,
    };
    let decision_bodies: Vec<(&str, Vec<u8>)> = vec![
        (
            "non-utf8 value",
            [
                format!("sid {sid}\nchunk 0\nbuffer 0").as_bytes(),
                b"\xff\n",
            ]
            .concat(),
        ),
        (
            "non-utf8 key",
            [
                format!("sid {sid}\nchunk 0\nbuffer 0\n").as_bytes(),
                b"\xfe\xfd 3\n",
            ]
            .concat(),
        ),
        ("non-utf8 sid", b"sid 1\xff\nchunk 0\nbuffer 0\n".to_vec()),
        ("spaceless", b"garbage-no-space\n".to_vec()),
        ("empty", Vec::new()),
        (
            "missing chunk",
            format!("sid {sid}\nbuffer 0\n").into_bytes(),
        ),
        (
            "missing last",
            format!("sid {sid}\nchunk 3\nbuffer 4\n").into_bytes(),
        ),
        (
            "chunk 0 with last",
            format!("sid {sid}\nchunk 0\nbuffer 0\nlast_level 1\nlast_tput 800\nlast_dl 2\n")
                .into_bytes(),
        ),
        (
            "bad now",
            format!("sid {sid}\nchunk 0\nbuffer 0\nnow soon\n").into_bytes(),
        ),
        ("unknown sid", b"sid 424242\nchunk 0\nbuffer 0\n".to_vec()),
        ("first", first.encode().into_bytes()),
        ("repeat", first.encode().into_bytes()),
        (
            "skip",
            DecisionRequest { chunk: 3, ..later }.encode().into_bytes(),
        ),
        (
            "off the ladder",
            DecisionRequest {
                last: Some(LastChunk {
                    level: 9,
                    ..later.last.unwrap()
                }),
                ..later
            }
            .encode()
            .into_bytes(),
        ),
        ("second", later.encode().into_bytes()),
    ];
    for (what, body) in &decision_bodies {
        out += &answer(svc, &format!("decision {what}"), "/decision", body);
    }
    let third = DecisionRequest { chunk: 2, ..later }.encode();
    let bulk_bodies: Vec<(&str, Vec<u8>)> = vec![
        (
            "non-utf8 block",
            [
                format!("count 2\n\n{third}\n").as_bytes(),
                b"sid 9\xff\nchunk 0\nbuffer 0\n",
            ]
            .concat(),
        ),
        (
            "non-utf8 count",
            b"count 1\xff\n\nsid 1\nchunk 0\nbuffer 0\n".to_vec(),
        ),
        ("missing count", third.clone().into_bytes()),
        ("bad count", format!("count two\n\n{third}").into_bytes()),
        ("count mismatch", format!("count 3\n\n{third}").into_bytes()),
        ("huge count", b"count 18446744073709551615\n".to_vec()),
        ("spaceless block", b"count 1\n\ngarbage\n".to_vec()),
        ("empty", Vec::new()),
        ("ok", format!("count 1\n\n{third}").into_bytes()),
    ];
    for (what, body) in &bulk_bodies {
        out += &answer(svc, &format!("decisions {what}"), "/decisions", body);
    }
    let close_bodies: Vec<(&str, Vec<u8>)> = vec![
        (
            "non-utf8 before",
            [b"\xff\n".as_slice(), format!("sid {sid}\n").as_bytes()].concat(),
        ),
        ("non-utf8 sid", b"sid 1\xff\n".to_vec()),
        ("bad sid", b"sid abc\n".to_vec()),
        ("unknown sid", b"sid 424242\n".to_vec()),
        ("no sid", b"close please\n".to_vec()),
        ("empty", Vec::new()),
        ("again", format!("sid {sid}\n").into_bytes()),
    ];
    for (what, body) in &close_bodies {
        out += &answer(svc, &format!("close {what}"), "/close", body);
    }
    out += &answer(svc, "unknown path", "/nope", b"sid 1\n");
    out
}

/// `body` with the value of its `key` line replaced by `value`.
fn with_value(body: &str, key: &str, value: &str) -> String {
    let (mut fields, manifest) = split(body);
    let at = (fields.iter().position(|l| l.split(' ').next() == Some(key)))
        .unwrap_or_else(|| panic!("{key} not in the body"));
    fields[at] = format!("{key} {value}");
    join(&fields, &manifest)
}

/// Values that once ended the process (a window sized by the client) or
/// panicked the handler: each is refused with a 400, or, for a window
/// past the video's chunk count, registered with the window cut to the
/// video, which changes no forecast.
fn hostile_values(svc: &AbrService) -> String {
    let mut out = String::new();
    let vod = SessionSpec::paper_default(Backend::RobustMpc, envivio_video()).encode();
    let fast = SessionSpec::paper_default(Backend::FastMpc, envivio_video()).encode();
    let fast_live = live_spec(Backend::FastMpc).encode();
    let cases: [(&str, &str, &str, &[&str]); 4] = [
        (
            "vod",
            &vod,
            "predictor",
            &[
                "sliding 1000000000000",
                "ar1 1000000000000",
                "sliding 0",
                "ar1 2",
                "ewma 0",
                "ewma 1.5",
                "ewma NaN",
                "crowd -1 1",
                "crowd 100 -1",
                "crowd inf 1",
            ],
        ),
        ("vod", &vod, "error_window", &["1000000000000", "0"]),
        ("fastmpc", &fast, "buffer_max", &["0", "-1", "NaN"]),
        ("fastmpc live", &fast_live, "max_buffer_live", &["0", "-2"]),
    ];
    for (name, body, key, values) in cases {
        for value in values {
            let label = format!("session {name} {key} {value:?}");
            let body = with_value(body, key, value);
            out += &answer(svc, &label, "/session", body.as_bytes());
        }
    }
    // Reported throughputs a predictor cannot observe, at chunk 1 of a
    // session that then keeps deciding.
    let spec = SessionSpec::paper_default(Backend::RobustMpc, envivio_video());
    let registered = answer(svc, "session robustmpc", "/session", spec.encode().as_bytes());
    let sid = sid_in(&registered);
    out += &registered;
    let first = DecisionRequest {
        sid,
        chunk: 0,
        buffer_secs: 0.0,
        last: None,
        now_secs: None,
    };
    out += &answer(svc, "decision chunk 0", "/decision", first.encode().as_bytes());
    let later = |kbps: f64| DecisionRequest {
        chunk: 1,
        buffer_secs: 4.5,
        last: Some(LastChunk {
            level: 1,
            throughput_kbps: kbps,
            download_secs: 2.0,
        }),
        ..first
    };
    for kbps in [0.0, -5.0, f64::NAN, f64::INFINITY] {
        let label = format!("decision last_tput {kbps}");
        out += &answer(svc, &label, "/decision", later(kbps).encode().as_bytes());
    }
    let bulk = format!("count 1\n\n{}", later(-1.0).encode());
    out += &answer(svc, "decisions last_tput -1", "/decisions", bulk.as_bytes());
    out += &answer(svc, "decision chunk 1", "/decision", later(900.0).encode().as_bytes());
    out
}

/// The MPC and RobustMPC sessions the buffer cases decide on, VOD and
/// live; the live ones are not in a bottleneck group.
fn searching_specs() -> Vec<(String, SessionSpec)> {
    let mut specs = Vec::new();
    for backend in [Backend::Mpc, Backend::RobustMpc] {
        specs.push((
            format!("{backend} vod"),
            SessionSpec::paper_default(backend, envivio_video()),
        ));
        let mut live = live_spec(backend);
        live.bottleneck = None;
        specs.push((format!("{backend} live"), live));
    }
    specs
}

/// The request for chunk 0, then for chunk 1 reporting `buffer_secs`
/// (live sessions carry a clock).
fn chunk_requests(sid: u64, live: bool, buffer_secs: f64) -> [DecisionRequest; 2] {
    let first = DecisionRequest {
        sid,
        chunk: 0,
        buffer_secs: 0.0,
        last: None,
        now_secs: live.then_some(2.0),
    };
    let second = DecisionRequest {
        chunk: 1,
        buffer_secs,
        last: Some(LastChunk {
            level: 1,
            throughput_kbps: 900.0,
            download_secs: 2.0,
        }),
        now_secs: live.then_some(7.0),
        ..first
    };
    [first, second]
}

/// A reported buffer the buffer model cannot take (negative, NaN or
/// infinite) once panicked an MPC or RobustMPC handler in a debug build.
/// Each is refused on `/decision` and in every `/decisions` slot, and the
/// session then keeps deciding.
fn bad_buffers(svc: &AbrService) -> String {
    let mut out = String::new();
    let bad = [-1.0, f64::NAN, f64::INFINITY];
    for (name, spec) in searching_specs() {
        let body = spec.encode();
        let registered = answer(svc, &format!("session {name}"), "/session", body.as_bytes());
        let sid = sid_in(&registered);
        out += &registered;
        let live = spec.live.is_some();
        let [first, good] = chunk_requests(sid, live, 3.0);
        let label = format!("decision {name} chunk 0");
        out += &answer(svc, &label, "/decision", first.encode().as_bytes());
        for buffer in bad {
            let [_, req] = chunk_requests(sid, live, buffer);
            let label = format!("decision {name} buffer {buffer}");
            out += &answer(svc, &label, "/decision", req.encode().as_bytes());
        }
        let bulk = encode_bulk(&bad.map(|buffer| chunk_requests(sid, live, buffer)[1]));
        let label = format!("decisions {name} buffers -1, NaN, inf");
        out += &answer(svc, &label, "/decisions", bulk.as_bytes());
        let label = format!("decision {name} chunk 1");
        out += &answer(svc, &label, "/decision", good.encode().as_bytes());
    }
    out
}

/// QoE weights that are negative or not finite, refused for every
/// backend (a FastMPC `lambda -1` once panicked table generation). `w_lat`
/// is set so that every weight is in the body.
fn bad_weights(svc: &AbrService) -> String {
    let mut out = String::new();
    for backend in Backend::ALL {
        let mut spec = SessionSpec::paper_default(backend, envivio_video());
        spec.weights.w_lat = 1.0;
        let body = spec.encode();
        for key in ["lambda", "mu", "mu_s", "mu_event", "w_lat"] {
            for value in ["-1", "NaN", "inf"] {
                let label = format!("session {backend} {key} {value:?}");
                let body = with_value(&body, key, value);
                out += &answer(svc, &label, "/session", body.as_bytes());
            }
        }
    }
    out
}

/// A live clock that is not finite or is negative, refused for every live
/// backend that searches or looks up on it (they all once answered 200 on
/// such a clock) on `/decision` and in every `/decisions` slot; the
/// session then keeps deciding.
fn bad_clocks(svc: &AbrService) -> String {
    let mut out = String::new();
    for backend in [
        Backend::Mpc,
        Backend::RobustMpc,
        Backend::FastMpc,
        Backend::Bb,
    ] {
        let mut spec = live_spec(backend);
        spec.bottleneck = None;
        let label = format!("session {backend} live");
        let registered = answer(svc, &label, "/session", spec.encode().as_bytes());
        let sid = sid_in(&registered);
        out += &registered;
        let [first, good] = chunk_requests(sid, true, 3.0);
        let label = format!("decision {backend} live chunk 0");
        out += &answer(svc, &label, "/decision", first.encode().as_bytes());
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e300].map(|now| DecisionRequest {
            now_secs: Some(now),
            ..good
        });
        for req in &bad {
            let label = format!("decision {backend} live now {:?}", req.now_secs.unwrap());
            out += &answer(svc, &label, "/decision", req.encode().as_bytes());
        }
        let label = format!("decisions {backend} live now NaN, inf, -inf, -1e300");
        out += &answer(svc, &label, "/decisions", encode_bulk(&bad).as_bytes());
        let label = format!("decision {backend} live chunk 1");
        out += &answer(svc, &label, "/decision", good.encode().as_bytes());
    }
    out
}

/// FastMPC registrations of manifests shorter than the table's 5-chunk
/// horizon, VOD and live, with one decision each. Table generation once
/// asserted that the video covered the horizon, so such a registration
/// panicked the handler (and, on an event loop, the loop's thread) while
/// MPC registered the same body; every solve now clips the horizon to the
/// video, as MPC's do.
fn short_manifests(svc: &AbrService) -> String {
    let mut out = String::new();
    for chunks in [1, 3, 4] {
        let video = VideoBuilder::new(envivio_video().ladder().clone())
            .chunks(chunks)
            .cbr();
        for live in [false, true] {
            let mut spec = live_spec(Backend::FastMpc);
            spec.bottleneck = None;
            if !live {
                spec.live = None;
            }
            spec.video = video.clone().into();
            let mode = if live { "live" } else { "vod" };
            let label = format!("session fastmpc {mode} {chunks} chunks");
            let registered = answer(svc, &label, "/session", spec.encode().as_bytes());
            let [first, _] = chunk_requests(sid_in(&registered), live, 3.0);
            out += &registered;
            let label = format!("decision fastmpc {mode} {chunks} chunks chunk 0");
            out += &answer(svc, &label, "/decision", first.encode().as_bytes());
        }
    }
    out
}

#[test]
fn refusals_match_the_golden() {
    let svc = AbrService::new(4);
    let actual = registrations(&svc)
        + &decisions(&svc)
        + &hostile_values(&svc)
        + &bad_buffers(&svc)
        + &bad_weights(&svc)
        + &bad_clocks(&svc)
        + &short_manifests(&svc);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/refusals.txt");
    let Ok(expected) = std::fs::read_to_string(&path) else {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("recorded a new golden at {}", path.display());
        return;
    };
    let diffs: Vec<String> = (expected.lines().zip(actual.lines()).enumerate())
        .filter(|(_, (e, a))| e != a)
        .map(|(i, (e, a))| format!("line {}:\n  golden: {e}\n  actual: {a}", i + 1))
        .collect();
    assert!(
        diffs.is_empty() && expected.lines().count() == actual.lines().count(),
        "{} lines differ from {} ({} golden lines, {} actual); first:\n{}",
        diffs.len(),
        path.display(),
        expected.lines().count(),
        actual.lines().count(),
        diffs[..diffs.len().min(5)].join("\n"),
    );
}

/// A refused buffer leaves no trace on the service. In a debug build an
/// unrefused one panicked the handler on the buffer model's assertion,
/// which poisoned the session's shard lock, so every later request for
/// that session, or for any other session on its shard, panicked too.
/// One shard puts every session on the refused session's lock.
#[test]
fn a_refused_buffer_leaves_the_session_and_its_shard_deciding() {
    let svc = AbrService::new(1);
    for (name, spec) in searching_specs() {
        let live = spec.live.is_some();
        let register = || {
            let resp = post(&svc, "/session", spec.encode().as_bytes());
            assert_eq!(resp.status, 200, "{name}: registration");
            sid_in(&resp.body.escape_ascii().to_string())
        };
        let (refused, neighbour) = (register(), register());
        let decide =
            |req: &DecisionRequest| post(&svc, "/decision", req.encode().as_bytes()).status;
        let [first, good] = chunk_requests(refused, live, 3.0);
        assert_eq!(decide(&first), 200, "{name}: chunk 0");
        for buffer in [-1.0, f64::NAN, f64::INFINITY] {
            let [_, bad] = chunk_requests(refused, live, buffer);
            assert_eq!(decide(&bad), 400, "{name}: buffer {buffer}");
        }
        assert_eq!(decide(&good), 200, "{name}: chunk 1 after the refusals");
        for req in chunk_requests(neighbour, live, 3.0) {
            assert_eq!(decide(&req), 200, "{name}: neighbour chunk {}", req.chunk);
        }
    }
}
