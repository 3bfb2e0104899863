//! Differential coverage for the incremental HTTP request parser.
//!
//! The event-driven server sees request streams in arbitrary fragments —
//! whatever the kernel hands each `read` — so the incremental parser must
//! produce *exactly* the message sequence the one-shot `abr_net::http`
//! parser produces on the whole stream, for every possible byte-wise
//! split. That equivalence is the contract this suite pins: valid
//! pipelined keep-alive streams, the malformed-request corpus, and the
//! size-cap paths (400/413 with the connection surviving).

use abr_net::http::{HttpError, ParseStep, Request, RequestParser, MAX_LINE_BYTES};
use abr_par::{check, SplitMix64};
use std::io::Cursor;

/// Reads the full message sequence with the one-shot parser: complete
/// requests until EOF or the first error.
fn one_shot_requests(wire: &[u8]) -> (Vec<Request<'static>>, Option<String>) {
    let mut cur = Cursor::new(wire);
    let mut msgs = Vec::new();
    loop {
        match Request::read_from(&mut cur) {
            Ok(Some(req)) => msgs.push(req),
            Ok(None) => return (msgs, None),
            Err(e) => return (msgs, Some(e.to_string())),
        }
    }
}

/// Feeds `wire` to the incremental parser in the given fragments and
/// drains everything it produces: complete requests (copied out of the
/// parser they borrow) until the first failure (or until input runs out).
fn incremental_requests(wire: &[u8], cuts: &[usize]) -> (Vec<Request<'static>>, Option<String>) {
    let mut p = RequestParser::new();
    let mut msgs = Vec::new();
    let mut err = None;
    let mut prev = 0;
    for &cut in cuts {
        p.feed(&wire[prev..cut]);
        prev = cut;
        loop {
            match p.next_request() {
                ParseStep::Complete(req) => msgs.push(req.into_owned()),
                ParseStep::Incomplete => break,
                ParseStep::Failed { error, .. } => {
                    if err.is_none() {
                        err = Some(error.to_string());
                    }
                    return (msgs, err);
                }
            }
        }
    }
    p.feed(&wire[prev..]);
    loop {
        match p.next_request() {
            ParseStep::Complete(req) => msgs.push(req.into_owned()),
            ParseStep::Incomplete => break,
            ParseStep::Failed { error, .. } => {
                if err.is_none() {
                    err = Some(error.to_string());
                }
                break;
            }
        }
    }
    (msgs, err)
}

/// Up to `max - 1` cut points inside `len`, sorted and deduped.
fn random_cuts(rng: &mut SplitMix64, len: usize, max: usize) -> Vec<usize> {
    let mut cuts = rng.vec(0..max, |r| r.below(len.max(1)));
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// The malformed inputs the one-shot tests already pin — every one has a
/// complete head, so the incremental parser must report the *identical*
/// error regardless of how the bytes are split.
const MALFORMED_CORPUS: &[&[u8]] = &include!("corpus/malformed.rs");

/// The characters of a generated request path.
const PATH_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/";

/// Any byte-wise split of a valid pipelined request stream parses to
/// exactly the one-shot message sequence.
#[test]
fn any_split_of_valid_stream_matches_one_shot() {
    check(256, |rng| {
        let mut wire = Vec::new();
        for _ in 0..rng.range(1usize..6) {
            let is_post = rng.next_bool();
            let path: String = (0..rng.range(1usize..13))
                .map(|_| PATH_CHARS[rng.below(PATH_CHARS.len())] as char)
                .collect();
            let path = format!("/{path}");
            let body = rng.vec(0..200, |r| r.next_u64() as u8);
            let req = if is_post {
                Request::post(&path, &body, "application/octet-stream")
            } else {
                Request::get(&path)
            };
            req.write_to(&mut wire).unwrap();
        }
        let cuts = random_cuts(rng, wire.len(), 12);
        let (expect, expect_err) = one_shot_requests(&wire);
        let (got, got_err) = incremental_requests(&wire, &cuts);
        assert_eq!(expect_err, None::<String>);
        assert_eq!(got_err, None::<String>);
        assert_eq!(got, expect);
    });
}

/// Same for the malformed corpus: the error (and any requests parsed
/// before it) must match the one-shot parser exactly, split-invariant.
#[test]
fn any_split_of_malformed_corpus_matches_one_shot() {
    check(256, |rng| {
        let corpus_idx = rng.below(MALFORMED_CORPUS.len());
        let mut wire = Vec::new();
        if rng.next_bool() {
            // A good request in front: it must parse before the error.
            Request::post("/ok", b"fine", "text/plain")
                .write_to(&mut wire)
                .unwrap();
        }
        wire.extend_from_slice(MALFORMED_CORPUS[corpus_idx]);
        let cuts = random_cuts(rng, wire.len(), 8);
        let (expect, expect_err) = one_shot_requests(&wire);
        let (got, got_err) = incremental_requests(&wire, &cuts);
        assert!(expect_err.is_some());
        assert_eq!(got_err, expect_err);
        assert_eq!(got, expect);
    });
}

/// A body over the cap yields 413 semantics (`BodyTooLarge`) at any
/// split, and the connection survives: the next request on the same
/// parser still parses.
#[test]
fn oversized_body_survives_at_any_split() {
    const CAP: usize = 256;
    check(256, |rng| {
        let len = CAP + rng.range(1usize..600);
        let mut wire =
            format!("POST /big HTTP/1.1\r\ncontent-length: {len}\r\n\r\n{}", "b".repeat(len))
                .into_bytes();
        Request::get("/after").write_to(&mut wire).unwrap();
        let cuts = random_cuts(rng, wire.len(), 8);
        let mut p = RequestParser::with_cap(CAP);
        let mut prev = 0;
        let mut saw_413 = false;
        let mut after = None;
        for &cut in cuts.iter().chain(std::iter::once(&wire.len())) {
            p.feed(&wire[prev..cut]);
            prev = cut;
            loop {
                match p.next_request() {
                    ParseStep::Complete(req) => after = Some(req.into_owned()),
                    ParseStep::Incomplete => break,
                    ParseStep::Failed { error, recoverable } => {
                        assert!(matches!(error, HttpError::BodyTooLarge { .. }), "{}", error);
                        assert!(recoverable);
                        saw_413 = true;
                    }
                }
            }
        }
        assert!(saw_413);
        let after = after.expect("request after the 413 must parse");
        assert_eq!(after.path(), "/after");
        assert!(p.is_clean());
    });
}

/// An over-long request line or header line yields a recoverable 400
/// at any split; the parser skips the rest of the refused head (request
/// line, one header, blank line) and parses the request behind it,
/// without phantom requests.
#[test]
fn overlong_line_survives_at_any_split() {
    check(256, |rng| {
        let long = "x".repeat(MAX_LINE_BYTES + rng.range(1usize..200));
        let mut wire = if rng.next_bool() {
            format!("GET / HTTP/1.1\r\nx-long: {long}\r\n\r\n")
        } else {
            format!("GET /{long} HTTP/1.1\r\nhost: x\r\n\r\n")
        }
        .into_bytes();
        Request::get("/after").write_to(&mut wire).unwrap();
        let cuts = random_cuts(rng, wire.len(), 8);
        let mut p = RequestParser::new();
        let mut prev = 0;
        let mut saw_400 = false;
        let mut parsed = Vec::new();
        for &cut in cuts.iter().chain(std::iter::once(&wire.len())) {
            p.feed(&wire[prev..cut]);
            prev = cut;
            loop {
                match p.next_request() {
                    ParseStep::Complete(req) => parsed.push(req.into_owned()),
                    ParseStep::Incomplete => break,
                    ParseStep::Failed { error, recoverable } => {
                        assert!(
                            matches!(error, HttpError::Malformed(ref w) if w.contains("line exceeds")),
                            "{}", error
                        );
                        assert!(recoverable);
                        saw_400 = true;
                    }
                }
            }
        }
        assert!(saw_400);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].path(), "/after");
        assert!(p.is_clean());
    });
}

/// A truncated stream (any prefix of a valid stream) never errors and
/// never invents a message beyond what its bytes contain.
#[test]
fn prefixes_never_invent_messages() {
    check(256, |rng| {
        let body_len = rng.range(0usize..200);
        let mut wire = Vec::new();
        Request::post("/x", &vec![7u8; body_len], "text/plain")
            .write_to(&mut wire)
            .unwrap();
        let take = rng.below(wire.len() + 1);
        let mut p = RequestParser::new();
        p.feed(&wire[..take]);
        match p.next_request() {
            ParseStep::Complete(req) => {
                assert_eq!(take, wire.len());
                assert_eq!(req.body().len(), body_len);
                assert!(p.is_clean());
            }
            ParseStep::Incomplete => {
                assert!(take < wire.len());
                assert_eq!(p.is_clean(), take == 0);
            }
            ParseStep::Failed { error, .. } => {
                panic!("prefix failed: {}", error);
            }
        }
    });
}
