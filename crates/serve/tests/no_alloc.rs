//! Pins two allocation budgets, each through the three stages the event
//! loop runs. After warm-up, one FastMPC `POST /decision` costs none:
//!
//! * `RequestParser::next_request`: the parsed `Request` borrows the
//!   parser's buffer, which is reused across requests;
//! * `AbrService::handle`: the reply body is a static `level N` line;
//! * `Response::write_to`: the response head carries no header strings and
//!   is written straight into the connection's output buffer.
//!
//! A repeat `POST /session` of a manifest the service has interned (its
//! FastMPC table already generated) costs none to parse, at most seven to
//! handle — the session's own state and the reply; the body is decoded
//! where it lies, in one pass, and nothing is sized by the video — and none
//! to encode.
//!
//! Lives in its own integration-test binary so the counting global
//! allocator cannot interfere with any other test.

use abr_net::http::{ParseStep, Request, RequestParser};
use abr_serve::{AbrService, Backend, DecisionReply, DecisionRequest, LastChunk, SessionSpec};
use abr_video::envivio_video;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Wraps the system allocator, counting every allocation per thread, so
/// set-up work in concurrently running tests never lands in another
/// test's measured section.
struct CountingAlloc;

// SAFETY: every call forwards unchanged to `System`; the counter is a
// const-initialized thread-local that never allocates, and `try_with`
// skips counting during thread teardown instead of panicking.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on the calling thread (no measured section
/// leaves its thread).
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Decisions that size the parser's and the output's reusable buffers.
const WARM_UP: usize = 4;

#[test]
fn decision_hot_path_stays_within_its_allocation_budget() {
    let video = envivio_video();
    let service = AbrService::new(4);
    let spec = SessionSpec::paper_default(Backend::FastMpc, video.clone());
    let registered = service.handle(&Request::post(
        "/session",
        spec.encode().as_bytes(),
        "text/plain",
    ));
    let sid: u64 = String::from_utf8_lossy(&registered.body)
        .trim()
        .strip_prefix("sid ")
        .expect("registration answers with a sid")
        .parse()
        .unwrap();

    let mut parser = RequestParser::new();
    let mut wire_in = Vec::new();
    let mut wire_out = Vec::new();
    let mut last = None;
    let mut budgets = Vec::new();
    for chunk in 0..video.num_chunks() {
        let req = DecisionRequest {
            sid,
            chunk,
            buffer_secs: 6.0 + (chunk % 5) as f64 * 1.75,
            last,
            now_secs: None,
        };
        wire_in.clear();
        Request::post("/decision", req.encode().as_bytes(), "text/plain")
            .write_to(&mut wire_in)
            .unwrap();

        let (parse, req) = allocations(|| {
            parser.feed(&wire_in);
            match parser.next_request() {
                ParseStep::Complete(req) => req,
                other => panic!("chunk {chunk}: {other:?}"),
            }
        });
        let (handle, resp) = allocations(|| service.handle(&req));
        assert_eq!(resp.status, 200, "chunk {chunk}");
        let (encode, ()) = allocations(|| {
            wire_out.clear();
            resp.write_to(&mut wire_out).unwrap();
        });

        let reply = DecisionReply::decode(&String::from_utf8_lossy(&resp.body)).unwrap();
        last = Some(LastChunk {
            level: reply.level,
            throughput_kbps: 1_800.0 + 37.0 * chunk as f64,
            download_secs: 1.5,
        });
        if chunk >= WARM_UP {
            budgets.push((chunk, parse, handle, encode));
        }
    }
    for &(chunk, parse, handle, encode) in &budgets {
        assert_eq!(parse, 0, "chunk {chunk}: parse allocated {parse} times");
        assert_eq!(handle, 0, "chunk {chunk}: handle allocated {handle} times");
        assert_eq!(encode, 0, "chunk {chunk}: encode allocated {encode} times");
    }
    assert!(
        budgets.len() > 50,
        "too few steady-state decisions measured"
    );
}

/// What handling a repeat registration may allocate: the session's
/// controller, predictor, error window and low-buffer history, and the
/// reply body.
const REGISTRATION_HANDLE_BUDGET: u64 = 7;

#[test]
fn repeat_registration_stays_within_its_allocation_budget() {
    let service = AbrService::new(4);
    let spec = SessionSpec::paper_default(Backend::FastMpc, envivio_video());
    let mut wire_in = Vec::new();
    Request::post("/session", spec.encode().as_bytes(), "text/plain")
        .write_to(&mut wire_in)
        .unwrap();
    let mut parser = RequestParser::new();
    let mut wire_out = Vec::new();
    let mut budgets = Vec::new();
    for round in 0..40 {
        let (parse, req) = allocations(|| {
            parser.feed(&wire_in);
            match parser.next_request() {
                ParseStep::Complete(req) => req,
                other => panic!("round {round}: {other:?}"),
            }
        });
        let (handle, resp) = allocations(|| service.handle(&req));
        assert_eq!(resp.status, 200, "round {round}");
        let (encode, ()) = allocations(|| {
            wire_out.clear();
            resp.write_to(&mut wire_out).unwrap();
        });
        // Closed again, unmeasured, so the session map never grows.
        let sid = String::from_utf8_lossy(&resp.body)
            .trim()
            .replace("sid ", "");
        let close = Request::post("/close", format!("sid {sid}\n").as_bytes(), "text/plain");
        assert_eq!(service.handle(&close).status, 200, "round {round}");
        if round >= WARM_UP {
            budgets.push((round, parse, handle, encode));
        }
    }
    for &(round, parse, handle, encode) in &budgets {
        assert_eq!(parse, 0, "round {round}: parse allocated {parse} times");
        assert!(
            handle <= REGISTRATION_HANDLE_BUDGET,
            "round {round}: handle allocated {handle} times"
        );
        assert_eq!(encode, 0, "round {round}: encode allocated {encode} times");
    }
    assert_eq!(service.store().tables().stats().generates, 1);
}
