//! End-to-end serving-tier test: a supervised two-shard fleet behind
//! the pattern-hash router, with an induced shard crash mid-load.
//!
//! The acceptance contract under test: killing a shard loses **zero
//! accepted tickets** — every in-flight step on the dead shard resolves
//! to a clean `ShardUnavailable` error (never a hang), the supervisor
//! respawns the shard, and subsequent steps on the same patterns
//! succeed after the router transparently re-establishes the streams.

use basker_api::STREAM_QUEUE_BOUND;
use basker_api::{Engine, ReusePolicy};
use basker_serve::client::{Client, ClientError};
use basker_serve::proto::{
    decode_response, encode_step, kind, pattern_hash, ErrCode, OpenRequest, Request, Response,
};
use basker_serve::router::MAX_OUTSTANDING;
use basker_serve::server::REPLY_QUEUE_BOUND;
use basker_serve::shard::{ShardSet, ShardSpec};
use basker_serve::wire::{Addr, Listener};
use basker_serve::Router;
use basker_sparse::spmv::spmv;
use basker_sparse::{CscMat, TripletMat};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A nonsingular tridiagonal pattern of dimension `n`; distinct `n`
/// gives distinct pattern hashes, spreading streams across shards.
fn tridiag(n: usize, scale: f64) -> CscMat {
    let mut t = TripletMat::new(n, n);
    for i in 0..n {
        t.push(i, i, (4.0 + i as f64 * 0.01) * scale);
        if i + 1 < n {
            t.push(i, i + 1, -scale);
            t.push(i + 1, i, -scale);
        }
    }
    t.to_csc()
}

fn open_request(n: usize) -> OpenRequest {
    OpenRequest {
        engine: Engine::Auto,
        policy: ReusePolicy::adaptive(),
        target_residual: 1e-10,
        max_refine_iterations: 6,
        matrix: tridiag(n, 1.0),
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("basker-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("socket dir");
    d
}

/// A test's shard fleet, shut down when the test ends, a failing one
/// included: a router handler stuck on a request keeps its `Arc` alive,
/// so the `ShardSet`'s own `Drop` would never run and the shard
/// processes would outlive the test.
struct Fleet(Arc<ShardSet>);

impl std::ops::Deref for Fleet {
    type Target = Arc<ShardSet>;
    fn deref(&self) -> &Arc<ShardSet> {
        &self.0
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.0.shutdown_all();
    }
}

fn fleet(tag: &str, shards: usize) -> Fleet {
    let mut spec = ShardSpec::new(env!("CARGO_BIN_EXE_shardd"), shards, temp_dir(tag));
    spec.threads = 2;
    Fleet(Arc::new(ShardSet::spawn(spec).expect("spawn fleet")))
}

/// Joins `workers`, failing the test with `status()` if they have not
/// all finished within `limit`: a worker stuck on a request must fail
/// the test, not hang it.
fn join_within<T>(
    workers: Vec<thread::JoinHandle<T>>,
    limit: Duration,
    status: impl Fn() -> String,
) -> Vec<T> {
    let deadline = Instant::now() + limit;
    while !workers.iter().all(|w| w.is_finished()) {
        assert!(
            Instant::now() < deadline,
            "workers still running after {limit:?}: {}",
            status()
        );
        thread::sleep(Duration::from_millis(10));
    }
    workers
        .into_iter()
        .map(|w| w.join().expect("worker thread"))
        .collect()
}

/// Talk straight to one shard: open, step, stats, close — the wire
/// protocol round-trips against a real `shardd` process.
#[test]
fn direct_shard_roundtrip() {
    let set = fleet("direct", 1);
    let mut cl = Client::connect(&set.addr(0)).expect("connect shard");
    cl.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    assert_eq!(cl.ping().expect("ping"), 0, "fresh shard is epoch 0");

    let n = 32;
    let (stream, hash) = cl.open_stream(&open_request(n)).expect("open");
    assert_ne!(hash, 0);
    for s in 0..3 {
        let m = tridiag(n, 1.0 + 0.01 * s as f64);
        let rhs = vec![1.0; n];
        let reply = cl.step(stream, true, m.values(), &rhs).expect("step");
        assert_eq!(reply.x.len(), n);
        let q = reply.quality[0];
        assert!(q.converged, "step {s}: residual {:.2e}", q.residual);
    }
    let stats = cl.stats().expect("stats");
    assert_eq!(stats.shards.len(), 1);
    assert_eq!(stats.shards[0].steps, 3);
    assert_eq!(stats.shards[0].errors, 0);
    cl.close_stream(stream).expect("close");

    // Unknown streams and oversized value vectors answer clean
    // protocol errors, not hangs or disconnects.
    match cl.step(9999, false, &[1.0], &[1.0]) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert_eq!(cl.ping().expect("conn still usable"), 0);
}

/// The error a raw exchange was answered with; panics on anything else.
fn exchanged_error(cl: &mut Client, payload: &[u8]) -> basker_serve::WireError {
    let mut reply = Vec::new();
    let k = cl
        .exchange(kind::STEP, payload, &mut reply)
        .expect("answered under the request's id");
    match decode_response(k, &reply).expect("a well-formed reply") {
        Response::Err(e) => e,
        other => panic!("expected an error reply, got {other:?}"),
    }
}

/// The router forwards `Step` frames as bytes: a malformed one comes
/// back as the shard's protocol error under the client's `req_id`, a
/// frame the router cannot route is answered by the router itself, and
/// a forwarded step is bit-identical to the same step sent straight to
/// the shard.
#[test]
fn router_forwards_step_frames_as_bytes() {
    let set = fleet("forward", 1);
    let listener =
        Listener::bind(&Addr::Uds(temp_dir("forward").join("router.sock"))).expect("bind router");
    let router = Router::start(listener, set.clone()).expect("start router");
    let mut routed = Client::connect(&router.addr()).expect("router conn");
    let mut direct = Client::connect(&set.addr(0)).expect("shard conn");
    for cl in [&mut routed, &mut direct] {
        cl.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    }
    let n = 30;
    let (stream, _) = routed.open_stream(&open_request(n)).expect("open routed");
    let (direct_stream, _) = direct.open_stream(&open_request(n)).expect("open direct");

    let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    for s in 0..3 {
        let m = tridiag(n, 1.0 + 0.02 * s as f64);
        let rhs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let a = routed.step(stream, true, m.values(), &rhs).expect("routed");
        let b = direct
            .step(direct_stream, true, m.values(), &rhs)
            .expect("direct");
        assert_eq!(a.state, b.state, "step {s}");
        assert_eq!(bits(&a.x), bits(&b.x), "step {s}: x");
        assert_eq!(a.quality.len(), b.quality.len());
        for (qa, qb) in a.quality.iter().zip(&b.quality) {
            assert_eq!((qa.iterations, qa.converged), (qb.iterations, qb.converged));
            assert_eq!(
                (qa.initial_residual.to_bits(), qa.residual.to_bits()),
                (qb.initial_residual.to_bits(), qb.residual.to_bits()),
                "step {s}: quality"
            );
        }
    }

    // A values slice cut short: the shard's decode rejects it, and the
    // router passes the error back and counts it.
    let m = tridiag(n, 1.5);
    let rhs = vec![1.0; n];
    let before = routed.stats().expect("stats").router;
    let full = encode_step(stream, true, m.values(), &rhs);
    let cut = 8 + 1 + 4 + 8 * (m.nnz() / 2);
    let e = exchanged_error(&mut routed, &full[..cut]);
    assert_eq!(e.code, ErrCode::Protocol, "{e}");
    let after = routed.stats().expect("stats").router;
    assert_eq!(after.errors, before.errors + 1);
    assert_eq!(after.steps, before.steps + 1, "the frame was forwarded");
    assert_eq!((after.respawns, after.failovers), (0, 0));
    let ok = routed
        .step(stream, true, m.values(), &rhs)
        .expect("next step");
    assert!(ok.quality[0].converged);

    // Too short to hold a stream id, and an unknown stream: the router
    // answers both itself, forwarding nothing.
    let before = routed.stats().expect("stats").router;
    let e = exchanged_error(&mut routed, &full[..7]);
    assert_eq!(e.code, ErrCode::Protocol, "{e}");
    assert!(e.message.contains("no stream id"), "{e}");
    let mut unknown = full.clone();
    unknown[..8].copy_from_slice(&9999u64.to_le_bytes());
    let e = exchanged_error(&mut routed, &unknown);
    assert_eq!(e.code, ErrCode::Protocol, "{e}");
    assert!(e.message.contains("unknown stream 9999"), "{e}");
    let after = routed.stats().expect("stats").router;
    assert_eq!(after.errors, before.errors + 2);
    assert_eq!(after.steps, before.steps, "nothing was forwarded");
    assert!(
        routed
            .step(stream, true, m.values(), &rhs)
            .expect("still usable")
            .quality[0]
            .converged
    );
}

/// The headline test: crash a shard under concurrent load through the
/// router and account for every single request.
#[test]
fn induced_shard_crash_loses_no_tickets() {
    let set = fleet("crash", 2);
    let listener =
        Listener::bind(&Addr::Uds(temp_dir("crash").join("router.sock"))).expect("bind router");
    let router = Router::start(listener, set.clone()).expect("start router");
    let addr = router.addr();

    // Open streams over four distinct patterns; record who lives where.
    let dims = [24usize, 25, 26, 27];
    let mut probe = Client::connect(&addr).expect("probe conn");
    probe
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let placements: Vec<(usize, u64)> = dims
        .iter()
        .map(|&n| {
            let (_, hash) = probe.open_stream(&open_request(n)).expect("probe open");
            (n, hash)
        })
        .collect();
    let victim = (placements[0].1 % 2) as usize;
    assert!(
        placements.iter().any(|(_, h)| (h % 2) as usize != victim),
        "need at least one stream on the surviving shard"
    );

    // Concurrent load: one client thread per pattern, each with its own
    // connection and stream, stepping continuously.
    let requests = Arc::new(AtomicU64::new(0));
    let answered = Arc::new(AtomicU64::new(0));
    let clean_errors = Arc::new(AtomicU64::new(0));
    let rounds = 40;
    let workers: Vec<_> = dims
        .iter()
        .map(|&n| {
            let addr = addr.clone();
            let requests = requests.clone();
            let answered = answered.clone();
            let clean_errors = clean_errors.clone();
            thread::spawn(move || {
                let mut cl = Client::connect(&addr).expect("worker conn");
                cl.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                let (stream, hash) = cl.open_stream(&open_request(n)).expect("worker open");
                let my_shard = (hash % 2) as usize;
                let mut errors_here = 0u64;
                for s in 0..rounds {
                    let m = tridiag(n, 1.0 + 0.005 * s as f64);
                    let rhs = vec![1.0; n];
                    requests.fetch_add(1, Ordering::SeqCst);
                    match cl.step(stream, true, m.values(), &rhs) {
                        Ok(_) => {
                            answered.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(ClientError::Remote(e)) if e.code == ErrCode::ShardUnavailable => {
                            answered.fetch_add(1, Ordering::SeqCst);
                            clean_errors.fetch_add(1, Ordering::SeqCst);
                            errors_here += 1;
                        }
                        Err(e) => panic!("stream on shard {my_shard}: dirty failure: {e}"),
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                (stream, n, my_shard, errors_here, cl)
            })
        })
        .collect();

    let counts = || {
        format!(
            "{} requests, {} answered, {} clean errors",
            requests.load(Ordering::SeqCst),
            answered.load(Ordering::SeqCst),
            clean_errors.load(Ordering::SeqCst)
        )
    };

    // Hard-kill the victim shard once half the load is through, so
    // requests are genuinely in flight on it. A worker that is done
    // already (finished or panicked) ends the wait: the join reports
    // a panic.
    let halfway = (dims.len() * rounds / 2) as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while answered.load(Ordering::SeqCst) < halfway && !workers.iter().any(|w| w.is_finished()) {
        assert!(
            Instant::now() < deadline,
            "load stalled short of halfway ({halfway}): {}",
            counts()
        );
        thread::sleep(Duration::from_millis(2));
    }
    set.kill(victim);

    // Past the workers' 60 s read timeout, so a stuck request surfaces
    // as that worker's own failure first.
    let finished = join_within(workers, Duration::from_secs(120), counts);

    // Zero ticket loss: every request was answered, success or clean
    // error — nothing dropped, nothing hung.
    assert_eq!(
        requests.load(Ordering::SeqCst),
        answered.load(Ordering::SeqCst),
        "every accepted request must be answered"
    );
    // The crash was observed and repaired (the router's report_down or
    // the supervisor's health loop — whichever saw it first).
    let deadline = Instant::now() + Duration::from_secs(10);
    while set.respawns() == 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(20));
    }
    assert!(
        set.respawns() >= 1,
        "the killed shard must have been respawned"
    );
    // Streams on the surviving shard never errored.
    for (_, _, shard, errors_here, _) in &finished {
        if *shard != victim {
            assert_eq!(
                *errors_here, 0,
                "streams on the surviving shard must be unaffected"
            );
        }
    }

    // Subsequent steps on every stream — including those whose shard
    // died — succeed: the router re-opens them on the respawned
    // process from the retained open requests.
    for (stream, n, _, _, mut cl) in finished {
        let m = tridiag(n, 2.0);
        let rhs = vec![1.0; n];
        let mut ok = false;
        for _try in 0..10 {
            match cl.step(stream, true, m.values(), &rhs) {
                Ok(reply) => {
                    assert!(reply.quality[0].converged);
                    ok = true;
                    break;
                }
                Err(ClientError::Remote(e)) if e.code == ErrCode::ShardUnavailable => {
                    // Respawn window: retry.
                    thread::sleep(Duration::from_millis(100));
                }
                Err(e) => panic!("post-respawn step failed hard: {e}"),
            }
        }
        assert!(ok, "stream {stream} must step successfully after respawn");
    }

    // The tier's own accounting agrees.
    let stats = probe.stats().expect("stats");
    assert!(stats.router.respawns >= 1);
    assert_eq!(stats.shards.len(), 2);
}

/// Streams over distinct patterns through `cl` until both shards of a
/// two-shard fleet host `per_shard` of them: `(stream, n)` pairs.
fn streams_on_both_shards(cl: &mut Client, per_shard: usize) -> Vec<(u64, usize)> {
    let mut hosted = [0usize; 2];
    let mut streams = Vec::new();
    for n in 20..80 {
        if hosted.iter().all(|&h| h >= per_shard) {
            break;
        }
        let shard = (pattern_hash(&tridiag(n, 1.0)) % 2) as usize;
        if hosted[shard] < per_shard {
            let (stream, _) = cl.open_stream(&open_request(n)).expect("open");
            streams.push((stream, n));
            hosted[shard] += 1;
        }
    }
    assert_eq!(hosted, [per_shard; 2], "patterns for both shards");
    streams
}

/// Drives `total` steps round robin over `streams` on one connection,
/// keeping `depth` in flight, and returns each step's outcome in
/// request order: the reply's relative residual, or the error code it
/// was answered with. Every reply must come back in request order;
/// `answered` counts them as they arrive.
fn pipelined(
    cl: &mut Client,
    streams: &[(u64, usize)],
    total: usize,
    depth: usize,
    answered: &AtomicU64,
) -> Vec<Result<f64, ErrCode>> {
    let mut inflight = std::collections::VecDeque::new();
    let mut outcomes = Vec::with_capacity(total);
    let mut sent = 0;
    while outcomes.len() < total {
        while inflight.len() < depth && sent < total {
            let (stream, n) = streams[sent % streams.len()];
            let a = tridiag(n, 1.0 + 0.003 * sent as f64);
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
            let id = cl
                .send(&Request::Step {
                    stream,
                    refined: true,
                    values: a.values().to_vec(),
                    rhs: b.clone(),
                })
                .expect("send");
            inflight.push_back((id, a, b));
            sent += 1;
        }
        let (id, a, b) = inflight.pop_front().expect("a step in flight");
        let (got, resp) = cl.recv().expect("every request is answered");
        assert_eq!(got, id, "replies come back in request order");
        answered.fetch_add(1, Ordering::SeqCst);
        outcomes.push(match resp {
            Response::Step { x, .. } => {
                let ax = spmv(&a, &x);
                let r = ax
                    .iter()
                    .zip(&b)
                    .map(|(u, v)| (u - v).abs())
                    .fold(0.0, f64::max);
                Ok(r / b.iter().fold(0.0, |m: f64, v| m.max(v.abs())))
            }
            Response::Err(e) => Err(e.code),
            other => panic!("step {id} answered with {other:?}"),
        });
    }
    outcomes
}

/// One connection keeps more steps in flight than the router lets
/// through at once, over streams on both shards: every reply comes
/// back in request order with a solution that checks out.
#[test]
fn pipelined_steps_answer_in_request_order() {
    let set = fleet("pipeline", 2);
    let listener =
        Listener::bind(&Addr::Uds(temp_dir("pipeline").join("router.sock"))).expect("bind router");
    let router = Router::start(listener, set.clone()).expect("start router");
    let addr = router.addr();
    let answered = Arc::new(AtomicU64::new(0));
    let worker = {
        let answered = answered.clone();
        thread::spawn(move || {
            let mut cl = Client::connect(&addr).expect("conn");
            cl.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            let streams = streams_on_both_shards(&mut cl, 3);
            let outcomes = pipelined(&mut cl, &streams, 120, MAX_OUTSTANDING + 2, &answered);
            (outcomes, cl.stats().expect("stats"))
        })
    };
    let mut done = join_within(vec![worker], Duration::from_secs(120), || {
        format!("{} answered", answered.load(Ordering::SeqCst))
    });
    let (outcomes, stats) = done.remove(0);
    for (k, o) in outcomes.iter().enumerate() {
        match o {
            Ok(r) => assert!(*r < 1e-9, "step {k}: residual {r:.2e}"),
            Err(code) => panic!("step {k} failed: {code:?}"),
        }
    }
    assert_eq!(stats.router.steps, 120);
    assert_eq!((stats.router.errors, stats.router.failovers), (0, 0));
    assert!(
        stats.shards.iter().all(|s| s.steps > 0),
        "both shards served"
    );
}

/// A shard is killed while one connection keeps steps in flight on
/// both shards: every request is answered, in order, with a solution
/// or a clean `ShardUnavailable`, and later steps re-open their
/// streams on the respawned shard.
#[test]
fn shard_crash_with_steps_outstanding_answers_in_order() {
    let set = fleet("pipecrash", 2);
    let listener =
        Listener::bind(&Addr::Uds(temp_dir("pipecrash").join("router.sock"))).expect("bind router");
    let router = Router::start(listener, set.clone()).expect("start router");
    let addr = router.addr();
    let answered = Arc::new(AtomicU64::new(0));
    let total = 400;
    let worker = {
        let answered = answered.clone();
        thread::spawn(move || {
            let mut cl = Client::connect(&addr).expect("conn");
            cl.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            let streams = streams_on_both_shards(&mut cl, 2);
            let outcomes = pipelined(&mut cl, &streams, total, MAX_OUTSTANDING, &answered);
            (outcomes, streams, cl)
        })
    };
    let count = || format!("{} of {total} answered", answered.load(Ordering::SeqCst));
    let deadline = Instant::now() + Duration::from_secs(60);
    while answered.load(Ordering::SeqCst) < total as u64 / 4 && !worker.is_finished() {
        assert!(Instant::now() < deadline, "load stalled: {}", count());
        thread::sleep(Duration::from_millis(1));
    }
    set.kill(0);
    let (outcomes, streams, mut cl) = join_within(vec![worker], Duration::from_secs(120), count)
        .pop()
        .expect("one worker");

    // Each outcome is a solution or a clean error; every step on the
    // surviving shard succeeded.
    let mut unavailable = 0;
    for (k, o) in outcomes.iter().enumerate() {
        let (_, n) = streams[k % streams.len()];
        let on_victim = pattern_hash(&tridiag(n, 1.0)) % 2 == 0;
        match o {
            Ok(r) => assert!(*r < 1e-9, "step {k}: residual {r:.2e}"),
            Err(ErrCode::ShardUnavailable) if on_victim => unavailable += 1,
            Err(code) => panic!("step {k} (victim's: {on_victim}): {code:?}"),
        }
    }
    assert!(unavailable > 0, "the kill caught steps outstanding");

    // Later steps on every stream succeed, re-opened on the respawned
    // shard.
    for &(stream, n) in &streams {
        let m = tridiag(n, 2.0);
        let rhs = vec![1.0; n];
        let ok = (0..20).any(|_| match cl.step(stream, true, m.values(), &rhs) {
            Ok(reply) => reply.quality[0].converged,
            Err(ClientError::Remote(e)) if e.code == ErrCode::ShardUnavailable => {
                thread::sleep(Duration::from_millis(100));
                false
            }
            Err(e) => panic!("stream {stream}: {e}"),
        });
        assert!(ok, "stream {stream} steps again after the respawn");
    }
    let stats = cl.stats().expect("stats");
    assert!(stats.router.respawns >= 1 && stats.router.failovers >= 1);
    assert!(stats.router.reopens >= 1, "{:?}", stats.router);
}

/// A client writes ten times the router's bound of steps without
/// reading, with replies too large for the sockets to hold. Nothing
/// deadlocks: the router stops reading the connection, and another
/// connection's step goes through the same shard meanwhile. Once the
/// client reads, every request is answered, in order.
#[test]
fn a_client_that_floods_without_reading_wedges_nothing() {
    let set = fleet("flood", 1);
    let listener =
        Listener::bind(&Addr::Uds(temp_dir("flood").join("router.sock"))).expect("bind router");
    let router = Router::start(listener, set.clone()).expect("start router");
    let n = 20_000;
    let a = tridiag(n, 1.0);
    let b = vec![1.0; n];
    let cl = Client::connect(&router.addr()).expect("flood conn");
    cl.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut cl = cl;
    let (stream, _) = cl.open_stream(&open_request(n)).expect("open");
    let (mut tx, mut rx) = cl.split();

    let flood = 10 * MAX_OUTSTANDING;
    let written = Arc::new(AtomicU64::new(0));
    let writer = {
        let written = written.clone();
        let payload = encode_step(stream, true, a.values(), &b);
        thread::spawn(move || {
            for _ in 0..flood {
                tx.send_frame(kind::STEP, &payload).expect("write");
                written.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    // Let the flood fill every buffer on the way.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last = (0, Instant::now());
    while !writer.is_finished() && last.1.elapsed() < Duration::from_millis(500) {
        assert!(Instant::now() < deadline, "the flood never settled");
        let w = written.load(Ordering::SeqCst);
        if w != last.0 {
            last = (w, Instant::now());
        }
        thread::sleep(Duration::from_millis(10));
    }

    // Meanwhile another connection steps through the same shard.
    let other = {
        let addr = router.addr();
        thread::spawn(move || {
            let mut cl = Client::connect(&addr).expect("second conn");
            cl.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            let (s, _) = cl.open_stream(&open_request(64)).expect("open");
            let m = tridiag(64, 1.0);
            cl.step(s, true, m.values(), &vec![1.0; 64]).expect("step")
        })
    };
    let reply = join_within(vec![other], Duration::from_secs(60), || {
        "the second connection is wedged".into()
    });
    assert!(reply[0].quality[0].converged);

    // Now read: every request is answered, in order.
    let reader = thread::spawn(move || {
        for id in 0..flood as u64 {
            match rx.recv() {
                Ok((got, Response::Step { quality, .. })) => {
                    assert_eq!(got, id + 2, "in request order (1 was the open)");
                    assert!(quality[0].converged, "step {got}");
                }
                other => panic!("request {}: {other:?}", id + 2),
            }
        }
    });
    join_within(vec![writer, reader], Duration::from_secs(120), || {
        format!("{} of {flood} written", written.load(Ordering::SeqCst))
    });
}

/// A respawn holds the supervisor's slot table while the next `shardd`
/// starts and answers pings. Shard 0 respawns through a wrapper that
/// sleeps before it starts `shardd`; meanwhile every step on shard 1's
/// streams answers within a fraction of that sleep.
#[test]
fn a_respawn_stalls_no_other_shard() {
    const SLEEP: Duration = Duration::from_secs(2);
    const DEADLINE: Duration = Duration::from_millis(400);
    let dir = temp_dir("slowspawn");
    let (wrapper, respawning) = (dir.join("slow-shardd.sh"), dir.join("respawning"));
    let _ = std::fs::remove_file(&respawning);
    // Epoch 0 starts at once; a respawn marks its start, then sleeps.
    let script = format!(
        "#!/bin/sh\ncase \"$*\" in *\"--epoch 0\"*) ;; *) touch '{}'; sleep {} ;; esac\nexec '{}' \"$@\"\n",
        respawning.display(),
        SLEEP.as_secs(),
        env!("CARGO_BIN_EXE_shardd"),
    );
    std::fs::write(&wrapper, script).expect("wrapper script");
    {
        use std::os::unix::fs::PermissionsExt;
        let mode = std::fs::Permissions::from_mode(0o755);
        std::fs::set_permissions(&wrapper, mode).expect("chmod");
    }
    let mut spec = ShardSpec::new(&wrapper, 2, &dir);
    spec.threads = 1;
    let set = Fleet(Arc::new(ShardSet::spawn(spec).expect("spawn fleet")));
    let listener = Listener::bind(&Addr::Uds(dir.join("router.sock"))).expect("bind router");
    let router = Router::start(listener, set.clone()).expect("start router");
    let mut cl = Client::connect(&router.addr()).expect("conn");
    cl.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let streams: Vec<(u64, usize)> = (20..80)
        .filter(|&n| pattern_hash(&tridiag(n, 1.0)) % 2 == 1)
        .take(2)
        .map(|n| (cl.open_stream(&open_request(n)).expect("open").0, n))
        .collect();
    let step = |cl: &mut Client, (stream, n): (u64, usize), s: usize| {
        let m = tridiag(n, 1.0 + 0.001 * s as f64);
        let t = Instant::now();
        let reply = cl.step(stream, true, m.values(), &vec![1.0; n]);
        assert!(reply.expect("step").quality[0].converged);
        t.elapsed()
    };
    for &st in &streams {
        step(&mut cl, st, 0);
    }

    // Respawn shard 0 and wait until its wrapper has started: the slot
    // table stays locked for the rest of its sleep.
    let respawner = {
        let set = set.0.clone();
        thread::spawn(move || {
            set.kill(0);
            let t = Instant::now();
            (set.report_down(0, 0), t.elapsed())
        })
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while !respawning.exists() {
        assert!(Instant::now() < deadline, "the respawn never started");
        thread::sleep(Duration::from_millis(5));
    }
    let stepping = Instant::now();
    let worker = thread::spawn(move || {
        let mut slowest = Duration::ZERO;
        for s in 1..=50 {
            slowest = slowest.max(step(&mut cl, streams[s % 2], s));
            if stepping.elapsed() > SLEEP / 2 {
                break;
            }
        }
        slowest
    });
    let slowest = join_within(vec![worker], Duration::from_secs(60), || {
        "steps on shard 1 are stuck".into()
    });
    assert!(
        slowest[0] < DEADLINE,
        "a step on shard 1 took {:?} while shard 0 respawned",
        slowest[0]
    );
    let (epoch, took) = join_within(vec![respawner], Duration::from_secs(60), || {
        "the respawn is stuck".into()
    })
    .remove(0);
    assert_eq!(epoch, 1, "shard 0 respawned once");
    assert!(took >= SLEEP, "the respawn slept: {took:?}");
}

/// A client connected straight to a shard writes ten times the reply
/// queue's bound of large steps without reading. The shard stops
/// reading it once the queue is full: another connection's `Stats`
/// shows no more steps executed than the queue, the stream's own queue
/// and the replies the sockets hold. Once the client reads, every
/// request is answered, in order.
#[test]
fn a_direct_client_that_floods_without_reading_is_held_back() {
    // The replies the two sockets' buffers hold: a reply carries a
    // 160 KB solution, and a Unix socket buffers some 200 KB.
    const SOCKET_REPLIES: usize = 2;
    let set = fleet("backpressure", 1);
    let n = 20_000;
    let a = tridiag(n, 1.0);
    let b = vec![1.0; n];
    let mut cl = Client::connect(&set.addr(0)).expect("flood conn");
    cl.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let (stream, _) = cl.open_stream(&open_request(n)).expect("open");
    let (mut tx, mut rx) = cl.split();

    let flood = 10 * REPLY_QUEUE_BOUND;
    let written = Arc::new(AtomicU64::new(0));
    let writer = {
        let written = written.clone();
        let payload = encode_step(stream, true, a.values(), &b);
        thread::spawn(move || {
            for _ in 0..flood {
                tx.send_frame(kind::STEP, &payload).expect("write");
                written.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    // Let the flood fill every buffer on the way: nothing written for
    // half a second.
    let mut stats = Client::connect(&set.addr(0)).expect("stats conn");
    stats
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last = (0, Instant::now());
    while last.1.elapsed() < Duration::from_millis(500) {
        assert!(Instant::now() < deadline, "the flood never settled");
        let w = written.load(Ordering::SeqCst);
        if w != last.0 {
            last = (w, Instant::now());
        }
        thread::sleep(Duration::from_millis(10));
    }
    assert!(!writer.is_finished(), "the shard read the whole flood");
    let executed = stats.stats().expect("stats").shards[0].steps as usize;
    let bound = REPLY_QUEUE_BOUND + STREAM_QUEUE_BOUND + SOCKET_REPLIES;
    assert!(
        executed <= bound,
        "{executed} of {flood} steps executed with nothing read (bound {bound})"
    );

    // Now read: every request is answered, in order.
    let reader = thread::spawn(move || {
        for id in 0..flood as u64 {
            match rx.recv() {
                Ok((got, Response::Step { quality, .. })) => {
                    assert_eq!(got, id + 2, "in request order (1 was the open)");
                    assert!(quality[0].converged, "step {got}");
                }
                other => panic!("request {}: {other:?}", id + 2),
            }
        }
    });
    join_within(vec![writer, reader], Duration::from_secs(120), || {
        format!("{} of {flood} written", written.load(Ordering::SeqCst))
    });
    let done = stats.stats().expect("stats").shards[0].steps as usize;
    assert_eq!(done, flood, "every step ran once");
}
