//! End-to-end serving-tier test: a supervised two-shard fleet behind
//! the pattern-hash router, with an induced shard crash mid-load.
//!
//! The acceptance contract under test: killing a shard loses **zero
//! accepted tickets** — every in-flight step on the dead shard resolves
//! to a clean `ShardUnavailable` error (never a hang), the supervisor
//! respawns the shard, and subsequent steps on the same patterns
//! succeed after the router transparently re-establishes the streams.

use basker_api::{Engine, ReusePolicy};
use basker_serve::client::{Client, ClientError};
use basker_serve::proto::{decode_response, encode_step, kind, ErrCode, OpenRequest, Response};
use basker_serve::shard::{ShardSet, ShardSpec};
use basker_serve::wire::{Addr, Listener};
use basker_serve::Router;
use basker_sparse::{CscMat, TripletMat};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

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

fn fleet(tag: &str, shards: usize) -> Arc<ShardSet> {
    let mut spec = ShardSpec::new(env!("CARGO_BIN_EXE_shardd"), shards, temp_dir(tag));
    spec.threads = 2;
    Arc::new(ShardSet::spawn(spec).expect("spawn fleet"))
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
    drop(cl);
    set.shutdown_all();
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

    drop((routed, direct));
    drop(router);
    set.shutdown_all();
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

    // Hard-kill the victim shard once half the load is through, so
    // requests are genuinely in flight on it.
    let halfway = (dims.len() * rounds / 2) as u64;
    while answered.load(Ordering::SeqCst) < halfway {
        thread::sleep(Duration::from_millis(2));
    }
    set.kill(victim);

    let mut finished = Vec::new();
    for w in workers {
        finished.push(w.join().expect("worker thread"));
    }

    // Zero ticket loss: every request was answered, success or clean
    // error — nothing dropped, nothing hung.
    assert_eq!(
        requests.load(Ordering::SeqCst),
        answered.load(Ordering::SeqCst),
        "every accepted request must be answered"
    );
    // The crash was observed and repaired (the router's report_down or
    // the supervisor's health loop — whichever saw it first).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while set.respawns() == 0 && std::time::Instant::now() < deadline {
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
    drop(probe);
    drop(router);
    set.shutdown_all();
}
