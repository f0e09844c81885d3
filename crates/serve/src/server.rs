//! The shard server: one [`SolverService`] behind a wire listener.
//!
//! Each accepted connection gets a **reader** thread and a **writer**
//! thread, preserving the in-process submit/ticket pipelining over the
//! network:
//!
//! * the reader decodes requests and *submits* steps — it never waits
//!   for a result, so a client that pipelines N steps keeps the shard's
//!   scheduler batch full exactly like N in-process submitters would.
//!   It reads every frame into one reused buffer, and decodes a step's
//!   values straight into the stream's pattern template once their
//!   length matches the pattern's nnz: the reader passes over a step's
//!   bytes once and allocates only its right-hand side;
//! * the writer drains an in-order queue of tickets and immediate
//!   replies, waiting each [`StepTicket`] (taking the service's driver
//!   seat when idle) and encoding the response.
//!
//! Responses therefore come back **in request order per connection**,
//! while concurrency comes from many connections and from pipelining
//! within one. Streams are owned by their connection's reader: when the
//! connection drops, its streams close and their queued work drains
//! through the normal stream-close path, so a dead client cannot leak
//! sessions.

use crate::proto::{
    self, decode_request, encode_response, kind, pattern_hash, Request, Response, ShardStatsWire,
    WireError, WireStats,
};
use crate::wire::{read_frame_into, write_frame, Addr, Conn, Listener, Rd};
use basker_api::{ServiceStats, SolverService, StepTicket};
use basker_sparse::CscMat;
use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

/// What the reader hands the writer, in request order.
enum Out {
    /// An already-known reply (errors, opens, stats, pong, ack).
    Now(u64, Response),
    /// A submitted step whose result the writer waits for.
    Ticket(u64, StepTicket),
}

/// Shared stop control: the shutdown request flips the flag and
/// self-dials the listener so the blocking accept observes it.
struct Ctl {
    stop: AtomicBool,
    addr: Addr,
}

impl Ctl {
    fn trip(&self) {
        // ORDER: SeqCst — one-shot stop latch on the cold shutdown
        // path; strongest ordering keeps the accept loop's view
        // trivially consistent.
        if !self.stop.swap(true, Ordering::SeqCst) {
            // Wake the accept loop; errors are fine (it may already be
            // past accept, or the listener may be closing).
            let _ = Conn::connect(&self.addr);
        }
    }
}

/// Serves `service` on `listener` until a client sends `Shutdown`.
///
/// Blocks the calling thread. On shutdown the service drains (queued
/// steps answer [`ErrCode::ServiceShutdown`](proto::ErrCode), running
/// steps finish), the ack is sent, and this returns. `shard`/`epoch`
/// are echoed in stats/pong so supervisors can identify the process
/// incarnation that answered.
pub fn serve(
    listener: Listener,
    service: &SolverService,
    shard: u32,
    epoch: u64,
) -> io::Result<()> {
    let ctl = Arc::new(Ctl {
        stop: AtomicBool::new(false),
        addr: listener.local_addr()?,
    });
    loop {
        let conn = match listener.accept() {
            Ok(c) => c,
            // ORDER: SeqCst ×2 — stop-latch reads in the accept loop
            // (cold; pair with the `shutdown` swap).
            Err(_) if ctl.stop.load(Ordering::SeqCst) => break,
            Err(e) => return Err(e),
        };
        if ctl.stop.load(Ordering::SeqCst) {
            break;
        }
        let service = service.clone();
        let ctl = ctl.clone();
        // Detached: the shutdown path drains the service before acking,
        // so returning without joining loses nothing — and joining
        // would make shutdown wait on idle connections.
        thread::spawn(move || {
            handle_conn(conn, &service, shard, epoch, &ctl);
        });
    }
    Ok(())
}

/// One stream as the server sees it: the handle plus the pattern
/// template the step values are poured into.
struct StreamEntry {
    handle: basker_api::StreamHandle,
    template: CscMat,
}

fn handle_conn(conn: Conn, service: &SolverService, shard: u32, epoch: u64, ctl: &Arc<Ctl>) {
    let writer_conn = match conn.try_clone() {
        Ok(c) => c,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Out>();

    // Writer: strictly in-order replies; waiting a ticket may take the
    // service's driver seat, which is exactly the cooperative
    // scheduling the in-process tier uses.
    let writer = thread::spawn(move || {
        let mut w = BufWriter::new(writer_conn);
        while let Ok(out) = rx.recv() {
            let (req_id, resp) = match out {
                Out::Now(id, resp) => (id, resp),
                Out::Ticket(id, t) => (id, proto::step_response(t.wait())),
            };
            let (kind, payload) = encode_response(&resp);
            if write_frame(&mut w, kind, req_id, &payload).is_err() {
                break; // client gone; keep draining tickets below
            }
            if w.flush().is_err() {
                break;
            }
        }
        // Client vanished mid-pipeline: still wait the remaining
        // tickets so their slots resolve and the service's counters
        // stay truthful.
        while let Ok(out) = rx.recv() {
            if let Out::Ticket(_, t) = out {
                let _ = t.wait();
            }
        }
    });

    let mut conn = conn;
    let mut streams: HashMap<u64, StreamEntry> = HashMap::new();
    // Reused across frames: a steady stream of steps allocates nothing
    // for its frames.
    let mut frame = Vec::new();
    // The frame loop ends on EOF, reset, or a framing violation.
    while let Ok((kind, req_id)) = read_frame_into(&mut conn, &mut frame) {
        if kind == kind::STEP {
            let out = match submit_step(&mut streams, &frame) {
                Ok(t) => Out::Ticket(req_id, t),
                Err(e) => Out::Now(req_id, Response::Err(e)),
            };
            if tx.send(out).is_err() {
                break;
            }
            continue;
        }
        let req = match decode_request(kind, &frame) {
            Ok(r) => r,
            Err(e) => {
                let resp = Response::Err(WireError::protocol(e));
                if tx.send(Out::Now(req_id, resp)).is_err() {
                    break;
                }
                continue;
            }
        };
        let out = match req {
            Request::Ping => Out::Now(req_id, Response::Pong { epoch }),
            Request::Open(open) => match service.stream(&open.matrix, &open.session_config()) {
                Ok(handle) => {
                    let stream = handle.id();
                    let hash = pattern_hash(&open.matrix);
                    streams.insert(
                        stream,
                        StreamEntry {
                            handle,
                            template: open.matrix,
                        },
                    );
                    Out::Now(
                        req_id,
                        Response::Opened {
                            stream,
                            pattern_hash: hash,
                        },
                    )
                }
                Err(e) => Out::Now(req_id, Response::Err(WireError::from(&e))),
            },
            Request::Step { .. } => unreachable!("step frames are submitted undecoded"),
            Request::Close { stream } => {
                if streams.remove(&stream).is_some() {
                    Out::Now(req_id, Response::Closed)
                } else {
                    Out::Now(
                        req_id,
                        Response::Err(WireError::protocol(format!("unknown stream {stream}"))),
                    )
                }
            }
            Request::Stats => Out::Now(
                req_id,
                Response::Stats(WireStats {
                    shards: vec![shard_stats_row(shard, epoch, &service.stats())],
                    router: Default::default(),
                }),
            ),
            Request::Shutdown => {
                // Drain the service first so every queued step resolves
                // (to ServiceShutdown) *before* the ack — after the ack
                // the peer may kill us.
                service.shutdown();
                let sent = tx.send(Out::Now(req_id, Response::ShutdownAck)).is_ok();
                drop(tx);
                let _ = writer.join();
                ctl.trip();
                conn.shutdown();
                let _ = sent;
                return;
            }
        };
        if tx.send(out).is_err() {
            break;
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// Submits one `Step` payload on its stream. The values decode straight
/// into the stream's template, after their length prefix is checked
/// against the pattern's nnz; only the right-hand side gets a buffer of
/// its own, which the submitted job takes over. A payload that fails to
/// decode may leave the template half-written, which is harmless: every
/// step overwrites all of its values.
fn submit_step(
    streams: &mut HashMap<u64, StreamEntry>,
    payload: &[u8],
) -> Result<StepTicket, WireError> {
    let mut r = Rd::new(payload);
    let stream = r.u64().map_err(WireError::protocol)?;
    let refined = r.u8().map_err(WireError::protocol)? != 0;
    let Some(entry) = streams.get_mut(&stream) else {
        return Err(WireError::protocol(format!("unknown stream {stream}")));
    };
    let nnz = entry.template.nnz();
    let n = r.f64_len().map_err(WireError::protocol)?;
    if n != nnz {
        return Err(WireError::protocol(format!(
            "step values length {n} != pattern nnz {nnz}"
        )));
    }
    r.f64s_into(entry.template.values_mut())
        .map_err(WireError::protocol)?;
    let rhs = r.f64_slice().map_err(WireError::protocol)?;
    r.finish().map_err(WireError::protocol)?;
    let submitted = if refined {
        entry.handle.submit_refined(&entry.template, rhs)
    } else {
        entry.handle.submit(&entry.template, rhs)
    };
    submitted.map_err(|e| WireError::from(&e))
}

/// Projects a [`ServiceStats`] snapshot onto its wire row.
pub fn shard_stats_row(shard: u32, epoch: u64, st: &ServiceStats) -> ShardStatsWire {
    ShardStatsWire {
        shard,
        epoch,
        team_width: st.team_width as u32,
        streams: st.streams as u64,
        steps: st.steps as u64,
        errors: st.errors as u64,
        factors: st.factors as u64,
        refactors: st.refactors as u64,
        occupancy: st.occupancy,
        worst_residual: st.worst_residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientError};
    use crate::proto::{decode_response, encode_step, ErrCode, OpenRequest};
    use basker_api::{Engine, ReusePolicy, ServiceConfig};
    use basker_sparse::TripletMat;

    fn tridiag(n: usize) -> CscMat {
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0 + i as f64);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.5);
            }
        }
        t.to_csc()
    }

    fn protocol_error(r: Result<crate::client::StepReply, ClientError>) -> String {
        match r {
            Err(ClientError::Remote(e)) if e.code == ErrCode::Protocol => e.message,
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    /// The shard decodes step values straight into the stream's
    /// template: a values vector of the wrong length, or any truncated
    /// payload, answers a protocol error, and the connection and stream
    /// then serve a valid step exactly.
    #[test]
    fn step_decode_into_template_rejects_bad_payloads() {
        let dir = std::env::temp_dir().join(format!("bsk-server-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let listener = Listener::bind(&Addr::Uds(dir.join("s.sock"))).unwrap();
        let addr = listener.local_addr().unwrap();
        let service = SolverService::new(&ServiceConfig::new().threads(1));
        let server = {
            let service = service.clone();
            thread::spawn(move || serve(listener, &service, 0, 0))
        };

        let n = 6;
        let a = tridiag(n);
        let mut cl = Client::connect(&addr).unwrap();
        let (stream, _) = cl
            .open_stream(&OpenRequest {
                engine: Engine::Klu,
                policy: ReusePolicy::AlwaysFactor,
                target_residual: 1e-12,
                max_refine_iterations: 4,
                matrix: a.clone(),
            })
            .unwrap();
        let rhs: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let want = cl.step(stream, true, a.values(), &rhs).unwrap();

        let nnz = a.nnz();
        for len in [0, nnz - 1, nnz + 1] {
            let msg = protocol_error(cl.step(stream, true, &vec![1.0; len], &rhs));
            assert!(
                msg.contains(&format!("{len} != pattern nnz {nnz}")),
                "{msg}"
            );
        }
        // Every cut of a valid payload, including those that leave the
        // template fully or partly overwritten with other values.
        let garbage: Vec<f64> = (0..nnz).map(|i| -1e30 * i as f64).collect();
        let payload = encode_step(stream, true, &garbage, &rhs);
        let mut reply = Vec::new();
        for cut in 0..payload.len() {
            let k = cl
                .exchange(kind::STEP, &payload[..cut], &mut reply)
                .unwrap();
            match decode_response(k, &reply).unwrap() {
                Response::Err(e) => assert_eq!(e.code, ErrCode::Protocol, "cut {cut}"),
                _ => panic!("cut {cut} was served"),
            }
        }
        let mut long = payload.clone();
        long.push(0);
        let k = cl.exchange(kind::STEP, &long, &mut reply).unwrap();
        assert_eq!(k, kind::ERR, "trailing byte");

        assert_eq!(cl.ping().unwrap(), 0, "the connection stays usable");
        let got = cl.step(stream, true, a.values(), &rhs).unwrap();
        let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.x), bits(&want.x), "the template was refilled");
        assert_eq!(
            service.stats().steps,
            2,
            "no bad payload reached the service"
        );

        cl.shutdown().unwrap();
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
