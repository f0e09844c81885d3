//! The pattern-hash router: one listener in front of N shard
//! processes.
//!
//! Streams are placed by `pattern_hash(matrix) % shards`, so streams
//! sharing a sparsity pattern **co-locate** on one shard and share its
//! symbolic analysis and workspace pools — the serving-tier analogue of
//! the in-process same-pattern fast path. Values differ per stream and
//! per step; only the pattern decides placement.
//!
//! Each client connection gets its own handler thread with its own
//! shard connections, so concurrency scales with client connections
//! while every single connection keeps strict request/response order.
//!
//! A `Step` is forwarded as bytes, never decoded: the router reads the
//! stream id from the payload's first 8 bytes, overwrites it with the
//! shard-local id, sends the frame on, and passes the shard's reply
//! kind and payload back under the client's `req_id`. The shard is the
//! one that checks the rest of the payload. A payload too short to hold
//! a stream id, or naming a stream this connection never opened, the
//! router answers itself with a `Protocol` error. `Open`, `Close`,
//! `Stats`, `Ping` and `Shutdown` are decoded: `Open` needs the pattern
//! hash, and the router keeps the decoded request for failover. Router
//! and shard links read frames into one reused buffer each.
//!
//! ## Failover contract
//!
//! "Zero ticket loss" means **every accepted request is answered** —
//! never dropped, never hung:
//!
//! * a step in flight on a shard that dies answers with a clean
//!   [`ErrCode::ShardUnavailable`](crate::proto::ErrCode) error and the
//!   supervisor respawns the shard (the router reports the failure
//!   synchronously, so the respawn races no one);
//! * the stream's [`OpenRequest`] is retained by the router, and the
//!   next step on that stream transparently **re-opens** it on the
//!   respawned process (fresh epoch, fresh factors) before forwarding;
//! * requests for other shards never notice.

use crate::client::{Client, ClientError};
use crate::proto::{
    decode_request, encode_response, kind, pattern_hash, OpenRequest, Request, Response,
    RouterWireStats, WireError, WireStats,
};
use crate::shard::ShardSet;
use crate::wire::{read_frame_into, write_frame, Addr, Conn, Listener, Rd};
use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Router-wide counters, shared across connection handlers.
#[derive(Default)]
struct Counters {
    routed_streams: AtomicU64,
    steps: AtomicU64,
    errors: AtomicU64,
    failovers: AtomicU64,
    reopens: AtomicU64,
}

impl Counters {
    fn wire(&self, respawns: u64) -> RouterWireStats {
        RouterWireStats {
            // ORDER: Relaxed ×5 — monotonic diagnostics; snapshots
            // are advisory and consumers diff them on one thread.
            routed_streams: self.routed_streams.load(Ordering::Relaxed),
            steps: self.steps.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            reopens: self.reopens.load(Ordering::Relaxed),
            respawns,
        }
    }
}

/// Where one client stream lives.
struct StreamRoute {
    /// Shard slot the pattern hashed to (stable across respawns).
    shard: usize,
    /// Retained open request — the failover state used to re-establish
    /// the stream on a respawned shard.
    open: OpenRequest,
    /// The shard-local stream id of the current incarnation.
    remote_id: u64,
    /// The shard epoch the stream was opened on.
    epoch: u64,
}

/// A running router. Dropping it stops the listener and shuts down the
/// supervised shard fleet.
pub struct Router {
    addr: Addr,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
    shards: Arc<ShardSet>,
}

impl Router {
    /// Starts routing connections accepted on `listener` across
    /// `shards`.
    pub fn start(listener: Listener, shards: Arc<ShardSet>) -> std::io::Result<Router> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let accept = {
            let stop = stop.clone();
            let shards = shards.clone();
            thread::spawn(move || accept_loop(listener, &shards, &stop, &counters))
        };
        Ok(Router {
            addr,
            stop,
            accept: Some(accept),
            shards,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> Addr {
        self.addr.clone()
    }

    /// The supervised fleet behind this router.
    pub fn shards(&self) -> &Arc<ShardSet> {
        &self.shards
    }

    /// Stops accepting and joins the accept thread. Existing client
    /// connections finish their current request and wind down as the
    /// clients disconnect; the shard fleet stays up until the set is
    /// dropped.
    pub fn stop(&mut self) {
        // ORDER: SeqCst — one-shot stop latch on a cold shutdown
        // path; the strongest ordering keeps every worker's view of
        // the latch trivially consistent and costs nothing here.
        if !self.stop.swap(true, Ordering::SeqCst) {
            let _ = Conn::connect(&self.addr); // unblock accept
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Addr::Uds(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: Listener,
    shards: &Arc<ShardSet>,
    stop: &Arc<AtomicBool>,
    counters: &Arc<Counters>,
) {
    loop {
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(_) => break,
        };
        // ORDER: SeqCst — pairs with the shutdown latch swap (cold
        // path, see `stop`).
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let shards = shards.clone();
        let counters = counters.clone();
        // Detached: a handler lives exactly as long as its connection.
        // Joining here would make shutdown wait on idle clients.
        thread::spawn(move || {
            handle_client(conn, &shards, &counters);
        });
    }
}

/// Per-connection shard links, cached by `(slot, epoch)`.
struct ShardLinks {
    conns: HashMap<usize, (u64, Client)>,
}

impl ShardLinks {
    /// A connected client for shard `i` at its current epoch,
    /// reconnecting if the cached link is stale or absent. On connect
    /// failure the shard is reported down (respawning it) and the new
    /// epoch is retried once.
    fn get(&mut self, shards: &ShardSet, i: usize) -> Result<(u64, &mut Client), ClientError> {
        for _attempt in 0..2 {
            let epoch = shards.epoch(i);
            if self.conns.get(&i).is_some_and(|(e, _)| *e == epoch) {
                break;
            }
            match Client::connect(&shards.addr(i)) {
                Ok(c) => {
                    let _ = c.set_read_timeout(Some(Duration::from_secs(120)));
                    self.conns.insert(i, (epoch, c));
                    break;
                }
                Err(_) => {
                    self.conns.remove(&i);
                    shards.report_down(i, epoch);
                }
            }
        }
        match self.conns.get_mut(&i) {
            Some((e, c)) => Ok((*e, c)),
            None => Err(ClientError::Remote(WireError::unavailable(format!(
                "shard {i} unreachable after respawn"
            )))),
        }
    }

    /// Drops the cached link to shard `i` (after an I/O failure).
    fn invalidate(&mut self, i: usize) {
        self.conns.remove(&i);
    }
}

fn handle_client(conn: Conn, shards: &Arc<ShardSet>, counters: &Arc<Counters>) {
    let writer_conn = match conn.try_clone() {
        Ok(c) => c,
        Err(_) => return,
    };
    let mut w = BufWriter::new(writer_conn);
    let mut conn = conn;
    let mut links = ShardLinks {
        conns: HashMap::new(),
    };
    let mut routes: HashMap<u64, StreamRoute> = HashMap::new();
    let mut next_local: u64 = 1;
    // Both reused across frames: a steady stream of steps allocates
    // nothing here.
    let mut frame = Vec::new();
    let mut shard_reply = Vec::new();

    while let Ok((kind, req_id)) = read_frame_into(&mut conn, &mut frame) {
        let resp = if kind == kind::STEP {
            match forward_step(
                shards,
                &mut links,
                &mut routes,
                counters,
                &mut frame,
                &mut shard_reply,
            ) {
                Ok(reply_kind) => {
                    if reply_kind == kind::ERR {
                        // ORDER: Relaxed — monotonic diagnostic (see `counters`).
                        counters.errors.fetch_add(1, Ordering::Relaxed);
                    }
                    if send(&mut w, reply_kind, req_id, &shard_reply).is_err() {
                        break;
                    }
                    continue;
                }
                Err(e) => Response::Err(e),
            }
        } else {
            match decode_request(kind, &frame) {
                Err(e) => Response::Err(WireError::protocol(e)),
                Ok(Request::Ping) => Response::Pong { epoch: 0 },
                Ok(Request::Open(open)) => route_open(
                    shards,
                    &mut links,
                    &mut routes,
                    &mut next_local,
                    counters,
                    open,
                ),
                Ok(Request::Step { .. }) => unreachable!("step frames are forwarded as bytes"),
                Ok(Request::Close { stream }) => {
                    route_close(shards, &mut links, &mut routes, stream)
                }
                Ok(Request::Stats) => gather_stats(shards, &mut links, counters),
                Ok(Request::Shutdown) => {
                    let (ack, payload) = encode_response(&Response::ShutdownAck);
                    let _ = send(&mut w, ack, req_id, &payload);
                    break;
                }
            }
        };
        if matches!(resp, Response::Err(_)) {
            // ORDER: Relaxed — monotonic diagnostic (see `counters`).
            counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        let (reply_kind, payload) = encode_response(&resp);
        if send(&mut w, reply_kind, req_id, &payload).is_err() {
            break;
        }
    }
}

/// Writes one reply frame and flushes it.
fn send(w: &mut BufWriter<Conn>, kind: u8, req_id: u64, payload: &[u8]) -> std::io::Result<()> {
    write_frame(w, kind, req_id, payload)?;
    w.flush()
}

fn route_open(
    shards: &ShardSet,
    links: &mut ShardLinks,
    routes: &mut HashMap<u64, StreamRoute>,
    next_local: &mut u64,
    counters: &Counters,
    open: OpenRequest,
) -> Response {
    let hash = pattern_hash(&open.matrix);
    let shard = (hash % shards.num_shards() as u64) as usize;
    match open_on(shards, links, shard, &open) {
        Ok((epoch, remote_id)) => {
            let local = *next_local;
            *next_local += 1;
            routes.insert(
                local,
                StreamRoute {
                    shard,
                    open,
                    remote_id,
                    epoch,
                },
            );
            // ORDER: Relaxed — monotonic diagnostic (see `counters`).
            counters.routed_streams.fetch_add(1, Ordering::Relaxed);
            Response::Opened {
                stream: local,
                pattern_hash: hash,
            }
        }
        Err(e) => Response::Err(shard_failure(counters, links, shards, shard, e)),
    }
}

/// Opens `open` on shard `i`, returning `(epoch, remote stream id)`.
fn open_on(
    shards: &ShardSet,
    links: &mut ShardLinks,
    i: usize,
    open: &OpenRequest,
) -> Result<(u64, u64), ClientError> {
    let (epoch, client) = links.get(shards, i)?;
    let (remote_id, _hash) = client.open_stream(open)?;
    Ok((epoch, remote_id))
}

/// Forwards one `Step` frame to its stream's shard as bytes: the
/// payload's leading stream id is overwritten with the shard-local id,
/// the shard's reply payload lands in `reply` undecoded, and its kind is
/// returned. A failure the router answers itself is the `Err`.
fn forward_step(
    shards: &ShardSet,
    links: &mut ShardLinks,
    routes: &mut HashMap<u64, StreamRoute>,
    counters: &Counters,
    payload: &mut [u8],
    reply: &mut Vec<u8>,
) -> Result<u8, WireError> {
    let stream = Rd::new(payload).u64().map_err(|_| {
        WireError::protocol(format!(
            "step payload of {} bytes has no stream id",
            payload.len()
        ))
    })?;
    let Some(route) = routes.get_mut(&stream) else {
        return Err(WireError::protocol(format!("unknown stream {stream}")));
    };
    // ORDER: Relaxed — monotonic diagnostic (see `counters`).
    counters.steps.fetch_add(1, Ordering::Relaxed);
    let shard = route.shard;
    step_on(shards, links, route, counters, payload, reply)
        .map_err(|e| shard_failure(counters, links, shards, shard, e))
}

/// The shard round trip of [`forward_step`].
fn step_on(
    shards: &ShardSet,
    links: &mut ShardLinks,
    route: &mut StreamRoute,
    counters: &Counters,
    payload: &mut [u8],
    reply: &mut Vec<u8>,
) -> Result<u8, ClientError> {
    if shards.epoch(route.shard) != route.epoch {
        // The shard was respawned since this stream was opened:
        // re-establish it from the retained open request before
        // forwarding. The fresh session re-analyzes and re-factors on
        // this step.
        let (epoch, remote_id) = open_on(shards, links, route.shard, &route.open)?;
        route.epoch = epoch;
        route.remote_id = remote_id;
        // ORDER: Relaxed — monotonic diagnostic (see `counters`).
        counters.reopens.fetch_add(1, Ordering::Relaxed);
    }
    payload[..8].copy_from_slice(&route.remote_id.to_le_bytes());
    let (_, client) = links.get(shards, route.shard)?;
    client.exchange(kind::STEP, payload, reply)
}

fn route_close(
    shards: &ShardSet,
    links: &mut ShardLinks,
    routes: &mut HashMap<u64, StreamRoute>,
    stream: u64,
) -> Response {
    let Some(route) = routes.remove(&stream) else {
        return Response::Err(WireError::protocol(format!("unknown stream {stream}")));
    };
    // Best effort: if the shard died since, the respawned process never
    // heard of the stream — closed is closed either way.
    if shards.epoch(route.shard) == route.epoch {
        if let Ok((_, client)) = links.get(shards, route.shard) {
            let _ = client.close_stream(route.remote_id);
        }
    }
    Response::Closed
}

fn gather_stats(shards: &ShardSet, links: &mut ShardLinks, counters: &Counters) -> Response {
    let mut stats = WireStats::default();
    for i in 0..shards.num_shards() {
        if let Ok((_, client)) = links.get(shards, i) {
            if let Ok(s) = client.stats() {
                stats.shards.extend(s.shards);
                continue;
            }
            links.invalidate(i);
        }
        // Unreachable shard: report an empty row so the shape is
        // stable for dashboards.
        stats.shards.push(crate::proto::ShardStatsWire {
            shard: i as u32,
            epoch: shards.epoch(i),
            ..Default::default()
        });
    }
    stats.router = counters.wire(shards.respawns());
    Response::Stats(stats)
}

/// Converts a shard-side failure into the client's error, reporting the
/// shard down on transport failures (which respawns it and lets the
/// *next* request route cleanly).
fn shard_failure(
    counters: &Counters,
    links: &mut ShardLinks,
    shards: &ShardSet,
    shard: usize,
    e: ClientError,
) -> WireError {
    match e {
        ClientError::Remote(we) => we,
        ClientError::Io(io) => {
            // ORDER: Relaxed — monotonic diagnostic (see `counters`).
            counters.failovers.fetch_add(1, Ordering::Relaxed);
            let epoch = links
                .conns
                .get(&shard)
                .map(|(e, _)| *e)
                .unwrap_or_else(|| shards.epoch(shard));
            links.invalidate(shard);
            shards.report_down(shard, epoch);
            WireError::unavailable(format!("shard {shard} connection failed mid-request: {io}"))
        }
        ClientError::Protocol(m) => {
            links.invalidate(shard);
            WireError::protocol(format!("shard {shard} protocol error: {m}"))
        }
    }
}
