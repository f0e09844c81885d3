//! The pattern-hash router: one listener in front of N shard
//! processes.
//!
//! Streams are placed by `pattern_hash(matrix) % shards`, so streams
//! sharing a sparsity pattern **co-locate** on one shard, where they
//! share its service's worker team and pooled solve workspaces. Each
//! stream still analyzes its pattern afresh when it opens: no analysis
//! is cached across streams. Values differ per stream and per step;
//! only the pattern decides placement.
//!
//! ## One connection, pipelined
//!
//! Each client connection gets a **reader** thread and a **replier**
//! thread, and its own link to each shard it uses. The reader forwards
//! every `Step` the moment it is read, so a client's in-flight steps
//! reach their shards together: the shards work on up to
//! [`MAX_OUTSTANDING`] steps of one connection at once, and
//! concurrency no longer scales only with the number of connections.
//! The replier answers the connection's requests **strictly in request
//! order**, taking each step's reply off its shard link; that works
//! because a shard answers each link in order. So every single
//! connection still keeps strict request/response order, as the wire
//! contract says. `Open`, `Close`, `Stats`, `Ping` and `Shutdown` wait
//! until the connection has nothing outstanding, then run synchronously
//! on the links.
//!
//! A `Step` is forwarded as bytes, never decoded: the router reads the
//! stream id from the payload's first 8 bytes, overwrites it with the
//! shard-local id, sends the frame on, and passes the shard's reply
//! kind and payload back under the client's `req_id`. The shard is the
//! one that checks the rest of the payload. A payload too short to hold
//! a stream id, or naming a stream this connection never opened, the
//! router answers itself with a `Protocol` error. `Open`, `Close`,
//! `Stats`, `Ping` and `Shutdown` are decoded: `Open` needs the pattern
//! hash, and the router keeps the decoded request for failover. The
//! reader reads frames into one reused buffer, and the replier reads
//! and encodes replies into another.
//!
//! ## Failover contract
//!
//! "Zero ticket loss" means **every accepted request is answered** —
//! never dropped, never hung:
//!
//! * an I/O failure on a shard link answers every step outstanding on
//!   that link with a clean
//!   [`ErrCode::ShardUnavailable`](crate::proto::ErrCode) error, each in
//!   its place in the order; the shard is reported down once and the
//!   supervisor respawns it (the router reports the failure
//!   synchronously, so the respawn races no one);
//! * the stream's [`OpenRequest`] is retained by the router, and the
//!   next step on that stream transparently **re-opens** it on a fresh
//!   link to the respawned process (fresh epoch, fresh factors) before
//!   forwarding;
//! * requests for other shards never notice.

use crate::client::{self, Client, ClientError, Receiver, Sender};
use crate::proto::{
    decode_request, encode_response_into, kind, pattern_hash, OpenRequest, Request, Response,
    RouterWireStats, WireError, WireStats,
};
use crate::shard::ShardSet;
use crate::wire::{read_frame_into, write_frame, Addr, Conn, Listener, Rd};
use basker_api::STREAM_QUEUE_BOUND;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// The most requests one client connection may have outstanding at the
/// router: forwarded or answered by the router, but not yet replied to.
/// The reader holds the next request back until one is answered, so a
/// client that writes without reading fills its own socket, not the
/// router's memory or a shard's queues.
///
/// The bound is the service's per-stream queue bound. A connection's
/// streams live on the shard under that connection's link alone, so
/// its outstanding steps can never fill one of their queues: the
/// shard's reader never parks in `submit`'s backpressure on its behalf
/// and keeps reading, and the router's reader never waits on a shard
/// longer than the shard takes to take a frame in. The shard's writer
/// may still block on a full socket, when the replier cannot pass a
/// reply on to a client that is not reading; the shard's service still
/// makes progress, because its jobs run on whichever waiter or
/// submitter holds the driver seat, and none of them waits on a
/// socket. A client that keeps `STREAM_QUEUE_BOUND` steps in flight is
/// never held back.
pub const MAX_OUTSTANDING: usize = STREAM_QUEUE_BOUND;

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
    /// The generation of the link the stream was opened on: a shard
    /// closes a link's streams when the link goes, so a stream whose
    /// link was replaced must be re-opened.
    link: u64,
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

/// One link of a client connection to one shard incarnation. The
/// reader sends on `tx`; the answers are taken off `rx` in order.
struct Link {
    /// Distinguishes this link from every other of its connection.
    generation: u64,
    tx: Sender,
    rx: Arc<LinkRx>,
}

impl Link {
    /// A synchronous request on a link with nothing outstanding.
    fn request(
        &mut self,
        req: &Request,
        shards: &ShardSet,
        counters: &Counters,
    ) -> Result<Response, WireError> {
        match client::request(&mut self.tx, &mut lock(&self.rx.rx), req) {
            Ok(Response::Err(e)) => Err(e),
            Ok(resp) => Ok(resp),
            Err(e) => Err(self.rx.failure(shards, counters, e)),
        }
    }
}

/// The receiving end of a shard link, shared by the connection's
/// reader (control requests, once nothing is outstanding) and its
/// replier (step replies, in order).
struct LinkRx {
    shard: usize,
    /// The shard epoch the link was connected to.
    epoch: u64,
    rx: Mutex<Receiver>,
    /// Set once the link failed: its outstanding steps are answered
    /// `ShardUnavailable` without reading, and the reader replaces it.
    failed: AtomicBool,
}

/// Locks `m`, taking the data of a poisoned lock as it stands: every
/// critical section here leaves its data consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl LinkRx {
    fn has_failed(&self) -> bool {
        // ORDER: Relaxed — the flag guards no other data; a reader or
        // replier that misses a fresh store meets the dead socket.
        self.failed.load(Ordering::Relaxed)
    }

    /// Reads the reply to the step sent under `sent` into `reply` and
    /// returns its kind. A link that failed answers `ShardUnavailable`
    /// without reading.
    fn reply(
        &self,
        sent: u64,
        reply: &mut Vec<u8>,
        shards: &ShardSet,
        counters: &Counters,
    ) -> Result<u8, WireError> {
        if self.has_failed() {
            return Err(self.unavailable("failed earlier"));
        }
        let got = lock(&self.rx).recv_frame(sent, reply);
        got.map_err(|e| self.failure(shards, counters, e))
    }

    /// Converts a failure on this link into the client's error. An I/O
    /// failure marks the link failed, and the first to see it reports
    /// the shard down (which respawns it and lets the *next* request
    /// route cleanly) and counts the failover; a reply out of step
    /// marks it failed without blaming the shard.
    fn failure(&self, shards: &ShardSet, counters: &Counters, e: ClientError) -> WireError {
        match e {
            ClientError::Remote(we) => we,
            ClientError::Io(io) => {
                // ORDER: Relaxed ×2 — the swap elects one reporter and
                // guards no other data; the counter is a diagnostic.
                if !self.failed.swap(true, Ordering::Relaxed) {
                    counters.failovers.fetch_add(1, Ordering::Relaxed);
                    shards.report_down(self.shard, self.epoch);
                }
                self.unavailable(&io.to_string())
            }
            ClientError::Protocol(m) => {
                // ORDER: Relaxed — see `has_failed`.
                self.failed.store(true, Ordering::Relaxed);
                WireError::protocol(format!("shard {} protocol error: {m}", self.shard))
            }
        }
    }

    fn unavailable(&self, why: &str) -> WireError {
        WireError::unavailable(format!(
            "shard {} connection failed mid-request: {why}",
            self.shard
        ))
    }
}

/// A connection's links, one per shard, owned by its reader.
struct ShardLinks {
    links: HashMap<usize, Link>,
    next_generation: u64,
}

impl ShardLinks {
    /// A link to shard `i` at its current epoch, reconnecting if the
    /// cached link is stale, failed or absent. On connect failure the
    /// shard is reported down (respawning it) and the new epoch is
    /// retried once.
    fn get(&mut self, shards: &ShardSet, i: usize) -> Result<&mut Link, WireError> {
        for _attempt in 0..2 {
            let epoch = shards.epoch(i);
            if self
                .links
                .get(&i)
                .is_some_and(|l| l.rx.epoch == epoch && !l.rx.has_failed())
            {
                break;
            }
            self.links.remove(&i);
            match Client::connect(&shards.addr(i)) {
                Ok(c) => {
                    let _ = c.set_read_timeout(Some(Duration::from_secs(120)));
                    let (tx, rx) = c.split();
                    self.next_generation += 1;
                    let link = Link {
                        generation: self.next_generation,
                        tx,
                        rx: Arc::new(LinkRx {
                            shard: i,
                            epoch,
                            rx: Mutex::new(rx),
                            failed: AtomicBool::new(false),
                        }),
                    };
                    self.links.insert(i, link);
                    break;
                }
                Err(_) => {
                    shards.report_down(i, epoch);
                }
            }
        }
        self.links
            .get_mut(&i)
            .ok_or_else(|| WireError::unavailable(format!("shard {i} unreachable after respawn")))
    }
}

/// Counts a connection's outstanding requests: taken in by the reader,
/// released by the replier once answered.
#[derive(Default)]
struct Window {
    outstanding: Mutex<usize>,
    changed: Condvar,
}

impl Window {
    /// Waits until fewer than `limit` requests are outstanding, then
    /// counts one more.
    fn take(&self, limit: usize) {
        let mut n = lock(&self.outstanding);
        while *n >= limit {
            n = self.changed.wait(n).unwrap_or_else(PoisonError::into_inner);
        }
        *n += 1;
    }

    /// Counts one request answered.
    fn release(&self) {
        *lock(&self.outstanding) -= 1;
        self.changed.notify_all();
    }
}

/// What the reader hands the replier, in request order.
enum Item {
    /// A step forwarded on `link` under the link's id `sent`; its reply
    /// goes back under `req_id`.
    Step {
        req_id: u64,
        sent: u64,
        link: Arc<LinkRx>,
    },
    /// A reply the router made itself.
    Now(u64, Response),
}

/// What one client connection's reader keeps.
struct Routing<'a> {
    shards: &'a ShardSet,
    counters: &'a Counters,
    links: ShardLinks,
    routes: HashMap<u64, StreamRoute>,
    next_local: u64,
    window: Arc<Window>,
}

fn handle_client(conn: Conn, shards: &Arc<ShardSet>, counters: &Arc<Counters>) {
    let Ok(writer) = conn.try_clone() else {
        return;
    };
    let window = Arc::new(Window::default());
    let (queue, items) = mpsc::channel::<Item>();
    let replier = {
        let (shards, counters, window) = (shards.clone(), counters.clone(), window.clone());
        thread::spawn(move || reply_in_order(writer, &items, &shards, &counters, &window))
    };
    let mut routing = Routing {
        shards,
        counters,
        links: ShardLinks {
            links: HashMap::new(),
            next_generation: 0,
        },
        routes: HashMap::new(),
        next_local: 1,
        window,
    };
    let mut conn = conn;
    // Reused across frames.
    let mut frame = Vec::new();
    while let Ok((kind, req_id)) = read_frame_into(&mut conn, &mut frame) {
        let mut last = false;
        let item = if kind == kind::STEP {
            routing.window.take(MAX_OUTSTANDING);
            match routing.forward_step(&mut frame) {
                Ok((sent, link)) => Item::Step { req_id, sent, link },
                Err(e) => Item::Now(req_id, Response::Err(e)),
            }
        } else {
            // Nothing may be outstanding while a request uses the links
            // synchronously.
            routing.window.take(1);
            let resp = match decode_request(kind, &frame) {
                Err(e) => Response::Err(WireError::protocol(e)),
                Ok(Request::Ping) => Response::Pong { epoch: 0 },
                Ok(Request::Open(open)) => routing.open(open),
                Ok(Request::Step { .. }) => unreachable!("step frames are forwarded as bytes"),
                Ok(Request::Close { stream }) => routing.close(stream),
                Ok(Request::Stats) => routing.stats(),
                Ok(Request::Shutdown) => {
                    last = true;
                    Response::ShutdownAck
                }
            };
            Item::Now(req_id, resp)
        };
        if queue.send(item).is_err() || last {
            break;
        }
    }
    // The replier answers what is still queued, then ends.
    drop(queue);
    let _ = replier.join();
}

/// The replier: answers each item in order, releasing its window slot
/// once its reply is written. A client that went away gets nothing
/// more written, but every item is still taken and released, so the
/// reader never waits on a slot that will not come back.
fn reply_in_order(
    mut w: Conn,
    items: &mpsc::Receiver<Item>,
    shards: &ShardSet,
    counters: &Counters,
    window: &Window,
) {
    // Every reply, forwarded or made here, passes through this buffer.
    let mut payload = Vec::new();
    let mut client_gone = false;
    for item in items {
        let (req_id, kind) = match item {
            Item::Now(req_id, resp) => (req_id, encode_response_into(&resp, &mut payload)),
            Item::Step { req_id, sent, link } => {
                match link.reply(sent, &mut payload, shards, counters) {
                    Ok(kind) => (req_id, kind),
                    Err(e) => (
                        req_id,
                        encode_response_into(&Response::Err(e), &mut payload),
                    ),
                }
            }
        };
        if kind == kind::ERR {
            // ORDER: Relaxed — monotonic diagnostic (see `counters`).
            counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        if !client_gone && write_frame(&mut w, kind, req_id, &payload).is_err() {
            // Wake the reader, which is likely blocked reading.
            client_gone = true;
            w.shutdown();
        }
        window.release();
    }
}

impl Routing<'_> {
    fn open(&mut self, open: OpenRequest) -> Response {
        let hash = pattern_hash(&open.matrix);
        let shard = (hash % self.shards.num_shards() as u64) as usize;
        match self.open_on(shard, &open) {
            Ok((link, remote_id)) => {
                let local = self.next_local;
                self.next_local += 1;
                self.routes.insert(
                    local,
                    StreamRoute {
                        shard,
                        open,
                        remote_id,
                        link,
                    },
                );
                // ORDER: Relaxed — monotonic diagnostic (see `counters`).
                self.counters.routed_streams.fetch_add(1, Ordering::Relaxed);
                Response::Opened {
                    stream: local,
                    pattern_hash: hash,
                }
            }
            Err(e) => Response::Err(e),
        }
    }

    /// Opens `open` on shard `i`, returning the link's generation and
    /// the shard-local stream id. Nothing may be outstanding.
    fn open_on(&mut self, i: usize, open: &OpenRequest) -> Result<(u64, u64), WireError> {
        let (shards, counters) = (self.shards, self.counters);
        let link = self.links.get(shards, i)?;
        let req = Request::Open(open.clone());
        match link.request(&req, shards, counters)? {
            Response::Opened { stream, .. } => Ok((link.generation, stream)),
            _ => Err(WireError::protocol(format!(
                "shard {i} answered an open with another response"
            ))),
        }
    }

    /// Forwards one `Step` frame to its stream's shard as bytes: the
    /// payload's leading stream id is overwritten with the shard-local
    /// id, and the link and the id the frame was sent under are
    /// returned for the replier. A failure the router answers itself is
    /// the `Err`.
    fn forward_step(&mut self, payload: &mut [u8]) -> Result<(u64, Arc<LinkRx>), WireError> {
        let stream = Rd::new(payload).u64().map_err(|_| {
            WireError::protocol(format!(
                "step payload of {} bytes has no stream id",
                payload.len()
            ))
        })?;
        let Some(route) = self.routes.get(&stream) else {
            return Err(WireError::protocol(format!("unknown stream {stream}")));
        };
        // ORDER: Relaxed — monotonic diagnostic (see `counters`).
        self.counters.steps.fetch_add(1, Ordering::Relaxed);
        let (shard, opened_on) = (route.shard, route.link);
        if self.links.get(self.shards, shard)?.generation != opened_on {
            // The link the stream was opened on is gone (its shard was
            // respawned, or it failed): re-establish the stream from
            // the retained open request before forwarding, once the
            // requests still outstanding on the old link are answered.
            // The fresh session re-analyzes and re-factors on this step.
            self.window.release();
            self.window.take(1);
            let open = self.routes[&stream].open.clone();
            let (link, remote_id) = self.open_on(shard, &open)?;
            if let Some(route) = self.routes.get_mut(&stream) {
                route.link = link;
                route.remote_id = remote_id;
            }
            // ORDER: Relaxed — monotonic diagnostic (see `counters`).
            self.counters.reopens.fetch_add(1, Ordering::Relaxed);
        }
        let remote_id = self.routes[&stream].remote_id;
        payload[..8].copy_from_slice(&remote_id.to_le_bytes());
        let (shards, counters) = (self.shards, self.counters);
        let link = self.links.get(shards, shard)?;
        match link.tx.send_frame(kind::STEP, payload) {
            Ok(sent) => Ok((sent, link.rx.clone())),
            Err(e) => Err(link.rx.failure(shards, counters, ClientError::Io(e))),
        }
    }

    fn close(&mut self, stream: u64) -> Response {
        let Some(route) = self.routes.remove(&stream) else {
            return Response::Err(WireError::protocol(format!("unknown stream {stream}")));
        };
        // Best effort, on the link the stream lives on: if that link is
        // gone, so is the stream — closed is closed either way.
        if let Some(link) = self.links.links.get_mut(&route.shard) {
            if link.generation == route.link && !link.rx.has_failed() {
                let req = Request::Close {
                    stream: route.remote_id,
                };
                let _ = link.request(&req, self.shards, self.counters);
            }
        }
        Response::Closed
    }

    fn stats(&mut self) -> Response {
        let (shards, counters) = (self.shards, self.counters);
        let mut stats = WireStats::default();
        for i in 0..shards.num_shards() {
            if let Ok(link) = self.links.get(shards, i) {
                if let Ok(Response::Stats(s)) = link.request(&Request::Stats, shards, counters) {
                    stats.shards.extend(s.shards);
                    continue;
                }
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
}
