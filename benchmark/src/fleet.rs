//! `shard_fleet`: client connections → in-process `Router` → `shardd`
//! processes, plus the guard that tears a fleet down on every exit
//! path.

use crate::check::{relative_difference, step_ok, Checker};
use crate::inproc::session_step;
use crate::inputs::{
    ping_pong, rhs, with_values, Ring, FLEET_IN_FLIGHT, FLEET_PATTERNS, FLEET_SHARDS,
};
use crate::report::solver_threads;
use crate::run::{Options, Window, SETUP_REPS, WARMUP_STEPS};
use crate::trace::Trace;
use crate::{repo_root, stats, sysinfo};
use basker_api::SolveSession;
use basker_serve::client::step_reply;
use basker_serve::proto::{pattern_hash, OpenRequest, Request, WireStats};
use basker_serve::wire::{Addr, Listener};
use basker_serve::{Client, Router, ShardSet, ShardSpec};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Steps per block of a traced window, per client connection.
const TRACE_BLOCK: usize = 64;

/// Builds the workspace's own `shardd` (a no-op when it is fresh) and
/// returns its path. Untimed: a cold build must not read as set-up.
pub fn ensure_shardd() -> Result<PathBuf, String> {
    let root = repo_root();
    let status = std::process::Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "basker_serve", "--bin", "shardd"])
        .current_dir(&root)
        .status()
        .map_err(|e| format!("cargo build of shardd: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of shardd: {status}"));
    }
    // Cargo resolves a relative CARGO_TARGET_DIR against its working
    // directory, which was the root.
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let shardd = root.join(target).join("release").join("shardd");
    if shardd.exists() {
        Ok(shardd)
    } else {
        Err(format!("{} was not built", shardd.display()))
    }
}

/// Serving-tier counters of one fleet.
#[derive(Debug, Clone, Default)]
pub struct ServeCounters {
    /// Shard respawns.
    pub respawns: u64,
    /// Streams re-established on a respawned shard.
    pub reopens: u64,
    /// In-flight requests that died with a shard.
    pub failovers: u64,
    /// Requests sent and never answered.
    pub tickets_lost: u64,
    /// Least-loaded over most-loaded shard, by completed steps.
    pub shard_steps_min_over_max: f64,
    /// Mean scheduler batch fill over the shards.
    pub shard_occupancy: f64,
}

impl ServeCounters {
    /// Folds a router `Stats` reply and the client-side ticket count.
    pub fn from_stats(stats: &WireStats, tickets_lost: u64) -> ServeCounters {
        let steps: Vec<u64> = stats.shards.iter().map(|s| s.steps).collect();
        let (min, max) = (
            steps.iter().min().copied().unwrap_or(0),
            steps.iter().max().copied().unwrap_or(0),
        );
        ServeCounters {
            respawns: stats.router.respawns,
            reopens: stats.router.reopens,
            failovers: stats.router.failovers,
            tickets_lost,
            shard_steps_min_over_max: if max == 0 {
                0.0
            } else {
                min as f64 / max as f64
            },
            shard_occupancy: stats.shards.iter().map(|s| s.occupancy).sum::<f64>()
                / stats.shards.len().max(1) as f64,
        }
    }
}

/// A running fleet. Dropping it — on return, on error, or while a
/// panic unwinds — stops the router, shuts every `shardd` down (kill
/// after a refused polite request) and removes the socket directory,
/// so a failed run leaves no orphan process and no file behind.
pub struct Fleet {
    set: Arc<ShardSet>,
    router: Option<Router>,
    dir: PathBuf,
}

impl Fleet {
    /// Spawns `shards` `shardd` processes of `threads` workers each and
    /// a router in front of them. Sockets live under
    /// `benchmark/results/`, addressed relative to the working
    /// directory when possible so the path stays within `sun_path`.
    pub fn spawn(shardd: &Path, shards: usize, threads: usize, tag: &str) -> Result<Fleet, String> {
        let abs = repo_root()
            .join("benchmark/results")
            .join(format!("run-{}-{tag}", std::process::id()));
        let dir = std::env::current_dir()
            .ok()
            .and_then(|cwd| abs.strip_prefix(cwd).ok().map(PathBuf::from))
            .unwrap_or(abs);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut spec = ShardSpec::new(shardd, shards, &dir);
        spec.threads = threads;
        let set = match ShardSet::spawn(spec) {
            Ok(set) => Arc::new(set),
            Err(e) => {
                let _ = std::fs::remove_dir_all(&dir);
                return Err(format!("spawn shard fleet: {e}"));
            }
        };
        // From here on the guard owns the clean-up.
        let mut fleet = Fleet {
            set,
            router: None,
            dir,
        };
        let listener = Listener::bind(&Addr::Uds(fleet.dir.join("router.sock")))
            .map_err(|e| format!("bind router: {e}"))?;
        fleet.router =
            Some(Router::start(listener, fleet.set.clone()).map_err(|e| format!("router: {e}"))?);
        Ok(fleet)
    }

    /// The router's address.
    pub fn router_addr(&self) -> Addr {
        self.router.as_ref().expect("router runs").addr()
    }

    /// Shard `i`'s own address (bypassing the router).
    pub fn shard_addr(&self, i: usize) -> Addr {
        self.set.addr(i)
    }

    /// Serving stats through the router.
    pub fn stats(&self) -> Result<WireStats, String> {
        let mut cl = connect(&self.router_addr())?;
        cl.stats().map_err(|e| format!("stats: {e}"))
    }

    /// `(cpu ms, peak MiB)` summed over the live `shardd` children.
    pub fn children_usage() -> (f64, f64) {
        sysinfo::children_named("shardd")
            .iter()
            .fold((0.0, 0.0), |(cpu, rss), pid| {
                (cpu + sysinfo::cpu_ms(pid), rss + sysinfo::peak_rss_mib(pid))
            })
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some(mut router) = self.router.take() {
            router.stop();
        }
        self.set.shutdown_all();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Connects with a read timeout, so a wedged peer fails the run
/// instead of hanging it.
pub fn connect(addr: &Addr) -> Result<Client, String> {
    let cl = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    cl.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok(cl)
}

/// The open request of the system lane for pattern `matrix`.
pub fn open_request(opts: &Options, matrix: &basker_sparse::CscMat) -> OpenRequest {
    OpenRequest {
        engine: opts.system_config().solver_config().requested_engine(),
        policy: opts.policy(),
        // The session defaults, spelled out because the wire carries them.
        target_residual: 1e-10,
        max_refine_iterations: 4,
        matrix: matrix.clone(),
    }
}

/// Threads per shard: the fleet shares `T` between its processes.
pub fn shard_threads() -> usize {
    (solver_threads() / FLEET_SHARDS).max(1)
}

/// The first pattern seeds from the pinned one on such that every
/// shard hosts the same number of patterns (placement is
/// `pattern_hash % shards`, the router's own rule).
pub fn pattern_seeds(opts: &Options) -> Vec<u64> {
    let family = opts.sizes().fleet;
    let per_shard = FLEET_PATTERNS / FLEET_SHARDS;
    let mut hosted = [0usize; FLEET_SHARDS];
    let mut seeds = Vec::with_capacity(FLEET_PATTERNS);
    let mut cand = opts.pattern_seed();
    while seeds.len() < FLEET_PATTERNS {
        let shard = (pattern_hash(&family.generate(cand)) % FLEET_SHARDS as u64) as usize;
        if hosted[shard] < per_shard {
            hosted[shard] += 1;
            seeds.push(cand);
        }
        cand = cand.wrapping_add(1);
    }
    seeds
}

/// One stream's inputs and client-side state.
struct Stream {
    ring: Ring,
    b: Vec<f64>,
    /// One `Step` request per ring position, built once the stream id
    /// is known.
    requests: Vec<Request>,
    /// Steps issued so far (the ring walk).
    steps: usize,
}

impl Stream {
    fn generate(opts: &Options, k: usize, seeds: &[u64]) -> Stream {
        let sizes = opts.sizes();
        let traj_seed = opts.seed.wrapping_mul(7919).wrapping_add(k as u64);
        let ring = Ring::generate(
            sizes.fleet,
            seeds[k % seeds.len()],
            traj_seed,
            sizes.fleet_ring,
        );
        let b = rhs(ring.base.nrows(), 1, traj_seed);
        Stream {
            ring,
            b,
            requests: Vec::new(),
            steps: 0,
        }
    }

    fn next_position(&mut self) -> usize {
        let pos = ping_pong(self.steps, self.ring.values.len());
        self.steps += 1;
        pos
    }
}

/// One client connection and the streams it drives.
struct Conn {
    client: Client,
    streams: Vec<Stream>,
}

/// Everything set-up produces.
struct Ready {
    fleet: Fleet,
    conns: Vec<Conn>,
}

/// Fleet spawn + input generation + stream opens + warm-up.
fn setup(opts: &Options, shardd: &Path, rep: usize) -> Result<Ready, String> {
    let fleet = Fleet::spawn(
        shardd,
        FLEET_SHARDS,
        shard_threads(),
        &format!("fleet{rep}"),
    )?;
    let seeds = pattern_seeds(opts);
    let nconns = sysinfo::logical_cpus().min(4);
    let mut conns = Vec::with_capacity(nconns);
    for c in 0..nconns {
        let mut client = connect(&fleet.router_addr())?;
        let mut streams: Vec<Stream> = (c..opts.sizes().fleet_streams)
            .step_by(nconns)
            .map(|k| Stream::generate(opts, k, &seeds))
            .collect();
        for s in &mut streams {
            let (id, _) = client
                .open_stream(&open_request(opts, &s.ring.base))
                .map_err(|e| format!("open stream: {e}"))?;
            s.requests = s
                .ring
                .values
                .iter()
                .map(|values| Request::Step {
                    stream: id,
                    refined: true,
                    values: values.clone(),
                    rhs: s.b.clone(),
                })
                .collect();
            for _ in 0..1 + WARMUP_STEPS {
                let pos = s.next_position();
                let resp = client
                    .request(&s.requests[pos])
                    .map_err(|e| format!("warm-up step: {e}"))?;
                step_reply(resp).map_err(|e| format!("warm-up step: {e}"))?;
            }
        }
        conns.push(Conn { client, streams });
    }
    Ok(Ready { fleet, conns })
}

/// The serial reference: one KLU session per stream, stepped round
/// robin in a plain loop. Keeps the solution of every (stream, ring
/// position) it visits, for the window's steps to be compared with.
struct SerialLoop {
    sessions: Vec<SolveSession>,
    steps: Vec<usize>,
    /// `solutions[stream][ring position]`.
    solutions: Vec<Vec<Option<Vec<f64>>>>,
    busy_s: f64,
    done: u64,
}

impl SerialLoop {
    fn new(opts: &Options, conns: &[Conn]) -> Result<SerialLoop, String> {
        let cfg = opts.reference_config();
        let mut sessions = Vec::new();
        let mut solutions = Vec::new();
        for s in conns.iter().flat_map(|c| &c.streams) {
            sessions.push(
                SolveSession::new(&s.ring.base, &cfg)
                    .map_err(|e| format!("reference analyze: {e}"))?,
            );
            solutions.push(vec![None; s.ring.values.len()]);
        }
        Ok(SerialLoop {
            steps: vec![0; sessions.len()],
            sessions,
            solutions,
            busy_s: 0.0,
            done: 0,
        })
    }

    /// Runs for `secs` seconds, and on until every solution is known.
    fn run(&mut self, conns: &[Conn], secs: f64) -> Result<(), String> {
        let streams: Vec<&Stream> = conns.iter().flat_map(|c| &c.streams).collect();
        let mut scratch: Vec<_> = streams.iter().map(|s| s.ring.base.clone()).collect();
        let start = Instant::now();
        let complete = |sol: &[Vec<Option<Vec<f64>>>]| sol.iter().flatten().all(Option::is_some);
        while start.elapsed().as_secs_f64() < secs || !complete(&self.solutions) {
            for (i, s) in streams.iter().enumerate() {
                let pos = ping_pong(self.steps[i], s.ring.values.len());
                self.steps[i] += 1;
                scratch[i].values_mut().copy_from_slice(&s.ring.values[pos]);
                let mut x = s.b.clone();
                let t0 = Instant::now();
                session_step(
                    &mut self.sessions[i],
                    &scratch[i],
                    &mut x,
                    &mut Trace::new(false),
                    0,
                    None,
                )
                .map_err(|e| format!("reference step: {e}"))?;
                self.busy_s += t0.elapsed().as_secs_f64();
                self.done += 1;
                self.solutions[i][pos].get_or_insert(x);
            }
        }
        Ok(())
    }
}

/// What one client connection measured.
#[derive(Default)]
struct ClientReport {
    sent: u64,
    received: u64,
    failed: u64,
    step_ms: Vec<f64>,
    /// `(op, send instant, reply instant)` of the traced steps.
    spans: Vec<(u64, Instant, Instant)>,
    /// Latencies (ms) of the untraced and the traced steps.
    class_step_ms: [Vec<f64>; 2],
}

/// Closed loop over one connection: `FLEET_IN_FLIGHT` steps in flight
/// on distinct streams, the next sent when a reply arrives.
fn drive(
    conn: &mut Conn,
    solutions: &[&[Option<Vec<f64>>]],
    deadline: Instant,
    traced_run: bool,
    op_base: u64,
) -> ClientReport {
    let mut rep = ClientReport::default();
    let mut checker = Checker::new();
    let mut inflight: VecDeque<(u64, Instant, usize, usize, bool)> = VecDeque::new();
    let mut next = 0usize;
    loop {
        while inflight.len() < FLEET_IN_FLIGHT.min(conn.streams.len()) && Instant::now() < deadline
        {
            let pos = conn.streams[next].next_position();
            let traced = traced_run && (rep.sent as usize / TRACE_BLOCK) % 2 == 1;
            let t0 = Instant::now();
            match conn.client.send(&conn.streams[next].requests[pos]) {
                Ok(id) => inflight.push_back((id, t0, next, pos, traced)),
                Err(e) => {
                    eprintln!("send failed: {e}");
                    rep.failed += 1 + inflight.len() as u64;
                    rep.sent += 1;
                    return rep;
                }
            }
            rep.sent += 1;
            next = (next + 1) % conn.streams.len();
        }
        let Some((id, t0, si, pos, traced)) = inflight.pop_front() else {
            return rep;
        };
        let reply = match conn.client.recv() {
            Ok((got, resp)) if got == id => step_reply(resp),
            Ok((got, _)) => {
                eprintln!("reply {got} for request {id}");
                rep.failed += 1 + inflight.len() as u64;
                return rep;
            }
            Err(e) => {
                // The connection is gone: this ticket and every one
                // behind it will never be answered.
                eprintln!("recv failed: {e}");
                rep.failed += 1 + inflight.len() as u64;
                return rep;
            }
        };
        let t1 = Instant::now();
        rep.received += 1;
        let stream = &conn.streams[si];
        let ok = match reply {
            Ok(r) => {
                let a = with_values(&stream.ring.base, &stream.ring.values[pos]);
                let residual = checker.residual(&a, &r.x, &stream.b);
                let vs = solutions[si][pos]
                    .as_ref()
                    .map(|xr| relative_difference(&r.x, xr));
                step_ok(residual, vs) && vs.is_some()
            }
            Err(e) => {
                eprintln!("step failed: {e}");
                false
            }
        };
        if !ok {
            rep.failed += 1;
            continue;
        }
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        rep.step_ms.push(ms);
        if traced_run {
            rep.class_step_ms[usize::from(traced)].push(ms);
        }
        if traced {
            rep.spans.push((op_base + id, t0, t1));
        }
    }
}

/// Runs `shard_fleet`: set-up (repeated for `setup_s`), the serial
/// reference before and after, and the window in between.
pub fn run(opts: &Options, trace: &mut Trace) -> Result<Window, String> {
    let shardd = ensure_shardd()?;
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::with_capacity(reps);
    let mut ready = None;
    for rep in 0..reps {
        drop(ready.take());
        let t0 = Instant::now();
        ready = Some(setup(opts, &shardd, rep)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let Ready { fleet, mut conns } = ready.expect("at least one set-up");

    // "A plain single-threaded run of the same problem", 2 s on each
    // side of a 15 s window; shorter windows scale it down.
    let reference_secs = (opts.window_seconds() / 7.5).clamp(0.2, 2.0);
    let mut serial = SerialLoop::new(opts, &conns)?;
    serial.run(&conns, reference_secs)?;

    let (child_cpu0, _) = Fleet::children_usage();
    let cpu0 = sysinfo::cpu_ms("self") + child_cpu0;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.window_seconds());
    let mut offset = 0;
    let solutions: Vec<Vec<&[Option<Vec<f64>>]>> = conns
        .iter()
        .map(|c| {
            let mine = serial.solutions[offset..offset + c.streams.len()]
                .iter()
                .map(Vec::as_slice)
                .collect();
            offset += c.streams.len();
            mine
        })
        .collect();
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&solutions)
            .enumerate()
            .map(|(c, (conn, sol))| {
                let traced = opts.trace;
                scope.spawn(move || drive(conn, sol, deadline, traced, (c as u64) << 32))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (child_cpu1, child_rss) = Fleet::children_usage();
    let cpu1 = sysinfo::cpu_ms("self") + child_cpu1;
    // Stats are read while the client connections are still open:
    // closed streams drop out of the shards' per-stream sums.
    let wire_stats = fleet.stats()?;
    let peak_rss_mb = sysinfo::peak_rss_mib("self") + child_rss;
    drop(solutions);

    serial.run(&conns, reference_secs)?;
    drop(conns);
    drop(fleet);

    let mut w = Window {
        setup_s: stats::median(&setup_times).unwrap_or(f64::NAN),
        busy_s: wall_s,
        cpu_ms: cpu1 - cpu0,
        peak_rss_mb,
        klu_steps_per_s: serial.done as f64 / serial.busy_s,
        pairs: serial.done as usize,
        ..Window::default()
    };
    let mut sent = 0;
    let mut received = 0;
    trace.set_enabled(opts.trace);
    for r in reports {
        sent += r.sent;
        received += r.received;
        w.failed += r.failed;
        w.step_ms.extend(r.step_ms);
        for (op, t0, t1) in r.spans {
            trace.push_measured("client.step", op, t0, t1);
        }
        for (mine, theirs) in w.class_step_ms.iter_mut().zip(r.class_step_ms) {
            mine.extend(theirs);
        }
    }
    w.attempted = sent;
    w.speedup_vs_klu = (w.verified() as f64 / wall_s) / w.klu_steps_per_s;
    w.serve = Some(ServeCounters::from_stats(&wire_stats, sent - received));
    let shard_steps: Vec<String> = wire_stats
        .shards
        .iter()
        .map(|s| {
            format!(
                "shard{} steps {} factors {} refactors {}",
                s.shard, s.steps, s.factors, s.refactors
            )
        })
        .collect();
    w.notes.push(("fleet".into(), shard_steps.join("; ")));
    Ok(w)
}
