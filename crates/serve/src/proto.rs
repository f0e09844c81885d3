//! The serve-tier protocol: typed requests/responses over the
//! [`wire`](crate::wire) framing, putting the in-process
//! `stream/submit/ticket` seam of
//! [`SolverService`](basker_api::SolverService) on the network.
//!
//! A conversation is a sequence of request frames, each answered by
//! exactly one response frame echoing the request's `req_id`. Kinds:
//!
//! | kind | request | payload |
//! |------|---------|---------|
//! | 1 | `Ping` | — |
//! | 2 | `Open` | engine, policy, refine params, pattern + values |
//! | 3 | `Step` | stream id, refined flag, values, packed RHS |
//! | 4 | `Close` | stream id |
//! | 5 | `Stats` | — |
//! | 6 | `Shutdown` | — |
//!
//! | kind | response | payload |
//! |------|----------|---------|
//! | 129 | `Pong` | epoch |
//! | 130 | `Opened` | stream id, pattern hash |
//! | 131 | `Step` | session state, solution, per-RHS quality |
//! | 132 | `Closed` | — |
//! | 133 | `Stats` | aggregated [`WireStats`] |
//! | 134 | `ShutdownAck` | — |
//! | 255 | `Err` | [`WireError`] (code + message) |
//!
//! `Open` carries the full matrix (pattern + values); `Step` carries
//! values and right-hand sides only — the pattern lives server-side for
//! the life of the stream, exactly like the in-process session seam.
//! Streams are **scoped to their connection**: closing the connection
//! closes its streams, so a crashed client leaks nothing.

use crate::wire::{Rd, Wr};
use basker_api::{
    Engine, ReusePolicy, SessionConfig, SessionState, SolveQuality, SolverError, StepResult,
};
use basker_sparse::CscMat;

/// Request frame kinds.
pub mod kind {
    /// Health probe.
    pub const PING: u8 = 1;
    /// Open a stream (analyze a pattern).
    pub const OPEN: u8 = 2;
    /// Step a stream (factor/refactor + solves).
    pub const STEP: u8 = 3;
    /// Close a stream.
    pub const CLOSE: u8 = 4;
    /// Fetch serving stats.
    pub const STATS: u8 = 5;
    /// Orderly shutdown.
    pub const SHUTDOWN: u8 = 6;
    /// Response: ping reply.
    pub const PONG: u8 = 129;
    /// Response: stream opened.
    pub const OPENED: u8 = 130;
    /// Response: step result.
    pub const STEP_OK: u8 = 131;
    /// Response: stream closed.
    pub const CLOSED: u8 = 132;
    /// Response: stats payload.
    pub const STATS_OK: u8 = 133;
    /// Response: shutdown acknowledged.
    pub const SHUTDOWN_OK: u8 = 134;
    /// Response: error.
    pub const ERR: u8 = 255;
}

/// Why a request failed, classified so routers and clients can react
/// (retry, re-pivot upstream, fail over) without parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// [`SolverError::SingularPivot`].
    SingularPivot,
    /// [`SolverError::StructurallySingular`].
    StructurallySingular,
    /// [`SolverError::Config`].
    Config,
    /// [`SolverError::Sparse`].
    Sparse,
    /// [`SolverError::ServiceShutdown`] — the shard is going down; the
    /// step never ran.
    ServiceShutdown,
    /// The shard process is unreachable (crashed / restarting). The
    /// in-flight step is lost but was answered; resubmit after the
    /// supervisor respawns the shard.
    ShardUnavailable,
    /// Malformed frame or payload, unknown stream id, protocol misuse.
    Protocol,
}

impl ErrCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrCode::SingularPivot => 1,
            ErrCode::StructurallySingular => 2,
            ErrCode::Config => 3,
            ErrCode::Sparse => 4,
            ErrCode::ServiceShutdown => 5,
            ErrCode::ShardUnavailable => 6,
            ErrCode::Protocol => 7,
        }
    }
    fn from_u8(v: u8) -> Result<ErrCode, String> {
        Ok(match v {
            1 => ErrCode::SingularPivot,
            2 => ErrCode::StructurallySingular,
            3 => ErrCode::Config,
            4 => ErrCode::Sparse,
            5 => ErrCode::ServiceShutdown,
            6 => ErrCode::ShardUnavailable,
            7 => ErrCode::Protocol,
            other => return Err(format!("unknown error code {other}")),
        })
    }
}

/// A failure carried over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Classification (see [`ErrCode`]).
    pub code: ErrCode,
    /// Human-readable detail (the solver error's display form).
    pub message: String,
}

impl WireError {
    /// Wraps a protocol-level failure.
    pub fn protocol(msg: impl Into<String>) -> WireError {
        WireError {
            code: ErrCode::Protocol,
            message: msg.into(),
        }
    }

    /// Wraps a shard-unreachable failure.
    pub fn unavailable(msg: impl Into<String>) -> WireError {
        WireError {
            code: ErrCode::ShardUnavailable,
            message: msg.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl From<&SolverError> for WireError {
    fn from(e: &SolverError) -> WireError {
        let code = match e {
            SolverError::SingularPivot { .. } => ErrCode::SingularPivot,
            SolverError::StructurallySingular { .. } => ErrCode::StructurallySingular,
            SolverError::Config(_) => ErrCode::Config,
            SolverError::ServiceShutdown => ErrCode::ServiceShutdown,
            SolverError::Sparse(_) => ErrCode::Sparse,
        };
        WireError {
            code,
            message: e.to_string(),
        }
    }
}

/// The payload of an `Open` request: everything a shard needs to
/// re-create the stream's session — which makes it the unit of
/// **failover state**: the router retains it per stream and replays it
/// on a respawned shard.
#[derive(Debug, Clone)]
pub struct OpenRequest {
    /// Engine selector.
    pub engine: Engine,
    /// Factor-reuse policy.
    pub policy: ReusePolicy,
    /// Refined-solve target residual.
    pub target_residual: f64,
    /// Maximum refinement sweeps.
    pub max_refine_iterations: usize,
    /// The stream's first matrix (pattern + values).
    pub matrix: CscMat,
}

impl OpenRequest {
    /// The [`SessionConfig`] this request describes.
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig::new()
            .engine(self.engine)
            .policy(self.policy)
            .target_residual(self.target_residual)
            .max_refine_iterations(self.max_refine_iterations)
    }
}

/// A decoded request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Health probe.
    Ping,
    /// Open a stream.
    Open(OpenRequest),
    /// Step a stream: refresh values, factor/refactor by policy, solve
    /// each packed right-hand side (refined when asked).
    Step {
        /// Stream id from `Opened`.
        stream: u64,
        /// Solve with iterative refinement and report quality.
        refined: bool,
        /// The step's matrix values (pattern order, full nnz).
        values: Vec<f64>,
        /// Packed right-hand sides (multiple of the stream dimension).
        rhs: Vec<f64>,
    },
    /// Close a stream.
    Close {
        /// Stream id from `Opened`.
        stream: u64,
    },
    /// Fetch serving stats.
    Stats,
    /// Orderly shutdown of the peer.
    Shutdown,
}

/// Per-shard serving counters as carried by a `Stats` response. A shard
/// reports one row about itself; a router reports one row per shard
/// plus its own [`RouterWireStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStatsWire {
    /// Shard index (0 on a bare shard).
    pub shard: u32,
    /// Supervisor respawn epoch of the process that answered.
    pub epoch: u64,
    /// Worker-team width inside the shard.
    pub team_width: u32,
    /// Streams currently registered.
    pub streams: u64,
    /// Steps completed.
    pub steps: u64,
    /// Steps that returned an error.
    pub errors: u64,
    /// Fresh factorizations across all sessions.
    pub factors: u64,
    /// Value-only refactorizations across all sessions.
    pub refactors: u64,
    /// Scheduler batch fill of the shard's service.
    pub occupancy: f64,
    /// Worst refined residual any stream reported.
    pub worst_residual: f64,
}

/// Router-level counters in a `Stats` response (zero on a bare shard).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterWireStats {
    /// Streams routed (open requests accepted).
    pub routed_streams: u64,
    /// Step requests forwarded.
    pub steps: u64,
    /// Error responses returned to clients.
    pub errors: u64,
    /// In-flight requests that died with a shard (answered with
    /// [`ErrCode::ShardUnavailable`]).
    pub failovers: u64,
    /// Streams re-established on a respawned shard.
    pub reopens: u64,
    /// Shard respawns performed by the supervisor.
    pub respawns: u64,
}

/// The full `Stats` response payload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireStats {
    /// One row per shard (one row total on a bare shard).
    pub shards: Vec<ShardStatsWire>,
    /// Router-level counters.
    pub router: RouterWireStats,
}

impl WireStats {
    /// Total completed steps across shards.
    pub fn steps(&self) -> u64 {
        self.shards.iter().map(|s| s.steps).sum()
    }
    /// Total errored steps across shards.
    pub fn errors(&self) -> u64 {
        self.shards.iter().map(|s| s.errors).sum()
    }
}

/// A decoded response.
#[derive(Debug, Clone)]
pub enum Response {
    /// Ping reply, carrying the responder's epoch.
    Pong {
        /// Respawn epoch (0 on a fresh shard).
        epoch: u64,
    },
    /// Stream opened.
    Opened {
        /// The stream id to use in `Step`/`Close`.
        stream: u64,
        /// The pattern hash the router sharded on (informational).
        pattern_hash: u64,
    },
    /// Step completed.
    Step {
        /// What the session did (factor/refactor/re-pivot).
        state: SessionState,
        /// The solutions (submitted RHS overwritten).
        x: Vec<f64>,
        /// Per-RHS quality for refined steps.
        quality: Vec<SolveQuality>,
    },
    /// Stream closed.
    Closed,
    /// Stats payload.
    Stats(WireStats),
    /// Shutdown acknowledged; the peer exits after this frame.
    ShutdownAck,
    /// The request failed.
    Err(WireError),
}

// ------------------------------------------------------------ encode --

fn engine_to_u8(e: Engine) -> u8 {
    match e {
        Engine::Auto => 0,
        Engine::Basker => 1,
        Engine::Klu => 2,
        Engine::Snlu => 3,
        Engine::Hybrid => 4,
    }
}

fn engine_from_u8(v: u8) -> Result<Engine, String> {
    Ok(match v {
        0 => Engine::Auto,
        1 => Engine::Basker,
        2 => Engine::Klu,
        3 => Engine::Snlu,
        4 => Engine::Hybrid,
        other => return Err(format!("unknown engine {other}")),
    })
}

fn policy_to_wire(w: &mut Wr, p: ReusePolicy) {
    match p {
        ReusePolicy::AlwaysFactor => {
            w.u8(1);
            w.f64(0.0);
            w.f64(0.0);
        }
        ReusePolicy::AlwaysRefactor => {
            w.u8(2);
            w.f64(0.0);
            w.f64(0.0);
        }
        ReusePolicy::Adaptive {
            growth_limit,
            residual_limit,
        } => {
            w.u8(3);
            w.f64(growth_limit);
            w.f64(residual_limit);
        }
    }
}

fn policy_from_wire(r: &mut Rd) -> Result<ReusePolicy, String> {
    let tag = r.u8()?;
    let growth_limit = r.f64()?;
    let residual_limit = r.f64()?;
    Ok(match tag {
        1 => ReusePolicy::AlwaysFactor,
        2 => ReusePolicy::AlwaysRefactor,
        3 => ReusePolicy::Adaptive {
            growth_limit,
            residual_limit,
        },
        other => return Err(format!("unknown reuse policy {other}")),
    })
}

fn state_to_u8(s: SessionState) -> u8 {
    match s {
        SessionState::Analyzed => 0,
        SessionState::Factored => 1,
        SessionState::Refactored => 2,
        SessionState::Repivoted => 3,
    }
}

fn state_from_u8(v: u8) -> Result<SessionState, String> {
    Ok(match v {
        0 => SessionState::Analyzed,
        1 => SessionState::Factored,
        2 => SessionState::Refactored,
        3 => SessionState::Repivoted,
        other => return Err(format!("unknown session state {other}")),
    })
}

fn matrix_to_wire(w: &mut Wr, m: &CscMat) {
    w.u32(m.nrows() as u32);
    w.u32(m.ncols() as u32);
    w.idx_slice(m.colptr());
    w.idx_slice(m.rowind());
    w.f64_slice(m.values());
}

fn matrix_from_wire(r: &mut Rd) -> Result<CscMat, String> {
    let nrows = r.u32()? as usize;
    let ncols = r.u32()? as usize;
    let colptr = r.idx_slice()?;
    let rowind = r.idx_slice()?;
    let values = r.f64_slice()?;
    // Validate enough structure that from_parts_unchecked cannot be
    // handed out-of-bounds indices by a hostile or corrupted peer.
    if colptr.len() != ncols + 1 {
        return Err("matrix colptr length != ncols + 1".into());
    }
    if colptr.first() != Some(&0) || colptr.windows(2).any(|w| w[0] > w[1]) {
        return Err("matrix colptr is not monotone from 0".into());
    }
    let nnz = match colptr.last() {
        Some(&n) => n,
        None => return Err("matrix colptr is empty".into()),
    };
    if rowind.len() != nnz || values.len() != nnz {
        return Err("matrix rowind/values length != nnz".into());
    }
    if rowind.iter().any(|&i| i >= nrows) {
        return Err("matrix row index out of bounds".into());
    }
    if colptr
        .windows(2)
        .any(|w| rowind[w[0]..w[1]].windows(2).any(|r| r[0] >= r[1]))
    {
        return Err("matrix row indices not strictly increasing within a column".into());
    }
    // SAFETY: every invariant `CscMat::new` checks was validated just
    // above against the untrusted wire data.
    Ok(unsafe { CscMat::from_parts_unchecked(nrows, ncols, colptr, rowind, values) })
}

/// Encodes a request into `(kind, payload)`.
pub fn encode_request(req: &Request) -> (u8, Vec<u8>) {
    let mut w = Wr::new();
    let kind = match req {
        Request::Ping => kind::PING,
        Request::Open(o) => {
            w.u8(engine_to_u8(o.engine));
            policy_to_wire(&mut w, o.policy);
            w.f64(o.target_residual);
            w.u32(o.max_refine_iterations as u32);
            matrix_to_wire(&mut w, &o.matrix);
            kind::OPEN
        }
        Request::Step {
            stream,
            refined,
            values,
            rhs,
        } => return (kind::STEP, encode_step(*stream, *refined, values, rhs)),
        Request::Close { stream } => {
            w.u64(*stream);
            kind::CLOSE
        }
        Request::Stats => kind::STATS,
        Request::Shutdown => kind::SHUTDOWN,
    };
    (kind, w.into_bytes())
}

/// Encodes a `Step` request's payload from borrowed slices: the bytes
/// [`encode_request`] writes for [`Request::Step`], in one allocation.
pub fn encode_step(stream: u64, refined: bool, values: &[f64], rhs: &[f64]) -> Vec<u8> {
    let mut w = Wr::new();
    w.reserve(8 + 1 + 4 + 8 * values.len() + 4 + 8 * rhs.len());
    w.u64(stream);
    w.u8(u8::from(refined));
    w.f64_slice(values);
    w.f64_slice(rhs);
    w.into_bytes()
}

/// Decodes a request frame.
pub fn decode_request(kind: u8, payload: &[u8]) -> Result<Request, String> {
    let mut r = Rd::new(payload);
    let req = match kind {
        kind::PING => Request::Ping,
        kind::OPEN => {
            let engine = engine_from_u8(r.u8()?)?;
            let policy = policy_from_wire(&mut r)?;
            let target_residual = r.f64()?;
            let max_refine_iterations = r.u32()? as usize;
            let matrix = matrix_from_wire(&mut r)?;
            Request::Open(OpenRequest {
                engine,
                policy,
                target_residual,
                max_refine_iterations,
                matrix,
            })
        }
        kind::STEP => Request::Step {
            stream: r.u64()?,
            refined: r.u8()? != 0,
            values: r.f64_slice()?,
            rhs: r.f64_slice()?,
        },
        kind::CLOSE => Request::Close { stream: r.u64()? },
        kind::STATS => Request::Stats,
        kind::SHUTDOWN => Request::Shutdown,
        other => return Err(format!("unknown request kind {other}")),
    };
    r.finish()?;
    Ok(req)
}

/// Bytes of one [`SolveQuality`] on the wire.
const QUALITY_BYTES: usize = 4 + 8 + 8 + 1;

fn quality_to_wire(w: &mut Wr, q: &SolveQuality) {
    w.u32(q.iterations as u32);
    w.f64(q.initial_residual);
    w.f64(q.residual);
    w.u8(u8::from(q.converged));
}

fn quality_from_wire(r: &mut Rd) -> Result<SolveQuality, String> {
    Ok(SolveQuality {
        iterations: r.u32()? as usize,
        initial_residual: r.f64()?,
        residual: r.f64()?,
        converged: r.u8()? != 0,
    })
}

/// Encodes a response into `(kind, payload)`.
pub fn encode_response(resp: &Response) -> (u8, Vec<u8>) {
    let mut w = Wr::new();
    let kind = match resp {
        Response::Pong { epoch } => {
            w.u64(*epoch);
            kind::PONG
        }
        Response::Opened {
            stream,
            pattern_hash,
        } => {
            w.u64(*stream);
            w.u64(*pattern_hash);
            kind::OPENED
        }
        Response::Step { state, x, quality } => {
            w.reserve(1 + 4 + 8 * x.len() + 4 + QUALITY_BYTES * quality.len());
            w.u8(state_to_u8(*state));
            w.f64_slice(x);
            w.u32(quality.len() as u32);
            for q in quality {
                quality_to_wire(&mut w, q);
            }
            kind::STEP_OK
        }
        Response::Closed => kind::CLOSED,
        Response::Stats(stats) => {
            w.u32(stats.shards.len() as u32);
            for s in &stats.shards {
                w.u32(s.shard);
                w.u64(s.epoch);
                w.u32(s.team_width);
                w.u64(s.streams);
                w.u64(s.steps);
                w.u64(s.errors);
                w.u64(s.factors);
                w.u64(s.refactors);
                w.f64(s.occupancy);
                w.f64(s.worst_residual);
            }
            let r = &stats.router;
            w.u64(r.routed_streams);
            w.u64(r.steps);
            w.u64(r.errors);
            w.u64(r.failovers);
            w.u64(r.reopens);
            w.u64(r.respawns);
            kind::STATS_OK
        }
        Response::ShutdownAck => kind::SHUTDOWN_OK,
        Response::Err(e) => {
            w.u8(e.code.to_u8());
            w.str(&e.message);
            kind::ERR
        }
    };
    (kind, w.into_bytes())
}

/// Decodes a response frame.
pub fn decode_response(kind: u8, payload: &[u8]) -> Result<Response, String> {
    let mut r = Rd::new(payload);
    let resp = match kind {
        kind::PONG => Response::Pong { epoch: r.u64()? },
        kind::OPENED => Response::Opened {
            stream: r.u64()?,
            pattern_hash: r.u64()?,
        },
        kind::STEP_OK => {
            let state = state_from_u8(r.u8()?)?;
            let x = r.f64_slice()?;
            let nq = r.u32()? as usize;
            if nq > payload.len() / 8 {
                return Err(format!("quality count {nq} exceeds payload"));
            }
            let mut quality = Vec::with_capacity(nq);
            for _ in 0..nq {
                quality.push(quality_from_wire(&mut r)?);
            }
            Response::Step { state, x, quality }
        }
        kind::CLOSED => Response::Closed,
        kind::STATS_OK => {
            let nshards = r.u32()? as usize;
            if nshards > payload.len() / 8 {
                return Err(format!("shard count {nshards} exceeds payload"));
            }
            let mut shards = Vec::with_capacity(nshards);
            for _ in 0..nshards {
                shards.push(ShardStatsWire {
                    shard: r.u32()?,
                    epoch: r.u64()?,
                    team_width: r.u32()?,
                    streams: r.u64()?,
                    steps: r.u64()?,
                    errors: r.u64()?,
                    factors: r.u64()?,
                    refactors: r.u64()?,
                    occupancy: r.f64()?,
                    worst_residual: r.f64()?,
                });
            }
            let router = RouterWireStats {
                routed_streams: r.u64()?,
                steps: r.u64()?,
                errors: r.u64()?,
                failovers: r.u64()?,
                reopens: r.u64()?,
                respawns: r.u64()?,
            };
            Response::Stats(WireStats { shards, router })
        }
        kind::SHUTDOWN_OK => Response::ShutdownAck,
        kind::ERR => Response::Err(WireError {
            code: ErrCode::from_u8(r.u8()?)?,
            message: r.str()?,
        }),
        other => return Err(format!("unknown response kind {other}")),
    };
    r.finish()?;
    Ok(resp)
}

/// Converts a step outcome into its wire response.
pub fn step_response(result: Result<StepResult, SolverError>) -> Response {
    match result {
        Ok(sr) => Response::Step {
            state: sr.state,
            x: sr.x,
            quality: sr.quality,
        },
        Err(e) => Response::Err(WireError::from(&e)),
    }
}

// -------------------------------------------------------------- hash --

/// The shared FNV-1a pattern hash (dimensions + colptr + rowind,
/// ignoring values): two matrices of the same pattern hash identically,
/// which is the property the router shards on — same-pattern streams
/// co-locate on one shard and share its symbolic analysis and
/// workspace pools.
pub use basker_sparse::metrics::pattern_hash;

#[cfg(test)]
mod tests {
    use super::*;
    use basker_sparse::TripletMat;

    fn sample_matrix(n: usize) -> CscMat {
        let mut t = TripletMat::new(n, n);
        for i in 0..n {
            t.push(i, i, 10.0 + i as f64);
            if i + 1 < n {
                t.push(i + 1, i, -1.0);
            }
        }
        t.to_csc()
    }

    #[test]
    fn request_roundtrip() {
        let reqs = vec![
            Request::Ping,
            Request::Open(OpenRequest {
                engine: Engine::Klu,
                policy: ReusePolicy::Adaptive {
                    growth_limit: 1e4,
                    residual_limit: 1e-8,
                },
                target_residual: 1e-10,
                max_refine_iterations: 4,
                matrix: sample_matrix(5),
            }),
            Request::Step {
                stream: 7,
                refined: true,
                values: vec![1.0, -2.0, 3.5],
                rhs: vec![0.5; 5],
            },
            Request::Close { stream: 3 },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let (k, p) = encode_request(&req);
            let back = decode_request(k, &p).unwrap();
            // Spot-check the interesting fields.
            match (&req, &back) {
                (Request::Open(a), Request::Open(b)) => {
                    assert_eq!(a.engine, b.engine);
                    assert_eq!(a.policy, b.policy);
                    assert_eq!(a.matrix.colptr(), b.matrix.colptr());
                    assert_eq!(a.matrix.values(), b.matrix.values());
                }
                (
                    Request::Step {
                        stream,
                        values,
                        rhs,
                        ..
                    },
                    Request::Step {
                        stream: s2,
                        values: v2,
                        rhs: r2,
                        ..
                    },
                ) => {
                    assert_eq!((stream, values, rhs), (s2, v2, r2));
                }
                _ => assert_eq!(std::mem::discriminant(&req), std::mem::discriminant(&back)),
            }
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = vec![
            Response::Pong { epoch: 3 },
            Response::Opened {
                stream: 9,
                pattern_hash: 0xdead,
            },
            Response::Step {
                state: SessionState::Refactored,
                x: vec![1.0, 2.0],
                quality: vec![SolveQuality {
                    iterations: 2,
                    initial_residual: 1e-6,
                    residual: 1e-12,
                    converged: true,
                }],
            },
            Response::Closed,
            Response::Stats(WireStats {
                shards: vec![ShardStatsWire {
                    shard: 1,
                    epoch: 2,
                    team_width: 4,
                    streams: 10,
                    steps: 100,
                    errors: 1,
                    factors: 10,
                    refactors: 89,
                    occupancy: 0.75,
                    worst_residual: 1e-9,
                }],
                router: RouterWireStats {
                    routed_streams: 10,
                    steps: 100,
                    errors: 1,
                    failovers: 1,
                    reopens: 2,
                    respawns: 1,
                },
            }),
            Response::ShutdownAck,
            Response::Err(WireError {
                code: ErrCode::SingularPivot,
                message: "column 3".into(),
            }),
        ];
        for resp in resps {
            let (k, p) = encode_response(&resp);
            let back = decode_response(k, &p).unwrap();
            match (&resp, &back) {
                (Response::Stats(a), Response::Stats(b)) => assert_eq!(a, b),
                (Response::Err(a), Response::Err(b)) => assert_eq!(a, b),
                (
                    Response::Step { state, x, quality },
                    Response::Step {
                        state: s2,
                        x: x2,
                        quality: q2,
                    },
                ) => {
                    assert_eq!(state, s2);
                    assert_eq!(x, x2);
                    assert_eq!(quality.len(), q2.len());
                    assert_eq!(quality[0].iterations, q2[0].iterations);
                }
                _ => assert_eq!(std::mem::discriminant(&resp), std::mem::discriminant(&back)),
            }
        }
    }

    #[test]
    fn malformed_payloads_error_cleanly() {
        // Truncations of a full Open request must never panic.
        let (k, p) = encode_request(&Request::Open(OpenRequest {
            engine: Engine::Basker,
            policy: ReusePolicy::AlwaysFactor,
            target_residual: 1e-10,
            max_refine_iterations: 4,
            matrix: sample_matrix(6),
        }));
        for cut in 0..p.len() {
            assert!(decode_request(k, &p[..cut]).is_err(), "cut {cut}");
        }
        // Unknown kinds and trailing garbage are errors.
        assert!(decode_request(200, &[]).is_err());
        assert!(decode_response(3, &[]).is_err());
        let (k, mut p) = encode_request(&Request::Stats);
        p.push(0);
        assert!(decode_request(k, &p).is_err());
    }

    #[test]
    fn step_payload_rejects_every_truncation() {
        let values: Vec<f64> = (0..13).map(|i| 1.0 + i as f64).collect();
        let rhs = vec![0.5, -0.0, f64::NAN, f64::INFINITY, 3.0];
        let req = Request::Step {
            stream: 42,
            refined: true,
            values: values.clone(),
            rhs: rhs.clone(),
        };
        let (k, p) = encode_request(&req);
        assert_eq!(k, kind::STEP);
        // The layout element by element: id, flag, then each slice as a
        // u32 count and its elements' LE bits.
        let mut want = Wr::new();
        want.u64(42);
        want.u8(1);
        for slice in [&values, &rhs] {
            want.u32(slice.len() as u32);
            for &v in slice {
                want.f64(v);
            }
        }
        assert_eq!(p, want.into_bytes());
        for cut in 0..p.len() {
            assert!(decode_request(k, &p[..cut]).is_err(), "cut {cut}");
        }
        let mut long = p.clone();
        long.push(0);
        assert!(decode_request(k, &long).is_err(), "trailing byte");
        let Request::Step {
            stream,
            refined,
            values: v2,
            rhs: r2,
        } = decode_request(k, &p).unwrap()
        else {
            panic!("not a step");
        };
        assert_eq!((stream, refined), (42, true));
        let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!((bits(&v2), bits(&r2)), (bits(&values), bits(&rhs)));
    }

    #[test]
    fn hostile_matrix_payload_rejected() {
        // Out-of-bounds row indices must be caught before they reach
        // from_parts_unchecked.
        let mut w = Wr::new();
        w.u32(3); // nrows
        w.u32(3); // ncols
        w.idx_slice(&[0, 1, 2, 3]);
        w.idx_slice(&[0, 1, 99]); // 99 >= nrows
        w.f64_slice(&[1.0, 1.0, 1.0]);
        let bytes = w.into_bytes();
        let mut r = Rd::new(&bytes);
        assert!(matrix_from_wire(&mut r).is_err());

        // Non-monotone colptr too.
        let mut w = Wr::new();
        w.u32(2);
        w.u32(2);
        w.idx_slice(&[0, 2, 1]);
        w.idx_slice(&[0, 1]);
        w.f64_slice(&[1.0, 1.0]);
        let bytes = w.into_bytes();
        assert!(matrix_from_wire(&mut Rd::new(&bytes)).is_err());
    }

    #[test]
    fn pattern_hash_ignores_values_but_not_structure() {
        let a = sample_matrix(8);
        let mut b = a.clone();
        for v in b.values_mut() {
            *v *= 3.0;
        }
        assert_eq!(pattern_hash(&a), pattern_hash(&b), "values must not matter");
        let c = sample_matrix(9);
        assert_ne!(pattern_hash(&a), pattern_hash(&c), "dimension matters");
        let mut t = TripletMat::new(8, 8);
        for i in 0..8 {
            t.push(i, i, 1.0);
        }
        let d = t.to_csc();
        assert_ne!(pattern_hash(&a), pattern_hash(&d), "pattern matters");
    }
}
