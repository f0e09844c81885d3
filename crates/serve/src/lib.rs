//! The sharded serving tier: the in-process
//! [`SolverService`](basker_api::SolverService) seam, multiplied across
//! OS processes and put on the network.
//!
//! ```text
//!  clients ──TCP/UDS──▶ router ──UDS──▶ shardd #0 ─▶ SolverService ─▶ WorkerTeam
//!                         │  (pattern   shardd #1 ─▶ SolverService ─▶ WorkerTeam
//!                         │   hash)     shardd #2 ─▶ SolverService ─▶ WorkerTeam
//!                         └── ShardSet supervisor (health, respawn, epochs)
//! ```
//!
//! Layers, bottom up:
//!
//! * [`wire`] — transport ([`Addr`]/[`Listener`]/[`Conn`] over TCP or
//!   Unix sockets) and framing: `"BSK1" | kind u8 | req_id u64 |
//!   len u32 | payload`, all little-endian, 64 MiB frame cap, plus the
//!   bounds-checked payload codec.
//! * [`proto`] — the typed requests/responses riding the frames:
//!   open/step/close/stats/shutdown, matrix and quality serialization,
//!   error classification, and the FNV-1a [`pattern_hash`] streams are
//!   sharded by.
//! * [`server`] — one shard: a [`SolverService`](basker_api::SolverService)
//!   behind a listener, a reader thread that *submits* and a writer
//!   thread that *waits tickets*, preserving the submit/ticket
//!   pipelining over the network.
//! * [`shard`] — the [`ShardSet`] supervisor: spawns `shardd`
//!   processes, pings them up, reaps and respawns crashes, bumps the
//!   epoch each respawn.
//! * [`router`] — the pattern-hash [`Router`]: same-pattern streams
//!   co-locate on one shard; a connection's steps are forwarded as
//!   they arrive and answered in request order; crashed shards answer
//!   in-flight requests with clean `ShardUnavailable` errors and
//!   streams re-open lazily on the respawned process from retained
//!   open requests.
//! * [`client`] — the blocking [`Client`] used by routers, harnesses,
//!   and tests, which splits into a send and a receive half.
//!
//! The `shardd` binary wraps these: `shardd --listen uds:/path` hosts
//! one shard. A fleet plus router under load is the benchmark's
//! `shard_fleet` workload (steps/s, p50/p95/p99 step latency); the
//! zero-ticket-loss failover contract — crash a shard mid-load — is
//! `tests/shard_tier.rs::induced_shard_crash_loses_no_tickets`.

pub mod client;
pub mod proto;
pub mod router;
pub mod server;
pub mod shard;
pub mod wire;

pub use client::{Client, ClientError, StepReply};
pub use proto::{pattern_hash, ErrCode, OpenRequest, Request, Response, WireError, WireStats};
pub use router::Router;
pub use server::serve;
pub use shard::{sibling_shardd, ShardSet, ShardSpec};
pub use wire::{Addr, Conn, Listener};
