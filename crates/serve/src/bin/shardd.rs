//! `shardd` — one shard of the serving tier: a single
//! [`SolverService`] behind a wire listener, normally spawned and
//! supervised by a [`ShardSet`](basker_serve::ShardSet).
//!
//! ```text
//! shardd --listen uds:/run/basker/shard0.sock [--shard 0] [--epoch 0]
//!        [--threads N]
//! ```
//!
//! Exits cleanly when a client sends the wire `Shutdown` request (the
//! service drains first, so every queued step is answered).

use basker_api::{ServiceConfig, SolverService};
use basker_serve::wire::{Addr, Listener};
use std::process::ExitCode;

struct Args {
    listen: Addr,
    shard: u32,
    epoch: u64,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut listen: Option<Addr> = None;
    let mut shard = 0u32;
    let mut epoch = 0u64;
    let mut threads = 0usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--listen" => listen = Some(Addr::parse(&val("--listen")?).map_err(|e| e.to_string())?),
            "--shard" => {
                shard = val("--shard")?
                    .parse()
                    .map_err(|e| format!("--shard: {e}"))?
            }
            "--epoch" => {
                epoch = val("--epoch")?
                    .parse()
                    .map_err(|e| format!("--epoch: {e}"))?
            }
            "--threads" => {
                threads = val("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: shardd --listen <tcp:HOST:PORT|uds:PATH> [--shard N] [--epoch N] \
                     [--threads N]"
                        .into(),
                );
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let listen = listen.ok_or("--listen is required")?;
    Ok(Args {
        listen,
        shard,
        epoch,
        threads,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("shardd: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = ServiceConfig::new();
    if args.threads > 0 {
        cfg = cfg.threads(args.threads);
    }
    let service = SolverService::new(&cfg);
    let listener = match Listener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("shardd: bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    match basker_serve::serve(listener, &service, args.shard, args.epoch) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("shardd: serve: {e}");
            ExitCode::FAILURE
        }
    }
}
