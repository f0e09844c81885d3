//! Shard supervision: spawn `shardd` worker processes, watch their
//! health, and respawn crashed ones.
//!
//! Each shard is one OS process hosting one
//! [`SolverService`](basker_api::SolverService), listening on its own
//! Unix socket under the supervisor's directory. A shard's identity is
//! its **slot index**; its incarnation is the **epoch**, bumped on
//! every respawn. Routers cache connections per `(slot, epoch)` and
//! treat an epoch bump as "all streams on that shard are gone —
//! re-establish lazily".
//!
//! Crash detection is two-layered: a background health thread reaps
//! exited children (`try_wait`) and respawns them, and routers call
//! [`report_down`](ShardSet::report_down) the moment an I/O error
//! surfaces on a shard connection, which respawns synchronously so the
//! *next* request can already find a live process.

use crate::client::Client;
use crate::wire::Addr;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How to spawn and size the shard fleet.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Path to the `shardd` binary.
    pub shardd: PathBuf,
    /// Number of shard processes.
    pub shards: usize,
    /// Worker threads per shard (0 = the shard's default).
    pub threads: usize,
    /// Directory for the shards' Unix sockets.
    pub dir: PathBuf,
}

impl ShardSpec {
    /// A spec with defaults sized for tests.
    pub fn new(shardd: impl Into<PathBuf>, shards: usize, dir: impl Into<PathBuf>) -> ShardSpec {
        ShardSpec {
            shardd: shardd.into(),
            shards,
            threads: 0,
            dir: dir.into(),
        }
    }
}

struct Slot {
    addr: Addr,
    child: Child,
    epoch: u64,
}

struct Inner {
    spec: ShardSpec,
    slots: Mutex<Vec<Slot>>,
    stop: AtomicBool,
    respawns: AtomicU64,
}

/// A supervised fleet of shard processes. Call
/// [`shutdown_all`](ShardSet::shutdown_all) before exiting — the
/// `Drop` impl backstops it, but a `ShardSet` shared through an `Arc`
/// with detached threads may never drop, and orphaned children
/// outlive the process.
pub struct ShardSet {
    inner: Arc<Inner>,
    health: Mutex<Option<thread::JoinHandle<()>>>,
}

/// The path of shard `i`'s socket under `dir`.
fn sock_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard{i}.sock"))
}

fn spawn_child(spec: &ShardSpec, i: usize, epoch: u64) -> io::Result<Slot> {
    let path = sock_path(&spec.dir, i);
    let _ = std::fs::remove_file(&path); // stale socket from a dead epoch
    let addr = Addr::Uds(path);
    let mut cmd = Command::new(&spec.shardd);
    cmd.arg("--listen")
        .arg(addr.to_string())
        .arg("--shard")
        .arg(i.to_string())
        .arg("--epoch")
        .arg(epoch.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    if spec.threads > 0 {
        cmd.arg("--threads").arg(spec.threads.to_string());
    }
    let child = cmd.spawn()?;
    let slot = Slot { addr, child, epoch };
    wait_ready(&slot.addr, epoch, Duration::from_secs(30))?;
    Ok(slot)
}

/// Pings `addr` until the expected epoch answers or the deadline hits.
fn wait_ready(addr: &Addr, epoch: u64, deadline: Duration) -> io::Result<()> {
    let start = Instant::now();
    loop {
        if let Ok(mut c) = Client::connect(addr) {
            let _ = c.set_read_timeout(Some(Duration::from_millis(500)));
            if let Ok(e) = c.ping() {
                if e == epoch {
                    return Ok(());
                }
            }
        }
        if start.elapsed() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("shard at {addr} not ready after {deadline:?}"),
            ));
        }
        thread::sleep(Duration::from_millis(20));
    }
}

impl ShardSet {
    /// Spawns the fleet and waits until every shard answers pings.
    pub fn spawn(spec: ShardSpec) -> io::Result<ShardSet> {
        std::fs::create_dir_all(&spec.dir)?;
        let mut slots = Vec::with_capacity(spec.shards);
        for i in 0..spec.shards {
            slots.push(spawn_child(&spec, i, 0)?);
        }
        let inner = Arc::new(Inner {
            spec,
            slots: Mutex::new(slots),
            stop: AtomicBool::new(false),
            respawns: AtomicU64::new(0),
        });
        let health = {
            let inner = inner.clone();
            thread::spawn(move || health_loop(&inner))
        };
        Ok(ShardSet {
            inner,
            health: Mutex::new(Some(health)),
        })
    }

    /// Number of shard slots.
    pub fn num_shards(&self) -> usize {
        self.inner.spec.shards
    }

    /// The socket address of slot `i`.
    pub fn addr(&self, i: usize) -> Addr {
        self.inner.slots.lock().unwrap()[i].addr.clone()
    }

    /// The current epoch of slot `i`.
    pub fn epoch(&self, i: usize) -> u64 {
        self.inner.slots.lock().unwrap()[i].epoch
    }

    /// Total respawns performed so far.
    pub fn respawns(&self) -> u64 {
        // ORDER: SeqCst — respawn accounting on the crash-recovery
        // path; cold enough that the strongest ordering is free and
        // keeps failover assertions exact across observer threads.
        self.inner.respawns.load(Ordering::SeqCst)
    }

    /// Hard-kills slot `i`'s process (for crash-injection tests). The
    /// health thread or the next [`report_down`](ShardSet::report_down)
    /// respawns it.
    pub fn kill(&self, i: usize) {
        let mut slots = self.inner.slots.lock().unwrap();
        let _ = slots[i].child.kill();
        let _ = slots[i].child.wait();
    }

    /// A router observed an I/O failure on slot `i` at `epoch`.
    /// Respawns the shard synchronously unless someone already did
    /// (the epoch moved on). Returns the epoch now serving.
    pub fn report_down(&self, i: usize, epoch: u64) -> u64 {
        let mut slots = self.inner.slots.lock().unwrap();
        // ORDER: SeqCst — shutdown latch read on the failover path
        // (cold; pairs with the `stop` store in `shutdown`).
        if slots[i].epoch != epoch || self.inner.stop.load(Ordering::SeqCst) {
            return slots[i].epoch; // already respawned (or shutting down)
        }
        let _ = slots[i].child.kill();
        let _ = slots[i].child.wait();
        respawn(&self.inner, &mut slots, i);
        slots[i].epoch
    }

    /// Gracefully shuts down every shard (wire `Shutdown`, then kill
    /// stragglers: a shard that does not exit within 5 s of its
    /// acknowledgement) and stops the health thread. Idempotent.
    pub fn shutdown_all(&self) {
        // ORDER: SeqCst — one-shot shutdown latch (cold path); the
        // monitor and routers re-check it after every blocking step.
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.health.lock().unwrap().take() {
            let _ = h.join();
        }
        let mut slots = self.inner.slots.lock().unwrap();
        for slot in slots.iter_mut() {
            let polite = Client::connect(&slot.addr).ok().and_then(|mut c| {
                let _ = c.set_read_timeout(Some(EXIT_GRACE));
                c.shutdown().ok()
            });
            let grace = if polite.is_some() {
                EXIT_GRACE
            } else {
                Duration::ZERO
            };
            reap_within(&mut slot.child, grace);
            if let Addr::Uds(p) = &slot.addr {
                let _ = std::fs::remove_file(p);
            }
        }
    }
}

/// How long a shard that acknowledged `Shutdown` has to exit before it
/// is killed: the shutdown client's read timeout.
const EXIT_GRACE: Duration = Duration::from_secs(5);

/// Waits up to `grace` for `child` to exit, polling `try_wait`, kills it
/// if it is still running then, and reaps it either way.
fn reap_within(child: &mut Child, grace: Duration) {
    let deadline = Instant::now() + grace;
    while let Ok(None) = child.try_wait() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    let _ = child.wait();
}

impl Drop for ShardSet {
    fn drop(&mut self) {
        self.shutdown_all();
    }
}

fn health_loop(inner: &Inner) {
    // ORDER: SeqCst ×3 — shutdown latch reads in the monitor loop
    // (cold; pairs with the `shutdown` store).
    while !inner.stop.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(100));
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let mut slots = inner.slots.lock().unwrap();
        for i in 0..slots.len() {
            let exited = matches!(slots[i].child.try_wait(), Ok(Some(_)));
            if !exited {
                continue;
            }
            // ORDER: SeqCst — re-check the shutdown latch before a
            // respawn (cold; pairs with the `shutdown` store).
            if inner.stop.load(Ordering::SeqCst) {
                return;
            }
            respawn(inner, &mut slots, i);
        }
    }
}

/// Spawns slot `i`'s next epoch over its dead process and counts the
/// respawn; a failed spawn is logged and leaves the slot as it was, so
/// the next health pass or `report_down` tries again.
fn respawn(inner: &Inner, slots: &mut [Slot], i: usize) {
    match spawn_child(&inner.spec, i, slots[i].epoch + 1) {
        Ok(slot) => {
            slots[i] = slot;
            // ORDER: SeqCst — crash-recovery accounting (see `respawns`).
            inner.respawns.fetch_add(1, Ordering::SeqCst);
        }
        Err(e) => eprintln!("shard {i}: respawn failed: {e}"),
    }
}

/// The path of the `shardd` binary next to the currently running
/// executable (harnesses and `shardd` build into the same target dir).
pub fn sibling_shardd() -> io::Result<PathBuf> {
    let me = std::env::current_exe()?;
    let dir = me
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "current_exe has no parent dir"))?;
    let cand = dir.join("shardd");
    if cand.exists() {
        return Ok(cand);
    }
    // Integration tests run from target/<profile>/deps; the bins live
    // one level up.
    if let Some(up) = dir.parent() {
        let cand = up.join("shardd");
        if cand.exists() {
            return Ok(cand);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        format!("shardd binary not found near {}", me.display()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::process::ExitStatusExt;

    #[test]
    fn reap_within_kills_a_child_that_does_not_exit() {
        let mut child = Command::new("sleep").arg("30").spawn().unwrap();
        let grace = Duration::from_millis(300);
        let t0 = Instant::now();
        reap_within(&mut child, grace);
        let took = t0.elapsed();
        assert!(
            took >= grace && took < grace + Duration::from_secs(1),
            "{took:?}"
        );
        let status = child.try_wait().unwrap().expect("reaped");
        assert_eq!(status.signal(), Some(9), "{status:?}");
    }
}
