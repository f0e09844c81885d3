//! Persistent worker-team runtime (the Kokkos-style "hot" thread pool of
//! the paper's execution model).
//!
//! Basker's parallel numeric phase is a *static team* algorithm: `p`
//! threads cooperate on one factorization through point-to-point
//! synchronization, and the paper's speedups assume those threads already
//! exist, stay pinned to their cores, and cost nothing to re-enter. A
//! pool that spawns fresh OS threads per parallel region pays a
//! `clone(2)` + page-fault storm on every `factor`/`refactor` call —
//! fatal for the transient-simulation workloads that call `refactor`
//! thousands of times per second.
//!
//! [`WorkerTeam`] provides:
//!
//! * `p − 1` long-lived OS threads created **once**, parked on their
//!   own mailbox condvars between jobs (zero CPU when idle); the
//!   submitting thread itself serves as rank 0 — it is the thread that
//!   just built the job's inputs and still has them in cache;
//! * a job **mailbox per worker**: [`WorkerTeam::broadcast`] posts one
//!   job to every mailbox, runs rank 0 inline, and blocks until all
//!   workers report done — a scoped join, so the job closure may borrow
//!   from the caller's stack;
//! * optional **core pinning** ([`TeamConfig::pin`]) via a direct
//!   `sched_setaffinity` syscall (no libc dependency; a no-op on
//!   non-Linux/x86-64 targets);
//! * a process-wide [`shared_team`] registry so every caller asking for
//!   the same width reuses one warm team instead of spawning its own;
//! * an [`os_threads_spawned`] counter that regression tests use to
//!   assert the "zero new threads after warm-up" property.
//!
//! Every concurrently-live rank of a broadcast genuinely runs on its own
//! OS thread (except the width-1 fast path, which runs inline on the
//! caller): Basker's slot hand-off requires all team members to make
//! progress at once, so no sequential fallback is possible.
//!
//! Since the work-assisting refactor, both entry points execute through
//! the **single task loop** of the `task` module: a broadcast is an
//! SPMD `TaskCore` whose participants claim their rank from the
//! shared work index, and a worklist is a claim-loop task *registered
//! for assistance*, so a rank blocked elsewhere (e.g. on a
//! not-yet-published pipeline column) can [`try_assist`] and run queued
//! jobs instead of spinning.

#![warn(missing_docs)]

mod task;

pub use task::{assist_counters, run_assistable, try_assist, AssistCounters};

use std::cell::{Cell, UnsafeCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use task::TaskCore;

/// Configuration of a [`WorkerTeam`].
#[derive(Debug, Clone, Copy)]
pub struct TeamConfig {
    /// Number of worker threads (ranks). Must be at least 1.
    pub width: usize,
    /// Pin worker `r` to core `r mod available_parallelism`. Best-effort:
    /// silently skipped on targets without an affinity syscall binding.
    pub pin: bool,
}

impl TeamConfig {
    /// A team of `width` unpinned workers.
    pub fn new(width: usize) -> TeamConfig {
        TeamConfig { width, pin: false }
    }
}

/// Per-rank context handed to [`WorkerTeam::broadcast`] closures.
#[derive(Debug, Clone, Copy)]
pub struct TeamContext {
    rank: usize,
    width: usize,
}

impl TeamContext {
    /// This worker's rank in `0..width`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Team size of the broadcast.
    pub fn width(&self) -> usize {
        self.width
    }
}

/// Total OS threads ever spawned by this runtime (process-wide).
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Monotonic team-id source (for re-entrance detection).
static NEXT_TEAM_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Team id this thread is a worker of; 0 = not a runtime worker.
    static WORKER_OF: Cell<u64> = const { Cell::new(0) };
}

/// Number of OS threads the runtime has spawned since process start.
///
/// A warm system stops growing this: after the first
/// factorization at a given width, repeated `factor`/`refactor` calls
/// must leave it unchanged (the thread-reuse regression test asserts
/// exactly that).
pub fn os_threads_spawned() -> usize {
    // ORDER: Relaxed — SPAWNED is a monotonic diagnostic counter; the
    // thread-reuse test reads it only after `factor` returns, and the
    // team teardown's join supplies the happens-before edge. The model
    // checker's task suite covers the claim/latch protocol this count
    // rides on; nothing orders *through* it.
    SPAWNED.load(Ordering::Relaxed)
}

struct MailSlot {
    /// The next task this worker should participate in (SPMD broadcasts
    /// post the same `TaskCore` to every mailbox). The submitter keeps
    /// the task's borrowed payload alive until the task's done latch,
    /// which is what makes borrowing jobs (scoped join) sound.
    task: Option<Arc<TaskCore>>,
    shutdown: bool,
}

struct Mailbox {
    slot: Mutex<MailSlot>,
    cv: Condvar,
}

impl Mailbox {
    fn new() -> Mailbox {
        Mailbox {
            slot: Mutex::new(MailSlot {
                task: None,
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }
}

struct Shared {
    id: u64,
    width: usize,
    /// Pin ranks to cores (workers at spawn; rank 0 per job).
    pin: bool,
    mailboxes: Vec<Mailbox>,
    /// OS threads spawned on behalf of this team (its workers plus any
    /// transient nested-broadcast ranks).
    spawned: AtomicUsize,
}

impl Shared {
    /// Records one OS-thread spawn, on this team and process-wide.
    fn count_spawn(&self) {
        // ORDER: Relaxed — monotonic diagnostic counters (see
        // `os_threads_spawned`); the spawn itself, or the scope join
        // for transient ranks, is the real synchronization point.
        self.spawned.fetch_add(1, Ordering::Relaxed);
        SPAWNED.fetch_add(1, Ordering::Relaxed);
    }
}

/// A cell written by exactly one rank and read by the submitter only
/// after the done latch — no concurrent access despite the `Sync` impl.
struct ResultCell<R>(UnsafeCell<Option<R>>);

// SAFETY: each cell is written by exactly one rank (the task claim
// hands out each index once) and read by the submitter only after the
// done latch, so no two threads ever access a cell concurrently.
unsafe impl<R: Send> Sync for ResultCell<R> {}

/// Payload of an SPMD broadcast task: item index = rank.
struct BroadcastPayload<'a, OP, R> {
    op: &'a OP,
    results: &'a [ResultCell<R>],
}

/// Type-erased trampoline running one SPMD rank.
///
/// # Safety
///
/// `data` must point at a live `BroadcastPayload<'_, OP, R>` and
/// `rank` must be an index the task's claim cursor handed out exactly
/// once (it addresses that rank's private `ResultCell`).
unsafe fn run_rank<OP, R>(data: *const (), rank: usize, width: usize)
where
    OP: Fn(TeamContext) -> R + Sync,
    R: Send,
{
    // SAFETY: the submitter keeps the payload alive until the done latch
    // releases it, and `rank` indexes a cell no other thread touches
    // (the task's claim made this thread the unique executor of `rank`).
    // Panics are caught by the task loop and re-raised at the submitter.
    let p = unsafe { &*(data as *const BroadcastPayload<'_, OP, R>) };
    let v = (p.op)(TeamContext { rank, width });
    unsafe { *p.results[rank].0.get() = Some(v) };
}

/// Payload of a worklist task: item index = job index.
struct WorklistPayload<'a, OP> {
    op: &'a OP,
}

/// Type-erased trampoline running one worklist job.
///
/// # Safety
///
/// `data` must point at a live `WorklistPayload<'_, OP>` (the
/// submitter blocks on the done latch before releasing it).
unsafe fn run_worklist_item<OP>(data: *const (), index: usize, _size: usize)
where
    OP: Fn(usize) + Sync,
{
    // SAFETY: the submitter keeps the payload alive until the done
    // latch (run_worklist blocks on `wait_done` before returning).
    let p = unsafe { &*(data as *const WorklistPayload<'_, OP>) };
    (p.op)(index);
}

/// A persistent team of `width` ranks: the submitting thread serves as
/// rank 0 (it is usually cache-warm from preparing the job's inputs) and
/// `width − 1` parked worker threads serve ranks `1..width`.
///
/// ```
/// use basker_runtime::{TeamConfig, WorkerTeam};
///
/// let team = WorkerTeam::new(TeamConfig::new(2));
/// let doubled = team.broadcast(|ctx| ctx.rank() * 2);
/// assert_eq!(doubled, vec![0, 2]);
/// // The same threads serve every subsequent job.
/// let again = team.broadcast(|ctx| ctx.rank());
/// assert_eq!(again, vec![0, 1]);
/// ```
pub struct WorkerTeam {
    shared: Arc<Shared>,
    /// Serializes broadcasts so a shared team runs one job at a time.
    submit: Mutex<()>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerTeam {
    /// Spawns the team's `width − 1` worker threads (rank 0 is always
    /// the submitting thread, so width-1 teams spawn none).
    pub fn new(config: TeamConfig) -> WorkerTeam {
        assert!(config.width >= 1, "team width must be at least 1");
        let shared = Arc::new(Shared {
            // ORDER: Relaxed — id generation only needs uniqueness.
            id: NEXT_TEAM_ID.fetch_add(1, Ordering::Relaxed),
            width: config.width,
            pin: config.pin,
            mailboxes: (1..config.width).map(|_| Mailbox::new()).collect(),
            spawned: AtomicUsize::new(0),
        });
        let mut handles = Vec::new();
        let ncores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        for rank in 1..config.width {
            let sh = shared.clone();
            let pin = config.pin;
            shared.count_spawn();
            let h = std::thread::Builder::new()
                .name(format!("basker-worker-{rank}"))
                .spawn(move || {
                    if pin {
                        let _ = pin_current_thread_to(rank % ncores);
                    }
                    WORKER_OF.with(|c| c.set(sh.id));
                    worker_loop(&sh, rank);
                })
                .expect("failed to spawn worker thread");
            handles.push(h);
        }
        WorkerTeam {
            shared,
            submit: Mutex::new(()),
            handles: Mutex::new(handles),
        }
    }

    /// The team's width (number of ranks).
    pub fn width(&self) -> usize {
        self.shared.width
    }

    /// OS threads spawned on behalf of **this team** since it was
    /// built: its `width − 1` workers plus every transient rank of a
    /// nested [`broadcast`](Self::broadcast). The per-team view of
    /// [`os_threads_spawned`], for callers that share their process
    /// with other teams (concurrently running tests, for one).
    pub fn threads_spawned(&self) -> usize {
        // ORDER: Relaxed — diagnostic counter; readers look at it after
        // the job that could have spawned has been joined.
        self.shared.spawned.load(Ordering::Relaxed)
    }

    /// True when the calling thread is one of this team's workers.
    pub fn on_worker_thread(&self) -> bool {
        WORKER_OF.with(|c| c.get()) == self.shared.id
    }

    /// Runs `op` once on every rank concurrently and returns the
    /// per-rank results in rank order (a scoped join: `op` may borrow
    /// from the caller's stack). Rank 0 runs **on the calling thread**;
    /// ranks `1..width` on the parked workers.
    ///
    /// Internally this is an SPMD task on the work-assisting substrate:
    /// the caller and the woken workers each **claim one index** of the
    /// task's shared work cursor, and the claimed index *is* the rank
    /// (the caller claims first, so rank 0 stays on the submitting
    /// thread). Every rank is live at once on its own OS thread, so
    /// closures may synchronize point-to-point (slots, barriers) across
    /// ranks. If any rank panics, the panic is re-raised here after the
    /// whole team has drained; the workers survive for the next job.
    ///
    /// Called from a thread already acting as one of this team's ranks
    /// (a nested SPMD region inside a job), the persistent ranks are
    /// busy, so the broadcast falls back to transient scoped threads —
    /// still one live thread per rank, just not hot ones.
    pub fn broadcast<OP, R>(&self, op: OP) -> Vec<R>
    where
        OP: Fn(TeamContext) -> R + Sync,
        R: Send,
    {
        let n = self.shared.width;
        if n == 1 {
            // Inline fast path: no task entry, no parked thread to wake.
            return vec![op(TeamContext { rank: 0, width: 1 })];
        }
        if self.on_worker_thread() {
            return nested_scoped_broadcast(&self.shared, &op);
        }
        let results: Vec<ResultCell<R>> =
            (0..n).map(|_| ResultCell(UnsafeCell::new(None))).collect();
        let payload = BroadcastPayload {
            op: &op,
            results: &results,
        };
        let core = TaskCore::new(
            &payload as *const BroadcastPayload<'_, OP, R> as *const (),
            run_rank::<OP, R>,
            n,
            true,
        );

        let guard = self.submit.lock().unwrap();
        // Claim rank 0 for the caller *before* the workers can claim.
        let rank0 = core.claim().expect("fresh SPMD task has rank 0 free");
        debug_assert_eq!(rank0, 0);
        for mb in &self.shared.mailboxes {
            let mut slot = mb.slot.lock().unwrap();
            debug_assert!(slot.task.is_none(), "mailbox not drained");
            slot.task = Some(core.clone());
            mb.cv.notify_one();
        }
        // Rank 0 on the caller, marked as a team rank for the duration
        // so a nested broadcast from inside the job detours to scoped
        // threads instead of deadlocking, and pinned to core 0 (with
        // the previous affinity restored afterwards) when the team is
        // pinned — the root-separator elimination, the factorization's
        // serial bottleneck, runs on rank 0.
        {
            struct Unmark(u64);
            impl Drop for Unmark {
                fn drop(&mut self) {
                    WORKER_OF.with(|c| c.set(self.0));
                }
            }
            let _unmark = Unmark(WORKER_OF.with(|c| c.replace(self.shared.id)));
            let _affinity = self.shared.pin.then(AffinityGuard::pin_to_core0);
            core.run_claimed(rank0);
        }
        core.wait_done();
        drop(guard);

        core.rethrow_panic();
        results
            .into_iter()
            .map(|c| c.0.into_inner().expect("worker rank produced no result"))
            .collect()
    }
}

impl WorkerTeam {
    /// Runs `njobs` **independent** jobs on the team, each exactly once:
    /// the work-queue entry point next to [`broadcast`](Self::broadcast)
    /// for callers that have a bag of unrelated tasks (e.g. a serving
    /// layer multiplexing factorizations from many sessions) rather than
    /// one SPMD region.
    ///
    /// Every rank — the caller as rank 0 plus the parked workers — pops
    /// job indices from a shared atomic cursor and runs `op(index)` until
    /// the queue drains, so up to `width` jobs execute concurrently with
    /// no per-job thread creation. The call blocks until all jobs have
    /// run (a scoped join: `op` may borrow from the caller's stack).
    ///
    /// The worklist is a claim-loop task **registered for assistance**:
    /// while it runs, any rank blocked at an assist point elsewhere in
    /// the process (e.g. a pipeline rank waiting on a not-yet-published
    /// column) may [`try_assist`] and run queued jobs — factorization
    /// columns and cross-stream service jobs genuinely share one pool.
    ///
    /// Unlike `broadcast`, jobs must not rely on cross-job concurrency:
    /// when the queue is a single job or the team has width 1, the
    /// whole list executes inline on the calling thread with no task
    /// entry (the zero-overhead sequential path). When the caller **is
    /// already one of this team's ranks** (a job submitting more jobs),
    /// the caller drains the registered task itself — no deadlock on
    /// the busy ranks, no transient threads, which is what keeps a warm
    /// serving layer at zero OS-thread creation even under re-entrant
    /// jobs — while other ranks remain free to assist.
    pub fn run_worklist<OP>(&self, njobs: usize, op: OP)
    where
        OP: Fn(usize) + Sync,
    {
        if njobs == 0 {
            return;
        }
        if self.shared.width == 1 || njobs == 1 {
            // Zero-overhead sequential path: sound because worklist
            // jobs are independent by contract (no cross-job
            // synchronization).
            for i in 0..njobs {
                op(i);
            }
            return;
        }
        let payload = WorklistPayload { op: &op };
        let core = TaskCore::new(
            &payload as *const WorklistPayload<'_, OP> as *const (),
            run_worklist_item::<OP>,
            njobs,
            false,
        );
        let registration = task::register(&core);
        if self.on_worker_thread() {
            // Re-entrant: this rank drains the task inline; idle ranks
            // elsewhere may still pick jobs up through the registry.
            core.participate();
        } else {
            self.broadcast(|_ctx| core.participate());
        }
        core.wait_done();
        drop(registration);
        core.rethrow_panic();
    }
}

/// Fallback for a broadcast issued from inside one of the team's own
/// jobs: the persistent ranks are occupied, so run the nested region on
/// transient scoped threads (rank 0 inline on the caller). Counted in
/// [`os_threads_spawned`] and [`WorkerTeam::threads_spawned`] —
/// warm-path code never takes this branch, and
/// queue-style work should use [`WorkerTeam::run_worklist`], whose
/// re-entrant fallback executes inline without spawning at all.
fn nested_scoped_broadcast<OP, R>(team: &Shared, op: &OP) -> Vec<R>
where
    OP: Fn(TeamContext) -> R + Sync,
    R: Send,
{
    let n = team.width;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..n)
            .map(|rank| {
                team.count_spawn();
                scope.spawn(move || op(TeamContext { rank, width: n }))
            })
            .collect();
        let first = op(TeamContext { rank: 0, width: n });
        std::iter::once(first)
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("nested broadcast rank panicked")),
            )
            .collect()
    })
}

/// Pins the current thread to core 0 for a scope, restoring the
/// previous affinity mask on drop (no-op off Linux/x86-64).
struct AffinityGuard {
    previous: Option<[u64; 16]>,
}

impl AffinityGuard {
    fn pin_to_core0() -> AffinityGuard {
        let previous = current_thread_affinity();
        if previous.is_some() {
            let _ = pin_current_thread_to(0);
        }
        AffinityGuard { previous }
    }
}

impl Drop for AffinityGuard {
    fn drop(&mut self) {
        if let Some(mask) = self.previous {
            let _ = set_current_thread_affinity(&mask);
        }
    }
}

impl Drop for WorkerTeam {
    fn drop(&mut self) {
        for mb in &self.shared.mailboxes {
            let mut slot = mb.slot.lock().unwrap();
            slot.shutdown = true;
            mb.cv.notify_one();
        }
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, rank: usize) {
    let mb = &shared.mailboxes[rank - 1];
    loop {
        let core = {
            let mut slot = mb.slot.lock().unwrap();
            loop {
                if let Some(core) = slot.task.take() {
                    break core;
                }
                if slot.shutdown {
                    return;
                }
                slot = mb.cv.wait(slot).unwrap();
            }
        };
        // The single work-assisting task loop: an SPMD task hands this
        // worker exactly one claimed index (its rank for this job);
        // any other task is drained claim-by-claim. Completion is
        // reported through the task's own done latch.
        if core.is_spmd() {
            core.run_one();
        } else {
            core.participate();
        }
    }
}

/// Returns a process-wide shared team of the given width, creating (and
/// caching) it on first use. All callers asking for the same
/// `(width, pin)` get the *same* hot threads — this is what makes
/// repeated `analyze` calls spawn zero new OS threads.
pub fn shared_team(width: usize, pin: bool) -> Arc<WorkerTeam> {
    static REGISTRY: OnceLock<Mutex<HashMap<(usize, bool), Arc<WorkerTeam>>>> = OnceLock::new();
    let reg = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut g = reg.lock().unwrap();
    g.entry((width.max(1), pin))
        .or_insert_with(|| {
            Arc::new(WorkerTeam::new(TeamConfig {
                width: width.max(1),
                pin,
            }))
        })
        .clone()
}

/// Pins the calling thread to one CPU core. Returns `true` on success.
///
/// Implemented as a raw `sched_setaffinity(0, ..)` syscall on
/// Linux/x86-64 (the workspace carries no libc binding); on other
/// targets this is a no-op returning `false`.
pub fn pin_current_thread_to(core: usize) -> bool {
    let mut mask = [0u64; 16]; // cpu_set_t is 1024 bits on Linux
    if core >= mask.len() * 64 {
        return false;
    }
    mask[core / 64] |= 1u64 << (core % 64);
    set_current_thread_affinity(&mask)
}

/// Applies an affinity mask to the calling thread (raw
/// `sched_setaffinity`; `false` off Linux/x86-64 or on failure).
fn set_current_thread_affinity(mask: &[u64; 16]) -> bool {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let ret: isize;
        // SAFETY: sched_setaffinity reads `mask.len() * 8` bytes from the
        // pointer and touches no other memory; pid 0 = calling thread.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 203isize => ret, // SYS_sched_setaffinity
                in("rdi") 0usize,
                in("rsi") std::mem::size_of_val(mask),
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret == 0
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        let _ = mask;
        false
    }
}

/// Reads the calling thread's affinity mask (raw `sched_getaffinity`;
/// `None` off Linux/x86-64 or on failure).
fn current_thread_affinity() -> Option<[u64; 16]> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let mut mask = [0u64; 16];
        let ret: isize;
        // SAFETY: sched_getaffinity writes at most `mask.len() * 8`
        // bytes to the pointer; pid 0 = calling thread.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 204isize => ret, // SYS_sched_getaffinity
                in("rdi") 0usize,
                in("rsi") std::mem::size_of_val(&mask),
                in("rdx") mask.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        // On success the syscall returns the number of bytes written.
        (ret > 0).then_some(mask)
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn broadcast_runs_every_rank_concurrently() {
        let team = WorkerTeam::new(TeamConfig::new(4));
        // Hand-rolled barrier: passes only if all 4 ranks are live at once.
        let arrived = AtomicUsize::new(0);
        let ranks = team.broadcast(|ctx| {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
            ctx.rank()
        });
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn threads_are_reused_across_jobs() {
        let team = WorkerTeam::new(TeamConfig::new(3));
        let sorted =
            |v: Vec<std::thread::ThreadId>| v.into_iter().collect::<std::collections::HashSet<_>>();
        let ids1 = sorted(team.broadcast(|_| std::thread::current().id()));
        let caller = std::thread::current().id();
        assert_eq!(team.threads_spawned(), 2);
        for _ in 0..50 {
            let ids: Vec<std::thread::ThreadId> = team.broadcast(|_| std::thread::current().id());
            // Ranks are claimed, not bound: which worker serves rank 2
            // may vary between jobs, but the *set* of hot threads must
            // not, and rank 0 always stays on the submitting thread
            // (it claims before the workers are woken).
            assert_eq!(ids[0], caller, "rank 0 must run on the caller");
            assert_eq!(sorted(ids), ids1, "jobs must reuse the same threads");
        }
        assert_eq!(team.threads_spawned(), 2, "no new OS threads after warm-up");
    }

    #[test]
    fn width_one_runs_inline_without_threads() {
        let team = WorkerTeam::new(TeamConfig::new(1));
        let caller = std::thread::current().id();
        let ids = team.broadcast(|ctx| {
            assert_eq!(ctx.width(), 1);
            std::thread::current().id()
        });
        assert_eq!(ids, vec![caller]);
        assert_eq!(team.threads_spawned(), 0);
    }

    #[test]
    fn scoped_borrow_from_caller_stack() {
        let team = WorkerTeam::new(TeamConfig::new(2));
        let data = [10usize, 20];
        let out = team.broadcast(|ctx| data[ctx.rank()] + 1);
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn worker_panic_propagates_and_team_survives() {
        let team = WorkerTeam::new(TeamConfig::new(2));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            team.broadcast(|ctx| {
                if ctx.rank() == 1 {
                    panic!("boom");
                }
                ctx.rank()
            })
        }));
        assert!(caught.is_err());
        // The team still works after a job panicked.
        assert_eq!(team.broadcast(|ctx| ctx.rank()), vec![0, 1]);
    }

    #[test]
    fn nested_broadcast_on_same_team_detours_to_scoped_threads() {
        // A job that broadcasts on its own team cannot use the (busy)
        // persistent ranks; it must still complete — on transient
        // scoped threads — rather than panic or deadlock.
        let team = Arc::new(WorkerTeam::new(TeamConfig::new(2)));
        let t2 = team.clone();
        let sums = team.broadcast(move |ctx| {
            let inner = t2.broadcast(|ictx| ictx.rank() * 10);
            assert_eq!(inner, vec![0, 10]);
            ctx.rank()
        });
        assert_eq!(sums, vec![0, 1]);
        assert_eq!(
            team.threads_spawned(),
            3,
            "one worker, plus one transient rank per nested region"
        );
    }

    #[test]
    fn shared_registry_returns_same_team() {
        let a = shared_team(2, false);
        let b = shared_team(2, false);
        assert!(Arc::ptr_eq(&a, &b));
        let c = shared_team(4, false);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.broadcast(|ctx| ctx.width()), vec![2, 2]);
    }

    #[test]
    fn pinning_smoke() {
        // Pinning to core 0 must succeed on Linux/x86-64 and be a clean
        // no-op elsewhere; either way the team stays functional.
        let team = WorkerTeam::new(TeamConfig {
            width: 2,
            pin: true,
        });
        assert_eq!(team.broadcast(|ctx| ctx.rank()), vec![0, 1]);
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            assert!(pin_current_thread_to(0));
        }
    }

    #[test]
    fn worklist_runs_every_job_exactly_once() {
        let team = WorkerTeam::new(TeamConfig::new(3));
        let hits: Vec<AtomicUsize> = (0..20).map(|_| AtomicUsize::new(0)).collect();
        team.run_worklist(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "job {i}");
        }
    }

    #[test]
    fn worklist_uses_multiple_ranks_for_parallel_jobs() {
        // Two jobs that each wait for the other to start can only finish
        // when the worklist genuinely runs them concurrently.
        let team = WorkerTeam::new(TeamConfig::new(2));
        let arrived = AtomicUsize::new(0);
        team.run_worklist(2, |_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
        });
        assert_eq!(arrived.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn reentrant_worklist_executes_inline_without_spawning() {
        // A worklist job that submits another worklist to the same team
        // (the serving-layer re-entrance scenario) must complete without
        // deadlock and without creating any OS thread.
        let team = Arc::new(WorkerTeam::new(TeamConfig::new(2)));
        let inner_runs = AtomicUsize::new(0);
        let t2 = team.clone();
        team.run_worklist(2, |_| {
            assert!(t2.on_worker_thread(), "worklist jobs run as team ranks");
            t2.run_worklist(3, |_| {
                inner_runs.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(inner_runs.load(Ordering::SeqCst), 6);
        assert_eq!(
            team.threads_spawned(),
            1,
            "re-entrant worklists must take the inline guard, not spawn"
        );
    }

    #[test]
    fn worklist_on_width_one_team_runs_inline() {
        let team = WorkerTeam::new(TeamConfig::new(1));
        let caller = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        team.run_worklist(5, |_| {
            assert_eq!(std::thread::current().id(), caller);
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 5);
        assert_eq!(team.threads_spawned(), 0);
    }

    #[test]
    fn concurrent_broadcasts_from_many_threads_serialize() {
        let team = Arc::new(WorkerTeam::new(TeamConfig::new(2)));
        std::thread::scope(|s| {
            for i in 0..4 {
                let team = team.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        let sums = team.broadcast(|ctx| ctx.rank() + i);
                        assert_eq!(sums, vec![i, i + 1]);
                    }
                });
            }
        });
    }
}
