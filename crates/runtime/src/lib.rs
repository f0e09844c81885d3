//! Persistent worker-team runtime (the Kokkos-style "hot" thread pool of
//! the paper's execution model).
//!
//! Basker's parallel numeric phase runs on a *static team*: `p` threads
//! share the stages of one factorization, and the paper's speedups
//! assume those threads already exist, keep to their own cores, and
//! cost nothing to re-enter. A pool that spawns fresh OS threads per
//! parallel region pays a `clone(2)` + page-fault storm on every
//! `factor`/`refactor` call — fatal for the transient-simulation
//! workloads that call `refactor` thousands of times per second.
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
//! * **workers that keep off rank 0's CPU** whenever the team fits the
//!   CPUs the process may use (see `Placement`), through direct
//!   `getcpu`/`sched_{get,set}affinity` syscalls (no libc dependency; a
//!   no-op on non-Linux/x86-64 targets);
//! * a process-wide [`shared_team`] registry so every caller asking for
//!   the same width reuses one warm team instead of spawning its own;
//! * an [`os_threads_spawned`] counter that regression tests use to
//!   assert the "zero new threads after warm-up" property.
//!
//! Every concurrently-live rank of a broadcast genuinely runs on its own
//! OS thread (except the width-1 fast path, which runs inline on the
//! caller), so a broadcast's ranks may wait on one another. The solver
//! itself only submits worklists, whose jobs never do.
//!
//! One nesting rule: a call from one of the team's own ranks never wakes
//! the team. [`WorkerTeam::run_worklist`] runs such a call's jobs inline
//! on the issuing rank; [`WorkerTeam::broadcast`], whose ranks must all be
//! live at once, panics instead.
//!
//! Both entry points run on **one SPMD task loop** (the `task` module):
//! a broadcast is a `TaskCore` whose participants each run the item of
//! their own rank, and a worklist is one broadcast whose ranks pop job
//! indices from a shared cursor until it runs dry. A caller that waits
//! for a task parks on its done latch; nothing outside a task's own
//! ranks ever runs its items.

#![warn(missing_docs)]

mod task;

use std::cell::{Cell, UnsafeCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use task::TaskCore;

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
    // checker's task suite covers the latch protocol this count rides
    // on; nothing orders *through* it.
    SPAWNED.load(Ordering::Relaxed)
}

struct MailSlot {
    /// The next task this worker should run its rank of (a broadcast
    /// posts the same `TaskCore` to every mailbox). The submitter keeps
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
    mailboxes: Vec<Mailbox>,
    /// The CPU the latest broadcast's caller was running on
    /// (`usize::MAX` when unknown), which the workers keep off.
    caller_cpu: AtomicUsize,
}

/// A cell written by exactly one rank and read by the submitter only
/// after the done latch — no concurrent access despite the `Sync` impl.
struct ResultCell<R>(UnsafeCell<Option<R>>);

// SAFETY: each cell is written by exactly one rank (every participant
// runs its own rank) and read by the submitter only after the done
// latch, so no two threads ever access a cell concurrently.
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
/// `rank` must be run by exactly one participant (it addresses that
/// rank's private `ResultCell`).
unsafe fn run_rank<OP, R>(data: *const (), rank: usize, width: usize)
where
    OP: Fn(TeamContext) -> R + Sync,
    R: Send,
{
    // SAFETY: the submitter keeps the payload alive until the done latch
    // releases it, and `rank` indexes a cell no other thread touches
    // (this thread is the one participant of `rank`).
    // Panics are caught by the task loop and re-raised at the submitter.
    let p = unsafe { &*(data as *const BroadcastPayload<'_, OP, R>) };
    let v = (p.op)(TeamContext { rank, width });
    unsafe { *p.results[rank].0.get() = Some(v) };
}

/// A persistent team of `width` ranks: the submitting thread serves as
/// rank 0 (it is usually cache-warm from preparing the job's inputs) and
/// `width − 1` parked worker threads serve ranks `1..width`.
///
/// ```
/// use basker_runtime::WorkerTeam;
///
/// let team = WorkerTeam::new(2);
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
    pub fn new(width: usize) -> WorkerTeam {
        assert!(width >= 1, "team width must be at least 1");
        let shared = Arc::new(Shared {
            // ORDER: Relaxed — id generation only needs uniqueness.
            id: NEXT_TEAM_ID.fetch_add(1, Ordering::Relaxed),
            width,
            mailboxes: (1..width).map(|_| Mailbox::new()).collect(),
            caller_cpu: AtomicUsize::new(usize::MAX),
        });
        let mut handles = Vec::new();
        for rank in 1..width {
            let sh = shared.clone();
            // ORDER: Relaxed — a monotonic diagnostic counter (see
            // `os_threads_spawned`); the spawn itself is the real
            // synchronization point.
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            let h = std::thread::Builder::new()
                .name(format!("basker-worker-{rank}"))
                .spawn(move || {
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

    /// True when the calling thread is one of this team's workers.
    pub fn on_worker_thread(&self) -> bool {
        WORKER_OF.with(|c| c.get()) == self.shared.id
    }

    /// Runs `op` once on every rank concurrently and returns the
    /// per-rank results in rank order (a scoped join: `op` may borrow
    /// from the caller's stack). Rank 0 runs **on the calling thread**;
    /// ranks `1..width` on the parked workers.
    ///
    /// Internally this is one SPMD task: the caller runs rank 0 and
    /// worker `r` rank `r`. Every rank is live at once on its own OS
    /// thread, so closures may synchronize point-to-point across ranks.
    /// If any rank panics, the panic is re-raised here after the whole
    /// team has drained; the workers survive for the next job.
    ///
    /// # Panics
    ///
    /// When called from one of this team's own ranks (a nested SPMD
    /// region inside a job): those ranks are busy, and a call from a
    /// rank never wakes its team. The panic comes before anything is
    /// posted. Nested work goes through
    /// [`run_worklist`](Self::run_worklist), which runs it inline on
    /// the issuing rank.
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
        assert!(
            !self.on_worker_thread(),
            "WorkerTeam::broadcast called from one of the team's own ranks; \
             submit nested work through run_worklist, which runs it inline"
        );
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
        );

        let guard = self.submit.lock().unwrap();
        // ORDER: Relaxed — a placement hint; it reaches the workers
        // through the mailbox hand-off below.
        self.shared
            .caller_cpu
            .store(current_cpu().unwrap_or(usize::MAX), Ordering::Relaxed);
        for mb in &self.shared.mailboxes {
            let mut slot = mb.slot.lock().unwrap();
            debug_assert!(slot.task.is_none(), "mailbox not drained");
            slot.task = Some(core.clone());
            mb.cv.notify_one();
        }
        // Rank 0 on the caller, marked as a team rank for the duration
        // so a nested call from inside the job runs inline (a worklist)
        // or panics (a broadcast) instead of deadlocking.
        {
            struct Unmark(u64);
            impl Drop for Unmark {
                fn drop(&mut self) {
                    WORKER_OF.with(|c| c.set(self.0));
                }
            }
            let _unmark = Unmark(WORKER_OF.with(|c| c.replace(self.shared.id)));
            core.run_claimed(0);
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
    /// It is one [`broadcast`](Self::broadcast) whose ranks — the
    /// caller as rank 0 plus the parked workers — pop job indices from
    /// a shared atomic cursor and run `op(index)` until the queue
    /// drains, so up to `width` jobs execute concurrently with no
    /// per-job thread creation. The call blocks until all jobs have run
    /// (a scoped join: `op` may borrow from the caller's stack). A job's
    /// panic is re-raised here, as a rank's is by `broadcast`; a panic
    /// ends the loop of the rank that ran the job, so the jobs after
    /// it may not run. Callers that need every job to run catch their
    /// jobs' panics themselves.
    ///
    /// Unlike `broadcast`, jobs must not rely on cross-job concurrency:
    /// the whole list executes inline on the calling thread, with no
    /// task entry, when the queue holds one job, when the team has
    /// width 1 (the zero-overhead sequential path), and when the caller
    /// **is already one of this team's ranks** (a job submitting more
    /// jobs) — no deadlock on the busy ranks and no transient threads,
    /// which is what keeps a warm serving layer at zero OS-thread
    /// creation even under re-entrant jobs.
    pub fn run_worklist<OP>(&self, njobs: usize, op: OP)
    where
        OP: Fn(usize) + Sync,
    {
        if self.shared.width == 1 || njobs <= 1 || self.on_worker_thread() {
            // Sound because worklist jobs are independent by contract
            // (no cross-job synchronization).
            (0..njobs).for_each(op);
            return;
        }
        let next = AtomicUsize::new(0);
        self.broadcast(|_ctx| loop {
            // ORDER: Relaxed — the pop only needs atomicity (each job
            // handed out once); the jobs' inputs reach the ranks through
            // the broadcast's mailbox hand-off, and their effects reach
            // the caller through its done latch.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= njobs {
                break;
            }
            op(i);
        });
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
    let mut placement = Placement::new(shared);
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
        // ORDER: Relaxed — written before the task was posted, read
        // after taking it from the mailbox under the same lock.
        placement.keep_off(shared.caller_cpu.load(Ordering::Relaxed));
        // This worker's rank for the job; completion is reported through
        // the task's own done latch.
        core.run_claimed(rank);
    }
}

/// Keeps a worker off the CPU its team's rank 0 runs on.
///
/// On a 2-vCPU guest the scheduler at times wakes a parked worker on
/// the CPU of the thread that woke it and then keeps the two together
/// for minutes while the other CPU idles (`ps -Lo psr` shows both
/// threads on one CPU, and a run's CPU time per step equals its wall
/// time). Every job split across the ranks then costs its serial time
/// plus the split. So before each job a worker takes the mask it
/// started with minus the caller's CPU — one `sched_setaffinity` when
/// the caller's CPU changes, none while it stays. Measured on
/// `powergrid_contingency` (`T` = 2) in that state, alternating runs:
/// `speedup_vs_klu` 2.55–2.76 against 1.67–1.69 without it (1.77–1.82
/// with the refined solve not dealt at all). Skipped on teams wider
/// than the CPUs the worker may use (a rank per CPU is then impossible
/// anyway) and where the CPU cannot be read.
struct Placement {
    /// The worker's starting mask, or `None` when placement is skipped.
    allowed: Option<[u64; 16]>,
    /// The CPU the worker's mask leaves out now.
    off: usize,
}

impl Placement {
    fn new(shared: &Shared) -> Placement {
        let cpus = |mask: &[u64; 16]| mask.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        let allowed = current_thread_affinity().filter(|m| cpus(m) >= shared.width);
        Placement {
            allowed,
            off: usize::MAX,
        }
    }

    fn keep_off(&mut self, cpu: usize) {
        let Some(mut mask) = self.allowed else {
            return;
        };
        if cpu == self.off || cpu >= mask.len() * 64 {
            return;
        }
        mask[cpu / 64] &= !(1u64 << (cpu % 64));
        self.off = cpu;
        let _ = set_current_thread_affinity(&mask);
    }
}

/// Returns a process-wide shared team of the given width, creating (and
/// caching) it on first use. All callers asking for the same width get
/// the *same* hot threads — this is what makes repeated `analyze` calls
/// spawn zero new OS threads. `_pin` is ignored: `Placement` is the one
/// CPU-placement rule, and the argument stays for existing callers.
pub fn shared_team(width: usize, _pin: bool) -> Arc<WorkerTeam> {
    static REGISTRY: OnceLock<Mutex<HashMap<usize, Arc<WorkerTeam>>>> = OnceLock::new();
    let reg = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut g = reg.lock().unwrap();
    g.entry(width.max(1))
        .or_insert_with(|| Arc::new(WorkerTeam::new(width.max(1))))
        .clone()
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

/// The CPU the calling thread is running on (raw `getcpu`; `None` off
/// Linux/x86-64 or on failure).
fn current_cpu() -> Option<usize> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let mut cpu = 0u32;
        let ret: isize;
        // SAFETY: getcpu writes one `u32` to its first pointer; the node
        // and cache pointers are null, which it accepts.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 309isize => ret, // SYS_getcpu
                in("rdi") &mut cpu as *mut u32,
                in("rsi") 0usize,
                in("rdx") 0usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        (ret == 0).then_some(cpu as usize)
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        None
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
        let team = WorkerTeam::new(4);
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
        let team = WorkerTeam::new(3);
        let ids1 = team.broadcast(|_| std::thread::current().id());
        let caller = std::thread::current().id();
        for _ in 0..50 {
            let ids: Vec<std::thread::ThreadId> = team.broadcast(|_| std::thread::current().id());
            // Worker `r` serves rank `r`, and rank 0 stays on the
            // submitting thread.
            assert_eq!(ids[0], caller, "rank 0 must run on the caller");
            assert_eq!(ids, ids1, "jobs must reuse the same threads");
        }
    }

    #[test]
    fn width_one_runs_inline_without_threads() {
        let team = WorkerTeam::new(1);
        let caller = std::thread::current().id();
        let ids = team.broadcast(|ctx| {
            assert_eq!(ctx.width(), 1);
            std::thread::current().id()
        });
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn scoped_borrow_from_caller_stack() {
        let team = WorkerTeam::new(2);
        let data = [10usize, 20];
        let out = team.broadcast(|ctx| data[ctx.rank()] + 1);
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn worker_panic_propagates_and_team_survives() {
        let team = WorkerTeam::new(2);
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
    fn nested_broadcast_on_same_team_panics_at_the_outer_caller() {
        // A job that broadcasts on its own team, from the caller's rank
        // 0 or from a worker, finds every rank busy; the nested call
        // panics before posting anything, the outer
        // broadcast re-raises it, and no thread is spawned for it.
        let team = Arc::new(WorkerTeam::new(2));
        let nested_ranks = AtomicUsize::new(0);
        let t2 = team.clone();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            team.broadcast(|_| t2.broadcast(|_| nested_ranks.fetch_add(1, Ordering::SeqCst)))
        }));
        let err = caught.expect_err("the nested broadcast must panic");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(msg.contains("run_worklist"), "{msg}");
        assert_eq!(nested_ranks.load(Ordering::SeqCst), 0, "nothing was posted");
        // The team still works, and nested work still runs as a worklist.
        assert_eq!(team.broadcast(|ctx| ctx.rank()), vec![0, 1]);
        let inner = AtomicUsize::new(0);
        let t3 = team.clone();
        team.broadcast(|_| t3.run_worklist(2, |_| _ = inner.fetch_add(1, Ordering::SeqCst)));
        assert_eq!(inner.load(Ordering::SeqCst), 4);
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
    fn shared_team_ignores_the_pin_flag() {
        for w in [1, 2, 3] {
            assert!(Arc::ptr_eq(&shared_team(w, true), &shared_team(w, false)));
        }
    }

    #[test]
    fn workers_keep_off_the_callers_cpu() {
        let team = WorkerTeam::new(2);
        let masks = team.broadcast(|_| current_thread_affinity());
        let cpu = team.shared.caller_cpu.load(Ordering::Relaxed);
        let (Some(caller), Some(worker)) = (masks[0], masks[1]) else {
            return; // no affinity syscall on this target
        };
        let cpus: u32 = caller.iter().map(|w| w.count_ones()).sum();
        if cpus < 2 || cpu == usize::MAX {
            assert_eq!(worker, caller, "nothing to keep off");
            return;
        }
        // The worker may use every CPU the caller may, but the one the
        // caller ran on when it posted the job.
        let mut want = caller;
        want[cpu / 64] &= !(1u64 << (cpu % 64));
        assert_eq!(worker, want);
    }

    #[test]
    fn worklist_runs_every_job_exactly_once() {
        let team = WorkerTeam::new(3);
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
        let team = WorkerTeam::new(2);
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
    fn worklist_panic_surfaces_at_the_caller() {
        let team = WorkerTeam::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            team.run_worklist(4, |i| {
                if i == 2 {
                    panic!("job exploded");
                }
            })
        }));
        assert!(caught.is_err(), "the caller must re-raise a job's panic");
        // The team still works after a job panicked.
        let hits: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        team.run_worklist(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn reentrant_worklist_executes_inline_without_spawning() {
        // A worklist job that submits another worklist to the same team
        // (the serving-layer re-entrance scenario) must complete without
        // deadlock and without creating any OS thread.
        let team = Arc::new(WorkerTeam::new(2));
        let inner_runs = AtomicUsize::new(0);
        let t2 = team.clone();
        team.run_worklist(2, |_| {
            assert!(t2.on_worker_thread(), "worklist jobs run as team ranks");
            let outer = std::thread::current().id();
            t2.run_worklist(3, |_| {
                // The inline guard: the nested jobs run right here.
                assert_eq!(std::thread::current().id(), outer);
                inner_runs.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(inner_runs.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn worklist_on_width_one_team_runs_inline() {
        let team = WorkerTeam::new(1);
        let caller = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        team.run_worklist(5, |_| {
            assert_eq!(std::thread::current().id(), caller);
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn concurrent_broadcasts_from_many_threads_serialize() {
        let team = Arc::new(WorkerTeam::new(2));
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
