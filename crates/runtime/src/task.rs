//! The work-assisting task substrate (the scheduling layer of the
//! runtime, in the style of the work-assisting scheduler literature:
//! tasks expose a *self-scheduling inner loop* over an atomically
//! claimed work index, and a rank that would otherwise block *joins* a
//! running task's remaining items instead of spinning).
//!
//! One type-erased [`TaskCore`] drives every parallel construct in the
//! workspace:
//!
//! * [`WorkerTeam::broadcast`](crate::WorkerTeam::broadcast) posts one
//!   SPMD task of `width` items; each participant (the caller plus the
//!   woken workers) **claims exactly one index**, which *is* its rank —
//!   rank assignment is the same `fetch_add` claim as any other work
//!   item.
//! * [`WorkerTeam::run_worklist`](crate::WorkerTeam::run_worklist)
//!   builds a claim-loop task over its job bag and **registers** it in
//!   the process-wide assist registry, so ranks outside the worklist's
//!   own broadcast can join the remaining jobs.
//! * [`run_assistable`] is the same claim-loop task for callers that
//!   already *are* a rank (the ND column pipeline registers each leaf
//!   panel's remaining columns this way).
//! * [`try_assist`] is the single entry blocked ranks use: it runs one
//!   item of some registered task, or reports that nothing was
//!   stealable. Point-to-point slot waits call it instead of backing
//!   off, which is what turns idle spin time into column work.
//!
//! Sequential execution pays nothing: width-1 teams and single-item
//! tasks never construct a `TaskCore`, touch the registry, or issue an
//! atomic beyond task entry — the zero-overhead single-core contract
//! asserted by the workspace's regression tests.
//!
//! # Soundness of assisted borrows
//!
//! A task's `data` pointer refers to the owner's stack frame. The owner
//! never leaves that frame until `completed == size` (the done latch),
//! and an assister dereferences `data` only after winning a claim
//! (`index < size`); every winning claim is counted into `completed`
//! after its item finishes. An assister that merely holds the `Arc`
//! past deregistration can still touch the (heap) `TaskCore`, but its
//! claims fail and `data` is never read — so the stack borrow cannot
//! outlive its frame.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The primitives under model-checking scrutiny: the claim cursor, the
/// completion counter, and the done latch. Under `--cfg basker_model`
/// (the model-checking CI leg) they swap onto `basker_model`'s
/// schedule-explored facades; the registry, the process-wide counters,
/// and the panic slot stay on std — their critical sections contain no
/// schedule points, so they cannot hide an interleaving.
#[cfg(basker_model)]
mod msync {
    pub(super) use basker_model::sync::{AtomicUsize, Condvar, Mutex};
}
#[cfg(not(basker_model))]
mod msync {
    pub(super) use std::sync::atomic::AtomicUsize;
    pub(super) use std::sync::{Condvar, Mutex};
}

/// Monotonic task-id source (distinguishes tasks for the
/// `tasks_joined` counter and re-join detection).
static NEXT_TASK_ID: AtomicU64 = AtomicU64::new(1);

/// Process-wide assist-loop counters (monotonic; consumers diff
/// snapshots).
static TASKS_JOINED: AtomicU64 = AtomicU64::new(0);
static ITEMS_ASSISTED: AtomicU64 = AtomicU64::new(0);
static STEAL_ATTEMPTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Last task id this thread assisted (for `tasks_joined`).
    static LAST_JOINED: Cell<u64> = const { Cell::new(0) };
    /// Assist nesting depth: an assisted item that itself blocks may
    /// assist again, but only to a bounded depth (the dependency order
    /// of real schedules is acyclic, so this is stack insurance, not a
    /// correctness requirement).
    static ASSIST_DEPTH: Cell<u32> = const { Cell::new(0) };
}

const MAX_ASSIST_DEPTH: u32 = 4;

/// A snapshot of the process-wide assist-loop counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssistCounters {
    /// Distinct (thread, task) joins: how often a blocked or idle rank
    /// started helping a task it was not already part of.
    pub tasks_joined: u64,
    /// Work items executed through [`try_assist`] (columns, worklist
    /// jobs, level chunks — whatever the task's items are).
    pub items_assisted: u64,
    /// Calls to [`try_assist`] that scanned the registry (productive or
    /// not). `steal_attempts − items_assisted` is the number of empty
    /// scans.
    pub steal_attempts: u64,
}

/// Reads the process-wide assist counters (monotonic since process
/// start; diff two snapshots to scope a measurement).
pub fn assist_counters() -> AssistCounters {
    // ORDER: Relaxed ×3 — monotonic diagnostics with no ordering role;
    // consumers diff snapshots taken on one thread.
    AssistCounters {
        tasks_joined: TASKS_JOINED.load(Ordering::Relaxed),
        items_assisted: ITEMS_ASSISTED.load(Ordering::Relaxed),
        steal_attempts: STEAL_ATTEMPTS.load(Ordering::Relaxed),
    }
}

/// The type-erased self-scheduling task every parallel construct runs
/// through: `size` work items handed out by an atomically claimed
/// index, a completion latch, and a panic slot so a faulting item
/// surfaces at the owner rather than in whichever thread happened to
/// claim it.
pub(crate) struct TaskCore {
    pub(crate) id: u64,
    data: *const (),
    // SAFETY: the trampoline's contract (a live payload behind `data`,
    // each index run at most once) is upheld by `run_claimed` — the
    // only caller — via the claim cursor and the owner's done latch.
    run: unsafe fn(*const (), usize, usize),
    next: msync::AtomicUsize,
    completed: msync::AtomicUsize,
    size: usize,
    /// SPMD tasks hand each participant exactly one index (its rank)
    /// and are never registered for assist — their items synchronize
    /// with each other, so they must all be live concurrently.
    spmd: bool,
    done: msync::Mutex<bool>,
    done_cv: msync::Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `data` points at a payload of `Sync` references owned by the
// task's owner, which blocks on the done latch for as long as any claim
// can still dereference it (see module docs); all other fields are
// plain sync primitives.
unsafe impl Send for TaskCore {}
// SAFETY: as above — shared access routes through the claim cursor and
// the sync primitives; `data` dereferences are claim-guarded.
unsafe impl Sync for TaskCore {}

impl TaskCore {
    pub(crate) fn new(
        data: *const (),
        // SAFETY: forwarded to `run_claimed` (see the field docs); the
        // constructor only stores the pointer pair.
        run: unsafe fn(*const (), usize, usize),
        size: usize,
        spmd: bool,
    ) -> Arc<TaskCore> {
        Arc::new(TaskCore {
            // ORDER: Relaxed — id generation only needs uniqueness,
            // not ordering.
            id: NEXT_TASK_ID.fetch_add(1, Ordering::Relaxed),
            data,
            run,
            next: msync::AtomicUsize::new(0),
            completed: msync::AtomicUsize::new(0),
            size,
            spmd,
            done: msync::Mutex::new(false),
            done_cv: msync::Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    /// Claims the next index; `None` when the task is exhausted.
    pub(crate) fn claim(&self) -> Option<usize> {
        // ORDER: Relaxed — the claim only needs atomicity (each index
        // handed out once); the item's *data* visibility comes from
        // whatever published the task to this thread (mailbox hand-off
        // or registry mutex), and completion visibility from the
        // AcqRel counter in `run_claimed`. Verified exhaustively by
        // `model_checks::claim_cursor_hands_out_each_item_exactly_once`.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.size).then_some(i)
    }

    /// True when every index has been handed out (items may still be
    /// executing; see [`wait_done`](Self::wait_done)).
    fn is_exhausted(&self) -> bool {
        // ORDER: Relaxed — a stale read is harmless: the racing
        // `claim` below it is what decides, this is only a fast-path
        // filter for the registry scan.
        self.next.load(Ordering::Relaxed) >= self.size
    }

    /// Runs one already-claimed item, capturing a panic into the task's
    /// panic slot, and counts it completed.
    pub(crate) fn run_claimed(&self, index: usize) {
        // SAFETY: the claim made this thread the unique executor of
        // `index`, and the owner keeps `data` alive until `completed`
        // reaches `size` — which cannot happen before this item is
        // counted below.
        let r = catch_unwind(AssertUnwindSafe(|| unsafe {
            (self.run)(self.data, index, self.size)
        }));
        if let Err(e) = r {
            let mut g = self.panic.lock().unwrap();
            if g.is_none() {
                *g = Some(e);
            }
        }
        // ORDER: AcqRel — the Release half publishes this item's
        // effects to whoever observes the final count; the Acquire
        // half makes every *other* item's effects visible to the
        // thread that trips the latch (and thus to the owner via the
        // latch mutex).
        if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.size {
            *self.done.lock().unwrap() = true;
            self.done_cv.notify_all();
        }
    }

    /// Claim-and-run one item; `false` when the task is exhausted.
    pub(crate) fn run_one(&self) -> bool {
        match self.claim() {
            Some(i) => {
                self.run_claimed(i);
                true
            }
            None => false,
        }
    }

    /// The self-scheduling inner loop: claim and run items until the
    /// task is exhausted.
    pub(crate) fn participate(&self) {
        while self.run_one() {}
    }

    /// Blocks until every item has *finished* (not merely been
    /// claimed) — the owner's scoped join.
    pub(crate) fn wait_done(&self) {
        let mut g = self.done.lock().unwrap();
        while !*g {
            g = self.done_cv.wait(g).unwrap();
        }
    }

    /// Re-raises the first panic any item produced.
    pub(crate) fn rethrow_panic(&self) {
        let p = self.panic.lock().unwrap().take();
        if let Some(p) = p {
            resume_unwind(p);
        }
    }

    pub(crate) fn is_spmd(&self) -> bool {
        self.spmd
    }
}

/// The process-wide registry of tasks open for assistance.
struct Registry {
    /// Fast-path gate: number of registered tasks. A blocked rank pays
    /// one relaxed load when nothing is stealable.
    active: AtomicUsize,
    tasks: Mutex<Vec<Arc<TaskCore>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        active: AtomicUsize::new(0),
        tasks: Mutex::new(Vec::new()),
    })
}

/// RAII registration of a task in the assist registry.
pub(crate) struct Registration {
    id: u64,
}

pub(crate) fn register(core: &Arc<TaskCore>) -> Registration {
    debug_assert!(!core.spmd, "SPMD tasks are rank-bound, never assistable");
    let reg = registry();
    let id = core.id;
    reg.tasks.lock().unwrap().push(core.clone());
    // ORDER: Relaxed — `active` is a fast-path hint; the registry
    // mutex above is the real synchronization, and a stale zero only
    // costs a missed assist opportunity.
    reg.active.fetch_add(1, Ordering::Relaxed);
    Registration { id }
}

impl Drop for Registration {
    fn drop(&mut self) {
        let reg = registry();
        let mut g = reg.tasks.lock().unwrap();
        if let Some(pos) = g.iter().position(|t| t.id == self.id) {
            g.remove(pos);
            // ORDER: Relaxed — hint counter, mutex-guarded list is
            // authoritative (see `register`).
            reg.active.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Runs one work item of some registered task, if any has unclaimed
/// items. Returns the task's id on success, `None` when nothing was
/// stealable (or the assist-nesting depth bound was reached).
///
/// This is the assist half of assist-then-wait: a rank blocked on a
/// not-yet-published column calls this in its wait loop, so the block
/// time becomes another column, another BTF block, or another stream's
/// job instead of a spin.
pub fn try_assist() -> Option<u64> {
    let reg = registry();
    // ORDER: Relaxed — fast-path emptiness hint; a stale nonzero just
    // takes the mutex and finds nothing, a stale zero skips one
    // assist opportunity. The registry mutex is authoritative.
    if reg.active.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let depth = ASSIST_DEPTH.with(|d| d.get());
    if depth >= MAX_ASSIST_DEPTH {
        return None;
    }
    // ORDER: Relaxed — monotonic diagnostic (see `assist_counters`).
    STEAL_ATTEMPTS.fetch_add(1, Ordering::Relaxed);
    // The exhaustion probe must not run under the registry lock: the
    // atomic load inside `is_exhausted` is a schedule point under the
    // model checker, and a thread descheduled there while holding the
    // OS lock wedges whichever peer needs it next (in production the
    // narrower critical section is simply cheaper). So take the lock
    // only long enough to clone one candidate, probe it unlocked, and
    // move on. The scan is advisory anyway — `claim` re-checks.
    let task = {
        let mut found = None;
        let mut idx = 0;
        loop {
            let candidate = reg.tasks.lock().unwrap().get(idx).cloned();
            match candidate {
                None => break,
                Some(t) if !t.is_exhausted() => {
                    found = Some(t);
                    break;
                }
                Some(_) => idx += 1,
            }
        }
        found
    }?;
    let claimed = task.claim()?;
    ASSIST_DEPTH.with(|d| d.set(depth + 1));
    struct DepthGuard(u32);
    impl Drop for DepthGuard {
        fn drop(&mut self) {
            ASSIST_DEPTH.with(|d| d.set(self.0));
        }
    }
    let _guard = DepthGuard(depth);
    task.run_claimed(claimed);
    // ORDER: Relaxed ×2 — monotonic diagnostics (see `assist_counters`).
    ITEMS_ASSISTED.fetch_add(1, Ordering::Relaxed);
    LAST_JOINED.with(|c| {
        if c.get() != task.id {
            c.set(task.id);
            TASKS_JOINED.fetch_add(1, Ordering::Relaxed);
        }
    });
    Some(task.id)
}

struct ItemsPayload<'a, F> {
    f: &'a F,
}

/// Dispatches one claimed index to the payload closure.
///
/// # Safety
///
/// `data` must point at a live `ItemsPayload<'_, F>`; the owner keeps
/// it alive until the done latch (see `TaskCore::run_claimed`).
unsafe fn run_items<F>(data: *const (), index: usize, _size: usize)
where
    F: Fn(usize) + Sync,
{
    // SAFETY: the owner keeps the payload alive until the done latch
    // (see `TaskCore::run_claimed`).
    let p = unsafe { &*(data as *const ItemsPayload<'_, F>) };
    (p.f)(index);
}

/// Runs `size` independent work items through the work-assisting loop:
/// the caller claims and runs items itself (it is presumably already a
/// team rank with the inputs in cache), while any rank blocked in an
/// assist point may join the remaining items. Returns when **all**
/// items have finished; panics from any item are re-raised here.
///
/// Single-item calls execute inline with no task entry at all — the
/// zero-overhead sequential path.
pub fn run_assistable<F>(size: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    match size {
        0 => return,
        1 => {
            f(0);
            return;
        }
        _ => {}
    }
    let payload = ItemsPayload { f: &f };
    let core = TaskCore::new(
        &payload as *const ItemsPayload<'_, F> as *const (),
        run_items::<F>,
        size,
        false,
    );
    let reg = register(&core);
    core.participate();
    core.wait_done();
    drop(reg);
    core.rethrow_panic();
}

#[cfg(all(test, not(basker_model)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_assistable_executes_every_item_once() {
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        run_assistable(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    #[test]
    fn run_assistable_single_item_runs_inline_without_task_entry() {
        let before = assist_counters();
        let caller = std::thread::current().id();
        run_assistable(1, |i| {
            assert_eq!(i, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
        // No registration happened, so no counters can have moved on
        // this thread's behalf (other tests may run concurrently, so
        // only assert the cheap invariant available: the closure ran).
        let _ = before;
    }

    #[test]
    fn try_assist_joins_a_registered_task() {
        // Register a task, have another thread assist it, and verify
        // both the item execution and the counter movement.
        fn core_of<F: Fn(usize) + Sync>(
            payload: &ItemsPayload<'_, F>,
            size: usize,
        ) -> Arc<TaskCore> {
            TaskCore::new(
                payload as *const ItemsPayload<'_, F> as *const (),
                run_items::<F>,
                size,
                false,
            )
        }
        let ran: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let f = |i: usize| {
            ran[i].fetch_add(1, Ordering::SeqCst);
        };
        let payload = ItemsPayload { f: &f };
        let core = core_of(&payload, ran.len());
        let reg = register(&core);
        std::thread::scope(|s| {
            s.spawn(|| {
                // The helper thread assists until the task is dry.
                while try_assist().is_some() {}
            });
            core.participate();
        });
        core.wait_done();
        drop(reg);
        core.rethrow_panic();
        for (i, h) in ran.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    #[test]
    fn assist_panic_surfaces_at_the_owner() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_assistable(4, |i| {
                if i == 2 {
                    panic!("item exploded");
                }
            })
        }));
        assert!(r.is_err(), "owner must re-raise an item panic");
    }

    #[test]
    fn deregistered_task_is_not_stealable() {
        // After the owner completes and deregisters, try_assist must
        // not find the task (its Arc may outlive the registration, but
        // its claims are exhausted and it is out of the registry).
        run_assistable(4, |_| {});
        // Nothing registered by this test remains; a try_assist here
        // may still serve *other* tests' tasks, so just assert it does
        // not panic or hang.
        let _ = try_assist();
    }

    #[test]
    fn counters_are_monotonic() {
        let a = assist_counters();
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let h = &hits;
            s.spawn(move || {
                // Assist whatever appears.
                for _ in 0..1000 {
                    if try_assist().is_none() {
                        std::thread::yield_now();
                    }
                }
                let _ = h;
            });
            for _ in 0..20 {
                run_assistable(16, |_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                    std::thread::yield_now();
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 20 * 16);
        let b = assist_counters();
        assert!(b.steal_attempts >= a.steal_attempts);
        assert!(b.items_assisted >= a.items_assisted);
        assert!(b.tasks_joined >= a.tasks_joined);
        assert!(b.steal_attempts >= b.items_assisted);
    }
}

/// Exhaustive interleaving checks for the claim cursor and the done
/// latch, runnable only under the model checker:
///
/// ```text
/// RUSTFLAGS="--cfg basker_model" cargo test -p basker_runtime --lib model_checks
/// ```
///
/// Under `--cfg basker_model` the cursor (`next`), the completion
/// counter, and the done latch swap onto the model's primitives, so
/// these tests explore every interleaving of claim / complete / latch /
/// wait between the owner and an assisting thread — including the
/// lost-wakeup class on the latch condvar, which the model reports as
/// a deadlock.
#[cfg(all(test, basker_model))]
mod model_checks {
    use super::*;
    use basker_model as model;
    use model::Outcome;
    use std::sync::atomic::AtomicU32;

    /// Owner + one assisting thread drain a 2-item task: in every
    /// interleaving each item runs exactly once, the owner's
    /// `wait_done` returns only after all items finished, and no
    /// latch wakeup is lost (a lost one would surface as a model
    /// deadlock with the owner parked on the latch condvar).
    ///
    /// The helper issues two bounded `try_assist` probes rather than
    /// looping until dry: the probes can steal zero, one, or both
    /// items depending on the schedule, which covers the same
    /// owner/assister claim races at a fraction of the schedule tree
    /// (an unbounded helper loop pushes the bounded-DFS budget past
    /// CI time).
    #[test]
    fn claim_cursor_hands_out_each_item_exactly_once() {
        let outcome = model::check(model::Config::default(), || {
            // Hit counters are std atomics: they are the *oracle*, not
            // the protocol under test, so they add no schedule points.
            let hits: Vec<AtomicU32> = (0..2).map(|_| AtomicU32::new(0)).collect();
            fn core_of<F: Fn(usize) + Sync>(
                payload: &ItemsPayload<'_, F>,
                size: usize,
            ) -> Arc<TaskCore> {
                TaskCore::new(
                    payload as *const ItemsPayload<'_, F> as *const (),
                    run_items::<F>,
                    size,
                    false,
                )
            }
            let f = |i: usize| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            };
            let payload = ItemsPayload { f: &f };
            let core = core_of(&payload, hits.len());
            let reg = register(&core);
            let helper = model::thread::spawn(|| {
                let _ = try_assist();
                let _ = try_assist();
            });
            core.participate();
            core.wait_done();
            drop(reg);
            core.rethrow_panic();
            helper.join().unwrap();
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "item {i} must run exactly once"
                );
            }
        });
        match outcome {
            Outcome::Pass { executions } => {
                assert!(executions > 1, "explorer must branch, got 1 schedule")
            }
            other => panic!("expected exhaustive pass, got {other:?}"),
        }
    }
}
