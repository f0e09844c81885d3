//! The SPMD task behind [`WorkerTeam::broadcast`](crate::WorkerTeam::broadcast)
//! (and so behind [`WorkerTeam::run_worklist`](crate::WorkerTeam::run_worklist),
//! which is one broadcast whose ranks pop jobs from a shared cursor).
//!
//! A broadcast posts one type-erased [`TaskCore`] of `width` items to
//! every worker's mailbox; each participant (the caller plus the woken
//! workers) **claims exactly one index** of the task's atomic cursor,
//! and that index *is* its rank. The task's done latch is the
//! broadcast's scoped join, and its panic slot carries a rank's panic
//! back to the caller.
//!
//! Sequential execution pays nothing: width-1 teams never construct a
//! `TaskCore` or issue an atomic — the zero-overhead single-core
//! contract asserted by the workspace's regression tests.
//!
//! # Soundness of the borrowed payload
//!
//! A task's `data` pointer refers to the submitter's stack frame. The
//! submitter never leaves that frame until `completed == size` (the
//! done latch), and a participant dereferences `data` only after
//! winning a claim (`index < size`); every winning claim is counted
//! into `completed` after its item finishes. A worker that still holds
//! the `Arc` after its item can touch the (heap) `TaskCore`, but never
//! `data` — so the stack borrow cannot outlive its frame.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// The primitives under model-checking scrutiny: the claim cursor, the
/// completion counter, and the done latch. Under `--cfg basker_model`
/// (the model-checking CI leg) they swap onto `basker_model`'s
/// schedule-explored facades; the panic slot stays on std — its
/// critical section contains no schedule points, so it cannot hide an
/// interleaving.
#[cfg(basker_model)]
mod msync {
    pub(super) use basker_model::sync::{AtomicUsize, Condvar, Mutex};
}
#[cfg(not(basker_model))]
mod msync {
    pub(super) use std::sync::atomic::AtomicUsize;
    pub(super) use std::sync::{Condvar, Mutex};
}

/// The type-erased task a broadcast runs: `size` rank items handed out
/// by an atomically claimed index, a completion latch, and a panic slot
/// so a faulting rank surfaces at the submitter rather than in
/// whichever thread happened to claim it.
pub(crate) struct TaskCore {
    data: *const (),
    // SAFETY: the trampoline's contract (a live payload behind `data`,
    // each index run at most once) is upheld by `run_claimed` — the
    // only caller — via the claim cursor and the owner's done latch.
    run: unsafe fn(*const (), usize, usize),
    next: msync::AtomicUsize,
    completed: msync::AtomicUsize,
    size: usize,
    done: msync::Mutex<bool>,
    done_cv: msync::Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `data` points at a payload of `Sync` references owned by the
// task's submitter, which blocks on the done latch for as long as any
// claim can still dereference it (see module docs); all other fields
// are plain sync primitives.
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
    ) -> Arc<TaskCore> {
        Arc::new(TaskCore {
            data,
            run,
            next: msync::AtomicUsize::new(0),
            completed: msync::AtomicUsize::new(0),
            size,
            done: msync::Mutex::new(false),
            done_cv: msync::Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    /// Claims the next index; `None` when the task is exhausted.
    pub(crate) fn claim(&self) -> Option<usize> {
        // ORDER: Relaxed — the claim only needs atomicity (each index
        // handed out once); the item's *data* visibility comes from the
        // mailbox mutex that published the task to this thread, and
        // completion visibility from the AcqRel counter in
        // `run_claimed`. Verified exhaustively by
        // `model_checks::claim_cursor_hands_out_each_item_exactly_once`.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.size).then_some(i)
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

    /// Claim-and-run one item (a worker's rank); `false` when the task
    /// is exhausted.
    pub(crate) fn run_one(&self) -> bool {
        match self.claim() {
            Some(i) => {
                self.run_claimed(i);
                true
            }
            None => false,
        }
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
/// wait between the owner and a worker participant — including the
/// lost-wakeup class on the latch condvar, which the model reports as
/// a deadlock.
#[cfg(all(test, basker_model))]
mod model_checks {
    use super::*;
    use basker_model as model;
    use model::Outcome;
    use std::sync::atomic::AtomicU32;

    /// Bumps the hit counter of the claimed item.
    ///
    /// # Safety
    ///
    /// `data` must point at a live `[AtomicU32; 2]`.
    unsafe fn bump(data: *const (), index: usize, _size: usize) {
        // SAFETY: the owner keeps the counters alive until the done
        // latch (see `TaskCore::run_claimed`).
        let hits = unsafe { &*(data as *const [AtomicU32; 2]) };
        hits[index].fetch_add(1, Ordering::Relaxed);
    }

    /// Owner + one worker participant race the claim cursor of a 2-item
    /// task, each claiming one item as a broadcast rank does: in every
    /// interleaving each item runs exactly once, the owner's
    /// `wait_done` returns only after both items finished, and no latch
    /// wakeup is lost (a lost one would surface as a model deadlock
    /// with the owner parked on the latch condvar).
    #[test]
    fn claim_cursor_hands_out_each_item_exactly_once() {
        let outcome = model::check(model::Config::default(), || {
            // Hit counters are std atomics: they are the *oracle*, not
            // the protocol under test, so they add no schedule points.
            let hits = [AtomicU32::new(0), AtomicU32::new(0)];
            let core = TaskCore::new(&hits as *const [AtomicU32; 2] as *const (), bump, 2);
            let worker = {
                let core = core.clone();
                model::thread::spawn(move || {
                    core.run_one();
                })
            };
            core.run_one();
            core.wait_done();
            core.rethrow_panic();
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "item {i} must run exactly once"
                );
            }
            worker.join().unwrap();
        });
        match outcome {
            Outcome::Pass { executions } => {
                assert!(executions > 1, "explorer must branch, got 1 schedule")
            }
            other => panic!("expected exhaustive pass, got {other:?}"),
        }
    }
}
