//! The SPMD task behind [`WorkerTeam::broadcast`](crate::WorkerTeam::broadcast)
//! (and so behind [`WorkerTeam::run_worklist`](crate::WorkerTeam::run_worklist),
//! which is one broadcast whose ranks pop jobs from a shared cursor).
//!
//! A broadcast posts one type-erased [`TaskCore`] of `width` items to
//! every worker's mailbox; each participant (the caller as rank 0, each
//! woken worker as the rank its mailbox belongs to) runs the item of its
//! own rank. The task's done latch is the broadcast's scoped join, and
//! its panic slot carries a rank's panic back to the caller.
//!
//! Sequential execution pays nothing: width-1 teams never construct a
//! `TaskCore` or issue an atomic — the zero-overhead single-core
//! contract asserted by the workspace's regression tests.
//!
//! # Soundness of the borrowed payload
//!
//! A task's `data` pointer refers to the submitter's stack frame. The
//! submitter never leaves that frame until `completed == size` (the
//! done latch), and a participant dereferences `data` only while it
//! runs its rank's item, which is counted into `completed` after it
//! finishes. A worker that still holds the `Arc` after its item can
//! touch the (heap) `TaskCore`, but never `data` — so the stack borrow
//! cannot outlive its frame.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// The primitives under model-checking scrutiny: the completion counter
/// and the done latch. Under `--cfg basker_model` (the model-checking
/// CI leg) they swap onto `basker_model`'s
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

/// The type-erased task a broadcast runs: `size` rank items, a
/// completion latch, and a panic slot so a faulting rank surfaces at the
/// submitter rather than in the thread that ran it.
pub(crate) struct TaskCore {
    data: *const (),
    // SAFETY: the trampoline's contract (a live payload behind `data`,
    // each index run at most once) is upheld by `run_claimed` — the
    // only caller — via its callers' distinct ranks and the owner's
    // done latch.
    run: unsafe fn(*const (), usize, usize),
    completed: msync::AtomicUsize,
    size: usize,
    done: msync::Mutex<bool>,
    done_cv: msync::Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `data` points at a payload of `Sync` references owned by the
// task's submitter, which blocks on the done latch for as long as any
// participant can still dereference it (see module docs); all other fields
// are plain sync primitives.
unsafe impl Send for TaskCore {}
// SAFETY: as above — shared access routes through the sync primitives;
// `data` is dereferenced only by the one participant of each rank.
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
            completed: msync::AtomicUsize::new(0),
            size,
            done: msync::Mutex::new(false),
            done_cv: msync::Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    /// Runs the item of rank `index` — the caller's own, which no other
    /// participant runs — capturing a panic into the task's panic slot,
    /// and counts it completed. The item's data reaches this thread
    /// through the mailbox mutex that posted the task.
    pub(crate) fn run_claimed(&self, index: usize) {
        // SAFETY: each participant passes its own rank, so this thread
        // is the unique executor of `index`, and the owner keeps `data`
        // alive until `completed` reaches `size` — which cannot happen
        // before this item is counted below.
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

/// Exhaustive interleaving checks for the completion counter and the
/// done latch, runnable only under the model checker:
///
/// ```text
/// RUSTFLAGS="--cfg basker_model" cargo test -p basker_runtime --lib model_checks
/// ```
///
/// Under `--cfg basker_model` the completion counter and the done latch
/// swap onto the model's primitives, so these tests explore every
/// interleaving of complete / latch / wait between the owner and its
/// workers — including the lost-wakeup class on the latch condvar,
/// which the model reports as a deadlock.
#[cfg(all(test, basker_model))]
mod model_checks {
    use super::*;
    use basker_model as model;
    use model::Outcome;
    use std::sync::atomic::AtomicU32;

    /// Bumps the hit counter of the item run.
    ///
    /// # Safety
    ///
    /// `data` must point at a live `[AtomicU32; 3]`.
    unsafe fn bump(data: *const (), index: usize, _size: usize) {
        // SAFETY: the owner keeps the counters alive until the done
        // latch (see `TaskCore::run_claimed`).
        let hits = unsafe { &*(data as *const [AtomicU32; 3]) };
        hits[index].fetch_add(1, Ordering::Relaxed);
    }

    /// The owner runs rank 0 and `workers` spawned participants run
    /// ranks `1..=workers`, as a broadcast's do: in every interleaving
    /// each item runs exactly once, the owner's `wait_done` returns only
    /// after all of them finished, and no latch wakeup is lost (a lost
    /// one would surface as a model deadlock with the owner parked on
    /// the latch condvar).
    fn latch_joins_every_rank(workers: usize) {
        let outcome = model::check(model::Config::default(), move || {
            // Hit counters are std atomics: they are the *oracle*, not
            // the protocol under test, so they add no schedule points.
            let hits = [AtomicU32::new(0), AtomicU32::new(0), AtomicU32::new(0)];
            let core = TaskCore::new(
                &hits as *const [AtomicU32; 3] as *const (),
                bump,
                1 + workers,
            );
            let spawned: Vec<_> = (1..=workers)
                .map(|rank| {
                    let core = core.clone();
                    model::thread::spawn(move || core.run_claimed(rank))
                })
                .collect();
            core.run_claimed(0);
            core.wait_done();
            core.rethrow_panic();
            for (i, h) in hits.iter().enumerate() {
                let want = u32::from(i <= workers);
                assert_eq!(h.load(Ordering::Relaxed), want, "item {i}");
            }
            for w in spawned {
                w.join().unwrap();
            }
        });
        match outcome {
            Outcome::Pass { executions } => {
                assert!(executions > 1, "explorer must branch, got 1 schedule")
            }
            other => panic!("expected exhaustive pass, got {other:?}"),
        }
    }

    #[test]
    fn latch_joins_the_owner_and_one_worker() {
        latch_joins_every_rank(1);
    }

    #[test]
    fn latch_joins_the_owner_and_two_workers() {
        latch_joins_every_rank(2);
    }
}
