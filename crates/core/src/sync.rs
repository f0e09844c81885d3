//! Point-to-point synchronization (paper §IV, "Synchronization").
//!
//! Basker's numeric phase lets multiple threads cooperate on a single
//! block column, which requires sync between *specific* pairs of threads,
//! not the whole team. The paper implements this with writes to volatile
//! flags; the sound Rust rendering is a slot that is written once
//! (Release) and spin-read (Acquire) by consumers.
//!
//! [`Slot`] packages that protocol: `publish` stores the value and flips
//! the flag; `wait` runs an **assist-then-wait** loop — a brief spin
//! catches the fast hand-off, after which the blocked rank joins any
//! in-flight assistable task ([`basker_runtime::try_assist`]) instead of
//! sleeping, so waiting threads contribute work (another column, another
//! BTF block, another stream's job) rather than burn timeslices. Time
//! spent genuinely idle is counted (assist run time is excluded) so the
//! sync-overhead ablation (paper: barrier 11 % vs point-to-point 2.3 %
//! on `G2_Circuit`) can be measured. [`ColumnSlots`] arranges one slot
//! **per column** of a pipelined block-column producer — the layout
//! behind the paper's column-at-a-time separator factorization, where a
//! consumer picks up column `c` while the producer works on `c + 1`.
//!
//! Waiting is parameterized by [`WaitCtx`], which carries the wait clock,
//! the per-rank assist counters, and the strategy — the two schemes §IV
//! compares: [`SyncMode::PointToPoint`] waits assist; [`SyncMode::
//! Barrier`]'s (barrier-bounded) slot waits never assist and run an
//! escalating spin → yield → sleep loop instead, which is the barrier
//! baseline's wait and nothing else. The barrier itself is provided by
//! [`TeamSync`], which either no-ops (`PointToPoint`) or runs a full
//! team barrier (`Barrier`) at every structural phase boundary,
//! mimicking a naive sequence of parallel-for launches.
//!
//! # Memory-ordering audit
//!
//! The load-bearing orderings, and why each is what it is. Each claim
//! below is backed by a `model_checks` test: the deterministic
//! interleaving model checker (`shims/model`, compiled in under
//! `--cfg basker_model`) exhaustively explores the protocol and both
//! *passes the ordering as written* and *fails the next-weaker
//! variant*:
//!
//! * `Slot::publish` claims the slot with a `compare_exchange` from
//!   `EMPTY` to `WRITING` *before* touching the value cell, then stores
//!   `READY` with **Release** after the write. The claim itself can be
//!   Relaxed: the only prior write to the cell is the constructor's, and
//!   whatever mechanism shared the `&Slot` across threads already
//!   ordered construction before use. The claim is what makes an
//!   erroneous second `publish` a deterministic panic instead of a data
//!   race on the cell (the seed asserted on the cell contents first,
//!   which was itself UB under a schedule bug — rediscovered on demand
//!   by `model_checks::seeded_double_publish_regression_is_caught`).
//! * `Slot::try_get`/`wait` load the state with **Acquire**, pairing
//!   with the Release store so the value write happens-before any read
//!   through the returned reference. Relaxed here would be a genuine
//!   data race on the value
//!   (`model_checks::relaxed_ready_load_is_caught_as_race`), as would a
//!   Relaxed publish store
//!   (`model_checks::relaxed_ready_store_is_caught_as_race`).
//! * [`WaitClock`] uses **Relaxed** throughout, deliberately: each clock
//!   is written by one worker and aggregated only after
//!   `WorkerTeam::broadcast` returns, and joining the team's threads
//!   already gives the reader a happens-before edge covering every
//!   Relaxed increment. The counters are diagnostics and impose no
//!   ordering on the factorization itself.
//!
//! # Model checking
//!
//! Under `--cfg basker_model` (passed via `RUSTFLAGS` by the
//! model-checking CI leg) the slot's state atomic and value cell swap
//! onto [`basker_model`]'s schedule-explored facades, and `wait`
//! becomes a plain poll/yield loop (the assist path and timing
//! instrumentation are out of scope for the model — they are std-only
//! side bands). Run the suites with:
//!
//! ```text
//! RUSTFLAGS="--cfg basker_model" cargo test -p basker --lib model_checks
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

#[cfg(basker_model)]
use basker_model::sync::AtomicU8;
#[cfg(not(basker_model))]
use std::sync::atomic::AtomicU8;

/// Unsynchronized `Option<T>` storage behind [`Slot`]'s state machine.
///
/// In a normal build this is a bare `UnsafeCell` whose two unsafe
/// accessors carry the protocol's safety contract; under
/// `--cfg basker_model` it swaps to the model checker's race-checked
/// cell, which *verifies* that contract against the happens-before
/// relation of every explored interleaving.
#[cfg(not(basker_model))]
struct ValueCell<T>(std::cell::UnsafeCell<Option<T>>);

#[cfg(not(basker_model))]
impl<T> ValueCell<T> {
    fn new() -> ValueCell<T> {
        ValueCell(std::cell::UnsafeCell::new(None))
    }

    /// Stores `Some(value)`.
    ///
    /// # Safety
    ///
    /// The caller must be the unique writer (here: the winner of the
    /// `EMPTY → WRITING` claim), and no reader may access the cell
    /// until a subsequent Release store publishes the write.
    unsafe fn set(&self, value: T) {
        // SAFETY: forwarded contract — unique writer, no concurrent
        // readers until the Release publication.
        unsafe { *self.0.get() = Some(value) };
    }

    /// Reads the cell.
    ///
    /// # Safety
    ///
    /// The caller must have observed the publication with Acquire
    /// ordering (so the write happens-before this read) and the cell
    /// is never written again after publication.
    unsafe fn get_ref(&self) -> Option<&T> {
        // SAFETY: forwarded contract — write happens-before this read,
        // no writes after publication.
        unsafe { (*self.0.get()).as_ref() }
    }

    fn into_inner(self) -> Option<T> {
        self.0.into_inner()
    }
}

#[cfg(basker_model)]
use basker_model::cell::ValueCell;

/// Synchronization strategy for the parallel numeric factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Producer/consumer flags between dependent threads only (Basker's
    /// scheme), with blocked ranks **assisting** in-flight tasks instead
    /// of backing off. The default.
    PointToPoint,
    /// Full team barrier at every dependency level (the naive
    /// data-parallel baseline the paper measures against).
    Barrier,
}

/// A write-once slot with Release/Acquire hand-off.
///
/// Exactly one thread calls [`publish`](Slot::publish); any number of
/// threads call [`wait`](Slot::wait) afterwards. The implementation is a
/// manual `OnceLock` so the spin loop can be instrumented.
pub struct Slot<T> {
    state: AtomicU8,
    value: ValueCell<T>,
}

/// No publish has started.
const EMPTY: u8 = 0;
/// A producer has claimed the slot and is writing the value.
const WRITING: u8 = 1;
/// The value is written and visible to Acquire readers.
const READY: u8 = 2;

// SAFETY: `value` is written exactly once, by the single thread that won
// the EMPTY -> WRITING claim, before `state` becomes READY with Release
// ordering; readers observe READY with Acquire before touching `value`,
// so no data race is possible. `T: Send` suffices for the value to cross
// threads; readers only obtain `&T`, hence `T: Sync` for Sync.
unsafe impl<T: Send> Send for Slot<T> {}
// SAFETY: as above — the state machine serializes the one write before
// all reads, and shared access only ever yields `&T`.
unsafe impl<T: Send + Sync> Sync for Slot<T> {}

impl<T> Slot<T> {
    /// An empty slot.
    pub fn new() -> Self {
        Slot {
            state: AtomicU8::new(EMPTY),
            value: ValueCell::new(),
        }
    }

    /// Publishes the value. Panics if called twice (programming error in
    /// the schedule).
    pub fn publish(&self, value: T) {
        // Claim the slot before touching the cell, so a schedule bug
        // (two producers) panics deterministically instead of racing on
        // the value.
        // ORDER: Relaxed suffices for the claim: the winner is unique,
        // and the only earlier cell write is the constructor's, ordered
        // by whatever shared `&self` across threads. Verified by the
        // exhaustive `model_checks::racing_publishers_*` suite.
        self.state
            .compare_exchange(EMPTY, WRITING, Ordering::Relaxed, Ordering::Relaxed)
            .expect("slot published twice");
        // SAFETY: the claim above makes this thread the only writer; no
        // reader dereferences before `state` becomes READY, published
        // with Release below.
        unsafe { self.value.set(value) };
        self.state.store(READY, Ordering::Release);
    }

    /// Returns the value if already published (no waiting).
    pub fn try_get(&self) -> Option<&T> {
        if self.state.load(Ordering::Acquire) == READY {
            // SAFETY: READY ⇒ value written (Release/Acquire pair) and
            // never written again.
            unsafe { self.value.get_ref() }
        } else {
            None
        }
    }

    /// Blocks until the value is published, accumulating *idle* time into
    /// `ctx`'s clock. In assist mode (the [`SyncMode::PointToPoint`]
    /// default) the blocked thread joins in-flight assistable tasks
    /// between polls; time spent running assisted work is useful work and
    /// is **excluded** from the recorded wait.
    pub fn wait<'a>(&'a self, ctx: &WaitCtx) -> &'a T {
        // Under the model checker the wait is a plain poll/yield loop:
        // the protocol under test is the Release/Acquire hand-off, and
        // the assist path and timing side band are std-only concerns.
        #[cfg(basker_model)]
        {
            let _ = ctx;
            loop {
                if let Some(v) = self.try_get() {
                    return v;
                }
                basker_model::thread::yield_now();
            }
        }
        #[cfg(not(basker_model))]
        {
            if let Some(v) = self.try_get() {
                return v;
            }
            let mut idle = 0u64;
            let mut seg = Instant::now();
            let mut spins = 0u32;
            loop {
                if let Some(v) = self.try_get() {
                    ctx.clock.add(idle + seg.elapsed().as_nanos() as u64);
                    return v;
                }
                spins = spins.saturating_add(1);
                if ctx.assist {
                    // Assist-then-wait: a brief spin catches the fast
                    // hand-off; past that, join someone else's in-flight
                    // work instead of sleeping. `spins` resets after an
                    // assist so the cheap poll phase runs again — the
                    // awaited column may have landed meanwhile.
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else {
                        let pre = seg.elapsed().as_nanos() as u64;
                        // ORDER: Relaxed — diagnostic counter, read only
                        // after the team joins (see WaitCtx docs).
                        ctx.steal_attempts.fetch_add(1, Ordering::Relaxed);
                        if let Some(id) = basker_runtime::try_assist() {
                            idle += pre;
                            ctx.note_assist(id);
                            seg = Instant::now();
                            spins = 0;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                } else {
                    // The barrier baseline's slot wait (SyncMode::Barrier):
                    // a brief spin, a yield phase, then sleeps — essential
                    // when ranks outnumber cores, where a spinning waiter
                    // would otherwise steal the producer's timeslices.
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else if spins < 256 {
                        std::thread::yield_now();
                    } else {
                        let us = (spins - 255).min(50) as u64;
                        std::thread::sleep(std::time::Duration::from_micros(us));
                    }
                }
            }
        }
    }

    /// Consumes the slot, returning the value if published.
    pub fn into_inner(self) -> Option<T> {
        self.value.into_inner()
    }
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot::new()
    }
}

/// The slot layout of one pipelined block-column producer: one
/// write-once [`Slot`] **per column**, so a consumer can pick up column
/// `c` while the producer is still computing column `c + 1` (the paper's
/// column-at-a-time hand-off). `None` in a slot poisons that column —
/// consumers propagate the poison instead of computing.
pub struct ColumnSlots<T> {
    cols: Vec<Slot<Option<T>>>,
}

impl<T> ColumnSlots<T> {
    /// Empty slots for `ncols` columns.
    pub fn new(ncols: usize) -> ColumnSlots<T> {
        ColumnSlots {
            cols: (0..ncols).map(|_| Slot::new()).collect(),
        }
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    /// Publishes column `c` (`None` = poisoned).
    pub fn publish(&self, c: usize, value: Option<T>) {
        self.cols[c].publish(value);
    }

    /// Blocks (assisting) until column `c` is published; `None` means the
    /// producer poisoned it (upstream numeric failure).
    pub fn wait<'a>(&'a self, c: usize, ctx: &WaitCtx) -> Option<&'a T> {
        self.cols[c].wait(ctx).as_ref()
    }

    /// Consumes the slots, yielding each column in order (`None` for
    /// poisoned *or never-published* columns).
    pub fn into_columns(self) -> impl Iterator<Item = Option<T>> {
        self.cols.into_iter().map(|s| s.into_inner().flatten())
    }
}

/// Per-thread accumulator of time spent blocked on synchronization.
#[derive(Default)]
pub struct WaitClock {
    nanos: AtomicU64,
}

impl WaitClock {
    /// Fresh clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `ns` nanoseconds of wait time.
    pub fn add(&self, ns: u64) {
        // ORDER: Relaxed — single-writer diagnostic, aggregated only
        // after the team joins (the join is the happens-before edge).
        self.nanos.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total nanoseconds recorded.
    pub fn total_ns(&self) -> u64 {
        // ORDER: Relaxed — see `add`.
        self.nanos.load(Ordering::Relaxed)
    }
}

/// Snapshot of one rank's (or one factorization's, when summed)
/// assist-loop activity: how much foreign work was run while blocked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssistTally {
    /// Work items (pipeline columns, worklist jobs) executed while
    /// blocked on a slot.
    pub columns_assisted: u64,
    /// Distinct tasks joined by the assist loop.
    pub tasks_joined: u64,
    /// Assist probes issued (hits and misses) — the analogue of a
    /// work-stealing scheduler's steal attempts.
    pub steal_attempts: u64,
}

impl AssistTally {
    /// Component-wise sum.
    pub fn merge(&mut self, other: AssistTally) {
        self.columns_assisted += other.columns_assisted;
        self.tasks_joined += other.tasks_joined;
        self.steal_attempts += other.steal_attempts;
    }
}

/// Per-rank wait context: the wait clock plus the assist strategy and
/// counters. One per team rank; every blocking primitive in the numeric
/// phase ([`Slot::wait`], [`ColumnSlots::wait`], [`TeamSync::phase`])
/// threads a `&WaitCtx` so waits are observable and, in assist mode,
/// productive.
///
/// All counters are Relaxed atomics for the same reason as [`WaitClock`]:
/// each context is written by one rank and aggregated only after the team
/// joins, which supplies the happens-before edge.
pub struct WaitCtx {
    clock: WaitClock,
    /// Whether blocked waits should join in-flight assistable tasks
    /// (true only for [`SyncMode::PointToPoint`]). Unread under the
    /// model checker, whose `wait` branch is a plain yield loop.
    #[cfg_attr(basker_model, allow(dead_code))]
    assist: bool,
    columns_assisted: AtomicU64,
    tasks_joined: AtomicU64,
    steal_attempts: AtomicU64,
    /// Id of the last task assisted (0 = none yet) — detects joins of a
    /// *new* task vs repeat items of the same one. Unread under the
    /// model checker (no assist path).
    #[cfg_attr(basker_model, allow(dead_code))]
    last_task: AtomicU64,
}

impl WaitCtx {
    /// A fresh context using `mode`'s wait strategy.
    pub fn new(mode: SyncMode) -> Self {
        WaitCtx {
            clock: WaitClock::new(),
            assist: mode == SyncMode::PointToPoint,
            columns_assisted: AtomicU64::new(0),
            tasks_joined: AtomicU64::new(0),
            steal_attempts: AtomicU64::new(0),
            last_task: AtomicU64::new(0),
        }
    }

    /// Total idle nanoseconds recorded (assist run time excluded).
    pub fn wait_ns(&self) -> u64 {
        self.clock.total_ns()
    }

    /// The assist counters recorded so far.
    pub fn tally(&self) -> AssistTally {
        // ORDER: Relaxed ×3 — single-writer diagnostics, read after the
        // team joins (see struct docs).
        AssistTally {
            columns_assisted: self.columns_assisted.load(Ordering::Relaxed),
            tasks_joined: self.tasks_joined.load(Ordering::Relaxed),
            steal_attempts: self.steal_attempts.load(Ordering::Relaxed),
        }
    }

    /// Records one successfully assisted work item of task `id`.
    /// Unused under the model checker, whose `wait` branch never
    /// assists.
    #[cfg_attr(basker_model, allow(dead_code))]
    fn note_assist(&self, id: u64) {
        // ORDER: Relaxed — same single-writer diagnostic contract as
        // `tally`; `last_task` is only ever read by this rank.
        self.columns_assisted.fetch_add(1, Ordering::Relaxed);
        if self.last_task.swap(id, Ordering::Relaxed) != id {
            self.tasks_joined.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Team-wide synchronization used only in [`SyncMode::Barrier`] mode.
pub struct TeamSync {
    mode: SyncMode,
    barrier: Barrier,
}

impl TeamSync {
    /// A sync domain for `p` threads.
    pub fn new(mode: SyncMode, p: usize) -> Self {
        TeamSync {
            mode,
            barrier: Barrier::new(p),
        }
    }

    /// The active mode.
    pub fn mode(&self) -> SyncMode {
        self.mode
    }

    /// In `Barrier` mode, blocks until all `p` threads arrive (counting
    /// the wait); in point-to-point mode this is a no-op — the slots
    /// carry all ordering.
    pub fn phase(&self, ctx: &WaitCtx) {
        if self.mode == SyncMode::Barrier {
            let start = Instant::now();
            self.barrier.wait();
            ctx.clock.add(start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(all(test, not(basker_model)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn slot_hand_off_single_thread() {
        let s: Slot<Vec<u32>> = Slot::new();
        assert!(s.try_get().is_none());
        s.publish(vec![1, 2, 3]);
        assert_eq!(s.try_get().unwrap(), &vec![1, 2, 3]);
        let w = WaitCtx::new(SyncMode::PointToPoint);
        assert_eq!(s.wait(&w), &vec![1, 2, 3]);
        assert_eq!(w.wait_ns(), 0, "no waiting when already published");
        assert_eq!(
            w.tally(),
            AssistTally::default(),
            "no assist activity on the fast path"
        );
        assert_eq!(s.into_inner(), Some(vec![1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "slot published twice")]
    fn double_publish_panics() {
        let s: Slot<u32> = Slot::new();
        s.publish(1);
        s.publish(2);
    }

    #[test]
    fn racing_publishes_panic_on_exactly_one_thread() {
        // Two threads race to publish; the claim CAS must let exactly
        // one through and turn the other into a clean panic (never a
        // silent overwrite, never a race on the cell).
        for _ in 0..50 {
            let s: Arc<Slot<u64>> = Arc::new(Slot::new());
            let go = Arc::new(std::sync::Barrier::new(2));
            let results: Vec<bool> = [1u64, 2u64]
                .map(|v| {
                    let s = s.clone();
                    let go = go.clone();
                    std::thread::spawn(move || {
                        go.wait();
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.publish(v)))
                            .is_ok()
                    })
                })
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect();
            assert_eq!(
                results.iter().filter(|&&ok| ok).count(),
                1,
                "exactly one publish must win"
            );
            let w = WaitCtx::new(SyncMode::PointToPoint);
            let got = *s.wait(&w);
            assert!(got == 1 || got == 2);
        }
    }

    #[test]
    fn slot_hand_off_across_threads() {
        for _ in 0..50 {
            let s: Arc<Slot<u64>> = Arc::new(Slot::new());
            let s2 = s.clone();
            let h = std::thread::spawn(move || {
                let w = WaitCtx::new(SyncMode::PointToPoint);
                *s2.wait(&w)
            });
            std::thread::yield_now();
            s.publish(42);
            assert_eq!(h.join().unwrap(), 42);
        }
        // The barrier baseline's wait never probes the assist registry,
        // however long it blocks (the delay only gives a wrongly
        // assisting wait time to get past its spin phase and be caught).
        let s: Arc<Slot<u64>> = Arc::new(Slot::new());
        let s2 = s.clone();
        let h = std::thread::spawn(move || {
            let w = WaitCtx::new(SyncMode::Barrier);
            s2.wait(&w);
            w.tally()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        s.publish(42);
        assert_eq!(h.join().unwrap(), AssistTally::default());
    }

    #[test]
    fn many_producers_many_consumers_stress() {
        // 64 slots, 4 producer/consumer threads with a fixed ownership
        // map; consumers read slots produced by other threads.
        let slots: Arc<Vec<Slot<usize>>> = Arc::new((0..64).map(|_| Slot::new()).collect());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let slots = slots.clone();
                scope.spawn(move || {
                    let w = WaitCtx::new(SyncMode::PointToPoint);
                    // produce my slots
                    for i in (0..64).filter(|i| i % 4 == t) {
                        slots[i].publish(i * 10);
                    }
                    // read everyone's
                    let mut sum = 0usize;
                    for i in 0..64 {
                        sum += *slots[i].wait(&w);
                    }
                    assert_eq!(sum, (0..64).map(|i| i * 10).sum::<usize>());
                });
            }
        });
    }

    #[test]
    fn barrier_mode_synchronizes_team() {
        use std::sync::atomic::AtomicUsize;
        let ts = TeamSync::new(SyncMode::Barrier, 3);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let w = WaitCtx::new(SyncMode::Barrier);
                    counter.fetch_add(1, Ordering::SeqCst);
                    ts.phase(&w);
                    // After the barrier every increment is visible.
                    assert_eq!(counter.load(Ordering::SeqCst), 3);
                });
            }
        });
    }

    #[test]
    fn p2p_mode_phase_is_noop() {
        let ts = TeamSync::new(SyncMode::PointToPoint, 8);
        let w = WaitCtx::new(SyncMode::PointToPoint);
        ts.phase(&w); // would deadlock in Barrier mode with 1 caller
        assert_eq!(w.wait_ns(), 0);
    }
}

/// Exhaustive interleaving checks for the publish/claim protocol,
/// runnable only under the model checker:
///
/// ```text
/// RUSTFLAGS="--cfg basker_model" cargo test -p basker --lib model_checks
/// ```
///
/// Three groups: (1) the protocol *as written* passes exhaustively;
/// (2) the next-weaker ordering of each load-bearing atomic op is
/// caught as a data race (this is the evidence behind the
/// memory-ordering audit in the module docs); (3) the PR 1
/// double-publish bug, deliberately reintroduced, is rediscovered with
/// a replayable schedule seed.
#[cfg(all(test, basker_model))]
mod model_checks {
    use super::*;
    use basker_model as model;
    use model::{FailureKind, Outcome};
    use std::sync::Arc;

    fn cfg() -> model::Config {
        model::Config::default()
    }

    /// The real `Slot` hand-off: producer publishes, consumer waits.
    /// Every interleaving must deliver the value race-free — this is
    /// the proof that Relaxed-claim + Release-publish + Acquire-read
    /// is sufficient.
    #[test]
    fn slot_publish_claim_exhaustive() {
        let outcome = model::check(cfg(), || {
            let s: Arc<Slot<u64>> = Arc::new(Slot::new());
            let s2 = s.clone();
            let producer = model::thread::spawn(move || s2.publish(42));
            let w = WaitCtx::new(SyncMode::PointToPoint);
            assert_eq!(*s.wait(&w), 42);
            producer.join().unwrap();
        });
        match outcome {
            Outcome::Pass { executions } => {
                assert!(executions > 1, "explorer must branch, got 1 schedule")
            }
            other => panic!("expected exhaustive pass, got {other:?}"),
        }
    }

    /// Two racing publishers: in every interleaving exactly one wins
    /// the claim and the loser panics cleanly — never a cell race.
    #[test]
    fn racing_publishers_exactly_one_wins_every_interleaving() {
        let outcome = model::check(cfg(), || {
            let s: Arc<Slot<u64>> = Arc::new(Slot::new());
            let handles = [1u64, 2u64].map(|v| {
                let s = s.clone();
                model::thread::spawn(move || s.publish(v))
            });
            let losses = handles
                .into_iter()
                .map(|h| h.join().is_err() as usize)
                .sum::<usize>();
            assert_eq!(losses, 1, "exactly one publisher must lose the claim");
            let w = WaitCtx::new(SyncMode::PointToPoint);
            let got = *s.wait(&w);
            assert!(got == 1 || got == 2);
        });
        assert!(outcome.is_pass(), "got {outcome:?}");
    }

    /// The pipelined column hand-off: a producer publishes columns in
    /// order while the consumer drains them in order.
    #[test]
    fn column_slots_pipeline_exhaustive() {
        let outcome = model::check(cfg(), || {
            let slots: Arc<ColumnSlots<u64>> = Arc::new(ColumnSlots::new(2));
            let s2 = slots.clone();
            let producer = model::thread::spawn(move || {
                s2.publish(0, Some(10));
                s2.publish(1, Some(20));
            });
            let w = WaitCtx::new(SyncMode::PointToPoint);
            assert_eq!(slots.wait(0, &w), Some(&10));
            assert_eq!(slots.wait(1, &w), Some(&20));
            producer.join().unwrap();
        });
        assert!(outcome.is_pass(), "got {outcome:?}");
    }

    /// A hand-off replica with selectable orderings, used to show each
    /// load-bearing ordering is necessary: weaken either side of the
    /// Release/Acquire pair and the checker reports the cell race.
    fn handoff(store_order: Ordering, load_order: Ordering) -> Outcome {
        model::check(cfg(), move || {
            let state = Arc::new(AtomicU8::new(EMPTY));
            let value: Arc<ValueCell<u64>> = Arc::new(ValueCell::new());
            let (st2, v2) = (state.clone(), value.clone());
            let producer = model::thread::spawn(move || {
                st2.compare_exchange(EMPTY, WRITING, Ordering::Relaxed, Ordering::Relaxed)
                    .expect("claim");
                // SAFETY: unique writer by the claim; whether readers
                // are ordered after this write is exactly what the
                // parameterized orderings probe.
                unsafe { v2.set(7) };
                st2.store(READY, store_order);
            });
            while state.load(load_order) != READY {
                model::thread::yield_now();
            }
            // SAFETY: sound iff the orderings under test form a
            // Release/Acquire pair — the checker decides.
            let got = unsafe { value.get_ref() }.copied();
            assert_eq!(got, Some(7));
            producer.join().unwrap();
        })
    }

    /// The orderings as written (Release store, Acquire load) pass.
    #[test]
    fn release_acquire_handoff_passes() {
        let outcome = handoff(Ordering::Release, Ordering::Acquire);
        assert!(outcome.is_pass(), "got {outcome:?}");
    }

    /// Downgrading the publish store to Relaxed is a data race — the
    /// audit's justification for Release.
    #[test]
    fn relaxed_ready_store_is_caught_as_race() {
        let outcome = handoff(Ordering::Relaxed, Ordering::Acquire);
        let report = outcome.failure().expect("relaxed store must race");
        assert!(matches!(report.kind, FailureKind::DataRace { .. }));
    }

    /// Downgrading the consumer load to Relaxed is a data race — the
    /// audit's justification for Acquire.
    #[test]
    fn relaxed_ready_load_is_caught_as_race() {
        let outcome = handoff(Ordering::Release, Ordering::Relaxed);
        let report = outcome.failure().expect("relaxed load must race");
        assert!(matches!(report.kind, FailureKind::DataRace { .. }));
    }

    /// The PR 1 double-publish bug, deliberately reintroduced: the
    /// original code wrote the value cell *before* claiming the slot,
    /// so two racing publishers raced on the cell (UB) before one of
    /// them panicked. The checker must rediscover it within the
    /// bounded budget and hand back a schedule seed that replays it.
    struct BuggySlot {
        state: AtomicU8,
        value: ValueCell<u64>,
    }

    impl BuggySlot {
        fn new() -> BuggySlot {
            BuggySlot {
                state: AtomicU8::new(EMPTY),
                value: ValueCell::new(),
            }
        }

        fn publish(&self, v: u64) {
            // SAFETY: deliberately NOT satisfied — this is the seeded
            // regression: the write precedes the claim, so a racing
            // second publisher also reaches it.
            unsafe { self.value.set(v) };
            self.state
                .compare_exchange(EMPTY, WRITING, Ordering::Relaxed, Ordering::Relaxed)
                .expect("slot published twice");
            self.state.store(READY, Ordering::Release);
        }
    }

    fn double_publish_body() {
        let s = Arc::new(BuggySlot::new());
        let handles = [1u64, 2u64].map(|v| {
            let s = s.clone();
            model::thread::spawn(move || s.publish(v))
        });
        for h in handles {
            // The claim loser's panic is expected; the *race on the
            // cell before the claim* is what the checker must flag.
            let _ = h.join();
        }
    }

    #[test]
    fn seeded_double_publish_regression_is_caught() {
        let outcome = model::check(cfg(), double_publish_body);
        let report = outcome
            .failure()
            .expect("the reintroduced double-publish race must be found");
        assert!(
            matches!(report.kind, FailureKind::DataRace { .. }),
            "expected a cell data race, got {:?}",
            report.kind
        );
        // The printed seed replays to the same failure class.
        let seed = report.schedule.seed();
        assert_ne!(seed, "-", "a racy schedule has at least one decision");
        let replayed = model::replay(cfg(), &seed, double_publish_body);
        let rr = replayed
            .failure()
            .expect("the seed must reproduce the race deterministically");
        assert!(matches!(rr.kind, FailureKind::DataRace { .. }));
    }
}
