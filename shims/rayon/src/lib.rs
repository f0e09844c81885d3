//! Minimal in-tree stand-in for the `rayon` crate (the build environment
//! has no registry access), rewritten as a thin compatibility façade over
//! the persistent [`basker_runtime::WorkerTeam`]. Provides the surface
//! this workspace uses:
//!
//! * [`ThreadPoolBuilder`] / [`ThreadPool`] with `install`, `broadcast`
//!   and `current_num_threads`;
//! * `prelude::*` with `.par_iter()` on slices/`Vec`s supporting
//!   `.map(..).collect()`, `.for_each(..)` and `.for_each_init(..)`.
//!
//! Every `ThreadPool` is backed by a **hot, process-shared** team from
//! [`basker_runtime::shared_team`]: building a pool of a width that was
//! seen before spawns zero new OS threads, and workers park between jobs
//! instead of burning CPU. `broadcast` genuinely runs one
//! concurrently-live thread per pool slot — the Basker point-to-point
//! synchronization (spin-wait slots) relies on every team member making
//! progress at once, so a sequential fallback would deadlock. Parallel
//! iterators dispatch chunks onto the installed pool's team; without an
//! installed pool they fall back to the shared machine-width team (or
//! run serially when that team is this thread itself).
//!
//! Beyond the upstream API, [`ThreadPoolBuilder::pin_threads`] requests
//! core pinning for the backing team (a Basker extension; real `rayon`
//! callers simply never invoke it).

use basker_runtime::{shared_team, WorkerTeam};
use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, Mutex};

thread_local! {
    /// Team installed by [`ThreadPool::install`]; `None` = no pool.
    static INSTALLED: RefCell<Option<Arc<WorkerTeam>>> = const { RefCell::new(None) };
}

fn default_width() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Error from [`ThreadPoolBuilder::build`]. The shim pool cannot
/// actually fail to build; the type exists for API compatibility.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
    pin_threads: bool,
}

impl ThreadPoolBuilder {
    /// A builder with the default (machine-sized) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool width; 0 means "number of cores".
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Requests that the backing team pin worker `r` to core `r` (a
    /// Basker extension over the upstream `rayon` API; best-effort).
    pub fn pin_threads(mut self, pin: bool) -> Self {
        self.pin_threads = pin;
        self
    }

    /// Accepted for API compatibility; the backing team names its own
    /// threads (`basker-worker-N`).
    pub fn thread_name<F>(self, _name: F) -> Self
    where
        F: Fn(usize) -> String,
    {
        self
    }

    /// Builds the pool, attaching it to the shared persistent team of
    /// the requested width. Never fails in the shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            default_width()
        } else {
            self.num_threads
        };
        Ok(ThreadPool {
            team: shared_team(n, self.pin_threads),
        })
    }
}

/// A logical pool of worker slots, backed by a persistent
/// [`WorkerTeam`] shared across all pools of the same width.
pub struct ThreadPool {
    team: Arc<WorkerTeam>,
}

/// Per-thread context handed to [`ThreadPool::broadcast`] closures.
pub struct BroadcastContext<'a> {
    index: usize,
    num_threads: usize,
    _scope: std::marker::PhantomData<&'a ()>,
}

impl BroadcastContext<'_> {
    /// This worker's rank in `0..num_threads()`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Team size of the broadcast.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }
}

impl ThreadPool {
    /// The pool's width.
    pub fn current_num_threads(&self) -> usize {
        self.team.width()
    }

    /// The persistent team backing this pool (Basker extension).
    pub fn team(&self) -> &Arc<WorkerTeam> {
        &self.team
    }

    /// Runs `op` with this pool installed, so nested `par_iter()` calls
    /// dispatch their chunks onto this pool's team.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        // Restore on drop so a panicking `op` (caught further up, e.g.
        // by a test harness) cannot leak this pool's team onto the
        // calling thread.
        struct Restore(Option<Arc<WorkerTeam>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(INSTALLED.with(|c| c.borrow_mut().replace(self.team.clone())));
        op()
    }

    /// Executes `op` once on every worker slot concurrently and returns
    /// the per-worker results in rank order.
    pub fn broadcast<OP, R>(&self, op: OP) -> Vec<R>
    where
        OP: Fn(BroadcastContext<'_>) -> R + Sync,
        R: Send,
    {
        self.team.broadcast(|ctx| {
            op(BroadcastContext {
                index: ctx.rank(),
                num_threads: ctx.width(),
                _scope: std::marker::PhantomData,
            })
        })
    }
}

/// Runs `f` over `items` split into at most team-width contiguous
/// chunks, preserving item order in the result. Falls back to a serial
/// call when no parallel execution is possible (width 1 or a single
/// chunk).
///
/// The chunks are dispatched as one **assistable worklist task** over
/// the team — the same atomically-claimed work loop that runs broadcast
/// ranks and `SolverService` jobs — so chunks are claimed by whichever
/// rank is free first, and a thread blocked elsewhere in the process
/// (e.g. on a pipeline column) can assist the remaining chunks.
fn chunked_run<'a, T, R, F>(items: &'a [T], f: F) -> Vec<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&'a [T]) -> Vec<R> + Sync,
{
    let team = INSTALLED
        .with(|c| c.borrow().clone())
        .unwrap_or_else(|| shared_team(default_width(), false));
    let width = team.width();
    if width == 1 || items.len() <= 1 {
        return vec![f(items)];
    }
    let chunk = items.len().div_ceil(width);
    let chunks: Vec<&'a [T]> = items.chunks(chunk).collect();
    let cells: Vec<Mutex<Option<Vec<R>>>> = (0..chunks.len()).map(|_| Mutex::new(None)).collect();
    team.run_worklist(chunks.len(), |i| {
        *cells[i].lock().unwrap() = Some(f(chunks[i]));
    });
    cells
        .into_iter()
        .map(|c| c.into_inner().unwrap().expect("worklist chunk missing"))
        .collect()
}

/// Borrowing parallel iterator over a slice.
pub struct ParIter<'a, T: Sync> {
    items: &'a [T],
}

/// Mapped parallel iterator, terminated by [`ParMap::collect`].
pub struct ParMap<'a, T: Sync, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps each item; evaluation happens at `collect`.
    pub fn map<F, R>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Calls `f` on every item, in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        chunked_run(self.items, |chunk| {
            chunk.iter().for_each(&f);
            Vec::<()>::new()
        });
    }

    /// Calls `f` on every item with a per-worker scratch state created
    /// by `init` (mirrors `rayon`'s `for_each_init`).
    pub fn for_each_init<I, S, F>(self, init: I, f: F)
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &'a T) + Sync,
    {
        chunked_run(self.items, |chunk| {
            let mut state = init();
            for item in chunk {
                f(&mut state, item);
            }
            Vec::<()>::new()
        });
    }
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    /// Evaluates the map in parallel and collects results in input
    /// order.
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        chunked_run(self.items, |chunk| chunk.iter().map(&self.f).collect())
            .into_iter()
            .flatten()
            .collect()
    }
}

/// `use rayon::prelude::*;` surface.
pub mod prelude {
    pub use super::IntoParallelRefIterator;
}

/// Types with a `.par_iter()` borrowing parallel iterator.
pub trait IntoParallelRefIterator<'data> {
    /// Element type yielded by reference.
    type Item: Sync + 'data;

    /// A parallel iterator over `&self`.
    fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = T;
    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = T;
    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn broadcast_runs_all_ranks_concurrently() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(pool.current_num_threads(), 4);
        // A hand-rolled barrier: only passes if all 4 closures are live
        // at the same time.
        let arrived = AtomicUsize::new(0);
        let ranks = pool.broadcast(|ctx| {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
            ctx.index()
        });
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pools_of_equal_width_share_one_team() {
        let a = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let b = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert!(std::sync::Arc::ptr_eq(a.team(), b.team()));
        assert_eq!(
            b.team().threads_spawned(),
            2,
            "second pool of the same width must not spawn threads"
        );
    }

    #[test]
    fn par_map_collect_preserves_order() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let input: Vec<usize> = (0..100).collect();
        let out: Vec<usize> = pool.install(|| input.par_iter().map(|&x| x * 2).collect());
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_without_install_still_covers_everything() {
        let input: Vec<usize> = (0..37).collect();
        let out: Vec<usize> = input.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, (1..38).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_init_covers_every_item_once() {
        let input: Vec<usize> = (0..257).collect();
        let seen = Mutex::new(Vec::new());
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            input
                .par_iter()
                .for_each_init(Vec::new, |acc: &mut Vec<usize>, &x| {
                    acc.push(x);
                    seen.lock().unwrap().push(x);
                })
        });
        let got: HashSet<usize> = seen.lock().unwrap().iter().copied().collect();
        assert_eq!(got.len(), 257);
        assert_eq!(seen.lock().unwrap().len(), 257);
    }

    #[test]
    fn install_restores_team_after_panic() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| panic!("boom"))
        }));
        assert!(caught.is_err());
        assert!(
            INSTALLED.with(|c| c.borrow().is_none()),
            "installed team leaked past a panic"
        );
    }

    #[test]
    fn install_restores_previous_team() {
        let outer = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        let width = || INSTALLED.with(|c| c.borrow().as_ref().map(|t| t.width()));
        outer.install(|| {
            assert_eq!(width(), Some(2));
            inner.install(|| assert_eq!(width(), Some(5)));
            assert_eq!(width(), Some(2));
        });
        assert_eq!(width(), None);
    }
}
