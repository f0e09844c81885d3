//! `basker_model` — deterministic interleaving model checker for the
//! lock-free sync core.
//!
//! A dependency-free, in-tree analogue of `loom`: run a closure that
//! exercises a concurrency protocol on *model* primitives
//! ([`sync::AtomicU8`], [`sync::Mutex`], [`cell::ValueCell`],
//! [`thread::spawn`], ...) under [`check`], and the explorer executes
//! it once per distinct interleaving of those primitives' operations,
//! depth-first over the schedule tree, until the tree is exhausted or
//! a failure surfaces:
//!
//! - **data race** — two `ValueCell` accesses with no happens-before
//!   edge between them (vector-clock criterion; this is what the real
//!   `UnsafeCell` code would call UB),
//! - **deadlock / lost wakeup** — unfinished threads, none runnable,
//! - **livelock** — a spin loop no peer can release (step budget),
//! - **panic** — an assertion failure escaping the root closure.
//!
//! On failure the scheduler prints a **seed** (the decision sequence,
//! e.g. `1.0.2`) that [`replay`] turns back into the exact failing
//! execution — attach a debugger, add prints, it's deterministic.
//!
//! How this differs from real hardware is deliberate and documented in
//! [`sync`]: values are sequentially consistent (store buffering /
//! load reordering are not simulated) and `SeqCst` is modeled as
//! `AcqRel`; what *is* modeled precisely is the happens-before
//! structure of Acquire/Release/Relaxed — which is exactly what the
//! `TaskCore` completion/latch protocol relies on, and exactly what a
//! wrong `Ordering` breaks. A protocol that passes here is race-free in
//! its synchronization skeleton; the orderings it uses are thereby
//! *proven sufficient* against the explored schedules (see the
//! `model_checks` of `basker_runtime`'s task module).
//!
//! The production crates swap onto these primitives under
//! `--cfg basker_model` (never in a normal build); this crate itself
//! builds and tests everywhere.
//!
//! ```
//! use basker_model as model;
//! use std::sync::atomic::Ordering;
//! use std::sync::Arc;
//!
//! let outcome = model::check(model::Config::default(), || {
//!     let flag = Arc::new(model::sync::AtomicU8::new(0));
//!     let cell = Arc::new(model::cell::ValueCell::new());
//!     let (f2, c2) = (flag.clone(), cell.clone());
//!     let producer = model::thread::spawn(move || {
//!         // SAFETY: single producer; the Release store below orders
//!         // this write before any reader that Acquire-loads the flag.
//!         unsafe { c2.set(42u32) };
//!         f2.store(1, Ordering::Release);
//!     });
//!     while flag.load(Ordering::Acquire) == 0 {
//!         model::thread::yield_now();
//!     }
//!     // SAFETY: the Acquire load observed the Release store, so the
//!     // producer's write happens-before this read.
//!     assert_eq!(unsafe { cell.get_ref() }, Some(&42));
//!     producer.join().unwrap();
//! });
//! assert!(outcome.is_pass());
//! ```

mod clock;
mod exec;

pub mod cell;
pub mod sync;
pub mod thread;

pub use exec::{check, replay, Config, FailureKind, FailureReport, Outcome, Schedule};
