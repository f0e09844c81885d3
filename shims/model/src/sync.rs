//! Model replacements for `std::sync` primitives.
//!
//! Same signatures as the std types (so `cfg(basker_model)` can swap
//! them in with a `use` line), but every operation is a schedule point
//! under the explorer, and every operation maintains the
//! happens-before relation the real primitive would establish:
//!
//! - **Atomics** keep a per-location *release clock*. A `Release`
//!   store snapshots the writer's vector clock into it; an `Acquire`
//!   load joins it into the reader's clock; a `Relaxed` store clears
//!   it (a relaxed write publishes nothing); a read-modify-write
//!   continues the release sequence (a relaxed RMW leaves the release
//!   clock in place, so a later acquire still synchronizes with the
//!   original releasing store).
//! - **`SeqCst` is modeled as `AcqRel`.** The model gives all atomics
//!   sequentially-consistent *value* semantics (one thread runs at a
//!   time), so the extra total-order guarantee of real `SeqCst` is
//!   vacuous here; what the checker verifies is the happens-before
//!   structure, which is exactly the Acquire/Release content. This is
//!   the documented simplification that lets the ordering audit
//!   downgrade `SeqCst` uses the model proves only need
//!   acquire/release edges.
//! - **`Mutex`/`Condvar`** block through the scheduler, so a wait
//!   with no matching notify is reported as a deadlock (lost wakeup)
//!   instead of hanging the test. There are no spurious wakeups: if a
//!   protocol only works because real condvars happen to wake up
//!   spuriously, the model calls it lost.
//!
//! Poisoning is not modeled: `lock()`/`wait()` return `Ok` always, so
//! production `lock().unwrap()` call sites compile unchanged.

use crate::clock::Clock;
use crate::exec::{ctx, next_object_id, Ctx};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use std::sync::Mutex as StdMutex;

// ORDER: the predicates below classify the *user's requested*
// ordering: SeqCst maps onto AcqRel edges (the documented modeling
// simplification — value semantics are already sequentially consistent
// because one model thread runs at a time). Every `Ordering::Relaxed`
// handed to a *host* atomic in this file is deliberate: the host
// atomics are storage only, serialized by the scheduler mutex;
// happens-before is modeled by the vector clocks, not host orderings.
fn acquires(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

// ORDER: classification predicate — see the header note above.
fn releases(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn rel_lock(rel: &StdMutex<Clock>) -> std::sync::MutexGuard<'_, Clock> {
    rel.lock().unwrap_or_else(|e| e.into_inner())
}

macro_rules! model_atomic {
    ($(#[$meta:meta])* $name:ident, $std:ident, $prim:ty) => {
        $(#[$meta])*
        pub struct $name {
            v: std::sync::atomic::$std,
            rel: StdMutex<Clock>,
        }

        impl $name {
            /// Creates the atomic (const, like the std type).
            pub const fn new(v: $prim) -> $name {
                $name {
                    v: std::sync::atomic::$std::new(v),
                    rel: StdMutex::new(Clock::new()),
                }
            }

            fn on_load(&self, c: &Ctx, order: Ordering) {
                if acquires(order) {
                    let rel = rel_lock(&self.rel).clone();
                    c.exec.join_clock(c.tid, &rel);
                }
            }

            fn on_store(&self, c: &Ctx, order: Ordering) {
                let mut rel = rel_lock(&self.rel);
                if releases(order) {
                    *rel = c.exec.clock_of(c.tid);
                } else {
                    // A relaxed store breaks the release sequence: a
                    // later acquire of this value synchronizes with
                    // nothing.
                    rel.clear();
                }
            }

            fn on_rmw(&self, c: &Ctx, order: Ordering) {
                if acquires(order) {
                    let rel = rel_lock(&self.rel).clone();
                    c.exec.join_clock(c.tid, &rel);
                }
                if releases(order) {
                    // RMWs continue the release sequence: merge rather
                    // than replace, so readers that acquire after a
                    // relaxed RMW still see the original release.
                    let mine = c.exec.clock_of(c.tid);
                    rel_lock(&self.rel).join(&mine);
                }
                // A fully relaxed RMW leaves the release clock intact
                // (release-sequence rule).
            }

            /// Schedule point + value load + acquire edge if ordered.
            pub fn load(&self, order: Ordering) -> $prim {
                let c = ctx();
                c.exec.point(c.tid);
                // ORDER: Relaxed — storage only (see header).
                let v = self.v.load(Ordering::Relaxed);
                self.on_load(&c, order);
                v
            }

            /// Schedule point + value store + release edge if ordered.
            pub fn store(&self, val: $prim, order: Ordering) {
                let c = ctx();
                c.exec.point(c.tid);
                self.on_store(&c, order);
                // ORDER: Relaxed — storage only (see header).
                self.v.store(val, Ordering::Relaxed);
            }

            /// Schedule point + atomic swap.
            pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                let c = ctx();
                c.exec.point(c.tid);
                self.on_rmw(&c, order);
                // ORDER: Relaxed — storage only (see header).
                self.v.swap(val, Ordering::Relaxed)
            }

            /// Schedule point + atomic add, returning the old value.
            pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                let c = ctx();
                c.exec.point(c.tid);
                self.on_rmw(&c, order);
                // ORDER: Relaxed — storage only (see header).
                self.v.fetch_add(val, Ordering::Relaxed)
            }

            /// Schedule point + atomic subtract, returning the old value.
            pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                let c = ctx();
                c.exec.point(c.tid);
                self.on_rmw(&c, order);
                // ORDER: Relaxed — storage only (see header).
                self.v.fetch_sub(val, Ordering::Relaxed)
            }

            /// Schedule point + compare-exchange. Success applies the
            /// RMW edges for `success`; failure applies the load edge
            /// for `failure`.
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                let c = ctx();
                c.exec.point(c.tid);
                // ORDER: Relaxed ×2 — storage only (see header).
                let r = self
                    .v
                    .compare_exchange(current, new, Ordering::Relaxed, Ordering::Relaxed);
                match r {
                    Ok(_) => self.on_rmw(&c, success),
                    Err(_) => self.on_load(&c, failure),
                }
                r
            }

            /// Identical to [`compare_exchange`](Self::compare_exchange):
            /// the model never fails spuriously (one thread runs at a
            /// time), which only makes the explored set a superset of
            /// weak-CAS behaviors' success paths.
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.compare_exchange(current, new, success, failure)
            }

            /// Plain read, no schedule point (for post-execution
            /// assertions on the final state).
            pub fn into_inner(self) -> $prim {
                self.v.into_inner()
            }
        }
    };
}

model_atomic!(
    /// Model stand-in for `std::sync::atomic::AtomicU8`.
    AtomicU8,
    AtomicU8,
    u8
);
model_atomic!(
    /// Model stand-in for `std::sync::atomic::AtomicU64`.
    AtomicU64,
    AtomicU64,
    u64
);
model_atomic!(
    /// Model stand-in for `std::sync::atomic::AtomicUsize`.
    AtomicUsize,
    AtomicUsize,
    usize
);

/// Model stand-in for `std::sync::atomic::AtomicBool` (no arithmetic
/// RMWs; `swap`/`compare_exchange` come from the shared shape).
pub struct AtomicBool {
    v: std::sync::atomic::AtomicBool,
    rel: StdMutex<Clock>,
}

impl AtomicBool {
    /// Creates the atomic (const, like the std type).
    pub const fn new(v: bool) -> AtomicBool {
        AtomicBool {
            v: std::sync::atomic::AtomicBool::new(v),
            rel: StdMutex::new(Clock::new()),
        }
    }

    /// Schedule point + value load + acquire edge if ordered.
    pub fn load(&self, order: Ordering) -> bool {
        let c = ctx();
        c.exec.point(c.tid);
        // ORDER: Relaxed — storage only (see header).
        let v = self.v.load(Ordering::Relaxed);
        if acquires(order) {
            let rel = rel_lock(&self.rel).clone();
            c.exec.join_clock(c.tid, &rel);
        }
        v
    }

    /// Schedule point + value store + release edge if ordered.
    pub fn store(&self, val: bool, order: Ordering) {
        let c = ctx();
        c.exec.point(c.tid);
        {
            let mut rel = rel_lock(&self.rel);
            if releases(order) {
                *rel = c.exec.clock_of(c.tid);
            } else {
                rel.clear();
            }
        }
        // ORDER: Relaxed — storage only (see header).
        self.v.store(val, Ordering::Relaxed);
    }

    /// Schedule point + atomic swap.
    pub fn swap(&self, val: bool, order: Ordering) -> bool {
        let c = ctx();
        c.exec.point(c.tid);
        if acquires(order) {
            let rel = rel_lock(&self.rel).clone();
            c.exec.join_clock(c.tid, &rel);
        }
        if releases(order) {
            let mine = c.exec.clock_of(c.tid);
            rel_lock(&self.rel).join(&mine);
        }
        // ORDER: Relaxed — storage only (see header).
        self.v.swap(val, Ordering::Relaxed)
    }
}

/// Model mutex: blocking goes through the scheduler, acquire/release
/// carry happens-before edges, poisoning is not modeled (`lock`
/// always returns `Ok`).
pub struct Mutex<T: ?Sized> {
    id: u64,
    locked: std::sync::atomic::AtomicBool,
    rel: StdMutex<Clock>,
    data: UnsafeCell<T>,
}

// SAFETY: the scheduler runs exactly one model thread at a time and
// the `locked` flag gives the usual mutual exclusion on top, so `&T`
// / `&mut T` handed out by the guard are never aliased across
// threads; `T: Send` is required to move the value between them.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}
// SAFETY: sending the mutex moves the owned `T` with it.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}

/// Guard for a locked model [`Mutex`]; unlocking on drop is *not* a
/// schedule point (matching std, where unlock has no blocking
/// behavior), and is abort-safe so it can run during execution
/// teardown unwinding.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates the mutex.
    pub fn new(data: T) -> Mutex<T> {
        Mutex {
            id: next_object_id(),
            locked: std::sync::atomic::AtomicBool::new(false),
            rel: StdMutex::new(Clock::new()),
            data: UnsafeCell::new(data),
        }
    }

    /// Consumes the mutex, returning the data (no schedule point).
    pub fn into_inner(self) -> Result<T, std::convert::Infallible> {
        Ok(self.data.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking through the scheduler if held.
    /// The `Result` mirrors std's poison signature so production
    /// `lock().unwrap()` sites compile unchanged; it is always `Ok`.
    #[allow(clippy::result_unit_err)]
    pub fn lock(&self) -> Result<MutexGuard<'_, T>, ()> {
        let c = ctx();
        c.exec.point(c.tid);
        loop {
            // ORDER: Relaxed — the flag is storage; lock ordering is
            // modeled by the clock join below and the scheduler.
            if !self.locked.swap(true, std::sync::atomic::Ordering::Relaxed) {
                let rel = rel_lock(&self.rel).clone();
                c.exec.join_clock(c.tid, &rel);
                return Ok(MutexGuard { lock: self });
            }
            c.exec.block_on_mutex(c.tid, self.id);
        }
    }

    /// Releases the raw lock: publish the holder's clock, clear the
    /// flag, wake scheduler-blocked waiters. Shared by guard drop and
    /// `Condvar::wait`'s unlock half. Never panics (may run while
    /// unwinding an aborted execution).
    fn raw_unlock(&self, c: &Ctx) {
        *rel_lock(&self.rel) = c.exec.clock_of(c.tid);
        // ORDER: Relaxed — storage; the release clock above carries
        // the happens-before edge.
        self.locked
            .store(false, std::sync::atomic::Ordering::Relaxed);
        c.exec.wake_mutex_waiters(self.id);
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves this thread holds the lock, so no
        // other model thread can alias the data.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — exclusive by lock ownership.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        let c = ctx();
        self.lock.raw_unlock(&c);
    }
}

/// Model condvar. No spurious wakeups: a wait that no notify ever
/// reaches is reported as a deadlock (that *is* the lost-wakeup bug
/// class this exists to catch).
pub struct Condvar {
    id: u64,
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl Condvar {
    /// Creates the condvar.
    pub fn new() -> Condvar {
        Condvar {
            id: next_object_id(),
        }
    }

    /// Atomically releases the guard's mutex and parks until
    /// notified, then re-acquires before returning. Always `Ok`
    /// (poisoning is not modeled).
    #[allow(clippy::result_unit_err)]
    pub fn wait<'a, T: ?Sized>(&self, guard: MutexGuard<'a, T>) -> Result<MutexGuard<'a, T>, ()> {
        let c = ctx();
        let mutex = guard.lock;
        c.exec.point(c.tid);
        // Unlock-and-block is atomic with respect to other model
        // threads: none can run between these calls because this
        // thread stays active until `block_on_cond` hands off.
        mutex.raw_unlock(&c);
        std::mem::forget(guard);
        c.exec.block_on_cond(c.tid, self.id);
        // Notified (the notifier's clock was joined into ours by the
        // scheduler); re-acquire the mutex.
        loop {
            // ORDER: Relaxed — storage; see `Mutex::lock`.
            if !mutex
                .locked
                .swap(true, std::sync::atomic::Ordering::Relaxed)
            {
                let rel = rel_lock(&mutex.rel).clone();
                c.exec.join_clock(c.tid, &rel);
                return Ok(MutexGuard { lock: mutex });
            }
            c.exec.block_on_mutex(c.tid, mutex.id);
        }
    }

    /// Wakes one parked waiter (lowest thread id — deterministic).
    pub fn notify_one(&self) {
        let c = ctx();
        c.exec.point(c.tid);
        c.exec.notify_cond(c.tid, self.id, false);
    }

    /// Wakes every parked waiter.
    pub fn notify_all(&self) {
        let c = ctx();
        c.exec.point(c.tid);
        c.exec.notify_cond(c.tid, self.id, true);
    }
}
