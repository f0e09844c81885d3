//! Race-checked unsynchronized storage.
//!
//! [`ValueCell`] is the model stand-in for an `UnsafeCell<Option<T>>`
//! payload handed between threads: plain non-atomic storage whose accesses are
//! checked against the happens-before relation instead of being
//! schedule points. Every write records the writer's vector clock;
//! every read records the reader's. An access races with a prior one
//! iff the prior clock is not ≤ the current thread's clock — exactly
//! the condition under which the real `UnsafeCell` access would be UB.
//! Detection needs no simultaneity: even in a fully sequential
//! interleaving, a write that was not *ordered* before a read (by a
//! release/acquire pair, a mutex, a join, ...) is flagged.

use crate::clock::Clock;
use crate::exec::{ctx, FailureKind};
use std::cell::UnsafeCell;
use std::sync::Mutex as StdMutex;

struct CellState {
    last_write: Option<(usize, Clock)>,
    reads: Vec<(usize, Clock)>,
}

/// Non-atomic `Option<T>` storage with vector-clock race detection.
pub struct ValueCell<T> {
    value: UnsafeCell<Option<T>>,
    state: StdMutex<CellState>,
}

// SAFETY: the race checker aborts the execution on any pair of
// accesses not ordered by happens-before, so accesses that *do*
// proceed are data-race-free by construction; `T: Send` moves the
// value between threads along those edges.
unsafe impl<T: Send> Sync for ValueCell<T> {}

impl<T> Default for ValueCell<T> {
    fn default() -> ValueCell<T> {
        ValueCell::new()
    }
}

impl<T> ValueCell<T> {
    /// Creates an empty cell.
    pub fn new() -> ValueCell<T> {
        ValueCell {
            value: UnsafeCell::new(None),
            state: StdMutex::new(CellState {
                last_write: None,
                reads: Vec::new(),
            }),
        }
    }

    /// Stores `Some(value)`, checking for write-write and read-write
    /// races against every access not ordered before this one.
    ///
    /// # Safety
    ///
    /// Caller asserts exclusive logical ownership of the cell for this
    /// write (the same contract as writing the real `UnsafeCell`); the
    /// checker verifies the assertion and aborts the execution with a
    /// [`FailureKind::DataRace`] if it is wrong.
    pub unsafe fn set(&self, value: T) {
        let c = ctx();
        let my = c.exec.clock_of(c.tid);
        let race = {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            let conflict = st
                .last_write
                .as_ref()
                .filter(|(_, w)| !w.le(&my))
                .map(|(t, _)| (*t, "write"))
                .or_else(|| {
                    st.reads
                        .iter()
                        .find(|(_, r)| !r.le(&my))
                        .map(|(t, _)| (*t, "read"))
                });
            if conflict.is_none() {
                st.last_write = Some((c.tid, my.clone()));
                st.reads.clear();
            }
            conflict
        };
        if let Some((prior_thread, prior_access)) = race {
            c.exec.fail_now(FailureKind::DataRace {
                current_thread: c.tid,
                current_access: "write",
                prior_thread,
                prior_access,
            });
        }
        // Checked: no unordered access exists, so this write is
        // exclusive along happens-before.
        unsafe { *self.value.get() = Some(value) };
    }

    /// Reads the cell, checking that the last write (if any) is
    /// ordered before this read.
    ///
    /// # Safety
    ///
    /// Caller asserts no concurrent writer exists (the contract of
    /// reading the real `UnsafeCell`); the checker verifies it and
    /// aborts with a [`FailureKind::DataRace`] if violated.
    pub unsafe fn get_ref(&self) -> Option<&T> {
        let c = ctx();
        let my = c.exec.clock_of(c.tid);
        let race = {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            let conflict = st
                .last_write
                .as_ref()
                .filter(|(_, w)| !w.le(&my))
                .map(|(t, _)| *t);
            if conflict.is_none() {
                st.reads.push((c.tid, my));
            }
            conflict
        };
        if let Some(prior_thread) = race {
            c.exec.fail_now(FailureKind::DataRace {
                current_thread: c.tid,
                current_access: "read",
                prior_thread,
                prior_access: "write",
            });
        }
        // Checked: the last write happens-before this read.
        unsafe { (*self.value.get()).as_ref() }
    }

    /// Consumes the cell, returning the value (no race check needed:
    /// ownership proves exclusivity).
    pub fn into_inner(self) -> Option<T> {
        self.value.into_inner()
    }
}
