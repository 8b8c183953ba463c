//! Data variables: shared memory that is race-checked but — under the
//! sound reduction of Section 3.1 — not a scheduling point.
//!
//! The paper's CHESS dynamically partitions program variables into
//! synchronization variables and data variables. Programs written against
//! this runtime make the partition explicit in the types: everything in
//! [`crate::sync`] is a synchronization variable, and shared plain memory
//! lives in a [`DataVar`]. Every access is checked against the
//! happens-before relation; an unordered pair of conflicting accesses is
//! a data race and fails the execution (making the reduced search sound,
//! Theorems 2 and 3).

use std::cell::UnsafeCell;

use icb_race::AccessKind;

use crate::engine::with_current;

/// A shared data variable holding a `T`.
///
/// Reads and writes are checked for data races. In the default
/// configuration they are *not* scheduling points — the scheduler only
/// interleaves at synchronization operations; with
/// [`RuntimeConfig::preempt_data_vars`](crate::RuntimeConfig) every
/// access becomes a scheduling point too.
///
/// # Examples
///
/// ```
/// use icb_core::search::Search;
/// use icb_runtime::{RuntimeProgram, DataVar, sync::Mutex, thread};
/// use std::sync::Arc;
///
/// // x is always written under the lock: no race, nothing to report.
/// let program = RuntimeProgram::new(|| {
///     let lock = Arc::new(Mutex::new(()));
///     let x = Arc::new(DataVar::new(0u32));
///     let t = {
///         let (lock, x) = (Arc::clone(&lock), Arc::clone(&x));
///         thread::spawn(move || {
///             let _g = lock.lock();
///             x.write(1);
///         })
///     };
///     {
///         let _g = lock.lock();
///         x.write(2);
///     }
///     t.join();
/// });
/// let report = Search::over(&program).run().unwrap();
/// assert!(report.bugs.is_empty());
/// ```
#[derive(Debug)]
pub struct DataVar<T> {
    cell: UnsafeCell<T>,
    var: usize,
}

// SAFETY: the runtime guarantees at most one task of the program under
// test executes at any time (baton scheduling), so all accesses to the
// cell are serialized; the race detector additionally validates that the
// accesses are ordered by happens-before in the program's own semantics.
unsafe impl<T: Send> Sync for DataVar<T> {}
unsafe impl<T: Send> Send for DataVar<T> {}

impl<T> DataVar<T> {
    /// Creates a data variable.
    ///
    /// # Panics
    ///
    /// Panics if called outside a running execution.
    pub fn new(value: T) -> Self {
        let var = with_current(|exec, _| exec.register_data(None));
        DataVar {
            cell: UnsafeCell::new(value),
            var,
        }
    }

    /// Creates a named data variable; the name appears in race reports.
    pub fn named(name: &str, value: T) -> Self {
        let var = with_current(|exec, _| exec.register_data(Some(name.to_string())));
        DataVar {
            cell: UnsafeCell::new(value),
            var,
        }
    }

    fn check(&self, kind: AccessKind) {
        with_current(|exec, tid| exec.data_access(tid, self.var, kind));
    }

    /// Reads the value.
    pub fn read(&self) -> T
    where
        T: Copy,
    {
        self.check(AccessKind::Read);
        // SAFETY: see the Sync impl — accesses are serialized.
        unsafe { *self.cell.get() }
    }

    /// Writes the value.
    pub fn write(&self, value: T) {
        self.check(AccessKind::Write);
        // SAFETY: see the Sync impl.
        unsafe { *self.cell.get() = value }
    }

    /// Applies `f` to a shared reference of the value (counts as a read).
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.check(AccessKind::Read);
        // SAFETY: see the Sync impl.
        f(unsafe { &*self.cell.get() })
    }

    /// Applies `f` to an exclusive reference of the value (counts as a
    /// write).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.check(AccessKind::Write);
        // SAFETY: see the Sync impl.
        f(unsafe { &mut *self.cell.get() })
    }
}
