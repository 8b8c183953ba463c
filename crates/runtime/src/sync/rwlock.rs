//! A model-checked reader–writer lock.
//!
//! Built on the same model-level resources as [`Mutex`](crate::sync::Mutex):
//! the read side is a shared-count gate, the write side exclusive.
//! Writer-preference is deliberate (matching Win32 SRW behavior closely
//! enough for testing purposes): a waiting writer blocks new readers
//! from acquiring — this is what makes reader/writer starvation bugs
//! reproducible under the model checker.

use std::cell::UnsafeCell;
use std::fmt;

use crate::engine::{try_with_current, with_current};
use crate::op::PendingOp;

/// A readers–writer lock under model-checker control.
///
/// # Examples
///
/// ```
/// use icb_core::search::Search;
/// use icb_runtime::{RuntimeProgram, sync::RwLock, thread};
/// use std::sync::Arc;
///
/// let program = RuntimeProgram::new(|| {
///     let table = Arc::new(RwLock::new(vec![1, 2, 3]));
///     let readers: Vec<_> = (0..2).map(|_| {
///         let table = Arc::clone(&table);
///         thread::spawn(move || {
///             let snapshot = table.read();
///             assert!(snapshot.len() >= 3);
///         })
///     }).collect();
///     {
///         let mut t = table.write();
///         t.push(4);
///     }
///     for r in readers { r.join(); }
/// });
/// let report = Search::over(&program).run().unwrap();
/// assert!(report.completed && report.bugs.is_empty());
/// ```
pub struct RwLock<T> {
    rw_id: usize,
    sync_id: usize,
    data: UnsafeCell<T>,
}

// SAFETY: the model enforces the reader/writer protocol (shared readers
// XOR one writer), and at most one task executes at any instant.
unsafe impl<T: Send + Sync> Sync for RwLock<T> {}
unsafe impl<T: Send> Send for RwLock<T> {}

impl<T> RwLock<T> {
    /// Creates a reader–writer lock holding `data`.
    ///
    /// # Panics
    ///
    /// Panics if called outside a running execution.
    pub fn new(data: T) -> Self {
        let (rw_id, sync_id) = with_current(|exec, _| exec.register_rwlock());
        RwLock {
            rw_id,
            sync_id,
            data: UnsafeCell::new(data),
        }
    }

    /// Acquires shared read access; blocks (in model time) while a
    /// writer holds or awaits the lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        with_current(|exec, tid| {
            exec.sched_point(
                tid,
                PendingOp::RwAcquire {
                    rw: self.rw_id,
                    sync: self.sync_id,
                    write: false,
                },
            );
        });
        RwLockReadGuard { lock: self }
    }

    /// Acquires exclusive write access; blocks while any reader or
    /// writer holds the lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        with_current(|exec, tid| {
            exec.sched_point(
                tid,
                PendingOp::RwAcquire {
                    rw: self.rw_id,
                    sync: self.sync_id,
                    write: true,
                },
            );
        });
        RwLockWriteGuard { lock: self }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    fn release(&self, write: bool) {
        let _ = try_with_current(|exec, tid| {
            exec.sched_point(
                tid,
                PendingOp::RwRelease {
                    rw: self.rw_id,
                    sync: self.sync_id,
                    write,
                },
            );
        });
    }
}

impl<T> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").field("id", &self.rw_id).finish()
    }
}

/// Shared read guard; releases on drop.
pub struct RwLockReadGuard<'a, T> {
    lock: &'a RwLock<T>,
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: readers hold shared model-level access; no writer can
        // run concurrently.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.release(false);
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("RwLockReadGuard").field(&**self).finish()
    }
}

/// Exclusive write guard; releases on drop.
pub struct RwLockWriteGuard<'a, T> {
    lock: &'a RwLock<T>,
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the writer holds exclusive model-level access.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as for Deref, plus the guard is unique.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.release(true);
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("RwLockWriteGuard").field(&**self).finish()
    }
}
