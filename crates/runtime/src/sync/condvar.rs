//! A model-checked condition variable.

use std::fmt;

use crate::engine::with_current;
use crate::op::PendingOp;
use crate::sync::{Mutex, MutexGuard};

/// A condition variable with Win32/Rust semantics: notifications are
/// lost if nobody is waiting, and `wait` never wakes spuriously at the
/// default `fault_bound: 0` (the model checker explores real
/// nondeterminism through schedules instead). Under a fault bound the
/// wait is a designated fallible operation: the scheduler may inject a
/// spurious wakeup that consumes no notification, so — exactly as on
/// real hardware — callers must re-check their predicate in a loop.
///
/// # Examples
///
/// ```
/// use icb_core::search::Search;
/// use icb_runtime::{RuntimeProgram, sync::{Mutex, Condvar}, thread};
/// use std::sync::Arc;
///
/// let program = RuntimeProgram::new(|| {
///     let pair = Arc::new((Mutex::new(false), Condvar::new()));
///     let t = {
///         let pair = Arc::clone(&pair);
///         thread::spawn(move || {
///             let (lock, cv) = &*pair;
///             let mut ready = lock.lock();
///             *ready = true;
///             cv.notify_one();
///         })
///     };
///     let (lock, cv) = &*pair;
///     let mut ready = lock.lock();
///     while !*ready {
///         ready = cv.wait(ready);
///     }
///     drop(ready);
///     t.join();
/// });
/// let report = Search::over(&program).run().unwrap();
/// assert!(report.completed && report.bugs.is_empty());
/// ```
pub struct Condvar {
    cv_id: usize,
    sync_id: usize,
}

impl Condvar {
    /// Creates a condition variable.
    ///
    /// # Panics
    ///
    /// Panics if called outside a running execution.
    pub fn new() -> Self {
        let (cv_id, sync_id) = with_current(|exec, _| exec.register_condvar());
        Condvar { cv_id, sync_id }
    }

    /// Atomically releases the guarded lock and waits for a
    /// notification, reacquiring the lock before returning.
    ///
    /// This is two scheduling points (release-and-enqueue, then
    /// wake-and-reacquire) — exactly the window in which classic
    /// missed-signal bugs live.
    ///
    /// # Panics
    ///
    /// Panics if the calling task does not hold `guard`'s mutex (it
    /// always does if the guard came from [`Mutex::lock`]).
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let mutex: &'a Mutex<T> = MutexGuard::mutex(&guard);
        with_current(|exec, tid| {
            assert!(
                exec.lock_held_by(mutex.lock_id, tid),
                "Condvar::wait requires the caller to hold the mutex"
            );
            // The guard must not run its Drop (a Release point): the wait
            // operation releases the lock itself, atomically with
            // enqueueing.
            std::mem::forget(guard);
            exec.sched_point(
                tid,
                PendingOp::CondWait {
                    cv: self.cv_id,
                    cv_sync: self.sync_id,
                    lock: mutex.lock_id,
                    lock_sync: mutex.sync_id,
                },
            );
            exec.sched_point(
                tid,
                PendingOp::CondReacquire {
                    cv: self.cv_id,
                    cv_sync: self.sync_id,
                    lock: mutex.lock_id,
                    lock_sync: mutex.sync_id,
                },
            );
        });
        MutexGuard::renew(mutex)
    }

    /// Wakes one waiter (the longest-waiting unsignaled one). Lost if no
    /// task is waiting.
    pub fn notify_one(&self) {
        with_current(|exec, tid| {
            exec.sched_point(
                tid,
                PendingOp::Notify {
                    cv: self.cv_id,
                    cv_sync: self.sync_id,
                    all: false,
                },
            );
        });
    }

    /// Wakes all current waiters.
    pub fn notify_all(&self) {
        with_current(|exec, tid| {
            exec.sched_point(
                tid,
                PendingOp::Notify {
                    cv: self.cv_id,
                    cv_sync: self.sync_id,
                    all: true,
                },
            );
        });
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").field("id", &self.cv_id).finish()
    }
}
