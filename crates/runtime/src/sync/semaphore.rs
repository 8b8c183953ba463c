//! A model-checked counting semaphore.

use std::fmt;

use crate::engine::with_current;
use crate::op::PendingOp;

/// A counting semaphore (Win32 `CreateSemaphore` analog).
///
/// [`acquire`](Semaphore::acquire) (P) blocks while the count is zero;
/// [`release`](Semaphore::release) (V) increments it. Both are
/// scheduling points.
///
/// # Examples
///
/// ```
/// use icb_core::search::Search;
/// use icb_runtime::{RuntimeProgram, sync::Semaphore, thread};
/// use std::sync::Arc;
///
/// let program = RuntimeProgram::new(|| {
///     let sem = Arc::new(Semaphore::new(0));
///     let t = {
///         let sem = Arc::clone(&sem);
///         thread::spawn(move || sem.release())
///     };
///     sem.acquire(); // waits for the child's release
///     t.join();
/// });
/// let report = Search::over(&program).run().unwrap();
/// assert!(report.completed && report.bugs.is_empty());
/// ```
pub struct Semaphore {
    sem_id: usize,
    sync_id: usize,
}

impl Semaphore {
    /// Creates a semaphore with the given initial count.
    ///
    /// # Panics
    ///
    /// Panics if called outside a running execution.
    pub fn new(initial: usize) -> Self {
        let (sem_id, sync_id) = with_current(|exec, _| exec.register_sem(initial));
        Semaphore { sem_id, sync_id }
    }

    /// Decrements the count, blocking (in model time) while it is zero.
    pub fn acquire(&self) {
        with_current(|exec, tid| {
            exec.sched_point(
                tid,
                PendingOp::SemAcquire {
                    sem: self.sem_id,
                    sync: self.sync_id,
                },
            );
        });
    }

    /// Increments the count, potentially enabling a blocked acquirer.
    pub fn release(&self) {
        with_current(|exec, tid| {
            exec.sched_point(
                tid,
                PendingOp::SemRelease {
                    sem: self.sem_id,
                    sync: self.sync_id,
                },
            );
        });
    }
}

impl fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Semaphore")
            .field("id", &self.sem_id)
            .finish()
    }
}
