//! A tiny reusable worker-thread pool.
//!
//! Every task of every execution runs on an OS thread, and systematic
//! searches perform tens of thousands of executions; spawning fresh
//! threads each time would dominate the cost. Workers idle in a
//! process-global pool and are handed one job (one task lifetime) at a
//! time.
//!
//! An idle worker owns a one-job slot. [`run_on_worker`] pops the most
//! recently idled worker (LIFO, so the warmest thread and the fewest
//! distinct threads get the work), fills its slot and unparks it. The
//! idle worker waits for its slot in the yield and park tiers of
//! [`wait`](crate::wait) but never spins: a worker that spins while the
//! engine's controller and running task want both cores slows every
//! handoff. A job launched within the yield tier therefore costs no
//! futex wake. The worker re-checks its slot under the slot's lock after
//! every wakeup, so stray unpark tokens (the engine leaves some on
//! pooled threads) start nothing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, Thread};

use crate::wait;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The process-global pool every task runs on.
static POOL: Pool = Pool::new();

/// A set of worker threads that idle between jobs.
struct Pool {
    /// Idle workers, most recently idled last.
    idle: Mutex<Vec<Arc<Worker>>>,
    /// Workers spawned over the pool's lifetime.
    spawned: AtomicUsize,
}

/// An idle worker's handle, shared between the worker and the pool.
struct Worker {
    thread: Thread,
    /// The job handed to the worker while it idles.
    slot: Mutex<Option<Job>>,
    /// Whether `slot` holds a job: a lock-free mirror for the wait. Set
    /// (Release) after the slot is filled and read (Acquire) by the
    /// waiting worker, which then takes the job under the slot's lock.
    filled: AtomicBool,
}

/// Runs `job` on a pooled worker thread (spawning a new worker if the
/// pool is empty). The worker returns itself to the pool when the job
/// finishes, even if it panics.
pub(crate) fn run_on_worker(job: Job) {
    POOL.run(job);
}

impl Pool {
    const fn new() -> Self {
        Pool {
            idle: Mutex::new(Vec::new()),
            spawned: AtomicUsize::new(0),
        }
    }

    fn idle(&self) -> MutexGuard<'_, Vec<Arc<Worker>>> {
        // Every update of the list is a single push or pop, so a guard
        // recovered after a panic still sees a valid list.
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn run(&'static self, job: Job) {
        let Some(worker) = self.idle().pop() else {
            return self.spawn(job);
        };
        *worker.slot() = Some(job);
        worker.filled.store(true, Ordering::Release);
        worker.thread.unpark();
    }

    fn spawn(&'static self, first: Job) {
        self.spawned.fetch_add(1, Ordering::Relaxed);
        thread::Builder::new()
            .name("icb-task-worker".to_string())
            .spawn(move || {
                let me = Arc::new(Worker {
                    thread: thread::current(),
                    slot: Mutex::new(None),
                    filled: AtomicBool::new(false),
                });
                let mut job = first;
                loop {
                    // Jobs contain their own panic handling; this guard
                    // only protects the pool invariant.
                    let _ = catch_unwind(AssertUnwindSafe(job));
                    self.idle().push(Arc::clone(&me));
                    job = me.next_job();
                }
            })
            .expect("failed to spawn icb worker thread");
    }
}

impl Worker {
    fn slot(&self) -> MutexGuard<'_, Option<Job>> {
        // The slot only ever holds a whole job or none.
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Waits, yielding and then parking, until the pool fills the slot.
    fn next_job(&self) -> Job {
        loop {
            wait::wait(false, None, || {
                self.filled.load(Ordering::Acquire).then_some(true)
            });
            if let Some(job) = self.slot().take() {
                self.filled.store(false, Ordering::Relaxed);
                return job;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    const TIMEOUT: Duration = Duration::from_secs(5);

    /// Waits until every worker `pool` ever spawned is back in its idle
    /// list, and returns their number.
    fn settle(pool: &Pool) -> usize {
        let deadline = Instant::now() + TIMEOUT;
        loop {
            let spawned = pool.spawned.load(Ordering::Relaxed);
            if pool.idle().len() == spawned {
                return spawned;
            }
            assert!(Instant::now() < deadline, "a worker never returned");
            thread::yield_now();
        }
    }

    #[test]
    fn jobs_run_and_workers_recycle() {
        let counter = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = channel();
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            let done = done_tx.clone();
            run_on_worker(Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                done.send(()).unwrap();
            }));
        }
        for _ in 0..16 {
            done_rx.recv_timeout(TIMEOUT).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let (done_tx, done_rx) = channel();
        run_on_worker(Box::new(|| panic!("job panic")));
        run_on_worker(Box::new(move || {
            done_tx.send(()).unwrap();
        }));
        done_rx
            .recv_timeout(TIMEOUT)
            .expect("pool survived a panicking job");
    }

    #[test]
    fn concurrent_launches_each_run_exactly_once() {
        static POOL: Pool = Pool::new();
        const LAUNCHERS: usize = 4;
        const PER_LAUNCHER: usize = 500;
        let runs: Arc<Vec<AtomicUsize>> = Arc::new(
            (0..LAUNCHERS * PER_LAUNCHER)
                .map(|_| AtomicUsize::new(0))
                .collect(),
        );
        let (done_tx, done_rx) = channel();
        let start = Arc::new(Barrier::new(LAUNCHERS));
        thread::scope(|s| {
            for launcher in 0..LAUNCHERS {
                let (runs, done_tx, start) = (&runs, done_tx.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    for k in 0..PER_LAUNCHER {
                        let (runs, done) = (Arc::clone(runs), done_tx.clone());
                        let id = launcher * PER_LAUNCHER + k;
                        POOL.run(Box::new(move || {
                            runs[id].fetch_add(1, Ordering::SeqCst);
                            done.send(()).unwrap();
                        }));
                    }
                });
            }
        });
        for _ in 0..LAUNCHERS * PER_LAUNCHER {
            done_rx.recv_timeout(TIMEOUT).expect("a launched job ran");
        }
        settle(&POOL);
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn the_pool_holds_no_more_workers_than_ever_ran_at_once() {
        static POOL: Pool = Pool::new();
        // Each wave runs WIDTH jobs that meet at a barrier, so it needs
        // exactly WIDTH workers at once.
        const WIDTH: usize = 4;
        const WAVES: usize = 500;
        for _ in 0..WAVES {
            let meet = Arc::new(Barrier::new(WIDTH));
            let (done_tx, done_rx) = channel();
            for _ in 0..WIDTH {
                let (meet, done) = (Arc::clone(&meet), done_tx.clone());
                POOL.run(Box::new(move || {
                    meet.wait();
                    done.send(()).unwrap();
                }));
            }
            for _ in 0..WIDTH {
                done_rx.recv_timeout(TIMEOUT).expect("a wave completed");
            }
            assert_eq!(settle(&POOL), WIDTH);
        }
    }

    #[test]
    fn a_stray_unpark_starts_nothing_and_loses_no_job() {
        static POOL: Pool = Pool::new();
        let runs = Arc::new(AtomicUsize::new(0));
        for round in 1..=200 {
            let (done_tx, done_rx) = channel();
            let counted = Arc::clone(&runs);
            POOL.run(Box::new(move || {
                counted.fetch_add(1, Ordering::SeqCst);
                done_tx.send(()).unwrap();
            }));
            done_rx.recv_timeout(TIMEOUT).expect("the job ran");
            assert_eq!(settle(&POOL), 1, "one worker serves every round");
            // Wake the idle worker without handing it a job, as the
            // engine's leftover unpark tokens do.
            let stray = POOL.idle()[0].thread.clone();
            stray.unpark();
            stray.unpark();
            assert_eq!(runs.load(Ordering::SeqCst), round);
            assert_eq!(POOL.idle().len(), 1, "a stray unpark took no job");
        }
    }
}
