//! The one wait behind every cross-thread handoff in the runtime: the
//! engine's baton and the worker pool's job slot.
//!
//! A waiter watches lock-free mirrors of the state it waits for in one
//! of the first two tiers, and then parks:
//!
//! 1. **Spin** on [`spin_loop`](std::hint::spin_loop) hints, at most
//!    [`SPIN_LIMIT`] of them, while the core gate is open: while the
//!    process has two cores for each running execution (see
//!    [`RunningGuard`]). The thread being waited for then has a core of
//!    its own and answers within microseconds.
//! 2. Otherwise, **yield** the core with [`std::thread::yield_now`], at
//!    most [`YIELD_LIMIT`] times, re-reading the mirrors between calls.
//!    With the gate closed a spinner would steal the core the thread it
//!    waits for needs; a yield hands that core over instead, and costs
//!    no futex wake when the answer comes within a few time slices.
//!    Waiters that never spin (idle pool workers) start here.
//! 3. **Park** until unparked, or until a timeout.
//!
//! Every tier may end early or spuriously, so the caller re-checks its
//! condition under its own lock after [`wait`] returns, and waits again
//! if the condition does not hold yet.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// How many `spin_loop` hints a waiter spends before it parks.
const SPIN_LIMIT: u32 = 1024;

/// How many times a waiter yields its core before it parks.
pub(crate) const YIELD_LIMIT: u32 = 32;

/// Runtime executions in progress in this process, on any thread.
/// Relaxed: the count only gates spinning and publishes no data.
static RUNNING: AtomicUsize = AtomicUsize::new(0);

/// Counts one execution in [`RUNNING`] for the guard's lifetime.
pub(crate) struct RunningGuard;

impl RunningGuard {
    pub(crate) fn enter() -> Self {
        RUNNING.fetch_add(1, Ordering::Relaxed);
        RunningGuard
    }
}

impl Drop for RunningGuard {
    fn drop(&mut self) {
        RUNNING.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether waiters may spin: only while every running execution can
/// keep its controller and its running task on cores of their own.
fn spin_allowed() -> bool {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    2 * RUNNING.load(Ordering::Relaxed) <= cores
}

/// Spins or yields until `poll` says the wait looks over, or else parks
/// once.
///
/// `poll` reads the caller's lock-free mirrors: `Some(true)` when the
/// wait looks over, `Some(false)` when the waiter should park now, and
/// `None` to keep waiting. `spin` lets the waiter spin while the core
/// gate is open; a waiter that may not spin yields instead. `timeout`
/// bounds the park. The caller re-checks its condition under its lock
/// afterwards.
pub(crate) fn wait(spin: bool, timeout: Option<Duration>, mut poll: impl FnMut() -> Option<bool>) {
    let (rounds, pause): (u32, fn()) = if spin && spin_allowed() {
        (SPIN_LIMIT, std::hint::spin_loop)
    } else {
        (YIELD_LIMIT, std::thread::yield_now)
    };
    for _ in 0..rounds {
        match poll() {
            Some(true) => return,
            Some(false) => break,
            None => pause(),
        }
    }
    match timeout {
        Some(left) => std::thread::park_timeout(left),
        None => std::thread::park(),
    }
}
