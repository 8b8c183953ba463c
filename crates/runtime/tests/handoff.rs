//! Lost-wakeup stress for the engine's baton handoff.
//!
//! Each test drives a seven-task program (main plus six children) to one
//! outcome thousands of times under randomly chosen schedules: once on
//! one thread, where a two-core machine lets waiters spin before they
//! park, and once from four threads at once, where the engine's core
//! gate is closed and every waiter yields its core a bounded number of
//! times before it parks. A lost wakeup shows up as a hang, so every
//! loop runs under a watchdog that fails the test after 60 s. Afterwards
//! the process must not have accumulated threads: a worker stranded in
//! `park` never returns to the pool, so every stranded execution would
//! leave threads behind.

use std::sync::mpsc;
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

use icb_core::rng::SplitMix64;
use icb_core::{
    ControlledProgram, ExecutionOutcome, NullSink, ReplayScheduler, Schedule, SchedulePoint,
    Scheduler, Tid,
};
use icb_runtime::sync::{Barrier, Mutex, Semaphore};
use icb_runtime::{thread, DataVar, RuntimeConfig, RuntimeProgram};

/// Executions per outcome in each phase.
const EXECUTIONS: u64 = 2_000;
/// Concurrent drivers in the second phase.
const THREADS: u64 = 4;
/// Children each program spawns; with main that makes seven tasks.
const CHILDREN: usize = 6;
/// How long one phase may take before the test calls it a hang.
const HANG: Duration = Duration::from_secs(60);

/// The phases share the process's core gate and thread count, so tests
/// in this file run one at a time.
static SERIAL: StdMutex<()> = StdMutex::new(());

/// Picks uniformly among the enabled tasks.
struct RandomPick(SplitMix64);

impl Scheduler for RandomPick {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        point.enabled[self.0.gen_index(point.enabled.len())]
    }
}

fn spawn_children(body: impl Fn(usize) + Send + Sync + 'static) -> Vec<thread::JoinHandle> {
    let body = Arc::new(body);
    (0..CHILDREN)
        .map(|k| {
            let body = Arc::clone(&body);
            thread::spawn(move || body(k))
        })
        .collect()
}

/// Runs one execution of `program` per seed, under a random scheduler
/// seeded with it (or replaying `replay`), and checks each outcome.
fn drive(
    program: &RuntimeProgram,
    seeds: std::ops::Range<u64>,
    replay: Option<&Schedule>,
    check: fn(&ExecutionOutcome) -> bool,
) {
    for seed in seeds {
        let result = match replay {
            Some(schedule) => {
                let mut scheduler = ReplayScheduler::new(schedule.clone());
                program.execute(&mut scheduler, &mut NullSink)
            }
            None => program.execute(&mut RandomPick(SplitMix64::new(seed)), &mut NullSink),
        };
        assert!(
            check(&result.outcome),
            "execution {seed}: unexpected outcome {:?}",
            result.outcome
        );
    }
}

/// Runs `phase` on a helper thread and fails if it does not finish
/// within [`HANG`].
fn under_watchdog(name: &str, phase: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        phase();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(HANG) {
        Ok(()) => runner.join().expect("phase thread"),
        // The phase panicked: re-raise its assertion message.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("phase panicked"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name}: no progress for {HANG:?}, a baton handoff was lost")
        }
    }
}

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |dir| dir.count())
}

/// Drives `program` to one outcome, first on one thread and then from
/// [`THREADS`] threads at once, and checks no thread was stranded.
fn stress(program: RuntimeProgram, replay: Option<Schedule>, check: fn(&ExecutionOutcome) -> bool) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let program = Arc::new(program);
    let replay = Arc::new(replay);

    let (p, r) = (Arc::clone(&program), Arc::clone(&replay));
    under_watchdog("one driver", move || {
        drive(&p, 0..EXECUTIONS, r.as_ref().as_ref(), check)
    });

    let (p, r) = (Arc::clone(&program), Arc::clone(&replay));
    under_watchdog("four drivers", move || {
        let per_thread = EXECUTIONS / THREADS;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (p, r) = (&p, &r);
                let seeds = t * per_thread..(t + 1) * per_thread;
                scope.spawn(move || drive(p, seeds, r.as_ref().as_ref(), check));
            }
        });
    });

    // Four concurrent executions of seven tasks need at most 28 workers
    // at once, plus a few that have not yet returned to the pool; the
    // test harness adds its own. A stranded worker per execution would
    // leave thousands.
    let threads = thread_count();
    assert!(
        threads <= 128,
        "{threads} threads alive after the stress loops: workers were stranded"
    );
}

#[test]
fn clean_exit_never_loses_a_wakeup() {
    let program = RuntimeProgram::new(|| {
        let count = Arc::new(Mutex::new(0usize));
        let c = Arc::clone(&count);
        let children = spawn_children(move |_| {
            *c.lock() += 1;
            thread::yield_now();
            *c.lock() += 1;
        });
        for child in children {
            child.join();
        }
        assert_eq!(*count.lock(), 2 * CHILDREN);
    });
    stress(program, None, |o| *o == ExecutionOutcome::Terminated);
}

#[test]
fn assertion_failure_unwinds_the_parked_tasks() {
    let program = RuntimeProgram::new(|| {
        let barrier = Arc::new(Barrier::new(CHILDREN + 1));
        let b = Arc::clone(&barrier);
        let children = spawn_children(move |k| {
            b.wait();
            // Every other task is parked at a scheduling point here.
            assert!(k != 3, "child 3 fails");
            thread::yield_now();
        });
        barrier.wait();
        for child in children {
            child.join();
        }
    });
    stress(
        program,
        None,
        |o| matches!(o, ExecutionOutcome::AssertionFailure { message, .. } if message == "child 3 fails"),
    );
}

#[test]
fn deadlock_of_every_task_unwinds_them_all() {
    let program = RuntimeProgram::new(|| {
        let sem = Arc::new(Semaphore::new(0));
        let s = Arc::clone(&sem);
        let _children = spawn_children(move |_| s.acquire());
        sem.acquire();
    });
    stress(
        program,
        None,
        |o| matches!(o, ExecutionOutcome::Deadlock { blocked } if blocked.len() == CHILDREN + 1),
    );
}

#[test]
fn step_limit_unwinds_every_task() {
    let config = RuntimeConfig {
        max_steps: 60,
        ..RuntimeConfig::default()
    };
    let program = RuntimeProgram::with_config(config, || {
        let children = spawn_children(|_| loop {
            thread::yield_now();
        });
        for child in children {
            child.join();
        }
    });
    stress(program, None, |o| *o == ExecutionOutcome::StepLimitExceeded);
}

#[test]
fn data_race_under_fail_on_race_unwinds_every_task() {
    let program = RuntimeProgram::new(|| {
        let shared = Arc::new(DataVar::new(0u32));
        let s = Arc::clone(&shared);
        let children = spawn_children(move |k| {
            thread::yield_now();
            s.write(k as u32);
            thread::yield_now();
        });
        for child in children {
            child.join();
        }
    });
    stress(program, None, |o| {
        matches!(o, ExecutionOutcome::DataRace { .. })
    });
}

#[test]
fn replay_divergence_unwinds_every_task() {
    let program = RuntimeProgram::new(|| {
        let lock = Arc::new(Mutex::new(()));
        let l = Arc::clone(&lock);
        let children = spawn_children(move |_| drop(l.lock()));
        for child in children {
            child.join();
        }
    });
    // Main's start and its six spawns, then a task that does not exist.
    let mut steps = vec![Tid::MAIN; CHILDREN + 1];
    steps.push(Tid(40));
    stress(
        program,
        Some(Schedule::from(steps)),
        |o| matches!(o, ExecutionOutcome::ReplayDivergence { step, .. } if *step == CHILDREN + 1),
    );
}
