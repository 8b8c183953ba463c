//! The execution engine: cooperative single-step scheduling of real OS
//! threads under a model-checker-controlled baton.
//!
//! Exactly one thread of the program under test runs at any moment. Each
//! task announces the synchronization operation it is about to perform
//! and parks; the *controller* (the thread that called
//! [`ControlledProgram::execute`](icb_core::ControlledProgram)) computes
//! the enabled set, asks the search's [`Scheduler`] to pick, and hands the
//! baton to the chosen task. The task applies the operation's effect,
//! runs user code up to its next synchronization operation, and returns
//! the baton.
//!
//! # The baton
//!
//! Whose turn it is lives in the execution's mutex. A handoff changes it
//! under the lock and unparks exactly the thread whose turn it now is:
//! each task registers its worker's [`Thread`] handle before its first
//! wait, and the controller registers its own when the execution starts.
//! A waiter re-checks its condition under the lock after every wakeup,
//! so stale unpark tokens left on pooled worker threads are harmless.
//!
//! A waiter does not park at once. It waits in the tiers of
//! [`wait`](crate::wait), watching lock-free mirrors of the turn and
//! abort flags: it spins on [`spin_loop`](std::hint::spin_loop) hints
//! while the process has two cores for each running execution, and
//! otherwise yields its core up to
//! [`YIELD_LIMIT`](crate::wait::YIELD_LIMIT) times; then it parks.
//! Spinning saves the park/unpark round trip when the other side answers
//! within microseconds on a core of its own; yielding saves it when the
//! other side needs this very core, as when more executions run than
//! there are core pairs. A task waits in the tiers only while the
//! controller holds the baton; once the baton goes to another task,
//! which may run for long, it parks at once. The controller waits in the
//! tiers while a task runs, and parks at once while it drains unwinding
//! tasks after an abort.
//!
//! Aborts (assertion failure, data race, deadlock, step limit, watchdog,
//! scheduler failure) wake every registered thread and unwind all parked
//! tasks cooperatively via a private panic payload, so worker threads are
//! always reclaimed.

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

use icb_core::{
    DivergencePayload, ExecutionOutcome, ExecutionResult, FaultPoint, Phase, SchedulePoint,
    Scheduler, SearchObserver, StateSink, Tid, Trace, TraceEntry,
};
use icb_race::{AccessKind, HbFingerprint, RaceDetector};

use crate::config::RuntimeConfig;
use crate::op::{CondWaiter, PendingOp, Resources, FAULT_OP_SALT};
use crate::{pool, wait};

/// Whose turn it is to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Turn {
    Controller,
    Task(usize),
}

/// [`Turn::Controller`] in [`Execution::turn_hint`]; a task's turn is its
/// index.
const CONTROLLER_TURN: usize = usize::MAX;

impl Turn {
    fn encode(self) -> usize {
        match self {
            Turn::Controller => CONTROLLER_TURN,
            Turn::Task(i) => i,
        }
    }
}

/// What a thread blocks for in [`Execution::wait_for`].
#[derive(Clone, Copy, Debug)]
enum Await {
    /// A task waits for its turn, or for an abort.
    Task(usize),
    /// The controller waits for the baton to come back.
    Baton,
    /// The controller waits for every task to finish unwinding.
    Drain,
}

impl Await {
    /// The wait's condition, read under the lock.
    fn met(self, inner: &ExecInner) -> bool {
        match self {
            Await::Task(i) => inner.abort || inner.turn == Turn::Task(i),
            Await::Baton => inner.turn == Turn::Controller,
            Await::Drain => inner.alive == 0,
        }
    }

    /// Reads the lock-free mirrors before parking: `Some(true)` when the
    /// wait looks over, `Some(false)` when the waiter should park now,
    /// `None` to keep spinning or yielding.
    fn hint(self, turn: usize, abort: bool) -> Option<bool> {
        match self {
            Await::Task(i) if turn == i || abort => Some(true),
            // The baton went to another task, which may run for long.
            Await::Task(_) if turn != CONTROLLER_TURN => Some(false),
            Await::Task(_) => None,
            Await::Baton => (turn == CONTROLLER_TURN).then_some(true),
            Await::Drain => Some(false),
        }
    }
}

/// Private panic payload used to unwind tasks on abort.
struct AbortPayload;

fn panic_abort() -> ! {
    std::panic::panic_any(AbortPayload)
}

fn is_abort(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<AbortPayload>()
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

/// Result of applying a pending operation's effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EffectOut {
    None,
    /// `TryAcquire`: whether the lock was taken.
    Acquired(bool),
    /// `BarrierArrive`: the generation the arriving task must outwait.
    Generation(u32),
    /// `Spawn`: the new task's id.
    Spawned(Tid),
    /// `FailPoint`: whether the scheduler injected the fault.
    Fault(bool),
}

#[derive(Debug)]
struct TaskEntry {
    finished: bool,
    pending: Option<PendingOp>,
    /// Whether the scheduler injected a fault into the pending operation
    /// (set by the controller alongside the baton hand-over, consumed by
    /// [`apply_effect`]).
    fault: bool,
    /// The worker thread running the task, registered before its first
    /// wait; `None` until then.
    thread: Option<Thread>,
}

#[derive(Debug)]
pub(crate) struct ExecInner {
    turn: Turn,
    abort: bool,
    /// The controller's thread, registered when the execution starts.
    controller: Option<Thread>,
    outcome: Option<ExecutionOutcome>,
    tasks: Vec<TaskEntry>,
    alive: usize,
    current: Option<Tid>,
    trace: Trace,
    pub(crate) resources: Resources,
    pub(crate) detector: RaceDetector,
    fingerprint: HbFingerprint,
    pending_fp: Option<u64>,
    /// Race descriptions queued by task threads for the controller to
    /// forward to the observer (tasks cannot reach the `&mut` observer).
    pending_races: Vec<String>,
    steps: usize,
    /// Whether the observer asked for wall-clock phase attribution.
    time_phases: bool,
    /// Wall-clock spent inside the race detector, accrued under the
    /// execution mutex by whichever thread performs the detector call.
    detector_time: Duration,
}

impl ExecInner {
    /// Runs a race-detector operation, attributing its wall-clock to the
    /// race-detection phase when phase timing is on.
    fn with_detector<R>(&mut self, f: impl FnOnce(&mut RaceDetector) -> R) -> R {
        if self.time_phases {
            let t0 = Instant::now();
            let out = f(&mut self.detector);
            self.detector_time += t0.elapsed();
            out
        } else {
            f(&mut self.detector)
        }
    }
}

/// Shared state of one controlled execution.
#[derive(Debug)]
pub(crate) struct Execution {
    inner: StdMutex<ExecInner>,
    /// `inner.turn` encoded by [`Turn::encode`], for spinning without
    /// the lock. Written (Release) under the lock whenever the turn
    /// changes and read (Acquire) by spinners; it publishes nothing else,
    /// since a waiter re-checks `inner` under the lock before acting.
    turn_hint: AtomicUsize,
    /// `inner.abort`, mirrored like `turn_hint`.
    abort_hint: AtomicBool,
    pub(crate) config: RuntimeConfig,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, Tid)>> = const { RefCell::new(None) };
}

/// Task panics are expected (they are how assertion failures surface and
/// how aborts unwind); suppress their default backtrace spew while
/// leaving panics of non-task threads untouched.
fn install_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_task = CURRENT.with(|c| c.borrow().is_some());
            if !in_task {
                previous(info);
            }
        }));
    });
}

/// Runs `f` with the executing task's context.
///
/// # Panics
///
/// Panics if the calling thread is not a task of a running execution —
/// i.e. a runtime primitive was used outside a
/// [`RuntimeProgram`](crate::RuntimeProgram) body.
pub(crate) fn with_current<R>(f: impl FnOnce(&Arc<Execution>, Tid) -> R) -> R {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        let (exec, tid) = borrow.as_ref().expect(
            "icb-runtime primitives may only be used inside a running RuntimeProgram execution",
        );
        f(exec, *tid)
    })
}

/// Like [`with_current`] but returns `None` outside an execution. Used by
/// `Drop` impls, which must never panic.
pub(crate) fn try_with_current<R>(f: impl FnOnce(&Arc<Execution>, Tid) -> R) -> Option<R> {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        borrow.as_ref().map(|(exec, tid)| f(exec, *tid))
    })
}

impl Execution {
    pub(crate) fn new(config: RuntimeConfig) -> Self {
        Execution {
            inner: StdMutex::new(ExecInner {
                turn: Turn::Controller,
                abort: false,
                controller: None,
                outcome: None,
                tasks: Vec::new(),
                alive: 0,
                current: None,
                trace: Trace::new(),
                resources: Resources::default(),
                detector: RaceDetector::new(),
                fingerprint: HbFingerprint::new(),
                pending_fp: None,
                pending_races: Vec::new(),
                steps: 0,
                time_phases: false,
                detector_time: Duration::ZERO,
            }),
            turn_hint: AtomicUsize::new(CONTROLLER_TURN),
            abort_hint: AtomicBool::new(false),
            config,
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, ExecInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set_turn(&self, inner: &mut ExecInner, turn: Turn) {
        inner.turn = turn;
        self.turn_hint.store(turn.encode(), Ordering::Release);
    }

    /// Hands the baton to `turn` and wakes the one thread that holds it
    /// now. A task that has not registered yet finds its turn when it
    /// first checks.
    fn pass_baton(&self, inner: &mut ExecInner, turn: Turn) {
        self.set_turn(inner, turn);
        let thread = match turn {
            Turn::Controller => inner.controller.as_ref(),
            Turn::Task(i) => inner.tasks[i].thread.as_ref(),
        };
        if let Some(thread) = thread {
            thread.unpark();
        }
    }

    /// Marks the execution aborted and wakes every registered thread, so
    /// parked tasks unwind and the controller re-checks.
    fn raise_abort(&self, inner: &mut ExecInner) {
        inner.abort = true;
        self.abort_hint.store(true, Ordering::Release);
        let tasks = inner.tasks.iter().filter(|t| !t.finished);
        for thread in tasks
            .filter_map(|t| t.thread.as_ref())
            .chain(inner.controller.as_ref())
        {
            thread.unpark();
        }
    }

    /// Blocks until `what` holds: spins or yields, then parks, in
    /// [`wait::wait`] as [`Await::hint`] allows, and re-checks under the
    /// lock after every wakeup. Returns `false` only when `deadline`
    /// passes first.
    fn wait_for<'a>(
        &'a self,
        mut inner: StdMutexGuard<'a, ExecInner>,
        what: Await,
        deadline: Option<Instant>,
    ) -> (StdMutexGuard<'a, ExecInner>, bool) {
        loop {
            if what.met(&inner) {
                return (inner, true);
            }
            let timeout = deadline.map(|dl| dl.saturating_duration_since(Instant::now()));
            if timeout == Some(Duration::ZERO) {
                return (inner, false);
            }
            drop(inner);
            wait::wait(true, timeout, || {
                let turn = self.turn_hint.load(Ordering::Acquire);
                let abort = self.abort_hint.load(Ordering::Acquire);
                what.hint(turn, abort)
            });
            inner = self.lock();
        }
    }

    /// Launches the root task and runs the controller loop to completion.
    pub(crate) fn run(
        self: &Arc<Self>,
        body: Box<dyn FnOnce() + Send + 'static>,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult {
        install_panic_hook();
        let _running = wait::RunningGuard::enter();
        {
            let mut inner = self.lock();
            inner.controller = Some(std::thread::current());
            inner.tasks.push(TaskEntry {
                finished: false,
                pending: Some(PendingOp::Start),
                fault: false,
                thread: None,
            });
            inner.alive = 1;
            inner.time_phases = observer.wants_phase_timing();
        }
        let exec = Arc::clone(self);
        pool::run_on_worker(Box::new(move || task_main(exec, Tid::MAIN, body)));
        self.control(scheduler, sink, observer)
    }

    /// The controller loop: repeatedly compute the enabled set, consult
    /// the scheduler, and hand the baton over.
    fn control(
        &self,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult {
        let max_steps = self.config.max_steps;
        let deadline = self
            .config
            .max_wall_time
            .map(|budget| Instant::now() + budget);
        let mut inner = self.lock();
        let time_phases = inner.time_phases;
        let mut replay_time = Duration::ZERO;
        let mut selection_time = Duration::ZERO;
        loop {
            let t0 = time_phases.then(Instant::now);
            let (guard, baton_back) = self.wait_for(inner, Await::Baton, deadline);
            inner = guard;
            if let Some(t0) = t0 {
                replay_time += t0.elapsed();
            }
            if !baton_back {
                // Watchdog expiry: the baton holder is stuck *between*
                // scheduling points (uninstrumented loop, blocking call),
                // where max_steps cannot see it. Abandon the task — mark
                // it finished so the abort drain below doesn't wait for
                // it; if it ever wakes it unwinds via the abort flag, and
                // handle_task_panic's finished-guard skips the recount.
                if let Turn::Task(i) = inner.turn {
                    if !inner.tasks[i].finished {
                        inner.tasks[i].finished = true;
                        inner.alive -= 1;
                    }
                }
                inner
                    .outcome
                    .get_or_insert(ExecutionOutcome::WatchdogTimeout);
                self.raise_abort(&mut inner);
                self.set_turn(&mut inner, Turn::Controller);
            }
            if let Some(fp) = inner.pending_fp.take() {
                sink.visit(fp);
            }
            for race in inner.pending_races.drain(..) {
                observer.race_detected(&race);
            }
            if inner.abort {
                let t0 = time_phases.then(Instant::now);
                inner = self.wait_for(inner, Await::Drain, None).0;
                if let Some(t0) = t0 {
                    replay_time += t0.elapsed();
                }
                break;
            }
            if inner.alive == 0 {
                break;
            }
            if inner.steps >= max_steps {
                inner
                    .outcome
                    .get_or_insert(ExecutionOutcome::StepLimitExceeded);
                self.raise_abort(&mut inner);
                continue;
            }

            let enabled: Vec<Tid> = inner
                .tasks
                .iter()
                .enumerate()
                .filter(|(i, t)| {
                    !t.finished
                        && t.pending
                            .as_ref()
                            .is_some_and(|op| op_enabled(&inner, Tid(*i), op))
                })
                .map(|(i, _)| Tid(i))
                .collect();

            if enabled.is_empty() {
                let blocked: Vec<Tid> = inner
                    .tasks
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !t.finished)
                    .map(|(i, _)| Tid(i))
                    .collect();
                inner
                    .outcome
                    .get_or_insert(ExecutionOutcome::Deadlock { blocked });
                self.raise_abort(&mut inner);
                continue;
            }

            let current = inner.current;
            let current_enabled = current.is_some_and(|c| enabled.contains(&c));
            let point = SchedulePoint {
                step_index: inner.steps,
                current,
                current_enabled,
                enabled: &enabled,
            };
            let picked = {
                let t0 = time_phases.then(Instant::now);
                let picked = catch_unwind(AssertUnwindSafe(|| scheduler.pick(point)));
                if let Some(t0) = t0 {
                    selection_time += t0.elapsed();
                }
                picked
            };
            let chosen = match picked {
                Ok(chosen) => chosen,
                Err(payload) => {
                    // Scheduler failure: drain the tasks so workers are
                    // reclaimed.
                    self.raise_abort(&mut inner);
                    inner = self.wait_for(inner, Await::Drain, None).0;
                    match payload.downcast::<DivergencePayload>() {
                        Ok(divergence) => {
                            // Replay divergence is recoverable: surface it
                            // as the outcome (with the partial trace) so
                            // the search can quarantine instead of crash.
                            inner.outcome.get_or_insert(divergence.into_outcome());
                            break;
                        }
                        Err(payload) => {
                            drop(inner);
                            resume_unwind(payload);
                        }
                    }
                }
            };
            assert!(
                enabled.contains(&chosen),
                "scheduler chose {chosen}, which is not enabled",
            );
            let pending = inner.tasks[chosen.index()]
                .pending
                .as_ref()
                .expect("enabled task has a pending op");
            let blocking = pending.is_blocking();
            let site = pending.site();
            let fallible = pending.is_fallible();
            // Fault decisions belong to the same step as the scheduling
            // decision: ask right after the pick, before the step index
            // advances, so replay sees one aligned (choice, fault) pair.
            let fault = fallible && {
                let t0 = time_phases.then(Instant::now);
                let fault = scheduler.decide_fault(FaultPoint {
                    step_index: inner.steps,
                    tid: chosen,
                    site,
                });
                if let Some(t0) = t0 {
                    selection_time += t0.elapsed();
                }
                fault
            };
            inner.tasks[chosen.index()].fault = fault;
            inner.trace.push(
                TraceEntry::new(chosen, enabled, current, current_enabled, blocking)
                    .with_site(site)
                    .with_fault(fault),
            );
            inner.steps += 1;
            inner.current = Some(chosen);
            self.pass_baton(&mut inner, Turn::Task(chosen.index()));
        }
        if let Some(fp) = inner.pending_fp.take() {
            sink.visit(fp);
        }
        for race in inner.pending_races.drain(..) {
            observer.race_detected(&race);
        }
        if time_phases {
            // The replay wait covers everything task threads did while the
            // controller was parked, including detector work; subtract it so
            // the three phases partition the controller's wall-clock.
            let detector_time = inner.detector_time;
            observer.phase_time(Phase::Selection, selection_time);
            observer.phase_time(Phase::RaceDetection, detector_time);
            observer.phase_time(Phase::Replay, replay_time.saturating_sub(detector_time));
        }
        let outcome = inner.outcome.take().unwrap_or(ExecutionOutcome::Terminated);
        let trace = std::mem::take(&mut inner.trace);
        drop(inner);
        ExecutionResult::from_trace(outcome, trace)
    }

    /// Announces the next operation, parks until scheduled, then applies
    /// the operation's effect. Called by the running task.
    pub(crate) fn sched_point(&self, tid: Tid, op: PendingOp) -> EffectOut {
        if std::thread::panicking() {
            // Unwinding (abort or user panic): synchronization effects no
            // longer matter; skip silently so Drop impls stay safe.
            return EffectOut::None;
        }
        let mut inner = self.lock();
        if inner.abort {
            drop(inner);
            panic_abort();
        }
        debug_assert_eq!(
            inner.turn,
            Turn::Task(tid.index()),
            "only the running task may announce"
        );
        let is_exit = matches!(op, PendingOp::Exit);
        inner.tasks[tid.index()].pending = Some(op);
        self.pass_baton(&mut inner, Turn::Controller);
        let mut inner = self.wait_for(inner, Await::Task(tid.index()), None).0;
        if inner.abort {
            drop(inner);
            panic_abort();
        }
        let op = inner.tasks[tid.index()]
            .pending
            .take()
            .expect("scheduled task has a pending op");
        let fault = std::mem::take(&mut inner.tasks[tid.index()].fault);
        let out = apply_effect(&mut inner, tid, &op, fault);
        if is_exit {
            self.pass_baton(&mut inner, Turn::Controller);
        }
        out
    }

    /// Parks a freshly spawned task until its `Start` operation is
    /// scheduled. The parent already installed the pending op.
    fn park_initial(&self, tid: Tid) {
        let mut inner = self.lock();
        inner.tasks[tid.index()].thread = Some(std::thread::current());
        let mut inner = self.wait_for(inner, Await::Task(tid.index()), None).0;
        if inner.abort {
            drop(inner);
            panic_abort();
        }
        let op = inner.tasks[tid.index()]
            .pending
            .take()
            .expect("started task has the Start op pending");
        debug_assert_eq!(op, PendingOp::Start);
        apply_effect(&mut inner, tid, &op, false);
    }

    /// Records a task's unwinding (user panic or abort).
    fn handle_task_panic(&self, tid: Tid, payload: Box<dyn std::any::Any + Send>) {
        let mut inner = self.lock();
        if !inner.tasks[tid.index()].finished {
            inner.tasks[tid.index()].finished = true;
            inner.alive -= 1;
        }
        if !is_abort(&*payload) {
            if inner.outcome.is_none() {
                inner.outcome = Some(ExecutionOutcome::AssertionFailure {
                    thread: tid,
                    message: payload_message(&*payload),
                });
            }
            self.raise_abort(&mut inner);
        }
        self.pass_baton(&mut inner, Turn::Controller);
    }

    /// Registers a mutex, returning `(lock id, detector sync id)`.
    pub(crate) fn register_lock(&self) -> (usize, usize) {
        let mut inner = self.lock();
        (inner.resources.new_lock(), inner.detector.new_sync_object())
    }

    /// Registers a condition variable.
    pub(crate) fn register_condvar(&self) -> (usize, usize) {
        let mut inner = self.lock();
        (
            inner.resources.new_condvar(),
            inner.detector.new_sync_object(),
        )
    }

    /// Registers a semaphore with an initial count.
    pub(crate) fn register_sem(&self, count: usize) -> (usize, usize) {
        let mut inner = self.lock();
        (
            inner.resources.new_sem(count),
            inner.detector.new_sync_object(),
        )
    }

    /// Registers an event.
    pub(crate) fn register_event(&self, set: bool, manual: bool) -> (usize, usize) {
        let mut inner = self.lock();
        (
            inner.resources.new_event(set, manual),
            inner.detector.new_sync_object(),
        )
    }

    /// Registers an atomic variable (a pure sync object).
    pub(crate) fn register_atomic(&self) -> usize {
        self.lock().detector.new_sync_object()
    }

    /// Registers a reader-writer lock.
    pub(crate) fn register_rwlock(&self) -> (usize, usize) {
        let mut inner = self.lock();
        (
            inner.resources.new_rwlock(),
            inner.detector.new_sync_object(),
        )
    }

    /// Registers a barrier for `parties` tasks.
    pub(crate) fn register_barrier(&self, parties: usize) -> (usize, usize) {
        let mut inner = self.lock();
        (
            inner.resources.new_barrier(parties),
            inner.detector.new_sync_object(),
        )
    }

    /// Registers a data variable for race checking.
    pub(crate) fn register_data(&self, name: Option<String>) -> usize {
        self.lock().detector.new_data_var(name)
    }

    /// Checks (and in full-interleaving mode, schedules) a data-variable
    /// access by the running task.
    pub(crate) fn data_access(&self, tid: Tid, var: usize, kind: AccessKind) {
        if self.config.preempt_data_vars {
            self.sched_point(tid, PendingOp::DataAccess { var });
        }
        if std::thread::panicking() {
            return;
        }
        let mut inner = self.lock();
        if let Err(race) = inner.with_detector(|d| d.data_access(tid, var, kind)) {
            let description = race.to_string();
            inner.pending_races.push(description.clone());
            if self.config.fail_on_race {
                inner
                    .outcome
                    .get_or_insert(ExecutionOutcome::DataRace { description });
                self.raise_abort(&mut inner);
                drop(inner);
                panic_abort();
            }
        }
    }

    /// Whether the lock is currently held by `tid` (for assertions in
    /// the condvar API).
    pub(crate) fn lock_held_by(&self, lock: usize, tid: Tid) -> bool {
        self.lock().resources.locks[lock] == Some(tid)
    }
}

/// Is the pending operation executable right now?
fn op_enabled(inner: &ExecInner, tid: Tid, op: &PendingOp) -> bool {
    match *op {
        PendingOp::Acquire { lock, .. } => inner.resources.locks[lock].is_none(),
        PendingOp::CondReacquire { cv, lock, .. } => {
            let signaled = inner.resources.condvars[cv]
                .iter()
                .find(|w| w.tid == tid)
                .is_some_and(|w| w.signaled);
            signaled && inner.resources.locks[lock].is_none()
        }
        PendingOp::SemAcquire { sem, .. } => inner.resources.sems[sem] > 0,
        PendingOp::EventWait { event, .. } => inner.resources.events[event].0,
        PendingOp::Join { target } => inner.tasks[target.index()].finished,
        PendingOp::RwAcquire { rw, write, .. } => {
            let state = &inner.resources.rwlocks[rw];
            if write {
                state.readers == 0 && state.writer.is_none()
            } else {
                // Writer preference: a parked writer blocks new readers.
                let writer_waiting = inner.tasks.iter().any(|t| {
                    !t.finished
                        && matches!(
                            t.pending,
                            Some(PendingOp::RwAcquire {
                                rw: r,
                                write: true,
                                ..
                            }) if r == rw
                        )
                });
                state.writer.is_none() && !writer_waiting
            }
        }
        PendingOp::BarrierWait { bar, gen, .. } => inner.resources.barriers[bar].generation > gen,
        _ => true,
    }
}

/// Applies the state transition of `op`, records its happens-before
/// edges, and stores the post-step fingerprint for the controller.
///
/// `fault` is the scheduler's decision for designated fallible
/// operations (always `false` otherwise): a faulted `TryAcquire` fails
/// even when the lock is free, a faulted `CondWait` enqueues the waiter
/// pre-signaled (a spurious wakeup that consumes no notification), and a
/// faulted `FailPoint` trips.
fn apply_effect(inner: &mut ExecInner, tid: Tid, op: &PendingOp, fault: bool) -> EffectOut {
    let mut out = EffectOut::None;
    match *op {
        PendingOp::Start | PendingOp::Yield => {}
        PendingOp::Exit => {
            inner.tasks[tid.index()].finished = true;
            inner.alive -= 1;
        }
        PendingOp::Acquire { lock, sync } => {
            debug_assert!(inner.resources.locks[lock].is_none());
            inner.resources.locks[lock] = Some(tid);
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::Release { lock, sync } => {
            debug_assert_eq!(inner.resources.locks[lock], Some(tid));
            inner.resources.locks[lock] = None;
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::TryAcquire { lock, sync } => {
            inner.with_detector(|d| d.sync_access(tid, sync));
            if !fault && inner.resources.locks[lock].is_none() {
                inner.resources.locks[lock] = Some(tid);
                out = EffectOut::Acquired(true);
            } else {
                out = EffectOut::Acquired(false);
            }
        }
        PendingOp::CondWait {
            cv,
            cv_sync,
            lock,
            lock_sync,
        } => {
            debug_assert_eq!(inner.resources.locks[lock], Some(tid));
            inner.resources.locks[lock] = None;
            // A faulted wait is a spurious wakeup: the waiter enters the
            // queue already signaled, so its reacquire is enabled without
            // any notify — and a later notify_one skips it, consuming no
            // signal on its behalf.
            inner.resources.condvars[cv].push(CondWaiter {
                tid,
                signaled: fault,
            });
            inner.with_detector(|d| d.sync_access(tid, lock_sync));
            inner.with_detector(|d| d.sync_access(tid, cv_sync));
        }
        PendingOp::CondReacquire {
            cv,
            cv_sync,
            lock,
            lock_sync,
        } => {
            let pos = inner.resources.condvars[cv]
                .iter()
                .position(|w| w.tid == tid)
                .expect("reacquiring task is a waiter");
            let waiter = inner.resources.condvars[cv].remove(pos);
            debug_assert!(waiter.signaled);
            debug_assert!(inner.resources.locks[lock].is_none());
            inner.resources.locks[lock] = Some(tid);
            inner.with_detector(|d| d.sync_access(tid, cv_sync));
            inner.with_detector(|d| d.sync_access(tid, lock_sync));
        }
        PendingOp::Notify { cv, cv_sync, all } => {
            if all {
                for w in inner.resources.condvars[cv].iter_mut() {
                    w.signaled = true;
                }
            } else if let Some(w) = inner.resources.condvars[cv]
                .iter_mut()
                .find(|w| !w.signaled)
            {
                w.signaled = true;
            }
            inner.with_detector(|d| d.sync_access(tid, cv_sync));
        }
        PendingOp::SemAcquire { sem, sync } => {
            debug_assert!(inner.resources.sems[sem] > 0);
            inner.resources.sems[sem] -= 1;
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::SemRelease { sem, sync } => {
            inner.resources.sems[sem] += 1;
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::EventWait { event, sync } => {
            debug_assert!(inner.resources.events[event].0);
            if !inner.resources.events[event].1 {
                // Auto-reset events consume the signal.
                inner.resources.events[event].0 = false;
            }
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::EventSet { event, sync } => {
            inner.resources.events[event].0 = true;
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::EventReset { event, sync } => {
            inner.resources.events[event].0 = false;
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::AtomicAccess { sync } => {
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::DataAccess { .. } => {}
        PendingOp::Spawn => {
            let child = Tid(inner.tasks.len());
            inner.tasks.push(TaskEntry {
                finished: false,
                pending: Some(PendingOp::Start),
                fault: false,
                thread: None,
            });
            inner.alive += 1;
            inner.with_detector(|d| d.fork(tid, child));
            out = EffectOut::Spawned(child);
        }
        PendingOp::Join { target } => {
            debug_assert!(inner.tasks[target.index()].finished);
            inner.with_detector(|d| d.join(tid, target));
        }
        PendingOp::RwAcquire { rw, sync, write } => {
            let state = &mut inner.resources.rwlocks[rw];
            if write {
                debug_assert!(state.readers == 0 && state.writer.is_none());
                state.writer = Some(tid);
            } else {
                debug_assert!(state.writer.is_none());
                state.readers += 1;
            }
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::RwRelease { rw, sync, write } => {
            let state = &mut inner.resources.rwlocks[rw];
            if write {
                debug_assert_eq!(state.writer, Some(tid));
                state.writer = None;
            } else {
                debug_assert!(state.readers > 0);
                state.readers -= 1;
            }
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::BarrierArrive { bar, sync } => {
            let state = &mut inner.resources.barriers[bar];
            let gen = state.generation;
            state.arrived += 1;
            if state.arrived == state.parties {
                state.arrived = 0;
                state.generation += 1;
            }
            inner.with_detector(|d| d.sync_access(tid, sync));
            out = EffectOut::Generation(gen);
        }
        PendingOp::BarrierWait { sync, .. } => {
            inner.with_detector(|d| d.sync_access(tid, sync));
        }
        PendingOp::FailPoint { .. } => {
            out = EffectOut::Fault(fault);
        }
    }
    let vc = inner.detector.thread_clock(tid);
    let op_hash = if fault {
        // A faulted step is a different program event than its
        // fault-free twin: salt the hash so fingerprints (and hence
        // cache keys and coverage) distinguish the two histories.
        op.op_hash() ^ FAULT_OP_SALT
    } else {
        op.op_hash()
    };
    let fp = inner.fingerprint.record(tid, op_hash, &vc);
    inner.pending_fp = Some(fp);
    out
}

/// The body every task runs on its worker thread.
pub(crate) fn task_main(exec: Arc<Execution>, tid: Tid, body: Box<dyn FnOnce() + Send + 'static>) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), tid)));
    let result = catch_unwind(AssertUnwindSafe(|| {
        exec.park_initial(tid);
        body();
        exec.sched_point(tid, PendingOp::Exit);
    }));
    if let Err(payload) = result {
        exec.handle_task_panic(tid, payload);
    }
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// Spawns a child task from the running task (used by
/// [`crate::thread::spawn`]).
pub(crate) fn spawn_task(body: Box<dyn FnOnce() + Send + 'static>) -> Tid {
    with_current(|exec, tid| {
        let out = exec.sched_point(tid, PendingOp::Spawn);
        let child = match out {
            EffectOut::Spawned(child) => child,
            _ => unreachable!("Spawn effect yields a child tid"),
        };
        let exec = Arc::clone(exec);
        pool::run_on_worker(Box::new(move || task_main(exec, child, body)));
        child
    })
}
