//! Per-layer timing at the program's public boundary.
//!
//! [`Traced`] is a [`ControlledProgram`] decorator: it forwards all four
//! trait methods to the wrapped program, and around `execute` /
//! `execute_observed` it wraps the [`Scheduler`], [`StateSink`] and
//! [`SearchObserver`] the search driver passes in. Every layer is thus
//! timed where it is entered, and no code of the program changes:
//!
//! * `Scheduler::pick` / `decide_fault` — the search layer's selection;
//! * the time between consecutive picks — the host's step (runtime
//!   handoff, task body, race check, fingerprint; or one VM step);
//! * `StateSink::visit` — the coverage layer;
//! * `SearchObserver::phase_time(RaceDetection)` — the race detector,
//!   from the engine's own timing, switched on by `wants_phase_timing`.
//!
//! Step-level timings go into fixed-size histograms; only executions
//! become spans, so a VM run of millions of steps stores no step spans.
//! Each thread that executes takes its own [`Slot`], so at `jobs > 1`
//! the workers never contend on the recorder.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

use icb_core::search::{BoundStats, BugReport, QuarantinedTrace, SearchReport};
use icb_core::telemetry::ResumeInfo;
use icb_core::{
    AbortReason, ChoiceKind, ControlledProgram, ExecStats, ExecutionOutcome, ExecutionResult,
    FaultPoint, MetricsSnapshot, Phase, SchedulePoint, Scheduler, SearchObserver, SiteId,
    StateSink, Tid,
};

use crate::hist::Histogram;
use crate::workload::Host;

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// One host's step and execution timings.
#[derive(Clone, Debug, Default)]
pub struct HostStats {
    /// Host time between consecutive picks of one execution.
    pub step: Histogram,
    /// Wall time of whole executions.
    pub exec: Histogram,
    /// Summed execution wall time.
    pub exec_ns: u64,
}

/// Everything the decorator counted. Summed over slots by
/// [`Recorder::take`].
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    /// Runtime-hosted executions.
    pub runtime: HostStats,
    /// VM-hosted executions.
    pub vm: HostStats,
    /// Duration of each `pick` call.
    pub pick: Histogram,
    /// Summed `pick` and `decide_fault` time.
    pub pick_ns: u64,
    /// Summed host time outside picks and sink visits, including the
    /// head (before the first pick) and tail (after the last).
    pub gap_ns: u64,
    /// Executions run by searches (shrink replays excluded).
    pub executions: u64,
    /// Scheduling points (`pick` calls) of those executions.
    pub steps: u64,
    /// `decide_fault` calls.
    pub fault_points: u64,
    /// Steps that repeat the previous execution's choices on the same
    /// thread: the prefix a stateless search re-runs.
    pub replayed_steps: u64,
    /// Duration of each `visit` call.
    pub visit: Histogram,
    /// `visit` calls.
    pub visits: u64,
    /// Summed `visit` time.
    pub visit_ns: u64,
    /// Race-detection time reported by the engine.
    pub race_ns: u64,
}

impl LayerStats {
    /// Adds every count and timing of `o` into `self`.
    pub fn merge(&mut self, o: &LayerStats) {
        for (a, b) in [(&mut self.runtime, &o.runtime), (&mut self.vm, &o.vm)] {
            a.step.merge(&b.step);
            a.exec.merge(&b.exec);
            a.exec_ns += b.exec_ns;
        }
        self.pick.merge(&o.pick);
        self.pick_ns += o.pick_ns;
        self.gap_ns += o.gap_ns;
        self.executions += o.executions;
        self.steps += o.steps;
        self.fault_points += o.fault_points;
        self.replayed_steps += o.replayed_steps;
        self.visit.merge(&o.visit);
        self.visits += o.visits;
        self.visit_ns += o.visit_ns;
        self.race_ns += o.race_ns;
    }

    /// Summed execution time over both hosts.
    pub fn exec_ns(&self) -> u64 {
        self.runtime.exec_ns + self.vm.exec_ns
    }
}

/// A search, shrink or execution span, in nanoseconds since the
/// recorder's epoch. `parent` 0 means no parent.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (1-based; assigned by whoever records the span).
    pub id: u32,
    /// Id of the enclosing span, 0 for none.
    pub parent: u32,
    /// What ran: an item label, `shrink:<label>` or `execute:<host>`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

#[derive(Default)]
struct Slot {
    stats: LayerStats,
    /// The previous execution's choices on this slot, for
    /// `replayed_steps`.
    prev: Vec<Tid>,
    spans: Vec<(u32, Host, u64, u64)>,
}

/// Collects the decorator's measurements for one traced pass.
pub struct Recorder {
    epoch: Instant,
    slots: Vec<Mutex<Slot>>,
    shrinking: AtomicBool,
    keep_spans: AtomicBool,
    search_span: AtomicU32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            slots: (0..8).map(|_| Mutex::default()).collect(),
            shrinking: AtomicBool::new(false),
            keep_spans: AtomicBool::new(false),
            search_span: AtomicU32::new(0),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        ns(self.epoch.elapsed())
    }

    /// Starts a new search whose span id is `span`: executions become
    /// its children, and `replayed_steps` starts over (the previous
    /// program's schedules share nothing with this one's).
    pub fn begin_search(&self, span: u32) {
        self.search_span.store(span, Ordering::Relaxed);
        for slot in &self.slots {
            lock(slot).prev.clear();
        }
    }

    /// While set, executions are shrink replays: forwarded untimed, so
    /// they do not count as search work.
    pub fn set_shrinking(&self, on: bool) {
        self.shrinking.store(on, Ordering::Relaxed);
    }

    /// Whether to keep one span per execution.
    pub fn set_keep_spans(&self, on: bool) {
        self.keep_spans.store(on, Ordering::Relaxed);
    }

    /// Sums and clears every slot: the stats, and the execution spans
    /// with ids numbered from `first_id`.
    pub fn take(&self, first_id: u32) -> (LayerStats, Vec<Span>) {
        let mut total = LayerStats::default();
        let mut spans = Vec::new();
        for slot in &self.slots {
            let slot = std::mem::take(&mut *lock(slot));
            total.merge(&slot.stats);
            for (parent, host, start_ns, end_ns) in slot.spans {
                let name = match host {
                    Host::Runtime => "execute:runtime",
                    Host::Vm => "execute:vm",
                };
                spans.push(Span {
                    id: 0,
                    parent,
                    name: name.to_string(),
                    start_ns,
                    end_ns,
                });
            }
        }
        spans.sort_by_key(|s| (s.start_ns, s.parent));
        for (i, span) in spans.iter_mut().enumerate() {
            span.id = first_id + i as u32;
        }
        (total, spans)
    }

    /// A slot no other thread holds. With at most as many concurrent
    /// executions as slots, the first free one is found without
    /// waiting.
    fn slot(&self) -> MutexGuard<'_, Slot> {
        for slot in &self.slots {
            match slot.try_lock() {
                Ok(guard) => return guard,
                Err(TryLockError::Poisoned(e)) => return e.into_inner(),
                Err(TryLockError::WouldBlock) => {}
            }
        }
        lock(&self.slots[0])
    }
}

/// Every update of a slot leaves it valid, so a panic in the program
/// (which unwinds through `execute` while the slot is held) leaves data
/// that is safe to keep using.
fn lock(slot: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

/// The decorator: `program`, timed into `recorder`.
pub struct Traced<'a> {
    /// The wrapped program.
    pub program: &'a (dyn ControlledProgram + Sync),
    /// Which host runs it.
    pub host: Host,
    /// Where measurements go.
    pub recorder: &'a Recorder,
}

impl Traced<'_> {
    fn run(
        &self,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn StateSink,
        observer: Option<&mut dyn SearchObserver>,
    ) -> ExecutionResult {
        let rec = self.recorder;
        if rec.shrinking.load(Ordering::Relaxed) {
            return match observer {
                Some(o) => self.program.execute_observed(scheduler, sink, o),
                None => self.program.execute(scheduler, sink),
            };
        }
        let mut guard = rec.slot();
        let Slot { stats, prev, spans } = &mut *guard;
        let sink_ns = Cell::new(0);
        let start = Instant::now();
        let mut sched = TimedScheduler {
            inner: scheduler,
            pick: &mut stats.pick,
            pick_ns: 0,
            fault_points: 0,
            choices: Vec::with_capacity(prev.len()),
            step: match self.host {
                Host::Runtime => &mut stats.runtime.step,
                Host::Vm => &mut stats.vm.step,
            },
            gap_ns: 0,
            pending_gap: 0,
            mark: start,
            sink_ns: &sink_ns,
            sink_mark: 0,
        };
        let mut timed_sink = TimedSink {
            inner: sink,
            visit: &mut stats.visit,
            visits: 0,
            sink_ns: &sink_ns,
        };
        let mut race_ns = 0;
        let result = match observer {
            Some(inner) => {
                let mut obs = PhaseObserver {
                    inner,
                    race_ns: &mut race_ns,
                };
                self.program
                    .execute_observed(&mut sched, &mut timed_sink, &mut obs)
            }
            None => self.program.execute(&mut sched, &mut timed_sink),
        };
        let end = Instant::now();
        sched.take_gap(end);
        let TimedScheduler {
            pick_ns,
            fault_points,
            choices,
            gap_ns,
            pending_gap,
            ..
        } = sched;
        let visits = timed_sink.visits;
        let host = match self.host {
            Host::Runtime => &mut stats.runtime,
            Host::Vm => &mut stats.vm,
        };
        let exec_ns = ns(end - start);
        host.exec.record(exec_ns);
        host.exec_ns += exec_ns;
        stats.gap_ns += gap_ns + pending_gap;
        stats.pick_ns += pick_ns;
        stats.executions += 1;
        stats.steps += choices.len() as u64;
        stats.fault_points += fault_points;
        stats.replayed_steps += prev
            .iter()
            .zip(&choices)
            .take_while(|(a, b)| a == b)
            .count() as u64;
        stats.visits += visits;
        stats.visit_ns += sink_ns.get();
        stats.race_ns += race_ns;
        *prev = choices;
        if rec.keep_spans.load(Ordering::Relaxed) {
            let parent = rec.search_span.load(Ordering::Relaxed);
            spans.push((
                parent,
                self.host,
                ns(start - rec.epoch),
                ns(end - rec.epoch),
            ));
        }
        result
    }
}

impl ControlledProgram for Traced<'_> {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
        self.run(scheduler, sink, None)
    }

    fn execute_observed(
        &self,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult {
        self.run(scheduler, sink, Some(observer))
    }

    fn executions_per_run(&self) -> usize {
        self.program.executions_per_run()
    }

    fn fingerprints_are_exact(&self) -> bool {
        self.program.fingerprints_are_exact()
    }
}

/// Times `pick` / `decide_fault` and the host gaps between them.
struct TimedScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    pick: &'a mut Histogram,
    pick_ns: u64,
    fault_points: u64,
    choices: Vec<Tid>,
    step: &'a mut Histogram,
    /// Gap time already attributed (closed steps and the head).
    gap_ns: u64,
    /// Gap time since the last pick not yet closed into a step.
    pending_gap: u64,
    /// When the scheduler last returned (or the execution started).
    mark: Instant,
    sink_ns: &'a Cell<u64>,
    /// `sink_ns` at `mark`: sink time inside a gap is not host time.
    sink_mark: u64,
}

impl TimedScheduler<'_> {
    /// Adds the host time since `mark` to the open gap.
    fn take_gap(&mut self, now: Instant) {
        let sink = self.sink_ns.get() - self.sink_mark;
        self.pending_gap += ns(now - self.mark).saturating_sub(sink);
    }

    fn set_mark(&mut self, now: Instant) {
        self.mark = now;
        self.sink_mark = self.sink_ns.get();
    }
}

impl Scheduler for TimedScheduler<'_> {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        let start = Instant::now();
        self.take_gap(start);
        // The gap before the first pick is execution set-up, not a step.
        if !self.choices.is_empty() {
            self.step.record(self.pending_gap);
        }
        self.gap_ns += std::mem::take(&mut self.pending_gap);
        let tid = self.inner.pick(point);
        let end = Instant::now();
        let d = ns(end - start);
        self.pick.record(d);
        self.pick_ns += d;
        self.choices.push(tid);
        self.set_mark(end);
        tid
    }

    fn decide_fault(&mut self, point: FaultPoint) -> bool {
        let start = Instant::now();
        self.take_gap(start);
        let fault = self.inner.decide_fault(point);
        let end = Instant::now();
        self.pick_ns += ns(end - start);
        self.fault_points += 1;
        self.set_mark(end);
        fault
    }
}

/// Times `visit`.
struct TimedSink<'a> {
    inner: &'a mut dyn StateSink,
    visit: &'a mut Histogram,
    visits: u64,
    sink_ns: &'a Cell<u64>,
}

impl StateSink for TimedSink<'_> {
    fn visit(&mut self, fingerprint: u64) {
        let start = Instant::now();
        self.inner.visit(fingerprint);
        let d = ns(start.elapsed());
        self.visit.record(d);
        self.visits += 1;
        self.sink_ns.set(self.sink_ns.get() + d);
    }
}

/// Forwards every event, asks the host for phase timing, and keeps the
/// race-detection time.
struct PhaseObserver<'a> {
    inner: &'a mut dyn SearchObserver,
    race_ns: &'a mut u64,
}

impl SearchObserver for PhaseObserver<'_> {
    fn search_started(&mut self, strategy: &str) {
        self.inner.search_started(strategy)
    }
    fn execution_started(&mut self, index: usize) {
        self.inner.execution_started(index)
    }
    fn execution_finished(
        &mut self,
        index: usize,
        stats: &ExecStats,
        outcome: &ExecutionOutcome,
        distinct_states: usize,
    ) {
        self.inner
            .execution_finished(index, stats, outcome, distinct_states)
    }
    fn bound_started(&mut self, bound: usize, work_items: usize) {
        self.inner.bound_started(bound, work_items)
    }
    fn bound_completed(&mut self, stats: &BoundStats, wall_time: Duration) {
        self.inner.bound_completed(stats, wall_time)
    }
    fn bug_found(&mut self, bug: &BugReport) {
        self.inner.bug_found(bug)
    }
    fn work_item_deferred(&mut self, next_bound: usize) {
        self.inner.work_item_deferred(next_bound)
    }
    fn work_queue_depth(&mut self, depth: usize) {
        self.inner.work_queue_depth(depth)
    }
    fn race_detected(&mut self, description: &str) {
        self.inner.race_detected(description)
    }
    fn worker_stamp(&mut self, worker: usize, seq: u64, at: Duration) {
        self.inner.worker_stamp(worker, seq, at)
    }
    fn wants_choice_points(&self) -> bool {
        self.inner.wants_choice_points()
    }
    fn wants_phase_timing(&self) -> bool {
        true
    }
    fn choice_point(&mut self, site: SiteId, bound: usize, kind: ChoiceKind) {
        self.inner.choice_point(site, bound, kind)
    }
    fn preemption_taken(&mut self, site: SiteId) {
        self.inner.preemption_taken(site)
    }
    fn fault_injected(&mut self, site: SiteId, step: usize) {
        self.inner.fault_injected(site, step)
    }
    fn worker_panic(&mut self, worker: usize, message: &str) {
        self.inner.worker_panic(worker, message)
    }
    fn phase_time(&mut self, phase: Phase, elapsed: Duration) {
        if phase == Phase::RaceDetection {
            *self.race_ns += ns(elapsed);
        }
        if self.inner.wants_phase_timing() {
            self.inner.phase_time(phase, elapsed)
        }
    }
    fn search_aborted(&mut self, reason: AbortReason) {
        self.inner.search_aborted(reason)
    }
    fn search_resumed(&mut self, info: &ResumeInfo) {
        self.inner.search_resumed(info)
    }
    fn checkpoint_written(&mut self, executions: usize) {
        self.inner.checkpoint_written(executions)
    }
    fn trace_quarantined(&mut self, quarantined: &QuarantinedTrace) {
        self.inner.trace_quarantined(quarantined)
    }
    fn cache_hit(&mut self, count: usize) {
        self.inner.cache_hit(count)
    }
    fn cache_store(&mut self, count: usize) {
        self.inner.cache_store(count)
    }
    fn bound_certified(&mut self, bound: Option<usize>) {
        self.inner.bound_certified(bound)
    }
    fn metrics_snapshot(&mut self, snapshot: &MetricsSnapshot) {
        self.inner.metrics_snapshot(snapshot)
    }
    fn search_finished(&mut self, report: &SearchReport) {
        self.inner.search_finished(report)
    }
}
