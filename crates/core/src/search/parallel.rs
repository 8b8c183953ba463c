//! Parallel exploration drivers: N workers over a shared [`Frontier`],
//! one event pump, one deterministic merge.
//!
//! CHESS-style stateless checking parallelizes along work items: a
//! schedule prefix can be replayed by any worker, and replay determinism
//! makes the set of executions explored independent of which worker ran
//! which item. The drivers here exploit that:
//!
//! * **Workers** (`std::thread::scope`) each own their scheduler, their
//!   replay engine (engines are constructed per execution, so isolation
//!   is automatic — including the per-execution watchdog) and a local
//!   coverage dedup. They take items from the [`Frontier`], run the same
//!   nested DFS the sequential drivers run, and *dissolve* their
//!   unexplored remainder back into plain prefixes whenever a peer is
//!   starving (work stealing) or a checkpoint quiesce is requested.
//! * **The pump** runs on the calling thread and exclusively owns the
//!   `&mut dyn SearchObserver` (observers need not be `Send`). Workers
//!   send one owned [`ExecEvent`] per execution over an `mpsc` channel;
//!   the pump replays each as the usual event sequence, prefixed with a
//!   [`worker_stamp`](SearchObserver::worker_stamp) whose per-worker
//!   sequence numbers let downstream consumers prove the merged log lost
//!   and duplicated nothing.
//! * **The merge** is deterministic where the mathematics allows it:
//!   coverage is a set union, per-execution maxima commute, and bug
//!   reports are keyed by `(preemptions, schedule)` in a `BTreeMap` so
//!   the final report lists them minimal-preemptions-first with
//!   lexicographic schedule tie-breaks — independent of worker timing
//!   and of the worker count. Arrival-order quantities (the execution
//!   index a given schedule ran at, the streaming `bug_found` order) are
//!   inherently racy and are canonicalized in the final report.
//!
//! Checkpoints are written at *quiesce points*: the frontier is paused,
//! workers return their dissolved remainders, the event channel is
//! drained, and the queue then **is** the complete set of unexplored
//! work — a snapshot of it is resumable at any `--jobs` count.

use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::cache::{coverage_credit, ExplorationCache};
use crate::coverage::{mix64, StateSink};
use crate::metrics::MetricsRegistry;
use crate::program::{ControlledProgram, SchedulePoint, Scheduler};
use crate::rng::SplitMix64;
use crate::search::dfs::{Branch as DfsBranch, GatedSink};
use crate::search::frontier::Frontier;
use crate::search::icb::{Branch as IcbBranch, CursorSink, ItemCache, ItemScheduler};
use crate::search::{
    choice_events, execute_recovering, fault_events, BoundStats, BugReport, CacheBinding,
    CacheSummary, ChoiceEvent, QuarantinedTrace, SearchConfig, SearchReport, Strategy,
};
use crate::snapshot::{
    interrupt, Checkpointer, IcbState, ParallelDfsState, ParallelRandomState, ResumeBase,
    SearchSnapshot, StrategyState,
};
use crate::telemetry::{AbortReason, Phase, ResumeInfo, SearchObserver, SiteId};
use crate::tid::Tid;
use crate::trace::{DivergencePayload, ExecStats, ExecutionOutcome, Schedule};

/// How long the pump sleeps in `recv_timeout` between control checks
/// (deadline, interrupt, checkpoint cadence).
const PUMP_TICK: Duration = Duration::from_millis(5);

/// Everything the pump needs to replay one worker execution through the
/// observer and fold it into the merged totals.
struct ExecEvent {
    worker: usize,
    /// 1-based, contiguous per worker: the `worker_stamp` payload.
    seq: u64,
    /// Wall-clock offset since the search began, stamped worker-side
    /// when the execution finished. The pump replays events in arrival
    /// order, so this is the only correct time base for
    /// throughput-over-time series at `jobs > 1`.
    at: Duration,
    /// Execution-count cost of this event (`executions_per_run`).
    cost: usize,
    stats: ExecStats,
    outcome: ExecutionOutcome,
    /// Fingerprints not previously seen by *this worker* (the master set
    /// dedups globally).
    fresh: Vec<u64>,
    /// The full failing schedule, when `outcome.is_bug()`.
    bug_schedule: Option<Schedule>,
    /// Attributed per-step decisions (only when the observer asked).
    choice: Vec<ChoiceEvent>,
    races: Vec<String>,
    phases: Vec<(Phase, Duration)>,
    /// ICB: work items deferred to the next *preemption* bound
    /// (`(c + 1, f)`) by this execution.
    deferred: Vec<Schedule>,
    /// ICB: work items deferred to the next *fault* level (`(c, f + 1)`)
    /// by this execution. Always empty at fault bound 0.
    deferred_faults: Vec<Schedule>,
    /// Faults injected during this execution, as `(site, step)` pairs
    /// for the pump to replay through the observer.
    faults: Vec<(SiteId, usize)>,
    quarantine: Option<QuarantinedTrace>,
    /// Fingerprint-cache hits (pruned emissions) of this execution.
    cache_hits: usize,
    /// Fingerprint-cache stores (recorded subtrees) of this execution.
    cache_stores: usize,
    /// `Some(message)` when the program panicked out of this run (not a
    /// replay divergence). The event then carries no execution result:
    /// the pump emits `worker_panic` (plus the quarantine record, on the
    /// second strike) and skips the per-execution bookkeeping.
    panic: Option<String>,
}

/// Renders a caught panic payload for the `worker-panic` event.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Worker-side observer: buffers the engine-level events of one
/// execution (races, phase timings) for the pump to replay in order.
struct BufObserver {
    races: Vec<String>,
    phases: Vec<(Phase, Duration)>,
    want_phases: bool,
}

impl BufObserver {
    fn new(want_phases: bool) -> Self {
        BufObserver {
            races: Vec::new(),
            phases: Vec::new(),
            want_phases,
        }
    }
}

impl SearchObserver for BufObserver {
    fn race_detected(&mut self, description: &str) {
        self.races.push(description.to_string());
    }
    fn wants_phase_timing(&self) -> bool {
        self.want_phases
    }
    fn phase_time(&mut self, phase: Phase, elapsed: Duration) {
        self.phases.push((phase, elapsed));
    }
}

/// Worker-local coverage dedup: forwards each fingerprint to the event
/// at most once per worker, cutting channel traffic; the pump's master
/// set is the authority.
#[derive(Default)]
struct DedupSink {
    seen: HashSet<u64>,
    fresh: Vec<u64>,
}

impl DedupSink {
    fn take_fresh(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.fresh)
    }
}

impl StateSink for DedupSink {
    fn visit(&mut self, fingerprint: u64) {
        if self.seen.insert(fingerprint) {
            self.fresh.push(fingerprint);
        }
    }
}

/// The pump-side merge state: the parallel analogue of `SearchCtx`,
/// accumulating the order-independent totals and canonicalizing the
/// order-dependent ones.
struct Ledger<'o> {
    config: SearchConfig,
    started: Instant,
    /// Union of all workers' state fingerprints.
    master: HashSet<u64>,
    /// Coverage growth samples; parallel runs sample at deterministic
    /// barriers (per ICB bound / at the end), not per execution.
    curve: Vec<(usize, usize)>,
    /// Executions as counted by the coverage tracker (one per event).
    coverage_executions: usize,
    executions: usize,
    buggy_executions: usize,
    /// Bugs keyed `(preemptions, faults, schedule)`: iteration order is
    /// the canonical minimal-first report order regardless of arrival
    /// order (lexicographic, matching the `(c, f)` level order).
    bugs: BTreeMap<(usize, usize, Schedule), BugReport>,
    max_stats: ExecStats,
    quarantined: Vec<QuarantinedTrace>,
    quarantined_total: usize,
    watchdog_trips: usize,
    truncated: bool,
    stop: bool,
    abort: Option<AbortReason>,
    current_bound: usize,
    /// ICB: `(c + 1, f)` work items collected from events this level.
    deferred: Vec<Schedule>,
    /// ICB: `(c, f + 1)` work items collected from events this level.
    deferred_faults: Vec<Schedule>,
    /// ICB: total items already queued at not-yet-run levels (for the
    /// `work_queue_depth` event, which reports all pending work).
    pending_depth: usize,
    /// Emit `work_queue_depth` after events (ICB only).
    track_queue: bool,
    want_choice: bool,
    /// Cache accounting; `Some` only when a cache is attached.
    cache: Option<CacheSummary>,
    /// Live registry mirror of pump-side quantities (channel depth,
    /// recv-timeout stalls). Event-level mirroring is the bridge's job.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Events sent but not yet applied — the observer-pump backlog.
    backlog: Arc<AtomicUsize>,
    observer: &'o mut dyn SearchObserver,
}

impl<'o> Ledger<'o> {
    fn new(
        config: SearchConfig,
        observer: &'o mut dyn SearchObserver,
        track_queue: bool,
        metrics: Option<Arc<MetricsRegistry>>,
        backlog: Arc<AtomicUsize>,
    ) -> Self {
        let want_choice = observer.wants_choice_points();
        Ledger {
            config,
            started: Instant::now(),
            master: HashSet::new(),
            curve: Vec::new(),
            coverage_executions: 0,
            executions: 0,
            buggy_executions: 0,
            bugs: BTreeMap::new(),
            max_stats: ExecStats::default(),
            quarantined: Vec::new(),
            quarantined_total: 0,
            watchdog_trips: 0,
            truncated: false,
            stop: false,
            abort: None,
            current_bound: 0,
            deferred: Vec::new(),
            deferred_faults: Vec::new(),
            pending_depth: 0,
            track_queue,
            want_choice,
            cache: None,
            metrics,
            backlog,
            observer,
        }
    }

    /// Counts one pump `recv_timeout` expiry (an idle pump tick).
    fn note_pump_stall(&self) {
        if let Some(m) = &self.metrics {
            m.pump_recv_timeout();
        }
    }

    /// Seeds the merge state from a checkpoint and announces the resume.
    fn restore(&mut self, base: ResumeBase, bound: usize, bound_executions: usize) {
        self.executions = base.executions;
        self.buggy_executions = base.buggy_executions;
        for bug in base.bugs {
            self.bugs
                .insert((bug.preemptions, bug.faults, bug.schedule.clone()), bug);
        }
        self.max_stats = base.max_stats;
        self.quarantined = base.quarantined;
        self.quarantined_total = base.quarantined_total;
        self.watchdog_trips = base.watchdog_trips;
        self.truncated = base.truncated;
        self.master = base.coverage_states.into_iter().collect();
        self.coverage_executions = base.coverage_executions;
        self.curve = base.coverage_curve;
        self.current_bound = bound;
        let info = ResumeInfo {
            executions: self.executions,
            distinct_states: self.master.len(),
            bound,
            bound_executions,
        };
        self.observer.search_resumed(&info);
    }

    fn remaining_budget(&self) -> usize {
        match self.config.max_executions {
            Some(max) => max.saturating_sub(self.executions),
            None => usize::MAX,
        }
    }

    fn over_deadline(&self) -> bool {
        self.config
            .max_duration
            .is_some_and(|limit| self.started.elapsed() >= limit)
    }

    fn halt(&mut self, reason: AbortReason) {
        if !self.stop {
            self.stop = true;
            self.abort = Some(reason);
            self.observer.search_aborted(reason);
        }
    }

    /// Replays one worker execution through the observer, in the same
    /// per-execution event order the sequential drivers emit, prefixed
    /// with the worker stamp.
    fn apply(&mut self, ev: ExecEvent) {
        let backlog = self
            .backlog
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        if let Some(m) = &self.metrics {
            m.set_pump_channel_depth(backlog);
        }
        self.observer.worker_stamp(ev.worker, ev.seq, ev.at);
        if let Some(message) = &ev.panic {
            // A panicked run produced no execution result: surface the
            // event (and the quarantine record on the second strike),
            // keep whatever coverage the partial run visited, and skip
            // the per-execution bookkeeping.
            self.observer.worker_panic(ev.worker, message);
            for &fp in &ev.fresh {
                self.master.insert(fp);
            }
            if let Some(q) = ev.quarantine {
                self.quarantined_total += 1;
                self.observer.trace_quarantined(&q);
                self.quarantined.push(q);
            }
            return;
        }
        self.observer.execution_started(self.executions + 1);
        for race in &ev.races {
            self.observer.race_detected(race);
        }
        for &(phase, elapsed) in &ev.phases {
            self.observer.phase_time(phase, elapsed);
        }
        for &fp in &ev.fresh {
            self.master.insert(fp);
        }
        self.coverage_executions += 1;
        self.executions += ev.cost;
        self.max_stats = self.max_stats.max(ev.stats);
        if self.want_choice {
            for c in &ev.choice {
                self.observer
                    .choice_point(c.site, self.current_bound, c.kind);
                if let Some(victim) = c.victim {
                    self.observer.preemption_taken(victim);
                }
            }
        }
        for &(site, step) in &ev.faults {
            self.observer.fault_injected(site, step);
        }
        self.observer.execution_finished(
            self.executions,
            &ev.stats,
            &ev.outcome,
            self.master.len(),
        );
        if ev.outcome == ExecutionOutcome::WatchdogTimeout {
            self.watchdog_trips += 1;
        }
        if let Some(q) = ev.quarantine {
            self.quarantined_total += 1;
            self.observer.trace_quarantined(&q);
            self.quarantined.push(q);
        }
        if ev.outcome.is_bug() {
            self.buggy_executions += 1;
            if let Some(schedule) = ev.bug_schedule {
                let key = (ev.stats.preemptions, ev.stats.faults, schedule.clone());
                if !self.bugs.contains_key(&key) {
                    let bug = BugReport {
                        outcome: ev.outcome.clone(),
                        schedule,
                        preemptions: ev.stats.preemptions,
                        faults: ev.stats.faults,
                        // Arrival-order index for the streamed event; the
                        // final report canonicalizes to rank order.
                        execution_index: self.executions,
                        steps: ev.stats.steps,
                    };
                    self.observer.bug_found(&bug);
                    self.bugs.insert(key, bug);
                    // Keep the minimal-key reports when over the cap.
                    while self.bugs.len() > self.config.max_bug_reports {
                        self.bugs.pop_last();
                    }
                }
            }
        }
        if !ev.deferred.is_empty() {
            for item in ev.deferred {
                self.deferred.push(item);
                self.observer.work_item_deferred(self.current_bound + 1);
            }
        }
        if !ev.deferred_faults.is_empty() {
            // Fault deferrals run at the *same* preemption bound (next
            // fault level), matching the sequential driver's event.
            for item in ev.deferred_faults {
                self.deferred_faults.push(item);
                self.observer.work_item_deferred(self.current_bound);
            }
        }
        if ev.cache_hits > 0 || ev.cache_stores > 0 {
            if let Some(c) = &mut self.cache {
                c.hits += ev.cache_hits;
                c.stores += ev.cache_stores;
            }
            if ev.cache_hits > 0 {
                self.observer.cache_hit(ev.cache_hits);
            }
            if ev.cache_stores > 0 {
                self.observer.cache_store(ev.cache_stores);
            }
        }
        if self.track_queue {
            self.observer.work_queue_depth(
                self.pending_depth + self.deferred.len() + self.deferred_faults.len(),
            );
        }
    }

    /// Canonically ordered bug reports: minimal preemptions first, then
    /// lexicographic schedule; `execution_index` becomes the 1-based rank.
    fn canonical_bugs(&self) -> Vec<BugReport> {
        let mut bugs: Vec<BugReport> = self.bugs.values().cloned().collect();
        for (i, b) in bugs.iter_mut().enumerate() {
            b.execution_index = i + 1;
        }
        bugs
    }

    /// Canonically ordered quarantined prefixes, capped like bug reports.
    fn canonical_quarantined(&self) -> Vec<QuarantinedTrace> {
        let mut qs = self.quarantined.clone();
        qs.sort_by(|a, b| (&a.schedule, a.step).cmp(&(&b.schedule, b.step)));
        qs.truncate(self.config.max_bug_reports);
        qs
    }

    /// The strategy-independent half of a checkpoint, from the merged
    /// totals (canonically ordered, so snapshot bytes are independent of
    /// worker timing).
    fn snapshot_base(&self) -> ResumeBase {
        let mut states: Vec<u64> = self.master.iter().copied().collect();
        states.sort_unstable();
        ResumeBase {
            executions: self.executions,
            buggy_executions: self.buggy_executions,
            bugs: self.canonical_bugs(),
            max_stats: self.max_stats,
            quarantined: self.canonical_quarantined(),
            quarantined_total: self.quarantined_total,
            watchdog_trips: self.watchdog_trips,
            truncated: self.truncated,
            coverage_states: states,
            coverage_executions: self.coverage_executions,
            coverage_curve: self.curve.clone(),
        }
    }

    /// Converts the ledger into the final report (emitting
    /// `search_finished`).
    fn into_report(
        self,
        strategy: String,
        completed: bool,
        completed_bound: Option<usize>,
        bound_history: Vec<BoundStats>,
    ) -> SearchReport {
        let report = SearchReport {
            strategy,
            executions: self.executions,
            distinct_states: self.master.len(),
            coverage_curve: self.curve.clone(),
            bugs: self.canonical_bugs(),
            buggy_executions: self.buggy_executions,
            completed,
            completed_bound,
            bound_history,
            max_stats: self.max_stats,
            truncated: self.truncated || self.abort == Some(AbortReason::Timeout),
            quarantined: self.canonical_quarantined(),
            quarantined_total: self.quarantined_total,
            watchdog_trips: self.watchdog_trips,
            cache: self.cache.clone(),
        };
        self.observer.search_finished(&report);
        report
    }
}

// ---------------------------------------------------------------------
// Shared worker plumbing
// ---------------------------------------------------------------------

/// Claims `cost` executions against the shared budget. Claim failure is
/// *terminal* for the caller: returning the item and exiting (instead of
/// retrying) avoids a livelock where every worker spins on a drained
/// budget while the frontier still holds work.
fn claim_budget(claimed: &AtomicUsize, budget: usize, cost: usize) -> bool {
    claimed.fetch_add(cost, Ordering::SeqCst) < budget
}

/// Dissolves an ICB work item's unexplored remainder into plain prefix
/// items. `path` is the full schedule of the item's *last* run and
/// `stack` its branch stack *after* backtracking: the deepest level's
/// current option and every level's later options are exactly the runs
/// the nested DFS has left, and each becomes `path[..step] · option` — a
/// fresh item whose own `fresh_from` (its prefix length, `step + 1`)
/// matches what this item would have used after backtracking to that
/// level, so deferral emission is unchanged by the dissolution.
fn dissolve_icb(path: &Schedule, stack: &[IcbBranch]) -> Vec<IcbItem> {
    let mut items = Vec::new();
    for (j, b) in stack.iter().enumerate() {
        let lo = if j + 1 == stack.len() {
            b.next_ix
        } else {
            b.next_ix + 1
        };
        for &option in &b.options[lo..] {
            let mut prefix = path.clone();
            prefix.truncate(b.step);
            prefix.push(option);
            items.push((prefix, Vec::new(), false));
        }
    }
    items
}

/// DFS analogue of [`dissolve_icb`]: branch level `j` of an item with
/// prefix length `p` sits at step `p + j` (parallel DFS branches at every
/// in-bound point past the prefix).
fn dissolve_dfs(prefix_len: usize, path: &Schedule, stack: &[DfsBranch]) -> Vec<DfsItem> {
    let mut items = Vec::new();
    for (j, b) in stack.iter().enumerate() {
        let lo = if j + 1 == stack.len() {
            b.next_ix
        } else {
            b.next_ix + 1
        };
        for &option in &b.options[lo..] {
            let mut prefix = path.clone();
            prefix.truncate(prefix_len + j);
            prefix.push(option);
            items.push((prefix, Vec::new(), false));
        }
    }
    items
}

/// Pops the deepest branch with options left (advancing it) and drops
/// exhausted ones. Returns `true` when the item is fully explored.
/// Identical to the sequential drivers' backtrack step.
fn backtrack_icb(stack: &mut Vec<IcbBranch>) -> bool {
    loop {
        match stack.last_mut() {
            Some(top) if top.next_ix + 1 < top.options.len() => {
                top.next_ix += 1;
                return false;
            }
            Some(_) => {
                stack.pop();
            }
            None => return true,
        }
    }
}

fn backtrack_dfs(stack: &mut Vec<DfsBranch>) -> bool {
    loop {
        match stack.last_mut() {
            Some(top) if top.next_ix + 1 < top.options.len() => {
                top.next_ix += 1;
                return false;
            }
            Some(_) => {
                stack.pop();
            }
            None => return true,
        }
    }
}

/// Immutable bundle of the knobs every worker needs.
struct WorkerEnv<'a> {
    program: &'a (dyn ControlledProgram + Sync),
    stop: &'a AtomicBool,
    claimed: &'a AtomicUsize,
    budget: usize,
    want_choice: bool,
    want_phases: bool,
    /// Shared time base for worker-side event stamps.
    epoch: Instant,
    /// Live registry for per-worker busy/idle/donation accounting.
    metrics: Option<&'a MetricsRegistry>,
    /// Events sent but not yet applied by the pump (channel depth).
    backlog: &'a AtomicUsize,
}

impl WorkerEnv<'_> {
    /// Stamps an event about to be sent: the channel-depth counter must
    /// rise *before* the send so the pump's decrement never underflows.
    fn stamp(&self) -> Duration {
        self.backlog.fetch_add(1, Ordering::Relaxed);
        self.epoch.elapsed()
    }
}

// ---------------------------------------------------------------------
// Parallel ICB
// ---------------------------------------------------------------------

/// `(prefix, branch stack, retried)` — `retried` marks an item already
/// requeued once after a worker-side panic; a second panic quarantines
/// it instead of retrying again.
type IcbItem = (Schedule, Vec<IcbBranch>, bool);

#[allow(clippy::too_many_arguments)]
fn icb_worker(
    env: &WorkerEnv<'_>,
    frontier: &Frontier<IcbItem>,
    tx: mpsc::Sender<ExecEvent>,
    worker: usize,
    seq: &AtomicU64,
    cache: Option<(&dyn ExplorationCache, Option<u32>, Option<u32>)>,
    emit_faults: bool,
) {
    let cost = env.program.executions_per_run().max(1);
    let mut dedup = DedupSink::default();
    let cursor = Rc::new(Cell::new(0u64));
    'items: loop {
        let wait = Instant::now();
        let Some((prefix, mut stack, retried)) = frontier.pop() else {
            break;
        };
        if let Some(m) = env.metrics {
            m.worker_idle(worker, wait.elapsed());
        }
        let mut first_run = stack.is_empty();
        loop {
            if env.stop.load(Ordering::SeqCst) {
                frontier.complete();
                return;
            }
            if !claim_budget(env.claimed, env.budget, cost) {
                frontier.push_many([(prefix, stack, retried)]);
                frontier.complete();
                return;
            }
            let fresh_from = if first_run && stack.is_empty() {
                prefix.len()
            } else {
                stack.last().map_or(prefix.len(), |b| b.step + 1)
            };
            first_run = false;
            // Kept so a panicking run can be requeued from its pre-run
            // state (the scheduler's stack is garbage after a panic).
            let stack_backup = stack.clone();
            let mut sched = ItemScheduler {
                prefix: &prefix,
                stack,
                cursor: 0,
                path: Schedule::new(),
                fresh_from,
                emitted: Vec::new(),
                emitted_faults: Vec::new(),
                emit_faults,
                cache: cache.map(|(cache, credit, fault_credit)| ItemCache {
                    cache,
                    state: Rc::clone(&cursor),
                    credit,
                    fault_credit,
                    hits: 0,
                    stores: 0,
                }),
            };
            let mut buf = BufObserver::new(env.want_phases);
            let busy = Instant::now();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some((cache, _, _)) = cache {
                    cursor.set(0);
                    let mut sink = CursorSink {
                        inner: &mut dedup,
                        state: &cursor,
                        cache,
                    };
                    execute_recovering(env.program, &mut sched, &mut sink, &mut buf)
                } else {
                    execute_recovering(env.program, &mut sched, &mut dedup, &mut buf)
                }
            }));
            if let Some(m) = env.metrics {
                m.worker_busy(worker, busy.elapsed());
                m.worker_execution(worker);
            }
            let result = match run {
                Ok(result) => result,
                Err(payload) => {
                    // The program panicked out of the run. First strike:
                    // requeue the item (marked) for one retry. Second:
                    // quarantine its prefix and abandon the item.
                    drop(sched); // releases the borrow of `prefix`
                    let quarantine = retried.then(|| QuarantinedTrace {
                        schedule: prefix.clone(),
                        step: prefix.len(),
                        expected: Tid(0),
                        actual: Vec::new(),
                    });
                    let _ = tx.send(ExecEvent {
                        worker,
                        seq: seq.fetch_add(1, Ordering::Relaxed) + 1,
                        at: env.stamp(),
                        cost,
                        stats: ExecStats::default(),
                        outcome: ExecutionOutcome::Terminated,
                        fresh: dedup.take_fresh(),
                        bug_schedule: None,
                        choice: Vec::new(),
                        races: std::mem::take(&mut buf.races),
                        phases: std::mem::take(&mut buf.phases),
                        deferred: Vec::new(),
                        deferred_faults: Vec::new(),
                        faults: Vec::new(),
                        quarantine,
                        cache_hits: 0,
                        cache_stores: 0,
                        panic: Some(panic_message(payload)),
                    });
                    if !retried {
                        frontier.push_many([(prefix, stack_backup, true)]);
                    }
                    frontier.complete();
                    continue 'items;
                }
            };
            let ItemScheduler {
                stack: run_stack,
                path,
                emitted,
                emitted_faults,
                cache: item_cache,
                ..
            } = sched;
            stack = run_stack;
            let (cache_hits, cache_stores) = item_cache.map_or((0, 0), |c| (c.hits, c.stores));

            let (quarantine, deferred, deferred_faults) =
                if let ExecutionOutcome::ReplayDivergence {
                    step,
                    expected,
                    ref actual,
                } = result.outcome
                {
                    // Determinism broke on this path: forfeit its emitted
                    // items, quarantine the diverging schedule.
                    (
                        Some(QuarantinedTrace {
                            schedule: path.clone(),
                            step,
                            expected,
                            actual: actual.clone(),
                        }),
                        Vec::new(),
                        Vec::new(),
                    )
                } else {
                    (None, emitted, emitted_faults)
                };

            let item_done = backtrack_icb(&mut stack);
            let _ = tx.send(ExecEvent {
                worker,
                // fetch_add, not a local counter: the swarm is re-spawned
                // at every bound barrier, but a worker's stamps must stay
                // contiguous across the whole search.
                seq: seq.fetch_add(1, Ordering::Relaxed) + 1,
                at: env.stamp(),
                cost,
                stats: result.stats,
                bug_schedule: result.outcome.is_bug().then(|| result.trace.schedule()),
                choice: if env.want_choice {
                    choice_events(&result)
                } else {
                    Vec::new()
                },
                faults: if result.stats.faults > 0 {
                    fault_events(&result)
                } else {
                    Vec::new()
                },
                outcome: result.outcome,
                fresh: dedup.take_fresh(),
                races: std::mem::take(&mut buf.races),
                phases: std::mem::take(&mut buf.phases),
                deferred,
                deferred_faults,
                quarantine,
                cache_hits,
                cache_stores,
                panic: None,
            });
            if item_done {
                frontier.complete();
                continue 'items;
            }
            if frontier.paused() || frontier.starving() {
                let donated = dissolve_icb(&path, &stack);
                if let Some(m) = env.metrics {
                    m.steal_donation(donated.len());
                    m.worker_donation(worker);
                }
                frontier.push_many(donated);
                frontier.complete();
                continue 'items;
            }
        }
    }
}

/// Per-level bookkeeping the pump needs to write mid-level checkpoints.
struct IcbBoundCtx {
    bound: usize,
    /// Fault level `f` of the `(c, f)` level currently being drained.
    fault: usize,
    execs_base: usize,
    bugs_base: usize,
    completed_bound: Option<usize>,
    bound_history: Vec<BoundStats>,
    /// Work already queued at not-yet-run levels, keyed `(c, f)` —
    /// the parallel analogue of the sequential driver's deferred map
    /// (minus the current level's still-accruing items, which live in
    /// the ledger until the level barrier folds them in).
    pending: BTreeMap<(usize, usize), Vec<Schedule>>,
}

/// Pauses the frontier, waits for every worker to return (dissolve) its
/// item, and drains the event channel: afterwards the queue is the
/// complete set of unexplored work for this bound.
fn quiesce<T>(frontier: &Frontier<T>, rx: &mpsc::Receiver<ExecEvent>, ledger: &mut Ledger<'_>) {
    frontier.pause();
    while !frontier.idle() {
        match rx.recv_timeout(PUMP_TICK) {
            Ok(ev) => ledger.apply(ev),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    while let Ok(ev) = rx.try_recv() {
        ledger.apply(ev);
    }
}

/// Splits a quiesced ICB frontier into plain prefixes plus the at most
/// one stacked item (a resumed `in_progress` no worker picked up).
fn split_icb_queue(queue: Vec<IcbItem>) -> (Vec<Schedule>, Option<(Schedule, Vec<IcbBranch>)>) {
    let mut work = Vec::new();
    let mut in_progress = None;
    for (prefix, stack, _) in queue {
        if stack.is_empty() {
            work.push(prefix);
        } else {
            in_progress = Some((prefix, stack));
        }
    }
    work.sort();
    (work, in_progress)
}

fn write_icb_checkpoint(
    ledger: &mut Ledger<'_>,
    ckpt: &mut Option<&mut Checkpointer>,
    bc: &IcbBoundCtx,
    queue: Vec<IcbItem>,
) {
    let Some(ck) = ckpt.as_deref_mut() else {
        return;
    };
    let (work, in_progress) = split_icb_queue(queue);
    // Fold the level's still-accruing deferrals into the pending-level
    // map, then emit it as sorted rows so snapshot bytes are independent
    // of worker timing.
    let mut levels = bc.pending.clone();
    if !ledger.deferred.is_empty() {
        levels
            .entry((bc.bound + 1, bc.fault))
            .or_default()
            .extend(ledger.deferred.iter().cloned());
    }
    if !ledger.deferred_faults.is_empty() {
        levels
            .entry((bc.bound, bc.fault + 1))
            .or_default()
            .extend(ledger.deferred_faults.iter().cloned());
    }
    let deferred = levels
        .into_iter()
        .map(|((c, f), mut q)| {
            q.sort();
            (c, f, q)
        })
        .collect();
    let base = ledger.snapshot_base();
    let executions = base.executions;
    let snapshot = SearchSnapshot {
        strategy: Strategy::Icb.label(),
        meta: ck.meta().to_vec(),
        config: ledger.config.clone(),
        base,
        state: StrategyState::Icb(IcbState {
            bound: bc.bound,
            fault: bc.fault,
            bound_executions_base: bc.execs_base,
            bound_bugs_base: bc.bugs_base,
            completed_bound: bc.completed_bound,
            work,
            deferred,
            bound_history: bc.bound_history.clone(),
            in_progress: in_progress
                .map(|(p, s)| (p, s.iter().map(IcbBranch::to_snapshot).collect())),
        }),
    };
    match ck.write(&snapshot) {
        Ok(()) => ledger.observer.checkpoint_written(executions),
        Err(e) => eprintln!("warning: checkpoint write failed: {e}"),
    }
}

/// Drains one ICB `(c, f)` level with a worker swarm; returns the
/// frontier's leftover items (non-empty only when the search stopped
/// mid-level).
#[allow(clippy::too_many_arguments)]
fn run_icb_bound(
    env: &WorkerEnv<'_>,
    jobs: usize,
    items: Vec<IcbItem>,
    ledger: &mut Ledger<'_>,
    ckpt: &mut Option<&mut Checkpointer>,
    bc: &IcbBoundCtx,
    seqs: &[AtomicU64],
    cache: Option<(&dyn ExplorationCache, Option<u32>, Option<u32>)>,
    emit_faults: bool,
) -> Vec<IcbItem> {
    let frontier = Frontier::with_metrics(items, ledger.metrics.clone());
    let (tx, rx) = mpsc::channel::<ExecEvent>();
    std::thread::scope(|s| {
        for (worker, seq) in seqs.iter().enumerate().take(jobs) {
            let tx = tx.clone();
            let frontier = &frontier;
            s.spawn(move || icb_worker(env, frontier, tx, worker, seq, cache, emit_faults));
        }
        drop(tx);
        loop {
            match rx.recv_timeout(PUMP_TICK) {
                Ok(ev) => ledger.apply(ev),
                Err(RecvTimeoutError::Timeout) => ledger.note_pump_stall(),
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if ledger.stop {
                continue; // drain remaining events until workers exit
            }
            if ckpt.is_some() && interrupt::interrupted() {
                quiesce(&frontier, &rx, ledger);
                write_icb_checkpoint(ledger, ckpt, bc, frontier.snapshot_queue());
                ledger.halt(AbortReason::Interrupted);
                env.stop.store(true, Ordering::SeqCst);
                frontier.close();
                continue;
            }
            if ledger.over_deadline() {
                if ckpt.is_some() {
                    quiesce(&frontier, &rx, ledger);
                    write_icb_checkpoint(ledger, ckpt, bc, frontier.snapshot_queue());
                }
                ledger.halt(AbortReason::Timeout);
                env.stop.store(true, Ordering::SeqCst);
                frontier.close();
                continue;
            }
            if ckpt.as_deref().is_some_and(|ck| ck.due(ledger.executions)) {
                quiesce(&frontier, &rx, ledger);
                write_icb_checkpoint(ledger, ckpt, bc, frontier.snapshot_queue());
                frontier.unpause();
            }
        }
    });
    frontier.snapshot_queue()
}

/// The parallel ICB driver: shards each bound's work queue across `jobs`
/// workers with a per-bound barrier, preserving the minimal-preemption
/// bug guarantee.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_parallel_icb(
    program: &(dyn ControlledProgram + Sync),
    config: &SearchConfig,
    jobs: usize,
    observer: &mut dyn SearchObserver,
    mut ckpt: Option<&mut Checkpointer>,
    resume: Option<(ResumeBase, IcbState)>,
    cache: Option<CacheBinding<'_>>,
    metrics: Option<Arc<MetricsRegistry>>,
) -> SearchReport {
    observer.search_started(&Strategy::Icb.label());
    if let Some(m) = &metrics {
        m.set_workers(jobs);
    }
    let want_choice = observer.wants_choice_points();
    let want_phases = observer.wants_phase_timing();
    let backlog = Arc::new(AtomicUsize::new(0));
    let mut ledger = Ledger::new(
        config.clone(),
        observer,
        true,
        metrics.clone(),
        Arc::clone(&backlog),
    );
    let budget = config.max_executions.unwrap_or(usize::MAX);
    if let Some(binding) = &cache {
        ledger.cache = Some(CacheSummary {
            heuristic: binding.heuristic,
            ..CacheSummary::default()
        });
    }

    let mut bc;
    let mut work: Vec<IcbItem>;
    match resume {
        None => {
            bc = IcbBoundCtx {
                bound: 0,
                fault: 0,
                execs_base: 0,
                bugs_base: 0,
                completed_bound: None,
                bound_history: Vec::new(),
                pending: BTreeMap::new(),
            };
            work = vec![(Schedule::new(), Vec::new(), false)];
        }
        Some((base, state)) => {
            let bound_executions = base.executions - state.bound_executions_base;
            ledger.restore(base, state.bound, bound_executions);
            if let Some(ck) = ckpt.as_deref_mut() {
                ck.mark_written(ledger.executions);
            }
            bc = IcbBoundCtx {
                bound: state.bound,
                fault: state.fault,
                execs_base: state.bound_executions_base,
                bugs_base: state.bound_bugs_base,
                completed_bound: state.completed_bound,
                bound_history: state.bound_history,
                // Snapshots fold the current level's accruals into the
                // pending rows, so the ledger starts each resumed level
                // with empty accrual lists.
                pending: state
                    .deferred
                    .into_iter()
                    .map(|(c, f, q)| ((c, f), q))
                    .collect(),
            };
            work = state
                .work
                .into_iter()
                .map(|p| (p, Vec::new(), false))
                .collect();
            if let Some((prefix, stack)) = state.in_progress {
                work.insert(
                    0,
                    (
                        prefix,
                        stack.into_iter().map(IcbBranch::from).collect(),
                        false,
                    ),
                );
            }
            if ledger.remaining_budget() == 0 {
                ledger.halt(AbortReason::ExecutionBudget);
            }
        }
    }
    if let Some(binding) = &cache {
        // After the resume-restore: idempotent there since any snapshot
        // taken with the cache attached already includes the seeds.
        for fp in binding.cache.seed_states() {
            ledger.master.insert(fp);
        }
    }
    let stop_flag = AtomicBool::new(false);
    let claimed = AtomicUsize::new(ledger.executions);
    let seqs: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();
    let env = WorkerEnv {
        program,
        stop: &stop_flag,
        claimed: &claimed,
        budget,
        want_choice,
        want_phases,
        epoch: Instant::now(),
        metrics: metrics.as_deref(),
        backlog: &backlog,
    };

    let mut completed = false;
    while !ledger.stop {
        ledger.current_bound = bc.bound;
        ledger.pending_depth = bc.pending.values().map(Vec::len).sum();
        let depth = work.len();
        ledger.observer.bound_started(bc.bound, depth);
        let began = Instant::now();
        let bound_cache = cache.as_ref().map(|b| {
            (
                b.cache,
                coverage_credit(bc.bound + 1, config.preemption_bound),
                coverage_credit(bc.bound, config.preemption_bound),
            )
        });
        let emit_faults = bc.fault < config.fault_bound;
        let leftover = run_icb_bound(
            &env,
            jobs,
            std::mem::take(&mut work),
            &mut ledger,
            &mut ckpt,
            &bc,
            &seqs,
            bound_cache,
            emit_faults,
        );
        if !ledger.stop && !leftover.is_empty() && ledger.remaining_budget() == 0 {
            ledger.halt(AbortReason::ExecutionBudget);
        }
        if ledger.stop {
            write_icb_checkpoint(&mut ledger, &mut ckpt, &bc, leftover);
            break;
        }
        debug_assert!(leftover.is_empty(), "level drained without stopping");

        let stats = BoundStats {
            bound: bc.bound,
            faults: bc.fault,
            executions: ledger.executions - bc.execs_base,
            cumulative_states: ledger.master.len(),
            bugs_found: ledger.buggy_executions - bc.bugs_base,
        };
        ledger.observer.bound_completed(&stats, began.elapsed());
        bc.bound_history.push(stats);
        ledger.curve.push((ledger.executions, ledger.master.len()));

        if ledger.config.stop_on_first_bug && ledger.buggy_executions > 0 {
            // The level was finished before halting, preserving the
            // minimal-(preemptions, faults) guarantee for the bug. (The
            // checkpoint folds the un-run deferrals in by itself.)
            ledger.halt(AbortReason::FirstBug);
            write_icb_checkpoint(&mut ledger, &mut ckpt, &bc, Vec::new());
            break;
        }
        // Fold the level's deferrals into the pending-level map; each
        // batch is sorted so the items a level starts with — and with
        // them the whole exploration — are independent of worker timing.
        let cap = ledger
            .config
            .max_work_queue
            .unwrap_or(usize::MAX)
            .min(ledger.remaining_budget());
        for (level, items) in [
            (
                (bc.bound + 1, bc.fault),
                std::mem::take(&mut ledger.deferred),
            ),
            (
                (bc.bound, bc.fault + 1),
                std::mem::take(&mut ledger.deferred_faults),
            ),
        ] {
            if items.is_empty() {
                continue;
            }
            let mut items = items;
            items.sort();
            let queue = bc.pending.entry(level).or_default();
            for item in items {
                if queue.len() < cap {
                    queue.push(item);
                } else {
                    ledger.truncated = true;
                }
            }
        }
        bc.pending.retain(|_, q| !q.is_empty());

        // A preemption bound counts as completed only once every fault
        // level `(c, _)` with pending work has been drained.
        let next_level = bc.pending.keys().next().copied();
        if next_level.is_none_or(|(c, _)| c > bc.bound) {
            bc.completed_bound = Some(bc.bound);
        }
        let Some(level) = next_level else {
            completed = !ledger.truncated;
            break;
        };
        if ledger
            .config
            .preemption_bound
            .is_some_and(|pb| level.0 > pb)
        {
            break;
        }
        if ledger.over_deadline() {
            ledger.halt(AbortReason::Timeout);
            ledger.truncated = true;
            write_icb_checkpoint(&mut ledger, &mut ckpt, &bc, Vec::new());
            break;
        }
        let queue = bc.pending.remove(&level).expect("peeked key exists");
        (bc.bound, bc.fault) = level;
        bc.execs_base = ledger.executions;
        bc.bugs_base = ledger.buggy_executions;
        work = queue.into_iter().map(|p| (p, Vec::new(), false)).collect();
    }
    if !ledger.stop {
        if let Some(ck) = ckpt {
            ck.finish();
        }
    }
    let (completed_bound, bound_history) = (bc.completed_bound, bc.bound_history);
    ledger.into_report(
        Strategy::Icb.label(),
        completed,
        completed_bound,
        bound_history,
    )
}

// ---------------------------------------------------------------------
// Parallel DFS
// ---------------------------------------------------------------------

/// `(prefix, branch stack, retried)`; see [`IcbItem`] for `retried`.
type DfsItem = (Schedule, Vec<DfsBranch>, bool);

/// Replays the item's prefix, then branches over every enabled thread at
/// each in-bound point past it — the prefix-rooted form of the
/// sequential `DfsScheduler`.
struct PrefixDfsScheduler<'a> {
    prefix: &'a Schedule,
    stack: Vec<DfsBranch>,
    cursor: usize,
    path: Schedule,
    bound: usize,
}

impl Scheduler for PrefixDfsScheduler<'_> {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        if let Some(tid) = self.prefix.get(point.step_index) {
            if !point.is_enabled(tid) {
                DivergencePayload::new(point.step_index, tid, point.enabled.to_vec()).raise();
            }
            self.path.push(tid);
            return tid;
        }
        if point.step_index >= self.bound {
            // Truncated region: complete the run without branching.
            let choice = point.default_choice();
            self.path.push(choice);
            return choice;
        }
        let choice = if self.cursor < self.stack.len() {
            let b = &self.stack[self.cursor];
            let tid = b.options[b.next_ix];
            if !point.is_enabled(tid) {
                DivergencePayload::new(point.step_index, tid, point.enabled.to_vec()).raise();
            }
            self.cursor += 1;
            tid
        } else {
            self.stack.push(DfsBranch {
                options: point.enabled.to_vec(),
                next_ix: 0,
            });
            self.cursor += 1;
            point.enabled[0]
        };
        self.path.push(choice);
        choice
    }
}

fn dfs_worker(
    env: &WorkerEnv<'_>,
    frontier: &Frontier<DfsItem>,
    tx: mpsc::Sender<ExecEvent>,
    worker: usize,
    depth_bound: Option<usize>,
) {
    let bound = depth_bound.unwrap_or(usize::MAX);
    let cost = env.program.executions_per_run().max(1);
    let mut seq: u64 = 0;
    let mut dedup = DedupSink::default();
    'items: loop {
        let wait = Instant::now();
        let Some((prefix, mut stack, retried)) = frontier.pop() else {
            break;
        };
        if let Some(m) = env.metrics {
            m.worker_idle(worker, wait.elapsed());
        }
        loop {
            if env.stop.load(Ordering::SeqCst) {
                frontier.complete();
                return;
            }
            if !claim_budget(env.claimed, env.budget, cost) {
                frontier.push_many([(prefix, stack, retried)]);
                frontier.complete();
                return;
            }
            let stack_backup = stack.clone();
            let mut sched = PrefixDfsScheduler {
                prefix: &prefix,
                stack,
                cursor: 0,
                path: Schedule::new(),
                bound,
            };
            let mut buf = BufObserver::new(env.want_phases);
            let busy = Instant::now();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut sink = GatedSink {
                    inner: &mut dedup,
                    remaining: bound,
                };
                execute_recovering(env.program, &mut sched, &mut sink, &mut buf)
            }));
            if let Some(m) = env.metrics {
                m.worker_busy(worker, busy.elapsed());
                m.worker_execution(worker);
            }
            let result = match run {
                Ok(result) => result,
                Err(payload) => {
                    drop(sched);
                    let quarantine = retried.then(|| QuarantinedTrace {
                        schedule: prefix.clone(),
                        step: prefix.len(),
                        expected: Tid(0),
                        actual: Vec::new(),
                    });
                    let _ = tx.send(ExecEvent {
                        worker,
                        seq: {
                            seq += 1;
                            seq
                        },
                        at: env.stamp(),
                        cost,
                        stats: ExecStats::default(),
                        outcome: ExecutionOutcome::Terminated,
                        fresh: dedup.take_fresh(),
                        bug_schedule: None,
                        choice: Vec::new(),
                        races: std::mem::take(&mut buf.races),
                        phases: std::mem::take(&mut buf.phases),
                        deferred: Vec::new(),
                        deferred_faults: Vec::new(),
                        faults: Vec::new(),
                        quarantine,
                        cache_hits: 0,
                        cache_stores: 0,
                        panic: Some(panic_message(payload)),
                    });
                    if !retried {
                        frontier.push_many([(prefix, stack_backup, true)]);
                    }
                    frontier.complete();
                    continue 'items;
                }
            };
            let path = std::mem::take(&mut sched.path);
            stack = sched.stack;

            let quarantine = if let ExecutionOutcome::ReplayDivergence {
                step,
                expected,
                ref actual,
            } = result.outcome
            {
                Some(QuarantinedTrace {
                    schedule: path.clone(),
                    step,
                    expected,
                    actual: actual.clone(),
                })
            } else {
                None
            };

            // Within the depth bound the result stands; beyond it the run
            // is an artifact of the completion policy — downgrade bugs.
            let effective = if result.stats.steps <= bound || !result.outcome.is_bug() {
                result
            } else {
                let mut r = result;
                r.outcome = ExecutionOutcome::Terminated;
                r
            };

            let item_done = backtrack_dfs(&mut stack);
            let _ = tx.send(ExecEvent {
                worker,
                seq: {
                    seq += 1;
                    seq
                },
                at: env.stamp(),
                cost,
                stats: effective.stats,
                bug_schedule: effective
                    .outcome
                    .is_bug()
                    .then(|| effective.trace.schedule()),
                choice: if env.want_choice {
                    choice_events(&effective)
                } else {
                    Vec::new()
                },
                outcome: effective.outcome,
                fresh: dedup.take_fresh(),
                races: std::mem::take(&mut buf.races),
                phases: std::mem::take(&mut buf.phases),
                deferred: Vec::new(),
                deferred_faults: Vec::new(),
                faults: Vec::new(),
                quarantine,
                cache_hits: 0,
                cache_stores: 0,
                panic: None,
            });
            if item_done {
                frontier.complete();
                continue 'items;
            }
            if frontier.paused() || frontier.starving() {
                let donated = dissolve_dfs(prefix.len(), &path, &stack);
                if let Some(m) = env.metrics {
                    m.steal_donation(donated.len());
                    m.worker_donation(worker);
                }
                frontier.push_many(donated);
                frontier.complete();
                continue 'items;
            }
        }
    }
}

fn write_dfs_checkpoint(
    ledger: &mut Ledger<'_>,
    ckpt: &mut Option<&mut Checkpointer>,
    label: &str,
    depth_bound: Option<usize>,
    queue: Vec<DfsItem>,
) {
    let Some(ck) = ckpt.as_deref_mut() else {
        return;
    };
    let mut frontier = Vec::new();
    let mut pending = None;
    for (prefix, stack, _) in queue {
        if stack.is_empty() {
            frontier.push(prefix);
        } else {
            pending = Some((prefix, stack.iter().map(DfsBranch::to_snapshot).collect()));
        }
    }
    frontier.sort();
    let base = ledger.snapshot_base();
    let executions = base.executions;
    let snapshot = SearchSnapshot {
        strategy: label.to_string(),
        meta: ck.meta().to_vec(),
        config: ledger.config.clone(),
        base,
        state: StrategyState::ParallelDfs(ParallelDfsState {
            depth_bound,
            frontier,
            pending,
        }),
    };
    match ck.write(&snapshot) {
        Ok(()) => ledger.observer.checkpoint_written(executions),
        Err(e) => eprintln!("warning: checkpoint write failed: {e}"),
    }
}

/// The parallel DFS driver (`dfs` / `db:N`): shards subtree prefixes
/// across `jobs` workers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_parallel_dfs(
    program: &(dyn ControlledProgram + Sync),
    config: &SearchConfig,
    jobs: usize,
    depth_bound: Option<usize>,
    observer: &mut dyn SearchObserver,
    mut ckpt: Option<&mut Checkpointer>,
    resume: Option<(ResumeBase, Vec<DfsItem>)>,
    metrics: Option<Arc<MetricsRegistry>>,
) -> SearchReport {
    let label = match depth_bound {
        Some(b) => Strategy::DepthBounded(b),
        None => Strategy::Dfs,
    }
    .label();
    observer.search_started(&label);
    if let Some(m) = &metrics {
        m.set_workers(jobs);
    }
    let want_choice = observer.wants_choice_points();
    let want_phases = observer.wants_phase_timing();
    let backlog = Arc::new(AtomicUsize::new(0));
    let mut ledger = Ledger::new(
        config.clone(),
        observer,
        false,
        metrics.clone(),
        Arc::clone(&backlog),
    );
    let budget = config.max_executions.unwrap_or(usize::MAX);

    let items = match resume {
        None => vec![(Schedule::new(), Vec::new(), false)],
        Some((base, items)) => {
            let executions = base.executions;
            ledger.restore(base, 0, executions);
            if let Some(ck) = ckpt.as_deref_mut() {
                ck.mark_written(ledger.executions);
            }
            if ledger.remaining_budget() == 0 {
                ledger.halt(AbortReason::ExecutionBudget);
            }
            items
        }
    };
    let stop_flag = AtomicBool::new(false);
    let claimed = AtomicUsize::new(ledger.executions);
    let env = WorkerEnv {
        program,
        stop: &stop_flag,
        claimed: &claimed,
        budget,
        want_choice,
        want_phases,
        epoch: Instant::now(),
        metrics: metrics.as_deref(),
        backlog: &backlog,
    };

    let frontier = Frontier::with_metrics(
        if ledger.stop { Vec::new() } else { items },
        metrics.clone(),
    );
    let (tx, rx) = mpsc::channel::<ExecEvent>();
    std::thread::scope(|s| {
        for worker in 0..jobs {
            let tx = tx.clone();
            let frontier = &frontier;
            let env = &env;
            s.spawn(move || dfs_worker(env, frontier, tx, worker, depth_bound));
        }
        drop(tx);
        loop {
            match rx.recv_timeout(PUMP_TICK) {
                Ok(ev) => ledger.apply(ev),
                Err(RecvTimeoutError::Timeout) => ledger.note_pump_stall(),
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if ledger.stop {
                continue;
            }
            let first_bug = ledger.config.stop_on_first_bug && ledger.buggy_executions > 0;
            if ckpt.is_some() && interrupt::interrupted() {
                quiesce(&frontier, &rx, &mut ledger);
                write_dfs_checkpoint(
                    &mut ledger,
                    &mut ckpt,
                    &label,
                    depth_bound,
                    frontier.snapshot_queue(),
                );
                ledger.halt(AbortReason::Interrupted);
                stop_flag.store(true, Ordering::SeqCst);
                frontier.close();
                continue;
            }
            if first_bug || ledger.over_deadline() {
                if ckpt.is_some() {
                    quiesce(&frontier, &rx, &mut ledger);
                    write_dfs_checkpoint(
                        &mut ledger,
                        &mut ckpt,
                        &label,
                        depth_bound,
                        frontier.snapshot_queue(),
                    );
                }
                ledger.halt(if first_bug {
                    AbortReason::FirstBug
                } else {
                    AbortReason::Timeout
                });
                stop_flag.store(true, Ordering::SeqCst);
                frontier.close();
                continue;
            }
            if ckpt.as_deref().is_some_and(|ck| ck.due(ledger.executions)) {
                quiesce(&frontier, &rx, &mut ledger);
                write_dfs_checkpoint(
                    &mut ledger,
                    &mut ckpt,
                    &label,
                    depth_bound,
                    frontier.snapshot_queue(),
                );
                frontier.unpause();
            }
        }
    });
    let leftover = frontier.snapshot_queue();
    if !ledger.stop && !leftover.is_empty() && ledger.remaining_budget() == 0 {
        ledger.halt(AbortReason::ExecutionBudget);
    }
    let completed = !ledger.stop && leftover.is_empty();
    if completed {
        if let Some(ck) = ckpt.as_deref_mut() {
            ck.finish();
        }
    } else if ledger.stop {
        write_dfs_checkpoint(&mut ledger, &mut ckpt, &label, depth_bound, leftover);
    }
    ledger.curve.push((ledger.executions, ledger.master.len()));
    ledger.into_report(label, completed, None, Vec::new())
}

// ---------------------------------------------------------------------
// Parallel random walk
// ---------------------------------------------------------------------

/// Hands out execution indices to random-walk workers. The parallel walk
/// derives one independent RNG stream per *index* (not per worker), so
/// the set of walks performed — and with it every order-independent
/// report field — depends only on the seed and the budget, not on the
/// worker count or timing.
pub(crate) struct IndexClaimer {
    inner: Mutex<ClaimerInner>,
    cv: Condvar,
}

struct ClaimerInner {
    next: u64,
    limit: u64,
    paused: bool,
    closed: bool,
    in_flight: usize,
}

impl IndexClaimer {
    fn new(next: u64, limit: u64) -> Self {
        IndexClaimer {
            inner: Mutex::new(ClaimerInner {
                next,
                limit,
                paused: false,
                closed: false,
                in_flight: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Claims the next index, advancing the cursor by `cost`. Blocks
    /// while paused; returns `None` when the budget is exhausted or the
    /// claimer is closed.
    fn claim(&self, cost: u64) -> Option<u64> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.closed || g.next >= g.limit {
                return None;
            }
            if !g.paused {
                let ix = g.next;
                g.next += cost;
                g.in_flight += 1;
                return Some(ix);
            }
            g = self.cv.wait(g).unwrap();
        }
    }

    fn finish_one(&self) {
        let mut g = self.inner.lock().unwrap();
        g.in_flight = g.in_flight.saturating_sub(1);
        drop(g);
        self.cv.notify_all();
    }

    fn pause(&self) {
        self.inner.lock().unwrap().paused = true;
        self.cv.notify_all();
    }

    fn unpause(&self) {
        self.inner.lock().unwrap().paused = false;
        self.cv.notify_all();
    }

    /// Under pause, `idle` means every claimed index has completed: the
    /// executed set is exactly `[start, next_index)`.
    fn idle(&self) -> bool {
        self.inner.lock().unwrap().in_flight == 0
    }

    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    fn next_index(&self) -> u64 {
        self.inner.lock().unwrap().next
    }
}

/// Chooses uniformly among the enabled threads from a per-index stream.
struct WalkScheduler<'a> {
    rng: &'a mut SplitMix64,
}

impl Scheduler for WalkScheduler<'_> {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        point.enabled[self.rng.gen_index(point.enabled.len())]
    }
}

/// The stream for walk number `index` under `seed`.
fn walk_rng(seed: u64, index: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ mix64(index.wrapping_add(1)))
}

fn random_worker(
    env: &WorkerEnv<'_>,
    claimer: &IndexClaimer,
    tx: mpsc::Sender<ExecEvent>,
    worker: usize,
    seed: u64,
) {
    let cost = env.program.executions_per_run().max(1);
    let mut seq: u64 = 0;
    let mut dedup = DedupSink::default();
    loop {
        let wait = Instant::now();
        let Some(index) = claimer.claim(cost as u64) else {
            break;
        };
        if let Some(m) = env.metrics {
            m.worker_idle(worker, wait.elapsed());
        }
        if env.stop.load(Ordering::SeqCst) {
            claimer.finish_one();
            return;
        }
        // A panicking walk is retried once (same index, same RNG stream,
        // so the retry replays the identical walk) and then abandoned
        // with a `worker-panic` event per strike.
        let mut retried = false;
        loop {
            let mut rng = walk_rng(seed, index);
            let mut buf = BufObserver::new(env.want_phases);
            let busy = Instant::now();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut sched = WalkScheduler { rng: &mut rng };
                execute_recovering(env.program, &mut sched, &mut dedup, &mut buf)
            }));
            if let Some(m) = env.metrics {
                m.worker_busy(worker, busy.elapsed());
                m.worker_execution(worker);
            }
            let result = match run {
                Ok(result) => result,
                Err(payload) => {
                    let _ = tx.send(ExecEvent {
                        worker,
                        seq: {
                            seq += 1;
                            seq
                        },
                        at: env.stamp(),
                        cost,
                        stats: ExecStats::default(),
                        outcome: ExecutionOutcome::Terminated,
                        fresh: dedup.take_fresh(),
                        bug_schedule: None,
                        choice: Vec::new(),
                        races: std::mem::take(&mut buf.races),
                        phases: std::mem::take(&mut buf.phases),
                        deferred: Vec::new(),
                        deferred_faults: Vec::new(),
                        faults: Vec::new(),
                        quarantine: None,
                        cache_hits: 0,
                        cache_stores: 0,
                        panic: Some(panic_message(payload)),
                    });
                    if retried {
                        break;
                    }
                    retried = true;
                    continue;
                }
            };
            let _ = tx.send(ExecEvent {
                worker,
                seq: {
                    seq += 1;
                    seq
                },
                at: env.stamp(),
                cost,
                stats: result.stats,
                bug_schedule: result.outcome.is_bug().then(|| result.trace.schedule()),
                choice: if env.want_choice {
                    choice_events(&result)
                } else {
                    Vec::new()
                },
                outcome: result.outcome,
                fresh: dedup.take_fresh(),
                races: std::mem::take(&mut buf.races),
                phases: std::mem::take(&mut buf.phases),
                deferred: Vec::new(),
                deferred_faults: Vec::new(),
                faults: Vec::new(),
                quarantine: None,
                cache_hits: 0,
                cache_stores: 0,
                panic: None,
            });
            break;
        }
        claimer.finish_one();
    }
}

fn write_random_checkpoint(
    ledger: &mut Ledger<'_>,
    ckpt: &mut Option<&mut Checkpointer>,
    seed: u64,
    next_index: u64,
) {
    let Some(ck) = ckpt.as_deref_mut() else {
        return;
    };
    let base = ledger.snapshot_base();
    let executions = base.executions;
    let snapshot = SearchSnapshot {
        strategy: Strategy::Random { seed }.label(),
        meta: ck.meta().to_vec(),
        config: ledger.config.clone(),
        base,
        state: StrategyState::ParallelRandom(ParallelRandomState { seed, next_index }),
    };
    match ck.write(&snapshot) {
        Ok(()) => ledger.observer.checkpoint_written(executions),
        Err(e) => eprintln!("warning: checkpoint write failed: {e}"),
    }
}

/// The parallel random-walk driver. Each execution index gets its own
/// seed-derived RNG stream, so results are identical at any worker count
/// (but deliberately differ from the sequential single-stream walk —
/// the two samplings are equally uniform and are not interchangeable).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_parallel_random(
    program: &(dyn ControlledProgram + Sync),
    config: &SearchConfig,
    jobs: usize,
    seed: u64,
    observer: &mut dyn SearchObserver,
    mut ckpt: Option<&mut Checkpointer>,
    resume: Option<(ResumeBase, ParallelRandomState)>,
    metrics: Option<Arc<MetricsRegistry>>,
) -> SearchReport {
    observer.search_started(&Strategy::Random { seed }.label());
    if let Some(m) = &metrics {
        m.set_workers(jobs);
    }
    let want_choice = observer.wants_choice_points();
    let want_phases = observer.wants_phase_timing();
    let backlog = Arc::new(AtomicUsize::new(0));
    let mut ledger = Ledger::new(
        config.clone(),
        observer,
        false,
        metrics.clone(),
        Arc::clone(&backlog),
    );
    let budget = config
        .max_executions
        .expect("parallel random search requires an execution budget");

    let (seed, start_index) = match resume {
        None => (seed, 0),
        Some((base, state)) => {
            let executions = base.executions;
            ledger.restore(base, 0, executions);
            if let Some(ck) = ckpt.as_deref_mut() {
                ck.mark_written(ledger.executions);
            }
            if ledger.remaining_budget() == 0 {
                ledger.halt(AbortReason::ExecutionBudget);
            }
            (state.seed, state.next_index)
        }
    };
    let stop_flag = AtomicBool::new(false);
    let claimed = AtomicUsize::new(0); // budget is enforced by the claimer
    let env = WorkerEnv {
        program,
        stop: &stop_flag,
        claimed: &claimed,
        budget: usize::MAX,
        want_choice,
        want_phases,
        epoch: Instant::now(),
        metrics: metrics.as_deref(),
        backlog: &backlog,
    };

    let claimer = IndexClaimer::new(
        start_index,
        if ledger.stop {
            start_index
        } else {
            budget as u64
        },
    );
    let (tx, rx) = mpsc::channel::<ExecEvent>();
    std::thread::scope(|s| {
        for worker in 0..jobs {
            let tx = tx.clone();
            let claimer = &claimer;
            let env = &env;
            s.spawn(move || random_worker(env, claimer, tx, worker, seed));
        }
        drop(tx);
        loop {
            match rx.recv_timeout(PUMP_TICK) {
                Ok(ev) => ledger.apply(ev),
                Err(RecvTimeoutError::Timeout) => ledger.note_pump_stall(),
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if ledger.stop {
                continue;
            }
            let first_bug = ledger.config.stop_on_first_bug && ledger.buggy_executions > 0;
            let interruptd = ckpt.is_some() && interrupt::interrupted();
            if first_bug || interruptd || ledger.over_deadline() {
                if ckpt.is_some() {
                    quiesce_claimer(&claimer, &rx, &mut ledger);
                    write_random_checkpoint(&mut ledger, &mut ckpt, seed, claimer.next_index());
                }
                ledger.halt(if interruptd {
                    AbortReason::Interrupted
                } else if first_bug {
                    AbortReason::FirstBug
                } else {
                    AbortReason::Timeout
                });
                stop_flag.store(true, Ordering::SeqCst);
                claimer.close();
                continue;
            }
            if ckpt.as_deref().is_some_and(|ck| ck.due(ledger.executions)) {
                quiesce_claimer(&claimer, &rx, &mut ledger);
                write_random_checkpoint(&mut ledger, &mut ckpt, seed, claimer.next_index());
                claimer.unpause();
            }
        }
    });
    if !ledger.stop {
        if ledger.remaining_budget() == 0 {
            ledger.halt(AbortReason::ExecutionBudget);
            write_random_checkpoint(&mut ledger, &mut ckpt, seed, claimer.next_index());
        } else if let Some(ck) = ckpt {
            // Stopped for no recorded reason (cannot happen today): keep
            // the snapshot rather than deleting a resumable state.
            let _ = ck;
        }
    }
    ledger.curve.push((ledger.executions, ledger.master.len()));
    // Like the sequential walk, a random search never exhausts its space.
    ledger.into_report(Strategy::Random { seed }.label(), false, None, Vec::new())
}

/// [`quiesce`] for the random walk's claimer.
fn quiesce_claimer(
    claimer: &IndexClaimer,
    rx: &mpsc::Receiver<ExecEvent>,
    ledger: &mut Ledger<'_>,
) {
    claimer.pause();
    while !claimer.idle() {
        match rx.recv_timeout(PUMP_TICK) {
            Ok(ev) => ledger.apply(ev),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    while let Ok(ev) = rx.try_recv() {
        ledger.apply(ev);
    }
}
