//! Iterative context bounding — Algorithm 1 of the paper, in stateless
//! (replay-based) form.
//!
//! The explicit-state formulation keeps a queue of `(state, tid)` work
//! items. A stateless checker cannot store states, so a work item here is
//! the *schedule prefix* that reaches the state, with the thread to run as
//! its last element. Processing a work item replays the prefix and then
//! explores, by nested depth-first search, every execution reachable
//! **without introducing another preemption**:
//!
//! * while the current thread stays enabled it is forced to continue —
//!   scheduling any other enabled thread would be a preemption, so for
//!   every such thread `t` a new work item `prefix·t` is pushed onto the
//!   *next* work queue (to be processed at bound + 1);
//! * when the current thread blocks or terminates, the switch is free and
//!   the nested DFS branches over every enabled thread (lines 33–37 of
//!   Algorithm 1).
//!
//! The outer loop drains the current queue, then increments the bound and
//! swaps in the deferred queue — so every execution with `i` preemptions
//! is explored before any execution with `i + 1`, and the first bug found
//! is exposed by a minimal number of preemptions.
//!
//! # Fault levels
//!
//! When [`SearchConfig::fault_bound`] is non-zero, *injected faults*
//! become a second bounded dimension: every designated fallible
//! operation reached fresh during the nested DFS additionally defers a
//! work item with a fault injected into that step, to the level
//! `(c, f + 1)`. Levels are processed in lexicographic `(preemptions,
//! faults)` order — `(0,0), (0,1), …, (0,F), (1,0), …` — so the first
//! bug found carries a minimum-`(preemptions, faults)` witness. At
//! fault bound 0 no fault is ever injected or deferred and the search
//! degenerates exactly to the single-axis algorithm above.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use crate::cache::{coverage_credit, ExplorationCache, FAULT_PROBE_SALT};
use crate::coverage::StateSink;
use crate::program::{ControlledProgram, FaultPoint, SchedulePoint, Scheduler};
use crate::search::{
    execute_recovering, BoundStats, CacheBinding, QuarantinedTrace, SearchConfig, SearchCtx,
    SearchReport, Strategy,
};
use crate::snapshot::{
    interrupt, BranchSnapshot, Checkpointer, IcbState, SearchSnapshot, SnapshotError, StrategyState,
};
use crate::telemetry::{AbortReason, SearchObserver};
use crate::tid::Tid;
use crate::trace::{DivergencePayload, ExecutionOutcome, Schedule};

/// The iterative context-bounding driver behind [`Strategy::Icb`] at
/// `jobs == 1`.
#[derive(Debug)]
pub(crate) struct IcbSearch {
    config: SearchConfig,
}

impl IcbSearch {
    pub(crate) fn new(config: SearchConfig) -> Self {
        IcbSearch { config }
    }

    /// The single engine behind fresh, checkpointed and resumed runs.
    pub(crate) fn drive(
        &self,
        program: &dyn ControlledProgram,
        observer: &mut dyn SearchObserver,
        mut ckpt: Option<&mut Checkpointer>,
        resume: Option<(crate::snapshot::ResumeBase, IcbState)>,
        cache: Option<CacheBinding<'_>>,
    ) -> SearchReport {
        observer.search_started(&Strategy::Icb.label());
        let mut ctx = SearchCtx::new(self.config.clone(), observer);
        if let Some(binding) = &cache {
            ctx.attach_cache(binding.heuristic);
        }
        let mut driver;
        let mut pending: Option<(Schedule, Vec<Branch>)> = None;
        match resume {
            None => {
                let mut work = VecDeque::new();
                work.push_back(Schedule::new());
                driver = Driver {
                    program,
                    ctx,
                    work,
                    deferred: BTreeMap::new(),
                    bound: 0,
                    fault: 0,
                    truncated: false,
                    bound_history: Vec::new(),
                    completed: false,
                    completed_bound: None,
                    execs_base: 0,
                    bugs_base: 0,
                    cache: cache.as_ref().map(|b| b.cache),
                    state_cursor: Rc::new(Cell::new(0)),
                };
            }
            Some((base, state)) => {
                let bound_executions = base.executions - state.bound_executions_base;
                let truncated = base.truncated;
                ctx.restore(base, state.bound, bound_executions);
                if let Some(ck) = ckpt.as_deref_mut() {
                    // The snapshot itself is durable; the next periodic
                    // write is one full interval after it.
                    ck.mark_written(ctx.executions);
                }
                pending = state
                    .in_progress
                    .map(|(prefix, stack)| (prefix, stack.into_iter().map(Branch::from).collect()));
                driver = Driver {
                    program,
                    ctx,
                    work: state.work.into(),
                    deferred: state
                        .deferred
                        .into_iter()
                        .map(|(c, f, q)| ((c, f), q.into()))
                        .collect(),
                    bound: state.bound,
                    fault: state.fault,
                    truncated,
                    bound_history: state.bound_history,
                    completed: false,
                    completed_bound: state.completed_bound,
                    execs_base: state.bound_executions_base,
                    bugs_base: state.bound_bugs_base,
                    cache: cache.as_ref().map(|b| b.cache),
                    state_cursor: Rc::new(Cell::new(0)),
                };
                // A snapshot written right at an exhausted budget must
                // not run one more execution after resume.
                if driver.ctx.remaining_budget() == 0 {
                    driver.ctx.halt(AbortReason::ExecutionBudget);
                }
            }
        }
        if let Some(binding) = &cache {
            // Idempotent on resume: a checkpointed warm run's coverage
            // already contains the seeds.
            driver.ctx.seed_coverage(&binding.cache.seed_states());
        }
        driver.run(pending, &mut ckpt);
        driver.finish()
    }
}

/// Loop state of one ICB run, shared between the outer bound loop and
/// the per-work-item nested DFS so checkpoints can be written from
/// either.
struct Driver<'p, 'o> {
    program: &'p dyn ControlledProgram,
    ctx: SearchCtx<'o>,
    work: VecDeque<Schedule>,
    /// Deferred work items keyed by the `(preemption, fault)` level at
    /// which they will run; drained in lexicographic key order. At
    /// fault bound 0 only `(bound + 1, 0)` is ever populated — the
    /// legacy single `next` queue.
    deferred: BTreeMap<(usize, usize), VecDeque<Schedule>>,
    bound: usize,
    /// The fault level `f` of the level currently being explored
    /// (always 0 at fault bound 0).
    fault: usize,
    truncated: bool,
    bound_history: Vec<BoundStats>,
    completed: bool,
    completed_bound: Option<usize>,
    /// `ctx.executions` when the current bound started.
    execs_base: usize,
    /// `ctx.buggy_executions` when the current bound started.
    bugs_base: usize,
    /// Fingerprint cache consulted at work-item emission; `None` runs
    /// the legacy (cache-free) search.
    cache: Option<&'p dyn ExplorationCache>,
    /// Fingerprint of the most recently visited state of the in-flight
    /// execution, shared with the scheduler for cache probes at pick
    /// time (the probe key is the state *before* the deferred step).
    state_cursor: Rc<Cell<u64>>,
}

impl Driver<'_, '_> {
    fn run(
        &mut self,
        mut pending: Option<(Schedule, Vec<Branch>)>,
        ckpt: &mut Option<&mut Checkpointer>,
    ) {
        'outer: loop {
            self.ctx.current_bound = self.bound;
            let depth = self.work.len() + usize::from(pending.is_some());
            self.ctx.observer.bound_started(self.bound, depth);
            let bound_began = std::time::Instant::now();
            loop {
                if ckpt.is_some() && interrupt::interrupted() {
                    self.ctx.halt(AbortReason::Interrupted);
                }
                if self.ctx.stop {
                    self.write_checkpoint(ckpt, None);
                    break 'outer;
                }
                let (prefix, stack) = match pending.take() {
                    Some(item) => item,
                    None => match self.work.pop_front() {
                        Some(prefix) => (prefix, Vec::new()),
                        None => break,
                    },
                };
                self.search_item(prefix, stack, ckpt);
                self.ctx.observer.work_queue_depth(self.deferred_len());
                if self.ctx.stop {
                    break 'outer;
                }
            }
            let stats = BoundStats {
                bound: self.bound,
                faults: self.fault,
                executions: self.ctx.executions - self.execs_base,
                cumulative_states: self.ctx.coverage.distinct_states(),
                bugs_found: self.ctx.buggy_executions - self.bugs_base,
            };
            self.ctx
                .observer
                .bound_completed(&stats, bound_began.elapsed());
            self.bound_history.push(stats);
            // A preemption bound `c` counts as completed only once every
            // fault level `(c, _)` with pending work has been drained —
            // at fault bound 0 that is after every level, as before.
            let next_level = self.deferred.keys().next().copied();
            if next_level.is_none_or(|(c, _)| c > self.bound) {
                self.completed_bound = Some(self.bound);
            }
            let Some(level) = next_level else {
                self.completed = !self.truncated;
                break;
            };
            if self
                .ctx
                .config
                .preemption_bound
                .is_some_and(|pb| level.0 > pb)
            {
                break;
            }
            // Re-check the wall-clock budget between levels:
            // `record` only checks after each execution, so without this a
            // deadline expiring exactly at a level boundary would start
            // (and fully time) another level's first execution.
            if self.ctx.over_deadline() {
                self.ctx.halt(AbortReason::Timeout);
                self.truncated = true;
                self.write_checkpoint(ckpt, None);
                break;
            }
            let queue = self.deferred.remove(&level).expect("peeked key exists");
            (self.bound, self.fault) = level;
            self.execs_base = self.ctx.executions;
            self.bugs_base = self.ctx.buggy_executions;
            self.work = queue;
        }
        if !self.ctx.stop {
            // Clean completion (space exhausted or the configured bound
            // fully explored): nothing is left to resume.
            if let Some(ck) = ckpt.as_deref_mut() {
                ck.finish();
            }
        }
    }

    fn finish(self) -> SearchReport {
        self.ctx.into_report(
            Strategy::Icb.label(),
            self.completed,
            self.completed_bound,
            self.bound_history,
            self.truncated,
        )
    }

    /// Processes one work item: nested DFS over the preemption-free
    /// extensions of `prefix`. A non-empty `stack` continues a
    /// checkpointed item exactly where its last run left off.
    fn search_item(
        &mut self,
        prefix: Schedule,
        mut stack: Vec<Branch>,
        ckpt: &mut Option<&mut Checkpointer>,
    ) {
        let mut first_run = stack.is_empty();
        loop {
            // Points at or beyond `fresh_from` are visited for the first
            // time in this run; preemption work items are emitted only for
            // them (earlier points were handled in a previous run or by
            // the parent work item).
            let fresh_from = if first_run {
                prefix.len()
            } else {
                // After backtracking (or a checkpointed stack, saved
                // post-backtrack), the deepest branch point takes a new
                // option; everything strictly after it is fresh.
                stack.last().map_or(prefix.len(), |b| b.step + 1)
            };
            first_run = false;

            let sched = ItemScheduler {
                prefix: &prefix,
                stack,
                cursor: 0,
                path: Schedule::new(),
                fresh_from,
                emitted: Vec::new(),
                emitted_faults: Vec::new(),
                emit_faults: self.fault < self.ctx.config.fault_bound,
                cache: self.cache.map(|cache| ItemCache {
                    cache,
                    state: Rc::clone(&self.state_cursor),
                    credit: coverage_credit(self.bound + 1, self.ctx.config.preemption_bound),
                    fault_credit: coverage_credit(self.bound, self.ctx.config.preemption_bound),
                    hits: 0,
                    stores: 0,
                }),
            };
            self.ctx.begin_execution();
            let mut sched = sched;
            let result = if let Some(cache) = self.cache {
                self.state_cursor.set(0);
                let mut sink = CursorSink {
                    inner: &mut self.ctx.coverage,
                    state: &self.state_cursor,
                    cache,
                };
                execute_recovering(self.program, &mut sched, &mut sink, self.ctx.observer)
            } else {
                execute_recovering(
                    self.program,
                    &mut sched,
                    &mut self.ctx.coverage,
                    self.ctx.observer,
                )
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
            if let Some(c) = item_cache {
                self.ctx.cache_hit(c.hits);
                self.ctx.cache_store(c.stores);
            }

            if let ExecutionOutcome::ReplayDivergence {
                step,
                expected,
                ref actual,
            } = result.outcome
            {
                // The program broke the determinism contract on this
                // path: enabled sets observed during the run cannot be
                // trusted, so forfeit the work items it emitted and
                // quarantine the diverging path. Backtracking still
                // advances, so the rest of the item's subtree is
                // explored.
                self.ctx.quarantine(QuarantinedTrace {
                    schedule: path,
                    step,
                    expected,
                    actual: actual.clone(),
                });
            } else {
                let queue_cap = self
                    .ctx
                    .config
                    .max_work_queue
                    .unwrap_or(usize::MAX)
                    .min(self.ctx.remaining_budget());
                // Preemption deferrals run at the next preemption bound,
                // fault deferrals at the next fault level of this bound.
                for (level, items) in [
                    ((self.bound + 1, self.fault), emitted),
                    ((self.bound, self.fault + 1), emitted_faults),
                ] {
                    for item in items {
                        let queue = self.deferred.entry(level).or_default();
                        if queue.len() < queue_cap {
                            queue.push_back(item);
                            self.ctx.observer.work_item_deferred(level.0);
                        } else {
                            self.truncated = true;
                        }
                    }
                }
                self.deferred.retain(|_, q| !q.is_empty());
            }

            self.ctx.record(&result, self.program.executions_per_run());

            // Backtrack: advance the deepest branch point with options
            // left; drop exhausted ones. Done *before* checkpointing so a
            // resumed run starts at the next unexplored schedule instead
            // of repeating the one just recorded.
            let item_done = loop {
                match stack.last_mut() {
                    Some(top) if top.next_ix + 1 < top.options.len() => {
                        top.next_ix += 1;
                        break false;
                    }
                    Some(_) => {
                        stack.pop();
                    }
                    None => break true,
                }
            };

            if ckpt.is_some() && interrupt::interrupted() {
                self.ctx.halt(AbortReason::Interrupted);
            }
            let due = ckpt
                .as_deref()
                .is_some_and(|ck| ck.due(self.ctx.executions));
            if due || (self.ctx.stop && ckpt.is_some()) {
                let in_progress = if item_done {
                    None
                } else {
                    Some((&prefix, &stack[..]))
                };
                self.write_checkpoint(ckpt, in_progress);
            }
            if item_done || self.ctx.stop {
                return;
            }
        }
    }

    /// Total number of deferred work items across every pending level.
    fn deferred_len(&self) -> usize {
        self.deferred.values().map(|q| q.len()).sum()
    }

    /// Builds and atomically writes a snapshot of the current loop
    /// state. `in_progress` carries the partially explored work item, if
    /// the checkpoint falls inside one.
    fn write_checkpoint(
        &mut self,
        ckpt: &mut Option<&mut Checkpointer>,
        in_progress: Option<(&Schedule, &[Branch])>,
    ) {
        let Some(ck) = ckpt.as_deref_mut() else {
            return;
        };
        let mut base = self.ctx.snapshot_base();
        base.truncated = self.truncated;
        let executions = base.executions;
        let snapshot = SearchSnapshot {
            strategy: Strategy::Icb.label(),
            meta: ck.meta().to_vec(),
            config: self.ctx.config.clone(),
            base,
            state: StrategyState::Icb(IcbState {
                bound: self.bound,
                fault: self.fault,
                bound_executions_base: self.execs_base,
                bound_bugs_base: self.bugs_base,
                completed_bound: self.completed_bound,
                work: self.work.iter().cloned().collect(),
                deferred: self
                    .deferred
                    .iter()
                    .map(|(&(c, f), q)| (c, f, q.iter().cloned().collect()))
                    .collect(),
                bound_history: self.bound_history.clone(),
                in_progress: in_progress
                    .map(|(p, s)| (p.clone(), s.iter().map(Branch::to_snapshot).collect())),
            }),
        };
        match ck.write(&snapshot) {
            Ok(()) => self.ctx.observer.checkpoint_written(executions),
            Err(e) => eprintln!("warning: checkpoint write failed: {e}"),
        }
    }
}

/// Rejects branch stacks a checksum-valid but hand-damaged snapshot
/// could smuggle in (an out-of-range `next_ix` would otherwise panic
/// deep inside the scheduler).
pub(crate) fn validate_branches(stack: &[BranchSnapshot]) -> Result<(), SnapshotError> {
    for b in stack {
        if b.options.is_empty() || b.next_ix >= b.options.len() {
            return Err(SnapshotError::Corrupt(
                "branch stack entry with out-of-range option index".to_string(),
            ));
        }
    }
    Ok(())
}

/// A nonpreempting branch point within one work item's nested DFS.
#[derive(Clone, Debug)]
pub(crate) struct Branch {
    /// Step index of the scheduling point.
    pub(crate) step: usize,
    /// The enabled threads at that point.
    pub(crate) options: Vec<Tid>,
    /// Index of the option taken in the current run.
    pub(crate) next_ix: usize,
}

impl Branch {
    pub(crate) fn to_snapshot(&self) -> BranchSnapshot {
        BranchSnapshot {
            step: self.step,
            options: self.options.clone(),
            next_ix: self.next_ix,
        }
    }
}

impl From<BranchSnapshot> for Branch {
    fn from(b: BranchSnapshot) -> Self {
        Branch {
            step: b.step,
            options: b.options,
            next_ix: b.next_ix,
        }
    }
}

/// A [`StateSink`] tee: forwards every fingerprint to the wrapped sink
/// and mirrors the latest one into a shared cell, so the scheduler can
/// read "the state we are at right now" at pick time without borrowing
/// the coverage tracker.
pub(crate) struct CursorSink<'a> {
    pub(crate) inner: &'a mut dyn StateSink,
    pub(crate) state: &'a Cell<u64>,
    /// Tee of every visit, so a persistent cache can save the visited
    /// set as seed states for future warm runs.
    pub(crate) cache: &'a dyn ExplorationCache,
}

impl StateSink for CursorSink<'_> {
    fn visit(&mut self, fingerprint: u64) {
        self.state.set(fingerprint);
        self.cache.note_state(fingerprint);
        self.inner.visit(fingerprint);
    }
}

impl std::fmt::Debug for CursorSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CursorSink")
            .field("state", &self.state.get())
            .finish_non_exhaustive()
    }
}

/// Per-run cache probe state of one [`ItemScheduler`].
pub(crate) struct ItemCache<'a> {
    pub(crate) cache: &'a dyn ExplorationCache,
    /// Latest fingerprint of the in-flight execution (fed by
    /// [`CursorSink`]); at a forced-continue point this is the state the
    /// deferred work items branch from.
    pub(crate) state: Rc<Cell<u64>>,
    /// Coverage credit of the work items this run emits (born at the
    /// next bound); `None` when they lie beyond the target bound and
    /// will never run — then neither probed nor recorded.
    pub(crate) credit: Option<u32>,
    /// Coverage credit of *fault* work items, which run at this bound
    /// (next fault level), so they carry one more preemption of budget
    /// than preemption deferrals do.
    pub(crate) fault_credit: Option<u32>,
    pub(crate) hits: usize,
    pub(crate) stores: usize,
}

impl ItemCache<'_> {
    /// Probes the cache for the `(current state, t)` subtree. `true`
    /// means it is already covered: skip the emission (a hit).
    /// Otherwise the probe has recorded the subtree as ours to explore
    /// (a store).
    pub(crate) fn covered(&mut self, t: Tid) -> bool {
        let Some(credit) = self.credit else {
            return false;
        };
        if self.cache.probe(self.state.get(), t, credit) {
            self.hits += 1;
            true
        } else {
            self.stores += 1;
            false
        }
    }

    /// Probes the cache for the faulted variant of the `(current state,
    /// t)` subtree. The key is salted with [`FAULT_PROBE_SALT`]: an
    /// injected fault changes the continuation, so the faulted subtree
    /// must never collide with the fault-free entry.
    pub(crate) fn covered_fault(&mut self, t: Tid) -> bool {
        let Some(credit) = self.fault_credit else {
            return false;
        };
        if self
            .cache
            .probe(self.state.get() ^ FAULT_PROBE_SALT, t, credit)
        {
            self.hits += 1;
            true
        } else {
            self.stores += 1;
            false
        }
    }
}

/// The scheduler driving one run within a work item (shared with the
/// parallel driver, whose workers run the same nested DFS per item).
pub(crate) struct ItemScheduler<'a> {
    pub(crate) prefix: &'a Schedule,
    pub(crate) stack: Vec<Branch>,
    /// Position in `stack` during the current run.
    pub(crate) cursor: usize,
    /// Full schedule chosen so far in this run (prefix included).
    pub(crate) path: Schedule,
    /// First step index considered fresh for work-item emission.
    pub(crate) fresh_from: usize,
    /// Deferred work items (`path-so-far · t`) discovered in this run.
    pub(crate) emitted: Vec<Schedule>,
    /// Deferred *fault* work items (`path-so-far` with a fault injected
    /// into its last step) discovered in this run; they belong to the
    /// next fault level of the current preemption bound.
    pub(crate) emitted_faults: Vec<Schedule>,
    /// Whether fresh fallible points emit fault work items (false once
    /// the fault bound is reached, and always false at fault bound 0).
    pub(crate) emit_faults: bool,
    /// Fingerprint-cache probing at emission points; `None` emits every
    /// fresh work item (the legacy behavior).
    pub(crate) cache: Option<ItemCache<'a>>,
}

impl Scheduler for ItemScheduler<'_> {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        let choice = if point.step_index < self.prefix.len() {
            let tid = self
                .prefix
                .get(point.step_index)
                .expect("prefix indexed in range");
            if !point.is_enabled(tid) {
                DivergencePayload::new(point.step_index, tid, point.enabled.to_vec()).raise();
            }
            tid
        } else if point.current_enabled {
            // Forced: continuing the current thread is free; switching to
            // any other enabled thread costs a preemption and is deferred
            // to the next bound.
            let current = point
                .current
                .expect("current_enabled implies a current thread");
            if point.step_index >= self.fresh_from {
                for &t in point.enabled {
                    if t != current {
                        if let Some(cache) = &mut self.cache {
                            if cache.covered(t) {
                                continue;
                            }
                        }
                        let mut item = self.path.clone();
                        item.push(t);
                        self.emitted.push(item);
                    }
                }
            }
            current
        } else {
            // Nonpreempting branch point: the previous thread blocked or
            // terminated (or this is the initial point); explore every
            // enabled thread via the branch stack.
            if self.cursor < self.stack.len() {
                let b = &self.stack[self.cursor];
                debug_assert_eq!(
                    b.step, point.step_index,
                    "branch stack out of sync with execution"
                );
                let tid = b.options[b.next_ix];
                if !point.is_enabled(tid) {
                    // The program is not deterministic: a previously
                    // recorded branch option is no longer enabled.
                    DivergencePayload::new(point.step_index, tid, point.enabled.to_vec()).raise();
                }
                self.cursor += 1;
                tid
            } else {
                self.stack.push(Branch {
                    step: point.step_index,
                    options: point.enabled.to_vec(),
                    next_ix: 0,
                });
                self.cursor += 1;
                point.enabled[0]
            }
        };
        self.path.push(choice);
        choice
    }

    /// Within the prefix, replay the recorded fault set (and mirror it
    /// into `path` so emitted work items and quarantine records inherit
    /// it). Past the prefix, never inject — instead, at fresh points,
    /// defer a copy of the path with a fault added to this very step:
    /// the faulted continuation is explored at the next fault level.
    fn decide_fault(&mut self, point: FaultPoint) -> bool {
        if point.step_index < self.prefix.len() {
            if self.prefix.fault_at(point.step_index) {
                self.path.add_fault(point.step_index);
                return true;
            }
            return false;
        }
        if self.emit_faults && point.step_index >= self.fresh_from {
            if let Some(cache) = &mut self.cache {
                if cache.covered_fault(point.tid) {
                    return false;
                }
            }
            let mut item = self.path.clone();
            item.add_fault(point.step_index);
            self.emitted_faults.push(item);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::search::testprog::{first_bug, schedule_count, Counters};
    use crate::search::Search;

    #[test]
    fn exhausts_two_by_two_counter_program() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(report.completed);
        assert_eq!(report.executions as u128, schedule_count(2, 2));
        assert_eq!(report.completed_bound, Some(2));
        // Per-bound execution counts for 2 threads × 2 steps:
        // bound 0: 0011, 1100; bound 1: 0110, 1001; bound 2: 0101, 1010.
        let per_bound: Vec<usize> = report.bound_history.iter().map(|b| b.executions).collect();
        assert_eq!(per_bound, vec![2, 2, 2]);
    }

    #[test]
    fn exhausts_three_by_two_counter_program() {
        let p = Counters {
            n: 3,
            k: 2,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(report.completed);
        assert_eq!(report.executions as u128, schedule_count(3, 2));
    }

    #[test]
    fn per_bound_counts_respect_theorem_1() {
        let p = Counters {
            n: 3,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(report.completed);
        for b in &report.bound_history {
            // Non-blocking program: each thread's only blocking action is
            // its fictitious termination, so b = 1 (Section 2).
            let bound = bounds::executions_with_preemptions(3, 3, 1, b.bound as u64).unwrap();
            assert!(
                (b.executions as u128) <= bound,
                "bound {}: {} > {}",
                b.bound,
                b.executions,
                bound
            );
        }
    }

    #[test]
    fn finds_bug_with_minimal_preemptions() {
        // Thread 1's first step must observe counter == 1: exactly one
        // step of thread 0 must precede it, which requires preempting
        // thread 0 once.
        let p = Counters {
            n: 2,
            k: 2,
            bug: Some((1, 0, 1)),
        };
        let bug = first_bug(&p, 10_000).expect("bug must be found");
        assert_eq!(bug.preemptions, 1);
    }

    #[test]
    fn finds_zero_preemption_bug_at_bound_zero() {
        // Thread 1's first step observes counter == 2: schedule 0 0 1 1,
        // reachable without preemptions.
        let p = Counters {
            n: 2,
            k: 2,
            bug: Some((1, 0, 2)),
        };
        let bug = first_bug(&p, 10_000).expect("bug must be found");
        assert_eq!(bug.preemptions, 0);
    }

    #[test]
    fn bug_schedule_replays_to_same_outcome() {
        let p = Counters {
            n: 2,
            k: 3,
            bug: Some((1, 1, 3)),
        };
        let bug = first_bug(&p, 100_000).expect("bug must be found");
        let mut replay = crate::replay::ReplayScheduler::new(bug.schedule.clone());
        let result =
            crate::ControlledProgram::execute(&p, &mut replay, &mut crate::coverage::NullSink);
        assert!(result.outcome.is_bug());
        assert_eq!(result.stats.preemptions, bug.preemptions);
    }

    #[test]
    fn respects_execution_budget() {
        let p = Counters {
            n: 3,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig::with_max_executions(7))
            .run()
            .unwrap();
        assert_eq!(report.executions, 7);
        assert!(!report.completed);
    }

    #[test]
    fn preemption_bound_stops_iteration() {
        let p = Counters {
            n: 2,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig {
                preemption_bound: Some(1),
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        assert_eq!(report.completed_bound, Some(1));
        assert!(!report.completed); // deeper bounds exist but were skipped
        assert!(report.bound_history.len() == 2);
        // All explored executions have at most 1 preemption.
        assert!(report.max_stats.preemptions <= 1);
    }

    #[test]
    fn bound_zero_explores_without_limiting_depth() {
        // Even at bound 0, executions run to completion: max steps equals
        // the full program length.
        let p = Counters {
            n: 2,
            k: 5,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig {
                preemption_bound: Some(0),
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        assert_eq!(report.max_stats.steps, 10);
        assert_eq!(report.max_stats.preemptions, 0);
        assert_eq!(report.executions, 2); // 0^5 1^5 and 1^5 0^5
    }

    #[test]
    fn queue_cap_sets_truncated() {
        let p = Counters {
            n: 3,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig {
                max_work_queue: Some(1),
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        assert!(report.truncated);
        assert!(!report.completed);
    }

    #[test]
    fn executions_are_distinct_schedules() {
        // The nested DFS must not re-run identical schedules: total
        // executions equals the number of distinct schedules, which for
        // the no-bug counter program is the multinomial count.
        let p = Counters {
            n: 2,
            k: 4,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert_eq!(report.executions as u128, schedule_count(2, 4));
    }
}
