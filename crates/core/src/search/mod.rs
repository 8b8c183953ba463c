//! Systematic search strategies over the schedule tree of a
//! [`ControlledProgram`] implementation.
//!
//! [`ControlledProgram`]: crate::program::ControlledProgram
//!
//! * [`Strategy::Icb`] — **iterative context bounding**, the paper's
//!   Algorithm 1 in its stateless (replay-based) form: all executions with
//!   `i` preemptions are explored before any execution with `i + 1`.
//! * [`Strategy::Dfs`] / [`Strategy::DepthBounded`] — depth-first
//!   enumeration of all schedules, optionally depth-bounded (the paper's
//!   `dfs` and `db:N` baselines).
//! * [`Strategy::IterativeDeepening`] — iterative depth-bounding (`idfs`).
//! * [`Strategy::Random`] — uniform random walk (`random`).
//! * [`Strategy::BestFirst`] — the Groce–Visser "more enabled threads"
//!   heuristic from the paper's related work.
//!
//! Every strategy runs through the one [`Search`] builder and shares
//! [`SearchConfig`] / [`SearchReport`].

mod bestfirst;
mod dfs;
pub mod frontier;
mod icb;
mod parallel;
mod random;
mod session;

pub use frontier::Frontier;
pub use session::{Search, SearchError, Strategy};

use crate::cache::ExplorationCache;
use crate::coverage::{CoverageTracker, StateSink};
use crate::program::{ControlledProgram, Scheduler};
use crate::snapshot::ResumeBase;
use crate::telemetry::{AbortReason, ChoiceKind, ResumeInfo, SearchObserver, SiteId};
use crate::tid::Tid;
use crate::trace::{
    DivergencePayload, ExecStats, ExecutionOutcome, ExecutionResult, Schedule, Trace,
};

/// Limits and options common to all search strategies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchConfig {
    /// Stop after this many executions (`None` = unlimited; prefer a
    /// limit for programs whose schedule space you have not measured).
    pub max_executions: Option<usize>,
    /// For [`Strategy::Icb`]: stop after *completing* this preemption bound.
    /// `None` iterates until the space is exhausted or another limit
    /// triggers.
    pub preemption_bound: Option<usize>,
    /// For [`Strategy::Icb`]: the iterative *fault bound* `f`, composing
    /// lexicographically with the preemption bound `c` — levels are
    /// explored in the order `(0,0), (0,1), …, (0,f), (1,0), …`, so the
    /// first bug found carries a minimum-`(preemptions, faults)`
    /// witness. 0 (the default) never injects a fault and reproduces
    /// pre-fault behavior exactly.
    pub fault_bound: usize,
    /// Abort the search as soon as the first bug is recorded.
    pub stop_on_first_bug: bool,
    /// Keep at most this many bug reports (further buggy executions are
    /// still counted in [`SearchReport::buggy_executions`]).
    pub max_bug_reports: usize,
    /// Hard cap on the deferred work queue of [`Strategy::Icb`]; exceeding it
    /// sets [`SearchReport::truncated`]. `None` = unbounded.
    pub max_work_queue: Option<usize>,
    /// Wall-clock budget: the search stops (incomplete) after this long.
    /// `None` = unlimited.
    pub max_duration: Option<std::time::Duration>,
    /// Growth-curve sampling stride: one coverage-curve point per this
    /// many executions (see [`CoverageTracker::with_stride`]). The
    /// default of 1 keeps the legacy point-per-execution curve; raise it
    /// so million-execution runs don't hold a point per execution. 0 is
    /// treated as 1.
    pub coverage_stride: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_executions: Some(1_000_000),
            preemption_bound: None,
            fault_bound: 0,
            stop_on_first_bug: false,
            max_bug_reports: 64,
            max_work_queue: None,
            max_duration: None,
            coverage_stride: 1,
        }
    }
}

impl SearchConfig {
    /// Config that hunts for the first bug and stops.
    pub fn bug_hunt() -> Self {
        SearchConfig {
            stop_on_first_bug: true,
            ..SearchConfig::default()
        }
    }

    /// Config with an execution budget.
    pub fn with_max_executions(max: usize) -> Self {
        SearchConfig {
            max_executions: Some(max),
            ..SearchConfig::default()
        }
    }
}

/// A bug found by a search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BugReport {
    /// What went wrong.
    pub outcome: ExecutionOutcome,
    /// The complete schedule of the failing execution — replay it with
    /// [`crate::ReplayScheduler`] to reproduce the bug deterministically.
    pub schedule: Schedule,
    /// Number of preemptions in the failing execution. For [`Strategy::Icb`]
    /// the first report's value is *minimal* over all failing executions
    /// (lexicographically in `(preemptions, faults)` when a fault bound
    /// is set).
    pub preemptions: usize,
    /// Number of injected faults in the failing execution (0 unless the
    /// search ran with a fault bound).
    pub faults: usize,
    /// 1-based index of the failing execution within the search.
    pub execution_index: usize,
    /// Length of the failing execution in steps.
    pub steps: usize,
}

/// A schedule prefix whose subtree the search forfeited because replay
/// diverged there (the program under test is not deterministic).
///
/// Quarantined prefixes are *not* bugs in the program's logic — they are
/// failures of the testing infrastructure's determinism contract. The
/// search skips the diverging subtree and keeps going; the final
/// [`SearchReport`] lists what was forfeited so coverage claims can be
/// qualified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedTrace {
    /// The schedule prefix identifying the forfeited subtree.
    pub schedule: Schedule,
    /// The step index at which replay diverged.
    pub step: usize,
    /// The thread the recorded schedule expected to run.
    pub expected: Tid,
    /// The threads actually enabled at the diverging point.
    pub actual: Vec<Tid>,
}

/// Statistics for one completed preemption bound of [`Strategy::Icb`] — or,
/// when a fault bound is set, one `(preemption, fault)` level of the
/// lexicographic grid (one row per level, identified by
/// `(bound, faults)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundStats {
    /// The preemption bound these statistics describe.
    pub bound: usize,
    /// The fault level these statistics describe (0 in fault-free runs,
    /// where one row per preemption bound is emitted as before).
    pub faults: usize,
    /// Executions explored *at* this bound.
    pub executions: usize,
    /// Cumulative distinct states after completing this bound — the
    /// y-axis of Figures 1 and 4.
    pub cumulative_states: usize,
    /// Bugs first observed at this bound.
    pub bugs_found: usize,
}

/// Fingerprint-cache outcome of one search run (present only when a
/// cache was attached via [`Search::cache`](crate::search::Search)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Work items skipped because the cache already covered their
    /// `(state, next thread)` subtree.
    pub hits: usize,
    /// New `(state, next thread)` subtrees recorded.
    pub stores: usize,
    /// The cache pruned on *heuristic* (happens-before) fingerprints:
    /// the run is NOT exhaustive — a pruned subtree may have contained
    /// unvisited states. Always `false` for exact (explicit-state)
    /// fingerprints.
    pub heuristic: bool,
    /// The run was answered entirely from the certification ledger: a
    /// previous clean run already certified this program bug-free at
    /// the requested bound, so no executions were performed.
    pub certified: bool,
}

impl CacheSummary {
    /// Fraction of cache probes that hit, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.stores;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The result of running a search strategy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchReport {
    /// Human-readable strategy label (`icb`, `dfs`, `db:40`, …).
    pub strategy: String,
    /// Executions performed.
    pub executions: usize,
    /// Distinct state fingerprints visited.
    pub distinct_states: usize,
    /// Cumulative distinct states after each execution (Figures 2/5/6).
    pub coverage_curve: Vec<(usize, usize)>,
    /// Bug reports, in discovery order (capped by
    /// [`SearchConfig::max_bug_reports`]).
    pub bugs: Vec<BugReport>,
    /// Total executions that ended in a bug.
    pub buggy_executions: usize,
    /// `true` if the schedule space was exhausted within the limits.
    pub completed: bool,
    /// Highest preemption bound fully explored ([`Strategy::Icb`] only).
    pub completed_bound: Option<usize>,
    /// Per-bound statistics ([`Strategy::Icb`] only).
    pub bound_history: Vec<BoundStats>,
    /// Pointwise maxima of the per-execution statistics (Table 1).
    pub max_stats: ExecStats,
    /// Work had to be dropped (queue cap) — coverage claims are lower
    /// bounds only.
    pub truncated: bool,
    /// Schedule prefixes whose subtrees were forfeited because replay
    /// diverged (capped like bug reports; see `quarantined_total` for
    /// the full count).
    pub quarantined: Vec<QuarantinedTrace>,
    /// Total number of quarantined (forfeited) subtrees.
    pub quarantined_total: usize,
    /// Executions abandoned by the per-execution wall-clock watchdog.
    pub watchdog_trips: usize,
    /// Fingerprint-cache outcome; `None` when no cache was attached.
    /// When `cache.heuristic` is set the search was NOT exhaustive even
    /// if `completed` is `true` — see [`CacheSummary::heuristic`].
    pub cache: Option<CacheSummary>,
}

impl SearchReport {
    /// The first (for ICB: minimal-preemption) bug, if any was found.
    pub fn first_bug(&self) -> Option<&BugReport> {
        self.bugs.first()
    }

    /// The per-bound statistics ([`Strategy::Icb`] only) — the rows streamed
    /// through [`SearchObserver::bound_completed`] during the search.
    pub fn bound_stats(&self) -> &[BoundStats] {
        &self.bound_history
    }
}

impl std::fmt::Display for SearchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} executions, {} states",
            self.strategy, self.executions, self.distinct_states
        )?;
        if let Some(bound) = self.completed_bound {
            write!(f, ", bound {bound} complete")?;
        }
        if self.completed {
            write!(f, ", space exhausted")?;
        }
        if self.truncated {
            write!(f, ", TRUNCATED")?;
        }
        match self.buggy_executions {
            0 => write!(f, ", no bugs")?,
            n => {
                write!(f, ", {n} failing execution(s)")?;
                if let Some(bug) = self.first_bug() {
                    write!(
                        f,
                        "; first: {} ({} preemptions",
                        bug.outcome, bug.preemptions
                    )?;
                    // Stated only for faulted witnesses: fault-free
                    // reports stay byte-identical to older releases.
                    if bug.faults > 0 {
                        write!(f, ", {} faults", bug.faults)?;
                    }
                    write!(f, ")")?;
                }
            }
        }
        if self.quarantined_total > 0 {
            write!(
                f,
                ", {} subtree(s) quarantined (replay diverged; space forfeited)",
                self.quarantined_total
            )?;
        }
        if self.watchdog_trips > 0 {
            write!(f, ", {} watchdog trip(s)", self.watchdog_trips)?;
        }
        if let Some(cache) = &self.cache {
            if cache.certified {
                write!(f, ", CERTIFIED (answered from cache ledger)")?;
            } else {
                write!(
                    f,
                    ", cache: {} hit(s) / {} store(s)",
                    cache.hits, cache.stores
                )?;
            }
            if cache.heuristic {
                write!(f, ", HEURISTIC fingerprints (non-exhaustive)")?;
            }
        }
        Ok(())
    }
}

/// A fingerprint cache attached to one search run, resolved by the
/// session builder: the cache itself plus the exactness of the
/// program's fingerprints (heuristic pruning makes the run
/// non-exhaustive; the flag is carried into the report).
#[derive(Clone, Copy)]
pub(crate) struct CacheBinding<'c> {
    pub(crate) cache: &'c dyn ExplorationCache,
    pub(crate) heuristic: bool,
}

impl std::fmt::Debug for CacheBinding<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheBinding")
            .field("heuristic", &self.heuristic)
            .finish_non_exhaustive()
    }
}

/// Shared bookkeeping: budget, coverage, bug collection, telemetry.
pub(crate) struct SearchCtx<'o> {
    pub(crate) config: SearchConfig,
    pub(crate) started: std::time::Instant,
    pub(crate) coverage: CoverageTracker,
    pub(crate) executions: usize,
    pub(crate) bugs: Vec<BugReport>,
    pub(crate) buggy_executions: usize,
    pub(crate) max_stats: ExecStats,
    pub(crate) stop: bool,
    pub(crate) abort: Option<AbortReason>,
    /// The preemption bound the strategy is currently exploring, used to
    /// attribute `choice_point` events. Strategies without bounds leave
    /// it at 0.
    pub(crate) current_bound: usize,
    pub(crate) quarantined: Vec<QuarantinedTrace>,
    pub(crate) quarantined_total: usize,
    pub(crate) watchdog_trips: usize,
    /// Cache accounting; `Some` only when the driver attached a cache
    /// (the summary's `heuristic` flag is fixed at attach time, the
    /// counters accumulate during the search).
    pub(crate) cache: Option<CacheSummary>,
    pub(crate) observer: &'o mut dyn SearchObserver,
}

impl<'o> SearchCtx<'o> {
    pub(crate) fn new(config: SearchConfig, observer: &'o mut dyn SearchObserver) -> Self {
        let stride = config.coverage_stride;
        SearchCtx {
            config,
            started: std::time::Instant::now(),
            coverage: CoverageTracker::new().with_stride(stride),
            executions: 0,
            bugs: Vec::new(),
            buggy_executions: 0,
            max_stats: ExecStats::default(),
            stop: false,
            abort: None,
            current_bound: 0,
            quarantined: Vec::new(),
            quarantined_total: 0,
            watchdog_trips: 0,
            cache: None,
            observer,
        }
    }

    /// Attaches cache accounting to the context: the report will carry a
    /// [`CacheSummary`] with the given exactness flag.
    pub(crate) fn attach_cache(&mut self, heuristic: bool) {
        self.cache = Some(CacheSummary {
            heuristic,
            ..CacheSummary::default()
        });
    }

    /// Counts one cache hit (a pruned work item) and tells the observer.
    pub(crate) fn cache_hit(&mut self, count: usize) {
        if count == 0 {
            return;
        }
        if let Some(cache) = &mut self.cache {
            cache.hits += count;
        }
        self.observer.cache_hit(count);
    }

    /// Seeds the coverage tracker with state fingerprints inherited from
    /// previous runs (see [`ExplorationCache::seed_states`]), so a warm
    /// run's *final* coverage matches the cold run it prunes parts of.
    pub(crate) fn seed_coverage(&mut self, states: &[u64]) {
        for &fp in states {
            self.coverage.visit(fp);
        }
    }

    /// Counts one cache store (a newly recorded subtree) and tells the
    /// observer.
    pub(crate) fn cache_store(&mut self, count: usize) {
        if count == 0 {
            return;
        }
        if let Some(cache) = &mut self.cache {
            cache.stores += count;
        }
        self.observer.cache_store(count);
    }

    /// Seeds the context's cumulative counters, coverage and findings
    /// from a checkpoint, then announces the resume to the observer.
    /// `bound_executions` is the number of executions already spent at
    /// the bound being resumed (0 for unbounded strategies).
    pub(crate) fn restore(&mut self, base: ResumeBase, bound: usize, bound_executions: usize) {
        self.executions = base.executions;
        self.buggy_executions = base.buggy_executions;
        self.bugs = base.bugs;
        self.max_stats = base.max_stats;
        self.quarantined = base.quarantined;
        self.quarantined_total = base.quarantined_total;
        self.watchdog_trips = base.watchdog_trips;
        self.coverage = CoverageTracker::restore(
            base.coverage_states,
            base.coverage_executions,
            base.coverage_curve,
        )
        .with_stride(self.config.coverage_stride);
        self.current_bound = bound;
        let info = ResumeInfo {
            executions: self.executions,
            distinct_states: self.coverage.distinct_states(),
            bound,
            bound_executions,
        };
        self.observer.search_resumed(&info);
    }

    /// Extracts the cumulative counters, coverage and findings into the
    /// strategy-independent half of a checkpoint.
    pub(crate) fn snapshot_base(&self) -> ResumeBase {
        ResumeBase {
            executions: self.executions,
            buggy_executions: self.buggy_executions,
            bugs: self.bugs.clone(),
            max_stats: self.max_stats,
            quarantined: self.quarantined.clone(),
            quarantined_total: self.quarantined_total,
            watchdog_trips: self.watchdog_trips,
            coverage_states: self.coverage.state_hashes(),
            coverage_executions: self.coverage.executions(),
            coverage_curve: self.coverage.curve().to_vec(),
            truncated: false,
        }
    }

    /// Quarantines a diverging schedule prefix: counts it, keeps a
    /// capped list for the report, and notifies the observer. The
    /// search forfeits the prefix's subtree and keeps going.
    pub(crate) fn quarantine(&mut self, q: QuarantinedTrace) {
        self.quarantined_total += 1;
        self.observer.trace_quarantined(&q);
        if self.quarantined.len() < self.config.max_bug_reports {
            self.quarantined.push(q);
        }
    }

    /// Remaining execution budget, `usize::MAX` if unlimited.
    pub(crate) fn remaining_budget(&self) -> usize {
        match self.config.max_executions {
            Some(max) => max.saturating_sub(self.executions),
            None => usize::MAX,
        }
    }

    /// Announces the next execution to the observer. Call immediately
    /// before `execute`; every call must be paired with one `record`.
    pub(crate) fn begin_execution(&mut self) {
        self.observer.execution_started(self.executions + 1);
    }

    /// Stops the search, reporting the (first) reason to the observer.
    pub(crate) fn halt(&mut self, reason: AbortReason) {
        if !self.stop {
            self.stop = true;
            self.abort = Some(reason);
            self.observer.search_aborted(reason);
        }
    }

    /// Whether the wall-clock budget is exhausted.
    pub(crate) fn over_deadline(&self) -> bool {
        self.config
            .max_duration
            .is_some_and(|limit| self.started.elapsed() >= limit)
    }

    /// Streams the attributed per-decision events of a finished
    /// execution — one `choice_point` per trace entry, plus a
    /// `preemption_taken` charged to the victim's most recent operation.
    /// One batched pass, entered only when an observer asked for it, so
    /// the hot path of an unprofiled search is a single branch.
    fn emit_choice_points(&mut self, result: &ExecutionResult) {
        for ev in choice_events(result) {
            self.observer
                .choice_point(ev.site, self.current_bound, ev.kind);
            if let Some(victim) = ev.victim {
                self.observer.preemption_taken(victim);
            }
        }
    }

    /// Records a finished execution; sets `stop` when a limit is hit.
    pub(crate) fn record(&mut self, result: &ExecutionResult, cost: usize) {
        self.executions += cost;
        self.coverage.end_execution();
        self.max_stats = self.max_stats.max(result.stats);
        if self.observer.wants_choice_points() {
            self.emit_choice_points(result);
        }
        if result.stats.faults > 0 {
            for (site, step) in fault_events(result) {
                self.observer.fault_injected(site, step);
            }
        }
        self.observer.execution_finished(
            self.executions,
            &result.stats,
            &result.outcome,
            self.coverage.distinct_states(),
        );
        if result.outcome == ExecutionOutcome::WatchdogTimeout {
            self.watchdog_trips += 1;
        }
        if result.outcome.is_bug() {
            self.buggy_executions += 1;
            if self.bugs.len() < self.config.max_bug_reports {
                let bug = BugReport {
                    outcome: result.outcome.clone(),
                    schedule: result.trace.schedule(),
                    preemptions: result.stats.preemptions,
                    faults: result.stats.faults,
                    execution_index: self.executions,
                    steps: result.stats.steps,
                };
                self.observer.bug_found(&bug);
                self.bugs.push(bug);
            }
            if self.config.stop_on_first_bug {
                self.halt(AbortReason::FirstBug);
            }
        }
        if self.remaining_budget() == 0 {
            self.halt(AbortReason::ExecutionBudget);
        }
        if self.over_deadline() {
            self.halt(AbortReason::Timeout);
        }
    }

    /// Converts the context into a report (emitting `search_finished`).
    /// `completed` must reflect whether the strategy exhausted its
    /// search space. A timed-out search is additionally marked truncated
    /// so it is distinguishable from an exhausted one.
    pub(crate) fn into_report(
        mut self,
        strategy: String,
        completed: bool,
        completed_bound: Option<usize>,
        bound_history: Vec<BoundStats>,
        truncated: bool,
    ) -> SearchReport {
        let coverage = std::mem::take(&mut self.coverage);
        let report = SearchReport {
            strategy,
            executions: self.executions,
            distinct_states: coverage.distinct_states(),
            coverage_curve: coverage.into_curve(),
            bugs: std::mem::take(&mut self.bugs),
            buggy_executions: self.buggy_executions,
            completed,
            completed_bound,
            bound_history,
            max_stats: self.max_stats,
            truncated: truncated || self.abort == Some(AbortReason::Timeout),
            quarantined: std::mem::take(&mut self.quarantined),
            quarantined_total: self.quarantined_total,
            watchdog_trips: self.watchdog_trips,
            cache: self.cache.take(),
        };
        self.observer.search_finished(&report);
        report
    }
}

/// One attributed scheduling decision of a finished execution, extracted
/// from its trace: the site, the decision kind, and — for preemptions —
/// the victim's most recent site (`entry.current == entries[i-1].chosen`,
/// so the previous entry's site is the last op the preempted thread
/// executed). Shared by the sequential [`SearchCtx`] and the parallel
/// event pump so both attribute identically.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChoiceEvent {
    pub(crate) site: SiteId,
    pub(crate) kind: ChoiceKind,
    pub(crate) victim: Option<SiteId>,
}

/// The injected faults of a finished execution, as `(site, step)` pairs
/// in step order. Shared by the sequential [`SearchCtx`] and the
/// parallel event pump so both attribute identically.
pub(crate) fn fault_events(result: &ExecutionResult) -> Vec<(SiteId, usize)> {
    result
        .trace
        .entries()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.fault)
        .map(|(i, e)| (e.site, i))
        .collect()
}

pub(crate) fn choice_events(result: &ExecutionResult) -> Vec<ChoiceEvent> {
    let entries = result.trace.entries();
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let kind = if entry.is_preemption() {
                ChoiceKind::Preemption
            } else if entry.is_context_switch() {
                ChoiceKind::Switch
            } else {
                ChoiceKind::Continue
            };
            let victim = (kind == ChoiceKind::Preemption).then(|| {
                i.checked_sub(1)
                    .map_or(SiteId::UNKNOWN, |p| entries[p].site)
            });
            ChoiceEvent {
                site: entry.site,
                kind,
                victim,
            }
        })
        .collect()
}

/// Runs one execution, converting a [`DivergencePayload`] unwind coming
/// out of an *in-process* program host (the state VM, test programs)
/// into a recoverable [`ExecutionOutcome::ReplayDivergence`] result. The
/// threaded runtime catches the payload inside its engine and returns
/// the same outcome with the partial trace attached; either way the
/// strategies see divergence as an outcome, never as a panic. Any other
/// payload is a genuine panic and is re-raised.
pub(crate) fn execute_recovering(
    program: &dyn ControlledProgram,
    scheduler: &mut dyn Scheduler,
    coverage: &mut dyn StateSink,
    observer: &mut dyn SearchObserver,
) -> ExecutionResult {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        program.execute_observed(scheduler, coverage, observer)
    }));
    match run {
        Ok(result) => result,
        Err(payload) => match payload.downcast::<DivergencePayload>() {
            // The host's trace died with the unwind; the quarantine
            // entry (recorded by the caller) identifies the subtree.
            Ok(d) => ExecutionResult::from_trace(d.into_outcome(), Trace::new()),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

#[cfg(test)]
pub(crate) mod testprog {
    //! A tiny deterministic multithreaded interpreter used by the search
    //! unit tests: `n` threads, each executing `k` increments of a shared
    //! counter; an optional assertion fails iff a specific interleaving
    //! pattern occurs. Enabledness can include a one-slot "lock" to
    //! exercise blocking (nonpreempting switches).

    use crate::coverage::{fingerprint_bytes, StateSink};
    use crate::program::{ControlledProgram, FaultPoint, SchedulePoint, Scheduler};
    use crate::search::{BugReport, Search, SearchConfig};
    use crate::telemetry::SiteId;
    use crate::tid::Tid;
    use crate::trace::{ExecutionOutcome, ExecutionResult, Trace, TraceEntry};

    /// `n` threads × `k` steps, no blocking; optional bug when thread
    /// `bug_thread` observes `counter == bug_value` at its own step
    /// `bug_step`.
    pub(crate) struct Counters {
        pub n: usize,
        pub k: usize,
        pub bug: Option<(usize, usize, u32)>, // (thread, its step, counter value)
    }

    impl ControlledProgram for Counters {
        fn execute(
            &self,
            scheduler: &mut dyn Scheduler,
            sink: &mut dyn StateSink,
        ) -> ExecutionResult {
            let mut counter: u32 = 0;
            let mut pos = vec![0usize; self.n];
            let mut trace = Trace::new();
            let mut current: Option<Tid> = None;
            let mut failure: Option<Tid> = None;
            loop {
                let enabled: Vec<Tid> = (0..self.n).filter(|&i| pos[i] < self.k).map(Tid).collect();
                if enabled.is_empty() {
                    break;
                }
                let current_enabled = current.is_some_and(|t| pos[t.index()] < self.k);
                let chosen = scheduler.pick(SchedulePoint {
                    step_index: trace.len(),
                    current,
                    current_enabled,
                    enabled: &enabled,
                });
                trace.push(TraceEntry::new(
                    chosen,
                    enabled,
                    current,
                    current_enabled,
                    false,
                ));
                if let Some((bt, bs, bv)) = self.bug {
                    if chosen.index() == bt && pos[bt] == bs && counter == bv {
                        failure = Some(chosen);
                    }
                }
                counter += 1;
                pos[chosen.index()] += 1;
                current = Some(chosen);

                let mut bytes = Vec::with_capacity(4 + self.n * 8);
                bytes.extend_from_slice(&counter.to_le_bytes());
                for p in &pos {
                    bytes.extend_from_slice(&(*p as u64).to_le_bytes());
                }
                sink.visit(fingerprint_bytes(&bytes));

                if failure.is_some() {
                    break;
                }
            }
            let outcome = match failure {
                Some(thread) => ExecutionOutcome::AssertionFailure {
                    thread,
                    message: "bug pattern hit".into(),
                },
                None => ExecutionOutcome::Terminated,
            };
            ExecutionResult::from_trace(outcome, trace)
        }
    }

    /// `n` threads × `k` increments where every increment is a fallible
    /// operation: the scheduler may fault it, in which case the update is
    /// lost. The final counter is asserted at join, so the bug is
    /// invisible at `fault_bound: 0` and has a minimum witness of zero
    /// preemptions and exactly one injected fault.
    pub(crate) struct FaultyCounters {
        pub n: usize,
        pub k: usize,
    }

    impl ControlledProgram for FaultyCounters {
        fn execute(
            &self,
            scheduler: &mut dyn Scheduler,
            sink: &mut dyn StateSink,
        ) -> ExecutionResult {
            let mut counter: u32 = 0;
            let mut pos = vec![0usize; self.n];
            let mut trace = Trace::new();
            let mut current: Option<Tid> = None;
            loop {
                let enabled: Vec<Tid> = (0..self.n).filter(|&i| pos[i] < self.k).map(Tid).collect();
                if enabled.is_empty() {
                    break;
                }
                let current_enabled = current.is_some_and(|t| pos[t.index()] < self.k);
                let chosen = scheduler.pick(SchedulePoint {
                    step_index: trace.len(),
                    current,
                    current_enabled,
                    enabled: &enabled,
                });
                let site = SiteId::at(chosen.index() as u32, "incr", pos[chosen.index()] as u32);
                let fault = scheduler.decide_fault(FaultPoint {
                    step_index: trace.len(),
                    tid: chosen,
                    site,
                });
                trace.push(
                    TraceEntry::new(chosen, enabled, current, current_enabled, false)
                        .with_site(site)
                        .with_fault(fault),
                );
                if !fault {
                    counter += 1;
                }
                pos[chosen.index()] += 1;
                current = Some(chosen);

                let mut bytes = Vec::with_capacity(4 + self.n * 8);
                bytes.extend_from_slice(&counter.to_le_bytes());
                for p in &pos {
                    bytes.extend_from_slice(&(*p as u64).to_le_bytes());
                }
                sink.visit(fingerprint_bytes(&bytes));
            }
            let expected = (self.n * self.k) as u32;
            let outcome = if counter == expected {
                ExecutionOutcome::Terminated
            } else {
                ExecutionOutcome::AssertionFailure {
                    thread: Tid(0),
                    message: format!("lost update: counter {counter} != {expected}"),
                }
            };
            ExecutionResult::from_trace(outcome, trace)
        }
    }

    /// The first bug of a stop-on-first-bug ICB search within
    /// `max_executions` — a minimal-preemption witness.
    pub(crate) fn first_bug(
        program: &(dyn ControlledProgram + Sync),
        max_executions: usize,
    ) -> Option<BugReport> {
        Search::over(program)
            .config(SearchConfig {
                max_executions: Some(max_executions),
                stop_on_first_bug: true,
                ..SearchConfig::default()
            })
            .run()
            .expect("valid configuration")
            .bugs
            .into_iter()
            .next()
    }

    /// Total number of schedules of `n` threads × `k` steps:
    /// multinomial (nk)! / (k!)^n.
    pub(crate) fn schedule_count(n: u64, k: u64) -> u128 {
        let f = |x: u64| crate::bounds::factorial(x).unwrap();
        f(n * k) / f(k).pow(n as u32)
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;
    use crate::search::testprog::Counters;

    #[test]
    fn display_summarizes_reports() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: Some((1, 0, 1)),
        };
        let report = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        let text = report.to_string();
        assert!(text.starts_with("[icb]"), "{text}");
        assert!(text.contains("executions"), "{text}");
        assert!(text.contains("failing execution"), "{text}");
        assert!(text.contains("preemptions"), "{text}");
    }

    #[test]
    fn clean_report_displays_no_bugs() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: None,
        };
        let report = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        let text = report.to_string();
        assert!(text.contains("no bugs"), "{text}");
        assert!(text.contains("space exhausted"), "{text}");
    }

    #[test]
    fn choice_points_batch_per_execution_and_count_preemptions() {
        use crate::telemetry::{ChoiceKind, SiteId};

        #[derive(Default)]
        struct Counting {
            choices: usize,
            preemptions: usize,
            max_bound: usize,
            open_execution: bool,
            out_of_band: bool,
        }
        impl SearchObserver for Counting {
            fn wants_choice_points(&self) -> bool {
                true
            }
            fn execution_started(&mut self, _index: usize) {
                self.open_execution = true;
            }
            fn execution_finished(
                &mut self,
                _index: usize,
                _stats: &ExecStats,
                _outcome: &ExecutionOutcome,
                _distinct_states: usize,
            ) {
                self.open_execution = false;
            }
            fn choice_point(&mut self, _site: SiteId, bound: usize, kind: ChoiceKind) {
                self.choices += 1;
                self.max_bound = self.max_bound.max(bound);
                self.out_of_band |= !self.open_execution;
                if kind == ChoiceKind::Preemption {
                    // `preemption_taken` must follow; counted there.
                }
            }
            fn preemption_taken(&mut self, _site: SiteId) {
                self.preemptions += 1;
                self.out_of_band |= !self.open_execution;
            }
        }

        let p = Counters {
            n: 2,
            k: 2,
            bug: None,
        };
        let mut obs = Counting::default();
        let report = Search::over(&p)
            .config(SearchConfig::default())
            .observer(&mut obs)
            .run()
            .unwrap();
        // One choice_point per step of every execution: 6 executions
        // of 4 steps each for the 2×2 counter program.
        assert_eq!(obs.choices, report.executions * 4);
        // Preemption events across the whole search equal the per-bound
        // totals: bounds 0/1/2 contribute 0, 2·1 and 2·2 preemptions.
        assert_eq!(obs.preemptions, 6);
        assert_eq!(obs.max_bound, 2, "bound attribution follows ICB's bounds");
        assert!(
            !obs.out_of_band,
            "attributed events arrive inside an open execution"
        );
    }

    #[test]
    fn choice_points_are_not_emitted_unrequested() {
        #[derive(Default)]
        struct Refusing {
            attributed: usize,
        }
        impl SearchObserver for Refusing {
            fn choice_point(
                &mut self,
                _site: crate::telemetry::SiteId,
                _bound: usize,
                _kind: crate::telemetry::ChoiceKind,
            ) {
                self.attributed += 1;
            }
            fn preemption_taken(&mut self, _site: crate::telemetry::SiteId) {
                self.attributed += 1;
            }
        }
        let p = Counters {
            n: 2,
            k: 2,
            bug: None,
        };
        let mut obs = Refusing::default();
        Search::over(&p)
            .config(SearchConfig::default())
            .observer(&mut obs)
            .run()
            .unwrap();
        assert_eq!(obs.attributed, 0, "gate defaults to off");
    }
}
