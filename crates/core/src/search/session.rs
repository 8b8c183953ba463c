//! The unified search session API.
//!
//! [`Search`] is the one public entry point for running any strategy: a
//! single builder that validates its configuration up front (returning a
//! typed [`SearchError`] instead of panicking) and dispatches to the
//! sequential drivers at `jobs == 1` or the parallel drivers at
//! `jobs > 1`.
//!
//! ```text
//! Search::over(&program)
//!     .strategy(Strategy::Icb)
//!     .config(SearchConfig::with_max_executions(10_000))
//!     .jobs(4)
//!     .run()?
//! ```
//!
//! # Determinism contract
//!
//! * `jobs == 1` runs the sequential drivers: reports and telemetry are
//!   a deterministic function of the program and the configuration.
//! * Any `jobs >= 2` produces the *same* [`SearchReport`] as any other
//!   `jobs >= 2` — worker count and timing only affect wall-clock.
//!   Bugs are merged first-bug-wins by minimal preemption count, then
//!   lexicographic schedule; coverage and per-bound statistics are
//!   synchronized at bound barriers.
//! * `jobs == 1` vs `jobs >= 2` agree on every order-*independent*
//!   field (executions, distinct states, bound history, bug schedules);
//!   execution *numbering* of individual bug reports may differ because
//!   the parallel merge renumbers canonically. The random strategy
//!   additionally samples walks from per-index streams when parallel,
//!   which is a different (equally uniform) sampling than the
//!   sequential single stream.

use std::sync::Arc;
use std::time::Duration;

use crate::cache::{Certification, ExplorationCache};
use crate::metrics::{MetricsBridge, MetricsRegistry};
use crate::program::ControlledProgram;
use crate::search::bestfirst::BestFirstSearch;
use crate::search::dfs::{Branch as DfsBranch, DfsSearch, IterativeDeepeningSearch};
use crate::search::icb::{validate_branches, IcbSearch};
use crate::search::parallel::{run_parallel_dfs, run_parallel_icb, run_parallel_random};
use crate::search::random::RandomSearch;
use crate::search::{CacheBinding, CacheSummary, SearchConfig, SearchReport};
use crate::snapshot::{Checkpointer, SearchSnapshot, SnapshotError, StrategyState};
use crate::telemetry::{NoopObserver, SearchObserver};
use crate::trace::Schedule;

/// Which search algorithm a [`Search`] session runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Iterative context bounding (the paper's Algorithm 1). The
    /// default.
    #[default]
    Icb,
    /// Unbounded depth-first search (`dfs`).
    Dfs,
    /// Depth-bounded DFS (`db:N`).
    DepthBounded(usize),
    /// Iterative deepening DFS (`idfs`). Sequential only.
    IterativeDeepening {
        /// Initial depth bound.
        start: usize,
        /// Bound increment per iteration (must be positive).
        step: usize,
        /// Final depth bound.
        max: usize,
    },
    /// Seeded uniform random walk (`random`). Requires an execution
    /// budget.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Coverage-guided best-first search. Sequential only; requires an
    /// execution budget.
    BestFirst,
}

impl Strategy {
    /// The strategy's report label (`SearchReport::strategy`), matching
    /// the paper's naming: `icb`, `dfs`, `db:N`, `idfs-MAX`, `random`,
    /// `best-first`.
    pub fn label(&self) -> String {
        match self {
            Strategy::Icb => "icb".to_string(),
            Strategy::Dfs => "dfs".to_string(),
            Strategy::DepthBounded(b) => format!("db:{b}"),
            Strategy::IterativeDeepening { max, .. } => format!("idfs-{max}"),
            Strategy::Random { .. } => "random".to_string(),
            Strategy::BestFirst => "best-first".to_string(),
        }
    }
}

/// A configuration rejected by [`Search::run`] before any execution.
#[derive(Debug)]
pub enum SearchError {
    /// `jobs(0)` — there must be at least one worker.
    ZeroJobs,
    /// `max_duration` of zero — the search could never run an execution.
    ZeroDuration,
    /// A [`Checkpointer`] with a checkpoint interval of zero executions.
    ZeroCheckpointInterval,
    /// The strategy requires `max_executions` (random and best-first
    /// never exhaust the schedule space on their own).
    MissingBudget,
    /// The requested combination is not supported (e.g. `jobs > 1` for a
    /// sequential-only strategy); the message says what and why.
    Unsupported(String),
    /// The resume snapshot was rejected.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::ZeroJobs => write!(f, "jobs must be at least 1"),
            SearchError::ZeroDuration => {
                write!(f, "max_duration of zero would never run an execution")
            }
            SearchError::ZeroCheckpointInterval => {
                write!(f, "checkpoint interval must be at least 1 execution")
            }
            SearchError::MissingBudget => {
                write!(
                    f,
                    "this strategy requires an execution budget (max_executions)"
                )
            }
            SearchError::Unsupported(msg) => write!(f, "{msg}"),
            SearchError::Snapshot(e) => write!(f, "resume snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SearchError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for SearchError {
    fn from(e: SnapshotError) -> Self {
        SearchError::Snapshot(e)
    }
}

/// A search session over one program: strategy, configuration, worker
/// count, telemetry, checkpointing and resume, behind a single `run`.
///
/// This builder is the only way to start a search; the per-strategy
/// drivers behind it are private.
///
/// # Example
///
/// ```
/// # use icb_core::{ControlledProgram, Scheduler, SchedulePoint, StateSink,
/// #                ExecutionResult, ExecutionOutcome, Tid, TraceEntry, ExecStats};
/// # struct Toy;
/// # impl ControlledProgram for Toy {
/// #     fn execute(&self, sched: &mut dyn Scheduler, _sink: &mut dyn StateSink)
/// #         -> ExecutionResult
/// #     {
/// #         let mut done = [false, false];
/// #         let mut trace = Vec::new();
/// #         let mut current: Option<Tid> = None;
/// #         loop {
/// #             let enabled: Vec<Tid> = (0..2)
/// #                 .filter(|&i| !done[i]).map(Tid).collect();
/// #             if enabled.is_empty() { break; }
/// #             let current_enabled = current.map_or(false, |t| !done[t.index()]);
/// #             let chosen = sched.pick(SchedulePoint {
/// #                 step_index: trace.len(), current, current_enabled,
/// #                 enabled: &enabled,
/// #             });
/// #             trace.push(TraceEntry::new(chosen, enabled.clone(), current,
/// #                                        current_enabled, false));
/// #             done[chosen.index()] = true;
/// #             current = Some(chosen);
/// #         }
/// #         ExecutionResult {
/// #             outcome: ExecutionOutcome::Terminated,
/// #             trace: trace.into(),
/// #             stats: ExecStats::default(),
/// #         }
/// #     }
/// # }
/// use icb_core::search::{Search, SearchConfig, Strategy};
///
/// // Sequential ICB with the default configuration:
/// let report = Search::over(&Toy).run()?;
/// assert!(report.completed);
///
/// // The same search sharded over two workers — the report's
/// // order-independent fields are identical:
/// let parallel = Search::over(&Toy)
///     .strategy(Strategy::Icb)
///     .jobs(2)
///     .run()?;
/// assert_eq!(parallel.executions, report.executions);
/// assert_eq!(parallel.distinct_states, report.distinct_states);
///
/// // Invalid configurations fail up front with a typed error:
/// assert!(Search::over(&Toy).jobs(0).run().is_err());
///
/// // A budgeted random walk:
/// let walk = Search::over(&Toy)
///     .strategy(Strategy::Random { seed: 7 })
///     .config(SearchConfig::with_max_executions(10))
///     .run()?;
/// assert_eq!(walk.executions, 10);
/// # Ok::<(), icb_core::search::SearchError>(())
/// ```
///
/// # Resume
///
/// Resume dispatches on the *snapshot's* strategy state, so one
/// `resume_from` call resumes every strategy; any `strategy(..)` set
/// alongside `resume_from` is ignored.
pub struct Search<'a> {
    program: &'a (dyn ControlledProgram + Sync),
    strategy: Strategy,
    config: SearchConfig,
    jobs: usize,
    observer: Option<&'a mut dyn SearchObserver>,
    checkpoint: Option<Checkpointer>,
    resume: Option<SearchSnapshot>,
    cache: Option<&'a dyn ExplorationCache>,
    cache_heuristic: bool,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for Search<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Search")
            .field("strategy", &self.strategy)
            .field("config", &self.config)
            .field("jobs", &self.jobs)
            .field("observed", &self.observer.is_some())
            .field("checkpointed", &self.checkpoint.is_some())
            .field("resuming", &self.resume.is_some())
            .field("cached", &self.cache.is_some())
            .field("metered", &self.metrics.is_some())
            .finish()
    }
}

impl<'a> Search<'a> {
    /// Starts building a search session over `program`.
    ///
    /// The program must be `Sync` because `jobs > 1` shares it across
    /// worker threads; [`ControlledProgram`] implementations take
    /// `&self`, so this is the natural bound and every in-repo host
    /// already satisfies it.
    pub fn over(program: &'a (dyn ControlledProgram + Sync)) -> Self {
        Search {
            program,
            strategy: Strategy::default(),
            config: SearchConfig::default(),
            jobs: 1,
            observer: None,
            checkpoint: None,
            resume: None,
            cache: None,
            cache_heuristic: false,
            metrics: None,
        }
    }

    /// Selects the strategy (default: [`Strategy::Icb`]). Ignored when
    /// [`resume_from`](Search::resume_from) is set — the snapshot knows
    /// its own strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the search configuration (bounds, budgets, deadline).
    /// Ignored when resuming — the snapshot carries the original run's
    /// configuration.
    pub fn config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the iterative *fault bound*: designated fallible operations
    /// (`try_lock`, condvar waits, bounded sends, `fail_point`s) become
    /// searched binary choice points, explored in lexicographic
    /// `(preemptions, faults)` level order so the first bug found
    /// carries a minimum-`(preemptions, faults)` witness. Only
    /// [`Strategy::Icb`] supports a non-zero fault bound; other
    /// strategies are rejected up front. The default of 0 never injects
    /// and behaves exactly as before the fault dimension existed.
    pub fn fault_bound(mut self, bound: usize) -> Self {
        self.config.fault_bound = bound;
        self
    }

    /// Shards the search over `jobs` worker threads (default 1). At 1
    /// the unchanged sequential driver runs; above 1 each worker owns
    /// its own engine and race detector, pulling work items from a
    /// shared [`Frontier`](crate::search::Frontier) with work-stealing
    /// rebalance, and results are merged deterministically.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Streams telemetry events to `observer` during the run.
    pub fn observer(mut self, observer: &'a mut dyn SearchObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Writes crash-resumable snapshots through `checkpointer`
    /// periodically and at every abort, and removes the file on clean
    /// completion. A checkpointing search also polls
    /// [`interrupt::interrupted`](crate::snapshot::interrupt::interrupted)
    /// between executions and halts with
    /// [`AbortReason::Interrupted`](crate::AbortReason) after writing a
    /// final snapshot. A parallel search quiesces its workers first, so
    /// the snapshot is always the complete set of unexplored work —
    /// resumable at *any* `jobs` count.
    pub fn checkpoint(mut self, checkpointer: Checkpointer) -> Self {
        self.checkpoint = Some(checkpointer);
        self
    }

    /// Resumes from a snapshot instead of starting fresh. The strategy
    /// and configuration stored in the snapshot take precedence over
    /// [`strategy`](Search::strategy) / [`config`](Search::config).
    /// Snapshots are taken at execution boundaries and replay is
    /// deterministic, so the resumed search ends in the report the
    /// uninterrupted run would have produced.
    ///
    /// Sequential (`jobs == 1`) checkpoints of ICB and DFS resume at any
    /// `jobs` count, as do parallel checkpoints; a sequential *random*
    /// checkpoint stores a single mid-stream RNG and can only resume
    /// sequentially.
    pub fn resume_from(mut self, snapshot: SearchSnapshot) -> Self {
        self.resume = Some(snapshot);
        self
    }

    /// Attaches a state-fingerprint cache (see
    /// [`ExplorationCache`]): work items whose `(state, next thread)`
    /// subtree the cache already covers are pruned instead of explored,
    /// and a certification-ledger hit skips the whole search.
    ///
    /// Supported for [`Strategy::Icb`] at any `jobs` count and for
    /// unbounded [`Strategy::Dfs`] at `jobs == 1`; other combinations
    /// are rejected up front. Programs whose fingerprints are not exact
    /// (see [`ControlledProgram::fingerprints_are_exact`]) additionally
    /// require [`cache_heuristic`](Search::cache_heuristic).
    pub fn cache(mut self, cache: &'a dyn ExplorationCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Opts in to cache pruning on *heuristic* (happens-before)
    /// fingerprints. Pruned subtrees may then contain unvisited states:
    /// the run is no longer exhaustive, and the report (and its JSONL
    /// stream) is flagged accordingly. No effect on programs with exact
    /// fingerprints.
    pub fn cache_heuristic(mut self, opt_in: bool) -> Self {
        self.cache_heuristic = opt_in;
        self
    }

    /// Attaches a live [`MetricsRegistry`]: the session wraps its
    /// observer in a [`MetricsBridge`] (mirroring the event stream into
    /// the registry and emitting periodic `metrics_snapshot` events),
    /// threads the registry into the parallel drivers' workers, pump
    /// and [`Frontier`](crate::search::Frontier), and attaches it to
    /// the exploration cache. Any thread holding a clone of the `Arc` —
    /// a scrape endpoint, a status board — can read the counters while
    /// the search runs.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Validates the session and runs it to completion, returning the
    /// merged report.
    ///
    /// Validation happens before the first execution: see
    /// [`SearchError`] for the rejected configurations.
    pub fn run(self) -> Result<SearchReport, SearchError> {
        let Search {
            program,
            strategy,
            config,
            jobs,
            observer,
            mut checkpoint,
            resume,
            cache,
            cache_heuristic,
            metrics,
        } = self;
        if jobs == 0 {
            return Err(SearchError::ZeroJobs);
        }
        if config.max_duration == Some(Duration::ZERO) {
            return Err(SearchError::ZeroDuration);
        }
        if checkpoint.as_ref().is_some_and(|ck| ck.every() == 0) {
            return Err(SearchError::ZeroCheckpointInterval);
        }
        if config.fault_bound > 0 && resume.is_none() && !matches!(strategy, Strategy::Icb) {
            return Err(SearchError::Unsupported(format!(
                "a fault bound composes with the iterative preemption bound and is only \
                 supported for strategy `icb`; got strategy `{}` with fault_bound = {}",
                strategy.label(),
                config.fault_bound
            )));
        }
        let binding = match cache {
            None => None,
            Some(cache) => {
                // Resume validates against the snapshot's strategy instead.
                if resume.is_none() {
                    let supported = matches!(strategy, Strategy::Icb)
                        || (matches!(strategy, Strategy::Dfs) && jobs == 1);
                    if !supported {
                        return Err(SearchError::Unsupported(cache_unsupported_msg(
                            &strategy.label(),
                            jobs,
                        )));
                    }
                }
                let heuristic = !program.fingerprints_are_exact();
                if heuristic && !cache_heuristic {
                    return Err(SearchError::Unsupported(
                        "this program's state fingerprints are heuristic (happens-before \
                         hashes): cache pruning could silently skip unvisited states. Opt in \
                         with cache_heuristic(true) to run a flagged, non-exhaustive search"
                            .to_string(),
                    ));
                }
                Some(CacheBinding { cache, heuristic })
            }
        };
        let mut noop = NoopObserver;
        let observer: &mut dyn SearchObserver = match observer {
            Some(o) => o,
            None => &mut noop,
        };
        // A registry watches through a bridge so every driver —
        // sequential or parallel — feeds it from the event stream; the
        // parallel drivers additionally receive the registry itself for
        // the worker, frontier and pump counters no event carries.
        let mut bridge;
        let observer: &mut dyn SearchObserver = match &metrics {
            Some(registry) => {
                registry.set_workers(jobs);
                if let Some(binding) = &binding {
                    binding.cache.attach_metrics(registry);
                }
                bridge = MetricsBridge::new(Arc::clone(registry), observer);
                &mut bridge
            }
            None => observer,
        };

        // Certification fast path: a previous clean run already proved
        // this search's claim — answer from the ledger without running.
        if resume.is_none() {
            if let Some(binding) = &binding {
                let target = match strategy {
                    Strategy::Icb => config.preemption_bound,
                    _ => None,
                };
                let label = strategy.label();
                if let Some(cert) =
                    binding
                        .cache
                        .find_certification(&label, target, config.fault_bound)
                {
                    observer.search_started(&label);
                    observer.bound_certified(cert.bound);
                    let report = SearchReport {
                        strategy: label,
                        distinct_states: cert.distinct_states,
                        completed: cert.bound.is_none(),
                        completed_bound: match strategy {
                            Strategy::Icb => target.or(cert.bound),
                            _ => None,
                        },
                        cache: Some(CacheSummary {
                            heuristic: binding.heuristic,
                            certified: true,
                            ..CacheSummary::default()
                        }),
                        ..SearchReport::default()
                    };
                    observer.search_finished(&report);
                    if let Some(ck) = checkpoint.as_mut() {
                        ck.finish();
                    }
                    return Ok(report);
                }
            }
        }
        let cert_target = config.preemption_bound;
        let cert_faults = config.fault_bound;
        let ckpt = checkpoint.as_mut();

        if let Some(snapshot) = resume {
            let cert_target = snapshot.config.preemption_bound;
            let cert_faults = snapshot.config.fault_bound;
            let report = run_resumed(program, jobs, snapshot, observer, ckpt, binding, metrics)?;
            if let Some(binding) = &binding {
                maybe_certify(binding, cert_target, cert_faults, &report);
            }
            return Ok(report);
        }

        let report: Result<SearchReport, SearchError> =
            match strategy {
                Strategy::Icb => Ok(if jobs == 1 {
                    IcbSearch::new(config).drive(program, observer, ckpt, None, binding)
                } else {
                    run_parallel_icb(
                        program,
                        &config,
                        jobs,
                        observer,
                        ckpt,
                        None,
                        binding,
                        metrics.clone(),
                    )
                }),
                Strategy::Dfs | Strategy::DepthBounded(_) => {
                    let depth = match strategy {
                        Strategy::DepthBounded(b) => Some(b),
                        _ => None,
                    };
                    Ok(if jobs == 1 {
                        DfsSearch::new(config, depth).drive(
                            program,
                            observer,
                            ckpt,
                            Vec::new(),
                            None,
                            binding,
                        )
                    } else {
                        run_parallel_dfs(
                            program,
                            &config,
                            jobs,
                            depth,
                            observer,
                            ckpt,
                            None,
                            metrics.clone(),
                        )
                    })
                }
                Strategy::Random { seed } => {
                    if config.max_executions.is_none() {
                        return Err(SearchError::MissingBudget);
                    }
                    Ok(if jobs == 1 {
                        RandomSearch::new(config, seed).drive(program, observer, ckpt, None)
                    } else {
                        run_parallel_random(
                            program,
                            &config,
                            jobs,
                            seed,
                            observer,
                            ckpt,
                            None,
                            metrics.clone(),
                        )
                    })
                }
                Strategy::IterativeDeepening { start, step, max } => {
                    if step == 0 {
                        return Err(SearchError::Unsupported(
                            "iterative deepening requires a positive step".to_string(),
                        ));
                    }
                    if jobs > 1 {
                        return Err(SearchError::Unsupported(
                            "iterative deepening re-explores shallow prefixes per iteration and \
                         does not support jobs > 1"
                                .to_string(),
                        ));
                    }
                    if ckpt.is_some() {
                        return Err(SearchError::Unsupported(
                            "iterative deepening does not support checkpointing".to_string(),
                        ));
                    }
                    Ok(IterativeDeepeningSearch::new(config, start, step, max)
                        .drive(program, observer))
                }
                Strategy::BestFirst => {
                    if config.max_executions.is_none() {
                        return Err(SearchError::MissingBudget);
                    }
                    if jobs > 1 {
                        return Err(SearchError::Unsupported(
                            "best-first search orders its frontier globally and does not support \
                         jobs > 1"
                                .to_string(),
                        ));
                    }
                    if ckpt.is_some() {
                        return Err(SearchError::Unsupported(
                            "best-first search does not support checkpointing".to_string(),
                        ));
                    }
                    Ok(BestFirstSearch::new(config).drive(program, observer))
                }
            };
        let report = report?;
        if let Some(binding) = &binding {
            maybe_certify(binding, cert_target, cert_faults, &report);
        }
        Ok(report)
    }
}

/// The rejection message for a cache attached to a strategy/jobs
/// combination the drivers cannot prune soundly.
fn cache_unsupported_msg(label: &str, jobs: usize) -> String {
    format!(
        "a fingerprint cache is supported for strategy `icb` (any jobs) and unbounded `dfs` \
         at jobs = 1; got strategy `{label}` with jobs = {jobs}. Depth-bounded and sampling \
         searches cannot claim subtree coverage, so caching them would be unsound"
    )
}

/// Records a certification after a run that proved its claim cleanly:
/// exact fingerprints, no bugs, nothing truncated, forfeited or
/// abandoned. `completed` certifies exhaustion (`bound: None`); an ICB
/// run that ran its target preemption bound `n` to the end certifies
/// `bound: n`.
///
/// `certify` is also the cache's signal that every subtree recorded
/// this run was fully explored (persistence gate), so a run that was
/// cut short mid-bound — budget, deadline, interrupt — must NOT
/// certify, even though its last *completed* bound would be a sound
/// claim on its own.
fn maybe_certify(
    binding: &CacheBinding<'_>,
    target: Option<usize>,
    fault_bound: usize,
    report: &SearchReport,
) {
    if binding.heuristic
        || report.buggy_executions > 0
        || !report.bugs.is_empty()
        || report.truncated
        || report.quarantined_total > 0
        || report.watchdog_trips > 0
        || report.cache.as_ref().is_some_and(|c| c.certified)
    {
        return;
    }
    let bound = if report.completed {
        None
    } else if target.is_some() && report.completed_bound == target {
        target
    } else {
        return;
    };
    binding.cache.certify(Certification {
        strategy: report.strategy.clone(),
        bound,
        fault_bound,
        executions: report.executions,
        distinct_states: report.distinct_states,
    });
}

/// Resume dispatch: the snapshot's [`StrategyState`] variant decides the
/// driver; `jobs` decides sequential vs parallel where both can consume
/// the state.
fn run_resumed(
    program: &(dyn ControlledProgram + Sync),
    jobs: usize,
    snapshot: SearchSnapshot,
    observer: &mut dyn SearchObserver,
    ckpt: Option<&mut Checkpointer>,
    cache: Option<CacheBinding<'_>>,
    metrics: Option<Arc<MetricsRegistry>>,
) -> Result<SearchReport, SearchError> {
    let config = snapshot.config;
    let base = snapshot.base;
    if cache.is_some() {
        let supported = match &snapshot.state {
            StrategyState::Icb(_) => true,
            StrategyState::Dfs(state) => jobs == 1 && state.depth_bound.is_none(),
            _ => false,
        };
        if !supported {
            let label = match &snapshot.state {
                StrategyState::Icb(_) => "icb",
                StrategyState::Dfs(_) | StrategyState::ParallelDfs(_) => "dfs",
                StrategyState::Random(_) | StrategyState::ParallelRandom(_) => "random",
            };
            return Err(SearchError::Unsupported(cache_unsupported_msg(label, jobs)));
        }
    }
    match snapshot.state {
        StrategyState::Icb(state) => {
            if let Some((_, stack)) = &state.in_progress {
                validate_branches(stack)?;
            }
            Ok(if jobs == 1 {
                IcbSearch::new(config).drive(program, observer, ckpt, Some((base, state)), cache)
            } else {
                run_parallel_icb(
                    program,
                    &config,
                    jobs,
                    observer,
                    ckpt,
                    Some((base, state)),
                    cache,
                    metrics,
                )
            })
        }
        StrategyState::Dfs(state) => {
            validate_branches(&state.stack)?;
            let stack: Vec<DfsBranch> = state.stack.into_iter().map(DfsBranch::from).collect();
            Ok(if jobs == 1 {
                DfsSearch::new(config, state.depth_bound).drive(
                    program,
                    observer,
                    ckpt,
                    stack,
                    Some(base),
                    cache,
                )
            } else {
                // A sequential DFS checkpoint is one suspended subtree:
                // seed the frontier with it and let the workers dissolve
                // it into parallel shards.
                let items = vec![(Schedule::new(), stack, false)];
                run_parallel_dfs(
                    program,
                    &config,
                    jobs,
                    state.depth_bound,
                    observer,
                    ckpt,
                    Some((base, items)),
                    metrics,
                )
            })
        }
        StrategyState::Random(state) => {
            if jobs > 1 {
                return Err(SearchError::Unsupported(
                    "a sequential random-walk checkpoint stores a single mid-stream RNG and \
                     can only resume at jobs = 1"
                        .to_string(),
                ));
            }
            if config.max_executions.is_none() {
                return Err(SearchError::MissingBudget);
            }
            // Seed 0 is unused: the walk continues from the stored state.
            Ok(RandomSearch::new(config, 0).drive(program, observer, ckpt, Some((base, state))))
        }
        StrategyState::ParallelDfs(state) => {
            let mut items: Vec<(Schedule, Vec<DfsBranch>, bool)> = state
                .frontier
                .into_iter()
                .map(|prefix| (prefix, Vec::new(), false))
                .collect();
            if let Some((prefix, stack)) = state.pending {
                validate_branches(&stack)?;
                items.insert(
                    0,
                    (
                        prefix,
                        stack.into_iter().map(DfsBranch::from).collect(),
                        false,
                    ),
                );
            }
            Ok(run_parallel_dfs(
                program,
                &config,
                jobs,
                state.depth_bound,
                observer,
                ckpt,
                Some((base, items)),
                metrics,
            ))
        }
        StrategyState::ParallelRandom(state) => {
            if config.max_executions.is_none() {
                return Err(SearchError::MissingBudget);
            }
            Ok(run_parallel_random(
                program,
                &config,
                jobs,
                state.seed,
                observer,
                ckpt,
                Some((base, state)),
                metrics,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::testprog::Counters;

    fn toy() -> Counters {
        Counters {
            n: 2,
            k: 2,
            bug: None,
        }
    }

    #[test]
    fn zero_jobs_rejected() {
        let err = Search::over(&toy()).jobs(0).run().unwrap_err();
        assert!(matches!(err, SearchError::ZeroJobs));
    }

    #[test]
    fn zero_duration_rejected() {
        let err = Search::over(&toy())
            .config(SearchConfig {
                max_duration: Some(Duration::ZERO),
                ..SearchConfig::default()
            })
            .run()
            .unwrap_err();
        assert!(matches!(err, SearchError::ZeroDuration));
    }

    #[test]
    fn zero_checkpoint_interval_rejected() {
        let ck = Checkpointer::new(std::env::temp_dir().join("session-zero-ck.bin"), 0);
        let err = Search::over(&toy()).checkpoint(ck).run().unwrap_err();
        assert!(matches!(err, SearchError::ZeroCheckpointInterval));
    }

    #[test]
    fn random_without_budget_rejected() {
        let err = Search::over(&toy())
            .strategy(Strategy::Random { seed: 1 })
            .config(SearchConfig {
                max_executions: None,
                ..SearchConfig::default()
            })
            .run()
            .unwrap_err();
        assert!(matches!(err, SearchError::MissingBudget));
    }

    #[test]
    fn sequential_only_strategies_reject_jobs() {
        let err = Search::over(&toy())
            .strategy(Strategy::BestFirst)
            .config(SearchConfig::with_max_executions(10))
            .jobs(2)
            .run()
            .unwrap_err();
        assert!(matches!(err, SearchError::Unsupported(_)));
        let err = Search::over(&toy())
            .strategy(Strategy::IterativeDeepening {
                start: 1,
                step: 1,
                max: 4,
            })
            .jobs(2)
            .run()
            .unwrap_err();
        assert!(matches!(err, SearchError::Unsupported(_)));
    }

    #[test]
    fn parallel_icb_matches_sequential_on_order_independent_fields() {
        let p = Counters {
            n: 2,
            k: 3,
            bug: Some((1, 0, 1)),
        };
        let seq = Search::over(&p).run().unwrap();
        let par = Search::over(&p).jobs(4).run().unwrap();
        assert_eq!(par.executions, seq.executions);
        assert_eq!(par.distinct_states, seq.distinct_states);
        assert_eq!(par.buggy_executions, seq.buggy_executions);
        assert_eq!(par.bound_history, seq.bound_history);
        assert_eq!(par.completed, seq.completed);
        let seq_bugs: Vec<_> = seq.bugs.iter().map(|b| &b.schedule).collect();
        let par_bugs: Vec<_> = par.bugs.iter().map(|b| &b.schedule).collect();
        assert_eq!(par_bugs, seq_bugs);
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::Icb.label(), "icb");
        assert_eq!(Strategy::DepthBounded(6).label(), "db:6");
        assert_eq!(
            Strategy::IterativeDeepening {
                start: 2,
                step: 2,
                max: 8
            }
            .label(),
            "idfs-8"
        );
    }
}
