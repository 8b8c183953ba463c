//! Depth-first baselines: unbounded DFS (`dfs`), depth-bounded DFS
//! (`db:N`) and iterative depth-bounding (`idfs`), the strategies the
//! paper compares ICB against (Figures 2, 5 and 6).

use std::cell::Cell;
use std::rc::Rc;

use crate::cache::{coverage_credit, ExplorationCache};
use crate::coverage::StateSink;
use crate::program::{ControlledProgram, SchedulePoint, Scheduler};
use crate::search::icb::{CursorSink, ItemCache};
use crate::search::{
    execute_recovering, CacheBinding, QuarantinedTrace, SearchConfig, SearchCtx, SearchReport,
    Strategy,
};
use crate::snapshot::{
    interrupt, BranchSnapshot, Checkpointer, DfsState, ResumeBase, SearchSnapshot, StrategyState,
};
use crate::telemetry::{AbortReason, SearchObserver};
use crate::tid::Tid;
use crate::trace::{DivergencePayload, ExecutionOutcome, Schedule};

/// Stateless depth-first search over the schedule tree: the driver behind
/// [`Strategy::Dfs`] and [`Strategy::DepthBounded`] at `jobs == 1`.
///
/// At every scheduling point before the depth bound, the search branches
/// over *all* enabled threads — preempting freely, which is exactly why it
/// drowns in shallow interleavings on multithreaded programs (Section 4.2
/// of the paper). Beyond the depth bound the run is completed under the
/// default preemption-free policy, but states visited there are not
/// counted and bugs occurring there are not reported: the depth-bounded
/// search semantics is "the tree truncated at depth `N`".
#[derive(Debug)]
pub(crate) struct DfsSearch {
    config: SearchConfig,
    depth_bound: Option<usize>,
}

impl DfsSearch {
    /// Unbounded (`None`) or depth-bounded (`Some(bound)`) search.
    pub(crate) fn new(config: SearchConfig, depth_bound: Option<usize>) -> Self {
        DfsSearch {
            config,
            depth_bound,
        }
    }

    fn label(&self) -> String {
        match self.depth_bound {
            Some(b) => Strategy::DepthBounded(b).label(),
            None => Strategy::Dfs.label(),
        }
    }

    pub(crate) fn drive(
        &self,
        program: &dyn ControlledProgram,
        observer: &mut dyn SearchObserver,
        mut ckpt: Option<&mut Checkpointer>,
        initial_stack: Vec<Branch>,
        base: Option<ResumeBase>,
        cache: Option<CacheBinding<'_>>,
    ) -> SearchReport {
        let label = self.label();
        observer.search_started(&label);
        let mut ctx = SearchCtx::new(self.config.clone(), observer);
        if let Some(base) = base {
            let executions = base.executions;
            ctx.restore(base, 0, executions);
            if let Some(ck) = ckpt.as_deref_mut() {
                ck.mark_written(ctx.executions);
            }
            if ctx.remaining_budget() == 0 {
                ctx.halt(AbortReason::ExecutionBudget);
            }
        }
        if let Some(binding) = &cache {
            ctx.attach_cache(binding.heuristic);
            ctx.seed_coverage(&binding.cache.seed_states());
        }
        let completed = if ctx.stop {
            false
        } else {
            run_dfs(
                program,
                self.depth_bound,
                &mut ctx,
                &mut None,
                initial_stack,
                &mut ckpt,
                &label,
                cache.as_ref().map(|b| b.cache),
            )
        };
        if completed {
            if let Some(ck) = ckpt {
                ck.finish();
            }
        }
        ctx.into_report(label, completed, None, Vec::new(), false)
    }
}

/// Iterative depth-bounding (the paper's `idfs`, the driver behind
/// [`Strategy::IterativeDeepening`]): repeat depth-bounded DFS with
/// bounds `start, start + step, …` up to `max`, sharing one coverage set
/// and execution budget.
///
/// The iteration stops early once a bound exceeds the longest execution
/// seen (deepening further cannot reach new states) or the budget runs
/// out.
#[derive(Debug)]
pub(crate) struct IterativeDeepeningSearch {
    config: SearchConfig,
    start: usize,
    step: usize,
    max: usize,
}

impl IterativeDeepeningSearch {
    /// Creates an iterative-deepening search with bounds
    /// `start, start + step, …, ≤ max`.
    pub(crate) fn new(config: SearchConfig, start: usize, step: usize, max: usize) -> Self {
        assert!(step > 0, "deepening step must be positive");
        IterativeDeepeningSearch {
            config,
            start,
            step,
            max,
        }
    }

    pub(crate) fn drive(
        &self,
        program: &dyn ControlledProgram,
        observer: &mut dyn SearchObserver,
    ) -> SearchReport {
        let label = Strategy::IterativeDeepening {
            start: self.start,
            step: self.step,
            max: self.max,
        }
        .label();
        observer.search_started(&label);
        let mut ctx = SearchCtx::new(self.config.clone(), observer);
        let mut completed = false;
        let mut bound = self.start;
        loop {
            let mut max_len: Option<usize> = Some(0);
            let exhausted = run_dfs(
                program,
                Some(bound),
                &mut ctx,
                &mut max_len,
                Vec::new(),
                &mut None,
                &label,
                None,
            );
            if ctx.stop {
                break;
            }
            if exhausted && max_len.unwrap_or(usize::MAX) <= bound {
                // No execution was truncated: the full space is explored.
                completed = true;
                break;
            }
            if bound >= self.max {
                break;
            }
            bound = (bound + self.step).min(self.max);
        }
        ctx.into_report(label, completed, None, Vec::new(), false)
    }
}

/// Shared DFS engine. Returns `true` if the (possibly depth-bounded)
/// branch tree was exhausted. When `track_max_len` is `Some`, the longest
/// observed execution length is written into it. A non-empty
/// `initial_stack` continues a checkpointed search at the next
/// unexplored schedule; `ckpt`, when present, receives periodic and
/// final snapshots labelled `strategy_label`.
#[allow(clippy::too_many_arguments)]
fn run_dfs(
    program: &dyn ControlledProgram,
    depth_bound: Option<usize>,
    ctx: &mut SearchCtx<'_>,
    track_max_len: &mut Option<usize>,
    initial_stack: Vec<Branch>,
    ckpt: &mut Option<&mut Checkpointer>,
    strategy_label: &str,
    cache: Option<&dyn ExplorationCache>,
) -> bool {
    let bound = depth_bound.unwrap_or(usize::MAX);
    // Sound only for *unbounded* DFS (a depth-bounded subtree is explored
    // truncated, which covers nothing); the session builder enforces it.
    debug_assert!(
        cache.is_none() || depth_bound.is_none(),
        "fingerprint cache is unsound under a depth bound"
    );
    let state_cursor = Rc::new(Cell::new(0u64));
    let mut stack = initial_stack;
    loop {
        let mut sched = DfsScheduler {
            stack,
            cursor: 0,
            path: Schedule::new(),
            bound,
            cache: cache.map(|cache| ItemCache {
                cache,
                state: Rc::clone(&state_cursor),
                // DFS explores each recorded subtree schedule-exhaustively.
                credit: coverage_credit(0, None),
                // DFS never defers fault items (faults are ICB-only).
                fault_credit: None,
                hits: 0,
                stores: 0,
            }),
            coast: false,
        };
        ctx.begin_execution();
        let result = if let Some(cache) = cache {
            state_cursor.set(0);
            let mut gated = GatedSink {
                inner: &mut ctx.coverage,
                remaining: bound,
            };
            let mut sink = CursorSink {
                inner: &mut gated,
                state: &state_cursor,
                cache,
            };
            execute_recovering(program, &mut sched, &mut sink, ctx.observer)
        } else {
            let mut sink = GatedSink {
                inner: &mut ctx.coverage,
                remaining: bound,
            };
            execute_recovering(program, &mut sched, &mut sink, ctx.observer)
        };
        stack = sched.stack;
        if let Some(c) = sched.cache.take() {
            ctx.cache_hit(c.hits);
            ctx.cache_store(c.stores);
        }

        if let Some(m) = track_max_len {
            *m = (*m).max(result.stats.steps);
        }

        if let ExecutionOutcome::ReplayDivergence {
            step,
            expected,
            ref actual,
        } = result.outcome
        {
            ctx.quarantine(QuarantinedTrace {
                schedule: sched.path,
                step,
                expected,
                actual: actual.clone(),
            });
        }

        // Within the depth bound the result stands; beyond it the run is
        // an artifact of the completion policy — downgrade any bug.
        let effective = if result.stats.steps <= bound || !result.outcome.is_bug() {
            result
        } else {
            let mut r = result;
            r.outcome = ExecutionOutcome::Terminated;
            r
        };
        ctx.record(&effective, program.executions_per_run());

        // Backtrack before checkpointing, so a resumed run starts at the
        // next unexplored schedule instead of repeating the last one.
        let done = loop {
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
            ctx.halt(AbortReason::Interrupted);
        }
        let due = ckpt.as_deref().is_some_and(|ck| ck.due(ctx.executions));
        if !done && (due || (ctx.stop && ckpt.is_some())) {
            write_dfs_checkpoint(ctx, ckpt, strategy_label, depth_bound, &stack);
        }
        if done {
            return true;
        }
        if ctx.stop {
            return false;
        }
    }
}

fn write_dfs_checkpoint(
    ctx: &mut SearchCtx<'_>,
    ckpt: &mut Option<&mut Checkpointer>,
    strategy_label: &str,
    depth_bound: Option<usize>,
    stack: &[Branch],
) {
    let Some(ck) = ckpt.as_deref_mut() else {
        return;
    };
    let base = ctx.snapshot_base();
    let executions = base.executions;
    let snapshot = SearchSnapshot {
        strategy: strategy_label.to_string(),
        meta: ck.meta().to_vec(),
        config: ctx.config.clone(),
        base,
        state: StrategyState::Dfs(DfsState {
            depth_bound,
            stack: stack.iter().map(Branch::to_snapshot).collect(),
        }),
    };
    match ck.write(&snapshot) {
        Ok(()) => ctx.observer.checkpoint_written(executions),
        Err(e) => eprintln!("warning: checkpoint write failed: {e}"),
    }
}

#[derive(Clone, Debug)]
pub(crate) struct Branch {
    pub(crate) options: Vec<Tid>,
    pub(crate) next_ix: usize,
}

impl Branch {
    pub(crate) fn to_snapshot(&self) -> BranchSnapshot {
        BranchSnapshot {
            step: 0,
            options: self.options.clone(),
            next_ix: self.next_ix,
        }
    }
}

impl From<BranchSnapshot> for Branch {
    fn from(b: BranchSnapshot) -> Self {
        Branch {
            options: b.options,
            next_ix: b.next_ix,
        }
    }
}

struct DfsScheduler<'a> {
    stack: Vec<Branch>,
    cursor: usize,
    /// Full schedule chosen so far in this run, for quarantine reports.
    path: Schedule,
    bound: usize,
    /// Fingerprint-cache probing at fresh branch points; `None` branches
    /// over every enabled thread (the legacy behavior).
    cache: Option<ItemCache<'a>>,
    /// Set once a fresh branch point found *all* its subtrees covered:
    /// the rest of the run completes under the default policy without
    /// pushing further branches (they would all lie inside covered
    /// subtrees).
    coast: bool,
}

impl Scheduler for DfsScheduler<'_> {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        if point.step_index >= self.bound || self.coast {
            // Truncated region (or coasting out of a fully covered
            // branch point): complete the run without branching.
            let choice = point.default_choice();
            self.path.push(choice);
            return choice;
        }
        let choice = if self.cursor < self.stack.len() {
            let b = &self.stack[self.cursor];
            let tid = b.options[b.next_ix];
            if !point.is_enabled(tid) {
                // The program is not deterministic: a previously recorded
                // branch option is no longer enabled.
                DivergencePayload::new(point.step_index, tid, point.enabled.to_vec()).raise();
            }
            self.cursor += 1;
            tid
        } else {
            let mut options = point.enabled.to_vec();
            if let Some(cache) = &mut self.cache {
                // Keep only the options whose subtrees are not already
                // covered from the current state.
                options.retain(|&t| !cache.covered(t));
                if options.is_empty() {
                    self.coast = true;
                    let choice = point.default_choice();
                    self.path.push(choice);
                    return choice;
                }
            }
            self.stack.push(Branch {
                options,
                next_ix: 0,
            });
            self.cursor += 1;
            let b = self.stack.last().expect("branch just pushed");
            b.options[0]
        };
        self.path.push(choice);
        choice
    }
}

/// Forwards at most `remaining` fingerprints, dropping the rest — states
/// past the depth bound do not count as covered.
pub(crate) struct GatedSink<'a, S: StateSink> {
    pub(crate) inner: &'a mut S,
    pub(crate) remaining: usize,
}

impl<S: StateSink> StateSink for GatedSink<'_, S> {
    fn visit(&mut self, fingerprint: u64) {
        if self.remaining > 0 {
            self.remaining -= 1;
            self.inner.visit(fingerprint);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::testprog::{schedule_count, Counters};
    use crate::search::{Search, Strategy};

    #[test]
    fn unbounded_dfs_exhausts_the_space() {
        let p = Counters {
            n: 2,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .strategy(Strategy::Dfs)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(report.completed);
        assert_eq!(report.executions as u128, schedule_count(2, 3));
    }

    #[test]
    fn dfs_and_icb_cover_identical_state_sets() {
        let p = Counters {
            n: 3,
            k: 2,
            bug: None,
        };
        let dfs = Search::over(&p)
            .strategy(Strategy::Dfs)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        let icb = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(dfs.completed && icb.completed);
        assert_eq!(dfs.distinct_states, icb.distinct_states);
        assert_eq!(dfs.executions, icb.executions);
    }

    #[test]
    fn depth_bound_truncates_coverage() {
        let p = Counters {
            n: 2,
            k: 4,
            bug: None,
        };
        let full = Search::over(&p)
            .strategy(Strategy::Dfs)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        let bounded = Search::over(&p)
            .strategy(Strategy::DepthBounded(3))
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(bounded.completed);
        assert!(
            bounded.distinct_states < full.distinct_states,
            "bounded {} !< full {}",
            bounded.distinct_states,
            full.distinct_states
        );
        // The truncated tree is much smaller.
        assert!(bounded.executions < full.executions);
    }

    #[test]
    fn depth_bound_hides_deep_bugs() {
        // Bug on thread 1's last step needs depth ≥ 6 to manifest.
        let p = Counters {
            n: 2,
            k: 3,
            bug: Some((1, 2, 5)),
        };
        let shallow = Search::over(&p)
            .strategy(Strategy::DepthBounded(2))
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(shallow.bugs.is_empty());
        let deep = Search::over(&p)
            .strategy(Strategy::Dfs)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(!deep.bugs.is_empty());
    }

    #[test]
    fn dfs_finds_bug_but_not_necessarily_minimal() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: Some((1, 0, 1)),
        };
        let report = Search::over(&p)
            .strategy(Strategy::Dfs)
            .config(SearchConfig {
                stop_on_first_bug: true,
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        assert!(!report.bugs.is_empty());
    }

    #[test]
    fn idfs_completes_small_spaces() {
        let p = Counters {
            n: 2,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .strategy(Strategy::IterativeDeepening {
                start: 2,
                step: 2,
                max: 100,
            })
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(report.completed);
        // All states eventually covered.
        let full = Search::over(&p)
            .strategy(Strategy::Dfs)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert_eq!(report.distinct_states, full.distinct_states);
    }

    #[test]
    fn idfs_respects_budget() {
        let p = Counters {
            n: 3,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .strategy(Strategy::IterativeDeepening {
                start: 2,
                step: 2,
                max: 50,
            })
            .config(SearchConfig::with_max_executions(10))
            .run()
            .unwrap();
        assert_eq!(report.executions, 10);
        assert!(!report.completed);
    }

    #[test]
    fn strategy_names() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: None,
        };
        for (strategy, label) in [
            (Strategy::Dfs, "dfs"),
            (Strategy::DepthBounded(40), "db:40"),
            (
                Strategy::IterativeDeepening {
                    start: 10,
                    step: 10,
                    max: 100,
                },
                "idfs-100",
            ),
        ] {
            let report = Search::over(&p).strategy(strategy).run().unwrap();
            assert_eq!(report.strategy, label);
        }
    }
}
