//! Best-first heuristic search — the structural heuristic of Groce &
//! Visser (ISSTA 2002) the paper discusses in related work: prioritize
//! scheduling points with *more enabled threads*, on the theory that
//! high-concurrency states breed interleaving bugs.
//!
//! Unlike ICB it offers no coverage metric and no execution-count
//! polynomial; it exists here as the third point of comparison between
//! systematic (icb/dfs), random, and heuristic exploration.
//!
//! Stateless realization: a priority queue of schedule prefixes, scored
//! by the size of the enabled set at the point where the prefix's last
//! choice was made (a frontier proxy for the state's "concurrency").
//! Expanding a prefix replays it to completion under the default policy
//! — each expansion is one full execution, whose coverage counts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::program::{ControlledProgram, SchedulePoint, Scheduler};
use crate::search::{
    execute_recovering, QuarantinedTrace, SearchConfig, SearchCtx, SearchReport, Strategy,
};
use crate::telemetry::SearchObserver;
use crate::tid::Tid;
use crate::trace::{DivergencePayload, ExecutionOutcome, Schedule};

/// Best-first search prioritizing points with many enabled threads: the
/// driver behind [`Strategy::BestFirst`].
#[derive(Debug)]
pub(crate) struct BestFirstSearch {
    config: SearchConfig,
}

impl BestFirstSearch {
    /// Creates the search. `config.max_executions` should be set: like
    /// random walk, best-first has no natural termination on large
    /// spaces (it does terminate when the whole tree is expanded).
    pub(crate) fn new(config: SearchConfig) -> Self {
        BestFirstSearch { config }
    }

    pub(crate) fn drive(
        &self,
        program: &dyn ControlledProgram,
        observer: &mut dyn SearchObserver,
    ) -> SearchReport {
        let label = Strategy::BestFirst.label();
        observer.search_started(&label);
        let mut ctx = SearchCtx::new(self.config.clone(), observer);
        // Max-heap on (score, insertion age): older first among equals
        // via Reverse(seq) for stable, deterministic order.
        let mut frontier: BinaryHeap<(usize, Reverse<usize>, Schedule)> = BinaryHeap::new();
        let mut seq = 0usize;
        frontier.push((usize::MAX, Reverse(seq), Schedule::new()));
        let mut completed = true;
        while let Some((_, _, prefix)) = frontier.pop() {
            if ctx.stop {
                completed = false;
                break;
            }
            let mut sched = FrontierScheduler {
                prefix: &prefix,
                frontier_enabled: Vec::new(),
            };
            ctx.begin_execution();
            let result = execute_recovering(program, &mut sched, &mut ctx.coverage, ctx.observer);
            if let ExecutionOutcome::ReplayDivergence {
                step,
                expected,
                ref actual,
            } = result.outcome
            {
                // The prefix no longer replays: forfeit its subtree (no
                // children are expanded) and keep draining the frontier.
                ctx.quarantine(QuarantinedTrace {
                    schedule: prefix.clone(),
                    step,
                    expected,
                    actual: actual.clone(),
                });
            } else {
                // A prefix as long as the execution has no frontier point
                // was a leaf; otherwise each enabled thread is a child.
                for &t in &sched.frontier_enabled {
                    let mut child = prefix.clone();
                    child.push(t);
                    seq += 1;
                    let score = sched.frontier_enabled.len();
                    frontier.push((score, Reverse(seq), child));
                }
            }
            ctx.record(&result, program.executions_per_run());
        }
        if ctx.stop {
            completed = false;
        }
        ctx.into_report(label, completed, None, Vec::new(), false)
    }
}

/// Replays the prefix, records the enabled set at the frontier point,
/// then completes with the default policy.
struct FrontierScheduler<'a> {
    prefix: &'a Schedule,
    frontier_enabled: Vec<Tid>,
}

impl Scheduler for FrontierScheduler<'_> {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        if let Some(tid) = self.prefix.get(point.step_index) {
            if !point.is_enabled(tid) {
                DivergencePayload::new(point.step_index, tid, point.enabled.to_vec()).raise();
            }
            return tid;
        }
        if point.step_index == self.prefix.len() {
            // The frontier: every enabled thread becomes a child node
            // (including the default — its deeper alternatives must be
            // expandable too); this run walks the default tail.
            self.frontier_enabled = point.enabled.to_vec();
            return point.default_choice();
        }
        point.default_choice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::testprog::{schedule_count, Counters};
    use crate::search::{Search, Strategy};

    #[test]
    fn expands_the_whole_tree_eventually() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: None,
        };
        let report = Search::over(&p)
            .strategy(Strategy::BestFirst)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert!(report.completed);
        // One execution per tree node expansion: at least every distinct
        // schedule appears (each leaf is reached by exactly one
        // expansion whose default tail walks it).
        assert!(report.executions as u128 >= schedule_count(2, 2));
        // And coverage matches the exhaustive search.
        let icb = Search::over(&p)
            .config(SearchConfig::default())
            .run()
            .unwrap();
        assert_eq!(report.distinct_states, icb.distinct_states);
    }

    #[test]
    fn finds_bugs() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: Some((1, 0, 1)),
        };
        let report = Search::over(&p)
            .strategy(Strategy::BestFirst)
            .config(SearchConfig {
                stop_on_first_bug: true,
                ..SearchConfig::default()
            })
            .run()
            .unwrap();
        assert!(!report.bugs.is_empty());
    }

    #[test]
    fn respects_the_budget() {
        let p = Counters {
            n: 3,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .strategy(Strategy::BestFirst)
            .config(SearchConfig::with_max_executions(9))
            .run()
            .unwrap();
        assert_eq!(report.executions, 9);
        assert!(!report.completed);
    }

    #[test]
    fn deterministic_across_runs() {
        let p = Counters {
            n: 3,
            k: 2,
            bug: None,
        };
        let a = Search::over(&p)
            .strategy(Strategy::BestFirst)
            .config(SearchConfig::with_max_executions(20))
            .run()
            .unwrap();
        let b = Search::over(&p)
            .strategy(Strategy::BestFirst)
            .config(SearchConfig::with_max_executions(20))
            .run()
            .unwrap();
        assert_eq!(a.coverage_curve, b.coverage_curve);
    }
}
