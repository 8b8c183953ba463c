//! Random-walk baseline (the paper's `random` strategy, after Sivaraj &
//! Gopalakrishnan).

use crate::program::{ControlledProgram, SchedulePoint, Scheduler};
use crate::rng::SplitMix64;
use crate::search::{SearchConfig, SearchCtx, SearchReport, Strategy};
use crate::snapshot::{
    interrupt, Checkpointer, RandomState, ResumeBase, SearchSnapshot, StrategyState,
};
use crate::telemetry::{AbortReason, SearchObserver};
use crate::tid::Tid;

/// Repeated executions under a uniformly random scheduler: the driver
/// behind [`Strategy::Random`] at `jobs == 1`.
///
/// Random walk has no termination criterion and no coverage guarantee —
/// the paper uses it to show that ICB's *systematic* enumeration also
/// beats unguided sampling on coverage growth. The walk is seeded for
/// reproducibility.
#[derive(Debug)]
pub(crate) struct RandomSearch {
    config: SearchConfig,
    seed: u64,
}

impl RandomSearch {
    /// Creates a random search with the given configuration and seed.
    ///
    /// `config.max_executions` must be set: a random walk never exhausts
    /// the space on its own.
    pub(crate) fn new(config: SearchConfig, seed: u64) -> Self {
        assert!(
            config.max_executions.is_some(),
            "random search requires an execution budget"
        );
        RandomSearch { config, seed }
    }

    pub(crate) fn drive(
        &self,
        program: &dyn ControlledProgram,
        observer: &mut dyn SearchObserver,
        mut ckpt: Option<&mut Checkpointer>,
        resume: Option<(ResumeBase, RandomState)>,
    ) -> SearchReport {
        let label = Strategy::Random { seed: self.seed }.label();
        observer.search_started(&label);
        let mut ctx = SearchCtx::new(self.config.clone(), observer);
        let mut rng = match resume {
            None => SplitMix64::new(self.seed),
            Some((base, state)) => {
                let executions = base.executions;
                ctx.restore(base, 0, executions);
                if let Some(ck) = ckpt.as_deref_mut() {
                    ck.mark_written(ctx.executions);
                }
                if ctx.remaining_budget() == 0 {
                    ctx.halt(AbortReason::ExecutionBudget);
                }
                SplitMix64::from_state(state.rng_state)
            }
        };
        while !ctx.stop {
            let mut sched = RandomScheduler { rng: &mut rng };
            ctx.begin_execution();
            let result = program.execute_observed(&mut sched, &mut ctx.coverage, ctx.observer);
            ctx.record(&result, program.executions_per_run());
            if ckpt.is_some() && interrupt::interrupted() {
                ctx.halt(AbortReason::Interrupted);
            }
            let due = ckpt.as_deref().is_some_and(|ck| ck.due(ctx.executions));
            if due || (ctx.stop && ckpt.is_some()) {
                write_random_checkpoint(&mut ctx, &mut ckpt, &label, &rng);
            }
        }
        ctx.into_report(label, false, None, Vec::new(), false)
    }
}

fn write_random_checkpoint(
    ctx: &mut SearchCtx<'_>,
    ckpt: &mut Option<&mut Checkpointer>,
    label: &str,
    rng: &SplitMix64,
) {
    let Some(ck) = ckpt.as_deref_mut() else {
        return;
    };
    let base = ctx.snapshot_base();
    let executions = base.executions;
    let snapshot = SearchSnapshot {
        strategy: label.to_string(),
        meta: ck.meta().to_vec(),
        config: ctx.config.clone(),
        base,
        state: StrategyState::Random(RandomState {
            rng_state: rng.state(),
        }),
    };
    match ck.write(&snapshot) {
        Ok(()) => ctx.observer.checkpoint_written(executions),
        Err(e) => eprintln!("warning: checkpoint write failed: {e}"),
    }
}

/// Chooses uniformly among the enabled threads.
#[derive(Debug)]
pub struct RandomScheduler<'a> {
    rng: &'a mut SplitMix64,
}

impl Scheduler for RandomScheduler<'_> {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        point.enabled[self.rng.gen_index(point.enabled.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::testprog::Counters;
    use crate::search::{Search, Strategy};

    #[test]
    fn runs_exactly_the_budget() {
        let p = Counters {
            n: 2,
            k: 3,
            bug: None,
        };
        let report = Search::over(&p)
            .strategy(Strategy::Random { seed: 42 })
            .config(SearchConfig::with_max_executions(25))
            .run()
            .unwrap();
        assert_eq!(report.executions, 25);
        assert!(!report.completed);
        assert!(report.distinct_states > 0);
    }

    #[test]
    fn same_seed_same_coverage() {
        let p = Counters {
            n: 3,
            k: 2,
            bug: None,
        };
        let a = Search::over(&p)
            .strategy(Strategy::Random { seed: 7 })
            .config(SearchConfig::with_max_executions(50))
            .run()
            .unwrap();
        let b = Search::over(&p)
            .strategy(Strategy::Random { seed: 7 })
            .config(SearchConfig::with_max_executions(50))
            .run()
            .unwrap();
        assert_eq!(a.distinct_states, b.distinct_states);
        assert_eq!(a.coverage_curve, b.coverage_curve);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let p = Counters {
            n: 3,
            k: 3,
            bug: None,
        };
        let a = Search::over(&p)
            .strategy(Strategy::Random { seed: 1 })
            .config(SearchConfig::with_max_executions(5))
            .run()
            .unwrap();
        let b = Search::over(&p)
            .strategy(Strategy::Random { seed: 2 })
            .config(SearchConfig::with_max_executions(5))
            .run()
            .unwrap();
        // Curves are overwhelmingly likely to differ for 5 walks over
        // hundreds of schedules; equality would indicate a seeding bug.
        assert_ne!(a.coverage_curve, b.coverage_curve);
    }

    #[test]
    fn eventually_finds_shallow_bug() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: Some((1, 0, 1)),
        };
        let report = Search::over(&p)
            .strategy(Strategy::Random { seed: 3 })
            .config(SearchConfig::with_max_executions(200))
            .run()
            .unwrap();
        assert!(report.buggy_executions > 0);
    }

    #[test]
    #[should_panic(expected = "execution budget")]
    fn requires_budget() {
        let _ = RandomSearch::new(
            SearchConfig {
                max_executions: None,
                ..SearchConfig::default()
            },
            0,
        );
    }
}
