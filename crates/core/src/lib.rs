//! Core abstractions and search algorithms for *iterative context bounding*
//! (ICB), the systematic concurrency-testing algorithm of Musuvathi & Qadeer
//! (PLDI 2007).
//!
//! A *model checker* in this crate's view is a driver that repeatedly runs a
//! multithreaded program under a controlled scheduler, systematically
//! enumerating the scheduler's choices. The central insight of the paper is
//! to enumerate executions in increasing order of *preempting* context
//! switches: a preemption occurs when the scheduler switches away from a
//! thread that is still enabled. Nonpreempting switches (the running thread
//! blocked or terminated) are free, so the search reaches arbitrarily deep
//! states even with a preemption bound of zero, while the number of
//! executions with `c` preemptions is only *polynomial* in the execution
//! length (Theorem 1; see [`bounds`]).
//!
//! # Architecture
//!
//! * [`ControlledProgram`] — anything that can be executed under a
//!   [`Scheduler`]. Implemented by the stateless runtime (`icb-runtime`)
//!   and by the explicit-state VM (`icb-statevm`).
//! * [`Scheduler`] — decides which thread runs at every scheduling point.
//! * [`Search`] — the one entry point for every search strategy:
//!   [`Strategy::Icb`] (the paper's Algorithm 1 in its stateless,
//!   replay-based form), plus the baselines it is evaluated against:
//!   [`Strategy::Dfs`] / [`Strategy::DepthBounded`] (the paper's `dfs` /
//!   `db:N`), [`Strategy::IterativeDeepening`] (`idfs`), and
//!   [`Strategy::Random`] (`random`).
//! * [`CoverageTracker`] — distinct-state coverage, the paper's metric.
//!
//! # Quick example
//!
//! ```
//! use icb_core::{ControlledProgram, Scheduler, SchedulePoint, StateSink,
//!                ExecutionResult, ExecutionOutcome, Tid, TraceEntry, ExecStats};
//! use icb_core::search::Search;
//!
//! /// A toy two-thread program over one shared variable; thread 1 asserts
//! /// it observes the initial value, so some schedule exposes a "bug".
//! struct Toy;
//! impl ControlledProgram for Toy {
//!     fn execute(&self, sched: &mut dyn Scheduler, _sink: &mut dyn StateSink)
//!         -> ExecutionResult
//!     {
//!         // Hand-rolled interpreter: each thread performs one step.
//!         let mut shared = 0u8;
//!         let mut done = [false, false];
//!         let mut trace = Vec::new();
//!         let mut failure = None;
//!         let mut current: Option<Tid> = None;
//!         loop {
//!             let enabled: Vec<Tid> = (0..2)
//!                 .filter(|&i| !done[i]).map(Tid).collect();
//!             if enabled.is_empty() { break; }
//!             let current_enabled =
//!                 current.map_or(false, |t| !done[t.index()]);
//!             let chosen = sched.pick(SchedulePoint {
//!                 step_index: trace.len(),
//!                 current, current_enabled,
//!                 enabled: &enabled,
//!             });
//!             trace.push(TraceEntry::new(chosen, enabled.clone(), current,
//!                                        current_enabled, false));
//!             match chosen.index() {
//!                 0 => shared = 1,
//!                 _ => if shared != 0 && failure.is_none() {
//!                     failure = Some("observed write".to_string());
//!                 },
//!             }
//!             done[chosen.index()] = true;
//!             current = Some(chosen);
//!         }
//!         let outcome = match failure {
//!             Some(message) => ExecutionOutcome::AssertionFailure {
//!                 thread: Tid(1), message,
//!             },
//!             None => ExecutionOutcome::Terminated,
//!         };
//!         ExecutionResult { outcome, trace: trace.into(), stats: ExecStats::default() }
//!     }
//! }
//!
//! let report = Search::over(&Toy).run().unwrap();
//! assert!(!report.bugs.is_empty());
//! // ICB finds the bug with the minimal number of preemptions: zero here,
//! // because thread 0 can simply run (and terminate) before thread 1.
//! assert_eq!(report.bugs[0].preemptions, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounds;
pub mod cache;
pub mod coverage;
pub mod explain;
pub mod hash;
pub mod metrics;
pub mod program;
pub mod render;
pub mod replay;
pub mod retry;
pub mod rng;
pub mod search;
pub mod shrink;
pub mod snapshot;
pub mod telemetry;
pub mod tid;
pub mod trace;

pub use cache::{Certification, ExplorationCache, NoopCache};
pub use coverage::{CoverageTracker, NullSink, StateSink};
pub use explain::{ExplainedWitness, NearestPassing};
pub use metrics::{MetricsBridge, MetricsRegistry, MetricsSnapshot, WorkerStats};
pub use program::{ControlledProgram, FaultPoint, SchedulePoint, Scheduler};
pub use replay::ReplayScheduler;
pub use search::{Search, SearchError, Strategy};
pub use snapshot::{Checkpointer, ResumeBase, SearchSnapshot, SnapshotError, StrategyState};
pub use telemetry::{AbortReason, ChoiceKind, NoopObserver, Phase, SearchObserver, SiteId};
pub use tid::Tid;
pub use trace::{
    DivergencePayload, ExecStats, ExecutionOutcome, ExecutionResult, Schedule, Trace, TraceEntry,
};
