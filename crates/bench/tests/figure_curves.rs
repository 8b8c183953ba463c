//! The coverage figures (2, 5 and 6) plot each run's
//! `SearchReport::coverage_curve`. That curve must be exactly the
//! `(index, distinct_states)` sequence the run's `execution_finished`
//! events carry, so a figure and a telemetry log of the same run always
//! agree point for point.

use icb_core::search::{Search, SearchConfig, Strategy};
use icb_telemetry::{Event, EventLog};
use icb_workloads::wsq::{wsq_model, WsqVariant};

const BUDGET: usize = 300;

#[test]
fn coverage_curve_matches_the_execution_finished_events() {
    let model = wsq_model(WsqVariant::Correct, 3, 2);
    let strategies = [
        Strategy::Icb,
        Strategy::Dfs,
        Strategy::DepthBounded(20),
        Strategy::Random { seed: 0x1cb },
        Strategy::IterativeDeepening {
            start: 5,
            step: 5,
            max: 20,
        },
    ];
    for strategy in strategies {
        let mut log = EventLog::new();
        let report = Search::over(&model)
            .strategy(strategy)
            .config(SearchConfig::with_max_executions(BUDGET))
            .jobs(1)
            .observer(&mut log)
            .run()
            .unwrap();
        let label = strategy.label();
        let from_events: Vec<(usize, usize)> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::ExecutionFinished {
                    index,
                    distinct_states,
                    ..
                } => Some((*index, *distinct_states)),
                _ => None,
            })
            .collect();
        assert!(!from_events.is_empty(), "{label}: no executions");
        assert_eq!(report.coverage_curve, from_events, "{label}");
        let &(executions, distinct_states) = from_events.last().unwrap();
        assert_eq!(report.executions, executions, "{label}");
        assert_eq!(report.distinct_states, distinct_states, "{label}");
    }
}
