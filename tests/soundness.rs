//! Empirical checks of the Section 3.1 soundness claims: preempting only
//! at synchronization operations, combined with data-race checking, must
//! not hide any bug of a race-free program (Theorems 2 and 3).

use std::sync::Arc;

use icb::core::search::{BugReport, Search, SearchConfig, Strategy};
use icb::core::ControlledProgram;
use icb::core::ExecutionOutcome;
use icb::runtime::{
    sync::{AtomicUsize, Mutex},
    thread, DataVar, RuntimeConfig, RuntimeProgram,
};

/// A race-free program with a real (lock-granularity) atomicity bug:
/// the read and the write of the balance live in different critical
/// sections.
fn lost_update(config: RuntimeConfig) -> RuntimeProgram {
    RuntimeProgram::with_config(config, || {
        let balance = Arc::new(Mutex::new(0i64));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let balance = Arc::clone(&balance);
                thread::spawn(move || {
                    let v = *balance.lock();
                    *balance.lock() = v + 1;
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
        assert_eq!(*balance.lock(), 2, "lost update");
    })
}

/// Minimal-preemption bug hunt: a stop-on-first-bug ICB search, whose
/// first bug has the fewest preemptions of any failing execution.
fn minimal_bug(program: &(dyn ControlledProgram + Sync), budget: usize) -> Option<BugReport> {
    Search::over(program)
        .config(SearchConfig {
            max_executions: Some(budget),
            stop_on_first_bug: true,
            ..SearchConfig::default()
        })
        .run()
        .unwrap()
        .bugs
        .into_iter()
        .next()
}

#[test]
fn reduced_search_finds_the_same_bug_as_full_interleaving() {
    // Theorem 2/3 in practice: the sync-only reduction must expose the
    // lost update at the same minimal preemption count as the unreduced
    // full-interleaving search.
    let reduced = minimal_bug(&lost_update(RuntimeConfig::default()), 500_000)
        .expect("reduced search finds the bug");
    let full = minimal_bug(&lost_update(RuntimeConfig::full_interleaving()), 500_000)
        .expect("full search finds the bug");
    assert_eq!(reduced.preemptions, full.preemptions);
    assert_eq!(reduced.preemptions, 1);
}

/// A race-free program over plain shared memory (`DataVar`s guarded by
/// a lock): the variables the Section 3.1 reduction applies to.
fn data_var_program(config: RuntimeConfig) -> RuntimeProgram {
    RuntimeProgram::with_config(config, || {
        let lock = Arc::new(Mutex::new(()));
        let x = Arc::new(DataVar::new(0u32));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let (lock, x) = (Arc::clone(&lock), Arc::clone(&x));
                thread::spawn(move || {
                    let _g = lock.lock();
                    x.with_mut(|v| *v += 1);
                    x.with_mut(|v| *v += 1);
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
        assert_eq!(x.read(), 4);
    })
}

#[test]
fn reduced_search_explores_fewer_executions() {
    // The whole point of the reduction: same verdict, smaller space —
    // data-variable accesses stop being scheduling points.
    let config = SearchConfig {
        preemption_bound: Some(1),
        ..SearchConfig::default()
    };
    let reduced_prog = data_var_program(RuntimeConfig::default());
    let full_prog = data_var_program(RuntimeConfig::full_interleaving());
    let reduced = Search::over(&reduced_prog)
        .config(config.clone())
        .run()
        .unwrap();
    let full = Search::over(&full_prog).config(config).run().unwrap();
    assert!(
        reduced.executions < full.executions,
        "reduced {} !< full {}",
        reduced.executions,
        full.executions
    );
    assert!(reduced.max_stats.steps < full.max_stats.steps);
    // Same verdict: the program is correct under both searches.
    assert!(reduced.bugs.is_empty() && full.bugs.is_empty());
}

#[test]
fn races_invalidate_the_reduction_and_are_reported() {
    // If the program is NOT race-free, the reduction is unsound — which
    // is exactly why the checker reports the race as a first-class bug.
    let racy = RuntimeProgram::new(|| {
        let x = Arc::new(DataVar::named("shared", 0u32));
        let t = {
            let x = Arc::clone(&x);
            thread::spawn(move || x.write(1))
        };
        x.write(2);
        t.join();
    });
    let bug = minimal_bug(&racy, 100_000).expect("race reported");
    assert!(matches!(bug.outcome, ExecutionOutcome::DataRace { .. }));
}

#[test]
fn race_free_verdict_holds_for_sync_only_scheduling() {
    // A correctly synchronized program: the reduced search must verify
    // it without a single race or assertion report.
    let program = RuntimeProgram::new(|| {
        let counter = Arc::new(AtomicUsize::new(0));
        let data = Arc::new(Mutex::new(Vec::new()));
        let ts: Vec<_> = (0..2)
            .map(|i| {
                let counter = Arc::clone(&counter);
                let data = Arc::clone(&data);
                thread::spawn(move || {
                    data.lock().push(i);
                    counter.fetch_add(1);
                })
            })
            .collect();
        for t in ts {
            t.join();
        }
        assert_eq!(counter.load(), 2);
        assert_eq!(data.lock().len(), 2);
    });
    let config = SearchConfig {
        preemption_bound: Some(2),
        ..SearchConfig::default()
    };
    let report = Search::over(&program).config(config).run().unwrap();
    assert!(report.bugs.is_empty(), "bugs: {:?}", report.bugs);
}

#[test]
fn icb_enumerates_in_preemption_order() {
    // The defining property of Algorithm 1: the first failing execution
    // ICB reports carries the globally minimal preemption count. Verify
    // against an exhaustive DFS that collects every failing execution.
    let program = lost_update(RuntimeConfig::default());
    let icb_bug = minimal_bug(&program, 500_000).expect("bug");
    let dfs = Search::over(&program)
        .strategy(Strategy::Dfs)
        .config(SearchConfig {
            max_executions: Some(500_000),
            max_bug_reports: 1024,
            ..SearchConfig::default()
        })
        .run()
        .unwrap();
    assert!(dfs.completed, "DFS must exhaust this small program");
    let dfs_min = dfs
        .bugs
        .iter()
        .map(|b| b.preemptions)
        .min()
        .expect("DFS finds bugs too");
    assert_eq!(icb_bug.preemptions, dfs_min);
}

#[test]
fn bound_zero_reaches_terminating_executions() {
    // "It is always possible to drive a terminating program to
    // completion without incurring a preemption": bound 0 must produce
    // complete executions, not truncated ones.
    let program = lost_update(RuntimeConfig::default());
    let report = Search::over(&program)
        .config(SearchConfig {
            preemption_bound: Some(0),
            ..SearchConfig::default()
        })
        .run()
        .unwrap();
    assert!(report.executions > 0);
    assert_eq!(report.max_stats.preemptions, 0);
    // Every bound-0 execution ran to completion (termination, not limit).
    assert!(report.bugs.is_empty()); // the lost update needs 1 preemption
    assert!(report.max_stats.steps > 10, "executions go deep at bound 0");
}
