//! Crash-resilience properties of the checkpoint/resume machinery,
//! exercised through the public API only.
//!
//! The crash model: checkpoints are written atomically, so a crash at
//! any moment leaves the latest fully-written snapshot on disk; resuming
//! from it redoes the executions lost after the write and must end in a
//! final report identical to the uninterrupted run's. The tests simulate
//! the crash by copying the live checkpoint file aside mid-search (as if
//! the process had been killed right after that write) and resuming from
//! the copy.

use std::path::{Path, PathBuf};

use icb_core::search::{Search, SearchConfig, SearchReport, Strategy};
use icb_core::snapshot::{Checkpointer, SearchSnapshot, StrategyState};
use icb_core::telemetry::SearchObserver;
use icb_core::{
    ControlledProgram, ExecutionOutcome, ExecutionResult, SchedulePoint, Scheduler, StateSink, Tid,
    Trace, TraceEntry,
};

/// `n` threads × `k` increments of a shared counter; an optional bug
/// fires when `bug_thread`'s step `bug_step` observes `counter ==
/// bug_value`. Fully deterministic — the workhorse for exact-resume
/// checks.
struct Counters {
    n: usize,
    k: usize,
    bug: Option<(usize, usize, u32)>,
}

impl ControlledProgram for Counters {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
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
            sink.visit(icb_core::coverage::fingerprint_bytes(&bytes));
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

/// Observer that snapshots the live checkpoint file aside after its
/// `at`-th write — freezing the exact state a crash at that moment would
/// leave on disk.
struct CrashCopier {
    live: PathBuf,
    frozen: PathBuf,
    at: usize,
    seen: usize,
}

impl SearchObserver for CrashCopier {
    fn checkpoint_written(&mut self, _executions: usize) {
        self.seen += 1;
        if self.seen == self.at {
            std::fs::copy(&self.live, &self.frozen).expect("freeze checkpoint copy");
        }
    }
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("icb-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn assert_reports_identical(resumed: &SearchReport, reference: &SearchReport) {
    assert_eq!(resumed.executions, reference.executions, "executions");
    assert_eq!(
        resumed.distinct_states, reference.distinct_states,
        "distinct states"
    );
    assert_eq!(resumed.bugs, reference.bugs, "bug reports");
    assert_eq!(
        resumed.buggy_executions, reference.buggy_executions,
        "buggy executions"
    );
    assert_eq!(resumed.completed, reference.completed, "completed");
    assert_eq!(
        resumed.completed_bound, reference.completed_bound,
        "completed bound"
    );
    assert_eq!(
        resumed.bound_history, reference.bound_history,
        "bound history"
    );
    assert_eq!(
        resumed.coverage_curve, reference.coverage_curve,
        "coverage curve"
    );
    assert_eq!(resumed.max_stats, reference.max_stats, "max stats");
}

fn freeze_mid_search<F>(live: &Path, frozen: &Path, every: usize, at: usize, run: F) -> SearchReport
where
    F: FnOnce(&mut CrashCopier, Checkpointer) -> SearchReport,
{
    let ck = Checkpointer::new(live, every);
    let mut copier = CrashCopier {
        live: live.to_path_buf(),
        frozen: frozen.to_path_buf(),
        at,
        seen: 0,
    };
    let report = run(&mut copier, ck);
    assert!(
        copier.seen >= at,
        "search wrote only {} checkpoints, test wanted to freeze the {at}-th",
        copier.seen
    );
    report
}

#[test]
fn icb_resume_reproduces_the_uninterrupted_report() {
    let program = Counters {
        n: 2,
        k: 3,
        bug: Some((1, 1, 3)),
    };
    let config = SearchConfig::default();
    let reference = Search::over(&program).config(config.clone()).run().unwrap();
    assert!(reference.completed, "test workload must be exhaustible");
    assert!(!reference.bugs.is_empty(), "test workload must have a bug");

    let dir = TempDir::new("icb");
    let live = dir.path("live.ck");
    let frozen = dir.path("frozen.ck");
    let checkpointed = freeze_mid_search(&live, &frozen, 3, 2, |copier, ck| {
        Search::over(&program)
            .config(config.clone())
            .observer(copier)
            .checkpoint(ck)
            .run()
            .unwrap()
    });
    // Checkpointing must not perturb the search itself…
    assert_reports_identical(&checkpointed, &reference);
    // …and a completed run leaves nothing to resume.
    assert!(!live.exists(), "completed run must remove its checkpoint");

    // "Crash" after the 2nd write: resume from the frozen snapshot.
    let snapshot = SearchSnapshot::read_from(&frozen).expect("read frozen checkpoint");
    assert!(matches!(snapshot.state, StrategyState::Icb(_)));
    let resumed = Search::over(&program)
        .resume_from(snapshot)
        .run()
        .expect("resume icb");
    assert_reports_identical(&resumed, &reference);
}

#[test]
fn icb_resume_from_every_checkpoint_matches() {
    // Stress the boundary logic: freeze after each of the first 6 writes
    // at --checkpoint-every 1 granularity (mid-bound, mid-item, bound
    // switches) and demand an identical final report from each.
    let program = Counters {
        n: 3,
        k: 2,
        bug: None,
    };
    let config = SearchConfig::default();
    let reference = Search::over(&program).config(config.clone()).run().unwrap();
    for at in 1..=6 {
        let dir = TempDir::new(&format!("icb-all-{at}"));
        let live = dir.path("live.ck");
        let frozen = dir.path("frozen.ck");
        freeze_mid_search(&live, &frozen, 1, at, |copier, ck| {
            Search::over(&program)
                .config(config.clone())
                .observer(copier)
                .checkpoint(ck)
                .run()
                .unwrap()
        });
        let snapshot = SearchSnapshot::read_from(&frozen).unwrap();
        let resumed = Search::over(&program)
            .resume_from(snapshot)
            .run()
            .unwrap_or_else(|e| panic!("resume from write {at}: {e}"));
        assert_reports_identical(&resumed, &reference);
    }
}

#[test]
fn dfs_resume_reproduces_the_uninterrupted_report() {
    let program = Counters {
        n: 2,
        k: 3,
        bug: Some((1, 1, 3)),
    };
    let config = SearchConfig::default();
    let reference = Search::over(&program)
        .strategy(Strategy::Dfs)
        .config(config.clone())
        .run()
        .unwrap();
    assert!(reference.completed);

    let dir = TempDir::new("dfs");
    let live = dir.path("live.ck");
    let frozen = dir.path("frozen.ck");
    let checkpointed = freeze_mid_search(&live, &frozen, 4, 2, |copier, ck| {
        Search::over(&program)
            .strategy(Strategy::Dfs)
            .config(config.clone())
            .observer(copier)
            .checkpoint(ck)
            .run()
            .unwrap()
    });
    assert_reports_identical(&checkpointed, &reference);
    assert!(!live.exists());

    let snapshot = SearchSnapshot::read_from(&frozen).unwrap();
    let resumed = Search::over(&program)
        .resume_from(snapshot)
        .run()
        .expect("resume dfs");
    assert_reports_identical(&resumed, &reference);
}

#[test]
fn random_resume_continues_the_exact_stream() {
    let program = Counters {
        n: 3,
        k: 2,
        bug: None,
    };
    let config = SearchConfig::with_max_executions(40);
    let reference = Search::over(&program)
        .strategy(Strategy::Random { seed: 7 })
        .config(config.clone())
        .run()
        .unwrap();

    let dir = TempDir::new("random");
    let live = dir.path("live.ck");
    let frozen = dir.path("frozen.ck");
    freeze_mid_search(&live, &frozen, 5, 3, |copier, ck| {
        Search::over(&program)
            .strategy(Strategy::Random { seed: 7 })
            .config(config.clone())
            .observer(copier)
            .checkpoint(ck)
            .run()
            .unwrap()
    });

    let snapshot = SearchSnapshot::read_from(&frozen).unwrap();
    let resumed = Search::over(&program)
        .resume_from(snapshot)
        .run()
        .expect("resume random");
    // Identical stream ⇒ identical walk ⇒ identical curve.
    assert_eq!(resumed.executions, reference.executions);
    assert_eq!(resumed.distinct_states, reference.distinct_states);
    assert_eq!(resumed.coverage_curve, reference.coverage_curve);
}

#[test]
fn resumed_budget_stopped_run_does_not_overrun_the_budget() {
    // A snapshot written exactly at an exhausted execution budget must
    // resume into an immediate (0-extra-executions) report.
    let program = Counters {
        n: 3,
        k: 2,
        bug: None,
    };
    let config = SearchConfig::with_max_executions(9);
    let dir = TempDir::new("budget");
    let live = dir.path("live.ck");
    let stopped = Search::over(&program)
        .config(config.clone())
        .checkpoint(Checkpointer::new(&live, 4))
        .run()
        .unwrap();
    assert_eq!(stopped.executions, 9);
    assert!(live.exists(), "aborted run must leave a final checkpoint");

    let snapshot = SearchSnapshot::read_from(&live).unwrap();
    let resumed = Search::over(&program).resume_from(snapshot).run().unwrap();
    assert_eq!(resumed.executions, 9, "resume must not exceed the budget");
    assert_eq!(resumed.distinct_states, stopped.distinct_states);
}
