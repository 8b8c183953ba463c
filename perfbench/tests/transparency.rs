//! The traced decorator must not change what a search finds, and its
//! counts must repeat exactly at `jobs = 1`.

use icb_core::rng::SplitMix64;
use icb_perfbench::bench::{run_pass, Pass};
use icb_perfbench::layers::Recorder;
use icb_perfbench::workload::{shuffled, Expect, Host, Item};
use icb_workloads::registry::{all_benchmarks, AnyProgram};

/// A small mixed batch: runtime and VM certification, and bug hunts on
/// both hosts, one of them needing an injected fault.
fn batch() -> Vec<Item> {
    let benches = all_benchmarks();
    let bench = |name: &str| benches.iter().find(|b| b.name == name).expect("benchmark");
    let bug = |bench_name: &str, bug_name: &str| {
        let b = bench(bench_name)
            .bugs
            .iter()
            .find(|b| b.name == bug_name)
            .expect("bug");
        let program = (b.build)();
        let host = match program {
            AnyProgram::Runtime(_) => Host::Runtime,
            AnyProgram::Vm(_) => Host::Vm,
        };
        (program, host, b.expected_bound, b.expected_faults)
    };
    let mut items = vec![
        Item {
            label: "Bluetooth/runtime c=1".into(),
            host: Host::Runtime,
            program: (bench("Bluetooth").correct)(),
            expect: Expect::Certify {
                bound: 1,
                executions: 254,
                states: 1334,
            },
        },
        Item {
            label: "Work Stealing Q./vm c=3".into(),
            host: Host::Vm,
            program: AnyProgram::Vm((bench("Work Stealing Q.").vm_model.expect("model"))()),
            expect: Expect::Certify {
                bound: 3,
                executions: 3347,
                states: 2191,
            },
        },
    ];
    for (bench_name, bug_name, executions) in [
        ("Bluetooth", "check-then-increment", 104),
        ("Transaction Manager", "torn-flush", 7),
        ("Fault Injection", "shed-on-try-lock-failure", 4),
    ] {
        let (program, host, preemptions, faults) = bug(bench_name, bug_name);
        items.push(Item {
            label: format!("{bench_name}/{bug_name}"),
            host,
            program,
            expect: Expect::Hunt {
                preemptions,
                faults,
                executions,
            },
        });
    }
    items
}

fn order(n: usize) -> Vec<usize> {
    shuffled(n, &mut SplitMix64::new(5))
}

fn assert_clean(pass: &Pass) {
    assert!(
        pass.failures.is_empty(),
        "gate failures: {:?}",
        pass.failures
    );
    assert_eq!(
        pass.attempted,
        2 + 3 * 2,
        "2 certifications, 3 hunts + 3 shrinks"
    );
}

#[test]
fn traced_runs_find_what_untraced_runs_find() {
    let items = batch();
    let order = order(items.len());
    for jobs in [1, 2] {
        let plain = run_pass(&items, &order, jobs, None);
        let recorder = Recorder::default();
        let traced = run_pass(&items, &order, jobs, Some(&recorder));
        assert_clean(&plain);
        assert_clean(&traced);
        if jobs == 1 {
            assert_eq!(plain.verdicts, traced.verdicts);
        } else {
            // Parallel reports agree on order-independent fields.
            for (p, t) in plain.verdicts.iter().zip(&traced.verdicts) {
                assert_eq!(
                    (p.executions, p.states, p.completed_bound),
                    (t.executions, t.states, t.completed_bound)
                );
            }
        }
        assert_eq!(plain.executions, traced.executions);
        let stats = &traced.layers.as_ref().expect("traced").stats;
        assert_eq!(
            stats.executions, traced.executions,
            "every search execution is seen"
        );
    }
}

#[test]
fn traced_counts_repeat_exactly_at_one_job() {
    let items = batch();
    let counts = |seed: u64| {
        let order = shuffled(items.len(), &mut SplitMix64::new(seed));
        let recorder = Recorder::default();
        let pass = run_pass(&items, &order, 1, Some(&recorder));
        assert_clean(&pass);
        let s = pass.layers.expect("traced").stats;
        (
            s.executions,
            s.steps,
            s.fault_points,
            s.replayed_steps,
            s.visits,
            pass.shrink_replays,
        )
    };
    let first = counts(1);
    assert_eq!(first, counts(1));
    // Item order changes timing, never counts.
    assert_eq!(first, counts(2));
    assert!(first.2 > 0, "the fault bug reaches fault points");
    assert!(first.5 > 0, "shrinking replays");
}

#[test]
fn layer_times_partition_execution_time() {
    let items = batch();
    let recorder = Recorder::default();
    recorder.set_keep_spans(true);
    let pass = run_pass(&items, &order(items.len()), 1, Some(&recorder));
    let t = pass.layers.expect("traced");
    let s = &t.stats;
    let parts = (s.pick_ns + s.gap_ns + s.visit_ns) as f64;
    let whole = s.exec_ns() as f64;
    assert!((parts / whole - 1.0).abs() < 0.02, "{parts} vs {whole}");
    assert!(
        whole <= pass.search_s * 1e9,
        "executions fit in the searches"
    );
    // One pass span, one span per search and shrink, one per execution.
    assert_eq!(t.spans.len(), 1 + 5 + 3 + s.executions as usize);
    assert!(t.spans.iter().all(|sp| sp.start_ns <= sp.end_ns));
}
