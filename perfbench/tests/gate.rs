//! The correctness gate must flag wrong counts and non-minimal
//! witnesses, not only pass correct ones.

use icb_perfbench::bench::run_pass;
use icb_perfbench::workload::{Expect, Host, Item};
use icb_workloads::registry::{all_benchmarks, AnyProgram};

fn wsq_vm(expect: Expect) -> Item {
    let benches = all_benchmarks();
    let wsq = benches
        .iter()
        .find(|b| b.name == "Work Stealing Q.")
        .expect("benchmark");
    Item {
        label: "Work Stealing Q./vm".into(),
        host: Host::Vm,
        program: AnyProgram::Vm((wsq.vm_model.expect("model"))()),
        expect,
    }
}

fn txn_correct(expect: Expect) -> Item {
    let benches = all_benchmarks();
    let txn = benches
        .iter()
        .find(|b| b.name == "Transaction Manager")
        .expect("benchmark");
    Item {
        label: "Transaction Manager/vm".into(),
        host: Host::Vm,
        program: (txn.correct)(),
        expect,
    }
}

fn txn_bug(expect: Expect) -> Item {
    let benches = all_benchmarks();
    let txn = benches
        .iter()
        .find(|b| b.name == "Transaction Manager")
        .expect("benchmark");
    let bug = txn
        .bugs
        .iter()
        .find(|b| b.name == "torn-flush")
        .expect("bug");
    Item {
        label: "Transaction Manager/torn-flush".into(),
        host: Host::Vm,
        program: (bug.build)(),
        expect,
    }
}

fn failures(items: Vec<Item>) -> Vec<String> {
    let order: Vec<usize> = (0..items.len()).collect();
    run_pass(&items, &order, 1, None).failures
}

#[test]
fn correct_expectations_pass() {
    let items = vec![
        wsq_vm(Expect::Certify {
            bound: 2,
            executions: 338,
            states: 1362,
        }),
        txn_bug(Expect::Hunt {
            preemptions: 2,
            faults: 0,
            executions: 7,
        }),
    ];
    assert_eq!(failures(items), Vec::<String>::new());
}

#[test]
fn wrong_counts_and_witnesses_fail() {
    let items = vec![
        wsq_vm(Expect::Certify {
            bound: 2,
            executions: 339,
            states: 1362,
        }),
        txn_bug(Expect::Hunt {
            preemptions: 1,
            faults: 0,
            executions: 7,
        }),
        // A correct program has no bug to hunt: the search and the
        // shrink both fail.
        txn_correct(Expect::Hunt {
            preemptions: 0,
            faults: 0,
            executions: 1,
        }),
    ];
    let f = failures(items);
    assert_eq!(f.len(), 4, "{f:?}");
    assert!(f[0].contains("count mismatch"), "{}", f[0]);
    assert!(f[1].contains("non-minimal witness"), "{}", f[1]);
    assert!(f[2].contains("bug not found"), "{}", f[2]);
    assert!(f[3].contains("nothing to shrink"), "{}", f[3]);
}
