//! The benchmark's workloads: closed batches of certify and bug-hunt
//! operations over the registry's programs, with the counts and
//! verdicts each operation must reproduce.

use icb_core::rng::SplitMix64;
use icb_core::{ControlledProgram, NullSink, ReplayScheduler};
use icb_workloads::registry::{all_benchmarks, AnyProgram};

/// Which program host runs an item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Host {
    /// The stateless runtime: closures on OS threads under a baton.
    Runtime,
    /// The explicit-state VM.
    Vm,
}

/// What a batch item does and what it must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Search to completion of preemption bound `bound`; the report must
    /// have exactly these counts and no bug.
    Certify {
        /// The preemption bound to certify.
        bound: usize,
        /// Executions the bound takes (exact at any `jobs`).
        executions: usize,
        /// Distinct states the bound covers (exact at any `jobs`).
        states: usize,
    },
    /// Stop-on-first-bug search at fault bound `faults`, then shrink the
    /// witness. The witness must be minimal in `(preemptions, faults)`.
    Hunt {
        /// Minimal preemptions of the bug (from the registry).
        preemptions: usize,
        /// Minimal faults of the bug (from the registry).
        faults: usize,
        /// Executions up to the first bug at `jobs = 1`.
        executions: usize,
    },
}

/// One operation of a workload's batch.
pub struct Item {
    /// `benchmark/host c=N` or `benchmark/bug`.
    pub label: String,
    /// Which host runs the program.
    pub host: Host,
    /// The program under test.
    pub program: AnyProgram,
    /// The operation and its expected result.
    pub expect: Expect,
}

/// A named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Worker threads of every search.
    pub jobs: usize,
    certify: &'static [Certify],
    hunt_all_bugs: bool,
}

#[derive(Clone, Copy, Debug)]
struct Certify {
    bench: &'static str,
    host: Host,
    bound: usize,
    executions: usize,
    states: usize,
}

const fn certify(
    bench: &'static str,
    host: Host,
    bound: usize,
    executions: usize,
    states: usize,
) -> Certify {
    Certify {
        bench,
        host,
        bound,
        executions,
        states,
    }
}

const BT: &str = "Bluetooth";
const FS: &str = "File System Model";
const WSQ: &str = "Work Stealing Q.";
const APE: &str = "APE";
const DRYAD: &str = "Dryad Channels";

/// Every workload, in the order `BENCHMARK.json` lists them; its
/// `why` fields and `README.md` say why each was chosen.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "certify-runtime",
        jobs: 1,
        certify: &[
            certify(BT, Host::Runtime, 2, 3091, 3998),
            certify(WSQ, Host::Runtime, 3, 1768, 5647),
            certify(APE, Host::Runtime, 2, 3215, 18259),
        ],
        hunt_all_bugs: false,
    },
    Workload {
        name: "certify-vm",
        jobs: 1,
        certify: &[
            certify(BT, Host::Vm, 4, 2800, 715),
            certify(FS, Host::Vm, 4, 50064, 529),
            certify(WSQ, Host::Vm, 4, 20047, 2618),
            certify(APE, Host::Vm, 2, 9012, 8524),
            certify(DRYAD, Host::Vm, 2, 14670, 10928),
        ],
        hunt_all_bugs: false,
    },
    Workload {
        name: "bug-hunt",
        jobs: 1,
        certify: &[],
        hunt_all_bugs: true,
    },
    Workload {
        name: "certify-parallel",
        jobs: 2,
        certify: &[
            certify(BT, Host::Runtime, 2, 3091, 3998),
            certify(WSQ, Host::Runtime, 3, 1768, 5647),
            certify(WSQ, Host::Vm, 4, 20047, 2618),
            certify(BT, Host::Vm, 4, 2800, 715),
        ],
        hunt_all_bugs: false,
    },
];

/// Executions to the first bug at `jobs = 1`, keyed by bug name. The
/// search is deterministic, so any other number means the driver
/// explored in a different order.
const HUNT_EXECUTIONS: &[(&str, usize)] = &[
    ("check-then-increment", 104),
    ("tail-publish-first", 7),
    ("missing-tail-restore", 7),
    ("non-atomic-steal", 102),
    ("commit-toctou", 4),
    ("unlocked-scan", 7),
    ("torn-flush", 7),
    ("missing-join", 1),
    ("poison-shortcut", 1),
    ("untracked-insert", 68),
    ("non-atomic-release", 2732),
    ("stop-jumps-queue", 1),
    ("close-no-wait (Fig. 3 UAF)", 209),
    ("ack-before-alert", 209),
    ("unsync-stats", 193),
    ("unlocked-untrack", 59),
    ("shed-on-try-lock-failure", 4),
    ("missing-spurious-recheck", 5),
];

fn host_of(program: &AnyProgram) -> Host {
    match program {
        AnyProgram::Runtime(_) => Host::Runtime,
        AnyProgram::Vm(_) => Host::Vm,
    }
}

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Builds every item of the batch, in registry order.
    pub fn build(&self) -> Vec<Item> {
        let benches = all_benchmarks();
        let mut items = Vec::new();
        for c in self.certify {
            let bench = benches
                .iter()
                .find(|b| b.name == c.bench)
                .expect("certify entries name registry benchmarks");
            let program = match c.host {
                Host::Runtime => (bench.correct)(),
                Host::Vm => AnyProgram::Vm((bench.vm_model.expect("benchmark has a VM model"))()),
            };
            assert_eq!(host_of(&program), c.host, "{} host", c.bench);
            let host = if c.host == Host::Runtime {
                "runtime"
            } else {
                "vm"
            };
            items.push(Item {
                label: format!("{}/{} c={}", c.bench, host, c.bound),
                host: c.host,
                program,
                expect: Expect::Certify {
                    bound: c.bound,
                    executions: c.executions,
                    states: c.states,
                },
            });
        }
        if self.hunt_all_bugs {
            for bench in &benches {
                for bug in &bench.bugs {
                    let program = (bug.build)();
                    let executions = HUNT_EXECUTIONS
                        .iter()
                        .find(|(name, _)| *name == bug.name)
                        .map(|&(_, n)| n)
                        .expect("every registry bug has a recorded execution count");
                    items.push(Item {
                        label: format!("{}/{}", bench.name, bug.name),
                        host: host_of(&program),
                        program,
                        expect: Expect::Hunt {
                            preemptions: bug.expected_bound,
                            faults: bug.expected_faults,
                            executions,
                        },
                    });
                }
            }
        }
        items
    }

    /// Builds the batch and runs one default-schedule execution of every
    /// program, so the runtime's task-thread pool and the allocator are
    /// warm before anything is timed.
    pub fn set_up(&self) -> Vec<Item> {
        let items = self.build();
        for item in &items {
            let mut sched = ReplayScheduler::new(Default::default());
            std::hint::black_box(item.program.execute(&mut sched, &mut NullSink));
        }
        items
    }
}

/// A seeded order over `n` items: a Fisher–Yates shuffle drawn from
/// `rng`. The programs only ever see the order, never the seed.
pub fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_index(i + 1));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_is_a_seeded_permutation() {
        let a = shuffled(18, &mut SplitMix64::new(3));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..18).collect::<Vec<_>>());
        assert_eq!(a, shuffled(18, &mut SplitMix64::new(3)));
        assert_ne!(a, shuffled(18, &mut SplitMix64::new(4)));
    }

    #[test]
    fn every_workload_names_registry_programs() {
        for w in WORKLOADS {
            let items = w.build();
            assert!(!items.is_empty(), "{}", w.name);
            assert_eq!(Workload::named(w.name).map(|n| n.name), Some(w.name));
        }
        assert_eq!(
            Workload::named("bug-hunt").expect("exists").build().len(),
            18
        );
    }
}
