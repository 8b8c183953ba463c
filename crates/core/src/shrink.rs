//! Witness simplification.
//!
//! ICB already guarantees the *fewest preemptions* — the paper's
//! "simplest explanation for the error". This module shortens the
//! witness along the second axis: the number of *forced* choices. A
//! schedule prefix only needs to pin decisions up to the point where
//! the failure becomes inevitable; from there, the preemption-free
//! default policy reaches the bug on its own. [`minimize_witness`]
//! finds the shortest such prefix by replaying candidates.

use crate::program::ControlledProgram;
use crate::replay::ReplayScheduler;
use crate::trace::{ExecutionOutcome, Schedule};
use crate::NullSink;

/// Result of shrinking a witness.
#[derive(Clone, Debug)]
pub struct ShrunkWitness {
    /// The shortest failing prefix found.
    pub schedule: Schedule,
    /// Outcome the shrunk schedule reproduces.
    pub outcome: ExecutionOutcome,
    /// Preemptions in the shrunk witness's full execution.
    pub preemptions: usize,
    /// Replays spent shrinking.
    pub replays: usize,
}

/// Shortens a failing schedule to the minimal prefix from which the
/// preemption-free default policy still reproduces a failure with the
/// same outcome kind.
///
/// Runs at most `|schedule| + 1` replays (one per candidate length,
/// shortest first; the full schedule always reproduces, so the function
/// always succeeds for genuinely failing inputs).
///
/// # Panics
///
/// Panics if the full `schedule` does not reproduce a bug (the caller
/// passed a non-witness or the program is nondeterministic).
pub fn minimize_witness(program: &dyn ControlledProgram, schedule: &Schedule) -> ShrunkWitness {
    for (replays, len) in (0..=schedule.len()).enumerate() {
        let mut prefix = schedule.clone();
        prefix.truncate(len);
        let mut replay = ReplayScheduler::new(prefix);
        let result = program.execute(&mut replay, &mut NullSink);
        if result.outcome.is_bug() {
            let mut shrunk = schedule.clone();
            shrunk.truncate(len);
            return ShrunkWitness {
                schedule: shrunk,
                outcome: result.outcome,
                preemptions: result.stats.preemptions,
                replays: replays + 1,
            };
        }
    }
    panic!("the provided schedule does not reproduce a failure");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::testprog::{first_bug, Counters};

    #[test]
    fn shrinks_to_the_decisive_prefix() {
        // Bug: thread 1's first step observes counter == 1. The decisive
        // part of the schedule is [T0, T1]; everything after is noise the
        // default policy replays on its own.
        let p = Counters {
            n: 2,
            k: 4,
            bug: Some((1, 0, 1)),
        };
        let bug = first_bug(&p, 1_000_000).expect("bug");
        let shrunk = minimize_witness(&p, &bug.schedule);
        assert!(shrunk.schedule.len() <= bug.schedule.len());
        assert_eq!(shrunk.schedule.len(), 2, "decisive prefix is [T0, T1]");
        assert!(shrunk.outcome.is_bug());
        // Shrinking never increases preemptions beyond the original.
        assert!(shrunk.preemptions <= bug.preemptions);
    }

    #[test]
    fn zero_preemption_bugs_shrink_to_nothing() {
        // A bug the default policy reaches on its own: the witness
        // shrinks to the empty schedule.
        let p = Counters {
            n: 2,
            k: 2,
            bug: Some((0, 0, 0)), // thread 0's first step sees 0: immediate
        };
        let bug = first_bug(&p, 10_000).expect("bug");
        let shrunk = minimize_witness(&p, &bug.schedule);
        assert_eq!(shrunk.schedule.len(), 0);
        assert!(shrunk.outcome.is_bug());
    }

    #[test]
    #[should_panic(expected = "does not reproduce")]
    fn rejects_non_witnesses() {
        let p = Counters {
            n: 2,
            k: 2,
            bug: None,
        };
        let schedule: Schedule = vec![crate::Tid(0), crate::Tid(1)].into();
        let _ = minimize_witness(&p, &schedule);
    }

    #[test]
    fn replay_budget_is_linear() {
        let p = Counters {
            n: 2,
            k: 3,
            bug: Some((1, 0, 1)),
        };
        let bug = first_bug(&p, 100_000).expect("bug");
        let shrunk = minimize_witness(&p, &bug.schedule);
        assert!(shrunk.replays <= bug.schedule.len() + 1);
    }
}
