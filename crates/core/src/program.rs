//! The interface between programs under test and search strategies.

use crate::coverage::StateSink;
use crate::telemetry::{SearchObserver, SiteId};
use crate::tid::Tid;
use crate::trace::ExecutionResult;

/// A scheduling point: the information available to the scheduler when it
/// must decide which thread runs next.
///
/// A point is reached after every *step* of the program, where a step is
/// the execution of one shared-variable access (Section 2 of the paper) —
/// or, under the sound reduction of Section 3.1, one synchronization
/// operation.
#[derive(Clone, Copy, Debug)]
pub struct SchedulePoint<'a> {
    /// Index of this point within the execution (0 = initial point).
    pub step_index: usize,
    /// The thread that executed the previous step; `None` at the initial
    /// point.
    pub current: Option<Tid>,
    /// Whether `current` is still enabled. Choosing a different thread
    /// while this is `true` incurs a preemption.
    pub current_enabled: bool,
    /// The enabled threads, sorted by id. Never empty: if no thread is
    /// enabled the program reports termination or deadlock instead of
    /// consulting the scheduler.
    pub enabled: &'a [Tid],
}

impl SchedulePoint<'_> {
    /// Returns `true` if `tid` is enabled at this point.
    pub fn is_enabled(&self, tid: Tid) -> bool {
        self.enabled.contains(&tid)
    }

    /// The default, preemption-free policy: keep running the current
    /// thread while it is enabled; otherwise run the lowest-id enabled
    /// thread (a nonpreempting context switch).
    ///
    /// Starting from any state, following this policy drives a terminating
    /// program to completion without incurring a single preemption — the
    /// reason context bounding does not limit execution depth.
    pub fn default_choice(&self) -> Tid {
        match self.current {
            Some(c) if self.current_enabled => c,
            _ => self.enabled[0],
        }
    }
}

/// A fallible operation about to execute: the information available to
/// the scheduler when it must decide whether to inject a fault.
///
/// Program hosts reach a fault point immediately after the scheduling
/// decision of a step whose operation is *designated fallible* — a
/// `try_lock` (may fail even when the lock is free), a condvar wait (may
/// wake spuriously), a bounded channel send (may observe a full
/// channel), or an explicit `fail_point(site)`. The scheduler answers
/// with a binary decision, making environmental failure a searched
/// dimension exactly like preemption.
#[derive(Clone, Copy, Debug)]
pub struct FaultPoint {
    /// Index of the step this fault decision belongs to (the same index
    /// the preceding [`SchedulePoint`] carried).
    pub step_index: usize,
    /// The thread executing the fallible operation.
    pub tid: Tid,
    /// The site of the fallible operation, as resolved by the host.
    pub site: SiteId,
}

/// Decides which thread runs at every scheduling point.
///
/// Implementations range from trivial (replay a fixed schedule, pick at
/// random) to full search drivers (the nested depth-first exploration
/// inside [`Strategy::Icb`](crate::search::Strategy::Icb)).
pub trait Scheduler {
    /// Chooses one of `point.enabled`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if they cannot make a choice (e.g. a
    /// replay scheduler observing a divergent execution); the driving
    /// search treats this as a hard error in the program under test.
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid;

    /// Decides whether to inject a fault into the fallible operation at
    /// `point`. Called by the program host right after
    /// [`pick`](Scheduler::pick) chose the thread, for the same step,
    /// and only for designated fallible operations.
    ///
    /// The default never injects — schedulers that predate fault
    /// bounding (and any search at fault bound 0) behave exactly as
    /// before.
    fn decide_fault(&mut self, point: FaultPoint) -> bool {
        let _ = point;
        false
    }
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn pick(&mut self, point: SchedulePoint<'_>) -> Tid {
        (**self).pick(point)
    }

    fn decide_fault(&mut self, point: FaultPoint) -> bool {
        (**self).decide_fault(point)
    }
}

/// A program whose scheduling is fully controlled by a [`Scheduler`].
///
/// This is the *stateless checker* interface (the paper's CHESS): the
/// search cannot capture or restore states, only re-execute the program
/// from its unique initial state under different schedules. Both the
/// controlled runtime (`icb-runtime`) and the explicit-state VM
/// (`icb-statevm`) implement it.
///
/// # Contract
///
/// * The program must be deterministic apart from scheduling: the same
///   sequence of choices must yield the identical execution.
/// * At every scheduling point, the program must consult the scheduler
///   with the accurate enabled set and record the decision in the
///   returned trace.
/// * The program must terminate under every schedule (possibly via the
///   step limit escape hatch of its host).
pub trait ControlledProgram {
    /// Runs one complete execution under `scheduler`, reporting every
    /// visited state fingerprint to `sink`.
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult;

    /// Like [`execute`](ControlledProgram::execute), additionally
    /// reporting in-execution telemetry (currently: data races, through
    /// [`SearchObserver::race_detected`]) to `observer`.
    ///
    /// The default implementation ignores the observer; hosts with an
    /// in-execution event source (the controlled runtime's race detector)
    /// override it.
    fn execute_observed(
        &self,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult {
        let _ = observer;
        self.execute(scheduler, sink)
    }

    /// Number of executions to charge per `execute` call when accounting
    /// against execution budgets. Always 1 for real programs; exists so
    /// wrappers (e.g. multi-replay reducers) can be honest about cost.
    fn executions_per_run(&self) -> usize {
        1
    }

    /// Whether equal state fingerprints imply equal concrete states.
    ///
    /// The explicit-state VM hashes the full concrete state, so a
    /// fingerprint match there identifies the state exactly and
    /// fingerprint-based subtree pruning is sound. The stateless
    /// runtime's happens-before fingerprints are a heuristic (equal
    /// fingerprints mean equivalent interleavings of the *prefix*, not
    /// an identical continuation), so pruning on them may miss states.
    /// The default is the conservative `false`; only hosts with exact
    /// state hashing override it.
    fn fingerprints_are_exact(&self) -> bool {
        false
    }
}

impl<P: ControlledProgram + ?Sized> ControlledProgram for &P {
    fn execute(&self, scheduler: &mut dyn Scheduler, sink: &mut dyn StateSink) -> ExecutionResult {
        (**self).execute(scheduler, sink)
    }

    fn execute_observed(
        &self,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn StateSink,
        observer: &mut dyn SearchObserver,
    ) -> ExecutionResult {
        (**self).execute_observed(scheduler, sink, observer)
    }

    fn executions_per_run(&self) -> usize {
        (**self).executions_per_run()
    }

    fn fingerprints_are_exact(&self) -> bool {
        (**self).fingerprints_are_exact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_choice_continues_current() {
        let enabled = [Tid(0), Tid(2)];
        let p = SchedulePoint {
            step_index: 3,
            current: Some(Tid(2)),
            current_enabled: true,
            enabled: &enabled,
        };
        assert_eq!(p.default_choice(), Tid(2));
    }

    #[test]
    fn default_choice_switches_when_current_disabled() {
        let enabled = [Tid(1), Tid(3)];
        let p = SchedulePoint {
            step_index: 3,
            current: Some(Tid(0)),
            current_enabled: false,
            enabled: &enabled,
        };
        assert_eq!(p.default_choice(), Tid(1));
    }

    #[test]
    fn default_choice_at_initial_point() {
        let enabled = [Tid(0), Tid(1)];
        let p = SchedulePoint {
            step_index: 0,
            current: None,
            current_enabled: false,
            enabled: &enabled,
        };
        assert_eq!(p.default_choice(), Tid(0));
    }

    #[test]
    fn is_enabled_checks_membership() {
        let enabled = [Tid(0), Tid(1)];
        let p = SchedulePoint {
            step_index: 0,
            current: None,
            current_enabled: false,
            enabled: &enabled,
        };
        assert!(p.is_enabled(Tid(1)));
        assert!(!p.is_enabled(Tid(2)));
    }
}
