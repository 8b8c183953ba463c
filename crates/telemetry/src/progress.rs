//! Rate-limited live progress reporting.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use icb_core::search::{BoundStats, SearchReport};
use icb_core::telemetry::{AbortReason, ResumeInfo};
use icb_core::{ExecStats, ExecutionOutcome, MetricsRegistry, SearchObserver};

/// Prints a live status line while a search runs.
///
/// Output is rate-limited (default: at most one line per 250 ms), so
/// attaching the reporter to a search running tens of thousands of
/// executions per second costs almost nothing. Bound transitions and the
/// final summary are always printed.
///
/// All counters behind the status line — executions, rate, distinct
/// states, the active bound, queue depth, and the Theorem-1 ETA — come
/// from a [`MetricsRegistry`], the same registry that backs `/metrics`
/// and `explore top`. By default the reporter owns a private registry
/// and feeds it from the events it observes; pass the search's shared
/// registry via [`with_registry`](ProgressReporter::with_registry) and
/// the reporter becomes a pure renderer, reading figures the
/// [`MetricsBridge`](icb_core::MetricsBridge) already mirrored.
///
/// When Theorem-1 parameters are supplied (via
/// [`MetricsRegistry::set_theorem1`] on the reporter's
/// [`registry`](ProgressReporter::registry)), the reporter prints an ETA
/// for the current bound from the paper's ceiling — the number of
/// executions with `c` preemptions is at most `C(nk, c) · (nb + c)!` —
/// and the observed execution rate. The ceiling is loose (it counts
/// infeasible schedules), so the ETA is an upper bound and is capped at
/// 10⁶ seconds before the reporter gives up and prints `eta >1e6s`.
#[derive(Debug)]
pub struct ProgressReporter<W: Write> {
    out: W,
    min_interval: Duration,
    last_line: Option<Instant>,
    strategy: String,
    /// Bugs printed so far; deliberately private to the reporter (the
    /// registry counts *reported* bugs too, but numbering the `bug #N`
    /// lines belongs to the renderer, not the metrics layer).
    bugs: usize,
    registry: Arc<MetricsRegistry>,
    /// Whether the reporter must feed `registry` itself. False when the
    /// registry is shared: the [`MetricsBridge`](icb_core::MetricsBridge)
    /// upstream already mirrors every event before forwarding it here,
    /// and double-feeding would double-count histogram buckets.
    owns_registry: bool,
}

impl ProgressReporter<std::io::Stderr> {
    /// A reporter printing to standard error.
    pub fn stderr() -> Self {
        ProgressReporter::to_writer(std::io::stderr())
    }
}

impl<W: Write> ProgressReporter<W> {
    /// A reporter printing to `out`, backed by a private registry.
    pub fn to_writer(out: W) -> Self {
        ProgressReporter {
            out,
            min_interval: Duration::from_millis(250),
            last_line: None,
            strategy: String::new(),
            bugs: 0,
            registry: Arc::new(MetricsRegistry::new()),
            owns_registry: true,
        }
    }

    /// Sets the minimum interval between status lines.
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.min_interval = interval;
        self
    }

    /// Renders from `registry` instead of a private one.
    ///
    /// Use this when the search already mirrors its events into a
    /// registry (`Search::metrics`): the reporter stops feeding counters
    /// itself and becomes a read-only view, so the status line, the
    /// `/metrics` page, and `explore top` all show the same numbers.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = registry;
        self.owns_registry = false;
        self
    }

    /// The registry backing this reporter's figures.
    ///
    /// For a reporter with a private registry, this is where to supply
    /// Theorem-1 parameters: `reporter.registry().set_theorem1(n, b)`.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    fn due(&self) -> bool {
        self.last_line
            .is_none_or(|t| t.elapsed() >= self.min_interval)
    }

    fn status_line(&mut self, force: bool) {
        if !force && !self.due() {
            return;
        }
        self.last_line = Some(Instant::now());
        let mut line = format!(
            "[{}] {} execs ({:.0}/s), {} states",
            self.strategy,
            self.registry.executions(),
            self.registry.fresh_rate(),
            self.registry.distinct_states()
        );
        if let Some(b) = self.registry.current_bound() {
            line.push_str(&format!(
                ", bound {b} (queue {})",
                self.registry.work_queue_depth()
            ));
        }
        if self.bugs > 0 {
            line.push_str(&format!(", {} bugs", self.bugs));
        }
        match self.registry.eta_seconds() {
            Some(eta) if eta.is_finite() && eta <= 1e6 => {
                line.push_str(&format!(", eta {eta:.1}s"));
            }
            Some(_) => line.push_str(", eta >1e6s"),
            None => {}
        }
        let _ = writeln!(self.out, "{line}");
        let _ = self.out.flush();
    }
}

impl<W: Write> SearchObserver for ProgressReporter<W> {
    fn search_started(&mut self, strategy: &str) {
        self.strategy = strategy.to_string();
        if self.owns_registry {
            self.registry.mark_started();
            self.registry.set_strategy(strategy);
        }
    }

    fn search_resumed(&mut self, info: &ResumeInfo) {
        // The registry seeds its cumulative counters from the snapshot so
        // the status line is truthful, but bases the rate (and thus the
        // ETA) on the executions this segment actually performs.
        if self.owns_registry {
            self.registry.record_resume(info);
        }
        let _ = writeln!(
            self.out,
            "[{}] resumed from checkpoint: {} execs, {} states, bound {}",
            self.strategy, info.executions, info.distinct_states, info.bound
        );
        let _ = self.out.flush();
    }

    fn execution_finished(
        &mut self,
        index: usize,
        stats: &ExecStats,
        outcome: &ExecutionOutcome,
        distinct_states: usize,
    ) {
        if self.owns_registry {
            self.registry
                .record_execution(index, stats, outcome, distinct_states);
        }
        self.status_line(false);
    }

    fn bound_started(&mut self, bound: usize, work_items: usize) {
        if self.owns_registry {
            self.registry.record_bound_started(bound);
        }
        let _ = writeln!(
            self.out,
            "[{}] entering bound {bound} ({work_items} work items)",
            self.strategy
        );
        let _ = self.out.flush();
    }

    fn bound_completed(&mut self, stats: &BoundStats, wall_time: Duration) {
        let _ = writeln!(
            self.out,
            "[{}] bound {} done: {} execs in {:.2}s, {} states, {} bugs",
            self.strategy,
            stats.bound,
            stats.executions,
            wall_time.as_secs_f64(),
            stats.cumulative_states,
            stats.bugs_found
        );
        let _ = self.out.flush();
    }

    fn bug_found(&mut self, bug: &icb_core::search::BugReport) {
        if self.owns_registry {
            self.registry.bug_reported();
        }
        self.bugs += 1;
        let _ = writeln!(
            self.out,
            "[{}] bug #{} at execution {}: {} ({} preemptions)",
            self.strategy, self.bugs, bug.execution_index, bug.outcome, bug.preemptions
        );
        let _ = self.out.flush();
    }

    fn work_queue_depth(&mut self, depth: usize) {
        if self.owns_registry {
            self.registry.set_work_queue_depth(depth);
        }
    }

    fn search_aborted(&mut self, reason: AbortReason) {
        let _ = writeln!(self.out, "[{}] stopping: {reason}", self.strategy);
        let _ = self.out.flush();
    }

    fn search_finished(&mut self, report: &SearchReport) {
        if self.owns_registry {
            self.registry.record_finished(report);
        }
        // A forced final status line; rendering the report itself is the
        // caller's business (explore already prints it to stdout).
        self.status_line(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_bound_transitions_and_summary() {
        let mut p = ProgressReporter::to_writer(Vec::new());
        p.search_started("icb");
        p.bound_started(0, 1);
        p.execution_finished(1, &ExecStats::default(), &ExecutionOutcome::Terminated, 2);
        p.bound_completed(
            &BoundStats {
                bound: 0,
                faults: 0,
                executions: 1,
                cumulative_states: 2,
                bugs_found: 0,
            },
            Duration::from_millis(5),
        );
        p.search_finished(&SearchReport {
            strategy: "icb".into(),
            executions: 1,
            distinct_states: 2,
            ..SearchReport::default()
        });
        let text = String::from_utf8(p.out).unwrap();
        assert!(text.contains("entering bound 0"), "{text}");
        assert!(text.contains("bound 0 done"), "{text}");
        assert!(text.contains("[icb] 1 execs"), "{text}");
    }

    #[test]
    fn rate_limit_suppresses_spam() {
        let mut p =
            ProgressReporter::to_writer(Vec::new()).with_interval(Duration::from_secs(3600));
        p.search_started("dfs");
        for i in 1..=100 {
            p.execution_finished(i, &ExecStats::default(), &ExecutionOutcome::Terminated, i);
        }
        let text = String::from_utf8(p.out).unwrap();
        // Only the very first status line makes it through the limiter.
        assert_eq!(text.lines().count(), 1, "{text}");
    }

    #[test]
    fn resume_seeds_counters_but_not_the_rate() {
        let mut p = ProgressReporter::to_writer(Vec::new()).with_interval(Duration::ZERO);
        p.search_started("icb");
        p.search_resumed(&ResumeInfo {
            executions: 1_000_000,
            distinct_states: 5000,
            bound: 2,
            bound_executions: 10,
        });
        std::thread::sleep(Duration::from_millis(5));
        p.execution_finished(
            1_000_001,
            &ExecStats::default(),
            &ExecutionOutcome::Terminated,
            5001,
        );
        let text = String::from_utf8(p.out).unwrap();
        assert!(
            text.contains("resumed from checkpoint: 1000000 execs"),
            "{text}"
        );
        // The status line shows the cumulative count…
        assert!(text.contains("1000001 execs"), "{text}");
        // …but the rate reflects only this segment's single execution
        // over ≥5 ms of wall clock, so it cannot reach inherited scale.
        let rate_part = text
            .lines()
            .last()
            .and_then(|l| l.split('(').nth(1))
            .unwrap()
            .to_string();
        let rate: f64 = rate_part
            .split("/s")
            .next()
            .unwrap()
            .parse()
            .expect("rate number");
        assert!(
            rate < 10_000.0,
            "inherited executions leaked into rate: {text}"
        );
    }

    #[test]
    fn eta_appears_once_theorem1_params_are_set() {
        let mut p = ProgressReporter::to_writer(Vec::new()).with_interval(Duration::ZERO);
        p.registry().set_theorem1(2, 1);
        p.search_started("icb");
        p.bound_started(0, 1);
        std::thread::sleep(Duration::from_millis(2));
        p.execution_finished(
            1,
            &ExecStats {
                steps: 4,
                ..ExecStats::default()
            },
            &ExecutionOutcome::Terminated,
            2,
        );
        let text = String::from_utf8(p.out).unwrap();
        assert!(text.contains("eta"), "{text}");
    }

    #[test]
    fn eta_at_bound_zero_clamps_instead_of_going_negative() {
        let mut p = ProgressReporter::to_writer(Vec::new()).with_interval(Duration::ZERO);
        p.registry().set_theorem1(2, 1);
        p.search_started("icb");
        p.bound_started(0, 1);
        std::thread::sleep(Duration::from_millis(2));
        // Far more executions than bound 0's tiny ceiling: remaining
        // work must clamp to 0, not print a negative ETA.
        for i in 1..=50 {
            p.execution_finished(
                i,
                &ExecStats {
                    steps: 4,
                    ..ExecStats::default()
                },
                &ExecutionOutcome::Terminated,
                i,
            );
        }
        let text = String::from_utf8(p.out).unwrap();
        assert!(!text.contains("eta -"), "{text}");
        assert!(text.contains("eta 0.0s"), "{text}");
    }

    #[test]
    fn degenerate_theorem1_params_never_print_nan() {
        let mut p = ProgressReporter::to_writer(Vec::new()).with_interval(Duration::ZERO);
        p.registry().set_theorem1(0, 0);
        p.search_started("icb");
        p.bound_started(0, 0);
        std::thread::sleep(Duration::from_millis(2));
        p.execution_finished(1, &ExecStats::default(), &ExecutionOutcome::Terminated, 1);
        let text = String::from_utf8(p.out).unwrap();
        assert!(!text.contains("NaN"), "{text}");
        assert!(!text.contains("eta -"), "{text}");
    }

    #[test]
    fn empty_bound_is_reported_without_an_eta_blowup() {
        let mut p = ProgressReporter::to_writer(Vec::new()).with_interval(Duration::ZERO);
        p.registry().set_theorem1(2, 1);
        p.search_started("icb");
        // A bound can legitimately start with zero deferred work items
        // (everything at the previous bound completed without deferral).
        p.bound_started(3, 0);
        p.search_finished(&SearchReport {
            strategy: "icb".into(),
            ..SearchReport::default()
        });
        let text = String::from_utf8(p.out).unwrap();
        assert!(text.contains("entering bound 3 (0 work items)"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
        // No executions happened: the ETA must be absent, not infinite.
        assert!(!text.contains("eta"), "{text}");
    }

    #[test]
    fn shared_registry_reporter_renders_without_feeding() {
        // When the registry is shared, upstream (the MetricsBridge)
        // feeds it; the reporter renders exactly those figures and never
        // double-counts the step histogram.
        let registry = Arc::new(MetricsRegistry::new());
        let mut p = ProgressReporter::to_writer(Vec::new())
            .with_interval(Duration::ZERO)
            .with_registry(Arc::clone(&registry));
        // Simulate the bridge mirroring an event before forwarding it.
        registry.mark_started();
        registry.set_strategy("icb");
        p.search_started("icb");
        let stats = ExecStats {
            steps: 3,
            ..ExecStats::default()
        };
        registry.record_execution(5, &stats, &ExecutionOutcome::Terminated, 4);
        p.execution_finished(5, &stats, &ExecutionOutcome::Terminated, 4);
        let text = String::from_utf8(p.out).unwrap();
        assert!(text.contains("[icb] 5 execs"), "{text}");
        assert!(text.contains("4 states"), "{text}");
        let (_, _, count) = registry.step_histogram();
        assert_eq!(count, 1, "reporter must not double-feed a shared registry");
    }
}
