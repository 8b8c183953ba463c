//! Runs a workload: set-up, timed passes over the batch, the correctness
//! gate, and the metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use icb_core::rng::SplitMix64;
use icb_core::search::{Search, SearchConfig, SearchReport};
use icb_core::shrink::minimize_witness;
use icb_core::{ControlledProgram, MetricsRegistry, NullSink, ReplayScheduler};

use crate::layers::{HostStats, LayerStats, Recorder, Span, Traced};
use crate::sys;
use crate::workload::{shuffled, Expect, Item, Workload};

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 31;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, e.g. `batch_s`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// What the searches of one item found: compared across runs by the
/// transparency tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Item label.
    pub label: String,
    /// Executions of the search.
    pub executions: usize,
    /// Distinct states of the search.
    pub states: usize,
    /// Completed preemption bound.
    pub completed_bound: Option<usize>,
    /// First bug's schedule, as displayed, and its shrunk prefix.
    pub witness: Option<(String, String)>,
}

/// The measurements of one pass over the batch.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of every operation (searches and shrinks), summed.
    pub ops_s: f64,
    /// Wall time of the searches alone.
    pub search_s: f64,
    /// Wall time of the shrinks alone.
    pub shrink_s: f64,
    /// Per item (in batch order): search plus shrink time.
    pub item_s: Vec<f64>,
    /// Search executions.
    pub executions: u64,
    /// Shrink replays.
    pub shrink_replays: u64,
    /// User + sys CPU seconds of the pass. The kernel counts CPU time in
    /// 10 ms ticks, so it is read once per pass, not per operation; the
    /// gate's replays (one execution per bug) are included.
    pub cpu_s: f64,
    /// The sys part of `cpu_s`.
    pub sys_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed the gate, with the reason.
    pub failures: Vec<String>,
    /// Per item (in batch order): what it found.
    pub verdicts: Vec<Verdict>,
    /// Traced passes only: the decorator's measurements.
    pub layers: Option<TracedPass>,
}

/// What a traced pass adds to [`Pass`].
#[derive(Debug, Default)]
pub struct TracedPass {
    /// The decorator's counts and timings.
    pub stats: LayerStats,
    /// Pass, search, shrink and execution spans.
    pub spans: Vec<Span>,
    /// Parallel-driver counters, summed over searches.
    pub parallel: ParallelCounters,
    /// Voluntary and involuntary context switches during the pass.
    pub ctx_switches: (u64, u64),
}

/// Counters of the parallel driver read from its [`MetricsRegistry`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelCounters {
    /// Summed worker busy time.
    pub busy_ns: u64,
    /// Summed worker idle time.
    pub idle_ns: u64,
    /// Times a worker waited on an empty frontier.
    pub frontier_pop_waits: u64,
    /// Frontier lock acquisitions.
    pub frontier_lock_ops: u64,
    /// Pump receive timeouts.
    pub pump_recv_timeouts: u64,
    /// Work-stealing donations.
    pub steal_donations: u64,
}

impl ParallelCounters {
    fn merge(&mut self, o: &ParallelCounters) {
        self.busy_ns += o.busy_ns;
        self.idle_ns += o.idle_ns;
        self.frontier_pop_waits += o.frontier_pop_waits;
        self.frontier_lock_ops += o.frontier_lock_ops;
        self.pump_recv_timeouts += o.pump_recv_timeouts;
        self.steal_donations += o.steal_donations;
    }

    fn add(&mut self, registry: &MetricsRegistry) {
        let s = registry.snapshot();
        for w in &s.workers {
            self.busy_ns += w.busy_ns;
            self.idle_ns += w.idle_ns;
        }
        self.frontier_pop_waits += s.frontier_pop_waits;
        self.frontier_lock_ops += s.frontier_lock_ops;
        self.pump_recv_timeouts += s.pump_recv_timeouts;
        self.steal_donations += s.steal_donations;
    }
}

fn config_for(expect: &Expect) -> SearchConfig {
    match *expect {
        Expect::Certify { bound, .. } => SearchConfig {
            preemption_bound: Some(bound),
            ..SearchConfig::default()
        },
        Expect::Hunt { faults, .. } => SearchConfig {
            fault_bound: faults,
            ..SearchConfig::bug_hunt()
        },
    }
}

/// Why `report` fails the gate for `expect`, if it does.
fn check_search(report: &SearchReport, expect: &Expect, jobs: usize) -> Option<String> {
    if report.quarantined_total > 0 || report.watchdog_trips > 0 {
        return Some(format!(
            "{} quarantined, {} watchdog trips",
            report.quarantined_total, report.watchdog_trips
        ));
    }
    match *expect {
        Expect::Certify {
            bound,
            executions,
            states,
        } => {
            if !report.bugs.is_empty() || report.buggy_executions > 0 {
                Some(format!(
                    "wrong verdict: {} bugs in a correct program",
                    report.bugs.len()
                ))
            } else if report.completed_bound != Some(bound) || report.truncated {
                Some(format!(
                    "bound {bound} not completed: {:?}",
                    report.completed_bound
                ))
            } else if (report.executions, report.distinct_states) != (executions, states) {
                Some(format!(
                    "count mismatch: {} executions / {} states, expected {executions} / {states}",
                    report.executions, report.distinct_states
                ))
            } else {
                None
            }
        }
        Expect::Hunt {
            preemptions,
            faults,
            executions,
        } => match report.first_bug() {
            None => Some("wrong verdict: bug not found".into()),
            Some(bug) if (bug.preemptions, bug.faults) != (preemptions, faults) => Some(format!(
                "non-minimal witness ({}, {}), expected ({preemptions}, {faults})",
                bug.preemptions, bug.faults
            )),
            Some(_) if jobs == 1 && report.executions != executions => Some(format!(
                "count mismatch: {} executions to the bug, expected {executions}",
                report.executions
            )),
            Some(_) => None,
        },
    }
}

/// Runs one pass over `items` in `order`. With a `recorder`, programs
/// are wrapped in the [`Traced`] decorator and every search gets a
/// [`MetricsRegistry`]; without one, searches run bare.
pub fn run_pass(items: &[Item], order: &[usize], jobs: usize, recorder: Option<&Recorder>) -> Pass {
    let mut pass = Pass {
        item_s: vec![0.0; items.len()],
        verdicts: vec![Verdict::default(); items.len()],
        ..Pass::default()
    };
    let mut spans = Vec::new();
    let mut parallel = ParallelCounters::default();
    let pass_start = recorder.map(Recorder::now_ns);
    let ctx0 = sys::context_switches();
    let (cpu0, sys0) = sys::cpu_seconds();
    let mut next_id = 2; // 1 is the pass span
    for &i in order {
        let item = &items[i];
        let traced = recorder.map(|recorder| Traced {
            program: &item.program,
            host: item.host,
            recorder,
        });
        let program: &(dyn ControlledProgram + Sync) = match &traced {
            Some(t) => t,
            None => &item.program,
        };
        let label = &item.label;

        // The search.
        let search_id = next_id;
        next_id += 1;
        if let Some(r) = recorder {
            r.begin_search(search_id);
        }
        let registry = recorder.map(|_| Arc::new(MetricsRegistry::new()));
        let mut search = Search::over(program)
            .config(config_for(&item.expect))
            .jobs(jobs);
        if let Some(reg) = &registry {
            search = search.metrics(Arc::clone(reg));
        }
        let span_start = recorder.map(Recorder::now_ns);
        let t0 = Instant::now();
        let report = search.run();
        let dt = t0.elapsed().as_secs_f64();
        if let (Some(r), Some(start)) = (recorder, span_start) {
            spans.push(Span {
                id: search_id,
                parent: 1,
                name: label.clone(),
                start_ns: start,
                end_ns: r.now_ns(),
            });
        }
        if let Some(reg) = &registry {
            parallel.add(reg);
        }
        pass.attempted += 1;
        pass.search_s += dt;
        pass.item_s[i] += dt;
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                pass.failures.push(format!("{label}: search rejected: {e}"));
                continue;
            }
        };
        pass.executions += report.executions as u64;
        if let Some(why) = check_search(&report, &item.expect, jobs) {
            pass.failures.push(format!("{label}: {why}"));
        }
        pass.verdicts[i] = Verdict {
            label: label.clone(),
            executions: report.executions,
            states: report.distinct_states,
            completed_bound: report.completed_bound,
            witness: None,
        };
        if !matches!(item.expect, Expect::Hunt { .. }) {
            continue;
        }

        // The shrink.
        pass.attempted += 1;
        let Some(bug) = report.first_bug() else {
            pass.failures.push(format!("{label}: nothing to shrink"));
            continue;
        };
        if let Some(r) = recorder {
            r.set_shrinking(true);
        }
        let span_start = recorder.map(Recorder::now_ns);
        let t0 = Instant::now();
        let shrunk = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            minimize_witness(program, &bug.schedule)
        }));
        let dt = t0.elapsed().as_secs_f64();
        if let (Some(r), Some(start)) = (recorder, span_start) {
            r.set_shrinking(false);
            spans.push(Span {
                id: next_id,
                parent: 1,
                name: format!("shrink:{label}"),
                start_ns: start,
                end_ns: r.now_ns(),
            });
            next_id += 1;
        }
        pass.shrink_s += dt;
        pass.item_s[i] += dt;
        let Ok(shrunk) = shrunk else {
            pass.failures
                .push(format!("{label}: witness does not reproduce"));
            continue;
        };
        pass.shrink_replays += shrunk.replays as u64;
        let mut replay = ReplayScheduler::new(shrunk.schedule.clone());
        if !item
            .program
            .execute(&mut replay, &mut NullSink)
            .outcome
            .is_bug()
        {
            pass.failures
                .push(format!("{label}: shrunk witness replays to no bug"));
        }
        pass.verdicts[i].witness = Some((bug.schedule.to_string(), shrunk.schedule.to_string()));
    }
    let (cpu1, sys1) = sys::cpu_seconds();
    pass.cpu_s = cpu1 - cpu0;
    pass.sys_s = sys1 - sys0;
    pass.ops_s = pass.search_s + pass.shrink_s;
    if let (Some(r), Some(start)) = (recorder, pass_start) {
        let ctx1 = sys::context_switches();
        spans.push(Span {
            id: 1,
            parent: 0,
            name: "pass".into(),
            start_ns: start,
            end_ns: r.now_ns(),
        });
        let (stats, exec_spans) = r.take(next_id);
        spans.extend(exec_spans);
        pass.layers = Some(TracedPass {
            stats,
            spans,
            parallel,
            ctx_switches: (ctx1.0 - ctx0.0, ctx1.1 - ctx0.1),
        });
    }
    pass
}

/// A whole run's options.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Seed of the item order.
    pub seed: u64,
    /// Measuring budget.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
}

/// The outcome of a run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Metrics in `BENCHMARK.json` order: end-to-end, or per-layer when
    /// traced.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the summary only: the workload's own names
    /// for its times (`certify_s`, or `hunt_s` / `first_bug_s.geomean` /
    /// `shrink_s`), `fail_ratio`, and with tracing the per-host split
    /// and the accounted share.
    pub summary: Vec<Metric>,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Failures over all passes.
    pub failures: Vec<String>,
    /// Passes run (untraced, traced).
    pub passes: (usize, usize),
    /// Spans of the first traced pass.
    pub spans: Vec<Span>,
    /// Per item: label and median time over untraced passes.
    pub items: Vec<(String, f64)>,
    /// Operation time of every untraced pass, in run order.
    pub pass_s: Vec<f64>,
}

/// Sets up `workload` [`SETUP_REPEATS`] times, then runs passes until
/// the next one would overrun `opts.seconds` (at least one pass; with
/// tracing, alternating untraced and traced passes, at least one each).
pub fn run(workload: &Workload, opts: Options) -> RunResult {
    let mut setup = Vec::new();
    let mut items = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(items);
        let t0 = Instant::now();
        items = workload.set_up();
        setup.push(t0.elapsed().as_secs_f64());
    }
    let mut rng = SplitMix64::new(opts.seed);
    let recorder = Recorder::default();
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::<Pass>::new(), Vec::<Pass>::new());
    let mut pass_walls = Vec::new();
    loop {
        let order = shuffled(items.len(), &mut rng);
        let trace_this = opts.trace && plain.len() > traced.len();
        let t0 = Instant::now();
        if trace_this {
            recorder.set_keep_spans(traced.is_empty());
            traced.push(run_pass(&items, &order, workload.jobs, Some(&recorder)));
        } else {
            plain.push(run_pass(&items, &order, workload.jobs, None));
        }
        pass_walls.push(t0.elapsed().as_secs_f64());
        let enough = !plain.is_empty() && (!opts.trace || !traced.is_empty());
        let next = Duration::from_secs_f64(median(&pass_walls));
        if enough && started.elapsed() + next > budget {
            break;
        }
    }
    let setup_s = median(&setup);
    let hunts = items
        .iter()
        .any(|i| matches!(i.expect, Expect::Hunt { .. }));
    let (e2e, mut summary) = end_to_end(&plain, setup_s, items.len(), hunts);
    let mut result = RunResult {
        metrics: e2e,
        passes: (plain.len(), traced.len()),
        pass_s: plain.iter().map(|p| p.ops_s).collect(),
        items: items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let times: Vec<f64> = plain.iter().map(|p| p.item_s[i]).collect();
                (item.label.clone(), median(&times))
            })
            .collect(),
        ..RunResult::default()
    };
    for pass in plain.iter().chain(&traced) {
        result.attempted += pass.attempted;
        result.failures.extend(pass.failures.iter().cloned());
    }
    let fail_ratio = result.failures.len() as f64 / result.attempted as f64;
    summary.push(metric("fail_ratio", fail_ratio, "ratio"));
    if opts.trace {
        let (layers, split) = per_layer(&plain, &traced, workload.jobs);
        let accounted: f64 = layers
            .iter()
            .filter(|m| SHARES.contains(&m.name))
            .map(|m| m.value)
            .sum();
        result.metrics = layers;
        summary.extend(split);
        summary.push(metric("trace.accounted_share", accounted, "ratio"));
        result.spans = std::mem::take(&mut traced[0].layers.as_mut().expect("traced").spans);
    }
    result.summary = summary;
    result
}

/// End-to-end metrics (medians over passes) and the summary's.
fn end_to_end(
    passes: &[Pass],
    setup_s: f64,
    n_items: usize,
    hunts: bool,
) -> (Vec<Metric>, Vec<Metric>) {
    let per = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let item_medians: Vec<f64> = (0..n_items)
        .map(|i| median(&passes.iter().map(|p| p.item_s[i]).collect::<Vec<_>>()))
        .collect();
    let ops = per(&|p| p.ops_s);
    let item_geomean = geomean(&item_medians);
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("batch_s", ops, "s"),
        metric("item_s.geomean", item_geomean, "s"),
        metric(
            "exec_per_s",
            per(&|p| p.executions as f64 / p.search_s),
            "1/s",
        ),
        metric(
            "cpu_s_per_kexec",
            per(&|p| p.cpu_s * 1000.0 / (p.executions + p.shrink_replays) as f64),
            "s/kexec",
        ),
    ];
    let mut summary = Vec::new();
    if hunts {
        summary.push(metric("hunt_s", per(&|p| p.search_s), "s"));
        summary.push(metric("first_bug_s.geomean", item_geomean, "s"));
        summary.push(metric("shrink_s", per(&|p| p.shrink_s), "s"));
    } else {
        summary.push(metric("certify_s", ops, "s"));
    }
    (metrics, summary)
}

/// Shares of search wall time (times `jobs`) spent in the driver, in
/// `pick`, in host steps and in the coverage sink. Consecutive boundary
/// timestamps delimit them, so they sum to 1 by construction.
const SHARES: [&str; 4] = [
    "search.driver_self_share",
    "search.pick_share",
    "host.step_share",
    "coverage.visit_share",
];

/// Per-layer metrics of the traced passes, plus the tracing overhead
/// against the untraced ones.
fn per_layer(plain: &[Pass], traced: &[Pass], jobs: usize) -> (Vec<Metric>, Vec<Metric>) {
    let n = traced.len() as f64;
    let mut s = LayerStats::default();
    let mut par = ParallelCounters::default();
    let (mut vol, mut invol) = (0u64, 0u64);
    for pass in traced.iter() {
        let t = pass.layers.as_ref().expect("traced pass has layer stats");
        s.merge(&t.stats);
        par.merge(&t.parallel);
        vol += t.ctx_switches.0;
        invol += t.ctx_switches.1;
    }
    let search_ns: f64 = traced.iter().map(|p| p.search_s).sum::<f64>() * 1e9;
    let worker_ns = search_ns * jobs as f64;
    let exec_ns = s.exec_ns() as f64;
    let steps = s.steps as f64;
    let cpu: f64 = traced.iter().map(|p| p.cpu_s).sum();
    let sys_s: f64 = traced.iter().map(|p| p.sys_s).sum();
    // `host.*` is the host that spends more time executing; the summary
    // lines split the two.
    let host = if s.runtime.exec_ns >= s.vm.exec_ns {
        &s.runtime
    } else {
        &s.vm
    };
    let split = [
        (
            &s.runtime,
            [
                "runtime.step_us.p50",
                "runtime.step_us.p99",
                "runtime.exec_us.p50",
                "runtime.exec_us.p99",
            ],
        ),
        (
            &s.vm,
            [
                "statevm.step_us.p50",
                "statevm.step_us.p99",
                "statevm.exec_us.p50",
                "statevm.exec_us.p99",
            ],
        ),
    ];
    let split = split
        .iter()
        .filter(|(h, _)| h.exec.count() > 0)
        .flat_map(|(h, names)| host_quantiles(names, h))
        .collect();
    let wall = |ps: &[Pass]| median(&ps.iter().map(|p| p.ops_s).collect::<Vec<_>>());
    let mut metrics = host_quantiles(
        &[
            "host.step_us.p50",
            "host.step_us.p99",
            "host.exec_us.p50",
            "host.exec_us.p99",
        ],
        host,
    );
    metrics.extend([
        metric(
            "runtime.ctx_switches_per_step",
            vol as f64 / steps,
            "1/step",
        ),
        metric(
            "runtime.nonvol_ctx_switches_per_step",
            invol as f64 / steps,
            "1/step",
        ),
        metric("runtime.sys_share", sys_s / cpu, "ratio"),
        metric("search.pick_ns.p50", s.pick.quantile(0.5), "ns"),
        metric("search.pick_ns.p99", s.pick.quantile(0.99), "ns"),
        metric(
            "search.driver_self_share",
            (worker_ns - exec_ns) / worker_ns,
            "ratio",
        ),
        metric("search.pick_share", s.pick_ns as f64 / worker_ns, "ratio"),
        metric("host.step_share", s.gap_ns as f64 / worker_ns, "ratio"),
        metric(
            "coverage.visit_share",
            s.visit_ns as f64 / worker_ns,
            "ratio",
        ),
        metric("search.executions", s.executions as f64 / n, "count"),
        metric("search.steps", steps / n, "count"),
        metric("search.fault_points", s.fault_points as f64 / n, "count"),
        metric(
            "search.replayed_step_share",
            s.replayed_steps as f64 / steps,
            "ratio",
        ),
        metric("coverage.visits", s.visits as f64 / n, "count"),
        metric("coverage.visit_ns.p50", s.visit.quantile(0.5), "ns"),
        metric("race.detect_share", s.race_ns as f64 / exec_ns, "ratio"),
        metric(
            "shrink.replays",
            traced.iter().map(|p| p.shrink_replays).sum::<u64>() as f64 / n,
            "count",
        ),
        metric(
            "parallel.worker_busy_share",
            par.busy_ns as f64 / (par.busy_ns + par.idle_ns).max(1) as f64,
            "ratio",
        ),
        metric(
            "parallel.frontier_pop_waits",
            par.frontier_pop_waits as f64 / n,
            "count",
        ),
        metric(
            "parallel.frontier_lock_ops_per_exec",
            par.frontier_lock_ops as f64 / s.executions.max(1) as f64,
            "1/exec",
        ),
        metric(
            "parallel.pump_recv_timeouts",
            par.pump_recv_timeouts as f64 / n,
            "count",
        ),
        metric(
            "parallel.steal_donations",
            par.steal_donations as f64 / n,
            "count",
        ),
        metric("os.peak_rss_mb", sys::peak_rss_mb(), "MiB"),
        metric(
            "trace.overhead_pct",
            (wall(traced) / wall(plain) - 1.0) * 100.0,
            "%",
        ),
    ]);
    (metrics, split)
}

/// p50 and p99 of a host's step and execution times, in µs.
fn host_quantiles(names: &[&'static str; 4], h: &HostStats) -> Vec<Metric> {
    vec![
        metric(names[0], h.step.quantile(0.5) / 1e3, "us"),
        metric(names[1], h.step.quantile(0.99) / 1e3, "us"),
        metric(names[2], h.exec.quantile(0.5) / 1e3, "us"),
        metric(names[3], h.exec.quantile(0.99) / 1e3, "us"),
    ]
}
