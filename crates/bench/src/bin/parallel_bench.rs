//! `parallel_bench` — measures the parallel driver's throughput on the
//! clean Bluetooth driver at preemption bound 2 (a finite ~3.1k-execution
//! space every worker count explores identically), at `--jobs 1` vs.
//! `--jobs $(nproc)`, and appends the result to
//! `results/BENCH_parallel.json`.
//!
//! Rates are the report's executions over the wall time of
//! `Search::run`, timed the same way as the figure binaries. The sanity
//! checks assert the determinism contract (identical order-independent
//! reports) before any rate is reported. The entry is stamped with the
//! machine it was measured on: `nproc`, the CPU model from
//! `/proc/cpuinfo` and the kernel from `/proc/version`.
//!
//! ```sh
//! cargo run --release -p icb-bench --bin parallel_bench
//! ```

use std::io::Write;
use std::time::Instant;

use icb_core::search::{Search, SearchConfig, SearchReport};
use icb_workloads::registry::all_benchmarks;

const BOUND: usize = 2;

fn measure(jobs: usize) -> (SearchReport, f64, f64) {
    let bench = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "Bluetooth")
        .expect("Bluetooth benchmark");
    let program = (bench.correct)();
    let started = Instant::now();
    let report = Search::over(&program)
        .config(SearchConfig {
            preemption_bound: Some(BOUND),
            ..SearchConfig::default()
        })
        .jobs(jobs)
        .run()
        .expect("search");
    let secs = started.elapsed().as_secs_f64();
    let rate = report.executions as f64 / secs;
    (report, secs, rate)
}

/// The first `model name` in `/proc/cpuinfo` and the text of
/// `/proc/version`, or `unknown` where they cannot be read.
fn cpu_and_kernel() -> (String, String) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/version")
        .map_or_else(|_| "unknown".to_string(), |v| v.trim().to_string());
    (cpu, kernel)
}

fn main() {
    let (cpu, kernel) = cpu_and_kernel();
    let nproc = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let (seq_report, seq_secs, seq_rate) = measure(1);
    let (par_report, par_secs, par_rate) = measure(nproc.max(2));
    let speedup = par_rate / seq_rate;

    // The rates are only comparable if both runs did the same work.
    assert_eq!(seq_report.executions, par_report.executions);
    assert_eq!(seq_report.distinct_states, par_report.distinct_states);
    assert_eq!(seq_report.bound_history, par_report.bound_history);

    println!(
        "bluetooth bound {BOUND}: {} executions, {} states",
        seq_report.executions, seq_report.distinct_states
    );
    println!("  jobs 1:  {seq_rate:>10.0} exec/s ({seq_secs:.2}s)");
    println!(
        "  jobs {}: {par_rate:>10.0} exec/s ({par_secs:.2}s)  —  {speedup:.2}x",
        nproc.max(2)
    );
    if nproc == 1 {
        println!("  note: nproc=1 on this machine; the parallel run timeshares one core");
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"parallel_driver\",\n",
            "  \"workload\": \"Bluetooth (correct)\",\n",
            "  \"preemption_bound\": {bound},\n",
            "  \"executions\": {execs},\n",
            "  \"distinct_states\": {states},\n",
            "  \"nproc\": {nproc},\n",
            "  \"cpu\": {cpu:?},\n",
            "  \"kernel\": {kernel:?},\n",
            "  \"jobs_1\": {{ \"exec_per_sec\": {seq_rate:.1}, \"seconds\": {seq_secs:.3} }},\n",
            "  \"jobs_{par_jobs}\": {{ \"exec_per_sec\": {par_rate:.1}, \"seconds\": {par_secs:.3} }},\n",
            "  \"speedup\": {speedup:.3},\n",
            "  \"reports_match\": true\n",
            "}}\n"
        ),
        bound = BOUND,
        execs = seq_report.executions,
        states = seq_report.distinct_states,
        nproc = nproc,
        cpu = cpu,
        kernel = kernel,
        seq_rate = seq_rate,
        seq_secs = seq_secs,
        par_jobs = nproc.max(2),
        par_rate = par_rate,
        par_secs = par_secs,
        speedup = speedup,
    );
    let path = "results/BENCH_parallel.json";
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::File::create(path))
        .and_then(|mut f| f.write_all(json.as_bytes()))
    {
        eprintln!("warning: cannot write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}
