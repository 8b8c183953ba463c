//! `perfbench`: runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench compare <result-a.txt> <result-b.txt>
//! ```
//!
//! Run from the repository root. A run prints one `name value unit` line
//! per metric, the machine fingerprint and run metadata, any gate
//! failures, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The same text (without the JSON)
//! goes to `.perfbench-out/<workload>-seed<N>-trace<T>.txt`; a traced
//! run also writes its spans to `.perfbench-out/<workload>-seed<N>.spans.jsonl`.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use icb_perfbench::bench::{self, Metric, Options};
use icb_perfbench::sys::{self, Fingerprint};
use icb_perfbench::workload::{Workload, WORKLOADS};

const OUT_DIR: &str = ".perfbench-out";

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         perfbench compare <result-a.txt> <result-b.txt>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => compare(Path::new(a), Path::new(b)),
            _ => usage(),
        };
    }
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::named(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0 && s.is_finite())
                .map(|s| opts.seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    // Outside a checkout of the repository the programs cannot have been
    // built; refuse before measuring anything.
    if !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }

    let steal0 = sys::steal_and_total_ticks();
    let result = bench::run(workload, opts);
    let steal1 = sys::steal_and_total_ticks();
    let steal_share = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    let root = Path::new(".");
    let mut text = String::new();
    let _ = writeln!(text, "{}", Fingerprint::current().line());
    let _ = writeln!(
        text,
        "run workload={} jobs={} seed={} seconds={} trace={} commit={} source={} passes={}+{} \
         host_steal_share={steal_share:.4}",
        workload.name,
        workload.jobs,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        sys::git_commit(root),
        sys::source_digest(root),
        result.passes.0,
        result.passes.1,
    );
    for m in result.metrics.iter().chain(&result.summary) {
        let _ = writeln!(text, "metric {} {} {}", m.name, m.value, m.unit);
    }
    for secs in &result.pass_s {
        let _ = writeln!(text, "pass {secs} s");
    }
    for (label, secs) in &result.items {
        let _ = writeln!(text, "item {secs} s {label}");
    }
    for f in &result.failures {
        let _ = writeln!(text, "failure {f}");
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        workload.name,
        opts.seed,
        u8::from(opts.trace)
    );
    if let Err(e) = write_outputs(&stem, workload, opts.seed, &text, &result.spans) {
        eprintln!("perfbench: could not write {OUT_DIR}: {e}");
    }
    print!("{text}");
    println!(
        "{}",
        json_line(&result.metrics, result.attempted, result.failures.len())
    );
    let _ = std::io::stdout().flush();
    ExitCode::SUCCESS
}

fn write_outputs(
    stem: &str,
    workload: &Workload,
    seed: u64,
    text: &str,
    spans: &[icb_perfbench::layers::Span],
) -> std::io::Result<()> {
    fs::create_dir_all(OUT_DIR)?;
    fs::write(Path::new(OUT_DIR).join(format!("{stem}.txt")), text)?;
    if !spans.is_empty() {
        let mut out = String::new();
        for s in spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":{:?},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        let path = Path::new(OUT_DIR).join(format!("{}-seed{seed}.spans.jsonl", workload.name));
        fs::write(path, out)?;
    }
    Ok(())
}

fn json_line(metrics: &[Metric], attempted: u64, failed: usize) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Prints the metrics of two result files side by side — only when both
/// were measured on the same machine with the same compiler.
fn compare(a: &Path, b: &Path) -> ExitCode {
    let read = |p: &Path| fs::read_to_string(p).map_err(|e| eprintln!("{}: {e}", p.display()));
    let (Ok(ta), Ok(tb)) = (read(a), read(b)) else {
        return ExitCode::from(2);
    };
    let machine = |t: &str| {
        t.lines()
            .find(|l| l.starts_with("machine "))
            .map(str::to_string)
    };
    if machine(&ta).is_none() || machine(&ta) != machine(&tb) {
        eprintln!(
            "perfbench: refusing to compare results from different machines:\n  {}\n  {}",
            machine(&ta).unwrap_or_default(),
            machine(&tb).unwrap_or_default()
        );
        return ExitCode::from(3);
    }
    let metrics = |t: &str| -> Vec<(String, f64, String)> {
        t.lines()
            .filter_map(|l| l.strip_prefix("metric "))
            .filter_map(|l| {
                let mut f = l.split(' ');
                Some((
                    f.next()?.to_string(),
                    f.next()?.parse().ok()?,
                    f.next()?.to_string(),
                ))
            })
            .collect()
    };
    let mb = metrics(&tb);
    for (name, va, unit) in metrics(&ta) {
        if let Some((_, vb, _)) = mb.iter().find(|(n, _, _)| *n == name) {
            println!("{name:40} {va:>14.6} {vb:>14.6} {unit:8} x{:.3}", vb / va);
        }
    }
    ExitCode::SUCCESS
}
