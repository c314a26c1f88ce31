//! Wall-clock benchmark of the SummaGen workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --list
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) reports the per-layer ones. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `README.md` beside this package for what each workload and metric
//! means.

mod catalog;
mod layers;
mod multiply;
mod service;
mod sink;
mod stats;

use std::process::ExitCode;

use catalog::{MetricSpec, END_TO_END, PER_LAYER};
use stats::Report;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = catalog::workload(value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                workload = Some(w.name);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Layers each workload's traced run measures. Every per-layer metric
/// under one of these must be measured; the rest read 0. The runtime-bound
/// workload's traced run also times the control plane (`service`,
/// `durable`), which no multiply exercises.
fn exercised_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "small-multiply" => &[
            "matrix.",
            "comm.",
            "core.",
            "partition.",
            "service.",
            "durable.",
            "trace.",
        ],
        _ => &["matrix.", "comm.", "core.", "partition.", "trace."],
    }
}

fn run(args: &Args) -> Result<Report, String> {
    match (args.workload, args.trace) {
        ("large-multiply", false) => multiply::run(&multiply::LARGE, args.seed, args.seconds),
        ("large-multiply", true) => multiply::run_traced(&multiply::LARGE, args.seed, args.seconds),
        ("small-multiply", false) => multiply::run(&multiply::SMALL, args.seed, args.seconds),
        ("small-multiply", true) => {
            let mut report = multiply::run_traced(&multiply::SMALL, args.seed, args.seconds)?;
            report.absorb(service::layer_metrics(args.seed, args.seconds)?);
            Ok(report)
        }
        (other, _) => Err(format!("unknown workload {other}")),
    }
}

/// Host fingerprint lines: every wall-clock number is tied to these.
fn fingerprint() -> Vec<String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    vec![
        format!("host: nproc={cores} cpu=\"{cpu}\""),
        format!("rustc: {}", env!("PERFBENCH_RUSTC_VERSION")),
        format!("git commit: {commit}"),
        format!(
            "threads: each multiply runs 3 rank threads, each calling a kernel that may fork \
             {cores} more, on {cores} cores; this oversubscription is measured, not avoided"
        ),
    ]
}

fn json_line(correct: bool, report: &Report, specs: &[MetricSpec]) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .map(|s| {
            let value = report
                .metrics
                .iter()
                .find(|(n, _)| *n == s.name)
                .map(|(_, v)| *v)
                .expect("every metric was checked present");
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                s.name, s.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list") {
        print!("{}", catalog::listing());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ticks_before = stats::cpu_ticks();
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    report.note(format!(
        "host steal: {:.1}% of CPU time during the run went to other guests of the hypervisor; it slows every wall-clock figure",
        stats::steal_share(ticks_before, stats::cpu_ticks()) * 100.0
    ));
    let specs: &[MetricSpec] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for s in specs {
        let present = report.metrics.iter().any(|(n, _)| *n == s.name);
        let exercised = !args.trace
            || exercised_layers(args.workload)
                .iter()
                .any(|p| s.name.starts_with(p));
        match (present, exercised) {
            (true, _) => {}
            (false, false) => report.set(s.name, 0.0),
            (false, true) => {
                eprintln!("perfbench: {} did not measure {}", args.workload, s.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some((name, v)) = report.metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("perfbench: {name} is not a finite number ({v})");
        return ExitCode::FAILURE;
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in fingerprint().iter().chain(&report.notes) {
        println!("  {line}");
    }
    for s in specs {
        let (_, v) = report
            .metrics
            .iter()
            .find(|(n, _)| *n == s.name)
            .expect("checked");
        println!("  {:<36} {:>16.6} {}", s.name, v, s.unit);
    }
    let correct = report.failed == 0;
    println!(
        "  failed_share {:.6} ({} of {} operations)",
        stats::ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    println!("{}", json_line(correct, &report, specs));
    ExitCode::SUCCESS
}
