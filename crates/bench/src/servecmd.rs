//! The `reproduce serve` subcommand: a soak-style load run of the
//! multi-tenant GEMM service, comparing the FPM-aware scheduler against
//! the FIFO and round-robin baselines on the same seeded job stream.
//!
//! For each policy the same generated load (Poisson arrivals, weighted
//! tenants, per-tenant size tables — see `summagen_service::loadgen`)
//! runs through a fresh service over the hclserver1 device pool, with
//! per-tenant metrics registered on a Prometheus-renderable registry and
//! every dispatch recorded as a `Sched` span into a schedule timeline.
//!
//! Artifacts, all under the output directory:
//!
//! * `LOAD_<mix>.json` — schema-stamped document: per-policy makespan,
//!   throughput, queue/batch/retry counters, per-tenant p50/p95/p99
//!   latency (exact, from the sorted per-job latencies), rejection
//!   counts by reason, and the schedule digest that pins determinism.
//! * `LOAD_<mix>.prom` — the Prometheus exposition of the FPM-aware
//!   run's registry: the same per-tenant series a live scrape of
//!   `examples/prometheus_server.rs --service` serves.
//! * `SCHEDULE_<mix>_<policy>.json` — Perfetto timeline of the run, one
//!   track per pool device tiled with its dispatched batches.
//!
//! When all three policies run (the default), the command exits nonzero
//! unless FPM-aware beats FIFO on *both* makespan and p95 latency —
//! that comparison is the service-level restatement of the paper's
//! claim, and this gate is what the CI load job regression-tests.

use std::path::Path;
use std::sync::Arc;

use summagen_metrics::MetricsRegistry;
use summagen_platform::profile::hclserver1;
use summagen_service::{
    generate, DevicePool, GemmService, LoadMix, Policy, ServiceConfig, ServiceMetrics,
    ServiceReport,
};
use summagen_trace::{perfetto_json, TraceRecorder};

use crate::harness::write_artifacts;
use crate::json::{with_metadata, Json};

/// Hockney link parameters of the pool (same intra-node class the other
/// simulated experiments use).
pub const SERVE_ALPHA: f64 = 1e-5;
pub const SERVE_BETA: f64 = 4e-10;

/// One policy's run, kept for the artifact and the comparison gate.
pub struct PolicyRun {
    /// The report of the run.
    pub report: ServiceReport,
    /// The Prometheus exposition of the run's registry.
    pub exposition: String,
    /// Perfetto timeline of the schedule.
    pub perfetto: String,
}

/// The hclserver1 device pool every service harness runs on.
pub fn service_pool() -> DevicePool {
    DevicePool::from_platform(&hclserver1(), SERVE_ALPHA, SERVE_BETA)
}

/// A fresh service over [`service_pool`], instrumented the way every
/// service harness is: per-tenant metrics on a Prometheus-renderable
/// registry, and every dispatch recorded into a schedule timeline.
pub fn instrumented_service(
    mix: &LoadMix,
    config: ServiceConfig,
) -> (GemmService, Arc<MetricsRegistry>, Arc<TraceRecorder>) {
    let pool = service_pool();
    let device_names: Vec<&'static str> = pool.devices().iter().map(|d| d.name).collect();
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = ServiceMetrics::register(&registry, &mix.tenant_names(), &device_names);
    let recorder = TraceRecorder::new(pool.devices().len());
    let service = GemmService::new(pool, config)
        .with_metrics(metrics)
        .with_sink(recorder.clone());
    (service, registry, recorder)
}

/// Runs one policy over a fresh pool and the given job stream.
pub fn run_policy(mix: &LoadMix, policy: Policy) -> PolicyRun {
    let config = ServiceConfig {
        policy,
        ..ServiceConfig::default()
    };
    let (mut service, registry, recorder) = instrumented_service(mix, config);
    let report = service.run(generate(mix));
    PolicyRun {
        exposition: summagen_metrics::prometheus::render(&registry),
        perfetto: perfetto_json(
            &recorder.finish(),
            &format!("{} schedule ({})", mix.name, policy.name()),
        ),
        report,
    }
}

fn rejection_count(report: &ServiceReport, label: &str) -> usize {
    report
        .rejections
        .iter()
        .filter(|(_, r)| r.label() == label)
        .count()
}

fn policy_json(mix: &LoadMix, run: &PolicyRun) -> Json {
    let report = &run.report;
    let tenants = report.tenant_summaries(mix.tenants.len());
    Json::obj([
        ("policy", Json::from(report.policy.name())),
        ("makespan_s", Json::from(report.makespan)),
        ("throughput_jobs_per_s", Json::from(report.throughput())),
        ("completed", Json::from(report.completed())),
        ("failed", Json::from(report.failed())),
        ("rejected", Json::from(report.rejections.len())),
        ("p50_s", Json::from(report.latency_quantile(0.50))),
        ("p95_s", Json::from(report.latency_quantile(0.95))),
        ("p99_s", Json::from(report.latency_quantile(0.99))),
        ("peak_queue_depth", Json::from(report.peak_queue_depth)),
        ("batches", Json::from(report.batches)),
        ("retries", Json::from(report.retries)),
        (
            "schedule_digest",
            Json::from(format!("{:016x}", report.schedule_digest)),
        ),
        (
            "device_busy_s",
            Json::arr(
                report
                    .device_names
                    .iter()
                    .zip(&report.device_busy)
                    .map(|(name, &busy)| {
                        Json::obj([("device", Json::from(*name)), ("busy_s", Json::from(busy))])
                    }),
            ),
        ),
        (
            "rejections_by_reason",
            Json::obj([
                (
                    "queue-full",
                    Json::from(rejection_count(report, "queue-full")),
                ),
                (
                    "quota-exceeded",
                    Json::from(rejection_count(report, "quota-exceeded")),
                ),
                (
                    "too-large",
                    Json::from(rejection_count(report, "too-large")),
                ),
            ]),
        ),
        (
            "tenants",
            Json::arr(tenants.iter().map(|t| {
                Json::obj([
                    ("tenant", Json::from(mix.tenants[t.tenant].name)),
                    ("submitted", Json::from(t.submitted)),
                    ("completed", Json::from(t.completed)),
                    ("failed", Json::from(t.failed)),
                    ("rejected", Json::from(t.rejected)),
                    ("p50_s", Json::from(t.p50)),
                    ("p95_s", Json::from(t.p95)),
                    ("p99_s", Json::from(t.p99)),
                    ("mean_s", Json::from(t.mean)),
                    ("max_s", Json::from(t.max)),
                    ("deadline_misses", Json::from(t.deadline_misses)),
                ])
            })),
        ),
    ])
}

/// The serve document for a mix across the given policy runs.
pub fn serve_json(mix: &LoadMix, runs: &[PolicyRun]) -> Json {
    let doc = Json::obj([
        ("mix", Json::from(mix.name)),
        (
            "policies",
            Json::arr(runs.iter().map(|r| policy_json(mix, r))),
        ),
    ]);
    with_metadata(
        doc,
        Json::obj([
            (
                "command",
                Json::from(format!("reproduce serve --mix {}", mix.name)),
            ),
            ("seed", Json::from(mix.seed)),
            ("arrival_rate_jobs_per_s", Json::from(mix.arrival_rate)),
            ("jobs", Json::from(mix.jobs)),
            (
                "tenants",
                Json::arr(mix.tenants.iter().map(|t| Json::from(t.name))),
            ),
            ("alpha_s", Json::from(SERVE_ALPHA)),
            ("beta_s_per_byte", Json::from(SERVE_BETA)),
        ]),
    )
}

fn print_comparison(mix: &LoadMix, runs: &[PolicyRun]) {
    println!(
        "\nSERVE — multi-tenant GEMM service, mix '{}' ({} jobs, seed {})",
        mix.name, mix.jobs, mix.seed
    );
    println!(
        "{:>12}{:>12}{:>12}{:>10}{:>10}{:>10}{:>8}{:>10}{:>10}",
        "policy", "makespan", "thru j/s", "p50 s", "p95 s", "p99 s", "done", "failed", "rejected"
    );
    for run in runs {
        let r = &run.report;
        println!(
            "{:>12}{:>12.3}{:>12.1}{:>10.3}{:>10.3}{:>10.3}{:>8}{:>10}{:>10}",
            r.policy.name(),
            r.makespan,
            r.throughput(),
            r.latency_quantile(0.50),
            r.latency_quantile(0.95),
            r.latency_quantile(0.99),
            r.completed(),
            r.failed(),
            r.rejections.len()
        );
    }
    println!("\n  per-tenant p95 latency (s):");
    print!("{:>12}", "policy");
    for t in &mix.tenants {
        print!("{:>14}", t.name);
    }
    println!();
    for run in runs {
        let summaries = run.report.tenant_summaries(mix.tenants.len());
        print!("{:>12}", run.report.policy.name());
        for s in &summaries {
            print!("{:>14.3}", s.p95);
        }
        println!();
    }
}

/// Runs the serve experiment: `mix` under `policy` (or all three
/// policies when `None`), artifacts into `out_dir`. With all three
/// policies the FPM-vs-FIFO win is asserted and a loss is an `Err`.
pub fn run_serve(mix: &LoadMix, policy: Option<Policy>, out_dir: &Path) -> Result<(), String> {
    let policies: Vec<Policy> = match policy {
        Some(p) => vec![p],
        None => Policy::ALL.to_vec(),
    };
    let runs: Vec<PolicyRun> = policies.iter().map(|&p| run_policy(mix, p)).collect();
    print_comparison(mix, &runs);

    let doc = serve_json(mix, &runs).pretty();
    let mut files = vec![(format!("LOAD_{}.json", mix.name), doc.as_str())];
    for run in &runs {
        files.push((
            format!("SCHEDULE_{}_{}.json", mix.name, run.report.policy.name()),
            run.perfetto.as_str(),
        ));
        if run.report.policy == Policy::FpmAware {
            files.push((format!("LOAD_{}.prom", mix.name), run.exposition.as_str()));
        }
    }
    write_artifacts(out_dir, &files)?;
    println!("\nserve artifacts written to {}", out_dir.display());

    let fifo = runs.iter().find(|r| r.report.policy == Policy::Fifo);
    let fpm = runs.iter().find(|r| r.report.policy == Policy::FpmAware);
    if let (Some(fifo), Some(fpm)) = (fifo, fpm) {
        let (fm, pm) = (fifo.report.makespan, fpm.report.makespan);
        let (f95, p95) = (
            fifo.report.latency_quantile(0.95),
            fpm.report.latency_quantile(0.95),
        );
        println!(
            "  fpm-aware vs fifo: makespan {:.3}x, p95 {:.3}x",
            fm / pm,
            f95 / p95
        );
        if pm >= fm || p95 >= f95 {
            return Err(format!(
                "FPM-aware failed to beat FIFO: makespan {pm:.3} vs {fm:.3}, p95 {p95:.3} vs {f95:.3}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_service::small_mix;

    fn tiny_mix() -> LoadMix {
        let mut mix = small_mix();
        mix.jobs = 40;
        mix
    }

    #[test]
    fn serve_json_carries_all_policies_and_tenants() {
        let mix = tiny_mix();
        let runs: Vec<PolicyRun> = Policy::ALL.iter().map(|&p| run_policy(&mix, p)).collect();
        let doc = serve_json(&mix, &runs);
        let policies = doc.get("policies").and_then(Json::as_arr).unwrap();
        assert_eq!(policies.len(), 3);
        for p in policies {
            let tenants = p.get("tenants").and_then(Json::as_arr).unwrap();
            assert_eq!(tenants.len(), 3);
            assert!(p.path("rejections_by_reason.queue-full").is_some());
            assert!(p.get("schedule_digest").and_then(Json::as_str).is_some());
        }
        assert_eq!(
            doc.path("run_config.seed").and_then(Json::as_f64),
            Some(mix.seed as f64)
        );
        // The document round-trips through the parser (artifact sanity).
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn exposition_has_per_tenant_series_and_perfetto_has_device_tracks() {
        let mix = tiny_mix();
        let run = run_policy(&mix, Policy::FpmAware);
        assert!(run.exposition.contains("summagen_service_jobs_total"));
        assert!(
            run.exposition.contains("tenant=\"free\""),
            "{}",
            run.exposition
        );
        assert!(run.exposition.contains("summagen_service_latency_seconds"));
        assert!(
            run.perfetto.contains("\"sched\""),
            "no sched spans in timeline"
        );
    }

    #[test]
    fn policy_runs_are_deterministic() {
        let mix = tiny_mix();
        let a = run_policy(&mix, Policy::FpmAware);
        let b = run_policy(&mix, Policy::FpmAware);
        assert_eq!(a.report.schedule_digest, b.report.schedule_digest);
        assert_eq!(a.exposition, b.exposition);
        assert_eq!(a.perfetto, b.perfetto);
    }
}
