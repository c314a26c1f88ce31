//! End-to-end checks of the `reproduce serve` and `reproduce degrade`
//! pipelines at the workspace level: the scheduling win the artifacts
//! gate on, the per-tenant Prometheus series, the on-disk artifact
//! sets, and the graceful-degradation comparison.

use std::fs;

use summagen_bench::degradecmd::{run_degrade, run_mode, top_tier};
use summagen_bench::servecmd::{run_policy, run_serve, serve_json, PolicyRun};
use summagen_service::{hetero_mix, small_mix, LoadMix, Policy};

fn truncated(mut mix: LoadMix, jobs: usize) -> LoadMix {
    mix.jobs = jobs;
    mix
}

/// The headline claim, on the mix built to show it: FPM-aware placement
/// beats head-of-line FIFO on both tail latency and makespan for the
/// heterogeneous tenant mix.
#[test]
fn fpm_aware_beats_fifo_on_the_hetero_mix() {
    let mix = hetero_mix();
    let fifo = run_policy(&mix, Policy::Fifo);
    let fpm = run_policy(&mix, Policy::FpmAware);
    assert!(
        fpm.report.latency_quantile(0.95) < fifo.report.latency_quantile(0.95),
        "fpm p95 {} !< fifo p95 {}",
        fpm.report.latency_quantile(0.95),
        fifo.report.latency_quantile(0.95)
    );
    assert!(
        fpm.report.makespan < fifo.report.makespan,
        "fpm makespan {} !< fifo makespan {}",
        fpm.report.makespan,
        fifo.report.makespan
    );
    // The win holds for every tenant's p95, not just the aggregate.
    let fifo_t = fifo.report.tenant_summaries(mix.tenants.len());
    let fpm_t = fpm.report.tenant_summaries(mix.tenants.len());
    for (f, p) in fifo_t.iter().zip(&fpm_t) {
        assert!(
            p.p95 < f.p95,
            "tenant {} p95: fpm {} !< fifo {}",
            mix.tenants[f.tenant].name,
            p.p95,
            f.p95
        );
    }
}

/// Every tenant of the mix shows up as a label on the exported series,
/// with the jobs accounted for, and the schedule timeline carries one
/// sched span per dispatched batch.
#[test]
fn exposition_and_timeline_carry_the_service_story() {
    let mix = truncated(small_mix(), 80);
    let run = run_policy(&mix, Policy::FpmAware);
    for tenant in mix.tenant_names() {
        let label = format!("tenant=\"{tenant}\"");
        assert!(
            run.exposition.contains(&label),
            "series for {tenant} missing from exposition"
        );
    }
    for series in [
        "summagen_service_jobs_total",
        "summagen_service_latency_seconds",
        "summagen_service_queue_wait_seconds",
        "summagen_service_rejections_total",
        "summagen_service_queue_depth_peak",
        "summagen_service_device_busy_seconds",
    ] {
        assert!(run.exposition.contains(series), "{series} missing");
    }
    assert!(run.perfetto.contains("\"sched\""));
    assert_eq!(
        run.report.completed() + run.report.failed(),
        run.report.records.len()
    );
}

/// `run_serve` writes the full artifact set and its gate passes on the
/// small mix; the latency document is parseable and carries all three
/// policies.
#[test]
fn run_serve_writes_artifacts_and_passes_its_gate() {
    let out = std::env::temp_dir().join(format!("summagen-serve-test-{}", std::process::id()));
    run_serve(&truncated(small_mix(), 80), None, &out).expect("serve gate");
    for name in [
        "LOAD_small.json",
        "LOAD_small.prom",
        "SCHEDULE_small_fifo.json",
        "SCHEDULE_small_round-robin.json",
        "SCHEDULE_small_fpm-aware.json",
    ] {
        assert!(out.join(name).is_file(), "{name} not written");
    }
    let text = fs::read_to_string(out.join("LOAD_small.json")).unwrap();
    let doc = summagen_bench::json::Json::parse(&text).unwrap();
    let policies = doc.get("policies").and_then(|p| p.as_arr()).unwrap();
    assert_eq!(policies.len(), 3);
    fs::remove_dir_all(&out).ok();
}

/// The serve document is a pure function of the mix: rebuilding it from
/// fresh runs reproduces it byte-for-byte (modulo nothing — the virtual
/// clock means there is no wall-time anywhere in the pipeline).
#[test]
fn serve_document_is_reproducible() {
    let mix = truncated(small_mix(), 60);
    let build = || -> String {
        let runs: Vec<PolicyRun> = Policy::ALL.iter().map(|&p| run_policy(&mix, p)).collect();
        serve_json(&mix, &runs).pretty()
    };
    assert_eq!(build(), build());
}

/// The degradation claim, end to end on the full small mix at the gated
/// stampede factor: with the layer armed, the top-priority tenant's
/// tail latency and deadline-hit rate both beat the plain service on
/// the identical stream, and nothing is lost — every submitted job is a
/// record or a typed rejection in both modes.
#[test]
fn degradation_beats_the_baseline_at_overload() {
    let mix = small_mix();
    let top = top_tier(&mix);
    let base = run_mode(&mix, 5.0, 7, false);
    let deg = run_mode(&mix, 5.0, 7, true);
    for run in [&base, &deg] {
        assert_eq!(
            run.report.records.len() + run.report.rejections.len(),
            mix.jobs,
            "jobs lost or invented"
        );
    }
    let base_t = &base.report.tenant_summaries(mix.tenants.len())[top];
    let deg_t = &deg.report.tenant_summaries(mix.tenants.len())[top];
    assert!(
        deg_t.p95 < base_t.p95,
        "top-tier p95: degraded {} !< baseline {}",
        deg_t.p95,
        base_t.p95
    );
    assert!(
        deg_t.deadline_hit_rate() > base_t.deadline_hit_rate(),
        "top-tier hit rate: degraded {} !> baseline {}",
        deg_t.deadline_hit_rate(),
        base_t.deadline_hit_rate()
    );
    // The degraded run actually degraded: it shed load and preempted.
    assert!(deg.report.rejections.len() > base.report.rejections.len());
    assert_eq!(base.report.preemptions, 0);
    assert_eq!(base.report.shed(), 0);
    assert!(base.report.quarantine_events.is_empty());
}

/// `run_degrade` writes the full artifact set and its gates pass on the
/// small mix; the document is parseable and carries every load factor
/// with both modes.
#[test]
fn run_degrade_writes_artifacts_and_passes_its_gates() {
    let out = std::env::temp_dir().join(format!("summagen-degrade-test-{}", std::process::id()));
    run_degrade(&small_mix(), &out).expect("degrade gates");
    for name in [
        "DEGRADE_small.json",
        "SCHEDULE_DEGRADE_small_baseline.json",
        "SCHEDULE_DEGRADE_small_degraded.json",
    ] {
        assert!(out.join(name).is_file(), "{name} not written");
    }
    let text = fs::read_to_string(out.join("DEGRADE_small.json")).unwrap();
    let doc = summagen_bench::json::Json::parse(&text).unwrap();
    let loads = doc.get("loads").and_then(|l| l.as_arr()).unwrap();
    assert_eq!(
        loads.len(),
        summagen_bench::degradecmd::DEGRADE_LOAD_FACTORS.len()
    );
    for load in loads {
        assert!(load.get("baseline").is_some());
        assert!(load.get("degraded").is_some());
    }
    fs::remove_dir_all(&out).ok();
}
