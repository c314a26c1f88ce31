//! The `reproduce bench` subcommand: the performance-regression harness.
//!
//! For each of the four paper shapes this runs the virtual-time pipeline
//! with the metrics registry installed and captures one schema-stamped
//! `BENCH_<shape>.json` document per shape:
//!
//! * the CPM phantom run at [`BENCH_N`] (makespan, achieved GFLOP/s,
//!   communication fraction, and the registry's histogram quantiles for
//!   send / receive-wait / broadcast latency and per-block GEMM time);
//! * the FPM point at [`BENCH_FPM_N`] through the load-imbalancing
//!   partitioner;
//! * the ABFT overhead pair at [`resilience::ABFT_N`] (protected vs
//!   unprotected makespan, resilience-time share, checkpoints).
//!
//! Every number is derived from the **virtual** clock, so two runs of
//! the same source tree produce byte-identical metric values — which is
//! what makes committed baselines meaningful: `bench --check <dir>`
//! reruns the harness and compares every numeric leaf against the
//! baseline document within a relative tolerance, exiting nonzero on
//! any regression. A folded-stack flamegraph (`flame_<shape>.folded`)
//! of each CPM run rides along for "where did the time go" triage.

use std::path::Path;
use std::sync::Arc;

use summagen_comm::{Backend, RuntimeMetrics};
use summagen_core::{simulate_observed_on, SimReport};
use summagen_partition::{proportional_areas, Shape, ALL_FOUR_SHAPES};
use summagen_platform::profile::hclserver1;
use summagen_trace::{folded_stacks, TraceRecorder};

use crate::harness::{
    backend_artifact_name, check_docs, cpm_speeds_json, shape_slug, write_artifacts, CheckError,
    CheckOutcome,
};
use crate::json::{with_metadata, Json};
use crate::resilience::{self, AbftShapeRun};
use crate::{link_model, run_fpm_point, CPM_SPEEDS};

/// Problem size of the CPM regression run: the paper's smallest
/// Figure 6/8 point, large enough to exercise every communicator.
pub const BENCH_N: usize = 25_600;

/// Problem size of the FPM regression point (load-imbalancing
/// partitioner over the discrete speed functions).
pub const BENCH_FPM_N: usize = 8_192;

/// Everything measured about one shape's regression runs.
#[derive(Debug)]
pub struct BenchShapeRun {
    /// Shape that was run.
    pub shape: Shape,
    /// The CPM phantom run at [`BENCH_N`].
    pub cpm: SimReport,
    /// Metrics registry populated by the CPM run.
    pub metrics: Arc<RuntimeMetrics>,
    /// Folded-stack flamegraph of the CPM run (virtual-ns weights).
    pub folded: String,
    /// The FPM point at [`BENCH_FPM_N`].
    pub fpm: SimReport,
    /// Protected-vs-unprotected ABFT overhead runs.
    pub abft: AbftShapeRun,
    /// Transport backend the CPM run executed over. Virtual time is
    /// backend-blind, so the metric values are identical either way;
    /// the field records which wire actually carried the run.
    pub backend: Backend,
}

/// Runs the three regression scenarios for one shape, with the CPM run
/// carried over `backend`. Fails when the ABFT pair trips one of its
/// correctness gates.
pub fn bench_shape(shape: Shape, backend: Backend) -> Result<BenchShapeRun, String> {
    let platform = hclserver1();
    let areas = proportional_areas(BENCH_N, &CPM_SPEEDS);
    let spec = shape.build(BENCH_N, &areas);
    let metrics = RuntimeMetrics::fresh();
    let recorder = TraceRecorder::new(spec.nprocs);
    let cpm = simulate_observed_on(
        &spec,
        &platform,
        link_model(),
        Some(recorder.clone()),
        Some(metrics.clone()),
        backend,
    );
    let folded = folded_stacks(&recorder.finish());
    let fpm = run_fpm_point(BENCH_FPM_N, shape, &platform);
    let abft = resilience::abft_shape_run(resilience::ABFT_N, shape)?;
    Ok(BenchShapeRun {
        shape,
        cpm,
        metrics,
        folded,
        fpm,
        abft,
        backend,
    })
}

/// The schema-stamped regression document for one shape.
pub fn bench_json(run: &BenchShapeRun) -> Json {
    let m = &run.metrics;
    let cpm = &run.cpm;
    let doc = Json::obj([
        (
            "cpm",
            Json::obj([
                ("makespan_s", Json::from(cpm.exec_time)),
                ("comp_time_s", Json::from(cpm.comp_time)),
                ("comm_time_s", Json::from(cpm.comm_time)),
                (
                    "comm_fraction",
                    Json::from(cpm.comm_time / cpm.exec_time.max(1e-300)),
                ),
                ("gflops", Json::from(cpm.achieved_flops() / 1e9)),
            ]),
        ),
        (
            "fpm",
            Json::obj([
                ("makespan_s", Json::from(run.fpm.exec_time)),
                ("gflops", Json::from(run.fpm.achieved_flops() / 1e9)),
            ]),
        ),
        (
            "abft",
            Json::obj([
                ("protected_s", Json::from(run.abft.exec_protected)),
                ("unprotected_s", Json::from(run.abft.exec_unprotected)),
                ("slowdown_pct", Json::from(run.abft.slowdown_pct)),
                ("overhead_pct", Json::from(run.abft.overhead_pct)),
                ("checkpoints", Json::from(run.abft.checkpoints)),
                ("abft_spans", Json::from(run.abft.abft_spans)),
            ]),
        ),
        (
            "comm",
            Json::obj([
                ("send_msgs", Json::from(m.send_msgs.get())),
                ("send_bytes", Json::from(m.send_bytes.get())),
                ("bcast_bytes", Json::from(m.bcast_bytes.get())),
                ("send_seconds", hist_quantiles(&m.send_seconds)),
                ("recv_wait_seconds", hist_quantiles(&m.recv_wait_seconds)),
                ("bcast_seconds", hist_quantiles(&m.bcast_seconds)),
            ]),
        ),
        (
            "gemm",
            Json::obj([
                ("ops", Json::from(m.gemm.ops.get())),
                ("flops", Json::from(m.gemm.flops.get())),
                ("virtual_seconds", hist_quantiles(&m.gemm.virtual_seconds)),
                ("virtual_gflops", hist_quantiles(&m.gemm.virtual_gflops)),
            ]),
        ),
    ]);
    with_metadata(
        doc,
        Json::obj([
            ("command", Json::from("reproduce bench")),
            ("backend", Json::from(run.backend.name())),
            ("shape", Json::from(run.shape.name())),
            ("cpm_n", Json::from(BENCH_N)),
            ("fpm_n", Json::from(BENCH_FPM_N)),
            ("abft_n", Json::from(resilience::ABFT_N)),
            ("cpm_speeds", cpm_speeds_json()),
        ]),
    )
}

/// `{count, p50, p95, p99}` for one of the registry's histograms; the
/// quantile estimates are bucket upper bounds (≤ 6.25 % relative error)
/// and fully deterministic on the virtual clock.
fn hist_quantiles(h: &summagen_metrics::Histogram) -> Json {
    Json::obj([
        ("count", Json::from(h.count())),
        ("p50", Json::from(h.quantile(0.50))),
        ("p95", Json::from(h.quantile(0.95))),
        ("p99", Json::from(h.quantile(0.99))),
    ])
}

/// Runs all four shapes over `backend`, writing `BENCH_<shape>.json`
/// (suffixed with the backend name off the default channel) and
/// `flame_<shape>.folded` into `out_dir` and printing a summary table.
pub fn run_bench(out_dir: &Path, backend: Backend) -> Result<(), String> {
    println!(
        "\nBENCH — regression harness (CPM N = {BENCH_N}, FPM N = {BENCH_FPM_N}, \
         ABFT N = {}, backend = {backend}), output in {}",
        resilience::ABFT_N,
        out_dir.display()
    );
    println!(
        "{:>20} {:>12} {:>10} {:>8} {:>10} {:>12}",
        "shape", "makespan(s)", "GFLOP/s", "comm%", "abft+%", "p99 send(s)"
    );
    for shape in ALL_FOUR_SHAPES {
        let run = bench_shape(shape, backend)?;
        write_artifacts(
            out_dir,
            &[
                (
                    backend_artifact_name("BENCH", shape, backend),
                    &bench_json(&run).pretty(),
                ),
                (format!("flame_{}.folded", shape_slug(shape)), &run.folded),
            ],
        )?;
        println!(
            "{:>20} {:>12.4} {:>10.1} {:>7.2}% {:>9.2}% {:>12.3e}",
            shape.name(),
            run.cpm.exec_time,
            run.cpm.achieved_flops() / 1e9,
            100.0 * run.cpm.comm_time / run.cpm.exec_time.max(1e-300),
            run.abft.slowdown_pct,
            run.metrics.send_seconds.quantile(0.99),
        );
    }
    Ok(())
}

/// Reruns the harness over `backend` and checks each shape's fresh
/// document against the matching artifact in `baseline_dir` (channel
/// baselines are the unsuffixed `BENCH_<shape>.json`) through the shared
/// [`check_docs`] comparator.
pub fn check_bench(
    baseline_dir: &Path,
    tol: f64,
    backend: Backend,
) -> Result<CheckOutcome, CheckError> {
    let docs = ALL_FOUR_SHAPES.iter().map(|&shape| {
        (
            shape.name().to_string(),
            backend_artifact_name("BENCH", shape, backend),
            bench_shape(shape, backend).map(|run| bench_json(&run)),
        )
    });
    check_docs(
        &format!("BENCH CHECK — fresh {backend} run"),
        baseline_dir,
        tol,
        docs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{compare_docs_drift, CheckError};
    use crate::json::SCHEMA_VERSION;

    #[test]
    fn check_against_a_missing_baseline_dir_is_a_typed_error_naming_the_path() {
        let dir = Path::new("target/no-such-baseline-dir");
        let err = check_bench(dir, 0.01, Backend::Channel).unwrap_err();
        match &err {
            CheckError::MissingBaselineDir(p) => assert_eq!(p, dir),
            other => panic!("expected MissingBaselineDir, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("target/no-such-baseline-dir"), "{msg}");
        assert!(msg.contains("does not exist"), "{msg}");
    }

    #[test]
    fn bench_json_is_deterministic_and_parseable() {
        let a = bench_json(&bench_shape(Shape::SquareCorner, Backend::Channel).unwrap());
        let b = bench_json(&bench_shape(Shape::SquareCorner, Backend::Channel).unwrap());
        // Virtual-time determinism: identical documents run-to-run.
        assert_eq!(a.pretty(), b.pretty());
        let parsed = Json::parse(&a.pretty()).expect("own output parses");
        assert!(
            parsed
                .path("cpm.makespan_s")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(parsed.path("gemm.flops").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(
            parsed
                .path("comm.send_seconds.count")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(
            parsed.path("run_config.backend").and_then(Json::as_str),
            Some("channel")
        );
    }

    #[test]
    fn bench_over_tcp_is_bit_identical_and_stamped() {
        // Virtual time is backend-blind: the TCP document differs from
        // the channel one only in its `run_config.backend` stamp.
        let chan = bench_json(&bench_shape(Shape::SquareCorner, Backend::Channel).unwrap());
        let tcp = bench_json(&bench_shape(Shape::SquareCorner, Backend::Tcp).unwrap());
        assert_eq!(
            tcp.path("run_config.backend").and_then(Json::as_str),
            Some("tcp")
        );
        assert_eq!(
            chan.pretty().replace("\"backend\": \"channel\"", ""),
            tcp.pretty().replace("\"backend\": \"tcp\"", "")
        );
        assert_eq!(
            backend_artifact_name("BENCH", Shape::SquareCorner, Backend::Tcp),
            "BENCH_square-corner_tcp.json"
        );
    }

    #[test]
    fn compare_rejects_cross_backend_checks_but_tolerates_legacy_baselines() {
        let chan = bench_json(&bench_shape(Shape::OneDRectangular, Backend::Channel).unwrap());
        let tcp = bench_json(&bench_shape(Shape::OneDRectangular, Backend::Tcp).unwrap());
        let v = compare_docs_drift("cross", &chan, &tcp, 0.05).0;
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("backend mismatch"), "{v:?}");

        // A baseline predating the field compares against any backend.
        let mut legacy = chan.clone();
        if let Json::Obj(pairs) = &mut legacy {
            for (k, val) in pairs.iter_mut() {
                if k == "run_config" {
                    if let Json::Obj(cfg) = val {
                        cfg.retain(|(ck, _)| ck != "backend");
                    }
                }
            }
        }
        assert!(compare_docs_drift("legacy", &legacy, &tcp, 0.05)
            .0
            .is_empty());
    }

    #[test]
    fn compare_accepts_identical_and_rejects_perturbed() {
        let doc = bench_json(&bench_shape(Shape::OneDRectangular, Backend::Channel).unwrap());
        assert!(compare_docs_drift("self", &doc, &doc, 0.0).0.is_empty());

        // Perturb one metric by 10%: must be flagged at 5% tolerance.
        let perturbed = perturb(&doc, "cpm.makespan_s", 1.10);
        let v = compare_docs_drift("perturbed", &perturbed, &doc, 0.05).0;
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("cpm.makespan_s"));

        // A missing metric is also a violation.
        let mut extra = doc.clone();
        if let Json::Obj(pairs) = &mut extra {
            pairs.push(("invented".to_string(), Json::from(1.0f64)));
        }
        let v = compare_docs_drift("missing", &extra, &doc, 0.05).0;
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("invented"));
    }

    #[test]
    fn worst_drift_names_the_most_perturbed_leaf() {
        let doc = bench_json(&bench_shape(Shape::OneDRectangular, Backend::Channel).unwrap());

        // Identical documents: every leaf drifts 0%, but a worst leaf is
        // still reported (ties resolve to the first).
        let (v, worst) = compare_docs_drift("self", &doc, &doc, 0.0);
        assert!(v.is_empty());
        assert_eq!(worst.as_ref().map(|w| w.rel), Some(0.0));

        // Two perturbed leaves: the bigger drift wins, even though both
        // violate tolerance, and it renders with path + percentage.
        let perturbed = perturb(&perturb(&doc, "cpm.makespan_s", 1.10), "fpm.gflops", 1.50);
        let (v, worst) = compare_docs_drift("perturbed", &perturbed, &doc, 0.05);
        assert_eq!(v.len(), 2, "{v:?}");
        let worst = worst.expect("drift reported");
        assert!(worst.path.contains("fpm.gflops"), "{worst:?}");
        assert!((worst.rel - 1.0 / 3.0).abs() < 1e-12, "{worst:?}");
        let line = worst.to_string();
        assert!(line.contains("fpm.gflops") && line.contains('%'), "{line}");
    }

    #[test]
    fn compare_rejects_schema_mismatch() {
        let doc = Json::obj([("schema_version", Json::from(999u32))]);
        let v = compare_docs_drift("schema", &doc, &doc, 0.05).0;
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("schema_version"));
    }

    /// Returns a copy of `doc` with the numeric leaf at `path` scaled.
    fn perturb(doc: &Json, path: &str, factor: f64) -> Json {
        fn walk(v: &Json, parts: &[&str], factor: f64) -> Json {
            match v {
                Json::Obj(pairs) => Json::Obj(
                    pairs
                        .iter()
                        .map(|(k, val)| {
                            if parts.first() == Some(&k.as_str()) {
                                if parts.len() == 1 {
                                    let x = val.as_f64().expect("numeric leaf");
                                    (k.clone(), Json::Num(x * factor))
                                } else {
                                    (k.clone(), walk(val, &parts[1..], factor))
                                }
                            } else {
                                (k.clone(), val.clone())
                            }
                        })
                        .collect(),
                ),
                other => other.clone(),
            }
        }
        let parts: Vec<&str> = path.split('.').collect();
        walk(doc, &parts, factor)
    }
}
