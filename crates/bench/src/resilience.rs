//! The `reproduce abft` subcommand and the machine-readable recovery
//! artifact: where resilience time goes, measured rather than asserted.
//!
//! `reproduce abft` runs every paper shape twice through the
//! checksum-protected executor ([`summagen_core::multiply_abft`]):
//!
//! * a **clean** traced run against the unprotected baseline, which yields
//!   the ABFT overhead — the share of the virtual makespan spent in
//!   verify/correct/checkpoint/rollback spans, and the end-to-end slowdown
//!   against [`summagen_core::multiply_with_cost`] on the same partition;
//! * a **corrupted** run with a deterministic wire flip and a local-block
//!   flip, which must be detected and corrected in place (attempts = 1)
//!   with the final product still matching the fault-free reference.
//!
//! Artifacts per shape: `abft_<shape>.json` (schema-stamped summary) and
//! `abft_trace_<shape>.json` (Perfetto file whose op tracks show the
//! `abft-verify` / `abft-checkpoint` spans tiling against sends and
//! GEMMs). `reproduce recovery --json` emits the companion document for
//! the unprotected shrink-and-retry path, with per-cause failure counts
//! and the recompute fraction, so checkpointed and full-restart recovery
//! are comparable from artifacts alone.

use std::path::Path;
use std::time::Duration;

use summagen_comm::{FaultPlan, HockneyModel};
use summagen_core::{
    multiply_abft, multiply_abft_traced, multiply_panelled_with_cost, multiply_with_recovery,
    AbftOptions, AbftRunResult, ExecutionMode, RecoveryOptions,
};
use summagen_matrix::{gemm_naive, max_abs_diff, random_matrix, DenseMatrix, GemmKernel};
use summagen_partition::{proportional_areas, Shape, ALL_FOUR_SHAPES};
use summagen_trace::{metrics, perfetto_json, TraceRecorder};

use crate::harness::{cpm_speeds_json, ensure, shape_slug, write_artifacts};
use crate::json::{with_metadata, Json};
use crate::CPM_SPEEDS;

/// Problem size of the ABFT overhead runs: big enough that every shape
/// has multiple panels (so checkpoints actually happen), small enough
/// that the eight real-GEMM runs stay a smoke test.
pub const ABFT_N: usize = 96;

/// Checkpoint interval of the overhead runs: every panel boundary, the
/// worst case for checkpoint cost and therefore the honest overhead bound.
pub const ABFT_CHECKPOINT_INTERVAL: usize = 1;

fn mode() -> ExecutionMode {
    ExecutionMode::RealWith(GemmKernel::Blocked)
}

fn abft_options() -> AbftOptions {
    AbftOptions {
        checkpoint_interval: ABFT_CHECKPOINT_INTERVAL,
        ..AbftOptions::default()
    }
}

fn recovery_options() -> RecoveryOptions {
    RecoveryOptions {
        max_attempts: 4,
        retry_backoff: 0.25,
        recv_timeout: Duration::from_millis(1_000),
        ..RecoveryOptions::default()
    }
}

/// The sequential `A·B` every harness checks its products against.
pub fn reference(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let n = a.rows();
    let mut c = DenseMatrix::zeros(n, n);
    gemm_naive(
        n,
        n,
        n,
        1.0,
        a.as_slice(),
        n,
        b.as_slice(),
        n,
        0.0,
        c.as_mut_slice(),
        n,
    );
    c
}

/// Everything measured about one shape's protected runs.
#[derive(Debug)]
pub struct AbftShapeRun {
    /// Shape that was run.
    pub shape: Shape,
    /// Problem size.
    pub n: usize,
    /// Virtual execution time of the clean protected run.
    pub exec_protected: f64,
    /// Virtual execution time of the unprotected baseline on the same
    /// partition and cost model.
    pub exec_unprotected: f64,
    /// Largest per-rank share of busy time spent in ABFT spans.
    pub abft_time_max: f64,
    /// Sum over ranks of ABFT span time.
    pub abft_time_total: f64,
    /// `100 · abft_time_total / (nranks · makespan)` — the share of the
    /// run's total rank-time spent on resilience.
    pub overhead_pct: f64,
    /// `100 · (exec_protected − exec_unprotected) / exec_unprotected` —
    /// the end-to-end makespan cost of protection (checksum traffic,
    /// widened GEMMs, verification).
    pub slowdown_pct: f64,
    /// Complete checkpoints captured by the clean run.
    pub checkpoints: usize,
    /// ABFT leaf spans in the clean run's trace.
    pub abft_spans: usize,
    /// The Perfetto export of the clean run (kept so callers can assert
    /// on / write the span stream).
    pub perfetto: String,
    /// The corrupted run's outcome (attempts, detections, final error).
    pub corrupted: AbftRunResult,
    /// `max |C − C_ref|` of the corrupted run.
    pub corrupted_max_err: f64,
}

/// Runs the clean-overhead and corrupted scenarios for one shape. Fails
/// if either protected run errors or the clean product drifts from the
/// reference.
pub fn abft_shape_run(n: usize, shape: Shape) -> Result<AbftShapeRun, String> {
    let a = random_matrix(n, n, 71);
    let b = random_matrix(n, n, 72);
    let want = reference(&a, &b);
    let cost = HockneyModel::intra_node();
    let opts = recovery_options();
    let abft = abft_options();

    // Clean protected run, traced.
    let areas = proportional_areas(n, &CPM_SPEEDS);
    let spec = shape.build(n, &areas);
    let recorder = TraceRecorder::new(spec.nprocs);
    let protected = multiply_abft_traced(
        shape,
        &CPM_SPEEDS,
        &a,
        &b,
        mode(),
        cost,
        &[],
        &opts,
        &abft,
        recorder.clone(),
    )
    .map_err(|e| format!("{}: fault-free protected run failed: {e}", shape.name()))?;
    ensure(max_abs_diff(&protected.run.c, &want) < 1e-9, || {
        format!("{}: protected product drifted", shape.name())
    })?;
    let trace = recorder.finish();
    let m = metrics(&trace);
    let abft_time_max = m
        .per_rank
        .iter()
        .map(|r| r.abft_time)
        .fold(0.0_f64, f64::max);
    let abft_time_total: f64 = m.per_rank.iter().map(|r| r.abft_time).sum();
    let abft_spans = trace
        .iter()
        .filter(|s| matches!(s.record.kind, summagen_comm::SpanKind::Abft { .. }))
        .count();
    let perfetto = perfetto_json(&trace, &format!("SummaGen ABFT {} N={n}", shape.name()));

    // Unprotected baseline: the panelled executor the ABFT path mirrors
    // (same gather structure and panel traffic, minus the checksums), on
    // the identical partition and cost model.
    let baseline = multiply_panelled_with_cost(&spec, &a, &b, GemmKernel::Blocked, cost);

    // Corrupted run: one wire flip early plus one local-block flip at the
    // second panel boundary. Both are single-element events, so the run
    // must finish on the first attempt with the corruption repaired.
    let plan = FaultPlan::new()
        .corrupt_message(0, 1, 0, 11, 1e3)
        .corrupt_block(2, 1, 7, -2.0);
    let corrupted = multiply_abft(
        shape,
        &CPM_SPEEDS,
        &a,
        &b,
        mode(),
        cost,
        std::slice::from_ref(&plan),
        &opts,
        &abft,
    )
    .map_err(|e| {
        format!(
            "{}: correctable corruption failed the run: {e}",
            shape.name()
        )
    })?;
    let corrupted_max_err = max_abs_diff(&corrupted.run.c, &want);

    Ok(AbftShapeRun {
        shape,
        n,
        exec_protected: protected.run.exec_time,
        exec_unprotected: baseline.exec_time,
        abft_time_max,
        abft_time_total,
        overhead_pct: 100.0 * abft_time_total / (m.per_rank.len() as f64 * m.makespan).max(1e-300),
        slowdown_pct: 100.0 * (protected.run.exec_time - baseline.exec_time)
            / baseline.exec_time.max(1e-300),
        checkpoints: protected.abft.checkpoints,
        abft_spans,
        perfetto,
        corrupted,
        corrupted_max_err,
    })
}

/// The schema-stamped JSON summary for one shape's ABFT runs.
pub fn abft_json(run: &AbftShapeRun) -> Json {
    let cr = &run.corrupted;
    let doc = Json::obj([
        (
            "clean",
            Json::obj([
                ("exec_protected_s", Json::from(run.exec_protected)),
                ("exec_unprotected_s", Json::from(run.exec_unprotected)),
                ("abft_time_max_s", Json::from(run.abft_time_max)),
                ("abft_time_total_s", Json::from(run.abft_time_total)),
                ("abft_overhead_pct", Json::from(run.overhead_pct)),
                ("makespan_slowdown_pct", Json::from(run.slowdown_pct)),
                ("checkpoints", Json::from(run.checkpoints)),
                ("abft_spans", Json::from(run.abft_spans)),
            ]),
        ),
        (
            "corrupted",
            Json::obj([
                ("attempts", Json::from(cr.abft.attempts)),
                ("detected", Json::from(cr.abft.detected)),
                ("corrected", Json::from(cr.abft.corrected)),
                ("uncorrectable", Json::from(cr.abft.uncorrectable)),
                ("recompute_fraction", Json::from(cr.abft.recompute_fraction)),
                ("max_abs_err", Json::from(run.corrupted_max_err)),
            ]),
        ),
    ]);
    with_metadata(
        doc,
        Json::obj([
            ("command", Json::from("reproduce abft")),
            ("n", Json::from(run.n)),
            ("shape", Json::from(run.shape.name())),
            ("checkpoint_interval", Json::from(ABFT_CHECKPOINT_INTERVAL)),
            ("cpm_speeds", cpm_speeds_json()),
        ]),
    )
}

/// Runs the four paper shapes, writing `abft_<shape>.json` and
/// `abft_trace_<shape>.json` into `out_dir` and printing the overhead
/// table. Fails if a trace is missing the verify or checkpoint spans, or
/// if a corrupted run was not fully repaired.
pub fn run_abft(n: usize, out_dir: &Path) -> Result<(), String> {
    println!(
        "\nABFT — checksum-protected SummaGen overhead (N = {n}, checkpoint every {ABFT_CHECKPOINT_INTERVAL} panel), output in {}",
        out_dir.display()
    );
    println!(
        "{:>20}{:>14}{:>14}{:>10}{:>10}{:>7}{:>10}{:>11}{:>10}",
        "shape",
        "protect (s)",
        "plain (s)",
        "slow%",
        "abft%",
        "ckpts",
        "spans",
        "corrected",
        "max err"
    );
    for shape in ALL_FOUR_SHAPES {
        let run = abft_shape_run(n, shape)?;
        let name = shape.name();
        ensure(
            run.perfetto.contains("abft-verify") && run.perfetto.contains("abft-checkpoint"),
            || format!("{name}: Perfetto export is missing ABFT spans"),
        )?;
        ensure(run.corrupted.abft.attempts == 1, || {
            format!("{name}: correctable corruption must not trigger recovery")
        })?;
        ensure(run.corrupted.abft.corrected >= 1, || {
            format!("{name}: the injected corruption was never seen")
        })?;
        ensure(run.corrupted_max_err < 1e-9, || {
            format!(
                "{name}: corrupted run returned a wrong product (err {:.2e})",
                run.corrupted_max_err
            )
        })?;

        let slug = shape_slug(shape);
        write_artifacts(
            out_dir,
            &[
                (format!("abft_{slug}.json"), &abft_json(&run).pretty()),
                (format!("abft_trace_{slug}.json"), &run.perfetto),
            ],
        )?;

        println!(
            "{:>20}{:>14.6}{:>14.6}{:>9.2}%{:>9.3}%{:>7}{:>10}{:>11}{:>10.1e}",
            shape.name(),
            run.exec_protected,
            run.exec_unprotected,
            run.slowdown_pct,
            run.overhead_pct,
            run.checkpoints,
            run.abft_spans,
            run.corrupted.abft.corrected,
            run.corrupted_max_err,
        );
    }
    println!(
        "\nload the abft_trace files at https://ui.perfetto.dev to see where resilience time goes"
    );
    Ok(())
}

/// One row of the machine-readable recovery artifact: a `(shape, seed)`
/// cell of the seeded chaos grid run through the *unprotected*
/// shrink-and-retry path.
#[derive(Debug)]
pub struct RecoveryRow {
    pub shape: Shape,
    pub seed: u64,
    /// `"clean"`, `"recovered"`, or `"error"`.
    pub outcome: &'static str,
    pub attempts: usize,
    pub failed_devices: Vec<usize>,
    /// `(FailureCause::kind_label, count)` over every failed attempt.
    pub failure_causes: Vec<(String, usize)>,
    /// 1.0 for every successful unprotected run (full restart); the
    /// checkpointed artifact reports less when it resumes mid-plan.
    pub recompute_fraction: f64,
    /// `max |C − C_ref|`, or `None` when the run ended in a typed error.
    pub max_err: Option<f64>,
    /// Display string of the typed error, when one was returned.
    pub error: Option<String>,
}

/// Runs the `(shape, seed)` grid of `reproduce recovery` and reduces each
/// cell to its comparable parts.
pub fn recovery_series(n: usize, seeds: &[u64]) -> Vec<RecoveryRow> {
    let a = random_matrix(n, n, 41);
    let b = random_matrix(n, n, 42);
    let want = reference(&a, &b);
    let opts = RecoveryOptions {
        max_attempts: 3,
        retry_backoff: 0.25,
        recv_timeout: Duration::from_millis(500),
        ..RecoveryOptions::default()
    };
    let mut rows = Vec::new();
    for shape in ALL_FOUR_SHAPES {
        for &seed in seeds {
            let plan = FaultPlan::seeded(seed, CPM_SPEEDS.len());
            let row = match multiply_with_recovery(
                shape,
                &CPM_SPEEDS,
                &a,
                &b,
                ExecutionMode::Real,
                summagen_comm::ZeroCost,
                std::slice::from_ref(&plan),
                &opts,
            ) {
                Ok(res) => {
                    let max_err = Some(max_abs_diff(&res.c, &want));
                    match res.recovery {
                        Some(rep) => RecoveryRow {
                            shape,
                            seed,
                            outcome: "recovered",
                            attempts: rep.attempts,
                            failed_devices: rep.failed_devices,
                            failure_causes: rep.failure_causes,
                            recompute_fraction: rep.recompute_fraction,
                            max_err,
                            error: None,
                        },
                        None => RecoveryRow {
                            shape,
                            seed,
                            outcome: "clean",
                            attempts: 1,
                            failed_devices: Vec::new(),
                            failure_causes: Vec::new(),
                            recompute_fraction: 1.0,
                            max_err,
                            error: None,
                        },
                    }
                }
                Err(e) => RecoveryRow {
                    shape,
                    seed,
                    outcome: "error",
                    attempts: 0,
                    failed_devices: Vec::new(),
                    failure_causes: Vec::new(),
                    recompute_fraction: 0.0,
                    max_err: None,
                    error: Some(e.to_string()),
                },
            };
            rows.push(row);
        }
    }
    rows
}

/// The seeds of the machine-readable recovery artifact — aligned with the
/// CI chaos matrix so each job's artifact covers its seed.
pub const RECOVERY_SEEDS: [u64; 4] = [1, 2, 3, 4];

/// The schema-stamped `reproduce recovery --json` document.
pub fn recovery_json(n: usize) -> Json {
    let rows = recovery_series(n, &RECOVERY_SEEDS);
    let doc = Json::obj([(
        "runs",
        Json::arr(rows.iter().map(|r| {
            Json::obj([
                ("shape", Json::from(r.shape.name())),
                ("seed", Json::from(r.seed)),
                ("outcome", Json::from(r.outcome)),
                ("attempts", Json::from(r.attempts)),
                (
                    "failed_devices",
                    Json::arr(r.failed_devices.iter().copied().map(Json::from)),
                ),
                (
                    "failure_causes",
                    Json::arr(r.failure_causes.iter().map(|(label, count)| {
                        Json::obj([
                            ("cause", Json::from(label.as_str())),
                            ("count", Json::from(*count)),
                        ])
                    })),
                ),
                ("recompute_fraction", Json::from(r.recompute_fraction)),
                ("max_abs_err", Json::from(r.max_err)),
                ("error", Json::from(r.error.as_deref())),
            ])
        })),
    )]);
    with_metadata(
        doc,
        Json::obj([
            ("command", Json::from("reproduce recovery --json")),
            ("n", Json::from(n)),
            (
                "seeds",
                Json::arr(RECOVERY_SEEDS.iter().copied().map(Json::from)),
            ),
            ("cpm_speeds", cpm_speeds_json()),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abft_shape_run_measures_overhead_and_repairs_corruption() {
        let run = abft_shape_run(48, Shape::OneDRectangular).unwrap();
        assert!(run.exec_protected > 0.0);
        assert!(run.abft_time_total > 0.0, "verification must cost time");
        assert!(run.overhead_pct > 0.0 && run.overhead_pct < 50.0);
        assert!(run.checkpoints >= 1, "every boundary is checkpointed");
        assert!(run.abft_spans > 0);
        assert!(run.perfetto.contains("abft-verify"));
        assert!(run.perfetto.contains("abft-checkpoint"));
        assert_eq!(run.corrupted.abft.attempts, 1);
        assert!(run.corrupted.abft.corrected >= 1);
        assert!(run.corrupted_max_err < 1e-9);

        let doc = abft_json(&run).pretty();
        assert!(doc.contains("\"schema_version\""));
        assert!(doc.contains("\"abft_overhead_pct\""));
        assert!(doc.contains("\"recompute_fraction\""));
        assert!(doc.contains("\"shape\": \"1D rectangular\""));
    }

    #[test]
    fn recovery_json_counts_causes_and_recompute() {
        let doc = recovery_json(32).pretty();
        assert!(doc.contains("\"schema_version\""));
        assert!(doc.contains("\"failure_causes\""));
        assert!(doc.contains("\"recompute_fraction\""));
        // The seeded grid is deterministic, and at least one cell of it
        // recovers from an injected kill.
        assert!(doc.contains("\"outcome\": \"recovered\""), "{doc}");
        assert!(doc.contains("\"cause\": \"injected-kill\""), "{doc}");
    }

    #[test]
    fn recovery_rows_cover_the_full_grid_deterministically() {
        let rows = recovery_series(32, &[2, 3]);
        assert_eq!(rows.len(), ALL_FOUR_SHAPES.len() * 2);
        for r in &rows {
            if let Some(err) = r.max_err {
                assert!(
                    err < 1e-9,
                    "{} seed {}: err {err:.2e}",
                    r.shape.name(),
                    r.seed
                );
            }
            if r.outcome == "recovered" {
                assert!(r.attempts >= 2);
                assert!(!r.failure_causes.is_empty());
                assert!((r.recompute_fraction - 1.0).abs() < 1e-12);
            }
        }
        let again = recovery_series(32, &[2, 3]);
        for (x, y) in rows.iter().zip(&again) {
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.attempts, y.attempts);
            assert_eq!(x.failure_causes, y.failure_causes);
        }
    }
}
