//! Ranked what-if opportunities and sensitivity curves over a recorded
//! trace.
//!
//! [`summagen_trace::replay()`] answers one counterfactual at a time; this
//! module asks the standard portfolio — communication free, ABFT free,
//! each device's GEMMs 2× faster, each observed link free — and ranks
//! the answers by makespan reduction ([`rank_opportunities`]). A ranked
//! row reads as a budget: "communication free ⇒ −18.7% makespan" is the
//! most an overlap/pipelining effort can possibly recover on that trace,
//! measured through the same happens-before DAG the critical-path
//! analyzer walks. [`sensitivity`] sweeps one target across demand
//! factors to show how the win decays for partial speedups.

use std::collections::BTreeSet;

use summagen_comm::span::SpanKind;
use summagen_trace::{replay, Intervention, RecordedTrace, Target};

/// One ranked intervention outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Opportunity {
    /// Human-readable intervention, e.g. `"communication free"`.
    pub description: String,
    /// Demand multiplier applied to the target (`0` = free).
    pub factor: f64,
    /// Re-timed makespan under the intervention (seconds).
    pub makespan: f64,
    /// Fractional makespan reduction versus the identity replay.
    pub reduction: f64,
    /// Leaves the intervention rescaled.
    pub scaled_leaves: usize,
}

/// One point on a [`SensitivityCurve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitivityPoint {
    /// Demand multiplier (`1` = as recorded, `0` = free).
    pub factor: f64,
    /// Re-timed makespan (seconds).
    pub makespan: f64,
    /// Fractional reduction versus the identity replay.
    pub reduction: f64,
}

/// Makespan as a function of one target's demand factor.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityCurve {
    /// The swept target, e.g. `"communication"`.
    pub description: String,
    /// Identity-replay makespan the reductions are measured against.
    pub baseline: f64,
    /// One point per requested factor, in the given order.
    pub points: Vec<SensitivityPoint>,
}

fn intervention_label(iv: &Intervention) -> String {
    let desc = iv.target.describe();
    if iv.factor == 0.0 {
        format!("{desc} free")
    } else if iv.factor < 1.0 {
        format!("{desc} {:.3}x faster", 1.0 / iv.factor)
    } else {
        format!("{desc} {:.3}x slower", iv.factor)
    }
}

/// The candidate interventions [`rank_opportunities`] evaluates for
/// `trace`: communication free, ABFT free, every device's GEMMs 2×
/// faster, every observed directed link free. Candidates that would
/// rescale no leaf (e.g. ABFT on a trace without ABFT) are dropped.
pub fn candidate_interventions(trace: &RecordedTrace) -> Vec<Intervention> {
    let mut out = vec![
        Intervention::free(Target::Comm),
        Intervention::free(Target::Abft),
    ];
    for rank in 0..trace.nranks {
        out.push(Intervention::speedup(Target::DeviceGemm { rank }, 2.0));
    }
    let mut links: BTreeSet<(usize, usize)> = BTreeSet::new();
    for spans in &trace.spans {
        for ts in spans {
            match ts.record.kind {
                SpanKind::Send { dst, .. } | SpanKind::Retransmit { dst, .. } => {
                    links.insert((ts.record.rank, dst));
                }
                _ => {}
            }
        }
    }
    for (src, dst) in links {
        out.push(Intervention::free(Target::Link { src, dst }));
    }
    out
}

/// Replays every candidate intervention over `trace` and returns the
/// outcomes sorted by makespan reduction, best first (ties broken by
/// description for determinism). No-op candidates are dropped.
pub fn rank_opportunities(trace: &RecordedTrace) -> Vec<Opportunity> {
    let baseline = replay(trace, &[]).makespan;
    let mut out: Vec<Opportunity> = candidate_interventions(trace)
        .into_iter()
        .filter_map(|iv| {
            let run = replay(trace, &[iv]);
            if run.scaled_leaves == 0 {
                return None;
            }
            Some(Opportunity {
                description: intervention_label(&iv),
                factor: iv.factor,
                makespan: run.makespan,
                reduction: run.reduction_vs(baseline),
                scaled_leaves: run.scaled_leaves,
            })
        })
        .collect();
    out.sort_by(|a, b| {
        b.reduction
            .total_cmp(&a.reduction)
            .then_with(|| a.description.cmp(&b.description))
    });
    out
}

/// Sweeps `target`'s demand factor over `factors` and returns the
/// resulting makespan curve.
pub fn sensitivity(trace: &RecordedTrace, target: Target, factors: &[f64]) -> SensitivityCurve {
    let baseline = replay(trace, &[]).makespan;
    let points = factors
        .iter()
        .map(|&factor| {
            let run = replay(trace, &[Intervention { target, factor }]);
            SensitivityPoint {
                factor,
                makespan: run.makespan,
                reduction: run.reduction_vs(baseline),
            }
        })
        .collect();
    SensitivityCurve {
        description: target.describe(),
        baseline,
        points,
    }
}

/// Renders ranked opportunities as an aligned text table.
pub fn opportunity_table(baseline: f64, opportunities: &[Opportunity]) -> String {
    let mut out = String::new();
    out.push_str(&format!("baseline makespan: {baseline:.6e} s\n"));
    out.push_str(&format!(
        "{:<32} {:>14} {:>9} {:>7}\n",
        "intervention", "makespan (s)", "delta", "leaves"
    ));
    for op in opportunities {
        out.push_str(&format!(
            "{:<32} {:>14.6e} {:>+8.1}% {:>7}\n",
            op.description,
            op.makespan,
            -100.0 * op.reduction,
            op.scaled_leaves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_comm::span::{EventSink, MsgOutcome, SpanRecord};
    use summagen_trace::TraceRecorder;

    fn send(rank: usize, dst: usize, start: f64, end: f64, seq: u64) -> SpanRecord {
        SpanRecord {
            rank,
            start,
            end,
            kind: SpanKind::Send {
                dst,
                tag: 0,
                bytes: 4096,
                seq,
                outcome: MsgOutcome::Delivered,
            },
        }
    }

    fn recv(rank: usize, src: usize, start: f64, end: f64, seq: u64) -> SpanRecord {
        SpanRecord {
            rank,
            start,
            end,
            kind: SpanKind::Recv {
                src,
                tag: 0,
                bytes: 4096,
                seq,
            },
        }
    }

    fn gemm(rank: usize, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            rank,
            start,
            end,
            kind: SpanKind::Gemm {
                m: 8,
                n: 8,
                k: 8,
                flops: 1024.0,
                kernel_ns: 0,
            },
        }
    }

    /// Comm-dominated two-rank trace: a long send gates a short gemm.
    fn comm_bound() -> RecordedTrace {
        let r = TraceRecorder::new(2);
        r.record(send(0, 1, 0.0, 8.0, 0));
        r.record(recv(1, 0, 0.0, 8.0, 0));
        r.record(gemm(1, 8.0, 10.0));
        r.finish()
    }

    #[test]
    fn comm_bound_trace_ranks_communication_first() {
        let trace = comm_bound();
        let opps = rank_opportunities(&trace);
        assert!(!opps.is_empty());
        assert_eq!(opps[0].description, "communication free");
        assert!((opps[0].reduction - 0.8).abs() < 1e-12, "{opps:?}");
    }

    #[test]
    fn noop_candidates_are_dropped() {
        let trace = comm_bound();
        let opps = rank_opportunities(&trace);
        // No ABFT spans and no gemm on rank 0: neither shows up.
        assert!(opps.iter().all(|o| o.description != "abft free"));
        assert!(opps
            .iter()
            .all(|o| o.description != "device 0 gemm 2.000x faster"));
        // The one observed link does.
        assert!(opps.iter().any(|o| o.description == "link 0->1 free"));
    }

    #[test]
    fn sensitivity_is_monotone_in_the_factor() {
        let trace = comm_bound();
        let curve = sensitivity(&trace, Target::Comm, &[1.0, 0.5, 0.25, 0.0]);
        assert_eq!(curve.points.len(), 4);
        assert_eq!(curve.points[0].makespan, curve.baseline);
        for w in curve.points.windows(2) {
            assert!(w[1].makespan <= w[0].makespan, "{curve:?}");
        }
        assert!((curve.points[3].makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_every_row() {
        let trace = comm_bound();
        let opps = rank_opportunities(&trace);
        let table = opportunity_table(replay(&trace, &[]).makespan, &opps);
        assert!(table.contains("baseline makespan"));
        for op in &opps {
            assert!(table.contains(&op.description), "{table}");
        }
    }
}
