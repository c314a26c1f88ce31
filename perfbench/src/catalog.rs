//! Names of the workloads and metrics, with units and direction. This
//! table is the single source `--list` prints and `run.py` checks against
//! `BENCHMARK.json`, so the code and the manifest cannot drift apart.

/// A workload the benchmark can run, with the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// A metric's name, unit, and whether a larger value is better.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

pub const WORKLOADS: [WorkloadSpec; 2] = [
    WorkloadSpec {
        name: "large-multiply",
        why: "n=1024 one-shot multiply over the four paper shapes: kernel-bound, the matrix layer dominates",
    },
    WorkloadSpec {
        name: "small-multiply",
        why: "n in 64..128 through one-shot, panelled and ABFT entry points: runtime-bound, comm and core dominate",
    },
];

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better,
    }
}

/// Reported by every untraced run (`--trace 0`), on every workload.
pub const END_TO_END: [MetricSpec; 6] = [
    m("gflops", "GFLOP/s", true),
    m("jobs_per_s", "1/s", true),
    m("latency_p50_ms", "ms", false),
    m("latency_p90_ms", "ms", false),
    m("setup_s", "s", false),
    m("peak_rss_mb", "MB", false),
];

/// Reported by every traced run (`--trace 1`), on every workload. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [MetricSpec; 41] = [
    m("matrix.gemm_gflops", "GFLOP/s", true),
    m("matrix.gemm_calls", "count", false),
    m("matrix.gemm_busy_share", "ratio", true),
    m("matrix.blocked_1t_gflops", "GFLOP/s", true),
    m("matrix.parallel_gflops", "GFLOP/s", true),
    m("matrix.parallel_vs_blocked_issued", "ratio", true),
    m("comm.msgs_per_call", "count", false),
    m("comm.bytes_per_call", "B", false),
    m("comm.pingpong_rtt_8b_us", "us", false),
    m("comm.pingpong_rtt_1mib_us", "us", false),
    m("comm.universe_spawn_us", "us", false),
    m("comm.recv_wait_share", "ratio", false),
    m("comm.recv_wait_max_ms", "ms", false),
    m("core.distribute_ms", "ms", false),
    m("core.assemble_ms", "ms", false),
    m("core.stage_ms.horizontal_a", "ms", false),
    m("core.stage_ms.vertical_b", "ms", false),
    m("core.stage_ms.compute", "ms", false),
    m("core.overhead_share", "ratio", false),
    m("core.oneshot_ms", "ms", false),
    m("core.panelled_ms", "ms", false),
    m("core.abft_ms", "ms", false),
    m("core.abft_overhead", "ratio", false),
    m("partition.build_us", "us", false),
    m("service.plan_us", "us", false),
    m("service.run_wall_s_journal_off", "s", false),
    m("service.batches", "count", false),
    m("service.peak_queue_depth", "count", false),
    m("service.retries", "count", false),
    m("service.preemptions", "count", false),
    m("service.virt_p95_s", "s", false),
    m("service.deadline_hit_rate", "ratio", true),
    m("service.rejected_share", "ratio", false),
    m("service.failed_share", "ratio", false),
    m("service.sched_spans", "count", false),
    m("durable.append_us", "us", false),
    m("durable.replay_ms", "ms", false),
    m("durable.bytes_per_job", "B", false),
    m("durable.fsyncs", "count", false),
    m("trace.overhead_share", "ratio", false),
    m("trace.spans_per_op", "count", false),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The listing `--list` prints: `workload name why` lines, then one
/// `kind name unit better` line per metric.
pub fn listing() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        out.push_str(&format!("workload {} {}\n", w.name, w.why));
    }
    for (kind, specs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for s in specs {
            let better = if s.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            out.push_str(&format!("{kind} {} {} {better}\n", s.name, s.unit));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|s| s.name))
            .chain(PER_LAYER.iter().map(|s| s.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s"));
    }
}
