//! The two multiply workloads. One thread drives a closed loop: the next
//! SummaGen call starts when the previous one has returned and its
//! product has been checked against a reference computed at set-up.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use summagen_comm::{EventSink, TrafficStats, ZeroCost};
use summagen_core::{
    multiply, multiply_abft, multiply_abft_traced, multiply_panelled, multiply_traced, AbftOptions,
    ExecutionMode, RecoveryOptions,
};
use summagen_matrix::{gemm_tolerance, random_matrix, DenseMatrix, GemmKernel};
use summagen_partition::{proportional_areas, PartitionSpec, Shape, ALL_FOUR_SHAPES};

use crate::layers;
use crate::sink::{breakdown, WallSink};
use crate::stats::{
    cpu_ticks, derive_seed, mean, median, peak_rss_mb, quantile, ratio, repeated_setup,
    steal_share, timed, Report,
};

/// Relative speeds of the HCLServer1 devices (CPU, GPU, Xeon Phi).
pub const SPEEDS: [f64; 3] = [1.0, 2.0, 0.9];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Entries of the reference product re-derived by a plain dot product at
/// set-up, so the reference does not rest on the kernel alone.
const REFERENCE_SPOT_CHECKS: usize = 64;

/// The stage-loop entry points a workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    OneShot,
    Panelled,
    Abft,
}

/// What a multiply workload runs: problem sizes (each over the four paper
/// shapes) and the entry points it rotates through.
pub struct Plan {
    pub sizes: &'static [usize],
    pub entries: &'static [Entry],
}

pub const LARGE: Plan = Plan {
    sizes: &[1024],
    entries: &[Entry::OneShot],
};

pub const SMALL: Plan = Plan {
    sizes: &[64, 96, 128],
    entries: &[Entry::OneShot, Entry::Panelled, Entry::Abft],
};

/// Operands of one size and the reference product.
struct Operands {
    a: DenseMatrix,
    b: DenseMatrix,
    reference: DenseMatrix,
}

struct Case {
    operands: usize,
    shape: Shape,
    spec: PartitionSpec,
}

struct Setup {
    operands: Vec<Operands>,
    cases: Vec<Case>,
}

impl Setup {
    fn new(plan: &Plan, seed: u64) -> Result<Self, String> {
        let mut operands = Vec::new();
        let mut cases = Vec::new();
        for (i, &n) in plan.sizes.iter().enumerate() {
            let a = random_matrix(n, n, derive_seed(seed, 2 * i as u64));
            let b = random_matrix(n, n, derive_seed(seed, 2 * i as u64 + 1));
            let reference = reference_product(&a, &b, derive_seed(seed, 1 << 32))?;
            operands.push(Operands { a, b, reference });
            let areas = proportional_areas(n, &SPEEDS);
            for shape in ALL_FOUR_SHAPES {
                cases.push(Case {
                    operands: i,
                    shape,
                    spec: shape.build(n, &areas),
                });
            }
        }
        Ok(Self { operands, cases })
    }

    /// The `i`-th operation of the rotation: every entry point on one
    /// case before moving to the next case.
    fn op<'a>(&'a self, plan: &Plan, i: usize) -> (&'a Case, &'a Operands, Entry) {
        let entries = plan.entries.len();
        let case = &self.cases[(i / entries) % self.cases.len()];
        (
            case,
            &self.operands[case.operands],
            plan.entries[i % entries],
        )
    }

    fn rotation_len(&self, plan: &Plan) -> usize {
        self.cases.len() * plan.entries.len()
    }
}

/// `A × B` by the serial blocked kernel, spot-checked entry by entry
/// against plain dot products.
fn reference_product(a: &DenseMatrix, b: &DenseMatrix, seed: u64) -> Result<DenseMatrix, String> {
    let n = a.rows();
    let mut c = DenseMatrix::zeros(n, n);
    GemmKernel::Blocked.run(
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
    for s in 0..REFERENCE_SPOT_CHECKS as u64 {
        let r = derive_seed(seed, s);
        let (i, j) = ((r % n as u64) as usize, ((r >> 32) % n as u64) as usize);
        let dot: f64 = (0..n).map(|k| a.get(i, k) * b.get(k, j)).sum();
        let close = (c.get(i, j) - dot).abs() <= gemm_tolerance(n);
        if !close {
            return Err(format!(
                "reference product wrong at ({i},{j}): {} vs dot product {dot}",
                c.get(i, j)
            ));
        }
    }
    Ok(c)
}

/// Whether `got` is the product `want` within the tolerance for an inner
/// dimension of `want.cols()`. A NaN anywhere fails.
pub fn product_ok(got: &DenseMatrix, want: &DenseMatrix) -> bool {
    let tol = gemm_tolerance(want.cols());
    (got.rows(), got.cols()) == (want.rows(), want.cols())
        && got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(x, y)| (x - y).abs() <= tol)
}

/// A call's product and its exact message counts.
struct Outcome {
    c: DenseMatrix,
    msgs: u64,
    bytes: u64,
}

fn outcome(c: DenseMatrix, traffic: &[TrafficStats]) -> Outcome {
    Outcome {
        c,
        msgs: traffic.iter().map(|t| t.msgs_sent).sum(),
        bytes: traffic.iter().map(|t| t.bytes_sent).sum(),
    }
}

/// One call through `entry`, traced into `sink` when given (the panelled
/// path has no tracing hook and always runs untraced). A panic or an
/// error is returned as `Err`.
fn call(
    entry: Entry,
    case: &Case,
    ops: &Operands,
    sink: Option<Arc<dyn EventSink>>,
) -> Result<Outcome, String> {
    let (a, b) = (&ops.a, &ops.b);
    let run = || match entry {
        Entry::OneShot => {
            let r = match sink {
                Some(sink) => {
                    multiply_traced(&case.spec, a, b, ExecutionMode::Real, ZeroCost, sink)
                }
                None => multiply(&case.spec, a, b, ExecutionMode::Real),
            };
            Ok(outcome(r.c, &r.traffic))
        }
        Entry::Panelled => {
            let r = multiply_panelled(&case.spec, a, b, GemmKernel::default());
            Ok(outcome(r.c, &r.traffic))
        }
        Entry::Abft => {
            let opts = RecoveryOptions::default();
            let abft = AbftOptions::default();
            let r = match sink {
                Some(sink) => multiply_abft_traced(
                    case.shape,
                    &SPEEDS,
                    a,
                    b,
                    ExecutionMode::Real,
                    ZeroCost,
                    &[],
                    &opts,
                    &abft,
                    sink,
                ),
                None => multiply_abft(
                    case.shape,
                    &SPEEDS,
                    a,
                    b,
                    ExecutionMode::Real,
                    ZeroCost,
                    &[],
                    &opts,
                    &abft,
                ),
            };
            r.map(|r| outcome(r.run.c, &r.run.traffic))
                .map_err(|e| format!("{e}"))
        }
    };
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| Err("call panicked".into()))
}

/// Calls every entry point once on the first case, unmeasured, so lazily
/// initialised state settles before timing.
fn warm_up(plan: &Plan, setup: &Setup) {
    for i in 0..plan.entries.len() {
        let (case, ops, entry) = setup.op(plan, i);
        let _ = call(entry, case, ops, None);
    }
}

fn flops(n: usize) -> f64 {
    2.0 * (n as f64).powi(3)
}

/// A rotation counts toward the end-to-end figures only if the hypervisor
/// gave at most this share of the machine's CPU time to other guests
/// while it ran. Three rank threads hand work to each other on few cores,
/// so stolen time stalls the whole multiply and would otherwise swamp
/// the program's own speed.
const STEAL_LIMIT: f64 = 0.01;

/// One pass over every case and entry point of a workload.
struct Rotation {
    secs: f64,
    flops: f64,
    latencies: Vec<f64>,
    steal: f64,
}

/// The rotations within [`STEAL_LIMIT`]; when fewer than a quarter of
/// them are, the quarter with the least steal.
fn undisturbed(rotations: &[Rotation]) -> Vec<&Rotation> {
    let calm: Vec<&Rotation> = rotations
        .iter()
        .filter(|r| r.steal <= STEAL_LIMIT)
        .collect();
    if calm.len() * 4 >= rotations.len() {
        return calm;
    }
    let mut by_steal: Vec<&Rotation> = rotations.iter().collect();
    by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    by_steal.truncate(rotations.len().div_ceil(4));
    by_steal
}

/// The untraced run: end-to-end metrics only. It stops only at the end of
/// a whole rotation, so every case and entry point runs equally often.
/// Throughput is the median over the undisturbed rotations of each one's
/// rate; latency quantiles are over their calls.
pub fn run(plan: &Plan, seed: u64, seconds: f64) -> Result<Report, String> {
    let (setup, setup_s) = repeated_setup(SETUP_REPS, || Setup::new(plan, seed))?;
    warm_up(plan, &setup);
    let rotation = setup.rotation_len(plan);
    let mut report = Report::default();
    let mut rotations = Vec::new();
    let start = Instant::now();
    while rotations.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let ticks = cpu_ticks();
        let mut rot = Rotation {
            secs: 0.0,
            flops: 0.0,
            latencies: Vec::with_capacity(rotation),
            steal: 0.0,
        };
        for i in 0..rotation {
            let (case, ops, entry) = setup.op(plan, i);
            let (out, secs) = timed(|| call(entry, case, ops, None));
            report.attempted += 1;
            rot.latencies.push(secs);
            rot.secs += secs;
            match out {
                Ok(out) if product_ok(&out.c, &ops.reference) => rot.flops += flops(case.spec.n),
                Ok(_) => {
                    report.failed += 1;
                    report.note(format!(
                        "FAILED {entry:?} {:?} n={}: product outside tolerance",
                        case.shape, case.spec.n
                    ));
                }
                Err(e) => {
                    report.failed += 1;
                    report.note(format!(
                        "FAILED {entry:?} {:?} n={}: {e}",
                        case.shape, case.spec.n
                    ));
                }
            }
        }
        rot.steal = steal_share(ticks, cpu_ticks());
        rotations.push(rot);
    }
    let kept = undisturbed(&rotations);
    let rate =
        |f: &dyn Fn(&Rotation) -> f64| median(&kept.iter().map(|r| f(r)).collect::<Vec<_>>());
    let latencies: Vec<f64> = kept
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    report.set("gflops", rate(&|r| r.flops / r.secs / 1e9));
    report.set("jobs_per_s", rate(&|r| rotation as f64 / r.secs));
    report.set("latency_p50_ms", quantile(&latencies, 0.5) * 1e3);
    report.set("latency_p90_ms", quantile(&latencies, 0.9) * 1e3);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mb()?);
    report.note(format!(
        "closed loop, 1 client thread: {} rotations of {rotation} calls, {:.1} s timed; \
         figures over the {} rotations with the least host steal ({} of them within {}%), {} latency samples",
        rotations.len(),
        rotations.iter().map(|r| r.secs).sum::<f64>(),
        kept.len(),
        rotations.iter().filter(|r| r.steal <= STEAL_LIMIT).count(),
        STEAL_LIMIT * 100.0,
        latencies.len()
    ));
    Ok(report)
}

/// The traced run: per-layer metrics. Whole rotations of the workload run
/// twice per operation, untraced then traced into a [`WallSink`], so that
/// exact counts repeat and the tracing overhead is measured pairwise; the
/// single-layer timings follow.
pub fn run_traced(plan: &Plan, seed: u64, seconds: f64) -> Result<Report, String> {
    let setup = Setup::new(plan, seed)?;
    warm_up(plan, &setup);
    let sink = WallSink::new();
    let mut report = Report::default();
    let mut untraced_ms: [Vec<f64>; 3] = Default::default();
    let (mut paired_plain, mut paired_traced) = (0.0, 0.0);
    let (mut traced_calls, mut spans) = (0u64, 0u64);
    let (mut gemm_calls, mut gemm_flops, mut gemm_ns) = (0u64, 0.0, 0u64);
    let (mut busy_shares, mut stage_ms) = (Vec::new(), [Vec::new(), Vec::new(), Vec::new()]);
    let (mut wait_ns, mut wait_max_ns, mut active_ns) = (0u64, 0u64, 0u64);
    let (mut msgs, mut bytes) = (0u64, 0u64);
    let mut issued = BTreeSet::new();
    let start = Instant::now();
    let mut rotations = 0;
    while rotations == 0 || start.elapsed().as_secs_f64() < seconds / 2.0 {
        for i in 0..setup.rotation_len(plan) {
            let (case, ops, entry) = setup.op(plan, i);
            let mut check = |out: Result<Outcome, String>| -> Option<Outcome> {
                report.attempted += 1;
                match out {
                    Ok(out) if product_ok(&out.c, &ops.reference) => Some(out),
                    _ => {
                        report.failed += 1;
                        None
                    }
                }
            };
            let (out, plain) = timed(|| call(entry, case, ops, None));
            if let Some(out) = check(out) {
                msgs += out.msgs;
                bytes += out.bytes;
            }
            untraced_ms[entry as usize].push(plain * 1e3);
            if entry == Entry::Panelled {
                continue;
            }
            let call_start = sink.now_ns();
            let (out, traced) = timed(|| call(entry, case, ops, Some(sink.clone())));
            check(out);
            let b = breakdown(&sink.drain(), SPEEDS.len(), call_start);
            paired_plain += plain;
            paired_traced += traced;
            traced_calls += 1;
            spans += b.spans;
            gemm_calls += b.gemm_calls;
            gemm_flops += b.gemm_flops;
            gemm_ns += b.gemm_kernel_ns;
            wait_ns += b.recv_wait_ns;
            wait_max_ns = wait_max_ns.max(b.recv_wait_max_ns);
            active_ns += b.rank_active_ns;
            if rotations == 0 {
                issued.extend(b.gemm_shapes.iter().copied());
            }
            if entry == Entry::OneShot {
                busy_shares.push(b.busiest_kernel_ns as f64 / 1e9 / traced);
                for (acc, ms) in stage_ms.iter_mut().zip(b.stage_ms) {
                    acc.push(ms);
                }
            }
        }
        rotations += 1;
    }
    let untraced_calls = untraced_ms.iter().map(Vec::len).sum::<usize>() as f64;
    let busy_share = mean(&busy_shares);
    report.set("matrix.gemm_gflops", ratio(gemm_flops, gemm_ns as f64));
    report.set(
        "matrix.gemm_calls",
        ratio(gemm_calls as f64, traced_calls as f64),
    );
    report.set("matrix.gemm_busy_share", busy_share);
    report.set(
        "matrix.blocked_1t_gflops",
        layers::kernel_gflops(GemmKernel::Blocked, 512, 3),
    );
    report.set(
        "matrix.parallel_gflops",
        layers::kernel_gflops(GemmKernel::Parallel, 512, 3),
    );
    let issued: Vec<_> = issued.into_iter().collect();
    report.set(
        "matrix.parallel_vs_blocked_issued",
        layers::parallel_vs_blocked(&issued),
    );
    report.set("comm.msgs_per_call", msgs as f64 / untraced_calls);
    report.set("comm.bytes_per_call", bytes as f64 / untraced_calls);
    report.set(
        "comm.pingpong_rtt_8b_us",
        layers::pingpong_rtt_us(1, 500, 5),
    );
    report.set(
        "comm.pingpong_rtt_1mib_us",
        layers::pingpong_rtt_us(1 << 17, 20, 5),
    );
    report.set("comm.universe_spawn_us", layers::universe_spawn_us(50));
    report.set(
        "comm.recv_wait_share",
        ratio(wait_ns as f64, active_ns as f64),
    );
    report.set("comm.recv_wait_max_ms", wait_max_ns as f64 / 1e6);
    let (dist, asm): (Vec<f64>, Vec<f64>) = setup
        .cases
        .iter()
        .map(|case| {
            let ops = &setup.operands[case.operands];
            layers::distribute_assemble_ms(&case.spec, &ops.a, &ops.b, &ops.reference, 5)
        })
        .unzip();
    report.set("core.distribute_ms", mean(&dist));
    report.set("core.assemble_ms", mean(&asm));
    report.set("core.stage_ms.horizontal_a", mean(&stage_ms[0]));
    report.set("core.stage_ms.vertical_b", mean(&stage_ms[1]));
    report.set("core.stage_ms.compute", mean(&stage_ms[2]));
    report.set("core.overhead_share", 1.0 - busy_share);
    let entry_ms = |e: Entry| mean(&untraced_ms[e as usize]);
    report.set("core.oneshot_ms", entry_ms(Entry::OneShot));
    report.set("core.panelled_ms", entry_ms(Entry::Panelled));
    report.set("core.abft_ms", entry_ms(Entry::Abft));
    let abft_overhead = if plan.entries.contains(&Entry::Abft) {
        entry_ms(Entry::Abft) / entry_ms(Entry::OneShot) - 1.0
    } else {
        0.0
    };
    report.set("core.abft_overhead", abft_overhead);
    report.set(
        "partition.build_us",
        layers::partition_build_us(plan.sizes, &SPEEDS, 200),
    );
    report.set("trace.overhead_share", paired_traced / paired_plain - 1.0);
    report.set(
        "trace.spans_per_op",
        ratio(spans as f64, traced_calls as f64),
    );
    report.note(format!(
        "traced run: {rotations} rotation(s), {} untraced + {traced_calls} traced calls, {} distinct issued kernel shapes",
        untraced_calls, issued.len()
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_product_with_one_flipped_element_is_counted_as_failed() {
        let setup = Setup::new(&SMALL, 3).expect("set-up succeeds");
        let (case, ops, _) = setup.op(&SMALL, 0);
        let out = call(Entry::OneShot, case, ops, None).expect("multiply succeeds");
        assert!(product_ok(&out.c, &ops.reference));
        let mut flipped = out.c.clone();
        let v = flipped.get(5, 7);
        flipped.set(5, 7, f64::from_bits(v.to_bits() ^ (1 << 52)));
        assert!(!product_ok(&flipped, &ops.reference));
        let mut poisoned = out.c;
        poisoned.set(0, 0, f64::NAN);
        assert!(!product_ok(&poisoned, &ops.reference));
    }

    #[test]
    fn undisturbed_rotations_are_the_calm_ones_or_the_least_stolen_quarter() {
        let rot = |steal| Rotation {
            secs: 1.0,
            flops: 1.0,
            latencies: vec![1.0],
            steal,
        };
        let steals = |kept: Vec<&Rotation>| kept.iter().map(|r| r.steal).collect::<Vec<_>>();
        let mostly_calm: Vec<Rotation> = [0.0, 0.2, 0.0, 0.005].map(rot).into();
        assert_eq!(steals(undisturbed(&mostly_calm)), [0.0, 0.0, 0.005]);
        let stormy: Vec<Rotation> = [0.3, 0.1, 0.2, 0.05, 0.4].map(rot).into();
        assert_eq!(steals(undisturbed(&stormy)), [0.05, 0.1]);
    }

    #[test]
    fn every_entry_point_matches_the_reference() {
        let setup = Setup::new(&SMALL, 5).expect("set-up succeeds");
        for i in 0..SMALL.entries.len() {
            let (case, ops, entry) = setup.op(&SMALL, i);
            let out = call(entry, case, ops, None).expect("call succeeds");
            assert!(product_ok(&out.c, &ops.reference), "{entry:?}");
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let x = Setup::new(&SMALL, 9).expect("set-up succeeds");
        let y = Setup::new(&SMALL, 9).expect("set-up succeeds");
        let z = Setup::new(&SMALL, 10).expect("set-up succeeds");
        assert_eq!(x.operands[0].a, y.operands[0].a);
        assert_ne!(x.operands[0].a, z.operands[0].a);
    }
}
