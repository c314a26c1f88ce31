//! Running SummaGen end-to-end on real matrices, with optional recovery
//! from rank failures.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use summagen_comm::{
    Backend, ClockSnapshot, CommResult, Communicator, CostModel, EventSink, FailureCause,
    FaultPlan, HeartbeatConfig, HockneyModel, LinkPlan, RankFailure, TrafficStats, Universe,
    ZeroCost, DEFAULT_RECV_TIMEOUT,
};
use summagen_matrix::{rank_thread_budget, with_thread_budget, DenseMatrix, GemmKernel};
use summagen_partition::{
    beaumont_column_layout, proportional_areas, PartitionSpec, ProcBlock, Shape,
};

use crate::rankdata::{assemble, distribute, RankMatrices};
use crate::stages::{horizontal_a, local_compute, vertical_b, StageData, Workspace};

/// How local computations execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Real numeric execution with the given kernel.
    #[default]
    Real,
    /// Real numeric execution with an explicit kernel choice.
    RealWith(GemmKernel),
}

impl ExecutionMode {
    pub(crate) fn kernel(&self) -> GemmKernel {
        match self {
            ExecutionMode::Real => GemmKernel::default(),
            ExecutionMode::RealWith(k) => *k,
        }
    }
}

/// The outcome of a numeric SummaGen run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The assembled product `C = A × B`.
    pub c: DenseMatrix,
    /// Per-rank virtual-clock snapshots.
    pub clocks: Vec<ClockSnapshot>,
    /// Per-rank traffic counters.
    pub traffic: Vec<TrafficStats>,
    /// Parallel execution time: max over ranks of final virtual time.
    pub exec_time: f64,
    /// Max over ranks of attributed computation time.
    pub comp_time: f64,
    /// Max over ranks of attributed communication time.
    pub comm_time: f64,
    /// Populated by [`multiply_with_recovery`] when at least one retry was
    /// needed; `None` for undisturbed runs.
    pub recovery: Option<RecoveryReport>,
}

/// Multiplies `A × B` with SummaGen under the given partition, with free
/// communication (pure correctness run).
///
/// # Panics
///
/// Panics if any rank fails (a bug in the worker closure, not an expected
/// condition — no faults are injected on this path). Callers that need to
/// handle failure as a value should use [`multiply_with_recovery`].
///
/// ```
/// use summagen_core::{multiply, ExecutionMode};
/// use summagen_matrix::{random_matrix, DenseMatrix};
/// use summagen_partition::{proportional_areas, Shape};
///
/// let n = 32;
/// let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
/// let spec = Shape::SquareCorner.build(n, &areas);
/// let a = DenseMatrix::identity(n);
/// let b = random_matrix(n, n, 7);
/// let result = multiply(&spec, &a, &b, ExecutionMode::Real);
/// // I × B = B, computed across three rank threads.
/// assert!(summagen_matrix::approx_eq(&result.c, &b, 1e-12));
/// ```
pub fn multiply(
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    mode: ExecutionMode,
) -> RunResult {
    run_real(spec, a, b, mode, ZeroCost, None)
}

/// Multiplies `A × B` with SummaGen, pricing communication with a Hockney
/// model so the virtual clocks report realistic times.
pub fn multiply_with_cost(
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    mode: ExecutionMode,
    cost: HockneyModel,
) -> RunResult {
    run_real(spec, a, b, mode, cost, None)
}

/// Like [`multiply_with_cost`] but reporting every runtime event — sends,
/// receives, collectives, per-block GEMMs (with measured kernel times),
/// stages — to `sink`. Use a `summagen_trace::TraceRecorder` as the sink
/// to get Perfetto export and critical-path analysis of the real run.
///
/// # Panics
/// Panics if any rank fails, like [`multiply`].
pub fn multiply_traced(
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    mode: ExecutionMode,
    cost: impl CostModel,
    sink: Arc<dyn EventSink>,
) -> RunResult {
    run_real(spec, a, b, mode, cost, Some(sink))
}

fn run_real(
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    mode: ExecutionMode,
    cost: impl CostModel,
    sink: Option<Arc<dyn EventSink>>,
) -> RunResult {
    let opts = RecoveryOptions::default();
    run_attempt(spec, a, b, cost, &opts, None, sink, |comm, data| {
        Ok((one_shot_rank(comm, spec, data, mode.kernel())?, ()))
    })
    .unwrap_or_else(|failure| panic!("rank panicked: {failure}"))
    .0
}

/// One rank of a one-shot run: the three SummaGen stages over real blocks.
fn one_shot_rank(
    comm: &Communicator,
    spec: &PartitionSpec,
    data: &RankMatrices,
    kernel: GemmKernel,
) -> CommResult<RankBlocks> {
    let rank = comm.rank();
    let mut state = StageData::Real {
        data,
        ws: Workspace::for_rank(spec, rank),
        kernel,
    };
    horizontal_a(comm, spec, rank, &mut state)?;
    vertical_b(comm, spec, rank, &mut state)?;
    // Real runs do not model device speeds: computation advances the
    // clock by zero (timing studies use `simulate`).
    let (blocks, _flops) = local_compute(comm, spec, rank, &mut state, |_| 0.0);
    Ok(blocks)
}

/// One rank's `C` blocks with their placement.
pub(crate) type RankBlocks = Vec<(ProcBlock, DenseMatrix)>;

/// One fallible execution attempt over a fixed partition, shared by the
/// one-shot, panelled and checksummed executors: distributes `A` and `B`,
/// runs `rank_body` on every rank of a universe built from `opts` (lossy
/// links, heartbeat, receive timeout, metrics, wire) plus `faults` and
/// `sink`, and assembles the product. A dying rank surfaces as
/// `Err(RankFailure)` instead of a panic or a silent hang. Each rank's
/// extra result is returned alongside, in rank order.
///
/// The ranks share this host's cores, so each rank body runs under a
/// kernel-thread budget of `max(1, cores / nprocs)`
/// ([`summagen_matrix::rank_thread_budget`]): ranks × kernel threads
/// never exceed the cores. This is the one place core starts ranks that
/// run real GEMMs; the panelled executor launches through it too.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_attempt<X: Send>(
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    cost: impl CostModel,
    opts: &RecoveryOptions,
    faults: Option<FaultPlan>,
    sink: Option<Arc<dyn EventSink>>,
    rank_body: impl Fn(&Communicator, &RankMatrices) -> CommResult<(RankBlocks, X)> + Sync,
) -> Result<(RunResult, Vec<X>), RankFailure> {
    let rank_data = distribute(spec, a, b);
    let mut universe = Universe::new(spec.nprocs, cost)
        .recv_timeout(opts.recv_timeout)
        .with_backend(opts.backend);
    if let Some(plan) = faults {
        universe = universe.with_faults(plan);
    }
    if let Some(plan) = opts.link_plan.clone() {
        universe = universe.with_link_plan(plan);
    }
    if let Some(hb) = opts.heartbeat {
        universe = universe.with_heartbeat(hb);
    }
    if let Some(m) = opts.metrics.clone() {
        universe = universe.with_metrics(m);
    }
    if let Some(sink) = sink {
        universe = universe.with_event_sink(sink);
    }
    let budget = rank_thread_budget(spec.nprocs);
    let results = universe.try_run(|comm| {
        let (blocks, extra) =
            with_thread_budget(budget, || rank_body(&comm, &rank_data[comm.rank()]))?;
        Ok((blocks, extra, comm.clock_snapshot(), comm.traffic()))
    })?;

    let mut blocks = Vec::with_capacity(spec.nprocs);
    let mut extras = Vec::with_capacity(spec.nprocs);
    let mut clocks = Vec::with_capacity(spec.nprocs);
    let mut traffic = Vec::with_capacity(spec.nprocs);
    for (b, x, c, t) in results {
        blocks.push(b);
        extras.push(x);
        clocks.push(c);
        traffic.push(t);
    }
    let c = assemble(spec, &blocks);
    let exec_time = clocks.iter().map(|c| c.now).fold(0.0, f64::max);
    let comp_time = clocks.iter().map(|c| c.comp_time).fold(0.0, f64::max);
    let comm_time = clocks.iter().map(|c| c.comm_time).fold(0.0, f64::max);
    let run = RunResult {
        c,
        clocks,
        traffic,
        exec_time,
        comp_time,
        comm_time,
        recovery: None,
    };
    Ok((run, extras))
}

/// Policy knobs for [`multiply_with_recovery`].
#[derive(Debug, Clone)]
pub struct RecoveryOptions {
    /// Maximum number of executions (the first try plus retries).
    pub max_attempts: usize,
    /// Virtual-clock seconds charged per retry, modelling failure
    /// detection plus restart of the surviving ranks.
    pub retry_backoff: f64,
    /// Receive timeout applied to every attempt. Tests injecting faults
    /// should use milliseconds so deadlocks resolve quickly.
    pub recv_timeout: Duration,
    /// Lossy-link plan applied to every attempt: sends go through the
    /// seeded transport (retransmission, duplicate suppression, in-order
    /// reassembly), and any configured silent hangs fire. `None` (the
    /// default) runs on perfectly reliable links.
    pub link_plan: Option<LinkPlan>,
    /// Heartbeat failure-detector configuration applied to every
    /// attempt. Required to recover from *silent* hangs — without it a
    /// hung rank only surfaces as a receive timeout at its peers.
    pub heartbeat: Option<HeartbeatConfig>,
    /// Aggregate-metrics bundle shared by every attempt: transport
    /// delivery/retransmit/duplicate counters, heartbeat ticks and
    /// suspicion latencies accumulate here across retries. `None` (the
    /// default) skips metrics entirely.
    pub metrics: Option<Arc<summagen_metrics::RuntimeMetrics>>,
    /// Wire between ranks for every attempt: in-process channels (the
    /// default, bit-identical to the historical runtime) or loopback
    /// TCP. Each attempt gets a fresh transport, so TCP fault injectors
    /// (refused connects, resets, stalls) re-fire per attempt.
    pub backend: Backend,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            retry_backoff: 0.5,
            recv_timeout: DEFAULT_RECV_TIMEOUT,
            link_plan: None,
            heartbeat: None,
            metrics: None,
            backend: Backend::Channel,
        }
    }
}

/// What [`multiply_with_recovery`] did to complete a run.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Total executions performed (1 = no failure observed).
    pub attempts: usize,
    /// Device indices (into the caller's `rel_speeds`) dropped after they
    /// were identified as failure root causes.
    pub failed_devices: Vec<usize>,
    /// Device indices that performed the successful attempt.
    pub surviving_devices: Vec<usize>,
    /// Fraction of the `C` area each surviving device computed in the
    /// successful attempt (sums to 1).
    pub final_loads: Vec<f64>,
    /// Virtual seconds added to `exec_time` by retry backoff.
    pub backoff_time: f64,
    /// Failure causes observed across the failed attempts, keyed by
    /// [`summagen_comm::FailureCause::kind_label`] and sorted by label.
    /// Every abnormal rank of every failed attempt contributes one count,
    /// so victims (`peer-failed`, `timeout`) appear alongside root causes.
    pub failure_causes: Vec<(String, usize)>,
    /// Fraction of the plan's k-dimension the successful attempt had to
    /// execute: always 1.0 here (full restart). The checkpointed
    /// executor ([`crate::multiply_abft`]) reports less when it resumes
    /// mid-plan, which makes the two recovery styles comparable from
    /// artifacts.
    pub recompute_fraction: f64,
    /// Abnormal ranks across failed attempts whose death was *announced*
    /// — a panic, injected kill, or typed error posted a death notice.
    pub announced_failures: usize,
    /// Abnormal ranks across failed attempts whose death was *detected*
    /// by heartbeat suspicion (silent hangs): nobody announced anything,
    /// the watchdog noticed the silence.
    pub detected_failures: usize,
    /// Largest heartbeat detection latency observed across detected
    /// failures, wall-clock seconds (0 when nothing was detected).
    pub max_detection_latency: f64,
}

/// Collapses a cause tally into the sorted `(label, count)` form stored
/// in [`RecoveryReport::failure_causes`].
fn cause_counts(tally: &std::collections::BTreeMap<String, usize>) -> Vec<(String, usize)> {
    tally.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Why [`multiply_with_recovery`] gave up.
#[derive(Debug)]
pub enum RecoveryError {
    /// The attempt budget ran out; `last` is the terminal failure.
    AttemptsExhausted {
        /// Executions performed.
        attempts: usize,
        /// The failure that ended the final attempt.
        last: RankFailure,
    },
    /// Every device was identified as a failure root cause.
    AllDevicesFailed {
        /// Executions performed.
        attempts: usize,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::AttemptsExhausted { attempts, last } => {
                write!(f, "recovery gave up after {attempts} attempts: {last}")
            }
            RecoveryError::AllDevicesFailed { attempts } => {
                write!(f, "all devices failed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Builds a partition for the surviving device set: the requested paper
/// shape while three devices remain (the shapes are three-processor
/// constructions), otherwise Beaumont's column-based layout, which handles
/// any processor count including one.
pub(crate) fn survivor_spec(shape: Shape, n: usize, speeds: &[f64]) -> PartitionSpec {
    if speeds.len() == 3 {
        shape.build(n, &proportional_areas(n, speeds))
    } else {
        beaumont_column_layout(n, speeds)
    }
}

/// Multiplies `A × B` with SummaGen, recovering from rank failures by
/// re-partitioning over the surviving devices — the ULFM-style
/// shrink-and-retry strategy.
///
/// Each attempt `i` runs under `attempt_faults[i]` (attempts past the end
/// of the slice run fault-free; pass `&[]` for a fully undisturbed run).
/// When an attempt fails:
///
/// * *crashed* ranks (per [`RankFailure::crashed_ranks`]: panicked,
///   kill-injected, or named dead by a peer — excluding ranks that merely
///   starved on a timeout) map back to devices, which are removed from
///   the pool before the matrix is re-partitioned over the survivors;
/// * if nobody crashed but a rank reported a peer `Unreachable` (the
///   transport exhausted its wire budget against it), the *blamed* peer's
///   device is shrunk out — a dead link fails identically on replay;
/// * failures identifying no crashed rank (timeouts, dropped messages)
///   retry the same device set unchanged;
/// * every retry charges `opts.retry_backoff` virtual seconds, added to
///   the final `exec_time` (the failed attempt's own clocks are lost with
///   its universe).
///
/// On success, `RunResult::recovery` is `Some` iff at least one retry
/// happened. Errors only when the attempt budget is exhausted or no
/// devices remain.
#[allow(clippy::too_many_arguments)]
pub fn multiply_with_recovery(
    shape: Shape,
    rel_speeds: &[f64],
    a: &DenseMatrix,
    b: &DenseMatrix,
    mode: ExecutionMode,
    cost: impl CostModel + Clone,
    attempt_faults: &[FaultPlan],
    opts: &RecoveryOptions,
) -> Result<RunResult, RecoveryError> {
    assert_eq!(a.rows(), b.rows(), "A and B must share dimension n");
    let kernel = mode.kernel();
    let (run, _) = shrink_and_retry(
        shape,
        rel_speeds,
        a.rows(),
        attempt_faults,
        opts,
        |spec, faults| {
            run_attempt(
                spec,
                a,
                b,
                cost.clone(),
                opts,
                faults,
                None,
                |comm, data| Ok((one_shot_rank(comm, spec, data, kernel)?, ())),
            )
        },
    )?;
    Ok(run)
}

/// The shrink-and-retry loop behind [`multiply_with_recovery`] and
/// [`crate::multiply_abft`], following the policy documented on
/// [`multiply_with_recovery`]: runs `attempt` over the partition of the
/// surviving devices, with attempt `i`'s entry of `attempt_faults`, until
/// one succeeds or the budget or the devices run out. The successful
/// result's `exec_time` carries the retry backoff, and its `recovery`
/// report (present iff a retry happened) says `recompute_fraction` 1.0 —
/// callers that resume from a checkpoint overwrite it.
pub(crate) fn shrink_and_retry<X>(
    shape: Shape,
    rel_speeds: &[f64],
    n: usize,
    attempt_faults: &[FaultPlan],
    opts: &RecoveryOptions,
    mut attempt: impl FnMut(&PartitionSpec, Option<FaultPlan>) -> Result<(RunResult, X), RankFailure>,
) -> Result<(RunResult, X), RecoveryError> {
    assert!(!rel_speeds.is_empty(), "need at least one device");
    assert!(opts.max_attempts > 0, "need at least one attempt");
    let mut devices: Vec<usize> = (0..rel_speeds.len()).collect();
    let mut failed_devices: Vec<usize> = Vec::new();
    let mut causes: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut announced_failures = 0usize;
    let mut detected_failures = 0usize;
    let mut max_detection_latency = 0.0f64;
    let mut attempts = 0;
    loop {
        attempts += 1;
        let speeds: Vec<f64> = devices.iter().map(|&d| rel_speeds[d]).collect();
        let spec = survivor_spec(shape, n, &speeds);
        let faults = attempt_faults
            .get(attempts - 1)
            .filter(|p| !p.is_empty())
            .cloned();
        match attempt(&spec, faults) {
            Ok((mut result, extra)) => {
                let backoff_time = (attempts - 1) as f64 * opts.retry_backoff;
                result.exec_time += backoff_time;
                if attempts > 1 {
                    let area = (n * n) as f64;
                    result.recovery = Some(RecoveryReport {
                        attempts,
                        failed_devices: failed_devices.clone(),
                        surviving_devices: devices.clone(),
                        final_loads: spec.areas().iter().map(|&a| a as f64 / area).collect(),
                        backoff_time,
                        failure_causes: cause_counts(&causes),
                        // Full restart: the retry recomputed everything.
                        recompute_fraction: 1.0,
                        announced_failures,
                        detected_failures,
                        max_detection_latency,
                    });
                }
                return Ok((result, extra));
            }
            Err(failure) => {
                for fr in &failure.failed {
                    *causes.entry(fr.cause.kind_label().to_string()).or_default() += 1;
                    if let FailureCause::DetectedHang {
                        detection_latency, ..
                    } = &fr.cause
                    {
                        detected_failures += 1;
                        max_detection_latency = max_detection_latency.max(*detection_latency);
                    } else {
                        announced_failures += 1;
                    }
                }
                if attempts >= opts.max_attempts {
                    return Err(RecoveryError::AttemptsExhausted {
                        attempts,
                        last: failure,
                    });
                }
                let mut roots = failure.crashed_ranks();
                if roots.is_empty() {
                    // Nobody crashed outright, but a peer that exhausted
                    // the transport's wire budget sits behind a dead link:
                    // replaying the same device set replays the same
                    // exhaustion, so shrink the blamed peer out instead.
                    roots = failure.unreachable_peers();
                }
                if roots.is_empty() {
                    // Timeouts without an identified crash: nothing to
                    // shrink, so retry the same device set.
                    continue;
                }
                let mut dropped: Vec<usize> = roots.iter().map(|&r| devices[r]).collect();
                devices.retain(|d| !dropped.contains(d));
                failed_devices.append(&mut dropped);
                if devices.is_empty() {
                    return Err(RecoveryError::AllDevicesFailed { attempts });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_matrix::{approx_eq, gemm_naive, gemm_tolerance, random_matrix};
    use summagen_partition::{proportional_areas, Shape, ALL_FOUR_SHAPES};

    fn reference(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
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

    fn fig1a() -> PartitionSpec {
        PartitionSpec::new(
            vec![0, 1, 1, 1, 1, 1, 1, 1, 2],
            vec![9, 3, 4],
            vec![9, 3, 4],
            3,
        )
    }

    #[test]
    fn fig1a_produces_correct_product() {
        let a = random_matrix(16, 16, 1);
        let b = random_matrix(16, 16, 2);
        let res = multiply(&fig1a(), &a, &b, ExecutionMode::Real);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(16) * 100.0
        ));
    }

    #[test]
    fn all_four_shapes_produce_correct_products() {
        let n = 48;
        let a = random_matrix(n, n, 3);
        let b = random_matrix(n, n, 4);
        let want = reference(&a, &b);
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        for shape in ALL_FOUR_SHAPES {
            let spec = shape.build(n, &areas);
            let res = multiply(&spec, &a, &b, ExecutionMode::Real);
            assert!(
                approx_eq(&res.c, &want, gemm_tolerance(n) * 100.0),
                "{} wrong",
                shape.name()
            );
        }
    }

    #[test]
    fn extension_shapes_produce_correct_products() {
        let n = 40;
        let a = random_matrix(n, n, 5);
        let b = random_matrix(n, n, 6);
        let want = reference(&a, &b);
        let areas = proportional_areas(n, &[2.0, 1.0, 0.5]);
        for shape in [Shape::RectangleCorner, Shape::LRectangle] {
            let spec = shape.build(n, &areas);
            let res = multiply(&spec, &a, &b, ExecutionMode::Real);
            assert!(
                approx_eq(&res.c, &want, gemm_tolerance(n) * 100.0),
                "{} wrong",
                shape.name()
            );
        }
    }

    #[test]
    fn identity_times_identity() {
        let n = 32;
        let id = DenseMatrix::identity(n);
        let areas = proportional_areas(n, &[1.0, 1.0, 1.0]);
        let spec = Shape::SquareCorner.build(n, &areas);
        let res = multiply(&spec, &id, &id, ExecutionMode::Real);
        assert!(approx_eq(&res.c, &id, 1e-12));
    }

    #[test]
    fn single_processor_partition_works() {
        let n = 20;
        let spec = PartitionSpec::new(vec![0], vec![n], vec![n], 1);
        let a = random_matrix(n, n, 7);
        let b = random_matrix(n, n, 8);
        let res = multiply(&spec, &a, &b, ExecutionMode::Real);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
        // One rank => no messages at all.
        assert_eq!(res.traffic[0].msgs_sent, 0);
    }

    #[test]
    fn many_processor_one_d_partition() {
        let n = 60;
        let areas: Vec<f64> = vec![600.0; 6];
        let spec = Shape::OneDRectangular.build(n, &areas);
        let a = random_matrix(n, n, 9);
        let b = random_matrix(n, n, 10);
        let res = multiply(&spec, &a, &b, ExecutionMode::Real);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
    }

    #[test]
    fn hockney_cost_produces_nonzero_comm_time() {
        let n = 32;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let spec = Shape::SquareRectangle.build(n, &areas);
        let a = random_matrix(n, n, 11);
        let b = random_matrix(n, n, 12);
        let res = multiply_with_cost(
            &spec,
            &a,
            &b,
            ExecutionMode::Real,
            HockneyModel {
                alpha: 1e-5,
                beta: 1e-9,
            },
        );
        assert!(res.comm_time > 0.0);
        assert!(res.exec_time >= res.comm_time);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
        // Every rank moved some bytes.
        for t in &res.traffic {
            assert!(t.bytes_sent + t.bytes_recv > 0);
        }
    }

    #[test]
    fn all_kernels_agree_through_summagen() {
        // Inside a 3-rank universe the kernel-thread budget is
        // max(1, cores / 3), so on a host with fewer than 6 cores
        // `Parallel` runs on one thread here; the row-band split itself
        // is pinned by `gemm::tests::parallel_is_bit_identical_to_blocked`.
        let n = 160;
        let speeds = [1.0, 1.5, 0.7];
        let spec = Shape::BlockRectangle.build(n, &proportional_areas(n, &speeds));
        let a = random_matrix(n, n, 13);
        let b = random_matrix(n, n, 14);
        let want = reference(&a, &b);
        let one_shot = |k| multiply(&spec, &a, &b, ExecutionMode::RealWith(k)).c;
        let panelled = |k| crate::multiply_panelled(&spec, &a, &b, k).c;
        let checksummed = |k| {
            let mode = ExecutionMode::RealWith(k);
            let opts = RecoveryOptions::default();
            let abft = crate::AbftOptions::default();
            crate::multiply_abft(
                Shape::BlockRectangle,
                &speeds,
                &a,
                &b,
                mode,
                ZeroCost,
                &[],
                &opts,
                &abft,
            )
            .expect("fault-free protected run succeeds")
            .run
            .c
        };
        let paths: [(&str, &dyn Fn(GemmKernel) -> DenseMatrix); 3] = [
            ("one-shot", &one_shot),
            ("panelled", &panelled),
            ("checksummed", &checksummed),
        ];
        for (path, run) in paths {
            let [naive, blocked, parallel] =
                [GemmKernel::Naive, GemmKernel::Blocked, GemmKernel::Parallel].map(run);
            assert!(
                approx_eq(&blocked, &want, gemm_tolerance(n) * 100.0),
                "{path}"
            );
            // Naive rounds every product and sum separately; Blocked
            // fuses each multiply-add on FMA hosts. Same terms, different
            // rounding.
            assert!(
                approx_eq(&naive, &blocked, gemm_tolerance(n)),
                "{path}: naive"
            );
            // Parallel runs the blocked kernel over row bands of C and
            // never splits k; each element is the same chain of
            // multiply-adds whatever band it lands in: bit-identical.
            let same = parallel
                .as_slice()
                .iter()
                .zip(blocked.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "{path}: parallel drifted from blocked");
        }
    }

    #[test]
    fn beaumont_layout_runs_through_summagen() {
        let n = 50;
        let spec = summagen_partition::beaumont_column_layout(n, &[1.0, 2.0, 0.9, 1.5]);
        let a = random_matrix(n, n, 15);
        let b = random_matrix(n, n, 16);
        let res = multiply(&spec, &a, &b, ExecutionMode::Real);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
    }

    #[test]
    fn rank_bodies_run_under_the_rank_thread_budget() {
        use crate::panelled::{run_rank_panels, PanelCodec, PanelPayload};
        use summagen_matrix::{available_cores, thread_budget};
        let n = 24;
        let (a, b) = (random_matrix(n, n, 60), random_matrix(n, n, 61));
        let opts = RecoveryOptions::default();
        for nprocs in 1..=2 * available_cores() + 1 {
            let spec = beaumont_column_layout(n, &vec![1.0; nprocs]);
            let want = vec![(available_cores() / nprocs).max(1); nprocs];
            // The one-shot executor's rank body and the panelled
            // executor's (`multiply_panelled_with_cost`), each reporting
            // the budget it sees.
            let (_, one_shot) =
                run_attempt(&spec, &a, &b, ZeroCost, &opts, None, None, |comm, data| {
                    let blocks = one_shot_rank(comm, &spec, data, GemmKernel::Parallel)?;
                    Ok((blocks, thread_budget()))
                })
                .expect("fault-free run");
            assert_eq!(one_shot, want, "one-shot, {nprocs} ranks");
            let (_, panelled) =
                run_attempt(&spec, &a, &b, ZeroCost, &opts, None, None, |comm, data| {
                    let payload = PanelPayload::Real {
                        data,
                        kernel: GemmKernel::Parallel,
                    };
                    let (blocks, _) = run_rank_panels(
                        comm,
                        &spec,
                        payload,
                        &PanelCodec::Plain,
                        |_, _| 0.0,
                        None,
                        n,
                    )?;
                    Ok((blocks, thread_budget()))
                })
                .expect("fault-free run");
            assert_eq!(panelled, want, "panelled, {nprocs} ranks");
        }
        // The calling thread, outside any universe, keeps the core count.
        assert_eq!(thread_budget(), available_cores());
    }

    fn fast_opts() -> RecoveryOptions {
        RecoveryOptions {
            max_attempts: 3,
            retry_backoff: 0.25,
            recv_timeout: Duration::from_millis(500),
            ..Default::default()
        }
    }

    #[test]
    fn undisturbed_recovery_run_reports_no_recovery() {
        let n = 32;
        let a = random_matrix(n, n, 21);
        let b = random_matrix(n, n, 22);
        let res = multiply_with_recovery(
            Shape::SquareCorner,
            &[1.0, 2.0, 0.9],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &[],
            &fast_opts(),
        )
        .expect("fault-free run succeeds");
        assert!(res.recovery.is_none());
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
    }

    #[test]
    fn recovery_drops_killed_rank_and_repartitions() {
        let n = 32;
        let a = random_matrix(n, n, 23);
        let b = random_matrix(n, n, 24);
        let plan = FaultPlan::new().kill_rank(1, 2);
        let res = multiply_with_recovery(
            Shape::SquareCorner,
            &[1.0, 2.0, 0.9],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &[plan],
            &fast_opts(),
        )
        .expect("recovery succeeds after dropping the dead rank");
        let rep = res.recovery.as_ref().expect("a retry happened");
        assert_eq!(rep.attempts, 2);
        assert_eq!(rep.failed_devices, vec![1]);
        assert_eq!(rep.surviving_devices, vec![0, 2]);
        assert_eq!(rep.final_loads.len(), 2);
        assert!((rep.final_loads.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((rep.backoff_time - 0.25).abs() < 1e-12);
        // The killed rank contributes an injected-kill count; survivors
        // that resigned appear as victims. Full restart => fraction 1.
        assert!(rep
            .failure_causes
            .iter()
            .any(|(label, count)| label == "injected-kill" && *count == 1));
        assert!((rep.recompute_fraction - 1.0).abs() < 1e-12);
        assert!(res.exec_time >= 0.25);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
    }

    #[test]
    fn recovery_survives_cascading_failures_down_to_one_device() {
        let n = 30;
        let a = random_matrix(n, n, 25);
        let b = random_matrix(n, n, 26);
        // Attempt 1 kills rank 0 (3 devices), attempt 2 kills rank 1 of
        // the shrunken 2-device universe.
        let faults = vec![
            FaultPlan::new().kill_rank(0, 1),
            FaultPlan::new().kill_rank(1, 1),
        ];
        let res = multiply_with_recovery(
            Shape::BlockRectangle,
            &[1.0, 2.0, 0.9],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &faults,
            &fast_opts(),
        )
        .expect("recovery succeeds on the last surviving device");
        let rep = res.recovery.as_ref().expect("retries happened");
        assert_eq!(rep.attempts, 3);
        assert_eq!(rep.failed_devices, vec![0, 2]);
        assert_eq!(rep.surviving_devices, vec![1]);
        assert_eq!(rep.final_loads, vec![1.0]);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
    }

    #[test]
    fn recovery_exhausts_attempt_budget_with_typed_error() {
        let n = 24;
        let a = random_matrix(n, n, 27);
        let b = random_matrix(n, n, 28);
        // Kill a rank on every attempt the budget allows.
        let faults = vec![
            FaultPlan::new().kill_rank(0, 0),
            FaultPlan::new().kill_rank(0, 0),
        ];
        let opts = RecoveryOptions {
            max_attempts: 2,
            ..fast_opts()
        };
        let err = multiply_with_recovery(
            Shape::SquareCorner,
            &[1.0, 2.0, 0.9],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &faults,
            &opts,
        )
        .expect_err("budget of 2 cannot absorb 2 failing attempts");
        match err {
            RecoveryError::AttemptsExhausted { attempts, last } => {
                assert_eq!(attempts, 2);
                assert_eq!(last.root_failed_ranks(), vec![0]);
            }
            other => panic!("expected AttemptsExhausted, got {other}"),
        }
    }

    #[test]
    fn recovery_retries_same_devices_after_pure_timeout() {
        let n = 24;
        let a = random_matrix(n, n, 29);
        let b = random_matrix(n, n, 30);
        // Drop rank 0's first broadcast panel: the receivers time out
        // without an identified culprit, so attempt 2 reuses all three
        // devices and succeeds.
        let faults = vec![FaultPlan::new().drop_message(0, 1, 0)];
        let opts = RecoveryOptions {
            max_attempts: 2,
            retry_backoff: 0.25,
            recv_timeout: Duration::from_millis(200),
            ..Default::default()
        };
        let res = multiply_with_recovery(
            Shape::SquareCorner,
            &[1.0, 2.0, 0.9],
            &a,
            &b,
            ExecutionMode::Real,
            ZeroCost,
            &faults,
            &opts,
        )
        .expect("retry after timeout succeeds");
        let rep = res.recovery.as_ref().expect("a retry happened");
        assert_eq!(rep.attempts, 2);
        assert!(rep.failed_devices.is_empty());
        assert_eq!(rep.surviving_devices, vec![0, 1, 2]);
        assert!(approx_eq(
            &res.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use summagen_matrix::{approx_eq, gemm_naive, gemm_tolerance, random_matrix};
    use summagen_partition::{proportional_areas, ALL_FOUR_SHAPES};

    fn reference(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
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

    /// A random valid partition spec: random grid cuts and random owners
    /// (repaired so every processor owns something).
    fn random_spec(n: usize, p: usize, seed: u64) -> PartitionSpec {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cuts = |total: usize, parts: usize, rng: &mut rand::rngs::StdRng| -> Vec<usize> {
            // parts-1 distinct interior cut points.
            let mut points: Vec<usize> = (1..total).collect();
            points.shuffle(rng);
            let mut chosen: Vec<usize> = points.into_iter().take(parts - 1).collect();
            chosen.sort_unstable();
            let mut sizes = Vec::with_capacity(parts);
            let mut prev = 0;
            for c in chosen {
                sizes.push(c - prev);
                prev = c;
            }
            sizes.push(total - prev);
            sizes
        };
        let gr = rng.random_range(1..=4.min(n));
        let gc = rng.random_range(1..=4.min(n));
        let heights = cuts(n, gr, &mut rng);
        let widths = cuts(n, gc, &mut rng);
        let cells = gr * gc;
        let p = p.min(cells);
        let mut owners: Vec<usize> = (0..cells).map(|_| rng.random_range(0..p)).collect();
        // Repair: give each processor at least one cell.
        for proc in 0..p {
            if !owners.contains(&proc) {
                let idx = rng.random_range(0..cells);
                owners[idx] = proc;
            }
        }
        // Second repair pass in case repairs overwrote each other.
        for proc in 0..p {
            if !owners.contains(&proc) {
                let victim = owners
                    .iter()
                    .position(|&o| owners.iter().filter(|&&x| x == o).count() > 1)
                    .unwrap();
                owners[victim] = proc;
            }
        }
        PartitionSpec::new(owners, heights, widths, p)
    }

    /// One zero-fault attempt of the panel loop over `spec` with the plain
    /// or the checksummed codec, from `resume` up to `stop_k`.
    fn panel_run(
        spec: &PartitionSpec,
        a: &DenseMatrix,
        b: &DenseMatrix,
        checksummed: bool,
        resume: Option<&crate::PanelCheckpoint>,
        stop_k: usize,
    ) -> RunResult {
        use crate::panelled::{run_rank_panels, PanelCodec, PanelPayload};
        let abft = crate::AbftOptions::default();
        let store =
            crate::abft::CheckpointStore::new(spec.nprocs, spec.n, abft.checkpoint_budget_bytes);
        let codec = if checksummed {
            PanelCodec::Checksummed {
                opts: &abft,
                store: &store,
            }
        } else {
            PanelCodec::Plain
        };
        let opts = RecoveryOptions::default();
        run_attempt(spec, a, b, ZeroCost, &opts, None, None, |comm, data| {
            let payload = PanelPayload::Real {
                data,
                kernel: GemmKernel::Blocked,
            };
            run_rank_panels(comm, spec, payload, &codec, |_, _| 0.0, resume, stop_k)
        })
        .expect("zero-fault attempt succeeds")
        .0
    }

    fn same_bits(x: &DenseMatrix, y: &DenseMatrix) -> bool {
        x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// SummaGen computes the correct product for *arbitrary* valid
        /// partition specs — not just the four named shapes.
        #[test]
        fn arbitrary_specs_are_correct(n in 8usize..40, p in 1usize..5, seed in 0u64..10_000) {
            let spec = random_spec(n, p, seed);
            let a = random_matrix(n, n, seed.wrapping_add(1));
            let b = random_matrix(n, n, seed.wrapping_add(2));
            let res = multiply(&spec, &a, &b, ExecutionMode::Real);
            prop_assert!(approx_eq(&res.c, &reference(&a, &b), gemm_tolerance(n) * 100.0));
        }

        /// The plain panel loop computes what the one-shot stages compute,
        /// on arbitrary valid partition specs.
        #[test]
        fn panelled_matches_one_shot_on_arbitrary_specs(n in 8usize..40, p in 1usize..5, seed in 0u64..10_000) {
            let spec = random_spec(n, p, seed);
            let a = random_matrix(n, n, seed.wrapping_add(1));
            let b = random_matrix(n, n, seed.wrapping_add(2));
            let one_shot = multiply(&spec, &a, &b, ExecutionMode::RealWith(GemmKernel::Blocked));
            let plain = crate::multiply_panelled(&spec, &a, &b, GemmKernel::Blocked);
            prop_assert!(approx_eq(&plain.c, &one_shot.c, gemm_tolerance(n) * 100.0));
        }

        /// Checksums ride along without touching the data region: a
        /// zero-fault checksummed run is bit-identical to the plain one.
        #[test]
        fn checksummed_equals_plain_on_arbitrary_specs(n in 8usize..40, p in 1usize..5, seed in 0u64..10_000) {
            let spec = random_spec(n, p, seed);
            let a = random_matrix(n, n, seed.wrapping_add(1));
            let b = random_matrix(n, n, seed.wrapping_add(2));
            let plain = crate::multiply_panelled(&spec, &a, &b, GemmKernel::Blocked);
            let checked = panel_run(&spec, &a, &b, true, None, n);
            prop_assert!(same_bits(&checked.c, &plain.c));
        }

        /// The phantom simulation moves exactly the messages and bytes of
        /// the real plain run, rank by rank.
        #[test]
        fn phantom_traffic_equals_real_on_arbitrary_specs(n in 8usize..40, p in 1usize..5, seed in 0u64..10_000) {
            use summagen_platform::{profile::hclserver1, Platform};
            let spec = random_spec(n, p, seed);
            let a = random_matrix(n, n, seed.wrapping_add(1));
            let b = random_matrix(n, n, seed.wrapping_add(2));
            let processors = hclserver1().processors.into_iter().cycle().take(spec.nprocs);
            let platform = Platform::new(processors.collect(), 230.0);
            let phantom = crate::simulate_panelled(&spec, &platform, ZeroCost);
            let real = crate::multiply_panelled(&spec, &a, &b, GemmKernel::Blocked);
            prop_assert_eq!(phantom.traffic, real.traffic);
        }

        /// Stopping at any panel boundary and resuming from the returned
        /// prefix reproduces the uninterrupted run bit-for-bit, with
        /// either codec.
        #[test]
        fn prefix_chain_equals_uninterrupted_on_arbitrary_specs(
            n in 8usize..40,
            p in 1usize..5,
            seed in 0u64..10_000,
            split in 0usize..1_000,
        ) {
            let spec = random_spec(n, p, seed);
            let a = random_matrix(n, n, seed.wrapping_add(1));
            let b = random_matrix(n, n, seed.wrapping_add(2));
            let t = split % spec.grid_cols;
            let stop = spec.col_offset(t) + spec.widths[t];
            for checksummed in [false, true] {
                let whole = panel_run(&spec, &a, &b, checksummed, None, n);
                let head = panel_run(&spec, &a, &b, checksummed, None, stop);
                let prefix = crate::PanelCheckpoint { k: stop, c: head.c };
                let tail = panel_run(&spec, &a, &b, checksummed, Some(&prefix), n);
                prop_assert!(same_bits(&tail.c, &whole.c), "split at k = {}", stop);
            }
        }

        /// The four shapes are correct across random sizes and area mixes.
        #[test]
        fn shapes_correct_across_sizes(
            n in 9usize..48,
            s0 in 0.2f64..4.0,
            s1 in 0.2f64..4.0,
            s2 in 0.2f64..4.0,
        ) {
            let areas = proportional_areas(n, &[s0, s1, s2]);
            let a = random_matrix(n, n, 21);
            let b = random_matrix(n, n, 22);
            let want = reference(&a, &b);
            for shape in ALL_FOUR_SHAPES {
                let spec = shape.build(n, &areas);
                let res = multiply(&spec, &a, &b, ExecutionMode::Real);
                prop_assert!(
                    approx_eq(&res.c, &want, gemm_tolerance(n) * 100.0),
                    "{} wrong at n={n}", shape.name()
                );
            }
        }
    }
}
