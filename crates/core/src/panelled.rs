//! The SummaGen stage engine: one fallible panel loop behind the
//! one-shot executor, the memory-bounded panelled variant, their
//! phantom-payload simulations and the checksummed executor.
//!
//! The loop walks a *panel schedule*: a list of grid-column ranges, each
//! a slice of the inner (`k`) dimension. For panel `[t0, t1)`, ranks
//! gather the `A` blocks `(bi, t)` for `t` in the range and the `B` rows
//! of that k-range they need, then accumulate `C(bi, bj) += A(bi, ·) ·
//! B(·, bj)` for every owned sub-partition. Two schedules exist:
//!
//! * **one-shot** — one panel over every grid column: the paper's
//!   algorithm (Section IV). Stage 1 gathers whole rows of `A` into
//!   `WA`, stage 2 whole columns of `B` into `WB`, stage 3 runs one DGEMM
//!   per owned sub-partition (`height × n` by `n × width`). Its working
//!   storage per rank is `O(h·n + n·w)`.
//! * **per-column** — one panel per grid column, like SUMMA's panel loop.
//!   The same bytes travel between the same ranks, in more and smaller
//!   messages, and peak working memory drops to
//!   `O((h + w) · max_t width_t)`. Because the grid's row cuts (which
//!   partition `B`'s k-dimension) need not align with its column cuts,
//!   the matching `B` rows are gathered as *slices* of the overlapping
//!   `B` blocks.
//!
//! Broadcasts block, so communication does not overlap computation on
//! the wall clock; in virtual time a rank may run ahead into later
//! panels while a slower peer still computes earlier ones.
//!
//! Besides the schedule, the loop's inputs choose
//!
//! * the payload mode: real blocks, or size-only phantom payloads for
//!   paper-scale simulation;
//! * the codec: plain panels, or Huang–Abraham checksummed panels with
//!   checkpoints (see [`crate::abft`]);
//! * the virtual compute seconds charged per block GEMM;
//! * the k-range `[resume.k, stop_k)` to execute.
//!
//! # Panic policy
//!
//! Communication failures (a peer dying mid-broadcast, a timeout, a typed
//! payload mismatch) surface as `CommError` through the fallible
//! collective API. The `expect`s assert structural invariants that
//! [`PartitionSpec`] validation establishes before any panel runs: every
//! grid cell has exactly one owner, an owner's blocks exist in its
//! [`RankMatrices`], and a row/column participant is always a member of
//! the communicator built from its own participant list. Violating one
//! of these is a partitioner bug, not a runtime condition, so they panic.

use std::borrow::Cow;
use std::cell::Cell;
use std::ops::Range;

use summagen_comm::{
    CommError, Communicator, CostModel, Payload, SpanKind, StageLabel, Universe, ZeroCost,
};
use summagen_matrix::{copy_block, DenseMatrix, GemmKernel, GemmObserver};
use summagen_metrics::GemmTelemetry;
use summagen_partition::{PartitionSpec, ProcBlock};

use crate::abft::{self, AbftOptions, CheckpointStore, PanelCheckpoint};
use crate::executor::{run_attempt, RankBlocks, RecoveryOptions, RunResult};
use crate::rankdata::RankMatrices;

/// Label spaces of the per-panel row and column communicators.
const PANEL_ROW_LABEL_BASE: u64 = 1 << 22;
const PANEL_COL_LABEL_BASE: u64 = 1 << 23;

/// Multiplies `A × B` with the panelled SummaGen variant (free
/// communication).
///
/// # Panics
/// Panics if any rank fails, like [`crate::multiply`].
pub fn multiply_panelled(
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    kernel: GemmKernel,
) -> RunResult {
    multiply_panelled_with_cost(spec, a, b, kernel, ZeroCost)
}

/// [`multiply_panelled`] with a communication cost model.
pub fn multiply_panelled_with_cost(
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    kernel: GemmKernel,
    cost: impl CostModel,
) -> RunResult {
    let (opts, plain) = (RecoveryOptions::default(), PanelCodec::Plain);
    run_attempt(spec, a, b, cost, &opts, None, None, |comm, data| {
        let payload = PanelPayload::Real { data, kernel };
        let cost = |_: &ProcBlock, _| 0.0;
        let schedule = Schedule::PerColumn;
        run_rank_panels(comm, spec, schedule, payload, &plain, cost, None, spec.n)
    })
    .unwrap_or_else(|failure| panic!("rank panicked: {failure}"))
    .0
}

/// Peak working-set size (elements of `WA`+`WB`-equivalents) per rank for
/// the one-shot algorithm vs the panelled variant — the memory saving
/// that motivates panelling. Returns `(one_shot, panelled)` maxima over
/// ranks.
pub fn peak_workspace_elems(spec: &PartitionSpec) -> (usize, usize) {
    (0..spec.nprocs)
        .map(|rank| workspace_elems(spec, rank))
        .fold((0, 0), |(o, p), (ro, rp)| (o.max(ro), p.max(rp)))
}

/// `rank`'s working-set size under the one-shot and the per-column
/// schedule: the `A` rows and `B` columns it gathers, `n` deep for the
/// one-shot panel and as deep as the widest grid column otherwise.
fn workspace_elems(spec: &PartitionSpec, rank: usize) -> (usize, usize) {
    let rows: usize = (0..spec.grid_rows)
        .filter(|&bi| spec.row_contains(rank, bi))
        .map(|bi| spec.heights[bi])
        .sum();
    let cols: usize = (0..spec.grid_cols)
        .filter(|&bj| spec.col_contains(rank, bj))
        .map(|bj| spec.widths[bj])
        .sum();
    let depth = |k: usize| rows * k + k * cols;
    let max_panel = spec.widths.iter().copied().max().unwrap_or(0);
    (depth(spec.n), depth(max_panel))
}

/// Simulated-time panelled SummaGen: the panel schedule with phantom
/// payloads and device-model compute times. In virtual time a rank's
/// broadcasts of later panels can proceed while other ranks still compute
/// earlier ones.
pub fn simulate_panelled(
    spec: &PartitionSpec,
    platform: &summagen_platform::Platform,
    cost: impl CostModel,
) -> crate::simulate::SimReport {
    let universe = Universe::new(spec.nprocs, cost);
    crate::simulate::simulate_schedule(spec, platform, universe, Schedule::PerColumn).0
}

/// Which grid columns each panel of the loop gathers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Schedule {
    /// One panel over every grid column: the paper's one-shot algorithm.
    /// It is traced as the three SummaGen stages, with one `Gemm` span and
    /// one GEMM metrics record per block.
    OneShot,
    /// One panel per grid column: the memory-bounded and checksummed
    /// executors. Each panel counts one `panel_steps`.
    PerColumn,
}

impl Schedule {
    /// The grid-column range of each panel, in execution order.
    fn panels(self, spec: &PartitionSpec) -> Vec<Range<usize>> {
        match self {
            Schedule::OneShot => std::iter::once(0..spec.grid_cols).collect(),
            Schedule::PerColumn => (0..spec.grid_cols).map(|t| t..t + 1).collect(),
        }
    }
}

/// The sorted list of processors owning at least one sub-partition in grid
/// row `bi`.
fn row_participants(spec: &PartitionSpec, bi: usize) -> Vec<usize> {
    (0..spec.nprocs)
        .filter(|&p| spec.row_contains(p, bi))
        .collect()
}

/// The sorted list of processors owning at least one sub-partition in grid
/// column `bj`.
fn col_participants(spec: &PartitionSpec, bj: usize) -> Vec<usize> {
    (0..spec.nprocs)
        .filter(|&p| spec.col_contains(p, bj))
        .collect()
}

/// Where the panel loop's payloads come from.
pub(crate) enum PanelPayload<'a> {
    /// This rank's real `A` and `B` blocks, multiplied with `kernel`.
    Real {
        data: &'a RankMatrices,
        kernel: GemmKernel,
    },
    /// Size-only payloads: no element data moves, no accumulator is
    /// allocated and no GEMM runs. Pairs with [`PanelCodec::Plain`].
    Phantom,
}

/// How panels travel and how the accumulators are protected.
pub(crate) enum PanelCodec<'a> {
    /// Bare panels and accumulators.
    Plain,
    /// Huang–Abraham checksums on every panel and accumulator: panels are
    /// verified on receipt; at each panel boundary the injected
    /// block-corruption hook fires, the accumulators are verified and
    /// corrected, and a checkpoint is written to `store` when
    /// `opts.checkpoint_interval` says so. Pairs with
    /// [`Schedule::PerColumn`].
    Checksummed {
        opts: &'a AbftOptions,
        store: &'a CheckpointStore,
    },
}

impl PanelCodec<'_> {
    /// Checksum rows (and columns) the codec adds around a data block.
    fn pad(&self) -> usize {
        match self {
            PanelCodec::Plain => 0,
            PanelCodec::Checksummed { .. } => 1,
        }
    }

    /// Wire form of an `A` piece.
    fn encode_a<'m>(&self, piece: Cow<'m, DenseMatrix>) -> Cow<'m, DenseMatrix> {
        match self {
            PanelCodec::Plain => piece,
            PanelCodec::Checksummed { .. } => Cow::Owned(abft::transit_a(&piece)),
        }
    }

    /// Wire form of a `B` piece.
    fn encode_b<'m>(&self, piece: Cow<'m, DenseMatrix>) -> Cow<'m, DenseMatrix> {
        match self {
            PanelCodec::Plain => piece,
            PanelCodec::Checksummed { .. } => Cow::Owned(abft::transit_b(&piece)),
        }
    }

    /// Checks a wire piece received from a peer at panel `step`.
    fn on_receipt(
        &self,
        comm: &Communicator,
        wire: &mut DenseMatrix,
        step: usize,
        stats: &mut PanelStats,
    ) -> Result<(), CommError> {
        match self {
            PanelCodec::Plain => Ok(()),
            PanelCodec::Checksummed { opts, .. } => {
                abft::verify_received(comm, wire, step, opts, stats)
            }
        }
    }

    /// Prepares accumulators whose data regions were just loaded from a
    /// `resume_k` prefix.
    fn on_resume(
        &self,
        comm: &Communicator,
        spec: &PartitionSpec,
        acc: &mut [(ProcBlock, DenseMatrix)],
        resume_k: usize,
    ) {
        if let PanelCodec::Checksummed { opts, .. } = self {
            abft::restore(comm, spec, acc, resume_k, opts);
        }
    }

    /// Closes the panel ending with grid column `t` after its GEMMs.
    fn on_boundary(
        &self,
        comm: &Communicator,
        spec: &PartitionSpec,
        acc: &mut [(ProcBlock, DenseMatrix)],
        t: usize,
        stats: &mut PanelStats,
    ) -> Result<(), CommError> {
        match self {
            PanelCodec::Plain => Ok(()),
            PanelCodec::Checksummed { opts, store } => {
                abft::close_panel(comm, spec, acc, t, opts, store, stats)
            }
        }
    }
}

/// What one rank's panel loop observed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PanelStats {
    /// Corruption events the codec detected (corrected + uncorrectable).
    pub detected: u64,
    /// Single-element corruptions the codec corrected in place.
    pub corrected: u64,
    /// First panel index executed.
    pub first_panel: u64,
    /// Panel steps executed.
    pub panels_executed: u64,
}

/// A row or column communicator of one panel: its sorted participants,
/// and the subgroup over them when there is more than one.
struct Group {
    participants: Vec<usize>,
    sub: Option<Communicator>,
}

impl Group {
    fn new(comm: &Communicator, participants: Vec<usize>, label: u64) -> Self {
        let sub = (participants.len() > 1).then(|| {
            comm.subgroup(&participants, label)
                .expect("participant missing from its panel communicator")
        });
        Self { participants, sub }
    }
}

/// One rank's exchange context: its communicator, payload mode and codec,
/// and the counters verification on receipt updates.
struct Exchange<'a> {
    comm: &'a Communicator,
    payload: PanelPayload<'a>,
    codec: &'a PanelCodec<'a>,
    stats: PanelStats,
}

impl<'a> Exchange<'a> {
    /// Moves one panel piece of `rows × cols` data elements from `owner`
    /// to every member of `group`: when the owner is the only member,
    /// `own` yields it locally; otherwise the owner broadcasts `own`'s
    /// wire form over the group's communicator and receivers check it
    /// with the codec. Returns the piece in wire form (`None` for phantom
    /// payloads).
    fn piece(
        &mut self,
        group: &mut Group,
        owner: usize,
        (rows, cols): (usize, usize),
        step: usize,
        own: impl FnOnce(&'a RankMatrices) -> Cow<'a, DenseMatrix>,
    ) -> Result<Option<Cow<'a, DenseMatrix>>, CommError> {
        let comm = self.comm;
        let data = match self.payload {
            PanelPayload::Real { data, .. } => Some(data),
            PanelPayload::Phantom => None,
        };
        let Some(sub) = group.sub.as_mut() else {
            return Ok(data.map(own));
        };
        let root = group
            .participants
            .iter()
            .position(|&p| p == owner)
            .expect("owner not in its panel communicator");
        let sent = match data {
            None => Payload::Phantom { elems: rows * cols },
            Some(d) if owner == comm.rank() => Payload::F64(own(d).as_slice().to_vec()),
            Some(_) => Payload::F64(Vec::new()),
        };
        let received = sub.try_bcast(root, sent)?;
        if data.is_none() {
            return Ok(None);
        }
        let pad = self.codec.pad();
        let mut wire = DenseMatrix::from_vec(rows + pad, cols + pad, received.try_into_f64()?);
        if owner != comm.rank() {
            self.codec
                .on_receipt(comm, &mut wire, step, &mut self.stats)?;
        }
        Ok(Some(Cow::Owned(wire)))
    }
}

/// The `rows × cols` window of `block` at `(i0, j0)`, borrowed when it is
/// the whole block.
fn window(
    block: &DenseMatrix,
    (i0, j0): (usize, usize),
    (rows, cols): (usize, usize),
) -> Cow<'_, DenseMatrix> {
    if (rows, cols) == (block.rows(), block.cols()) {
        Cow::Borrowed(block)
    } else {
        Cow::Owned(block.submatrix(i0, j0, rows, cols))
    }
}

/// Copies the leading `shape.0 × cols` corner of an `A` piece into
/// columns `[j0, j0 + cols)` of its panel, allocating a zeroed `shape`
/// panel on first use. A piece that is exactly the whole panel becomes
/// the panel, copied only when it is borrowed.
fn place(
    panel: &mut Option<DenseMatrix>,
    shape: (usize, usize),
    piece: Cow<'_, DenseMatrix>,
    j0: usize,
    cols: usize,
) {
    if panel.is_none() && cols == shape.1 && (piece.rows(), piece.cols()) == shape {
        *panel = Some(piece.into_owned());
        return;
    }
    let dst = panel.get_or_insert_with(|| DenseMatrix::zeros(shape.0, shape.1));
    let ld = dst.cols();
    copy_block(
        &mut dst.as_mut_slice()[j0..],
        ld,
        piece.as_slice(),
        piece.cols(),
        shape.0,
        cols,
    );
}

/// The leading `rows × cols` corner of `m`, without a copy when that is
/// all of it.
fn leading(m: DenseMatrix, rows: usize, cols: usize) -> DenseMatrix {
    if (m.rows(), m.cols()) == (rows, cols) {
        m
    } else {
        m.submatrix(0, 0, rows, cols)
    }
}

/// Observes block GEMMs: keeps the latest kernel wall time for the
/// trace's `Gemm` span and feeds a metrics bundle's wall-clock GEMM
/// histograms.
struct KernelProbe<'a> {
    ns: Cell<u64>,
    telemetry: Option<&'a GemmTelemetry>,
}

impl GemmObserver for KernelProbe<'_> {
    fn on_gemm(&self, m: usize, n: usize, k: usize, elapsed_ns: u64) {
        self.ns.set(elapsed_ns);
        if let Some(t) = self.telemetry {
            t.on_gemm(m, n, k, elapsed_ns);
        }
    }
}

/// Emits a `stage` span from `start` (if tracing) to now.
fn end_stage(comm: &Communicator, start: Option<f64>, stage: StageLabel) {
    if let Some(t0) = start {
        comm.emit(t0, comm.now(), SpanKind::Stage { stage });
    }
}

/// The per-rank panel loop behind every SummaGen entry point.
///
/// The loop executes the k-range `[resume.k, stop_k)` of `schedule`: the
/// accumulators start from the `resume` prefix (zero without one),
/// panels wholly below it are skipped and the first overlapping panel
/// executes partially; panels starting at or past `stop_k` are not
/// executed. Plain callers pass `None` and `n`. After each block GEMM
/// the virtual clock advances by `block_cost(block, kb)` seconds for a
/// `kb`-deep panel.
///
/// Observability follows the schedule: [`Schedule::OneShot`] emits the
/// `HorizontalA`/`VerticalB`/`LocalCompute` stage spans, a `Gemm` span
/// per block (with the kernel's wall time) and the GEMM virtual and
/// wall metrics; [`Schedule::PerColumn`] counts `panel_steps`.
///
/// Returns the owned `C` blocks (none for phantom payloads) and the
/// loop's counters.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_rank_panels<'a>(
    comm: &'a Communicator,
    spec: &PartitionSpec,
    schedule: Schedule,
    payload: PanelPayload<'a>,
    codec: &'a PanelCodec<'a>,
    block_cost: impl Fn(&ProcBlock, usize) -> f64,
    resume: Option<&PanelCheckpoint>,
    stop_k: usize,
) -> Result<(RankBlocks, PanelStats), CommError> {
    let rank = comm.rank();
    let pad = codec.pad();
    let kernel = match payload {
        PanelPayload::Real { kernel, .. } => Some(kernel),
        PanelPayload::Phantom => None,
    };
    let blocks = spec.blocks_of(rank);
    let resume_k = resume.map_or(0, |r| r.k);

    // Accumulators (real payloads only): the data region plus the
    // codec's checksum row and column. A resumed run loads them from the
    // prefix up front; otherwise each one is allocated at its block's
    // first GEMM, when the gathers' receive buffers are free for reuse.
    let fresh = |blk: &ProcBlock| {
        let mut m = DenseMatrix::zeros(blk.rows + pad, blk.cols + pad);
        if let Some(r) = resume {
            m.set_submatrix(0, 0, &r.c.submatrix(blk.row, blk.col, blk.rows, blk.cols));
        }
        (*blk, m)
    };
    let mut acc: RankBlocks = Vec::new();
    if resume_k > 0 {
        if kernel.is_some() {
            acc = blocks.iter().map(fresh).collect();
        }
        codec.on_resume(comm, spec, &mut acc, resume_k);
    }

    let one_shot = schedule == Schedule::OneShot;
    let tracing = one_shot && comm.tracing_enabled();
    let metrics = comm.metrics();
    let telemetry = metrics.filter(|_| one_shot).map(|m| &m.gemm);
    let observing = tracing || telemetry.is_some();
    let probe = KernelProbe {
        ns: Cell::new(0),
        telemetry,
    };
    let mut ex = Exchange {
        comm,
        payload,
        codec,
        stats: PanelStats::default(),
    };
    for (p, cols) in schedule.panels(spec).into_iter().enumerate() {
        let (k0, k1) = (spec.col_offset(cols.start), spec.col_offset(cols.end));
        if k0 >= stop_k {
            break; // preemption horizon reached: a clean k-prefix stop
        }
        let lo = k0.max(resume_k);
        if lo >= k1 {
            continue; // panel fully covered by the resume prefix
        }
        if ex.stats.panels_executed == 0 {
            ex.stats.first_panel = p as u64;
        }
        ex.stats.panels_executed += 1;
        if let Some(m) = metrics.filter(|_| !one_shot) {
            m.panel_steps.inc();
        }
        let kb = k1 - lo;

        // --- Gather the A blocks (bi, t) of the panel's columns,
        // column-sliced to [lo, k1): bi outer, t inner, over one row
        // communicator per (panel, grid row).
        let stage = tracing.then(|| comm.now());
        let mut a_panel: Vec<Option<DenseMatrix>> = vec![None; spec.grid_rows];
        for (bi, slot) in a_panel.iter_mut().enumerate() {
            if !spec.row_contains(rank, bi) {
                continue;
            }
            let h = spec.heights[bi];
            let label = PANEL_ROW_LABEL_BASE + (p * spec.grid_rows + bi) as u64;
            let mut group = Group::new(comm, row_participants(spec, bi), label);
            for t in cols.clone() {
                let c0 = spec.col_offset(t);
                let (slo, shi) = (c0.max(lo), c0 + spec.widths[t]);
                if slo >= shi {
                    continue; // column wholly inside the resume prefix
                }
                let w = shi - slo;
                let wire = ex.piece(&mut group, spec.owner(bi, t), (h, w), p, |data| {
                    let block = data.a_block(bi, t).expect("missing own A block");
                    codec.encode_a(window(block, (0, slo - c0), (h, w)))
                })?;
                // Keep the data rows and any product checksum row; a
                // transit checksum column has done its job.
                if let Some(wire) = wire {
                    place(slot, (h + pad, kb), wire, slo - lo, w);
                }
            }
        }
        end_stage(comm, stage, StageLabel::HorizontalA);

        // --- Gather the B rows [lo, k1) for columns this rank occupies,
        // over one column communicator per (panel, grid column).
        let stage = tracing.then(|| comm.now());
        let mut b_panel: Vec<Option<DenseMatrix>> = vec![None; spec.grid_cols];
        for (bj, slot) in b_panel.iter_mut().enumerate() {
            if !spec.col_contains(rank, bj) {
                continue;
            }
            let w = spec.widths[bj];
            let label = PANEL_COL_LABEL_BASE + (p * spec.grid_cols + bj) as u64;
            let mut group = Group::new(comm, col_participants(spec, bj), label);
            // The pieces arrive in ascending k order and span the panel's
            // full width, so each is appended with one copy, no zero fill.
            let mut stack = kernel.map(|_| Vec::with_capacity(kb * (w + pad)));
            for bi in 0..spec.grid_rows {
                let r0 = spec.row_offset(bi);
                let (slo, shi) = (r0.max(lo), (r0 + spec.heights[bi]).min(k1));
                if slo >= shi {
                    continue; // block does not overlap this panel
                }
                let h = shi - slo;
                let wire = ex.piece(&mut group, spec.owner(bi, bj), (h, w), p, |data| {
                    let block = data.b_block(bi, bj).expect("missing own B block");
                    codec.encode_b(window(block, (slo - r0, 0), (h, w)))
                })?;
                // Keep the data columns and any product checksum column; a
                // transit checksum row has done its job.
                if let (Some(stack), Some(wire)) = (stack.as_mut(), wire) {
                    stack.extend_from_slice(&wire.as_slice()[..h * (w + pad)]);
                }
            }
            *slot = stack.map(|s| DenseMatrix::from_vec(kb, w + pad, s));
        }
        end_stage(comm, stage, StageLabel::VerticalB);

        // --- Accumulate C(bi, bj) += A(bi, panel) · B(panel, bj) for
        // every owned block. Checksum rows and columns widen the GEMM
        // without perturbing data elements: each one sees the same
        // k-order as the plain codec's GEMM.
        let stage = tracing.then(|| comm.now());
        for (i, blk) in blocks.iter().enumerate() {
            probe.ns.set(0);
            if let Some(kernel) = kernel {
                if acc.len() == i {
                    acc.push(fresh(blk));
                }
                let ap = a_panel[blk.block_i]
                    .as_ref()
                    .expect("A panel block missing for owned row");
                let bp = b_panel[blk.block_j]
                    .as_ref()
                    .expect("B panel block missing for owned column");
                debug_assert_eq!(ap.cols(), bp.rows());
                let (m, nc) = (blk.rows + pad, blk.cols + pad);
                let (a, b) = (ap.as_slice(), bp.as_slice());
                let observer = observing.then_some(&probe as &dyn GemmObserver);
                let c = acc[i].1.as_mut_slice();
                kernel.run_observed(m, nc, kb, 1.0, a, kb, b, nc, 1.0, c, nc, observer);
            }
            let gemm_start = observing.then(|| comm.now());
            comm.advance_compute(block_cost(blk, kb));
            if let Some(t0) = gemm_start {
                let t1 = comm.now();
                let flops = 2.0 * blk.rows as f64 * blk.cols as f64 * kb as f64;
                if tracing {
                    let (m, n, k, kernel_ns) = (blk.rows, blk.cols, kb, probe.ns.get());
                    comm.emit(
                        t0,
                        t1,
                        SpanKind::Gemm {
                            m,
                            n,
                            k,
                            flops,
                            kernel_ns,
                        },
                    );
                }
                if let Some(g) = telemetry {
                    g.record_virtual(flops, t1 - t0);
                }
            }
        }
        end_stage(comm, stage, StageLabel::LocalCompute);
        codec.on_boundary(comm, spec, &mut acc, cols.end - 1, &mut ex.stats)?;
    }

    // Strip any checksums; the data region is returned bit-for-bit.
    let out = acc
        .into_iter()
        .map(|(blk, c)| (blk, leading(c, blk.rows, blk.cols)))
        .collect();
    Ok((out, ex.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{multiply, ExecutionMode};
    use summagen_matrix::{approx_eq, random_matrix};
    use summagen_partition::{proportional_areas, ALL_FOUR_SHAPES};

    #[test]
    fn panelled_matches_one_shot_for_all_shapes() {
        let n = 40;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        for shape in ALL_FOUR_SHAPES {
            let spec = shape.build(n, &areas);
            let mode = ExecutionMode::RealWith(GemmKernel::Blocked);
            let one_shot = multiply(&spec, &a, &b, mode);
            let panelled = multiply_panelled(&spec, &a, &b, GemmKernel::Blocked);
            // One loop under both schedules, and a kernel whose k-order
            // does not depend on the k-split: bit-identical.
            let same = one_shot
                .c
                .as_slice()
                .iter()
                .zip(panelled.c.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "{} differs", shape.name());
        }
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
    fn participants_for_fig1a() {
        let s = fig1a();
        assert_eq!(row_participants(&s, 0), vec![0, 1]);
        assert_eq!(row_participants(&s, 1), vec![1]);
        assert_eq!(row_participants(&s, 2), vec![1, 2]);
        assert_eq!(col_participants(&s, 0), vec![0, 1]);
        assert_eq!(col_participants(&s, 2), vec![1, 2]);
    }

    #[test]
    fn workspace_sizes_match_participation() {
        let s = fig1a();
        // Rank 0 participates in grid row 0 (9 rows) and column 0 (9
        // cols): 9 x 16 of A and 16 x 9 of B one-shot, 9 deep panelled
        // (the widest grid column).
        assert_eq!(workspace_elems(&s, 0), (9 * 16 + 16 * 9, 9 * 9 + 9 * 9));
        // Rank 1 participates everywhere.
        assert_eq!(workspace_elems(&s, 1), (16 * 16 + 16 * 16, 16 * 9 + 9 * 16));
        // Rank 2: row 2 (4 rows), column 2 (4 cols).
        assert_eq!(workspace_elems(&s, 2), (4 * 16 + 16 * 4, 4 * 9 + 9 * 4));
        assert_eq!(peak_workspace_elems(&s), (16 * 16 * 2, 16 * 9 * 2));
    }

    #[test]
    fn panelled_communication_volume_equals_one_shot() {
        // Same blocks over the same communicators: total traffic must
        // match the one-shot algorithm exactly.
        let n = 32;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let a = random_matrix(n, n, 3);
        let b = random_matrix(n, n, 4);
        for shape in ALL_FOUR_SHAPES {
            let spec = shape.build(n, &areas);
            let one_shot = multiply(&spec, &a, &b, ExecutionMode::Real);
            let panelled = multiply_panelled(&spec, &a, &b, GemmKernel::Blocked);
            let total = |r: &RunResult| r.traffic.iter().map(|t| t.bytes_sent).sum::<u64>();
            assert_eq!(total(&one_shot), total(&panelled), "{}", shape.name());
        }
    }

    #[test]
    fn panelled_needs_much_less_workspace() {
        let n = 25_600;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let spec = summagen_partition::Shape::SquareCorner.build(n, &areas);
        let (one_shot, panelled) = peak_workspace_elems(&spec);
        // The saving factor is max-panel-width / n; for the square-corner
        // grid the widest panel is the big square's side (~0.51 n).
        assert!(
            (panelled as f64) < 0.6 * one_shot as f64,
            "panelled {panelled} vs one-shot {one_shot}"
        );
    }

    #[test]
    fn simulated_panelled_total_traffic_matches_one_shot() {
        use summagen_platform::profile::hclserver1;
        let n = 12_288;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let spec = summagen_partition::Shape::SquareRectangle.build(n, &areas);
        let platform = hclserver1();
        let link = summagen_comm::HockneyModel::intra_node();
        let one_shot = crate::simulate::simulate(&spec, &platform, link);
        let panelled = simulate_panelled(&spec, &platform, link);
        let bytes =
            |r: &crate::simulate::SimReport| r.traffic.iter().map(|t| t.bytes_sent).sum::<u64>();
        assert_eq!(bytes(&one_shot), bytes(&panelled));
        // Pipelining can only help or tie the end-to-end time (modulo
        // tiny extra latencies from the additional messages).
        assert!(
            panelled.exec_time <= one_shot.exec_time * 1.05,
            "panelled {} vs one-shot {}",
            panelled.exec_time,
            one_shot.exec_time
        );
    }

    #[test]
    fn panelled_single_processor() {
        let n = 16;
        let spec = PartitionSpec::new(vec![0], vec![n], vec![n], 1);
        let a = random_matrix(n, n, 5);
        let b = random_matrix(n, n, 6);
        let r = multiply_panelled(&spec, &a, &b, GemmKernel::Blocked);
        let want = multiply(&spec, &a, &b, ExecutionMode::Real);
        assert!(approx_eq(&r.c, &want.c, 1e-10));
    }

    #[test]
    fn panelled_handles_nonsquare_grids() {
        // Grid 1x3 (1D): k-panels iterate max(grid_rows, grid_cols) = 3
        // but only t = 0 contributes (grid_rows = 1).
        let n = 24;
        let areas = proportional_areas(n, &[1.0, 1.0, 1.0]);
        let spec = summagen_partition::Shape::OneDRectangular.build(n, &areas);
        let a = random_matrix(n, n, 7);
        let b = random_matrix(n, n, 8);
        let r = multiply_panelled(&spec, &a, &b, GemmKernel::Blocked);
        let want = multiply(&spec, &a, &b, ExecutionMode::Real);
        assert!(approx_eq(&r.c, &want.c, 1e-10));
    }
}
