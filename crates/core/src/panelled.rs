//! Panelled SummaGen: one fallible panel loop behind the memory-bounded
//! variant, its phantom-payload simulation and the checksummed executor.
//!
//! The paper's SummaGen gathers *all* required `A` rows and `B` columns
//! into `WA`/`WB` before computing — simple, but `WA` alone holds up to
//! `n²` elements per rank. The panel loop iterates over the sub-partition
//! grid's `k`-dimension one grid column at a time (like SUMMA's panel
//! loop): for panel `t`, ranks gather only the `A` blocks `(bi, t)` and
//! the `B` rows of that k-range they need, then accumulate
//! `C(bi, bj) += A(bi, t) · B(t, bj)` for every owned sub-partition.
//!
//! Communication volume is identical to the one-shot algorithm (the same
//! bytes travel over the same row/column communicators, in more and
//! smaller messages), and peak working memory per rank drops from
//! `O(h·n + n·w)` to `O((h + w) · max_t width_t)`. Broadcasts block, so
//! communication does not overlap computation on the wall clock; in
//! virtual time a rank may run ahead into later panels while a slower
//! peer still computes earlier ones.
//!
//! [`run_rank_panels`] is the one per-rank loop. Its inputs choose
//!
//! * the payload mode ([`PanelPayload`]): real blocks, or size-only
//!   phantom payloads for paper-scale simulation;
//! * the codec ([`PanelCodec`]): plain panels, or Huang–Abraham
//!   checksummed panels with checkpoints (see [`crate::abft`]);
//! * the virtual compute seconds charged per block GEMM;
//! * the k-range `[resume.k, stop_k)` to execute.
//!
//! Communication failures surface as `CommError` through the fallible
//! collective API. The `expect`s assert the partition-validation
//! invariants documented in [`crate::stages`] (every cell has an owner,
//! owners hold their blocks, participants belong to their own row/column
//! communicators).

use summagen_comm::{CommError, Communicator, CostModel, Payload, Universe, ZeroCost};
use summagen_matrix::{DenseMatrix, GemmKernel};
use summagen_partition::{PartitionSpec, ProcBlock};

use crate::abft::{self, AbftOptions, CheckpointStore, PanelCheckpoint};
use crate::executor::{run_attempt, RankBlocks, RecoveryOptions, RunResult};
use crate::rankdata::RankMatrices;
use crate::stages::{
    col_participants, row_participants, PANEL_COL_LABEL_BASE, PANEL_ROW_LABEL_BASE,
};

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
        run_rank_panels(comm, spec, payload, &plain, |_, _| 0.0, None, spec.n)
    })
    .unwrap_or_else(|failure| panic!("rank panicked: {failure}"))
    .0
}

/// Peak working-set size (elements of `WA`+`WB`-equivalents) per rank for
/// the one-shot algorithm vs the panelled variant — the memory saving
/// that motivates panelling. Returns `(one_shot, panelled)` maxima over
/// ranks.
pub fn peak_workspace_elems(spec: &PartitionSpec) -> (usize, usize) {
    let n = spec.n;
    let mut one_shot_max = 0;
    let mut panelled_max = 0;
    for rank in 0..spec.nprocs {
        let rows: usize = (0..spec.grid_rows)
            .filter(|&bi| spec.row_contains(rank, bi))
            .map(|bi| spec.heights[bi])
            .sum();
        let cols: usize = (0..spec.grid_cols)
            .filter(|&bj| spec.col_contains(rank, bj))
            .map(|bj| spec.widths[bj])
            .sum();
        one_shot_max = one_shot_max.max(rows * n + n * cols);
        let max_panel = spec.widths.iter().copied().max().unwrap_or(0);
        panelled_max = panelled_max.max(rows * max_panel + max_panel * cols);
    }
    (one_shot_max, panelled_max)
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
    assert!(platform.len() >= spec.nprocs, "platform too small");
    let areas = spec.areas();
    let universe = Universe::new(spec.nprocs, cost);
    let results = universe.run(|comm| {
        let proc = &platform.processors[comm.rank()];
        let area = areas[comm.rank()] as f64;
        let dgemm = |blk: &ProcBlock, kb| proc.dgemm_time(blk.rows, kb, blk.cols, area);
        // No faults are injected on simulation runs, so an error here is a
        // runtime bug: fail loudly rather than report bogus timings.
        let (phantom, plain) = (PanelPayload::Phantom, PanelCodec::Plain);
        run_rank_panels(&comm, spec, phantom, &plain, dgemm, None, spec.n)
            .expect("phantom panel loop failed");
        (comm.clock_snapshot(), comm.traffic())
    });
    let clocks: Vec<_> = results.iter().map(|r| r.0).collect();
    let traffic: Vec<_> = results.iter().map(|r| r.1).collect();
    let n = spec.n;
    crate::simulate::SimReport {
        n,
        exec_time: clocks.iter().map(|c| c.now).fold(0.0, f64::max),
        comp_time: clocks.iter().map(|c| c.comp_time).fold(0.0, f64::max),
        comm_time: clocks.iter().map(|c| c.comm_time).fold(0.0, f64::max),
        clocks,
        traffic,
        total_flops: 2.0 * (n as f64).powi(3),
        energy: None,
    }
}

/// Where the panel loop's payloads come from, as in
/// [`crate::stages::StageData`].
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
    /// `opts.checkpoint_interval` says so.
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
    fn encode_a(&self, piece: DenseMatrix) -> DenseMatrix {
        match self {
            PanelCodec::Plain => piece,
            PanelCodec::Checksummed { .. } => abft::transit_a(&piece),
        }
    }

    /// Wire form of a `B` piece.
    fn encode_b(&self, piece: DenseMatrix) -> DenseMatrix {
        match self {
            PanelCodec::Plain => piece,
            PanelCodec::Checksummed { .. } => abft::transit_b(&piece),
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

    /// Closes panel `t` after its GEMMs.
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

/// One rank's exchange context: its communicator, payload mode and codec,
/// and the counters verification on receipt updates.
struct Exchange<'a> {
    comm: &'a Communicator,
    payload: PanelPayload<'a>,
    codec: &'a PanelCodec<'a>,
    stats: PanelStats,
}

impl Exchange<'_> {
    /// Moves one panel piece of `rows × cols` data elements from `owner`
    /// to every participant: `own` encodes it locally when the owner is
    /// the only participant, otherwise the owner broadcasts it over the
    /// participants' communicator `label` and receivers check it with the
    /// codec. Returns the piece in wire form (`None` for phantom payloads).
    fn piece(
        &mut self,
        participants: &[usize],
        owner: usize,
        label: u64,
        (rows, cols): (usize, usize),
        step: usize,
        own: impl FnOnce(&RankMatrices) -> DenseMatrix,
    ) -> Result<Option<DenseMatrix>, CommError> {
        let comm = self.comm;
        let data = match self.payload {
            PanelPayload::Real { data, .. } => Some(data),
            PanelPayload::Phantom => None,
        };
        if participants.len() == 1 {
            return Ok(data.map(own));
        }
        let mut sub = comm
            .subgroup(participants, label)
            .expect("participant missing from its panel communicator");
        let root = participants
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
        Ok(Some(wire))
    }
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

/// The per-rank panel loop behind every panelled entry point.
///
/// Panel `t` covers the k-range of grid *column* `t` of `A`. Because the
/// grid's row cuts (which partition `B`'s k-dimension) need not align
/// with its column cuts, the matching `B` rows are gathered as *slices*
/// of the overlapping `B` blocks — same total bytes, panel-sized staging.
///
/// The loop executes the k-range `[resume.k, stop_k)`: the accumulators
/// start from the `resume` prefix (zero without one), panels wholly below
/// it are skipped and the first overlapping panel executes partially;
/// panels starting at or past `stop_k` are not executed. Plain callers
/// pass `None` and `n`. After each block GEMM the virtual clock advances
/// by `block_cost(block, kb)` seconds for a `kb`-deep panel.
///
/// Returns the owned `C` blocks (none for phantom payloads) and the
/// loop's counters.
pub(crate) fn run_rank_panels(
    comm: &Communicator,
    spec: &PartitionSpec,
    payload: PanelPayload<'_>,
    codec: &PanelCodec<'_>,
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
    // codec's checksum row and column.
    let mut acc: RankBlocks = match kernel {
        None => Vec::new(),
        Some(_) => blocks
            .iter()
            .map(|&blk| {
                let mut m = DenseMatrix::zeros(blk.rows + pad, blk.cols + pad);
                if let Some(r) = resume {
                    m.set_submatrix(0, 0, &r.c.submatrix(blk.row, blk.col, blk.rows, blk.cols));
                }
                (blk, m)
            })
            .collect(),
    };
    if resume_k > 0 {
        codec.on_resume(comm, spec, &mut acc, resume_k);
    }

    let mut ex = Exchange {
        comm,
        payload,
        codec,
        stats: PanelStats::default(),
    };
    for t in 0..spec.grid_cols {
        let k0 = spec.col_offset(t);
        let k1 = k0 + spec.widths[t];
        if k0 >= stop_k {
            break; // preemption horizon reached: a clean k-prefix stop
        }
        let lo = k0.max(resume_k);
        if lo >= k1 {
            continue; // panel fully covered by the resume prefix
        }
        if ex.stats.panels_executed == 0 {
            ex.stats.first_panel = t as u64;
        }
        ex.stats.panels_executed += 1;
        if let Some(m) = comm.metrics() {
            m.panel_steps.inc();
        }
        let kb = k1 - lo;

        // --- Gather the A blocks (bi, t), column-sliced to [lo, k1).
        let mut a_panel: Vec<Option<DenseMatrix>> = vec![None; spec.grid_rows];
        for (bi, slot) in a_panel.iter_mut().enumerate() {
            if !spec.row_contains(rank, bi) {
                continue;
            }
            let h = spec.heights[bi];
            let label = PANEL_ROW_LABEL_BASE + (t * spec.grid_rows + bi) as u64;
            let own = |data: &RankMatrices| {
                let block = data.a_block(bi, t).expect("missing own A block");
                codec.encode_a(block.submatrix(0, lo - k0, h, kb))
            };
            let participants = row_participants(spec, bi);
            let wire = ex.piece(&participants, spec.owner(bi, t), label, (h, kb), t, own)?;
            // Keep the data rows and any product checksum row; a transit
            // checksum column has done its job.
            *slot = wire.map(|w| leading(w, h + pad, kb));
        }

        // --- Gather the B rows [lo, k1) for columns this rank occupies.
        let mut b_panel: Vec<Option<DenseMatrix>> = vec![None; spec.grid_cols];
        for (bj, slot) in b_panel.iter_mut().enumerate() {
            if !spec.col_contains(rank, bj) {
                continue;
            }
            let w = spec.widths[bj];
            let participants = col_participants(spec, bj);
            let mut panel = kernel.map(|_| DenseMatrix::zeros(kb, w + pad));
            for bi_b in 0..spec.grid_rows {
                let r0 = spec.row_offset(bi_b);
                let (slo, shi) = (r0.max(lo), (r0 + spec.heights[bi_b]).min(k1));
                if slo >= shi {
                    continue; // block does not overlap this panel
                }
                let rows = shi - slo;
                let label = PANEL_COL_LABEL_BASE
                    + ((t * spec.grid_rows + bi_b) * spec.grid_cols + bj) as u64;
                let own = |data: &RankMatrices| {
                    let block = data.b_block(bi_b, bj).expect("missing own B block");
                    codec.encode_b(block.submatrix(slo - r0, 0, rows, w))
                };
                let owner = spec.owner(bi_b, bj);
                let wire = ex.piece(&participants, owner, label, (rows, w), t, own)?;
                // Keep the data columns and any product checksum column; a
                // transit checksum row has done its job.
                if let (Some(panel), Some(wire)) = (panel.as_mut(), wire) {
                    panel.set_submatrix(slo - lo, 0, &leading(wire, rows, w + pad));
                }
            }
            *slot = panel;
        }

        // --- Accumulate C(bi, bj) += A(bi, t) · B(t, bj) for every owned
        // block. Checksum rows and columns widen the GEMM without
        // perturbing data elements: each one sees the same k-order as
        // the plain codec's GEMM.
        for (i, blk) in blocks.iter().enumerate() {
            if let (Some(kernel), Some((_, c))) = (kernel, acc.get_mut(i)) {
                let ap = a_panel[blk.block_i]
                    .as_ref()
                    .expect("A panel block missing for owned row");
                let bp = b_panel[blk.block_j]
                    .as_ref()
                    .expect("B panel block missing for owned column");
                debug_assert_eq!(ap.cols(), bp.rows());
                let (m, nc) = (blk.rows + pad, blk.cols + pad);
                let (a, b) = (ap.as_slice(), bp.as_slice());
                kernel.run(m, nc, kb, 1.0, a, kb, b, nc, 1.0, c.as_mut_slice(), nc);
            }
            let seconds = block_cost(blk, kb);
            if seconds > 0.0 {
                comm.advance_compute(seconds);
            }
        }
        codec.on_boundary(comm, spec, &mut acc, t, &mut ex.stats)?;
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
    use summagen_matrix::{approx_eq, gemm_tolerance, random_matrix};
    use summagen_partition::{proportional_areas, ALL_FOUR_SHAPES};

    #[test]
    fn panelled_matches_one_shot_for_all_shapes() {
        let n = 40;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        for shape in ALL_FOUR_SHAPES {
            let spec = shape.build(n, &areas);
            let one_shot = multiply(&spec, &a, &b, ExecutionMode::Real);
            let panelled = multiply_panelled(&spec, &a, &b, GemmKernel::Blocked);
            assert!(
                approx_eq(&one_shot.c, &panelled.c, gemm_tolerance(n) * 100.0),
                "{} differs",
                shape.name()
            );
        }
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
