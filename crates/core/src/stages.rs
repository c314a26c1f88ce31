//! The three SummaGen stages (Figures 2, 3 and 4 of the paper),
//! generalized to arbitrary grids and processor counts.
//!
//! # Panic policy
//!
//! Communication failures (a peer dying mid-broadcast, a timeout, a typed
//! payload mismatch) are *expected* at this layer and surface as
//! [`summagen_comm::CommError`] through the `CommResult` return values.
//! The remaining `expect`s in this module assert structural invariants
//! that [`PartitionSpec`] validation establishes before any stage runs —
//! every grid cell has exactly one owner, an owner's blocks exist in its
//! [`RankMatrices`], and a row/column participant is always a member of
//! the communicator built from its own participant list. Violating one of
//! these is a partitioner bug, not a runtime condition, so they panic.

use summagen_comm::{CommResult, Communicator, Payload, SpanKind, StageLabel};
use summagen_matrix::{copy_block, DenseMatrix, GemmKernel, GemmObserver};
use summagen_partition::{PartitionSpec, ProcBlock};

use crate::rankdata::RankMatrices;

/// Label space separating row communicators from column communicators.
const ROW_LABEL_BASE: u64 = 1 << 20;
const COL_LABEL_BASE: u64 = 1 << 21;
/// Label spaces of the panel loop's per-panel row and column
/// communicators (see [`crate::panelled`]).
pub(crate) const PANEL_ROW_LABEL_BASE: u64 = 1 << 22;
pub(crate) const PANEL_COL_LABEL_BASE: u64 = 1 << 23;

/// Working storage of one rank during a real-numeric run: `WA` holds the
/// needed sub-partition rows of `A` (local rows × n) and `WB` the needed
/// sub-partition columns of `B` (n × local cols).
pub(crate) struct Workspace {
    /// WA buffer, row-major with leading dimension `n`.
    pub wa: Vec<f64>,
    /// Local row offset of each grid row in WA (None = not needed).
    pub wa_row_off: Vec<Option<usize>>,
    /// WB buffer, row-major with leading dimension `wb_width`.
    pub wb: Vec<f64>,
    /// Local column offset of each grid column in WB (None = not needed).
    pub wb_col_off: Vec<Option<usize>>,
    /// Total width of WB.
    pub wb_width: usize,
}

impl Workspace {
    /// Allocates working matrices sized for `rank`'s participation.
    pub fn for_rank(spec: &PartitionSpec, rank: usize) -> Self {
        let n = spec.n;
        let mut wa_row_off = vec![None; spec.grid_rows];
        let mut local_rows = 0;
        for (bi, off) in wa_row_off.iter_mut().enumerate() {
            if spec.row_contains(rank, bi) {
                *off = Some(local_rows);
                local_rows += spec.heights[bi];
            }
        }
        let mut wb_col_off = vec![None; spec.grid_cols];
        let mut local_cols = 0;
        for (bj, off) in wb_col_off.iter_mut().enumerate() {
            if spec.col_contains(rank, bj) {
                *off = Some(local_cols);
                local_cols += spec.widths[bj];
            }
        }
        Self {
            wa: vec![0.0; local_rows * n],
            wa_row_off,
            wb: vec![0.0; n * local_cols],
            wb_col_off,
            wb_width: local_cols,
        }
    }
}

/// Per-rank execution state threaded through the three stages.
pub(crate) enum StageData<'a> {
    /// Real numeric execution with materialized blocks and workspaces.
    Real {
        data: &'a RankMatrices,
        ws: Workspace,
        kernel: GemmKernel,
    },
    /// Size-only execution: no element data moves or is stored.
    Phantom,
}

/// The sorted list of processors owning at least one sub-partition in grid
/// row `bi`.
pub(crate) fn row_participants(spec: &PartitionSpec, bi: usize) -> Vec<usize> {
    (0..spec.nprocs)
        .filter(|&p| spec.row_contains(p, bi))
        .collect()
}

/// The sorted list of processors owning at least one sub-partition in grid
/// column `bj`.
pub(crate) fn col_participants(spec: &PartitionSpec, bj: usize) -> Vec<usize> {
    (0..spec.nprocs)
        .filter(|&p| spec.col_contains(p, bj))
        .collect()
}

/// Stage 1 (Fig. 2): horizontal communications of `A`. After this call,
/// every rank holds (or, in phantom mode, has paid the communication cost
/// for) all `A` elements of every sub-partition row it participates in.
///
/// Returns `Err` if a broadcast fails — typically because a participating
/// rank died mid-stage, surfaced as [`summagen_comm::CommError::PeerFailed`].
pub(crate) fn horizontal_a(
    comm: &Communicator,
    spec: &PartitionSpec,
    rank: usize,
    state: &mut StageData<'_>,
) -> CommResult<()> {
    let stage_start = comm.tracing_enabled().then(|| comm.now());
    for bi in 0..spec.grid_rows {
        if !spec.row_contains(rank, bi) {
            continue;
        }
        let participants = row_participants(spec, bi);
        if participants.len() == 1 {
            // Special case (Fig. 2 line 8): the whole row is ours — copy
            // locally, no communication.
            if let StageData::Real { data, ws, .. } = state {
                for bj in 0..spec.grid_cols {
                    let blk = owned_block(spec, bi, bj);
                    let m = data.a_block(bi, bj).expect("missing own A block");
                    stash_wa(spec, ws, &blk, m.as_slice());
                }
            }
            continue;
        }
        let mut row_comm = comm
            .subgroup(&participants, ROW_LABEL_BASE + bi as u64)
            .expect("participant missing from its row communicator");
        for bj in 0..spec.grid_cols {
            let owner = spec.owner(bi, bj);
            let root = participants
                .iter()
                .position(|&p| p == owner)
                .expect("owner not in row communicator");
            let blk = owned_block(spec, bi, bj);
            let payload = match state {
                StageData::Real { data, .. } if owner == rank => Payload::F64(
                    data.a_block(bi, bj)
                        .expect("missing own A block")
                        .as_slice()
                        .to_vec(),
                ),
                StageData::Real { .. } => Payload::F64(Vec::new()),
                StageData::Phantom => Payload::Phantom { elems: blk.area() },
            };
            let received = row_comm.try_bcast(root, payload)?;
            if let StageData::Real { ws, .. } = state {
                stash_wa(spec, ws, &blk, &received.try_into_f64()?);
            }
        }
    }
    if let Some(t0) = stage_start {
        comm.emit(
            t0,
            comm.now(),
            SpanKind::Stage {
                stage: StageLabel::HorizontalA,
            },
        );
    }
    Ok(())
}

/// Stage 2 (Fig. 3): vertical communications of `B`, symmetric to stage 1
/// over sub-partition columns.
pub(crate) fn vertical_b(
    comm: &Communicator,
    spec: &PartitionSpec,
    rank: usize,
    state: &mut StageData<'_>,
) -> CommResult<()> {
    let stage_start = comm.tracing_enabled().then(|| comm.now());
    for bj in 0..spec.grid_cols {
        if !spec.col_contains(rank, bj) {
            continue;
        }
        let participants = col_participants(spec, bj);
        if participants.len() == 1 {
            if let StageData::Real { data, ws, .. } = state {
                for bi in 0..spec.grid_rows {
                    let blk = owned_block(spec, bi, bj);
                    let m = data.b_block(bi, bj).expect("missing own B block");
                    stash_wb(spec, ws, &blk, m.as_slice());
                }
            }
            continue;
        }
        let mut col_comm = comm
            .subgroup(&participants, COL_LABEL_BASE + bj as u64)
            .expect("participant missing from its column communicator");
        for bi in 0..spec.grid_rows {
            let owner = spec.owner(bi, bj);
            let root = participants
                .iter()
                .position(|&p| p == owner)
                .expect("owner not in column communicator");
            let blk = owned_block(spec, bi, bj);
            let payload = match state {
                StageData::Real { data, .. } if owner == rank => Payload::F64(
                    data.b_block(bi, bj)
                        .expect("missing own B block")
                        .as_slice()
                        .to_vec(),
                ),
                StageData::Real { .. } => Payload::F64(Vec::new()),
                StageData::Phantom => Payload::Phantom { elems: blk.area() },
            };
            let received = col_comm.try_bcast(root, payload)?;
            if let StageData::Real { ws, .. } = state {
                stash_wb(spec, ws, &blk, &received.try_into_f64()?);
            }
        }
    }
    if let Some(t0) = stage_start {
        comm.emit(
            t0,
            comm.now(),
            SpanKind::Stage {
                stage: StageLabel::VerticalB,
            },
        );
    }
    Ok(())
}

/// Stage 3 (Fig. 4): local computations, one DGEMM per owned sub-partition
/// (`height × n` times `n × width`). Returns the computed `C` blocks (empty
/// in phantom mode) and the total flops performed.
pub(crate) fn local_compute(
    comm: &Communicator,
    spec: &PartitionSpec,
    rank: usize,
    state: &mut StageData<'_>,
    block_compute_seconds: impl Fn(&ProcBlock) -> f64,
) -> (Vec<(ProcBlock, DenseMatrix)>, f64) {
    let n = spec.n;
    let tracing = comm.tracing_enabled();
    let metrics = comm.metrics();
    let observing = tracing || metrics.is_some();
    let stage_start = tracing.then(|| comm.now());
    // Captures the kernel's wall-clock duration so the trace can carry
    // both clock domains on one GEMM span.
    struct NsProbe(std::cell::Cell<u64>);
    impl GemmObserver for NsProbe {
        fn on_gemm(&self, _m: usize, _n: usize, _k: usize, elapsed_ns: u64) {
            self.0.set(elapsed_ns);
        }
    }
    // One observer feeding both consumers: the probe (trace spans want the
    // latest kernel_ns) and, when metered, the wall-clock GEMM histograms.
    struct Fanout<'a> {
        probe: &'a NsProbe,
        telemetry: Option<&'a summagen_metrics::GemmTelemetry>,
    }
    impl GemmObserver for Fanout<'_> {
        fn on_gemm(&self, m: usize, n: usize, k: usize, elapsed_ns: u64) {
            self.probe.on_gemm(m, n, k, elapsed_ns);
            if let Some(t) = self.telemetry {
                t.on_gemm(m, n, k, elapsed_ns);
            }
        }
    }
    let probe = NsProbe(std::cell::Cell::new(0));
    let fanout = Fanout {
        probe: &probe,
        telemetry: metrics.map(|m| &m.gemm),
    };
    let mut out = Vec::new();
    let mut total_flops = 0.0;
    for blk in spec.blocks_of(rank) {
        let flops = 2.0 * blk.rows as f64 * blk.cols as f64 * n as f64;
        total_flops += flops;
        probe.0.set(0);
        match state {
            StageData::Real { ws, kernel, .. } => {
                let a_off = ws.wa_row_off[blk.block_i].expect("WA row missing") * n;
                let b_off = ws.wb_col_off[blk.block_j].expect("WB column missing");
                let mut c = DenseMatrix::zeros(blk.rows, blk.cols);
                kernel.run_observed(
                    blk.rows,
                    blk.cols,
                    n,
                    1.0,
                    &ws.wa[a_off..],
                    n,
                    &ws.wb[b_off..],
                    ws.wb_width,
                    0.0,
                    c.as_mut_slice(),
                    blk.cols,
                    observing.then_some(&fanout as &dyn GemmObserver),
                );
                out.push((blk, c));
            }
            StageData::Phantom => {}
        }
        let gemm_start = observing.then(|| comm.now());
        comm.advance_compute(block_compute_seconds(&blk));
        if let Some(t0) = gemm_start {
            let t1 = comm.now();
            if tracing {
                comm.emit(
                    t0,
                    t1,
                    SpanKind::Gemm {
                        m: blk.rows,
                        n: blk.cols,
                        k: n,
                        flops,
                        kernel_ns: probe.0.get(),
                    },
                );
            }
            if let Some(m) = metrics {
                m.gemm.record_virtual(flops, t1 - t0);
            }
        }
    }
    if let Some(t0) = stage_start {
        comm.emit(
            t0,
            comm.now(),
            SpanKind::Stage {
                stage: StageLabel::LocalCompute,
            },
        );
    }
    (out, total_flops)
}

/// The block descriptor at grid position `(bi, bj)` regardless of owner.
fn owned_block(spec: &PartitionSpec, bi: usize, bj: usize) -> ProcBlock {
    ProcBlock {
        block_i: bi,
        block_j: bj,
        row: spec.row_offset(bi),
        col: spec.col_offset(bj),
        rows: spec.heights[bi],
        cols: spec.widths[bj],
    }
}

/// Stores an `A` block (row-major `blk.rows × blk.cols`) into WA.
fn stash_wa(spec: &PartitionSpec, ws: &mut Workspace, blk: &ProcBlock, src: &[f64]) {
    let n = spec.n;
    let local = ws.wa_row_off[blk.block_i].expect("WA row missing");
    let dst_start = local * n + blk.col;
    copy_block(
        &mut ws.wa[dst_start..],
        n,
        src,
        blk.cols,
        blk.rows,
        blk.cols,
    );
}

/// Stores a `B` block into WB.
fn stash_wb(_spec: &PartitionSpec, ws: &mut Workspace, blk: &ProcBlock, src: &[f64]) {
    let local = ws.wb_col_off[blk.block_j].expect("WB column missing");
    let dst_start = blk.row * ws.wb_width + local;
    copy_block(
        &mut ws.wb[dst_start..],
        ws.wb_width,
        src,
        blk.cols,
        blk.rows,
        blk.cols,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Rank 0 participates in grid row 0 (9 rows) and column 0 (9 cols).
        let ws = Workspace::for_rank(&s, 0);
        assert_eq!(ws.wa.len(), 9 * 16);
        assert_eq!(ws.wb.len(), 16 * 9);
        assert_eq!(ws.wa_row_off, vec![Some(0), None, None]);
        assert_eq!(ws.wb_col_off, vec![Some(0), None, None]);
        // Rank 1 participates everywhere.
        let ws1 = Workspace::for_rank(&s, 1);
        assert_eq!(ws1.wa.len(), 16 * 16);
        assert_eq!(ws1.wb_width, 16);
        // Rank 2: row 2 (4 rows), column 2 (4 cols).
        let ws2 = Workspace::for_rank(&s, 2);
        assert_eq!(ws2.wa.len(), 4 * 16);
        assert_eq!(ws2.wb_col_off, vec![None, None, Some(0)]);
    }

    #[test]
    fn owned_block_positions() {
        let s = fig1a();
        let b = owned_block(&s, 2, 1);
        assert_eq!((b.row, b.col, b.rows, b.cols), (12, 9, 4, 3));
    }
}
