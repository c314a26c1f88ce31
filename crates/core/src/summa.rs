//! Classic SUMMA (van de Geijn & Watts) on a 2D processor grid — the
//! homogeneous rectangular baseline from the paper's related work
//! (Section III-D / the Elemental library).
//!
//! Matrices are block-distributed over a `pr × pc` grid; the product is
//! accumulated in panels of width `nb`: for each panel, the owning
//! processor column broadcasts its slice of `A` along processor rows, the
//! owning processor row broadcasts its slice of `B` along processor
//! columns, and every processor runs a rank-`nb` update on its local `C`
//! block. Unlike SummaGen's one-shot gather, SUMMA pipelines many small
//! broadcasts — comparing the two on the same virtual platform is the
//! baseline ablation in `benches/ablations.rs` and `reproduce summa`.

use summagen_comm::{ClockSnapshot, CostModel, HockneyModel, TrafficStats, Universe, ZeroCost};
use summagen_matrix::{gemm_blocked, DenseMatrix};
use summagen_platform::Platform;

/// Outcome of a classic SUMMA run.
#[derive(Debug, Clone)]
pub struct SummaResult {
    /// The assembled product (real mode) — always present here since the
    /// numeric entry point assembles it.
    pub c: DenseMatrix,
    /// Per-rank clock snapshots.
    pub clocks: Vec<ClockSnapshot>,
    /// Per-rank traffic.
    pub traffic: Vec<TrafficStats>,
    /// Max over ranks of final virtual time.
    pub exec_time: f64,
}

/// Block boundaries for distributing `n` items over `parts` processors:
/// returns `parts + 1` offsets.
fn offsets(n: usize, parts: usize) -> Vec<usize> {
    (0..=parts).map(|i| i * n / parts).collect()
}

/// Multiplies `A × B` with classic SUMMA on a `pr × pc` grid using panel
/// width `nb`, with free communication.
///
/// # Panics
/// Panics unless `A`/`B` are square and of equal size, `pr·pc ≥ 1`, and
/// `n ≥ max(pr, pc)`.
pub fn summa_multiply(
    a: &DenseMatrix,
    b: &DenseMatrix,
    pr: usize,
    pc: usize,
    nb: usize,
) -> SummaResult {
    summa_multiply_with_cost(a, b, pr, pc, nb, ZeroCost)
}

/// [`summa_multiply`] with a communication cost model for the virtual
/// clocks.
pub fn summa_multiply_with_cost(
    a: &DenseMatrix,
    b: &DenseMatrix,
    pr: usize,
    pc: usize,
    nb: usize,
    cost: impl CostModel,
) -> SummaResult {
    let n = a.rows();
    assert_eq!((a.rows(), a.cols()), (n, n), "A must be square");
    assert_eq!((b.rows(), b.cols()), (n, n), "B must be square");
    assert!(pr >= 1 && pc >= 1, "grid must be non-empty");
    assert!(n >= pr && n >= pc, "matrix too small for the grid");
    assert!(nb >= 1, "panel width must be positive");

    let p = pr * pc;
    let rows = offsets(n, pr);
    let cols = offsets(n, pc);
    let universe = Universe::new(p, cost);

    let results = universe.run(|comm| {
        let rank = comm.rank();
        let (pi, pj) = (rank / pc, rank % pc);
        let (r0, r1) = (rows[pi], rows[pi + 1]);
        let (c0, c1) = (cols[pj], cols[pj + 1]);
        let (mr, mc) = (r1 - r0, c1 - c0);

        // Row communicator (same pi) and column communicator (same pj).
        let row_members: Vec<usize> = (0..pc).map(|j| pi * pc + j).collect();
        let col_members: Vec<usize> = (0..pr).map(|i| i * pc + pj).collect();
        let mut row_comm = comm
            .subgroup(&row_members, 1_000 + pi as u64)
            .expect("rank missing from its row");
        let mut col_comm = comm
            .subgroup(&col_members, 2_000 + pj as u64)
            .expect("rank missing from its column");

        // Local blocks.
        let a_local = a.submatrix(r0, c0, mr, mc);
        let b_local = b.submatrix(r0, c0, mr, mc);
        let mut c_local = DenseMatrix::zeros(mr, mc);

        // Panel loop: panels never straddle an owner boundary.
        let mut k0 = 0;
        while k0 < n {
            if let Some(m) = comm.metrics() {
                m.panel_steps.inc();
            }
            // Owner column of A panel / owner row of B panel.
            let jk = cols.partition_point(|&c| c <= k0) - 1;
            let ik = rows.partition_point(|&r| r <= k0) - 1;
            let kb = nb.min(cols[jk + 1] - k0).min(rows[ik + 1] - k0).min(n - k0);

            // A panel: my rows × columns k0..k0+kb, owned by (pi, jk).
            let a_panel = {
                let payload = if pj == jk {
                    a_local
                        .submatrix(0, k0 - cols[jk], mr, kb)
                        .as_slice()
                        .to_vec()
                } else {
                    Vec::new()
                };
                row_comm
                    .bcast(jk, summagen_comm::Payload::F64(payload))
                    .into_f64()
            };
            // B panel: rows k0..k0+kb × my columns, owned by (ik, pj).
            let b_panel = {
                let payload = if pi == ik {
                    b_local
                        .submatrix(k0 - rows[ik], 0, kb, mc)
                        .as_slice()
                        .to_vec()
                } else {
                    Vec::new()
                };
                col_comm
                    .bcast(ik, summagen_comm::Payload::F64(payload))
                    .into_f64()
            };

            // Rank-kb update: C_local += A_panel (mr x kb) * B_panel (kb x mc).
            gemm_blocked(
                mr,
                mc,
                kb,
                1.0,
                &a_panel,
                kb,
                &b_panel,
                mc,
                1.0,
                c_local.as_mut_slice(),
                mc,
            );
            k0 += kb;
        }

        ((r0, c0, c_local), comm.clock_snapshot(), comm.traffic())
    });

    let mut c = DenseMatrix::zeros(n, n);
    let mut clocks = Vec::with_capacity(p);
    let mut traffic = Vec::with_capacity(p);
    for ((r0, c0, blk), clk, tr) in results {
        c.set_submatrix(r0, c0, &blk);
        clocks.push(clk);
        traffic.push(tr);
    }
    let exec_time = clocks.iter().map(|c| c.now).fold(0.0, f64::max);
    SummaResult {
        c,
        clocks,
        traffic,
        exec_time,
    }
}

/// Simulated-time classic SUMMA at paper scale: executes the same panel
/// schedule with phantom payloads, timing local updates with the device
/// model (rank `i` on `platform.processors[i]`).
pub fn summa_simulate(
    n: usize,
    pr: usize,
    pc: usize,
    nb: usize,
    platform: &Platform,
    hockney: HockneyModel,
) -> (f64, Vec<ClockSnapshot>) {
    let p = pr * pc;
    assert!(platform.len() >= p, "platform too small for the grid");
    assert!(n >= pr && n >= pc && nb >= 1, "bad geometry");
    let rows = offsets(n, pr);
    let cols = offsets(n, pc);
    let clocks = Universe::new(p, hockney).run(|comm| {
        let rank = comm.rank();
        let (pi, pj) = (rank / pc, rank % pc);
        let (mr, mc) = (rows[pi + 1] - rows[pi], cols[pj + 1] - cols[pj]);
        let row_members: Vec<usize> = (0..pc).map(|j| pi * pc + j).collect();
        let col_members: Vec<usize> = (0..pr).map(|i| i * pc + pj).collect();
        let mut row_comm = comm.subgroup(&row_members, 1_000 + pi as u64).unwrap();
        let mut col_comm = comm.subgroup(&col_members, 2_000 + pj as u64).unwrap();
        let proc = &platform.processors[rank];
        let area = (mr * mc) as f64;

        let mut k0 = 0;
        while k0 < n {
            let jk = cols.partition_point(|&c| c <= k0) - 1;
            let ik = rows.partition_point(|&r| r <= k0) - 1;
            let kb = nb.min(cols[jk + 1] - k0).min(rows[ik + 1] - k0).min(n - k0);
            row_comm.bcast(jk, summagen_comm::Payload::Phantom { elems: mr * kb });
            col_comm.bcast(ik, summagen_comm::Payload::Phantom { elems: kb * mc });
            comm.advance_compute(proc.dgemm_time(mr, kb, mc, area));
            k0 += kb;
        }
        comm.clock_snapshot()
    });
    let exec = clocks.iter().map(|c| c.now).fold(0.0, f64::max);
    (exec, clocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_matrix::{approx_eq, gemm_naive, gemm_tolerance, random_matrix};

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

    #[test]
    fn summa_2x2_correct() {
        let n = 32;
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        let r = summa_multiply(&a, &b, 2, 2, 8);
        assert!(approx_eq(
            &r.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
    }

    #[test]
    fn summa_rect_grids_and_odd_sizes() {
        for (n, pr, pc, nb) in [
            (30usize, 3, 2, 4),
            (25, 1, 5, 7),
            (17, 2, 2, 16),
            (40, 4, 1, 3),
        ] {
            let a = random_matrix(n, n, 10);
            let b = random_matrix(n, n, 11);
            let r = summa_multiply(&a, &b, pr, pc, nb);
            assert!(
                approx_eq(&r.c, &reference(&a, &b), gemm_tolerance(n) * 100.0),
                "n={n} grid {pr}x{pc} nb={nb}"
            );
        }
    }

    #[test]
    fn summa_single_processor() {
        let n = 16;
        let a = random_matrix(n, n, 3);
        let b = random_matrix(n, n, 4);
        let r = summa_multiply(&a, &b, 1, 1, 4);
        assert!(approx_eq(
            &r.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
        assert_eq!(r.traffic[0].msgs_sent, 0);
    }

    #[test]
    fn panel_width_does_not_change_result() {
        let n = 24;
        let a = random_matrix(n, n, 5);
        let b = random_matrix(n, n, 6);
        let r1 = summa_multiply(&a, &b, 2, 2, 1);
        let r2 = summa_multiply(&a, &b, 2, 2, 12);
        assert!(approx_eq(&r1.c, &r2.c, 1e-10));
    }

    #[test]
    fn narrower_panels_mean_more_messages() {
        let n = 32;
        let a = random_matrix(n, n, 7);
        let b = random_matrix(n, n, 8);
        let wide = summa_multiply(&a, &b, 2, 2, 16);
        let narrow = summa_multiply(&a, &b, 2, 2, 2);
        let msgs = |r: &SummaResult| r.traffic.iter().map(|t| t.msgs_sent).sum::<u64>();
        assert!(msgs(&narrow) > msgs(&wide));
    }

    #[test]
    fn simulated_summa_runs_at_paper_scale() {
        use summagen_platform::profile::hclserver1;
        // 3 abstract processors in a 1x3 grid (degenerate but valid).
        let (exec, clocks) =
            summa_simulate(8_192, 1, 3, 512, &hclserver1(), HockneyModel::intra_node());
        assert!(exec > 0.0);
        assert_eq!(clocks.len(), 3);
        assert!(clocks.iter().all(|c| c.comp_time > 0.0));
    }

    #[test]
    fn hockney_clocks_advance() {
        let n = 24;
        let a = random_matrix(n, n, 9);
        let b = random_matrix(n, n, 10);
        let r = summa_multiply_with_cost(&a, &b, 2, 2, 6, HockneyModel::intra_node());
        assert!(r.exec_time > 0.0);
        assert!(r.clocks.iter().all(|c| c.comm_time > 0.0));
    }
}
