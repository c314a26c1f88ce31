//! Timed calls into single layers' public functions: the kernel, the
//! communication runtime, the executor's data movement and the
//! partitioner. Each returns a median over repetitions.

use summagen_comm::{Payload, Universe, ZeroCost};
use summagen_core::{assemble, distribute};
use summagen_matrix::{random_matrix, DenseMatrix, GemmKernel};
use summagen_partition::{proportional_areas, PartitionSpec, Shape, ALL_FOUR_SHAPES};

use crate::stats::{median, median_secs, timed};

/// GFLOP/s of one `n × n × n` multiply with `kernel` (median of `reps`).
pub fn kernel_gflops(kernel: GemmKernel, n: usize, reps: usize) -> f64 {
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let mut c = DenseMatrix::zeros(n, n);
    let secs = median_secs(reps, || {
        kernel.run(
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
        std::hint::black_box(&mut c);
    });
    2.0 * (n as f64).powi(3) / secs / 1e9
}

/// Replays the kernel calls an executor issued, shape by shape, through
/// the serial blocked kernel and the default parallel one, and returns
/// blocked time over parallel time (above 1: the parallel kernel wins on
/// the shapes actually issued).
pub fn parallel_vs_blocked(shapes: &[(usize, usize, usize)]) -> f64 {
    let mut blocked = 0.0;
    let mut parallel = 0.0;
    for (i, &(m, n, k)) in shapes.iter().enumerate() {
        let a = random_matrix(m, k, i as u64);
        let b = random_matrix(k, n, i as u64 + 1);
        let mut c = DenseMatrix::zeros(m, n);
        let mut run = |kernel: GemmKernel| {
            timed(|| {
                kernel.run(
                    m,
                    n,
                    k,
                    1.0,
                    a.as_slice(),
                    k,
                    b.as_slice(),
                    n,
                    0.0,
                    c.as_mut_slice(),
                    n,
                );
                std::hint::black_box(&mut c);
            })
            .1
        };
        blocked += run(GemmKernel::Blocked);
        parallel += run(GemmKernel::Parallel);
    }
    if parallel > 0.0 {
        blocked / parallel
    } else {
        0.0
    }
}

/// Round-trip microseconds of a `elems`-element f64 message between two
/// ranks of a fresh universe (median over batches of `trips`).
pub fn pingpong_rtt_us(elems: usize, trips: usize, batches: usize) -> f64 {
    let results = Universe::new(2, ZeroCost).run(move |comm| {
        let mut samples = Vec::with_capacity(batches);
        let mut payload = Payload::F64(vec![0.5; elems]);
        for _ in 0..batches {
            let t0 = std::time::Instant::now();
            for _ in 0..trips {
                if comm.rank() == 0 {
                    comm.send(1, 0, payload);
                    payload = comm.recv(1, 0);
                } else {
                    payload = comm.recv(0, 0);
                    comm.send(0, 0, payload);
                    payload = Payload::F64(Vec::new());
                }
            }
            samples.push(t0.elapsed().as_secs_f64() / trips as f64);
        }
        samples
    });
    median(&results[0]) * 1e6
}

/// Microseconds to create a three-rank universe and run an empty rank
/// body to completion (thread spawn and join).
pub fn universe_spawn_us(reps: usize) -> f64 {
    median_secs(reps, || {
        let ranks = Universe::new(3, ZeroCost).run(|comm| comm.rank());
        std::hint::black_box(ranks);
    }) * 1e6
}

/// Median milliseconds of `distribute` and of `assemble` for `spec`, the
/// latter fed the blocks of `c` each rank would hold.
pub fn distribute_assemble_ms(
    spec: &PartitionSpec,
    a: &DenseMatrix,
    b: &DenseMatrix,
    c: &DenseMatrix,
    reps: usize,
) -> (f64, f64) {
    let dist = median_secs(reps, || {
        std::hint::black_box(distribute(spec, a, b));
    });
    let blocks: Vec<Vec<_>> = (0..spec.nprocs)
        .map(|rank| {
            spec.blocks_of(rank)
                .into_iter()
                .map(|blk| {
                    let m = c.submatrix(blk.row, blk.col, blk.rows, blk.cols);
                    (blk, m)
                })
                .collect()
        })
        .collect();
    let asm = median_secs(reps, || {
        std::hint::black_box(assemble(spec, &blocks));
    });
    (dist * 1e3, asm * 1e3)
}

/// Median microseconds of one `Shape::build`, averaged over the four
/// paper shapes at each size in `sizes`.
pub fn partition_build_us(sizes: &[usize], speeds: &[f64], reps: usize) -> f64 {
    let mut per_build = Vec::new();
    for &n in sizes {
        let areas = proportional_areas(n, speeds);
        for shape in ALL_FOUR_SHAPES {
            per_build.push(median_secs(reps, || {
                std::hint::black_box(Shape::build(&shape, n, &areas));
            }));
        }
    }
    crate::stats::mean(&per_build) * 1e6
}
