//! GEMM kernels operating on strided row-major submatrices.
//!
//! All kernels compute `C = alpha * A * B + beta * C` where `A` is `m x k`
//! with leading dimension `lda`, `B` is `k x n` with leading dimension `ldb`,
//! and `C` is `m x n` with leading dimension `ldc`. The slices start at the
//! top-left element of each submatrix, which lets SummaGen multiply windows
//! of `WA` and `WB` straight into a window of the local `C` partition — the
//! same calling convention as the vendor DGEMM the paper wraps in
//! `localDgemm` (Fig. 4).
//!
//! [`gemm_blocked`] stands in for that DGEMM. It is a BLIS-style packed
//! kernel: `alpha*A` is packed into `MR`-tall and `B` into `NR`-wide
//! micro-panels of cache-sized blocks, and each `MR x NR` tile of `C` is
//! carried in registers through a block's depth and stored once. The
//! tile is picked at run time, once per process: 4×16 with AVX-512F and
//! FMA, 4×8 with AVX2 and FMA, and a portable 4×4 elsewhere.
//! [`gemm_parallel`] runs the same kernel over row bands of `C` on up to
//! [`crate::thread_budget`] threads.
//!
//! Numeric contract: after `beta` scales `C`, each element is one chain
//! of multiply-adds over `k` in ascending order. The bits therefore do
//! not depend on the blocking, on the row bands (`Parallel` ==
//! `Blocked`), or on how `k` is split across calls that accumulate with
//! `beta = 1`. They do depend on whether the multiply-adds are fused:
//! the AVX-512 and AVX2 variants agree with each other, the portable one
//! rounds every product separately.

use crate::budget::thread_budget;
use std::sync::OnceLock;

/// Selects which local-computation kernel SummaGen uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GemmKernel {
    /// Triple-loop reference kernel. Slow; used for verification.
    Naive,
    /// Packed, register-tiled kernel on the calling thread
    /// ([`gemm_blocked`]).
    Blocked,
    /// The `Blocked` kernel over row bands of `C`, one thread per band
    /// within the caller's [`crate::thread_budget`] ([`gemm_parallel`]);
    /// bit-identical to `Blocked`. This is the "multi-threaded CPU
    /// kernel" analogue of the paper's MKL DGEMM.
    #[default]
    Parallel,
}

impl GemmKernel {
    /// Runs the selected kernel.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        beta: f64,
        c: &mut [f64],
        ldc: usize,
    ) {
        match self {
            GemmKernel::Naive => gemm_naive(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc),
            GemmKernel::Blocked => gemm_blocked(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc),
            GemmKernel::Parallel => gemm_parallel(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc),
        }
    }

    /// Runs the selected kernel and, if an observer is given, reports the
    /// call's shape and wall-clock duration to it. With `None` this is
    /// exactly [`GemmKernel::run`] — the timing branch costs nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn run_observed(
        &self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        beta: f64,
        c: &mut [f64],
        ldc: usize,
        observer: Option<&dyn GemmObserver>,
    ) {
        match observer {
            None => self.run(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc),
            Some(obs) => {
                let t0 = std::time::Instant::now();
                self.run(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
                obs.on_gemm(m, n, k, t0.elapsed().as_nanos() as u64);
            }
        }
    }
}

/// Callback for per-invocation kernel telemetry. The executor's tracing
/// layer implements this to attach measured wall-clock kernel times to
/// its virtual-time GEMM spans without this crate knowing about either
/// clock.
pub trait GemmObserver {
    /// Called after each kernel invocation with the multiply shape and
    /// the kernel's wall-clock duration in nanoseconds.
    fn on_gemm(&self, m: usize, n: usize, k: usize, elapsed_ns: u64);
}

/// A metrics bundle's GEMM telemetry is directly usable as an observer:
/// each invocation lands in the wall-clock kernel duration and GFLOP/s
/// histograms. (Virtual-clock accounting stays with the executor, which
/// owns the cost model.)
impl GemmObserver for summagen_metrics::GemmTelemetry {
    fn on_gemm(&self, m: usize, n: usize, k: usize, elapsed_ns: u64) {
        self.record_kernel(m, n, k, elapsed_ns);
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the BLAS dgemm signature
fn check_dims(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &[f64],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(k == 0 || lda >= k, "lda {lda} < k {k}");
    assert!(ldb >= n, "ldb {ldb} < n {n}");
    assert!(ldc >= n, "ldc {ldc} < n {n}");
    if k > 0 {
        assert!(
            a.len() >= (m - 1) * lda + k,
            "A buffer too short: {} for {m}x{k} ld {lda}",
            a.len()
        );
        assert!(
            b.len() >= (k - 1) * ldb + n,
            "B buffer too short: {} for {k}x{n} ld {ldb}",
            b.len()
        );
    }
    assert!(
        c.len() >= (m - 1) * ldc + n,
        "C buffer too short: {} for {m}x{n} ld {ldc}",
        c.len()
    );
}

/// Reference triple-loop GEMM. `C = alpha*A*B + beta*C`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_naive(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    check_dims(m, n, k, a, lda, b, ldb, c, ldc);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..k {
                acc += a[i * lda + l] * b[l * ldb + j];
            }
            c[i * ldc + j] = alpha * acc + beta * c[i * ldc + j];
        }
    }
}

/// Cache blocking of the packed kernel (BLIS's loop parameters): a
/// `KC x NR` micro-panel of packed `B` stays in L1 while the micro-kernel
/// sweeps an `MC x KC` block of packed `A` held in L2; the `KC x NC`
/// block of packed `B` is reused across all of `A`'s row blocks.
const MC: usize = 128;
const KC: usize = 256;
const NC: usize = 4096;

/// Below this many multiply-adds `gemm_parallel` stays on the calling
/// thread: a thread spawn costs more than the work it would take over.
const PARALLEL_MIN_WORK: usize = 64 * 64 * 64;

/// The micro-kernel variant a kernel call runs. Each variant rounds
/// differently (fused or separate multiply-add), so the choice is made
/// once per process by [`Isa::host`] and every call in the process
/// produces the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// AVX-512F + FMA: a 4×16 register tile.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2 + FMA: a 4×8 tile (4×16 spills on AVX2's 16 registers).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Any target: a 4×4 tile with separate multiply and add.
    Portable,
}

impl Isa {
    /// Rows of the register tile; row bands of `gemm_parallel` are
    /// multiples of it.
    const MR: usize = 4;

    /// The best variant this host supports, detected on first use.
    fn host() -> Isa {
        static HOST: OnceLock<Isa> = OnceLock::new();
        *HOST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            for isa in [Isa::Avx512, Isa::Avx2] {
                if isa.supported() {
                    return isa;
                }
            }
            Isa::Portable
        })
    }

    /// Whether the running CPU has this variant's instructions.
    fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            Isa::Portable => true,
        }
    }

    /// `C = alpha*A*B + beta*C` with this variant's micro-kernel. The
    /// caller has checked the dimensions. Panics if the CPU lacks the
    /// variant's instructions.
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        beta: f64,
        c: &mut [f64],
        ldc: usize,
    ) {
        if m == 0 || n == 0 {
            return;
        }
        // Apply beta once up front; the tiles then continue from C.
        if beta != 1.0 {
            for i in 0..m {
                for x in &mut c[i * ldc..i * ldc + n] {
                    *x *= beta;
                }
            }
        }
        if k == 0 || alpha == 0.0 {
            return;
        }
        assert!(self.supported(), "this CPU cannot run the {self:?} kernel");
        let args = (m, n, k, alpha, a, lda, b, ldb, c, ldc);
        match self {
            // SAFETY: the assert above checked that the CPU has AVX-512F
            // and FMA, the features `packed_avx512` enables.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { packed_avx512(args) },
            // SAFETY: as above, for AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { packed_avx2(args) },
            Isa::Portable => packed::<{ Isa::MR }, 4, false>(args),
        }
    }
}

/// The arguments of [`packed`], after `beta` has been applied.
type PackedArgs<'a> = (
    usize,
    usize,
    usize,
    f64,
    &'a [f64],
    usize,
    &'a [f64],
    usize,
    &'a mut [f64],
    usize,
);

/// [`packed`] with a 4×16 fused tile, compiled for AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn packed_avx512(args: PackedArgs) {
    packed::<{ Isa::MR }, 16, true>(args)
}

/// [`packed`] with a 4×8 fused tile, compiled for AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn packed_avx2(args: PackedArgs) {
    packed::<{ Isa::MR }, 8, true>(args)
}

/// BLIS-style packed GEMM body, `C += alpha*A*B`: for each `KC x NC`
/// block of `B` (packed into `NR`-wide micro-panels) and each `MC x KC`
/// block of `alpha*A` (packed into `MR`-tall micro-panels), every
/// `MR x NR` tile of `C` is loaded into registers, carried through the
/// `KC` depth and stored back once. Edges are zero-padded in the packed
/// buffers, so every tile runs the full-size micro-kernel.
///
/// Because the tile starts from `C` rather than from zero, each element
/// of `C` is one chain of multiply-adds over `k` in ascending order,
/// whatever the element's position in a tile, the cache blocking, the
/// row band it falls in ([`gemm_parallel`] is bit-identical to
/// [`gemm_blocked`]) or how `k` is split across calls accumulating with
/// `beta = 1` (SummaGen's panels).
#[inline(always)]
fn packed<const MR: usize, const NR: usize, const FMA: bool>(
    (m, n, k, alpha, a, lda, b, ldb, c, ldc): PackedArgs,
) {
    let mut bpack = vec![0.0; KC.min(k) * NC.min(n).next_multiple_of(NR)];
    let mut apack = vec![0.0; MC.min(m).next_multiple_of(MR) * KC.min(k)];
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let bpack = &mut bpack[..kc * nc.next_multiple_of(NR)];
            pack_b::<NR>(kc, nc, &b[pc * ldb + jc..], ldb, bpack);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                let apack = &mut apack[..mc.next_multiple_of(MR) * kc];
                pack_a::<MR>(mc, kc, alpha, &a[ic * lda + pc..], lda, apack);
                for (jp, bpanel) in bpack.chunks_exact(kc * NR).enumerate() {
                    let (j0, nr) = (jc + jp * NR, NR.min(nc - jp * NR));
                    for (ip, apanel) in apack.chunks_exact(kc * MR).enumerate() {
                        let (i0, mr) = (ic + ip * MR, MR.min(mc - ip * MR));
                        let mut tile = [[0.0; NR]; MR];
                        for (i, row) in tile.iter_mut().enumerate().take(mr) {
                            row[..nr].copy_from_slice(&c[(i0 + i) * ldc + j0..][..nr]);
                        }
                        let tile = micro_tile::<MR, NR, FMA>(apanel, bpanel, tile);
                        for (i, row) in tile.iter().enumerate().take(mr) {
                            c[(i0 + i) * ldc + j0..][..nr].copy_from_slice(&row[..nr]);
                        }
                    }
                }
            }
        }
    }
}

/// Packs the `mc x kc` block of `A` at `a` (leading dimension `lda`),
/// scaled by `alpha`, into `MR`-tall micro-panels: panel `p` holds rows
/// `p*MR..p*MR+MR` column by column, rows past `mc` zero.
#[inline(always)]
fn pack_a<const MR: usize>(
    mc: usize,
    kc: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    out: &mut [f64],
) {
    for (p, panel) in out.chunks_exact_mut(kc * MR).enumerate() {
        for i in 0..MR {
            let row = p * MR + i;
            if row < mc {
                let src = &a[row * lda..][..kc];
                for (dst, &x) in panel.iter_mut().skip(i).step_by(MR).zip(src) {
                    *dst = alpha * x;
                }
            } else {
                panel.iter_mut().skip(i).step_by(MR).for_each(|x| *x = 0.0);
            }
        }
    }
}

/// Packs the `kc x nc` block of `B` at `b` (leading dimension `ldb`) into
/// `NR`-wide micro-panels: panel `p` holds columns `p*NR..p*NR+NR` row by
/// row, columns past `nc` zero.
#[inline(always)]
fn pack_b<const NR: usize>(kc: usize, nc: usize, b: &[f64], ldb: usize, out: &mut [f64]) {
    for (p, panel) in out.chunks_exact_mut(kc * NR).enumerate() {
        let (j0, w) = (p * NR, NR.min(nc - p * NR));
        for (l, dst) in panel.chunks_exact_mut(NR).enumerate() {
            dst[..w].copy_from_slice(&b[l * ldb + j0..][..w]);
            dst[w..].fill(0.0);
        }
    }
}

/// The `MR x NR` register tile: adds `a[l] ⊗ b[l]` to `acc` for each `l`
/// in ascending order, for packed micro-panels `a` (`MR` values per `l`)
/// and `b` (`NR` values per `l`). The fixed-size loops unroll and
/// vectorize across `NR`. `FMA` fuses each multiply-add; only set it
/// where the `fma` target feature is enabled, since without it
/// `f64::mul_add` is a slow library call.
#[inline(always)]
fn micro_tile<const MR: usize, const NR: usize, const FMA: bool>(
    a: &[f64],
    b: &[f64],
    mut acc: [[f64; NR]; MR],
) -> [[f64; NR]; MR] {
    for (ap, bp) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        for (row, &av) in acc.iter_mut().zip(ap) {
            for (t, &bv) in row.iter_mut().zip(bp) {
                *t = if FMA {
                    av.mul_add(bv, *t)
                } else {
                    *t + av * bv
                };
            }
        }
    }
    acc
}

/// Packed, register-tiled serial GEMM on the calling thread.
/// `C = alpha*A*B + beta*C`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_blocked(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    check_dims(m, n, k, a, lda, b, ldb, c, ldc);
    Isa::host().gemm(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

/// [`gemm_blocked`] over row bands of `C`, one per thread, using up to
/// [`thread_budget`] threads (the caller's included). Band heights are
/// multiples of the tile height and `k` is never split, so the result is
/// bit-identical to [`gemm_blocked`]. With a budget of 1, or a problem
/// too small to pay for a thread, nothing is spawned.
/// `C = alpha*A*B + beta*C`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_parallel(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    check_dims(m, n, k, a, lda, b, ldb, c, ldc);
    let isa = Isa::host();
    let bands = thread_budget().min(m.div_ceil(Isa::MR));
    if bands <= 1 || m * n * k < PARALLEL_MIN_WORK {
        return isa.gemm(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    }
    let height = m.div_ceil(bands).next_multiple_of(Isa::MR);
    std::thread::scope(|s| {
        let mut rest = &mut c[..(m - 1) * ldc + n];
        for r0 in (0..m).step_by(height) {
            let rows = height.min(m - r0);
            let band_a = &a[r0 * lda..];
            if r0 + rows == m {
                // The last band runs on the calling thread.
                return isa.gemm(rows, n, k, alpha, band_a, lda, b, ldb, beta, rest, ldc);
            }
            let (band_c, tail) = std::mem::take(&mut rest).split_at_mut(rows * ldc);
            rest = tail;
            s.spawn(move || isa.gemm(rows, n, k, alpha, band_a, lda, b, ldb, beta, band_c, ldc));
        }
    });
}

#[cfg(test)]
#[allow(clippy::identity_op, clippy::erasing_op)] // spelled-out row*ld + col indexing
mod tests {
    use super::*;
    use crate::{deterministic_matrix, gemm_tolerance, random_matrix, DenseMatrix};

    /// Reference multiply on whole matrices.
    fn mul_ref(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut c = DenseMatrix::zeros(a.rows(), b.cols());
        gemm_naive(
            a.rows(),
            b.cols(),
            a.cols(),
            1.0,
            a.as_slice(),
            a.cols(),
            b.as_slice(),
            b.cols(),
            0.0,
            c.as_mut_slice(),
            b.cols(),
        );
        c
    }

    fn run_kernel(kernel: GemmKernel, a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut c = DenseMatrix::zeros(a.rows(), b.cols());
        kernel.run(
            a.rows(),
            b.cols(),
            a.cols(),
            1.0,
            a.as_slice(),
            a.cols(),
            b.as_slice(),
            b.cols(),
            0.0,
            c.as_mut_slice(),
            b.cols(),
        );
        c
    }

    #[test]
    fn observed_run_reports_shape_and_matches_plain_run() {
        use std::cell::RefCell;
        struct Probe(RefCell<Vec<(usize, usize, usize, u64)>>);
        impl GemmObserver for Probe {
            fn on_gemm(&self, m: usize, n: usize, k: usize, elapsed_ns: u64) {
                self.0.borrow_mut().push((m, n, k, elapsed_ns));
            }
        }
        let a = deterministic_matrix(9, 11);
        let b = deterministic_matrix(11, 7);
        let expected = mul_ref(&a, &b);
        let probe = Probe(RefCell::new(Vec::new()));
        let mut c = DenseMatrix::zeros(9, 7);
        GemmKernel::Blocked.run_observed(
            9,
            7,
            11,
            1.0,
            a.as_slice(),
            11,
            b.as_slice(),
            7,
            0.0,
            c.as_mut_slice(),
            7,
            Some(&probe),
        );
        assert!(crate::approx_eq(&c, &expected, 1e-12));
        let calls = probe.0.borrow();
        assert_eq!(calls.len(), 1);
        assert_eq!((calls[0].0, calls[0].1, calls[0].2), (9, 7, 11));
        // Without an observer, run_observed is plain run.
        let mut c2 = DenseMatrix::zeros(9, 7);
        GemmKernel::Blocked.run_observed(
            9,
            7,
            11,
            1.0,
            a.as_slice(),
            11,
            b.as_slice(),
            7,
            0.0,
            c2.as_mut_slice(),
            7,
            None,
        );
        assert!(crate::approx_eq(&c2, &expected, 1e-12));
    }

    #[test]
    fn identity_is_neutral_for_all_kernels() {
        let a = deterministic_matrix(17, 17);
        let id = DenseMatrix::identity(17);
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked, GemmKernel::Parallel] {
            let c = run_kernel(kernel, &a, &id);
            assert!(crate::approx_eq(&c, &a, 1e-12), "kernel {kernel:?}");
        }
    }

    /// Every micro-kernel variant this host can run; always includes the
    /// portable one.
    fn host_isas() -> Vec<Isa> {
        let all = [
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2,
            Isa::Portable,
        ];
        all.into_iter().filter(|isa| isa.supported()).collect()
    }

    /// `alpha*A*B + beta*C` on strided windows (`lda = k+3`, `ldb = n+5`,
    /// `ldc = n+2`) through `isa` and through `gemm_naive`; asserts they
    /// agree within `gemm_tolerance(k)` and that the padding columns of
    /// `C` are untouched.
    fn check_variant(isa: Isa, (m, n, k): (usize, usize, usize), alpha: f64, beta: f64) {
        let (lda, ldb, ldc) = (k + 3, n + 5, n + 2);
        let a = random_matrix(m, lda, 40);
        let b = random_matrix(k.max(1), ldb, 41);
        let c0 = random_matrix(m, ldc, 42);
        let mut want = c0.clone();
        gemm_naive(
            m,
            n,
            k,
            alpha,
            a.as_slice(),
            lda,
            b.as_slice(),
            ldb,
            beta,
            want.as_mut_slice(),
            ldc,
        );
        let mut got = c0.clone();
        isa.gemm(
            m,
            n,
            k,
            alpha,
            a.as_slice(),
            lda,
            b.as_slice(),
            ldb,
            beta,
            got.as_mut_slice(),
            ldc,
        );
        let err = crate::max_abs_diff(&got, &want);
        assert!(
            err <= gemm_tolerance(k),
            "{isa:?} at {m}x{n}x{k}, alpha {alpha}, beta {beta}: error {err}"
        );
        for i in 0..m {
            for j in n..ldc {
                assert_eq!(got.get(i, j), c0.get(i, j), "{isa:?} wrote padding");
            }
        }
    }

    #[test]
    fn blocked_matches_naive_on_awkward_sizes() {
        // Shapes straddling the tile (MR = 4, NR <= 16) and cache-block
        // (MC, KC, NC) edges, including m < MR.
        let shapes = [
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 8),
            (5, 17, 9),
            (MC + 1, 9, 3),
            (7, 33, KC + 1),
            (6, 3, 2 * KC + 5),
            (2, NC + 3, 3),
            (130, 70, 300),
        ];
        for isa in host_isas() {
            for shape in shapes {
                check_variant(isa, shape, 1.0, 0.0);
                check_variant(isa, shape, -1.5, 0.25);
            }
        }
    }

    #[test]
    fn every_variant_keeps_the_degenerate_cases() {
        for isa in host_isas() {
            // alpha = 0 and k = 0 only scale C by beta.
            for (alpha, k) in [(0.0, 5), (2.0, 0)] {
                let a = random_matrix(6, 5, 50);
                let b = random_matrix(5, 7, 51);
                let mut c = DenseMatrix::from_fn(6, 7, |i, j| (i * 7 + j) as f64);
                let mut want = c.clone();
                want.scale(3.0);
                isa.gemm(
                    6,
                    7,
                    k,
                    alpha,
                    a.as_slice(),
                    5,
                    b.as_slice(),
                    7,
                    3.0,
                    c.as_mut_slice(),
                    7,
                );
                assert_eq!(c, want, "{isa:?}, alpha {alpha}, k {k}");
            }
        }
    }

    fn same_bits(x: &DenseMatrix, y: &DenseMatrix) -> bool {
        let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        bits(x) == bits(y)
    }

    #[test]
    fn splitting_k_across_calls_keeps_the_bits() {
        // SummaGen accumulates one panel of k per call with beta = 1; the
        // product must not depend on where the panels split k.
        let (m, n, k) = (37, 45, 2 * KC + 19);
        let a = random_matrix(m, k, 70);
        let b = random_matrix(k, n, 71);
        let c0 = random_matrix(m, n, 72);
        let (a, b) = (a.as_slice(), b.as_slice());
        for isa in host_isas() {
            let mut whole = c0.clone();
            isa.gemm(m, n, k, 1.0, a, k, b, n, 0.5, whole.as_mut_slice(), n);
            for split in [1, 7, KC, KC + 3, k - 1] {
                let mut parts = c0.clone();
                let c = parts.as_mut_slice();
                isa.gemm(m, n, split, 1.0, a, k, b, n, 0.5, c, n);
                let rest = k - split;
                isa.gemm(
                    m,
                    n,
                    rest,
                    1.0,
                    &a[split..],
                    k,
                    &b[split * n..],
                    n,
                    1.0,
                    c,
                    n,
                );
                assert!(same_bits(&parts, &whole), "{isa:?}, k split at {split}");
            }
        }
    }

    #[test]
    fn fused_variants_agree_bit_for_bit() {
        let (m, n, k) = (21, 40, 300);
        let a = random_matrix(m, k, 80);
        let b = random_matrix(k, n, 81);
        let run = |isa: Isa| {
            let mut c = DenseMatrix::zeros(m, n);
            isa.gemm(
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
            c
        };
        let fused: Vec<_> = host_isas()
            .into_iter()
            .filter(|&isa| isa != Isa::Portable)
            .collect();
        for pair in fused.windows(2) {
            assert!(same_bits(&run(pair[0]), &run(pair[1])), "{pair:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        /// Property: at any explicit thread count, `gemm_parallel` splits
        /// rows only, so its bits equal `gemm_blocked`'s. Every sampled
        /// problem is large enough to take the threaded path.
        #[test]
        fn parallel_is_bit_identical_to_blocked(
            m in 64usize..160,
            n in 64usize..100,
            k in 64usize..200,
            threads in 1usize..=4,
            seed in 0u64..1000,
        ) {
            let (lda, ldc) = (k + 1, n + 3);
            let a = random_matrix(m, lda, seed);
            let b = random_matrix(k, n, seed + 1);
            let c0 = random_matrix(m, ldc, seed + 2);
            let run = |kernel: GemmKernel| {
                let mut c = c0.clone();
                kernel.run(m, n, k, 0.75, a.as_slice(), lda, b.as_slice(), n, 0.5, c.as_mut_slice(), ldc);
                c
            };
            let blocked = run(GemmKernel::Blocked);
            let parallel = crate::with_thread_budget(threads, || run(GemmKernel::Parallel));
            proptest::prop_assert!(same_bits(&blocked, &parallel), "{m}x{n}x{k} on {threads} threads");
        }
    }

    #[test]
    fn parallel_matches_naive() {
        let a = random_matrix(90, 110, 7);
        let b = random_matrix(110, 75, 8);
        let c1 = mul_ref(&a, &b);
        let c2 = run_kernel(GemmKernel::Parallel, &a, &b);
        assert!(crate::approx_eq(&c1, &c2, gemm_tolerance(110) * 100.0));
    }

    #[test]
    fn beta_accumulates_existing_c() {
        let a = random_matrix(10, 10, 1);
        let b = random_matrix(10, 10, 2);
        let mut c = random_matrix(10, 10, 3);
        let c0 = c.clone();
        let prod = mul_ref(&a, &b);
        gemm_blocked(
            10,
            10,
            10,
            2.0,
            a.as_slice(),
            10,
            b.as_slice(),
            10,
            0.5,
            c.as_mut_slice(),
            10,
        );
        for i in 0..10 {
            for j in 0..10 {
                let want = 2.0 * prod.get(i, j) + 0.5 * c0.get(i, j);
                assert!((c.get(i, j) - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn strided_submatrix_multiply() {
        // Multiply the 3x4 window of A at (1,2) by the 4x2 window of B at
        // (0,1), writing into a 3x2 window of C at (2,3).
        let a = random_matrix(8, 8, 10);
        let b = random_matrix(8, 8, 11);
        let mut c = DenseMatrix::zeros(8, 8);
        let (m, n, k) = (3, 2, 4);
        gemm_blocked(
            m,
            n,
            k,
            1.0,
            &a.as_slice()[1 * 8 + 2..],
            8,
            &b.as_slice()[0 * 8 + 1..],
            8,
            0.0,
            &mut c.as_mut_slice()[2 * 8 + 3..],
            8,
        );
        let want = mul_ref(&a.submatrix(1, 2, m, k), &b.submatrix(0, 1, k, n));
        assert!(crate::approx_eq(&c.submatrix(2, 3, m, n), &want, 1e-10));
        // Outside the window C stays zero.
        assert_eq!(c.get(0, 0), 0.0);
        assert_eq!(c.get(7, 7), 0.0);
        assert_eq!(c.get(2, 2), 0.0);
    }

    #[test]
    fn zero_k_scales_c_by_beta_only() {
        let mut c = DenseMatrix::from_fn(3, 3, |_, _| 4.0);
        gemm_blocked(3, 3, 0, 1.0, &[], 1, &[], 3, 0.25, c.as_mut_slice(), 3);
        assert!(c.as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn zero_m_or_n_is_noop() {
        let mut c = vec![9.0; 4];
        gemm_blocked(0, 2, 2, 1.0, &[1.0; 4], 2, &[1.0; 4], 2, 0.0, &mut c, 2);
        gemm_parallel(2, 0, 2, 1.0, &[1.0; 4], 2, &[1.0; 4], 2, 0.0, &mut c, 2);
        assert_eq!(c, vec![9.0; 4]);
    }

    #[test]
    #[should_panic(expected = "A buffer too short")]
    fn rejects_short_a_buffer() {
        let mut c = vec![0.0; 4];
        gemm_naive(2, 2, 2, 1.0, &[1.0; 3], 2, &[1.0; 4], 2, 0.0, &mut c, 2);
    }

    #[test]
    fn alpha_zero_only_applies_beta() {
        let a = random_matrix(5, 5, 20);
        let b = random_matrix(5, 5, 21);
        let mut c = DenseMatrix::from_fn(5, 5, |i, j| (i + j) as f64);
        let expect = {
            let mut e = c.clone();
            e.scale(3.0);
            e
        };
        gemm_blocked(
            5,
            5,
            5,
            0.0,
            a.as_slice(),
            5,
            b.as_slice(),
            5,
            3.0,
            c.as_mut_slice(),
            5,
        );
        assert!(crate::approx_eq(&c, &expect, 1e-12));
    }

    #[test]
    fn gemm_telemetry_observes_kernel_invocations() {
        let metrics = summagen_metrics::RuntimeMetrics::fresh();
        let a = random_matrix(16, 16, 30);
        let b = random_matrix(16, 16, 31);
        let mut c = DenseMatrix::zeros(16, 16);
        GemmKernel::Blocked.run_observed(
            16,
            16,
            16,
            1.0,
            a.as_slice(),
            16,
            b.as_slice(),
            16,
            0.0,
            c.as_mut_slice(),
            16,
            Some(&metrics.gemm as &dyn GemmObserver),
        );
        assert_eq!(metrics.gemm.kernel_seconds.count(), 1);
        assert!(metrics.gemm.kernel_seconds.sum() > 0.0);
        // Wall-clock telemetry must not claim virtual-side ops/flops.
        assert_eq!(metrics.gemm.ops.get(), 0);
        assert_eq!(metrics.gemm.flops.get(), 0);
    }
}
