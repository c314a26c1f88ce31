//! Two-dimensional functional performance models and the FPM-KL
//! partitioner (Lastovetsky & Reddy, reference \[4\] of the paper).
//!
//! Where the 1D FPMs of [`crate::distribution`] map a partition *area* to
//! a speed, a 2D FPM maps the partition's *shape* `(h, w)` to a speed —
//! capturing that a DGEMM on a `100 × 10000` sliver runs slower than on a
//! `1000 × 1000` square of the same area. FPM-KL takes a fixed `pr × pc`
//! processor grid and iteratively adjusts column widths and per-column row
//! heights until the speeds balance.

use summagen_platform::device::aspect_efficiency;

use crate::spec::PartitionSpec;

/// A speed function of the partition's height and width.
pub trait Speed2d: Send + Sync {
    /// Achieved FLOP/s for a partition of `h` rows by `w` columns.
    fn flops_hw(&self, h: f64, w: f64) -> f64;
}

/// A constant-speed 2D model scaled by the aspect-ratio efficiency of the
/// device model — the simplest realistic 2D FPM.
#[derive(Debug, Clone, Copy)]
pub struct AspectAwareSpeed {
    /// Peak FLOP/s on a fat (square-ish) partition.
    pub peak_flops: f64,
}

impl Speed2d for AspectAwareSpeed {
    fn flops_hw(&self, h: f64, w: f64) -> f64 {
        let (hi, wi) = (h.max(1.0) as usize, w.max(1.0) as usize);
        self.peak_flops * aspect_efficiency(hi, wi)
    }
}

/// A bilinear-interpolated 2D table over a rectangular `(h, w)` grid.
#[derive(Debug, Clone)]
pub struct Bilinear2d {
    hs: Vec<f64>,
    ws: Vec<f64>,
    /// `values[i][j]` = speed at `(hs[i], ws[j])`.
    values: Vec<Vec<f64>>,
}

impl Bilinear2d {
    /// Builds a table. Axes must be strictly increasing; all speeds
    /// positive.
    ///
    /// # Panics
    /// Panics on malformed axes or values.
    pub fn new(hs: Vec<f64>, ws: Vec<f64>, values: Vec<Vec<f64>>) -> Self {
        assert!(hs.len() >= 2 && ws.len() >= 2, "need a 2x2 grid at least");
        for a in [&hs, &ws] {
            for p in a.windows(2) {
                assert!(p[1] > p[0], "axes must be strictly increasing");
            }
        }
        assert_eq!(values.len(), hs.len(), "row count");
        for row in &values {
            assert_eq!(row.len(), ws.len(), "column count");
            for &v in row {
                assert!(v > 0.0 && v.is_finite(), "invalid speed {v}");
            }
        }
        Self { hs, ws, values }
    }

    fn bracket(axis: &[f64], x: f64) -> (usize, f64) {
        if x <= axis[0] {
            return (0, 0.0);
        }
        if x >= axis[axis.len() - 1] {
            return (axis.len() - 2, 1.0);
        }
        let i = axis.partition_point(|&a| a <= x) - 1;
        let t = (x - axis[i]) / (axis[i + 1] - axis[i]);
        (i, t)
    }
}

impl Speed2d for Bilinear2d {
    fn flops_hw(&self, h: f64, w: f64) -> f64 {
        let (i, th) = Self::bracket(&self.hs, h);
        let (j, tw) = Self::bracket(&self.ws, w);
        let v00 = self.values[i][j];
        let v01 = self.values[i][j + 1];
        let v10 = self.values[i + 1][j];
        let v11 = self.values[i + 1][j + 1];
        (v00 * (1.0 - th) + v10 * th) * (1.0 - tw) + (v01 * (1.0 - th) + v11 * th) * tw
    }
}

/// FPM-KL: partitions the matrix over a fixed `pr × pc` grid of
/// processors using 2D FPMs, by fixed-point iteration: column widths
/// proportional to column throughputs, per-column heights proportional to
/// member speeds, both evaluated at the current geometry.
///
/// `speeds[i * pc + j]` is the model of the processor at grid position
/// `(i, j)`.
///
/// # Panics
/// Panics if `speeds.len() != pr * pc` or the matrix is too small.
pub fn fpm_kl_layout(
    n: usize,
    pr: usize,
    pc: usize,
    speeds: &[&dyn Speed2d],
    iterations: usize,
) -> PartitionSpec {
    assert!(pr >= 1 && pc >= 1, "empty grid");
    assert_eq!(speeds.len(), pr * pc, "speed count != grid size");
    assert!(n >= pr.max(pc) * 2, "matrix too small for the grid");

    let nf = n as f64;
    // Initial geometry: uniform.
    let mut widths = vec![nf / pc as f64; pc];
    let mut heights = vec![vec![nf / pr as f64; pr]; pc]; // per column

    for _ in 0..iterations {
        // Heights within each column ∝ speeds at current geometry.
        for j in 0..pc {
            let s: Vec<f64> = (0..pr)
                .map(|i| speeds[i * pc + j].flops_hw(heights[j][i], widths[j]))
                .collect();
            let total: f64 = s.iter().sum();
            for i in 0..pr {
                heights[j][i] = nf * s[i] / total;
            }
        }
        // Column widths ∝ column throughput.
        let thr: Vec<f64> = (0..pc)
            .map(|j| {
                (0..pr)
                    .map(|i| speeds[i * pc + j].flops_hw(heights[j][i], widths[j]))
                    .sum()
            })
            .collect();
        let total: f64 = thr.iter().sum();
        for j in 0..pc {
            widths[j] = nf * thr[j] / total;
        }
    }

    // Integerize: widths then per-column heights.
    let mut wi: Vec<usize> = widths
        .iter()
        .map(|&w| w.round().max(1.0) as usize)
        .collect();
    fix_sum(&mut wi, n);
    let mut his: Vec<Vec<usize>> = heights
        .iter()
        .map(|hs| {
            let mut v: Vec<usize> = hs.iter().map(|&h| h.round().max(1.0) as usize).collect();
            fix_sum(&mut v, n);
            v
        })
        .collect();
    let _ = &mut his;

    // Refine all columns' row boundaries into one global grid (columns
    // may have different cuts).
    let mut boundaries: Vec<usize> = vec![0, n];
    for hs in &his {
        let mut acc = 0;
        for &h in hs {
            acc += h;
            boundaries.push(acc);
        }
    }
    boundaries.sort_unstable();
    boundaries.dedup();
    let grid_heights: Vec<usize> = boundaries.windows(2).map(|w| w[1] - w[0]).collect();
    let gr = grid_heights.len();
    let mut owners = vec![0usize; gr * pc];
    for j in 0..pc {
        let mut acc = 0usize;
        let mut intervals = Vec::new();
        for (i, &h) in his[j].iter().enumerate() {
            intervals.push((acc, acc + h, i * pc + j));
            acc += h;
        }
        let mut row_start = 0;
        for (bi, &h) in grid_heights.iter().enumerate() {
            let mid = row_start + h / 2;
            let proc = intervals
                .iter()
                .find(|&&(s, e, _)| mid >= s && mid < e)
                .map(|&(_, _, p)| p)
                .expect("row not covered");
            owners[bi * pc + j] = proc;
            row_start += h;
        }
    }
    PartitionSpec::new(owners, grid_heights, wi, pr * pc)
}

fn fix_sum(vals: &mut [usize], target: usize) {
    loop {
        let sum: usize = vals.iter().sum();
        match sum.cmp(&target) {
            std::cmp::Ordering::Equal => return,
            std::cmp::Ordering::Less => {
                let i = (0..vals.len()).max_by_key(|&i| vals[i]).unwrap();
                vals[i] += 1;
            }
            std::cmp::Ordering::Greater => {
                let i = (0..vals.len())
                    .filter(|&i| vals[i] > 1)
                    .max_by_key(|&i| vals[i])
                    .expect("cannot shrink");
                vals[i] -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Flat(f64);
    impl Speed2d for Flat {
        fn flops_hw(&self, _h: f64, _w: f64) -> f64 {
            self.0
        }
    }

    #[test]
    fn constant_speeds_give_proportional_areas() {
        let s = [Flat(1.0e9), Flat(2.0e9), Flat(1.0e9), Flat(2.0e9)];
        let speeds: Vec<&dyn Speed2d> = s.iter().map(|x| x as _).collect();
        let spec = fpm_kl_layout(120, 2, 2, &speeds, 20);
        let areas = spec.areas();
        assert_eq!(areas.iter().sum::<usize>(), 14_400);
        // Fast processors (1 and 3) get ~2x the area of slow ones.
        let r = areas[1] as f64 / areas[0] as f64;
        assert!((1.7..2.3).contains(&r), "ratio {r}");
    }

    #[test]
    fn bilinear_interpolates_corners_and_centre() {
        let t = Bilinear2d::new(
            vec![0.0, 10.0],
            vec![0.0, 10.0],
            vec![vec![1.0, 3.0], vec![5.0, 7.0]],
        );
        assert_eq!(t.flops_hw(0.0, 0.0), 1.0);
        assert_eq!(t.flops_hw(10.0, 10.0), 7.0);
        assert_eq!(t.flops_hw(5.0, 5.0), 4.0);
        // Constant extrapolation beyond the table.
        assert_eq!(t.flops_hw(100.0, 100.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bilinear_rejects_bad_axes() {
        Bilinear2d::new(
            vec![1.0, 1.0],
            vec![0.0, 1.0],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
        );
    }

    #[test]
    fn aspect_aware_speed_prefers_fat_partitions() {
        let s = AspectAwareSpeed { peak_flops: 1e12 };
        assert!(s.flops_hw(1000.0, 1000.0) > s.flops_hw(10.0, 100_000.0));
    }

    #[test]
    fn aspect_aware_model_gives_the_sliver_owner_less_work() {
        // Same peak speeds, but the grid forces row 0 to be thin if areas
        // were equal; the 2D model reacts to geometry. Use a 2x1 grid
        // where processor 0's speed collapses for small heights.
        struct HeightSensitive;
        impl Speed2d for HeightSensitive {
            fn flops_hw(&self, h: f64, _w: f64) -> f64 {
                1e12 * (h / (h + 200.0))
            }
        }
        let hs = HeightSensitive;
        let flat = Flat(1e12);
        let speeds: Vec<&dyn Speed2d> = vec![&hs, &flat];
        let spec = fpm_kl_layout(256, 2, 1, &speeds, 30);
        let areas = spec.areas();
        // The height-sensitive processor stabilizes at less than half.
        assert!(areas[0] < areas[1], "areas {areas:?}");
    }

    #[test]
    fn layout_is_deterministic_and_valid() {
        let s = [
            Flat(1.0e9),
            Flat(3.0e9),
            Flat(2.0e9),
            Flat(1.0e9),
            Flat(2.0e9),
            Flat(1.5e9),
        ];
        let speeds: Vec<&dyn Speed2d> = s.iter().map(|x| x as _).collect();
        let a = fpm_kl_layout(90, 2, 3, &speeds, 15);
        let b = fpm_kl_layout(90, 2, 3, &speeds, 15);
        assert_eq!(a, b);
        assert_eq!(a.nprocs, 6);
        assert_eq!(a.areas().iter().sum::<usize>(), 8_100);
    }
}
