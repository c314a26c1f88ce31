//! Workload distribution — Step 1 of Section V.
//!
//! Three algorithms, matching the paper's two experimental regimes plus the
//! classic baseline:
//!
//! * [`proportional_areas`] — constant performance models: areas
//!   proportional to scalar speeds (the distribution underlying the
//!   Kalinov/Beaumont algorithms and Section VI-A's ratios {1.0, 2.0, 0.9}).
//! * [`balanced_fpm_areas`] — functional performance models: areas chosen
//!   so every processor needs the same execution time, via bisection on
//!   time (Lastovetsky–Reddy geometric load balancing).
//! * [`load_imbalancing_areas`] — the Khaleghzadeh et al. partitioner the
//!   paper uses in Section VI-B: an exact search over *discrete* non-smooth
//!   FPMs that minimizes the parallel computation time, deliberately
//!   allowing uneven ("imbalanced") execution times when the speed
//!   functions' drops make that globally faster.

use summagen_platform::speed::SpeedFunction;

/// Areas proportional to scalar speeds, summing to exactly `n²`.
///
/// ```
/// use summagen_partition::proportional_areas;
///
/// let areas = proportional_areas(100, &[1.0, 3.0]);
/// assert_eq!(areas, vec![2500.0, 7500.0]);
/// ```
///
/// # Panics
/// Panics if `speeds` is empty or contains a non-positive entry.
pub fn proportional_areas(n: usize, speeds: &[f64]) -> Vec<f64> {
    assert!(!speeds.is_empty(), "no speeds");
    for (i, &s) in speeds.iter().enumerate() {
        assert!(s > 0.0 && s.is_finite(), "speed[{i}] = {s} invalid");
    }
    let total: f64 = speeds.iter().sum();
    let n2 = (n * n) as f64;
    speeds.iter().map(|&s| n2 * s / total).collect()
}

/// Execution time of a partition of `area` elements of `C` in an `n × n`
/// PMM on a processor with speed function `s`: `2·area·n / s(area)` seconds
/// (each element of `C` costs `2n` flops).
pub fn partition_time(area: f64, n: usize, speed: &dyn SpeedFunction) -> f64 {
    if area <= 0.0 {
        return 0.0;
    }
    2.0 * area * n as f64 / speed.flops(area)
}

/// Load-balanced FPM partitioning: finds areas `a_i` summing to `n²` such
/// that all `t_i(a_i) = 2·a_i·n / s_i(a_i)` are (approximately) equal, by
/// bisection on the common time.
///
/// Assumes each `t_i(a)` is non-decreasing in `a` — true for the smooth
/// FPMs this balancer is meant for; for non-smooth profiles use
/// [`load_imbalancing_areas`].
pub fn balanced_fpm_areas(n: usize, speeds: &[&dyn SpeedFunction]) -> Vec<f64> {
    assert!(!speeds.is_empty(), "no speed functions");
    let n2 = (n * n) as f64;

    // Largest area processor i can finish within time t.
    let area_within = |speed: &dyn SpeedFunction, t: f64| -> f64 {
        if partition_time(n2, n, speed) <= t {
            return n2;
        }
        let (mut lo, mut hi) = (0.0, n2);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if partition_time(mid, n, speed) <= t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };

    // Bisection on the common time t so the areas sum to n².
    let mut t_hi = speeds
        .iter()
        .map(|s| partition_time(n2, n, *s))
        .fold(0.0, f64::max);
    let mut t_lo = 0.0;
    for _ in 0..80 {
        let t = 0.5 * (t_lo + t_hi);
        let sum: f64 = speeds.iter().map(|s| area_within(*s, t)).sum();
        if sum >= n2 {
            t_hi = t;
        } else {
            t_lo = t;
        }
    }
    let mut areas: Vec<f64> = speeds.iter().map(|s| area_within(*s, t_hi)).collect();
    // Normalize the residual rounding error onto the largest area.
    let sum: f64 = areas.iter().sum();
    let idx = (0..areas.len())
        .max_by(|&a, &b| areas[a].partial_cmp(&areas[b]).unwrap())
        .unwrap();
    areas[idx] += n2 - sum;
    areas
}

/// A discrete functional performance model: execution time sampled on a
/// uniform grid of areas. This is the input representation of the paper's
/// load-imbalancing partitioner \[17\] — no smoothness or monotonicity is
/// assumed.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteFpm {
    /// `times[k]` = execution time for area `k * granularity`, `k = 0..=g`.
    pub times: Vec<f64>,
    /// Area represented by one grid step.
    pub granularity: f64,
}

impl DiscreteFpm {
    /// Samples a speed function on a grid of `g` steps spanning `[0, n²]`
    /// for an `n × n` PMM.
    pub fn from_speed(speed: &dyn SpeedFunction, n: usize, g: usize) -> Self {
        assert!(g >= 1, "need at least one grid step");
        let n2 = (n * n) as f64;
        let granularity = n2 / g as f64;
        let times = (0..=g)
            .map(|k| partition_time(k as f64 * granularity, n, speed))
            .collect();
        Self { times, granularity }
    }

    /// Number of grid steps.
    pub fn steps(&self) -> usize {
        self.times.len() - 1
    }
}

/// The load-imbalancing data-partitioning algorithm over non-smooth
/// discrete FPMs: finds the grid distribution `(k_1, …, k_p)` with
/// `Σ k_i = g` and `k_i ≥ 1` minimizing `max_i t_i(k_i)`, by exact dynamic
/// programming (`O(p · g²)`).
///
/// Unlike the balanced partitioner this explores *all* grid distributions,
/// so it exploits drops in the speed functions even when that leaves
/// processors unequally loaded — the defining behaviour of \[17\].
///
/// Returns the areas per processor (summing to `n²`).
///
/// # Panics
/// Panics if the FPMs use different grids or `p > g`.
pub fn load_imbalancing_areas(n: usize, fpms: &[DiscreteFpm]) -> Vec<f64> {
    let p = fpms.len();
    assert!(p >= 1, "no FPMs");
    let g = fpms[0].steps();
    for f in fpms {
        assert_eq!(f.steps(), g, "FPMs must share one grid");
        assert!(
            (f.granularity - fpms[0].granularity).abs() < 1e-9,
            "FPMs must share one granularity"
        );
    }
    assert!(p <= g, "grid too coarse: {p} processors, {g} steps");

    // dp[i][c] = minimal max-time assigning c grid steps to procs 0..=i,
    // each getting >= 1 step. choice[i][c] = steps given to proc i.
    let inf = f64::INFINITY;
    let mut dp = vec![inf; g + 1];
    let mut choices: Vec<Vec<usize>> = Vec::with_capacity(p);
    for (k, t) in fpms[0].times.iter().enumerate() {
        if k >= 1 && k <= g {
            dp[k] = *t;
        }
    }
    choices.push((0..=g).collect()); // proc 0 takes everything so far
    for fpm in &fpms[1..] {
        let mut next = vec![inf; g + 1];
        let mut choice = vec![0usize; g + 1];
        for c in 0..=g {
            if dp[c].is_finite() {
                for k in 1..=(g - c) {
                    let cand = dp[c].max(fpm.times[k]);
                    if cand < next[c + k] {
                        next[c + k] = cand;
                        choice[c + k] = k;
                    }
                }
            }
        }
        dp = next;
        choices.push(choice);
    }
    assert!(dp[g].is_finite(), "no feasible distribution");

    // Recover the distribution.
    let mut ks = vec![0usize; p];
    let mut c = g;
    for i in (1..p).rev() {
        ks[i] = choices[i][c];
        c -= ks[i];
    }
    ks[0] = c;
    debug_assert_eq!(ks.iter().sum::<usize>(), g);

    let n2 = (n * n) as f64;
    let gran = fpms[0].granularity;
    let mut areas: Vec<f64> = ks.iter().map(|&k| k as f64 * gran).collect();
    // Grid quantization: areas already sum to n² exactly because
    // g * gran = n², but guard against floating error.
    let sum: f64 = areas.iter().sum();
    let idx = (0..p)
        .max_by(|&a, &b| areas[a].partial_cmp(&areas[b]).unwrap())
        .unwrap();
    areas[idx] += n2 - sum;
    areas
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_platform::speed::{ConstantSpeed, TabulatedSpeed};

    #[test]
    fn proportional_matches_paper_ratios() {
        // Speeds {1.0, 2.0, 0.9} -> fractions of n².
        let areas = proportional_areas(100, &[1.0, 2.0, 0.9]);
        let n2 = 10_000.0;
        assert!((areas[0] - n2 / 3.9).abs() < 1e-9);
        assert!((areas[1] - 2.0 * n2 / 3.9).abs() < 1e-9);
        assert!((areas[2] - 0.9 * n2 / 3.9).abs() < 1e-9);
        assert!((areas.iter().sum::<f64>() - n2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn proportional_rejects_zero_speed() {
        proportional_areas(10, &[1.0, 0.0]);
    }

    #[test]
    fn partition_time_scales_linearly_for_cpm() {
        let s = ConstantSpeed::new(1e9);
        let t1 = partition_time(100.0, 1000, &s);
        let t2 = partition_time(200.0, 1000, &s);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
        assert_eq!(partition_time(0.0, 1000, &s), 0.0);
    }

    #[test]
    fn balanced_fpm_equals_proportional_for_constant_speeds() {
        let s1 = ConstantSpeed::new(1.0e9);
        let s2 = ConstantSpeed::new(2.0e9);
        let s3 = ConstantSpeed::new(0.9e9);
        let areas = balanced_fpm_areas(256, &[&s1, &s2, &s3]);
        let want = proportional_areas(256, &[1.0, 2.0, 0.9]);
        for (a, w) in areas.iter().zip(&want) {
            assert!((a - w).abs() / w < 1e-3, "{a} vs {w}");
        }
    }

    #[test]
    fn balanced_fpm_equalizes_times() {
        // A speed function that slows down with size: the balancer should
        // still equalize times, giving the slower-growing processor less.
        let fast = TabulatedSpeed::new(vec![(0.0, 2.0e9), (1e6, 2.0e9)]);
        let degrading = TabulatedSpeed::new(vec![(0.0, 2.0e9), (1e6, 0.5e9)]);
        let n = 800; // n² = 640_000
        let areas = balanced_fpm_areas(n, &[&fast, &degrading]);
        let t0 = partition_time(areas[0], n, &fast);
        let t1 = partition_time(areas[1], n, &degrading);
        assert!((t0 - t1).abs() / t0 < 0.01, "t0 {t0} t1 {t1}");
        assert!(areas[0] > areas[1]);
        assert!((areas.iter().sum::<f64>() - 640_000.0).abs() < 1.0);
    }

    #[test]
    fn discrete_fpm_sampling() {
        let s = ConstantSpeed::new(1e9);
        let f = DiscreteFpm::from_speed(&s, 100, 10);
        assert_eq!(f.steps(), 10);
        assert_eq!(f.times[0], 0.0);
        // Full area 10⁴ at 2·a·n/s = 2·1e4·100/1e9 = 2e-3.
        assert!((f.times[10] - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn load_imbalancing_matches_proportional_for_cpm() {
        let n = 400;
        let speeds = [1.0e9, 2.0e9, 0.9e9];
        let fpms: Vec<DiscreteFpm> = speeds
            .iter()
            .map(|&s| DiscreteFpm::from_speed(&ConstantSpeed::new(s), n, 128))
            .collect();
        let areas = load_imbalancing_areas(n, &fpms);
        let want = proportional_areas(n, &[1.0, 2.0, 0.9]);
        for (a, w) in areas.iter().zip(&want) {
            // Grid quantization: within one granule.
            assert!((a - w).abs() <= fpms[0].granularity + 1e-6, "{a} vs {w}");
        }
        assert!((areas.iter().sum::<f64>() - (n * n) as f64).abs() < 1e-6);
    }

    #[test]
    fn load_imbalancing_exploits_speed_drops() {
        // Processor 0 is fast up to half the workload, then collapses;
        // processor 1 is uniformly medium. The optimal distribution stops
        // loading P0 at the cliff even though times end up unequal.
        let n = 200;
        let n2 = (n * n) as f64;
        let cliff = TabulatedSpeed::new(vec![
            (0.0, 4.0e9),
            (n2 * 0.5, 4.0e9),
            (n2 * 0.52, 0.2e9),
            (n2, 0.2e9),
        ]);
        let steady = ConstantSpeed::new(1.0e9);
        let fpms = vec![
            DiscreteFpm::from_speed(&cliff, n, 200),
            DiscreteFpm::from_speed(&steady, n, 200),
        ];
        let areas = load_imbalancing_areas(n, &fpms);
        // P0 must not be pushed past the cliff.
        assert!(
            areas[0] <= n2 * 0.53,
            "P0 loaded past its cliff: {}",
            areas[0] / n2
        );
        // And the solution beats the balanced one.
        let t_opt = partition_time(areas[0], n, &cliff).max(partition_time(areas[1], n, &steady));
        let balanced = balanced_fpm_areas(n, &[&cliff, &steady]);
        let t_bal =
            partition_time(balanced[0], n, &cliff).max(partition_time(balanced[1], n, &steady));
        assert!(
            t_opt <= t_bal * 1.01,
            "imbalancing ({t_opt}) should not lose to balanced ({t_bal})"
        );
    }

    #[test]
    fn load_imbalancing_single_processor() {
        let n = 64;
        let fpms = vec![DiscreteFpm::from_speed(&ConstantSpeed::new(1e9), n, 16)];
        let areas = load_imbalancing_areas(n, &fpms);
        assert_eq!(areas, vec![(n * n) as f64]);
    }

    #[test]
    #[should_panic(expected = "share one grid")]
    fn load_imbalancing_rejects_mixed_grids() {
        let s = ConstantSpeed::new(1e9);
        let fpms = vec![
            DiscreteFpm::from_speed(&s, 64, 16),
            DiscreteFpm::from_speed(&s, 64, 32),
        ];
        load_imbalancing_areas(64, &fpms);
    }

    #[test]
    fn load_imbalancing_every_processor_gets_work() {
        let n = 128;
        let speeds = [5.0e9, 1.0e9, 0.1e9];
        let fpms: Vec<DiscreteFpm> = speeds
            .iter()
            .map(|&s| DiscreteFpm::from_speed(&ConstantSpeed::new(s), n, 64))
            .collect();
        let areas = load_imbalancing_areas(n, &fpms);
        assert!(areas.iter().all(|&a| a > 0.0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use summagen_platform::speed::ConstantSpeed;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Proportional areas sum to n² and preserve speed ordering.
        #[test]
        fn proportional_invariants(
            n in 8usize..512,
            speeds in proptest::collection::vec(0.1f64..10.0, 1..8),
        ) {
            let areas = proportional_areas(n, &speeds);
            let n2 = (n * n) as f64;
            prop_assert!((areas.iter().sum::<f64>() - n2).abs() < 1e-6 * n2);
            for i in 0..speeds.len() {
                for j in 0..speeds.len() {
                    if speeds[i] > speeds[j] {
                        prop_assert!(areas[i] >= areas[j]);
                    }
                }
            }
        }

        /// The DP distribution is never worse than proportional on the
        /// same grid, for constant speeds.
        #[test]
        fn dp_at_least_as_good_as_proportional(
            n in 32usize..256,
            s0 in 0.2f64..5.0,
            s1 in 0.2f64..5.0,
            s2 in 0.2f64..5.0,
        ) {
            let speeds = [s0 * 1e9, s1 * 1e9, s2 * 1e9];
            let fpms: Vec<DiscreteFpm> = speeds
                .iter()
                .map(|&s| DiscreteFpm::from_speed(&ConstantSpeed::new(s), n, 96))
                .collect();
            let dp_areas = load_imbalancing_areas(n, &fpms);
            let t_dp = dp_areas
                .iter()
                .zip(&speeds)
                .map(|(&a, &s)| partition_time(a, n, &ConstantSpeed::new(s)))
                .fold(0.0, f64::max);
            // Proportional areas snapped *up* to the grid on the max-time
            // processor can only be >= the DP optimum.
            let prop_areas = proportional_areas(n, &[s0, s1, s2]);
            let gran = fpms[0].granularity;
            let t_prop = prop_areas
                .iter()
                .zip(&speeds)
                .map(|(&a, &s)| {
                    let snapped = (a / gran).ceil() * gran;
                    partition_time(snapped, n, &ConstantSpeed::new(s))
                })
                .fold(0.0, f64::max);
            prop_assert!(t_dp <= t_prop + 1e-9, "dp {t_dp} vs prop {t_prop}");
        }
    }
}
