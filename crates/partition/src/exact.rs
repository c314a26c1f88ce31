//! Exact optimization over the candidate shape families — the "exact
//! algorithm" of Beaumont et al. (reference \[12\] of the paper), used
//! there to analyze how close the best approximate solutions come to the
//! true optimum for three partitions.
//!
//! For each shape family we enumerate *all* integer parameterizations
//! (cut positions), and all assignments of processors to zones, scoring
//! each candidate with the Section II objective
//! `max_i (2·a_i·n / s_i) + α + β · max_i comm_bytes_i` — computation
//! time plus Hockney communication time. The global minimum over families
//! is the exact optimum within the candidate class, against which the
//! Section V constructions can be measured.
//!
//! Complexity is `O(n²)` candidates per two-parameter family, so this is
//! meant for moderate `n` (the analysis scale of \[12\]), not for
//! production partitioning.

use summagen_platform::speed::SpeedFunction;

use crate::cost::CostSummary;
use crate::shapes::Shape;
use crate::spec::PartitionSpec;

/// The outcome of an exact search.
#[derive(Debug, Clone)]
pub struct ExactResult {
    /// The optimal partition found.
    pub spec: PartitionSpec,
    /// The family it belongs to.
    pub shape: Shape,
    /// Its objective value.
    pub cost: f64,
    /// Number of candidates evaluated.
    pub candidates: usize,
}

/// All 6 permutations of three processor indices.
const PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

fn cost_of(spec: &PartitionSpec, speeds: &[&dyn SpeedFunction], alpha: f64, beta: f64) -> f64 {
    CostSummary::analyze(spec, speeds, alpha, beta).est_total_time
}

/// Enumerates every parameterization of the four §V families (plus zone
/// permutations) and returns the global optimum of the computation +
/// communication objective.
///
/// # Panics
/// Panics unless `speeds.len() == 3` and `n >= 4`.
pub fn exact_three_processor_optimum(
    n: usize,
    speeds: &[&dyn SpeedFunction],
    alpha: f64,
    beta: f64,
) -> ExactResult {
    assert_eq!(speeds.len(), 3, "exact search is for three processors");
    assert!(n >= 4, "n too small");
    let mut best: Option<ExactResult> = None;
    let mut candidates = 0usize;

    let mut consider = |spec: PartitionSpec, shape: Shape, candidates: &mut usize| {
        *candidates += 1;
        let cost = cost_of(&spec, speeds, alpha, beta);
        match &best {
            Some(b) if b.cost <= cost => {}
            _ => {
                best = Some(ExactResult {
                    spec,
                    shape,
                    cost,
                    candidates: 0,
                })
            }
        }
    };

    // Square corner: squares n2 (top-left) and n3 (bottom-right).
    for n2 in 1..n - 1 {
        for n3 in 1..=(n - n2).min(n - 1) {
            let mid = n - n2 - n3;
            for perm in PERMS {
                let [pr, p2, p3] = perm;
                let spec = if mid == 0 {
                    PartitionSpec::new(vec![p2, pr, pr, p3], vec![n2, n3], vec![n2, n3], 3)
                } else {
                    PartitionSpec::new(
                        vec![p2, pr, pr, pr, pr, pr, pr, pr, p3],
                        vec![n2, mid, n3],
                        vec![n2, mid, n3],
                        3,
                    )
                };
                consider(spec, Shape::SquareCorner, &mut candidates);
            }
        }
    }

    // Square rectangle: right column width w2, notch square n3.
    for w2 in 1..n - 1 {
        for n3 in 1..(n - w2).min(n) {
            let left = n - w2 - n3;
            let top = n - n3;
            if top == 0 {
                continue;
            }
            for perm in PERMS {
                let [pl, pr, ps] = perm;
                let spec = if left == 0 {
                    PartitionSpec::new(vec![pl, pr, ps, pr], vec![top, n3], vec![n3, w2], 3)
                } else {
                    PartitionSpec::new(
                        vec![pl, pl, pr, pl, ps, pr],
                        vec![top, n3],
                        vec![left, n3, w2],
                        3,
                    )
                };
                consider(spec, Shape::SquareRectangle, &mut candidates);
            }
        }
    }

    // Block rectangle: top height h1, bottom-right width w2.
    for h1 in 1..n {
        for w2 in 1..n {
            for perm in PERMS {
                let [pt, pl, pr] = perm;
                let spec =
                    PartitionSpec::new(vec![pt, pt, pl, pr], vec![h1, n - h1], vec![n - w2, w2], 3);
                consider(spec, Shape::BlockRectangle, &mut candidates);
            }
        }
    }

    // 1D rectangular: widths (w0, w1, n - w0 - w1). Permutations are
    // covered by enumerating all (w0, w1).
    for w0 in 1..n - 1 {
        for w1 in 1..n - w0 {
            let w2 = n - w0 - w1;
            if w2 == 0 {
                continue;
            }
            let spec = PartitionSpec::new(vec![0, 1, 2], vec![n], vec![w0, w1, w2], 3);
            consider(spec, Shape::OneDRectangular, &mut candidates);
        }
    }

    let mut result = best.expect("no candidate evaluated");
    result.candidates = candidates;
    result
}

/// How close a heuristic §V construction comes to the exact optimum:
/// returns `heuristic_cost / exact_cost ≥ 1`.
pub fn heuristic_accuracy(
    n: usize,
    shape: Shape,
    areas: &[f64],
    speeds: &[&dyn SpeedFunction],
    alpha: f64,
    beta: f64,
) -> f64 {
    let heuristic = shape.build(n, areas);
    let exact = exact_three_processor_optimum(n, speeds, alpha, beta);
    cost_of(&heuristic, speeds, alpha, beta) / exact.cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::proportional_areas;
    use summagen_platform::speed::ConstantSpeed;

    fn speeds(v: [f64; 3]) -> Vec<ConstantSpeed> {
        v.into_iter().map(ConstantSpeed::new).collect()
    }

    fn dyn_speeds(v: &[ConstantSpeed]) -> Vec<&dyn SpeedFunction> {
        v.iter().map(|s| s as _).collect()
    }

    #[test]
    fn equal_speeds_free_comm_balances_areas() {
        let sp = speeds([1e9, 1e9, 1e9]);
        let res = exact_three_processor_optimum(24, &dyn_speeds(&sp), 0.0, 0.0);
        let areas = res.spec.areas();
        let ideal = 24.0 * 24.0 / 3.0;
        for a in areas {
            assert!(
                (a as f64 - ideal).abs() / ideal < 0.05,
                "area {a} vs {ideal}"
            );
        }
        assert!(res.candidates > 1_000);
    }

    #[test]
    fn heuristic_constructions_are_near_optimal() {
        // The central claim behind the Section V constructions: on the
        // paper's speed ratios they come close to the exact optimum.
        let sp = speeds([1.0e9, 2.0e9, 0.9e9]);
        let ds = dyn_speeds(&sp);
        let n = 32;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        for shape in crate::shapes::ALL_FOUR_SHAPES {
            let ratio = heuristic_accuracy(n, shape, &areas, &ds, 1e-6, 1e-9);
            assert!(
                (1.0..1.25).contains(&ratio),
                "{}: heuristic/exact = {ratio}",
                shape.name()
            );
        }
    }

    #[test]
    fn comm_dominated_regime_prefers_compact_zones() {
        // With enormous beta the objective is pure communication; the
        // optimum must not be the 1D family (whose total half-perimeter
        // is maximal at 3n... for skewed speeds compact corners win).
        let sp = speeds([1.0e9, 8.0e9, 1.0e9]);
        let res = exact_three_processor_optimum(24, &dyn_speeds(&sp), 0.0, 1.0);
        assert_ne!(res.shape, Shape::OneDRectangular, "got {:?}", res.shape);
    }

    #[test]
    fn exact_cost_is_a_lower_bound_for_heuristics() {
        let sp = speeds([1.5e9, 0.7e9, 1.0e9]);
        let ds = dyn_speeds(&sp);
        let n = 20;
        let exact = exact_three_processor_optimum(n, &ds, 1e-6, 1e-9);
        let areas = proportional_areas(n, &[1.5, 0.7, 1.0]);
        for shape in crate::shapes::ALL_FOUR_SHAPES {
            let h = shape.build(n, &areas);
            let hc = CostSummary::analyze(&h, &ds, 1e-6, 1e-9).est_total_time;
            assert!(
                hc >= exact.cost - 1e-15,
                "{} beat the exact search",
                shape.name()
            );
        }
    }

    #[test]
    fn result_spec_is_valid() {
        let sp = speeds([2e9, 1e9, 1e9]);
        let res = exact_three_processor_optimum(16, &dyn_speeds(&sp), 1e-6, 1e-9);
        assert_eq!(res.spec.areas().iter().sum::<usize>(), 256);
        assert_eq!(res.spec.nprocs, 3);
    }
}
