//! Native calibration: apply the paper's measurement methodology to the
//! machine this example runs on. Each data point times the real
//! multi-threaded GEMM kernel, repeating until the Student's-t 95 %
//! confidence interval is within 2.5 % of the mean (the paper's
//! protocol), then builds a tabulated FPM of the *actual* host and uses
//! it to partition a real multiplication across three unequal
//! thread-group "processors".
//!
//! ```sh
//! cargo run --release --example native_calibration
//! ```

use std::time::Instant;

use summagen_matrix::{gemm_parallel, random_matrix, DenseMatrix};
use summagen_partition::{load_imbalancing_areas, DiscreteFpm, Shape};
use summagen_platform::speed::{SpeedFunction, TabulatedSpeed};
use summagen_platform::stats::{measure_to_confidence, MeasurementProtocol, SampleStats};

fn time_gemm(n: usize) -> f64 {
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let mut c = DenseMatrix::zeros(n, n);
    let t0 = Instant::now();
    gemm_parallel(
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
    t0.elapsed().as_secs_f64()
}

fn main() {
    let protocol = MeasurementProtocol {
        precision: 0.05, // slightly looser than the paper's 2.5% to keep
        // the example fast on shared machines
        min_reps: 3,
        max_reps: 40,
    };

    println!("measuring the native multi-threaded GEMM (Student's-t protocol)...\n");
    println!(
        "{:>6}{:>8}{:>14}{:>12}{:>10}",
        "n", "reps", "mean t (s)", "GFLOP/s", "CI/mean"
    );
    let sizes = [64usize, 96, 128, 192, 256, 384];
    let mut points = Vec::new();
    for &n in &sizes {
        let stats: SampleStats = measure_to_confidence(protocol, || time_gemm(n));
        let flops = 2.0 * (n as f64).powi(3);
        let speed = flops / stats.mean;
        println!(
            "{n:>6}{:>8}{:>14.5}{:>12.2}{:>10.3}",
            stats.reps,
            stats.mean,
            speed / 1e9,
            stats.relative_precision()
        );
        points.push((n as f64, speed));
    }

    // The measured speed function of this machine.
    let fpm = TabulatedSpeed::from_square_sizes(points);
    println!(
        "\nnative speed at n=256 equivalent: {:.2} GFLOP/s",
        fpm.flops_at_square(256.0) / 1e9
    );

    // Partition a real multiplication across three synthetic processors
    // whose speeds are fractions of the measured native speed (as if the
    // host were three unequal devices), then verify through SummaGen.
    let n = 192;
    let fracs = [1.0, 0.6, 0.3];
    let fpms: Vec<DiscreteFpm> = fracs
        .iter()
        .map(|&f| {
            let scaled: Vec<(f64, f64)> = fpm.points().iter().map(|&(a, s)| (a, s * f)).collect();
            DiscreteFpm::from_speed(&TabulatedSpeed::new(scaled), n, 64)
        })
        .collect();
    let areas = load_imbalancing_areas(n, &fpms);
    println!(
        "\nload-imbalancing areas from the measured FPM at n = {n}: {:?}",
        areas.iter().map(|a| a.round()).collect::<Vec<_>>()
    );
    let spec = Shape::SquareRectangle.build(n, &areas);
    let a = random_matrix(n, n, 3);
    let b = random_matrix(n, n, 4);
    let res = summagen_core::multiply(&spec, &a, &b, summagen_core::ExecutionMode::Real);
    println!(
        "SummaGen on the calibrated partition: C computed, {} bytes moved",
        res.traffic.iter().map(|t| t.bytes_sent).sum::<u64>()
    );
}
