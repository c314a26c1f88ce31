//! Regenerates the paper's tables and figures and runs the harness gates.
//!
//! ```text
//! reproduce table1 | fig1 | fig5 | fig6 | fig7 | fig8 | summary
//!           | crossover | nrrp | energyopt | summa | cluster | exact
//!           | auto | fig5measured | verify | recovery | trace | abft
//!           | bench | soak | serve | degrade | crash | insight | all
//! ```
//!
//! Text commands print whitespace-aligned tables: one row per problem
//! size with one column per shape (for the figure commands), matching the
//! series the paper plots. `fig5`, `fig6`, `fig7`, `fig8`, `summary` and
//! `recovery` also take `--json` for a schema-stamped document. `verify`
//! is the n = 48 every-algorithm self-check; `recovery` runs the seeded
//! shrink-and-retry grid and prints the analytical failure model.
//!
//! The harness subcommands live in one table ([`HARNESSES`]): each writes
//! its artifacts into `--out DIR` (default `target/<name>`) and fails when
//! one of its own gates does (see each module's docs for the artifacts and
//! gates):
//!
//! * `trace` — Perfetto traces, metrics and critical paths (`tracecmd`);
//! * `abft` — ABFT overhead summaries and traces (`resilience`);
//! * `bench [--backend channel|tcp]` — `BENCH_<shape>.json` regression
//!   documents and flamegraphs (`benchcmd`);
//! * `soak [--backend channel|tcp]` — lossy-link and silent-hang soak,
//!   `SOAK_<shape>.json` (`soak`);
//! * `serve [--mix small|hetero] [--policy fifo|rr|fpm] [--jobs N]` —
//!   multi-tenant service load gate, `LOAD_<mix>.json` (`servecmd`);
//! * `degrade [--mix small|hetero]` — overload and device faults,
//!   `DEGRADE_<mix>.json` (`degradecmd`);
//! * `crash [--mix small|hetero]` — durable-journal kill-point ladder,
//!   `CRASH_<mix>.json` (`crashcmd`);
//! * `insight` — what-if replay and SLO burn-rate gates,
//!   `INSIGHT_*.json` (`insightcmd`).
//!
//! `bench --check DIR [--tol FRACTION]` and `insight --check DIR [--tol
//! FRACTION]` instead rerun the harness and compare every numeric leaf
//! against the like-named baselines in DIR (`harness::check_docs`).
//! `all` runs every text command but `verify`, then every harness.
//!
//! Exit codes: 2 for bad arguments (unknown subcommand, flag, mix,
//! backend or policy, or a flag missing its value); 1 when a harness gate,
//! a `--check` comparison or an artifact write fails.

use std::env;
use std::path::Path;
use std::str::FromStr;

use summagen_comm::Backend;
use summagen_service::{LoadMix, Policy};

use summagen_bench::harness::{resolve_mix, CheckError, CheckOutcome, DEFAULT_CHECK_TOLERANCE};
use summagen_bench::*;
use summagen_partition::ALL_FOUR_SHAPES;

/// Everything the command line sets besides the subcommand.
struct Opts {
    json: bool,
    out: Option<String>,
    check: Option<String>,
    tol: f64,
    backend: Backend,
    mix: LoadMix,
    policy: Option<Policy>,
    jobs: Option<usize>,
}

/// A `--check` rerun against a baseline directory.
type CheckFn = fn(&Opts, &Path) -> Result<CheckOutcome, CheckError>;

/// A harness subcommand: its run, writing into `--out` (default
/// `target/<name>`), and (for `bench` and `insight`) its `--check` rerun.
struct Harness {
    name: &'static str,
    run: fn(&Opts, &Path) -> Result<(), String>,
    check: Option<CheckFn>,
}

const HARNESSES: [Harness; 8] = [
    Harness {
        name: "trace",
        run: |_, out| tracecmd::run_trace(tracecmd::TRACE_N, out),
        check: None,
    },
    Harness {
        name: "abft",
        run: |_, out| resilience::run_abft(resilience::ABFT_N, out),
        check: None,
    },
    Harness {
        name: "bench",
        run: |o, out| benchcmd::run_bench(out, o.backend),
        check: Some(|o, dir| benchcmd::check_bench(dir, o.tol, o.backend)),
    },
    Harness {
        name: "soak",
        run: |o, out| soak::run_soak(soak::SOAK_N, out, o.backend),
        check: None,
    },
    Harness {
        name: "serve",
        run: |o, out| {
            let mut mix = o.mix.clone();
            if let Some(jobs) = o.jobs {
                mix.jobs = jobs;
            }
            servecmd::run_serve(&mix, o.policy, out)
        },
        check: None,
    },
    Harness {
        name: "degrade",
        run: |o, out| degradecmd::run_degrade(&o.mix, out),
        check: None,
    },
    Harness {
        name: "crash",
        run: |o, out| crashcmd::run_crash(&o.mix, out),
        check: None,
    },
    Harness {
        name: "insight",
        run: |_, out| insightcmd::run_insight(tracecmd::TRACE_N, out),
        check: Some(|o, dir| insightcmd::check_insight(dir, o.tol)),
    },
];

/// The text commands, in `all` order.
const TEXT: [(&str, fn()); 17] = [
    ("table1", || print!("{}", table1())),
    ("fig1", || print!("{}", fig1())),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("summary", summary),
    ("crossover", crossover),
    ("nrrp", nrrp),
    ("energyopt", energyopt),
    ("summa", summa),
    ("cluster", cluster),
    ("exact", exact),
    ("auto", auto_gen),
    ("fig5measured", fig5measured),
    ("verify", verify),
    ("recovery", recovery),
];

/// Reports a bad command line and exits 2.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The value following the flag at `args[*i]`, advancing past it; exits
/// 2 with `missing` when there is none.
fn flag_value<'a>(args: &'a [String], i: &mut usize, missing: &str) -> &'a str {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .unwrap_or_else(|| usage_error(missing))
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut opts = Opts {
        json: false,
        out: None,
        check: None,
        tol: DEFAULT_CHECK_TOLERANCE,
        backend: Backend::default(),
        mix: summagen_service::small_mix(),
        policy: None,
        jobs: None,
    };
    let mut what: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => opts.json = true,
            "--out" => {
                let v = flag_value(&args, &mut i, "--out requires a directory argument");
                opts.out = Some(v.to_string());
            }
            "--check" => {
                let msg = "--check requires a baseline directory argument";
                opts.check = Some(flag_value(&args, &mut i, msg).to_string());
            }
            "--backend" => {
                let v = flag_value(&args, &mut i, "--backend requires 'channel' or 'tcp'");
                opts.backend = Backend::from_str(v).unwrap_or_else(|e| usage_error(e));
            }
            "--mix" => {
                let v = flag_value(&args, &mut i, "--mix requires a mix name (small or hetero)");
                opts.mix = resolve_mix(v).unwrap_or_else(|e| usage_error(e));
            }
            "--policy" => {
                let msg = "--policy requires fifo, round-robin, or fpm-aware";
                let v = flag_value(&args, &mut i, msg);
                opts.policy = Some(Policy::from_str(v).unwrap_or_else(|e| usage_error(e)));
            }
            "--jobs" => {
                let msg = "--jobs requires a positive integer";
                match flag_value(&args, &mut i, msg).parse::<usize>() {
                    Ok(v) if v > 0 => opts.jobs = Some(v),
                    _ => usage_error(msg),
                }
            }
            "--tol" => {
                let msg = "--tol requires a non-negative fraction (e.g. 0.05)";
                match flag_value(&args, &mut i, msg).parse::<f64>() {
                    Ok(v) if v >= 0.0 => opts.tol = v,
                    _ => usage_error(msg),
                }
            }
            a if !a.starts_with("--") && what.is_none() => what = Some(a.to_string()),
            other => usage_error(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    let what = what.as_deref().unwrap_or("all");
    if opts.json {
        return emit_json(what);
    }
    if what == "all" {
        for (name, print) in TEXT.iter().filter(|(name, _)| *name != "verify") {
            print();
            if *name == "table1" {
                println!();
            }
        }
        for h in &HARNESSES {
            run_or_exit(h, &opts, None);
        }
    } else if let Some((_, print)) = TEXT.iter().find(|(name, _)| *name == what) {
        print();
    } else if let Some(h) = HARNESSES.iter().find(|h| h.name == what) {
        run_or_exit(h, &opts, opts.check.as_deref());
    } else {
        let names: Vec<&str> = TEXT
            .iter()
            .map(|(name, _)| *name)
            .chain(HARNESSES.iter().map(|h| h.name))
            .chain(["all"])
            .collect();
        usage_error(format!(
            "unknown figure '{what}'; expected one of: {}",
            names.join(" ")
        ));
    }
}

/// Runs one harness — or, given a baseline directory and a harness that
/// supports it, its `--check` rerun — and exits 1 with the error on
/// failure. The one exit path for harness errors.
fn run_or_exit(h: &Harness, opts: &Opts, check_dir: Option<&str>) {
    let result = match (check_dir, h.check) {
        (Some(dir), Some(check)) => {
            report_check(h.name, dir, opts.tol, check(opts, Path::new(dir)))
        }
        _ => {
            let out = opts.out.clone().unwrap_or(format!("target/{}", h.name));
            (h.run)(opts, Path::new(&out))
                .map_err(|e| format!("{} run to '{out}' failed: {e}", h.name))
        }
    };
    if let Err(e) = result {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

/// Prints a passing `--check` outcome; turns a failing or unrunnable one
/// into the error text: every violation, then the worst-drifting leaf.
fn report_check(
    name: &str,
    dir: &str,
    tol: f64,
    outcome: Result<CheckOutcome, CheckError>,
) -> Result<(), String> {
    match outcome {
        Ok(outcome) if outcome.violations.is_empty() => {
            println!(
                "{name} check passed: all metrics within ±{:.2}%",
                100.0 * tol
            );
            Ok(())
        }
        Ok(outcome) => {
            let mut msg = format!(
                "{name} check FAILED ({} violations):",
                outcome.violations.len()
            );
            for v in &outcome.violations {
                msg.push_str(&format!("\n  {v}"));
            }
            if let Some(worst) = &outcome.worst {
                msg.push_str(&format!("\n  worst drift: {worst}"));
            }
            Err(msg)
        }
        Err(e) => Err(format!("{name} check against '{dir}' failed to run: {e}")),
    }
}

fn shape_header() -> String {
    let names: Vec<String> = ALL_FOUR_SHAPES
        .iter()
        .map(|s| format!("{:>18}", s.name()))
        .collect();
    format!("{:>8}{}", "N", names.join(""))
}

fn fig5() {
    println!("\nFIGURE 5 — speed functions of the abstract processors (TFLOPs)");
    println!(
        "{:>8}{:>12}{:>12}{:>12}",
        "x", "AbsCPU", "AbsGPU", "AbsXeonPhi"
    );
    for (x, s) in fig5_series(2_048) {
        println!(
            "{x:>8}{:>12.4}{:>12.4}{:>12.4}",
            s[0] / 1e12,
            s[1] / 1e12,
            s[2] / 1e12
        );
    }
}

fn print_shape_table(title: &str, points: &[ShapePoint], metric: impl Fn(&ShapePoint) -> f64) {
    println!("\n{title}");
    println!("{}", shape_header());
    let ns: std::collections::BTreeSet<usize> = points.iter().map(|p| p.n).collect();
    for n in ns {
        let mut row = format!("{n:>8}");
        for shape in ALL_FOUR_SHAPES {
            let p = points
                .iter()
                .find(|p| p.n == n && p.shape == shape)
                .expect("missing point");
            row.push_str(&format!("{:>18.3}", metric(p)));
        }
        println!("{row}");
    }
}

fn fig6() {
    let points = fig6_series();
    print_shape_table(
        "FIGURE 6a — PMM execution time (s), constant performance models",
        &points,
        |p| p.report.exec_time,
    );
    print_shape_table("FIGURE 6b — computation time (s)", &points, |p| {
        p.report.comp_time
    });
    print_shape_table("FIGURE 6c — communication time (s)", &points, |p| {
        p.report.comm_time
    });
}

fn fig7() {
    let points = fig7_series();
    print_shape_table(
        "FIGURE 7a — PMM execution time (s), non-constant performance models (load-imbalancing partitioner)",
        &points,
        |p| p.report.exec_time,
    );
    print_shape_table("FIGURE 7b — computation time (s)", &points, |p| {
        p.report.comp_time
    });
    print_shape_table("FIGURE 7c — communication time (s)", &points, |p| {
        p.report.comm_time
    });
}

fn fig8() {
    println!("\nFIGURE 8 — dynamic energy (J), constant performance models");
    println!("{}", shape_header());
    let series = fig8_series();
    let ns: std::collections::BTreeSet<usize> = series.iter().map(|&(n, _, _)| n).collect();
    for n in ns {
        let mut row = format!("{n:>8}");
        for shape in ALL_FOUR_SHAPES {
            let e = series
                .iter()
                .find(|&&(m, s, _)| m == n && s == shape)
                .map(|&(_, _, e)| e)
                .expect("missing point");
            row.push_str(&format!("{e:>18.0}"));
        }
        println!("{row}");
    }
}

fn summary() {
    let cpm = fig6_series();
    let fpm = fig7_series();
    let s = summarize(&cpm, &fpm);
    println!("\nSUMMARY — headline numbers vs the paper");
    println!(
        "  CPM shape spread: max {:.1}% at N = {} (paper: 23% at 25600), avg {:.1}% (paper: 8%)",
        s.cpm_max_spread_pct, s.cpm_max_spread_n, s.cpm_avg_spread_pct
    );
    println!(
        "  peak performance: {:.2} TFLOPs with {} at N = {} -> {:.0}% of 2.5 TFLOPs (paper: 2.10 TFLOPs, 84%, square rectangle, N = 38416)",
        s.peak_tflops,
        s.peak_shape.name(),
        s.peak_n,
        s.peak_fraction * 100.0
    );
    println!(
        "  average performance: {:.0}% of theoretical peak (paper: 70%)",
        s.avg_fraction * 100.0
    );
    println!(
        "  dynamic-energy spread across shapes (CPM): avg {:.1}% (paper: \"equal\")",
        s.energy_avg_spread_pct
    );
    println!("  FPM mean execution time ranking (paper: square rectangle & block rectangle win):");
    for (shape, t) in &s.fpm_mean_time_per_shape {
        println!("    {:<20} {t:.3} s", shape.name());
    }
}

fn crossover() {
    println!("\nABLATION — square corner vs 1D rectangular total half-perimeter (n = 4096)");
    println!(
        "{:>8}{:>16}{:>16}{:>10}",
        "ratio", "square corner", "1D rect", "winner"
    );
    for (r, sc, od) in crossover_series(4_096) {
        println!(
            "{r:>8.1}{sc:>16}{od:>16}{:>10}",
            if sc < od { "SC" } else { "1D" }
        );
    }
}

fn nrrp() {
    println!(
        "\nABLATION — NRRP vs column-based vs best named shape, total half-perimeter (n = 768)"
    );
    println!(
        "{:>18}{:>10}{:>10}{:>12}{:>12}{:>10}",
        "speeds", "NRRP", "columns", "best shape", "lower bnd", "NRRP/LB"
    );
    for (label, nrrp, cols, best, lb) in nrrp_comparison(768) {
        println!(
            "{label:>18}{nrrp:>10}{cols:>10}{best:>12}{lb:>12.0}{:>10.3}",
            nrrp as f64 / lb
        );
    }
}

fn energyopt() {
    println!("\nABLATION — time-optimal vs energy-optimal distribution (paper's open problem)");
    println!(
        "{:>8}{:>16}{:>16}{:>16}{:>16}",
        "N", "t-opt exec (s)", "t-opt E_D (J)", "e-opt exec (s)", "e-opt E_D (J)"
    );
    for (n, (tt, te), (et, ee)) in energy_vs_time_partition() {
        println!("{n:>8}{tt:>16.3}{te:>16.0}{et:>16.3}{ee:>16.0}");
    }
}

fn summa() {
    println!(
        "\nABLATION — SummaGen (block rectangle, speed-aware) vs classic SUMMA (1x3, equal blocks)"
    );
    println!(
        "{:>8}{:>16}{:>16}{:>10}",
        "N", "SummaGen (s)", "SUMMA (s)", "speedup"
    );
    for (n, sg, classic) in summa_comparison() {
        println!("{n:>8}{sg:>16.3}{classic:>16.3}{:>10.2}", classic / sg);
    }
}

fn cluster() {
    println!("\nFUTURE WORK — SummaGen across a two-HCLServer1 cluster (N = 16384, 1D over 6 processors)");
    println!(
        "{:>18}{:>12}{:>12}{:>12}",
        "topology", "exec (s)", "comp (s)", "comm (s)"
    );
    for (label, exec, comp, comm) in cluster_experiment(16_384) {
        println!("{label:>18}{exec:>12.3}{comp:>12.3}{comm:>12.3}");
    }
}

fn exact() {
    use summagen_partition::{exact_three_processor_optimum, proportional_areas, CostSummary};
    use summagen_platform::speed::{ConstantSpeed, SpeedFunction};
    println!(
        "\nABLATION — §V heuristics vs the exact three-processor optimum (n = 32, speeds 1:2:0.9)"
    );
    let sp = [
        ConstantSpeed::new(1.0e9),
        ConstantSpeed::new(2.0e9),
        ConstantSpeed::new(0.9e9),
    ];
    let speeds: Vec<&dyn SpeedFunction> = sp.iter().map(|s| s as _).collect();
    let n = 32;
    let (alpha, beta) = (1e-6, 1e-9);
    let opt = exact_three_processor_optimum(n, &speeds, alpha, beta);
    println!(
        "  exact optimum: {} family, cost {:.3e} s ({} candidates searched)",
        opt.shape.name(),
        opt.cost,
        opt.candidates
    );
    let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
    for shape in ALL_FOUR_SHAPES {
        let spec = shape.build(n, &areas);
        let cost = CostSummary::analyze(&spec, &speeds, alpha, beta).est_total_time;
        println!(
            "  {:<20} cost {:.3e} s  ({:.3}x optimal)",
            shape.name(),
            cost,
            cost / opt.cost
        );
    }
}

/// Machine-readable output: `reproduce <figure> --json` prints a JSON
/// document with the same series the text tables show, stamped with the
/// standard provenance header (`schema_version`, `git_commit`,
/// `run_config`).
fn emit_json(what: &str) {
    use summagen_bench::json::{with_metadata, Json};
    let doc = match what {
        "fig5" => Json::obj([
            ("figure", Json::from("fig5")),
            ("unit", Json::from("flops")),
            (
                "series",
                Json::arr(fig5_series(1024).into_iter().map(|(x, s)| {
                    Json::obj([
                        ("x", Json::from(x)),
                        ("cpu", Json::from(s[0])),
                        ("gpu", Json::from(s[1])),
                        ("phi", Json::from(s[2])),
                    ])
                })),
            ),
        ]),
        "fig6" | "fig7" => {
            let points = if what == "fig6" {
                fig6_series()
            } else {
                fig7_series()
            };
            Json::obj([
                ("figure", Json::from(what)),
                (
                    "series",
                    Json::arr(points.iter().map(|p| {
                        Json::obj([
                            ("n", Json::from(p.n)),
                            ("shape", Json::from(p.shape.name())),
                            ("exec_time_s", Json::from(p.report.exec_time)),
                            ("comp_time_s", Json::from(p.report.comp_time)),
                            ("comm_time_s", Json::from(p.report.comm_time)),
                            ("achieved_flops", Json::from(p.report.achieved_flops())),
                            (
                                "dynamic_energy_j",
                                Json::from(p.report.energy.as_ref().map(|e| e.dynamic_energy_j)),
                            ),
                        ])
                    })),
                ),
            ])
        }
        "fig8" => Json::obj([
            ("figure", Json::from("fig8")),
            ("unit", Json::from("joules")),
            (
                "series",
                Json::arr(fig8_series().into_iter().map(|(n, shape, e)| {
                    Json::obj([
                        ("n", Json::from(n)),
                        ("shape", Json::from(shape.name())),
                        ("dynamic_energy_j", Json::from(e)),
                    ])
                })),
            ),
        ]),
        "summary" => {
            let s = summarize(&fig6_series(), &fig7_series());
            Json::obj([
                ("figure", Json::from("summary")),
                ("cpm_max_spread_pct", Json::from(s.cpm_max_spread_pct)),
                ("cpm_max_spread_n", Json::from(s.cpm_max_spread_n)),
                ("cpm_avg_spread_pct", Json::from(s.cpm_avg_spread_pct)),
                ("peak_tflops", Json::from(s.peak_tflops)),
                ("peak_shape", Json::from(s.peak_shape.name())),
                ("peak_n", Json::from(s.peak_n)),
                ("peak_fraction", Json::from(s.peak_fraction)),
                ("avg_fraction", Json::from(s.avg_fraction)),
                ("energy_avg_spread_pct", Json::from(s.energy_avg_spread_pct)),
                (
                    "fpm_mean_time_per_shape",
                    Json::arr(s.fpm_mean_time_per_shape.iter().map(|(sh, t)| {
                        Json::obj([
                            ("shape", Json::from(sh.name())),
                            ("mean_exec_time_s", Json::from(*t)),
                        ])
                    })),
                ),
            ])
        }
        "recovery" => {
            // The resilience module stamps its own run_config (seeds and
            // grid size), so print and return directly.
            println!("{}", summagen_bench::resilience::recovery_json(32).pretty());
            return;
        }
        other => {
            eprintln!("--json supports: fig5 fig6 fig7 fig8 summary recovery (got '{other}')");
            std::process::exit(2);
        }
    };
    let mut config = vec![
        (
            "command".to_string(),
            Json::from(format!("reproduce {what} --json")),
        ),
        ("cpm_speeds".to_string(), harness::cpm_speeds_json()),
    ];
    if what == "fig7" {
        config.push(("fpm_grid_steps".to_string(), Json::from(FPM_GRID_STEPS)));
    }
    println!("{}", with_metadata(doc, Json::Obj(config)).pretty());
}

fn auto_gen() {
    use summagen_core::simulate;
    use summagen_partition::auto::{auto_layout, AutoOptions};
    use summagen_platform::profile::hclserver1;
    use summagen_platform::speed::SpeedFunction;

    println!("\nEXTENSION — automatic subp/subph/subpw generation (Section IV: \"we believe that");
    println!(
        "these arrays can be generated automatically\") vs the named shapes, N = 8192, real FPMs"
    );
    let platform = hclserver1();
    let speeds: Vec<&dyn SpeedFunction> = platform
        .processors
        .iter()
        .map(|p| p.speed.as_ref())
        .collect();
    let n = 8_192;
    let opts = AutoOptions {
        iterations: 800,
        ..AutoOptions::default()
    };
    let (auto_spec, _) = auto_layout(n, &speeds, opts);
    let auto_time = simulate(&auto_spec, &platform, link_model()).exec_time;
    println!(
        "  auto-generated layout ({}x{} grid): {:.3} s",
        auto_spec.grid_rows, auto_spec.grid_cols, auto_time
    );
    let areas = summagen_partition::proportional_areas(n, &CPM_SPEEDS);
    for shape in ALL_FOUR_SHAPES {
        let t = simulate(&shape.build(n, &areas), &platform, link_model()).exec_time;
        println!("  {:<22} {t:.3} s", shape.name());
    }
}

fn fig5measured() {
    println!(
        "\nMETHODOLOGY — Fig. 5 profiles rebuilt via the measurement protocol (3% timer noise)"
    );
    println!(
        "{:>12}{:>8}{:>14}{:>12}{:>12}",
        "device", "sizes", "worst err", "mean reps", "normality"
    );
    for (name, sizes, worst, reps, normal) in fig5_measured() {
        println!(
            "{name:>12}{sizes:>8}{:>13.2}%{reps:>12.1}{:>12}",
            worst * 100.0,
            if normal { "ok" } else { "REJECTED" }
        );
    }
}

/// Fault-tolerance demo: the seeded `(shape, seed)` grid of
/// [`resilience::recovery_series`] as a table, then the analytical
/// device-failure model the recovery policy targets.
fn recovery() {
    use summagen_platform::{
        degraded_capacity, expected_runtime_with_restarts, fleet_survival, DeviceKind, FailureModel,
    };

    let n = 32;
    println!("\nROBUSTNESS — shrink-and-retry recovery under seeded fault plans (n = {n})");
    println!(
        "{:>20}{:>6}{:>12}{:>10}{:>10}{:>10}{:>12}",
        "shape", "seed", "outcome", "attempts", "failed", "capacity", "max err"
    );
    for r in resilience::recovery_series(n, &[1, 2, 3]) {
        let (shape, seed) = (r.shape.name(), r.seed);
        match (r.max_err, r.error) {
            (Some(err), _) => println!(
                "{shape:>20}{seed:>6}{:>12}{:>10}{:>10}{:>10.2}{err:>12.2e}",
                r.outcome,
                r.attempts,
                format!("{:?}", r.failed_devices),
                degraded_capacity(&CPM_SPEEDS, &r.failed_devices),
            ),
            (None, e) => println!(
                "{shape:>20}{seed:>6}{:>12}{:>10}{:>10}{:>10}{:>12}",
                r.outcome,
                "-",
                "-",
                "-",
                e.unwrap_or_default(),
            ),
        }
    }

    println!("\n  analytical failure model (typical MTBFs, one hour of failure-free work):");
    let models = [
        FailureModel::typical(DeviceKind::Cpu),
        FailureModel::typical(DeviceKind::Gpu),
        FailureModel::typical(DeviceKind::XeonPhi),
    ];
    let work = 3600.0;
    println!(
        "    fleet survival over the run: {:.4}",
        fleet_survival(&models, work)
    );
    println!(
        "    expected makespan with restart-from-scratch: {:.1} s (vs {work:.0} s failure-free)",
        expected_runtime_with_restarts(work, &models)
    );
    for (name, m) in [
        ("AbsCPU", models[0]),
        ("AbsGPU", models[1]),
        ("AbsXeonPhi", models[2]),
    ] {
        println!(
            "    {name:<12} MTBF {:>9.0} s   P(fail during run) {:.4}",
            m.mtbf_seconds,
            m.failure_probability(work)
        );
    }
}

/// Quick numeric self-check: every multiplication algorithm in the
/// workspace against one reference, printed as a checklist.
fn verify() {
    use summagen_core::{
        cannon_multiply, caps_multiply, multiply, multiply_panelled, summa25d_multiply,
        summa_cyclic_multiply, summa_multiply, BlockCyclic, ExecutionMode,
    };
    use summagen_matrix::{
        max_abs_diff, ooc_gemm, random_matrix, strassen_multiply, DenseMatrix, GemmKernel,
    };
    use summagen_partition::{nrrp_layout, proportional_areas};

    let n = 48;
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let want = resilience::reference(&a, &b);

    println!("\nVERIFY — every algorithm vs the sequential reference (n = {n})");
    let check = |name: &str, c: &DenseMatrix| {
        let err = max_abs_diff(c, &want);
        let ok = err < 1e-9;
        println!(
            "  [{}] {name:<40} max err {err:.2e}",
            if ok { "ok" } else { "FAIL" }
        );
        assert!(ok, "{name} failed verification");
    };

    let areas = proportional_areas(n, &CPM_SPEEDS);
    for shape in ALL_FOUR_SHAPES {
        let spec = shape.build(n, &areas);
        check(
            &format!("SummaGen / {}", shape.name()),
            &multiply(&spec, &a, &b, ExecutionMode::Real).c,
        );
        check(
            &format!("SummaGen panelled / {}", shape.name()),
            &multiply_panelled(&spec, &a, &b, GemmKernel::Blocked).c,
        );
    }
    check(
        "SummaGen / NRRP layout (p = 4)",
        &multiply(
            &nrrp_layout(n, &[1.0, 2.0, 0.9, 1.5]),
            &a,
            &b,
            ExecutionMode::Real,
        )
        .c,
    );
    check("classic SUMMA (2x2)", &summa_multiply(&a, &b, 2, 2, 8).c);
    check(
        "block-cyclic SUMMA",
        &summa_cyclic_multiply(&a, &b, BlockCyclic::new(8, 2, 2)).0,
    );
    check("Cannon (4x4)", &cannon_multiply(&a, &b, 4).c);
    check("2.5D (q=4, c=2)", &summa25d_multiply(&a, &b, 4, 2).c);
    check("parallel Strassen (CAPS)", &caps_multiply(&a, &b).c);
    check("sequential Strassen", &strassen_multiply(&a, &b));
    let mut c = DenseMatrix::zeros(n, n);
    ooc_gemm(n, a.as_slice(), b.as_slice(), c.as_mut_slice(), 3 * 16 * 16);
    check("out-of-core GEMM (tight workspace)", &c);
    println!("  all algorithms verified");
}
