//! Scaffolding shared by the `reproduce` harnesses: artifact naming,
//! chaos-seed folding, tenant-mix lookup, artifact writing, and the
//! drift comparator behind `bench --check` and `insight --check`.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use summagen_comm::Backend;
use summagen_partition::Shape;
use summagen_service::{mix_by_name, LoadMix};

use crate::json::{Json, SCHEMA_VERSION};
use crate::CPM_SPEEDS;

/// Environment variable the CI matrices set to widen the seeded grids
/// (soak, degrade, crash) by one extra seed per job.
pub const CHAOS_SEED_ENV: &str = "SUMMAGEN_CHAOS_SEED";

/// Default relative tolerance of `--check`. Virtual-time runs are
/// deterministic, so this only needs to absorb float formatting and
/// cross-platform libm noise — 1 % is generous.
pub const DEFAULT_CHECK_TOLERANCE: f64 = 0.01;

/// The paper's CPM relative speeds as recorded in every artifact's
/// `run_config.cpm_speeds`.
pub fn cpm_speeds_json() -> Json {
    Json::arr(CPM_SPEEDS.iter().copied().map(Json::from))
}

/// Filename-safe form of a shape's name (`square corner` →
/// `square-corner`), used in every per-shape artifact name.
pub fn shape_slug(shape: Shape) -> String {
    shape.name().replace(' ', "-")
}

/// Artifact name for one shape's document over `backend`: channel runs
/// keep the historical `<prefix>_<shape>.json` so committed baselines and
/// dashboards stay addressable; other backends get a `_<backend>` suffix,
/// so one output directory can hold both sides of a parity run.
pub fn backend_artifact_name(prefix: &str, shape: Shape, backend: Backend) -> String {
    let slug = shape_slug(shape);
    match backend {
        Backend::Channel => format!("{prefix}_{slug}.json"),
        other => format!("{prefix}_{slug}_{}.json", other.name()),
    }
}

/// `base` with any [`CHAOS_SEED_ENV`] seed from the environment folded in
/// (appended unless already present).
pub fn chaos_seeds(base: &[u64]) -> Vec<u64> {
    let mut seeds = base.to_vec();
    if let Ok(v) = std::env::var(CHAOS_SEED_ENV) {
        if let Ok(s) = v.trim().parse::<u64>() {
            if !seeds.contains(&s) {
                seeds.push(s);
            }
        }
    }
    seeds
}

/// Human-readable reproduction context for failure messages: the active
/// backend and the raw [`CHAOS_SEED_ENV`] value, so a red log alone is
/// enough to rerun the exact scenario.
pub fn chaos_context(backend: Backend) -> String {
    let seed_env = std::env::var(CHAOS_SEED_ENV).unwrap_or_else(|_| "<unset>".into());
    format!("backend={} {CHAOS_SEED_ENV}={seed_env}", backend.name())
}

/// A gate: `Ok` when `ok` holds, otherwise `Err` with the message — the
/// `Result` form of `assert!`, so a failed gate exits with its message
/// instead of panicking.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// The named tenant mix (`small` or `hetero`).
pub fn resolve_mix(name: &str) -> Result<LoadMix, String> {
    mix_by_name(name).ok_or_else(|| format!("unknown mix '{name}'; expected small or hetero"))
}

/// Creates `out_dir` and writes each `(file name, contents)` pair into
/// it. Every error names the path it failed on.
pub fn write_artifacts(out_dir: &Path, files: &[(String, &str)]) -> Result<(), String> {
    let named = |path: &Path, e: io::Error| format!("{}: {e}", path.display());
    fs::create_dir_all(out_dir).map_err(|e| named(out_dir, e))?;
    for (name, contents) in files {
        let path = out_dir.join(name);
        fs::write(&path, contents).map_err(|e| named(&path, e))?;
    }
    Ok(())
}

/// Why a `--check` run could not be completed — distinct from a
/// [`CheckOutcome`] with violations (the comparison ran and failed).
/// Every variant names what it failed on, so a typo'd `--check DIR`
/// fails with the directory it looked in rather than a bare "No such
/// file or directory".
#[derive(Debug)]
pub enum CheckError {
    /// The baseline directory does not exist (or is not a directory).
    MissingBaselineDir(PathBuf),
    /// A baseline artifact is missing or unreadable.
    UnreadableBaseline(PathBuf, io::Error),
    /// A baseline artifact exists but is not parseable JSON.
    MalformedBaseline(PathBuf, String),
    /// The fresh run of the labelled document failed one of its own gates.
    FreshRun(String, String),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::MissingBaselineDir(dir) => write!(
                f,
                "baseline directory '{}' does not exist — run the export first \
                 (e.g. `reproduce bench --out {}`) or point --check at a committed baseline",
                dir.display(),
                dir.display()
            ),
            CheckError::UnreadableBaseline(path, e) => {
                write!(f, "baseline '{}' unreadable: {e}", path.display())
            }
            CheckError::MalformedBaseline(path, e) => {
                write!(f, "baseline '{}' is not valid JSON: {e}", path.display())
            }
            CheckError::FreshRun(label, e) => write!(f, "fresh run of {label} failed: {e}"),
        }
    }
}

impl std::error::Error for CheckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckError::UnreadableBaseline(_, e) => Some(e),
            _ => None,
        }
    }
}

/// Reads and parses one baseline artifact, wrapping both failure modes
/// with the offending path.
pub fn read_baseline(path: &Path) -> Result<Json, CheckError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CheckError::UnreadableBaseline(path.to_path_buf(), e))?;
    Json::parse(&text).map_err(|e| CheckError::MalformedBaseline(path.to_path_buf(), e))
}

/// Fails fast with a typed error if `baseline_dir` is not a directory,
/// before any expensive fresh runs are attempted.
pub fn require_baseline_dir(baseline_dir: &Path) -> Result<(), CheckError> {
    if baseline_dir.is_dir() {
        Ok(())
    } else {
        Err(CheckError::MissingBaselineDir(baseline_dir.to_path_buf()))
    }
}

/// The relative drift of one numeric leaf between baseline and fresh
/// documents; `--check` reports the worst one on failure so the first
/// place to look is named instead of buried in a violation list.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafDrift {
    /// Dotted path of the leaf, prefixed with the document label
    /// (e.g. `square corner: cpm.makespan_s`).
    pub path: String,
    /// The baseline value.
    pub baseline: f64,
    /// The freshly measured value.
    pub fresh: f64,
    /// `|fresh - baseline|` relative to the baseline magnitude.
    pub rel: f64,
}

impl std::fmt::Display for LeafDrift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "'{}' drifted {:+.2}% (baseline {}, fresh {})",
            self.path,
            100.0 * (self.fresh - self.baseline) / self.baseline.abs().max(1e-12),
            self.baseline,
            self.fresh
        )
    }
}

/// Everything a `--check` run learned: the human-readable violations
/// (empty = pass) plus the worst-drifting leaf across every compared
/// document, even when that drift is within tolerance.
#[derive(Debug, Default)]
pub struct CheckOutcome {
    /// Out-of-tolerance (or structural) violations.
    pub violations: Vec<String>,
    /// The numeric leaf with the largest relative drift seen anywhere.
    pub worst: Option<LeafDrift>,
}

impl CheckOutcome {
    fn absorb(&mut self, drift: Option<LeafDrift>) {
        if let Some(d) = drift {
            if self.worst.as_ref().is_none_or(|w| d.rel > w.rel) {
                self.worst = Some(d);
            }
        }
    }
}

/// Flattens every numeric leaf of a document into `(dotted.path, value)`
/// pairs. Array elements use their index as the path component.
fn numeric_leaves(prefix: &str, v: &Json, out: &mut Vec<(String, f64)>) {
    match v {
        Json::Num(x) => out.push((prefix.to_string(), *x)),
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                let p = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                numeric_leaves(&p, v, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                numeric_leaves(&format!("{prefix}.{i}"), v, out);
            }
        }
        _ => {}
    }
}

/// Compares a fresh document against a baseline: every numeric leaf of
/// the baseline must exist in the fresh document and agree within
/// relative tolerance `tol` (absolute for values near zero). The
/// provenance `git_commit` is a string and is naturally ignored;
/// `schema_version` must match exactly. When *both* documents record a
/// `run_config.backend`, they must match — a channel baseline checked
/// against a TCP rerun (or vice versa) is not a like-for-like
/// comparison, even though the virtual-time numbers should agree.
/// Baselines predating the field compare against any backend. Returns
/// the violations plus the worst-drifting numeric leaf of the pair
/// (whether or not it violated the tolerance).
pub fn compare_docs_drift(
    label: &str,
    baseline: &Json,
    fresh: &Json,
    tol: f64,
) -> (Vec<String>, Option<LeafDrift>) {
    let mut violations = Vec::new();
    let mut worst: Option<LeafDrift> = None;
    let base_schema = baseline.get("schema_version").and_then(Json::as_f64);
    if base_schema != Some(SCHEMA_VERSION as f64) {
        violations.push(format!(
            "{label}: baseline schema_version {base_schema:?} != {SCHEMA_VERSION} — \
             refresh the baseline (see EXPERIMENTS.md)"
        ));
        return (violations, worst);
    }
    let backend_of = |doc: &Json| {
        doc.path("run_config.backend")
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    if let (Some(base_be), Some(fresh_be)) = (backend_of(baseline), backend_of(fresh)) {
        if base_be != fresh_be {
            violations.push(format!(
                "{label}: backend mismatch — baseline ran over '{base_be}', fresh run over \
                 '{fresh_be}'; check like-for-like or refresh the baseline"
            ));
            return (violations, worst);
        }
    }
    let mut base_leaves = Vec::new();
    numeric_leaves("", baseline, &mut base_leaves);
    let mut fresh_leaves = Vec::new();
    numeric_leaves("", fresh, &mut fresh_leaves);
    let fresh_map: BTreeMap<&str, f64> =
        fresh_leaves.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    for (path, want) in &base_leaves {
        let Some(&got) = fresh_map.get(path.as_str()) else {
            violations.push(format!("{label}: metric '{path}' missing from fresh run"));
            continue;
        };
        // schema_version was matched exactly above; its zero drift
        // would only dilute the worst-leaf report, so skip it.
        if path == "schema_version" {
            continue;
        }
        let scale = want.abs().max(1e-12);
        let rel = (got - want).abs() / scale;
        if worst.as_ref().is_none_or(|w| rel > w.rel) {
            worst = Some(LeafDrift {
                path: format!("{label}: {path}"),
                baseline: *want,
                fresh: got,
                rel,
            });
        }
        if rel > tol {
            violations.push(format!(
                "{label}: '{path}' regressed — baseline {want}, fresh {got} \
                 ({:+.2}% vs tolerance ±{:.2}%)",
                100.0 * (got - want) / scale,
                100.0 * tol
            ));
        }
    }
    (violations, worst)
}

/// The `--check` comparator: fails fast unless `baseline_dir` exists, prints
/// `title` as the header, then for each `(label, file, fresh document)`
/// — produced lazily, so the fresh runs start only after the directory
/// check — compares the fresh document against `baseline_dir/file`,
/// prints one ok/violations line per label, and collects every
/// violation plus the worst-drifting leaf across all documents.
pub fn check_docs(
    title: &str,
    baseline_dir: &Path,
    tol: f64,
    docs: impl IntoIterator<Item = (String, String, Result<Json, String>)>,
) -> Result<CheckOutcome, CheckError> {
    require_baseline_dir(baseline_dir)?;
    println!(
        "\n{title} vs baselines in {} (tolerance ±{:.2}%)",
        baseline_dir.display(),
        100.0 * tol
    );
    let mut outcome = CheckOutcome::default();
    for (label, file, fresh) in docs {
        let fresh = fresh.map_err(|e| CheckError::FreshRun(label.clone(), e))?;
        let baseline = read_baseline(&baseline_dir.join(file))?;
        let (v, drift) = compare_docs_drift(&label, &baseline, &fresh, tol);
        println!(
            "  {:<20} {}",
            label,
            if v.is_empty() {
                "ok".to_string()
            } else {
                format!("{} violation(s)", v.len())
            }
        );
        outcome.violations.extend(v);
        outcome.absorb(drift);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_partition::ALL_FOUR_SHAPES;

    #[test]
    fn all_four_shapes_have_distinct_filename_safe_slugs() {
        let slugs: std::collections::BTreeSet<String> =
            ALL_FOUR_SHAPES.iter().map(|&s| shape_slug(s)).collect();
        assert_eq!(slugs.len(), 4);
        for s in &slugs {
            assert!(!s.contains(' '), "slug {s} must be filename-safe");
        }
    }

    #[test]
    fn channel_artifacts_keep_the_bare_name_and_tcp_is_suffixed() {
        assert_eq!(
            backend_artifact_name("BENCH", Shape::SquareCorner, Backend::Channel),
            "BENCH_square-corner.json"
        );
        assert_eq!(
            backend_artifact_name("SOAK", Shape::SquareCorner, Backend::Tcp),
            "SOAK_square-corner_tcp.json"
        );
    }

    #[test]
    fn chaos_seeds_keep_the_base_list_first() {
        // Can't set the env var safely in a threaded test harness; the
        // base list must survive the fold in order either way.
        let seeds = chaos_seeds(&[7, 1]);
        assert_eq!(&seeds[..2], &[7, 1]);
        assert!(seeds.len() <= 3);
    }

    #[test]
    fn unknown_mix_is_named_in_the_error() {
        assert_eq!(resolve_mix("hetero").unwrap().name, "hetero");
        let err = resolve_mix("bogus").unwrap_err();
        assert!(
            err.contains("'bogus'") && err.contains("small or hetero"),
            "{err}"
        );
    }

    #[test]
    fn write_artifacts_names_the_failing_path() {
        let dir = std::env::temp_dir().join(format!("summagen-artifacts-{}", std::process::id()));
        write_artifacts(&dir, &[("a.txt".to_string(), "x")]).unwrap();
        assert_eq!(fs::read_to_string(dir.join("a.txt")).unwrap(), "x");
        // A file where the directory should be: creation fails, naming it.
        let blocked = dir.join("a.txt");
        let err = write_artifacts(&blocked, &[("b.txt".to_string(), "y")]).unwrap_err();
        assert!(err.contains("a.txt"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_against_a_missing_baseline_dir_fails_before_any_fresh_run() {
        let dir = Path::new("target/no-such-baseline-dir");
        let docs = std::iter::once_with(|| -> (String, String, Result<Json, String>) {
            panic!("fresh run started before the directory check")
        });
        let err = check_docs("TEST CHECK", dir, 0.01, docs).unwrap_err();
        match &err {
            CheckError::MissingBaselineDir(p) => assert_eq!(p, dir),
            other => panic!("expected MissingBaselineDir, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("target/no-such-baseline-dir"), "{msg}");
        assert!(msg.contains("does not exist"), "{msg}");
    }

    #[test]
    fn unreadable_and_malformed_baselines_name_the_offending_path() {
        let dir = std::env::temp_dir().join("summagen-check-error-test");
        fs::create_dir_all(&dir).unwrap();

        let missing = dir.join("BENCH_nope.json");
        match read_baseline(&missing) {
            Err(CheckError::UnreadableBaseline(p, _)) => assert_eq!(p, missing),
            other => panic!("expected UnreadableBaseline, got {other:?}"),
        }

        let bad = dir.join("BENCH_bad.json");
        fs::write(&bad, "{ this is not json").unwrap();
        match read_baseline(&bad) {
            Err(CheckError::MalformedBaseline(p, _)) => assert_eq!(p, bad),
            other => panic!("expected MalformedBaseline, got {other:?}"),
        }
        // The dir exists, so the fast pre-check passes.
        assert!(require_baseline_dir(&dir).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_docs_reports_violations_and_the_worst_leaf() {
        let dir = std::env::temp_dir().join(format!("summagen-check-docs-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let doc = |x: f64| {
            Json::obj([
                ("schema_version", Json::from(SCHEMA_VERSION)),
                (
                    "m",
                    Json::obj([("a", Json::from(x)), ("b", Json::from(2.0))]),
                ),
            ])
        };
        fs::write(dir.join("D.json"), doc(1.0).pretty()).unwrap();
        let fresh = |x: f64| vec![("d".to_string(), "D.json".to_string(), Ok(doc(x)))];

        let pass = check_docs("TEST CHECK", &dir, 0.05, fresh(1.01)).unwrap();
        assert!(pass.violations.is_empty());
        let fail = check_docs("TEST CHECK", &dir, 0.05, fresh(1.10)).unwrap();
        assert_eq!(fail.violations.len(), 1, "{:?}", fail.violations);
        assert!(fail.violations[0].contains("m.a"));
        assert_eq!(fail.worst.unwrap().path, "d: m.a");

        let failed_run = vec![(
            "d".to_string(),
            "D.json".to_string(),
            Err("gate tripped".to_string()),
        )];
        match check_docs("TEST CHECK", &dir, 0.05, failed_run) {
            Err(CheckError::FreshRun(label, e)) => {
                assert_eq!((label.as_str(), e.as_str()), ("d", "gate tripped"))
            }
            other => panic!("expected FreshRun, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }
}
