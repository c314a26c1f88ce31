//! The `reproduce` command-line contract, driven through the built
//! binary on cheap paths only: bad arguments exit 2 with their message,
//! a `--check` against a missing baseline directory exits 1 naming it
//! before any run starts, and `--json` output is a schema-stamped
//! document.

use std::process::{Command, Output};

use summagen_bench::json::Json;

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts a usage error: exit code 2 and `msg` on stderr.
fn assert_usage_error(args: &[&str], msg: &str) {
    let out = reproduce(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    assert!(stderr(&out).contains(msg), "{args:?}: {}", stderr(&out));
}

#[test]
fn unknown_subcommand_lists_every_command() {
    assert_usage_error(&["bogus"], "unknown figure 'bogus'; expected one of:");
    let err = stderr(&reproduce(&["bogus"]));
    for name in [
        "table1", "verify", "recovery", "trace", "bench", "insight", "all",
    ] {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
}

#[test]
fn unknown_flag_exits_2() {
    assert_usage_error(&["fig5", "--bogus"], "unknown argument '--bogus'");
}

#[test]
fn unknown_mix_backend_and_policy_exit_2() {
    assert_usage_error(&["serve", "--mix", "bogus"], "unknown mix 'bogus'");
    assert_usage_error(
        &["bench", "--backend", "pigeon"],
        "unknown backend 'pigeon'",
    );
    assert_usage_error(&["serve", "--policy", "bogus"], "unknown policy 'bogus'");
}

#[test]
fn flags_missing_their_value_exit_2() {
    assert_usage_error(&["trace", "--out"], "--out requires a directory argument");
    assert_usage_error(
        &["serve", "--jobs", "0"],
        "--jobs requires a positive integer",
    );
    assert_usage_error(
        &["bench", "--tol", "-1"],
        "--tol requires a non-negative fraction",
    );
}

#[test]
fn check_against_a_missing_baseline_dir_exits_1_before_any_run() {
    for sub in ["bench", "insight"] {
        let out = reproduce(&[sub, "--check", "/nonexistent"]);
        assert_eq!(out.status.code(), Some(1), "{sub}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("'/nonexistent'"), "{sub}: {err}");
        assert!(err.contains("does not exist"), "{sub}: {err}");
        // Nothing ran: not even the check header reached stdout.
        assert!(
            out.stdout.is_empty(),
            "{sub}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn fig5_json_parses_and_carries_the_schema_version() {
    let out = reproduce(&["fig5", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("fig5 --json parses");
    assert!(doc.get("schema_version").and_then(Json::as_f64).is_some());
    assert_eq!(doc.get("figure").and_then(Json::as_str), Some("fig5"));
}
