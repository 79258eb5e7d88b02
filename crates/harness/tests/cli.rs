//! Drives the two binaries of this crate end to end.
//!
//! `plic3-exp`: malformed `--timeout` and `--memory` values, unknown options
//! and unknown commands are usage errors (exit 2) caught before any
//! experiment runs, never panics or silently wrapped budgets; a KiB memory
//! budget ends quick-suite cases as `memout`, never as a wrong verdict; and
//! `--csv` writes the work record that regenerates the golden fixtures.
//!
//! `plic3-check`, on hand-written AIGER files: both verdicts with their
//! evidence checked, the `--timeout` parser, and unreadable or malformed
//! input files.

use std::path::PathBuf;
use std::process::{Command, Output};

#[test]
fn out_of_range_timeouts_exit_2_before_any_experiment() {
    // (flag, value, expected message). 17592186044416 MiB is 2^64 bytes, one
    // more than a u64 budget holds.
    let rows = [
        ("--timeout", "1e20", "invalid --timeout value"),
        ("--timeout", "-1", "invalid --timeout value"),
        ("--timeout", "nan", "invalid --timeout value"),
        ("--memory", "17592186044416", "invalid --memory value"),
        ("--engine", "single", "unknown option '--engine'"),
    ];
    for (flag, value, message) in rows {
        let output = Command::new(env!("CARGO_BIN_EXE_plic3-exp"))
            .args(["table1", flag, value])
            .output()
            .expect("plic3-exp runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(message), "{flag} {value}: {stderr}");
    }
}

#[test]
fn a_kib_memory_budget_ends_quick_suite_cases_as_memout() {
    // The quick suite's runs charge from a few bytes to about 36 KiB (the
    // `memory_used` column of `work.txt`); 16 KiB stops about a third of
    // them.
    let output = Command::new(env!("CARGO_BIN_EXE_plic3-exp"))
        .args([
            "table1",
            "--memory",
            "16K",
            "--jobs",
            "2",
            "--timeout",
            "60",
        ])
        .output()
        .expect("plic3-exp runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("failures: "))
        .expect("the failure line");
    let count = |what: &str| -> usize {
        let prefix = line.split(what).next().expect("split");
        let n = prefix
            .rsplit([' ', ','])
            .find(|w| !w.is_empty())
            .expect("a count");
        n.parse().unwrap_or_else(|_| panic!("{what} in {line}"))
    };
    assert!(count(" memout") >= 1, "{line}");
    assert_eq!(count(" wrong verdicts"), 0, "{line}");
    assert_eq!(count(" certificate-check failures"), 0, "{line}");
    assert_eq!(count(" crashed"), 0, "{line}");
}

#[test]
fn csv_writes_the_quick_suites_golden_work_record() {
    let dir = std::env::temp_dir().join(format!("plic3-exp-cli-{}-csv", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_plic3-exp"))
        .args(["table1", "--timeout", "300", "--jobs", "2", "--csv"])
        .arg(&dir)
        .output()
        .expect("plic3-exp runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    let work = std::fs::read_to_string(dir.join("work.txt")).expect("work.txt written");
    std::fs::remove_dir_all(&dir).ok();
    let golden = include_str!("../../../tests/golden/quick_work.txt");
    let lines: Vec<&str> = work.lines().collect();
    assert_eq!(lines.len(), 96, "{work}");
    assert_eq!(lines.len(), golden.lines().count());
    for (line, want) in lines.iter().zip(golden.lines()) {
        let columns: Vec<&str> = line.splitn(4, '|').collect();
        assert_eq!(columns[..3].join("|").trim_end(), want);
        let memory_used = columns.get(3).and_then(|c| c.strip_prefix(" memory_used="));
        assert!(
            memory_used.is_some_and(|n| n.parse::<u64>().is_ok()),
            "{line}"
        );
    }
}

#[test]
fn unknown_command_exits_2_and_lists_the_valid_commands() {
    let output = Command::new(env!("CARGO_BIN_EXE_plic3-exp"))
        .args(["ablation", "--timeout", "1"])
        .output()
        .expect("plic3-exp runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown command 'ablation'"), "{stderr}");
    assert!(
        stderr.contains("all, table1, table2, fig2, fig3, fig4"),
        "{stderr}"
    );
    assert!(!stderr.contains("running"), "no case may run: {stderr}");
    assert!(output.stdout.is_empty(), "no table may print");
}

/// Writes `contents` to a fresh file in the temporary directory.
fn aiger_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("plic3-check-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write AIGER file");
    path
}

fn plic3_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_plic3-check"))
        .args(args)
        .output()
        .expect("plic3-check runs")
}

/// AIGER 1.0: one latch toggling every step, exposed as the output (the
/// property), so it is unsafe after one step.
const TOGGLE: &str = "aag 1 0 1 1 0\n2 3\n2\n";

/// AIGER 1.0: a two-cell shift register fed with 0; the output (the last
/// cell) never rises.
const SHIFT_ZERO: &str = "aag 2 0 2 1 0\n2 0\n4 2\n4\n";

#[test]
fn toggle_counterexample_replays_under_a_fractional_timeout() {
    let path = aiger_file("toggle.aag", TOGGLE);
    let output = plic3_check(&["--timeout", "0.5", path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("verdict: unsafe"), "{stdout}");
    assert!(stdout.contains("counterexample replayed"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn safe_circuit_certificate_verifies_with_and_without_preprocessing() {
    let path = aiger_file("shift.aag", SHIFT_ZERO);
    for extra in [&[][..], &["--no-preprocess"][..]] {
        let mut args = vec![path.to_str().unwrap()];
        args.extend_from_slice(extra);
        let output = plic3_check(&args);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(0), "{extra:?}: {stdout}");
        assert!(stdout.contains("verdict: safe"), "{extra:?}: {stdout}");
        assert!(
            stdout.contains("certificate verified"),
            "{extra:?}: {stdout}"
        );
        assert!(stdout.contains("SR_adv="), "statistics printed: {stdout}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn out_of_range_timeouts_are_usage_errors() {
    let path = aiger_file("toggle-bad-timeout.aag", TOGGLE);
    for value in ["1e20", "-1", "nan"] {
        let output = plic3_check(&["--timeout", value, path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "--timeout {value}: {stderr}");
        assert!(
            stderr.contains("invalid --timeout value"),
            "--timeout {value}: {stderr}"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn a_missing_file_is_a_usage_error() {
    let path = std::env::temp_dir().join(format!(
        "plic3-check-cli-{}-missing.aag",
        std::process::id()
    ));
    let output = plic3_check(&[path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn a_malformed_aiger_file_is_a_usage_error() {
    let path = aiger_file("malformed.aag", "aag 1 0 1 1\n2 3\n");
    let output = plic3_check(&[path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cannot parse"), "{stderr}");
    std::fs::remove_file(path).ok();
}
