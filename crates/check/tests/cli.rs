//! Drives the `plic3-check` binary end to end on hand-written AIGER files:
//! both verdicts with their evidence checked, and the `--timeout` parser.

use std::path::PathBuf;
use std::process::{Command, Output};

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
