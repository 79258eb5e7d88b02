//! Drives the `plic3-exp` binary: malformed `--timeout` values are usage
//! errors (exit 2) caught before any experiment runs, never panics.

use std::process::Command;

#[test]
fn out_of_range_timeouts_exit_2_before_any_experiment() {
    for value in ["1e20", "-1", "nan"] {
        let output = Command::new(env!("CARGO_BIN_EXE_plic3-exp"))
            .args(["table1", "--timeout", value])
            .output()
            .expect("plic3-exp runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "--timeout {value}: {stderr}");
        assert!(
            stderr.contains("invalid --timeout value"),
            "--timeout {value}: {stderr}"
        );
    }
}
