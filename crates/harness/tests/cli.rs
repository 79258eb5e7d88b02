//! Drives the `plic3-exp` binary: malformed `--timeout` and `--memory`
//! values, unknown options and unknown commands are usage errors (exit 2)
//! caught before any experiment runs, never panics or silently wrapped
//! budgets.

use std::process::Command;

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
