//! Argument errors and help requests at the CLI boundary: bad input exits
//! 1 with a message instead of panicking, and every subcommand answers
//! `--help` with its usage.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_socflow-cli"))
        .args(args)
        .output()
        .expect("the socflow-cli binary runs")
}

#[test]
fn more_groups_than_socs_is_an_error_not_a_panic() {
    let out = cli(&["plan", "--socs", "7", "--groups", "9"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: --groups"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn every_subcommand_prints_usage_for_help() {
    for cmd in [
        "plan", "train", "tune", "compare", "tidal", "fleet", "trace", "bench",
    ] {
        for flag in ["--help", "-h"] {
            let out = cli(&[cmd, flag]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{cmd} {flag}: {stderr}");
            assert!(stderr.contains("USAGE:"), "{cmd} {flag}: {stderr}");
        }
    }
}
