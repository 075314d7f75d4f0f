//! The `experiments` binary fails closed: a mistyped command or flag
//! value exits 2 with the usage on stderr instead of running nothing and
//! passing.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = experiments(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
}

#[test]
fn unknown_commands_exit_2_with_usage() {
    assert_usage_error(&["bogus-cmd"]);
    assert_usage_error(&["fig6_7"]);
}

#[test]
fn non_numeric_counts_exit_2_with_usage() {
    assert_usage_error(&["fig2", "--threads", "four"]);
    assert_usage_error(&["fig2", "--threads"]);
    assert_usage_error(&["serve-bench", "--clients", "-1"]);
}

#[test]
fn zero_clients_exit_2_with_usage() {
    assert_usage_error(&["serve-bench", "--clients", "0"]);
}
