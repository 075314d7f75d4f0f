//! The benchmark fails loudly on bad input: nonzero exit, no result line.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_layerbench"))
        .args(args)
        .output()
        .expect("spawn layerbench")
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "bogus",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "serve-repeat", "--metric", "bogus.metric"],
        &["--workload", "serve-repeat", "--bogus-flag", "1"],
        &["--workload", "serve-repeat", "--seed", "twelve"],
        &["--workload", "serve-repeat", "--trace", "yes"],
        &[],
    ] {
        let out = run(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} exited {:?}",
            out.status
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(!out.stderr.is_empty(), "{args:?} gave no reason");
    }
}

#[test]
fn list_prints_the_layer_table() {
    let out = run(&["--list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8");
    assert!(text.contains("should move:") && text.contains("most.busy_ms"));
}
