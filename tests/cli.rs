//! The `mqo` and `loadgen` command lines refuse what they do not
//! understand: every (sub)command checks its flags against one table, so
//! a typo is an error naming the flag (exit 2), not a silently ignored
//! setting.

use std::process::Command;

fn run(binary: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(binary).args(args).output().expect("run binary");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn mqo(args: &[&str]) -> (Option<i32>, String) {
    run(env!("CARGO_BIN_EXE_mqo"), args)
}

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    let (code, stderr) = mqo(&["classify", "cora", "--parallel", "2"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--parallel"), "stderr: {stderr}");

    let (code, stderr) = mqo(&["classify", "cora", "--queries"]);
    assert_eq!(code, Some(2), "a value flag without its value: {stderr}");
    assert!(stderr.contains("--queries"), "stderr: {stderr}");
}

#[test]
fn loadgen_rejects_unknown_flags_before_connecting() {
    let loadgen = env!("CARGO_BIN_EXE_loadgen");
    let (code, stderr) = run(loadgen, &["--addr", "127.0.0.1:9", "--bogus-flag", "7"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--bogus-flag"), "stderr: {stderr}");

    let (code, stderr) = run(loadgen, &["--addr", "127.0.0.1:9", "--requests"]);
    assert_eq!(code, Some(2), "a value flag without its value: {stderr}");
    assert!(stderr.contains("--requests"), "stderr: {stderr}");
}
