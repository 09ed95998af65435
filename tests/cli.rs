//! The `mqo` command line refuses what it does not understand: every
//! subcommand checks its flags against one table, so a typo is an error
//! naming the flag (exit 2), not a silently ignored setting.

use std::process::Command;

fn mqo(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mqo")).args(args).output().expect("run mqo");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
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
