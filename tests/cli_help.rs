//! `--help` on any `pb` subcommand prints usage and exits 0 without
//! doing the command's work (for `serve`: without binding a port and
//! blocking). A flag the command does not read, a stray positional
//! argument, or a value the daemon would reject exits 2 naming the flag.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn serve_help_prints_usage_and_exits_without_binding() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pb"))
        .args(["serve", "--help"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pb");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll pb") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`pb serve --help` still running after 10 s: it must not start the daemon");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = child.wait_with_output().expect("collect pb output");
    assert!(status.success(), "exit status {status}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().any(|l| l == "commands:"), "no usage on stdout:\n{stdout}");
    assert!(!stdout.contains("listening"), "the daemon started:\n{stdout}");
}

#[test]
fn help_flag_works_after_any_command() {
    for args in [&["--help"][..], &["-h"], &["sweep", "-h"], &["call", "--help"], &["trace", "-h"]]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_pb")).args(args).output().expect("run pb");
        assert!(out.status.success(), "{args:?}: {}", out.status);
        assert!(String::from_utf8_lossy(&out.stdout).contains("commands:"), "{args:?}");
    }
}

#[test]
fn unknown_flags_and_stray_arguments_exit_2_naming_them() {
    for (args, named) in [
        (
            &["sweep", "--faults", "mid", "--from", "1000", "--to", "1000", "--no-flight"][..],
            "--no-flight",
        ),
        (&["sweep", "--trce", "F"], "--trce"),
        (&["--bogus-flag"], "--bogus-flag"),
        (&["recommend", "--hives", "630", "stray"], "stray"),
        (&["tune", "--hives", "5"], "--hives"),
        (&["trace", "t.jsonl", "--tp", "3"], "--tp"),
        (&["call", "127.0.0.1:1", "{}", "--attempt", "2"], "--attempt"),
        // Values the daemon rejects fail on the command line too.
        (&["sweep", "--service", "foo"], "--service"),
        (&["sweep", "--from", "0", "--to", "0", "--step", "1"], "--from"),
        (&["sweep", "--losses", "maybe"], "--losses"),
        (&["recommend", "--service", "foo"], "--service"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pb")).args(args).output().expect("run pb");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{args:?}: stderr does not name {named}:\n{stderr}");
    }
}

#[test]
fn a_switch_spelled_false_is_off() {
    let out = Command::new(env!("CARGO_BIN_EXE_pb"))
        .args(["sweep", "--losses", "false", "--from", "100", "--to", "300"])
        .output()
        .expect("run pb");
    assert!(out.status.success(), "{}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("CNN service, 100–300 clients"), "{stdout}");
    assert!(!stdout.contains(", with losses"), "--losses false priced losses:\n{stdout}");
}
