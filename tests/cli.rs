//! Flag parsing of the `experiments` binary: a flag that takes a value
//! but ends the command line is a usage error (exit 2), never a silent
//! run without the output the caller asked for.

use std::process::Command;

/// Run `experiments` with `args`, check it exits 2 printing the usage
/// line, and return its stderr.
fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn a_trailing_flag_without_its_value_exits_2() {
    for flag in [
        "--json",
        "--markdown",
        "--out-dir",
        "--trace",
        "--store",
        "--scale",
        "--seed",
        "--threads",
        "--chaos",
        "--soak",
    ] {
        let stderr = usage_error(&["--scale", "0.02", flag]);
        assert!(
            stderr.contains(&format!("error: {flag} needs a value")),
            "{flag}: {stderr}"
        );
    }
    let stderr = usage_error(&["--bogus"]);
    assert!(stderr.contains("error: unknown flag --bogus"), "{stderr}");
}
