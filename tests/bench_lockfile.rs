//! The benchmark crate builds with `--locked` against its own
//! `givebench/Cargo.lock`. Adding or dropping a non-dev dependency edge
//! of any workspace crate it builds makes that lock file stale, and the
//! benchmark's build then fails. Resolving its dependency graph the same
//! way here catches that drift in the ordinary test run.

use std::process::Command;

#[test]
fn givebench_lock_file_resolves_offline_and_locked() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/givebench/Cargo.toml");
    let out = Command::new(env!("CARGO"))
        .args(["metadata", "--offline", "--locked", "--format-version", "1"])
        .arg("--manifest-path")
        .arg(manifest)
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "givebench/Cargo.lock is out of step with the workspace manifests \
         (cargo exited {:?}):\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}
