//! Two processes, one store directory: a cold `experiments` run fills
//! the store, a second process resumes from it warm. Each process draws
//! its own `std` hasher seed, so nothing either prints may depend on
//! hash-map iteration order. The warm run replays every stage's cached
//! metric sheet, so it must print the cold run's `report` and — apart
//! from the store's own hit/miss rows — its `telemetry.metrics`, byte
//! for byte.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Run `experiments` at a small scale against `store`, writing its JSON
/// record to `json`; returns stderr.
fn experiments(store: &Path, json: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--scale", "0.02", "--threads", "2", "--store"])
        .arg(store)
        .arg("--json")
        .arg(json)
        .args(extra)
        .output()
        .expect("experiments runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "experiments failed:\n{stderr}");
    stderr
}

/// One past the end of the JSON value starting at `start`.
fn value_end(b: &[u8], start: usize) -> usize {
    let (mut depth, mut in_str, mut i) = (0usize, false, start);
    while i < b.len() {
        match (in_str, b[i]) {
            (true, b'\\') => i += 1,
            (true, b'"') => in_str = false,
            (false, b'"') => in_str = true,
            (false, b'{' | b'[') => depth += 1,
            (false, b'}' | b']') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            (false, b',' | b'\n') if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// The text of the value under the first `key` (with its exact
/// pretty-printed indentation) in `json`.
fn value<'a>(json: &'a str, indented_key: &str) -> &'a str {
    let needle = format!("\n{indented_key}: ");
    let start = json
        .find(&needle)
        .unwrap_or_else(|| panic!("no {indented_key}"))
        + needle.len();
    &json[start..value_end(json.as_bytes(), start)]
}

/// The `telemetry.metrics` rows, minus those of the `store` substrate.
fn stage_metrics(json: &str) -> Vec<String> {
    let metrics = value(value(json, "  \"telemetry\""), "    \"metrics\"");
    let b = metrics.as_bytes();
    let mut rows = Vec::new();
    let mut i = 1; // past the array's '['
    while let Some(offset) = metrics[i..].find('{') {
        let start = i + offset;
        let end = value_end(b, start);
        rows.push(metrics[start..end].to_string());
        i = end;
    }
    assert!(!rows.is_empty(), "the metrics block is empty");
    rows.retain(|row| !row.contains("\"substrate\": \"store\""));
    rows
}

struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_second_process_replays_the_first_ones_run_record() {
    let dir = Scratch(std::env::temp_dir().join(format!("gt-two-process-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).expect("scratch dir");
    let store = dir.0.join("store");
    let (cold_json, warm_json) = (dir.0.join("cold.json"), dir.0.join("warm.json"));

    let cold_err = experiments(&store, &cold_json, &[]);
    assert!(
        cold_err.contains("store: 0 stage cache hits, 25 misses"),
        "{cold_err}"
    );
    let warm_err = experiments(&store, &warm_json, &["--resume"]);
    assert!(
        warm_err.contains("store: 25 stage cache hits, 0 misses"),
        "{warm_err}"
    );

    let cold = std::fs::read_to_string(&cold_json).expect("cold json");
    let warm = std::fs::read_to_string(&warm_json).expect("warm json");
    assert_eq!(value(&warm, "  \"report\""), value(&cold, "  \"report\""));
    let (cold_rows, warm_rows) = (stage_metrics(&cold), stage_metrics(&warm));
    assert!(
        cold_rows
            .iter()
            .any(|r| r.contains("\"substrate\": \"youtube.search\"")),
        "substrate rows present"
    );
    assert_eq!(warm_rows, cold_rows, "the warm process lost metric rows");
}
