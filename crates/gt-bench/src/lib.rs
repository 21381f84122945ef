//! Performance guard tests for the givetake workspace.
//!
//! The crate holds no library code: its `tests/` directory holds the
//! guards (telemetry span overhead, warm-store speedup, scam/benign
//! recording cost ratio). The end-to-end and per-layer timings live in
//! the `givebench` benchmark.
