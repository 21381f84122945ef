//! Performance guard tests for the givetake workspace.
//!
//! The crate holds no library code: its `tests/` directory holds the
//! guards (warm-store speedup, scam/benign recording cost ratio, one QR
//! scan per overlay in the monitor, URL extractor against its
//! reference, chat path against copying into a set, monitor cost per
//! sample against ended streams, tweet snapshot decode allocations, QR
//! encode against a frame scan). The end-to-end and per-layer timings
//! live in the `givebench` benchmark.
