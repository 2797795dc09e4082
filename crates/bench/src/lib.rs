//! # shift-bench
//!
//! The workspace's **perf-regression subsystem**. The paper's overhead
//! claim (Algorithm 1 costs "less than 2 milliseconds per frame") is
//! measured here, by one harness:
//!
//! * [`suite`] — a fixed set of named micro benches over the hot paths
//!   (confidence-graph lookup, scheduler arg-max, NCC context detection,
//!   LRU loader churn, fleet step), each reduced to a
//!   [`TimingRow`](shift_metrics::TimingRow);
//! * [`snapshot`] — the machine-readable `BENCH_micro.json` format (suite
//!   rows plus the stress sweep's wall-clock timings folded in) and the
//!   minimal JSON parser it needs in this serde_json-less workspace;
//! * [`compare`] — the CI gate: diffs two snapshots and fails past a
//!   configurable regression band.
//!
//! `cargo run -p shift-experiments --bin repro -- bench` runs the suite and
//! writes the snapshot; `repro -- bench-compare <baseline> <current>` gates
//! it.

pub mod compare;
pub mod snapshot;
pub mod suite;
