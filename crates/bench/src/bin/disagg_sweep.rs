//! Colocated vs. disaggregated prefill/decode sweep: matched arrival rates
//! → TTFT/TPOT percentiles, priced KV-transfer accounting, and modeled
//! hardware cost per point.
//!
//! Prints the report, saves `results/disagg_sweep.json`, writes the
//! machine-readable manifest to `target/figs/disagg_sweep.json`, then
//! **re-reads and schema-validates the emitted manifest**, exiting non-zero
//! if it is malformed or if any disaggregated point carries no priced KV
//! transfer (the CI smoke gate).
//!
//! Usage: `cargo run --release -p moentwine-bench --bin disagg_sweep --
//! [--quick] [--threads N]`
//!
//! `--threads` (default: available parallelism) spreads grid points over
//! the hand-rolled worker pool; the manifest is byte-identical for every
//! thread count (CI `cmp`s `--threads 1` against `--threads 4`) and every
//! point asserts lock-step == event-heap internally.

use std::process::ExitCode;

fn main() -> ExitCode {
    moentwine_bench::figs::fig_main(&moentwine_bench::figs::disagg_sweep::FIG)
}
