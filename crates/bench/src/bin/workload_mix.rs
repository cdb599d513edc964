//! Multi-tenant workload mix sweep: interactive:batch traffic mix ×
//! arrival rate under bursty arrivals → per-class SLO percentiles and
//! attainment, plus deadline-shed counts.
//!
//! Prints the report, saves `results/workload_mix.json`, writes the
//! machine-readable manifest to `target/figs/workload_mix.json`, then
//! **re-reads and schema-validates the emitted manifest**, exiting non-zero
//! if it is malformed (the CI smoke gate).
//!
//! Usage: `cargo run --release -p moentwine-bench --bin workload_mix --
//! [--quick] [--threads N]`
//!
//! `--threads` (default: available parallelism) spreads grid points over
//! the hand-rolled worker pool; the manifest is byte-identical for every
//! thread count (CI `cmp`s `--threads 1` against `--threads 4`).

use std::process::ExitCode;

fn main() -> ExitCode {
    moentwine_bench::figs::fig_main(&moentwine_bench::figs::workload_mix::FIG)
}
