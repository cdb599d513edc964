//! Fleet-level serving sweep: replica count × router policy × arrival rate
//! → fleet-aggregate SLO percentiles, goodput, rejects, and cross-replica
//! load-imbalance per point.
//!
//! Prints the report, saves `results/fleet_sweep.json`, writes the
//! machine-readable manifest to `target/figs/fleet_sweep.json`, then
//! **re-reads and schema-validates the emitted manifest**, exiting non-zero
//! if it is malformed (the CI smoke gate).
//!
//! Usage: `cargo run --release -p moentwine-bench --bin fleet_sweep --
//! [--quick] [--threads N]`
//!
//! `--threads` (default: available parallelism) spreads grid points over
//! the hand-rolled worker pool; the manifest is byte-identical for every
//! thread count (CI `cmp`s `--threads 1` against `--threads 4`).

use std::process::ExitCode;

fn main() -> ExitCode {
    moentwine_bench::figs::fig_main(&moentwine_bench::figs::fleet_sweep::FIG)
}
