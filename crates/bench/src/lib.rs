//! Benchmark harness reproducing every table and figure of the MoEntwine
//! paper.
//!
//! Each `figs::*` module computes one table/figure and returns a
//! [`Report`]; the `src/bin/*` binaries are thin wrappers so that any
//! experiment can be regenerated with
//! `cargo run --release -p moentwine-bench --bin <exp>`. The `repro_all`
//! binary runs the whole suite and writes `results/*.json` plus a combined
//! markdown summary for EXPERIMENTS.md.
//!
//! Pass `--quick` to any binary for a reduced-iteration smoke run.

pub mod figs;
pub mod golden;
pub mod perf;
pub mod platforms;
pub mod report;
pub mod scenario_run;
pub mod summary_json;

/// The hand-rolled JSON layer, hoisted into the `moentwine-json` leaf
/// crate so the spec layer and core can use it too; re-exported here
/// unchanged (`moentwine_bench::json::Value` keeps working).
pub use moentwine_json as json;

pub use report::Report;

/// Parses the common `--quick` flag.
pub fn quick_from_args() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Parses the common `--threads N` flag (also `--threads=N`), defaulting to
/// the machine's available parallelism. The parallel binaries guarantee
/// byte-identical output for every thread count — `--threads 1` is the
/// serial program, more threads only shorten the wall clock.
///
/// # Panics
///
/// Panics on a malformed or zero thread count (a CLI usage error).
pub fn threads_from_args() -> usize {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        let value = if arg == "--threads" {
            args.next()
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            Some(v.to_string())
        } else {
            continue;
        };
        let value = value.expect("--threads requires a count");
        let n: usize = value
            .parse()
            .unwrap_or_else(|_| panic!("invalid --threads value {value:?}"));
        assert!(n > 0, "--threads must be at least 1");
        return n;
    }
    perf::pool::WorkerPool::available()
}

/// Runs a figure function as a binary entry point: print and save.
pub fn run_binary(f: impl FnOnce(bool) -> Report) {
    let quick = quick_from_args();
    let report = f(quick);
    report.print();
    if let Err(e) = report.save("results") {
        eprintln!("warning: could not save report: {e}");
    }
}
