//! One module per paper table/figure. Each exposes
//! `pub fn run(quick: bool) -> Report`.

pub mod ablation;
pub mod disagg_sweep;
pub mod fig01;
pub mod fig04;
pub mod fig06;
pub mod fig11;
pub mod fig12;
pub mod fig13a;
pub mod fig13b;
pub mod fig13c;
pub mod fig13d;
pub mod fig14a;
pub mod fig14b;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fleet_sweep;
pub mod router_compare;
pub mod serve_sweep;
pub mod table1;
pub mod validate;
pub mod workload_mix;

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use crate::json::Value;
use crate::Report;

/// An experiment entry point.
pub type Runner = fn(bool) -> Report;

/// Every experiment in paper order: `(id, runner)`.
pub fn all() -> Vec<(&'static str, Runner)> {
    vec![
        ("table1", table1::run as Runner),
        ("fig01", fig01::run),
        ("fig04", fig04::run),
        ("fig06", fig06::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13a", fig13a::run),
        ("fig13b", fig13b::run),
        ("fig13c", fig13c::run),
        ("fig13d", fig13d::run),
        ("fig14a", fig14a::run),
        ("fig14b", fig14b::run),
        ("fig15", fig15::run),
        ("fig16", fig16::run),
        ("fig17", fig17::run),
        ("ablation", ablation::run),
        // Beyond the paper's figures: the request-level serving sweep
        // (latency-throughput curves; also emits target/figs/serve_sweep.json)
        // and the fleet-level scale-out sweep (replica x router policy x
        // arrival rate; emits target/figs/fleet_sweep.json).
        ("serve_sweep", serve_sweep::run),
        ("fleet_sweep", fleet_sweep::run),
        // Multi-tenant SLO attainment under bursty traffic (emits
        // target/figs/workload_mix.json).
        ("workload_mix", workload_mix::run),
        // Router policies: snapshot vs EWMA feedback vs speculative
        // dispatch (emits target/figs/router_compare.json).
        ("router_compare", router_compare::run),
    ]
}

/// A sweep figure's binary surface: the figure writes a machine-readable
/// manifest next to its report, and its bin gates on that manifest.
#[derive(Copy, Clone)]
pub struct SweepFig {
    /// Figure id: the bin name and the prefix of its stderr lines.
    pub name: &'static str,
    /// Runs the sweep over `(quick, threads)` and writes the manifest.
    pub run: fn(bool, usize) -> Report,
    /// Manifest output path, relative to the working directory.
    pub manifest_path: &'static str,
    /// Schema identifier the manifest carries.
    pub schema: &'static str,
    /// Checks a parsed manifest against [`SweepFig::schema`].
    pub validate: fn(&Value) -> Result<(), String>,
}

/// Writes a sweep manifest to `path` and notes where it went (or why it
/// could not be written) on the report.
pub fn write_manifest(report: &mut Report, path: &str, manifest: &Value) {
    let dir = Path::new(path).parent().unwrap_or(Path::new("."));
    match fs::create_dir_all(dir).and_then(|()| fs::write(path, manifest.pretty())) {
        Ok(()) => report.note(format!("machine-readable manifest: {path}")),
        Err(e) => report.note(format!("WARNING: could not write {path}: {e}")),
    }
}

/// The `main` of every sweep bin: parses `--quick` and `--threads`, runs
/// the figure, prints the report and saves it under `results/`, then
/// re-reads the manifest from disk and validates it. Exits non-zero when
/// the manifest is missing, malformed, or violates its schema (the CI
/// smoke gate).
pub fn fig_main(fig: &SweepFig) -> ExitCode {
    let quick = crate::quick_from_args();
    let threads = crate::threads_from_args();
    let report = (fig.run)(quick, threads);
    report.print();
    if let Err(e) = report.save("results") {
        eprintln!("warning: could not save report: {e}");
    }
    match check_written_manifest(fig) {
        Ok(points) => {
            eprintln!(
                "{}: {} OK ({points} points, schema {})",
                fig.name, fig.manifest_path, fig.schema
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", fig.name);
            ExitCode::FAILURE
        }
    }
}

/// Validates the manifest as written to disk, not the in-memory tree, so
/// the gate catches serialization problems too. Returns the point count.
fn check_written_manifest(fig: &SweepFig) -> Result<usize, String> {
    let path = fig.manifest_path;
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let manifest = Value::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    (fig.validate)(&manifest).map_err(|e| format!("{path} violates {}: {e}", fig.schema))?;
    Ok(manifest
        .get("points")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len))
}
