//! The benchmark's workloads: which scenario file each starts from and
//! what it overrides. `README.md` in this directory says why each one was
//! chosen.

use moentwine_spec::ScenarioSpec;
use wsc_sim::CongestionBackend;

/// Engine steps of one `flow_tenants` repeat: long enough for the bursty
/// arrivals and the schedule cache to settle into their steady state.
const FLOW_TENANTS_ITERATIONS: usize = 8000;

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name given to `--workload`.
    pub name: &'static str,
    /// Scenario file, relative to the repository root.
    pub source: &'static str,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ds3_ni_decode",
        source: "perfbench/workloads/ds3_ni_decode.json",
    },
    Workload {
        name: "chaos_fleet",
        source: "examples/scenarios/chaos_fleet.json",
    },
    Workload {
        name: "flow_tenants",
        source: "examples/scenarios/bursty_tenants.json",
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Parses the scenario text and applies this workload's overrides: the
    /// benchmark's seed replaces `engine.seed` everywhere, and
    /// `flow_tenants` prices its all-to-alls with the cached flow-level DES
    /// over a longer run.
    pub fn spec(&self, text: &str, seed: u64) -> Result<ScenarioSpec, String> {
        let mut spec = ScenarioSpec::from_json_text(text)
            .map_err(|e| format!("{}: invalid scenario: {e}", self.source))?;
        spec.engine.seed = seed;
        if self.name == "flow_tenants" {
            spec.engine.backend = CongestionBackend::FlowSimCached;
            spec.iterations = FLOW_TENANTS_ITERATIONS;
        }
        Ok(spec)
    }
}
