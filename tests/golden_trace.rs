//! Golden-trace regression suite: the engine runs a fixed serving scenario
//! at a fixed seed for each `CongestionBackend` tier, and the resulting
//! `RunSummary` + `ServingSummary` must match the snapshot checked in under
//! `tests/golden/<backend>.json` to 1e-9 relative tolerance.
//!
//! A drifting metric fails with a per-field diff naming every divergent
//! value. To regenerate the snapshots after an *intentional* behavior
//! change (the `--bless` path):
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test --test golden_trace
//! ```
//!
//! then commit the rewritten `tests/golden/*.json` and call out the metric
//! shift in the PR. CI runs this suite in both debug and `--release` to
//! catch float-path divergence between the two profiles.

use std::path::PathBuf;

use moentwine::prelude::*;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn small_model() -> ModelConfig {
    ModelConfig::tiny()
}

/// The pinned scenario: a 4×4 wafer serving a bursty mixed workload in
/// hybrid mode with the non-invasive balancer — every subsystem the serving
/// loop touches (admission, chunked prefill, clock, trigger, migration) is
/// on the trace.
fn run_scenario(backend: CongestionBackend) -> (RunSummary, ServingSummary) {
    let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
    let table = RouteTable::build(&topo);
    let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    let mut config = EngineConfig::new(small_model())
        .with_seed(4242)
        .with_backend(backend)
        .with_balancer(BalancerKind::NonInvasive)
        .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
        .with_batch(BatchMode::Scheduled {
            mode: SchedulingMode::Hybrid,
            max_batch_tokens: 2048,
            max_active: 128,
            request_rate: 8.0e3,
            iteration_period: 0.02,
        });
    config.kv_hbm_fraction = 1.0e-3;
    let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
    let run = engine.run(400);
    (run, engine.serving_summary())
}

/// Flattens the two summaries into an ordered `name → value` object.
fn snapshot(run: &RunSummary, serving: &ServingSummary) -> Vec<(String, f64)> {
    vec![
        ("run.iterations".into(), run.iterations as f64),
        ("run.mean_iteration_time".into(), run.mean_iteration_time),
        (
            "run.mean_attention_compute".into(),
            run.mean_attention_compute,
        ),
        ("run.mean_all_reduce".into(), run.mean_all_reduce),
        ("run.mean_all_to_all".into(), run.mean_all_to_all),
        ("run.mean_moe_compute".into(), run.mean_moe_compute),
        ("run.mean_migration_stall".into(), run.mean_migration_stall),
        ("run.mean_load_ratio".into(), run.mean_load_ratio),
        (
            "run.migrations_started".into(),
            run.migrations_started as f64,
        ),
        (
            "run.migrations_completed".into(),
            run.migrations_completed as f64,
        ),
        (
            "run.mean_tokens_per_group".into(),
            run.mean_tokens_per_group,
        ),
        (
            "run.tokens_per_second_per_device".into(),
            run.tokens_per_second_per_device,
        ),
        ("serving.completed".into(), serving.completed as f64),
        (
            "serving.admission_rejects".into(),
            serving.admission_rejects as f64,
        ),
        ("serving.sim_seconds".into(), serving.sim_seconds),
        ("serving.goodput_rps".into(), serving.goodput_rps),
        (
            "serving.goodput_tokens_per_s".into(),
            serving.goodput_tokens_per_s,
        ),
        ("serving.ttft_p50".into(), serving.ttft_p50),
        ("serving.ttft_p95".into(), serving.ttft_p95),
        ("serving.ttft_p99".into(), serving.ttft_p99),
        ("serving.tpot_p50".into(), serving.tpot_p50),
        ("serving.tpot_p95".into(), serving.tpot_p95),
        ("serving.tpot_p99".into(), serving.tpot_p99),
        ("serving.e2e_p50".into(), serving.e2e_p50),
        ("serving.e2e_p99".into(), serving.e2e_p99),
        ("serving.queueing_p50".into(), serving.queueing_p50),
        ("serving.queueing_p99".into(), serving.queueing_p99),
        ("serving.mean_queue_depth".into(), serving.mean_queue_depth),
        (
            "serving.max_queue_depth".into(),
            serving.max_queue_depth as f64,
        ),
        (
            "serving.mean_active_requests".into(),
            serving.mean_active_requests,
        ),
        (
            "serving.peak_kv_tokens".into(),
            serving.peak_kv_tokens as f64,
        ),
    ]
}

fn check_golden(backend: CongestionBackend) {
    let (run, serving) = run_scenario(backend);
    moentwine_bench::golden::check_or_bless(
        &golden_dir().join(format!("{}.json", backend.name())),
        &snapshot(&run, &serving),
        &format!("backend {}", backend.name()),
        "GOLDEN_BLESS=1 cargo test --test golden_trace",
    );
}

#[test]
fn golden_trace_analytic() {
    check_golden(CongestionBackend::Analytic);
}

#[test]
fn golden_trace_flow_sim() {
    check_golden(CongestionBackend::FlowSim);
}

#[test]
fn golden_trace_flow_sim_cached() {
    check_golden(CongestionBackend::FlowSimCached);
}

/// The declarative spec layer reproduces the hand-constructed golden
/// scenario **bit for bit**: `examples/scenarios/single_wafer_serving.json`
/// encodes exactly the pinned scenario above, and its spec-driven run is
/// checked against the same `tests/golden/analytic.json` snapshot — plus an
/// exact in-process equality against the hand-wired run (stronger than the
/// file's 1e-9 tolerance).
#[test]
fn golden_scenario_via_spec_file_matches_hand_construction() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/scenarios/single_wafer_serving.json");
    let text = std::fs::read_to_string(&path).expect("read example spec");
    let spec = moentwine::spec::ScenarioSpec::from_json_text(&text).expect("parse example spec");
    let outcome = spec.build().expect("build").run().expect("run");
    let (run, serving) = outcome.as_engine().expect("engine scenario");

    let (hand_run, hand_serving) = run_scenario(CongestionBackend::Analytic);
    assert_eq!(
        *run, hand_run,
        "spec-driven RunSummary must match hand-built"
    );
    assert_eq!(
        *serving, hand_serving,
        "spec-driven ServingSummary must match hand-built"
    );

    moentwine_bench::golden::check_or_bless(
        &golden_dir().join("analytic.json"),
        &snapshot(run, serving),
        "spec-driven analytic scenario",
        "GOLDEN_BLESS=1 cargo test --test golden_trace",
    );
}

/// The scenario itself is deterministic: two in-process runs at the same
/// seed produce identical snapshots bit for bit (stronger than the 1e-9
/// cross-toolchain tolerance used against the files).
#[test]
fn golden_scenario_is_deterministic_in_process() {
    let (r1, s1) = run_scenario(CongestionBackend::Analytic);
    let (r2, s2) = run_scenario(CongestionBackend::Analytic);
    assert_eq!(
        moentwine_bench::golden::fields_to_json(&snapshot(&r1, &s1)).pretty(),
        moentwine_bench::golden::fields_to_json(&snapshot(&r2, &s2)).pretty()
    );
}

/// The paper's headline configuration (Fig. 16): DeepSeek-V3 on an 8×8
/// wafer, ER-Mapping at tp=4, the NI-Balancer and a fixed 256-token decode
/// batch. Its gating work per iteration (58 layers × 16 groups × 256
/// experts) is far above the engine's overlap threshold, so this case pins
/// the path where gating is sampled on a producer thread concurrently with
/// the layer loop. Per-iteration times and migration counts are in the
/// snapshot, so a single shifted random draw shows up as a named field.
fn run_ds3_decode() -> Vec<(String, f64)> {
    let topo = Mesh::new(8, PlatformParams::dojo_like()).build();
    let table = RouteTable::build(&topo);
    let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    let mut config = EngineConfig::new(ModelConfig::deepseek_v3())
        .with_seed(29)
        .with_balancer(BalancerKind::NonInvasive)
        .with_workload(WorkloadMix::mixed(40.0));
    config.slots_per_device = 2;
    let mut engine = InferenceEngine::new(&topo, &table, &plan, config);
    let run = engine.run(4);
    let mut fields = vec![
        ("run.iterations".to_string(), run.iterations as f64),
        ("run.mean_iteration_time".into(), run.mean_iteration_time),
        ("run.mean_all_to_all".into(), run.mean_all_to_all),
        ("run.mean_moe_compute".into(), run.mean_moe_compute),
        ("run.mean_load_ratio".into(), run.mean_load_ratio),
        (
            "run.migrations_started".into(),
            run.migrations_started as f64,
        ),
        (
            "run.migrations_completed".into(),
            run.migrations_completed as f64,
        ),
    ];
    for m in &engine.history {
        let i = m.iteration;
        fields.push((format!("iter{i}.iteration_time"), m.iteration_time));
        fields.push((format!("iter{i}.dispatch"), m.dispatch));
        fields.push((format!("iter{i}.max_device_tokens"), m.max_device_tokens));
        fields.push((
            format!("iter{i}.migrations_started"),
            m.migrations_started as f64,
        ));
        fields.push((
            format!("iter{i}.migrations_completed"),
            m.migrations_completed as f64,
        ));
    }
    fields
}

#[test]
fn golden_trace_ds3_ni_decode() {
    moentwine_bench::golden::check_or_bless(
        &golden_dir().join("ds3_ni_decode.json"),
        &run_ds3_decode(),
        "DeepSeek-V3 8×8 er tp=4 non-invasive decode",
        "GOLDEN_BLESS=1 cargo test --test golden_trace",
    );
}
