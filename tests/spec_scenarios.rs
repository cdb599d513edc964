//! Integration tests for the declarative scenario layer: the checked-in
//! example files stay canonical and runnable, and spec-driven runs are
//! exactly the hand-constructed ones (engine equivalence is pinned
//! bit-for-bit against the golden snapshot in `tests/golden_trace.rs`; the
//! fleet equivalence lives here).

use std::path::PathBuf;

use moentwine::prelude::*;
use moentwine::spec::Scenario as SpecScenario;
use moentwine::workload::WorkloadError;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios")
}

fn example_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("examples/scenarios exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
}

/// Every checked-in example parses, carries the v1 schema, is in canonical
/// form (re-serializing reproduces the file byte for byte — regenerate
/// with `cargo run --example gen_scenarios` after codec changes), and
/// materializes a runnable scenario.
#[test]
fn example_specs_are_canonical_and_build() {
    let files = example_files();
    assert!(
        files.len() >= 4,
        "expected ≥ 4 example scenario files, found {files:?}"
    );
    let mut names = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("read example");
        let spec = ScenarioSpec::from_json_text(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            spec.to_json_text(),
            text,
            "{}: not in canonical form (run `cargo run --example gen_scenarios`)",
            path.display()
        );
        // Sweep specs build point-by-point (build() rejects a raw sweep).
        for (label, point) in spec
            .expand_sweep()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        {
            let scenario: SpecScenario = point
                .build()
                .unwrap_or_else(|e| panic!("{} [{label}]: {e}", path.display()));
            scenario.engine_config().expect("engine config");
        }
        names.push(spec.name.clone());
        assert_eq!(
            path.file_stem().and_then(|s| s.to_str()),
            Some(spec.name.as_str()),
            "file stem must match the scenario name"
        );
    }
    // The acceptance set: single-wafer serving, multi-wafer, DGX baseline,
    // a multi-replica fleet, the 10M-request streaming mega-fleet, the
    // failure-injection chaos fleet, the workload-realism pair (trace
    // replay + bursty multi-tenant SLO classes), the disaggregated
    // prefill/decode fleet, and the speculative-dispatch burst fleet.
    for required in [
        "single_wafer_serving",
        "multi_wafer",
        "dgx_baseline",
        "fleet_p2c",
        "mega_fleet",
        "chaos_fleet",
        "trace_replay",
        "bursty_tenants",
        "disagg_fleet",
        "speculative_fleet",
    ] {
        assert!(names.iter().any(|n| n == required), "missing {required}");
    }
}

/// A fleet scenario run through the spec layer equals the hand-constructed
/// fleet exactly (same seeds, same routing, same summaries).
#[test]
fn spec_driven_fleet_matches_hand_construction() {
    let engine_spec = EngineSpec::default()
        .with_seed(23)
        .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
        .with_batch(BatchSpec::Serving(ServingSpec::hybrid(2048, 128, 0.0)))
        .with_kv_hbm_fraction(1.0e-3);
    let spec = ScenarioSpec::new("fleet_equiv", PlatformSpec::wsc(4))
        .with_mapping(MappingSpec::er(4))
        .with_model(ModelSpec::preset("tiny"))
        .with_engine(engine_spec.clone())
        .with_fleet(FleetSpec::new(3, RouterPolicy::LeastQueueDepth, 6.0e3))
        .with_iterations(150);
    let outcome = spec.build().unwrap().run().unwrap();
    let from_spec = outcome.as_fleet().unwrap();

    // Hand-construction of the identical deployment.
    let topo = Mesh::new(4, PlatformParams::dojo_like()).build();
    let table = RouteTable::build(&topo);
    let plan = ErMapping::with_tp_degree(topo.mesh_dims().unwrap(), 4)
        .unwrap()
        .plan();
    let template = engine_spec.engine_config(ModelConfig::tiny()).unwrap();
    let config = FleetConfig::new(3, RouterPolicy::LeastQueueDepth, 6.0e3, template);
    let mut fleet = Fleet::new(&topo, &table, &plan, config);
    fleet.run(150);
    let by_hand = fleet.summary();

    assert_eq!(*from_spec, by_hand);
}

/// The example fleet spec runs deterministically: two builds of the same
/// file produce identical summaries.
#[test]
fn example_fleet_spec_is_deterministic() {
    let text = std::fs::read_to_string(scenarios_dir().join("fleet_p2c.json")).unwrap();
    let spec = ScenarioSpec::from_json_text(&text).unwrap();
    // Cap for test runtime; determinism is what's under test.
    let spec = spec.with_iterations(80);
    let a = spec.build().unwrap().run().unwrap();
    let b = spec.build().unwrap().run().unwrap();
    assert_eq!(a, b);
}

/// Spec-level misconfigurations surface as typed `ConfigError`s through
/// the whole stack (file text → spec → build).
#[test]
fn malformed_scenarios_fail_with_typed_errors() {
    assert!(matches!(
        ScenarioSpec::from_json_text("{"),
        Err(ConfigError::Json(_))
    ));
    // Hostile nesting is a parse error, not a stack overflow.
    assert!(matches!(
        ScenarioSpec::from_json_text(&"[".repeat(200_000)),
        Err(ConfigError::Json(_))
    ));
    assert!(matches!(
        ScenarioSpec::from_json_text(r#"{"schema": "moentwine/other/v1"}"#),
        Err(ConfigError::SchemaMismatch { .. })
    ));
    // An engine knob violation is caught at build() with the exact variant.
    let mut spec = ScenarioSpec::new("bad", PlatformSpec::wsc(4));
    spec.engine.load_ema = 0.0;
    assert_eq!(
        spec.build().unwrap_err(),
        ConfigError::LoadEmaOutOfRange { value: 0.0 }
    );
    // And an impossible mapping is a typed mapping error.
    let spec = ScenarioSpec::new("bad-tp", PlatformSpec::wsc(4)).with_mapping(MappingSpec::er(5));
    assert!(matches!(spec.build(), Err(ConfigError::Mapping(_))));
    // A replica count past the ceiling is rejected at parse time, before
    // any per-replica table is sized from it (2^32 used to abort on a
    // 32 GiB allocation), and so is a scale-up that crosses it.
    let text = std::fs::read_to_string(scenarios_dir().join("chaos_fleet.json")).unwrap();
    let huge = text.replace("\"replicas\": 64,", "\"replicas\": 4294967296,");
    assert_ne!(huge, text);
    assert_eq!(
        ScenarioSpec::from_json_text(&huge).unwrap_err(),
        ConfigError::TooManyReplicas {
            replicas: 4_294_967_298,
            max: moentwine::core::fleet::MAX_REPLICAS,
        }
    );
    let surge = text.replace("\"count\": 2", "\"count\": 65500");
    assert_ne!(surge, text);
    assert!(matches!(
        ScenarioSpec::from_json_text(&surge),
        Err(ConfigError::TooManyReplicas {
            replicas: 65_564,
            ..
        })
    ));
    // A sweep axis that rewrites `replicas` is re-checked at build.
    let mut spec = ScenarioSpec::from_json_text(&text).unwrap();
    spec.fleet.as_mut().unwrap().replicas = usize::MAX;
    assert!(matches!(
        spec.build(),
        Err(ConfigError::TooManyReplicas { .. })
    ));
    // Zero serving budgets are typed errors at build, for a single engine
    // and for a fleet's replica template (they used to panic in the
    // serving queue's constructor).
    for file in ["single_wafer_serving.json", "fleet_p2c.json"] {
        let text = std::fs::read_to_string(scenarios_dir().join(file)).unwrap();
        for (key, expected) in [
            ("max_batch_tokens", ConfigError::MaxBatchTokensZero),
            ("max_active", ConfigError::MaxActiveZero),
        ] {
            let needle = format!("\"{key}\": ");
            let at = text.find(&needle).expect("budget key") + needle.len();
            let end = at + text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
            let zeroed = format!("{}0{}", &text[..at], &text[end..]);
            let spec = ScenarioSpec::from_json_text(&zeroed).unwrap();
            assert_eq!(spec.build().unwrap_err(), expected, "{file}: {key}");
        }
    }
}

/// A subnormal `request_rate` passes the finite-positive check, but its
/// mean inter-arrival time `1/rate` is infinite: the arrival sampler used
/// to spin forever. Both the single-engine serving path and the fleet path
/// must report it as a typed error. The run happens on a worker thread so a
/// regression fails here instead of hanging the suite.
#[test]
fn subnormal_request_rate_is_a_typed_error_not_a_hang() {
    for file in ["multi_wafer.json", "fleet_p2c.json"] {
        let text = std::fs::read_to_string(scenarios_dir().join(file)).expect("read example");
        let needle = "\"request_rate\": 6000,";
        assert!(text.contains(needle), "{file}: no {needle}");
        let text = text.replace(needle, "\"request_rate\": 1e-320,");
        let spec = ScenarioSpec::from_json_text(&text).expect("subnormal rate parses");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(spec.build().and_then(|s| s.run()).map(|_| ()));
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{file}: subnormal request_rate hung"));
        assert!(
            matches!(
                result,
                Err(ConfigError::Workload(WorkloadError::UnderflowingRate { value }))
                    if value == 1e-320
            ),
            "{file}: {result:?}"
        );
    }
}

/// A subnormal diurnal `period` passes the positive-and-finite check, but
/// `t / period` overflows and the instantaneous rate turns NaN, so the
/// thinning sampler rejects every candidate. It must be a typed error. The
/// run happens on a worker thread so a regression fails here instead of
/// hanging the suite.
#[test]
fn subnormal_diurnal_period_is_a_typed_error_not_a_hang() {
    let text = std::fs::read_to_string(scenarios_dir().join("bursty_tenants.json")).unwrap();
    let start = text.find("\"arrivals\": {").expect("arrivals object");
    let end = start + text[start..].find('}').expect("arrivals end") + 1;
    let text = format!(
        "{}\"arrivals\": {{\"kind\": \"diurnal\", \"amplitude\": 0.3, \"period\": 1e-320}}{}",
        &text[..start],
        &text[end..]
    );
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let result = ScenarioSpec::from_json_text(&text)
            .and_then(|spec| spec.with_iterations(20).build())
            .and_then(|s| s.run())
            .map(|_| ());
        let _ = tx.send(result);
    });
    let result = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("subnormal diurnal period hung");
    assert!(
        matches!(
            result,
            Err(ConfigError::Workload(WorkloadError::UnderflowingPeriod { value }))
                if value == 1e-320
        ),
        "{result:?}"
    );
}

/// A serving `iteration_period` that is not positive, finite and
/// reciprocal-finite is a typed error at build, not a panic in the
/// scheduler constructor.
#[test]
fn bad_iteration_period_is_a_typed_error_not_a_panic() {
    let text = std::fs::read_to_string(scenarios_dir().join("bursty_tenants.json")).unwrap();
    let needle = "\"iteration_period\": 0.02,";
    assert!(text.contains(needle));
    for bad in ["0", "-0.02", "1e-320"] {
        let edited = text.replace(needle, &format!("\"iteration_period\": {bad},"));
        let result = ScenarioSpec::from_json_text(&edited).and_then(|spec| spec.build());
        assert!(
            matches!(
                result,
                Err(ConfigError::IterationPeriodOutOfRange { value })
                    if value == bad.parse::<f64>().unwrap()
            ),
            "{bad}: {:?}",
            result.err()
        );
    }
}
