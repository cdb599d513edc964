//! Executes declarative scenario files (`moentwine-spec`) and emits
//! schema-validated run manifests.
//!
//! This is the engine behind the `scenario` bench bin: it loads a
//! `moentwine/scenario/v1` spec document, expands its sweep axes into grid
//! points, runs every point on a `threads`-wide
//! [`WorkerPool`](crate::perf::pool::WorkerPool) (points are independent
//! seeded runs, so results merge in grid order and the manifest is
//! byte-identical for every thread count), and flattens each outcome into
//! a `moentwine/scenario_run/v1` manifest written next to the other figure
//! manifests under `target/figs/scenario/`.

use std::path::{Path, PathBuf};

use moentwine_core::engine::ServingSummary;
use moentwine_spec::{ConfigError, ScenarioOutcome, ScenarioSpec};

use crate::json::Value;
use crate::report::fmt_time;
use crate::summary_json::{
    self, FleetField, HandoffField, RunField, ServingField, SpeculativeField,
};
use crate::Report;

/// Schema identifier embedded in (and required of) every run manifest.
pub const RUN_SCHEMA: &str = "moentwine/scenario_run/v1";

/// Directory the manifests are written to.
pub const MANIFEST_DIR: &str = "target/figs/scenario";

/// Iteration (or fleet-round) cap applied by `--quick` smoke runs. Sized
/// so short-output scenarios (privacy: median 128 decode steps after
/// prefill) still complete requests and the smoke manifests carry real
/// percentiles.
pub const QUICK_ITERATIONS: usize = 250;

/// The serving section of every point, in emission order.
const SERVING_FIELDS: [ServingField; 14] = [
    ServingField::Completed,
    ServingField::AdmissionRejects,
    ServingField::SimSeconds,
    ServingField::GoodputRps,
    ServingField::GoodputTokensPerS,
    ServingField::TtftP50,
    ServingField::TtftP95,
    ServingField::TtftP99,
    ServingField::TpotP50,
    ServingField::TpotP95,
    ServingField::TpotP99,
    ServingField::E2eP50,
    ServingField::E2eP99,
    ServingField::MeanQueueDepth,
];

/// The `fleet` section.
const FLEET_FIELDS: [FleetField; 5] = [
    FleetField::Replicas,
    FleetField::Rounds,
    FleetField::RoutingImbalance,
    FleetField::CompletionImbalance,
    FleetField::Routed,
];

fn serving_json(s: &ServingSummary) -> Value {
    let mut fields = summary_json::fields(s, &SERVING_FIELDS);
    // Per-class SLO sections ride only on workload-profiled runs, so
    // workload-free scenario manifests stay byte-identical to earlier
    // schemas (same gating as the fleet availability section).
    if !s.classes.is_empty() {
        fields.extend(summary_json::fields(
            s,
            &[ServingField::Shed, ServingField::Classes],
        ));
    }
    Value::Obj(fields)
}

/// Flattens one scenario point's outcome into manifest fields.
fn outcome_json(label: &str, spec: &ScenarioSpec, outcome: &ScenarioOutcome) -> Value {
    let kind = match outcome {
        ScenarioOutcome::Engine { .. } => "engine",
        ScenarioOutcome::Fleet(_) => "fleet",
    };
    let mut fields: Vec<(String, Value)> = vec![
        ("label".into(), Value::Str(label.into())),
        ("kind".into(), Value::Str(kind.into())),
        ("iterations".into(), Value::Num(spec.iterations as f64)),
    ];
    match outcome {
        ScenarioOutcome::Engine { run, serving } => {
            fields.push(("run".into(), summary_json::object(run, RunField::ALL)));
            fields.push(("serving".into(), serving_json(serving)));
        }
        ScenarioOutcome::Fleet(summary) => {
            fields.push((
                "fleet".into(),
                summary_json::object(&**summary, &FLEET_FIELDS),
            ));
            fields.push(("serving".into(), serving_json(&summary.aggregate)));
            // Only fleets with a timeline carry the section, so event-free
            // scenario manifests stay byte-identical to earlier schemas.
            if summary.availability.events_applied > 0 {
                fields.push((
                    "availability".into(),
                    summary_json::availability_json(&summary.availability),
                ));
            }
            // Same gating for the hand-off section: only disaggregated
            // fleets that actually priced a KV transfer carry it, so every
            // colocated manifest stays byte-identical to earlier schemas.
            if summary.handoff.kv_transfers > 0 {
                fields.push((
                    "handoff".into(),
                    summary_json::object(&summary.handoff, HandoffField::ALL),
                ));
            }
            // Same gating for the speculative section: only fleets that
            // actually dispatched a first-token race carry it, so every
            // unicast manifest stays byte-identical to earlier schemas.
            if summary.speculative.groups_dispatched > 0 {
                fields.push((
                    "speculative".into(),
                    summary_json::object(&summary.speculative, SpeculativeField::ALL),
                ));
            }
        }
    }
    Value::Obj(fields)
}

/// Runs every grid point of `spec` (sweep-expanded) on `threads` workers
/// and builds the run manifest. With `quick`, iteration counts are capped
/// at [`QUICK_ITERATIONS`] per point.
///
/// # Errors
///
/// Returns the first [`ConfigError`] found while building or running any
/// point.
pub fn run_manifest(
    spec: &ScenarioSpec,
    quick: bool,
    threads: usize,
) -> Result<Value, ConfigError> {
    let mut points = spec.expand_sweep()?;
    if quick {
        for (_, point) in &mut points {
            point.iterations = point.iterations.min(QUICK_ITERATIONS);
        }
    }
    let pool = crate::perf::pool::WorkerPool::new(threads);
    let jobs: Vec<_> = points
        .iter()
        .map(|(label, point)| {
            move || -> Result<Value, ConfigError> {
                let outcome = point.build()?.run()?;
                Ok(outcome_json(label, point, &outcome))
            }
        })
        .collect();
    let results = pool.run(jobs);
    let mut point_values = Vec::with_capacity(results.len());
    for result in results {
        point_values.push(result?);
    }
    Ok(Value::Obj(vec![
        ("schema".into(), Value::Str(RUN_SCHEMA.into())),
        ("name".into(), Value::Str(spec.name.clone())),
        ("quick".into(), Value::Bool(quick)),
        ("spec".into(), spec.to_json()),
        ("points".into(), Value::Arr(point_values)),
    ]))
}

/// Validates a run manifest against the `moentwine/scenario_run/v1`
/// schema: schema tag, an embedded spec that itself round-trips, a
/// non-empty point list, and per-point outcome sections with monotone
/// percentile ladders.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate(manifest: &Value) -> Result<(), String> {
    use crate::figs::validate as v;
    v::require_schema(manifest, RUN_SCHEMA)?;
    manifest
        .get("name")
        .and_then(Value::as_str)
        .ok_or("missing name")?;
    let spec = manifest.get("spec").ok_or("missing embedded spec")?;
    ScenarioSpec::from_json(spec).map_err(|e| format!("embedded spec: {e}"))?;
    for (i, point) in v::require_points(manifest)?.iter().enumerate() {
        point
            .get("label")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("point {i}: missing label"))?;
        let kind = point
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("point {i}: missing kind"))?;
        let section = match kind {
            "engine" => "run",
            "fleet" => "fleet",
            other => return Err(format!("point {i}: unknown kind {other:?}")),
        };
        point
            .get(section)
            .ok_or_else(|| format!("point {i}: missing {section:?} section"))?;
        let serving = point
            .get("serving")
            .ok_or_else(|| format!("point {i}: missing serving section"))?;
        // The availability section is only emitted for fleets whose
        // timeline actually fired; an all-zero section would mean the
        // byte-stability contract for event-free specs was broken.
        if let Some(avail) = point.get("availability") {
            let applied = avail
                .get("events_applied")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            if applied < 1.0 {
                return Err(format!(
                    "point {i}: availability section present but no events applied"
                ));
            }
        }
        // The hand-off section is only emitted when a KV transfer was
        // actually priced; an all-zero section would mean the
        // byte-stability contract for colocated fleets was broken.
        if let Some(handoff) = point.get("handoff") {
            let transfers = handoff
                .get("kv_transfers")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            if transfers < 1.0 {
                return Err(format!(
                    "point {i}: handoff section present but no KV transfers priced"
                ));
            }
            for key in ["kv_transfer_bytes", "kv_transfer_seconds"] {
                let value = handoff
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("point {i}: handoff missing {key}"))?;
                if value <= 0.0 {
                    return Err(format!("point {i}: handoff {key} must be positive"));
                }
            }
        }
        // The speculative section is only emitted when at least one
        // first-token race was dispatched; an all-zero section would mean
        // the byte-stability contract for unicast fleets was broken.
        if let Some(speculative) = point.get("speculative") {
            let groups = speculative
                .get("groups_dispatched")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            if groups < 1.0 {
                return Err(format!(
                    "point {i}: speculative section present but no races dispatched"
                ));
            }
            for key in ["cancelled_copies", "open_groups"] {
                speculative
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("point {i}: speculative missing {key}"))?;
            }
        }
        // The serving section shares the sweep manifests' point skeleton,
        // so the same helper gates the ladders and throughput fields.
        v::check_point_common(
            serving,
            i,
            &[
                "completed",
                "admission_rejects",
                "sim_seconds",
                "mean_queue_depth",
            ],
        )?;
        // Per-class sections (workload-profiled runs only): attainments are
        // fractions and every class names its SLO targets.
        if let Some(classes) = serving.get("classes") {
            let classes = classes
                .as_array()
                .ok_or_else(|| format!("point {i}: classes must be an array"))?;
            if classes.is_empty() {
                return Err(format!(
                    "point {i}: classes section present but empty (workload-free \
                     runs must omit it)"
                ));
            }
            for class in classes {
                let name = class
                    .get("class")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("point {i}: class entry missing name"))?;
                for key in ["ttft_attainment", "tpot_attainment"] {
                    let a = class
                        .get(key)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("point {i}: class {name}: missing {key}"))?;
                    if !(0.0..=1.0).contains(&a) {
                        return Err(format!("point {i}: class {name}: {key} {a} outside [0, 1]"));
                    }
                }
                for key in ["ttft_slo", "tpot_slo"] {
                    let slo = class
                        .get(key)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("point {i}: class {name}: missing {key}"))?;
                    if slo <= 0.0 {
                        return Err(format!(
                            "point {i}: class {name}: {key} {slo} must be positive"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// The manifest path for a scenario named `name`.
pub fn manifest_path(name: &str) -> PathBuf {
    // File stems stay shell-friendly: non-alphanumeric runs collapse to _.
    let stem: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    Path::new(MANIFEST_DIR).join(format!("{stem}.json"))
}

/// Loads a spec file, runs it, validates the manifest, writes it under
/// [`MANIFEST_DIR`], and returns a human-readable report plus the path.
///
/// # Errors
///
/// Returns a message on I/O failures, spec errors, and schema violations.
pub fn run_file(path: &Path, quick: bool, threads: usize) -> Result<(Report, PathBuf), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    let spec =
        ScenarioSpec::from_json_text(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let manifest =
        run_manifest(&spec, quick, threads).map_err(|e| format!("{}: {e}", path.display()))?;
    validate(&manifest).map_err(|e| format!("{}: manifest invalid: {e}", path.display()))?;

    let mut report = Report::new(
        format!("scenario_{}", spec.name),
        format!("Scenario {} ({})", spec.name, path.display()),
    )
    .columns([
        "Point",
        "Kind",
        "Iterations",
        "TTFT p50",
        "TTFT p99",
        "Goodput (req/s)",
        "Completed",
        "Rejects",
    ]);
    if let Some(points) = manifest.get("points").and_then(Value::as_array) {
        for point in points {
            let s = |k: &str| {
                point
                    .get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            let serving = point.get("serving");
            let num = |k: &str| {
                serving
                    .and_then(|v| v.get(k))
                    .and_then(Value::as_f64)
                    .unwrap_or_default()
            };
            report.row([
                s("label"),
                s("kind"),
                format!(
                    "{}",
                    point
                        .get("iterations")
                        .and_then(Value::as_f64)
                        .unwrap_or_default()
                ),
                fmt_time(num("ttft_p50")),
                fmt_time(num("ttft_p99")),
                format!("{:.1}", num("goodput_rps")),
                format!("{}", num("completed")),
                format!("{}", num("admission_rejects")),
            ]);
        }
    }

    let out = manifest_path(&spec.name);
    std::fs::create_dir_all(MANIFEST_DIR)
        .and_then(|()| std::fs::write(&out, manifest.pretty()))
        .map_err(|e| format!("{}: cannot write manifest: {e}", out.display()))?;
    report.note(format!(
        "schema-valid manifest: {} (byte-identical across runs and --threads)",
        out.display()
    ));
    Ok((report, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figs::validate::tests::{first_point, keys, CLASS_KEYS};
    use moe_workload::RouterPolicy;
    use moentwine_spec::{BatchSpec, EngineSpec, FleetSpec, PlatformSpec, ServingSpec, SweepSpec};

    fn tiny_serving_spec() -> ScenarioSpec {
        ScenarioSpec::new("unit_serving", PlatformSpec::wsc(4))
            .with_engine(
                EngineSpec::default()
                    .with_seed(17)
                    .with_batch(BatchSpec::Serving(ServingSpec::hybrid(2048, 128, 6.0e3)))
                    .with_kv_hbm_fraction(1.0e-3),
            )
            .with_iterations(400)
    }

    #[test]
    fn manifest_validates_and_is_deterministic_across_threads() {
        let spec =
            tiny_serving_spec().with_sweep(SweepSpec::default().with_rates(vec![4.0e3, 12.0e3]));
        let serial = run_manifest(&spec, true, 1).unwrap();
        validate(&serial).expect("schema");
        let parallel = run_manifest(&spec, true, 3).unwrap();
        assert_eq!(serial.pretty(), parallel.pretty());
        // Two points from the rate sweep.
        assert_eq!(
            serial
                .get("points")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            2
        );
        assert_eq!(keys(&serial), ["schema", "name", "quick", "spec", "points"]);
        let point = first_point(&serial);
        assert_point_keys(point, &["run", "serving"]);
        assert_eq!(
            keys(point.get("run").unwrap()),
            [
                "mean_iteration_time",
                "mean_all_reduce",
                "mean_all_to_all",
                "mean_moe_compute",
                "mean_load_ratio",
                "mean_tokens_per_group",
                "tokens_per_second_per_device",
            ]
        );
        assert_eq!(keys(point.get("serving").unwrap()), SERVING_KEYS);
    }

    #[test]
    fn fleet_points_flatten_with_fleet_section() {
        let spec = tiny_serving_spec()
            .with_fleet(FleetSpec::new(2, RouterPolicy::LeastQueueDepth, 6.0e3))
            .with_iterations(150);
        let manifest = run_manifest(&spec, true, 1).unwrap();
        validate(&manifest).expect("schema");
        let points = manifest.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(points[0].get("kind").and_then(Value::as_str), Some("fleet"));
        assert!(points[0].get("fleet").is_some());
        // Event-free fleets carry no availability section (byte-stability
        // of pre-timeline manifests).
        assert!(points[0].get("availability").is_none());
        assert_point_keys(&points[0], &["fleet", "serving"]);
        assert_eq!(
            keys(points[0].get("fleet").unwrap()),
            [
                "replicas",
                "rounds",
                "routing_imbalance",
                "completion_imbalance",
                "routed",
            ]
        );
        assert_eq!(keys(points[0].get("serving").unwrap()), SERVING_KEYS);
    }

    #[test]
    fn chaos_fleet_points_carry_the_availability_section() {
        use moentwine_core::fleet::{FleetEvent, FleetEventKind};
        let spec = tiny_serving_spec()
            .with_fleet(
                FleetSpec::new(2, RouterPolicy::LeastQueueDepth, 2.0e5).with_events(vec![
                    FleetEvent {
                        time: 3.0e-4,
                        kind: FleetEventKind::Crash { replica: 1 },
                    },
                    FleetEvent {
                        time: 6.0e-4,
                        kind: FleetEventKind::Recover { replica: 1 },
                    },
                ]),
            )
            .with_iterations(400);
        let manifest = run_manifest(&spec, true, 1).unwrap();
        validate(&manifest).expect("schema");
        let points = manifest.get("points").and_then(Value::as_array).unwrap();
        let avail = points[0]
            .get("availability")
            .expect("chaos fleet point has availability");
        assert_eq!(
            avail.get("events_applied").and_then(Value::as_f64),
            Some(2.0)
        );
        assert_point_keys(&points[0], &["fleet", "serving", "availability"]);
        assert_eq!(
            keys(avail),
            [
                "events_applied",
                "crash_interruptions",
                "drain_rerouted",
                "crash_rerouted",
                "requeued_tokens",
                "replayed_prefill_tokens",
                "available_fraction",
                "replica_states",
                "goodput_windows",
            ]
        );
        let windows = avail
            .get("goodput_windows")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(
            keys(&windows[0]),
            ["after", "start", "end", "completed", "goodput_rps"]
        );
    }

    #[test]
    fn disaggregated_fleet_points_carry_the_gated_handoff_section() {
        use moentwine_core::fleet::ReplicaRole;
        use moentwine_spec::MappingSpec;
        // Colocated fleets must omit the hand-off section entirely.
        let colocated = tiny_serving_spec()
            .with_fleet(FleetSpec::new(2, RouterPolicy::LeastQueueDepth, 6.0e3))
            .with_iterations(150);
        let manifest = run_manifest(&colocated, true, 1).unwrap();
        let points = manifest.get("points").and_then(Value::as_array).unwrap();
        assert!(points[0].get("handoff").is_none());

        // A 2 prefill + 2 decode fleet on a heterogeneous decode platform
        // prices its hand-offs and reports them, identically across
        // threads.
        let spec = tiny_serving_spec()
            .with_fleet(
                FleetSpec::new(4, RouterPolicy::LeastQueueDepth, 2.0e4)
                    .with_roles(vec![
                        ReplicaRole::Prefill,
                        ReplicaRole::Prefill,
                        ReplicaRole::Decode,
                        ReplicaRole::Decode,
                    ])
                    .with_decode_platform(PlatformSpec::dgx(1), MappingSpec::cluster(8)),
            )
            .with_iterations(250);
        let manifest = run_manifest(&spec, true, 1).unwrap();
        validate(&manifest).expect("schema");
        let points = manifest.get("points").and_then(Value::as_array).unwrap();
        let handoff = points[0]
            .get("handoff")
            .expect("disaggregated fleet point has handoff");
        assert!(handoff.get("kv_transfers").and_then(Value::as_f64).unwrap() >= 1.0);
        assert!(
            handoff
                .get("kv_transfer_seconds")
                .and_then(Value::as_f64)
                .unwrap()
                > 0.0
        );
        assert_point_keys(&points[0], &["fleet", "serving", "handoff"]);
        assert_eq!(
            keys(handoff),
            [
                "kv_transfers",
                "kv_transfer_bytes",
                "kv_transfer_seconds",
                "max_transfer_seconds",
                "pending_transfers",
                "handoffs_completed",
                "mean_handoff_latency",
                "max_handoff_latency",
                "mean_e2e_ttft",
                "max_e2e_ttft",
            ]
        );
        let parallel = run_manifest(&spec, true, 3).unwrap();
        assert_eq!(manifest.pretty(), parallel.pretty());
    }

    #[test]
    fn workload_points_carry_gated_class_sections() {
        use moe_workload::ClassSpec;
        use moentwine_spec::{ArrivalSourceSpec, WorkloadSpec};
        // Workload-free runs must omit the section entirely.
        let plain = run_manifest(&tiny_serving_spec(), true, 1).unwrap();
        let points = plain.get("points").and_then(Value::as_array).unwrap();
        assert!(points[0].get("serving").unwrap().get("classes").is_none());
        assert!(points[0].get("serving").unwrap().get("shed").is_none());

        // A bursty two-tenant workload reports both classes, in priority
        // order, with attainment fractions — identically across threads.
        let workload = WorkloadSpec::new(ArrivalSourceSpec::Burst {
            period: 0.002,
            burst_duration: 0.001,
            quiet_factor: 0.5,
            burst_factor: 4.0,
        })
        .with_classes(vec![
            ClassSpec::interactive()
                .with_weight(3.0)
                .with_shed_after(0.05),
            ClassSpec::batch(),
        ]);
        let spec = ScenarioSpec::new("unit_workload", PlatformSpec::wsc(4))
            .with_engine(
                EngineSpec::default()
                    .with_seed(17)
                    .with_batch(BatchSpec::Serving(
                        ServingSpec::hybrid(2048, 128, 6.0e3).with_workload(workload),
                    ))
                    .with_kv_hbm_fraction(1.0e-3),
            )
            .with_iterations(600);
        let manifest = run_manifest(&spec, false, 1).unwrap();
        validate(&manifest).expect("schema");
        let points = manifest.get("points").and_then(Value::as_array).unwrap();
        let classes = points[0]
            .get("serving")
            .unwrap()
            .get("classes")
            .and_then(Value::as_array)
            .expect("workload point has classes");
        assert_eq!(classes.len(), 2);
        assert_eq!(
            classes[0].get("class").and_then(Value::as_str),
            Some("interactive")
        );
        assert_eq!(
            classes[1].get("class").and_then(Value::as_str),
            Some("batch")
        );
        let serving: Vec<&str> = SERVING_KEYS
            .into_iter()
            .chain(["shed", "classes"])
            .collect();
        assert_eq!(keys(points[0].get("serving").unwrap()), serving);
        assert_eq!(keys(&classes[0]), CLASS_KEYS);
        let parallel = run_manifest(&spec, false, 3).unwrap();
        assert_eq!(manifest.pretty(), parallel.pretty());
    }

    #[test]
    fn validate_rejects_broken_manifests() {
        assert!(validate(&Value::Obj(vec![])).is_err());
        let manifest = run_manifest(&tiny_serving_spec(), true, 1).unwrap();
        let mut broken = manifest.clone();
        if let Value::Obj(members) = &mut broken {
            for (k, v) in members.iter_mut() {
                if k == "points" {
                    *v = Value::Arr(vec![]);
                }
            }
        }
        assert!(validate(&broken).unwrap_err().contains("empty points"));
    }

    #[test]
    fn quick_caps_iterations() {
        let manifest = run_manifest(&tiny_serving_spec(), true, 1).unwrap();
        let points = manifest.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(
            points[0].get("iterations").and_then(Value::as_f64),
            Some(QUICK_ITERATIONS as f64)
        );
    }

    #[test]
    fn speculative_fleet_points_carry_the_gated_section() {
        let spec = tiny_serving_spec()
            .with_fleet(FleetSpec::new(2, RouterPolicy::Speculative { k: 2 }, 2.0e4))
            .with_iterations(250);
        let manifest = run_manifest(&spec, true, 1).unwrap();
        validate(&manifest).expect("schema");
        let point = first_point(&manifest);
        assert_point_keys(point, &["fleet", "serving", "speculative"]);
        let speculative = point.get("speculative").unwrap();
        assert_eq!(
            keys(speculative),
            ["groups_dispatched", "cancelled_copies", "open_groups"]
        );
        assert!(
            speculative
                .get("groups_dispatched")
                .and_then(Value::as_f64)
                .unwrap()
                >= 1.0
        );
    }

    /// The serving section every point carries, in emission order.
    const SERVING_KEYS: [&str; 14] = [
        "completed",
        "admission_rejects",
        "sim_seconds",
        "goodput_rps",
        "goodput_tokens_per_s",
        "ttft_p50",
        "ttft_p95",
        "ttft_p99",
        "tpot_p50",
        "tpot_p95",
        "tpot_p99",
        "e2e_p50",
        "e2e_p99",
        "mean_queue_depth",
    ];

    /// Asserts a point's key order: the point header, then `sections`.
    fn assert_point_keys(point: &Value, sections: &[&str]) {
        let expected: Vec<&str> = ["label", "kind", "iterations"]
            .into_iter()
            .chain(sections.iter().copied())
            .collect();
        assert_eq!(keys(point), expected);
    }
}
