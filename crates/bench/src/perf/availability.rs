//! SLO-under-failure figure: TTFT/goodput degradation and recovery
//! through a crash/drain/scale-up/recover timeline, tracked across PRs as
//! `target/figs/fleet_availability.json` (schema
//! `moentwine/fleet_availability/v1`).
//!
//! The fleet runs a fixed chaos timeline (crash one replica mid-traffic,
//! gracefully drain another, scale up by one, then recover the crashed
//! replica) and checkpoints the cumulative fleet summary every few rounds.
//! The resulting curve shows goodput dipping when capacity is lost and
//! recovering as re-queued requests are re-prefilled elsewhere, alongside
//! the time-weighted available-replica fraction.
//!
//! Everything in the manifest is simulated (no wall-clock fields), so the
//! bytes are deterministic per seed. The same timeline is driven once per
//! round-driven scheduler (`lockstep` and `event-heap`); the manifest's
//! `schedulers_agree` flag records that both produced identical
//! checkpoints and availability accounting, and the `fleet_availability`
//! binary gates CI on it.

use std::fs;
use std::io;
use std::path::Path;

use moe_workload::{RouterPolicy, Scenario, SchedulingMode, WorkloadMix};
use moentwine_core::engine::{EngineConfig, SummaryMode};
use moentwine_core::fleet::{
    Fleet, FleetEvent, FleetEventKind, FleetScheduler, FleetSummary, ReplicaState,
};
use moentwine_spec::{BatchSpec, EngineSpec, FleetSpec, ModelSpec, ServingSpec};

use crate::json::Value;
use crate::platforms::{wsc_plan, Platform, WscMapping};
use crate::summary_json::{self, availability_json, AvailabilityField, FleetField, ServingField};

/// Schema identifier embedded in (and required of) the manifest.
pub const SCHEMA: &str = "moentwine/fleet_availability/v1";

/// Manifest output path, relative to the working directory.
pub const MANIFEST_PATH: &str = "target/figs/fleet_availability.json";

/// Master seed (replica streams are split from it by the fleet).
const SEED: u64 = 977;

/// Initial fleet width.
const REPLICAS: usize = 8;

/// Global arrival rate, requests/second across the fleet.
const RATE: f64 = 4.0e5;

/// Checkpoints sampled over the run (points in the figure).
const CHECKPOINTS: u64 = 8;

/// The chaos timeline: crash under load, graceful drain, elastic scale-up,
/// then recovery of the crashed replica. Times sit in the first ~0.7 ms of
/// simulated time so the whole arc fires well inside a `--quick` run
/// (fleet rounds advance the clock by a few microseconds each).
fn chaos_timeline() -> Vec<FleetEvent> {
    vec![
        FleetEvent {
            time: 2.0e-4,
            kind: FleetEventKind::Crash { replica: 1 },
        },
        FleetEvent {
            time: 3.5e-4,
            kind: FleetEventKind::Drain { replica: 2 },
        },
        FleetEvent {
            time: 5.0e-4,
            kind: FleetEventKind::ScaleUp { count: 1 },
        },
        FleetEvent {
            time: 6.5e-4,
            kind: FleetEventKind::Recover { replica: 1 },
        },
    ]
}

/// One cumulative checkpoint of the degradation/recovery curve.
#[derive(Clone, PartialEq, Debug)]
pub struct AvailabilityPoint {
    /// Synchronization rounds executed so far.
    pub round: u64,
    /// Replicas currently in the `Active` (admitting) state.
    pub active_replicas: u64,
    /// The cumulative fleet summary at the checkpoint.
    pub summary: FleetSummary,
}

/// The summary fields each checkpoint emits, between `round` and
/// `active_replicas`.
const CHECKPOINT_FIELDS: [FleetField; 10] = [
    FleetField::SimSeconds,
    FleetField::Aggregate(ServingField::Completed),
    FleetField::Aggregate(ServingField::GoodputRps),
    FleetField::Aggregate(ServingField::TtftP50),
    FleetField::Aggregate(ServingField::TtftP95),
    FleetField::Aggregate(ServingField::TtftP99),
    FleetField::Availability(AvailabilityField::AvailableFraction),
    FleetField::Availability(AvailabilityField::EventsApplied),
    FleetField::Availability(AvailabilityField::CrashInterruptions),
    FleetField::Availability(AvailabilityField::RequeuedTokens),
];

impl AvailabilityPoint {
    /// The checkpoint's manifest entry.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![("round".into(), Value::Num(self.round as f64))];
        fields.extend(summary_json::fields(&self.summary, &CHECKPOINT_FIELDS));
        fields.push((
            "active_replicas".into(),
            Value::Num(self.active_replicas as f64),
        ));
        Value::Obj(fields)
    }
}

/// The measured figure: checkpointed curve plus final availability report.
#[derive(Clone, Debug)]
pub struct AvailabilityFig {
    /// Initial replica count (the crash/drain/scale-up timeline moves the
    /// live count around it).
    pub replicas: usize,
    /// Global arrival rate, requests/second.
    pub request_rate: f64,
    /// Total synchronization rounds driven.
    pub rounds: u64,
    /// Whether the lock-step and event-heap drives produced identical
    /// checkpoints and availability accounting (the determinism contract).
    pub schedulers_agree: bool,
    /// The degradation/recovery curve (from the lock-step reference run).
    pub points: Vec<AvailabilityPoint>,
    /// Final fleet summary of the reference run.
    pub final_summary: FleetSummary,
}

/// The per-replica engine template: hybrid continuous batching on the tiny
/// model with a thin KV share (the `bench_fleet` shape) under streaming
/// summaries, so percentiles come from the O(1)-memory sketches.
fn engine_template() -> EngineConfig {
    let model = ModelSpec::preset("tiny").resolve().expect("tiny preset");
    EngineSpec::default()
        .with_seed(SEED)
        .with_workload(WorkloadMix::Fixed(Scenario::Privacy))
        .with_batch(BatchSpec::Serving(ServingSpec {
            mode: SchedulingMode::Hybrid,
            max_batch_tokens: 2048,
            max_active: 128,
            request_rate: 0.0,
            iteration_period: 0.02,
            summary: SummaryMode::Streaming,
            workload: None,
        }))
        .with_kv_hbm_fraction(1.0e-3)
        .engine_config(model)
        .expect("valid fleet template")
}

/// Drives the chaos fleet for `rounds` rounds under `scheduler`, sampling
/// [`CHECKPOINTS`] cumulative summaries along the way.
fn run_chaos(
    platform: &Platform,
    plan: &moentwine_core::MappingPlan,
    scheduler: FleetScheduler,
    rounds: u64,
) -> (Vec<AvailabilityPoint>, FleetSummary) {
    let config = FleetSpec::new(REPLICAS, RouterPolicy::LeastQueueDepth, RATE)
        .with_scheduler(scheduler)
        .with_events(chaos_timeline())
        .fleet_config(engine_template());
    let mut fleet = Fleet::new(&platform.topo, &platform.table, plan, config);
    let chunk = (rounds / CHECKPOINTS).max(1) as usize;
    let mut points = Vec::new();
    while fleet.rounds() < rounds {
        fleet.run(chunk.min((rounds - fleet.rounds()) as usize));
        let active_replicas = fleet
            .states()
            .iter()
            .filter(|s| matches!(s, ReplicaState::Active))
            .count() as u64;
        points.push(AvailabilityPoint {
            round: fleet.rounds(),
            active_replicas,
            summary: fleet.summary(),
        });
    }
    let summary = fleet.summary();
    (points, summary)
}

/// Runs the measurement. `quick` shrinks the round budget for CI smoke
/// runs; the full timeline (all four events) fires in either mode.
pub fn measure_availability(quick: bool) -> AvailabilityFig {
    let rounds: u64 = if quick { 400 } else { 1600 };
    let platform = Platform::wsc(4);
    let plan = wsc_plan(&platform, 4, WscMapping::Er);

    let (lockstep_points, lockstep_summary) =
        run_chaos(&platform, &plan, FleetScheduler::Lockstep, rounds);
    let (event_points, event_summary) =
        run_chaos(&platform, &plan, FleetScheduler::EventHeap, rounds);
    // Agreement is judged on what the manifest emits: every checkpoint
    // entry and the final availability section.
    let curve = |points: &[AvailabilityPoint]| -> Vec<Value> {
        points.iter().map(AvailabilityPoint::to_json).collect()
    };
    let schedulers_agree = curve(&lockstep_points) == curve(&event_points)
        && availability_json(&lockstep_summary.availability).pretty()
            == availability_json(&event_summary.availability).pretty();

    AvailabilityFig {
        replicas: REPLICAS,
        request_rate: RATE,
        rounds,
        schedulers_agree,
        points: lockstep_points,
        final_summary: lockstep_summary,
    }
}

impl AvailabilityFig {
    /// The JSON manifest written to [`MANIFEST_PATH`].
    pub fn to_json(&self, quick: bool) -> Value {
        let mut fields = vec![
            ("schema".into(), Value::Str(SCHEMA.into())),
            ("quick".into(), Value::Bool(quick)),
            // The initial width; the timeline moves the live count.
            ("replicas".into(), Value::Num(self.replicas as f64)),
            ("request_rate".into(), Value::Num(self.request_rate)),
            ("rounds".into(), Value::Num(self.rounds as f64)),
        ];
        fields.extend(summary_json::fields(
            &self.final_summary,
            &[
                FleetField::SimSeconds,
                FleetField::Aggregate(ServingField::Completed),
            ],
        ));
        fields.extend([
            (
                "schedulers_agree".into(),
                Value::Bool(self.schedulers_agree),
            ),
            (
                "availability".into(),
                availability_json(&self.final_summary.availability),
            ),
            (
                "points".into(),
                Value::Arr(self.points.iter().map(AvailabilityPoint::to_json).collect()),
            ),
        ]);
        Value::Obj(fields)
    }

    /// Writes the manifest, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>, quick: bool) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, self.to_json(quick).pretty())
    }

    /// Human-readable one-screen summary.
    pub fn summary(&self) -> String {
        let a = &self.final_summary.availability;
        let mut lines = format!(
            "fleet availability ({} replicas, {:.0} req/s, {} rounds, \
             schedulers agree: {}):\n\
             \x20 events applied {}  crash interruptions {}  re-routed {} drain / {} crash\n\
             \x20 re-queued tokens {}  replayed prefill tokens {}  available fraction {:.4}\n\
             \x20 final states [{}]",
            self.replicas,
            self.request_rate,
            self.rounds,
            self.schedulers_agree,
            a.events_applied,
            a.crash_interruptions,
            a.drain_rerouted,
            a.crash_rerouted,
            a.requeued_tokens,
            a.replayed_prefill_tokens,
            a.available_fraction,
            a.replica_states.join(", "),
        );
        for w in &a.goodput_windows {
            lines.push_str(&format!(
                "\n\x20 after {:<14} [{:.6}, {:.6}) s  {:>5} completed  {:>10.1} req/s",
                w.after, w.start, w.end, w.completed, w.goodput_rps
            ));
        }
        lines
    }
}

/// Validates a manifest against the `moentwine/fleet_availability/v1`
/// schema: schema tag, run parameters, a non-empty monotone checkpoint
/// curve, an availability section that actually saw the crash
/// (`events_applied ≥ 1`, `crash_interruptions ≥ 1`, fraction strictly
/// inside (0, 1)), and scheduler agreement.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate(manifest: &Value) -> Result<(), String> {
    use crate::figs::validate as v;
    v::require_schema(manifest, SCHEMA)?;
    v::require_run_params(
        manifest,
        &[
            "replicas",
            "request_rate",
            "rounds",
            "sim_seconds",
            "completed",
        ],
    )?;
    if !matches!(manifest.get("schedulers_agree"), Some(Value::Bool(true))) {
        return Err("schedulers_agree must be true (lock-step vs event-heap drift)".into());
    }

    let points = v::require_points(manifest)?;
    let mut prev_round = 0.0;
    for (i, point) in points.iter().enumerate() {
        for key in [
            "round",
            "sim_seconds",
            "completed",
            "goodput_rps",
            "ttft_p50",
            "ttft_p95",
            "ttft_p99",
            "available_fraction",
            "events_applied",
            "crash_interruptions",
            "requeued_tokens",
            "active_replicas",
        ] {
            v::point_num(point, i, key)?;
        }
        let round = v::point_num(point, i, "round")?;
        if round <= prev_round && i > 0 {
            return Err(format!("point {i}: rounds not increasing ({round})"));
        }
        prev_round = round;
    }

    let avail = manifest
        .get("availability")
        .ok_or("missing availability section")?;
    let anum = |key: &str| {
        avail
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("availability: missing {key}"))
    };
    if anum("events_applied")? < 1.0 {
        return Err("availability: no timeline events applied".into());
    }
    if anum("crash_interruptions")? < 1.0 {
        return Err("availability: crash interrupted no in-flight requests".into());
    }
    let fraction = anum("available_fraction")?;
    if !(fraction > 0.0 && fraction < 1.0) {
        return Err(format!(
            "availability: available_fraction {fraction} not in (0, 1) — the \
             capacity loss never showed up in the time-weighted accounting"
        ));
    }
    let windows = avail
        .get("goodput_windows")
        .and_then(Value::as_array)
        .ok_or("availability: missing goodput_windows")?;
    if windows.len() < 2 {
        return Err(format!(
            "availability: {} goodput windows (expected one per applied event plus the start)",
            windows.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The measured quick figure itself: the chaos arc must fire, interrupt
    /// in-flight work, and agree across both round-driven scheduler drives
    /// — checked here so a determinism or timeline regression fails
    /// `cargo test` before it fails the CI chaos smoke.
    #[test]
    fn quick_figure_meets_the_contract() {
        let fig = measure_availability(true);
        let json = fig.to_json(true);
        validate(&json).expect("measured manifest validates");
        assert!(fig.schedulers_agree, "{}", fig.summary());
        let a = &fig.final_summary.availability;
        assert_eq!(a.events_applied, 4, "{}", fig.summary());
        assert!(a.crash_interruptions >= 1);
        assert!(a.requeued_tokens > 0);
        // The crash knocks availability below 1 until recovery; the drain
        // retires a replica permanently, so the final fraction stays < 1.
        assert!(a.available_fraction > 0.0 && a.available_fraction < 1.0);
        // 5 windows: start + one per event.
        assert_eq!(a.goodput_windows.len(), 5, "{}", fig.summary());
        assert_eq!(a.goodput_windows[0].after, "start");
        // Repeat runs are byte-identical (the manifest has no wall-clock
        // fields).
        let again = measure_availability(true);
        assert_eq!(json.pretty(), again.to_json(true).pretty());
    }

    #[test]
    fn validate_rejects_broken_manifests() {
        assert!(validate(&Value::Obj(vec![])).is_err());
        let fig = measure_availability(true);

        let mut broken = fig.clone();
        broken.schedulers_agree = false;
        let err = validate(&broken.to_json(true)).unwrap_err();
        assert!(err.contains("schedulers_agree"), "{err}");

        let mut broken = fig.clone();
        broken.final_summary.availability.crash_interruptions = 0;
        let err = validate(&broken.to_json(true)).unwrap_err();
        assert!(err.contains("crash interrupted no"), "{err}");

        let mut broken = fig;
        broken.final_summary.availability.available_fraction = 1.0;
        let err = validate(&broken.to_json(true)).unwrap_err();
        assert!(err.contains("not in (0, 1)"), "{err}");
    }
}
