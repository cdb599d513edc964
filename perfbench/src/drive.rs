//! Drives one workload repeat through the public API: set-up (parse,
//! build, construct), then every engine step or fleet round, then the
//! summary. The traced variant records spans around each of those calls
//! and hands the recorded per-step shapes to the layer probes.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use moentwine_core::engine::{InferenceEngine, IterationMetrics, RunSummary};
use moentwine_core::fleet::{Fleet, PlatformRefs, ReplicaPool, SerialReplicaPool};
use moentwine_spec::{Scenario, ScenarioOutcome};

use crate::probes::{self, LayerTimes};
use crate::stats;
use crate::workloads::Workload;

/// Host seconds of the three set-up stages of one repeat.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// Scenario text → typed spec (with the workload's overrides).
    pub parse_s: f64,
    /// Spec → topology, route table, layout and model.
    pub build_s: f64,
    /// Engine or fleet construction.
    pub construct_s: f64,
}

impl Setup {
    /// Total set-up seconds.
    pub fn total(&self) -> f64 {
        self.parse_s + self.build_s + self.construct_s
    }
}

/// One timed span. `parent` indexes the enclosing span in
/// [`Tracer::spans`]; `id` is the round number (fleet) or step number
/// (engine) the span belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Round or step id.
    pub id: u64,
}

/// In-memory span recorder; the spans are written out when the benchmark
/// ends.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            id,
        });
        spans.len() - 1
    }

    /// Closes span `index` and returns its duration in nanoseconds.
    pub fn close(&self, index: usize) -> f64 {
        let end = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[index].end_ns = end;
        (end - spans[index].start_ns) as f64
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }
}

/// A [`ReplicaPool`] that runs jobs in order, like [`SerialReplicaPool`],
/// and records one span per replica step under the current round span.
struct TimingPool<'t> {
    tracer: &'t Tracer,
    round: Cell<(usize, u64)>,
    step_ns: RefCell<Vec<f64>>,
}

impl ReplicaPool for TimingPool<'_> {
    fn run<'s>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 's>>) {
        let (parent, round) = self.round.get();
        for job in jobs {
            let span = self.tracer.open("replica_step", round, Some(parent));
            job();
            let ns = self.tracer.close(span);
            self.step_ns.borrow_mut().push(ns);
        }
    }
}

/// Simulated outcome of a repeat, reduced to the benchmark's `sim_*`
/// metrics.
#[derive(Clone, Debug, Default)]
pub struct SimMetrics {
    /// Mean simulated iteration, ms (over every replica step for a fleet).
    pub iter_ms: f64,
    /// p99 time per output token, ms. A fixed decode batch emits one token
    /// per sequence per iteration, so there it is the p99 iteration.
    pub tpot_p99_ms: f64,
    /// Completed requests.
    pub completed: u64,
    /// Median time to first token, ms.
    pub ttft_p50_ms: f64,
    /// p99 time to first token, ms.
    pub ttft_p99_ms: f64,
    /// Completions per simulated second.
    pub goodput_rps: f64,
    /// Interactive requests that met their TTFT target over interactive
    /// completions, sheds and admission rejects (0 without classes).
    pub slo_attainment: f64,
}

/// Everything one repeat measured.
pub struct Repeat {
    /// Set-up stage times.
    pub setup: Setup,
    /// Engine steps, or replica steps for a fleet.
    pub steps: u64,
    /// Host ns per engine step, or per round for a fleet.
    pub step_ns: Vec<f64>,
    /// Host seconds of the drive plus the summary (without the probes'
    /// replays and the host-speed samples).
    pub wall_s: f64,
    /// Host seconds of the summary call.
    pub summary_s: f64,
    /// Host-speed samples taken between the untraced steps.
    pub host: stats::HostSpeed,
    /// The simulated outcome, as `Scenario::run()` returns it.
    pub outcome: ScenarioOutcome,
    /// Its `sim_*` metrics.
    pub sim: SimMetrics,
    /// What only a traced repeat records.
    pub traced: Option<Traced>,
}

/// The traced part of a repeat.
pub struct Traced {
    /// Host ns per replica step (fleet only).
    pub replica_step_ns: Vec<f64>,
    /// Per-step metrics of the engine, or of every replica step.
    pub records: Vec<IterationMetrics>,
    /// Sub-step layer probe totals.
    pub layers: LayerTimes,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f`, timed, inside a top-level span `name` when tracing.
fn timed<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    match tracer {
        Some(tracer) => {
            let span = tracer.open(name, 0, None);
            let value = f();
            (value, tracer.close(span) / 1e9)
        }
        None => {
            let t = Instant::now();
            let value = f();
            (value, secs(t))
        }
    }
}

/// Parse and build, timed.
fn parse_and_build(
    w: &Workload,
    text: &str,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Result<(Scenario, Setup), String> {
    let (spec, parse_s) = timed(tracer, "setup.parse", || w.spec(text, seed));
    let spec = spec?;
    let (scenario, build_s) = timed(tracer, "setup.build", || spec.build());
    let scenario = scenario.map_err(|e| format!("build: {e}"))?;
    Ok((
        scenario,
        Setup {
            parse_s,
            build_s,
            construct_s: 0.0,
        },
    ))
}

fn new_engine(scenario: &Scenario) -> Result<InferenceEngine<'_>, String> {
    let config = scenario.engine_config().map_err(|e| e.to_string())?;
    InferenceEngine::try_new(
        scenario.topology(),
        scenario.route_table(),
        scenario.layout().as_parallel(),
        config,
    )
    .map_err(|e| format!("engine: {e}"))
}

/// The fleet exactly as `Scenario::run()` builds it. Disaggregated fleets
/// need the scenario's private decode platform, so they are refused.
fn new_fleet(scenario: &Scenario) -> Result<Fleet<'_>, String> {
    let fleet_spec = scenario
        .spec()
        .fleet
        .as_ref()
        .ok_or("not a fleet scenario")?;
    if fleet_spec.decode_platform.is_some() {
        return Err("disaggregated fleets are not supported".into());
    }
    let config = scenario.engine_config().map_err(|e| e.to_string())?;
    let prefill = PlatformRefs {
        topo: scenario.topology(),
        table: scenario.route_table(),
        layout: scenario.layout().as_parallel(),
    };
    Fleet::try_new_disaggregated(prefill, None, fleet_spec.fleet_config(config))
        .map_err(|e| format!("fleet: {e}"))
}

/// One set-up with nothing driven afterwards.
pub fn setup_only(w: &Workload, text: &str, seed: u64) -> Result<Setup, String> {
    let (scenario, mut setup) = parse_and_build(w, text, seed, None)?;
    let t = Instant::now();
    if scenario.spec().fleet.is_some() {
        std::hint::black_box(new_fleet(&scenario)?);
    } else {
        std::hint::black_box(new_engine(&scenario)?);
    }
    setup.construct_s = secs(t);
    Ok(setup)
}

/// The outcome `Scenario::run()` gives for this workload and seed.
pub fn reference(w: &Workload, text: &str, seed: u64) -> Result<ScenarioOutcome, String> {
    let (scenario, _) = parse_and_build(w, text, seed, None)?;
    scenario.run().map_err(|e| format!("Scenario::run: {e}"))
}

/// One repeat: set-up, drive, summary; traced and probed when `tracer` is
/// given.
pub fn repeat(
    w: &Workload,
    text: &str,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Result<Repeat, String> {
    let (scenario, mut setup) = parse_and_build(w, text, seed, tracer)?;
    if scenario.spec().fleet.is_some() {
        drive_fleet(&scenario, &mut setup, tracer)
    } else {
        drive_engine(&scenario, &mut setup, tracer)
    }
}

fn drive_engine(
    scenario: &Scenario,
    setup: &mut Setup,
    tracer: Option<&Tracer>,
) -> Result<Repeat, String> {
    let (engine, construct_s) = timed(tracer, "setup.construct", || new_engine(scenario));
    let mut engine = engine?;
    setup.construct_s = construct_s;
    let iterations = scenario.spec().iterations;
    let mut probe = match tracer {
        Some(_) => Some(probes::EngineProbe::new(scenario)?),
        None => None,
    };
    let mut probe_s = 0.0;
    let mut host = stats::HostSpeed::new();
    let mut step_ns = Vec::with_capacity(iterations);
    let start = Instant::now();
    for step in 0..iterations {
        match (tracer, probe.as_mut()) {
            (Some(tracer), Some(probe)) => {
                let span = tracer.open("engine_step", step as u64, None);
                let metrics = engine.step();
                step_ns.push(tracer.close(span));
                let t = Instant::now();
                probe.step(step as u64, metrics);
                probe_s += secs(t);
            }
            _ => {
                let t = Instant::now();
                engine.step();
                let ns = t.elapsed().as_nanos() as f64;
                step_ns.push(ns);
                host.after(ns);
            }
        }
    }
    let ((run, serving), summary_s) = timed(tracer, "summary", || {
        (
            RunSummary::from_history(&engine.history, 0, scenario.topology().num_devices()),
            engine.serving_summary(),
        )
    });
    let wall_s = secs(start) - probe_s - host.ns / 1e9;

    let iteration_ms: Vec<f64> = engine
        .history
        .iter()
        .map(|m| m.iteration_time * 1e3)
        .collect();
    let mut sim = serving_metrics(&serving);
    sim.iter_ms = run.mean_iteration_time * 1e3;
    if serving.completed == 0 {
        sim.tpot_p99_ms = stats::quantile(&iteration_ms, 0.99);
    }
    let traced = probe.map(|probe| Traced {
        replica_step_ns: Vec::new(),
        records: engine.history.clone(),
        layers: probe.finish(),
    });
    Ok(Repeat {
        setup: *setup,
        steps: iterations as u64,
        step_ns,
        wall_s,
        summary_s,
        host,
        outcome: ScenarioOutcome::Engine {
            run,
            serving: Box::new(serving),
        },
        sim,
        traced,
    })
}

fn drive_fleet(
    scenario: &Scenario,
    setup: &mut Setup,
    tracer: Option<&Tracer>,
) -> Result<Repeat, String> {
    let (fleet, construct_s) = timed(tracer, "setup.construct", || new_fleet(scenario));
    let mut fleet = fleet?;
    setup.construct_s = construct_s;
    let rounds = scenario.spec().iterations;
    let pool = tracer.map(|tracer| TimingPool {
        tracer,
        round: Cell::new((0, 0)),
        step_ns: RefCell::new(Vec::new()),
    });
    let mut probe = pool.as_ref().map(|_| probes::FleetProbe::new(scenario));
    let mut probe_s = 0.0;
    let mut host = stats::HostSpeed::new();
    let mut round_ns = Vec::with_capacity(rounds);
    // Steps seen so far per replica: a replica stepped this round when its
    // newest metrics entry is past that count.
    let mut seen: Vec<u64> = Vec::new();
    let mut iteration_ms = Vec::new();
    let mut records = Vec::new();
    let start = Instant::now();
    for round in 0..rounds {
        match &pool {
            Some(pool) => {
                let span = pool.tracer.open("fleet_round", round as u64, None);
                pool.round.set((span, round as u64));
                fleet.step_round_with(pool);
                round_ns.push(pool.tracer.close(span));
            }
            None => {
                let t = Instant::now();
                fleet.step_round_with(&SerialReplicaPool);
                let ns = t.elapsed().as_nanos() as f64;
                round_ns.push(ns);
                host.after(ns);
            }
        }
        let engines = fleet.engines();
        seen.resize(engines.len(), 0);
        for (i, engine) in engines.iter().enumerate() {
            let Some(last) = engine.history.last() else {
                continue;
            };
            if last.iteration + 1 > seen[i] {
                seen[i] = last.iteration + 1;
                iteration_ms.push(last.iteration_time * 1e3);
                if let Some(probe) = probe.as_mut() {
                    let t = Instant::now();
                    probe.step(i, engine, last)?;
                    probe_s += secs(t);
                    records.push(last.clone());
                }
            }
        }
    }
    let (summary, summary_s) = timed(tracer, "summary", || fleet.summary());
    let wall_s = secs(start) - probe_s - host.ns / 1e9;

    let mut sim = serving_metrics(&summary.aggregate);
    sim.iter_ms = stats::mean(&iteration_ms);
    let traced = match (pool, probe) {
        (Some(pool), Some(probe)) => Some(Traced {
            replica_step_ns: pool.step_ns.into_inner(),
            records,
            layers: probe.finish(),
        }),
        _ => None,
    };
    Ok(Repeat {
        setup: *setup,
        steps: seen.iter().sum(),
        step_ns: round_ns,
        wall_s,
        summary_s,
        host,
        outcome: ScenarioOutcome::Fleet(Box::new(summary)),
        sim,
        traced,
    })
}

/// The request-level `sim_*` metrics of a serving summary. Shed and
/// rejected interactive requests count as SLO misses, unlike
/// `ClassServingSummary::ttft_attainment`, which divides by completions.
fn serving_metrics(s: &moentwine_core::engine::ServingSummary) -> SimMetrics {
    let interactive = s
        .classes
        .iter()
        .find(|c| c.class == moe_workload::RequestClass::Interactive);
    let slo_attainment = interactive.map_or(0.0, |c| {
        let met = (c.ttft_attainment * c.completed as f64).round();
        let offered = c.completed as f64 + c.shed as f64 + c.rejected as f64;
        if offered > 0.0 {
            met / offered
        } else {
            0.0
        }
    });
    SimMetrics {
        iter_ms: 0.0,
        tpot_p99_ms: s.tpot_p99 * 1e3,
        completed: s.completed as u64,
        ttft_p50_ms: s.ttft_p50 * 1e3,
        ttft_p99_ms: s.ttft_p99 * 1e3,
        goodput_rps: s.goodput_rps,
        slo_attainment,
    }
}
