//! The simulator's benchmark: runs one workload through the crates' public
//! API for a given number of seconds, checks the simulated outputs, and
//! prints one JSON result line.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ds3_ni_decode --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Run it from the repository root. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer split, prints it as a table
//! on stderr and writes the spans to `.bench_build/perfbench-trace/`.
//! `README.md` in this directory lists the workloads and metrics.

mod drive;
mod probes;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use moentwine_core::engine::ServingSummary;
use moentwine_spec::ScenarioOutcome;

use drive::{Repeat, Setup, Tracer};
use workloads::{Workload, WORKLOADS};

/// Set-ups timed on their own before each repeat, on top of the repeat's
/// own. Spreading them over the run lets the `setup_s` median see the
/// same host conditions the repeats see, instead of one moment at start.
const SETUPS_PER_REPEAT: usize = 4;

/// Fewest untraced repeats per run, so every run compares digests.
const MIN_REPEATS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    workload = Some(Workload::named(&value).ok_or(format!(
                        "unknown workload {value:?} (expected one of {names:?})"
                    ))?);
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a u64")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Operation accounting: every set-up, repeat and reference run is one
/// operation; one that errors, panics or fails a check is failed.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn run<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(f))
            .unwrap_or_else(|_| Err("panicked (message above)".into()));
        result.map_err(|e| self.fail(&format!("{what}: {e}"))).ok()
    }

    fn fail(&mut self, message: &str) {
        eprintln!("perfbench: FAILED {message}");
        self.failed += 1;
    }
}

/// Every number of `outcome` is finite and every percentile ladder rises.
fn check_outcome(outcome: &ScenarioOutcome) -> Result<(), String> {
    let text = format!("{outcome:?}");
    if text
        .split(|c: char| !(c.is_alphanumeric() || c == '-' || c == '.'))
        .any(|token| matches!(token, "NaN" | "inf" | "-inf"))
    {
        return Err("non-finite value in the simulated outcome".into());
    }
    let summaries: Vec<&ServingSummary> = match outcome {
        ScenarioOutcome::Engine { serving, .. } => vec![serving.as_ref()],
        ScenarioOutcome::Fleet(fleet) => std::iter::once(&fleet.aggregate)
            .chain(&fleet.per_replica)
            .collect(),
    };
    for s in summaries {
        let mut ladders = vec![
            ("ttft", vec![s.ttft_p50, s.ttft_p95, s.ttft_p99]),
            ("tpot", vec![s.tpot_p50, s.tpot_p95, s.tpot_p99]),
            ("e2e", vec![s.e2e_p50, s.e2e_p99]),
            ("queueing", vec![s.queueing_p50, s.queueing_p99]),
        ];
        for c in &s.classes {
            ladders.push(("class ttft", vec![c.ttft_p50, c.ttft_p95, c.ttft_p99]));
            ladders.push(("class tpot", vec![c.tpot_p50, c.tpot_p95, c.tpot_p99]));
        }
        for (name, ladder) in ladders {
            if ladder.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!(
                    "{name} percentile ladder {ladder:?} is not monotone"
                ));
            }
        }
    }
    Ok(())
}

fn outcome_digest(outcome: &ScenarioOutcome) -> u64 {
    stats::digest(&format!("{outcome:?}"))
}

/// The result line's metric map, by name, with units.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                // A non-finite value already failed the run; JSON has no NaN.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Untraced engine steps (replica steps for a fleet) per host second over
/// the whole run, and the host's speed during them in sampler iterations
/// per µs. Pooling the run averages more of the host's drift than a median
/// of a few per-repeat figures does.
fn throughput(repeats: &[Repeat]) -> (f64, f64) {
    let steps: u64 = repeats.iter().map(|r| r.steps).sum();
    let wall: f64 = repeats.iter().map(|r| r.wall_s).sum();
    let ns: f64 = repeats.iter().map(|r| r.host.ns).sum();
    let iterations: f64 = repeats.iter().map(|r| r.host.iterations).sum();
    (steps as f64 / wall, iterations / (ns / 1e3))
}

/// The end-to-end metrics of the untraced repeats. The host-timed ones are
/// scaled to a host whose speed sampler runs at
/// [`stats::HostSpeed::REFERENCE`], which removes most of the host's
/// drift; set-ups are spread over the run, so the run's speed applies to
/// them too.
fn end_to_end(repeats: &[Repeat], setups: &[Setup]) -> Metrics {
    let mut m = Metrics::default();
    let (raw, speed) = throughput(repeats);
    let scale = speed / stats::HostSpeed::REFERENCE;
    let setup: Vec<f64> = setups.iter().map(Setup::total).collect();
    m.set("setup_s", stats::median(&setup) * scale, "s");
    m.set("norm_steps_per_s", raw / scale, "1/s");
    m.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MB");
    m.set("sim_iter_ms", repeats[0].sim.iter_ms, "ms");
    m.set("sim_tpot_p99_ms", repeats[0].sim.tpot_p99_ms, "ms");
    m
}

/// The per-layer metrics of one traced repeat.
fn per_layer(
    traced: &Repeat,
    untraced: &[Repeat],
    setups: &[Setup],
    overhead_ratio: f64,
) -> Metrics {
    let mut m = Metrics::default();
    let t = traced.traced.as_ref().expect("a traced repeat");
    let layers = &t.layers;
    let col = |f: fn(&Setup) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    m.set("spec.parse_s", col(|s| s.parse_s), "s");
    m.set("spec.build_s", col(|s| s.build_s), "s");
    m.set("spec.construct_s", col(|s| s.construct_s), "s");

    let is_fleet = matches!(traced.outcome, ScenarioOutcome::Fleet(_));
    // Host ns of each engine step: the engine spans, or the replica-step
    // spans under the fleet's rounds.
    let step_ns = if is_fleet {
        &t.replica_step_ns
    } else {
        &traced.step_ns
    };
    let per_step = |ns: f64| us(ns) / layers.steps.max(1) as f64;
    let step_mean = us(stats::mean(step_ns));
    let probed = per_step(
        layers.gating_ns
            + layers.comm_ns
            + layers.roofline_ns
            + layers.balancer_ns
            + layers.scheduler_ns,
    );
    let (raw, speed) = throughput(untraced);
    m.set("engine.steps_per_s", raw, "1/s");
    m.set("host.speed", speed, "1/us");
    m.set("engine.steps", step_ns.len() as f64, "count");
    m.set("engine.step_us_mean", step_mean, "us");
    m.set("engine.step_us_p50", us(stats::median(step_ns)), "us");
    m.set(
        "engine.step_us_p99",
        us(stats::quantile(step_ns, 0.99)),
        "us",
    );
    m.set("engine.other_us_per_step", step_mean - probed, "us");
    m.set(
        "probe.mismatched_steps",
        layers.mismatched_steps as f64,
        "count",
    );

    m.set("gating.us_per_step", per_step(layers.gating_ns), "us");
    let steps = layers.steps.max(1) as f64;
    m.set(
        "gating.selections_per_step",
        layers.selections as f64 / steps,
        "count",
    );
    m.set("comm.us_per_step", per_step(layers.comm_ns), "us");
    m.set(
        "comm.calls_per_step",
        layers.comm_calls as f64 / steps,
        "count",
    );
    let hit_ratio = layers.cache.map_or(0.0, |c| {
        let calls = c.hits + c.misses;
        if calls == 0 {
            0.0
        } else {
            c.hits as f64 / calls as f64
        }
    });
    m.set("comm.cache_hit_ratio", hit_ratio, "ratio");
    let records = &t.records;
    let n = records.len().max(1) as f64;
    let sum = |f: fn(&moentwine_core::engine::IterationMetrics) -> f64| {
        records.iter().map(f).fold(0.0, |a, b| a + b)
    };
    m.set("comm.sim_a2a_ms", sum(|r| r.all_to_all()) * 1e3 / n, "ms");
    m.set("roofline.us_per_step", per_step(layers.roofline_ns), "us");
    m.set("balancer.us_per_step", per_step(layers.balancer_ns), "us");
    m.set(
        "migration.started",
        sum(|r| r.migrations_started as f64),
        "count",
    );
    m.set(
        "migration.completed",
        sum(|r| r.migrations_completed as f64),
        "count",
    );
    m.set(
        "migration.sim_stall_ms",
        sum(|r| r.migration_stall) * 1e3 / n,
        "ms",
    );
    m.set("scheduler.us_per_step", per_step(layers.scheduler_ns), "us");
    m.set(
        "scheduler.depth_mean",
        sum(|r| r.queue_depth as f64) / n,
        "count",
    );
    m.set(
        "scheduler.kv_tokens_mean",
        sum(|r| r.kv_tokens_in_use as f64) / n,
        "count",
    );

    let (summary, fleet) = match &traced.outcome {
        ScenarioOutcome::Engine { serving, .. } => (serving.as_ref(), None),
        ScenarioOutcome::Fleet(f) => (&f.aggregate, Some(f.as_ref())),
    };
    m.set(
        "scheduler.admission_rejects",
        summary.admission_rejects as f64,
        "count",
    );
    m.set("scheduler.shed", summary.shed as f64, "count");

    // Round spans exist only for the fleet; for an engine these read 0.
    let round_ns: &[f64] = if is_fleet { &traced.step_ns } else { &[] };
    let round_mean = us(stats::mean(round_ns));
    let replica_per_round =
        us(t.replica_step_ns.iter().fold(0.0, |a, b| a + b)) / round_ns.len().max(1) as f64;
    m.set("fleet.rounds", round_ns.len() as f64, "count");
    m.set(
        "fleet.replica_steps",
        t.replica_step_ns.len() as f64,
        "count",
    );
    m.set("fleet.round_us_mean", round_mean, "us");
    m.set(
        "fleet.round_us_p99",
        us(stats::quantile(round_ns, 0.99)),
        "us",
    );
    m.set("fleet.replica_step_us_per_round", replica_per_round, "us");
    m.set(
        "fleet.self_us_per_round",
        round_mean - replica_per_round,
        "us",
    );
    m.set(
        "fleet.summary_s",
        fleet.map_or(0.0, |_| traced.summary_s),
        "s",
    );
    let availability = fleet.map(|f| &f.availability);
    m.set(
        "fleet.events_applied",
        availability.map_or(0.0, |a| a.events_applied as f64),
        "count",
    );
    m.set(
        "fleet.requeued",
        availability.map_or(0.0, |a| {
            (a.crash_interruptions + a.drain_rerouted + a.crash_rerouted) as f64
        }),
        "count",
    );
    m.set(
        "router.routed",
        fleet.map_or(0.0, |f| f.routed.iter().sum::<u64>() as f64),
        "count",
    );
    m.set(
        "router.routing_imbalance",
        fleet.map_or(0.0, |f| f.routing_imbalance),
        "ratio",
    );

    let sim = &traced.sim;
    let completed: u64 = untraced.iter().map(|r| r.sim.completed).sum();
    let wall: f64 = untraced.iter().map(|r| r.wall_s).sum();
    m.set("serving.sim_requests_per_s", completed as f64 / wall, "1/s");
    m.set("serving.sim_ttft_p50_ms", sim.ttft_p50_ms, "ms");
    m.set("serving.sim_ttft_p99_ms", sim.ttft_p99_ms, "ms");
    m.set("serving.sim_goodput_rps", sim.goodput_rps, "1/s");
    m.set("serving.sim_slo_attainment", sim.slo_attainment, "ratio");
    m.set("trace.overhead_ratio", overhead_ratio, "ratio");
    m
}

/// Prints the per-layer split with the sums the acceptance check reads.
fn print_table(workload: &str, m: &Metrics) {
    let get = |name: &str| m.0.get(name).map_or(0.0, |v| v.0);
    eprintln!("per-layer split, {workload}:");
    for (name, (value, unit)) in &m.0 {
        eprintln!("  {name:<34} {value:>16.4} {unit}");
    }
    let probes = [
        "gating.us_per_step",
        "comm.us_per_step",
        "roofline.us_per_step",
        "balancer.us_per_step",
        "scheduler.us_per_step",
        "engine.other_us_per_step",
    ];
    let sum: f64 = probes.iter().map(|p| get(p)).sum();
    eprintln!(
        "  probes + other = {sum:.3} us/step; measured step = {:.3} us",
        get("engine.step_us_mean")
    );
    if get("fleet.rounds") > 0.0 {
        eprintln!(
            "  replica steps + fleet self = {:.3} us/round; measured round = {:.3} us",
            get("fleet.replica_step_us_per_round") + get("fleet.self_us_per_round"),
            get("fleet.round_us_mean")
        );
    }
}

/// Writes the spans as Chrome trace events (open in Perfetto).
fn write_spans(workload: &str, seed: u64, tracer: &Tracer) -> std::io::Result<String> {
    use std::io::Write;
    let dir = std::path::Path::new(".bench_build").join("perfbench-trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "[")?;
    let spans = tracer.spans();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \"dur\": {}, \
             \"args\": {{\"span\": {i}, \"parent\": {parent}, \"id\": {}}}}}{sep}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id
        )?;
    }
    writeln!(out, "]")?;
    out.flush()?;
    Ok(path.display().to_string())
}

fn run(args: &Args) -> Result<(), String> {
    let w = &args.workload;
    let text = std::fs::read_to_string(w.source).map_err(|e| {
        format!(
            "cannot read {} (run from the repository root): {e}",
            w.source
        )
    })?;
    let mut ops = Ops::default();

    let mut setups: Vec<Setup> = Vec::new();

    let mut untraced: Vec<Repeat> = Vec::new();
    let mut traced: Vec<Repeat> = Vec::new();
    let tracer = Tracer::new();
    // Repeats run until the next one would overrun `--seconds`, judged by
    // the slowest loop so far; the minimum number of repeats always runs.
    let measure = Instant::now();
    let mut longest_loop = 0.0f64;
    for attempt in 0.. {
        if attempt >= MIN_REPEATS && measure.elapsed().as_secs_f64() + longest_loop > args.seconds {
            break;
        }
        let loop_start = Instant::now();
        setups.extend(
            (0..SETUPS_PER_REPEAT)
                .filter_map(|_| ops.run("setup", || drive::setup_only(w, &text, args.seed))),
        );
        if let Some(r) = ops.run("repeat", || drive::repeat(w, &text, args.seed, None)) {
            eprintln!(
                "repeat {}: {:.3} s, {:.1} steps/s",
                untraced.len(),
                r.wall_s,
                r.steps as f64 / r.wall_s
            );
            setups.push(r.setup);
            untraced.push(r);
        }
        if args.trace {
            // Spans are kept for the first traced repeat only.
            let fresh;
            let t = if traced.is_empty() {
                &tracer
            } else {
                fresh = Tracer::new();
                &fresh
            };
            if let Some(r) = ops.run("traced repeat", || {
                drive::repeat(w, &text, args.seed, Some(t))
            }) {
                traced.push(r);
            }
        }
        longest_loop = longest_loop.max(loop_start.elapsed().as_secs_f64());
    }

    // Checks: sound outcomes, one digest across every repeat, and the
    // benchmark's drive agreeing with `Scenario::run()`.
    let reference = ops.run("Scenario::run", || drive::reference(w, &text, args.seed));
    let expected = untraced
        .first()
        .or(traced.first())
        .map(|r| outcome_digest(&r.outcome));
    for r in untraced.iter().chain(&traced) {
        if let Err(e) = check_outcome(&r.outcome) {
            ops.fail(&e);
        }
        if Some(outcome_digest(&r.outcome)) != expected {
            ops.fail("sim_digest differs between repeats of one seed");
        }
    }
    match (&reference, untraced.first()) {
        (Some(reference), Some(first)) if *reference != first.outcome => {
            ops.fail("the benchmark's drive and Scenario::run() disagree");
        }
        _ => {}
    }
    if let Some(digest) = expected {
        eprintln!("sim_digest {digest:016x} ({} seed {})", w.name, args.seed);
    }

    let metrics = if untraced.is_empty() || (args.trace && traced.is_empty()) {
        Metrics::default()
    } else if args.trace {
        let wall = |rs: &[Repeat]| stats::median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        // The per-layer split comes from the traced repeat of median wall
        // time, so its parts still add up to its own step and round times.
        let mut order: Vec<&Repeat> = traced.iter().collect();
        order.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let typical = order[(order.len() - 1) / 2];
        let m = per_layer(typical, &untraced, &setups, wall(&traced) / wall(&untraced));
        print_table(w.name, &m);
        match write_spans(w.name, args.seed, &tracer) {
            Ok(path) => eprintln!("spans written to {path}"),
            Err(e) => ops.fail(&format!("writing spans: {e}")),
        }
        m
    } else {
        end_to_end(&untraced, &setups)
    };
    for (name, (value, _)) in &metrics.0 {
        if !value.is_finite() {
            ops.fail(&format!("metric {name} is not finite"));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed,
        metrics.to_json()
    );
    Ok(())
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> \
                 --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
