//! Sub-step layer probes. The engine's step is one public call, so the
//! benchmark splits it by replaying each layer's public entry point with
//! the workload's own config and seed on the shapes the traced drive
//! recorded, timing every call:
//!
//! * gating: `TraceGenerator::next_iteration`;
//! * comm: `A2aModel::estimate_with`, on a concrete backend so a
//!   `CachedBackend` can report its `cache_stats()`;
//! * roofline: `CostModel::attention_time` and `moe_device_time`;
//! * balancer: `Trigger::should_balance`, `Balancer::plan_layer`,
//!   `enqueue_replications` and `MigrationEngine::advance`;
//! * scheduler: `BatchScheduler::next_batch_at`, `finish_iteration` and
//!   `drain_completed`, replayed on the recorded clock.
//!
//! Each step is replayed right after the engine took it, so both see the
//! same host conditions. For a single engine the replay repeats the step's
//! arithmetic, so it re-derives every iteration's simulated time; a step whose replayed time
//! differs from the engine's bit for bit counts in
//! [`LayerTimes::mismatched_steps`], which says the probes no longer time
//! the engine's work. Fleet replicas are fed by the router, whose offers
//! the public API does not expose, so there only gating, comm and the
//! expert part of the roofline are replayed.

use std::time::Instant;

use moe_model::Precision;
use moe_workload::{BatchScheduler, ClassPolicy, RequestGenerator, TraceGenerator};
use moentwine_core::balancer::{
    cumulative_imbalance, BalanceAction, BalanceContext, Balancer, BalancerKind,
    TopologyAwareBalancer, Trigger,
};
use moentwine_core::comm::A2aModel;
use moentwine_core::engine::{BatchMode, EngineConfig, InferenceEngine, IterationMetrics};
use moentwine_core::migration::{enqueue_replications, MigrationEngine, MigrationPhase};
use moentwine_core::ExpertPlacement;
use moentwine_spec::Scenario;
use wsc_sim::{CacheStats, CachedBackend, CongestionBackend, CongestionModel, FlowSimBackend};
use wsc_topology::Topology;

/// Host time and call counts per layer, summed over the replayed steps.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// Steps replayed.
    pub steps: u64,
    /// Gating sample, ns.
    pub gating_ns: f64,
    /// Expert selections sampled.
    pub selections: u64,
    /// All-to-all pricing, ns.
    pub comm_ns: f64,
    /// `estimate_with` calls.
    pub comm_calls: u64,
    /// Roofline compute model, ns.
    pub roofline_ns: f64,
    /// Balancer trigger, planning and migration progress, ns.
    pub balancer_ns: f64,
    /// Serving queue, ns.
    pub scheduler_ns: f64,
    /// Schedule-cache counters, when the backend memoizes.
    pub cache: Option<CacheStats>,
    /// Steps whose replayed iteration time differs from the engine's.
    pub mismatched_steps: u64,
}

/// A backend the probe can both price with and, when it memoizes, read
/// cache statistics from.
enum Pricing<'a> {
    Cached(CachedBackend<'a>),
    Plain(Box<dyn CongestionModel + 'a>),
}

impl<'a> Pricing<'a> {
    fn new(config: &EngineConfig, topo: &'a Topology) -> Self {
        match config.backend {
            CongestionBackend::FlowSimCached => {
                Pricing::Cached(CachedBackend::with_capacity_limit(
                    Box::new(FlowSimBackend::new(topo)),
                    config.cache_entries,
                ))
            }
            other => Pricing::Plain(other.build(topo)),
        }
    }

    fn model(&self) -> &dyn CongestionModel {
        match self {
            Pricing::Cached(c) => c,
            Pricing::Plain(p) => p.as_ref(),
        }
    }

    fn stats(&self) -> Option<CacheStats> {
        match self {
            Pricing::Cached(c) => Some(c.cache_stats()),
            Pricing::Plain(_) => None,
        }
    }
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn trace_generator(config: &EngineConfig, num_groups: usize) -> TraceGenerator {
    let t = TraceGenerator::new(
        &config.model,
        config.workload.clone(),
        num_groups,
        256,
        config.seed,
    );
    if config.uniform_gating {
        t.with_uniform_gating()
    } else {
        t
    }
}

/// PipeMoE-style overlap, as the engine prices it.
fn overlap(config: &EngineConfig, compute: f64, comm: f64) -> f64 {
    let m = config.pipeline_microbatches as f64;
    compute.max(comm) + compute.min(comm) / m
}

/// Slowest device's expert time plus the shared experts, as the engine
/// prices a layer's MoE compute.
fn moe_compute(
    config: &EngineConfig,
    est: &moentwine_core::comm::A2aEstimate,
    selections: u64,
) -> f64 {
    let model = &config.model;
    let mut moe_comp: f64 = 0.0;
    for (tokens, active) in est.device_tokens.iter().zip(&est.device_active_experts) {
        let t = config.cost.moe_device_time(model, *tokens, *active).total();
        moe_comp = moe_comp.max(t);
    }
    if model.num_shared_experts > 0 {
        let local_tokens =
            selections as f64 / model.experts_per_token as f64 / est.device_tokens.len() as f64;
        moe_comp += config
            .cost
            .moe_device_time(model, local_tokens, model.num_shared_experts as f64)
            .total();
    }
    moe_comp
}

/// The step state a single engine keeps, mirrored from
/// `InferenceEngine::try_new` and advanced by [`EngineProbe::step`].
pub struct EngineProbe<'a> {
    scenario: &'a Scenario,
    config: EngineConfig,
    gen: TraceGenerator,
    scheduler: Option<BatchScheduler>,
    balancer: Option<Box<dyn Balancer>>,
    trigger: Trigger,
    migration: MigrationEngine,
    placements: Vec<ExpertPlacement>,
    loads: Vec<Vec<f64>>,
    pricing: Pricing<'a>,
    a2a: A2aModel<'a>,
    /// Per-byte and fixed cost of the attention all-reduce.
    all_reduce: (f64, f64),
    /// The recorded clock at the end of the previous step.
    clock: f64,
    times: LayerTimes,
}

impl<'a> EngineProbe<'a> {
    /// Builds the probe state for `scenario`'s engine.
    pub fn new(scenario: &'a Scenario) -> Result<Self, String> {
        let config = scenario.engine_config().map_err(|e| e.to_string())?;
        let model = &config.model;
        let topo = scenario.topology();
        let layout = scenario.layout().as_parallel();
        let num_layers = model.num_sparse_layers as usize;
        let num_experts = model.num_experts as usize;
        let num_devices = topo.num_devices();
        let scheduler = match &config.batch {
            BatchMode::Fixed { .. } => None,
            BatchMode::Scheduled {
                mode,
                max_batch_tokens,
                max_active,
                request_rate,
                iteration_period,
            } => {
                let generator = RequestGenerator::try_from_profile(
                    &config.workload_profile,
                    *request_rate,
                    config.workload.weights(0),
                    config.seed ^ 0x5EED,
                    config.seed ^ 0xFEED,
                )
                .map_err(|e| e.to_string())?;
                let kv_bytes =
                    config.kv_hbm_fraction * config.cost.device().hbm_bytes * num_devices as f64;
                let kv_budget = model.kv_token_capacity(kv_bytes, Precision::Fp16).max(1);
                Some(
                    BatchScheduler::new(
                        *mode,
                        *max_batch_tokens,
                        *max_active,
                        *iteration_period,
                        generator,
                    )
                    .with_kv_budget(kv_budget)
                    .with_class_policy(ClassPolicy::from_classes(&config.workload_profile.classes)),
                )
            }
            BatchMode::External { .. } => {
                return Err("externally fed engines are not probed".into())
            }
        };
        let balancer: Option<Box<dyn Balancer>> = match config.balancer {
            BalancerKind::None => None,
            BalancerKind::NonInvasive => Some(Box::new(TopologyAwareBalancer::new(
                config.max_actions_per_layer,
            ))),
            other => return Err(format!("invasive balancer {} is not probed", other.name())),
        };
        let mut migration = MigrationEngine::new(config.cold_bandwidth);
        if layout.ftd_of_device(wsc_topology::DeviceId(0)).is_none() {
            migration = migration.phase_agnostic();
        }
        let pricing = Pricing::new(&config, topo);
        let unit = pricing
            .model()
            .price_schedule(&layout.all_reduce_schedule(topo, 1.0));
        Ok(EngineProbe {
            scenario,
            gen: trace_generator(&config, layout.num_groups()),
            scheduler,
            balancer,
            trigger: Trigger::new(config.trigger_alpha_per_layer * num_layers as f64, 0),
            migration,
            placements: (0..num_layers)
                .map(|_| {
                    ExpertPlacement::balanced(num_experts, num_devices, config.slots_per_device)
                })
                .collect(),
            loads: vec![vec![0.0; num_experts]; num_layers],
            pricing,
            a2a: A2aModel::new(topo, scenario.route_table(), layout),
            all_reduce: (unit.serialization_time, unit.latency_time),
            clock: 0.0,
            times: LayerTimes::default(),
            config,
        })
    }

    /// Replays step `step`, which the engine recorded as `recorded`.
    pub fn step(&mut self, step: u64, recorded: &IterationMetrics) {
        let config = &self.config;
        let model = &config.model;
        let topo = self.scenario.topology();
        let table = self.scenario.route_table();
        let layout = self.scenario.layout().as_parallel();
        let backend = self.pricing.model();
        let token_bytes = model.token_bytes(Precision::Fp16);
        let out = &mut self.times;

        let t = Instant::now();
        let (tokens, avg_context, phase) = match (&config.batch, self.scheduler.as_mut()) {
            (
                BatchMode::Fixed {
                    tokens_per_group,
                    avg_context,
                    phase,
                },
                _,
            ) => (*tokens_per_group, *avg_context, *phase),
            (_, Some(scheduler)) => {
                let spec = scheduler.next_batch_at(self.clock);
                (
                    spec.total_tokens().max(1),
                    spec.avg_context.max(1.0),
                    spec.phase,
                )
            }
            (_, None) => unreachable!("serving modes have a scheduler"),
        };
        out.scheduler_ns += ns(t);

        self.gen.set_tokens_per_group(tokens);
        let t = Instant::now();
        let trace = self.gen.next_iteration();
        out.gating_ns += ns(t);

        let t = Instant::now();
        let attn = config.cost.attention_time(
            model,
            tokens as f64,
            avg_context,
            layout.tp_degree(),
            phase,
        );
        out.roofline_ns += ns(t);
        let ar_time = self.all_reduce.0 * (tokens as f64 * token_bytes) + self.all_reduce.1;
        let attn_phase = overlap(config, attn.total(), ar_time);

        let num_layers = trace.layers.len();
        let mut iteration_time = 0.0;
        let mut per_layer_loads = Vec::with_capacity(num_layers);
        let mut cached_comm = None;
        for (l, gating) in trace.layers.iter().enumerate() {
            let selections = gating.total_selections();
            out.selections += selections;
            let t = Instant::now();
            let est =
                self.a2a
                    .estimate_with(backend, gating, &self.placements[l], token_bytes, tokens);
            out.comm_ns += ns(t);
            out.comm_calls += 1;
            let (dispatch_t, combine_t) = if l % config.comm_layer_stride == 0 {
                let pair = (est.dispatch.total_time, est.combine.total_time);
                cached_comm = Some(pair);
                pair
            } else {
                cached_comm.unwrap_or((est.dispatch.total_time, est.combine.total_time))
            };

            let t = Instant::now();
            let moe_comp = moe_compute(config, &est, selections);
            out.roofline_ns += ns(t);
            let moe_phase = overlap(config, moe_comp, dispatch_t + combine_t);
            iteration_time += attn_phase + moe_phase;

            let t = Instant::now();
            for (phase, duration) in [
                (MigrationPhase::Local, attn_phase),
                (MigrationPhase::Global, moe_phase),
            ] {
                for done in self.migration.advance(phase, duration) {
                    let _ = self.placements[done.layer].add_replica(done.expert, done.target);
                }
            }
            out.balancer_ns += ns(t);

            let totals = gating.expert_totals();
            for (slot, &x) in self.loads[l].iter_mut().zip(&totals) {
                *slot = (1.0 - config.load_ema) * *slot + config.load_ema * x as f64;
            }
            per_layer_loads.push(self.placements[l].device_loads(&self.loads[l]));
        }

        let t = Instant::now();
        if let Some(balancer) = self.balancer.as_mut() {
            let imbalance = cumulative_imbalance(per_layer_loads.iter().map(Vec::as_slice));
            if self.trigger.should_balance(step, imbalance) {
                let expert_bytes = model.expert_bytes(config.cost.linear_precision);
                for l in 0..num_layers {
                    let actions = balancer.plan_layer(&BalanceContext {
                        layer: l,
                        expert_loads: &self.loads[l],
                        placement: &self.placements[l],
                        table,
                    });
                    let releases = enqueue_replications(
                        &mut self.migration,
                        topo,
                        table,
                        layout,
                        &actions,
                        expert_bytes,
                    );
                    for action in releases {
                        if let BalanceAction::Release {
                            layer,
                            expert,
                            device,
                        } = action
                        {
                            self.placements[layer].remove_replica(expert, device);
                        }
                    }
                }
            }
        }
        out.balancer_ns += ns(t);

        let t = Instant::now();
        if let Some(scheduler) = self.scheduler.as_mut() {
            scheduler.finish_iteration(recorded.sim_time);
            std::hint::black_box(scheduler.drain_completed());
        }
        out.scheduler_ns += ns(t);

        if iteration_time.to_bits() != recorded.iteration_time.to_bits() {
            out.mismatched_steps += 1;
        }
        self.clock = recorded.sim_time;
        out.steps += 1;
    }

    /// The totals, with the schedule-cache counters.
    pub fn finish(mut self) -> LayerTimes {
        self.times.cache = self.pricing.stats();
        self.times
    }
}

/// Per-replica probe state of a fleet. Replicas run without a balancer in
/// the fleet workloads, so each replica's current placements are the ones
/// every one of its steps used.
pub struct FleetProbe<'a> {
    scenario: &'a Scenario,
    a2a: A2aModel<'a>,
    replicas: Vec<Option<(EngineConfig, TraceGenerator, Pricing<'a>)>>,
    times: LayerTimes,
}

impl<'a> FleetProbe<'a> {
    /// Probe state for `scenario`'s fleet; replicas join on their first
    /// step.
    pub fn new(scenario: &'a Scenario) -> Self {
        FleetProbe {
            scenario,
            a2a: A2aModel::new(
                scenario.topology(),
                scenario.route_table(),
                scenario.layout().as_parallel(),
            ),
            replicas: Vec::new(),
            times: LayerTimes::default(),
        }
    }

    /// Replays the step `engine` (replica `replica`) recorded as
    /// `recorded`.
    pub fn step(
        &mut self,
        replica: usize,
        engine: &InferenceEngine<'_>,
        recorded: &IterationMetrics,
    ) -> Result<(), String> {
        let topo = self.scenario.topology();
        let layout = self.scenario.layout().as_parallel();
        if self.replicas.len() <= replica {
            self.replicas.resize_with(replica + 1, || None);
        }
        if self.replicas[replica].is_none() {
            let config = engine.config().clone();
            if config.balancer != BalancerKind::None {
                return Err("fleet replicas with a balancer are not probed".into());
            }
            let pricing = Pricing::new(&config, topo);
            std::hint::black_box(
                pricing
                    .model()
                    .price_schedule(&layout.all_reduce_schedule(topo, 1.0)),
            );
            let gen = trace_generator(&config, layout.num_groups());
            self.replicas[replica] = Some((config, gen, pricing));
        }
        let (config, gen, pricing) = self.replicas[replica].as_mut().expect("just created");
        let out = &mut self.times;
        let token_bytes = config.model.token_bytes(Precision::Fp16);
        let tokens = recorded.tokens_per_group;
        gen.set_tokens_per_group(tokens);
        let t = Instant::now();
        let trace = gen.next_iteration();
        out.gating_ns += ns(t);
        for (gating, placement) in trace.layers.iter().zip(engine.placements()) {
            let selections = gating.total_selections();
            out.selections += selections;
            let t = Instant::now();
            let est =
                self.a2a
                    .estimate_with(pricing.model(), gating, placement, token_bytes, tokens);
            out.comm_ns += ns(t);
            out.comm_calls += 1;
            let t = Instant::now();
            std::hint::black_box(moe_compute(config, &est, selections));
            out.roofline_ns += ns(t);
        }
        out.steps += 1;
        Ok(())
    }

    /// The totals, with the schedule-cache counters summed over replicas.
    pub fn finish(mut self) -> LayerTimes {
        for (_, _, pricing) in self.replicas.iter().flatten() {
            if let Some(stats) = pricing.stats() {
                let total = self.times.cache.get_or_insert_with(CacheStats::default);
                total.hits += stats.hits;
                total.misses += stats.misses;
                total.entries += stats.entries;
            }
        }
        self.times
    }
}
