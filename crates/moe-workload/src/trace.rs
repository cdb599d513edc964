//! Iteration-by-iteration expert-selection traces.

use std::ops::ControlFlow;
use std::sync::mpsc;

use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use moe_model::ModelConfig;

use crate::affinity::AffinityModel;
use crate::gating::sample_gating_counts;
use crate::scenario::Scenario;

/// Gating work per iteration (`layers × groups × experts` binomial draws)
/// from which [`TraceGenerator::stream_iteration`] samples on a producer
/// thread. Spawning a scoped thread, passing one layer through the channel
/// and joining costs about 40–50 µs on a 2-core x86 host, the price of
/// ~600 draws at the large-`n` sampler's ~74 ns each. At 2^15 draws
/// (~2.4 ms of sampling) that fixed cost stays under 2% of the work it
/// overlaps; below it the possible saving is too small to pay for a thread
/// per step. DeepSeek-V3 on an 8×8 wafer (237,568 draws) streams; the tiny
/// preset (256) samples inline.
pub const OVERLAP_MIN_SAMPLES: usize = 1 << 15;

/// Layers the producer thread may run ahead of the consumer.
const STREAM_DEPTH: usize = 4;

/// How scenario weights evolve over the lifetime of a trace.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum WorkloadMix {
    /// A single scenario for the whole run (the paper's "Math-only").
    Fixed(Scenario),
    /// A smooth cyclic rotation through scenarios, modelling Azure-like
    /// production mixtures whose composition drifts slowly (paper §V-B).
    Cycling {
        /// Iterations for one full rotation through all scenarios.
        period: f64,
        /// Scenarios participating in the rotation.
        scenarios: Vec<Scenario>,
    },
    /// A static blend of scenarios.
    Blend(Vec<(Scenario, f64)>),
}

impl WorkloadMix {
    /// The paper's "Mixed" workload: all four scenarios rotating over
    /// `period` iterations.
    pub fn mixed(period: f64) -> Self {
        WorkloadMix::Cycling {
            period,
            scenarios: Scenario::all().to_vec(),
        }
    }

    /// Scenario weights at `iteration` (normalised to sum to 1).
    pub fn weights(&self, iteration: u64) -> Vec<(Scenario, f64)> {
        match self {
            WorkloadMix::Fixed(s) => vec![(*s, 1.0)],
            WorkloadMix::Blend(weights) => weights.clone(),
            WorkloadMix::Cycling { period, scenarios } => {
                let s = scenarios.len() as f64;
                let phase = iteration as f64 / period;
                let mut weights: Vec<(Scenario, f64)> = scenarios
                    .iter()
                    .enumerate()
                    .map(|(i, &scenario)| {
                        let theta = 2.0 * std::f64::consts::PI * (phase - i as f64 / s);
                        // Raised-cosine bump: smooth, periodic, non-negative.
                        let w = (0.5 + 0.5 * theta.cos()).powi(2);
                        (scenario, w)
                    })
                    .collect();
                let total: f64 = weights.iter().map(|(_, w)| w).sum();
                for (_, w) in &mut weights {
                    *w /= total;
                }
                weights
            }
        }
    }
}

/// Gating outcome of one MoE layer: token counts per (DP group, expert).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct LayerGating {
    /// `counts[group][expert]` = tokens of `group` routed to `expert`.
    pub counts: Vec<Vec<u32>>,
}

impl LayerGating {
    /// Total tokens routed to each expert across all groups.
    pub fn expert_totals(&self) -> Vec<u64> {
        let num_experts = self.counts.first().map_or(0, Vec::len);
        let mut totals = vec![0u64; num_experts];
        for group in &self.counts {
            for (t, &c) in totals.iter_mut().zip(group) {
                *t += c as u64;
            }
        }
        totals
    }

    /// Total routed token-selections in the layer.
    pub fn total_selections(&self) -> u64 {
        self.counts
            .iter()
            .map(|g| g.iter().map(|&c| c as u64).sum::<u64>())
            .sum()
    }

    /// Number of DP groups.
    pub fn num_groups(&self) -> usize {
        self.counts.len()
    }
}

/// Gating outcomes for every sparse layer of one inference iteration.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct IterationTrace {
    /// Index of the iteration this trace belongs to.
    pub iteration: u64,
    /// Scenario weights that generated it.
    pub weights: Vec<(Scenario, f64)>,
    /// Per-sparse-layer gating outcomes.
    pub layers: Vec<LayerGating>,
}

/// Deterministic generator of per-iteration expert-selection traces.
///
/// See the [crate-level documentation](crate) for the statistical structure.
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    affinity: AffinityModel,
    mix: WorkloadMix,
    num_groups: usize,
    tokens_per_group: u32,
    top_k: u32,
    rng: rand::rngs::StdRng,
    iteration: u64,
    uniform: bool,
}

impl TraceGenerator {
    /// Creates a generator for `config` under `mix`, with `num_groups` DP
    /// groups of `tokens_per_group` tokens per iteration.
    ///
    /// # Panics
    ///
    /// Panics if `num_groups == 0` or `tokens_per_group == 0`.
    pub fn new(
        config: &ModelConfig,
        mix: WorkloadMix,
        num_groups: usize,
        tokens_per_group: u32,
        seed: u64,
    ) -> Self {
        assert!(num_groups > 0, "need at least one DP group");
        assert!(tokens_per_group > 0, "need at least one token per group");
        TraceGenerator {
            affinity: AffinityModel::new(
                config.num_sparse_layers as usize,
                config.num_experts as usize,
                seed,
            ),
            mix,
            num_groups,
            tokens_per_group,
            top_k: config.experts_per_token,
            rng: rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(0xA24B_AED4_963E_E407)),
            iteration: 0,
            uniform: false,
        }
    }

    /// Forces perfectly uniform gating probabilities (the balanced-load
    /// ablation used to isolate mapping gains in §VI-B).
    pub fn with_uniform_gating(mut self) -> Self {
        self.uniform = true;
        self
    }

    /// Overrides the per-iteration token count per group.
    ///
    /// # Panics
    ///
    /// Panics if `tokens_per_group == 0`.
    pub fn set_tokens_per_group(&mut self, tokens_per_group: u32) {
        assert!(tokens_per_group > 0, "need at least one token per group");
        self.tokens_per_group = tokens_per_group;
    }

    /// The affinity model driving generation.
    pub fn affinity(&self) -> &AffinityModel {
        &self.affinity
    }

    /// Current iteration counter.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Generates the next iteration's gating trace.
    pub fn next_iteration(&mut self) -> IterationTrace {
        let iteration = self.iteration;
        let weights = self.mix.weights(iteration);
        let mut layers = Vec::with_capacity(self.affinity.num_layers());
        self.for_each_layer(|gating| {
            layers.push(gating);
            ControlFlow::Continue(())
        });
        IterationTrace {
            iteration,
            weights,
            layers,
        }
    }

    /// Samples the next iteration and hands each layer's gating to `sink`
    /// in layer order, without materialising the whole [`IterationTrace`].
    ///
    /// This is the one sampling loop: [`Self::next_iteration`] collects over
    /// it, so the two interleave freely and yield identical layers. If
    /// `sink` breaks, the remaining layers are not sampled; the iteration
    /// counter still advances, but the RNG stream no longer matches an
    /// uninterrupted run.
    pub fn for_each_layer(&mut self, mut sink: impl FnMut(LayerGating) -> ControlFlow<()>) {
        let weights = self.mix.weights(self.iteration);
        self.iteration += 1;
        let uniform_dist = self.uniform.then(|| self.affinity.uniform());
        for layer in 0..self.affinity.num_layers() {
            let mixed;
            let dist: &[f64] = match &uniform_dist {
                Some(u) => u,
                None => {
                    mixed = self.affinity.mixed_distribution(layer, &weights);
                    &mixed
                }
            };
            let counts = (0..self.num_groups)
                .map(|_| {
                    sample_gating_counts(&mut self.rng, dist, self.tokens_per_group, self.top_k)
                })
                .collect();
            if sink(LayerGating { counts }).is_break() {
                return;
            }
        }
    }

    /// Gating work of one iteration: binomial draws over
    /// `layers × groups × experts`.
    fn samples_per_iteration(&self) -> usize {
        self.affinity.num_layers() * self.num_groups * self.affinity.num_experts()
    }

    /// Streams the next iteration's layers into `consume`, in order.
    ///
    /// When the iteration's gating work reaches [`OVERLAP_MIN_SAMPLES`],
    /// sampling runs on a scoped producer thread that feeds a bounded
    /// channel while `consume` runs on the calling thread; below it, the
    /// layers are sampled inline. Either way the layers and the generator's
    /// state afterwards equal those of [`Self::next_iteration`].
    pub fn stream_iteration(&mut self, consume: impl FnMut(LayerGating)) {
        let overlap = self.samples_per_iteration() >= OVERLAP_MIN_SAMPLES;
        self.stream_with(overlap, consume);
    }

    fn stream_with(&mut self, overlap: bool, mut consume: impl FnMut(LayerGating)) {
        if !overlap {
            self.for_each_layer(|gating| {
                consume(gating);
                ControlFlow::Continue(())
            });
            return;
        }
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::sync_channel(STREAM_DEPTH);
            // A failed send means the consumer unwound and dropped `rx`:
            // stop quietly so the consumer's panic is the one that surfaces.
            let producer = scope.spawn(move || {
                self.for_each_layer(|gating| match tx.send(gating) {
                    Ok(()) => ControlFlow::Continue(()),
                    Err(_) => ControlFlow::Break(()),
                });
            });
            rx.into_iter().for_each(&mut consume);
            if let Err(payload) = producer.join() {
                std::panic::resume_unwind(payload);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ModelConfig {
        ModelConfig::mixtral_8x22b() // small: 8 experts, top-2, 56 layers
    }

    #[test]
    fn selections_conserved() {
        let mut gen = TraceGenerator::new(&config(), WorkloadMix::Fixed(Scenario::Chat), 2, 64, 3);
        let trace = gen.next_iteration();
        for layer in &trace.layers {
            assert_eq!(layer.total_selections(), 2 * 64 * 2);
            assert_eq!(layer.num_groups(), 2);
        }
    }

    #[test]
    fn fixed_mix_weights() {
        let mix = WorkloadMix::Fixed(Scenario::Math);
        assert_eq!(mix.weights(100), vec![(Scenario::Math, 1.0)]);
    }

    #[test]
    fn cycling_weights_normalised_and_drift() {
        let mix = WorkloadMix::mixed(1000.0);
        let w0 = mix.weights(0);
        let w250 = mix.weights(250);
        let sum: f64 = w0.iter().map(|(_, w)| w).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // After a quarter period the dominant scenario rotates.
        let dom0 = w0
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        let dom250 = w250
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        assert_ne!(dom0, dom250);
    }

    #[test]
    fn cycling_weights_are_smooth() {
        let mix = WorkloadMix::mixed(1000.0);
        for it in 0..100 {
            let a = mix.weights(it);
            let b = mix.weights(it + 1);
            for (x, y) in a.iter().zip(&b) {
                assert!((x.1 - y.1).abs() < 0.02, "jump at iter {it}");
            }
        }
    }

    #[test]
    fn fixed_scenario_loads_stabilise() {
        // Paper Fig. 12: in a fixed scenario the per-expert load *ratios*
        // are stable across iterations (up to sampling noise).
        let mut gen =
            TraceGenerator::new(&config(), WorkloadMix::Fixed(Scenario::Math), 4, 256, 11);
        let a = gen.next_iteration().layers[0].expert_totals();
        let b = gen.next_iteration().layers[0].expert_totals();
        let total: u64 = a.iter().sum();
        for (x, y) in a.iter().zip(&b) {
            let fx = *x as f64 / total as f64;
            let fy = *y as f64 / total as f64;
            assert!((fx - fy).abs() < 0.05);
        }
    }

    #[test]
    fn uniform_gating_balances_expectation() {
        let mut gen =
            TraceGenerator::new(&config(), WorkloadMix::Fixed(Scenario::Math), 4, 256, 11)
                .with_uniform_gating();
        let totals = gen.next_iteration().layers[0].expert_totals();
        let mean = totals.iter().sum::<u64>() as f64 / totals.len() as f64;
        for &t in &totals {
            assert!((t as f64 - mean).abs() < 0.35 * mean, "{t} vs {mean}");
        }
    }

    /// The overlapped and the inline path of `stream_iteration` draw the
    /// same layers as `next_iteration`, and leave the RNG where it would
    /// have been: the call that follows them is identical too.
    #[test]
    fn streamed_iterations_match_next_iteration() {
        let seeded = TraceGenerator::new(&config(), WorkloadMix::mixed(7.0), 3, 48, 23);
        let mut reference = seeded.clone();
        let mut overlapped = seeded.clone();
        let mut inline = seeded;
        for _ in 0..5 {
            let want = reference.next_iteration().layers;
            let mut got_overlapped = Vec::new();
            overlapped.stream_with(true, |g| got_overlapped.push(g));
            let mut got_inline = Vec::new();
            inline.stream_with(false, |g| got_inline.push(g));
            assert_eq!(got_overlapped, want);
            assert_eq!(got_inline, want);
        }
        assert_eq!(overlapped.iteration(), reference.iteration());
        assert_eq!(inline.iteration(), reference.iteration());
        let next = reference.next_iteration();
        assert_eq!(overlapped.next_iteration(), next);
        assert_eq!(inline.next_iteration(), next);
    }

    #[test]
    fn overlap_threshold_splits_presets() {
        let mk = |config: &ModelConfig, groups| {
            TraceGenerator::new(config, WorkloadMix::mixed(40.0), groups, 256, 1)
                .samples_per_iteration()
        };
        assert!(mk(&ModelConfig::deepseek_v3(), 16) >= OVERLAP_MIN_SAMPLES);
        assert!(mk(&ModelConfig::tiny(), 1) < OVERLAP_MIN_SAMPLES);
    }

    /// A consumer panic surfaces as itself: the producer stops on its
    /// failed send instead of masking it.
    #[test]
    fn consumer_panic_surfaces_unchanged() {
        let mut gen = TraceGenerator::new(&config(), WorkloadMix::mixed(7.0), 3, 48, 23);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gen.stream_with(true, |_| panic!("consumer failed"));
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"consumer failed"));
    }

    #[test]
    fn trace_is_deterministic() {
        let mk = || {
            TraceGenerator::new(&config(), WorkloadMix::mixed(500.0), 2, 32, 17).next_iteration()
        };
        assert_eq!(mk(), mk());
    }
}
