//! Batch schedulers: prefill-only, decode-only, and hybrid serving.
//!
//! [`BatchScheduler`] couples a [`RequestGenerator`] arrival stream to the
//! request-level [`ServingQueue`](crate::serving::ServingQueue): arrivals up
//! to the current simulated time are offered to the queue, which composes
//! each iteration's [`BatchSpec`] with per-request token attribution and
//! tracks every request's lifecycle (see `crate::serving`).

use serde::{Deserialize, Serialize};

use moe_model::InferencePhase;

use crate::requests::{Request, RequestGenerator, RequestId};
use crate::serving::{ClassPolicy, InterruptedRequest, RequestRecord, ServingQueue};

/// Serving discipline (paper §VI-C): disaggregated prefill, disaggregated
/// decode, or Sarathi-style hybrid batches mixing a prefill chunk with
/// ongoing decodes.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum SchedulingMode {
    /// The platform serves only prompt processing.
    PrefillOnly,
    /// The platform serves only token generation.
    DecodeOnly,
    /// Chunked prefill mixed into decode batches.
    Hybrid,
}

impl SchedulingMode {
    /// KV tokens `request` must reserve against a serving queue's budget
    /// under this discipline — the single definition of the admission
    /// footprint, shared by [`ServingQueue`](crate::serving::ServingQueue)
    /// admission and router-side reject prediction
    /// ([`ReplicaSnapshot`](crate::router::ReplicaSnapshot)). The prefill
    /// tier hands the sequence off at first token, so it only ever holds
    /// the prompt's KV.
    pub fn kv_need(self, request: &Request) -> u64 {
        match self {
            SchedulingMode::PrefillOnly => request.input_len as u64,
            _ => request.input_len as u64 + request.output_len as u64,
        }
    }
}

impl std::fmt::Display for SchedulingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchedulingMode::PrefillOnly => "Prefill-only",
            SchedulingMode::DecodeOnly => "Decode-only",
            SchedulingMode::Hybrid => "Hybrid",
        };
        f.write_str(s)
    }
}

impl SchedulingMode {
    /// Stable lowercase name (`"prefill"` / `"decode"` / `"hybrid"`),
    /// matching the `FromStr` spelling and the scenario-spec JSON encoding
    /// (the capitalized [`Display`](std::fmt::Display) form is for
    /// human-readable reports).
    pub fn name(self) -> &'static str {
        match self {
            SchedulingMode::PrefillOnly => "prefill",
            SchedulingMode::DecodeOnly => "decode",
            SchedulingMode::Hybrid => "hybrid",
        }
    }
}

impl std::str::FromStr for SchedulingMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "prefill" | "prefill-only" => Ok(SchedulingMode::PrefillOnly),
            "decode" | "decode-only" => Ok(SchedulingMode::DecodeOnly),
            "hybrid" => Ok(SchedulingMode::Hybrid),
            other => Err(format!(
                "unknown scheduling mode {other:?} (expected \"prefill\", \
                 \"decode\", or \"hybrid\")"
            )),
        }
    }
}

/// Most arrivals one scheduling step will pull into a queue (or one fleet
/// synchronization round will route): bounds the work a burst — or an
/// extreme configured rate — can do before the simulation advances, while
/// the overflow stays in the generator and drains over subsequent steps.
pub const MAX_ARRIVALS_PER_PULL: usize = 10_000;

/// Per-request token attribution inside one scheduled iteration: which
/// request the tokens belong to, and how many of each kind it received.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BatchEntry {
    /// The request the tokens belong to.
    pub id: RequestId,
    /// Prompt tokens scheduled for this request this iteration (one chunk).
    pub prefill_tokens: u32,
    /// Output tokens scheduled for this request this iteration (0 or 1).
    pub decode_tokens: u32,
}

/// The shape of one scheduled iteration (per DP group), carrying both the
/// aggregate token counts the cost model prices and the per-request
/// attribution ([`BatchEntry`]) the serving metrics are derived from.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct BatchSpec {
    /// Prompt tokens processed this iteration.
    pub prefill_tokens: u32,
    /// Generation tokens processed this iteration (one per active request).
    pub decode_tokens: u32,
    /// Average attended context length across the batch.
    pub avg_context: f64,
    /// Dominant phase, used to select the roofline variant.
    pub phase: InferencePhase,
    /// Per-request token attribution (empty for an idle iteration). Entry
    /// token counts always sum to `prefill_tokens` / `decode_tokens`.
    pub requests: Vec<BatchEntry>,
}

impl BatchSpec {
    /// Total tokens entering the MoE layers this iteration.
    pub fn total_tokens(&self) -> u32 {
        self.prefill_tokens + self.decode_tokens
    }
}

/// A per-DP-group batch scheduler fed by a request generator.
///
/// Wraps a [`ServingQueue`] (admission, continuous batching, lifecycle
/// records) and pulls arrivals from the generator up to the scheduling
/// clock. Two clock styles are supported:
///
/// * [`BatchScheduler::next_batch`] — legacy fixed-period mode: every call
///   advances an internal horizon by `iteration_period` seconds.
/// * [`BatchScheduler::next_batch_at`] /
///   [`BatchScheduler::finish_iteration`] — engine-driven mode: the caller
///   advances simulated wall-clock time from each iteration's priced
///   duration, so per-request TTFT / TPOT / latency reflect the modeled
///   hardware speed.
#[derive(Clone, Debug)]
pub struct BatchScheduler {
    queue: ServingQueue,
    /// Arrival source. `None` for externally-fed schedulers (fleet
    /// replicas), whose arrivals are [`BatchScheduler::offer`]ed by a
    /// router instead of pulled from a generator.
    generator: Option<RequestGenerator>,
    /// First generated request not yet released to the queue (its arrival
    /// is beyond the clock).
    lookahead: Option<Request>,
    clock: f64,
    iteration_period: f64,
}

impl BatchScheduler {
    /// Creates a scheduler with an unbounded KV budget.
    ///
    /// * `max_batch_tokens` — per-iteration token budget per DP group.
    /// * `max_active` — concurrent resident sequences per DP group.
    /// * `iteration_period` — wall-clock seconds per iteration in the
    ///   legacy fixed-period mode (engine-driven callers pass explicit
    ///   times to [`BatchScheduler::next_batch_at`] instead).
    ///
    /// # Panics
    ///
    /// Panics if any budget is zero or the period is non-positive.
    pub fn new(
        mode: SchedulingMode,
        max_batch_tokens: u32,
        max_active: usize,
        iteration_period: f64,
        generator: RequestGenerator,
    ) -> Self {
        // Internal invariant: configured periods are rejected as typed
        // errors by the engine's config validation before they get here.
        assert!(iteration_period > 0.0, "period must be positive");
        BatchScheduler {
            queue: ServingQueue::new(mode, max_batch_tokens, max_active, u64::MAX),
            generator: Some(generator),
            lookahead: None,
            clock: 0.0,
            iteration_period,
        }
    }

    /// Creates an externally-fed scheduler (no arrival generator): requests
    /// enter only through [`BatchScheduler::offer`]. This is the fleet
    /// deployment shape, where a front-end router owns the global arrival
    /// stream and dispatches requests to replica schedulers.
    ///
    /// # Panics
    ///
    /// Panics if any budget is zero.
    pub fn external(mode: SchedulingMode, max_batch_tokens: u32, max_active: usize) -> Self {
        BatchScheduler {
            queue: ServingQueue::new(mode, max_batch_tokens, max_active, u64::MAX),
            generator: None,
            lookahead: None,
            clock: 0.0,
            iteration_period: 1.0,
        }
    }

    /// Feeds one routed arrival to the queue. Requests must be offered in
    /// non-decreasing arrival order (see [`ServingQueue::offer`]).
    pub fn offer(&mut self, request: Request) {
        self.queue.offer(request);
    }

    /// Bounds the KV-token budget gating admission (builder style). See
    /// [`ServingQueue::new`].
    ///
    /// # Panics
    ///
    /// Panics if any scheduling has already happened — the queue is rebuilt,
    /// so changing the budget mid-run would silently discard resident
    /// requests and lifecycle records.
    pub fn with_kv_budget(mut self, kv_budget_tokens: u64) -> Self {
        assert!(
            self.clock == 0.0
                && self.queue.num_active() == 0
                && self.queue.queue_depth() == 0
                && self.queue.completed().is_empty(),
            "with_kv_budget must be called before scheduling starts"
        );
        let (mode, tokens, active) = (
            self.queue.mode(),
            self.max_batch_tokens(),
            self.max_active(),
        );
        // The rebuild must carry the class policy, or a policy set before
        // the KV budget would silently vanish.
        let policy = self.queue.class_policy();
        self.queue =
            ServingQueue::new(mode, tokens, active, kv_budget_tokens).with_class_policy(policy);
        self
    }

    /// Sets the per-class admission policy (builder style). See
    /// [`ServingQueue::with_class_policy`].
    ///
    /// # Panics
    ///
    /// Panics if any scheduling has already happened.
    pub fn with_class_policy(mut self, policy: ClassPolicy) -> Self {
        assert!(
            self.clock == 0.0
                && self.queue.num_active() == 0
                && self.queue.queue_depth() == 0
                && self.queue.completed().is_empty(),
            "with_class_policy must be called before scheduling starts"
        );
        self.queue = self.queue.with_class_policy(policy);
        self
    }

    fn max_batch_tokens(&self) -> u32 {
        // The queue is the single owner of the budgets; recover them for
        // the builder without duplicating state.
        self.queue_budget().0
    }

    fn max_active(&self) -> usize {
        self.queue_budget().1
    }

    fn queue_budget(&self) -> (u32, usize) {
        (self.queue.max_batch_tokens(), self.queue.max_active())
    }

    /// The scheduling mode.
    pub fn mode(&self) -> SchedulingMode {
        self.queue.mode()
    }

    /// Number of sequences currently admitted (prefilling or decoding).
    pub fn num_active(&self) -> usize {
        self.queue.num_active()
    }

    /// The underlying serving queue (lifecycle records, KV accounting).
    pub fn queue(&self) -> &ServingQueue {
        &self.queue
    }

    /// Removes and returns the completed-request records.
    pub fn drain_completed(&mut self) -> Vec<RequestRecord> {
        self.queue.drain_completed()
    }

    /// Removes and returns every not-yet-admitted request (drain/crash
    /// re-routing; see [`ServingQueue::evict_waiting`]).
    pub fn evict_waiting(&mut self) -> Vec<Request> {
        self.queue.evict_waiting()
    }

    /// Removes and returns every resident request with its lost progress
    /// (replica crash; see [`ServingQueue::evict_resident`]).
    pub fn evict_resident(&mut self) -> Vec<InterruptedRequest> {
        self.queue.evict_resident()
    }

    /// Cancels one request by id — the speculative-race loser path (see
    /// [`ServingQueue::cancel_request`]). Returns whether a copy was found.
    pub fn cancel_request(&mut self, id: crate::requests::RequestId) -> bool {
        self.queue.cancel_request(id)
    }

    /// Pulls generated arrivals with `arrival <= now` into the queue.
    /// A no-op for externally-fed schedulers.
    fn pull_arrivals(&mut self, now: f64) {
        let Some(generator) = self.generator.as_mut() else {
            return;
        };
        if let Some(r) = self.lookahead.take() {
            if r.arrival <= now {
                self.queue.offer(r);
            } else {
                self.lookahead = Some(r);
                return;
            }
        }
        // Bound the pull so a burst cannot stall the simulation.
        for _ in 0..MAX_ARRIVALS_PER_PULL {
            // A replayed trace is finite: once exhausted, nothing more to
            // pull, ever.
            let Some(r) = generator.next_request() else {
                break;
            };
            if r.arrival > now {
                self.lookahead = Some(r);
                break;
            }
            self.queue.offer(r);
        }
    }

    /// Schedules the next iteration in legacy fixed-period mode: the clock
    /// advances by `iteration_period` and any previous iteration is closed
    /// at the new time.
    pub fn next_batch(&mut self) -> BatchSpec {
        let now = self.clock + self.iteration_period;
        self.next_batch_at(now)
    }

    /// Schedules the iteration starting at simulated time `now` (must not
    /// go backwards). An unclosed previous iteration is finished at `now`.
    pub fn next_batch_at(&mut self, now: f64) -> BatchSpec {
        self.clock = self.clock.max(now);
        self.pull_arrivals(self.clock);
        self.queue.next_batch(self.clock)
    }

    /// Closes the in-flight iteration at simulated time `end`, stamping
    /// first-token and completion events (see
    /// [`ServingQueue::finish_iteration`]).
    pub fn finish_iteration(&mut self, end: f64) {
        self.clock = self.clock.max(end);
        self.queue.finish_iteration(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requests::ArrivalProcess;
    use crate::scenario::Scenario;

    fn generator(rate: f64, seed: u64) -> RequestGenerator {
        RequestGenerator::new(
            ArrivalProcess::new(rate, 0.0, 60.0, seed),
            vec![(Scenario::Chat, 1.0), (Scenario::Math, 1.0)],
            seed,
        )
    }

    #[test]
    fn prefill_only_never_decodes() {
        let mut s = BatchScheduler::new(
            SchedulingMode::PrefillOnly,
            4096,
            64,
            0.05,
            generator(100.0, 1),
        );
        for _ in 0..50 {
            let b = s.next_batch();
            assert_eq!(b.decode_tokens, 0);
        }
    }

    #[test]
    fn decode_only_never_prefills() {
        let mut s = BatchScheduler::new(
            SchedulingMode::DecodeOnly,
            4096,
            64,
            0.05,
            generator(100.0, 2),
        );
        let mut saw_decode = false;
        for _ in 0..50 {
            let b = s.next_batch();
            assert_eq!(b.prefill_tokens, 0);
            saw_decode |= b.decode_tokens > 0;
        }
        assert!(saw_decode);
    }

    #[test]
    fn decode_reaches_active_cap_under_load() {
        let mut s = BatchScheduler::new(
            SchedulingMode::DecodeOnly,
            4096,
            32,
            0.05,
            generator(500.0, 3),
        );
        for _ in 0..100 {
            s.next_batch();
        }
        assert_eq!(s.num_active(), 32);
        let b = s.next_batch();
        assert_eq!(b.decode_tokens, 32);
        assert!(b.avg_context > 0.0);
    }

    #[test]
    fn hybrid_mixes_both() {
        let mut s =
            BatchScheduler::new(SchedulingMode::Hybrid, 2048, 64, 0.05, generator(300.0, 4));
        let mut saw_both = false;
        for _ in 0..100 {
            let b = s.next_batch();
            if b.prefill_tokens > 0 && b.decode_tokens > 0 {
                saw_both = true;
            }
        }
        assert!(saw_both, "hybrid never produced a mixed batch");
    }

    #[test]
    fn contexts_grow_during_decode() {
        let mut s = BatchScheduler::new(
            SchedulingMode::DecodeOnly,
            4096,
            8,
            0.05,
            generator(500.0, 5),
        );
        for _ in 0..20 {
            s.next_batch();
        }
        let early = s.next_batch().avg_context;
        for _ in 0..200 {
            s.next_batch();
        }
        let late = s.next_batch().avg_context;
        assert!(late > early, "context should grow: {early} -> {late}");
    }

    #[test]
    fn entries_sum_to_totals_and_requests_complete() {
        let mut s =
            BatchScheduler::new(SchedulingMode::Hybrid, 2048, 64, 0.05, generator(200.0, 6));
        for _ in 0..400 {
            let b = s.next_batch();
            let (p, d) = b.requests.iter().fold((0u32, 0u32), |(p, d), e| {
                (p + e.prefill_tokens, d + e.decode_tokens)
            });
            assert_eq!((p, d), (b.prefill_tokens, b.decode_tokens));
        }
        let records = s.drain_completed();
        assert!(!records.is_empty(), "no request finished in 400 iterations");
        for r in &records {
            assert_eq!(r.prefill_scheduled, r.input_len);
            assert_eq!(r.decode_scheduled, r.output_len);
            assert!(r.ttft() > 0.0 && r.ttft() <= r.e2e_latency());
        }
    }

    #[test]
    fn engine_driven_clock_stamps_priced_durations() {
        let mut s = BatchScheduler::new(
            SchedulingMode::DecodeOnly,
            4096,
            16,
            0.05,
            generator(400.0, 7),
        );
        let mut now = 0.0;
        for _ in 0..200 {
            s.next_batch_at(now);
            now += 0.125; // "priced" iteration duration
            s.finish_iteration(now);
        }
        let records = s.drain_completed();
        assert!(!records.is_empty());
        for r in &records {
            // Completions land exactly on iteration boundaries.
            let steps = r.finish / 0.125;
            assert!((steps - steps.round()).abs() < 1e-9, "{}", r.finish);
            assert!(r.first_token <= r.finish);
        }
    }
}
