//! The discrete-event flow simulator.

use wsc_topology::{LinkId, Topology};

use crate::fairshare::{max_min_rates, IncrementalMaxMin};
use crate::flow::FlowSpec;
use crate::stats::LinkStats;

/// Bytes below which a flow is considered fully drained (guards against
/// floating-point residue).
const EPS_BYTES: f64 = 1e-6;
/// Seconds below which two event times are considered simultaneous.
const EPS_TIME: f64 = 1e-15;

/// Result of simulating a set of flows.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Time at which the last flow completed, seconds.
    pub total_time: f64,
    /// Completion time of each flow, in submission order.
    pub completion_times: Vec<f64>,
    /// Per-link traffic over the run.
    pub stats: LinkStats,
}

/// Flow-level discrete-event network simulator over a fixed topology.
///
/// Flows become *active* after their submission time plus the summed per-hop
/// latency of their route; active flows drain at max-min fair rates,
/// re-allocated whenever any flow starts or finishes.
///
/// The hot path is event-driven end to end: rate re-allocation runs on the
/// incremental [`IncrementalMaxMin`] allocator (each arrival/completion
/// reprices only the touched connected component of the contention graph),
/// drain state is settled lazily so an event updates only the repriced
/// component rather than every active flow, and per-link traffic/busy
/// statistics are charged once per flow at completion instead of per event.
/// Routes are copied once into the allocator's flat CSR store — no
/// per-event route cloning.
///
/// [`NetworkSim::use_reference_allocator`] switches to the PR-1
/// full-recompute loop — [`max_min_rates`] over freshly cloned routes, a
/// full drain and horizon scan on every event — kept for differential tests
/// and before/after benchmarks.
///
/// See the [crate-level documentation](crate) for the modelling rationale.
#[derive(Debug)]
pub struct NetworkSim<'a> {
    topo: &'a Topology,
    reference: bool,
}

/// Scratch of one DES run: the fair-share allocator, the per-flow inputs and
/// drain state, the pending-activation order, and the per-link statistics.
///
/// [`NetworkSim`] builds a fresh workspace per run; a pricing backend that
/// runs many small simulations over one topology keeps a single workspace
/// and reloads it, so repeated runs allocate nothing once the buffers have
/// grown to the largest flow set seen. A reloaded workspace computes
/// exactly what a fresh one does: every buffer is cleared or refilled
/// before use, and only capacities carry over.
#[derive(Debug)]
pub(crate) struct DesWorkspace {
    alloc: IncrementalMaxMin,
    bytes: Vec<f64>,
    activations: Vec<f64>,
    /// Flow ids by activation time, ties by submission index.
    pending: Vec<u32>,
    link_scratch: Vec<u32>,
    // Per-flow drain state of the incremental loop, settled lazily on rate
    // changes; `finish[f]` is exact while `f`'s rate is unchanged.
    remaining: Vec<f64>,
    cur_rate: Vec<f64>,
    last_update: Vec<f64>,
    start_time: Vec<f64>,
    finish: Vec<f64>,
    active: Vec<u32>,
    /// Completion time of each flow of the last run.
    completion_times: Vec<f64>,
    /// Per-link traffic of the last run.
    stats: LinkStats,
}

impl<'a> NetworkSim<'a> {
    /// Creates a simulator over `topo`.
    pub fn new(topo: &'a Topology) -> Self {
        NetworkSim {
            topo,
            reference: false,
        }
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// Switches rate allocation to the full-recompute [`max_min_rates`]
    /// oracle with per-event route cloning, full drains, and full horizon
    /// scans (the pre-incremental hot path). Orders of magnitude slower on
    /// contended schedules; exists so benchmarks can measure the incremental
    /// speedup and tests can cross-check the two paths on identical event
    /// sequences.
    pub fn use_reference_allocator(&mut self, yes: bool) -> &mut Self {
        self.reference = yes;
        self
    }

    /// Runs all `flows` starting at time zero and returns when the last
    /// completes.
    pub fn run_concurrent(&mut self, flows: &[FlowSpec]) -> RunResult {
        self.run_paths(flows.iter().map(|f| (0.0, f.bytes, f.route.links())))
    }

    /// Runs flows with explicit submission times (seconds).
    ///
    /// # Panics
    ///
    /// Panics if any submission time is negative or not finite.
    pub fn run_at(&mut self, flows: &[(f64, FlowSpec)]) -> RunResult {
        self.run_paths(
            flows
                .iter()
                .map(|(start, spec)| (*start, spec.bytes, spec.route.links())),
        )
    }

    /// Low-level entry point: runs `(submission time, bytes, route links)`
    /// triples borrowed from anywhere — `FlowSpec`s, a CSR
    /// [`RouteTable`](wsc_topology::RouteTable), or a transfer list — with
    /// no per-flow route allocation.
    ///
    /// # Panics
    ///
    /// Panics if any submission time is negative or not finite.
    pub fn run_paths<'r>(
        &mut self,
        flows: impl IntoIterator<Item = (f64, f64, &'r [LinkId])>,
    ) -> RunResult {
        let mut ws = DesWorkspace::new(self.topo);
        ws.load(self.topo, flows);
        if self.reference {
            ws.run_reference()
        } else {
            ws.run_incremental();
            ws.into_result()
        }
    }
}

impl DesWorkspace {
    /// An empty workspace over `topo`'s links.
    pub(crate) fn new(topo: &Topology) -> Self {
        let capacities: Vec<f64> = topo.links().iter().map(|l| l.bandwidth).collect();
        DesWorkspace {
            alloc: IncrementalMaxMin::new(capacities),
            bytes: Vec::new(),
            activations: Vec::new(),
            pending: Vec::new(),
            link_scratch: Vec::new(),
            remaining: Vec::new(),
            cur_rate: Vec::new(),
            last_update: Vec::new(),
            start_time: Vec::new(),
            finish: Vec::new(),
            active: Vec::new(),
            completion_times: Vec::new(),
            stats: LinkStats::new(topo.num_links()),
        }
    }

    /// Replaces the loaded flows with `(submission time, bytes, route
    /// links)` triples over `topo` (the topology the workspace was built
    /// for).
    ///
    /// # Panics
    ///
    /// Panics if any submission time is negative or not finite.
    pub(crate) fn load<'r>(
        &mut self,
        topo: &Topology,
        flows: impl IntoIterator<Item = (f64, f64, &'r [LinkId])>,
    ) {
        self.alloc.clear_flows();
        self.bytes.clear();
        self.activations.clear();
        for (start, payload, links) in flows {
            assert!(
                start.is_finite() && start >= 0.0,
                "submission time must be non-negative, got {start}"
            );
            self.link_scratch.clear();
            self.link_scratch.extend(links.iter().map(|l| l.0));
            self.alloc.register(&self.link_scratch);
            self.bytes.push(payload);
            self.activations.push(start + topo.path_latency(links));
        }
    }

    /// Per-link bytes carried in the last run.
    pub(crate) fn link_bytes(&self) -> &[f64] {
        &self.stats.bytes
    }

    /// Sorts the loaded flows into pending-activation order: by activation
    /// time, ties by submission index. The order is total, so the unstable
    /// (allocation-free) sort gives the same permutation as a stable one.
    fn order_pending(&mut self) {
        let activations = &self.activations;
        self.pending.clear();
        self.pending.extend(0..activations.len() as u32);
        self.pending.sort_unstable_by(|&a, &b| {
            activations[a as usize]
                .partial_cmp(&activations[b as usize])
                .expect("activation times are finite")
                .then(a.cmp(&b))
        });
    }

    /// The incremental event loop over the loaded flows; returns the time
    /// the last flow completed and leaves the per-flow completion times and
    /// per-link statistics in the workspace. Rate repricing and drain
    /// settling touch only the repriced component; the next event comes
    /// from a linear minimum scan over the per-flow predicted finish times
    /// (branch-free and allocation-free — cheaper in practice than
    /// maintaining a heap that large components would flood with stale
    /// entries).
    pub(crate) fn run_incremental(&mut self) -> f64 {
        self.order_pending();
        let DesWorkspace {
            alloc,
            bytes,
            activations,
            pending,
            link_scratch: _,
            remaining,
            cur_rate,
            last_update,
            start_time,
            finish,
            active,
            completion_times,
            stats,
        } = self;
        let num_flows = bytes.len();
        stats.bytes.fill(0.0);
        stats.busy_time.fill(0.0);
        completion_times.clear();
        completion_times.resize(num_flows, 0.0);
        remaining.clear();
        remaining.extend_from_slice(bytes);
        for v in [&mut *cur_rate, &mut *last_update, &mut *start_time] {
            v.clear();
            v.resize(num_flows, 0.0);
        }
        finish.clear();
        finish.resize(num_flows, f64::INFINITY);
        active.clear();
        let mut next_pending = 0usize;

        let mut now;
        let mut last_completion = 0.0_f64;

        loop {
            // Next event: the earliest predicted finish or activation.
            let mut horizon = f64::INFINITY;
            for &f in active.iter() {
                horizon = horizon.min(finish[f as usize]);
            }
            let next_act =
                (next_pending < pending.len()).then(|| activations[pending[next_pending] as usize]);
            now = match next_act {
                Some(a) => horizon.min(a),
                None if horizon.is_finite() => horizon,
                None => break,
            };

            let mut changed = false;

            // Activations due at or before `now`.
            while next_pending < pending.len()
                && activations[pending[next_pending] as usize] <= now + EPS_TIME
            {
                let idx = pending[next_pending];
                next_pending += 1;
                let f = idx as usize;
                let at = activations[f];
                if alloc.route_links_of(idx).is_empty() || bytes[f] <= EPS_BYTES {
                    // Local copies and empty flows complete instantly.
                    completion_times[f] = at.max(now);
                    last_completion = last_completion.max(completion_times[f]);
                } else {
                    alloc.activate(idx);
                    start_time[f] = now;
                    last_update[f] = now;
                    cur_rate[f] = 0.0;
                    finish[f] = f64::INFINITY;
                    active.push(idx);
                    changed = true;
                }
            }

            // Completions due at or before `now`.
            let mut i = 0;
            while i < active.len() {
                let idx = active[i];
                let f = idx as usize;
                if finish[f] > now + EPS_TIME {
                    i += 1;
                    continue;
                }
                // Settle the drain since the last rate change.
                let moved = (cur_rate[f] * (now - last_update[f])).min(remaining[f]);
                remaining[f] -= moved;
                last_update[f] = now;
                if remaining[f] > EPS_BYTES {
                    // Floating-point residue: correct the prediction.
                    finish[f] = now + remaining[f] / cur_rate[f];
                    i += 1;
                    continue;
                }
                // Complete: charge stats once for the whole active interval.
                active.swap_remove(i);
                alloc.deactivate(idx);
                let busy = now - start_time[f];
                for &l in alloc.route_links_of(idx) {
                    stats.bytes[l as usize] += bytes[f];
                    stats.busy_time[l as usize] += busy;
                }
                completion_times[f] = now;
                last_completion = last_completion.max(now);
                changed = true;
            }

            if changed {
                // Reprice the touched component(s) and refresh exactly the
                // repriced flows' drain state and predicted finishes.
                alloc.rebalance();
                for &idx in alloc.last_component_flows() {
                    let f = idx as usize;
                    let moved = (cur_rate[f] * (now - last_update[f])).min(remaining[f]);
                    remaining[f] -= moved;
                    last_update[f] = now;
                    cur_rate[f] = alloc.rate(idx);
                    finish[f] = now + remaining[f] / cur_rate[f];
                }
            }

            if active.is_empty() && next_pending >= pending.len() {
                break;
            }
        }

        stats.duration = last_completion;
        last_completion
    }

    /// Moves the last run's outputs into a [`RunResult`].
    fn into_result(self) -> RunResult {
        RunResult {
            total_time: self.stats.duration,
            completion_times: self.completion_times,
            stats: self.stats,
        }
    }

    /// The PR-1 reference loop: full water-filling over freshly cloned
    /// routes, a full horizon scan, and a full per-event drain.
    fn run_reference(&mut self) -> RunResult {
        self.order_pending();
        let DesWorkspace {
            alloc,
            bytes,
            activations,
            pending,
            ..
        } = self;
        let num_flows = bytes.len();
        let mut stats = LinkStats::new(alloc.num_links());
        let mut completion_times = vec![0.0_f64; num_flows];
        let mut next_pending = 0usize;
        let capacities = alloc.capacities().to_vec();

        let mut active: Vec<u32> = Vec::new();
        let mut remaining = bytes.clone();
        let mut now = 0.0_f64;
        let mut last_completion = 0.0_f64;

        loop {
            while next_pending < pending.len()
                && activations[pending[next_pending] as usize] <= now + EPS_TIME
            {
                let idx = pending[next_pending];
                next_pending += 1;
                let f = idx as usize;
                let at = activations[f];
                if alloc.route_links_of(idx).is_empty() || bytes[f] <= EPS_BYTES {
                    completion_times[f] = at.max(now);
                    last_completion = last_completion.max(completion_times[f]);
                } else {
                    active.push(idx);
                }
            }

            if active.is_empty() {
                if next_pending >= pending.len() {
                    break;
                }
                now = activations[pending[next_pending] as usize];
                continue;
            }

            // Full recompute over per-event route clones (the PR-1 cost).
            let routes: Vec<Vec<usize>> = active
                .iter()
                .map(|&f| {
                    alloc
                        .route_links_of(f)
                        .iter()
                        .map(|&l| l as usize)
                        .collect()
                })
                .collect();
            let rates = max_min_rates(&routes, &capacities);

            let mut horizon = f64::INFINITY;
            for (&f, &rate) in active.iter().zip(&rates) {
                let t = if rate.is_infinite() {
                    now
                } else {
                    now + remaining[f as usize] / rate
                };
                horizon = horizon.min(t);
            }
            if next_pending < pending.len() {
                horizon = horizon.min(activations[pending[next_pending] as usize]);
            }
            let dt = (horizon - now).max(0.0);

            for (&f, &rate) in active.iter().zip(&rates) {
                let moved = if rate.is_infinite() {
                    remaining[f as usize]
                } else {
                    (rate * dt).min(remaining[f as usize])
                };
                remaining[f as usize] -= moved;
                for &l in alloc.route_links_of(f) {
                    stats.bytes[l as usize] += moved;
                    if rate > 0.0 && dt > 0.0 {
                        stats.busy_time[l as usize] += dt;
                    }
                }
            }
            now = horizon;

            let mut i = 0;
            while i < active.len() {
                let f = active[i];
                if remaining[f as usize] <= EPS_BYTES {
                    active.swap_remove(i);
                    completion_times[f as usize] = now;
                    last_completion = last_completion.max(now);
                } else {
                    i += 1;
                }
            }
        }

        stats.duration = last_completion;
        RunResult {
            total_time: last_completion,
            completion_times,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_topology::{Mesh, PlatformParams};

    fn mesh4() -> Topology {
        Mesh::new(4, PlatformParams::dojo_like()).build()
    }

    #[test]
    fn single_flow_matches_closed_form() {
        let topo = mesh4();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(3, 0).unwrap();
        let route = topo.route(a, b);
        let bytes = 1.0e9;
        let mut sim = NetworkSim::new(&topo);
        let result = sim.run_concurrent(&[FlowSpec::new(route.clone(), bytes)]);
        let expect = topo.route_latency(&route) + bytes / topo.route_bandwidth(&route);
        assert!((result.total_time - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn two_flows_share_a_link() {
        let topo = mesh4();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let route = topo.route(a, b);
        let mut sim = NetworkSim::new(&topo);
        let result = sim.run_concurrent(&[
            FlowSpec::new(route.clone(), 4.0e9),
            FlowSpec::new(route.clone(), 4.0e9),
        ]);
        // Shared 4 TB/s link: 8 GB total over it, plus one hop latency.
        let expect = 8.0e9 / 4.0e12 + 50e-9;
        assert!((result.total_time - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let topo = mesh4();
        let mut sim = NetworkSim::new(&topo);
        let r1 = topo.route(
            topo.device_at_xy(0, 0).unwrap(),
            topo.device_at_xy(1, 0).unwrap(),
        );
        let r2 = topo.route(
            topo.device_at_xy(0, 3).unwrap(),
            topo.device_at_xy(1, 3).unwrap(),
        );
        let solo = sim.run_concurrent(&[FlowSpec::new(r1.clone(), 1.0e9)]);
        let both = sim.run_concurrent(&[FlowSpec::new(r1, 1.0e9), FlowSpec::new(r2, 1.0e9)]);
        assert!((solo.total_time - both.total_time).abs() < 1e-12);
    }

    #[test]
    fn local_flow_is_instant() {
        let topo = mesh4();
        let a = topo.device_at_xy(0, 0).unwrap();
        let mut sim = NetworkSim::new(&topo);
        let result = sim.run_concurrent(&[FlowSpec::new(topo.route(a, a), 1.0e12)]);
        assert_eq!(result.total_time, 0.0);
    }

    #[test]
    fn staggered_start_times() {
        let topo = mesh4();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let route = topo.route(a, b);
        let mut sim = NetworkSim::new(&topo);
        // Second flow starts after the first finishes: no sharing.
        let first_time = 50e-9 + 4.0e9 / 4.0e12;
        let result = sim.run_at(&[
            (0.0, FlowSpec::new(route.clone(), 4.0e9)),
            (first_time, FlowSpec::new(route.clone(), 4.0e9)),
        ]);
        let expect = first_time * 2.0;
        assert!((result.total_time - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn completion_times_reported_per_flow() {
        let topo = mesh4();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let c = topo.device_at_xy(2, 0).unwrap();
        let mut sim = NetworkSim::new(&topo);
        let result = sim.run_concurrent(&[
            FlowSpec::new(topo.route(a, b), 4.0e9),
            FlowSpec::new(topo.route(a, c), 4.0e9),
        ]);
        // Flow 0 shares its single link with flow 1, so both drain that link
        // at 2 TB/s initially; flow 0 finishes, then flow 1 continues alone.
        assert!(result.completion_times[0] < result.completion_times[1]);
        assert_eq!(result.total_time, result.completion_times[1]);
    }

    #[test]
    fn link_stats_account_all_bytes() {
        let topo = mesh4();
        let a = topo.device_at_xy(0, 0).unwrap();
        let c = topo.device_at_xy(2, 0).unwrap();
        let mut sim = NetworkSim::new(&topo);
        let bytes = 3.0e9;
        let result = sim.run_concurrent(&[FlowSpec::new(topo.route(a, c), bytes)]);
        let total: f64 = result.stats.bytes.iter().sum();
        // Two hops → bytes counted on two links.
        assert!((total - 2.0 * bytes).abs() < 1.0);
    }

    #[test]
    fn busy_time_spans_the_active_interval() {
        let topo = mesh4();
        let a = topo.device_at_xy(0, 0).unwrap();
        let b = topo.device_at_xy(1, 0).unwrap();
        let route = topo.route(a, b);
        let link = route.links()[0];
        let mut sim = NetworkSim::new(&topo);
        let result = sim.run_concurrent(&[FlowSpec::new(route.clone(), 4.0e9)]);
        let active = 4.0e9 / 4.0e12;
        assert!(
            (result.stats.busy_time[link.index()] - active).abs() / active < 1e-9,
            "busy {} vs active interval {}",
            result.stats.busy_time[link.index()],
            active
        );
    }

    /// Differential contract: the incremental event loop reproduces the
    /// full-recompute reference loop on a contended mixed-arrival schedule.
    #[test]
    fn incremental_matches_reference_allocator() {
        let topo = mesh4();
        let a = topo.device_at_xy(0, 0).unwrap();
        let flows: Vec<(f64, FlowSpec)> = topo
            .devices()
            .filter(|&d| d != a)
            .enumerate()
            .map(|(i, d)| {
                let stagger = (i % 4) as f64 * 2.0e-4;
                (
                    stagger,
                    FlowSpec::new(topo.route(a, d), 1.0e8 * (1 + i % 3) as f64),
                )
            })
            .collect();
        let fast = NetworkSim::new(&topo).run_at(&flows);
        let mut ref_sim = NetworkSim::new(&topo);
        ref_sim.use_reference_allocator(true);
        let slow = ref_sim.run_at(&flows);
        assert!(
            (fast.total_time - slow.total_time).abs() / slow.total_time < 1e-9,
            "incremental {} vs reference {}",
            fast.total_time,
            slow.total_time
        );
        for (f, (x, y)) in fast
            .completion_times
            .iter()
            .zip(&slow.completion_times)
            .enumerate()
        {
            assert!((x - y).abs() / y.max(1e-30) < 1e-9, "flow {f}: {x} vs {y}");
        }
        for (l, (x, y)) in fast.stats.bytes.iter().zip(&slow.stats.bytes).enumerate() {
            assert!((x - y).abs() < 1.0, "link {l} bytes: {x} vs {y}");
        }
    }
}
