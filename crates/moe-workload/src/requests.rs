//! Request generation: length profiles, arrival processes, and the
//! profile-driven request generator (sampled or trace replay).

use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::profile::{
    validate_classes, ArrivalSpec, Phase, RequestClass, WorkloadError, WorkloadProfile,
};
use crate::scenario::Scenario;

/// Identity of one inference request, stable across its whole lifecycle
/// (arrival → admission → prefill → decode → completion).
///
/// Ids are opaque labels: the serving layer's batch composition is invariant
/// under relabeling (see the serving property tests), they exist so that
/// per-request token attribution and latency records can be joined.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A single inference request.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Request {
    /// Stable request identity.
    pub id: RequestId,
    /// Scenario this request belongs to.
    pub scenario: Scenario,
    /// Tenant class (SLO tier) this request is served under.
    pub class: RequestClass,
    /// Prompt length in tokens.
    pub input_len: u32,
    /// Output (generation) length in tokens.
    pub output_len: u32,
    /// Arrival time in seconds since the start of the trace.
    pub arrival: f64,
}

/// Log-normal-ish token length profile for one scenario.
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct LengthProfile {
    /// Median prompt length, tokens.
    pub input_median: f64,
    /// Median output length, tokens.
    pub output_median: f64,
    /// Log-space standard deviation.
    pub sigma: f64,
}

impl LengthProfile {
    /// The length profile for a scenario, qualitatively matching the
    /// benchmark suites the paper profiles: chat is short/medium, coding is
    /// long-in/medium-out, math is medium-in/long-out (chain-of-thought),
    /// privacy probes are short/short.
    pub fn for_scenario(scenario: Scenario) -> Self {
        match scenario {
            Scenario::Chat => LengthProfile {
                input_median: 512.0,
                output_median: 256.0,
                sigma: 0.6,
            },
            Scenario::Coding => LengthProfile {
                input_median: 2048.0,
                output_median: 512.0,
                sigma: 0.5,
            },
            Scenario::Math => LengthProfile {
                input_median: 768.0,
                output_median: 2048.0,
                sigma: 0.5,
            },
            Scenario::Privacy => LengthProfile {
                input_median: 384.0,
                output_median: 128.0,
                sigma: 0.4,
            },
        }
    }
}

/// The time-varying rate shape of a sampled arrival process.
#[derive(Clone, Debug)]
enum RateShape {
    /// `base_rate × (1 + amplitude·sin(2πt/period))`.
    Diurnal { amplitude: f64, period: f64 },
    /// Piecewise-constant factors over a cycling phase schedule.
    Phases {
        phases: Vec<Phase>,
        /// Sum of phase durations (one full cycle).
        cycle: f64,
        /// Largest rate factor (the thinning ceiling).
        peak_factor: f64,
    },
}

/// Time-varying Poisson arrival process, sampled by thinning.
///
/// The default shape is an Azure-like diurnal cycle with instantaneous
/// rate `base_rate × (1 + amplitude·sin(2πt/period))`; piecewise-constant
/// phase schedules (bursts, spikes, ramps) use the same thinning sampler
/// against the peak phase rate. All draws are seeded.
#[derive(Clone, Debug)]
pub struct ArrivalProcess {
    base_rate: f64,
    shape: RateShape,
    rng: rand::rngs::StdRng,
    now: f64,
}

impl ArrivalProcess {
    /// Creates a diurnal process with `base_rate` requests/second, diurnal
    /// `amplitude` in `[0, 1)`, and cycle `period` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `base_rate <= 0`, `period <= 0`, or `amplitude` is outside
    /// `[0, 1)` — the panicking wrapper of [`ArrivalProcess::try_new`].
    pub fn new(base_rate: f64, amplitude: f64, period: f64, seed: u64) -> Self {
        Self::try_new(base_rate, amplitude, period, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible diurnal constructor: reports bad rate/amplitude/period as
    /// typed [`WorkloadError`]s instead of panicking.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::NonPositiveRate`], [`WorkloadError::UnderflowingRate`],
    /// [`WorkloadError::NonPositivePeriod`], or
    /// [`WorkloadError::AmplitudeOutOfRange`].
    pub fn try_new(
        base_rate: f64,
        amplitude: f64,
        period: f64,
        seed: u64,
    ) -> Result<Self, WorkloadError> {
        check_rate(base_rate)?;
        ArrivalSpec::Diurnal { amplitude, period }.validate()?;
        Ok(ArrivalProcess {
            base_rate,
            shape: RateShape::Diurnal { amplitude, period },
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            now: 0.0,
        })
    }

    /// Fallible phase-schedule constructor: the phase list cycles, each
    /// phase multiplying `base_rate` by its factor.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::NonPositiveRate`], [`WorkloadError::UnderflowingRate`]
    /// (also for an underflowing peak phase rate), or any phase-list
    /// violation from [`validate_phases`](crate::profile::validate_phases).
    pub fn try_with_phases(
        base_rate: f64,
        phases: Vec<Phase>,
        seed: u64,
    ) -> Result<Self, WorkloadError> {
        check_rate(base_rate)?;
        crate::profile::validate_phases(&phases)?;
        let cycle: f64 = phases.iter().map(|p| p.duration).sum();
        let peak_factor = phases.iter().map(|p| p.rate_factor).fold(0.0, f64::max);
        // The thinning ceiling is the peak phase rate, which can underflow
        // even when the base rate does not.
        let peak = base_rate * peak_factor;
        if !(1.0 / peak).is_finite() {
            return Err(WorkloadError::UnderflowingRate { value: peak });
        }
        Ok(ArrivalProcess {
            base_rate,
            shape: RateShape::Phases {
                phases,
                cycle,
                peak_factor,
            },
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            now: 0.0,
        })
    }

    /// Builds the sampled process described by an [`ArrivalSpec`] (the
    /// trace variant has no sampler; callers replay it instead).
    ///
    /// # Errors
    ///
    /// Whatever the shape constructors reject.
    fn try_from_spec(spec: &ArrivalSpec, base_rate: f64, seed: u64) -> Result<Self, WorkloadError> {
        match spec {
            ArrivalSpec::Diurnal { amplitude, period } => {
                Self::try_new(base_rate, *amplitude, *period, seed)
            }
            ArrivalSpec::Phases(phases) => Self::try_with_phases(base_rate, phases.clone(), seed),
            ArrivalSpec::Trace(_) => unreachable!("trace arrivals are replayed, not sampled"),
        }
    }

    /// Instantaneous arrival rate at time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        match &self.shape {
            RateShape::Diurnal { amplitude, period } => {
                self.base_rate * (1.0 + amplitude * (2.0 * std::f64::consts::PI * t / period).sin())
            }
            RateShape::Phases { phases, cycle, .. } => {
                let mut offset = t.rem_euclid(*cycle);
                for p in phases {
                    if offset < p.duration {
                        return self.base_rate * p.rate_factor;
                    }
                    offset -= p.duration;
                }
                // Float residue at the cycle boundary lands on the last
                // phase.
                self.base_rate * phases.last().expect("non-empty phases").rate_factor
            }
        }
    }

    /// The thinning ceiling: the maximum instantaneous rate.
    fn ceiling(&self) -> f64 {
        match &self.shape {
            RateShape::Diurnal { amplitude, .. } => self.base_rate * (1.0 + amplitude),
            RateShape::Phases { peak_factor, .. } => self.base_rate * peak_factor,
        }
    }

    /// Draws the next arrival time (strictly increasing).
    pub fn next_arrival(&mut self) -> f64 {
        // Thinning against the rate ceiling.
        let ceiling = self.ceiling();
        loop {
            let u: f64 = self.rng.gen::<f64>().max(1e-12);
            self.now += -u.ln() / ceiling;
            let accept: f64 = self.rng.gen();
            if accept < self.rate_at(self.now) / ceiling {
                return self.now;
            }
        }
    }
}

/// A base arrival rate must be positive and finite, with a finite
/// reciprocal: the thinning sampler steps time by `-ln(u) / rate`.
fn check_rate(rate: f64) -> Result<(), WorkloadError> {
    if rate <= 0.0 || !rate.is_finite() {
        return Err(WorkloadError::NonPositiveRate { value: rate });
    }
    if !(1.0 / rate).is_finite() {
        return Err(WorkloadError::UnderflowingRate { value: rate });
    }
    Ok(())
}

/// Where a generator's requests come from: the thinning sampler, or replay
/// of a recorded trace.
#[derive(Clone, Debug)]
enum RequestSource {
    /// Sample arrivals / scenarios / lengths / classes from seeded RNGs.
    Sampled(ArrivalProcess),
    /// Replay recorded rows verbatim (finite: `next_request` returns
    /// `None` once the cursor passes the end).
    Replay {
        rows: Vec<crate::profile::TraceRequest>,
        cursor: usize,
    },
}

/// Generates requests by combining an arrival source, a scenario mixture,
/// per-scenario length profiles, and a tenant-class mixture — or by
/// replaying a recorded trace.
#[derive(Clone, Debug)]
pub struct RequestGenerator {
    source: RequestSource,
    scenario_weights: Vec<(Scenario, f64)>,
    /// Classes with positive traffic weight, in configured order. A single
    /// entry assigns without consuming RNG draws, so the default
    /// (interactive-only) stream is bit-identical to the pre-class one.
    class_weights: Vec<(RequestClass, f64)>,
    rng: rand::rngs::StdRng,
    next_id: u64,
}

impl RequestGenerator {
    /// Creates a sampled generator with the given scenario blend (weights
    /// are normalised internally) and a single interactive class.
    ///
    /// # Panics
    ///
    /// Panics if `scenario_weights` is empty or sums to zero — the
    /// panicking wrapper of [`RequestGenerator::try_new`].
    pub fn new(
        arrivals: ArrivalProcess,
        scenario_weights: Vec<(Scenario, f64)>,
        seed: u64,
    ) -> Self {
        Self::try_new(arrivals, scenario_weights, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: reports an empty/zero-weight scenario blend as
    /// a typed [`WorkloadError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::NoScenarioWeights`].
    pub fn try_new(
        arrivals: ArrivalProcess,
        scenario_weights: Vec<(Scenario, f64)>,
        seed: u64,
    ) -> Result<Self, WorkloadError> {
        let total: f64 = scenario_weights.iter().map(|(_, w)| w).sum();
        if scenario_weights.is_empty() || total <= 0.0 || total.is_nan() {
            return Err(WorkloadError::NoScenarioWeights);
        }
        Ok(RequestGenerator {
            source: RequestSource::Sampled(arrivals),
            scenario_weights,
            class_weights: vec![(RequestClass::Interactive, 1.0)],
            rng: rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF_CAFE),
            next_id: 0,
        })
    }

    /// Builds the generator a [`WorkloadProfile`] describes: the sampled
    /// diurnal/phase source (seeded with `arrival_seed` / `sample_seed`,
    /// exactly like the legacy two-seed construction) or trace replay, with
    /// the profile's class mixture.
    ///
    /// This is the one shared constructor behind both the engine and the
    /// fleet, so their arrival semantics cannot drift; with the default
    /// profile it reproduces the legacy stream bit-for-bit.
    ///
    /// # Errors
    ///
    /// Any [`WorkloadError`] from profile validation or the scenario blend.
    pub fn try_from_profile(
        profile: &WorkloadProfile,
        request_rate: f64,
        scenario_weights: Vec<(Scenario, f64)>,
        arrival_seed: u64,
        sample_seed: u64,
    ) -> Result<Self, WorkloadError> {
        profile.validate()?;
        let mut gen = match &profile.arrivals {
            ArrivalSpec::Trace(rows) => {
                let total: f64 = scenario_weights.iter().map(|(_, w)| w).sum();
                if scenario_weights.is_empty() || total <= 0.0 || total.is_nan() {
                    return Err(WorkloadError::NoScenarioWeights);
                }
                RequestGenerator {
                    source: RequestSource::Replay {
                        rows: rows.clone(),
                        cursor: 0,
                    },
                    scenario_weights,
                    class_weights: Vec::new(), // classes ride in the rows
                    rng: rand::rngs::StdRng::seed_from_u64(sample_seed ^ 0xBEEF_CAFE),
                    next_id: 0,
                }
            }
            spec => {
                let arrivals = ArrivalProcess::try_from_spec(spec, request_rate, arrival_seed)?;
                Self::try_new(arrivals, scenario_weights, sample_seed)?
            }
        };
        if !matches!(profile.arrivals, ArrivalSpec::Trace(_)) {
            gen.class_weights = profile
                .classes
                .iter()
                .filter(|c| c.weight > 0.0)
                .map(|c| (c.class, c.weight))
                .collect();
            validate_classes(&profile.classes)?;
        }
        Ok(gen)
    }

    fn sample_scenario(&mut self) -> Scenario {
        let total: f64 = self.scenario_weights.iter().map(|(_, w)| w).sum();
        let mut x: f64 = self.rng.gen::<f64>() * total;
        for &(s, w) in &self.scenario_weights {
            if x < w {
                return s;
            }
            x -= w;
        }
        self.scenario_weights.last().expect("non-empty").0
    }

    /// Samples the tenant class. A single positive-weight class assigns
    /// directly **without consuming an RNG draw**, which keeps the default
    /// single-class stream bit-identical to the pre-class generator.
    fn sample_class(&mut self) -> RequestClass {
        match self.class_weights.len() {
            0 => RequestClass::Interactive,
            1 => self.class_weights[0].0,
            _ => {
                let total: f64 = self.class_weights.iter().map(|(_, w)| w).sum();
                let mut x: f64 = self.rng.gen::<f64>() * total;
                for &(c, w) in &self.class_weights {
                    if x < w {
                        return c;
                    }
                    x -= w;
                }
                self.class_weights.last().expect("non-empty").0
            }
        }
    }

    fn sample_lognormal(&mut self, median: f64, sigma: f64) -> u32 {
        let u1: f64 = self.rng.gen::<f64>().max(1e-12);
        let u2: f64 = self.rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (median * (sigma * z).exp()).round().max(1.0) as u32
    }

    /// Draws the next request, or `None` when a replayed trace is
    /// exhausted (sampled sources are endless). Ids are assigned
    /// sequentially in arrival order, starting at `r0`.
    pub fn next_request(&mut self) -> Option<Request> {
        match &mut self.source {
            RequestSource::Sampled(arrivals) => {
                let arrival = arrivals.next_arrival();
                let scenario = self.sample_scenario();
                let class = self.sample_class();
                let profile = LengthProfile::for_scenario(scenario);
                let id = RequestId(self.next_id);
                self.next_id += 1;
                Some(Request {
                    id,
                    scenario,
                    class,
                    input_len: self.sample_lognormal(profile.input_median, profile.sigma),
                    output_len: self.sample_lognormal(profile.output_median, profile.sigma),
                    arrival,
                })
            }
            RequestSource::Replay { rows, cursor } => {
                let row = rows.get(*cursor)?.clone();
                *cursor += 1;
                let id = RequestId(self.next_id);
                self.next_id += 1;
                Some(Request {
                    id,
                    scenario: row.scenario,
                    class: row.class,
                    input_len: row.input_len,
                    output_len: row.output_len,
                    arrival: row.arrival,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ClassSpec, TraceRequest};

    #[test]
    fn arrivals_strictly_increase() {
        let mut p = ArrivalProcess::new(100.0, 0.5, 60.0, 1);
        let mut last = 0.0;
        for _ in 0..200 {
            let t = p.next_arrival();
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn mean_rate_approximately_base() {
        let mut p = ArrivalProcess::new(50.0, 0.8, 10.0, 2);
        let mut count = 0;
        loop {
            if p.next_arrival() > 100.0 {
                break;
            }
            count += 1;
        }
        // 50 req/s over 100 s ≈ 5000 arrivals (diurnal term integrates out).
        assert!((count as f64 - 5000.0).abs() < 400.0, "{count}");
    }

    #[test]
    fn math_outputs_longer_than_privacy() {
        let arrivals = ArrivalProcess::new(10.0, 0.0, 60.0, 3);
        let mut g = RequestGenerator::new(
            arrivals,
            vec![(Scenario::Math, 1.0), (Scenario::Privacy, 1.0)],
            3,
        );
        let mut math_sum = 0.0;
        let mut math_n = 0.0;
        let mut privacy_sum = 0.0;
        let mut privacy_n = 0.0;
        for _ in 0..400 {
            let r = g.next_request().expect("sampled sources are endless");
            match r.scenario {
                Scenario::Math => {
                    math_sum += r.output_len as f64;
                    math_n += 1.0;
                }
                Scenario::Privacy => {
                    privacy_sum += r.output_len as f64;
                    privacy_n += 1.0;
                }
                _ => {}
            }
        }
        assert!(math_sum / math_n > 4.0 * (privacy_sum / privacy_n));
    }

    #[test]
    fn rate_oscillates() {
        let p = ArrivalProcess::new(100.0, 0.5, 100.0, 4);
        assert!(p.rate_at(25.0) > 140.0); // peak of sine
        assert!(p.rate_at(75.0) < 60.0); // trough
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn invalid_amplitude_rejected() {
        ArrivalProcess::new(1.0, 1.5, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn invalid_rate_rejected() {
        ArrivalProcess::new(0.0, 0.3, 600.0, 0);
    }

    #[test]
    #[should_panic(expected = "need positive scenario weights")]
    fn empty_scenario_weights_rejected() {
        RequestGenerator::new(ArrivalProcess::new(1.0, 0.0, 1.0, 0), vec![], 0);
    }

    #[test]
    fn subnormal_rates_rejected() {
        assert_eq!(
            ArrivalProcess::try_new(1e-320, 0.3, 600.0, 0).unwrap_err(),
            WorkloadError::UnderflowingRate { value: 1e-320 }
        );
        let phases = vec![Phase {
            duration: 1.0,
            rate_factor: 1e-300,
        }];
        assert!(matches!(
            ArrivalProcess::try_with_phases(1e-20, phases, 0).unwrap_err(),
            WorkloadError::UnderflowingRate { .. }
        ));
        // The smallest normal rate still has a finite reciprocal.
        assert!(ArrivalProcess::try_new(f64::MIN_POSITIVE, 0.3, 600.0, 0).is_ok());
    }

    #[test]
    fn subnormal_diurnal_period_rejected() {
        // Accepted, the phase `t / period` would overflow and the rate turn
        // NaN.
        assert_eq!(
            ArrivalProcess::try_new(1.0, 0.3, 1e-320, 0).unwrap_err(),
            WorkloadError::UnderflowingPeriod { value: 1e-320 }
        );
        assert!(ArrivalSpec::Diurnal {
            amplitude: 0.3,
            period: 1e-320,
        }
        .validate()
        .is_err());
        // The smallest normal period has a finite reciprocal.
        assert!(ArrivalProcess::try_new(1.0, 0.3, f64::MIN_POSITIVE, 0).is_ok());
        assert!(WorkloadError::UnderflowingPeriod { value: 1e-320 }
            .to_string()
            .contains("reciprocal overflows"));
    }

    #[test]
    fn try_new_reports_exact_variants() {
        assert_eq!(
            ArrivalProcess::try_new(-2.0, 0.3, 600.0, 0).unwrap_err(),
            WorkloadError::NonPositiveRate { value: -2.0 }
        );
        assert_eq!(
            ArrivalProcess::try_new(1.0, 0.3, 0.0, 0).unwrap_err(),
            WorkloadError::NonPositivePeriod { value: 0.0 }
        );
        assert_eq!(
            ArrivalProcess::try_new(1.0, 1.0, 600.0, 0).unwrap_err(),
            WorkloadError::AmplitudeOutOfRange { value: 1.0 }
        );
        assert_eq!(
            RequestGenerator::try_new(
                ArrivalProcess::new(1.0, 0.0, 1.0, 0),
                vec![(Scenario::Chat, 0.0)],
                0
            )
            .unwrap_err(),
            WorkloadError::NoScenarioWeights
        );
    }

    #[test]
    fn request_ids_are_sequential_in_arrival_order() {
        let arrivals = ArrivalProcess::new(10.0, 0.0, 60.0, 5);
        let mut g = RequestGenerator::new(arrivals, vec![(Scenario::Chat, 1.0)], 5);
        for expect in 0..20 {
            let r = g.next_request().unwrap();
            assert_eq!(r.id, RequestId(expect));
        }
        assert_eq!(RequestId(3).to_string(), "r3");
    }

    /// The default profile routed through the shared constructor produces
    /// exactly the stream the legacy two-seed construction produced — the
    /// contract that keeps every pre-profile golden byte-identical.
    #[test]
    fn default_profile_stream_matches_legacy_construction() {
        let weights = vec![(Scenario::Chat, 1.0), (Scenario::Math, 2.0)];
        let mut legacy = RequestGenerator::new(
            ArrivalProcess::new(500.0, 0.3, 600.0, 0xA11CE),
            weights.clone(),
            0xB0B,
        );
        let mut profiled = RequestGenerator::try_from_profile(
            &WorkloadProfile::default(),
            500.0,
            weights,
            0xA11CE,
            0xB0B,
        )
        .unwrap();
        for _ in 0..500 {
            let a = legacy.next_request().unwrap();
            let b = profiled.next_request().unwrap();
            assert_eq!(a, b);
            assert_eq!(a.class, RequestClass::Interactive);
        }
    }

    /// A two-class profile samples both classes at roughly the configured
    /// ratio, without perturbing arrivals relative to amplitude-0 sampling.
    #[test]
    fn two_class_profile_samples_the_mixture() {
        let profile = WorkloadProfile {
            arrivals: ArrivalSpec::Diurnal {
                amplitude: 0.0,
                period: 600.0,
            },
            classes: vec![
                ClassSpec::interactive().with_weight(3.0),
                ClassSpec::batch().with_weight(1.0),
            ],
        };
        let mut g =
            RequestGenerator::try_from_profile(&profile, 100.0, vec![(Scenario::Chat, 1.0)], 7, 7)
                .unwrap();
        let mut counts = [0u32; 2];
        for _ in 0..2000 {
            counts[g.next_request().unwrap().class.index()] += 1;
        }
        let share = counts[0] as f64 / 2000.0;
        assert!((share - 0.75).abs() < 0.05, "interactive share {share}");
    }

    /// Phase schedules follow their piecewise rates: a 10×-burst phase
    /// collects roughly 10× the arrivals of the quiet phase.
    #[test]
    fn phase_schedule_concentrates_arrivals_in_bursts() {
        let phases = vec![
            Phase {
                duration: 1.0,
                rate_factor: 1.0,
            },
            Phase {
                duration: 1.0,
                rate_factor: 10.0,
            },
        ];
        let mut p = ArrivalProcess::try_with_phases(200.0, phases, 11).unwrap();
        assert_eq!(p.rate_at(0.5), 200.0);
        assert_eq!(p.rate_at(1.5), 2000.0);
        assert_eq!(p.rate_at(2.5), 200.0); // cycles
        let (mut quiet, mut burst) = (0u32, 0u32);
        loop {
            let t = p.next_arrival();
            if t > 10.0 {
                break;
            }
            if t.rem_euclid(2.0) < 1.0 {
                quiet += 1;
            } else {
                burst += 1;
            }
        }
        assert!(
            burst as f64 > 6.0 * quiet as f64,
            "burst {burst} vs quiet {quiet}"
        );
    }

    /// Trace replay returns the rows verbatim (plus sequential ids) and
    /// then `None` forever.
    #[test]
    fn trace_replay_is_verbatim_and_finite() {
        let rows = vec![
            TraceRequest {
                arrival: 0.25,
                scenario: Scenario::Coding,
                input_len: 100,
                output_len: 20,
                class: RequestClass::Batch,
            },
            TraceRequest {
                arrival: 0.5,
                scenario: Scenario::Chat,
                input_len: 32,
                output_len: 8,
                class: RequestClass::Interactive,
            },
        ];
        let profile = WorkloadProfile {
            arrivals: ArrivalSpec::Trace(rows.clone()),
            classes: vec![ClassSpec::interactive(), ClassSpec::batch()],
        };
        let mut g = RequestGenerator::try_from_profile(
            &profile,
            0.0, // the base rate is ignored for traces
            vec![(Scenario::Chat, 1.0)],
            1,
            2,
        )
        .unwrap();
        for (i, row) in rows.iter().enumerate() {
            let r = g.next_request().unwrap();
            assert_eq!(r.id, RequestId(i as u64));
            assert_eq!(r.arrival, row.arrival);
            assert_eq!(r.scenario, row.scenario);
            assert_eq!(r.class, row.class);
            assert_eq!(r.input_len, row.input_len);
            assert_eq!(r.output_len, row.output_len);
        }
        assert_eq!(g.next_request(), None);
        assert_eq!(g.next_request(), None);
    }
}
