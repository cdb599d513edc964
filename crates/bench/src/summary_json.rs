//! The one summary codec: the manifest name and JSON value of every
//! [`ServingSummary`], [`RunSummary`] and [`FleetSummary`] field the
//! figure and scenario manifests emit.
//!
//! Each summary type has a field enum ([`ServingField`], [`FleetField`],
//! …). A figure lists the fields it emits, in emission order, and
//! [`fields`] returns the `(name, value)` pairs; values the figure derives
//! itself (modeled dollars, axis parameters) stay in the figure. Because
//! the lists are typed, a misspelled field is a compile error, and a
//! manifest's key order is exactly its list order.

use moentwine_core::engine::{ClassServingSummary, RunSummary, ServingSummary};
use moentwine_core::fleet::{
    FleetAvailability, FleetHandoff, FleetSpeculative, FleetSummary, GoodputWindow,
};

use crate::json::Value;

/// A typed field of one summary type: its manifest name and value.
pub trait Field: Copy {
    /// The summary the field is read from.
    type Summary;

    /// The manifest key.
    fn name(self) -> &'static str;

    /// The manifest value.
    fn value(self, summary: &Self::Summary) -> Value;
}

/// The `(name, value)` pairs of `list`, in list order.
pub fn fields<F: Field>(summary: &F::Summary, list: &[F]) -> Vec<(String, Value)> {
    list.iter()
        .map(|&f| (f.name().to_string(), f.value(summary)))
        .collect()
}

/// [`fields`] as a JSON object.
pub fn object<F: Field>(summary: &F::Summary, list: &[F]) -> Value {
    Value::Obj(fields(summary, list))
}

/// Defines a field enum over one summary type: one `Variant => "name":
/// value` line per field (the value expression reads the summary through
/// the bound identifier), plus `ALL`, every field in declaration order.
macro_rules! summary_fields {
    ($(#[$meta:meta])* $field:ident of $summary:ty, |$s:ident| {
        $($variant:ident => $name:literal: $value:expr,)*
    }) => {
        $(#[$meta])*
        #[derive(Copy, Clone, PartialEq, Eq, Debug)]
        pub enum $field {
            $(#[doc = concat!("`", $name, "`")] $variant,)*
        }

        impl $field {
            /// Every field, in declaration order.
            pub const ALL: &'static [$field] = &[$($field::$variant),*];
        }

        impl Field for $field {
            type Summary = $summary;

            fn name(self) -> &'static str {
                match self {
                    $($field::$variant => $name,)*
                }
            }

            fn value(self, $s: &$summary) -> Value {
                match self {
                    $($field::$variant => $value,)*
                }
            }
        }
    };
}

summary_fields! {
    /// A [`ServingSummary`] field.
    ServingField of ServingSummary, |s| {
        Completed => "completed": Value::Num(s.completed as f64),
        AdmissionRejects => "admission_rejects": Value::Num(s.admission_rejects as f64),
        SimSeconds => "sim_seconds": Value::Num(s.sim_seconds),
        GoodputRps => "goodput_rps": Value::Num(s.goodput_rps),
        GoodputTokensPerS => "goodput_tokens_per_s": Value::Num(s.goodput_tokens_per_s),
        TtftP50 => "ttft_p50": Value::Num(s.ttft_p50),
        TtftP95 => "ttft_p95": Value::Num(s.ttft_p95),
        TtftP99 => "ttft_p99": Value::Num(s.ttft_p99),
        TpotP50 => "tpot_p50": Value::Num(s.tpot_p50),
        TpotP95 => "tpot_p95": Value::Num(s.tpot_p95),
        TpotP99 => "tpot_p99": Value::Num(s.tpot_p99),
        E2eP50 => "e2e_p50": Value::Num(s.e2e_p50),
        E2eP99 => "e2e_p99": Value::Num(s.e2e_p99),
        MeanQueueDepth => "mean_queue_depth": Value::Num(s.mean_queue_depth),
        Shed => "shed": Value::Num(s.shed as f64),
        Classes => "classes": Value::Arr(
            s.classes.iter().map(|c| object(c, ClassField::ALL)).collect()
        ),
    }
}

summary_fields! {
    /// A [`ClassServingSummary`] field (one per-tenant-class entry).
    ClassField of ClassServingSummary, |c| {
        Class => "class": Value::Str(c.class.name().into()),
        Completed => "completed": Value::Num(c.completed as f64),
        Rejected => "rejected": Value::Num(c.rejected as f64),
        Shed => "shed": Value::Num(c.shed as f64),
        TtftP50 => "ttft_p50": Value::Num(c.ttft_p50),
        TtftP95 => "ttft_p95": Value::Num(c.ttft_p95),
        TtftP99 => "ttft_p99": Value::Num(c.ttft_p99),
        TpotP50 => "tpot_p50": Value::Num(c.tpot_p50),
        TpotP95 => "tpot_p95": Value::Num(c.tpot_p95),
        TpotP99 => "tpot_p99": Value::Num(c.tpot_p99),
        TtftSlo => "ttft_slo": Value::Num(c.ttft_slo),
        TpotSlo => "tpot_slo": Value::Num(c.tpot_slo),
        TtftAttainment => "ttft_attainment": Value::Num(c.ttft_attainment),
        TpotAttainment => "tpot_attainment": Value::Num(c.tpot_attainment),
    }
}

summary_fields! {
    /// A [`RunSummary`] field (an engine run's per-iteration means).
    RunField of RunSummary, |r| {
        MeanIterationTime => "mean_iteration_time": Value::Num(r.mean_iteration_time),
        MeanAllReduce => "mean_all_reduce": Value::Num(r.mean_all_reduce),
        MeanAllToAll => "mean_all_to_all": Value::Num(r.mean_all_to_all),
        MeanMoeCompute => "mean_moe_compute": Value::Num(r.mean_moe_compute),
        MeanLoadRatio => "mean_load_ratio": Value::Num(r.mean_load_ratio),
        MeanTokensPerGroup => "mean_tokens_per_group": Value::Num(r.mean_tokens_per_group),
        TokensPerSecondPerDevice => "tokens_per_second_per_device":
            Value::Num(r.tokens_per_second_per_device),
    }
}

summary_fields! {
    /// A [`FleetHandoff`] field (prefill→decode KV hand-off accounting).
    HandoffField of FleetHandoff, |h| {
        KvTransfers => "kv_transfers": Value::Num(h.kv_transfers as f64),
        KvTransferBytes => "kv_transfer_bytes": Value::Num(h.kv_transfer_bytes),
        KvTransferSeconds => "kv_transfer_seconds": Value::Num(h.kv_transfer_seconds),
        MaxTransferSeconds => "max_transfer_seconds": Value::Num(h.max_transfer_seconds),
        PendingTransfers => "pending_transfers": Value::Num(h.pending_transfers as f64),
        HandoffsCompleted => "handoffs_completed": Value::Num(h.handoffs_completed as f64),
        MeanHandoffLatency => "mean_handoff_latency": Value::Num(h.mean_handoff_latency),
        MaxHandoffLatency => "max_handoff_latency": Value::Num(h.max_handoff_latency),
        MeanE2eTtft => "mean_e2e_ttft": Value::Num(h.mean_e2e_ttft),
        MaxE2eTtft => "max_e2e_ttft": Value::Num(h.max_e2e_ttft),
    }
}

summary_fields! {
    /// A [`FleetSpeculative`] field (first-token race accounting).
    SpeculativeField of FleetSpeculative, |sp| {
        GroupsDispatched => "groups_dispatched": Value::Num(sp.groups_dispatched as f64),
        CancelledCopies => "cancelled_copies": Value::Num(sp.cancelled_copies as f64),
        OpenGroups => "open_groups": Value::Num(sp.open_groups as f64),
    }
}

summary_fields! {
    /// A [`FleetAvailability`] field (failure/elasticity accounting).
    AvailabilityField of FleetAvailability, |a| {
        EventsApplied => "events_applied": Value::Num(a.events_applied as f64),
        CrashInterruptions => "crash_interruptions": Value::Num(a.crash_interruptions as f64),
        DrainRerouted => "drain_rerouted": Value::Num(a.drain_rerouted as f64),
        CrashRerouted => "crash_rerouted": Value::Num(a.crash_rerouted as f64),
        RequeuedTokens => "requeued_tokens": Value::Num(a.requeued_tokens as f64),
        ReplayedPrefillTokens => "replayed_prefill_tokens":
            Value::Num(a.replayed_prefill_tokens as f64),
        AvailableFraction => "available_fraction": Value::Num(a.available_fraction),
        ReplicaStates => "replica_states": Value::strings(a.replica_states.iter().copied()),
        GoodputWindows => "goodput_windows": Value::Arr(
            a.goodput_windows.iter().map(|w| object(w, WindowField::ALL)).collect()
        ),
    }
}

summary_fields! {
    /// A [`GoodputWindow`] field (goodput between two fleet events).
    WindowField of GoodputWindow, |w| {
        After => "after": Value::Str(w.after.clone()),
        Start => "start": Value::Num(w.start),
        End => "end": Value::Num(w.end),
        Completed => "completed": Value::Num(w.completed as f64),
        GoodputRps => "goodput_rps": Value::Num(w.goodput_rps),
    }
}

/// A [`FleetSummary`] field: a fleet scalar, or a field of one of its
/// sections flattened into the point.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FleetField {
    /// `replicas`
    Replicas,
    /// `rounds`
    Rounds,
    /// `sim_seconds`: the fleet clock.
    SimSeconds,
    /// `routing_imbalance`
    RoutingImbalance,
    /// `completion_imbalance`
    CompletionImbalance,
    /// `routed`: requests routed to each replica.
    Routed,
    /// A field of the fleet-wide aggregate, under its own name.
    Aggregate(ServingField),
    /// An availability field, under its own name.
    Availability(AvailabilityField),
    /// A speculative-dispatch field, under a `spec_` prefix.
    Speculative(SpeculativeField),
}

impl Field for FleetField {
    type Summary = FleetSummary;

    fn name(self) -> &'static str {
        match self {
            FleetField::Replicas => "replicas",
            FleetField::Rounds => "rounds",
            FleetField::SimSeconds => "sim_seconds",
            FleetField::RoutingImbalance => "routing_imbalance",
            FleetField::CompletionImbalance => "completion_imbalance",
            FleetField::Routed => "routed",
            FleetField::Aggregate(f) => f.name(),
            FleetField::Availability(f) => f.name(),
            FleetField::Speculative(f) => match f {
                SpeculativeField::GroupsDispatched => "spec_groups_dispatched",
                SpeculativeField::CancelledCopies => "spec_cancelled_copies",
                SpeculativeField::OpenGroups => "spec_open_groups",
            },
        }
    }

    fn value(self, s: &FleetSummary) -> Value {
        match self {
            FleetField::Replicas => Value::Num(s.replicas as f64),
            FleetField::Rounds => Value::Num(s.rounds as f64),
            FleetField::SimSeconds => Value::Num(s.sim_seconds),
            FleetField::RoutingImbalance => Value::Num(s.routing_imbalance),
            FleetField::CompletionImbalance => Value::Num(s.completion_imbalance),
            FleetField::Routed => {
                Value::Arr(s.routed.iter().map(|&r| Value::Num(r as f64)).collect())
            }
            FleetField::Aggregate(f) => f.value(&s.aggregate),
            FleetField::Availability(f) => f.value(&s.availability),
            FleetField::Speculative(f) => f.value(&s.speculative),
        }
    }
}

/// The latency block every sweep point shares: the percentile ladders,
/// goodput, and the completion/reject counts.
pub const LATENCY_BLOCK: [ServingField; 12] = [
    ServingField::TtftP50,
    ServingField::TtftP95,
    ServingField::TtftP99,
    ServingField::TpotP50,
    ServingField::TpotP95,
    ServingField::TpotP99,
    ServingField::E2eP50,
    ServingField::E2eP99,
    ServingField::GoodputRps,
    ServingField::GoodputTokensPerS,
    ServingField::Completed,
    ServingField::AdmissionRejects,
];

/// The availability section (final failure/elasticity accounting), as the
/// chaos figure and scenario manifests of fleets with a timeline emit it.
pub fn availability_json(a: &FleetAvailability) -> Value {
    object(a, AvailabilityField::ALL)
}
