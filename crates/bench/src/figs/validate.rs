//! Shared manifest-schema validation helpers.
//!
//! The sweep figures (`serve_sweep`, `fleet_sweep`) emit machine-readable
//! manifests with the same skeleton — a schema tag, run parameters, and a
//! point list whose entries carry percentile ladders and throughput fields.
//! The common checks live here so the two validators gate identically; each
//! sweep adds only its own extra constraints on top.

use crate::json::Value;

/// The TTFT / TPOT / end-to-end percentile ladders every sweep point
/// carries; each must be non-decreasing.
pub const PERCENTILE_LADDERS: &[&[&str]] = &[
    &["ttft_p50", "ttft_p95", "ttft_p99"],
    &["tpot_p50", "tpot_p95", "tpot_p99"],
    &["e2e_p50", "e2e_p99"],
];

/// Checks the manifest's schema tag.
///
/// # Errors
///
/// Returns a message when the tag is missing or not `expected`.
pub fn require_schema(manifest: &Value, expected: &str) -> Result<(), String> {
    let schema = manifest
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing schema tag")?;
    if schema != expected {
        return Err(format!("schema {schema:?}, expected {expected:?}"));
    }
    Ok(())
}

/// Requires top-level numeric run parameters (e.g. seed, iteration count).
///
/// # Errors
///
/// Returns a message naming the first missing field.
pub fn require_run_params(manifest: &Value, keys: &[&str]) -> Result<(), String> {
    for key in keys {
        manifest
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing numeric field {key:?}"))?;
    }
    Ok(())
}

/// Returns the non-empty `points` array.
///
/// # Errors
///
/// Returns a message when the array is missing or empty.
pub fn require_points(manifest: &Value) -> Result<&[Value], String> {
    let points = manifest
        .get("points")
        .and_then(Value::as_array)
        .ok_or("missing points array")?;
    if points.is_empty() {
        return Err("empty points array".into());
    }
    Ok(points)
}

/// Numeric field of point `i`.
///
/// # Errors
///
/// Returns a message when the field is missing or non-numeric.
pub fn point_num(point: &Value, i: usize, key: &str) -> Result<f64, String> {
    point
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("point {i}: missing numeric field {key:?}"))
}

/// String field of point `i`.
///
/// # Errors
///
/// Returns a message when the field is missing or non-string.
pub fn point_str<'a>(point: &'a Value, i: usize, key: &str) -> Result<&'a str, String> {
    point
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("point {i}: missing string field {key:?}"))
}

/// The checks every sweep point shares: required numeric fields, the
/// [`PERCENTILE_LADDERS`] monotone, and non-negative goodput.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn check_point_common(point: &Value, i: usize, extra_nums: &[&str]) -> Result<(), String> {
    for key in extra_nums {
        point_num(point, i, key)?;
    }
    for ladder in PERCENTILE_LADDERS {
        let values = ladder
            .iter()
            .map(|k| point_num(point, i, k))
            .collect::<Result<Vec<_>, _>>()?;
        if values.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!(
                "point {i}: percentile ladder {ladder:?} not monotone: {values:?}"
            ));
        }
    }
    for key in ["goodput_rps", "goodput_tokens_per_s"] {
        if point_num(point, i, key)? < 0.0 {
            return Err(format!("point {i}: negative {key}"));
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The keys of a JSON object in emission order (empty for a non-object):
    /// the key-order pin tests compare these against the manifest contract.
    pub(crate) fn keys(value: &Value) -> Vec<&str> {
        match value {
            Value::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// The pinned key order of one per-class SLO entry (workload-profiled
    /// runs), shared by the `workload_mix` and scenario-run pin tests.
    pub(crate) const CLASS_KEYS: [&str; 14] = [
        "class",
        "completed",
        "rejected",
        "shed",
        "ttft_p50",
        "ttft_p95",
        "ttft_p99",
        "tpot_p50",
        "tpot_p95",
        "tpot_p99",
        "ttft_slo",
        "tpot_slo",
        "ttft_attainment",
        "tpot_attainment",
    ];

    /// The first point of a sweep manifest.
    pub(crate) fn first_point(manifest: &Value) -> &Value {
        &manifest
            .get("points")
            .and_then(Value::as_array)
            .expect("points")[0]
    }

    fn point(ttft: [f64; 3]) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("ttft_p50".into(), Value::Num(ttft[0])),
            ("ttft_p95".into(), Value::Num(ttft[1])),
            ("ttft_p99".into(), Value::Num(ttft[2])),
        ];
        for key in [
            "tpot_p50",
            "tpot_p95",
            "tpot_p99",
            "e2e_p50",
            "e2e_p99",
            "goodput_rps",
            "goodput_tokens_per_s",
        ] {
            fields.push((key.into(), Value::Num(1.0)));
        }
        Value::Obj(fields)
    }

    #[test]
    fn common_checks_accept_monotone_ladders() {
        check_point_common(&point([1.0, 2.0, 3.0]), 0, &[]).expect("valid point");
    }

    #[test]
    fn common_checks_reject_broken_ladder_and_missing_field() {
        let err = check_point_common(&point([3.0, 2.0, 1.0]), 4, &[]).unwrap_err();
        assert!(
            err.contains("point 4") && err.contains("not monotone"),
            "{err}"
        );
        let err = check_point_common(&point([1.0, 2.0, 3.0]), 0, &["nope"]).unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn schema_and_points_helpers() {
        let manifest = Value::Obj(vec![
            ("schema".into(), Value::Str("x/v1".into())),
            ("seed".into(), Value::Num(1.0)),
            ("points".into(), Value::Arr(vec![Value::Obj(vec![])])),
        ]);
        require_schema(&manifest, "x/v1").expect("tag");
        assert!(require_schema(&manifest, "y/v1").is_err());
        require_run_params(&manifest, &["seed"]).expect("params");
        assert!(require_run_params(&manifest, &["missing"]).is_err());
        assert_eq!(require_points(&manifest).expect("points").len(), 1);
        assert!(require_points(&Value::Obj(vec![])).is_err());
    }
}
