//! The metric tables — every name, unit, direction and bound the benchmark
//! reports, in the order `BENCHMARK.json` lists them — and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::push_str_literal;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: name, unit, direction, regression bound. Measured with
/// tracing off, on every workload.
pub const END_TO_END: [(&str, &str, Better, f64); 8] = [
    ("setup_s", "s", Lower, 0.25),
    ("updates_per_s", "1/s", Higher, 0.20),
    ("latency_p50_ms", "ms", Lower, 0.25),
    ("latency_p99_ms", "ms", Lower, 0.25),
    ("executions_per_update", "count", Lower, 0.08),
    ("restore_s", "s", Lower, 0.25),
    ("persist_bytes_per_update", "B", Lower, 0.06),
    ("peak_rss_mb", "MiB", Lower, 0.08),
];

/// Per-layer metrics: name, unit, direction. Measured from outside, in the
/// traced pass only; no bound.
pub const PER_LAYER: [(&str, &str, Better); 88] = [
    ("storage.apply_ms", "ms", Lower),
    ("storage.apply_writes", "count", Lower),
    ("storage.rollback_ms", "ms", Lower),
    ("storage.read_ms", "ms", Lower),
    ("storage.read_calls", "count", Lower),
    ("storage.rows_returned", "count", Lower),
    ("storage.serialize_ms", "ms", Lower),
    ("storage.deserialize_ms", "ms", Lower),
    ("storage.snapshot_bytes", "B", Lower),
    ("storage.bytes_per_live_tuple", "B", Lower),
    ("storage.wal_append_ms", "ms", Lower),
    ("storage.wal_records", "count", Lower),
    ("storage.wal_bytes", "B", Lower),
    ("storage.wal_syncs", "count", Lower),
    ("mappings.plan_ms", "ms", Lower),
    ("mappings.eval_ms", "ms", Lower),
    ("mappings.queries", "count", Lower),
    ("mappings.violations", "count", Lower),
    ("mappings.rows_per_violation", "count", Lower),
    ("mappings.full_check_ms", "ms", Lower),
    ("core.chase_ms", "ms", Lower),
    ("core.steps", "count", Lower),
    ("core.steps_per_update", "count", Lower),
    ("core.step_us_p50", "us", Lower),
    ("core.step_us_p99", "us", Lower),
    ("core.resolve_ms", "ms", Lower),
    ("core.frontier_requests", "count", Lower),
    ("concurrency.build_ms", "ms", Lower),
    ("concurrency.submit_ms", "ms", Lower),
    ("concurrency.submit_calls", "count", Lower),
    ("concurrency.rejections", "count", Lower),
    ("concurrency.admit_ratio", "ratio", Higher),
    ("concurrency.drive_ms", "ms", Lower),
    ("concurrency.wait_ms", "ms", Lower),
    ("concurrency.pending_ms", "ms", Lower),
    ("concurrency.read_ms", "ms", Lower),
    ("concurrency.answer_ms", "ms", Lower),
    ("concurrency.answer_calls", "count", Lower),
    ("concurrency.stale_answers", "count", Lower),
    ("concurrency.sweep_ms", "ms", Lower),
    ("concurrency.sweep_calls", "count", Lower),
    ("concurrency.status_ms", "ms", Lower),
    ("concurrency.recover_ms", "ms", Lower),
    ("concurrency.shutdown_ms", "ms", Lower),
    ("concurrency.steps", "count", Lower),
    ("concurrency.aborts", "count", Lower),
    ("concurrency.direct_conflict_requests", "count", Lower),
    ("concurrency.cascading_abort_requests", "count", Lower),
    ("concurrency.frontier_ops", "count", Lower),
    ("concurrency.auto_resolutions", "count", Lower),
    ("concurrency.max_active", "count", Lower),
    ("concurrency.retained_slots", "count", Lower),
    ("concurrency.exec_useful_ratio", "ratio", Higher),
    ("concurrency.overhead_est_ms", "ms", Lower),
    ("concurrency.overhead_share", "ratio", Lower),
    ("concurrency.speedup_2w", "ratio", Higher),
    ("replication.submit_ms", "ms", Lower),
    ("replication.deltas_since_ms", "ms", Lower),
    ("replication.encode_ms", "ms", Lower),
    ("replication.decode_ms", "ms", Lower),
    ("replication.apply_ms", "ms", Lower),
    ("replication.answer_ms", "ms", Lower),
    ("replication.settled_ms", "ms", Lower),
    ("replication.messages", "count", Lower),
    ("replication.bytes_shipped", "B", Lower),
    ("replication.events_appended", "count", Lower),
    ("replication.events_duplicate", "count", Lower),
    ("replication.useful_ratio", "ratio", Higher),
    ("replication.rebuilds", "count", Lower),
    ("replication.rounds_to_converge", "count", Lower),
    ("workload.fixture_ms", "ms", Lower),
    ("workload.ops_gen_ms", "ms", Lower),
    ("workload.updates", "count", Higher),
    ("harness.calib_ms", "ms", Lower),
    ("harness.self_ms", "ms", Lower),
    ("harness.clone_db_ms", "ms", Lower),
    ("harness.run_ms", "ms", Lower),
    ("harness.untraced_run_ms", "ms", Lower),
    ("harness.trace_overhead_ratio", "ratio", Lower),
    ("harness.spans", "count", Lower),
    ("harness.gen_late_p99_ms", "ms", Lower),
    ("harness.backlog_end", "count", Lower),
    ("harness.max_rate_ok", "1/s", Higher),
    ("harness.r1_p99_ms", "ms", Lower),
    ("harness.r2_p99_ms", "ms", Lower),
    ("harness.r3_p99_ms", "ms", Lower),
    ("harness.lost_submissions_max", "count", Lower),
    ("harness.ladder_updates", "count", Higher),
];

/// The one-line result the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every value with all its digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_literal(&mut out, name);
        // `{}` on an f64 prints the shortest text that reads back exactly.
        let _ = write!(out, ": {{\"value\": {value}, \"unit\": ");
        push_str_literal(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Looks every table entry up in `values` (absent = not applicable = 0).
pub fn per_layer_metrics(
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    debug_assert!(
        values.keys().all(|k| PER_LAYER.iter().any(|(name, ..)| name == k)),
        "a per-layer value has no table entry: {:?}",
        values.keys().find(|k| !PER_LAYER.iter().any(|(name, ..)| name == *k))
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn result_line_is_the_contract_shape() {
        let line =
            result_line(true, 1000, 0, &[("latency_ms", "ms", 1.2034), ("setup_s", "s", 0.8127)]);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("latency_ms").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }

    /// `BENCHMARK.json` is the frozen contract; the tables here must say the
    /// same thing, entry for entry.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );

        let e2e = doc.get("end_to_end").unwrap().as_arr();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better.as_str()));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound));
            assert!(bound <= 0.25);
        }
        let layers = doc.get("per_layer").unwrap().as_arr();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (entry, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better.as_str()));
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.0).collect();
        names.extend(PER_LAYER.iter().map(|e| e.0));
        let ok = |s: &str, extra: &str| {
            !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for name in &names {
            assert!(name.len() <= 64 && ok(name, "_.-"), "bad name {name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        for unit in END_TO_END.iter().map(|e| e.1).chain(PER_LAYER.iter().map(|e| e.1)) {
            assert!(unit.len() <= 16 && ok(unit, "_/%.-"), "bad unit {unit}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a metric name is used twice");
    }
}
