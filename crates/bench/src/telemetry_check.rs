//! Validation of JSON telemetry reports (`serve_bench --telemetry-out`).
//!
//! `mobidx-top --check FILE` is a thin CLI wrapper over
//! [`validate_report`]; keeping the logic here makes the acceptance
//! rules testable without spawning the binary. A report is valid when
//! it parses, declares `kind: "mobidx-telemetry"`, names a positive
//! shard count, holds at least one recorded sample for every shard's
//! `queue_depth` series, and carries the sampler-overhead measurement.
//! Extra series — the per-shard `wal_records`/`wal_fsyncs` the durable
//! serving tier publishes, for instance — are accepted, never rejected:
//! the checker pins the floor, not the ceiling.
//!
//! Scenario reports are the one exception to the overhead rule: a
//! report declaring `scenario: "repartition"` (what
//! `serve_bench --repartition --telemetry-out` writes) was sampled
//! around a drift → repartition acceptance run, not a paired
//! bare/sampled throughput capture, so no overhead measurement exists.
//! Such a report must instead carry the online-repartitioning floor:
//! recorded samples in the `repartition_attempts` aggregate and in
//! every shard's `bands` gauge.

use mobidx_obs::json::Value;

/// Validates one report document. Returns the human-readable summary
/// line (`ok: ...`) on success, the reason on failure.
///
/// # Errors
///
/// Any violation of the rules in the module docs.
pub fn validate_report(text: &str) -> Result<String, String> {
    let doc = Value::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    if doc.get("kind").and_then(Value::as_str) != Some("mobidx-telemetry") {
        return Err("kind is not \"mobidx-telemetry\"".to_owned());
    }
    let shards = doc
        .get("shards")
        .and_then(Value::as_u64)
        .ok_or_else(|| "missing shard count".to_owned())?;
    if shards == 0 {
        return Err("zero shards".to_owned());
    }
    let series = doc
        .get("telemetry")
        .and_then(|t| t.get("series"))
        .and_then(Value::as_array)
        .ok_or_else(|| "missing telemetry.series".to_owned())?;
    let recorded_of = |name: &str| -> u64 {
        series
            .iter()
            .find(|s| s.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|s| s.get("recorded").and_then(Value::as_u64))
            .unwrap_or(0)
    };
    for shard in 0..shards {
        let name = format!("queue_depth{{shard=\"{shard}\"}}");
        if recorded_of(&name) == 0 {
            return Err(format!("no samples for shard {shard} ({name})"));
        }
    }
    if doc.get("scenario").and_then(Value::as_str) == Some("repartition") {
        if recorded_of("repartition_attempts") == 0 {
            return Err("repartition scenario without repartition_attempts samples".to_owned());
        }
        for shard in 0..shards {
            let name = format!("bands{{shard=\"{shard}\"}}");
            if recorded_of(&name) == 0 {
                return Err(format!("no band gauge samples for shard {shard} ({name})"));
            }
        }
        return Ok(format!(
            "ok: {shards} shards sampled, {} series, repartition scenario",
            series.len()
        ));
    }
    let overhead = doc
        .get("overhead")
        .and_then(|o| o.get("overhead_pct"))
        .and_then(Value::as_f64)
        .ok_or_else(|| "missing overhead measurement".to_owned())?;
    Ok(format!(
        "ok: {shards} shards sampled, {} series, sampler overhead {overhead:.2}%",
        series.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal valid report over `shards` shards. `extra` series are
    /// appended verbatim after the required `queue_depth` ones.
    fn report(shards: usize, extra: &[(&str, u64)]) -> String {
        let mut series = String::new();
        for shard in 0..shards {
            series.push_str(&format!(
                "{{\"name\": \"queue_depth{{shard=\\\"{shard}\\\"}}\", \
                 \"recorded\": 12, \"len\": 12}}, "
            ));
        }
        for (name, recorded) in extra {
            series.push_str(&format!(
                "{{\"name\": \"{}\", \"recorded\": {recorded}, \"len\": {recorded}}}, ",
                name.replace('"', "\\\"")
            ));
        }
        let series = series.trim_end_matches(", ");
        format!(
            "{{\"kind\": \"mobidx-telemetry\", \"shards\": {shards}, \"ticks\": 12, \
             \"telemetry\": {{\"series\": [{series}]}}, \
             \"overhead\": {{\"overhead_pct\": 0.4}}}}"
        )
    }

    #[test]
    fn minimal_report_passes() {
        let summary = validate_report(&report(2, &[])).expect("valid report");
        assert!(summary.starts_with("ok: 2 shards"), "{summary}");
    }

    /// The durable serving tier adds per-shard and aggregate WAL
    /// series; the checker must accept reports carrying them.
    #[test]
    fn report_with_wal_counter_series_passes() {
        let text = report(
            2,
            &[
                ("wal_records{shard=\"0\"}", 12),
                ("wal_records{shard=\"1\"}", 12),
                ("wal_fsyncs{shard=\"0\"}", 12),
                ("wal_fsyncs{shard=\"1\"}", 12),
                ("wal_records_total", 12),
                ("wal_fsyncs_total", 12),
            ],
        );
        let summary = validate_report(&text).expect("wal series must be accepted");
        assert!(summary.contains("8 series"), "{summary}");
    }

    #[test]
    fn report_with_snapshot_series_passes() {
        let text = report(
            2,
            &[
                ("queries{shard=\"0\"}", 40),
                ("queries{shard=\"1\"}", 40),
                ("queries_total", 80),
                ("snapshot_epoch", 12),
                ("snapshot_age_ticks", 1),
            ],
        );
        let summary = validate_report(&text).expect("snapshot series must be accepted");
        assert!(summary.contains("7 series"), "{summary}");
    }

    /// The SLO engine and flight-recorder instrumentation add labeled
    /// burn-rate/alert gauges, anomaly scores, and read-pool counters;
    /// the checker must accept reports carrying them (floor, not
    /// ceiling).
    #[test]
    fn report_with_slo_alert_and_readpool_series_passes() {
        let text = report(
            2,
            &[
                ("slo_burn_rate{slo=\"query-p99-s0\"}", 12),
                ("slo_burn_rate{slo=\"query-p99-s1\"}", 12),
                ("slo_burn_rate{slo=\"shard-fault-s0\"}", 12),
                ("slo_burn_rate{slo=\"snapshot-age\"}", 12),
                ("alert_active{slo=\"query-p99-s0\"}", 12),
                ("alert_active{slo=\"shard-fault-s0\"}", 12),
                ("anomaly_z{series=\"queue_depth_total\"}", 12),
                ("readpool_depth", 12),
                ("readpool_submitted", 12),
                ("readpool_stolen", 12),
                ("readpool_executed{worker=\"0\"}", 12),
            ],
        );
        let summary = validate_report(&text).expect("slo/alert/readpool series must be accepted");
        assert!(summary.contains("13 series"), "{summary}");
    }

    /// The online-repartitioning scenario ships a sampler report with
    /// `repartition_*` and per-shard `bands` series but no paired
    /// overhead measurement; the checker must accept it on the scenario
    /// floor instead.
    #[test]
    fn repartition_scenario_report_passes_without_overhead() {
        let text = report(
            2,
            &[
                ("bands{shard=\"0\"}", 12),
                ("bands{shard=\"1\"}", 12),
                ("repartitions{shard=\"0\"}", 12),
                ("repartitions{shard=\"1\"}", 12),
                ("repartition_age_ticks{shard=\"0\"}", 12),
                ("repartition_age_ticks{shard=\"1\"}", 12),
                ("repartition_events", 12),
                ("repartition_attempts", 12),
                ("repartition_skipped", 12),
                ("repartition_moved_total", 12),
                ("repartition_last_ms", 12),
            ],
        )
        .replace(
            "\"overhead\": {\"overhead_pct\": 0.4}",
            "\"scenario\": \"repartition\"",
        );
        let summary = validate_report(&text).expect("repartition series must be accepted");
        assert!(summary.contains("repartition scenario"), "{summary}");
        assert!(summary.contains("13 series"), "{summary}");
    }

    /// A scenario report without the repartition floor is rejected even
    /// though plain reports would only miss the overhead object.
    #[test]
    fn repartition_scenario_without_its_floor_fails() {
        let no_attempts = report(1, &[("bands{shard=\"0\"}", 12)]).replace(
            "\"overhead\": {\"overhead_pct\": 0.4}",
            "\"scenario\": \"repartition\"",
        );
        let err = validate_report(&no_attempts).expect_err("attempts series required");
        assert!(err.contains("repartition_attempts"), "{err}");
        let no_bands = report(1, &[("repartition_attempts", 12)]).replace(
            "\"overhead\": {\"overhead_pct\": 0.4}",
            "\"scenario\": \"repartition\"",
        );
        let err = validate_report(&no_bands).expect_err("band gauges required");
        assert!(err.contains("band gauge"), "{err}");
    }

    #[test]
    fn missing_shard_series_fails() {
        let mut text = report(3, &[]);
        text = text.replace(
            "queue_depth{shard=\\\"2\\\"}",
            "queue_depth{shard=\\\"9\\\"}",
        );
        let err = validate_report(&text).expect_err("shard 2 has no series");
        assert!(err.contains("shard 2"), "{err}");
    }

    #[test]
    fn wrong_kind_zero_shards_and_garbage_fail() {
        let wrong_kind = report(1, &[]).replace("mobidx-telemetry", "something-else");
        assert!(validate_report(&wrong_kind).is_err());
        let zero = report(1, &[]).replace("\"shards\": 1", "\"shards\": 0");
        assert_eq!(
            validate_report(&zero).expect_err("zero shards"),
            "zero shards"
        );
        assert!(validate_report("not json at all").is_err());
    }

    #[test]
    fn missing_overhead_fails() {
        let text = report(1, &[]).replace("overhead_pct", "something_else");
        let err = validate_report(&text).expect_err("overhead required");
        assert!(err.contains("overhead"), "{err}");
    }
}
