//! `mobidx-doctor`: root-cause attribution over flight-recorder
//! bundles.
//!
//! A diagnostic bundle (`kind: "mobidx-bundle"`, dumped by the serving
//! tier's flight recorder on a trigger or by `ShardedDb::dump_bundle`)
//! is fully self-contained: per-shard health histograms, WAL/I/O
//! counter totals and deltas, recent span trees, the telemetry window,
//! the SLO engine's alert state, and the workload profile. The doctor
//! re-derives *where the latency went* from those sections alone — it
//! never talks to the process that wrote the bundle, so the same report
//! comes out of a bundle parsed seconds or months after the incident.
//!
//! ## Attribution model
//!
//! Each finding scores one *phase* of the serving path, in microseconds
//! (comparable across phases by construction), for one shard or for the
//! whole database:
//!
//! * `shard_poisoned` — the shard awaits a rebuild; scored with a large
//!   sentinel so a dead shard always outranks a slow one.
//! * `wal_fsync` — per-batch apply latency (`update_latency_us` p99)
//!   attributed to the WAL when the bundle shows ≥ [`FSYNC_GATE`]
//!   fsyncs per WAL record — the signature of `FsyncPolicy::Always`
//!   (one fsync per record) as opposed to group commit (one per
//!   drained batch, amortized toward zero per record).
//! * `queue_wait` — mean `queue_wait_nanos` over the bundle's
//!   `s<shard>/execute` span legs: time requests sat in the worker
//!   queue before execution.
//! * `merge` — per-query k-way-merge tail at the facade: root `query`
//!   span end minus the last leg's end, averaged over the bundle's
//!   span trees (whole-database scope).
//! * `snapshot_staleness` — the published snapshot's age
//!   (`snapshot_age_ticks` × the sampler tick, both recovered from the
//!   telemetry section; whole-database scope).
//!
//! Findings are ranked by score, descending; ties break on
//! (scope, phase) so the report is deterministic for a given bundle.
//! Drift and alert event spans found in the bundle are listed alongside
//! as correlated context, not scored.

use mobidx_obs::json::Value;
use mobidx_obs::Span;

/// Sentinel score (µs) for a poisoned shard: outranks any latency.
pub const POISON_SCORE_US: f64 = 1.0e9;

/// `wal_fsyncs / wal_records` at or above which per-batch latency is
/// attributed to fsync stalls rather than index work (group commit
/// amortizes toward 1/batch; `FsyncPolicy::Always` pins it at 1).
pub const FSYNC_GATE: f64 = 0.5;

/// Where a finding points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// One shard of the serving tier.
    Shard(usize),
    /// The facade / whole database (merge, staleness).
    Db,
}

impl Scope {
    /// Display form (`s3` or `db`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Scope::Shard(s) => format!("s{s}"),
            Scope::Db => "db".to_owned(),
        }
    }
}

/// One ranked attribution.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The shard (or the whole database) this points at.
    pub scope: Scope,
    /// The serving-path phase charged (see the module docs).
    pub phase: &'static str,
    /// The phase's latency contribution, in microseconds
    /// ([`POISON_SCORE_US`] for a poisoned shard).
    pub score_us: f64,
    /// Human-readable supporting numbers.
    pub evidence: String,
}

impl Finding {
    /// The finding as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("scope".to_owned(), Value::from(self.scope.label().as_str())),
            ("phase".to_owned(), Value::from(self.phase)),
            ("score_us".to_owned(), Value::Num(self.score_us)),
            ("evidence".to_owned(), Value::from(self.evidence.as_str())),
        ])
    }
}

/// The doctor's verdict over one bundle.
#[derive(Debug, Clone)]
pub struct DoctorReport {
    /// What captured the bundle (`shard_poison`, `slo_breach`, `drift`,
    /// `manual`).
    pub trigger: String,
    /// The bundle's capture sequence number.
    pub seq: u64,
    /// Shards in the serving tier.
    pub shards: u64,
    /// Ranked attributions, highest score first.
    pub findings: Vec<Finding>,
    /// Drift / alert event spans found in the bundle, oldest first.
    pub correlated: Vec<String>,
}

impl DoctorReport {
    /// The top-ranked finding for one shard, if any phase scored.
    #[must_use]
    pub fn top_for_shard(&self, shard: usize) -> Option<&Finding> {
        self.findings
            .iter()
            .find(|f| f.scope == Scope::Shard(shard))
    }

    /// The report as a JSON object (round-trips the ranking exactly:
    /// parsing a rendered report and re-rendering is the identity).
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("kind".to_owned(), Value::from("mobidx-doctor")),
            ("trigger".to_owned(), Value::from(self.trigger.as_str())),
            ("seq".to_owned(), Value::from(self.seq)),
            ("shards".to_owned(), Value::from(self.shards)),
            (
                "findings".to_owned(),
                Value::Arr(self.findings.iter().map(Finding::to_json).collect()),
            ),
            (
                "correlated".to_owned(),
                Value::Arr(
                    self.correlated
                        .iter()
                        .map(|s| Value::from(s.as_str()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "mobidx-doctor: bundle #{} (trigger: {}, {} shards)\n",
            self.seq, self.trigger, self.shards
        ));
        if self.findings.is_empty() {
            out.push_str("  no latency attribution — all phases quiet\n");
        } else {
            out.push_str("  rank  scope  phase               score_us  evidence\n");
            for (rank, f) in self.findings.iter().enumerate() {
                out.push_str(&format!(
                    "  {:>4}  {:<5}  {:<18}  {:>8.0}  {}\n",
                    rank + 1,
                    f.scope.label(),
                    f.phase,
                    f.score_us,
                    f.evidence
                ));
            }
        }
        if !self.correlated.is_empty() {
            out.push_str("  correlated events:\n");
            for ev in &self.correlated {
                out.push_str(&format!("    - {ev}\n"));
            }
        }
        out
    }
}

/// Validates that `bundle` is a well-formed flight-recorder bundle.
/// Collects every violation rather than stopping at the first, so a CI
/// failure names everything wrong at once.
///
/// # Errors
/// The list of violations, each one line.
pub fn validate_bundle(bundle: &Value) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    if bundle.get("kind").and_then(Value::as_str) != Some("mobidx-bundle") {
        errs.push("kind is not \"mobidx-bundle\"".to_owned());
    }
    if bundle.get("version").and_then(Value::as_u64) != Some(1) {
        errs.push("unsupported bundle version".to_owned());
    }
    match bundle.get("trigger").and_then(Value::as_str) {
        Some(t) if !t.is_empty() => {}
        _ => errs.push("missing trigger".to_owned()),
    }
    let shards = bundle.get("shards").and_then(Value::as_u64);
    match shards {
        None | Some(0) => errs.push("missing or zero shard count".to_owned()),
        Some(_) => {}
    }
    match bundle
        .get("health")
        .and_then(|h| h.get("shards"))
        .and_then(Value::as_array)
    {
        Some(hs) => {
            if let Some(n) = shards {
                if hs.len() as u64 != n {
                    errs.push(format!(
                        "health.shards has {} entries for {n} shards",
                        hs.len()
                    ));
                }
            }
        }
        None => errs.push("missing health.shards".to_owned()),
    }
    if bundle
        .get("health")
        .and_then(|h| h.get("read_pool"))
        .is_none()
    {
        errs.push("missing health.read_pool".to_owned());
    }
    match bundle.get("io").and_then(Value::as_array) {
        Some(io) => {
            if let Some(n) = shards {
                if io.len() as u64 != n {
                    errs.push(format!("io has {} entries for {n} shards", io.len()));
                }
            }
        }
        None => errs.push("missing io section".to_owned()),
    }
    match bundle.get("events").and_then(Value::as_array) {
        Some(events) => {
            for (i, ev) in events.iter().enumerate() {
                if let Err(e) = Span::from_json(ev) {
                    errs.push(format!("events[{i}]: {e}"));
                }
            }
        }
        None => errs.push("missing events section".to_owned()),
    }
    for section in ["alerts", "telemetry", "profile"] {
        if bundle.get(section).is_none() {
            errs.push(format!("missing {section} section"));
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Diagnoses one bundle (see the module docs for the attribution
/// model).
///
/// # Errors
/// Returns the first [`validate_bundle`] violation — diagnosis only
/// runs over well-formed bundles.
pub fn diagnose(bundle: &Value) -> Result<DoctorReport, String> {
    validate_bundle(bundle).map_err(|errs| errs.join("; "))?;
    let trigger = bundle
        .get("trigger")
        .and_then(Value::as_str)
        .unwrap_or("unknown")
        .to_owned();
    let seq = bundle.get("seq").and_then(Value::as_u64).unwrap_or(0);
    let shards = bundle.get("shards").and_then(Value::as_u64).unwrap_or(0);
    let health_shards = bundle
        .get("health")
        .and_then(|h| h.get("shards"))
        .and_then(Value::as_array)
        .expect("validated");
    let io = bundle
        .get("io")
        .and_then(Value::as_array)
        .expect("validated");
    let spans: Vec<Span> = bundle
        .get("events")
        .and_then(Value::as_array)
        .expect("validated")
        .iter()
        .filter_map(|v| Span::from_json(v).ok())
        .collect();

    let mut findings = Vec::new();
    #[allow(clippy::cast_possible_truncation)]
    for (shard, h) in health_shards.iter().enumerate() {
        let hist = |name: &str, field: &str| -> f64 {
            h.get(name)
                .and_then(|v| v.get(field))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        if h.get("poisoned").and_then(Value::as_bool) == Some(true) {
            findings.push(Finding {
                scope: Scope::Shard(shard),
                phase: "shard_poisoned",
                score_us: POISON_SCORE_US,
                evidence: "shard awaits rebuild; all queued work is rejected".to_owned(),
            });
        }
        // WAL fsync: gate on the per-record fsync ratio from the I/O
        // section, then charge the per-batch apply tail.
        let totals = io.get(shard).and_then(|v| v.get("totals"));
        let wal_records = totals
            .and_then(|t| t.get("wal_records"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let wal_fsyncs = totals
            .and_then(|t| t.get("wal_fsyncs"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        if wal_records > 0.0 {
            let ratio = wal_fsyncs / wal_records;
            let update_p99 = hist("update_latency_us", "p99");
            if ratio >= FSYNC_GATE && update_p99 > 0.0 {
                findings.push(Finding {
                    scope: Scope::Shard(shard),
                    phase: "wal_fsync",
                    score_us: update_p99,
                    evidence: format!(
                        "{ratio:.2} fsyncs/record ({wal_fsyncs:.0}/{wal_records:.0}); \
                         apply p99 {update_p99:.0}µs"
                    ),
                });
            }
        }
        // Queue wait: mean over this shard's execute legs in the
        // bundle's recent span trees.
        let (mut wait_sum, mut wait_n) = (0.0f64, 0u64);
        let leg_name = format!("s{shard}/execute");
        for root in &spans {
            root.visit(&mut |s| {
                if s.name == leg_name {
                    if let Some(w) = s.attr_u64("queue_wait_nanos") {
                        #[allow(clippy::cast_precision_loss)]
                        {
                            wait_sum += w as f64 / 1_000.0;
                        }
                        wait_n += 1;
                    }
                }
            });
        }
        if wait_n > 0 {
            #[allow(clippy::cast_precision_loss)]
            let mean = wait_sum / wait_n as f64;
            if mean > 0.0 {
                findings.push(Finding {
                    scope: Scope::Shard(shard),
                    phase: "queue_wait",
                    score_us: mean,
                    evidence: format!("mean over {wait_n} traced legs"),
                });
            }
        }
    }

    // Merge: facade time after the last leg returned, averaged over the
    // bundle's query roots.
    let (mut merge_sum, mut merge_n) = (0.0f64, 0u64);
    for root in &spans {
        if root.name != "query" || root.children.is_empty() {
            continue;
        }
        let root_end = root.start_nanos + root.duration_nanos;
        let last_leg_end = root
            .children
            .iter()
            .map(|c| c.start_nanos + c.duration_nanos)
            .max()
            .unwrap_or(root_end);
        #[allow(clippy::cast_precision_loss)]
        {
            merge_sum += root_end.saturating_sub(last_leg_end) as f64 / 1_000.0;
        }
        merge_n += 1;
    }
    if merge_n > 0 {
        #[allow(clippy::cast_precision_loss)]
        let mean = merge_sum / merge_n as f64;
        if mean > 0.0 {
            findings.push(Finding {
                scope: Scope::Db,
                phase: "merge",
                score_us: mean,
                evidence: format!("mean post-leg tail over {merge_n} query trees"),
            });
        }
    }

    // Snapshot staleness: age in ticks × the sampler tick, both
    // recovered from the telemetry section.
    if let Some((age_ticks, tick_us)) = staleness_from_telemetry(bundle.get("telemetry")) {
        let score = age_ticks * tick_us;
        if score > 0.0 {
            findings.push(Finding {
                scope: Scope::Db,
                phase: "snapshot_staleness",
                score_us: score,
                evidence: format!(
                    "published snapshot is {age_ticks:.0} ticks old (~{tick_us:.0}µs/tick)"
                ),
            });
        }
    }

    findings.sort_by(|a, b| {
        b.score_us
            .total_cmp(&a.score_us)
            .then_with(|| a.scope.cmp(&b.scope))
            .then_with(|| a.phase.cmp(b.phase))
    });

    // Correlated (unscored) context: drift and alert events, plus the
    // SLO engine's still-active alerts.
    let mut correlated = Vec::new();
    for s in &spans {
        match s.name.as_str() {
            "drift" => correlated.push(format!(
                "drift @{}ms (l1={})",
                s.start_nanos / 1_000_000,
                s.attr("l1").and_then(Value::as_f64).unwrap_or(0.0)
            )),
            "alert" => correlated.push(format!(
                "alert {} {} on {} @{}ms",
                s.attr_str("state").unwrap_or("?"),
                s.attr_str("slo").unwrap_or("?"),
                s.attr_str("series").unwrap_or("?"),
                s.start_nanos / 1_000_000
            )),
            _ => {}
        }
    }
    if let Some(active) = bundle
        .get("alerts")
        .and_then(|a| a.get("active"))
        .and_then(Value::as_array)
    {
        for a in active {
            correlated.push(format!(
                "active alert {} ({}) value {:.2} vs threshold {:.2}",
                a.get("name").and_then(Value::as_str).unwrap_or("?"),
                a.get("kind").and_then(Value::as_str).unwrap_or("?"),
                a.get("value").and_then(Value::as_f64).unwrap_or(0.0),
                a.get("threshold").and_then(Value::as_f64).unwrap_or(0.0),
            ));
        }
    }

    Ok(DoctorReport {
        trigger,
        seq,
        shards,
        findings,
        correlated,
    })
}

/// Recovers (`snapshot_age_ticks` last value, sampler tick in µs) from
/// the bundle's telemetry section. The tick is the median spacing of
/// the age series' timestamps — the bundle doesn't carry the sampler
/// config, but the samples do.
fn staleness_from_telemetry(telemetry: Option<&Value>) -> Option<(f64, f64)> {
    let series = telemetry?.get("series").and_then(Value::as_array)?;
    let age = series
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some("snapshot_age_ticks"))?;
    let samples = age.get("samples").and_then(Value::as_array)?;
    let last = samples.last()?.as_array()?.get(1).and_then(Value::as_f64)?;
    let mut gaps: Vec<f64> = samples
        .windows(2)
        .filter_map(|w| {
            let t0 = w[0].as_array()?.first().and_then(Value::as_f64)?;
            let t1 = w[1].as_array()?.first().and_then(Value::as_f64)?;
            Some((t1 - t0) / 1_000.0)
        })
        .collect();
    if gaps.is_empty() {
        return None;
    }
    gaps.sort_by(f64::total_cmp);
    Some((last, gaps[gaps.len() / 2]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a minimal well-formed bundle by hand: 2 shards, shard 1
    /// poisoned, shard 0 fsync-bound, one traced query tree. Shard 1
    /// also carries the I/O-wait histogram of bundles dumped by older
    /// builds, which the doctor ignores.
    fn bundle() -> Value {
        let text = r#"{
          "kind": "mobidx-bundle", "version": 1, "seq": 3,
          "trigger": "manual", "t_nanos": 5000000, "shards": 2,
          "snapshot_epoch": 7,
          "health": {
            "shards": [
              {"shard": 0, "queue_depth": 0, "poisoned": false,
               "update_latency_us": {"count": 40, "p99": 9000},
               "query_latency_us": {"count": 10, "p99": 300}},
              {"shard": 1, "queue_depth": 2, "poisoned": true,
               "update_latency_us": {"count": 40, "p99": 200},
               "io_wait_us": {"count": 12, "p99": 450},
               "query_latency_us": {"count": 10, "p99": 250}}
            ],
            "read_pool": {"threads": 0, "submitted": 0, "stolen": 0,
                          "executed": [], "depth": 0, "depth_high_water": 0},
            "spans_recorded": 1, "spans_dropped": 0
          },
          "io": [
            {"shard": 0, "totals": {"reads": 10, "writes": 5, "pages": 9,
             "hits": 2, "wal_records": 100, "wal_fsyncs": 100},
             "delta": {"reads": 1, "writes": 1, "pages": 0, "hits": 0,
             "wal_records": 10, "wal_fsyncs": 10}},
            {"shard": 1, "totals": {"reads": 8, "writes": 4, "pages": 9,
             "hits": 2, "wal_records": 100, "wal_fsyncs": 1},
             "delta": {"reads": 0, "writes": 0, "pages": 0, "hits": 0,
             "wal_records": 0, "wal_fsyncs": 0}}
          ],
          "alerts": {"slos": [], "evaluations": 5, "raised": 1,
            "active": [{"name": "query-p99-s0", "kind": "burn_rate",
              "series": "query_p99_us{shard=\"0\"}", "value": 4.0,
              "threshold": 2.0, "since_nanos": 100}]},
          "events": [
            {"name": "query", "start_nanos": 1000, "duration_nanos": 9000,
             "reads": 0, "writes": 0, "hits": 0, "children": [
               {"name": "s0/execute", "start_nanos": 2000,
                "duration_nanos": 3000, "reads": 2, "writes": 0, "hits": 1,
                "attrs": {"shard": 0, "queue_wait_nanos": 800000}},
               {"name": "s1/execute", "start_nanos": 2500,
                "duration_nanos": 4000, "reads": 1, "writes": 0, "hits": 0,
                "attrs": {"shard": 1, "queue_wait_nanos": 200000}}
             ]},
            {"name": "alert", "start_nanos": 4000, "duration_nanos": 0,
             "reads": 0, "writes": 0, "hits": 0,
             "attrs": {"slo": "query-p99-s0", "kind": "burn_rate",
                       "state": "raised",
                       "series": "query_p99_us{shard=\"0\"}"}}
          ],
          "telemetry": {"capacity": 64, "series": [
            {"name": "snapshot_age_ticks", "recorded": 3, "dropped": 0,
             "summary": {"count": 3, "min": 0, "max": 2, "mean": 1, "last": 2},
             "samples": [[1000000, 0], [2000000, 1], [3000000, 2]]}
          ]},
          "profile": {"updates": 100}
        }"#;
        Value::parse(text).expect("test bundle parses")
    }

    #[test]
    fn validates_and_ranks_poison_first() {
        let b = bundle();
        validate_bundle(&b).expect("well-formed");
        let report = diagnose(&b).expect("diagnosis");
        assert_eq!(report.trigger, "manual");
        assert_eq!(report.shards, 2);
        // Poisoned shard 1 outranks everything; fsync-bound shard 0 is
        // the top *latency* cause.
        assert_eq!(report.findings[0].phase, "shard_poisoned");
        assert_eq!(report.findings[0].scope, Scope::Shard(1));
        assert_eq!(report.findings[1].phase, "wal_fsync");
        assert_eq!(report.findings[1].scope, Scope::Shard(0));
        let top0 = report.top_for_shard(0).expect("shard 0 finding");
        assert_eq!(top0.phase, "wal_fsync");
        assert!((top0.score_us - 9000.0).abs() < 1e-9);
        // Shard 1's WAL is group-committed (0.01 fsyncs/record): no
        // fsync finding for it.
        assert!(!report
            .findings
            .iter()
            .any(|f| f.scope == Scope::Shard(1) && f.phase == "wal_fsync"));
        // Queue wait: shard 0's single leg waited 800µs.
        let qw = report
            .findings
            .iter()
            .find(|f| f.scope == Scope::Shard(0) && f.phase == "queue_wait")
            .expect("queue wait finding");
        assert!((qw.score_us - 800.0).abs() < 1e-9);
        // The old I/O-wait histogram is ignored: no disk finding, and
        // the other phases rank as they always did.
        let ranked: Vec<(Scope, &str)> =
            report.findings.iter().map(|f| (f.scope, f.phase)).collect();
        assert_eq!(
            ranked,
            [
                (Scope::Shard(1), "shard_poisoned"),
                (Scope::Shard(0), "wal_fsync"),
                (Scope::Db, "snapshot_staleness"),
                (Scope::Shard(0), "queue_wait"),
                (Scope::Shard(1), "queue_wait"),
                (Scope::Db, "merge"),
            ]
        );
        assert!(!report.findings.iter().any(|f| f.phase == "disk_io"));
        // Merge: root ends at 10000, last leg at 6500 → 3.5µs.
        let merge = report
            .findings
            .iter()
            .find(|f| f.phase == "merge")
            .expect("merge finding");
        assert_eq!(merge.scope, Scope::Db);
        assert!((merge.score_us - 3.5).abs() < 1e-9);
        // Staleness: 2 ticks × 1000µs median gap.
        let stale = report
            .findings
            .iter()
            .find(|f| f.phase == "snapshot_staleness")
            .expect("staleness finding");
        assert!((stale.score_us - 2000.0).abs() < 1e-9);
        // Correlated: the alert event and the still-active alert.
        assert_eq!(report.correlated.len(), 2);
        assert!(report.correlated[0].contains("alert raised query-p99-s0"));
        assert!(report.correlated[1].contains("active alert query-p99-s0"));
        let rendered = report.render();
        assert!(rendered.contains("shard_poisoned"), "{rendered}");
        assert!(rendered.contains("correlated events"), "{rendered}");
    }

    /// Rendered JSON → re-parsed → re-diagnosed must be byte-identical:
    /// the doctor is a pure function of the bundle text.
    #[test]
    fn report_is_deterministic_over_round_trip() {
        let b = bundle();
        let report1 = diagnose(&b).expect("first pass");
        let reparsed = Value::parse(&b.render_pretty()).expect("round trip");
        let report2 = diagnose(&reparsed).expect("second pass");
        assert_eq!(report1.render(), report2.render());
        assert_eq!(
            report1.to_json().render_pretty(),
            report2.to_json().render_pretty()
        );
    }

    #[test]
    fn rejects_malformed_bundles() {
        let errs = validate_bundle(&Value::parse("{}").unwrap()).expect_err("empty");
        assert!(errs.iter().any(|e| e.contains("kind")));
        assert!(errs.iter().any(|e| e.contains("health.shards")));
        // A bundle whose shard count disagrees with its sections.
        let mut text = bundle().render_pretty();
        text = text.replacen("\"shards\": 2", "\"shards\": 3", 1);
        let b = Value::parse(&text).expect("still JSON");
        let errs = validate_bundle(&b).expect_err("mismatched counts");
        assert!(errs.iter().any(|e| e.contains("health.shards has 2")));
        assert!(errs.iter().any(|e| e.contains("io has 2")));
        assert!(diagnose(&b).is_err());
        // A bundle with a broken span.
        let broken = bundle()
            .render_pretty()
            .replace("\"name\": \"query\"", "\"nom\": \"query\"");
        let b = Value::parse(&broken).expect("still JSON");
        let errs = validate_bundle(&b).expect_err("broken span");
        assert!(errs.iter().any(|e| e.contains("events[0]")));
    }
}
