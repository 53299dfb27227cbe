//! Regression diffing between two benchmark JSON reports.
//!
//! [`diff_reports`] compares a baseline `BENCH_*.json` document against
//! a freshly measured one and flags any metric that moved past a
//! threshold in its *bad* direction. Both report shapes are understood:
//!
//! * **figure reports** (`figures --json`) — top-level `mixes`, rows
//!   keyed by `(mix, method, n)`; gated metrics are the deterministic
//!   I/O counts `avg_query_ios`, `avg_update_ios`, and `pages` (lower
//!   is better);
//! * **serve reports** (`serve_bench --json`) — `batch_cells` keyed by
//!   batch size, gated on `ios_per_op`, and `read_cells` keyed by
//!   reader:writer ratio, gated on `reads_per_query`. Both are page
//!   counts, deterministic per seed; wall-clock columns are not compared
//!   (time belongs to `perf-ledger`).
//!
//! A row present in the baseline but missing from the current report is
//! itself a regression (a method or cell silently dropped out of the
//! run), and so is a gated metric present in a baseline row but missing
//! from the current one. Rows only present in the current report are
//! ignored — adding coverage is not a regression.

use mobidx_obs::json::Value;

/// One compared metric of one row.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Row identity, e.g. `large/dual-B+ (c=4)/n=2000` or `shards=4`.
    pub row: String,
    /// Metric name, e.g. `avg_query_ios`.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Signed relative change in percent (`+` = value went up).
    pub delta_pct: f64,
    /// Whether the change exceeds the threshold in the bad direction.
    pub regressed: bool,
}

/// The outcome of diffing two reports.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Every compared metric, in report order.
    pub deltas: Vec<MetricDelta>,
    /// Rows present in the baseline but absent from the current report,
    /// and `row/metric` for gated metrics a current row dropped.
    pub missing_rows: Vec<String>,
    /// The regression threshold, in percent.
    pub threshold_pct: f64,
}

impl DiffReport {
    /// Whether anything regressed (a metric past threshold or a row
    /// that disappeared).
    #[must_use]
    pub fn regressed(&self) -> bool {
        !self.missing_rows.is_empty() || self.deltas.iter().any(|d| d.regressed)
    }

    /// Renders the comparison as an aligned text table, regressions
    /// marked with `REGRESSED`, followed by any missing rows and a
    /// one-line verdict.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let row_w = self
            .deltas
            .iter()
            .map(|d| d.row.len())
            .chain(std::iter::once(3))
            .max()
            .unwrap_or(3);
        out.push_str(&format!(
            "{:<row_w$} {:>16} {:>14} {:>14} {:>9}\n",
            "row", "metric", "baseline", "current", "delta"
        ));
        for d in &self.deltas {
            out.push_str(&format!(
                "{:<row_w$} {:>16} {:>14.3} {:>14.3} {:>+8.1}%{}\n",
                d.row,
                d.metric,
                d.baseline,
                d.current,
                d.delta_pct,
                if d.regressed { "  REGRESSED" } else { "" }
            ));
        }
        for row in &self.missing_rows {
            out.push_str(&format!("{row}: missing from current report  REGRESSED\n"));
        }
        out.push_str(&format!(
            "{} metrics compared, threshold {}%: {}\n",
            self.deltas.len(),
            self.threshold_pct,
            if self.regressed() { "REGRESSION" } else { "ok" }
        ));
        out
    }
}

/// A report pair that cannot be diffed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// The documents are not both figure reports or both serve reports.
    Shape(String),
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::Shape(msg) => write!(f, "report shape: {msg}"),
        }
    }
}

impl std::error::Error for DiffError {}

/// Diffs two parsed benchmark reports.
///
/// `threshold_pct` is the tolerated relative movement in the bad
/// direction (10.0 = 10 %). Every gated metric is a cost: growing past
/// the threshold is a regression.
///
/// # Errors
/// [`DiffError::Shape`] when a document is neither a figure report nor a
/// serve report.
pub fn diff_reports(
    baseline: &Value,
    current: &Value,
    threshold_pct: f64,
) -> Result<DiffReport, DiffError> {
    let base_rows = collect_rows(baseline)?;
    let cur_rows = collect_rows(current)?;
    let mut deltas = Vec::new();
    let mut missing_rows = Vec::new();
    for (row, metrics) in base_rows {
        let Some(cur_metrics) = cur_rows.iter().find(|(r, _)| *r == row).map(|(_, m)| m) else {
            missing_rows.push(row);
            continue;
        };
        for (metric, base_val) in metrics {
            let Some((_, cur_val)) = cur_metrics.iter().find(|(m, _)| *m == metric) else {
                missing_rows.push(format!("{row}/{metric}"));
                continue;
            };
            deltas.push(compare(&row, metric, base_val, *cur_val, threshold_pct));
        }
    }
    Ok(DiffReport {
        deltas,
        missing_rows,
        threshold_pct,
    })
}

/// One row's gated metrics: `(metric name, value)`, each lower-is-better.
type Row = (String, Vec<(&'static str, f64)>);

/// The gated metrics `cell` carries, of those named in `names`.
fn gated(cell: &Value, names: &[&'static str]) -> Vec<(&'static str, f64)> {
    names
        .iter()
        .filter_map(|&name| cell.get(name).and_then(Value::as_f64).map(|v| (name, v)))
        .collect()
}

/// Extracts the comparable rows of either report shape. A serve report
/// may carry a batched-update sweep (`batch_cells`) and a read-heavy
/// sweep (`read_cells`); their rows are concatenated.
fn collect_rows(doc: &Value) -> Result<Vec<Row>, DiffError> {
    if let Some(mixes) = doc.get("mixes") {
        return figure_rows(mixes);
    }
    let mut rows = Vec::new();
    let mut any = false;
    if let Some(cells) = doc.get("batch_cells") {
        rows.extend(batch_rows(cells)?);
        any = true;
    }
    if let Some(cells) = doc.get("read_cells") {
        rows.extend(read_rows(cells)?);
        any = true;
    }
    if any {
        return Ok(rows);
    }
    Err(DiffError::Shape(
        "neither 'mixes' (figure report) nor 'batch_cells'/'read_cells' (serve report) found"
            .to_owned(),
    ))
}

/// Rows of a figure report: one per `(mix, method, n)` cell.
fn figure_rows(mixes: &Value) -> Result<Vec<Row>, DiffError> {
    let Value::Obj(members) = mixes else {
        return Err(DiffError::Shape("'mixes' is not an object".to_owned()));
    };
    let mut rows = Vec::new();
    for (mix, cells) in members {
        let cells = cells
            .as_array()
            .ok_or_else(|| DiffError::Shape(format!("mix '{mix}' is not an array")))?;
        for cell in cells {
            let method = cell
                .get("method")
                .and_then(Value::as_str)
                .ok_or_else(|| DiffError::Shape(format!("mix '{mix}': cell without method")))?;
            let n = cell.get("n").and_then(Value::as_u64).unwrap_or(0);
            let metrics = gated(
                cell,
                &[
                    "avg_query_ios",
                    "avg_update_ios",
                    "avg_update_ios_batched",
                    "pages",
                ],
            );
            rows.push((format!("{mix}/{method}/n={n}"), metrics));
        }
    }
    Ok(rows)
}

/// Rows of a serve report's batched-update sweep: one per batch size.
/// The gate is `ios_per_op`, the per-op page I/O of the grouped write
/// path.
fn batch_rows(cells: &Value) -> Result<Vec<Row>, DiffError> {
    let cells = cells
        .as_array()
        .ok_or_else(|| DiffError::Shape("'batch_cells' is not an array".to_owned()))?;
    let mut rows = Vec::new();
    for cell in cells {
        let batch = cell
            .get("batch")
            .and_then(Value::as_u64)
            .ok_or_else(|| DiffError::Shape("batch cell without batch size".to_owned()))?;
        rows.push((format!("batch={batch}"), gated(cell, &["ios_per_op"])));
    }
    Ok(rows)
}

/// Rows of a serve report's read-heavy sweep: one per reader:writer
/// ratio. The gate is `reads_per_query`, frozen pages per snapshot
/// query from the settled-tree probe.
fn read_rows(cells: &Value) -> Result<Vec<Row>, DiffError> {
    let cells = cells
        .as_array()
        .ok_or_else(|| DiffError::Shape("'read_cells' is not an array".to_owned()))?;
    let mut rows = Vec::new();
    for cell in cells {
        let readers = cell
            .get("readers")
            .and_then(Value::as_u64)
            .ok_or_else(|| DiffError::Shape("read cell without reader count".to_owned()))?;
        let writers = cell
            .get("writers")
            .and_then(Value::as_u64)
            .ok_or_else(|| DiffError::Shape("read cell without writer count".to_owned()))?;
        rows.push((
            format!("readers={readers}/writers={writers}"),
            gated(cell, &["reads_per_query"]),
        ));
    }
    Ok(rows)
}

/// One `(mix, n)` head-to-head comparison from [`beats_report`].
#[derive(Debug, Clone)]
pub struct BeatsRow {
    /// Row identity, e.g. `large/n=2000`.
    pub row: String,
    /// Metric name (`avg_query_ios` or `false_hit_rate`).
    pub metric: String,
    /// The challenger method's value.
    pub challenger: f64,
    /// The incumbent method's value.
    pub incumbent: f64,
    /// Whether the challenger is strictly better (lower).
    pub wins: bool,
}

/// The outcome of a head-to-head gate.
#[derive(Debug, Clone)]
pub struct BeatsReport {
    /// Every compared `(row, metric)` pair.
    pub rows: Vec<BeatsRow>,
    /// The two method names compared.
    pub challenger: String,
    /// Ditto.
    pub incumbent: String,
}

impl BeatsReport {
    /// Whether the challenger strictly beats the incumbent on **every**
    /// compared metric of **every** row.
    #[must_use]
    pub fn wins(&self) -> bool {
        !self.rows.is_empty() && self.rows.iter().all(|r| r.wins)
    }

    /// Renders the head-to-head as an aligned text table with a
    /// one-line verdict.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let row_w = self
            .rows
            .iter()
            .map(|r| r.row.len())
            .chain(std::iter::once(3))
            .max()
            .unwrap_or(3);
        out.push_str(&format!(
            "{:<row_w$} {:>16} {:>14} {:>14}\n",
            "row", "metric", "challenger", "incumbent"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<row_w$} {:>16} {:>14.4} {:>14.4}{}\n",
                r.row,
                r.metric,
                r.challenger,
                r.incumbent,
                if r.wins { "" } else { "  LOSES" }
            ));
        }
        out.push_str(&format!(
            "{:?} vs {:?} on {} metrics: {}\n",
            self.challenger,
            self.incumbent,
            self.rows.len(),
            if self.wins() {
                "BEATS"
            } else {
                "DOES NOT BEAT"
            }
        ));
        out
    }
}

/// Head-to-head gate within one figure report: at every `(mix, n)` cell
/// where **both** methods were measured, the challenger must be
/// strictly better (lower) on `avg_query_ios` *and* `false_hit_rate`.
/// CI uses this to pin the claim "velocity partitioning beats the flat
/// dual-B+ method", which a threshold diff against a same-method
/// baseline cannot express.
///
/// # Errors
/// [`DiffError::Shape`] when the document is not a figure report, or
/// the two methods never co-occur in any cell.
pub fn beats_report(
    doc: &Value,
    challenger: &str,
    incumbent: &str,
) -> Result<BeatsReport, DiffError> {
    let Some(Value::Obj(mixes)) = doc.get("mixes") else {
        return Err(DiffError::Shape(
            "'--beats' needs a figure report (top-level 'mixes')".to_owned(),
        ));
    };
    let mut rows = Vec::new();
    for (mix, cells) in mixes {
        let cells = cells
            .as_array()
            .ok_or_else(|| DiffError::Shape(format!("mix '{mix}' is not an array")))?;
        let find = |name: &str, n: u64| -> Option<&Value> {
            cells.iter().find(|c| {
                c.get("method").and_then(Value::as_str) == Some(name)
                    && c.get("n").and_then(Value::as_u64) == Some(n)
            })
        };
        for cell in cells {
            if cell.get("method").and_then(Value::as_str) != Some(challenger) {
                continue;
            }
            let n = cell.get("n").and_then(Value::as_u64).unwrap_or(0);
            let Some(other) = find(incumbent, n) else {
                continue;
            };
            for metric in ["avg_query_ios", "false_hit_rate"] {
                let (Some(ours), Some(theirs)) = (
                    cell.get(metric).and_then(Value::as_f64),
                    other.get(metric).and_then(Value::as_f64),
                ) else {
                    continue;
                };
                rows.push(BeatsRow {
                    row: format!("{mix}/n={n}"),
                    metric: metric.to_owned(),
                    challenger: ours,
                    incumbent: theirs,
                    wins: ours < theirs,
                });
            }
        }
    }
    if rows.is_empty() {
        return Err(DiffError::Shape(format!(
            "methods {challenger:?} and {incumbent:?} never co-occur in any cell"
        )));
    }
    Ok(BeatsReport {
        rows,
        challenger: challenger.to_owned(),
        incumbent: incumbent.to_owned(),
    })
}

/// Scores one cost metric's movement against the threshold.
fn compare(
    row: &str,
    metric: &str,
    baseline: f64,
    current: f64,
    threshold_pct: f64,
) -> MetricDelta {
    let delta_pct = if baseline.abs() < f64::EPSILON {
        if current.abs() < f64::EPSILON {
            0.0
        } else {
            // From zero to anything: infinite relative growth.
            f64::INFINITY
        }
    } else {
        (current - baseline) / baseline * 100.0
    };
    MetricDelta {
        row: row.to_owned(),
        metric: metric.to_owned(),
        baseline,
        current,
        delta_pct,
        regressed: delta_pct > threshold_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure_doc(avg_query_ios: f64, with_kd: bool) -> Value {
        let mut cells = vec![Value::Obj(vec![
            ("method".to_owned(), Value::from("dual-B+ (c=4)")),
            ("n".to_owned(), Value::from(2000u64)),
            ("avg_query_ios".to_owned(), Value::Num(avg_query_ios)),
            ("avg_update_ios".to_owned(), Value::Num(4.0)),
            ("pages".to_owned(), Value::from(77u64)),
        ])];
        if with_kd {
            cells.push(Value::Obj(vec![
                ("method".to_owned(), Value::from("dual-kd")),
                ("n".to_owned(), Value::from(2000u64)),
                ("avg_query_ios".to_owned(), Value::Num(20.0)),
                ("avg_update_ios".to_owned(), Value::Num(6.0)),
                ("pages".to_owned(), Value::from(90u64)),
            ]));
        }
        Value::Obj(vec![(
            "mixes".to_owned(),
            Value::Obj(vec![("large".to_owned(), Value::Arr(cells))]),
        )])
    }

    #[test]
    fn identical_reports_pass() {
        let base = figure_doc(12.5, true);
        let diff = diff_reports(&base, &base, 10.0).expect("diff");
        assert!(!diff.regressed());
        assert_eq!(diff.deltas.len(), 6);
        assert!(diff.deltas.iter().all(|d| d.delta_pct == 0.0));
    }

    #[test]
    fn twenty_percent_io_growth_is_rejected_at_ten() {
        let base = figure_doc(10.0, false);
        let cur = figure_doc(12.0, false);
        let diff = diff_reports(&base, &cur, 10.0).expect("diff");
        assert!(diff.regressed());
        let d = diff
            .deltas
            .iter()
            .find(|d| d.metric == "avg_query_ios")
            .expect("row");
        assert!((d.delta_pct - 20.0).abs() < 1e-9);
        assert!(d.regressed);
        assert!(diff.render_table().contains("REGRESSED"));
    }

    #[test]
    fn growth_inside_threshold_passes() {
        let base = figure_doc(10.0, false);
        let cur = figure_doc(10.9, false);
        let diff = diff_reports(&base, &cur, 10.0).expect("diff");
        assert!(!diff.regressed());
    }

    #[test]
    fn improvement_is_never_a_regression() {
        let base = figure_doc(10.0, false);
        let cur = figure_doc(5.0, false);
        let diff = diff_reports(&base, &cur, 10.0).expect("diff");
        assert!(!diff.regressed());
    }

    #[test]
    fn missing_row_is_a_regression() {
        let base = figure_doc(10.0, true);
        let cur = figure_doc(10.0, false);
        let diff = diff_reports(&base, &cur, 10.0).expect("diff");
        assert!(diff.regressed());
        assert_eq!(diff.missing_rows, vec!["large/dual-kd/n=2000".to_owned()]);
    }

    /// A serve report with one batch cell; `None` leaves out the gated
    /// `ios_per_op`.
    fn batch_doc(ios_per_op: Option<f64>) -> Value {
        let mut cell = vec![
            ("batch".to_owned(), Value::from(32u64)),
            ("update_ops_per_sec".to_owned(), Value::Num(500.0)),
        ];
        if let Some(v) = ios_per_op {
            cell.push(("ios_per_op".to_owned(), Value::Num(v)));
        }
        Value::Obj(vec![(
            "batch_cells".to_owned(),
            Value::Arr(vec![Value::Obj(cell)]),
        )])
    }

    #[test]
    fn batch_io_growth_is_gated() {
        let base = batch_doc(Some(2.0));
        let cur = batch_doc(Some(3.0)); // 50 % more I/O per op
        let diff = diff_reports(&base, &cur, 10.0).expect("diff");
        assert!(diff.regressed());
        assert_eq!(diff.deltas.len(), 1, "wall-clock columns are not compared");
        let d = &diff.deltas[0];
        assert_eq!(
            (d.row.as_str(), d.metric.as_str()),
            ("batch=32", "ios_per_op")
        );
        assert!(d.regressed);
    }

    #[test]
    fn a_dropped_gated_metric_is_a_regression() {
        let base = batch_doc(Some(2.0));
        let cur = batch_doc(None);
        let diff = diff_reports(&base, &cur, 10.0).expect("diff");
        assert!(diff.regressed());
        assert!(diff.deltas.is_empty());
        assert_eq!(diff.missing_rows, vec!["batch=32/ios_per_op".to_owned()]);
        assert!(diff.render_table().contains("REGRESSION"));
    }

    fn read_doc(reads_per_query: f64) -> Value {
        Value::Obj(vec![(
            "read_cells".to_owned(),
            Value::Arr(vec![Value::Obj(vec![
                ("readers".to_owned(), Value::from(8u64)),
                ("writers".to_owned(), Value::from(2u64)),
                ("reads_per_query".to_owned(), Value::Num(reads_per_query)),
                ("snapshot_queries_per_sec".to_owned(), Value::Num(3000.0)),
            ])]),
        )])
    }

    #[test]
    fn read_heavy_io_growth_is_gated() {
        let base = read_doc(34.0);
        let cur = read_doc(45.0); // snapshot queries touch more pages
        let diff = diff_reports(&base, &cur, 10.0).expect("diff");
        assert!(diff.regressed());
        let d = diff
            .deltas
            .iter()
            .find(|d| d.metric == "reads_per_query")
            .expect("row");
        assert_eq!(d.row, "readers=8/writers=2");
        assert!(d.regressed);
    }

    #[test]
    fn mismatched_shapes_error() {
        let fig = figure_doc(10.0, false);
        let bad = Value::Obj(vec![("nothing".to_owned(), Value::Null)]);
        assert!(diff_reports(&fig, &bad, 10.0).is_err());
    }

    /// A two-method figure doc for the head-to-head gate: one
    /// challenger cell and one incumbent cell per `(mix, n)` row.
    fn versus_doc(rows: &[(&str, u64, f64, f64, f64, f64)]) -> Value {
        let mut mixes: Vec<(String, Vec<Value>)> = Vec::new();
        for &(mix, n, ch_q, ch_f, in_q, in_f) in rows {
            let cell = |name: &str, q: f64, f: f64| {
                Value::Obj(vec![
                    ("method".to_owned(), Value::from(name)),
                    ("n".to_owned(), Value::from(n)),
                    ("avg_query_ios".to_owned(), Value::Num(q)),
                    ("false_hit_rate".to_owned(), Value::Num(f)),
                ])
            };
            let slot = match mixes.iter_mut().find(|(m, _)| m == mix) {
                Some((_, cells)) => cells,
                None => {
                    mixes.push((mix.to_owned(), Vec::new()));
                    &mut mixes.last_mut().expect("just pushed").1
                }
            };
            slot.push(cell("vp", ch_q, ch_f));
            slot.push(cell("flat", in_q, in_f));
        }
        Value::Obj(vec![(
            "mixes".to_owned(),
            Value::Obj(
                mixes
                    .into_iter()
                    .map(|(m, cells)| (m, Value::Arr(cells)))
                    .collect(),
            ),
        )])
    }

    #[test]
    fn beats_wins_when_strictly_better_everywhere() {
        let doc = versus_doc(&[
            ("large", 2000, 3.0, 0.4, 6.6, 0.72),
            ("small", 2000, 2.0, 0.8, 4.9, 0.90),
        ]);
        let report = beats_report(&doc, "vp", "flat").expect("gate");
        assert!(report.wins());
        assert_eq!(report.rows.len(), 4, "two metrics per row");
        let table = report.render_table();
        assert!(table.contains("BEATS"));
        assert!(!table.contains("LOSES"));
    }

    #[test]
    fn beats_fails_on_any_tie_or_loss() {
        // Tie on false_hit_rate at one cell: not *strictly* better.
        let doc = versus_doc(&[
            ("large", 2000, 3.0, 0.72, 6.6, 0.72),
            ("small", 2000, 2.0, 0.8, 4.9, 0.90),
        ]);
        let report = beats_report(&doc, "vp", "flat").expect("gate");
        assert!(!report.wins());
        assert!(report.render_table().contains("DOES NOT BEAT"));
        let losers: Vec<&BeatsRow> = report.rows.iter().filter(|r| !r.wins).collect();
        assert_eq!(losers.len(), 1);
        assert_eq!(losers[0].metric, "false_hit_rate");
        assert_eq!(losers[0].row, "large/n=2000");
    }

    #[test]
    fn beats_skips_rows_without_the_incumbent() {
        // The incumbent is measured only at large/n=2000; the lone
        // small-mix challenger cell cannot be compared and is skipped.
        let mut doc = versus_doc(&[("large", 2000, 3.0, 0.4, 6.6, 0.72)]);
        if let Value::Obj(members) = &mut doc {
            if let Some(Value::Obj(mixes)) = members
                .iter_mut()
                .find_map(|(k, v)| (k == "mixes").then_some(v))
            {
                mixes.push((
                    "small".to_owned(),
                    Value::Arr(vec![Value::Obj(vec![
                        ("method".to_owned(), Value::from("vp")),
                        ("n".to_owned(), Value::from(2000u64)),
                        ("avg_query_ios".to_owned(), Value::Num(2.0)),
                        ("false_hit_rate".to_owned(), Value::Num(0.8)),
                    ])]),
                ));
            }
        }
        let report = beats_report(&doc, "vp", "flat").expect("gate");
        assert_eq!(report.rows.len(), 2);
        assert!(report.wins());
    }

    #[test]
    fn beats_errors_when_methods_never_co_occur() {
        let doc = versus_doc(&[("large", 2000, 3.0, 0.4, 6.6, 0.72)]);
        assert!(beats_report(&doc, "vp", "absent").is_err());
        let serve = batch_doc(Some(2.0));
        assert!(
            beats_report(&serve, "vp", "flat").is_err(),
            "not a figure report"
        );
    }
}
