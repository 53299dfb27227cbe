//! The end-to-end run of one workload: tracing off, every metric a user
//! of the system would see.

use crate::inputs::{Inputs, SetupInputs, Step};
use crate::measure::{median, peak_rss_mb, percentile, quiet, ratio, us, Slice};
use crate::phase::{check_queries, check_table, run_slice, Budget, Checked, Mirror, Mode, Tally};
use crate::report::{MetricSet, Report};
use crate::spec::{self, Scale, Spec, SETUP_BUILDS};
use crate::stack::{recover, Recovery, Stack};
use mobidx_core::IoTotals;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What the command line chooses.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// `full` or `smoke`.
    pub scale: Scale,
    /// Length of the measured phase.
    pub budget: Budget,
    /// Where a traced run writes its Chrome trace (default:
    /// `<target dir>/perf-trace/<workload>.json`).
    pub trace_out: Option<PathBuf>,
}

/// Looks up the workload, failing with the list of names.
///
/// # Errors
/// On an unknown name.
pub fn lookup(name: &str, scale: Scale) -> Result<Spec, String> {
    spec::spec(name, scale).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (expected one of {})",
            spec::workload_names().join(", ")
        )
    })
}

/// Builds the stack [`SETUP_BUILDS`] times, one after the other, and
/// keeps the last. The first build also warms the allocator and faults
/// pages in; the median leaves it out.
///
/// # Errors
/// When a build fails.
pub fn build_timed(
    spec: &Spec,
    setup: &SetupInputs,
    tmp_root: &Path,
    builds: usize,
) -> Result<(Stack, f64), String> {
    let mut seconds = Vec::with_capacity(builds);
    let mut stack = None;
    for _ in 0..builds {
        // The previous stack (and its store directory) goes first.
        drop(stack.take());
        let started = Instant::now();
        stack = Some(Stack::build(spec, setup, tmp_root)?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((stack.expect("at least one build"), median(&seconds)))
}

/// Counters read at the two ends of the count window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Public pager counters, all stores.
    pub io: IoTotals,
    /// Bytes in every `wal.log`.
    pub wal_bytes: u64,
}

impl Counters {
    /// Reads the counters of a stack at rest.
    ///
    /// # Errors
    /// When a shard worker is gone.
    pub fn read(stack: &Stack) -> Result<Self, String> {
        Ok(Self {
            io: stack.io_totals()?,
            wal_bytes: stack.wal_bytes(),
        })
    }
}

/// The exact counts of a count window.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowCounts {
    /// Object updates applied.
    pub updates: u64,
    /// Queries answered.
    pub queries: u64,
    /// Pager reads + writes of the write path.
    pub pager_ios: u64,
    /// Pager reads.
    pub reads: u64,
    /// Pager writes.
    pub writes: u64,
    /// Buffer-pool hits.
    pub hits: u64,
    /// Frozen pages the window's queries visited: pages per query of
    /// the check pass (the same mix, stratified, at the final state)
    /// times the window's queries.
    pub query_pages: f64,
    /// WAL records appended.
    pub wal_records: u64,
    /// WAL fsyncs.
    pub wal_fsyncs: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// Live pages at the end of the window.
    pub live_pages: u64,
}

impl WindowCounts {
    /// Counts between `before` and `after` over `slices`.
    #[must_use]
    pub fn between(
        spec: &Spec,
        before: &Counters,
        after: &Counters,
        slices: &[Slice],
        checked: &Checked,
    ) -> Self {
        let d = after.io.delta_since(before.io);
        let queries: u64 = slices.iter().map(|s| s.query_ns.len() as u64).sum();
        let updates: u64 = slices.iter().map(|s| s.ops).sum::<u64>() - queries;
        // Pages per query come from the spanned check pass (snapshot
        // reads bypass the pager's counters); pager I/Os count where the
        // workload writes.
        let pages_per_query = ratio(checked.pages, checked.queries);
        let pager_ios = if spec.kind.writes() { d.ios() } else { 0 };
        Self {
            updates,
            queries,
            pager_ios,
            reads: d.reads,
            writes: d.writes,
            hits: d.hits,
            query_pages: pages_per_query * queries as f64,
            wal_records: d.wal_records,
            wal_fsyncs: d.wal_fsyncs,
            wal_bytes: after.wal_bytes - before.wal_bytes,
            live_pages: after.io.pages,
        }
    }

    /// Pages the external-memory model charges per op: counted pager
    /// I/Os plus frozen pages visited by snapshot reads.
    #[must_use]
    pub fn ios_per_op(&self) -> f64 {
        (self.pager_ios as f64 + self.query_pages) / (self.updates + self.queries).max(1) as f64
    }
}

/// One run's state: the workload, the stack under test, the input
/// source, the oracle's table and the running totals.
pub struct Session {
    /// The workload.
    pub spec: Spec,
    /// The program under test, set up.
    pub stack: Stack,
    /// Where slices and check queries come from.
    pub inputs: Inputs,
    /// The oracle's motion table, in step with the stack.
    pub mirror: Mirror,
    /// Calls and checks so far.
    pub tally: Tally,
    /// Where store directories go.
    pub tmp_root: PathBuf,
}

impl Session {
    /// Looks the workload up, makes its inputs from the seed, and builds
    /// the stack `builds` times. Returns the set-up inputs (the traced
    /// run builds replicas from them) and the median set-up time.
    ///
    /// # Errors
    /// On an unknown workload or when the stack cannot be built.
    pub fn start(
        name: &str,
        opts: &Options,
        builds: usize,
    ) -> Result<(Self, SetupInputs, f64), String> {
        let spec = lookup(name, opts.scale)?;
        let tmp_root = crate::scratch::tmp_root()?;
        let (inputs, setup) = Inputs::new(spec, opts.seed);
        let mirror = Mirror::after_setup(&setup);
        let (stack, setup_s) = build_timed(&spec, &setup, &tmp_root, builds)?;
        let session = Self {
            spec,
            stack,
            inputs,
            mirror,
            tally: Tally::default(),
            tmp_root,
        };
        Ok((session, setup, setup_s))
    }

    /// Generates and runs the next slice; returns it with its inputs.
    pub fn run_slice(&mut self, mode: Mode<'_>) -> (Slice, Vec<Step>) {
        let steps = self.inputs.next_slice();
        let slice = run_slice(
            &mut self.stack,
            self.spec.kind,
            &steps,
            mode,
            &mut self.tally,
            &mut self.mirror,
        );
        (slice, steps)
    }

    /// After timing: the motion table, the replayed query set, and fresh
    /// queries of the workload's mix are checked against the oracle.
    /// Every replay of the query set must have returned what the checked
    /// pass returned.
    pub fn final_check(&mut self, replays: &[Slice]) -> Checked {
        check_table(&self.stack, &self.mirror, &mut self.tally);
        let (replayed, fresh) = self.inputs.check_queries();
        let replayed = check_queries(&mut self.stack, &replayed, &self.mirror, &mut self.tally);
        if replayed.queries > 0 {
            for s in replays {
                self.tally.attempted += 1;
                self.tally.failed += u64::from(s.ids != replayed.ids);
            }
        }
        replayed.merge(check_queries(
            &mut self.stack,
            &fresh,
            &self.mirror,
            &mut self.tally,
        ))
    }
}

/// Drops a stack. A durable one has every store reopened, and recovery
/// must find exactly what was appended: as many records replayed as
/// `end` counted, as many live pages as there were. Returns the recovery
/// for reporting; `None` on workloads without a WAL.
///
/// # Errors
/// When a store directory cannot be reopened.
pub fn drop_and_recover(
    stack: Stack,
    end: &Counters,
    tally: &mut Tally,
) -> Result<Option<Recovery>, String> {
    let Stack::Sharded {
        db,
        dir: Some(dir),
        stores,
    } = stack
    else {
        return Ok(None);
    };
    drop(db);
    let recovery = recover(&stores)?;
    tally.attempted += 2;
    tally.failed += u64::from(recovery.replayed_records != end.io.wal_records);
    tally.failed += u64::from(recovery.live_pages != end.io.pages);
    drop(dir);
    Ok(Some(recovery))
}

/// Runs one workload end to end, tracing off.
///
/// # Errors
/// On an unknown workload or when the stack cannot be built.
pub fn end_to_end(name: &str, opts: &Options) -> Result<Report, String> {
    let (mut run, setup, setup_s) = Session::start(name, opts, SETUP_BUILDS)?;
    drop(setup);
    let spec = run.spec;

    // The measured phase. Exact counts are taken over its first `window`
    // slices, timings over the quiet set of all of them.
    let window = opts.budget.count_slices(&spec);
    let before = Counters::read(&run.stack)?;
    let mut after = before;
    let started = Instant::now();
    let mut slices = Vec::new();
    while !opts
        .budget
        .spent(&spec, slices.len(), started.elapsed().as_secs_f64())
    {
        slices.push(run.run_slice(Mode::Plain).0);
        if slices.len() == window {
            after = Counters::read(&run.stack)?;
        }
    }
    let end = Counters::read(&run.stack)?;
    let checked = run.final_check(&slices);
    let counts = WindowCounts::between(&spec, &before, &after, &slices[..window], &checked);
    let quiet = quiet(&slices);
    let gen_seconds = run.inputs.gen_seconds();
    // Before the stores are reopened: recovery reads whole WAL files.
    let peak_rss = peak_rss_mb();
    let mut tally = run.tally;
    let recovery = drop_and_recover(run.stack, &end, &mut tally)?;

    let mut set = MetricSet::new(&spec::END_TO_END);
    set.set("setup_s", setup_s);
    set.set("ops_per_s", quiet.ops_per_s);
    set.set("call_p50_us", us(percentile(&quiet.step_ns, 50.0)));
    set.set("cpu_us_per_op", quiet.cpu_us_per_op);
    set.set("ios_per_op", counts.ios_per_op());
    set.set(
        "pages_per_kobject",
        counts.live_pages as f64 * 1000.0 / spec.n as f64,
    );
    set.set("peak_rss_mb", peak_rss);

    let mut notes = vec![
        format!(
            "# {} seed {} n {} slices {} quiet {} calls_in_quiet {}",
            spec.name,
            opts.seed,
            spec.n,
            quiet.slices,
            crate::measure::quiet_len(quiet.slices),
            quiet.step_ns.len()
        ),
        format!(
            "# bench.call_p95_us {}",
            us(percentile(&quiet.step_ns, 95.0))
        ),
        format!("# bench.gen_s {gen_seconds}"),
        format!("# bench.slice_spread_pct {}", quiet.slice_spread_pct),
        format!("# bench.ops_per_s_all_slices {}", quiet.ops_per_s_all),
        format!("# check_queries {} ids {}", checked.queries, checked.ids),
        format!(
            "# slice_busy_ms {}",
            slices
                .iter()
                .map(|s| format!("{:.0}", us(s.busy_ns) / 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    if let Some(r) = recovery {
        notes.push(format!(
            "# recovery_s {} replayed_records {} live_pages {}",
            r.seconds, r.replayed_records, r.live_pages
        ));
        notes.push(format!(
            "# wal_bytes_per_update {}",
            ratio(counts.wal_bytes, counts.updates)
        ));
    }
    Ok(Report {
        metrics: set.into_metrics(),
        notes,
        attempted: tally.attempted,
        failed: tally.failed,
    })
}
