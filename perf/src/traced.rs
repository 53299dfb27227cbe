//! The traced run of one workload: the per-layer numbers.
//!
//! One stack is built. It runs a few slices untraced, the same number
//! with every call inside a harness span (reads also carry the program's
//! own span tree), and a few more with only the program's spans or with
//! the telemetry sampler on, which prices the instrumentation. Then the
//! stack goes away and the layers are measured on their own: the write
//! path peeled onto standalone per-shard indexes, the frozen search on
//! standalone views, one B+-tree and one page store in a loop.

use crate::inputs::Step;
use crate::layers::{bptree_numbers, durable_numbers, observation_entries, pager_numbers};
use crate::measure::{percentile, quiet, ratio, us, Quiet, Slice};
use crate::peel::{PeelTimes, Replica};
use crate::phase::Mode;
use crate::report::{MetricSet, Report};
use crate::run::{drop_and_recover, Counters, Options, Session, WindowCounts};
use crate::scratch::{target_dir, TempDir};
use crate::spec::{self, Kind, SHARDS};
use crate::stack::index_config;
use crate::trace::{covered_by_children, layer_table, render_table, Tracer};
use mobidx_obs::Span;
use mobidx_serve::{HealthSnapshot, IdHashShard, SamplerConfig, ShardFn};
use mobidx_workload::MorQuery1D;
use std::path::PathBuf;
use std::time::Instant;

/// Slices per group (untraced, traced, each overhead variant).
const GROUP: usize = 9;
/// The same on `durable_stream`, where a slice is 44 MB of WAL.
const GROUP_DURABLE: usize = 6;

/// Which kind of slice group runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    Plain,
    Traced,
    Spanned,
}

/// One group of slices and the inputs it consumed.
struct Group {
    variant: Variant,
    slices: Vec<Slice>,
    steps: Vec<Vec<Step>>,
}

impl Group {
    fn quiet(&self) -> Quiet {
        quiet(&self.slices)
    }
}

fn run_group(variant: Variant, count: usize, run: &mut Session, tracer: &mut Tracer) -> Group {
    let mut group = Group {
        variant,
        slices: Vec::new(),
        steps: Vec::new(),
    };
    for _ in 0..count {
        let mode = match variant {
            Variant::Plain => Mode::Plain,
            Variant::Traced => Mode::Traced(tracer),
            Variant::Spanned => Mode::Spanned(tracer.epoch()),
        };
        let (slice, steps) = run.run_slice(mode);
        group.slices.push(slice);
        group.steps.push(steps);
    }
    group
}

/// `100 · (base − other) / base`: how much slower `other` ran.
fn overhead_pct(base: &Quiet, other: &Quiet) -> f64 {
    if base.ops_per_s == 0.0 {
        return 0.0;
    }
    100.0 * (base.ops_per_s - other.ops_per_s) / base.ops_per_s
}

/// What the harness's `serve.query` spans say about the read path.
#[derive(Default)]
struct ReadPath {
    queries: u64,
    root_ns: u64,
    self_ns: u64,
    union_ns: u64,
    legs: u64,
    leg_ns: u64,
    imbalance: f64,
    pages: u64,
}

fn read_path(roots: &[Span]) -> ReadPath {
    let mut r = ReadPath::default();
    for root in roots.iter().filter(|s| s.name == "serve.query") {
        let Some(query) = root.children.first() else {
            continue;
        };
        let legs = &query.children;
        if legs.is_empty() {
            continue;
        }
        // Legs run in parallel: what the query waits for is the interval
        // they cover together; the rest of the root is the facade's own.
        let union = covered_by_children(query);
        r.queries += 1;
        r.root_ns += root.duration_nanos;
        r.union_ns += union;
        r.self_ns += root.duration_nanos - union.min(root.duration_nanos);
        let total: u64 = legs.iter().map(|l| l.duration_nanos).sum();
        let longest = legs.iter().map(|l| l.duration_nanos).max().unwrap_or(0);
        r.legs += legs.len() as u64;
        r.leg_ns += total;
        r.imbalance += ratio(longest * legs.len() as u64, total);
        r.pages += query.total_io().reads;
    }
    r
}

/// Runs one workload with tracing on and reports every per-layer metric.
///
/// # Errors
/// On an unknown workload, a stack that cannot be built, or a trace file
/// that cannot be written.
pub fn traced(name: &str, opts: &Options) -> Result<Report, String> {
    let (mut run, setup, _) = Session::start(name, opts, 1)?;
    let spec = run.spec;

    let count = match (opts.budget, spec.kind) {
        (crate::phase::Budget::Slices(k), _) => k,
        (_, Kind::Durable) => GROUP_DURABLE,
        _ => GROUP,
    };
    let mut tracer = Tracer::new();
    let mut set = MetricSet::new(&spec::PER_LAYER);

    // ---- the stack: untraced, traced, and the two overhead variants ----
    let health_before = run.stack.sharded().map(mobidx_serve::ShardedDb::health);
    let epoch_before = run
        .stack
        .sharded()
        .map_or(0, mobidx_serve::ShardedDb::snapshot_epoch);
    let before = Counters::read(&run.stack)?;
    let mut groups = Vec::new();
    for variant in [Variant::Plain, Variant::Traced] {
        groups.push(run_group(variant, count, &mut run, &mut tracer));
    }
    let after = Counters::read(&run.stack)?;
    let epoch_after = run
        .stack
        .sharded()
        .map_or(0, mobidx_serve::ShardedDb::snapshot_epoch);
    let health_after = run.stack.sharded().map(mobidx_serve::ShardedDb::health);
    let plain = groups[0].quiet();
    set.set(
        "obs.trace_overhead_pct",
        overhead_pct(&plain, &groups[1].quiet()),
    );

    if spec.kind.reads() {
        let spanned = run_group(Variant::Spanned, count, &mut run, &mut tracer);
        set.set(
            "obs.span_overhead_pct",
            overhead_pct(&plain, &spanned.quiet()),
        );
        groups.push(spanned);
    }
    // The sampler is priced on the memory-backed write paths; on
    // durable_stream a third group would be another 260 MB of WAL.
    if matches!(spec.kind, Kind::Update | Kind::Mixed) {
        let sampler = run
            .stack
            .sharded()
            .map(|db| db.start_sampler(SamplerConfig::default()));
        let sampled = run_group(Variant::Plain, count, &mut run, &mut tracer);
        drop(sampler);
        set.set(
            "obs.sampler_overhead_pct",
            overhead_pct(&plain, &sampled.quiet()),
        );
        groups.push(sampled);
    }

    let replays: Vec<Slice> = groups.iter().flat_map(|g| g.slices.clone()).collect();
    let checked = run.final_check(&replays);
    let end = Counters::read(&run.stack)?;

    // bench.*: the untraced group, as the end-to-end run would see it.
    set.set("bench.gen_s", run.inputs.gen_seconds());
    set.set("bench.slices", plain.slices as f64);
    set.set("bench.slice_spread_pct", plain.slice_spread_pct);
    set.set("bench.ops_per_s", plain.ops_per_s);
    set.set("bench.ops_per_s_all_slices", plain.ops_per_s_all);
    for (kind, sample) in [
        ("call", &plain.step_ns),
        ("query", &plain.query_ns),
        ("apply", &plain.apply_ns),
    ] {
        for (p, label) in [(50.0, "p50"), (95.0, "p95"), (99.0, "p99")] {
            let name = format!("bench.{kind}_{label}_us");
            set.set(&name, us(percentile(sample, p)));
        }
    }

    // pager.* and serve.* counts over the untraced + traced groups.
    let measured: Vec<Slice> = groups[..2].iter().flat_map(|g| g.slices.clone()).collect();
    let counts = WindowCounts::between(&spec, &before, &after, &measured, &checked);
    let applies: u64 = measured.iter().map(|s| s.apply_ns.len() as u64).sum();
    set.set(
        "pager.pool_hit_rate",
        ratio(counts.hits, counts.hits + counts.reads),
    );
    set.set(
        "pager.reads_per_update",
        ratio(counts.reads, counts.updates),
    );
    set.set(
        "pager.writes_per_update",
        ratio(counts.writes, counts.updates),
    );
    if spec.kind == Kind::Cold {
        set.set(
            "pager.reads_per_cold_query",
            ratio(counts.reads, counts.queries),
        );
    }
    set.set(
        "pager.wal_records_per_update",
        ratio(counts.wal_records, counts.updates),
    );
    set.set(
        "pager.wal_bytes_per_record",
        ratio(counts.wal_bytes, counts.wal_records),
    );
    set.set(
        "pager.wal_bytes_per_update",
        ratio(counts.wal_bytes, counts.updates),
    );
    set.set("pager.fsyncs_per_commit", ratio(counts.wal_fsyncs, applies));
    set.set(
        "core.candidates_per_result",
        ratio(checked.candidates, checked.ids),
    );
    if let (Some(h0), Some(h1)) = (&health_before, &health_after) {
        serve_counts(&mut set, h0, h1, applies, epoch_after - epoch_before);
    }

    // serve.* times from the harness spans around the program's own tree.
    let rp = read_path(tracer.spans());
    if rp.queries > 0 {
        set.set("serve.query_self_us", ratio(rp.self_ns, rp.queries) / 1e3);
        set.set("serve.leg_union_us", ratio(rp.union_ns, rp.queries) / 1e3);
        set.set("serve.leg_us", ratio(rp.leg_ns, rp.legs) / 1e3);
        set.set("serve.leg_imbalance", rp.imbalance / rp.queries as f64);
        set.set("serve.pages_per_query", ratio(rp.pages, rp.queries));
        set.set(
            "serve.merge_ids_per_query",
            ratio(checked.ids, checked.queries),
        );
        set.set("bench.traced_call_us", ratio(rp.root_ns, rp.queries) / 1e3);
        // Self time plus the legs' interval is the traced query by
        // construction; against the untraced mean (every slice on both
        // sides) it shows how far the trace can be trusted to account
        // for the end-to-end number.
        let untraced: Vec<u64> = groups[0]
            .slices
            .iter()
            .flat_map(|s| s.query_ns.clone())
            .collect();
        let untraced_mean = ratio(untraced.iter().sum(), untraced.len() as u64);
        set.set(
            "bench.trace_accounting_pct",
            100.0 * ratio(rp.self_ns + rp.union_ns, rp.queries) / untraced_mean.max(1.0),
        );
    }
    if spec.kind == Kind::Cold {
        let cold: Vec<&Span> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "core.query")
            .collect();
        let total: u64 = cold.iter().map(|s| s.duration_nanos).sum();
        set.set("core.search_cold_us", ratio(total, cold.len() as u64) / 1e3);
        set.set(
            "bench.traced_call_us",
            ratio(total, cold.len() as u64) / 1e3,
        );
    }

    // ---- the stack goes away; durable stores are reopened ----
    let Session {
        stack,
        mut inputs,
        mirror,
        mut tally,
        tmp_root,
        ..
    } = run;
    if let Some(r) = drop_and_recover(stack, &end, &mut tally)? {
        set.set("pager.recovery_s", r.seconds);
        set.set(
            "pager.replay_records_per_ms",
            r.replayed_records as f64 / (r.seconds * 1e3).max(1e-9),
        );
    }

    // ---- the write path, peeled; the frozen search, standalone ----
    if spec.kind.sharded() {
        let mut replica = Replica::build(&spec, &setup, &tmp_root)?;
        let mut all = PeelTimes::default();
        let mut slowest: Vec<u64> = Vec::new();
        for group in &groups {
            for steps in &group.steps {
                for step in steps.iter().filter(|s| !s.updates.is_empty()) {
                    let traced = group.variant == Variant::Traced;
                    let t = replica.apply(&step.updates, traced.then_some(&mut tracer));
                    all.batch_update_ns += t.batch_update_ns;
                    all.commit_ns += t.commit_ns;
                    all.freeze_ns += t.freeze_ns;
                    all.shards += t.shards;
                    all.net_updates += t.net_updates;
                    slowest.push(t.slowest_ns);
                }
            }
        }
        tally.attempted += 1;
        tally.failed += u64::from(replica.table() != mirror.objects());
        if !slowest.is_empty() {
            slowest.sort_unstable();
            set.set(
                "core.batch_update_us_per_update",
                ratio(all.batch_update_ns, all.net_updates) / 1e3,
            );
            set.set("core.freeze_us", ratio(all.freeze_ns, all.shards) / 1e3);
            set.set(
                "core.commit_group_us",
                ratio(all.commit_ns, all.shards) / 1e3,
            );
            set.set(
                "serve.apply_overhead_us",
                us(percentile(&plain.apply_ns, 50.0)) - us(percentile(&slowest, 50.0)),
            );
        }
        if spec.kind.reads() {
            let views = replica.views();
            let (replayed, fresh) = inputs.check_queries();
            let check: Vec<MorQuery1D> = replayed.into_iter().chain(fresh).collect();
            let mut buf = Vec::new();
            let started = Instant::now();
            for q in &check {
                for view in &views {
                    std::hint::black_box(view.search(q, &mut buf));
                }
            }
            let searches = (check.len() * views.len()) as u64;
            set.set(
                "core.frozen_search_us",
                ratio(crate::measure::nanos(started.elapsed()), searches) / 1e3,
            );
        }
    }

    // ---- one B+-tree, one page store ----
    let cfg = index_config(&spec);
    let shard0: Vec<_> = mirror
        .objects()
        .iter()
        .filter(|m| !spec.kind.sharded() || IdHashShard.shard_of(m, SHARDS) == 0)
        .copied()
        .collect();
    let entries = observation_entries(&shard0, cfg.terrain, cfg.c);
    let tree_pages = entries.len() * 3 / (2 * cfg.tree.leaf_cap) + 1;
    for (name, value) in bptree_numbers(&entries, cfg.tree)
        .into_iter()
        .chain(pager_numbers(spec.pool_pages, tree_pages))
    {
        set.set(name, value);
    }
    if spec.kind == Kind::Durable {
        let dir = TempDir::create(&tmp_root)?;
        for (name, value) in durable_numbers(&entries, cfg.tree, dir.path())? {
            set.set(name, value);
        }
    }

    // ---- the trace itself ----
    set.set(
        "bench.trace_spans",
        tracer.spans().iter().map(Span::span_count).sum::<usize>() as f64,
    );
    let out = match &opts.trace_out {
        Some(path) => path.clone(),
        None => default_trace_path(spec.name)?,
    };
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(&out, tracer.chrome_trace())
        .map_err(|e| format!("write {}: {e}", out.display()))?;

    let mut notes = vec![
        format!(
            "# {} seed {} n {} traced: {} slices per group, trace in {}",
            spec.name,
            opts.seed,
            spec.n,
            count,
            out.display()
        ),
        "# self time = span minus the interval its children cover".to_owned(),
    ];
    notes.extend(
        render_table(&layer_table(tracer.spans()))
            .lines()
            .map(str::to_owned),
    );
    Ok(Report {
        metrics: set.into_metrics(),
        notes,
        attempted: tally.attempted,
        failed: tally.failed,
    })
}

/// `serve.*` counters: differences of the facade's public health state.
fn serve_counts(
    set: &mut MetricSet,
    h0: &HealthSnapshot,
    h1: &HealthSnapshot,
    applies: u64,
    epochs: u64,
) {
    let sum = |h: &HealthSnapshot, f: fn(&mobidx_serve::ShardHealthSnapshot) -> u64| -> u64 {
        h.shards.iter().map(f).sum()
    };
    let ops = sum(h1, |s| s.applied_ops) - sum(h0, |s| s.applied_ops);
    let groups = sum(h1, |s| s.drained_batch_size.count) - sum(h0, |s| s.drained_batch_size.count);
    set.set("serve.drained_group_mean", ratio(ops, groups));
    set.set(
        "serve.queue_depth_hwm",
        h1.shards
            .iter()
            .map(|s| s.queue_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    set.set("serve.epochs_per_apply", ratio(epochs, applies));
    set.set(
        "serve.readpool_steal_ratio",
        ratio(
            h1.read_pool.stolen - h0.read_pool.stolen,
            h1.read_pool.submitted - h0.read_pool.submitted,
        ),
    );
}

/// `<target dir>/perf-trace/<workload>.json`.
fn default_trace_path(workload: &str) -> Result<PathBuf, String> {
    Ok(target_dir()?
        .join("perf-trace")
        .join(format!("{workload}.json")))
}
