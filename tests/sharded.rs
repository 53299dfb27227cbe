//! Cross-crate integration tests of the sharded serving tier
//! (`mobidx-serve`): a [`ShardedDb`] — any shard function, any shard
//! count, any number of concurrent clients — must be indistinguishable
//! from a single [`MotionDb`] over the same index method.

use mobidx_core::method::dual_bplus::{DualBPlusConfig, DualBPlusIndex};
use mobidx_core::{MorQuery1D, Motion1D, MotionDb, QueryRequest, SpeedBand};
use mobidx_serve::{
    Batch, IdHashShard, ServeConfig, ServeError, ShardFn, ShardedDb, SpeedBandShard,
};
use mobidx_workload::{brute_force_1d, brute_force_1d_speed, Simulator1D, WorkloadConfig};
use proptest::prelude::*;

const TERRAIN: f64 = 1000.0;

/// The shard-function axis of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fn_ {
    IdHash,
    SpeedBand,
}

/// A sharded database and its single-index oracle, built over the same
/// dual-B+ method.
fn build_pair(
    f: Fn_,
    shards: usize,
    queue_depth: usize,
) -> (ShardedDb<DualBPlusIndex>, MotionDb<DualBPlusIndex>) {
    let band = SpeedBand::paper();
    let db = match f {
        Fn_::IdHash => ShardedDb::new(
            ServeConfig {
                shards,
                queue_depth,
                ..ServeConfig::default()
            },
            Box::new(IdHashShard),
            move |_, _| {
                DualBPlusIndex::new(DualBPlusConfig {
                    band,
                    ..DualBPlusConfig::default()
                })
            },
        ),
        Fn_::SpeedBand => {
            let sf = SpeedBandShard::new(band);
            ShardedDb::new(
                ServeConfig {
                    shards,
                    queue_depth,
                    ..ServeConfig::default()
                },
                Box::new(sf),
                move |i, s| {
                    DualBPlusIndex::new(DualBPlusConfig {
                        band: sf.index_band(i, s),
                        ..DualBPlusConfig::default()
                    })
                },
            )
        }
    };
    let oracle = MotionDb::new(DualBPlusIndex::new(DualBPlusConfig {
        band,
        ..DualBPlusConfig::default()
    }));
    (db, oracle)
}

fn motion_strategy() -> impl Strategy<Value = Motion1D> {
    (
        0u64..400,
        0.0f64..TERRAIN,
        0.16f64..1.66,
        prop::bool::ANY,
        0.0f64..300.0,
    )
        .prop_map(|(id, y0, speed, neg, t0)| Motion1D {
            id,
            t0,
            y0,
            v: if neg { -speed } else { speed },
        })
}

fn query_strategy() -> impl Strategy<Value = MorQuery1D> {
    (0.0f64..900.0, 0.0f64..200.0, 300.0f64..400.0, 0.0f64..60.0).prop_map(|(y1, len, t1, dt)| {
        MorQuery1D {
            y1,
            y2: (y1 + len).min(TERRAIN),
            t1,
            t2: t1 + dt,
        }
    })
}

/// Dedupes motions by id (each object appears once in a motion table).
fn dedup_by_id(mut motions: Vec<Motion1D>) -> Vec<Motion1D> {
    motions.sort_by_key(|m| m.id);
    motions.dedup_by_key(|m| m.id);
    motions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The heart of the serving-tier contract: after an arbitrary
    /// insert → update (with speed changes, so objects migrate between
    /// speed-band shards) → remove history, every query against the
    /// sharded database equals the single-index oracle — for both shard
    /// functions and S ∈ {1, 3, 8}.
    #[test]
    fn sharded_equals_oracle(
        inserts in prop::collection::vec(motion_strategy(), 1..120),
        updates in prop::collection::vec(motion_strategy(), 0..60),
        removes in prop::collection::vec(0u64..400, 0..30),
        queries in prop::collection::vec(query_strategy(), 1..6),
    ) {
        let inserts = dedup_by_id(inserts);
        for f in [Fn_::IdHash, Fn_::SpeedBand] {
            for shards in [1usize, 3, 8] {
                let (db, mut oracle) = build_pair(f, shards, 16);

                let mut batch = Batch::new();
                for m in &inserts {
                    batch.insert(*m);
                    oracle.insert(*m);
                }
                // Updates change position *and speed*: under the
                // speed-band partition the object migrates shards.
                for u in &updates {
                    if oracle.get(u.id).is_some() {
                        batch.update(*u);
                        oracle.update(*u);
                    }
                }
                for id in &removes {
                    if oracle.get(*id).is_some() {
                        batch.remove(*id);
                        oracle.remove(*id);
                    }
                }
                db.apply(&batch).expect("valid batch");

                prop_assert_eq!(db.len(), oracle.len());
                for q in &queries {
                    let got = db.query(&QueryRequest::new(q)).expect("fan-out query");
                    let want = oracle.query(&QueryRequest::new(q));
                    // Merge contract: sorted, deduplicated — and equal
                    // to what one index would have answered.
                    prop_assert!(got.windows(2).all(|w| w[0] < w[1]),
                        "unsorted or duplicated: {:?}", got);
                    prop_assert_eq!(got, want, "{:?} at S={}", f, shards);
                }
            }
        }
    }

    /// Speed-filtered queries agree with the speed-aware brute-force
    /// oracle, whether or not the shard function can prune the fan-out.
    #[test]
    fn filtered_queries_match_brute_force(
        motions in prop::collection::vec(motion_strategy(), 1..100),
        queries in prop::collection::vec(query_strategy(), 1..4),
        v_lo in 0.1f64..1.0,
        dv in 0.05f64..1.0,
    ) {
        let motions = dedup_by_id(motions);
        let v_hi = (v_lo + dv).min(1.7);
        for f in [Fn_::IdHash, Fn_::SpeedBand] {
            let (db, _) = build_pair(f, 4, 16);
            let mut batch = Batch::new();
            for m in &motions {
                batch.insert(*m);
            }
            db.apply(&batch).expect("valid batch");
            for q in &queries {
                let got = db
                    .query(&QueryRequest::new(q).speed_band(v_lo, v_hi))
                    .expect("filtered query");
                let want = brute_force_1d_speed(&motions, q, v_lo, v_hi);
                prop_assert_eq!(&got, &want, "{:?} speed [{}, {}]", f, v_lo, v_hi);
            }
        }
    }

    /// The snapshot span tree reconciles across threads: for every
    /// traced query, the root `query` span has one `s<i>/execute` leg
    /// per shard, each naming the epoch the output is stamped with; the
    /// root's `results` is the answer's length, its `candidates` and
    /// frozen-page reads are the sums over the legs, even though the
    /// legs ran on different read threads — and the facade-wide
    /// `IoTotals` do not move, because a snapshot read touches no store.
    #[test]
    fn sharded_span_trees_reconcile_with_io_totals(
        motions in prop::collection::vec(motion_strategy(), 1..100),
        queries in prop::collection::vec(query_strategy(), 1..4),
    ) {
        let motions = dedup_by_id(motions);
        for shards in [1usize, 3] {
            let (db, _) = build_pair(Fn_::SpeedBand, shards, 16);
            let mut batch = Batch::new();
            for m in &motions {
                batch.insert(*m);
            }
            db.apply(&batch).expect("valid batch");
            for q in &queries {
                let before = db.io_totals().expect("totals before");
                let out = db
                    .query(&QueryRequest::new(q).spanned(std::time::Instant::now()))
                    .expect("traced query");
                let span = out.span.clone().expect("spanned request carries the tree");
                let delta = db.io_totals().expect("totals after").delta_since(before);
                prop_assert_eq!(
                    (delta.reads, delta.writes, delta.hits),
                    (0, 0, 0),
                    "S={} store I/O", shards
                );
                let epoch = out.epoch.expect("epoch-stamped");
                prop_assert_eq!(span.attr_u64("snapshot_epoch"), Some(epoch));
                prop_assert_eq!(span.attr_u64("results"), Some(out.ids.len() as u64));
                prop_assert_eq!(span.children.len(), shards, "one leg per shard");
                let (mut candidates, mut reads) = (0, 0);
                for (shard, leg) in span.children.iter().enumerate() {
                    prop_assert_eq!(&leg.name, &format!("s{shard}/execute"));
                    prop_assert_eq!(leg.attr_u64("shard"), Some(shard as u64));
                    prop_assert_eq!(leg.attr_u64("snapshot_epoch"), Some(epoch));
                    candidates += leg.attr_u64("candidates").expect("leg candidates");
                    reads += leg.total_io().reads;
                }
                prop_assert_eq!(span.attr_u64("candidates"), Some(candidates));
                prop_assert_eq!(out.candidates, candidates);
                prop_assert_eq!(span.total_io().reads, reads, "S={} frozen pages", shards);
            }
        }
    }
}

/// A failed batch must not change anything: validation is atomic, the
/// typed error names the offending id, and the sharded table still
/// answers like the oracle afterwards.
#[test]
fn invalid_batches_are_rejected_atomically() {
    let (db, mut oracle) = build_pair(Fn_::SpeedBand, 3, 16);
    let m = |id: u64, y0: f64, v: f64| Motion1D { id, t0: 0.0, y0, v };

    let mut load = Batch::new();
    for i in 0..50 {
        let mo = m(
            i,
            f64::from(u32::try_from(i).unwrap()) * 17.0 % TERRAIN,
            0.2 + 0.02 * i as f64,
        );
        load.insert(mo);
        oracle.insert(mo);
    }
    db.apply(&load).expect("valid load");

    // Duplicate insert: rejected, nothing applied (not even the valid op).
    let mut dup = Batch::new();
    dup.insert(m(1000, 1.0, 0.5)).insert(m(7, 2.0, 0.5));
    match db.apply(&dup) {
        Err(ServeError::Duplicate(e)) => assert_eq!(e.0, 7),
        other => panic!("expected Duplicate(7), got {other:?}"),
    }
    assert_eq!(db.len(), 50);
    assert!(db.get(1000).is_none(), "batch must be atomic");

    // Update and remove of unknown ids: typed Unknown errors.
    let mut upd = Batch::new();
    upd.update(m(999, 1.0, 0.3));
    match db.apply(&upd) {
        Err(ServeError::Unknown(e)) => assert_eq!(e.0, 999),
        other => panic!("expected Unknown(999), got {other:?}"),
    }
    let mut rem = Batch::new();
    rem.remove(999);
    assert!(matches!(db.apply(&rem), Err(ServeError::Unknown(_))));

    // The rejected batches left the data intact.
    let q = MorQuery1D {
        y1: 0.0,
        y2: TERRAIN,
        t1: 0.0,
        t2: 100.0,
    };
    assert_eq!(
        db.query(&QueryRequest::new(&q)).expect("query"),
        oracle.query(&QueryRequest::new(&q))
    );
}

/// Every read is a snapshot read, so a shard index that cannot freeze
/// (dual-B+ with its subterrain interval indices maintained) is refused
/// at construction.
#[test]
#[should_panic(expected = "shard 0's index cannot freeze")]
fn an_index_that_cannot_freeze_is_refused_at_construction() {
    let _ = ShardedDb::new(
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        Box::new(IdHashShard),
        |_, _| {
            DualBPlusIndex::new(DualBPlusConfig {
                maintain_subterrain: true,
                ..DualBPlusConfig::default()
            })
        },
    );
}

/// With nothing published a read cannot be answered, and says why: an
/// apply nobody read behind lets the snapshot go, a poisoned shard then
/// fails the next apply, and a read names that shard. The rebuild
/// completes the set, and the same read answers like the oracle.
#[test]
fn a_read_with_no_view_to_serve_names_the_poisoned_shard() {
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 500,
        updates_per_instant: 60,
        seed: 5,
        ..WorkloadConfig::default()
    });
    let (db, mut oracle) = build_pair(Fn_::IdHash, 3, 16);
    let mut load = Batch::new();
    for m in sim.objects() {
        load.insert(*m);
        oracle.insert(*m);
    }
    db.apply(&load).expect("valid load");
    let fault = db.with_shard(1, |_| panic!("injected"));
    assert!(matches!(
        fault,
        Err(ServeError::ShardFault { shard: 1, .. })
    ));
    let mut batch = Batch::new();
    for u in sim.step() {
        batch.update(u.new);
        oracle.update(u.new);
    }
    assert_eq!(
        db.apply(&batch),
        Err(ServeError::ShardPoisoned { shard: 1 })
    );
    let q = MorQuery1D {
        y1: 0.0,
        y2: TERRAIN,
        t1: 0.0,
        t2: 60.0,
    };
    assert_eq!(
        db.query(&QueryRequest::new(&q)).err(),
        Some(ServeError::ShardPoisoned { shard: 1 })
    );
    assert!(db.read_view().is_none(), "no view to pin either");
    db.rebuild_shard(1).expect("rebuild");
    assert_eq!(
        db.query(&QueryRequest::new(&q))
            .expect("read after the rebuild"),
        oracle.query(&QueryRequest::new(&q))
    );
}

/// Many client threads hammer one `&ShardedDb` concurrently; every
/// answer must equal the oracle's, regardless of interleaving.
#[test]
fn concurrent_clients_see_oracle_answers() {
    let n = 3000;
    let mut sim = Simulator1D::new(WorkloadConfig {
        n,
        seed: 0xC0FFEE,
        ..WorkloadConfig::default()
    });
    let (db, mut oracle) = build_pair(Fn_::SpeedBand, 4, 16);
    let mut load = Batch::new();
    for m in sim.objects() {
        load.insert(*m);
        oracle.insert(*m);
    }
    db.apply(&load).expect("valid load");

    let queries: Vec<MorQuery1D> = (0..64).map(|_| sim.gen_query(150.0, 60.0)).collect();
    let expected: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| oracle.query(&QueryRequest::new(q)).into_ids())
        .collect();

    // 8 clients, each walking the query list from a different offset.
    std::thread::scope(|scope| {
        let db = &db;
        let queries = &queries;
        let expected = &expected;
        let handles: Vec<_> = (0..8)
            .map(|t| {
                scope.spawn(move || {
                    for i in 0..queries.len() {
                        let k = (i + t * 11) % queries.len();
                        let got = db
                            .query(&QueryRequest::new(&queries[k]))
                            .expect("concurrent query");
                        assert_eq!(got, expected[k], "query {k} from client {t}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });
}

/// A queue depth of 1 forces constant backpressure; the stack must
/// stay correct (and not deadlock) when every send blocks. What still
/// travels the queues — applies and `io_totals()` round trips — is
/// sent from six client threads at once while readers race them.
#[test]
fn tiny_queue_depth_only_slows_things_down() {
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 500,
        seed: 42,
        ..WorkloadConfig::default()
    });
    let (db, mut oracle) = build_pair(Fn_::IdHash, 4, 1);
    let mut load = Batch::new();
    for m in sim.objects() {
        load.insert(*m);
        oracle.insert(*m);
    }
    db.apply(&load).expect("valid load");
    for _ in 0..3 {
        let mut batch = Batch::new();
        for u in sim.step() {
            batch.update(u.new);
            oracle.update(u.new);
        }
        db.apply(&batch).expect("update batch");
    }
    // Each writer re-applies the current records of its own slice of
    // the objects: a valid update that leaves the oracle's state as is.
    let objects = db.objects();
    std::thread::scope(|scope| {
        let db = &db;
        let handles: Vec<_> = objects
            .chunks(objects.len().div_ceil(6))
            .map(|slice| {
                scope.spawn(move || {
                    let q = MorQuery1D {
                        y1: 100.0,
                        y2: 400.0,
                        t1: 0.0,
                        t2: 50.0,
                    };
                    for round in 0..20 {
                        let mut batch = Batch::new();
                        for m in slice.iter().skip(round % 4).step_by(4) {
                            batch.update(*m);
                        }
                        db.apply(&batch).expect("backpressured apply");
                        db.io_totals().expect("backpressured stats");
                        db.query(&QueryRequest::new(&q))
                            .expect("query under backpressure");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });
    let q = MorQuery1D {
        y1: 0.0,
        y2: TERRAIN,
        t1: 0.0,
        t2: 60.0,
    };
    assert_eq!(
        db.query(&QueryRequest::new(&q)).expect("query"),
        oracle.query(&QueryRequest::new(&q))
    );

    // With every reply collected the queues have drained; the per-shard
    // gauges must show it: depth back to zero, a nonzero high-water mark
    // (depth-1 queues were saturated constantly), and conservation —
    // everything enqueued was dequeued, nothing poisoned.
    let health = db.health();
    assert!(!health.any_poisoned());
    assert_eq!(health.shards.len(), 4);
    for s in &health.shards {
        assert_eq!(s.queue_depth, 0, "shard {}: queue not drained", s.shard);
        assert!(
            s.queue_high_water >= 1,
            "shard {}: high water {} under saturation",
            s.shard,
            s.queue_high_water
        );
        assert!(s.enqueued > 0, "shard {} never saw a request", s.shard);
        assert_eq!(
            s.enqueued, s.dequeued,
            "shard {}: enqueued/dequeued drifted",
            s.shard
        );
        assert!(!s.poisoned);
        assert!(s.queries > 0, "shard {} answered no queries", s.shard);
        assert_eq!(s.query_latency_us.count, s.queries);
        assert!(s.applied_ops > 0, "shard {} applied no updates", s.shard);
    }
}

/// Per-shard I/O accounting must roll up: the facade's totals are the
/// sum over the `s<shard>/`-prefixed store listings, and a fan-out
/// trace absorbs one leg per shard and lands in the event ring.
#[test]
fn observability_rolls_up_across_shards() {
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 2000,
        seed: 7,
        ..WorkloadConfig::default()
    });
    let (db, _) = build_pair(Fn_::SpeedBand, 4, 16);
    let mut load = Batch::new();
    for m in sim.objects() {
        load.insert(*m);
    }
    db.apply(&load).expect("valid load");
    db.reset_io().expect("reset");

    let q = sim.gen_query(150.0, 60.0);
    let out = db
        .query(&QueryRequest::new(&q).spanned(std::time::Instant::now()))
        .expect("traced query");
    let span = out.span.clone().expect("spanned request carries the tree");
    let ids = out.ids;
    assert_eq!(span.name, "query");
    assert_eq!(span.children.len(), 4, "one leg per shard");
    // The flat QueryTrace is a leaf view over the span tree.
    let trace = mobidx_obs::QueryTrace::from_span(&span);
    assert_eq!(trace.results as usize, ids.len());
    assert_eq!(trace.method, "snapshot[4x speed-band]");

    let totals = db.io_totals().expect("totals");
    let stores = db.store_io().expect("stores");
    assert!(
        stores.iter().any(|(label, _)| label.starts_with("s0/")),
        "per-shard stores must be prefixed: {stores:?}"
    );
    let store_sum: u64 = stores.iter().map(|(_, io)| io.reads + io.writes).sum();
    assert_eq!(totals.reads + totals.writes, store_sum);

    // Every traced query also lands in the facade's event ring.
    let recent = db.recent_spans();
    assert_eq!(db.event_log().recorded(), 1);
    assert_eq!(recent.len(), 1);
    assert_eq!(recent[0].name, "query");
    assert_eq!(recent[0].total_io().reads, trace.reads);
}

/// Snapshot span legs are queue-free by construction: each leg names
/// the epoch it read (`snapshot_epoch`, matching the stamped output)
/// and carries no `queue_wait_nanos` — a wait attr has no meaning off
/// the worker queues.
#[test]
fn snapshot_span_legs_carry_epoch_and_no_queue_wait() {
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 2000,
        seed: 11,
        ..WorkloadConfig::default()
    });
    let (db, _) = build_pair(Fn_::SpeedBand, 4, 16);
    let mut load = Batch::new();
    for m in sim.objects() {
        load.insert(*m);
    }
    db.apply(&load).expect("valid load");

    let q = sim.gen_query(150.0, 60.0);
    let out = db
        .query(&QueryRequest::new(&q).spanned(std::time::Instant::now()))
        .expect("snapshot query");
    assert_eq!(out.epoch, Some(db.snapshot_epoch()), "epoch-stamped");
    let span = out.span.expect("spanned request carries the tree");
    assert_eq!(span.children.len(), 4, "one leg per shard");
    assert!(
        span.attr_u64("snapshot_epoch") == Some(1),
        "root names the epoch it served"
    );
    for leg in &span.children {
        assert_eq!(leg.attr_u64("snapshot_epoch"), Some(1), "leg epoch");
        assert_eq!(
            leg.attr_u64("queue_wait_nanos"),
            None,
            "snapshot legs never queue"
        );
    }
}

/// The snapshot tier's reads-see-a-prefix property: eight reader
/// threads race a writer publishing group commits; every snapshot-served
/// answer must equal the oracle state as of the sealed commit its epoch
/// names — never a torn mid-batch state — and the epochs each reader
/// observes must be monotone. Runs the full matrix: both shard
/// functions, S ∈ {1, 3, 8}.
#[test]
fn snapshot_reads_see_a_prefix_under_concurrent_commits() {
    const COMMITS: usize = 12;
    let q = MorQuery1D {
        y1: 200.0,
        y2: 500.0,
        t1: 310.0,
        t2: 340.0,
    };
    for f in [Fn_::IdHash, Fn_::SpeedBand] {
        for shards in [1usize, 3, 8] {
            let mut sim = Simulator1D::new(WorkloadConfig {
                n: 400,
                seed: 0xEB0C,
                ..WorkloadConfig::default()
            });
            let (db, _) = build_pair(f, shards, 16);

            // Pre-roll the commit sequence and the per-epoch oracle
            // answers, so readers can check answers lock-free. Epoch 0
            // is the initial (empty) publication, epoch 1 the bulk
            // load; each update batch then seals one more epoch.
            let mut load = Batch::new();
            let mut state: Vec<Motion1D> = sim.objects().to_vec();
            for m in &state {
                load.insert(*m);
            }
            let mut expected: Vec<Vec<u64>> = vec![Vec::new(), brute_force_1d(&state, &q)];
            let mut batches: Vec<Batch> = Vec::new();
            for _ in 0..COMMITS {
                let mut b = Batch::new();
                for u in sim.step() {
                    b.update(u.new);
                    if let Some(slot) = state.iter_mut().find(|m| m.id == u.new.id) {
                        *slot = u.new;
                    }
                }
                batches.push(b);
                expected.push(brute_force_1d(&state, &q));
            }

            db.apply(&load).expect("bulk load");
            assert_eq!(db.snapshot_epoch(), 1, "bulk load seals epoch 1");

            std::thread::scope(|scope| {
                let db = &db;
                let q = &q;
                let expected = &expected;
                let batches = &batches;
                let writer = scope.spawn(move || {
                    for b in batches {
                        db.apply(b).expect("update commit");
                    }
                });
                let readers: Vec<_> = (0..8)
                    .map(|r| {
                        scope.spawn(move || {
                            let mut last = 0u64;
                            for i in 0..40 {
                                let out = db.query(&QueryRequest::new(q)).expect("snapshot read");
                                let epoch = out.epoch.expect("snapshot reads are epoch-stamped");
                                assert!(
                                    epoch >= last,
                                    "reader {r}: epoch went backwards ({last} -> {epoch})"
                                );
                                last = epoch;
                                assert_eq!(
                                    out.ids, expected[epoch as usize],
                                    "reader {r} read {i}: answer is not the prefix \
                                     sealed at epoch {epoch}"
                                );
                            }
                        })
                    })
                    .collect();
                writer.join().expect("writer thread");
                for h in readers {
                    h.join().expect("reader thread");
                }
            });

            // With the writer drained, the published snapshot seals
            // every commit; a fresh read serves exactly the final state.
            let final_epoch = 1 + COMMITS as u64;
            assert_eq!(db.snapshot_epoch(), final_epoch, "{f:?} S={shards}");
            let out = db.query(&QueryRequest::new(&q)).expect("final read");
            assert_eq!(out.epoch, Some(final_epoch));
            assert_eq!(out.ids, expected[COMMITS + 1]);
        }
    }
}

/// The mode flips continually: two writers loop `apply` on disjoint
/// halves of the population while one reader asks every few
/// milliseconds — sparse enough that most applies find nobody reading
/// and let the snapshot go, so most reads find none published and have
/// it built (by themselves between two applies, or by the apply in
/// flight). Every answer must still be the state after exactly `epoch`
/// commits, and no read may wait out more than a few applies: with the
/// table lock never free for long, a read that *blocked* on it would
/// starve behind the writer-preferring lock for the whole run.
#[test]
fn a_sparse_reader_between_looping_writers_waits_for_an_apply_at_most() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};
    const PER_WRITER: u64 = 48;
    const READS: usize = 40;
    let q = MorQuery1D {
        y1: 100.0,
        y2: 600.0,
        t1: 310.0,
        t2: 330.0,
    };
    // Writer `w`'s `k`-th batch moves all of its objects to these.
    let motion = |w: u64, j: u64, k: u64| Motion1D {
        id: w * 1000 + j,
        t0: 300.0,
        y0: ((j * 131 + k * 97 + w * 53) % 1000) as f64,
        v: if j % 2 == 0 { 0.5 } else { -0.5 },
    };
    let state = |k: [u64; 2]| -> Vec<Motion1D> {
        let of = |w: usize| (0..PER_WRITER).map(move |j| motion(w as u64, j, k[w]));
        of(0).chain(of(1)).collect()
    };
    for shards in [1usize, 3] {
        let (db, _) = build_pair(Fn_::IdHash, shards, 16);
        let mut load = Batch::new();
        for m in state([0, 0]) {
            load.insert(m);
        }
        db.apply(&load).expect("bulk load");
        let stop = AtomicBool::new(false);
        let deadline = Instant::now() + Duration::from_secs(20);
        let (slowest_apply, slowest_read) = std::thread::scope(|scope| {
            let (db, stop, q) = (&db, &stop, &q);
            let writers: Vec<_> = (0..2u64)
                .map(|w| {
                    scope.spawn(move || {
                        let mut slowest = Duration::ZERO;
                        let mut k = 0;
                        while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
                            k += 1;
                            let mut batch = Batch::new();
                            for j in 0..PER_WRITER {
                                batch.update(motion(w, j, k));
                            }
                            let started = Instant::now();
                            db.apply(&batch).expect("update commit");
                            slowest = slowest.max(started.elapsed());
                        }
                        slowest
                    })
                })
                .collect();
            let mut slowest_read = Duration::ZERO;
            let mut last = 0;
            for i in 0..READS {
                std::thread::sleep(Duration::from_millis(3));
                let started = Instant::now();
                let out = db.query(&QueryRequest::new(q)).expect("snapshot read");
                slowest_read = slowest_read.max(started.elapsed());
                let epoch = out.epoch.expect("epoch-stamped");
                assert!(epoch >= last, "read {i}: epoch {last} -> {epoch}");
                last = epoch;
                // `epoch − 1` commits since the load, split between the
                // writers somehow: the answer is one of those states.
                let commits = epoch - 1;
                let sealed = (0..=commits)
                    .any(|k0| out.ids == brute_force_1d(&state([k0, commits - k0]), q));
                assert!(sealed, "read {i} at epoch {epoch} is no prefix of commits");
            }
            stop.store(true, Ordering::Relaxed);
            let slowest_apply = writers
                .into_iter()
                .map(|w| w.join().expect("writer thread"))
                .max()
                .expect("two writers");
            (slowest_apply, slowest_read)
        });
        let health = db.health();
        assert!(
            health.applies_unpublished > 0,
            "never write-only: {health:?}"
        );
        assert!(
            health.snapshots_on_demand > 0,
            "never on demand: {health:?}"
        );
        // A read waits for the apply in flight and at worst the one that
        // slipped in before it; 4× leaves room for its own work, and the
        // floor for a preempted thread on a busy box.
        let bound = 4 * slowest_apply.max(Duration::from_millis(50));
        assert!(
            slowest_read <= bound,
            "S={shards}: a read took {slowest_read:?}, the slowest apply {slowest_apply:?}"
        );
        assert_eq!(db.len(), 2 * PER_WRITER as usize);
    }
}

/// Whether the id kernel keeps a leg's answer of `ids` (sorted,
/// distinct) as a presence bitmap: at least 256 ids, and a span of at
/// most one 64-id word per two of them.
fn packed_leg(ids: &[u64]) -> bool {
    match (ids.first(), ids.last()) {
        (Some(&lo), Some(&hi)) => ids.len() >= 256 && (hi - lo) / 64 < ids.len() as u64 / 2,
        _ => false,
    }
}

/// The snapshot fan-in ORs the legs' bitmaps and writes the union once;
/// whatever mix of packed and listed legs a query meets, the snapshot
/// answer must equal a pinned [`ReadView`](mobidx_serve::ReadView)'s
/// and brute force. Runs both shard functions at S ∈ {1, 2, 3, 8} over query
/// widths from a handful of ids to most of the terrain, and requires
/// each configuration to have met queries whose legs were all packed
/// and all listed, and the skewed speed-band shards from two up to have
/// met queries with some of each.
///
/// A steady-state snapshot read allocates only its answer: its legs
/// take their sets from the facade's buffer pool, grow none of them and
/// give them all back, and the answer is written once at its length.
#[test]
fn snapshot_fan_in_agrees_with_every_read_path() {
    let mut sim = Simulator1D::new(WorkloadConfig {
        n: 16_000,
        seed: 33,
        ..WorkloadConfig::default()
    });
    let now = 300.0;
    for _ in 0..now as usize {
        sim.step();
    }
    let widths = (0..40).map(|i| 1.0 + f64::from(i) * f64::from(i) * 0.6);
    let queries: Vec<MorQuery1D> = widths
        .flat_map(|w| {
            [0.0, 0.35, 0.7].map(move |at| {
                let y1 = at * (TERRAIN - w);
                MorQuery1D {
                    y1,
                    y2: y1 + w,
                    t1: now,
                    t2: now + 10.0,
                }
            })
        })
        .collect();
    for f in [Fn_::IdHash, Fn_::SpeedBand] {
        for shards in [1usize, 2, 3, 8] {
            let (db, _) = build_pair(f, shards, 64);
            let shard_of = |m: &Motion1D| match f {
                Fn_::IdHash => IdHashShard.shard_of(m, shards),
                Fn_::SpeedBand => SpeedBandShard::new(SpeedBand::paper()).shard_of(m, shards),
            };
            let mut load = Batch::new();
            for m in sim.objects() {
                load.insert(*m);
            }
            db.apply(&load).expect("valid load");
            let view = db.read_view().expect("a snapshot after the load");
            let (mut all_packed, mut all_listed, mut mixed) = (false, false, false);
            for q in &queries {
                let want = brute_force_1d(sim.objects(), q);
                let mut legs = vec![Vec::new(); shards];
                for m in sim
                    .objects()
                    .iter()
                    .filter(|m| want.binary_search(&m.id).is_ok())
                {
                    legs[shard_of(m)].push(m.id);
                }
                let packed = legs
                    .iter_mut()
                    .map(|leg| {
                        leg.sort_unstable();
                        packed_leg(leg)
                    })
                    .fold([0, 0], |[p, l], is| {
                        [p + usize::from(is), l + usize::from(!is)]
                    });
                all_packed |= packed == [shards, 0];
                all_listed |= packed == [0, shards];
                mixed |= packed[0] > 0 && packed[1] > 0;
                let what = format!("{f:?} S={shards} {q:?} packed/listed legs {packed:?}");
                let snapshot = db.query(&QueryRequest::new(q)).expect("snapshot read");
                assert_eq!(snapshot.epoch, Some(view.epoch()), "{what}");
                assert_eq!(snapshot.ids, want, "snapshot: {what}");
                assert_eq!(view.query(q), want, "read view: {what}");
            }
            assert!(
                all_packed && all_listed,
                "{f:?} S={shards}: widths miss a mix"
            );
            // Id hashing balances the legs; speed bands skew them.
            if f == Fn_::SpeedBand && shards > 1 {
                assert!(
                    mixed,
                    "{f:?} S={shards}: no query mixes packed and listed legs"
                );
            }

            // Steady state: the widest query, repeated.
            let widest = queries.last().expect("queries");
            for _ in 0..3 {
                let _ = db.query(&QueryRequest::new(widest)).expect("warm-up read");
            }
            let mut pooled = db.pooled_buffers();
            pooled.sort_unstable();
            assert_eq!(pooled.len(), shards, "{f:?} S={shards}: one set per leg");
            for _ in 0..5 {
                let out = db.query(&QueryRequest::new(widest)).expect("snapshot read");
                assert_eq!(
                    out.ids.capacity(),
                    out.ids.len(),
                    "{f:?} S={shards}: answer written once"
                );
                let mut after = db.pooled_buffers();
                after.sort_unstable();
                assert_eq!(
                    after, pooled,
                    "{f:?} S={shards}: leg sets recycled, none grown"
                );
            }
        }
    }
}
