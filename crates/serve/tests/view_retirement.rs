//! Who frees a snapshot. A shard worker keeps the last two views it
//! published and drops the older one at the start of its next `Apply`,
//! so a view's death — a page table of reference-count decrements plus
//! every page only it still held — is paid by the thread that built it
//! and never by the client inside `apply`. A counting index whose frozen
//! views record where and when they die holds that in place.

use mobidx_core::{FrozenIndex1D, FrozenReadStats, Index1D, IndexStats, IoTotals};
use mobidx_serve::{Batch, IdHashShard, ServeConfig, ShardedDb};
use mobidx_workload::{brute_force_1d, MorQuery1D, Motion1D};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

const SHARDS: usize = 2;

/// One frozen view's death: which freeze of which shard, and where.
#[derive(Debug, Clone)]
struct Death {
    shard: usize,
    generation: u64,
    thread: ThreadId,
    thread_name: Option<String>,
}

/// Births and deaths of every frozen view of one database.
#[derive(Debug, Default)]
struct Ledger {
    /// Views alive now, per shard.
    alive: [usize; SHARDS],
    /// The most views of one shard ever alive at once.
    peak: [usize; SHARDS],
    born: [u64; SHARDS],
    deaths: Vec<Death>,
}

impl Ledger {
    fn deaths_of(&self, shard: usize) -> Vec<&Death> {
        self.deaths.iter().filter(|d| d.shard == shard).collect()
    }
}

/// A brute-force index that counts its frozen views. Generation 0 is
/// the freeze `ShardedDb` takes at construction, on the constructing
/// thread; generation `k` the one after the shard's `k`-th apply.
struct CountingIndex {
    shard: usize,
    motions: BTreeMap<u64, Motion1D>,
    generation: AtomicU64,
    ledger: Arc<Mutex<Ledger>>,
}

struct CountingView {
    shard: usize,
    generation: u64,
    motions: Vec<Motion1D>,
    ledger: Arc<Mutex<Ledger>>,
}

impl IndexStats for CountingIndex {
    fn name(&self) -> String {
        "counting".to_owned()
    }
    fn clear_buffers(&mut self) {}
    fn io_totals(&self) -> IoTotals {
        IoTotals::default()
    }
    fn reset_io(&self) {}
}

impl Index1D for CountingIndex {
    fn insert(&mut self, m: &Motion1D) {
        self.motions.insert(m.id, *m);
    }
    fn remove(&mut self, m: &Motion1D) -> bool {
        self.motions.remove(&m.id).is_some()
    }
    fn search(&mut self, q: &MorQuery1D, out: &mut Vec<u64>) {
        let motions: Vec<Motion1D> = self.motions.values().copied().collect();
        *out = brute_force_1d(&motions, q);
    }
    fn freeze(&self) -> Option<Box<dyn FrozenIndex1D>> {
        let generation = self.generation.fetch_add(1, Ordering::Relaxed);
        let mut ledger = self.ledger.lock().unwrap();
        ledger.born[self.shard] += 1;
        ledger.alive[self.shard] += 1;
        ledger.peak[self.shard] = ledger.peak[self.shard].max(ledger.alive[self.shard]);
        Some(Box::new(CountingView {
            shard: self.shard,
            generation,
            motions: self.motions.values().copied().collect(),
            ledger: Arc::clone(&self.ledger),
        }))
    }
}

impl FrozenIndex1D for CountingView {
    fn search(&self, q: &MorQuery1D, out: &mut Vec<u64>) -> FrozenReadStats {
        *out = brute_force_1d(&self.motions, q);
        FrozenReadStats {
            candidates: self.motions.len() as u64,
            pages: 1,
        }
    }
}

impl Drop for CountingView {
    fn drop(&mut self) {
        let current = std::thread::current();
        let mut ledger = self.ledger.lock().unwrap();
        ledger.alive[self.shard] -= 1;
        ledger.deaths.push(Death {
            shard: self.shard,
            generation: self.generation,
            thread: current.id(),
            thread_name: current.name().map(str::to_owned),
        });
    }
}

fn counting_db() -> (ShardedDb<CountingIndex>, Arc<Mutex<Ledger>>) {
    let ledger = Arc::new(Mutex::new(Ledger::default()));
    let for_factory = Arc::clone(&ledger);
    let db = ShardedDb::new(
        ServeConfig {
            shards: SHARDS,
            read_threads: 1,
            ..ServeConfig::default()
        },
        Box::new(IdHashShard),
        move |shard, _| CountingIndex {
            shard,
            motions: BTreeMap::new(),
            generation: AtomicU64::new(0),
            ledger: Arc::clone(&for_factory),
        },
    );
    (db, ledger)
}

fn motion(id: u64, step: u64) -> Motion1D {
    #[allow(clippy::cast_precision_loss)]
    Motion1D {
        id,
        t0: step as f64,
        y0: ((id * 37 + step * 50) % 1000) as f64,
        v: if id % 2 == 0 { 1.0 } else { -1.0 },
    }
}

/// Apply `step`: the first inserts 64 objects, every later one moves
/// all of them — so every apply reaches every shard.
fn apply_step(db: &ShardedDb<CountingIndex>, step: u64) {
    let mut batch = Batch::new();
    for id in 0..64 {
        if step == 1 {
            batch.insert(motion(id, step));
        } else {
            batch.update(motion(id, step));
        }
    }
    db.apply(&batch).expect("apply");
}

const PROBE: MorQuery1D = MorQuery1D {
    y1: 0.0,
    y2: 400.0,
    t1: 100.0,
    t2: 110.0,
};

#[test]
fn the_shard_that_built_a_view_retires_it() {
    let caller = std::thread::current().id();
    let (db, ledger) = counting_db();
    for step in 1..=50 {
        apply_step(&db, step);
    }
    {
        let ledger = ledger.lock().unwrap();
        for shard in 0..SHARDS {
            assert_eq!(
                ledger.born[shard], 51,
                "one view per apply, plus the initial one"
            );
            // Alive: the last two views the worker published. Dead:
            // everything older — and it died in generation order.
            assert_eq!(ledger.alive[shard], 2);
            let deaths = ledger.deaths_of(shard);
            let generations: Vec<u64> = deaths.iter().map(|d| d.generation).collect();
            assert_eq!(generations, (0..=48).collect::<Vec<u64>>());
            // The initial view was frozen by the constructing thread and
            // never passed through the worker: the facade was its last
            // owner. Every view a worker built, the worker freed.
            assert_eq!(deaths[0].thread, caller);
            for death in &deaths[1..] {
                assert_ne!(death.thread, caller, "{death:?} died on the client");
                assert_eq!(
                    death.thread_name.as_deref(),
                    Some(format!("mobidx-shard-{shard}").as_str()),
                    "{death:?}"
                );
            }
            // The retire precedes the freeze: never a third generation.
            assert_eq!(ledger.peak[shard], 2);
        }
    }
    let health = db.health();
    for shard in &health.shards {
        assert_eq!(shard.applied_batches, 50);
        assert_eq!(shard.views_retired, 48, "all but the two it still keeps");
    }
    drop(db);
    let ledger = ledger.lock().unwrap();
    assert_eq!(
        ledger.alive, [0; SHARDS],
        "the database took its views with it"
    );
    assert_eq!(ledger.deaths.len(), 51 * SHARDS);
}

#[test]
fn a_held_read_view_owns_its_views_until_dropped() {
    let (db, ledger) = counting_db();
    for step in 1..=5 {
        apply_step(&db, step);
    }
    let pinned = db.read_view().expect("a snapshot is published");
    assert_eq!(pinned.epoch(), 5);
    let as_of_pin = brute_force_1d(&db.objects(), &PROBE);
    assert!(!as_of_pin.is_empty());
    for step in 6..=15 {
        apply_step(&db, step);
    }
    // Ten commits later the view still answers as of its epoch ...
    assert_eq!(pinned.query(&PROBE), as_of_pin);
    assert_ne!(brute_force_1d(&db.objects(), &PROBE), as_of_pin);
    {
        // ... and keeps exactly its own generation alive: the worker
        // let go of it at apply 7 without being its last owner.
        let ledger = ledger.lock().unwrap();
        for shard in 0..SHARDS {
            assert_eq!(
                ledger.alive[shard], 3,
                "the pinned view and the worker's two"
            );
            assert!(ledger.deaths_of(shard).iter().all(|d| d.generation != 5));
        }
    }
    for shard in &db.health().shards {
        // 15 applies, the worker's two, and the one the reader owns.
        assert_eq!(shard.applied_batches - shard.views_retired, 3);
    }
    // The views die with the reader, on whichever thread that is.
    let reaper = std::thread::Builder::new()
        .name("reader".to_owned())
        .spawn(move || drop(pinned))
        .unwrap();
    let reader = reaper.thread().id();
    reaper.join().unwrap();
    {
        let ledger = ledger.lock().unwrap();
        for shard in 0..SHARDS {
            let deaths = ledger.deaths_of(shard);
            let death = deaths.iter().find(|d| d.generation == 5).expect("died");
            assert_eq!(death.thread, reader, "{death:?}");
            assert_eq!(ledger.alive[shard], 2);
        }
    }
    drop(db);
    assert_eq!(ledger.lock().unwrap().alive, [0; SHARDS]);
}
