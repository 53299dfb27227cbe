//! Who builds a snapshot, when, and who frees it. A view is built for
//! an apply that follows a snapshot read, or for a read that finds none
//! published — never for an apply nobody read behind. A shard worker
//! keeps the last two views it built and retires the older one at the
//! start of its next `Apply` (both, if that apply is not to publish), so
//! a view's death — a page table of reference-count decrements plus
//! every page only it still held — is paid by the thread that built it
//! and never by the client inside `apply`. An index that can refreeze
//! has the retired view recycled instead: patched up to the live state
//! at the start of the apply and again, as the next published view, at
//! its end — the same births, deaths and counts, on the same thread.
//! A counting index whose frozen views record where they are born and
//! where and when they die holds that in place, once freezing afresh
//! and once refreezing.

use mobidx_core::ids::IdSet;
use mobidx_core::{FrozenIndex1D, FrozenReadStats, Index1D, IndexStats, QueryRequest};
use mobidx_pager::Store;
use mobidx_serve::{Batch, IdHashShard, ServeConfig, ServeError, ShardedDb};
use mobidx_workload::{brute_force_1d, MorQuery1D, Motion1D};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

const SHARDS: usize = 2;

/// One frozen view's birth or death: which freeze of which shard, and
/// where.
#[derive(Debug, Clone)]
struct Event {
    shard: usize,
    generation: u64,
    thread: ThreadId,
    thread_name: Option<String>,
    /// Whether a refreeze did it (a freeze, or a drop, otherwise).
    refrozen: bool,
}

/// Births and deaths of every frozen view of one database.
#[derive(Debug, Default)]
struct Ledger {
    /// Views alive now, per shard.
    alive: [usize; SHARDS],
    /// The most views of one shard ever alive at once.
    peak: [usize; SHARDS],
    births: Vec<Event>,
    deaths: Vec<Event>,
}

impl Ledger {
    fn births_of(&self, shard: usize) -> Vec<&Event> {
        self.births.iter().filter(|b| b.shard == shard).collect()
    }

    fn deaths_of(&self, shard: usize) -> Vec<&Event> {
        self.deaths.iter().filter(|d| d.shard == shard).collect()
    }
}

fn event_here(shard: usize, generation: u64, refrozen: bool) -> Event {
    let current = std::thread::current();
    Event {
        shard,
        generation,
        thread: current.id(),
        thread_name: current.name().map(str::to_owned),
        refrozen,
    }
}

impl Ledger {
    fn born(&mut self, shard: usize, generation: u64, refrozen: bool) {
        self.births.push(event_here(shard, generation, refrozen));
        self.alive[shard] += 1;
        self.peak[shard] = self.peak[shard].max(self.alive[shard]);
    }

    fn died(&mut self, shard: usize, generation: u64, refrozen: bool) {
        self.alive[shard] -= 1;
        self.deaths.push(event_here(shard, generation, refrozen));
    }
}

/// A brute-force index that counts its frozen views. Generation 0 is
/// the freeze `ShardedDb` takes at construction, on the constructing
/// thread; generation `k` the shard's `k`-th view after it.
///
/// With `refreezes` set it also refreezes: a refreeze of a view that
/// carries a generation retires that generation (a death) and leaves a
/// *vessel* — the live state, published to nobody — and a refreeze of a
/// vessel gives it the next generation (a birth). That is the worker's
/// use of it: the retired view caught up at the start of an apply,
/// published again at its end.
struct CountingIndex {
    shard: usize,
    motions: BTreeMap<u64, Motion1D>,
    generation: AtomicU64,
    ledger: Arc<Mutex<Ledger>>,
    refreezes: bool,
}

struct CountingView {
    shard: usize,
    /// `None` for a vessel.
    generation: Option<u64>,
    motions: Vec<Motion1D>,
    ledger: Arc<Mutex<Ledger>>,
}

impl IndexStats for CountingIndex {
    fn name(&self) -> String {
        "counting".to_owned()
    }
    fn stores(&self, _: &mut dyn FnMut(std::fmt::Arguments<'_>, &dyn Store)) {}
    fn stores_mut(&mut self, _: &mut dyn FnMut(&mut dyn Store)) {}
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
        self.ledger
            .lock()
            .unwrap()
            .born(self.shard, generation, false);
        Some(Box::new(CountingView {
            shard: self.shard,
            generation: Some(generation),
            motions: self.motions.values().copied().collect(),
            ledger: Arc::clone(&self.ledger),
        }))
    }

    fn refreeze(&mut self, view: &mut dyn FrozenIndex1D) -> bool {
        if !self.refreezes {
            return false;
        }
        let Some(view) = view
            .as_any_mut()
            .and_then(|view| view.downcast_mut::<CountingView>())
        else {
            return false;
        };
        let mut ledger = self.ledger.lock().unwrap();
        match view.generation.take() {
            Some(retired) => ledger.died(self.shard, retired, true),
            None => {
                let generation = self.generation.fetch_add(1, Ordering::Relaxed);
                ledger.born(self.shard, generation, true);
                view.generation = Some(generation);
            }
        }
        view.motions = self.motions.values().copied().collect();
        true
    }
}

impl FrozenIndex1D for CountingView {
    fn search_set(&self, q: &MorQuery1D, out: &mut IdSet) -> FrozenReadStats {
        out.fill_sorted(|ids| *ids = brute_force_1d(&self.motions, q));
        FrozenReadStats {
            candidates: self.motions.len() as u64,
            pages: 1,
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

impl Drop for CountingView {
    fn drop(&mut self) {
        if let Some(generation) = self.generation {
            self.ledger
                .lock()
                .unwrap()
                .died(self.shard, generation, false);
        }
    }
}

fn counting_db() -> (ShardedDb<CountingIndex>, Arc<Mutex<Ledger>>) {
    counting_db_refreezing(false)
}

fn counting_db_refreezing(refreezes: bool) -> (ShardedDb<CountingIndex>, Arc<Mutex<Ledger>>) {
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
            refreezes,
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

/// A snapshot read: the answer is exact and stamped with the commit
/// epoch.
fn read(db: &ShardedDb<CountingIndex>, commits: u64) {
    let out = db.query(&QueryRequest::new(&PROBE)).expect("snapshot read");
    assert_eq!(out.epoch, Some(commits));
    assert_eq!(out.ids, brute_force_1d(&db.objects(), &PROBE));
}

/// The generations born of a fresh freeze, not of a refreeze.
fn fresh_generations(births: &[&Event]) -> Vec<u64> {
    births
        .iter()
        .filter(|b| !b.refrozen)
        .map(|b| b.generation)
        .collect()
}

fn on_its_worker(event: &Event) -> bool {
    event.thread_name.as_deref() == Some(format!("mobidx-shard-{}", event.shard).as_str())
}

#[test]
fn the_shard_that_built_a_view_retires_it() {
    the_shard_that_built_a_view_retires_it_refreezing(false);
}

/// As above, with every apply from the third on recycling the view it
/// retires: refrozen up to the live state first (the death), then again
/// after the batch (the birth), always on the shard's worker.
#[test]
fn a_recycled_view_is_retired_and_rebuilt_by_its_worker() {
    let ledger = the_shard_that_built_a_view_retires_it_refreezing(true);
    let ledger = ledger.lock().unwrap();
    for shard in 0..SHARDS {
        let (births, deaths) = (ledger.births_of(shard), ledger.deaths_of(shard));
        // Applies 1 and 2 find no `prev` yet: they freeze.
        assert_eq!(fresh_generations(&births), [0, 1, 2]);
        assert_eq!(births.iter().filter(|b| b.refrozen).count(), 48);
        let retired = deaths.iter().filter(|d| d.refrozen).count();
        assert_eq!(retired, 48, "every death but generation 0's");
        let mut refrozen = births.iter().chain(&deaths).filter(|e| e.refrozen);
        assert!(refrozen.all(|e| on_its_worker(e)));
    }
}

fn the_shard_that_built_a_view_retires_it_refreezing(refreezes: bool) -> Arc<Mutex<Ledger>> {
    let caller = std::thread::current().id();
    let (db, ledger) = counting_db_refreezing(refreezes);
    for step in 1..=50 {
        read(&db, step - 1);
        apply_step(&db, step);
    }
    {
        let ledger = ledger.lock().unwrap();
        for shard in 0..SHARDS {
            // One view per apply that followed a snapshot read, in line,
            // plus the initial one.
            let births = ledger.births_of(shard);
            assert_eq!(births.len(), 51);
            assert_eq!(births[0].thread, caller);
            assert!(births[1..].iter().all(|b| on_its_worker(b)));
            // Alive: the last two views the worker built. Dead:
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
                assert!(on_its_worker(death), "{death:?}");
            }
            // The retire precedes the freeze: never a third generation.
            assert_eq!(ledger.peak[shard], 2);
        }
    }
    let health = db.health();
    // Every apply found the bit set: no demand round trip, ever.
    assert_eq!(health.snapshots_on_demand, 0);
    assert_eq!(health.applies_unpublished, 0);
    for shard in &health.shards {
        assert_eq!(shard.applied_batches, 50);
        assert_eq!(shard.views_built, 50);
        assert_eq!(shard.views_retired, 48, "all but the two it still keeps");
    }
    drop(db);
    {
        let ledger = ledger.lock().unwrap();
        assert_eq!(
            ledger.alive, [0; SHARDS],
            "the database took its views with it"
        );
        assert_eq!(ledger.deaths.len(), 51 * SHARDS);
    }
    ledger
}

#[test]
fn a_write_only_stream_builds_no_view() {
    let caller = std::thread::current().id();
    let (db, ledger) = counting_db();
    // The initial view goes inside the first apply, before its dispatch,
    // on the client's thread: no worker ever held it, so the registry
    // letting go of it is its death.
    apply_step(&db, 1);
    {
        let ledger = ledger.lock().unwrap();
        assert_eq!(ledger.alive, [0; SHARDS]);
        assert_eq!(ledger.deaths.len(), SHARDS);
        assert!(ledger.deaths.iter().all(|d| d.thread == caller));
    }
    for step in 2..=50 {
        apply_step(&db, step);
        assert_eq!(db.snapshot_epoch(), step, "one commit epoch per apply");
    }
    assert_eq!(ledger.lock().unwrap().births.len(), SHARDS, "initial only");
    let health = db.health();
    assert_eq!(health.applies_unpublished, 50);
    assert_eq!(health.snapshots_on_demand, 0);
    for shard in &health.shards {
        assert_eq!((shard.views_built, shard.views_retired), (0, 0));
    }

    // The first read has every shard freeze, on its own thread.
    read(&db, 50);
    {
        let ledger = ledger.lock().unwrap();
        for shard in 0..SHARDS {
            let births = ledger.births_of(shard);
            assert_eq!(births.len(), 2);
            assert!(on_its_worker(births[1]), "{:?}", births[1]);
            assert_eq!(ledger.alive[shard], 1);
        }
    }
    assert_eq!(db.health().snapshots_on_demand, 1);

    // Read-active from here on: one view per apply, frozen in line —
    // each round enqueues its `Apply` on every shard and nothing else.
    let before = db.health();
    for step in 51..=60 {
        apply_step(&db, step);
        read(&db, step);
    }
    let health = db.health();
    assert_eq!(health.snapshots_on_demand, 1);
    assert_eq!(health.applies_unpublished, 50);
    for (now, then) in health.shards.iter().zip(&before.shards) {
        assert_eq!(now.enqueued - then.enqueued, 10, "no `Freeze` was sent");
        assert_eq!(now.views_built, 11);
        assert_eq!(now.views_built - now.views_retired, 2);
    }
    {
        let ledger = ledger.lock().unwrap();
        assert_eq!(ledger.births.len(), 12 * SHARDS);
        assert_eq!(ledger.peak, [2; SHARDS]);
        assert!(ledger.deaths[SHARDS..].iter().all(on_its_worker));
    }

    // And write-only again: the next apply still freezes (a read came
    // before it), the one after lets go of everything — on the workers.
    apply_step(&db, 61);
    apply_step(&db, 62);
    {
        let ledger = ledger.lock().unwrap();
        assert_eq!(ledger.alive, [0; SHARDS]);
        assert!(ledger.deaths[SHARDS..].iter().all(on_its_worker));
    }
    for shard in &db.health().shards {
        assert_eq!((shard.views_built, shard.views_retired), (12, 12));
    }
    read(&db, 62);
    drop(db);
    assert_eq!(ledger.lock().unwrap().alive, [0; SHARDS]);
}

/// A shard poisoned behind the registry's back (here by a panicking
/// `with_shard` closure) after a write-only stretch: the read that asks
/// it to freeze gets no view and `ShardPoisoned` for that shard,
/// publication pauses as it does behind a failed apply, and the rebuild
/// leaves the registry for the next read to complete — never half a
/// snapshot.
#[test]
fn a_rebuild_after_a_write_only_stretch_leaves_the_next_read_a_whole_snapshot() {
    let (db, ledger) = counting_db();
    for step in 1..=10 {
        apply_step(&db, step);
    }
    let fault = db.with_shard(0, |_| panic!("injected"));
    assert!(matches!(
        fault,
        Err(ServeError::ShardFault { shard: 0, .. })
    ));
    let unread = db.query(&QueryRequest::new(&PROBE)).err();
    assert_eq!(unread, Some(ServeError::ShardPoisoned { shard: 0 }));
    assert_eq!(db.health().shards[0].views_built, 0);
    assert_eq!(db.health().shards[1].views_built, 1);
    // The table commits, shard 0 refuses its slice: the epoch stands.
    let mut batch = Batch::new();
    for id in 0..64 {
        batch.update(motion(id, 11));
    }
    assert_eq!(
        db.apply(&batch),
        Err(ServeError::ShardPoisoned { shard: 0 })
    );
    assert_eq!(db.snapshot_epoch(), 10);
    db.rebuild_shard(0).expect("rebuild");
    assert_eq!(
        db.snapshot_epoch(),
        11,
        "the rebuild commits what the apply could not"
    );
    read(&db, 11);
    // Through a pause nothing is let go, read behind or not: reads keep
    // the last good snapshot while shard 1 refuses, and get a whole one
    // after its rebuild.
    let fault = db.with_shard(1, |_| panic!("injected"));
    assert!(matches!(
        fault,
        Err(ServeError::ShardFault { shard: 1, .. })
    ));
    for _ in 0..2 {
        assert_eq!(
            db.apply(&batch),
            Err(ServeError::ShardPoisoned { shard: 1 })
        );
    }
    assert_eq!(db.read_view().expect("last good").epoch(), 11);
    db.rebuild_shard(1).expect("rebuild");
    read(&db, 12);
    drop(db);
    assert_eq!(ledger.lock().unwrap().alive, [0; SHARDS]);
}

#[test]
fn a_held_read_view_owns_its_views_until_dropped() {
    a_held_read_view_owns_its_views_until_dropped_refreezing(false);
}

/// As above, refreezing: the pinned view is never patched, and the
/// apply that finds it in `prev` freezes afresh.
#[test]
fn a_held_read_view_is_never_refrozen() {
    let ledger = a_held_read_view_owns_its_views_until_dropped_refreezing(true);
    let ledger = ledger.lock().unwrap();
    for shard in 0..SHARDS {
        let (births, deaths) = (ledger.births_of(shard), ledger.deaths_of(shard));
        // 1 for the read, 2 for apply 6 (no `prev`), 3 for apply 7
        // (`prev` is the pinned view); applies 8 to 15 recycle.
        assert_eq!(fresh_generations(&births), [0, 1, 2, 3]);
        assert_eq!(births.len(), 12);
        let mut refrozen = births.iter().chain(&deaths).filter(|e| e.refrozen);
        assert!(refrozen.all(|e| on_its_worker(e)));
        let pinned = deaths.iter().find(|d| d.generation == 1).expect("died");
        assert!(!pinned.refrozen, "the pinned view was patched");
    }
}

fn a_held_read_view_owns_its_views_until_dropped_refreezing(refreezes: bool) -> Arc<Mutex<Ledger>> {
    let (db, ledger) = counting_db_refreezing(refreezes);
    for step in 1..=5 {
        apply_step(&db, step);
    }
    // Generation 1: built for this read, at the fifth commit.
    let pinned = db.read_view().expect("a snapshot is built");
    assert_eq!(pinned.epoch(), 5);
    let as_of_pin = brute_force_1d(&db.objects(), &PROBE);
    assert!(!as_of_pin.is_empty());
    for step in 6..=15 {
        read(&db, step - 1);
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
            assert!(ledger.deaths_of(shard).iter().all(|d| d.generation != 1));
        }
    }
    for shard in &db.health().shards {
        // The worker's two, and the one the reader owns.
        assert_eq!((shard.views_built, shard.views_retired), (11, 8));
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
            let death = deaths.iter().find(|d| d.generation == 1).expect("died");
            assert_eq!(death.thread, reader, "{death:?}");
            assert_eq!(ledger.alive[shard], 2);
        }
    }
    drop(db);
    assert_eq!(ledger.lock().unwrap().alive, [0; SHARDS]);
    ledger
}
