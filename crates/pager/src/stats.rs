//! I/O and space accounting.
//!
//! All metrics reported by the benchmark harness (Figures 6–9 of the paper)
//! are derived from [`IoStats`]: query cost = reads+writes since the
//! counters were reset ([`IoStats::reset_io`]) or between two readings,
//! space = live page count. Buffer-pool behaviour (hits, evictions, dirty
//! write-backs) is tallied alongside so the harness can report hit rates.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Cumulative I/O and space counters for one paged structure.
///
/// Counters use relaxed atomics so that logically read-only operations
/// (searches, which still touch the buffer pool) don't force `&mut` APIs
/// up the stack, and so instrumented structures stay `Sync`. The counters
/// are independent tallies, not synchronization points, so `Relaxed`
/// ordering is sufficient.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    allocated: AtomicU64,
    freed: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    retries: AtomicU64,
    faults_injected: AtomicU64,
    faults_recovered: AtomicU64,
    backoff_units: AtomicU64,
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
    wal_fsyncs: AtomicU64,
    wal_replayed: AtomicU64,
}

impl IoStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` page reads (buffer misses).
    pub fn add_reads(&self, n: u64) {
        self.reads.fetch_add(n, Relaxed);
    }

    /// Records `n` page writes (dirty evictions / flushes).
    pub fn add_writes(&self, n: u64) {
        self.writes.fetch_add(n, Relaxed);
    }

    /// Records one page allocation.
    pub fn add_alloc(&self) {
        self.allocated.fetch_add(1, Relaxed);
    }

    /// Records one page deallocation.
    pub fn add_free(&self) {
        self.freed.fetch_add(1, Relaxed);
    }

    /// Records `n` buffer hits (page accesses served without I/O).
    pub fn add_hits(&self, n: u64) {
        self.hits.fetch_add(n, Relaxed);
    }

    /// Records one buffer eviction (a resident page displaced to make
    /// room).
    pub fn add_eviction(&self) {
        self.evictions.fetch_add(1, Relaxed);
    }

    /// Records one dirty write-back (an eviction or flush that had to pay
    /// a write I/O).
    ///
    /// The write-back ledger is *per dirty page leaving residency*, not
    /// per mutation: however many mutations a page absorbs while resident
    /// — one, or a whole grouped batch applied in a single
    /// [`crate::PageStore::try_write`] closure — it owes exactly one write
    /// I/O when it is evicted, flushed, or (with a capacity-0 pool)
    /// bounced straight back out. This is what makes batch apply
    /// amortization visible in the counters: grouping k same-page
    /// mutations turns k read+write pairs into one.
    pub fn add_writeback(&self) {
        self.writebacks.fetch_add(1, Relaxed);
    }

    /// Records one retry of a faulted page access.
    pub fn add_retry(&self) {
        self.retries.fetch_add(1, Relaxed);
    }

    /// Records one fault injected by the backend (each failed attempt
    /// counts once, including the attempts a retry loop absorbs).
    pub fn add_fault_injected(&self) {
        self.faults_injected.fetch_add(1, Relaxed);
    }

    /// Records one fault fully recovered by retrying (the access
    /// ultimately succeeded, so the caller never saw an error).
    pub fn add_fault_recovered(&self) {
        self.faults_recovered.fetch_add(1, Relaxed);
    }

    /// Records `n` logical backoff units spent waiting between retries.
    pub fn add_backoff_units(&self, n: u64) {
        self.backoff_units.fetch_add(n, Relaxed);
    }

    /// Records the cost of acknowledged durable journal work: framed
    /// records appended, bytes written, `fsync`s issued. Fed by the
    /// [`crate::JournalAck`]s commit and checkpoint paths collect.
    pub fn add_wal(&self, records: u64, bytes: u64, fsyncs: u64) {
        self.wal_records.fetch_add(records, Relaxed);
        self.wal_bytes.fetch_add(bytes, Relaxed);
        self.wal_fsyncs.fetch_add(fsyncs, Relaxed);
    }

    /// Records `n` WAL records replayed during recovery-on-open.
    pub fn add_wal_replayed(&self, n: u64) {
        self.wal_replayed.fetch_add(n, Relaxed);
    }

    /// Total page reads so far.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads.load(Relaxed)
    }

    /// Total page writes so far.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes.load(Relaxed)
    }

    /// Total reads + writes.
    #[must_use]
    pub fn total_ios(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Total buffer hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    /// Total buffer misses so far. Every miss faults a page in, so this
    /// equals [`IoStats::reads`].
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.reads()
    }

    /// Total buffer evictions so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Relaxed)
    }

    /// Total dirty write-backs so far (the subset of [`IoStats::writes`]
    /// paid by evictions and flushes).
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.writebacks.load(Relaxed)
    }

    /// Fraction of buffered page accesses served without I/O
    /// (`hits / (hits + misses)`; 0.0 before any access).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let touched = hits + self.misses();
        if touched == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            hits as f64 / touched as f64
        }
    }

    /// Total retries of faulted accesses so far.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries.load(Relaxed)
    }

    /// Total faults injected by the backend so far.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Relaxed)
    }

    /// Total faults absorbed by the retry policy so far.
    #[must_use]
    pub fn faults_recovered(&self) -> u64 {
        self.faults_recovered.load(Relaxed)
    }

    /// Total logical backoff units spent between retries so far.
    #[must_use]
    pub fn backoff_units(&self) -> u64 {
        self.backoff_units.load(Relaxed)
    }

    /// Durable journal records appended so far.
    #[must_use]
    pub fn wal_records(&self) -> u64 {
        self.wal_records.load(Relaxed)
    }

    /// Durable journal bytes written so far (WAL appends and
    /// checkpoint images).
    #[must_use]
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes.load(Relaxed)
    }

    /// `fsync`s issued by the durable backend so far.
    #[must_use]
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal_fsyncs.load(Relaxed)
    }

    /// WAL records replayed by recovery-on-open.
    #[must_use]
    pub fn wal_replayed(&self) -> u64 {
        self.wal_replayed.load(Relaxed)
    }

    /// Pages allocated over the lifetime of the structure.
    #[must_use]
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Relaxed)
    }

    /// Pages freed over the lifetime of the structure.
    #[must_use]
    pub fn freed(&self) -> u64 {
        self.freed.load(Relaxed)
    }

    /// Pages currently live — the paper's space-consumption metric (Fig. 8).
    #[must_use]
    pub fn live_pages(&self) -> u64 {
        self.allocated() - self.freed()
    }

    /// Resets the read/write and buffer counters, keeping space counters
    /// intact.
    pub fn reset_io(&self) {
        self.reads.store(0, Relaxed);
        self.writes.store(0, Relaxed);
        self.hits.store(0, Relaxed);
        self.evictions.store(0, Relaxed);
        self.writebacks.store(0, Relaxed);
        self.retries.store(0, Relaxed);
        self.faults_injected.store(0, Relaxed);
        self.faults_recovered.store(0, Relaxed);
        self.backoff_units.store(0, Relaxed);
        self.wal_records.store(0, Relaxed);
        self.wal_bytes.store(0, Relaxed);
        self.wal_fsyncs.store(0, Relaxed);
        self.wal_replayed.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.add_reads(3);
        s.add_writes(2);
        s.add_alloc();
        s.add_alloc();
        s.add_free();
        assert_eq!(s.reads(), 3);
        assert_eq!(s.writes(), 2);
        assert_eq!(s.total_ios(), 5);
        assert_eq!(s.live_pages(), 1);
    }

    #[test]
    fn buffer_counters_accumulate() {
        let s = IoStats::new();
        s.add_hits(3);
        s.add_reads(1); // = one miss
        s.add_eviction();
        s.add_writeback();
        assert_eq!(s.hits(), 3);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.evictions(), 1);
        assert_eq!(s.writebacks(), 1);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_is_zero_before_any_access() {
        let s = IoStats::new();
        assert!(s.hit_rate().abs() < f64::EPSILON);
    }

    #[test]
    fn reset_io_keeps_space() {
        let s = IoStats::new();
        s.add_reads(5);
        s.add_hits(2);
        s.add_eviction();
        s.add_alloc();
        s.reset_io();
        assert_eq!(s.reads(), 0);
        assert_eq!(s.hits(), 0);
        assert_eq!(s.evictions(), 0);
        assert_eq!(s.live_pages(), 1);
    }

    #[test]
    fn fault_counters_accumulate_and_reset() {
        let s = IoStats::new();
        s.add_fault_injected();
        s.add_fault_injected();
        s.add_retry();
        s.add_fault_recovered();
        s.add_backoff_units(3);
        assert_eq!(s.faults_injected(), 2);
        assert_eq!(s.retries(), 1);
        assert_eq!(s.faults_recovered(), 1);
        assert_eq!(s.backoff_units(), 3);
        s.reset_io();
        assert_eq!(s.faults_injected(), 0);
        assert_eq!(s.retries(), 0);
        assert_eq!(s.faults_recovered(), 0);
        assert_eq!(s.backoff_units(), 0);
    }

    #[test]
    fn wal_counters_accumulate_reset_and_publish() {
        let s = IoStats::new();
        s.add_wal(3, 120, 1);
        s.add_wal(1, 40, 1);
        s.add_wal_replayed(5);
        assert_eq!(s.wal_records(), 4);
        assert_eq!(s.wal_bytes(), 160);
        assert_eq!(s.wal_fsyncs(), 2);
        assert_eq!(s.wal_replayed(), 5);
        s.reset_io();
        assert_eq!(s.wal_records(), 0);
        assert_eq!(s.wal_bytes(), 0);
        assert_eq!(s.wal_fsyncs(), 0);
        assert_eq!(s.wal_replayed(), 0);
    }

    #[test]
    fn stats_are_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<IoStats>();
    }
}
