//! Storage backends: the policy layer that decides whether each physical
//! page access succeeds.
//!
//! A [`crate::PageStore`] keeps page *contents* in its slab (the
//! simulated disk) and consults a [`Backend`] at every physical access —
//! buffer-miss reads, dirty write-backs, in-buffer mutations, page
//! allocation and freeing. The default [`MemBackend`] permits
//! everything, reproducing the seed behaviour bit-for-bit. The
//! [`FaultStore`] backend injects deterministic, seedable faults so the
//! model-checking harness (`mobidx-check`) can prove the indexes degrade
//! gracefully: every injected fault either surfaces as a typed
//! [`crate::PagerError`] or is transparently absorbed by the store's
//! retry policy.

use crate::store::PageId;

/// The class of physical access being arbitrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// A buffer-miss fetch from the simulated disk (one read I/O).
    Read,
    /// A dirty page displaced or flushed back to the simulated disk
    /// (one write I/O).
    WriteBack,
    /// An in-place mutation of a resident page. Not an I/O in the
    /// external-memory cost model, but the access where write failures
    /// and torn writes manifest.
    Mutate,
    /// Allocation of a fresh page.
    Alloc,
    /// Deallocation of a live page.
    Free,
}

/// How an injected fault fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The access fails cleanly; nothing was applied.
    Failed,
    /// The access was partially applied (meaningful for
    /// [`IoKind::Mutate`]: the store applies the mutation, then reports
    /// the failure).
    Torn,
    /// The whole store is dead.
    Crashed,
}

/// One injected fault, as reported by a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Failure mode.
    pub kind: FaultKind,
    /// Whether an immediate retry of the same access may succeed. The
    /// store's [`crate::RetryPolicy`] only re-attempts transient faults.
    pub transient: bool,
}

/// Acknowledgement of one durable journal operation, carrying the cost
/// the backend actually paid so the store can feed its WAL counters
/// ([`crate::IoStats::wal_bytes`], [`crate::IoStats::wal_fsyncs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalAck {
    /// Bytes appended to the log (or written to the page file, for
    /// checkpoints).
    pub bytes: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Framed records appended.
    pub records: u64,
}

impl JournalAck {
    /// Sums two acknowledgements (commit paths accumulate one total).
    #[must_use]
    pub fn merge(self, other: JournalAck) -> JournalAck {
        JournalAck {
            bytes: self.bytes + other.bytes,
            fsyncs: self.fsyncs + other.fsyncs,
            records: self.records + other.records,
        }
    }
}

/// Arbitrates physical page accesses for a [`crate::PageStore`].
///
/// `permit` is called once per physical access *attempt* (so a retried
/// transient fault produces several calls). Returning `Ok(())` lets the
/// access proceed; returning a [`Fault`] makes the store either retry
/// (transient, within policy) or surface a typed [`crate::PagerError`].
///
/// Backends are `Send` so a [`crate::PageStore`] (and hence any index
/// built on one) can be owned by a dedicated worker thread — the shard
/// ownership model of `mobidx-serve`.
pub trait Backend: std::fmt::Debug + Send {
    /// Decides the fate of one access attempt.
    fn permit(&mut self, kind: IoKind, page: PageId) -> Result<(), Fault>;

    /// Human-readable backend name (diagnostics, harness reports).
    fn label(&self) -> &'static str {
        "backend"
    }

    /// Whether this backend persists journaled bytes. Stores skip all
    /// commit bookkeeping (dirty-page tracking, journaling) for
    /// non-durable backends, keeping the simulated-disk hot path
    /// untouched.
    fn is_durable(&self) -> bool {
        false
    }

    /// Journals the encoded image of a page dirtied since the last
    /// commit. Part of the current commit window; not durable until
    /// [`Backend::journal_commit`] seals it. Non-durable backends
    /// acknowledge without writing anything.
    ///
    /// # Errors
    /// Fails with the backend's fault decision; a transient fault may
    /// be retried by the store, a torn or crashed fault means the
    /// journal tail is unusable and the store is dead.
    fn journal_page(&mut self, page: PageId, bytes: &[u8]) -> Result<JournalAck, Fault> {
        let _ = (page, bytes);
        Ok(JournalAck::default())
    }

    /// Journals what changed in a page dirtied since the last commit,
    /// as splices against the image the log last held for that page
    /// ([`crate::wal`], "Page deltas") — the store's alternative to
    /// [`Backend::journal_page`] when the page's codec offers a delta.
    ///
    /// A backend whose [`Backend::is_durable`] is true **must**
    /// implement this: the default acknowledges and drops the record,
    /// which is right only where nothing is journaled at all. A wrapper
    /// that forwards `journal_page` forwards this too.
    ///
    /// # Errors
    /// Same failure modes as [`Backend::journal_page`].
    fn journal_delta(&mut self, page: PageId, splices: &[u8]) -> Result<JournalAck, Fault> {
        debug_assert!(
            !self.is_durable(),
            "a durable backend must implement journal_delta"
        );
        let _ = (page, splices);
        Ok(JournalAck::default())
    }

    /// Journals the freeing of a page in the current commit window.
    ///
    /// # Errors
    /// Same failure modes as [`Backend::journal_page`].
    fn journal_free(&mut self, page: PageId) -> Result<JournalAck, Fault> {
        let _ = page;
        Ok(JournalAck::default())
    }

    /// Seals the current commit window with an opaque metadata blob
    /// (handed back verbatim on recovery), making the whole window
    /// durable per the backend's fsync policy.
    ///
    /// # Errors
    /// Same failure modes as [`Backend::journal_page`]; a fault here
    /// means the window did not commit (recovery yields the previous
    /// committed state).
    fn journal_commit(&mut self, meta: &[u8]) -> Result<JournalAck, Fault> {
        let _ = meta;
        Ok(JournalAck::default())
    }

    /// Writes a full checkpoint image — every live page plus `meta` —
    /// and truncates the journal. A checkpoint *is* a commit (it seals
    /// current state durably); on success recovery starts from this
    /// image with an empty log.
    ///
    /// # Errors
    /// Fails with the backend's fault decision; a clean failure leaves
    /// the previous page file and the full journal intact.
    fn checkpoint(
        &mut self,
        pages: &[(PageId, Vec<u8>)],
        meta: &[u8],
    ) -> Result<JournalAck, Fault> {
        let _ = (pages, meta);
        Ok(JournalAck::default())
    }
}

/// The infallible in-memory backend: every access succeeds. This is the
/// default and reproduces the pre-fault-injection pager exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemBackend;

impl Backend for MemBackend {
    fn permit(&mut self, _kind: IoKind, _page: PageId) -> Result<(), Fault> {
        Ok(())
    }

    fn label(&self) -> &'static str {
        "mem"
    }
}

/// A backend that charges wall-clock latency for each disk I/O — buffer-miss
/// reads and dirty write-backs — before delegating the fault decision to the
/// wrapped backend.
///
/// The pager's cost model counts I/Os instead of timing them because the
/// simulated disk answers instantly; that is right for reproducing the
/// paper's figures but makes wall-clock throughput numbers CPU-bound and
/// unrepresentative of a disk-resident deployment. Wrapping a store's
/// backend in a `DelayBackend` makes every *counted* I/O also *cost* its
/// latency, so a throughput benchmark over the simulated disk is I/O-bound
/// exactly where the paper's cost model says it should be. The thread
/// sleeps (rather than spins) through the latency, so on a machine with
/// fewer cores than shards, concurrent stores still overlap their I/O
/// waits the way independent disks would.
///
/// `Mutate`, `Alloc`, and `Free` accesses are not I/Os in the
/// external-memory model and are not delayed.
#[derive(Debug)]
pub struct DelayBackend<B> {
    inner: B,
    latency: std::time::Duration,
    io_wait: Option<std::sync::Arc<mobidx_obs::Histogram>>,
}

impl<B: Backend> DelayBackend<B> {
    /// Wraps `inner`, charging `latency` per read or write-back.
    #[must_use]
    pub fn new(inner: B, latency: std::time::Duration) -> Self {
        Self {
            inner,
            latency,
            io_wait: None,
        }
    }

    /// Like [`DelayBackend::new`], additionally recording every charged
    /// I/O wait into `io_wait` in microseconds — the health-snapshot
    /// hook: a serving tier hands each shard's backend the shard's
    /// `io_wait` histogram and the waits show up in
    /// `ShardedDb::health()`.
    #[must_use]
    pub fn with_histogram(
        inner: B,
        latency: std::time::Duration,
        io_wait: std::sync::Arc<mobidx_obs::Histogram>,
    ) -> Self {
        Self {
            inner,
            latency,
            io_wait: Some(io_wait),
        }
    }

    /// The per-I/O latency charged.
    #[must_use]
    pub fn latency(&self) -> std::time::Duration {
        self.latency
    }

    /// The wrapped backend.
    #[must_use]
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: Backend> Backend for DelayBackend<B> {
    fn permit(&mut self, kind: IoKind, page: PageId) -> Result<(), Fault> {
        if matches!(kind, IoKind::Read | IoKind::WriteBack) && !self.latency.is_zero() {
            // Charged even when the inner backend then faults the access:
            // a real device spends the time before reporting the error.
            let start = std::time::Instant::now();
            std::thread::sleep(self.latency);
            if let Some(h) = &self.io_wait {
                h.record(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
            }
        }
        self.inner.permit(kind, page)
    }

    fn label(&self) -> &'static str {
        "delay"
    }

    // Journal operations pass straight through: their latency is real
    // (the inner durable backend actually writes and fsyncs), so the
    // simulated per-I/O charge would double-count.
    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }

    fn journal_page(&mut self, page: PageId, bytes: &[u8]) -> Result<JournalAck, Fault> {
        self.inner.journal_page(page, bytes)
    }

    fn journal_delta(&mut self, page: PageId, splices: &[u8]) -> Result<JournalAck, Fault> {
        self.inner.journal_delta(page, splices)
    }

    fn journal_free(&mut self, page: PageId) -> Result<JournalAck, Fault> {
        self.inner.journal_free(page)
    }

    fn journal_commit(&mut self, meta: &[u8]) -> Result<JournalAck, Fault> {
        self.inner.journal_commit(meta)
    }

    fn checkpoint(
        &mut self,
        pages: &[(PageId, Vec<u8>)],
        meta: &[u8],
    ) -> Result<JournalAck, Fault> {
        self.inner.checkpoint(pages, meta)
    }
}

/// Bounded retry policy for transient faults, applied by the store.
///
/// The backoff is *logical*: the store does not sleep (the whole disk is
/// simulated), it counts backoff units — `1 << attempt` per re-attempt,
/// i.e. exponential — into [`crate::IoStats::backoff_units`], so the
/// harness and benchmarks can report how much wall-clock a real
/// deployment would have spent waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of re-attempts after the initial failure.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 3 }
    }
}

impl RetryPolicy {
    /// A policy that never retries (every fault surfaces immediately).
    #[must_use]
    pub fn none() -> Self {
        Self { max_retries: 0 }
    }
}

/// Probabilities are expressed per mille (0..=1000) so plans stay
/// integer-only and exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// RNG seed; two `FaultStore`s with equal plans inject identical
    /// fault sequences for identical access sequences.
    pub seed: u64,
    /// Probability (per mille) that a buffer-miss read fails.
    pub read_fault_per_mille: u16,
    /// Probability (per mille) that a mutation or write-back fails
    /// cleanly (nothing applied).
    pub write_fault_per_mille: u16,
    /// Probability (per mille) that a mutation tears (applied but not
    /// acknowledged).
    pub torn_per_mille: u16,
    /// Share (per mille) of injected read/write faults that are
    /// transient — they clear after `transient_tries` failed attempts.
    pub transient_per_mille: u16,
    /// How many consecutive attempts a transient fault keeps failing
    /// before it clears (1..=n, sampled per fault).
    pub transient_tries: u32,
    /// Kill the store after this many physical I/Os (reads +
    /// write-backs). `None` disables the crash point.
    pub crash_after_ios: Option<u64>,
    /// Kill the store after this many *reads* specifically. Unlike
    /// [`FaultPlan::crash_after_ios`] (which counts reads and
    /// write-backs together, so the I/O index of "the Nth write" shifts
    /// with read traffic), a per-kind point pins the crash to a
    /// deterministic read index regardless of interleaving.
    pub crash_after_reads: Option<u64>,
    /// Kill the store after this many *write-class* accesses
    /// (write-backs and mutations; for the durable adapter, journal
    /// appends) specifically — the knob crash-matrix tests use to die
    /// mid-commit at "the Nth write".
    pub crash_after_writes: Option<u64>,
}

impl FaultPlan {
    /// A plan that never faults (useful as the control row of a matrix).
    #[must_use]
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            read_fault_per_mille: 0,
            write_fault_per_mille: 0,
            torn_per_mille: 0,
            transient_per_mille: 0,
            transient_tries: 1,
            crash_after_ios: None,
            crash_after_reads: None,
            crash_after_writes: None,
        }
    }

    /// Only transient faults, frequent enough to exercise the retry
    /// path, short enough that the default [`RetryPolicy`] absorbs them.
    #[must_use]
    pub fn transient(seed: u64) -> Self {
        Self {
            read_fault_per_mille: 30,
            write_fault_per_mille: 30,
            transient_per_mille: 1000,
            transient_tries: 2,
            ..Self::none(seed)
        }
    }

    /// Hard faults and torn writes: a share of reads and mutations fail
    /// for good, and some mutations are applied but unacknowledged.
    #[must_use]
    pub fn torn(seed: u64) -> Self {
        Self {
            read_fault_per_mille: 10,
            write_fault_per_mille: 10,
            torn_per_mille: 10,
            transient_per_mille: 300,
            transient_tries: 2,
            ..Self::none(seed)
        }
    }

    /// Fault-free until the store dies at its `n`-th physical I/O.
    #[must_use]
    pub fn crash_after(seed: u64, n: u64) -> Self {
        Self {
            crash_after_ios: Some(n),
            ..Self::none(seed)
        }
    }

    /// Fault-free until the store dies at its `n`-th read.
    #[must_use]
    pub fn crash_after_reads(seed: u64, n: u64) -> Self {
        Self {
            crash_after_reads: Some(n),
            ..Self::none(seed)
        }
    }

    /// Fault-free until the store dies at its `n`-th write — the
    /// deterministic "crash during the Nth write of a commit window"
    /// point the crash matrix sweeps.
    #[must_use]
    pub fn crash_after_writes(seed: u64, n: u64) -> Self {
        Self {
            crash_after_writes: Some(n),
            ..Self::none(seed)
        }
    }
}

/// A deterministic fault-injecting backend (see [`FaultPlan`]).
///
/// The RNG is a splitmix64 stream seeded from the plan; faults depend
/// only on the plan and the sequence of accesses, so a failing harness
/// run reproduces from its seed alone.
#[derive(Debug, Clone)]
pub struct FaultStore {
    plan: FaultPlan,
    rng_state: u64,
    /// Physical I/Os served (reads + write-backs) for the combined
    /// crash point.
    ios: u64,
    /// Reads served, for [`FaultPlan::crash_after_reads`].
    reads_served: u64,
    /// Writes served, for [`FaultPlan::crash_after_writes`].
    writes_served: u64,
    /// An in-flight transient fault: `(page, kind, remaining_failures)`.
    /// While present, matching accesses keep failing until the counter
    /// reaches zero, then succeed — which is what makes retries succeed
    /// deterministically.
    pending_transient: Option<(PageId, IoKind, u32)>,
    /// Total faults this backend has injected (diagnostics).
    injected: u64,
}

impl FaultStore {
    /// Creates a backend following `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            rng_state: plan.seed ^ 0x9E37_79B9_7F4A_7C15,
            ios: 0,
            reads_served: 0,
            writes_served: 0,
            pending_transient: None,
            injected: 0,
        }
    }

    /// The plan this backend follows.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults injected so far (each failed attempt counts once).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Reads served so far (the [`FaultPlan::crash_after_reads`] index).
    #[must_use]
    pub fn reads_served(&self) -> u64 {
        self.reads_served
    }

    /// Writes served so far (the [`FaultPlan::crash_after_writes`]
    /// index).
    #[must_use]
    pub fn writes_served(&self) -> u64 {
        self.writes_served
    }

    /// Whether any configured crash point has been reached (the store
    /// is dead and every further access fails).
    #[must_use]
    pub fn crashed(&self) -> bool {
        let hit = |count: u64, limit: Option<u64>| limit.is_some_and(|l| count >= l);
        hit(self.ios, self.plan.crash_after_ios)
            || hit(self.reads_served, self.plan.crash_after_reads)
            || hit(self.writes_served, self.plan.crash_after_writes)
    }

    /// splitmix64: deterministic, full-period, dependency-free.
    fn next_u64(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..1000`.
    fn per_mille(&mut self) -> u16 {
        #[allow(clippy::cast_possible_truncation)]
        {
            (self.next_u64() % 1000) as u16
        }
    }

    /// Decides whether to inject a fresh fault for this access, and of
    /// what kind. `None` = permit.
    fn draw_fault(&mut self, kind: IoKind, page: PageId) -> Option<Fault> {
        let fail = match kind {
            IoKind::Read => self.per_mille() < self.plan.read_fault_per_mille,
            IoKind::WriteBack => self.per_mille() < self.plan.write_fault_per_mille,
            IoKind::Mutate => {
                // Torn and clean write faults are disjoint draws so
                // their rates compose.
                if self.per_mille() < self.plan.torn_per_mille {
                    return Some(Fault {
                        kind: FaultKind::Torn,
                        transient: false,
                    });
                }
                self.per_mille() < self.plan.write_fault_per_mille
            }
            // Allocation and freeing are metadata operations on the
            // simulated disk; their write cost is paid (and faultable)
            // at write-back time.
            IoKind::Alloc | IoKind::Free => false,
        };
        if !fail {
            return None;
        }
        let transient = self.per_mille() < self.plan.transient_per_mille;
        if transient {
            let tries = 1 + self.next_u64() % u64::from(self.plan.transient_tries.max(1));
            #[allow(clippy::cast_possible_truncation)]
            {
                self.pending_transient = Some((page, kind, tries as u32));
            }
        }
        Some(Fault {
            kind: FaultKind::Failed,
            transient,
        })
    }
}

impl Backend for FaultStore {
    fn permit(&mut self, kind: IoKind, page: PageId) -> Result<(), Fault> {
        // A dead store stays dead.
        if self.crashed() {
            self.injected += 1;
            return Err(Fault {
                kind: FaultKind::Crashed,
                transient: false,
            });
        }
        // A pending transient fault owns its access until it clears.
        if let Some((p, k, remaining)) = self.pending_transient {
            if p == page && k == kind {
                if remaining > 1 {
                    self.pending_transient = Some((p, k, remaining - 1));
                } else {
                    self.pending_transient = None;
                }
                self.injected += 1;
                return Err(Fault {
                    kind: FaultKind::Failed,
                    transient: true,
                });
            }
        }
        if let Some(fault) = self.draw_fault(kind, page) {
            self.injected += 1;
            return Err(fault);
        }
        match kind {
            IoKind::Read => {
                self.ios += 1;
                self.reads_served += 1;
            }
            IoKind::WriteBack => {
                self.ios += 1;
                self.writes_served += 1;
            }
            // Mutations are not I/Os in the cost model (`ios` stays
            // put) but they are write-class accesses, so the per-kind
            // write clock counts them — the durable adapter arbitrates
            // journal appends as mutations.
            IoKind::Mutate => {
                self.writes_served += 1;
            }
            IoKind::Alloc | IoKind::Free => {}
        }
        Ok(())
    }

    fn label(&self) -> &'static str {
        "fault"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> PageId {
        PageId::from_index(n)
    }

    #[test]
    fn mem_backend_always_permits() {
        let mut b = MemBackend;
        for kind in [
            IoKind::Read,
            IoKind::WriteBack,
            IoKind::Mutate,
            IoKind::Alloc,
            IoKind::Free,
        ] {
            assert!(b.permit(kind, pid(0)).is_ok());
        }
    }

    #[test]
    fn none_plan_never_faults() {
        let mut b = FaultStore::new(FaultPlan::none(7));
        for i in 0..10_000 {
            assert!(b.permit(IoKind::Read, pid(i % 13)).is_ok());
            assert!(b.permit(IoKind::Mutate, pid(i % 13)).is_ok());
        }
        assert_eq!(b.injected(), 0);
    }

    #[test]
    fn fault_sequences_are_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let mut b = FaultStore::new(FaultPlan::torn(seed));
            (0..2000u32)
                .map(|i| b.permit(IoKind::Mutate, pid(i % 7)).is_err())
                .collect()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds should diverge");
        assert!(run(11).iter().any(|&f| f), "plan should inject something");
    }

    #[test]
    fn transient_fault_clears_after_its_tries() {
        let mut b = FaultStore::new(FaultPlan::transient(3));
        let mut cleared = 0u32;
        for i in 0..5000u32 {
            let page = pid(i % 5);
            if let Err(f) = b.permit(IoKind::Read, page) {
                assert!(f.transient, "transient plan injected a hard fault");
                // Retry until it clears. Each pending fault lasts at most
                // 2 extra tries, but a fresh draw can chain a new one, so
                // allow a generous (still deterministic) bound.
                let mut attempts = 0;
                while b.permit(IoKind::Read, page).is_err() {
                    attempts += 1;
                    assert!(attempts <= 20, "transient fault failed to clear");
                }
                cleared += 1;
            }
        }
        assert!(cleared > 0, "no transient fault was ever injected");
    }

    #[test]
    fn crash_point_kills_the_store_permanently() {
        let mut b = FaultStore::new(FaultPlan::crash_after(1, 5));
        let mut served = 0;
        loop {
            match b.permit(IoKind::Read, pid(0)) {
                Ok(()) => served += 1,
                Err(f) => {
                    assert_eq!(f.kind, FaultKind::Crashed);
                    break;
                }
            }
        }
        assert_eq!(served, 5);
        // Dead forever, for every access kind.
        for kind in [IoKind::Read, IoKind::WriteBack, IoKind::Mutate] {
            let f = b.permit(kind, pid(1)).unwrap_err();
            assert_eq!(f.kind, FaultKind::Crashed);
            assert!(!f.transient);
        }
    }

    #[test]
    fn alloc_and_free_are_never_faulted() {
        let mut b = FaultStore::new(FaultPlan::torn(99));
        for i in 0..5000u32 {
            assert!(b.permit(IoKind::Alloc, pid(i)).is_ok());
            assert!(b.permit(IoKind::Free, pid(i)).is_ok());
        }
    }

    #[test]
    fn delay_backend_charges_ios_and_delegates() {
        use std::time::{Duration, Instant};
        let mut b = DelayBackend::new(MemBackend, Duration::from_millis(2));
        assert_eq!(b.latency(), Duration::from_millis(2));
        assert_eq!(b.label(), "delay");
        let start = Instant::now();
        assert!(b.permit(IoKind::Read, pid(0)).is_ok());
        assert!(b.permit(IoKind::WriteBack, pid(0)).is_ok());
        assert!(
            start.elapsed() >= Duration::from_millis(4),
            "both I/Os charged"
        );
        let start = Instant::now();
        assert!(b.permit(IoKind::Mutate, pid(0)).is_ok());
        assert!(b.permit(IoKind::Alloc, pid(1)).is_ok());
        assert!(b.permit(IoKind::Free, pid(1)).is_ok());
        assert!(
            start.elapsed() < Duration::from_millis(2),
            "non-I/O kinds are free"
        );
    }

    #[test]
    fn delay_backend_records_waits_into_histogram() {
        use std::sync::Arc;
        use std::time::Duration;
        let h = Arc::new(mobidx_obs::Histogram::new());
        let mut b =
            DelayBackend::with_histogram(MemBackend, Duration::from_millis(1), Arc::clone(&h));
        assert!(b.permit(IoKind::Read, pid(0)).is_ok());
        assert!(b.permit(IoKind::WriteBack, pid(0)).is_ok());
        assert!(b.permit(IoKind::Mutate, pid(0)).is_ok());
        assert_eq!(h.count(), 2, "only charged I/Os are recorded");
        assert!(h.min() >= 1_000, "waits recorded in microseconds");
    }

    #[test]
    fn crash_after_writes_ignores_read_traffic() {
        // The per-kind point: reads must not advance the write clock,
        // so "crash during the Nth write" is deterministic no matter
        // how many reads interleave.
        let mut b = FaultStore::new(FaultPlan::crash_after_writes(5, 2));
        for i in 0..100u32 {
            assert!(b.permit(IoKind::Read, pid(i)).is_ok());
        }
        assert!(b.permit(IoKind::WriteBack, pid(0)).is_ok());
        assert!(b.permit(IoKind::Read, pid(1)).is_ok());
        assert!(b.permit(IoKind::WriteBack, pid(2)).is_ok());
        assert_eq!(b.writes_served(), 2);
        assert!(!b.crashed() || b.plan().crash_after_writes == Some(2));
        let f = b.permit(IoKind::WriteBack, pid(3)).unwrap_err();
        assert_eq!(f.kind, FaultKind::Crashed);
        // Dead for every kind, including reads.
        assert_eq!(
            b.permit(IoKind::Read, pid(4)).unwrap_err().kind,
            FaultKind::Crashed
        );
        assert!(b.crashed());
    }

    #[test]
    fn crash_after_reads_ignores_write_traffic() {
        let mut b = FaultStore::new(FaultPlan::crash_after_reads(5, 3));
        for i in 0..50u32 {
            assert!(b.permit(IoKind::WriteBack, pid(i)).is_ok());
        }
        for i in 0..3u32 {
            assert!(b.permit(IoKind::Read, pid(i)).is_ok());
        }
        assert_eq!(b.reads_served(), 3);
        let f = b.permit(IoKind::Read, pid(9)).unwrap_err();
        assert_eq!(f.kind, FaultKind::Crashed);
    }

    #[test]
    fn per_kind_and_combined_crash_points_compose() {
        // Whichever clock hits first kills the store.
        let plan = FaultPlan {
            crash_after_ios: Some(10),
            crash_after_writes: Some(1),
            ..FaultPlan::none(1)
        };
        let mut b = FaultStore::new(plan);
        assert!(b.permit(IoKind::Read, pid(0)).is_ok());
        assert!(b.permit(IoKind::WriteBack, pid(0)).is_ok());
        assert_eq!(
            b.permit(IoKind::Read, pid(0)).unwrap_err().kind,
            FaultKind::Crashed,
            "write clock reached its limit first"
        );
    }

    #[test]
    fn default_backend_journal_hooks_are_noop_acks() {
        let mut b = MemBackend;
        assert!(!b.is_durable());
        assert_eq!(
            b.journal_page(pid(0), &[1, 2, 3]).unwrap(),
            JournalAck::default()
        );
        assert_eq!(b.journal_delta(pid(0), &[]).unwrap(), JournalAck::default());
        assert_eq!(b.journal_free(pid(0)).unwrap(), JournalAck::default());
        assert_eq!(b.journal_commit(&[]).unwrap(), JournalAck::default());
        assert_eq!(b.checkpoint(&[], &[]).unwrap(), JournalAck::default());
        let merged = JournalAck {
            bytes: 3,
            fsyncs: 1,
            records: 2,
        }
        .merge(JournalAck {
            bytes: 4,
            fsyncs: 0,
            records: 1,
        });
        assert_eq!(
            merged,
            JournalAck {
                bytes: 7,
                fsyncs: 1,
                records: 3
            }
        );
    }

    #[test]
    fn delay_backend_zero_latency_is_transparent() {
        let mut b = DelayBackend::new(
            FaultStore::new(FaultPlan::crash_after(1, 0)),
            std::time::Duration::ZERO,
        );
        let f = b.permit(IoKind::Read, pid(0)).unwrap_err();
        assert_eq!(f.kind, FaultKind::Crashed, "inner backend still decides");
        assert_eq!(b.inner().injected(), 1);
    }
}
