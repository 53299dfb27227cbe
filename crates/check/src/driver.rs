//! The one loop every target runs on.
//!
//! [`drive`] owns what a model-checking run repeats whatever the index:
//! the seeded stream, the op counter, the [`Report`], turning a target's
//! `Err(detail)` into a [`Divergence`] at the current op, the recover
//! step that answers a flagged fault, the periodic invariant hook and
//! the final absorb. A [`ModelTarget`] supplies only what is its own.

use crate::{mix, CheckConfig, Divergence, Report, SplitMix};
use mobidx_pager::{IoStats, MemBackend, PagerError, Store};
use std::fmt::Display;

/// What the driver owns of a run and lends a target for one op or one
/// recovery.
pub(crate) struct Run {
    pub cfg: CheckConfig,
    pub rng: SplitMix,
    pub report: Report,
    /// Recoveries so far. Salts the fault plan a `recover` arms; only
    /// the driver advances it.
    pub round: u64,
}

/// The fault counters of one or more page stores, by value (a shard's
/// cross the worker boundary).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Tally {
    pub injected: u64,
    pub retries: u64,
    pub recovered: u64,
}

impl Tally {
    pub fn add(&mut self, stats: &IoStats) {
        self.injected += stats.faults_injected();
        self.retries += stats.retries();
        self.recovered += stats.faults_recovered();
    }

    pub fn of(stats: &IoStats) -> Self {
        let mut tally = Self::default();
        tally.add(stats);
        tally
    }
}

/// One index, its oracle, and the op grammar that drives both.
///
/// Every `Err(detail)` is a divergence; the driver stamps it with the
/// op it happened at and the reproducing command line.
pub(crate) trait ModelTarget: Sized {
    /// The CLI name (`--index`).
    const NAME: &'static str;
    /// Salts the op stream: `mix(seed, SALT)`.
    const SALT: u64;

    /// An empty index armed for round 0, and its empty oracle.
    fn build(run: &mut Run) -> Result<Self, String>;

    /// Draws one op from `run.rng` (the order of the draws is pinned
    /// behaviour), applies it to index and oracle, compares any answer.
    /// Returns how many faults it flagged for [`ModelTarget::recover`].
    fn step(&mut self, run: &mut Run) -> Result<usize, String>;

    /// The counters of what is discarded next: the store(s) the coming
    /// `recover` replaces or, at the end of the run, all that are live.
    fn spent(&self) -> Tally;

    /// Rebuilds (or reopens) the index from the oracle and re-arms it
    /// for `run.round`. The arm salts live here because they are the
    /// target's pinned behaviour, not the driver's.
    fn recover(&mut self, run: &mut Run) -> Result<(), String>;

    /// A structural invariant worth walking every 64 ops and at the end.
    fn invariant(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Runs `T` under `cfg`.
pub(crate) fn drive<T: ModelTarget>(cfg: &CheckConfig) -> Result<Report, Divergence> {
    let mut run = Run {
        cfg: *cfg,
        rng: SplitMix::new(mix(cfg.seed, T::SALT)),
        report: Report::new(T::NAME, cfg),
        round: 0,
    };
    let diverge = |at_op: usize, detail: String| Divergence {
        index: T::NAME,
        mode: cfg.faults,
        seed: cfg.seed,
        ops: cfg.ops,
        at_op,
        detail,
    };
    let mut target = T::build(&mut run).map_err(|d| diverge(0, d))?;
    for op in 0..cfg.ops {
        let flagged = target.step(&mut run).map_err(|d| diverge(op, d))?;
        for _ in 0..flagged {
            run.report.faults_surfaced += 1;
            run.report.absorb(target.spent());
            run.round += 1;
            target.recover(&mut run).map_err(|d| diverge(op, d))?;
            run.report.rebuilds += 1;
        }
        run.report.ops += 1;
        if op % 64 == 63 {
            target.invariant().map_err(|d| diverge(op, d))?;
        }
    }
    target.invariant().map_err(|d| diverge(cfg.ops, d))?;
    run.report.absorb(target.spent());
    Ok(run.report)
}

/// Arms `store` with the run's fault mode under sub-seed `mix(seed, salt)`.
pub(crate) fn arm(store: &mut dyn Store, cfg: &CheckConfig, salt: u64) {
    drop(store.set_backend(cfg.faults.backend(mix(cfg.seed, salt))));
}

/// Asks `tree`, whose one page store is `store(tree)`, a query. A
/// surfaced fault is counted and answered by the clean re-query: swap in
/// a fault-free backend, ask again, restore the faulty one.
pub(crate) fn ask_clean<T, A>(
    report: &mut Report,
    tree: &mut T,
    store: fn(&mut T) -> &mut dyn Store,
    mut ask: impl FnMut(&mut T) -> Result<A, PagerError>,
) -> A {
    report.queries += 1;
    ask(tree).unwrap_or_else(|_| {
        report.faults_surfaced += 1;
        let faulty = store(tree).set_backend(Box::new(MemBackend));
        let answer = ask(tree).expect("MemBackend never faults");
        drop(store(tree).set_backend(faulty));
        answer
    })
}

/// Holds a sorted answer to the oracle's.
pub(crate) fn agree<T: PartialEq>(what: impl Display, got: &[T], want: &[T]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    Err(format!(
        "{what}: index returned {} entries, oracle {}",
        got.len(),
        want.len()
    ))
}

#[cfg(test)]
mod tests {
    //! The checker can fail: a target with a planted bug must come back
    //! as a [`Divergence`] at the first op whose answer shows it. Also
    //! the worked example of a whole target — everything a ninth one
    //! needs is in `Planted`.

    use super::*;
    use crate::FaultMode;
    use std::collections::BTreeSet;

    /// A `BTreeSet` "index" of sequential keys. `DROP_EVERY > 0` silently
    /// drops every `DROP_EVERY`-th insert; `BAD_RECOVER` restores all but
    /// the oracle's greatest key after a crash. Rolls: below 5 the store
    /// crashes (the index is lost; `recover` rebuilds it from the
    /// oracle), below 60 insert the next key, the rest compare the whole
    /// set.
    struct Planted<const DROP_EVERY: u64, const BAD_RECOVER: bool> {
        index: BTreeSet<u64>,
        oracle: BTreeSet<u64>,
        inserts: u64,
    }

    impl<const DROP_EVERY: u64, const BAD_RECOVER: bool> ModelTarget
        for Planted<DROP_EVERY, BAD_RECOVER>
    {
        const NAME: &'static str = "planted";
        const SALT: u64 = 99;

        fn build(_: &mut Run) -> Result<Self, String> {
            Ok(Self {
                index: BTreeSet::new(),
                oracle: BTreeSet::new(),
                inserts: 0,
            })
        }

        fn step(&mut self, run: &mut Run) -> Result<usize, String> {
            let roll = run.rng.below(100);
            if roll < 5 {
                self.index.clear();
                return Ok(1);
            }
            if roll < 60 {
                self.inserts += 1;
                self.oracle.insert(self.inserts);
                if DROP_EVERY == 0 || self.inserts % DROP_EVERY != 0 {
                    self.index.insert(self.inserts);
                }
                return Ok(0);
            }
            run.report.queries += 1;
            let got: Vec<u64> = self.index.iter().copied().collect();
            let want: Vec<u64> = self.oracle.iter().copied().collect();
            agree("scan", &got, &want).map(|()| 0)
        }

        fn spent(&self) -> Tally {
            Tally::default()
        }

        fn recover(&mut self, _: &mut Run) -> Result<(), String> {
            self.index.clone_from(&self.oracle);
            if BAD_RECOVER {
                self.index.pop_last();
            }
            Ok(())
        }
    }

    const CFG: CheckConfig = CheckConfig {
        ops: 400,
        seed: 12345,
        faults: FaultMode::None,
    };

    /// Replays the op stream by its rolls alone: the first scan after
    /// `spoils(insert count)` said the index went wrong, where a crash
    /// heals (`crash_heals`) or spoils it.
    fn first_visible(spoils: impl Fn(u64) -> bool, crash_heals: bool) -> usize {
        let mut rng = SplitMix::new(mix(CFG.seed, 99));
        let (mut inserts, mut wrong) = (0u64, false);
        (0..CFG.ops)
            .find(|_| match rng.below(100) {
                0..=4 => {
                    wrong = !crash_heals && inserts > 0;
                    false
                }
                5..=59 => {
                    inserts += 1;
                    wrong |= spoils(inserts);
                    false
                }
                _ => wrong,
            })
            .expect("the planted bug shows within the run")
    }

    #[test]
    fn a_sound_target_passes() {
        let report = drive::<Planted<0, false>>(&CFG).unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(report.ops, CFG.ops);
        assert!(report.queries > 0 && report.rebuilds > 0);
        assert_eq!(report.faults_surfaced, report.rebuilds);
    }

    #[test]
    fn a_dropped_insert_diverges_at_the_first_scan_that_sees_it() {
        let d = drive::<Planted<7, false>>(&CFG).expect_err("every 7th insert is dropped");
        assert_eq!(d.at_op, first_visible(|n| n % 7 == 0, true));
        let shown = d.to_string();
        assert!(
            shown.contains("--index planted --faults none --seed 12345 --ops 400"),
            "not reproducible from: {shown}"
        );
    }

    #[test]
    fn a_wrong_recovery_diverges_at_the_first_scan_after_it() {
        let d = drive::<Planted<0, true>>(&CFG).expect_err("recover restores the wrong state");
        assert_eq!(d.at_op, first_visible(|_| false, false));
        assert!(d.detail.contains("oracle"), "{}", d.detail);
    }
}
