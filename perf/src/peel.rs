//! Peeling the write path. The program has no spans inside `apply`, so
//! the harness replays the identical per-shard op lists against
//! standalone `DualBPlusIndex` objects — one per shard, built by the same
//! calls in the same order as the workers make them — and spans those
//! public calls: `core.batch_update`, `core.commit_group`, `core.freeze`,
//! and the release of the previously published view. What
//! `ShardedDb::apply` costs beyond the slowest shard's peeled time is the
//! serving tier's own overhead.

use crate::inputs::SetupInputs;
use crate::measure::nanos;
use crate::scratch::TempDir;
use crate::spec::{Kind, Spec, SHARDS};
use crate::stack::{arm_file_backends, index_config};
use crate::trace::Tracer;
use mobidx_core::method::dual_bplus::DualBPlusIndex;
use mobidx_core::{sort_by_dual_locality, FrozenIndex1D, Index1D};
use mobidx_obs::OpenSpan;
use mobidx_serve::{IdHashShard, ShardFn};
use mobidx_workload::Motion1D;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// What one peeled client batch cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeelTimes {
    /// `batch_update` + `commit_group` + `freeze` of the slowest shard.
    pub slowest_ns: u64,
    /// `batch_update`, summed over shards.
    pub batch_update_ns: u64,
    /// `commit_group`, summed over shards.
    pub commit_ns: u64,
    /// `freeze`, summed over shards.
    pub freeze_ns: u64,
    /// Shards that had work.
    pub shards: u64,
    /// Net object updates (an object updated twice in a batch is one).
    pub net_updates: u64,
}

/// One standalone index per shard, kept in step with the stack.
pub struct Replica {
    shards: Vec<DualBPlusIndex>,
    /// The last published view of each shard. The serving tier keeps the
    /// previous snapshot alive while the next batch is applied, so pages
    /// it shares are copied on write; the replica must pay the same.
    views: Vec<Option<Box<dyn FrozenIndex1D>>>,
    table: Vec<Motion1D>,
    durable: bool,
    _dir: Option<TempDir>,
}

impl Replica {
    /// Builds the replica of `spec`'s stack and replays its set-up.
    ///
    /// # Errors
    /// When the scratch directory cannot be created.
    pub fn build(spec: &Spec, setup: &SetupInputs, tmp_root: &Path) -> Result<Self, String> {
        let durable = spec.kind == Kind::Durable;
        let dir = if durable {
            Some(TempDir::create(tmp_root)?)
        } else {
            None
        };
        let shards = (0..SHARDS)
            .map(|shard| {
                let mut index = DualBPlusIndex::new(index_config(spec));
                if let Some(dir) = &dir {
                    arm_file_backends(&mut index, &dir.path().join(format!("shard{shard}")));
                }
                index
            })
            .collect();
        let mut replica = Self {
            shards,
            views: (0..SHARDS).map(|_| None).collect(),
            table: Vec::new(),
            durable,
            _dir: dir,
        };
        // The bulk load is one batch of inserts; every ageing instant is
        // one batch of updates.
        let mut inserts: Vec<Vec<Motion1D>> = vec![Vec::new(); SHARDS];
        for m in &setup.initial {
            inserts[IdHashShard.shard_of(m, SHARDS)].push(*m);
        }
        replica.table.clone_from(&setup.initial);
        replica.dispatch(vec![Vec::new(); SHARDS], inserts, None);
        for instant in &setup.ageing {
            replica.apply(instant, None);
        }
        Ok(replica)
    }

    /// Applies one client batch the way the workers do: folded to its net
    /// effect per object, split by shard, sorted by dual locality, one
    /// `batch_update` per shard, then the commit window, then the freeze.
    pub fn apply(&mut self, updates: &[Motion1D], tracer: Option<&mut Tracer>) -> PeelTimes {
        let mut net: BTreeMap<u64, (Motion1D, Motion1D)> = BTreeMap::new();
        for m in updates {
            let old = self.table[usize::try_from(m.id).expect("object id fits usize")];
            net.entry(m.id).or_insert((old, *m)).1 = *m;
        }
        let mut removes: Vec<Vec<Motion1D>> = vec![Vec::new(); SHARDS];
        let mut inserts: Vec<Vec<Motion1D>> = vec![Vec::new(); SHARDS];
        for (id, (old, new)) in &net {
            removes[IdHashShard.shard_of(old, SHARDS)].push(*old);
            inserts[IdHashShard.shard_of(new, SHARDS)].push(*new);
            self.table[usize::try_from(*id).expect("object id fits usize")] = *new;
        }
        let mut times = self.dispatch(removes, inserts, tracer);
        times.net_updates = net.len() as u64;
        times
    }

    fn dispatch(
        &mut self,
        mut removes: Vec<Vec<Motion1D>>,
        mut inserts: Vec<Vec<Motion1D>>,
        mut tracer: Option<&mut Tracer>,
    ) -> PeelTimes {
        let mut times = PeelTimes::default();
        for shard in 0..SHARDS {
            if removes[shard].is_empty() && inserts[shard].is_empty() {
                continue;
            }
            sort_by_dual_locality(&mut removes[shard]);
            sort_by_dual_locality(&mut inserts[shard]);
            let index = &mut self.shards[shard];
            let epoch = tracer.as_ref().map(|t| t.epoch());
            let mut root = tracer.as_deref_mut().map(|t| {
                t.begin_on_lane("peel.apply", 10 + shard as u64, &format!("peel-s{shard}"))
            });

            let mut timed = |name: &str, f: &mut dyn FnMut()| {
                let child = epoch.map(|e| OpenSpan::begin(name, e));
                let started = Instant::now();
                f();
                let dt = nanos(started.elapsed());
                if let (Some(root), Some(child)) = (root.as_mut(), child) {
                    root.push(child.finish());
                }
                dt
            };
            let update_ns = timed("core.batch_update", &mut || {
                let removed = index.batch_update(&removes[shard], &inserts[shard]);
                assert_eq!(removed, removes[shard].len(), "replica lost a record");
            });
            let commit_ns = if self.durable {
                timed("core.commit_group", &mut || {
                    index.commit_group().expect("replica commit window");
                })
            } else {
                0
            };
            let mut view = None;
            let freeze_ns = timed("core.freeze", &mut || view = index.freeze());
            // Publishing the new view releases the previous one. In the
            // stack that happens on the client thread inside `apply`, so
            // it counts towards the serving tier, not the shard.
            let views = &mut self.views;
            timed("serve.release_view", &mut || views[shard] = view.take());

            if let (Some(t), Some(mut root)) = (tracer.as_deref_mut(), root) {
                root.set_attr("shard", shard);
                root.set_attr("removes", removes[shard].len());
                root.set_attr("inserts", inserts[shard].len());
                t.end_call(root, None);
            }
            times.batch_update_ns += update_ns;
            times.commit_ns += commit_ns;
            times.freeze_ns += freeze_ns;
            times.shards += 1;
            times.slowest_ns = times.slowest_ns.max(update_ns + commit_ns + freeze_ns);
        }
        times
    }

    /// The replica's motion table, in id order.
    #[must_use]
    pub fn table(&self) -> &[Motion1D] {
        &self.table
    }

    /// The current frozen view of every shard that has one.
    #[must_use]
    pub fn views(&self) -> Vec<&dyn FrozenIndex1D> {
        self.views.iter().filter_map(|v| v.as_deref()).collect()
    }
}
