//! Shard functions: how the object population is partitioned across the
//! worker pool.
//!
//! A [`ShardFn`] maps a motion record to a shard deterministically *from
//! the record alone*, so the facade can route an update's delete-half to
//! the shard holding the old record and its insert-half to the shard the
//! new record belongs on — which may differ (an object that changes
//! speed migrates between speed-band shards).

use mobidx_core::SpeedBand;
use mobidx_workload::Motion1D;

/// A deterministic partition of motion records over `shards` workers.
pub trait ShardFn: Send + Sync {
    /// Display name used in traces and benchmark reports.
    fn name(&self) -> String;

    /// The shard owning `m`, in `0..shards`.
    fn shard_of(&self, m: &Motion1D, shards: usize) -> usize;
}

/// Hash partitioning on the object id (SplitMix64 finalizer): uniform
/// load. The baseline shard function.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHashShard;

impl ShardFn for IdHashShard {
    fn name(&self) -> String {
        "id-hash".to_owned()
    }

    fn shard_of(&self, m: &Motion1D, shards: usize) -> usize {
        let mut z = m.id.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % shards as u64) as usize
    }
}

/// Speed-band partitioning: shard `i` holds the objects whose absolute
/// speed falls in the `i`-th of `shards` geometrically spaced sub-bands
/// of the global band (Xu et al.'s velocity partitioning; [[PAPERS.md]]).
///
/// Geometric (log-spaced) edges equalize the per-band ratio
/// `v_max/v_min`, which governs the dual-B+ method's query enlargement
/// `E ∝ ((v_max − v_min)/(v_min·v_max))²` — each shard's index is
/// configured with its *narrow* sub-band, so per-shard candidate scans
/// shrink superlinearly with the shard count. That, not thread
/// parallelism, is where the serving tier's query speed-up comes from.
#[derive(Debug, Clone, Copy)]
pub struct SpeedBandShard {
    band: SpeedBand,
}

impl SpeedBandShard {
    /// Partitions `band` geometrically.
    #[must_use]
    pub fn new(band: SpeedBand) -> Self {
        Self { band }
    }

    /// The sub-band assigned to shard `i` of `shards`: edges at
    /// `v_min · r^(i/S)` with `r = v_max/v_min`.
    #[must_use]
    pub fn sub_band(&self, i: usize, shards: usize) -> SpeedBand {
        #[allow(clippy::cast_precision_loss)]
        let frac = |k: usize| k as f64 / shards as f64;
        let r = self.band.v_max / self.band.v_min;
        SpeedBand::new(
            self.band.v_min * r.powf(frac(i)),
            self.band.v_min * r.powf(frac(i + 1)),
        )
    }

    /// The band to *configure shard `i`'s index with*: the sub-band
    /// padded by a relative epsilon on both edges. Shard assignment is
    /// computed in floating point, so a speed sitting exactly on an edge
    /// may land one ulp outside the exact sub-band; an index configured
    /// with the padded band still covers it (a dual-B+ instance misses
    /// objects whose speed falls outside its configured band). The
    /// padding's effect on query enlargement is negligible.
    #[must_use]
    pub fn index_band(&self, i: usize, shards: usize) -> SpeedBand {
        let b = self.sub_band(i, shards);
        SpeedBand::new(b.v_min * (1.0 - 1e-6), b.v_max * (1.0 + 1e-6))
    }
}

impl ShardFn for SpeedBandShard {
    fn name(&self) -> String {
        "speed-band".to_owned()
    }

    /// The shard whose sub-band contains `m`'s absolute speed (clamped
    /// to the global band).
    fn shard_of(&self, m: &Motion1D, shards: usize) -> usize {
        let r = self.band.v_max / self.band.v_min;
        let s = m.v.abs().clamp(self.band.v_min, self.band.v_max);
        #[allow(clippy::cast_precision_loss)]
        let raw = (shards as f64 * (s / self.band.v_min).ln() / r.ln()).floor();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let i = raw.max(0.0) as usize;
        i.min(shards - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(id: u64, v: f64) -> Motion1D {
        Motion1D {
            id,
            t0: 0.0,
            y0: 0.0,
            v,
        }
    }

    #[test]
    fn id_hash_is_deterministic_and_in_range() {
        let f = IdHashShard;
        for id in 0..1000 {
            let s = f.shard_of(&m(id, 1.0), 7);
            assert!(s < 7);
            assert_eq!(s, f.shard_of(&m(id, -0.5), 7), "id decides, not speed");
        }
    }

    #[test]
    fn id_hash_spreads_load() {
        let f = IdHashShard;
        let mut counts = [0usize; 4];
        for id in 0..4000 {
            counts[f.shard_of(&m(id, 1.0), 4)] += 1;
        }
        for c in counts {
            assert!((800..=1200).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn speed_bands_tile_the_global_band() {
        let f = SpeedBandShard::new(SpeedBand::paper());
        for shards in [1usize, 2, 4, 8] {
            let mut prev = SpeedBand::paper().v_min;
            for i in 0..shards {
                let b = f.sub_band(i, shards);
                assert!((b.v_min - prev).abs() < 1e-9, "gap at shard {i}");
                prev = b.v_max;
            }
            assert!((prev - SpeedBand::paper().v_max).abs() < 1e-9);
        }
    }

    #[test]
    fn shard_of_matches_sub_band() {
        let f = SpeedBandShard::new(SpeedBand::paper());
        let shards = 5;
        for k in 0..200 {
            let v = 0.16 + (1.66 - 0.16) * f64::from(k) / 200.0;
            let s = f.shard_of(&m(1, v), shards);
            let b = f.sub_band(s, shards);
            assert!(
                b.v_min - 1e-9 <= v && v <= b.v_max + 1e-9,
                "v={v} landed in shard {s} = {b:?}"
            );
            assert_eq!(s, f.shard_of(&m(1, -v), shards), "speed is |v|");
        }
    }
}
