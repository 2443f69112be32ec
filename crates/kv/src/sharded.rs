//! The lock-striped front-end: an array of independently locked shards.
//!
//! Shard selection uses the *top* `log2(shards)` bits of a splitmix64
//! hash of the key, while the set index inside a shard uses the key's
//! *low* bits directly (see [`CacheConfig::set_of`]). The two reads
//! consume disjoint bit ranges of independent values, so striping never
//! folds whole sets onto one shard the way low-bit shard selection
//! would.
//!
//! [`CacheConfig::set_of`]: tla_cache::CacheConfig::set_of

use crate::shard::{Shard, ShardStats};
use crate::{KvConfig, KvError};
use std::sync::Mutex;

/// Pads each shard's mutex onto its own cache line so neighbouring
/// shards' lock words never false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

/// A concurrent sharded cache: `2^k` lock stripes over [`Shard`]s.
///
/// All operations take `&self`; each locks exactly one shard for the
/// duration of one single-threaded shard operation. See the crate docs
/// for the full architecture and the [`crate::KvConfig`] knobs.
pub struct ShardedKv {
    shards: Vec<CachePadded<Mutex<Shard>>>,
    /// `64 - log2(shards)`: shifting a hash right by this keeps the top
    /// bits that index the shard array.
    shard_shift: u32,
    config: KvConfig,
}

impl ShardedKv {
    /// Builds the shard array described by `config`.
    pub fn new(config: KvConfig) -> Result<ShardedKv, KvError> {
        if config.shards == 0 || !config.shards.is_power_of_two() {
            return Err(KvError::BadShards(config.shards));
        }
        let sets = config.sets_per_shard();
        let shards = (0..config.shards)
            .map(|i| {
                Shard::new(
                    config.policy,
                    sets,
                    config.ways,
                    config.seed ^ i as u64,
                    config.window,
                )
                .map(|s| CachePadded(Mutex::new(s)))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedKv {
            shards,
            shard_shift: 64 - config.shards.trailing_zeros(),
            config,
        })
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &KvConfig {
        &self.config
    }

    /// Total line capacity actually allocated (capacity rounded to the
    /// power-of-two set geometry).
    pub fn capacity(&self) -> usize {
        self.config.shards * self.config.sets_per_shard() * self.config.ways
    }

    /// The shard index for `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        if self.config.shards == 1 {
            return 0;
        }
        (splitmix64(key) >> self.shard_shift) as usize
    }

    /// Looks `key` up.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.shard(key).get(key)
    }

    /// Inserts or updates `key`.
    pub fn put(&self, key: u64, value: u64) {
        self.shard(key).put(key, value)
    }

    /// Admits `key` only if absent; returns whether it was admitted.
    pub fn admit(&self, key: u64, value: u64) -> bool {
        self.shard(key).admit(key, value)
    }

    /// Drops `key`; returns whether a resident entry was dropped.
    pub fn remove(&self, key: u64) -> bool {
        self.shard(key).remove(key)
    }

    /// Resident entries across all shards.
    pub fn occupancy(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.0.lock().expect("shard lock poisoned").occupancy())
            .sum()
    }

    /// Each shard's windowed hit-rate series (final partial windows
    /// flushed), in shard order; `None` unless the config asked for one
    /// via [`crate::KvConfig::with_window`]. Windows are clocked by each
    /// shard's own op count, so the series is well-defined even though
    /// threads interleave: every op lands in exactly one shard window.
    pub fn per_shard_series(&self) -> Option<Vec<Vec<tla_telemetry::Window>>> {
        self.config.window?;
        Some(
            self.shards
                .iter()
                .map(|s| {
                    s.0.lock()
                        .expect("shard lock poisoned")
                        .series_windows()
                        .expect("window is configured, every shard has a series")
                })
                .collect(),
        )
    }

    /// Each shard's counters, in shard order.
    pub fn per_shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| s.0.lock().expect("shard lock poisoned").stats())
            .collect()
    }

    /// Global counters: the exact sum of [`ShardedKv::per_shard_stats`].
    pub fn stats(&self) -> ShardStats {
        let mut total = ShardStats::default();
        for s in self.per_shard_stats() {
            total.merge(&s);
        }
        total
    }

    fn shard(&self, key: u64) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[self.shard_of(key)]
            .0
            .lock()
            .expect("shard lock poisoned")
    }
}

/// Fast 64-bit mixer (splitmix64 finalizer): every input bit avalanches
/// into the top bits the shard index is cut from.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvPolicy;

    #[test]
    fn rejects_non_power_of_two_shards() {
        for shards in [0, 3, 6, 12] {
            let cfg = KvConfig::new(4096, KvPolicy::Lru).with_shards(shards);
            let err = ShardedKv::new(cfg).err();
            assert_eq!(err, Some(KvError::BadShards(shards)));
        }
    }

    #[test]
    fn rejects_sets_wider_than_the_way_limit() {
        // 64 ways is the widest set; 128 is a geometry error under every
        // policy (S3-FIFO's 112 main ways included), not a panic.
        for policy in KvPolicy::ALL {
            let cfg = KvConfig::new(8192, policy).with_ways(128);
            match ShardedKv::new(cfg).err() {
                Some(KvError::BadGeometry(msg)) => assert!(msg.contains("64-way"), "{msg}"),
                other => panic!("{policy}: {other:?}"),
            }
            assert!(ShardedKv::new(KvConfig::new(8192, policy).with_ways(64)).is_ok());
        }
    }

    #[test]
    fn shard_selection_is_balanced_and_stable() {
        let kv = ShardedKv::new(KvConfig::new(4096, KvPolicy::Clock)).unwrap();
        let mut counts = vec![0u64; kv.config().shards];
        for key in 0..80_000u64 {
            let s = kv.shard_of(key);
            assert_eq!(s, kv.shard_of(key), "shard choice must be stable");
            counts[s] += 1;
        }
        let expect = 80_000 / counts.len() as u64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > expect / 2 && c < expect * 2,
                "shard {i} got {c} of ~{expect} keys"
            );
        }
    }

    #[test]
    fn single_shard_behaves_like_a_plain_cache() {
        let kv = ShardedKv::new(KvConfig::new(64, KvPolicy::Lru).with_shards(1)).unwrap();
        assert_eq!(kv.capacity(), 64);
        for k in 0..64u64 {
            kv.put(k, k * 2);
        }
        for k in 0..64u64 {
            assert_eq!(kv.get(k), Some(k * 2), "key {k} must fit in capacity");
        }
        assert_eq!(kv.occupancy(), 64);
        let t = kv.stats();
        assert_eq!(t.inserts, 64);
        assert_eq!(t.evictions, 0);
    }

    #[test]
    fn capacity_is_honored_across_shards() {
        for policy in KvPolicy::ALL {
            let kv = ShardedKv::new(KvConfig::new(4096, policy)).unwrap();
            assert_eq!(kv.capacity(), 4096);
            for k in 0..20_000u64 {
                kv.admit(k, k);
            }
            assert!(kv.occupancy() <= 4096, "{policy}");
            let t = kv.stats();
            assert_eq!(
                kv.occupancy() as u64,
                t.inserts - t.evictions - t.removes,
                "{policy}"
            );
        }
    }
}
