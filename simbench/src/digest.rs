//! Output digests: one 64-bit FNV-1a hash per job over every simulated
//! result field, and the pinned reference digests.
//!
//! The stats structs are destructured without `..`, so adding a field to
//! any of them fails to compile here until the digest covers it.

use tla_core::{GlobalStats, PerCoreStats};
use tla_sim::{OracleResult, RunResult, ThreadResult};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

fn per_core(h: &mut Fnv, s: &PerCoreStats) {
    let PerCoreStats {
        l1i_accesses,
        l1i_misses,
        l1d_accesses,
        l1d_misses,
        l2_accesses,
        l2_misses,
        llc_accesses,
        llc_misses,
        memory_accesses,
        inclusion_victims_l1,
        inclusion_victims_l2,
        tlh_hints,
        misses_cold,
        misses_capacity,
        misses_inclusion_victim,
    } = *s;
    for w in [
        l1i_accesses,
        l1i_misses,
        l1d_accesses,
        l1d_misses,
        l2_accesses,
        l2_misses,
        llc_accesses,
        llc_misses,
        memory_accesses,
        inclusion_victims_l1,
        inclusion_victims_l2,
        tlh_hints,
        misses_cold,
        misses_capacity,
        misses_inclusion_victim,
    ] {
        h.word(w);
    }
}

fn global(h: &mut Fnv, g: &GlobalStats) {
    let GlobalStats {
        llc_evictions,
        llc_writebacks,
        back_invalidates,
        eci_invalidates,
        eci_rescues,
        qbs_queries,
        qbs_rejections,
        qbs_limit_hits,
        tlh_hints,
        prefetches,
        victim_cache_rescues,
        snoop_probes,
        victim_misses_replacement,
        victim_misses_qbs_limit,
        victim_misses_eci,
        victim_misses_vc,
    } = *g;
    for w in [
        llc_evictions,
        llc_writebacks,
        back_invalidates,
        eci_invalidates,
        eci_rescues,
        qbs_queries,
        qbs_rejections,
        qbs_limit_hits,
        tlh_hints,
        prefetches,
        victim_cache_rescues,
        snoop_probes,
        victim_misses_replacement,
        victim_misses_qbs_limit,
        victim_misses_eci,
        victim_misses_vc,
    ] {
        h.word(w);
    }
}

/// Digest of one thread's frozen result.
pub fn thread(h: &mut Fnv, t: &ThreadResult) {
    let ThreadResult {
        app,
        instructions,
        cycles,
        stats,
    } = t;
    h.bytes(app.short_name().as_bytes());
    h.word(*instructions);
    h.word(*cycles);
    per_core(h, stats);
}

/// Digest of a whole run: every thread result, then the global counters.
pub fn run(r: &RunResult) -> u64 {
    let mut h = Fnv::default();
    for t in &r.threads {
        thread(&mut h, t);
    }
    global(&mut h, &r.global);
    h.finish()
}

/// Digest of a MIN-oracle result.
pub fn oracle(o: &OracleResult) -> u64 {
    let OracleResult {
        accesses,
        hits,
        misses,
    } = *o;
    let mut h = Fnv::default();
    for w in [accesses, hits, misses] {
        h.word(w);
    }
    h.finish()
}

/// The digest table committed in `digests.txt`.
pub const PINNED: &str = include_str!("../digests.txt");

/// The pinned digests of `workload` at `seed`, in job order, or `None`
/// when that seed is not pinned.
///
/// # Panics
///
/// Panics on a malformed table line: the table is part of the benchmark's
/// source, so a bad line is a bug here, not bad input.
pub fn pinned(table: &str, workload: &str, seed: u64) -> Option<Vec<u64>> {
    let mut found: Option<Vec<u64>> = None;
    for line in table.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [w, s, idx, _label, digest] = fields[..] else {
            panic!("malformed digest line {line:?}");
        };
        let s: u64 = s.parse().expect("digest line seed");
        if w != workload || s != seed {
            continue;
        }
        let idx: usize = idx.parse().expect("digest line index");
        let digest = u64::from_str_radix(digest, 16).expect("digest line hex digest");
        let list = found.get_or_insert_with(Vec::new);
        assert_eq!(idx, list.len(), "digest lines out of order: {line:?}");
        list.push(digest);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn every_stats_field_moves_the_digest() {
        let base = GlobalStats::default();
        let mut h0 = Fnv::default();
        global(&mut h0, &base);
        let changed = GlobalStats {
            victim_misses_vc: 1,
            ..base
        };
        let mut h1 = Fnv::default();
        global(&mut h1, &changed);
        assert_ne!(h0.finish(), h1.finish());

        let mut p0 = Fnv::default();
        per_core(&mut p0, &PerCoreStats::default());
        let mut p1 = Fnv::default();
        per_core(
            &mut p1,
            &PerCoreStats {
                misses_inclusion_victim: 1,
                ..PerCoreStats::default()
            },
        );
        assert_ne!(p0.finish(), p1.finish());
    }

    #[test]
    fn pinned_table_parses_in_order() {
        let table = "# comment\nw 7 0 a 00ff\nw 7 1 b 0a\nx 7 0 c 01\nw 8 0 d 02\n";
        assert_eq!(pinned(table, "w", 7), Some(vec![0xff, 0x0a]));
        assert_eq!(pinned(table, "w", 8), Some(vec![0x02]));
        assert_eq!(pinned(table, "w", 9), None);
    }
}
