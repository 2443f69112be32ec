//! Offline Belady MIN oracle: per-configuration optimal LLC hit counts.
//!
//! The TLA policies close part of the gap between inclusive and
//! non-inclusive hierarchies; this module measures how much room is left
//! above *any* replacement policy. [`belady`] replays a finite reference
//! stream against an idealized set-associative cache with future
//! knowledge (Belady's MIN: on a miss, evict the resident line whose
//! next use lies farthest in the future) and reports the optimal hit and
//! miss counts. `gap_to_opt` in reports is then
//! `(measured_misses - opt_misses) / opt_misses`.
//!
//! The oracle is demand-fetch MIN, not OPT-with-bypass: every referenced
//! line is installed, exactly like the simulated LLC. It sees the
//! [`mix_reference_stream`] — the interleaved L1-access stream with
//! consecutive instruction fetches to the same line deduplicated — so
//! its bound is "one shared cache of LLC geometry with perfect
//! replacement serving every reference". The real hierarchy filters
//! most references through the core caches and interleaves cores by
//! cycle rather than round-robin, so the bound is an approximation:
//! tight enough to rank policies against, not a per-access replay.
//!
//! Like the PR 3 hot path, the forward pass is allocation-free: state
//! lives in flat `sets x ways` arrays and the per-access work is a short
//! way scan. The backward pass allocates one `next_use` index per
//! reference and a line-address map, both sized up front.

use crate::config::SimConfig;
use tla_cache::probe::{self, WayMask};
use tla_core::HierarchyConfig;
use tla_types::{LineAddr, LineMap};
use tla_workloads::{SpecApp, TraceSource};

/// Sentinel next-use index: the line is never referenced again.
const NEVER: u64 = u64::MAX;

/// Hit/miss counts of an optimal-replacement replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleResult {
    /// References replayed in the measured phase (after the warm prefix).
    pub accesses: u64,
    /// Measured-phase hits under MIN.
    pub hits: u64,
    /// Measured-phase misses under MIN.
    pub misses: u64,
}

impl OracleResult {
    /// Measured-phase hit rate in `[0, 1]` (0 when nothing was measured).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Replays `refs` under Belady's MIN on a `sets x ways` cache and counts
/// hits and misses, skipping the first `warm_len` references (the warm-up
/// prefix participates in cache state but not in the counts — the same
/// freeze semantics the simulator uses).
///
/// Two passes: a backward pass precomputes each reference's next-use
/// index, then an allocation-free forward pass keeps per-way tags and
/// next-use indices in flat arrays and evicts the way with the farthest
/// next use (first such way on a tie, which only never-again lines can
/// produce).
///
/// # Panics
///
/// Panics if `sets` is not a power of two (set indexing is a mask, as in
/// the simulated caches) or `ways` is zero.
pub fn belady(refs: &[LineAddr], warm_len: usize, sets: usize, ways: usize) -> OracleResult {
    assert!(sets.is_power_of_two(), "sets must be a power of two");
    assert!(ways > 0, "ways must be positive");
    let mask = sets as u64 - 1;

    // Backward pass: next_use[i] = index of the next reference to the
    // same line after i, or NEVER.
    let mut next_use = vec![NEVER; refs.len()];
    let mut last: LineMap<u64> = LineMap::with_capacity_and_hasher(1024, Default::default());
    for i in (0..refs.len()).rev() {
        next_use[i] = last.insert(refs[i].raw(), i as u64).unwrap_or(NEVER);
    }

    // Forward pass over flat per-way state.
    let mut valid = vec![false; sets * ways];
    let mut tags = vec![0u64; sets * ways];
    let mut nexts = vec![NEVER; sets * ways];
    let mut hits = 0u64;
    let mut misses = 0u64;
    for (i, r) in refs.iter().enumerate() {
        let a = r.raw();
        let base = ((a & mask) as usize) * ways;
        let set_valid = &mut valid[base..base + ways];
        let set_tags = &mut tags[base..base + ways];
        let set_nexts = &mut nexts[base..base + ways];
        let measured = i >= warm_len;
        let hit = (0..ways).find(|&w| set_valid[w] && set_tags[w] == a);
        match hit {
            Some(w) => {
                if measured {
                    hits += 1;
                }
                set_nexts[w] = next_use[i];
            }
            None => {
                if measured {
                    misses += 1;
                }
                let slot = match (0..ways).find(|&w| !set_valid[w]) {
                    Some(w) => w,
                    None => {
                        // Evict the line with the farthest next use
                        // (strict >, so ties keep the first way).
                        let mut far = 0;
                        for w in 1..ways {
                            if set_nexts[w] > set_nexts[far] {
                                far = w;
                            }
                        }
                        far
                    }
                };
                set_valid[slot] = true;
                set_tags[slot] = a;
                set_nexts[slot] = next_use[i];
            }
        }
    }
    OracleResult {
        accesses: refs.len().saturating_sub(warm_len) as u64,
        hits,
        misses,
    }
}

/// Set-sharded MIN replay: the same counts as [`belady`], computed from
/// per-set run queues processed back-to-back, optionally on `jobs` worker
/// threads.
///
/// LLC sets are fully independent under MIN: a reference only competes
/// with residents of its own set, and a line's next use is always in the
/// same set. The replay therefore partitions `refs` by set index into
/// per-set queues — keeping each reference's *global* stream position,
/// which the warm cut and the farthest-next-use comparisons are defined
/// over — then replays each queue in one cache-hot burst: the set's tag
/// array stays register/L1-resident across the whole queue, every probe
/// goes through the dispatched SIMD/scalar kernel
/// ([`probe::probe_first`]), and evictions reduce a complemented next-use
/// array with [`probe::min_index`] (first minimum of `!next` = first
/// maximum of `next`, matching [`belady`]'s strict-`>` first-way
/// tie-break). Per-set hit/miss counts merge additively in set order, so
/// the totals are bit-identical to [`belady`] for *every* `jobs` value —
/// only wall-clock changes. `jobs <= 1` runs inline on the caller.
///
/// # Panics
///
/// Panics like [`belady`].
pub fn belady_sharded(
    refs: &[LineAddr],
    warm_len: usize,
    sets: usize,
    ways: usize,
    jobs: usize,
) -> OracleResult {
    assert!(sets.is_power_of_two(), "sets must be a power of two");
    assert!(ways > 0, "ways must be positive");
    let mask = sets as u64 - 1;

    // Partition into per-set run queues of (global index, line address).
    let mut queues: Vec<Vec<(u64, u64)>> = vec![Vec::new(); sets];
    for (i, r) in refs.iter().enumerate() {
        let a = r.raw();
        queues[(a & mask) as usize].push((i as u64, a));
    }

    let warm = warm_len as u64;
    let per_set = tla_pool::scoped_map(jobs, queues, |queue| replay_set_queue(&queue, warm, ways));
    let (hits, misses) = per_set
        .iter()
        .fold((0, 0), |(h, m), &(sh, sm)| (h + sh, m + sm));
    OracleResult {
        accesses: refs.len().saturating_sub(warm_len) as u64,
        hits,
        misses,
    }
}

/// Replays one set's reference queue under MIN and returns its measured
/// `(hits, misses)`. `queue` holds (global stream index, line address)
/// pairs in stream order; a reference is measured when its global index
/// is at or past `warm_len`.
fn replay_set_queue(queue: &[(u64, u64)], warm_len: u64, ways: usize) -> (u64, u64) {
    // Backward pass, set-local: the next use of a line is necessarily in
    // the same set's queue, so the global next-use indices come out
    // identical to the whole-stream pass.
    let mut next_use = vec![NEVER; queue.len()];
    let mut last: LineMap<u64> =
        LineMap::with_capacity_and_hasher(queue.len().min(1024), Default::default());
    for k in (0..queue.len()).rev() {
        next_use[k] = last.insert(queue[k].1, queue[k].0).unwrap_or(NEVER);
    }

    // Forward replay over this set's dense tag array. `far_keys` holds the
    // complement of each resident way's next use, so the eviction scan is
    // a min-reduce; invalid ways are never consulted (fills claim them
    // first).
    let mut tags = vec![LineAddr::new(0); ways];
    let mut valid = WayMask::EMPTY;
    let mut far_keys = vec![0u64; ways];
    let mut hits = 0u64;
    let mut misses = 0u64;
    for (k, &(gi, a)) in queue.iter().enumerate() {
        let needle = LineAddr::new(a);
        let measured = gi >= warm_len;
        match probe::probe_first(&tags, needle, &valid) {
            Some(w) => {
                if measured {
                    hits += 1;
                }
                far_keys[w] = !next_use[k];
            }
            None => {
                if measured {
                    misses += 1;
                }
                let slot = match WayMask::all(ways).and_not(&valid).first() {
                    Some(w) => w,
                    None => probe::min_index(&far_keys).expect("ways is positive"),
                };
                valid.set(slot);
                tags[slot] = needle;
                far_keys[slot] = !next_use[k];
            }
        }
    }
    (hits, misses)
}

/// Reference implementation of [`belady`]: no precomputation, on every
/// eviction the next use of each resident line is found by a forward
/// scan of the remaining references — O(n^2) and only suitable for
/// tests, where it pins the two-pass oracle's counts.
///
/// # Panics
///
/// Panics like [`belady`].
pub fn belady_bruteforce(
    refs: &[LineAddr],
    warm_len: usize,
    sets: usize,
    ways: usize,
) -> OracleResult {
    assert!(sets.is_power_of_two(), "sets must be a power of two");
    assert!(ways > 0, "ways must be positive");
    let mask = sets as u64 - 1;
    let mut cache: Vec<Vec<u64>> = vec![Vec::with_capacity(ways); sets];
    let mut hits = 0u64;
    let mut misses = 0u64;
    for (i, r) in refs.iter().enumerate() {
        let a = r.raw();
        let set = (a & mask) as usize;
        let lines = &mut cache[set];
        let measured = i >= warm_len;
        if lines.contains(&a) {
            if measured {
                hits += 1;
            }
        } else {
            if measured {
                misses += 1;
            }
            if lines.len() < ways {
                lines.push(a);
            } else {
                let next_of = |t: u64| {
                    refs[i + 1..]
                        .iter()
                        .position(|r| r.raw() == t)
                        .map_or(NEVER, |d| (i + 1 + d) as u64)
                };
                let mut far = 0;
                let mut far_next = next_of(lines[0]);
                for (w, &t) in lines.iter().enumerate().skip(1) {
                    let next = next_of(t);
                    if next > far_next {
                        far = w;
                        far_next = next;
                    }
                }
                lines[far] = a;
            }
        }
    }
    OracleResult {
        accesses: refs.len().saturating_sub(warm_len) as u64,
        hits,
        misses,
    }
}

/// The reference stream a mix presents to the memory hierarchy, plus the
/// index where the warm-up prefix ends.
///
/// Cores are interleaved round-robin, one instruction each, for
/// `warmup + quota` instructions per core. Each instruction contributes
/// its instruction-fetch line when it differs from the core's previous
/// one (the same dedup the simulator's fetch path applies) followed by
/// its data line, if any. The cut index marks the first measured-phase
/// reference (0 when `warmup` is zero).
pub fn mix_reference_stream(cfg: &SimConfig, apps: &[SpecApp]) -> (Vec<LineAddr>, usize) {
    assert!(!apps.is_empty(), "a mix needs at least one app");
    let mut traces: Vec<_> = apps
        .iter()
        .enumerate()
        .map(|(i, app)| app.trace(cfg.scale(), i as u64, cfg.seed_value()))
        .collect();
    let warmup = cfg.warmup_quota();
    let total = warmup + cfg.instruction_quota();
    let mut last_code: Vec<Option<LineAddr>> = vec![None; apps.len()];
    let mut refs = Vec::new();
    let mut warm_len = 0;
    for n in 0..total {
        for (i, trace) in traces.iter_mut().enumerate() {
            let instr = trace.next_instruction();
            if last_code[i] != Some(instr.code_line) {
                last_code[i] = Some(instr.code_line);
                refs.push(instr.code_line);
            }
            if let Some(m) = instr.mem {
                refs.push(m.addr);
            }
        }
        if n + 1 == warmup {
            warm_len = refs.len();
        }
    }
    (refs, warm_len)
}

/// The MIN oracle's measured-phase result for a mix under `cfg`'s LLC
/// geometry (honoring an `llc_capacity_full_scale` override, like
/// [`crate::MixRun::llc_capacity_full_scale`]). This is the `opt_misses`
/// denominator behind `gap_to_opt`.
///
/// The replay is the set-sharded one ([`belady_sharded`]) on
/// [`SimConfig::effective_shard_jobs`] worker threads (serial unless
/// `shard_jobs`/`TLA_SHARD_JOBS` opts in); the counts are bit-identical
/// for every job count.
pub fn optimal_llc(
    cfg: &SimConfig,
    apps: &[SpecApp],
    llc_capacity_full_scale: Option<usize>,
) -> OracleResult {
    let scale = cfg.scale() as usize;
    let mut hcfg = HierarchyConfig::scaled(apps.len(), scale);
    if let Some(bytes) = llc_capacity_full_scale {
        hcfg = hcfg.llc_capacity(bytes / scale);
    }
    let llc = hcfg.llc();
    let (refs, warm_len) = mix_reference_stream(cfg, apps);
    belady_sharded(
        &refs,
        warm_len,
        llc.sets(),
        llc.ways(),
        cfg.effective_shard_jobs(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(raw: &[u64]) -> Vec<LineAddr> {
        raw.iter().map(|&a| LineAddr::new(a)).collect()
    }

    #[test]
    fn belady_on_classic_sequence() {
        // Fully-associative (1 set), 3 ways, the textbook example:
        // a b c d a b e a b c d e, all mapping to set 0.
        let refs = addrs(&[0, 8, 16, 24, 0, 8, 32, 0, 8, 16, 24, 32]);
        let r = belady(&refs, 0, 1, 3);
        assert_eq!(r.accesses, 12);
        // MIN with 3 frames: cold a b c, d evicts c, e evicts d, then c
        // and d miss again and the final e hits — 7 faults, 5 hits.
        assert_eq!(r.misses, 7, "{r:?}");
        assert_eq!(r.hits, 5);
        assert_eq!(belady_bruteforce(&refs, 0, 1, 3), r);
    }

    #[test]
    fn belady_matches_bruteforce_on_random_streams() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (sets, ways, len) in [(1, 4, 200), (4, 2, 300), (8, 4, 500), (16, 1, 400)] {
            let refs: Vec<LineAddr> = (0..len)
                .map(|_| LineAddr::new(next() % (sets as u64 * ways as u64 * 3)))
                .collect();
            for warm in [0, len / 3] {
                let fast = belady(&refs, warm, sets, ways);
                let slow = belady_bruteforce(&refs, warm, sets, ways);
                assert_eq!(fast, slow, "sets={sets} ways={ways} len={len} warm={warm}");
            }
        }
    }

    #[test]
    fn sharded_replay_matches_serial_for_any_job_count() {
        let mut state = 0xfeed_beef_dead_c0deu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (sets, ways, len) in [(1, 4, 300), (4, 2, 400), (16, 8, 1_000), (64, 4, 2_000)] {
            let refs: Vec<LineAddr> = (0..len)
                .map(|_| LineAddr::new(next() % (sets as u64 * ways as u64 * 3)))
                .collect();
            for warm in [0, len / 3] {
                let serial = belady(&refs, warm, sets, ways);
                for jobs in [1, 2, 7] {
                    assert_eq!(
                        belady_sharded(&refs, warm, sets, ways, jobs),
                        serial,
                        "sets={sets} ways={ways} len={len} warm={warm} jobs={jobs}"
                    );
                }
            }
        }
        // Empty stream degenerate case.
        assert_eq!(belady_sharded(&[], 0, 8, 2, 4), belady(&[], 0, 8, 2));
    }

    #[test]
    fn optimal_llc_is_shard_job_invariant() {
        let cfg = SimConfig::scaled_down().instructions(10_000);
        let apps = [SpecApp::Mcf, SpecApp::Sjeng];
        let serial = optimal_llc(&cfg, &apps, None);
        assert!(serial.accesses > 0);
        for jobs in [2, 7] {
            let sharded = optimal_llc(&cfg.clone().shard_jobs(jobs), &apps, None);
            assert_eq!(sharded, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn warm_prefix_is_excluded_from_counts() {
        let refs = addrs(&[0, 8, 0, 8, 0, 8]);
        let all = belady(&refs, 0, 1, 2);
        assert_eq!(all.accesses, 6);
        assert_eq!(all.misses, 2); // two cold fills
        let warm = belady(&refs, 2, 1, 2);
        assert_eq!(warm.accesses, 4);
        assert_eq!(warm.misses, 0, "cold fills fall in the warm prefix");
        assert_eq!(warm.hits, 4);
    }

    #[test]
    fn oracle_never_misses_more_than_lru_would() {
        // A cyclic scan over ways+1 lines is LRU's worst case (0% hits);
        // MIN keeps ways-1 of them resident.
        let mut refs = Vec::new();
        for _ in 0..50 {
            for a in 0..5u64 {
                refs.push(LineAddr::new(a * 8)); // all in set 0 of an 8-set cache
            }
        }
        let r = belady(&refs, 0, 8, 4);
        assert!(
            r.hit_rate() > 0.7,
            "MIN must rescue most of a cyclic scan: {r:?}"
        );
    }

    #[test]
    fn mix_reference_stream_is_deterministic_and_cut_correctly() {
        let cfg = SimConfig::scaled_down().warmup(1_000).instructions(2_000);
        let apps = [SpecApp::Sjeng, SpecApp::Libquantum];
        let (a, cut_a) = mix_reference_stream(&cfg, &apps);
        let (b, cut_b) = mix_reference_stream(&cfg, &apps);
        assert_eq!(a, b);
        assert_eq!(cut_a, cut_b);
        assert!(cut_a > 0 && cut_a < a.len());
        // Without warm-up the cut is at the start.
        let cold = SimConfig::scaled_down().instructions(1_000);
        let (_, cut) = mix_reference_stream(&cold, &apps);
        assert_eq!(cut, 0);
    }

    #[test]
    fn optimal_llc_lower_bounds_a_single_core_run() {
        use crate::{MixRun, PolicySpec};
        // Single core, prefetch off, no warm-up: the oracle's stream is
        // exactly the hierarchy's access sequence, and an inclusive
        // hierarchy's contents are a subset of its LLC frames — so the
        // whole hierarchy acts as one demand-fetch cache of LLC geometry
        // and MIN bounds its misses from below. (With the prefetcher on,
        // prefetch hits can beat a demand-fetch oracle; with multiple
        // cores the interleavings diverge — both make this a heuristic
        // rather than a bound, which is why reports label it `gap_to_opt`
        // against an approximation.)
        let cfg = SimConfig::scaled_down()
            .instructions(30_000)
            .prefetch(false);
        let apps = [SpecApp::Mcf];
        let opt = optimal_llc(&cfg, &apps, None);
        assert!(opt.accesses > 0 && opt.misses > 0);
        let run = MixRun::new(&cfg, &apps).spec(&PolicySpec::baseline()).run();
        assert!(
            opt.misses <= run.llc_misses(),
            "opt {} > measured {}",
            opt.misses,
            run.llc_misses()
        );
    }
}
