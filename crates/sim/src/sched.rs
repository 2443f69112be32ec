//! Core interleaving: pick the core with the smallest local clock.
//!
//! The run loop steps one core per iteration, always the one whose local
//! cycle clock is furthest behind, so shared-LLC access order is
//! timestamp-accurate (§IV-B). A linear `min_by_key` scan costs
//! O(n_cores) per committed instruction — quadratic in total work for the
//! 8-core Figure 11 sweeps — so the scheduler keeps the clocks in a
//! binary min-heap instead: O(log n) per step and exactly the same pick
//! order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tla_types::Cycle;

/// Index min-heap over per-core clocks.
///
/// Pops the core with the smallest `(clock, index)` pair, which matches
/// the tie-break of `(0..n).min_by_key(|i| clock[i])` exactly: among
/// equal clocks the lowest core index runs first. Every core keeps
/// exactly one heap entry; [`CoreScheduler::pick`] removes it and
/// [`CoreScheduler::reinsert`] puts the updated clock back (or
/// [`CoreScheduler::replace_top`] does both in one sift), so no stale
/// entries ever accumulate.
#[derive(Debug, Clone)]
pub(crate) struct CoreScheduler {
    heap: BinaryHeap<Reverse<(Cycle, usize)>>,
}

impl CoreScheduler {
    /// A scheduler over cores with the given initial clocks.
    pub fn new(clocks: impl IntoIterator<Item = Cycle>) -> Self {
        CoreScheduler {
            heap: clocks
                .into_iter()
                .enumerate()
                .map(|(i, c)| Reverse((c, i)))
                .collect(),
        }
    }

    /// Removes and returns the index of the core that must step next
    /// (smallest clock, ties to the lowest index).
    ///
    /// # Panics
    ///
    /// Panics if every core's entry has been picked without reinsertion.
    pub fn pick(&mut self) -> usize {
        let Reverse((_, i)) = self.heap.pop().expect("scheduler has a core");
        i
    }

    /// Returns core `i` to the schedule with its updated clock.
    pub fn reinsert(&mut self, i: usize, clock: Cycle) {
        self.heap.push(Reverse((clock, i)));
    }

    /// [`reinsert`] followed by [`pick`], in one heap sift: schedules core
    /// `i` at `clock` and returns the core that must step next. When `i`
    /// is still the minimum it is returned without touching the heap;
    /// otherwise it takes the heap top's place and the old top is
    /// returned.
    ///
    /// [`reinsert`]: CoreScheduler::reinsert
    /// [`pick`]: CoreScheduler::pick
    pub fn replace_top(&mut self, i: usize, clock: Cycle) -> usize {
        if let Some(mut top) = self.heap.peek_mut() {
            if top.0 < (clock, i) {
                let Reverse((_, next)) = std::mem::replace(&mut *top, Reverse((clock, i)));
                return next;
            }
        }
        i
    }

    /// The smallest `(clock, index)` pair currently scheduled, without
    /// removing it — the run-extraction horizon: after a [`pick`], the
    /// picked core may keep committing back-to-back while its updated
    /// `(clock, index)` stays lexicographically below this pair, because
    /// every other core's entry is at least this large and unchanged.
    ///
    /// `None` when the heap is empty (single-core runs after the pick).
    ///
    /// [`pick`]: CoreScheduler::pick
    pub fn peek(&self) -> Option<(Cycle, usize)> {
        self.heap.peek().map(|&Reverse(pair)| pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact pick the run loop used before the heap existed.
    fn scan_pick(clocks: &[Cycle]) -> usize {
        (0..clocks.len())
            .min_by_key(|&i| clocks[i])
            .expect("at least one core")
    }

    #[test]
    fn matches_linear_scan_including_ties() {
        // Deterministic pseudo-random clock advances (no external RNG):
        // exercise long tie runs and uneven progress over many steps.
        // Two schedulers see the same advances: one pops and pushes per
        // step, the other keeps its running core out of the heap and
        // swaps it in with `replace_top`; both must pick like the scan.
        let n = 8;
        let mut clocks: Vec<Cycle> = vec![0; n];
        let mut sched = CoreScheduler::new(clocks.iter().copied());
        let mut swapper = CoreScheduler::new(clocks.iter().copied());
        let mut running = swapper.pick();
        let mut state: u64 = 0x1234_5678_9ABC_DEF0;
        for step in 0..10_000 {
            let expected = scan_pick(&clocks);
            let picked = sched.pick();
            assert_eq!(picked, expected, "step {step}: clocks {clocks:?}");
            assert_eq!(running, expected, "step {step}: replace_top path");
            // xorshift64 advance; frequent zero increments create ties.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            clocks[picked] += state % 4;
            sched.reinsert(picked, clocks[picked]);
            running = swapper.replace_top(running, clocks[running]);
        }
    }

    #[test]
    fn ties_break_toward_lowest_index() {
        let mut sched = CoreScheduler::new([5, 5, 5, 5]);
        assert_eq!(sched.pick(), 0);
        sched.reinsert(0, 5);
        // Core 0 re-enters at the same clock: it still wins the tie.
        assert_eq!(sched.pick(), 0);
        sched.reinsert(0, 6);
        assert_eq!(sched.pick(), 1);
        sched.reinsert(1, 9);
        assert_eq!(sched.pick(), 2);
        sched.reinsert(2, 9);
        assert_eq!(sched.pick(), 3);
        sched.reinsert(3, 9);
        // 0 at 6 now leads 1..3 at 9.
        assert_eq!(sched.pick(), 0);
    }

    #[test]
    fn single_core_always_picks_zero() {
        let mut sched = CoreScheduler::new([0]);
        for c in 1..100 {
            assert_eq!(sched.pick(), 0);
            sched.reinsert(0, c);
        }
        // With the running core out of the heap there is no top to swap.
        assert_eq!(sched.pick(), 0);
        assert_eq!(sched.replace_top(0, 100), 0);
    }

    #[test]
    fn peek_returns_current_minimum_without_removal() {
        let mut sched = CoreScheduler::new([7, 3, 5]);
        assert_eq!(sched.peek(), Some((3, 1)));
        assert_eq!(sched.pick(), 1);
        // After the pick the horizon is the next-smallest entry.
        assert_eq!(sched.peek(), Some((5, 2)));
        assert_eq!(sched.peek(), Some((5, 2)), "peek must not consume");
        sched.reinsert(1, 9);
        assert_eq!(sched.peek(), Some((5, 2)));
        // A drained single-core scheduler has no horizon.
        let mut solo = CoreScheduler::new([0]);
        let _ = solo.pick();
        assert_eq!(solo.peek(), None);
    }

    /// The batched engine's run extraction: keep committing on the running
    /// core while its updated `(clock, index)` stays below [`peek`]'s
    /// horizon, then swap it for the heap top with [`replace_top`]. The
    /// commit order must equal the serial pick-one-reinsert loop's order
    /// exactly, ties included.
    ///
    /// [`peek`]: CoreScheduler::peek
    /// [`replace_top`]: CoreScheduler::replace_top
    #[test]
    fn run_extraction_matches_serial_commit_order() {
        let n = 4;
        // Clock advance as a pure function of (core, per-core commit
        // count), so both schedules see identical advances. Zero advances
        // are frequent, exercising tie territory.
        let adv = |i: usize, k: u64| {
            let mut s = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k;
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % 4
        };
        let total = 20_000;

        // Serial reference order.
        let mut clocks: Vec<Cycle> = vec![0; n];
        let mut count = vec![0u64; n];
        let mut serial = Vec::with_capacity(total);
        for _ in 0..total {
            let i = scan_pick(&clocks);
            clocks[i] += adv(i, count[i]);
            count[i] += 1;
            serial.push(i);
        }

        // Run-extraction order.
        let mut clocks: Vec<Cycle> = vec![0; n];
        let mut count = vec![0u64; n];
        let mut extracted = Vec::with_capacity(total);
        let mut sched = CoreScheduler::new(clocks.iter().copied());
        let mut i = sched.pick();
        while extracted.len() < total {
            let horizon = sched.peek();
            loop {
                clocks[i] += adv(i, count[i]);
                count[i] += 1;
                extracted.push(i);
                if extracted.len() == total {
                    break;
                }
                match horizon {
                    Some(h) if (clocks[i], i) < h => {}
                    Some(_) => break,
                    None => {}
                }
            }
            i = sched.replace_top(i, clocks[i]);
        }
        assert_eq!(serial, extracted);
    }
}
