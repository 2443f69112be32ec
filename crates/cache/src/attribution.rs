//! Miss attribution: cold / capacity / inclusion-victim classification.
//!
//! The paper's central claim is that inclusion's cost is concentrated in
//! *inclusion victims* — lines the LLC forcibly removed from the core
//! caches that the core then missed on (§II). End-of-run victim counts
//! show how many lines were back-invalidated, but not how many of those
//! removals actually *cost a miss*. This module observes the cost at the
//! point it is paid: each core keeps a [`VictimTracker`] that remembers
//! which of its lines the LLC killed (and why), and every core-cache
//! demand miss is classified as
//!
//! * **cold** — the core never touched the line before;
//! * **capacity** — the line was touched before and aged out of the core
//!   caches on its own (capacity/conflict, a normal miss);
//! * **inclusion victim** — the line was last removed by the LLC
//!   (back-invalidate, ECI early invalidate, or a deferred victim-cache
//!   displacement), tagged with the [`VictimCause`] of that removal.
//!
//! The cause taxonomy distinguishes the LLC policy decision behind the
//! kill, so reports can show e.g. how many of QBS's residual victim
//! misses come from its query limit rather than from approved evictions.

use tla_snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use tla_types::{LineAddr, LineMap, LineSet};

/// The LLC policy decision that removed a line from a core's caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VictimCause {
    /// An ordinary replacement decision back-invalidated the line
    /// (including a QBS-*approved* eviction and the baseline NRU/LRU
    /// victim picks).
    Replacement,
    /// QBS hit its query limit and evicted a line the core caches still
    /// held — the paper's residual-victim case (§V-C).
    QbsLimit,
    /// ECI invalidated the line early, ahead of its LLC eviction (§V-B).
    Eci,
    /// The line's deferred back-invalidate fired when it fell out of the
    /// victim cache while still core-resident (§VI).
    VictimCacheOverflow,
    /// A device (DDIO-style DMA) injection into the LLC evicted the line
    /// while the core caches still held it — app damage caused by I/O
    /// traffic, not by any core's demand stream.
    IoInjection,
}

impl VictimCause {
    /// Every cause, in declaration order (stable encode indices).
    pub const ALL: [VictimCause; 5] = [
        VictimCause::Replacement,
        VictimCause::QbsLimit,
        VictimCause::Eci,
        VictimCause::VictimCacheOverflow,
        VictimCause::IoInjection,
    ];

    /// Stable machine-readable name (used as a report column).
    pub const fn name(self) -> &'static str {
        match self {
            VictimCause::Replacement => "replacement",
            VictimCause::QbsLimit => "qbs_limit",
            VictimCause::Eci => "eci",
            VictimCause::VictimCacheOverflow => "victim_cache",
            VictimCause::IoInjection => "io_injection",
        }
    }

    /// Dense index into [`VictimCause::ALL`] (snapshot encoding).
    pub const fn index(self) -> u8 {
        self as u8
    }

    /// Inverse of [`VictimCause::index`].
    pub fn from_index(i: u8) -> Option<VictimCause> {
        VictimCause::ALL.get(i as usize).copied()
    }
}

/// Classification of one core-cache demand miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissClass {
    /// First touch of the line by this core.
    Cold,
    /// The line aged out of the core caches on its own.
    Capacity,
    /// The LLC removed the line; the cause of that removal.
    InclusionVictim(VictimCause),
}

/// Per-core miss-attribution state.
///
/// `note_kill` records that the LLC removed a line from this core's
/// caches (only called when the removal actually took something out);
/// `classify` consumes that record at the next demand miss on the line.
/// A kill that is never re-missed costs nothing and is simply overwritten
/// or left behind — the tracker charges misses, not messages.
#[derive(Debug, Clone, Default)]
pub struct VictimTracker {
    /// Lines the LLC removed from this core, with the policy decision
    /// responsible. Consumed by the next miss on the line.
    killed: LineMap<VictimCause>,
    /// Every line this core ever demand-missed on (first touch marker).
    seen: LineSet,
}

impl VictimTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the LLC removed `line` from this core's caches
    /// because of `cause`. A later kill of the same line overwrites the
    /// earlier cause (the most recent removal is the one the next miss
    /// pays for).
    #[inline]
    pub fn note_kill(&mut self, line: LineAddr, cause: VictimCause) {
        self.killed.insert(line.raw(), cause);
    }

    /// Classifies a demand miss on `line`, updating the tracker: an
    /// outstanding kill makes it an inclusion-victim miss (consuming the
    /// kill), a previously-seen line is a capacity miss, a never-seen
    /// line is cold.
    #[inline]
    pub fn classify(&mut self, line: LineAddr) -> MissClass {
        if let Some(cause) = self.killed.remove(&line.raw()) {
            self.seen.insert(line.raw());
            return MissClass::InclusionVictim(cause);
        }
        if self.seen.insert(line.raw()) {
            MissClass::Cold
        } else {
            MissClass::Capacity
        }
    }

    /// Outstanding (unconsumed) kills.
    pub fn pending_kills(&self) -> usize {
        self.killed.len()
    }

    /// Distinct lines this core has missed on.
    pub fn lines_seen(&self) -> usize {
        self.seen.len()
    }
}

impl Snapshot for VictimTracker {
    // Hash containers iterate in arbitrary order; entries are sorted so
    // the same logical state always serializes to the same bytes.
    fn write_state(&self, w: &mut SnapshotWriter) {
        let mut killed: Vec<(u64, u8)> = self
            .killed
            .iter()
            .map(|(&line, &cause)| (line, cause.index()))
            .collect();
        killed.sort_unstable();
        w.write_u64(killed.len() as u64);
        for (line, cause) in killed {
            w.write_u64(line);
            w.write_u64(cause as u64);
        }
        let mut seen: Vec<u64> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        w.write_u64(seen.len() as u64);
        for line in seen {
            w.write_u64(line);
        }
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let n = r.read_usize()?;
        self.killed.clear();
        self.killed.reserve(n);
        for _ in 0..n {
            let line = r.read_u64()?;
            let raw = r.read_u64()?;
            let cause = u8::try_from(raw)
                .ok()
                .and_then(VictimCause::from_index)
                .ok_or_else(|| {
                    SnapshotError::Mismatch(format!("victim tracker: unknown cause index {raw}"))
                })?;
            self.killed.insert(line, cause);
        }
        let n = r.read_usize()?;
        self.seen.clear();
        self.seen.reserve(n);
        for _ in 0..n {
            self.seen.insert(r.read_u64()?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_is_cold_then_capacity() {
        let mut t = VictimTracker::new();
        let line = LineAddr::new(7);
        assert_eq!(t.classify(line), MissClass::Cold);
        assert_eq!(t.classify(line), MissClass::Capacity);
        assert_eq!(t.lines_seen(), 1);
    }

    #[test]
    fn kill_turns_next_miss_into_inclusion_victim_once() {
        let mut t = VictimTracker::new();
        let line = LineAddr::new(9);
        assert_eq!(t.classify(line), MissClass::Cold);
        t.note_kill(line, VictimCause::Replacement);
        assert_eq!(t.pending_kills(), 1);
        assert_eq!(
            t.classify(line),
            MissClass::InclusionVictim(VictimCause::Replacement)
        );
        // The kill is consumed: the next miss is an ordinary capacity miss.
        assert_eq!(t.classify(line), MissClass::Capacity);
        assert_eq!(t.pending_kills(), 0);
    }

    #[test]
    fn later_kill_overwrites_cause() {
        let mut t = VictimTracker::new();
        let line = LineAddr::new(3);
        t.note_kill(line, VictimCause::Eci);
        t.note_kill(line, VictimCause::VictimCacheOverflow);
        assert_eq!(
            t.classify(line),
            MissClass::InclusionVictim(VictimCause::VictimCacheOverflow)
        );
    }

    #[test]
    fn kill_before_first_touch_still_counts_as_victim() {
        // A kill can only be noted for a line the core held, so by
        // construction the core has seen it — but the tracker itself does
        // not assume that ordering.
        let mut t = VictimTracker::new();
        let line = LineAddr::new(11);
        t.note_kill(line, VictimCause::QbsLimit);
        assert_eq!(
            t.classify(line),
            MissClass::InclusionVictim(VictimCause::QbsLimit)
        );
    }

    #[test]
    fn cause_indices_round_trip() {
        for cause in VictimCause::ALL {
            assert_eq!(VictimCause::from_index(cause.index()), Some(cause));
        }
        assert_eq!(VictimCause::from_index(5), None);
        let names: std::collections::HashSet<_> =
            VictimCause::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), VictimCause::ALL.len());
    }

    #[test]
    fn snapshot_is_sorted_and_round_trips() {
        let mut t = VictimTracker::new();
        for i in (0..50).rev() {
            t.classify(LineAddr::new(i * 3));
        }
        t.note_kill(LineAddr::new(9), VictimCause::Eci);
        t.note_kill(LineAddr::new(3), VictimCause::Replacement);
        t.note_kill(LineAddr::new(141), VictimCause::QbsLimit);

        let mut w = SnapshotWriter::new();
        t.write_state(&mut w);
        let bytes = w.finish();

        let mut fresh = VictimTracker::new();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        fresh.read_state(&mut r).unwrap();
        assert_eq!(fresh.pending_kills(), 3);
        assert_eq!(fresh.lines_seen(), 50);
        assert_eq!(
            fresh.classify(LineAddr::new(9)),
            MissClass::InclusionVictim(VictimCause::Eci)
        );

        // Same logical state, different insertion order → same bytes.
        let mut t2 = VictimTracker::new();
        for i in 0..50 {
            t2.classify(LineAddr::new(i * 3));
        }
        t2.note_kill(LineAddr::new(141), VictimCause::QbsLimit);
        t2.note_kill(LineAddr::new(3), VictimCause::Replacement);
        t2.note_kill(LineAddr::new(9), VictimCause::Eci);
        let mut w2 = SnapshotWriter::new();
        t2.write_state(&mut w2);
        assert_eq!(bytes, w2.finish());
    }
}
