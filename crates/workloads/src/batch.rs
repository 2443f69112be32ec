//! Batched instruction generation.
//!
//! The batched execution engine consumes instructions from each core in
//! register-hot runs, so pulling them from the generator one call at a
//! time wastes the run structure: every `next_instruction` re-enters the
//! mixture-selection and PC-advance code cold. [`BatchedTrace`] refills a
//! small buffer in one tight burst instead and then hands instructions out
//! by index.
//!
//! Buffering generates *ahead* of the committed position — the underlying
//! generator's RNG has already advanced past instructions nobody has
//! consumed yet. That would break checkpoint byte-compatibility, so the
//! batcher also keeps a clone of the generator taken at the buffer's
//! start (a committed boundary). Serialization clones that base, replays
//! exactly the consumed prefix of the buffer, and snapshots *that* state:
//! the bytes are identical to an unbatched generator that stopped at the
//! same committed instruction.

use crate::trace::{Instruction, TraceSource};
use tla_snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// Default instructions generated per refill burst.
pub const DEFAULT_BATCH: usize = 64;

/// A buffering adapter around any [`TraceSource`]: generates instructions
/// in bursts, hands them out one by one, and serializes as if it had never
/// buffered at all (see the module docs for the replay argument).
#[derive(Debug, Clone)]
pub struct BatchedTrace<T> {
    /// The generator, advanced through the end of the buffer.
    inner: T,
    /// The generator state at `buf[0]`: the snapshot replay anchor.
    base: T,
    /// The current burst.
    buf: Vec<Instruction>,
    /// Instructions of `buf` already handed out.
    pos: usize,
    batch: usize,
}

impl<T: TraceSource + Clone> BatchedTrace<T> {
    /// Wraps `inner` with the default batch size.
    pub fn new(inner: T) -> Self {
        Self::with_batch(inner, DEFAULT_BATCH)
    }

    /// Wraps `inner`, refilling `batch` instructions at a time.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch(inner: T, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        BatchedTrace {
            base: inner.clone(),
            inner,
            buf: Vec::with_capacity(batch),
            pos: 0,
            batch,
        }
    }

    /// Replaces the exhausted buffer with the next burst and hands out
    /// its first instruction.
    #[cold]
    fn refill(&mut self) -> Instruction {
        self.base.clone_from(&self.inner);
        self.buf.clear();
        let inner = &mut self.inner;
        self.buf
            .extend((0..self.batch).map(|_| inner.next_instruction()));
        self.pos = 1;
        self.buf[0]
    }
}

impl<T: TraceSource + Clone> TraceSource for BatchedTrace<T> {
    #[inline]
    fn next_instruction(&mut self) -> Instruction {
        match self.buf.get(self.pos) {
            Some(&instr) => {
                self.pos += 1;
                instr
            }
            None => self.refill(),
        }
    }
}

impl<T: TraceSource + Clone + Snapshot> Snapshot for BatchedTrace<T> {
    fn write_state(&self, w: &mut SnapshotWriter) {
        // Replay the committed prefix onto the start-of-burst clone; the
        // result is the exact generator state an unbatched run would hold
        // here, so the wire bytes carry no trace of the batching.
        let mut committed = self.base.clone();
        for _ in 0..self.pos {
            committed.next_instruction();
        }
        committed.write_state(w);
    }

    fn read_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.inner.read_state(r)?;
        self.base.clone_from(&self.inner);
        self.buf.clear();
        self.pos = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{PatternKind, SyntheticTrace, WorkloadParams};

    fn params() -> WorkloadParams {
        WorkloadParams {
            code_footprint_bytes: 4096,
            mem_ratio: 0.5,
            write_ratio: 0.3,
            patterns: vec![
                (0.6, PatternKind::Loop { lines: 64, stay: 4 }),
                (0.4, PatternKind::Chase { lines: 256 }),
            ],
        }
    }

    #[test]
    fn batched_stream_equals_unbatched_stream() {
        for batch in [1, 2, 63, 64, 65] {
            let mut plain = SyntheticTrace::new(&params(), 0, 7);
            let mut batched = BatchedTrace::with_batch(SyntheticTrace::new(&params(), 0, 7), batch);
            for n in 0..1000 {
                assert_eq!(
                    batched.next_instruction(),
                    plain.next_instruction(),
                    "batch={batch} diverges at instruction {n}"
                );
            }
        }
    }

    fn snapshot_bytes<S: Snapshot>(s: &S) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        s.write_state(&mut w);
        w.finish()
    }

    #[test]
    fn snapshot_hides_the_buffer() {
        // At every commit offset across several refill boundaries, the
        // batcher's bytes must equal an unbatched generator's bytes. The
        // edge offsets are the fresh batcher and a resumed one (`pos == 0`)
        // and an exhausted buffer whose refill is still pending
        // (`pos == batch`).
        let batch = 16;
        let mut plain = SyntheticTrace::new(&params(), 1, 9);
        let mut batched = BatchedTrace::with_batch(SyntheticTrace::new(&params(), 1, 9), batch);
        let (mut at_start, mut at_end) = (0, 0);
        for n in 0..100 {
            at_start += usize::from(batched.pos == 0);
            at_end += usize::from(batched.pos == batch);
            assert_eq!(
                snapshot_bytes(&plain),
                snapshot_bytes(&batched),
                "snapshot bytes diverge after {n} commits"
            );
            if n == 50 {
                let bytes = snapshot_bytes(&batched);
                let mut resumed =
                    BatchedTrace::with_batch(SyntheticTrace::new(&params(), 1, 9), batch);
                resumed
                    .read_state(&mut SnapshotReader::new(&bytes).unwrap())
                    .unwrap();
                assert_eq!(resumed.pos, 0);
                at_start += 1;
                assert_eq!(snapshot_bytes(&resumed), bytes, "resumed at {n} commits");
                batched = resumed;
            }
            assert_eq!(plain.next_instruction(), batched.next_instruction());
        }
        assert_eq!(at_start, 2, "fresh and resumed batchers sit at pos 0");
        assert!(at_end >= 4, "only {at_end} snapshots at pos == batch");
    }

    #[test]
    fn snapshot_round_trips_and_resumes_exactly() {
        let mut live = BatchedTrace::with_batch(SyntheticTrace::new(&params(), 0, 3), 32);
        for _ in 0..500 {
            live.next_instruction();
        }
        let mut w = SnapshotWriter::new();
        live.write_state(&mut w);
        let bytes = w.finish();

        let mut resumed = BatchedTrace::with_batch(SyntheticTrace::new(&params(), 0, 3), 32);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        resumed.read_state(&mut r).unwrap();
        for n in 0..500 {
            assert_eq!(
                resumed.next_instruction(),
                live.next_instruction(),
                "resumed stream diverges at instruction {n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_panics() {
        let _ = BatchedTrace::with_batch(SyntheticTrace::new(&params(), 0, 1), 0);
    }
}
