//! Hardware stream prefetcher.
//!
//! §IV-A: "We model a stream prefetcher that trains on L2 cache misses and
//! prefetches lines into the L2 cache. The prefetcher has 16 stream
//! detectors." Detection is region-based: a detector watches one 4 KB
//! region, learns the miss direction, and once confirmed issues `degree`
//! prefetches ahead of the miss stream.

use tla_snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use tla_types::LineAddr;

/// Lines per 4 KB detection region.
const REGION_LINES: u64 = 64;

/// Configuration for [`StreamPrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPrefetcherConfig {
    /// Number of stream detectors (paper: 16).
    pub detectors: usize,
    /// Prefetches issued per confirmed training miss.
    pub degree: usize,
    /// How far ahead of the miss stream prefetches run (in lines).
    pub distance: u64,
}

impl Default for StreamPrefetcherConfig {
    fn default() -> Self {
        StreamPrefetcherConfig {
            detectors: 16,
            degree: 2,
            distance: 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Stream {
    region: u64,
    last_line: LineAddr,
    /// +1 ascending, -1 descending, 0 untrained.
    dir: i64,
    confirmed: bool,
    lru: u64,
}

/// A per-core stream prefetcher. Feed it the L2 demand-miss stream via
/// [`StreamPrefetcher::on_l2_miss`]; it returns the lines to prefetch into
/// the L2.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    cfg: StreamPrefetcherConfig,
    streams: Vec<Stream>,
    stamp: u64,
    issued: u64,
    trainings: u64,
    /// Scratch stamp buffer for the LRU displacement min-reduce; derived
    /// state, so it is not serialized.
    lru_scratch: Vec<u64>,
}

impl StreamPrefetcher {
    /// Creates a prefetcher with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `detectors` or `degree` is zero.
    pub fn new(cfg: StreamPrefetcherConfig) -> Self {
        assert!(cfg.detectors > 0, "need at least one stream detector");
        assert!(cfg.degree > 0, "prefetch degree must be at least 1");
        StreamPrefetcher {
            cfg,
            streams: Vec::with_capacity(cfg.detectors),
            stamp: 0,
            issued: 0,
            trainings: 0,
            lru_scratch: Vec::with_capacity(cfg.detectors),
        }
    }

    /// The prefetcher's configuration.
    pub fn config(&self) -> &StreamPrefetcherConfig {
        &self.cfg
    }

    /// Total prefetches issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Trains on an L2 demand miss and appends the lines to prefetch to
    /// `out` (a reusable buffer: it is *not* cleared here).
    #[inline]
    pub fn on_l2_miss(&mut self, line: LineAddr, out: &mut Vec<LineAddr>) {
        self.trainings += 1;
        self.stamp += 1;
        let region = line.raw() / REGION_LINES;
        if let Some(s) = self.streams.iter_mut().find(|s| {
            s.region == region || s.region == region.wrapping_sub(1) || s.region == region + 1
        }) {
            s.lru = self.stamp;
            let delta = line.raw() as i64 - s.last_line.raw() as i64;
            if delta != 0 {
                let dir = delta.signum();
                if s.dir == dir {
                    s.confirmed = true;
                } else if !s.confirmed {
                    s.dir = dir;
                }
                s.last_line = line;
                s.region = region;
                if s.confirmed && s.dir == dir {
                    for k in 0..self.cfg.degree as u64 {
                        let ahead = (self.cfg.distance + k) as i64 * s.dir;
                        out.push(line.step(ahead));
                        self.issued += 1;
                    }
                }
            }
        } else {
            // Allocate a new detector, displacing the LRU one.
            let s = Stream {
                region,
                last_line: line,
                dir: 0,
                confirmed: false,
                lru: self.stamp,
            };
            if self.streams.len() < self.cfg.detectors {
                self.streams.push(s);
            } else {
                // Min-reduce over the stamps with the probe kernel (the
                // victim cache's displacement scan was converted in an
                // earlier pass; this site kept a scalar `min_by_key`).
                // `min_index` keeps the first minimum, the same detector
                // `min_by_key` picked.
                self.lru_scratch.clear();
                self.lru_scratch.extend(self.streams.iter().map(|s| s.lru));
                let lru = crate::probe::min_index(&self.lru_scratch)
                    .expect("detector table is non-empty");
                self.streams[lru] = s;
            }
        }
    }
}

impl Snapshot for StreamPrefetcher {
    // The detector table is ordered state: allocation order decides which
    // detector matches first, so entries are serialized in Vec order.
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.write_u64(self.streams.len() as u64);
        for s in &self.streams {
            w.write_u64(s.region);
            w.write_u64(s.last_line.raw());
            w.write_i64(s.dir);
            w.write_bool(s.confirmed);
            w.write_u64(s.lru);
        }
        w.write_u64(self.stamp);
        w.write_u64(self.issued);
        w.write_u64(self.trainings);
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let n = r.read_usize()?;
        if n > self.cfg.detectors {
            return Err(SnapshotError::Mismatch(format!(
                "stream prefetcher: snapshot has {n} detectors, this configuration has {}",
                self.cfg.detectors
            )));
        }
        self.streams.clear();
        for _ in 0..n {
            self.streams.push(Stream {
                region: r.read_u64()?,
                last_line: LineAddr::new(r.read_u64()?),
                dir: r.read_i64()?,
                confirmed: r.read_bool()?,
                lru: r.read_u64()?,
            });
        }
        self.stamp = r.read_u64()?;
        self.issued = r.read_u64()?;
        self.trainings = r.read_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(p: &mut StreamPrefetcher, line: u64) -> Vec<LineAddr> {
        let mut out = Vec::new();
        p.on_l2_miss(LineAddr::new(line), &mut out);
        out
    }

    #[test]
    fn ascending_stream_confirms_then_prefetches() {
        let mut p = StreamPrefetcher::new(StreamPrefetcherConfig::default());
        assert!(miss(&mut p, 100).is_empty()); // allocate
        assert!(miss(&mut p, 101).is_empty()); // learn direction
        let out = miss(&mut p, 102); // confirmed
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], LineAddr::new(106)); // distance 4
        assert_eq!(out[1], LineAddr::new(107));
        assert_eq!(p.issued(), 2);
    }

    #[test]
    fn descending_stream_prefetches_backward() {
        let mut p = StreamPrefetcher::new(StreamPrefetcherConfig::default());
        miss(&mut p, 200);
        miss(&mut p, 199);
        let out = miss(&mut p, 198);
        assert_eq!(out[0], LineAddr::new(194));
    }

    #[test]
    fn random_misses_do_not_confirm() {
        let mut p = StreamPrefetcher::new(StreamPrefetcherConfig::default());
        miss(&mut p, 100);
        miss(&mut p, 110);
        miss(&mut p, 90);
        let out = miss(&mut p, 105);
        assert!(out.is_empty());
    }

    #[test]
    fn streams_cross_region_boundaries() {
        let mut p = StreamPrefetcher::new(StreamPrefetcherConfig::default());
        // Walk up to and across a 64-line region boundary.
        for l in 60..=63 {
            miss(&mut p, l);
        }
        let out = miss(&mut p, 64);
        assert!(!out.is_empty(), "stream should survive region crossing");
    }

    #[test]
    fn detector_table_replaces_lru() {
        let cfg = StreamPrefetcherConfig {
            detectors: 2,
            ..Default::default()
        };
        let mut p = StreamPrefetcher::new(cfg);
        miss(&mut p, 0); // stream A (region 0)
        miss(&mut p, 1000); // stream B (region 15)
        miss(&mut p, 2000); // displaces A (LRU)
                            // Re-touching stream A's region allocates fresh (no training left).
        miss(&mut p, 1);
        let out = miss(&mut p, 2);
        assert!(out.is_empty(), "displaced stream must retrain from scratch");
    }

    #[test]
    fn duplicate_miss_is_ignored() {
        let mut p = StreamPrefetcher::new(StreamPrefetcherConfig::default());
        miss(&mut p, 100);
        let out = miss(&mut p, 100);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "detector")]
    fn zero_detectors_panics() {
        let _ = StreamPrefetcher::new(StreamPrefetcherConfig {
            detectors: 0,
            ..Default::default()
        });
    }
}
