//! Hardware prefetchers.
//!
//! Two designs, matching the paper's evaluation:
//!
//! - [`StridePrefetcher`] — a per-PC stride table for the L1 after the
//!   many-thread-aware GPU prefetcher of Lee et al. (MICRO 2010) that the
//!   paper evaluates in Figure 6c. GPU-specific detail: because thousands
//!   of threads interleave on one core, strides are detected *per static
//!   instruction*, not per linear address stream.
//! - [`StreamPrefetcher`] — a classic multi-stream sequential prefetcher
//!   for the L2 (Figure 6d), parameterized by stream window (8/16/32
//!   lines) and prefetch degree (1/2/4/8).
//!
//! Prefetchers emit candidate line indices; the hierarchy decides whether
//! they are already resident and fills them with the prefetch bit set so
//! usefulness can be measured.

use serde::{Deserialize, Serialize};

/// Configuration of the per-PC stride prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StridePrefetcherConfig {
    /// Number of PC-indexed table entries (power of two).
    pub table_size: u32,
    /// Lines fetched ahead per trigger.
    pub degree: u32,
    /// How many strides ahead the first prefetch lands.
    pub distance: u32,
    /// Consecutive identical strides required before issuing.
    pub min_confidence: u32,
}

impl Default for StridePrefetcherConfig {
    fn default() -> Self {
        StridePrefetcherConfig {
            table_size: 64,
            degree: 2,
            distance: 1,
            min_confidence: 2,
        }
    }
}

impl StridePrefetcherConfig {
    /// `true` iff [`StridePrefetcher::new`] accepts this config and the
    /// parameters fall inside the supported sweep envelope. Planners gate
    /// on this so construction never panics on user-supplied grids.
    pub fn is_supported(&self) -> bool {
        self.table_size.is_power_of_two()
            && self.table_size <= 4096
            && (1..=32).contains(&self.degree)
            && self.distance <= 64
    }

    /// Expands one confident `(line, stride)` observation into the
    /// candidate lines this config issues: `line + stride * (distance +
    /// k)` for `k in 0..degree`, dropping candidates that would fall
    /// below line zero. Appends to `out` without clearing it.
    ///
    /// This is the emission half of [`StridePrefetcher::observe_into`];
    /// it depends only on `degree` and `distance`, never on table state,
    /// so bulk replays can share one training pass across configs that
    /// differ only here.
    pub fn expand_into(&self, line: u64, stride: i64, out: &mut Vec<u64>) {
        out.reserve(self.degree as usize);
        for k in 0..self.degree {
            let steps = (self.distance + k) as i64;
            let target = line as i64 + stride * steps;
            if target >= 0 {
                out.push(target as u64);
            }
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    pc: u64,
    valid: bool,
    last_line: u64,
    stride: i64,
    confidence: u32,
}

/// Per-PC stride prefetcher state.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    cfg: StridePrefetcherConfig,
    table: Vec<StrideEntry>,
    issued: u64,
}

impl StridePrefetcher {
    /// Creates an empty prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `table_size` is not a power of two or `degree` is zero.
    pub fn new(cfg: StridePrefetcherConfig) -> Self {
        assert!(
            cfg.table_size.is_power_of_two(),
            "table size must be a power of two"
        );
        assert!(cfg.degree > 0, "degree must be positive");
        StridePrefetcher {
            cfg,
            table: vec![StrideEntry::default(); cfg.table_size as usize],
            issued: 0,
        }
    }

    /// Observes a demand access `(pc, line)` and returns the lines to
    /// prefetch (possibly empty).
    pub fn observe(&mut self, pc: u64, line: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.observe_into(pc, line, &mut out);
        out
    }

    /// Allocation-free [`observe`](Self::observe): clears `out` and fills
    /// it with the candidate lines. Bulk replays (the sweep engine builds
    /// one candidate schedule per prefetcher config over multi-million
    /// access streams) reuse one buffer instead of allocating per access.
    pub fn observe_into(&mut self, pc: u64, line: u64, out: &mut Vec<u64>) {
        out.clear();
        if let Some((line, stride)) = self.observe_stride(pc, line) {
            self.cfg.expand_into(line, stride, out);
            self.issued += out.len() as u64;
        }
    }

    /// The training half of [`observe_into`](Self::observe_into): updates
    /// the per-PC table for one demand load and returns the `(line,
    /// stride)` pair candidate expansion starts from, if the entry has
    /// reached the confidence threshold. Training depends only on
    /// `table_size` and `min_confidence` — never on `degree` or
    /// `distance`, which only shape
    /// [`StridePrefetcherConfig::expand_into`] — so configs differing
    /// only in emission shape share one training trajectory.
    pub fn observe_stride(&mut self, pc: u64, line: u64) -> Option<(u64, i64)> {
        let idx = (pc as usize).wrapping_mul(0x9E37_79B9) % self.table.len();
        let e = &mut self.table[idx];
        if !e.valid || e.pc != pc {
            *e = StrideEntry {
                pc,
                valid: true,
                last_line: line,
                stride: 0,
                confidence: 0,
            };
            return None;
        }
        let delta = line as i64 - e.last_line as i64;
        e.last_line = line;
        if delta == 0 {
            return None;
        }
        if delta == e.stride {
            e.confidence = e.confidence.saturating_add(1);
        } else {
            e.stride = delta;
            e.confidence = 1;
        }
        if e.confidence < self.cfg.min_confidence {
            return None;
        }
        Some((line, e.stride))
    }

    /// Prefetch candidates issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

/// Configuration of the L2 stream prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StreamPrefetcherConfig {
    /// Number of concurrently tracked streams.
    pub num_streams: u32,
    /// Window (in lines) within which an access extends a stream.
    pub window: u32,
    /// Lines fetched ahead per trigger.
    pub degree: u32,
}

impl Default for StreamPrefetcherConfig {
    fn default() -> Self {
        StreamPrefetcherConfig {
            num_streams: 16,
            window: 16,
            degree: 2,
        }
    }
}

impl StreamPrefetcherConfig {
    /// `true` iff [`StreamPrefetcher::new`] accepts this config and the
    /// parameters fall inside the supported sweep envelope.
    pub fn is_supported(&self) -> bool {
        (1..=256).contains(&self.num_streams)
            && (1..=1024).contains(&self.window)
            && (1..=32).contains(&self.degree)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    valid: bool,
    last_line: u64,
    direction: i64,
    lru: u64,
}

/// Multi-stream sequential prefetcher.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    cfg: StreamPrefetcherConfig,
    streams: Vec<Stream>,
    clock: u64,
    issued: u64,
}

impl StreamPrefetcher {
    /// Creates an empty prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `num_streams`, `window` or `degree` is zero.
    pub fn new(cfg: StreamPrefetcherConfig) -> Self {
        assert!(
            cfg.num_streams > 0 && cfg.window > 0 && cfg.degree > 0,
            "stream prefetcher parameters must be positive"
        );
        StreamPrefetcher {
            cfg,
            streams: vec![Stream::default(); cfg.num_streams as usize],
            clock: 0,
            issued: 0,
        }
    }

    /// Observes an L2 demand miss and returns lines to prefetch.
    pub fn observe(&mut self, line: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.observe_into(line, &mut out);
        out
    }

    /// Allocation-free [`observe`](Self::observe): clears `out` and fills
    /// it with the candidate lines. The fig6d replay and the hierarchy
    /// call this once per demand miss and reuse one buffer.
    pub fn observe_into(&mut self, line: u64, out: &mut Vec<u64>) {
        out.clear();
        self.clock += 1;
        let window = self.cfg.window as i64;
        // Try to extend an existing stream.
        for s in &mut self.streams {
            if !s.valid {
                continue;
            }
            let delta = line as i64 - s.last_line as i64;
            if delta != 0
                && delta.abs() <= window
                && (s.direction == 0 || delta.signum() == s.direction)
            {
                s.direction = delta.signum();
                s.last_line = line;
                s.lru = self.clock;
                out.reserve(self.cfg.degree as usize);
                for k in 1..=self.cfg.degree {
                    let target = line as i64 + s.direction * k as i64;
                    if target >= 0 {
                        out.push(target as u64);
                    }
                }
                self.issued += out.len() as u64;
                return;
            }
        }
        // Allocate a new stream (LRU replacement).
        let slot = self
            .streams
            .iter()
            .position(|s| !s.valid)
            .unwrap_or_else(|| {
                self.streams
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.lru)
                    .map(|(i, _)| i)
                    .expect("at least one stream")
            });
        self.streams[slot] = Stream {
            valid: true,
            last_line: line,
            direction: 0,
            lru: self.clock,
        };
    }

    /// Prefetch candidates issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_detects_after_confidence() {
        let mut pf = StridePrefetcher::new(StridePrefetcherConfig {
            table_size: 16,
            degree: 2,
            distance: 1,
            min_confidence: 2,
        });
        assert!(pf.observe(0x10, 100).is_empty()); // training
        assert!(pf.observe(0x10, 104).is_empty()); // stride 4, conf 1
        let p = pf.observe(0x10, 108); // conf 2 -> fire
        assert_eq!(p, vec![112, 116]);
        assert_eq!(pf.issued(), 2);
    }

    #[test]
    fn stride_distance_offsets_targets() {
        let mut pf = StridePrefetcher::new(StridePrefetcherConfig {
            table_size: 16,
            degree: 1,
            distance: 4,
            min_confidence: 1,
        });
        pf.observe(0x10, 10);
        let p = pf.observe(0x10, 12); // stride 2, conf 1 -> fire at distance 4
        assert_eq!(p, vec![12 + 2 * 4]);
    }

    #[test]
    fn stride_negative_strides_work() {
        let mut pf = StridePrefetcher::new(StridePrefetcherConfig {
            table_size: 16,
            degree: 1,
            distance: 1,
            min_confidence: 1,
        });
        pf.observe(0x20, 100);
        let p = pf.observe(0x20, 90);
        assert_eq!(p, vec![80]);
        // Never emit negative lines.
        pf.observe(0x20, 5);
        let p = pf.observe(0x20, 1);
        assert!(p.is_empty() || p.iter().all(|&l| l < 1));
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut pf = StridePrefetcher::new(StridePrefetcherConfig {
            table_size: 16,
            degree: 1,
            distance: 1,
            min_confidence: 2,
        });
        pf.observe(0x10, 0);
        pf.observe(0x10, 4);
        assert!(!pf.observe(0x10, 8).is_empty()); // conf 2 -> fire
        assert!(pf.observe(0x10, 100).is_empty()); // stride broke
        assert!(pf.observe(0x10, 104).is_empty()); // conf 1 again
        assert!(!pf.observe(0x10, 108).is_empty()); // conf 2 -> fire
    }

    #[test]
    fn stride_pc_collision_replaces_entry() {
        let mut pf = StridePrefetcher::new(StridePrefetcherConfig {
            table_size: 1, // everything collides
            degree: 1,
            distance: 1,
            min_confidence: 1,
        });
        pf.observe(0x10, 0);
        pf.observe(0x20, 50); // evicts 0x10's entry
        assert!(
            pf.observe(0x10, 4).is_empty(),
            "entry for 0x10 was replaced"
        );
    }

    #[test]
    fn zero_stride_never_fires() {
        let mut pf = StridePrefetcher::new(StridePrefetcherConfig {
            table_size: 16,
            degree: 4,
            distance: 1,
            min_confidence: 1,
        });
        pf.observe(0x10, 7);
        for _ in 0..10 {
            assert!(pf.observe(0x10, 7).is_empty());
        }
    }

    #[test]
    fn stream_follows_ascending_misses() {
        let mut pf = StreamPrefetcher::new(StreamPrefetcherConfig {
            num_streams: 4,
            window: 8,
            degree: 2,
        });
        assert!(pf.observe(100).is_empty()); // allocates stream
        let p = pf.observe(101);
        assert_eq!(p, vec![102, 103]);
        let p = pf.observe(103);
        assert_eq!(p, vec![104, 105]);
    }

    #[test]
    fn stream_follows_descending_misses() {
        let mut pf = StreamPrefetcher::new(StreamPrefetcherConfig {
            num_streams: 4,
            window: 8,
            degree: 1,
        });
        pf.observe(100);
        assert_eq!(pf.observe(98), vec![97]);
        // Direction locked: an ascending jump within the window does not
        // extend this stream; it allocates a new one.
        assert!(pf.observe(99).is_empty());
    }

    #[test]
    fn stream_outside_window_allocates_new_stream() {
        let mut pf = StreamPrefetcher::new(StreamPrefetcherConfig {
            num_streams: 2,
            window: 4,
            degree: 1,
        });
        pf.observe(100);
        assert!(pf.observe(200).is_empty()); // too far: new stream
        assert_eq!(pf.observe(201), vec![202]); // second stream established
        assert_eq!(pf.observe(101), vec![102]); // first stream still alive
    }

    #[test]
    fn stream_lru_replacement() {
        let mut pf = StreamPrefetcher::new(StreamPrefetcherConfig {
            num_streams: 1,
            window: 4,
            degree: 1,
        });
        pf.observe(100);
        pf.observe(500); // replaces the only stream
        assert!(pf.observe(101).is_empty(), "old stream must be gone");
    }

    #[test]
    fn is_supported_matches_constructor_envelope() {
        assert!(StridePrefetcherConfig::default().is_supported());
        assert!(StreamPrefetcherConfig::default().is_supported());
        let bad_table = StridePrefetcherConfig {
            table_size: 3,
            ..Default::default()
        };
        assert!(!bad_table.is_supported());
        let oversized = StridePrefetcherConfig {
            table_size: 8192,
            ..Default::default()
        };
        assert!(!oversized.is_supported());
        let zero_degree = StridePrefetcherConfig {
            degree: 0,
            ..Default::default()
        };
        assert!(!zero_degree.is_supported());
        let zero_streams = StreamPrefetcherConfig {
            num_streams: 0,
            ..Default::default()
        };
        assert!(!zero_streams.is_supported());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn stride_rejects_bad_table() {
        StridePrefetcher::new(StridePrefetcherConfig {
            table_size: 3,
            degree: 1,
            distance: 1,
            min_confidence: 1,
        });
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn stream_rejects_zero_degree() {
        StreamPrefetcher::new(StreamPrefetcherConfig {
            num_streams: 1,
            window: 1,
            degree: 0,
        });
    }
}
