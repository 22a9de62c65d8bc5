//! Set-associative cache model.
//!
//! Caches operate on *line indices* (byte address divided by the line
//! size); the hierarchy performs that conversion once at its boundary. The
//! model is untimed — latencies are assigned by the [`crate::hierarchy`] —
//! but tracks everything the experiments need: hits/misses by kind,
//! evictions, writebacks, and prefetch usefulness.

use gmap_trace::rng::Rng;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Replacement policy of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Least recently used (true LRU).
    #[default]
    Lru,
    /// First-in first-out: insertion order, untouched by hits.
    Fifo,
    /// Tree pseudo-LRU.
    PseudoLru,
    /// Uniform random victim.
    Random,
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplacementPolicy::Lru => f.write_str("LRU"),
            ReplacementPolicy::Fifo => f.write_str("FIFO"),
            ReplacementPolicy::PseudoLru => f.write_str("PLRU"),
            ReplacementPolicy::Random => f.write_str("Random"),
        }
    }
}

/// Geometry and policy of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes (power of two).
    pub line_size: u64,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
}

impl CacheConfig {
    /// Creates and validates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the line size is not a power of two of at
    /// least 2 bytes, the capacity is not an exact multiple of
    /// `assoc * line_size`, or any field is zero.
    pub fn new(
        size_bytes: u64,
        assoc: u32,
        line_size: u64,
        policy: ReplacementPolicy,
    ) -> Result<Self, ConfigError> {
        if size_bytes == 0 || assoc == 0 || line_size == 0 {
            return Err(ConfigError::Zero);
        }
        if !line_size.is_power_of_two() {
            return Err(ConfigError::LineNotPowerOfTwo { line_size });
        }
        if line_size < 2 {
            return Err(ConfigError::LineTooSmall);
        }
        // A way too large for a u64 is larger than any capacity.
        let Some(way_bytes) = u64::from(assoc)
            .checked_mul(line_size)
            .filter(|&w| size_bytes.is_multiple_of(w))
        else {
            return Err(ConfigError::NotSetDivisible {
                size_bytes,
                assoc,
                line_size,
            });
        };
        let sets = size_bytes / way_bytes;
        if !sets.is_power_of_two() {
            return Err(ConfigError::SetsNotPowerOfTwo { sets });
        }
        Ok(CacheConfig {
            size_bytes,
            assoc,
            line_size,
            policy,
        })
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.assoc as u64 * self.line_size)
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / self.line_size
    }
}

/// Error building a [`CacheConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A size, associativity or line size of zero.
    Zero,
    /// Line size is not a power of two.
    LineNotPowerOfTwo {
        /// The offending line size.
        line_size: u64,
    },
    /// A 1-byte line: line indices would be byte addresses, and the
    /// all-ones index marks an empty way.
    LineTooSmall,
    /// Capacity does not divide evenly into sets.
    NotSetDivisible {
        /// Requested capacity.
        size_bytes: u64,
        /// Requested associativity.
        assoc: u32,
        /// Requested line size.
        line_size: u64,
    },
    /// The derived set count is not a power of two (required for bit
    /// indexing).
    SetsNotPowerOfTwo {
        /// The derived set count.
        sets: u64,
    },
    /// The L2 bank count is not a power of two (required for bit
    /// indexing; see [`crate::hierarchy::HierarchyConfig::l2_bank_config`]).
    BanksNotPowerOfTwo {
        /// The requested bank count.
        banks: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Zero => f.write_str("cache parameters must be non-zero"),
            ConfigError::LineNotPowerOfTwo { line_size } => {
                write!(f, "line size {line_size} is not a power of two")
            }
            ConfigError::LineTooSmall => f.write_str("line size must be at least 2 bytes"),
            ConfigError::NotSetDivisible {
                size_bytes,
                assoc,
                line_size,
            } => write!(
                f,
                "capacity {size_bytes} not divisible into sets of {assoc} x {line_size} B lines"
            ),
            ConfigError::SetsNotPowerOfTwo { sets } => {
                write!(f, "derived set count {sets} is not a power of two")
            }
            ConfigError::BanksNotPowerOfTwo { banks } => {
                write!(f, "L2 bank count {banks} is not a power of two")
            }
        }
    }
}

impl Error for ConfigError {}

/// Counters of one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Demand accesses (prefetch fills excluded).
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Demand read accesses.
    pub reads: u64,
    /// Demand write accesses.
    pub writes: u64,
    /// Lines evicted.
    pub evictions: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Lines filled by a prefetcher.
    pub prefetch_fills: u64,
    /// Prefetched lines that later served a demand hit (first touch).
    pub prefetch_useful: u64,
}

impl CacheStats {
    /// Demand miss rate in `[0, 1]`; 0 for an untouched cache.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Accumulates another instance's counters (used to aggregate per-core
    /// L1s).
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.reads += other.reads;
        self.writes += other.writes;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.prefetch_fills += other.prefetch_fills;
        self.prefetch_useful += other.prefetch_useful;
    }
}

/// The tag of an invalid way. Lines are byte addresses divided by a line
/// size of at least 2 bytes ([`CacheConfig::new`] rejects 1), so no line
/// index is all ones.
const INVALID: u64 = u64::MAX;

/// [`Cache::flags`] bit: the line is dirty.
const DIRTY: u8 = 1;
/// [`Cache::flags`] bit: a prefetcher filled the line and no demand access
/// has hit it yet.
const PREFETCHED: u8 = 2;

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// The line was not resident; it has been filled. If a dirty victim
    /// was evicted its line index is reported for write-back.
    Miss {
        /// Dirty line evicted by the fill, if any.
        writeback: Option<u64>,
    },
}

impl AccessOutcome {
    /// `true` for [`AccessOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Parameters of a general demand access (see [`Cache::request`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRequest {
    /// Line index.
    pub line: u64,
    /// Counts as a write in the statistics.
    pub is_write: bool,
    /// Fill the line on a miss.
    pub allocate_on_miss: bool,
    /// Mark the line dirty on hit (and on fill, if allocating).
    pub mark_dirty: bool,
}

/// Result of [`Cache::request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestOutcome {
    /// The line was resident.
    pub hit: bool,
    /// A dirty victim evicted by an allocating miss.
    pub writeback: Option<u64>,
}

/// A set-associative cache over line indices.
///
/// Each set is a row of `assoc` consecutive ways in three parallel
/// vectors: the tag (the line index itself, `u64::MAX` when empty), the
/// LRU/FIFO stamp (0 for an invalid way) and the dirty/prefetched flags.
/// A lookup reads the tag row up to the line; a fill reads the stamp row
/// once to choose its way.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `num_sets - 1`, fixed at construction: `num_sets()` is a 64-bit
    /// division and every lookup needs the set index.
    set_mask: u64,
    assoc: usize,
    /// Depth of the PLRU tree: `log2(assoc)` for a power-of-two `assoc`.
    plru_levels: u32,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    flags: Vec<u8>,
    /// Per-set PLRU tree bits (assoc-1 bits packed in a u64).
    plru: Vec<u64>,
    counter: u64,
    rng: Rng,
    stats: CacheStats,
}

/// A line's set, where the set's row starts, and which of its ways holds
/// the line.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    set: usize,
    /// Index of the set's first way: `set * assoc`.
    base: usize,
    /// The way holding the line.
    hit: Option<usize>,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.num_sets();
        let ways = sets as usize * cfg.assoc as usize;
        Cache {
            cfg,
            set_mask: sets - 1,
            assoc: cfg.assoc as usize,
            plru_levels: cfg.assoc.trailing_zeros(),
            tags: vec![INVALID; ways],
            stamps: vec![0; ways],
            flags: vec![0; ways],
            plru: vec![0; sets as usize],
            counter: 0,
            rng: Rng::seed_from(0xCAC4E ^ cfg.size_bytes ^ (cfg.assoc as u64) << 40),
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Finds `line` in its set's tag row.
    #[inline]
    fn lookup(&self, line: u64) -> Lookup {
        debug_assert_ne!(line, INVALID, "line index {line:#x} is reserved");
        let set = (line & self.set_mask) as usize;
        let base = set * self.assoc;
        let hit = self.tags[base..base + self.assoc]
            .iter()
            .position(|&tag| tag == line);
        Lookup { set, base, hit }
    }

    /// Demand access with allocate-on-miss and write-back semantics
    /// (`is_write` marks the line dirty). Shorthand for [`Cache::request`].
    pub fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
        let out = self.request(AccessRequest {
            line,
            is_write,
            allocate_on_miss: true,
            mark_dirty: is_write,
        });
        if out.hit {
            AccessOutcome::Hit
        } else {
            AccessOutcome::Miss {
                writeback: out.writeback,
            }
        }
    }

    /// Demand access that does **not** allocate on miss (write-through
    /// no-allocate L1 behaviour for stores). Returns `true` on hit.
    pub fn access_no_allocate(&mut self, line: u64, is_write: bool) -> bool {
        self.request(AccessRequest {
            line,
            is_write,
            allocate_on_miss: false,
            mark_dirty: is_write,
        })
        .hit
    }

    /// Fully general demand access; the policy knobs compose the standard
    /// write policies (write-back = `mark_dirty`, write-through = `!mark_dirty`,
    /// write-allocate = `allocate_on_miss`).
    pub fn request(&mut self, req: AccessRequest) -> RequestOutcome {
        self.stats.accesses += 1;
        if req.is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let found = self.lookup(req.line);
        if let Some(w) = found.hit {
            self.stats.hits += 1;
            let i = found.base + w;
            if self.flags[i] & PREFETCHED != 0 {
                self.stats.prefetch_useful += 1;
            }
            self.flags[i] = (self.flags[i] & !PREFETCHED) | if req.mark_dirty { DIRTY } else { 0 };
            self.touch(found, w);
            return RequestOutcome {
                hit: true,
                writeback: None,
            };
        }
        self.stats.misses += 1;
        let writeback = if req.allocate_on_miss {
            self.fill(found, req.line, if req.mark_dirty { DIRTY } else { 0 })
        } else {
            None
        };
        RequestOutcome {
            hit: false,
            writeback,
        }
    }

    /// `true` if the line is resident (no state change, no stats).
    pub fn probe(&self, line: u64) -> bool {
        self.lookup(line).hit.is_some()
    }

    /// Fills a line from a prefetcher. Counts as a prefetch fill, not a
    /// demand access. Returns an evicted dirty line, if any. No-op (and
    /// `None`) if the line is already resident.
    pub fn prefetch_fill(&mut self, line: u64) -> Option<u64> {
        let found = self.lookup(line);
        if found.hit.is_some() {
            return None;
        }
        self.stats.prefetch_fills += 1;
        self.fill(found, line, PREFETCHED)
    }

    /// Fills a line after a demand miss handled externally (e.g. a miss
    /// that consulted the MSHR file first). Does not touch the demand
    /// counters — the miss was already counted by the lookup. Returns an
    /// evicted dirty line, if any; no-op if the line is already resident.
    pub fn demand_fill(&mut self, line: u64) -> Option<u64> {
        let found = self.lookup(line);
        if found.hit.is_some() {
            return None;
        }
        self.fill(found, line, 0)
    }

    /// Invalidates a line if resident; returns `true` if it was dirty.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let found = self.lookup(line);
        let Some(w) = found.hit else {
            return false;
        };
        let i = found.base + w;
        let dirty = self.flags[i] & DIRTY != 0;
        self.tags[i] = INVALID;
        self.stamps[i] = 0;
        self.flags[i] = 0;
        dirty
    }

    /// Updates recency state on a hit.
    #[inline]
    fn touch(&mut self, found: Lookup, way: usize) {
        match self.cfg.policy {
            ReplacementPolicy::Lru => {
                self.counter += 1;
                self.stamps[found.base + way] = self.counter;
            }
            ReplacementPolicy::Fifo | ReplacementPolicy::Random => {}
            ReplacementPolicy::PseudoLru => self.plru_touch(found.set, way),
        }
    }

    /// Allocates `line` in the set `found` missed it in, with `flags`,
    /// returning a dirty victim line if one was evicted.
    fn fill(&mut self, found: Lookup, line: u64, flags: u8) -> Option<u64> {
        let way = self.pick_way(found);
        let i = found.base + way;
        let mut writeback = None;
        if self.tags[i] != INVALID {
            self.stats.evictions += 1;
            if self.flags[i] & DIRTY != 0 {
                self.stats.writebacks += 1;
                writeback = Some(self.tags[i]);
            }
        }
        self.counter += 1;
        self.tags[i] = line;
        self.stamps[i] = self.counter;
        self.flags[i] = flags;
        if self.cfg.policy == ReplacementPolicy::PseudoLru {
            self.plru_touch(found.set, way);
        }
        writeback
    }

    /// The way a fill of `found`'s set takes: the lowest invalid way, else
    /// the policy's victim.
    ///
    /// A way's stamp is 0 exactly while it is invalid — fills and LRU hits
    /// stamp from a counter that is at least 1 — so the lowest invalid way
    /// is the first zero stamp and, under LRU and FIFO, also the first
    /// least stamp: one walk of the stamp row serves both.
    fn pick_way(&mut self, found: Lookup) -> usize {
        let stamps = &self.stamps[found.base..found.base + self.assoc];
        match self.cfg.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                let (mut way, mut least) = (0, stamps[0]);
                for (w, &stamp) in stamps.iter().enumerate().skip(1) {
                    if stamp < least {
                        (way, least) = (w, stamp);
                    }
                }
                way
            }
            ReplacementPolicy::Random => match stamps.iter().position(|&s| s == 0) {
                Some(way) => way,
                None => self.rng.gen_range(self.assoc as u64) as usize,
            },
            ReplacementPolicy::PseudoLru => match stamps.iter().position(|&s| s == 0) {
                Some(way) => way,
                None => self.plru_victim(found.set),
            },
        }
    }

    /// Walks the PLRU tree toward the pseudo-least-recent way.
    fn plru_victim(&self, set: usize) -> usize {
        let bits = self.plru[set];
        let mut node = 0usize; // root of implicit binary tree
        let mut way = 0usize;
        for _ in 0..self.plru_levels {
            let bit = (bits >> node) as usize & 1;
            way = (way << 1) | bit;
            node = 2 * node + 1 + bit;
        }
        way
    }

    /// Flips the PLRU tree bits away from the touched way.
    fn plru_touch(&mut self, set: usize, way: usize) {
        let mut bits = self.plru[set];
        let mut node = 0usize;
        for level in (0..self.plru_levels).rev() {
            let bit = (way >> level) & 1;
            // Point away from the visited child.
            bits = (bits & !(1 << node)) | ((bit as u64 ^ 1) << node);
            node = 2 * node + 1 + bit;
        }
        self.plru[set] = bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(size: u64, assoc: u32, line: u64, policy: ReplacementPolicy) -> CacheConfig {
        CacheConfig::new(size, assoc, line, policy).expect("valid config")
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::new(16 * 1024, 4, 128, ReplacementPolicy::Lru).is_ok());
        assert_eq!(
            CacheConfig::new(0, 4, 128, ReplacementPolicy::Lru),
            Err(ConfigError::Zero)
        );
        assert!(matches!(
            CacheConfig::new(16 * 1024, 4, 100, ReplacementPolicy::Lru),
            Err(ConfigError::LineNotPowerOfTwo { .. })
        ));
        assert!(matches!(
            CacheConfig::new(16 * 1024 + 128, 4, 128, ReplacementPolicy::Lru),
            Err(ConfigError::NotSetDivisible { .. })
        ));
        assert!(matches!(
            CacheConfig::new(128 * 3 * 4, 4, 128, ReplacementPolicy::Lru),
            Err(ConfigError::SetsNotPowerOfTwo { .. })
        ));
        // A 1-byte line would make the all-ones byte address a line index,
        // and that index is the tag of an empty way.
        assert_eq!(
            CacheConfig::new(1024, 4, 1, ReplacementPolicy::Lru),
            Err(ConfigError::LineTooSmall)
        );
        assert!(CacheConfig::new(1024, 4, 2, ReplacementPolicy::Lru).is_ok());
    }

    #[test]
    fn a_way_wider_than_u64_is_not_a_divisor() {
        // 3 × 2^63 wraps to 2^63, which would divide the capacity.
        assert!(matches!(
            CacheConfig::new(1 << 63, 3, 1 << 63, ReplacementPolicy::Lru),
            Err(ConfigError::NotSetDivisible { .. })
        ));
    }

    #[test]
    fn geometry() {
        let c = cfg(16 * 1024, 4, 128, ReplacementPolicy::Lru);
        assert_eq!(c.num_sets(), 32);
        assert_eq!(c.num_lines(), 128);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(cfg(1024, 2, 64, ReplacementPolicy::Lru));
        assert!(!c.access(5, false).is_hit());
        assert!(c.access(5, false).is_hit());
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 2 ways: lines must map to the same set.
        let mut c = Cache::new(cfg(128, 2, 64, ReplacementPolicy::Lru));
        c.access(0, false);
        c.access(1, false);
        c.access(0, false); // 0 is now MRU
        c.access(2, false); // evicts 1
        assert!(c.probe(0));
        assert!(!c.probe(1));
        assert!(c.probe(2));
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut c = Cache::new(cfg(128, 2, 64, ReplacementPolicy::Fifo));
        c.access(0, false);
        c.access(1, false);
        c.access(0, false); // hit must NOT refresh 0 under FIFO
        c.access(2, false); // evicts 0 (oldest insertion)
        assert!(!c.probe(0));
        assert!(c.probe(1));
        assert!(c.probe(2));
    }

    #[test]
    fn plru_victim_is_not_most_recent() {
        let mut c = Cache::new(cfg(512, 8, 64, ReplacementPolicy::PseudoLru));
        for l in 0..8 {
            c.access(l, false);
        }
        c.access(7, false); // make 7 clearly recent
        c.access(8, false); // eviction
        assert!(c.probe(7), "PLRU must not evict the most recently used way");
    }

    #[test]
    fn random_policy_is_deterministic_per_seed_and_valid() {
        let mut c = Cache::new(cfg(256, 4, 64, ReplacementPolicy::Random));
        for l in 0..100 {
            c.access(l, false);
        }
        assert_eq!(c.stats().accesses, 100);
        // 4 ways, 1 set: exactly 4 lines resident.
        let resident = (0..100).filter(|&l| c.probe(l)).count();
        assert_eq!(resident, 4);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = Cache::new(cfg(128, 2, 64, ReplacementPolicy::Lru));
        c.access(0, true); // dirty
        c.access(1, false);
        match c.access(2, false) {
            AccessOutcome::Miss {
                writeback: Some(line),
            } => assert_eq!(line, 0),
            other => panic!("expected dirty eviction of line 0, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = Cache::new(cfg(128, 2, 64, ReplacementPolicy::Lru));
        c.access(0, false);
        c.access(0, true); // dirty via write hit
        c.access(1, false);
        match c.access(2, false) {
            AccessOutcome::Miss { writeback } => assert_eq!(writeback, Some(0)),
            AccessOutcome::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn no_allocate_access_does_not_fill() {
        let mut c = Cache::new(cfg(128, 2, 64, ReplacementPolicy::Lru));
        assert!(!c.access_no_allocate(3, true));
        assert!(!c.probe(3));
        assert_eq!(c.stats().misses, 1);
        c.access(3, false);
        assert!(c.access_no_allocate(3, true));
    }

    #[test]
    fn prefetch_fill_and_usefulness() {
        let mut c = Cache::new(cfg(128, 2, 64, ReplacementPolicy::Lru));
        assert_eq!(c.prefetch_fill(9), None);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert!(c.probe(9));
        // Demand hit on the prefetched line counts as useful exactly once.
        assert!(c.access(9, false).is_hit());
        assert!(c.access(9, false).is_hit());
        assert_eq!(c.stats().prefetch_useful, 1);
        // Prefetching a resident line is a no-op.
        c.prefetch_fill(9);
        assert_eq!(c.stats().prefetch_fills, 1);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = Cache::new(cfg(128, 2, 64, ReplacementPolicy::Lru));
        c.access(0, true);
        c.access(1, false);
        assert!(c.invalidate(0));
        assert!(!c.invalidate(1)); // clean line
        assert!(!c.probe(0));
        assert!(!c.invalidate(42)); // absent line
    }

    #[test]
    fn set_indexing_separates_conflicts() {
        // 2 sets: even lines -> set 0, odd -> set 1.
        let mut c = Cache::new(cfg(256, 2, 64, ReplacementPolicy::Lru));
        c.access(0, false);
        c.access(2, false);
        c.access(4, false); // evicts 0 (same set), leaves odd set alone
        c.access(1, false);
        assert!(!c.probe(0));
        assert!(c.probe(1));
        assert!(c.probe(2));
        assert!(c.probe(4));
    }

    #[test]
    fn bigger_cache_misses_less() {
        let working_set: Vec<u64> = (0..64).collect();
        let mut small = Cache::new(cfg(1024, 4, 64, ReplacementPolicy::Lru)); // 16 lines
        let mut big = Cache::new(cfg(8192, 4, 64, ReplacementPolicy::Lru)); // 128 lines
        for _ in 0..10 {
            for &l in &working_set {
                small.access(l, false);
                big.access(l, false);
            }
        }
        assert!(big.stats().miss_rate() < small.stats().miss_rate());
        // The big cache holds the whole working set: only cold misses.
        assert_eq!(big.stats().misses, 64);
    }

    #[test]
    fn stats_merge() {
        let mut a = CacheStats {
            accesses: 10,
            hits: 6,
            misses: 4,
            ..Default::default()
        };
        let b = CacheStats {
            accesses: 10,
            hits: 10,
            misses: 0,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.accesses, 20);
        assert!((a.miss_rate() - 0.2).abs() < 1e-12);
    }
}
