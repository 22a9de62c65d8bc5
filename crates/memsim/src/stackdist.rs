//! Single-pass multi-configuration cache evaluation (Mattson stack
//! distances, plus a FIFO insertion-order variant and prefetch-fill
//! composition).
//!
//! The classic Mattson inclusion result: under true LRU with bit-selected
//! set indexing, the content of an `(S sets, a ways)` cache is exactly
//! the `a` most-recently-used lines of each set of an `(S, A)` cache for
//! any `A ≥ a`. So per distinct set count `S` the evaluator keeps one
//! per-set recency list capped at `A_max` (the largest associativity
//! sharing that set count); an access that hits at way-position `p` hits
//! every geometry of the class with associativity `> p`. One pass over
//! the access stream therefore yields exact hit/miss counts for an
//! arbitrary grid of LRU geometries sharing a line size — turning an
//! O(configs)-pass sweep into an O(line sizes)-pass sweep, at
//! O(set-count classes × A_max) work per access.
//!
//! Two write models are supported:
//!
//! - [`WriteMode::Allocate`] (write-back, write-allocate — the L2 in this
//!   hierarchy): writes allocate and touch recency exactly like reads, so
//!   the inclusion property holds unconditionally and the single pass is
//!   always exact.
//! - [`WriteMode::NoAllocate`] (write-through, no-allocate — the L1):
//!   a write's recency side-effect depends on whether it *hit*, which is
//!   geometry-dependent. Each write is classified per class during the
//!   pass:
//!   * absent from the class list → miss in every geometry of the class,
//!     no recency change (exact);
//!   * present at a position every associativity of the class covers →
//!     uniform hit, move to MRU (exact);
//!   * anything else is *divergent for that class*: inclusion breaks, so
//!     the class's geometries are transparently re-scored one at a time
//!     by the same pass. Alone in its class a geometry has `a_min ==
//!     a_max`, the divergence band is empty, and the recency list *is*
//!     that cache — the returned counts are **always** exact; divergence
//!     only costs speed, never correctness, and only for the affected
//!     class. [`replay_per_config`] through [`crate::cache::Cache`] is
//!     the independent reference the tests compare against.
//!
//! # Prefetch-fill composition
//!
//! [`evaluate_lru_prefetch_multi`] additionally merges a
//! [`PrefetchSchedule`] — per-access prefetch-fill candidates computed by
//! the caller (e.g. by replaying a [`crate::prefetch::StridePrefetcher`]
//! over the demand stream) — into the pass. A prefetch fill is a
//! *conditional* insert: it fills at MRU when the line is absent and is a
//! no-op when it is resident, exactly the probe-then-fill protocol of
//! `GpuHierarchy::l1_prefetch`. Per class it is classified like a
//! no-allocate store: absent everywhere → uniform fill, resident
//! everywhere → uniform skip, anything else → divergent, re-scored per
//! geometry.
//! A demand load that lands in the divergence band *while carrying
//! candidates* also diverges, because the hierarchy fills candidates
//! between the lookup and the demand fill: the relative insertion order
//! of the line and its candidates differs between hit- and
//! miss-geometries of the class.
//!
//! # Live stream prefetcher
//!
//! A prefetcher that trains on demand *misses* (the L2 stream
//! prefetcher, fig6d) sees a geometry-dependent input, so its candidates
//! cannot be precomputed as a schedule. [`replay_lru_stream_prefetch`]
//! runs it live against one geometry on the same recency-list rows:
//! locate, hit → rotate to front, miss → insert, then conditional
//! candidate fills.
//!
//! # FIFO insertion order
//!
//! FIFO is **not** a stack algorithm (Bélády's anomaly: a larger FIFO
//! cache can miss where a smaller one hits), so no unconditional
//! inclusion argument exists. What does hold: FIFO hits never change
//! replacement state, so as long as every allocating access either
//! misses *every* geometry of a set-count class (uniform insert) or hits
//! every one of them (uniform no-op), all geometries of the class insert
//! the same line sequence and an `a`-way FIFO set holds exactly the `a`
//! newest insertions — the top-`a` prefix of one insertion-ordered class
//! list. [`evaluate_fifo_multi`] runs that pass and, the moment an
//! allocating access hits only part of a class (the insertion sequences
//! would fork), marks the class divergent and re-scores its geometries
//! one at a time — same fallback contract as the LRU path. No-allocate
//! stores never modify FIFO state (hits do not touch, misses do not
//! insert), so under the write-through L1 model they never diverge.

use crate::cache::{Cache, CacheConfig, CacheStats, ReplacementPolicy};
use crate::prefetch::{StreamPrefetcher, StreamPrefetcherConfig};
use gmap_trace::batch::LANES;
use std::error::Error;
use std::fmt;

/// One demand access in a post-coalescing **line-index** stream (byte
/// address divided by the group's shared line size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineAccess {
    /// Line index (byte address / line size).
    pub line: u64,
    /// Store (`true`) or load (`false`).
    pub is_write: bool,
}

impl LineAccess {
    /// Convenience constructor.
    pub fn new(line: u64, is_write: bool) -> Self {
        LineAccess { line, is_write }
    }
}

/// How the evaluated cache level treats stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Write-back, write-allocate: stores allocate and touch recency like
    /// loads. Single-pass evaluation is unconditionally exact.
    Allocate,
    /// Write-through, no-allocate: stores never allocate; a store that
    /// hits touches recency. Divergent stores trigger an internal exact
    /// fallback (see module docs).
    NoAllocate,
}

/// Per-access prefetch-fill candidates for a demand stream, flattened
/// into one shared buffer. `for_access(i)` are the candidate lines the
/// prefetcher emitted for stream access `i`, in issue order — the
/// hierarchy fills them after the demand lookup and before the demand
/// fill, and that is exactly where the evaluators replay them.
#[derive(Debug, Clone)]
pub struct PrefetchSchedule {
    /// `offsets[i]..offsets[i + 1]` indexes `lines` for access `i`.
    offsets: Vec<usize>,
    /// Flattened candidate line indices.
    lines: Vec<u64>,
}

impl Default for PrefetchSchedule {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefetchSchedule {
    /// An empty schedule covering zero accesses.
    pub fn new() -> Self {
        PrefetchSchedule {
            offsets: vec![0],
            lines: Vec::new(),
        }
    }

    /// Appends the candidate list of the next access.
    pub fn push(&mut self, candidates: &[u64]) {
        self.lines.extend_from_slice(candidates);
        self.offsets.push(self.lines.len());
    }

    /// Resets to an empty schedule, keeping the allocations. Bulk
    /// replays derive one schedule per prefetcher config over
    /// multi-million access streams and reuse a single buffer.
    pub fn clear(&mut self) {
        self.lines.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// Number of accesses covered.
    pub fn num_accesses(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total candidate count across all accesses.
    pub fn total_candidates(&self) -> usize {
        self.lines.len()
    }

    /// Candidate lines of access `i`.
    pub fn for_access(&self, i: usize) -> &[u64] {
        &self.lines[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Exact demand counters for one evaluated geometry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeomCounts {
    /// Demand accesses.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Load accesses.
    pub reads: u64,
    /// Store accesses.
    pub writes: u64,
}

impl From<&CacheStats> for GeomCounts {
    /// The demand counters of a [`Cache`] that replayed the stream.
    fn from(s: &CacheStats) -> Self {
        GeomCounts {
            accesses: s.accesses,
            hits: s.hits,
            misses: s.misses,
            reads: s.reads,
            writes: s.writes,
        }
    }
}

impl GeomCounts {
    /// Accumulates another counter set (e.g. the same geometry evaluated
    /// over several per-core streams).
    pub fn merge(&mut self, other: &GeomCounts) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.reads += other.reads;
        self.writes += other.writes;
    }

    /// Demand miss rate in `[0, 1]`; 0 for an untouched geometry.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Result of [`evaluate_lru_multi`] and friends.
#[derive(Debug, Clone)]
pub struct MultiEvalResult {
    /// Per-geometry counters, aligned with the input `configs` slice.
    pub counts: Vec<GeomCounts>,
    /// `true` if a divergent access forced the per-geometry re-score of
    /// at least one set-count class; unaffected classes keep their
    /// single-pass counts.
    pub fell_back: bool,
}

/// Error constructing a multi-configuration evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackDistError {
    /// The config list was empty.
    NoConfigs,
    /// A config's replacement policy is not LRU (LRU evaluators).
    NotLru {
        /// Index of the offending config.
        index: usize,
    },
    /// A config's replacement policy is not FIFO ([`evaluate_fifo_multi`]).
    NotFifo {
        /// Index of the offending config.
        index: usize,
    },
    /// Configs do not share a single line size.
    MixedLineSizes {
        /// The first line size seen.
        expected: u64,
        /// The conflicting line size.
        found: u64,
    },
}

impl fmt::Display for StackDistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackDistError::NoConfigs => f.write_str("no cache configs to evaluate"),
            StackDistError::NotLru { index } => {
                write!(
                    f,
                    "config {index} is not LRU; single-pass evaluation requires LRU"
                )
            }
            StackDistError::NotFifo { index } => {
                write!(
                    f,
                    "config {index} is not FIFO; the FIFO evaluator requires FIFO"
                )
            }
            StackDistError::MixedLineSizes { expected, found } => write!(
                f,
                "configs must share one line size (saw {expected} and {found})"
            ),
        }
    }
}

impl Error for StackDistError {}

/// One distinct set-count class shared by one or more geometries: the
/// per-set ordered contents of the widest cache of the class. Under LRU
/// the order is recency (MRU first); under FIFO it is insertion age
/// (newest first). Either way, while the class stays uniform the top `a`
/// entries of each set are exactly the contents of the class's `a`-way
/// geometry.
struct SetClass {
    /// `num_sets - 1`, the set-index mask.
    mask: u64,
    /// Largest associativity among geometries with this set count.
    a_max: usize,
    /// Smallest associativity among geometries with this set count — an
    /// access whose state effect depends on hitting at or beyond this
    /// way-position diverges.
    a_min: usize,
    /// Divergence hit this class; its geometries will be re-scored.
    dirty: bool,
    /// `num_sets × stride` recency-ordered line slots (way-position 0 =
    /// MRU). Both layouts keep the same ordering and the same
    /// `rotate_right` updates; they differ only in row width and scan
    /// kernel.
    lines: Vec<u64>,
    /// Live entries per set.
    occ: Vec<u32>,
    /// Chunked scan layout (rows wider than one vector): rows are padded
    /// to a whole number of [`LANES`] and located with an 8-lane match
    /// mask per chunk. The per-chunk early exit preserves the list scan's
    /// O(1) cost on the shallow hits GPU streams are dominated by,
    /// while misses compare a whole chunk per vector op instead of one
    /// element per iteration.
    chunked: bool,
    /// Per-set row width: `a_max` in the list layout,
    /// `a_max.next_multiple_of(LANES)` in the chunked layout. Slots at
    /// positions `>= occ` are dead — all zero, since evictions
    /// overwrite in place and the padding tail is never written — and
    /// both scan kernels reject them by occupancy.
    stride: usize,
}

impl SetClass {
    /// An unallocated class of `sets` sets holding one `assoc`-way
    /// geometry; [`single_pass`] widens `a_max` / `a_min` as further
    /// geometries join, then calls [`SetClass::allocate`].
    fn new(sets: u64, assoc: usize) -> Self {
        SetClass {
            mask: sets - 1,
            a_max: assoc,
            a_min: assoc,
            dirty: false,
            lines: Vec::new(),
            occ: Vec::new(),
            chunked: false,
            stride: 0,
        }
    }

    /// Picks the row layout and allocates the empty recency arrays.
    /// Chunked scanning only pays once a row spans more than one
    /// vector: an `a_max <= LANES` row is at most one compare either
    /// way, while padding it to a full chunk would inflate the recency
    /// arrays (8x for direct-mapped classes — enough to push fig6b's
    /// 64k-set classes out of the host cache).
    fn allocate(&mut self) {
        let sets = (self.mask + 1) as usize;
        self.chunked = self.a_max > LANES;
        self.stride = if self.chunked {
            self.a_max.next_multiple_of(LANES)
        } else {
            self.a_max
        };
        self.lines = vec![0; sets * self.stride];
        self.occ = vec![0; sets];
    }

    /// Way-position of `line` within its set, or [`ABSENT`].
    fn locate(&self, line: u64) -> usize {
        let set = (line & self.mask) as usize;
        let base = set * self.stride;
        let occ = self.occ[set] as usize;
        if self.chunked {
            // 8-lane match scan in recency order: each chunk ORs eight
            // branch-free equality tests into a match mask. Entries are
            // ordered and unique, so the first match is the answer —
            // unless it lands in the dead tail (`>= occ`, all zero),
            // in which case every later match is deeper in the tail
            // and the line is absent. The per-chunk exit keeps shallow
            // hits as cheap as the list scan; the occupancy bound
            // stops a miss from touching padding-only chunks.
            let row = &self.lines[base..base + self.stride];
            let mut off = 0usize;
            for c in row.chunks_exact(LANES) {
                if off >= occ {
                    break;
                }
                let mut m = 0u32;
                for (lane, &l) in c.iter().enumerate() {
                    m |= u32::from(l == line) << lane;
                }
                if m != 0 {
                    let pos = off + m.trailing_zeros() as usize;
                    return if pos < occ { pos } else { ABSENT };
                }
                off += LANES;
            }
            ABSENT
        } else {
            self.lines[base..base + occ]
                .iter()
                .position(|&l| l == line)
                .unwrap_or(ABSENT)
        }
    }

    /// Moves the entry at way-position `pos` of `line`'s set to the front.
    fn rotate_to_front(&mut self, line: u64, pos: usize) {
        let base = (line & self.mask) as usize * self.stride;
        self.lines[base..=base + pos].rotate_right(1);
    }

    /// Inserts `line` at the front of its set, evicting the set's last
    /// entry if the widest cache is full.
    fn insert_front(&mut self, line: u64) {
        let set = (line & self.mask) as usize;
        let base = set * self.stride;
        let n = self.occ[set] as usize;
        if n < self.a_max {
            self.occ[set] += 1;
        }
        let end = (n + 1).min(self.a_max);
        self.lines[base..base + end].rotate_right(1);
        self.lines[base] = line;
    }

    /// Applies the conditional prefetch fills of one access: absent
    /// everywhere → insert at front, resident everywhere → skip, resident
    /// in only part of the class → divergent (marks the class dirty and
    /// stops).
    fn apply_prefetches(&mut self, cands: &[u64]) {
        for &cand in cands {
            match self.locate(cand) {
                q if q == ABSENT => self.insert_front(cand),
                q if q < self.a_min => {}
                _ => {
                    self.dirty = true;
                    return;
                }
            }
        }
    }

    /// The demand fill of a line that missed the whole class *before* the
    /// candidate fills ran. A candidate equal to the demand line may have
    /// just inserted it, and `Cache::demand_fill` is a no-op on resident
    /// lines (no recency touch) — so re-locate instead of inserting
    /// unconditionally: absent everywhere → insert, resident everywhere →
    /// skip, resident in only part of the class → divergent.
    fn demand_fill_after_prefetches(&mut self, line: u64, cands: &[u64]) {
        if !cands.is_empty() {
            match self.locate(line) {
                q if q == ABSENT => {}
                q if q < self.a_min => return,
                _ => {
                    self.dirty = true;
                    return;
                }
            }
        }
        self.insert_front(line);
    }
}

/// Per-geometry view onto the set classes.
struct GeomView {
    /// Index into the set-class table.
    class: usize,
    /// Associativity.
    assoc: usize,
}

/// Which single-pass variant a class list models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PassPolicy {
    /// Recency order; hits rotate to MRU.
    Lru,
    /// Insertion order; hits never touch state.
    Fifo,
}

/// Evaluate every LRU geometry in `configs` (which must share one line
/// size) over `stream` in a single pass. Returns exact per-geometry
/// demand counters — identical to replaying each config through
/// [`Cache`] with the matching write policy.
///
/// # Errors
///
/// Returns [`StackDistError`] if `configs` is empty, mixes line sizes, or
/// contains a non-LRU policy.
pub fn evaluate_lru_multi(
    configs: &[CacheConfig],
    stream: &[LineAccess],
    mode: WriteMode,
) -> Result<MultiEvalResult, StackDistError> {
    evaluate(configs, stream, None, mode, PassPolicy::Lru)
}

/// Like [`evaluate_lru_multi`], but additionally replays the per-access
/// prefetch-fill candidates of `schedule` in hierarchy order (demand
/// lookup → candidate fills → demand fill). Exact for every geometry —
/// divergent classes are re-scored per geometry internally.
///
/// # Panics
///
/// Panics if `schedule` does not cover exactly `stream.len()` accesses.
///
/// # Errors
///
/// Returns [`StackDistError`] if `configs` is empty, mixes line sizes, or
/// contains a non-LRU policy.
pub fn evaluate_lru_prefetch_multi(
    configs: &[CacheConfig],
    stream: &[LineAccess],
    schedule: &PrefetchSchedule,
    mode: WriteMode,
) -> Result<MultiEvalResult, StackDistError> {
    assert_eq!(
        schedule.num_accesses(),
        stream.len(),
        "prefetch schedule must cover the demand stream"
    );
    evaluate(configs, stream, Some(schedule), mode, PassPolicy::Lru)
}

/// Evaluate every FIFO geometry in `configs` (which must share one line
/// size) over `stream` in a single insertion-order pass, re-scoring
/// geometry by geometry any set-count class where the insertion
/// sequences would fork (see module docs — FIFO is not a stack
/// algorithm). Counts are always exact.
///
/// # Errors
///
/// Returns [`StackDistError`] if `configs` is empty, mixes line sizes, or
/// contains a non-FIFO policy.
pub fn evaluate_fifo_multi(
    configs: &[CacheConfig],
    stream: &[LineAccess],
    mode: WriteMode,
) -> Result<MultiEvalResult, StackDistError> {
    evaluate(configs, stream, None, mode, PassPolicy::Fifo)
}

/// Replays `stream` through one LRU geometry with a live
/// [`StreamPrefetcher`] attached and returns the exact demand counters —
/// `GpuHierarchy::l2_demand` on the recency-list kernel. Every access
/// allocates (the L2 is write-back write-allocate, so stores fill and
/// train like loads); the prefetcher observes each demand *miss* after
/// its fill, and each candidate is filled at MRU unless resident. That
/// is `Cache::request` with allocation followed by probe-then-
/// `prefetch_fill`, in the same order.
///
/// The prefetcher trains on misses, which depend on the geometry, so
/// unlike [`evaluate_lru_prefetch_multi`] there is no shared candidate
/// schedule and no multi-geometry pass: one call is one configuration.
/// With one geometry the class has `a_min == a_max`, so nothing can
/// diverge and the replay never leaves the kernel.
///
/// # Panics
///
/// Panics if `pf_cfg` has a zero field (see [`StreamPrefetcher::new`]).
///
/// # Errors
///
/// Returns [`StackDistError::NotLru`] if `config` is not LRU.
pub fn replay_lru_stream_prefetch(
    config: &CacheConfig,
    stream: &[LineAccess],
    pf_cfg: StreamPrefetcherConfig,
) -> Result<GeomCounts, StackDistError> {
    validate_configs(std::slice::from_ref(config), PassPolicy::Lru)?;
    let mut class = SetClass::new(config.num_sets(), config.assoc as usize);
    class.allocate();
    let mut pf = StreamPrefetcher::new(pf_cfg);
    let mut cands = Vec::new();
    let mut hits = 0u64;
    for acc in stream {
        match class.locate(acc.line) {
            ABSENT => {
                class.insert_front(acc.line);
                pf.observe_into(acc.line, &mut cands);
                class.apply_prefetches(&cands);
            }
            pos => {
                hits += 1;
                class.rotate_to_front(acc.line, pos);
            }
        }
    }
    debug_assert!(!class.dirty, "a one-geometry class has no divergence band");
    let accesses = stream.len() as u64;
    let writes = count_stream_writes(stream);
    Ok(GeomCounts {
        accesses,
        hits,
        misses: accesses - hits,
        reads: accesses - writes,
        writes,
    })
}

fn evaluate(
    configs: &[CacheConfig],
    stream: &[LineAccess],
    schedule: Option<&PrefetchSchedule>,
    mode: WriteMode,
    policy: PassPolicy,
) -> Result<MultiEvalResult, StackDistError> {
    validate_configs(configs, policy)?;
    let (mut counts, dirty) = single_pass(configs, stream, schedule, mode, policy);
    // Re-score only the geometries whose set-count class diverged, one
    // at a time; the rest keep their (exact) single-pass counts. Alone in
    // its class a geometry has `a_min == a_max`: the divergence band is
    // empty, so the same pass is exact and cannot go dirty again.
    for &i in &dirty {
        let (alone, still_dirty) = single_pass(&configs[i..=i], stream, schedule, mode, policy);
        assert!(
            still_dirty.is_empty(),
            "a one-geometry class has no divergence band"
        );
        counts[i] = alone[0];
    }
    Ok(MultiEvalResult {
        counts,
        fell_back: !dirty.is_empty(),
    })
}

fn validate_configs(configs: &[CacheConfig], policy: PassPolicy) -> Result<(), StackDistError> {
    let first = configs.first().ok_or(StackDistError::NoConfigs)?;
    for (i, c) in configs.iter().enumerate() {
        match policy {
            PassPolicy::Lru if c.policy != ReplacementPolicy::Lru => {
                return Err(StackDistError::NotLru { index: i });
            }
            PassPolicy::Fifo if c.policy != ReplacementPolicy::Fifo => {
                return Err(StackDistError::NotFifo { index: i });
            }
            _ => {}
        }
        if c.line_size != first.line_size {
            return Err(StackDistError::MixedLineSizes {
                expected: first.line_size,
                found: c.line_size,
            });
        }
    }
    Ok(())
}

/// Sentinel way-position for "line absent from this class".
const ABSENT: usize = usize::MAX;

/// The shared single pass. Returns per-geometry counts plus the indices
/// of configs whose set-count class hit a divergent access (their counts
/// are garbage and must be recomputed, each alone in its class).
///
/// Counting is one histogram bump per access per *set-count class* —
/// `pos_hist[class][min(pos, a_max)] += 1`, where bucket `a_max` means
/// "absent". A view of associativity `a` then hits exactly the accesses
/// bucketed below `a`, so per-view hit counts fall out of an
/// `O(configs × a_max)` prefix-sum epilogue, and reads/writes are
/// counted once for the whole stream instead of once per view.
fn single_pass(
    configs: &[CacheConfig],
    stream: &[LineAccess],
    schedule: Option<&PrefetchSchedule>,
    mode: WriteMode,
    policy: PassPolicy,
) -> (Vec<GeomCounts>, Vec<usize>) {
    // Build the distinct set-count classes and per-geometry views.
    let mut classes: Vec<SetClass> = Vec::new();
    let mut views: Vec<GeomView> = Vec::with_capacity(configs.len());
    for cfg in configs {
        let sets = cfg.num_sets();
        let assoc = cfg.assoc as usize;
        let class = match classes.iter().position(|c| c.mask == sets - 1) {
            Some(i) => {
                classes[i].a_max = classes[i].a_max.max(assoc);
                classes[i].a_min = classes[i].a_min.min(assoc);
                i
            }
            None => {
                classes.push(SetClass::new(sets, assoc));
                classes.len() - 1
            }
        };
        views.push(GeomView { class, assoc });
    }
    let uniform_writes = mode == WriteMode::Allocate;
    for class in classes.iter_mut() {
        class.allocate();
    }
    // Reused per-access scratch: the line's way-position per class.
    let mut positions = vec![ABSENT; classes.len()];
    // Per-class way-position histogram, bucket `min(pos, a_max)` (bucket
    // a_max = absent). Flattened with one `a_max + 1`-wide row per class.
    let hist_stride = classes.iter().map(|c| c.a_max).max().unwrap_or(0) + 1;
    let mut pos_hist = vec![0u64; classes.len() * hist_stride];

    for (i, acc) in stream.iter().enumerate() {
        // Phase 1: locate the line in each class's widest cache.
        for (pos, class) in positions.iter_mut().zip(classes.iter()) {
            *pos = if class.dirty {
                ABSENT
            } else {
                class.locate(acc.line)
            };
        }

        // Phase 2: count, one bump per class. A way-position `p` hits
        // every geometry of the class with associativity > p; the
        // per-view expansion happens in the epilogue below. (Dirty-class
        // counts are garbage and get overwritten by the per-geometry
        // re-score.)
        for (ci, (&pos, class)) in positions.iter().zip(classes.iter()).enumerate() {
            pos_hist[ci * hist_stride + pos.min(class.a_max)] += 1;
        }

        // Phase 3: update replacement state per class.
        let cands = schedule.map_or(&[][..], |s| s.for_access(i));
        for (&pos, class) in positions.iter().zip(classes.iter_mut()) {
            if class.dirty {
                continue;
            }
            match policy {
                PassPolicy::Lru => update_lru(class, acc, pos, cands, uniform_writes),
                PassPolicy::Fifo => update_fifo(class, acc, pos, cands, uniform_writes),
            }
        }
    }

    // Epilogue: expand the class histograms into per-view counters.
    // Reads/writes are stream-level facts, identical for every view.
    let n = stream.len() as u64;
    let writes = count_stream_writes(stream);
    let counts = views
        .iter()
        .map(|view| {
            let row = &pos_hist[view.class * hist_stride..(view.class + 1) * hist_stride];
            let hits: u64 = row[..view.assoc.min(row.len())].iter().sum();
            GeomCounts {
                accesses: n,
                hits,
                misses: n - hits,
                reads: n - writes,
                writes,
            }
        })
        .collect();

    let dirty: Vec<usize> = views
        .iter()
        .enumerate()
        .filter(|(_, v)| classes[v.class].dirty)
        .map(|(i, _)| i)
        .collect();
    (counts, dirty)
}

/// Store count of a demand stream, 8 lanes at a time (branch-free lane
/// body; `is_write` contributes 0 or 1 per lane).
fn count_stream_writes(stream: &[LineAccess]) -> u64 {
    let mut acc = [0u64; LANES];
    let mut chunks = stream.chunks_exact(LANES);
    for c in &mut chunks {
        for lane in 0..LANES {
            acc[lane] += u64::from(c[lane].is_write);
        }
    }
    acc.iter().sum::<u64>() + chunks.remainder().iter().filter(|a| a.is_write).count() as u64
}

/// LRU state update for one access against one class.
fn update_lru(class: &mut SetClass, acc: &LineAccess, pos: usize, cands: &[u64], alloc_w: bool) {
    if acc.is_write {
        // Demand-store effect first (prefetchers in this hierarchy only
        // trigger on loads, but keep the write-then-candidates order in
        // lockstep with `replay_per_config_prefetch` for generality).
        if pos != ABSENT {
            if alloc_w || pos < class.a_min {
                // Uniform recency touch: every geometry of the class that
                // holds the line moves it to MRU, and (for allocating
                // stores) the rest re-allocate it at MRU — either way the
                // class list rotates to front.
                class.rotate_to_front(acc.line, pos);
            } else {
                // No-allocate store hitting some ways of the class but
                // not all: LRU inclusion breaks for this class.
                class.dirty = true;
                return;
            }
        } else if alloc_w {
            class.insert_front(acc.line);
        }
        // A no-allocate store that misses the whole class touches
        // nothing — exact.
        class.apply_prefetches(cands);
    } else if pos == ABSENT {
        // Cold/evicted load, miss in every geometry: the hierarchy fills
        // prefetch candidates between the lookup and the demand fill.
        class.apply_prefetches(cands);
        if !class.dirty {
            class.demand_fill_after_prefetches(acc.line, cands);
        }
    } else if pos < class.a_min {
        // Hit everywhere: touch, then candidate fills land above.
        class.rotate_to_front(acc.line, pos);
        class.apply_prefetches(cands);
    } else if cands.is_empty() {
        // Load in the divergence band with no candidates stays uniform:
        // hit-geometries touch to MRU, miss-geometries refill at MRU —
        // the class list rotates to front either way.
        class.rotate_to_front(acc.line, pos);
    } else {
        // Load in the divergence band *with* candidates: hit-geometries
        // order the line below its candidates, miss-geometries above.
        class.dirty = true;
    }
}

/// FIFO state update for one access against one class.
fn update_fifo(class: &mut SetClass, acc: &LineAccess, pos: usize, cands: &[u64], alloc_w: bool) {
    if acc.is_write && !alloc_w {
        // No-allocate store: FIFO hits do not touch and misses do not
        // insert — no geometry changes state, whatever `pos` is.
        class.apply_prefetches(cands);
    } else if acc.is_write {
        // Allocating store, same uniformity condition as a load.
        if pos == ABSENT {
            class.insert_front(acc.line);
        } else if pos >= class.a_min {
            class.dirty = true;
            return;
        }
        class.apply_prefetches(cands);
    } else if pos == ABSENT {
        // Miss everywhere: every geometry inserts, in hierarchy order
        // (candidate fills before the demand fill).
        class.apply_prefetches(cands);
        if !class.dirty {
            class.demand_fill_after_prefetches(acc.line, cands);
        }
    } else if pos < class.a_min {
        // Hit everywhere: FIFO hits leave the queue untouched.
        class.apply_prefetches(cands);
    } else {
        // Hit in the wide geometries, miss-and-insert in the narrow
        // ones: the insertion sequences fork — Bélády territory.
        class.dirty = true;
    }
}

/// Exact per-configuration replay through [`Cache`] — the reference the
/// single pass is tested against (no evaluator calls it). The
/// replacement policy comes from each config.
pub fn replay_per_config(
    configs: &[CacheConfig],
    stream: &[LineAccess],
    mode: WriteMode,
) -> Vec<GeomCounts> {
    replay_per_config_prefetch(configs, stream, None, mode)
}

/// [`replay_per_config`] with per-access prefetch-fill candidates,
/// mirroring `GpuHierarchy`'s L1 path: demand lookup, then conditional
/// candidate fills, then the demand fill of a missing line.
pub fn replay_per_config_prefetch(
    configs: &[CacheConfig],
    stream: &[LineAccess],
    schedule: Option<&PrefetchSchedule>,
    mode: WriteMode,
) -> Vec<GeomCounts> {
    use crate::cache::AccessRequest;
    configs
        .iter()
        .map(|cfg| {
            let mut cache = Cache::new(*cfg);
            for (i, acc) in stream.iter().enumerate() {
                let cands = schedule.map_or(&[][..], |s| s.for_access(i));
                if acc.is_write {
                    match mode {
                        WriteMode::NoAllocate => {
                            cache.access_no_allocate(acc.line, true);
                        }
                        WriteMode::Allocate => {
                            cache.access(acc.line, true);
                        }
                    }
                    for &cand in cands {
                        cache.prefetch_fill(cand);
                    }
                } else {
                    let hit = cache
                        .request(AccessRequest {
                            line: acc.line,
                            is_write: false,
                            allocate_on_miss: false,
                            mark_dirty: false,
                        })
                        .hit;
                    // `prefetch_fill` is a no-op on resident lines —
                    // exactly the probe-then-fill the hierarchy does.
                    for &cand in cands {
                        cache.prefetch_fill(cand);
                    }
                    if !hit {
                        cache.demand_fill(acc.line);
                    }
                }
            }
            GeomCounts::from(cache.stats())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru(size: u64, assoc: u32, line: u64) -> CacheConfig {
        CacheConfig::new(size, assoc, line, ReplacementPolicy::Lru).expect("valid config")
    }

    fn fifo(size: u64, assoc: u32, line: u64) -> CacheConfig {
        CacheConfig::new(size, assoc, line, ReplacementPolicy::Fifo).expect("valid config")
    }

    /// A small deterministic mixed-locality stream.
    fn synth_stream(len: usize, span: u64, write_every: usize) -> Vec<LineAccess> {
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..len)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Mix strided and random reuse.
                let line = if i % 3 == 0 {
                    (i as u64 / 3) % span
                } else {
                    state % span
                };
                LineAccess {
                    line,
                    is_write: write_every > 0 && i % write_every == 0,
                }
            })
            .collect()
    }

    /// A stride-heavy schedule: every fourth load carries two sequential
    /// candidates, the way a trained stride prefetcher would.
    fn synth_schedule(stream: &[LineAccess]) -> PrefetchSchedule {
        let mut sched = PrefetchSchedule::new();
        for (i, acc) in stream.iter().enumerate() {
            if !acc.is_write && i % 4 == 0 {
                sched.push(&[acc.line + 1, acc.line + 2]);
            } else {
                sched.push(&[]);
            }
        }
        sched
    }

    #[test]
    fn validation_rejects_bad_groups() {
        assert_eq!(
            evaluate_lru_multi(&[], &[], WriteMode::Allocate).unwrap_err(),
            StackDistError::NoConfigs
        );
        let a = lru(1024, 2, 64);
        let b = lru(1024, 2, 128);
        assert!(matches!(
            evaluate_lru_multi(&[a, b], &[], WriteMode::Allocate).unwrap_err(),
            StackDistError::MixedLineSizes { .. }
        ));
        let f = fifo(1024, 2, 64);
        assert!(matches!(
            evaluate_lru_multi(&[a, f], &[], WriteMode::Allocate).unwrap_err(),
            StackDistError::NotLru { index: 1 }
        ));
        assert!(matches!(
            evaluate_fifo_multi(&[f, a], &[], WriteMode::Allocate).unwrap_err(),
            StackDistError::NotFifo { index: 1 }
        ));
        assert_eq!(
            evaluate_fifo_multi(&[], &[], WriteMode::Allocate).unwrap_err(),
            StackDistError::NoConfigs
        );
    }

    #[test]
    fn read_only_matches_replay_across_grid() {
        let configs = [
            lru(512, 1, 64), // direct-mapped
            lru(512, 8, 64), // fully associative (1 set)
            lru(1024, 2, 64),
            lru(4096, 4, 64),
            lru(8192, 16, 64),
        ];
        let stream = synth_stream(4000, 300, 0);
        let result = evaluate_lru_multi(&configs, &stream, WriteMode::Allocate).unwrap();
        assert!(!result.fell_back);
        let reference = replay_per_config(&configs, &stream, WriteMode::Allocate);
        assert_eq!(result.counts, reference);
    }

    #[test]
    fn allocate_mode_with_writes_is_single_pass_and_exact() {
        let configs = [lru(512, 2, 64), lru(2048, 4, 64), lru(8192, 8, 64)];
        let stream = synth_stream(4000, 250, 3);
        let result = evaluate_lru_multi(&configs, &stream, WriteMode::Allocate).unwrap();
        assert!(!result.fell_back, "write-allocate must never diverge");
        assert_eq!(
            result.counts,
            replay_per_config(&configs, &stream, WriteMode::Allocate)
        );
    }

    #[test]
    fn no_allocate_writes_stay_exact_even_when_divergent() {
        let configs = [lru(256, 1, 64), lru(512, 2, 64), lru(4096, 4, 64)];
        let stream = synth_stream(4000, 200, 4);
        let result = evaluate_lru_multi(&configs, &stream, WriteMode::NoAllocate).unwrap();
        assert_eq!(
            result.counts,
            replay_per_config(&configs, &stream, WriteMode::NoAllocate)
        );
    }

    #[test]
    fn divergent_store_triggers_fallback() {
        // Two single-set geometries with 1 and 2 ways. Load a then b:
        // stack is [b, a]. A store to `a` hits the 2-way cache but misses
        // the 1-way one — divergent by construction.
        let configs = [lru(64, 1, 64), lru(128, 2, 64)];
        let stream = vec![
            LineAccess::new(0, false),
            LineAccess::new(1, false),
            LineAccess::new(0, true),
        ];
        let result = evaluate_lru_multi(&configs, &stream, WriteMode::NoAllocate).unwrap();
        assert!(result.fell_back);
        assert_eq!(
            result.counts,
            replay_per_config(&configs, &stream, WriteMode::NoAllocate)
        );
    }

    #[test]
    fn saturated_walk_still_restacks_loads() {
        // 1-set 1-way cache: a load to a deep line saturates instantly,
        // but the load must still move the line to MRU.
        let configs = [lru(64, 1, 64)];
        let stream = vec![
            LineAccess::new(0, false),
            LineAccess::new(1, false),
            LineAccess::new(0, false), // deep hit walk, saturates, restacks
            LineAccess::new(0, false), // must now be a hit
        ];
        let result = evaluate_lru_multi(&configs, &stream, WriteMode::NoAllocate).unwrap();
        assert_eq!(
            result.counts,
            replay_per_config(&configs, &stream, WriteMode::NoAllocate)
        );
        assert_eq!(result.counts[0].hits, 1);
    }

    #[test]
    fn counts_track_reads_and_writes() {
        let configs = [lru(1024, 4, 64)];
        let stream = synth_stream(1000, 100, 5);
        let expected_writes = stream.iter().filter(|a| a.is_write).count() as u64;
        let result = evaluate_lru_multi(&configs, &stream, WriteMode::Allocate).unwrap();
        let c = &result.counts[0];
        assert_eq!(c.accesses, 1000);
        assert_eq!(c.writes, expected_writes);
        assert_eq!(c.reads, 1000 - expected_writes);
        assert_eq!(c.hits + c.misses, c.accesses);
        assert!(c.miss_rate() > 0.0 && c.miss_rate() <= 1.0);
    }

    #[test]
    fn prefetch_schedule_round_trips() {
        let mut s = PrefetchSchedule::new();
        assert_eq!(s.num_accesses(), 0);
        s.push(&[1, 2]);
        s.push(&[]);
        s.push(&[9]);
        assert_eq!(s.num_accesses(), 3);
        assert_eq!(s.total_candidates(), 3);
        assert_eq!(s.for_access(0), &[1, 2]);
        assert_eq!(s.for_access(1), &[] as &[u64]);
        assert_eq!(s.for_access(2), &[9]);
    }

    #[test]
    #[should_panic(expected = "cover the demand stream")]
    fn prefetch_schedule_must_cover_stream() {
        let configs = [lru(1024, 4, 64)];
        let stream = synth_stream(10, 8, 0);
        let sched = PrefetchSchedule::new();
        let _ = evaluate_lru_prefetch_multi(&configs, &stream, &sched, WriteMode::Allocate);
    }

    #[test]
    fn prefetched_lru_matches_replay_across_grid() {
        for write_every in [0, 5] {
            for mode in [WriteMode::Allocate, WriteMode::NoAllocate] {
                let configs = [
                    lru(256, 1, 64),
                    lru(512, 2, 64),
                    lru(1024, 4, 64),
                    lru(4096, 4, 64),
                    lru(4096, 16, 64),
                ];
                let stream = synth_stream(3000, 220, write_every);
                let sched = synth_schedule(&stream);
                assert!(sched.total_candidates() > 0);
                let result = evaluate_lru_prefetch_multi(&configs, &stream, &sched, mode).unwrap();
                assert_eq!(
                    result.counts,
                    replay_per_config_prefetch(&configs, &stream, Some(&sched), mode),
                    "write_every={write_every} mode={mode:?}"
                );
            }
        }
    }

    #[test]
    fn divergent_prefetch_triggers_fallback_and_stays_exact() {
        // [b, a] in the 2-way cache, [b] in the 1-way one; a prefetch of
        // `a` is a no-op in the former and a fill in the latter.
        let configs = [lru(64, 1, 64), lru(128, 2, 64)];
        let stream = vec![
            LineAccess::new(0, false),
            LineAccess::new(1, false),
            LineAccess::new(7, false), // carries the divergent candidate
        ];
        let mut sched = PrefetchSchedule::new();
        sched.push(&[]);
        sched.push(&[]);
        sched.push(&[0]);
        let result =
            evaluate_lru_prefetch_multi(&configs, &stream, &sched, WriteMode::NoAllocate).unwrap();
        assert!(result.fell_back);
        assert_eq!(
            result.counts,
            replay_per_config_prefetch(&configs, &stream, Some(&sched), WriteMode::NoAllocate)
        );
    }

    #[test]
    fn fifo_matches_replay_across_grid() {
        for write_every in [0, 4] {
            for mode in [WriteMode::Allocate, WriteMode::NoAllocate] {
                let configs = [
                    fifo(256, 1, 64),
                    fifo(512, 2, 64),
                    fifo(1024, 4, 64),
                    fifo(2048, 8, 64),
                    fifo(4096, 4, 64),
                ];
                let stream = synth_stream(4000, 200, write_every);
                let result = evaluate_fifo_multi(&configs, &stream, mode).unwrap();
                assert_eq!(
                    result.counts,
                    replay_per_config(&configs, &stream, mode),
                    "write_every={write_every} mode={mode:?}"
                );
            }
        }
    }

    #[test]
    fn fifo_belady_anomaly_forces_fallback_but_stays_exact() {
        // The classic FIFO anomaly string over 3- and 4-way single-set
        // caches: the insertion sequences fork, so the class must fall
        // back — and the counts must still match per-config replay
        // (which exhibits the anomaly).
        let configs = [fifo(3 * 64, 3, 64), fifo(4 * 64, 4, 64)];
        let refs = [1u64, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5];
        let stream: Vec<LineAccess> = refs.iter().map(|&l| LineAccess::new(l, false)).collect();
        let result = evaluate_fifo_multi(&configs, &stream, WriteMode::Allocate).unwrap();
        assert!(result.fell_back, "the anomaly string must diverge");
        let reference = replay_per_config(&configs, &stream, WriteMode::Allocate);
        assert_eq!(result.counts, reference);
        assert!(
            reference[1].misses > reference[0].misses,
            "Bélády's anomaly: the larger FIFO cache misses more"
        );
    }

    #[test]
    fn fifo_no_allocate_stores_never_dirty_a_class() {
        // Same construction that forces the LRU divergent-store fallback;
        // under FIFO a no-allocate store changes nothing anywhere.
        let configs = [fifo(64, 1, 64), fifo(128, 2, 64)];
        let stream = vec![
            LineAccess::new(0, false),
            LineAccess::new(1, false),
            LineAccess::new(0, true),
        ];
        let result = evaluate_fifo_multi(&configs, &stream, WriteMode::NoAllocate).unwrap();
        assert!(!result.fell_back, "FIFO state ignores no-allocate stores");
        assert_eq!(
            result.counts,
            replay_per_config(&configs, &stream, WriteMode::NoAllocate)
        );
    }

    #[test]
    fn fifo_uniform_single_geometry_never_falls_back() {
        // One geometry per set count: a_min == a_max, so the divergence
        // band is empty and the pass stays single-pass by construction.
        let configs = [fifo(1024, 4, 64), fifo(2048, 4, 64)];
        let stream = synth_stream(3000, 300, 6);
        let result = evaluate_fifo_multi(&configs, &stream, WriteMode::NoAllocate).unwrap();
        assert!(!result.fell_back);
        assert_eq!(
            result.counts,
            replay_per_config(&configs, &stream, WriteMode::NoAllocate)
        );
    }
}
