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
//! every geometry of the class with associativity `> p`. One pass of
//! each class over the access stream therefore yields exact hit/miss
//! counts for an arbitrary grid of LRU geometries sharing a line size —
//! turning an O(configs)-pass sweep into an O(set-count classes)-pass
//! sweep, at O(A_max) work per access and class.
//!
//! # Class-major passes and forks
//!
//! The evaluator runs one set-count class over the whole stream, then
//! the next, each with its own way-position histogram. An access whose
//! effect on the class's state depends on the geometry — it hits the
//! members wider than some way-position `p` and misses the rest, with
//! `a_min ≤ p < a_max` — is *divergent*, and the class **forks** there:
//!
//! - the members with more than `p` ways (all hit) keep the rows and
//!   raise `a_min`;
//! - the members with at most `p` ways (all miss) take a copy of the
//!   rows cut to their own `a_max`.
//!
//! By the invariant above — the top `a` entries of a row are the
//! contents of the `a`-way cache — each part holds exactly its members'
//! state. Both copy the histogram prefix and resume at the divergent
//! access, which is now uniform for each of them. A class of `k`
//! geometries forks at most `k − 1` times, so no access is scored more
//! than `k` times per class, and a one-geometry part (`a_min == a_max`)
//! has an empty divergence band: the returned counts are **always**
//! exact, and divergence only costs speed. [`replay_per_config`] through
//! [`crate::cache::Cache`] is the independent reference the tests
//! compare against.
//!
//! # Row layouts
//!
//! A class of up to 16 ways keeps each set in a fixed-width row of `W`
//! slots, `W` the smallest power of two `≥ a_max`, and its loop is
//! monomorphized over `W` and compiled once per policy. A lookup is a
//! full-row match mask ANDed with the set's occupancy mask (line 0 is a
//! valid line, so no slot value can mean "empty"); an update writes the
//! line in front and shifts slots `0..e` down one, as a blend of the
//! old row — `e` is the hit's way-position, or the last live slot on an
//! insert. Both are the row kernels of the `row` module: on x86-64 with
//! AVX-512F and VL, rows of 4, 8 and 16 slots take one vector compare
//! per 8 slots for the lookup, and one lane shift, blend and store per
//! 8 slots for the update; elsewhere a portable kernel, which the tests
//! diff the fast one against. A lookup followed by its update reads the
//! row once. Wider classes pad their rows to whole [`LANES`] chunks and
//! scan chunk by chunk with an early exit. Plain passes, scheduled
//! prefetch passes and [`replay_lru_stream_prefetch`] all run on these
//! rows.
//!
//! # Write models
//!
//! - [`WriteMode::Allocate`] (write-back, write-allocate — the L2 in this
//!   hierarchy): writes allocate and touch recency exactly like reads, so
//!   the inclusion property holds unconditionally and no class forks.
//! - [`WriteMode::NoAllocate`] (write-through, no-allocate — the L1):
//!   a write's recency side-effect depends on whether it *hit*, which is
//!   geometry-dependent. Each write is classified per class:
//!   * absent from the class list → miss in every geometry of the class,
//!     no recency change;
//!   * present at a position every associativity of the class covers →
//!     uniform hit, move to MRU;
//!   * anything else is divergent and forks the class.
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
//! everywhere → uniform skip, anything else → divergent.
//! A demand load that lands in the divergence band *while carrying
//! candidates* also diverges, because the hierarchy fills candidates
//! between the lookup and the demand fill: the relative insertion order
//! of the line and its candidates differs between hit- and
//! miss-geometries of the class. A candidate can diverge after the
//! access has already changed rows (the demand touch, earlier
//! candidates), so an access that carries candidates saves the at most
//! `1 + |candidates|` rows it may change before it runs, and a fork
//! restores them first: both parts resume from the state before the
//! access.
//!
//! # Live stream prefetcher
//!
//! A prefetcher that trains on demand *misses* (the L2 stream
//! prefetcher, fig6d) sees a geometry-dependent input, so its candidates
//! cannot be precomputed as a schedule. [`replay_lru_stream_prefetch`]
//! runs it live against one geometry on the same rows: locate, hit →
//! move to front, miss → insert, then conditional candidate fills.
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
//! newest insertions — the top-`a` prefix of one insertion-ordered list
//! per set-count class. [`evaluate_fifo_multi`] runs that pass and, at
//! an allocating access that hits only part of a class (the insertion
//! sequences would fork), forks the class exactly like the LRU path.
//! No-allocate stores never modify FIFO state (hits do not touch, misses
//! do not insert), so under the write-through L1 model they never
//! diverge.

use crate::cache::{Cache, CacheConfig, CacheStats, ReplacementPolicy};
use crate::prefetch::{StreamPrefetcher, StreamPrefetcherConfig};
use gmap_trace::batch::LANES;
use std::error::Error;
use std::fmt;
use std::ops::Range;

mod row;

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
    /// hits touches recency. A store that hits only part of a set-count
    /// class forks the class (see module docs); counts stay exact.
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
    /// `true` if a divergent access forked at least one set-count class
    /// (see module docs). Counts are exact either way; a fork only
    /// re-scores the forked class's accesses from that access on.
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

/// Sentinel way-position for "line absent from this class".
const ABSENT: usize = usize::MAX;

/// Widest class kept on fixed-width rows; wider ones take the chunked
/// scan.
const MAX_FIXED: usize = 16;

/// The row-kernel parameter `W` of the chunked layout. The fixed-width
/// kernels take `W` = their row width (1, 2, 4, 8 or 16).
const CHUNKED: usize = 0;

/// Calls `f::<W>(args)` with `W` the row kernel of `width`
/// ([`SetClass::width`]): one monomorphized class loop per fixed row
/// width, plus the chunked scan.
macro_rules! with_width {
    ($width:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $width {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            4 => $f::<4>($($arg),*),
            8 => $f::<8>($($arg),*),
            16 => $f::<16>($($arg),*),
            _ => $f::<CHUNKED>($($arg),*),
        }
    };
}

/// One set-count class — or, after a fork, the part of one that holds a
/// contiguous range of its associativities: the per-set ordered contents
/// of its widest cache. Under LRU the order is recency (MRU first);
/// under FIFO it is insertion age (newest first). Either way the top `a`
/// entries of each set are exactly the contents of the part's `a`-way
/// geometry.
///
/// The methods taking `W` run the row kernel [`SetClass::width`] names;
/// `with_width!` picks it once per class loop. They are
/// `#[inline(always)]` so that each class loop compiles to one function
/// per `W`: a call per access costs more than the row work itself.
struct SetClass {
    /// `num_sets - 1`, the set-index mask.
    mask: u64,
    /// Smallest associativity of the part — an access whose state effect
    /// depends on hitting at or beyond this way-position diverges.
    a_min: usize,
    /// Largest associativity of the part: the row capacity.
    a_max: usize,
    /// Per-set row width: the smallest power of two `>= a_max` up to
    /// [`MAX_FIXED`] ways, `a_max.next_multiple_of(LANES)` above: fewer
    /// than `a_max` padding slots per fixed-width row, fewer than
    /// [`LANES`] per chunked one, and none for a direct-mapped class
    /// (fig6b's widest folded class is 8,192 sets of one way).
    stride: usize,
    /// `num_sets × stride` ordered line slots (way-position 0 = MRU or
    /// newest). Slots at positions `>= occ` hold stale lines; every
    /// lookup rejects them by occupancy.
    lines: Vec<u64>,
    /// Live entries per set.
    occ: Vec<u32>,
}

impl SetClass {
    /// An empty class of `sets` sets holding the geometries of `a_min`
    /// through `a_max` ways.
    fn new(sets: u64, a_min: usize, a_max: usize) -> Self {
        let stride = if a_max <= MAX_FIXED {
            a_max.next_power_of_two()
        } else {
            a_max.next_multiple_of(LANES)
        };
        SetClass {
            mask: sets - 1,
            a_min,
            a_max,
            stride,
            lines: vec![0; sets as usize * stride],
            occ: vec![0; sets as usize],
        }
    }

    /// The row kernel: the row width for fixed-width rows, [`CHUNKED`]
    /// above [`MAX_FIXED`] ways.
    fn width(&self) -> usize {
        if self.a_max <= MAX_FIXED {
            self.stride
        } else {
            CHUNKED
        }
    }

    /// The miss side of a fork: the members of `a_min` through `a_max`
    /// ways (`a_max` below this part's), on a copy of the rows cut to
    /// `a_max` entries — by the inclusion invariant, exactly their
    /// contents.
    fn truncated(&self, a_min: usize, a_max: usize) -> SetClass {
        let mut part = SetClass::new(self.mask + 1, a_min, a_max);
        for (set, occ) in part.occ.iter_mut().enumerate() {
            let n = (self.occ[set] as usize).min(a_max);
            *occ = n as u32;
            part.lines[set * part.stride..][..n]
                .copy_from_slice(&self.lines[set * self.stride..][..n]);
        }
        part
    }

    /// Way-position of `line` within its set, or [`ABSENT`].
    #[inline(always)]
    fn locate<const W: usize>(&self, line: u64) -> usize {
        let set = (line & self.mask) as usize;
        let occ = self.occ[set] as usize;
        if W == CHUNKED {
            // 8-lane match scan in order: each chunk ORs eight
            // branch-free equality tests into a match mask. Entries are
            // ordered and unique, so the first match is the answer —
            // unless it lands at or past `occ`, in which case no live
            // slot matched and the line is absent. The per-chunk exit
            // keeps shallow hits cheap; the occupancy bound stops a miss
            // from touching chunks without live slots.
            let row = &self.lines[set * self.stride..][..self.stride];
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
            row::find(&self.lines.as_chunks::<W>().0[set], line, occ)
        }
    }

    /// Writes `line` at way-position 0 of `set` and shifts slots `0..e`
    /// down one.
    #[inline(always)]
    fn shift_in<const W: usize>(&mut self, set: usize, line: u64, e: usize) {
        if W == CHUNKED {
            let row = &mut self.lines[set * self.stride..][..=e];
            row.rotate_right(1);
            row[0] = line;
        } else {
            row::shift_in(&mut self.lines.as_chunks_mut::<W>().0[set], line, e);
        }
    }

    /// Moves `line` to way-position 0 of its set: from `pos` on a hit,
    /// or — `pos` = [`ABSENT`] — as an insert that evicts the last entry
    /// of a full row. Both are one shift, so hits and misses take the
    /// same branch-free path.
    #[inline(always)]
    fn move_to_front<const W: usize>(&mut self, line: u64, pos: usize) {
        let set = (line & self.mask) as usize;
        let n = self.occ[set] as usize;
        let absent = pos == ABSENT;
        let e = if absent { n.min(self.a_max - 1) } else { pos };
        // The row before the occupancy: with no store between the
        // `locate` that read the row and this shift, the two compile to
        // one row load, the set index computed once. The occupancy is
        // written only when it grows — a branch that stops being taken
        // once a set fills — so the next access to the set does not wait
        // on a store of the same value.
        self.shift_in::<W>(set, line, e);
        if absent && n < self.a_max {
            self.occ[set] += 1;
        }
    }

    /// Applies the conditional prefetch fills of one access: absent
    /// everywhere → insert at front, resident everywhere → skip, resident
    /// in only part of the class → divergent at the candidate's
    /// way-position.
    #[inline(always)]
    fn apply_prefetches<const W: usize>(&mut self, cands: &[u64]) -> Result<(), usize> {
        for &cand in cands {
            match self.locate::<W>(cand) {
                ABSENT => self.move_to_front::<W>(cand, ABSENT),
                q if q < self.a_min => {}
                q => return Err(q),
            }
        }
        Ok(())
    }

    /// The demand fill of a line that missed the whole class *before* the
    /// candidate fills ran. A candidate equal to the demand line may have
    /// just inserted it, and `Cache::demand_fill` is a no-op on resident
    /// lines (no recency touch) — so re-locate instead of inserting
    /// unconditionally: absent everywhere → insert, resident everywhere →
    /// skip, resident in only part of the class → divergent.
    #[inline(always)]
    fn demand_fill_after_prefetches<const W: usize>(
        &mut self,
        line: u64,
        cands: &[u64],
    ) -> Result<(), usize> {
        if !cands.is_empty() {
            match self.locate::<W>(line) {
                ABSENT => {}
                q if q < self.a_min => return Ok(()),
                q => return Err(q),
            }
        }
        self.move_to_front::<W>(line, ABSENT);
        Ok(())
    }
}

/// The rows one access may change — its demand line's set and each
/// candidate's set — saved before it runs, so that a divergence found
/// after a change can be undone.
#[derive(Default)]
struct Journal {
    /// `(set, occ)` per saved row, in save order; the row copies follow
    /// in `lines`.
    saved: Vec<(usize, u32)>,
    lines: Vec<u64>,
}

impl Journal {
    /// Saves the rows `line` and `cands` map to, dropping the last save.
    fn save(&mut self, class: &SetClass, line: u64, cands: &[u64]) {
        self.saved.clear();
        self.lines.clear();
        for l in std::iter::once(line).chain(cands.iter().copied()) {
            let set = (l & class.mask) as usize;
            self.saved.push((set, class.occ[set]));
            self.lines
                .extend_from_slice(&class.lines[set * class.stride..][..class.stride]);
        }
    }

    /// Restores the saved rows. Every copy predates the access, so a set
    /// saved twice is restored twice to the same row.
    fn undo(&self, class: &mut SetClass) {
        let rows = self.lines.chunks_exact(class.stride);
        for (&(set, occ), row) in self.saved.iter().zip(rows) {
            class.lines[set * class.stride..][..class.stride].copy_from_slice(row);
            class.occ[set] = occ;
        }
    }
}

/// Per-access prefetch-fill candidates as the pass reads them: a
/// [`PrefetchSchedule`], or none at all for plain passes, which then
/// compile without the candidate and undo paths.
trait Candidates {
    /// Candidate lines of access `i`.
    fn for_access(&self, i: usize) -> &[u64];
}

impl Candidates for PrefetchSchedule {
    fn for_access(&self, i: usize) -> &[u64] {
        PrefetchSchedule::for_access(self, i)
    }
}

/// The candidates of a pass without a prefetcher.
struct NoCandidates;

impl Candidates for NoCandidates {
    fn for_access(&self, _: usize) -> &[u64] {
        &[]
    }
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
/// divergent classes fork internally.
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
/// size) over `stream` in a single insertion-order pass per set-count
/// class, forking a class where the insertion sequences of its
/// geometries part (see module docs — FIFO is not a stack algorithm).
/// Counts are always exact.
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
/// `GpuHierarchy::l2_demand` on the evaluator's row kernels. Every
/// access allocates (the L2 is write-back write-allocate, so stores fill
/// and train like loads); the prefetcher observes each demand *miss*
/// after its fill, and each candidate is filled at MRU unless resident.
/// That is `Cache::request` with allocation followed by probe-then-
/// `prefetch_fill`, in the same order.
///
/// The prefetcher trains on misses, which depend on the geometry, so
/// unlike [`evaluate_lru_prefetch_multi`] there is no shared candidate
/// schedule and no multi-geometry pass: one call is one configuration.
/// With one geometry the class has `a_min == a_max`, so nothing can
/// diverge.
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
    let assoc = config.assoc as usize;
    let mut class = SetClass::new(config.num_sets(), assoc, assoc);
    let hits = with_width!(
        class.width(),
        stream_prefetch_rows(&mut class, stream, pf_cfg)
    );
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

/// The loop of [`replay_lru_stream_prefetch`] on row kernel `W`; returns
/// the hit count.
fn stream_prefetch_rows<const W: usize>(
    class: &mut SetClass,
    stream: &[LineAccess],
    pf_cfg: StreamPrefetcherConfig,
) -> u64 {
    let mut pf = StreamPrefetcher::new(pf_cfg);
    let mut cands = Vec::new();
    let mut hits = 0u64;
    for acc in stream {
        match class.locate::<W>(acc.line) {
            ABSENT => {
                class.move_to_front::<W>(acc.line, ABSENT);
                pf.observe_into(acc.line, &mut cands);
                class
                    .apply_prefetches::<W>(&cands)
                    .expect("a one-geometry class has no divergence band");
            }
            pos => {
                hits += 1;
                class.move_to_front::<W>(acc.line, pos);
            }
        }
    }
    hits
}

/// Validates the group and runs the class-major pass.
fn evaluate(
    configs: &[CacheConfig],
    stream: &[LineAccess],
    schedule: Option<&PrefetchSchedule>,
    mode: WriteMode,
    policy: PassPolicy,
) -> Result<MultiEvalResult, StackDistError> {
    validate_configs(configs, policy)?;
    Ok(single_pass(configs, stream, schedule, mode, policy))
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

/// A class part waiting to run or running: its rows, the range of the
/// class's sorted associativities it holds, the access it resumes at,
/// and its way-position histogram — bucket `min(pos, a_max)`, where
/// bucket `a_max` means "absent".
struct Part {
    class: SetClass,
    members: Range<usize>,
    from: usize,
    hist: Vec<u64>,
}

/// The class-major pass: per-geometry counts, and whether any class
/// forked.
///
/// Each class runs over the whole stream with one histogram bump per
/// access; a fork at access `i` leaves two parts that both resume at
/// `i` from a copy of the histogram prefix. A geometry of associativity
/// `a` then hits exactly the accesses its final part bucketed below
/// `a`, and reads/writes are counted once for the whole stream.
fn single_pass(
    configs: &[CacheConfig],
    stream: &[LineAccess],
    schedule: Option<&PrefetchSchedule>,
    mode: WriteMode,
    policy: PassPolicy,
) -> MultiEvalResult {
    // Distinct set counts, each with its sorted distinct associativities.
    let mut classes: Vec<(u64, Vec<usize>)> = Vec::new();
    for cfg in configs {
        let sets = cfg.num_sets();
        match classes.iter_mut().find(|(s, _)| *s == sets) {
            Some((_, assocs)) => assocs.push(cfg.assoc as usize),
            None => classes.push((sets, vec![cfg.assoc as usize])),
        }
    }
    let mut hits = vec![0u64; configs.len()];
    let mut fell_back = false;
    for (sets, assocs) in &mut classes {
        assocs.sort_unstable();
        assocs.dedup();
        let a_max = assocs[assocs.len() - 1];
        let mut parts = vec![Part {
            class: SetClass::new(*sets, assocs[0], a_max),
            members: 0..assocs.len(),
            from: 0,
            hist: vec![0; a_max + 1],
        }];
        while let Some(mut part) = parts.pop() {
            let (class, hist, from) = (&mut part.class, &mut part.hist, part.from);
            let fork = match schedule {
                Some(s) => with_width!(
                    class.width(),
                    run_part(class, hist, from, stream, s, mode, policy)
                ),
                None => with_width!(
                    class.width(),
                    run_part(class, hist, from, stream, &NoCandidates, mode, policy)
                ),
            };
            let Some((i, p)) = fork else {
                // Finished: expand the histogram into its members' hits.
                let (lo, hi) = (assocs[part.members.start], part.class.a_max);
                for (h, cfg) in hits.iter_mut().zip(configs) {
                    let a = cfg.assoc as usize;
                    if cfg.num_sets() == *sets && (lo..=hi).contains(&a) {
                        *h = part.hist[..a].iter().sum();
                    }
                }
                continue;
            };
            fell_back = true;
            let cut =
                part.members.start + assocs[part.members.clone()].partition_point(|&a| a <= p);
            let (miss_min, miss_max) = (assocs[part.members.start], assocs[cut - 1]);
            let mut hist = part.hist[..=miss_max].to_vec();
            hist[miss_max] = part.hist[miss_max..].iter().sum();
            parts.push(Part {
                class: part.class.truncated(miss_min, miss_max),
                members: part.members.start..cut,
                from: i,
                hist,
            });
            part.class.a_min = assocs[cut];
            part.members.start = cut;
            part.from = i;
            parts.push(part);
        }
    }

    // Reads/writes are stream-level facts, identical for every geometry.
    let n = stream.len() as u64;
    let writes = count_stream_writes(stream);
    let counts = hits
        .into_iter()
        .map(|hits| GeomCounts {
            accesses: n,
            hits,
            misses: n - hits,
            reads: n - writes,
            writes,
        })
        .collect();
    MultiEvalResult { counts, fell_back }
}

/// [`run_rows`], compiled once per policy: the loop of each is its own
/// function.
#[inline(never)]
fn run_part<const W: usize>(
    class: &mut SetClass,
    hist: &mut [u64],
    from: usize,
    stream: &[LineAccess],
    schedule: &impl Candidates,
    mode: WriteMode,
    policy: PassPolicy,
) -> Option<(usize, usize)> {
    match policy {
        PassPolicy::Lru => {
            run_rows::<W>(class, hist, from, stream, schedule, mode, PassPolicy::Lru)
        }
        PassPolicy::Fifo => {
            run_rows::<W>(class, hist, from, stream, schedule, mode, PassPolicy::Fifo)
        }
    }
}

/// Runs one class part on row kernel `W` from access `from` to the end
/// of the stream. Returns `Some((i, p))` if access `i` diverges at
/// way-position `p`, with the rows restored to their state before `i`
/// and the histogram covering accesses before `i`.
#[inline(always)]
fn run_rows<const W: usize>(
    class: &mut SetClass,
    hist: &mut [u64],
    from: usize,
    stream: &[LineAccess],
    schedule: &impl Candidates,
    mode: WriteMode,
    policy: PassPolicy,
) -> Option<(usize, usize)> {
    let alloc_w = mode == WriteMode::Allocate;
    let mut journal = Journal::default();
    for (i, acc) in stream.iter().enumerate().skip(from) {
        let cands = schedule.for_access(i);
        // Without candidates every divergence is found before the first
        // change, and a one-member part never diverges: only the rest
        // can have a change to undo.
        let journaled = !cands.is_empty() && class.a_min < class.a_max;
        if journaled {
            journal.save(class, acc.line, cands);
        }
        let pos = class.locate::<W>(acc.line);
        let step = match policy {
            PassPolicy::Lru => update_lru::<W>(class, acc, pos, cands, alloc_w),
            PassPolicy::Fifo => update_fifo::<W>(class, acc, pos, cands, alloc_w),
        };
        if let Err(p) = step {
            if journaled {
                journal.undo(class);
            }
            return Some((i, p));
        }
        // A way-position `p` hits every member with more than `p` ways.
        hist[pos.min(class.a_max)] += 1;
    }
    None
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

/// LRU state update for one access against one class part; `Err(p)` is
/// a divergence at way-position `p`.
#[inline(always)]
fn update_lru<const W: usize>(
    class: &mut SetClass,
    acc: &LineAccess,
    pos: usize,
    cands: &[u64],
    alloc_w: bool,
) -> Result<(), usize> {
    if cands.is_empty() && (alloc_w || !acc.is_write) {
        // A load, or a store that allocates, without candidates: hit or
        // miss, in the divergence band or not, every geometry ends with
        // the line at MRU, so the class list moves it to the front.
        class.move_to_front::<W>(acc.line, pos);
        Ok(())
    } else if acc.is_write {
        // Demand-store effect first (prefetchers in this hierarchy only
        // trigger on loads, but keep the write-then-candidates order in
        // lockstep with `replay_per_config_prefetch` for generality).
        if pos != ABSENT && !alloc_w && pos >= class.a_min {
            // No-allocate store hitting some ways of the class but not
            // all: LRU inclusion breaks for this class.
            return Err(pos);
        }
        if pos != ABSENT || alloc_w {
            // Uniform recency touch: every geometry of the class that
            // holds the line moves it to MRU, and (for allocating
            // stores) the rest allocate it at MRU. A no-allocate store
            // that misses the whole class touches nothing.
            class.move_to_front::<W>(acc.line, pos);
        }
        class.apply_prefetches::<W>(cands)
    } else if pos == ABSENT {
        // Cold/evicted load, miss in every geometry: the hierarchy fills
        // prefetch candidates between the lookup and the demand fill.
        class.apply_prefetches::<W>(cands)?;
        class.demand_fill_after_prefetches::<W>(acc.line, cands)
    } else if pos < class.a_min {
        // Hit everywhere: touch, then candidate fills land above.
        class.move_to_front::<W>(acc.line, pos);
        class.apply_prefetches::<W>(cands)
    } else {
        // Load in the divergence band *with* candidates: hit-geometries
        // order the line below its candidates, miss-geometries above.
        Err(pos)
    }
}

/// FIFO state update for one access against one class part; `Err(p)` is
/// a divergence at way-position `p`.
#[inline(always)]
fn update_fifo<const W: usize>(
    class: &mut SetClass,
    acc: &LineAccess,
    pos: usize,
    cands: &[u64],
    alloc_w: bool,
) -> Result<(), usize> {
    if acc.is_write && !alloc_w {
        // No-allocate store: FIFO hits do not touch and misses do not
        // insert — no geometry changes state, whatever `pos` is.
        class.apply_prefetches::<W>(cands)
    } else if acc.is_write {
        // Allocating store, same uniformity condition as a load.
        if pos == ABSENT {
            class.move_to_front::<W>(acc.line, ABSENT);
        } else if pos >= class.a_min {
            return Err(pos);
        }
        class.apply_prefetches::<W>(cands)
    } else if pos == ABSENT {
        // Miss everywhere: every geometry inserts, in hierarchy order
        // (candidate fills before the demand fill).
        class.apply_prefetches::<W>(cands)?;
        class.demand_fill_after_prefetches::<W>(acc.line, cands)
    } else if pos < class.a_min {
        // Hit everywhere: FIFO hits leave the queue untouched.
        class.apply_prefetches::<W>(cands)
    } else {
        // Hit in the wide geometries, miss-and-insert in the narrow
        // ones: the insertion sequences fork — Bélády territory.
        Err(pos)
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
    fn a_fresh_class_misses_on_line_0() {
        // Untouched slots hold 0, which is also a valid line: only the
        // occupancy tells them apart. Every row kernel — 1 to 16 slots
        // and the chunked scan — must miss line 0 first and then hit it.
        let stream = [LineAccess::new(0, false), LineAccess::new(0, false)];
        let expected = GeomCounts {
            accesses: 2,
            hits: 1,
            misses: 1,
            reads: 2,
            writes: 0,
        };
        for assoc in [1, 2, 3, 4, 8, 16, 24] {
            for sets in [1, 4] {
                let size = sets * u64::from(assoc) * 64;
                for mode in [WriteMode::Allocate, WriteMode::NoAllocate] {
                    let got = evaluate_lru_multi(&[lru(size, assoc, 64)], &stream, mode).unwrap();
                    assert_eq!(got.counts, [expected], "LRU {sets}x{assoc}");
                    let got = evaluate_fifo_multi(&[fifo(size, assoc, 64)], &stream, mode).unwrap();
                    assert_eq!(got.counts, [expected], "FIFO {sets}x{assoc}");
                }
                let pf = StreamPrefetcherConfig {
                    num_streams: 1,
                    window: 4,
                    degree: 1,
                };
                let got = replay_lru_stream_prefetch(&lru(size, assoc, 64), &stream, pf).unwrap();
                assert_eq!(got, expected, "stream prefetch {sets}x{assoc}");
            }
        }
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
                assert!(!sched.lines.is_empty());
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
    fn stores_fork_a_three_geometry_class_twice() {
        // One set, 1/2/4 ways. Loads 0, 1, 2 leave [2, 1, 0]. A store to
        // 1 (depth 1) hits the 2- and 4-way caches and misses the 1-way
        // one: the class forks into {1} and {2, 4}. The store moves 1 to
        // MRU in {2, 4}, leaving [1, 2, 0]; a store to 0 (depth 2) then
        // hits only the 4-way cache and forks {2, 4} into {2} and {4}.
        let configs = [lru(64, 1, 64), lru(128, 2, 64), lru(256, 4, 64)];
        let stream: Vec<LineAccess> = [(0, false), (1, false), (2, false), (1, true)]
            .into_iter()
            .chain([(0, true), (2, false), (0, false), (1, false), (3, false)])
            .chain([(2, false), (0, false), (1, true), (1, false)])
            .map(|(l, w)| LineAccess::new(l, w))
            .collect();
        let result = evaluate_lru_multi(&configs, &stream, WriteMode::NoAllocate).unwrap();
        assert!(result.fell_back, "both stores fork");
        let reference = replay_per_config(&configs, &stream, WriteMode::NoAllocate);
        assert_eq!(result.counts, reference);
        // The three geometries see three different hit counts.
        assert!(reference[0].hits < reference[1].hits && reference[1].hits < reference[2].hits);
    }

    #[test]
    fn fifo_belady_string_forks_over_three_geometries() {
        // The anomaly string over 2-, 3- and 4-way single-set FIFO
        // caches: each fork splits off one geometry.
        let configs = [
            fifo(2 * 64, 2, 64),
            fifo(3 * 64, 3, 64),
            fifo(4 * 64, 4, 64),
        ];
        let refs = [1u64, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5];
        let stream: Vec<LineAccess> = refs.iter().map(|&l| LineAccess::new(l, false)).collect();
        let result = evaluate_fifo_multi(&configs, &stream, WriteMode::Allocate).unwrap();
        assert!(result.fell_back);
        let reference = replay_per_config(&configs, &stream, WriteMode::Allocate);
        assert_eq!(result.counts, reference);
        assert!(
            reference[2].misses > reference[1].misses,
            "Bélády's anomaly"
        );
    }

    #[test]
    fn a_candidate_diverging_after_an_insert_is_undone_before_the_fork() {
        // One set, 1 and 2 ways. Loads 0, 1 leave [1, 0]. Access 2 loads
        // 1 (a uniform hit) with candidates [5, 1]: candidate 5 is absent
        // everywhere and is inserted, leaving [5, 1]; candidate 1 is then
        // resident in the 2-way cache only, so the access diverges after
        // it has changed the rows. The fork must resume both parts from
        // [1, 0]: the 1-way cache ends the access holding [1] and the
        // 2-way cache [5, 1], which the follow-up loads of 5 and 0 tell
        // apart from any other order.
        let configs = [lru(64, 1, 64), lru(128, 2, 64)];
        let stream: Vec<LineAccess> = [0u64, 1, 1, 5, 0, 1]
            .iter()
            .map(|&l| LineAccess::new(l, false))
            .collect();
        let mut sched = PrefetchSchedule::new();
        for i in 0..stream.len() {
            sched.push(if i == 2 { &[5, 1] } else { &[] });
        }
        let result =
            evaluate_lru_prefetch_multi(&configs, &stream, &sched, WriteMode::NoAllocate).unwrap();
        assert!(result.fell_back);
        let reference =
            replay_per_config_prefetch(&configs, &stream, Some(&sched), WriteMode::NoAllocate);
        assert_eq!(result.counts, reference);
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
        // caches: the insertion sequences part, so the class must fork —
        // and the counts must still match per-config replay (which
        // exhibits the anomaly).
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
        // Same construction that forks the LRU class on a divergent
        // store; under FIFO a no-allocate store changes nothing anywhere.
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
        // band is empty and no class can fork.
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
