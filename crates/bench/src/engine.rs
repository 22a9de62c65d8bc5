//! Single-pass multi-configuration sweep engine.
//!
//! Evaluated directly, a figure's configuration grid costs `2 × N`
//! independent full simulations per benchmark — each one re-running the
//! warp scheduler and the entire hierarchy. But the pure-LRU,
//! no-prefetcher sweeps (fig6a, fig6b, fig6e) only vary the geometry of
//! *one* cache level, and for those the Mattson stack-distance result
//! ([`gmap_memsim::stackdist`]) yields exact hit/miss counts for every
//! geometry sharing a line size from **one** pass over the access stream.
//!
//! The engine therefore works trace-driven, the same methodology as the
//! CMP$im-based simulator the paper validates against:
//!
//! 1. **Capture** — run the full scheduler + hierarchy *once* per
//!    benchmark at the reference configuration (Table 2 baseline for the
//!    swept level, the sweep's shared values for everything else) and
//!    record the per-core L1 demand stream in issue order
//!    ([`capture_stream`]).
//! 2. **Plan** — check that every config in the sweep differs from the
//!    reference only in the swept cache's geometry, replacement policy
//!    (LRU or FIFO), and that level's prefetcher; group configs by
//!    (line size, policy, prefetcher) ([`plan_single_pass`]).
//! 3. **Evaluate** — per group, convert the byte-address stream to line
//!    indices and run the matching evaluator ([`eval_captured`]):
//!    * pure-LRU groups (fig6a/6b/6e-LRU): the Mattson stack-distance
//!      pass, per-core for private L1s or over a derived L2 stream
//!      (replay the fixed L1 once, forward its misses and
//!      write-throughs) for the banked shared L2;
//!    * FIFO groups (fig6e's FIFO column): the insertion-order variant
//!      ([`gmap_memsim::stackdist::evaluate_fifo_multi`]);
//!    * L1 stride-prefetcher groups (fig6c): one
//!      [`StridePrefetcher`] training replay per (core, table size,
//!      confidence) records a geometry-independent trace — the
//!      hierarchy trains on every demand load, hit or miss — which each
//!      group expands into its [`PrefetchSchedule`] for the
//!      prefetch-composed stack-distance pass. A pass is a pure
//!      function of (core stream, trace, degree, distance, geometries),
//!      so groups for which all of these compare equal — typically the
//!      two table sizes, whenever no two PCs of a core share a slot of
//!      the smaller table — run it once and share the counts
//!      ([`EvalSeries::reused_passes`]);
//!    * L2 stream-prefetcher groups (fig6d): the stream prefetcher
//!      trains on demand *misses*, which are geometry-dependent, so no
//!      shared schedule exists; each config replays the once-derived L2
//!      stream through the folded bank geometry with a live prefetcher
//!      on the same row kernels
//!      ([`gmap_memsim::stackdist::replay_lru_stream_prefetch`]) —
//!      still eliding the scheduler, the L1s and the MSHRs, which
//!      dominate the direct path's cost.
//!
//!    Every evaluation runs on those row kernels; the engine builds a
//!    general-purpose [`Cache`] only for the sweep's *fixed* L1 when it
//!    derives the L2 stream.
//!
//! Anything the plan can't prove sweepable — replacement policies other
//! than LRU/FIFO, prefetcher parameters outside the supported envelope,
//! configs that vary more than one level — gets no plan, and
//! [`crate::evaluate_grid`] runs one full simulation per config.
//!
//! Grids that share a reference configuration (all stock sweeps mask to
//! the Table 2 baseline) also share the *capture*:
//! [`capture_stream_cached`] keys captures by
//! `gmap_core::cachekey` over (stream source, reference config) in a
//! bounded process-wide cache, so `fig6 --grid all` captures each
//! benchmark's stream pair once for all five grids. The same cache keeps
//! the prepared benchmarks ([`crate::prepare_all`]), and each capture keeps
//! the counts of the groups evaluated on it, so a group two grids share
//! runs once per capture ([`eval_captured`]).
//!
//! Capturing at one reference configuration means the warp interleaving
//! is that of the reference run: the scheduler's feedback loop (latency →
//! readiness → issue order) is evaluated once, not per config. Within
//! that captured stream the per-config miss rates are *exact* — equal to
//! replaying the stream through each configuration's caches — which is
//! what the engine's tests assert to 1e-9 against an independent
//! hierarchy-mirroring replay.

use crate::{BenchData, Metric};
use gmap_core::{cachekey, SimtConfig};
use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::schedule::{run_schedule, MemoryModel, ScheduleOutcome, WarpStream};
use gmap_gpu::workloads::{self, Scale};
use gmap_memsim::cache::{AccessRequest, Cache, CacheConfig, ReplacementPolicy};
use gmap_memsim::hierarchy::{GpuHierarchy, HierarchyConfig, L1WritePolicy, TraceCapture};
use gmap_memsim::prefetch::{StreamPrefetcherConfig, StridePrefetcher, StridePrefetcherConfig};
use gmap_memsim::stackdist::{
    evaluate_fifo_multi, evaluate_lru_multi, evaluate_lru_prefetch_multi,
    replay_lru_stream_prefetch, GeomCounts, LineAccess, PrefetchSchedule, WriteMode,
};
use gmap_trace::record::{AccessKind, ByteAddr, CoreId, Pc};
use gmap_trace::soa::AccessColumns;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// One captured L1-level demand transaction, viewed row-wise.
///
/// The capture itself lives in a structure-of-arrays
/// [`AccessColumns`]; this view (an alias of
/// [`gmap_trace::soa::AccessRecord`]) preserves the old per-record API —
/// `core` is the issuing core folded onto the hierarchy's core count,
/// `addr` the coalesced byte address, `pc` the issuing static
/// instruction (the stride prefetcher trains per PC), `is_write` the
/// store flag.
pub use gmap_trace::soa::AccessRecord as CapturedAccess;

/// The L1 demand stream of one scheduled run, in global issue order.
#[derive(Debug)]
pub struct CapturedStream {
    /// Every coalesced transaction the scheduler issued, in order,
    /// stored column-wise ([`AccessColumns`]). Iterating `&accesses`
    /// yields [`CapturedAccess`] views, so record-oriented call sites
    /// keep working; the hot passes read individual columns.
    pub accesses: AccessColumns,
    /// Number of cores (= number of private L1s).
    pub cores: usize,
    /// Scheduling statistics of the capture run (`SchedP_self` feeds the
    /// fig6e policy replay).
    pub schedule: ScheduleOutcome,
    /// The counts of planned groups already evaluated on this stream
    /// (see [`eval_captured`]), so it must not change after its first
    /// evaluation.
    memo: Mutex<Fifo<GroupKey, Vec<GeomCounts>>>,
}

/// A [`MemoryModel`] that records every transaction while delegating to
/// the real hierarchy, so the capture run sees exactly the latencies (and
/// thus the interleaving) of a normal reference simulation.
struct Recorder {
    hier: GpuHierarchy,
    cores: usize,
    log: AccessColumns,
}

impl MemoryModel for Recorder {
    fn access(
        &mut self,
        core: CoreId,
        pc: Pc,
        addr: ByteAddr,
        kind: AccessKind,
        cycle: u64,
    ) -> u64 {
        self.log.push(CapturedAccess {
            core: ((core.0 as usize) % self.cores) as u16,
            addr: addr.0,
            pc: pc.0,
            is_write: matches!(kind, AccessKind::Write),
        });
        self.hier.access(core, pc, addr, kind, cycle)
    }
}

/// Runs the scheduler + hierarchy once at `cfg` and captures the L1
/// demand stream. Trace capture is forced off — the engine records at the
/// L1 boundary itself and needs no DRAM-level trace.
pub fn capture_stream(
    streams: &[WarpStream],
    launch: &LaunchConfig,
    cfg: &SimtConfig,
) -> CapturedStream {
    let cfg = cfg.with_trace_capture(TraceCapture::Off);
    let cores = cfg.hierarchy.num_cores as usize;
    let hier = GpuHierarchy::new(cfg.hierarchy).expect("capture configuration is valid");
    let mut rec = Recorder {
        hier,
        cores,
        log: AccessColumns::new(),
    };
    let schedule = run_schedule(streams, launch, &cfg.gpu, cfg.policy, &mut rec, cfg.seed);
    CapturedStream {
        accesses: rec.log,
        cores,
        schedule,
        memo: Mutex::new(Fifo::new(MEMO_CAP)),
    }
}

/// Which cache level a planned sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweptLevel {
    /// Per-core private L1s vary; everything else is fixed.
    L1,
    /// The shared banked L2 varies; everything else is fixed.
    L2,
}

/// Configs sharing one (line size, replacement policy, prefetcher)
/// tuple, evaluated together from the shared capture.
#[derive(Debug, Clone)]
pub struct SweepGroup {
    /// The group's shared line size in bytes.
    pub line_size: u64,
    /// The group's shared replacement policy at the swept level.
    pub policy: ReplacementPolicy,
    /// Shared L1 stride-prefetcher config (L1 sweeps only).
    pub l1_prefetch: Option<StridePrefetcherConfig>,
    /// Shared L2 stream-prefetcher config (L2 sweeps only).
    pub l2_prefetch: Option<StreamPrefetcherConfig>,
    /// Indices into the planned config slice, in input order.
    pub config_indices: Vec<usize>,
}

/// A proven-sweepable configuration grid.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// The varied cache level.
    pub level: SweptLevel,
    /// The reference configuration for the capture run: the sweep's
    /// shared fields with the swept level pinned to the Table 2 baseline.
    pub capture_cfg: SimtConfig,
    /// Line-size groups covering every config index exactly once.
    pub groups: Vec<SweepGroup>,
}

impl SweepPlan {
    /// Total number of planned configurations.
    pub fn num_configs(&self) -> usize {
        self.groups.iter().map(|g| g.config_indices.len()).sum()
    }
}

/// Decides whether `configs` can be evaluated by the single-pass engine
/// for `metric`, and if so how. Returns `None` — meaning "use the direct
/// per-config path" — unless all of the following hold:
///
/// - every config is identical except for the metric's cache level
///   (`hierarchy.l1` for [`Metric::L1MissPct`], `hierarchy.l2` for
///   [`Metric::L2MissPct`]) and that level's prefetcher (`l1_prefetch`
///   for L1 sweeps, `l2_prefetch` for L2 sweeps);
/// - every swept geometry uses LRU or FIFO replacement, and geometries
///   with a prefetcher attached use LRU (the stock prefetcher sweeps
///   are pure-LRU; FIFO + prefetch takes the direct path);
/// - every swept prefetcher config is inside the supported envelope
///   (`is_supported`), so prefetcher construction cannot panic on
///   user-supplied grids;
/// - for L2 sweeps, the L1 has no prefetcher (its fills generate
///   geometry-independent L2 traffic only when absent) and the banked
///   array folds into an equivalent single cache of the per-bank
///   geometry (power-of-two banks, at least as many sets per bank as
///   banks — true for every stock sweep).
pub fn plan_single_pass(configs: &[SimtConfig], metric: Metric) -> Option<SweepPlan> {
    let first = *configs.first()?;
    let level = match metric {
        Metric::L1MissPct => SweptLevel::L1,
        Metric::L2MissPct => SweptLevel::L2,
    };
    let baseline = HierarchyConfig::fermi_baseline();
    // Mask out the swept level and its prefetcher (and the trace knob,
    // which never affects miss rates): what remains must be
    // bit-identical across the sweep.
    let mask = |mut c: SimtConfig| -> SimtConfig {
        c.hierarchy.trace_capture = TraceCapture::Off;
        match level {
            SweptLevel::L1 => {
                c.hierarchy.l1 = baseline.l1;
                c.hierarchy.l1_prefetch = None;
            }
            SweptLevel::L2 => {
                c.hierarchy.l2 = baseline.l2;
                c.hierarchy.l2_prefetch = None;
            }
        }
        c
    };
    let reference = mask(first);
    if configs.iter().any(|c| mask(*c) != reference) {
        return None;
    }
    let sweepable_policy =
        |p: ReplacementPolicy| matches!(p, ReplacementPolicy::Lru | ReplacementPolicy::Fifo);
    match level {
        SweptLevel::L1 => {
            for c in configs {
                if !sweepable_policy(c.hierarchy.l1.policy) {
                    return None;
                }
                if let Some(pf) = c.hierarchy.l1_prefetch {
                    if !pf.is_supported() || c.hierarchy.l1.policy != ReplacementPolicy::Lru {
                        return None;
                    }
                }
            }
        }
        SweptLevel::L2 => {
            if reference.hierarchy.l1_prefetch.is_some() {
                return None;
            }
            let banks = reference.hierarchy.l2_banks as u64;
            for c in configs {
                if !sweepable_policy(c.hierarchy.l2.policy) {
                    return None;
                }
                if let Some(pf) = c.hierarchy.l2_prefetch {
                    if !pf.is_supported() || c.hierarchy.l2.policy != ReplacementPolicy::Lru {
                        return None;
                    }
                }
                // Also refuses a bank count that is not a power of two.
                let Ok(bank) = c.hierarchy.l2_bank_config() else {
                    return None;
                };
                if bank.num_sets() < banks {
                    return None;
                }
            }
        }
    }
    let mut groups: Vec<SweepGroup> = Vec::new();
    for (i, c) in configs.iter().enumerate() {
        let (line, policy, l1_pf, l2_pf) = match level {
            SweptLevel::L1 => (
                c.hierarchy.l1.line_size,
                c.hierarchy.l1.policy,
                c.hierarchy.l1_prefetch,
                None,
            ),
            SweptLevel::L2 => (
                c.hierarchy.l2.line_size,
                c.hierarchy.l2.policy,
                None,
                c.hierarchy.l2_prefetch,
            ),
        };
        match groups.iter_mut().find(|g| {
            g.line_size == line
                && g.policy == policy
                && g.l1_prefetch == l1_pf
                && g.l2_prefetch == l2_pf
        }) {
            Some(g) => g.config_indices.push(i),
            None => groups.push(SweepGroup {
                line_size: line,
                policy,
                l1_prefetch: l1_pf,
                l2_prefetch: l2_pf,
                config_indices: vec![i],
            }),
        }
    }
    Some(SweepPlan {
        level,
        capture_cfg: reference,
        groups,
    })
}

/// Result of evaluating a planned sweep over one captured stream.
#[derive(Debug, Clone)]
pub struct EvalSeries {
    /// Metric value in percent per configuration, aligned with the config
    /// slice the plan was built from.
    pub values: Vec<f64>,
    /// Whether a divergent access (a no-allocate store, a FIFO insert or
    /// a prefetch fill that hits only part of a set-count class) forked
    /// a class in any stack-distance pass this call ran. Counts stay
    /// exact either way; this only marks the slower path.
    pub fell_back: bool,
    /// Stride-prefetch evaluator passes (one per group and core) that
    /// were not run because an earlier pass on the same core had the same
    /// training trajectory, emission shape and geometries, and answered
    /// for them. Zero outside L1 prefetch grids.
    pub reused_passes: usize,
    /// Groups answered from the capture's memo: an equal group was
    /// evaluated on the same capture before, so no pass ran for it and it
    /// adds nothing to `fell_back` or `reused_passes`.
    pub memo_groups: usize,
}

/// What a planned group's counts depend on besides the capture they are
/// taken on: equal keys on one capture are equal counts.
#[derive(Debug, Clone, PartialEq)]
struct GroupKey {
    level: SweptLevel,
    /// The reference configuration: the L1 write mode and, under an L2
    /// sweep, the fixed L1 and the bank count the L2 stream comes from.
    capture_cfg: SimtConfig,
    l1_prefetch: Option<StridePrefetcherConfig>,
    l2_prefetch: Option<StreamPrefetcherConfig>,
    /// The swept level's cache per configuration, in group order; each
    /// carries the group's line size and replacement policy.
    geoms: Vec<CacheConfig>,
}

/// Most groups one capture's memo keeps, oldest forgotten first.
/// `fig6 --grid all` evaluates 53 distinct groups on each shared capture.
const MEMO_CAP: usize = 64;

/// A group of more configurations is evaluated every time and not kept,
/// so whatever grids arrive a memo holds at most `MEMO_CAP` ×
/// `MEMO_GROUP_MAX` counts. Stock groups have 3 to 15.
const MEMO_GROUP_MAX: usize = 256;

/// Evaluates every planned configuration against one captured stream.
///
/// The capture keeps the counts of every group evaluated on it (up to
/// `MEMO_CAP` groups of up to `MEMO_GROUP_MAX` configurations, oldest
/// forgotten first) and answers an equal group from them: same level,
/// reference configuration, prefetcher and geometry list. So grids that
/// share a group — fig6a's 128 B half, fig6e's LRU half and
/// `policy_l1_sweep` — run its pass once per capture, and a repeated
/// grid runs none.
pub fn eval_captured(
    plan: &SweepPlan,
    capture: &CapturedStream,
    configs: &[SimtConfig],
) -> EvalSeries {
    let keys: Vec<GroupKey> = plan
        .groups
        .iter()
        .map(|g| GroupKey {
            level: plan.level,
            capture_cfg: plan.capture_cfg,
            l1_prefetch: g.l1_prefetch,
            l2_prefetch: g.l2_prefetch,
            geoms: g
                .config_indices
                .iter()
                .map(|&i| match plan.level {
                    SweptLevel::L1 => configs[i].hierarchy.l1,
                    SweptLevel::L2 => configs[i].hierarchy.l2,
                })
                .collect(),
        })
        .collect();
    let mut counts: Vec<Option<Vec<GeomCounts>>> = {
        let mut memo = capture.memo.lock().expect("memo lock");
        keys.iter().map(|k| memo.get(k)).collect()
    };
    let todo: Vec<usize> = (0..keys.len()).filter(|&g| counts[g].is_none()).collect();
    let memo_groups = keys.len() - todo.len();
    let groups: Vec<&SweepGroup> = todo.iter().map(|&g| &plan.groups[g]).collect();
    let fresh = if groups.is_empty() {
        Counted::default()
    } else {
        match plan.level {
            SweptLevel::L1 => count_l1(plan, capture, configs, &groups),
            SweptLevel::L2 => count_l2(plan, capture, configs, &groups),
        }
    };
    let mut memo = capture.memo.lock().expect("memo lock");
    for (&g, group_counts) in todo.iter().zip(fresh.counts) {
        if group_counts.len() <= MEMO_GROUP_MAX {
            memo.insert(keys[g].clone(), group_counts.clone());
        }
        counts[g] = Some(group_counts);
    }
    drop(memo);
    if memo_groups > 0 {
        process_cache().memo_groups += memo_groups as u64;
    }
    let mut values = vec![0.0; configs.len()];
    for (group, group_counts) in plan.groups.iter().zip(counts) {
        let group_counts = group_counts.expect("every group is counted");
        for (&i, c) in group.config_indices.iter().zip(&group_counts) {
            values[i] = c.miss_rate() * 100.0;
        }
    }
    EvalSeries {
        values,
        fell_back: fresh.fell_back,
        reused_passes: fresh.reused_passes,
        memo_groups,
    }
}

/// The counts of some of a plan's groups on one capture.
#[derive(Debug, Default)]
struct Counted {
    /// Per group, its configurations' counts in group order.
    counts: Vec<Vec<GeomCounts>>,
    /// As [`EvalSeries::fell_back`].
    fell_back: bool,
    /// As [`EvalSeries::reused_passes`].
    reused_passes: usize,
}

/// Replays one core's demand stream through a fresh stride-prefetcher
/// *table* and records, per access, the confident `(line, stride)` pair
/// candidates would be expanded from — `observe(pc, line)` on every
/// demand load (hit or miss), nothing on stores. Training depends only
/// on `table_size` and `min_confidence`, so one trace serves every
/// config with that pair regardless of `degree`/`distance` — and two
/// pairs whose traces come out equal (no two PCs of the core share a
/// slot of the smaller table) are one trajectory.
fn stride_trace(
    table_size: u32,
    min_confidence: u32,
    stream: &[LineAccess],
    pcs: &[u64],
) -> Vec<Option<(u64, i64)>> {
    let mut pf = StridePrefetcher::new(StridePrefetcherConfig {
        table_size,
        degree: 1,
        distance: 1,
        min_confidence,
    });
    stream
        .iter()
        .zip(pcs)
        .map(|(acc, &pc)| {
            if acc.is_write {
                None
            } else {
                pf.observe_stride(pc, acc.line)
            }
        })
        .collect()
}

/// Expands a recorded training trace into the candidate schedule one
/// concrete prefetcher config would issue, via the same
/// [`StridePrefetcherConfig::expand_into`] the live prefetcher uses.
/// Fills `sched` in place so one buffer serves every config in a class.
fn schedule_from_trace(
    cfg: StridePrefetcherConfig,
    trace: &[Option<(u64, i64)>],
    sched: &mut PrefetchSchedule,
) {
    sched.clear();
    let mut cands = Vec::new();
    for t in trace {
        cands.clear();
        if let Some((line, stride)) = *t {
            cfg.expand_into(line, stride, &mut cands);
        }
        sched.push(&cands);
    }
}

/// Splits the captured stream into per-core line streams at one line
/// size. Private per-core L1s are evaluated core by core and the
/// counters summed, exactly as the hierarchy merges per-core stats.
///
/// Columnar: the line addresses come out of the batched shift kernel over
/// the address column, and the scatter touches only the core and write
/// columns — the PC column never enters the cache.
fn split_per_core(capture: &CapturedStream, shift: u32) -> Vec<Vec<LineAccess>> {
    let mut lines: Vec<u64> = Vec::new();
    capture
        .accesses
        .lines_into(shift, gmap_trace::default_mode(), &mut lines);
    let cores = capture.accesses.cores();
    let writes = capture.accesses.writes();
    // Each core's vector is allocated once, at its final length.
    let mut counts = vec![0usize; capture.cores];
    for &c in cores {
        counts[c as usize] += 1;
    }
    let mut per_core: Vec<Vec<LineAccess>> = counts.into_iter().map(Vec::with_capacity).collect();
    for i in 0..lines.len() {
        per_core[cores[i] as usize].push(LineAccess::new(lines[i], writes[i]));
    }
    per_core
}

/// The counts of `groups`, some of an L1 plan's, aligned with them.
fn count_l1(
    plan: &SweepPlan,
    capture: &CapturedStream,
    configs: &[SimtConfig],
    groups: &[&SweepGroup],
) -> Counted {
    let mode = match plan.capture_cfg.hierarchy.l1_write_policy {
        L1WritePolicy::WriteThroughNoAllocate => WriteMode::NoAllocate,
        L1WritePolicy::WriteBackAllocate => WriteMode::Allocate,
    };
    let mut counts = vec![Vec::new(); groups.len()];
    let mut fell_back = false;
    // Hoisted across groups: prefetcher sweeps put many groups on one
    // line size (fig6c has 24), and the per-core split only depends on
    // it. PCs do not depend on the line size at all.
    let mut splits: HashMap<u32, Vec<Vec<LineAccess>>> = HashMap::new();
    let mut pcs_split: Option<Vec<Vec<u64>>> = None;
    let group_geoms = |group: &SweepGroup| -> Vec<CacheConfig> {
        group
            .config_indices
            .iter()
            .map(|&i| configs[i].hierarchy.l1)
            .collect()
    };

    // Plain groups: one multi-geometry stack-distance pass per core.
    let plain = groups
        .iter()
        .enumerate()
        .filter(|(_, g)| g.l1_prefetch.is_none());
    for (slot, group) in plain {
        let shift = group.line_size.trailing_zeros();
        let geoms = group_geoms(group);
        let per_core = splits
            .entry(shift)
            .or_insert_with(|| split_per_core(capture, shift));
        let mut totals = vec![GeomCounts::default(); geoms.len()];
        for stream in per_core.iter().filter(|s| !s.is_empty()) {
            let r = match group.policy {
                ReplacementPolicy::Fifo => evaluate_fifo_multi(&geoms, stream, mode),
                _ => evaluate_lru_multi(&geoms, stream, mode),
            }
            .expect("plan guarantees a uniform line-size/policy group");
            fell_back |= r.fell_back;
            for (t, c) in totals.iter_mut().zip(&r.counts) {
                t.merge(c);
            }
        }
        counts[slot] = totals;
    }

    // Prefetch groups: the stride prefetcher is per core, like the L1 it
    // feeds, so a pass is a pure function of (core stream, training
    // trajectory, emission shape, geometries). Walk the groups per line
    // size and per core and run each distinct pass once.
    let prefetch_groups: Vec<(usize, &SweepGroup, StridePrefetcherConfig)> = groups
        .iter()
        .enumerate()
        .filter_map(|(slot, g)| Some((slot, *g, g.l1_prefetch?)))
        .collect();
    let mut shifts: Vec<u32> = prefetch_groups
        .iter()
        .map(|(_, g, _)| g.line_size.trailing_zeros())
        .collect();
    shifts.sort_unstable();
    shifts.dedup();
    let mut reused_passes = 0;
    for shift in shifts {
        let groups: Vec<(usize, StridePrefetcherConfig, Vec<CacheConfig>)> = prefetch_groups
            .iter()
            .filter(|(_, g, _)| g.line_size.trailing_zeros() == shift)
            .map(|&(slot, g, pf)| (slot, pf, group_geoms(g)))
            .collect();
        let per_core = splits
            .entry(shift)
            .or_insert_with(|| split_per_core(capture, shift));
        let per_core_pcs = pcs_split.get_or_insert_with(|| {
            let mut pcs: Vec<Vec<u64>> = vec![Vec::new(); capture.cores];
            let cores = capture.accesses.cores();
            for (&core, &pc) in cores.iter().zip(capture.accesses.pcs()) {
                pcs[core as usize].push(pc);
            }
            pcs
        });
        let mut totals: Vec<Vec<GeomCounts>> = groups
            .iter()
            .map(|(_, _, geoms)| vec![GeomCounts::default(); geoms.len()])
            .collect();
        let mut sched = PrefetchSchedule::new();
        for (core, stream) in per_core.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
            // Training depends only on (table size, confidence): record
            // each such trace once, and give traces that compare equal
            // one trajectory id. Equality is decided on the recorded
            // trace, so PCs colliding in a small table simply make two
            // trajectories.
            let mut trajectories: Vec<Vec<Option<(u64, i64)>>> = Vec::new();
            let mut trained: Vec<((u32, u32), usize)> = Vec::new();
            // Per group walked so far on this core: the trajectory it
            // ran on and its counts.
            let mut done: Vec<(usize, Vec<GeomCounts>)> = Vec::with_capacity(groups.len());
            for (_, pf, geoms) in &groups {
                let key = (pf.table_size, pf.min_confidence);
                let trajectory = match trained.iter().find(|(k, _)| *k == key) {
                    Some(&(_, t)) => t,
                    None => {
                        let trace = stride_trace(key.0, key.1, stream, &per_core_pcs[core]);
                        let t = trajectories
                            .iter()
                            .position(|known| *known == trace)
                            .unwrap_or_else(|| {
                                trajectories.push(trace);
                                trajectories.len() - 1
                            });
                        trained.push((key, t));
                        t
                    }
                };
                let equal_pass = done.iter().zip(&groups).find(|((t, _), (_, epf, egeoms))| {
                    *t == trajectory
                        && epf.degree == pf.degree
                        && epf.distance == pf.distance
                        && egeoms == geoms
                });
                let counts = match equal_pass {
                    Some(((_, counts), _)) => {
                        reused_passes += 1;
                        counts.clone()
                    }
                    None => {
                        schedule_from_trace(*pf, &trajectories[trajectory], &mut sched);
                        let r = evaluate_lru_prefetch_multi(geoms, stream, &sched, mode)
                            .expect("plan guarantees a uniform line-size/policy group");
                        fell_back |= r.fell_back;
                        r.counts
                    }
                };
                done.push((trajectory, counts));
            }
            let core_counts = done.iter().flat_map(|(_, counts)| counts);
            for (t, c) in totals.iter_mut().flatten().zip(core_counts) {
                t.merge(c);
            }
        }
        for (&(slot, _, _), totals) in groups.iter().zip(totals) {
            counts[slot] = totals;
        }
    }
    Counted {
        counts,
        fell_back,
        reused_passes,
    }
}

/// Replays the captured stream through the sweep's *fixed* L1s once and
/// returns the byte-address stream that reaches the shared L2, in issue
/// order — demand-read misses, write-throughs (or write-back victims and
/// write-allocate fetches), exactly mirroring `GpuHierarchy`'s L2 demand
/// path.
fn derive_l2_stream(capture: &CapturedStream, hier: &HierarchyConfig) -> Vec<(u64, bool)> {
    let l1_cfg = hier.l1;
    let shift = l1_cfg.line_size.trailing_zeros();
    let mut l1s: Vec<Cache> = (0..capture.cores).map(|_| Cache::new(l1_cfg)).collect();
    let mut out = Vec::new();
    for a in &capture.accesses {
        let line = a.addr >> shift;
        let l1 = &mut l1s[a.core as usize];
        if a.is_write {
            match hier.l1_write_policy {
                L1WritePolicy::WriteThroughNoAllocate => {
                    let _ = l1.request(AccessRequest {
                        line,
                        is_write: true,
                        allocate_on_miss: false,
                        mark_dirty: false,
                    });
                    out.push((a.addr, true));
                }
                L1WritePolicy::WriteBackAllocate => {
                    let r = l1.request(AccessRequest {
                        line,
                        is_write: true,
                        allocate_on_miss: true,
                        mark_dirty: true,
                    });
                    if let Some(victim) = r.writeback {
                        out.push((victim << shift, true));
                    }
                    if !r.hit {
                        out.push((a.addr, false));
                    }
                }
            }
        } else {
            let r = l1.request(AccessRequest {
                line,
                is_write: false,
                allocate_on_miss: false,
                mark_dirty: false,
            });
            if !r.hit {
                out.push((a.addr, false));
                if let Some(victim) = l1.demand_fill(line) {
                    out.push((victim << shift, true));
                }
            }
        }
    }
    out
}

/// The counts of `groups`, some of an L2 plan's, aligned with them.
fn count_l2(
    plan: &SweepPlan,
    capture: &CapturedStream,
    configs: &[SimtConfig],
    groups: &[&SweepGroup],
) -> Counted {
    // The L1 is fixed across an L2 sweep (and has no prefetcher — the
    // plan checked), so the stream feeding the L2 is derived once and
    // shared by every group, with or without an L2 prefetcher.
    let l2_stream = derive_l2_stream(capture, &plan.capture_cfg.hierarchy);
    let mut counts = Vec::with_capacity(groups.len());
    let mut fell_back = false;
    // Hoisted across groups: prefetcher sweeps put many groups on one
    // line size (fig6d has 12 per line size).
    let mut shifted: HashMap<u32, Vec<LineAccess>> = HashMap::new();
    for group in groups {
        let shift = group.line_size.trailing_zeros();
        let stream = shifted.entry(shift).or_insert_with(|| {
            l2_stream
                .iter()
                .map(|&(addr, is_write)| LineAccess::new(addr >> shift, is_write))
                .collect()
        });
        if let Some(pf_cfg) = group.l2_prefetch {
            // The stream prefetcher trains on geometry-dependent demand
            // misses, so no shared candidate schedule exists; replay the
            // derived stream per config (still one capture, no
            // scheduler/L1/MSHR work per config). Exact by the same
            // bank-folding bijection as the demand-only path — a folded
            // lookup answers exactly what the candidate's home bank would.
            let per_config = group.config_indices.iter().map(|&i| {
                let bank_cfg = configs[i]
                    .hierarchy
                    .l2_bank_config()
                    .expect("plan verified the bank split");
                replay_lru_stream_prefetch(&bank_cfg, stream, pf_cfg)
                    .expect("plan guarantees LRU under a prefetcher")
            });
            counts.push(per_config.collect());
            continue;
        }
        // Low-bit banking with bank bits inside the set-index bits makes
        // the banked array behave exactly like one cache of the per-bank
        // geometry (the plan verified the preconditions).
        let geoms: Vec<CacheConfig> = group
            .config_indices
            .iter()
            .map(|&i| {
                configs[i]
                    .hierarchy
                    .l2_bank_config()
                    .expect("plan verified the bank split")
            })
            .collect();
        // The L2 is write-back write-allocate: stores allocate like loads.
        let r = match group.policy {
            ReplacementPolicy::Fifo => evaluate_fifo_multi(&geoms, stream, WriteMode::Allocate),
            _ => evaluate_lru_multi(&geoms, stream, WriteMode::Allocate),
        }
        .expect("plan guarantees a uniform line-size/policy group");
        fell_back |= r.fell_back;
        counts.push(r.counts);
    }
    Counted {
        counts,
        fell_back,
        reused_passes: 0,
    }
}

/// A small map that keeps at most `cap` entries, forgets the oldest
/// first, and counts its hits and misses.
#[derive(Debug)]
struct Fifo<K, V> {
    /// Entries in insertion order.
    entries: VecDeque<(K, V)>,
    cap: usize,
    hits: u64,
    misses: u64,
}

impl<K: PartialEq, V: Clone> Fifo<K, V> {
    fn new(cap: usize) -> Self {
        Fifo {
            entries: VecDeque::new(),
            cap,
            hits: 0,
            misses: 0,
        }
    }

    /// The value under `key`, counted as a hit.
    fn get(&mut self, key: &K) -> Option<V> {
        let found = self.entries.iter().find(|(k, _)| k == key);
        let value = found.map(|(_, v)| v.clone());
        self.hits += u64::from(value.is_some());
        value
    }

    /// Counts a miss and keeps `value` under `key`, unless a racing
    /// caller kept one first; returns the value kept.
    fn insert(&mut self, key: K, value: V) -> V {
        self.misses += 1;
        if let Some((_, kept)) = self.entries.iter().find(|(k, _)| *k == key) {
            return kept.clone();
        }
        if self.entries.len() >= self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back((key, value.clone()));
        value
    }
}

/// What figure binaries and service requests in one process share
/// instead of deriving it again: prepared benchmarks, and captures of
/// their streams (each capture keeps its own memo of evaluated groups).
struct ProcessCache {
    /// Captures by stream source and reference configuration.
    captures: Fifo<String, Arc<CapturedStream>>,
    /// Prepared benchmarks by (name, scale, seed).
    bundles: Fifo<String, Arc<BenchData>>,
    /// Groups answered from a capture's memo.
    memo_groups: u64,
}

/// Maximum number of cached captures; every stock sweep produces two per
/// benchmark (original + proxy), so this holds a full 18-benchmark
/// figure run.
const CAPTURE_CACHE_CAP: usize = 48;

/// Maximum number of cached bundles: one figure's benchmarks.
const BUNDLE_CACHE_CAP: usize = workloads::NAMES.len();

impl ProcessCache {
    fn new() -> Self {
        ProcessCache {
            captures: Fifo::new(CAPTURE_CACHE_CAP),
            bundles: Fifo::new(BUNDLE_CACHE_CAP),
            memo_groups: 0,
        }
    }
}

fn process_cache() -> MutexGuard<'static, ProcessCache> {
    static CACHE: OnceLock<Mutex<ProcessCache>> = OnceLock::new();
    CACHE
        .get_or_init(|| Mutex::new(ProcessCache::new()))
        .lock()
        .expect("capture cache lock")
}

/// Counters of the process-wide cache (see [`capture_stream_cached`] and
/// [`crate::prepare_all`]) since it was last cleared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureCacheStats {
    /// Capture lookups served from the cache.
    pub hits: u64,
    /// Capture lookups that ran a fresh capture.
    pub misses: u64,
    /// Captures currently cached.
    pub entries: usize,
    /// Bundle lookups served from the cache.
    pub bundle_hits: u64,
    /// Bundle lookups that prepared the benchmark.
    pub bundle_misses: u64,
    /// Planned groups answered from a capture's memo (see
    /// [`EvalSeries::memo_groups`]).
    pub memo_groups: u64,
}

/// Current capture-cache counters.
pub fn capture_cache_stats() -> CaptureCacheStats {
    let c = process_cache();
    CaptureCacheStats {
        hits: c.captures.hits,
        misses: c.captures.misses,
        entries: c.captures.entries.len(),
        bundle_hits: c.bundles.hits,
        bundle_misses: c.bundles.misses,
        memo_groups: c.memo_groups,
    }
}

/// Drops every cached capture (with its memo) and every cached bundle,
/// and resets the counters, so a caller that counts or times preparation
/// and captures starts from a cold cache.
pub fn capture_cache_clear() {
    *process_cache() = ProcessCache::new();
}

/// The value under `key` in one table of the process cache, made by
/// `make` on a miss, and whether it was found. `make` runs outside the
/// lock: two threads racing on one key may both make it (the result is
/// deterministic and identical, and the first kept answers both), but
/// nobody blocks behind a multi-second capture.
fn cached<V>(
    table: fn(&mut ProcessCache) -> &mut Fifo<String, Arc<V>>,
    key: String,
    make: impl FnOnce() -> V,
) -> (Arc<V>, bool) {
    if let Some(hit) = table(&mut process_cache()).get(&key) {
        return (hit, true);
    }
    let fresh = Arc::new(make());
    (table(&mut process_cache()).insert(key, fresh), false)
}

/// [`crate::prepare`] with process-wide memoization under `(name, scale,
/// seed)`, which pin a bundle's content exactly; `true` when the bundle
/// was found rather than prepared. Up to one figure's benchmarks are kept.
pub(crate) fn bundle_cached(name: &str, scale: Scale, seed: u64) -> (Arc<BenchData>, bool) {
    let key = crate::bundle_source(name, scale, seed);
    cached(
        |c| &mut c.bundles,
        key,
        || crate::prepare(name, scale, seed),
    )
}

/// [`capture_stream`] with cross-figure memoization. `source` must
/// uniquely identify the *stream content* (e.g. benchmark name + scale +
/// seed + original/proxy, or a profile content key); the reference
/// configuration is folded into the cache key via its canonical JSON, so
/// any sweep masking to the same reference reuses the capture.
pub fn capture_stream_cached(
    source: &str,
    streams: &[WarpStream],
    launch: &LaunchConfig,
    cfg: &SimtConfig,
) -> Arc<CapturedStream> {
    capture_cached_with(source, cfg, || capture_stream(streams, launch, cfg))
}

/// [`capture_stream_cached`] for a caller whose streams cost something
/// to build: `capture` runs only on a miss, and must return what
/// [`capture_stream`] returns at `cfg` for the streams `source` names.
pub fn capture_cached_with(
    source: &str,
    cfg: &SimtConfig,
    capture: impl FnOnce() -> CapturedStream,
) -> Arc<CapturedStream> {
    let normalized = cfg.with_trace_capture(TraceCapture::Off);
    let key = format!("{source}|{}", cachekey::key_of(&normalized));
    cached(|c| &mut c.captures, key, capture).0
}

/// Held by every unit test that goes through the process-wide capture
/// cache, so the one asserting exact counters sees only its own lookups.
#[cfg(test)]
pub(crate) fn capture_cache_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prepare, sweeps};
    use gmap_gpu::workloads::Scale;
    use gmap_memsim::prefetch::StreamPrefetcher;

    /// Independent per-config trace replay of the captured stream through
    /// per-core L1 caches, mirroring `GpuHierarchy`'s L1 demand path
    /// structurally (separate `request` + `demand_fill`, hierarchy write
    /// flags, and — for a config with `l1_prefetch` — per-core stride
    /// prefetchers with probe-then-fill candidate installation in issue
    /// order) rather than going through the stack-distance code.
    fn direct_l1_series(capture: &CapturedStream, configs: &[SimtConfig]) -> Vec<f64> {
        configs
            .iter()
            .map(|cfg| {
                let shift = cfg.hierarchy.l1.line_size.trailing_zeros();
                let mut l1s: Vec<Cache> = (0..capture.cores)
                    .map(|_| Cache::new(cfg.hierarchy.l1))
                    .collect();
                let mut pfs: Vec<Option<StridePrefetcher>> = (0..capture.cores)
                    .map(|_| cfg.hierarchy.l1_prefetch.map(StridePrefetcher::new))
                    .collect();
                for a in &capture.accesses {
                    let line = a.addr >> shift;
                    let core = a.core as usize;
                    if a.is_write {
                        let c = &mut l1s[core];
                        match cfg.hierarchy.l1_write_policy {
                            L1WritePolicy::WriteThroughNoAllocate => {
                                let _ = c.request(AccessRequest {
                                    line,
                                    is_write: true,
                                    allocate_on_miss: false,
                                    mark_dirty: false,
                                });
                            }
                            L1WritePolicy::WriteBackAllocate => {
                                let _ = c.request(AccessRequest {
                                    line,
                                    is_write: true,
                                    allocate_on_miss: true,
                                    mark_dirty: true,
                                });
                            }
                        }
                    } else {
                        let hit = l1s[core]
                            .request(AccessRequest {
                                line,
                                is_write: false,
                                allocate_on_miss: false,
                                mark_dirty: false,
                            })
                            .hit;
                        // `l1_prefetch` runs after every demand-load
                        // lookup, before the demand fill.
                        if let Some(pf) = pfs[core].as_mut() {
                            for cand in pf.observe(a.pc, line) {
                                if !l1s[core].probe(cand) {
                                    l1s[core].prefetch_fill(cand);
                                }
                            }
                        }
                        if !hit {
                            l1s[core].demand_fill(line);
                        }
                    }
                }
                let (acc, miss) = l1s.iter().fold((0u64, 0u64), |(a, m), c| {
                    (a + c.stats().accesses, m + c.stats().misses)
                });
                if acc == 0 {
                    0.0
                } else {
                    miss as f64 / acc as f64 * 100.0
                }
            })
            .collect()
    }

    /// Independent per-config trace replay through a fixed L1 feeding a
    /// *banked* L2 array (bank = line mod banks) with an optional shared
    /// stream prefetcher, mirroring `GpuHierarchy::l2_demand` —
    /// deliberately not using the bank-folding equivalence the engine
    /// relies on.
    fn direct_l2_series(capture: &CapturedStream, configs: &[SimtConfig]) -> Vec<f64> {
        configs
            .iter()
            .map(|cfg| {
                let stream = derive_l2_stream(capture, &cfg.hierarchy);
                let banks = cfg.hierarchy.l2_banks as u64;
                let bank_cfg = cfg.hierarchy.l2_bank_config().expect("valid sweep config");
                let shift = cfg.hierarchy.l2.line_size.trailing_zeros();
                let mut l2: Vec<Cache> = (0..banks).map(|_| Cache::new(bank_cfg)).collect();
                let mut pf = cfg.hierarchy.l2_prefetch.map(StreamPrefetcher::new);
                for &(addr, is_write) in &stream {
                    let line = addr >> shift;
                    let bank = (line % banks) as usize;
                    let out = l2[bank].request(AccessRequest {
                        line,
                        is_write,
                        allocate_on_miss: true,
                        mark_dirty: is_write,
                    });
                    if !out.hit {
                        if let Some(pf) = pf.as_mut() {
                            for cand in pf.observe(line) {
                                let b = (cand % banks) as usize;
                                if !l2[b].probe(cand) {
                                    l2[b].prefetch_fill(cand);
                                }
                            }
                        }
                    }
                }
                let (acc, miss) = l2.iter().fold((0u64, 0u64), |(a, m), c| {
                    (a + c.stats().accesses, m + c.stats().misses)
                });
                if acc == 0 {
                    0.0
                } else {
                    miss as f64 / acc as f64 * 100.0
                }
            })
            .collect()
    }

    #[test]
    fn plan_accepts_the_stock_lru_sweeps() {
        let l1 = plan_single_pass(&sweeps::l1_sweep(), Metric::L1MissPct).expect("fig6a plans");
        assert_eq!(l1.level, SweptLevel::L1);
        assert_eq!(l1.num_configs(), 30);
        assert_eq!(l1.groups.len(), 2, "two line sizes (32/128)");

        let l2 = plan_single_pass(&sweeps::l2_sweep(), Metric::L2MissPct).expect("fig6b plans");
        assert_eq!(l2.level, SweptLevel::L2);
        assert_eq!(l2.num_configs(), 30);
        assert_eq!(l2.groups.len(), 2, "two line sizes (64/128)");

        let pol =
            plan_single_pass(&sweeps::policy_l1_sweep(), Metric::L1MissPct).expect("fig6e plans");
        assert_eq!(pol.groups.len(), 1, "single 128 B line size");
    }

    #[test]
    fn plan_accepts_the_prefetcher_and_policy_sweeps() {
        // fig6c: every distinct stride-prefetcher config is its own group.
        let c =
            plan_single_pass(&sweeps::l1_prefetch_sweep(), Metric::L1MissPct).expect("fig6c plans");
        assert_eq!(c.level, SweptLevel::L1);
        assert_eq!(c.num_configs(), sweeps::l1_prefetch_sweep().len());
        assert!(c.groups.iter().all(|g| g.l1_prefetch.is_some()));
        assert_eq!(c.groups.len(), 24, "24 (degree, distance, table) combos");
        assert!(
            c.capture_cfg.hierarchy.l1_prefetch.is_none(),
            "the capture runs without the swept prefetcher"
        );

        // fig6d: stream-prefetcher groups keyed by (line size, pf).
        let d =
            plan_single_pass(&sweeps::l2_prefetch_sweep(), Metric::L2MissPct).expect("fig6d plans");
        assert_eq!(d.level, SweptLevel::L2);
        assert_eq!(d.num_configs(), sweeps::l2_prefetch_sweep().len());
        assert!(d.groups.iter().all(|g| g.l2_prefetch.is_some()));
        assert!(d.capture_cfg.hierarchy.l2_prefetch.is_none());

        // fig6e's full replacement grid: LRU and FIFO rows both plan.
        let e = plan_single_pass(&sweeps::replacement_policy_sweep(), Metric::L1MissPct)
            .expect("fig6e replacement grid plans");
        assert_eq!(e.num_configs(), sweeps::replacement_policy_sweep().len());
        assert_eq!(e.groups.len(), 2, "one LRU group, one FIFO group");
        assert!(e.groups.iter().any(|g| g.policy == ReplacementPolicy::Fifo));
    }

    #[test]
    fn plan_rejects_unsweepable_grids() {
        // Metric on the non-varied level: configs differ outside the mask.
        assert!(plan_single_pass(&sweeps::l1_sweep(), Metric::L2MissPct).is_none());
        assert!(plan_single_pass(&sweeps::l1_prefetch_sweep(), Metric::L2MissPct).is_none());
        // Mixed policy *and* other-level variation in one grid.
        let mut mixed = sweeps::l1_sweep();
        mixed[0].hierarchy.l1.policy = ReplacementPolicy::Fifo;
        mixed[1].hierarchy.l2.size_bytes *= 2;
        assert!(plan_single_pass(&mixed, Metric::L1MissPct).is_none());
        // Unsupported replacement policies in the swept level.
        for policy in [ReplacementPolicy::PseudoLru, ReplacementPolicy::Random] {
            let mut grid = sweeps::l1_sweep();
            grid[3].hierarchy.l1.policy = policy;
            assert!(plan_single_pass(&grid, Metric::L1MissPct).is_none());
        }
        // Prefetcher configs outside the supported envelope.
        let mut bad_table = sweeps::l1_prefetch_sweep();
        bad_table[0].hierarchy.l1_prefetch = Some(StridePrefetcherConfig {
            table_size: 3, // not a power of two: ::new would panic
            ..Default::default()
        });
        assert!(plan_single_pass(&bad_table, Metric::L1MissPct).is_none());
        let mut oversized = sweeps::l1_prefetch_sweep();
        oversized[0].hierarchy.l1_prefetch = Some(StridePrefetcherConfig {
            table_size: 1 << 20,
            ..Default::default()
        });
        assert!(plan_single_pass(&oversized, Metric::L1MissPct).is_none());
        let mut zero_stream = sweeps::l2_prefetch_sweep();
        zero_stream[0].hierarchy.l2_prefetch = Some(StreamPrefetcherConfig {
            num_streams: 0,
            ..Default::default()
        });
        assert!(plan_single_pass(&zero_stream, Metric::L2MissPct).is_none());
        // FIFO combined with a prefetcher takes the direct path.
        let mut fifo_pf = sweeps::l1_prefetch_sweep();
        for c in &mut fifo_pf {
            c.hierarchy.l1.policy = ReplacementPolicy::Fifo;
        }
        assert!(plan_single_pass(&fifo_pf, Metric::L1MissPct).is_none());
        // An L1 prefetcher under an L2 sweep feeds geometry-independent
        // prefetch traffic into the L2: still rejected.
        let mut l1pf_l2sweep = sweeps::l2_sweep();
        for c in &mut l1pf_l2sweep {
            c.hierarchy.l1_prefetch = Some(StridePrefetcherConfig::default());
        }
        assert!(plan_single_pass(&l1pf_l2sweep, Metric::L2MissPct).is_none());
        // A bank count that is not a power of two does not fold.
        let mut six_banks = sweeps::l2_sweep();
        for c in &mut six_banks {
            c.hierarchy.l2_banks = 6;
        }
        assert!(plan_single_pass(&six_banks, Metric::L2MissPct).is_none());
        // Empty grid.
        assert!(plan_single_pass(&[], Metric::L1MissPct).is_none());
    }

    #[test]
    fn capture_is_deterministic_and_nonempty() {
        let data = prepare("scalarprod", Scale::Tiny, 7);
        let cfg = SimtConfig::default();
        let a = capture_stream(&data.orig_streams, &data.kernel.launch, &cfg);
        let b = capture_stream(&data.orig_streams, &data.kernel.launch, &cfg);
        assert!(!a.accesses.is_empty());
        assert_eq!(a.accesses, b.accesses);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(
            a.accesses.len() as u64,
            a.schedule.issued_transactions,
            "every issued transaction is captured exactly once"
        );
    }

    #[test]
    fn fig6a_engine_matches_direct_replay_within_1e9() {
        let configs = sweeps::l1_sweep();
        let plan = plan_single_pass(&configs, Metric::L1MissPct).expect("fig6a plans");
        for name in ["kmeans", "bfs"] {
            let data = prepare(name, Scale::Tiny, 42);
            for streams in [
                (&data.orig_streams, &data.kernel.launch),
                (&data.proxy_streams, &data.profile.launch),
            ] {
                let cap = capture_stream(streams.0, streams.1, &plan.capture_cfg);
                let engine = eval_captured(&plan, &cap, &configs);
                let direct = direct_l1_series(&cap, &configs);
                for (i, (e, d)) in engine.values.iter().zip(&direct).enumerate() {
                    assert!(
                        (e - d).abs() < 1e-9,
                        "{name} config {i}: engine {e} vs direct {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn fig6b_engine_matches_direct_replay_within_1e9() {
        let configs = sweeps::l2_sweep();
        let plan = plan_single_pass(&configs, Metric::L2MissPct).expect("fig6b plans");
        for name in ["backprop", "srad"] {
            let data = prepare(name, Scale::Tiny, 42);
            let cap = capture_stream(&data.orig_streams, &data.kernel.launch, &plan.capture_cfg);
            let engine = eval_captured(&plan, &cap, &configs);
            let direct = direct_l2_series(&cap, &configs);
            for (i, (e, d)) in engine.values.iter().zip(&direct).enumerate() {
                assert!(
                    (e - d).abs() < 1e-9,
                    "{name} config {i}: engine {e} vs direct {d}"
                );
            }
        }
    }

    /// kmeans and backprop are the two sides of the reuse: no kmeans core
    /// has two PCs in one slot of the 64-entry table, so its table-64 and
    /// table-256 groups are one experiment each; every backprop core has
    /// such a collision, so none of its passes may be shared.
    #[test]
    fn fig6c_prefetch_engine_matches_direct_replay_within_1e9() {
        let configs = sweeps::l1_prefetch_sweep();
        let plan = plan_single_pass(&configs, Metric::L1MissPct).expect("fig6c plans");
        assert_eq!(plan.groups.len(), 24);
        // The grid's innermost loop is the table size: configs 2k and
        // 2k + 1 differ in nothing else.
        let differs_only_in_table = |pair: &[SimtConfig]| {
            let mut small = pair[0];
            let pf = small.hierarchy.l1_prefetch.as_mut().expect("fig6c config");
            pf.table_size = 256;
            pair[0] != pair[1] && small == pair[1]
        };
        assert!(configs.chunks_exact(2).all(differs_only_in_table));
        // (benchmark, occupied cores, passes reused): 24 groups per core,
        // half of them answered by the other table size's pass or none.
        for (name, cores, reused) in [
            ("kmeans", 15, 180),
            ("backprop", 15, 0),
            ("scalarprod", 4, 48),
        ] {
            let data = prepare(name, Scale::Tiny, 42);
            let cap = capture_stream(&data.orig_streams, &data.kernel.launch, &plan.capture_cfg);
            let engine = eval_captured(&plan, &cap, &configs);
            let direct = direct_l1_series(&cap, &configs);
            for (i, (e, d)) in engine.values.iter().zip(&direct).enumerate() {
                assert!(
                    (e - d).abs() < 1e-9,
                    "{name} config {i}: engine {e} vs direct {d}"
                );
            }
            let occupied = (0..cap.cores as u16)
                .filter(|c| cap.accesses.cores().contains(c))
                .count();
            assert_eq!(occupied, cores, "{name}");
            assert_eq!(engine.reused_passes, reused, "{name}");
            let table_is_moot = engine
                .values
                .chunks_exact(2)
                .all(|pair| pair[0].to_bits() == pair[1].to_bits());
            assert_eq!(
                table_is_moot,
                reused > 0,
                "{name}: values agree across table sizes exactly when every core shares"
            );
        }
    }

    #[test]
    fn fig6d_stream_prefetch_engine_matches_direct_replay_within_1e9() {
        let configs = sweeps::l2_prefetch_sweep();
        let plan = plan_single_pass(&configs, Metric::L2MissPct).expect("fig6d plans");
        for name in ["backprop", "bfs"] {
            let data = prepare(name, Scale::Tiny, 42);
            let cap = capture_stream(&data.orig_streams, &data.kernel.launch, &plan.capture_cfg);
            let engine = eval_captured(&plan, &cap, &configs);
            let direct = direct_l2_series(&cap, &configs);
            for (i, (e, d)) in engine.values.iter().zip(&direct).enumerate() {
                assert!(
                    (e - d).abs() < 1e-9,
                    "{name} config {i}: engine {e} vs direct {d}"
                );
            }
        }
    }

    #[test]
    fn fifo_policy_engine_matches_direct_replay_within_1e9() {
        let configs = sweeps::replacement_policy_sweep();
        let plan = plan_single_pass(&configs, Metric::L1MissPct).expect("policy grid plans");
        for name in ["srad", "pathfinder"] {
            let data = prepare(name, Scale::Tiny, 42);
            let cap = capture_stream(&data.orig_streams, &data.kernel.launch, &plan.capture_cfg);
            let engine = eval_captured(&plan, &cap, &configs);
            let direct = direct_l1_series(&cap, &configs);
            for (i, (e, d)) in engine.values.iter().zip(&direct).enumerate() {
                assert!(
                    (e - d).abs() < 1e-9,
                    "{name} config {i}: engine {e} vs direct {d}"
                );
            }
        }
    }

    #[test]
    fn capture_cache_shares_captures_across_plans() {
        let _cache = capture_cache_test_guard();
        capture_cache_clear();
        let data = prepare("aes", Scale::Tiny, 42);
        // fig6a and fig6c mask to the same reference configuration…
        let a = plan_single_pass(&sweeps::l1_sweep(), Metric::L1MissPct).expect("plans");
        let c = plan_single_pass(&sweeps::l1_prefetch_sweep(), Metric::L1MissPct).expect("plans");
        assert_eq!(
            a.capture_cfg, c.capture_cfg,
            "stock sweeps share the reference"
        );
        let source = data.capture_source(false);
        let first = capture_stream_cached(
            &source,
            &data.orig_streams,
            &data.kernel.launch,
            &a.capture_cfg,
        );
        let second = capture_stream_cached(
            &source,
            &data.orig_streams,
            &data.kernel.launch,
            &c.capture_cfg,
        );
        assert!(Arc::ptr_eq(&first, &second), "second lookup is a cache hit");
        let stats = capture_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // …while a different stream source captures fresh.
        let other = capture_stream_cached(
            &data.capture_source(true),
            &data.proxy_streams,
            &data.profile.launch,
            &a.capture_cfg,
        );
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(capture_cache_stats().misses, 2);
        capture_cache_clear();
        assert_eq!(capture_cache_stats(), CaptureCacheStats::default());
    }

    /// More distinct grids than the memo keeps, walked forwards and then
    /// backwards over one capture: every value is what a capture without
    /// a memo gives, and the memo never grows past its cap.
    #[test]
    fn memo_stays_exact_and_bounded_past_its_cap() {
        // Memo answers count process-wide.
        let _cache = capture_cache_test_guard();
        let data = prepare("pathfinder", Scale::Tiny, 42);
        let l1 = |size_kb: u64, assoc: u32, line: u64, policy: ReplacementPolicy| {
            let mut cfg = SimtConfig::default();
            cfg.hierarchy.l1 =
                CacheConfig::new(size_kb * 1024, assoc, line, policy).expect("valid geometry");
            cfg
        };
        let mut grids: Vec<Vec<SimtConfig>> = Vec::new();
        for size_kb in [8u64, 16, 32, 64, 128] {
            for assoc in [1u32, 2, 4, 8, 16] {
                for line in [32u64, 128] {
                    // Two groups per grid: LRU groups that differ only
                    // after their first geometry, and a FIFO one.
                    grids.push(vec![
                        l1(128, 16, line, ReplacementPolicy::Lru),
                        l1(size_kb, assoc, line, ReplacementPolicy::Lru),
                        l1(size_kb, assoc, line, ReplacementPolicy::Fifo),
                    ]);
                }
            }
        }
        assert!(2 * grids.len() > MEMO_CAP);
        let plans: Vec<SweepPlan> = grids
            .iter()
            .map(|g| plan_single_pass(g, Metric::L1MissPct).expect("plans"))
            .collect();
        let reference = &plans[0].capture_cfg;
        let capture = || capture_stream(&data.orig_streams, &data.kernel.launch, reference);
        let (shared, memoless) = (capture(), capture());
        let want: Vec<Vec<f64>> = grids
            .iter()
            .zip(&plans)
            .map(|(grid, plan)| {
                *memoless.memo.lock().expect("memo lock") = Fifo::new(MEMO_CAP);
                eval_captured(plan, &memoless, grid).values
            })
            .collect();
        // The geometries tell apart, so a wrong answer would show.
        let swept: Vec<u64> = want.iter().map(|v| v[1].to_bits()).collect();
        assert!(swept.iter().any(|&v| v != swept[0]));
        let mut answered = 0;
        let forwards = 0..grids.len();
        for i in forwards.clone().chain(forwards.rev()) {
            let got = eval_captured(&plans[i], &shared, &grids[i]);
            assert_eq!(got.values, want[i], "grid {i}");
            answered += got.memo_groups;
            assert!(shared.memo.lock().expect("memo lock").entries.len() <= MEMO_CAP);
        }
        // Walking back, the last `MEMO_CAP` groups kept are answered.
        assert_eq!(answered, MEMO_CAP);
        // A group wider than `MEMO_GROUP_MAX` is evaluated every time.
        let wide = vec![grids[0][1]; MEMO_GROUP_MAX + 1];
        let plan = plan_single_pass(&wide, Metric::L1MissPct).expect("plans");
        for _ in 0..2 {
            assert_eq!(eval_captured(&plan, &shared, &wide).memo_groups, 0);
        }
    }

    /// The same geometries under another L1 write policy are another
    /// group: the reference configuration is part of the memo's key.
    #[test]
    fn memo_tells_reference_configurations_apart() {
        // Memo answers count process-wide.
        let _cache = capture_cache_test_guard();
        let data = prepare("pathfinder", Scale::Tiny, 42);
        let through = sweeps::l1_sweep();
        let mut back = through.clone();
        for c in &mut back {
            c.hierarchy.l1_write_policy = L1WritePolicy::WriteBackAllocate;
        }
        let plan = |grid: &[SimtConfig]| plan_single_pass(grid, Metric::L1MissPct).expect("plans");
        let (through_plan, back_plan) = (plan(&through), plan(&back));
        let capture = || {
            capture_stream(
                &data.orig_streams,
                &data.kernel.launch,
                &through_plan.capture_cfg,
            )
        };
        let shared = capture();
        eval_captured(&through_plan, &shared, &through);
        let got = eval_captured(&back_plan, &shared, &back);
        assert_eq!(got.memo_groups, 0);
        let want = eval_captured(&back_plan, &capture(), &back).values;
        assert_eq!(got.values, want);
        assert_ne!(want, eval_captured(&through_plan, &shared, &through).values);
    }

    #[test]
    fn write_back_l1_sweep_is_also_exact() {
        let mut configs = sweeps::l1_sweep();
        for c in &mut configs {
            c.hierarchy.l1_write_policy = L1WritePolicy::WriteBackAllocate;
        }
        let plan = plan_single_pass(&configs, Metric::L1MissPct).expect("WB sweep plans");
        let data = prepare("pathfinder", Scale::Tiny, 42);
        let cap = capture_stream(&data.orig_streams, &data.kernel.launch, &plan.capture_cfg);
        let engine = eval_captured(&plan, &cap, &configs);
        assert!(!engine.fell_back, "write-allocate stores never diverge");
        let direct = direct_l1_series(&cap, &configs);
        for (e, d) in engine.values.iter().zip(&direct) {
            assert!((e - d).abs() < 1e-9);
        }
    }
}
