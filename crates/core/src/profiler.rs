//! The profiling phase (paper §4, phases ① and ②).
//!
//! Consumes coalesced per-warp transaction streams — from the execution
//! substrate or any external trace source — and produces the statistical
//! [`GmapProfile`]. Coalescing has already happened (the paper applies the
//! coalescing model *before* locality analysis), so the unit of "thread"
//! in the locality statistics is the warp, matching Table 1's "inter-warp"
//! stride columns.

use crate::error::GmapError;
use crate::profile::{GmapProfile, PiEntry, PiProfile};
use crate::COALESCE_BYTES;
use gmap_gpu::coalesce::coalesce_app;
use gmap_gpu::exec::execute_kernel;
use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::kernel::KernelDesc;
use gmap_gpu::schedule::{WarpStream, WarpStreamEvent};
use gmap_trace::record::{AccessKind, ByteAddr, Pc};
use gmap_trace::reuse::ReuseHistogram;
use gmap_trace::{default_mode, Histogram};
use std::collections::{BTreeMap, HashMap};

/// Cap on the number of dominant π profiles a model keeps; a warp whose
/// π matches none of them once the cap is reached joins the nearest.
pub const MAX_PROFILES: usize = 32;

/// Profiler parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilerConfig {
    /// Coalescing granularity (must match how the streams were coalesced).
    pub line_size: u64,
    /// π-profile clustering threshold `Th` (§4.4; the paper uses 0.9).
    pub cluster_threshold: f64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            line_size: COALESCE_BYTES,
            cluster_threshold: 0.9,
        }
    }
}

/// Profiles a kernel end to end: execute → coalesce → profile.
///
/// # Panics
///
/// Panics if the kernel produces no memory accesses (every builtin
/// workload does); [`profile_kernel_with_streams`] is the fallible
/// interface.
pub fn profile_kernel(kernel: &KernelDesc, cfg: &ProfilerConfig) -> GmapProfile {
    profile_kernel_with_streams(kernel, cfg)
        .expect("executed kernel has memory accesses")
        .1
}

/// [`profile_kernel`] that also hands back the streams it profiled: the
/// kernel's per-warp streams coalesced at `cfg.line_size`. With the
/// default configuration that is [`COALESCE_BYTES`], so they equal
/// [`crate::model::original_streams`] and a caller that needs both the
/// original and its profile executes the kernel once.
///
/// # Errors
///
/// [`GmapError::EmptyProfile`] if the kernel issues no memory access.
pub fn profile_kernel_with_streams(
    kernel: &KernelDesc,
    cfg: &ProfilerConfig,
) -> Result<(Vec<WarpStream>, GmapProfile), GmapError> {
    let app = execute_kernel(kernel);
    let streams = coalesce_app(&app, cfg.line_size);
    let profile = profile_streams(&kernel.name, &streams, &app.launch, app.warp_size, cfg)?;
    Ok((streams, profile))
}

/// Profiles coalesced warp streams.
///
/// # Errors
///
/// Returns [`GmapError::EmptyProfile`] if the streams contain no memory
/// accesses.
pub fn profile_streams(
    name: &str,
    streams: &[WarpStream],
    launch: &LaunchConfig,
    warp_size: u32,
    cfg: &ProfilerConfig,
) -> Result<GmapProfile, GmapError> {
    // --- Pass 1: the one walk over the events. -----------------------------
    // Everything a warp contributes on its own is accumulated as its
    // events go by: the slot table and transaction shape, each slot's
    // intra-warp strides and PC-localized reuse with their per-ordinal
    // votes, and the warp's line-reuse histogram. Each of these is a
    // histogram or a vote count, so the order the streams come in does
    // not matter. A warp keeps only what the later passes need: its π,
    // one `u32` per entry, the first address of each slot it executed,
    // and its reuse histogram; its per-slot executions and its line
    // stream go through buffers reused from warp to warp.
    let mut slot_of: HashMap<Pc, usize> = HashMap::new();
    // The previous instruction's `(pc, slot)`: a run of one PC — a loop
    // body, or the per-line instructions of a lane-0 trace — is looked up
    // in `slot_of` once.
    let mut last_slot: Option<(Pc, usize)> = None;
    let mut pcs: Vec<Pc> = Vec::new();
    let mut kinds: Vec<AccessKind> = Vec::new();
    let mut txn_count: Vec<Histogram<u32>> = Vec::new();
    let mut txn_span: Vec<Histogram<u64>> = Vec::new();
    // Transaction counts below `DENSE_TXN` are tallied here and enter
    // `txn_count` once per distinct count after the walk.
    let mut txn_dense: Vec<[u64; DENSE_TXN]> = Vec::new();
    let mut intra_stride: Vec<Histogram<i64>> = Vec::new();
    let mut pc_reuse: Vec<Histogram<u32>> = Vec::new();
    // Per-slot, per-ordinal distance votes (ordinal e stored at e-1).
    let mut schedule_votes: Vec<Vec<Votes<u32>>> = Vec::new();
    // Per-slot, per-ordinal intra-stride votes.
    let mut stride_votes: Vec<Vec<Votes<i64>>> = Vec::new();
    let mut total_warp_accesses = 0u64;

    struct WarpRaw {
        warp: u32,
        /// The π sequence: a memory entry's slot, or [`SYNC_CODE`].
        pi: Vec<u32>,
        /// `(slot, first-transaction address of its first execution)`,
        /// ascending by slot.
        firsts: Vec<(usize, u64)>,
        /// Reuse distances of the warp's line stream.
        reuse: ReuseHistogram,
    }

    // Per slot, the first-transaction address of each of the warp's
    // executions of it, in order. Walked in slot order — a hash map here
    // would make profiles nondeterministic across runs (and fail
    // clippy's `iter_over_hash_type`).
    let mut by_slot: Vec<Vec<u64>> = Vec::new();
    // The warp's line stream.
    let mut lines: Vec<u64> = Vec::new();
    let kmode = default_mode();
    let mut stride_scratch: Vec<i64> = Vec::new();
    let mut touch = LastTouch::default();
    let mut raws: Vec<WarpRaw> = Vec::with_capacity(streams.len());
    for s in streams {
        let mut pi = Vec::with_capacity(s.events.len());
        lines.clear();
        for ev in &s.events {
            match ev {
                WarpStreamEvent::Access(a) => {
                    let (Some(first), Some(last)) = (a.lines.first(), a.lines.last()) else {
                        continue;
                    };
                    let slot = match last_slot {
                        Some((pc, slot)) if pc == a.pc => slot,
                        _ => *slot_of.entry(a.pc).or_insert_with(|| {
                            pcs.push(a.pc);
                            kinds.push(a.kind);
                            txn_count.push(Histogram::new());
                            txn_span.push(Histogram::new());
                            txn_dense.push([0; DENSE_TXN]);
                            intra_stride.push(Histogram::new());
                            pc_reuse.push(Histogram::new());
                            schedule_votes.push(Vec::new());
                            stride_votes.push(Vec::new());
                            by_slot.push(Vec::new());
                            pcs.len() - 1
                        }),
                    };
                    last_slot = Some((a.pc, slot));
                    pi.push(u32::try_from(slot).expect("fewer than 2^32 - 1 static instructions"));
                    by_slot[slot].push(first.0);
                    lines.extend(a.lines.iter().map(|l| l.0 / cfg.line_size));
                    match txn_dense[slot].get_mut(a.lines.len()) {
                        Some(count) => *count += 1,
                        None => txn_count[slot].add(a.lines.len() as u32),
                    }
                    if a.lines.len() > 1 {
                        txn_span[slot].add((last.0 - first.0) / cfg.line_size);
                    }
                    total_warp_accesses += 1;
                }
                WarpStreamEvent::Sync => pi.push(SYNC_CODE),
            }
        }
        let mut firsts = Vec::new();
        for (slot, execs) in by_slot.iter_mut().enumerate() {
            let Some(&first) = execs.first() else {
                continue;
            };
            firsts.push((slot, first));
            // Intra-warp strides: successive executions of the slot.
            // Strides are materialized once so the slot-level histogram
            // absorbs them through the batched sort+RLE kernel; the
            // per-ordinal votes take one each.
            stride_scratch.clear();
            stride_scratch.extend(execs.windows(2).map(|p| p[1].wrapping_sub(p[0]) as i64));
            intra_stride[slot].add_slice(&stride_scratch, kmode);
            add_votes(&mut stride_votes[slot], &stride_scratch);
            // PC-localized reuse, and the same distances as the
            // per-ordinal votes for the modal reuse schedule.
            let dists = touch.distances(execs, cfg.line_size);
            pc_reuse[slot].add_slice(dists, kmode);
            add_votes(&mut schedule_votes[slot], dists);
            execs.clear();
        }
        raws.push(WarpRaw {
            warp: s.warp.0,
            pi,
            firsts,
            // Reuse distances at line granularity.
            reuse: ReuseHistogram::from_lines(lines.iter().copied()),
        });
    }
    if pcs.is_empty() {
        return Err(GmapError::EmptyProfile);
    }
    for (hist, dense) in txn_count.iter_mut().zip(&txn_dense) {
        for (len, &n) in dense.iter().enumerate() {
            hist.add_n(len as u32, n);
        }
    }
    // Profile statistics are keyed by warp id order.
    raws.sort_by_key(|r| r.warp);

    // --- Pass 2: π clustering (§4.4). ------------------------------------
    // Deduplicate identical sequences first — keyed by the borrowed
    // sequences, so a warp's π is neither copied nor hashed — then cluster
    // the unique ones greedily by positional similarity against cluster
    // representatives.
    let mut unique: Vec<(&[u32], u64)> = Vec::new();
    let mut seq_index: BTreeMap<&[u32], usize> = BTreeMap::new();
    let mut warp_unique: Vec<usize> = Vec::with_capacity(raws.len());
    for raw in &raws {
        let i = *seq_index.entry(&raw.pi).or_insert_with(|| {
            unique.push((&raw.pi, 0));
            unique.len() - 1
        });
        unique[i].1 += 1;
        warp_unique.push(i);
    }
    let order: Vec<usize> = {
        let mut idx: Vec<usize> = (0..unique.len()).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(unique[i].1));
        idx
    };
    let mut cluster_of_unique: Vec<usize> = vec![usize::MAX; unique.len()];
    let mut reps: Vec<&[u32]> = Vec::new();
    let mut weights: Histogram<usize> = Histogram::new();
    for &u in &order {
        let (seq, count) = unique[u];
        let found = reps
            .iter()
            .position(|rep| similarity(rep, seq) >= cfg.cluster_threshold)
            .or_else(|| {
                if reps.len() >= MAX_PROFILES {
                    // Overflow: join the nearest cluster.
                    reps.iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| {
                            similarity(a, seq)
                                .partial_cmp(&similarity(b, seq))
                                .expect("similarities are finite")
                        })
                        .map(|(i, _)| i)
                } else {
                    None
                }
            });
        let c = match found {
            Some(c) => c,
            None => {
                reps.push(seq);
                reps.len() - 1
            }
        };
        cluster_of_unique[u] = c;
        weights.add_n(c, count);
    }
    let warp_cluster: Vec<usize> = warp_unique.iter().map(|&u| cluster_of_unique[u]).collect();
    let profiles: Vec<PiProfile> = reps
        .iter()
        .map(|rep| PiProfile {
            entries: rep
                .iter()
                .map(|&code| match code {
                    SYNC_CODE => PiEntry::Sync,
                    slot => PiEntry::Mem(slot as usize),
                })
                .collect(),
        })
        .collect();

    // --- Pass 3: what chains warp to warp, in warp-id order. -------------
    let n = pcs.len();
    let mut base_addrs = vec![ByteAddr(0); n];
    let mut inter_stride: Vec<Histogram<i64>> = vec![Histogram::new(); n];
    // Per-slot, per-block-phase inter-warp stride votes.
    let wpb = launch.warps_per_block(warp_size).max(1) as usize;
    let mut phase_votes: Vec<Vec<Votes<i64>>> = vec![vec![Votes::default(); wpb]; n];
    let mut last_first_addr: Vec<Option<u64>> = vec![None; n];
    let mut reuse: Vec<ReuseHistogram> = vec![ReuseHistogram::new(); profiles.len()];
    for (raw, &cluster) in raws.iter().zip(&warp_cluster) {
        // Inter-warp strides: first execution per slot vs the previous
        // warp that executed the slot.
        for &(slot, first) in &raw.firsts {
            match last_first_addr[slot] {
                None => base_addrs[slot] = ByteAddr(first),
                Some(prev) => {
                    let stride = first.wrapping_sub(prev) as i64;
                    inter_stride[slot].add(stride);
                    phase_votes[slot][raw.warp as usize % wpb].add(stride);
                }
            }
            last_first_addr[slot] = Some(first);
        }
        // Reuse distances per π cluster.
        reuse[cluster].merge(&raw.reuse);
    }

    let profile = GmapProfile {
        name: name.to_owned(),
        launch: *launch,
        warp_size,
        line_size: cfg.line_size,
        pcs,
        kinds,
        profiles,
        profile_weights: weights,
        base_addrs,
        inter_stride,
        intra_stride,
        pc_reuse,
        pc_reuse_schedule: modal_schedule(schedule_votes),
        intra_stride_schedule: modal_schedule(stride_votes),
        inter_stride_phase: modal_schedule(phase_votes),
        reuse,
        txn_count,
        txn_span,
        sched_p_self: None,
        total_warp_accesses,
    };
    profile.validate()?;
    Ok(profile)
}

/// A barrier in `profile_streams`' π codes; every other code is a slot.
const SYNC_CODE: u32 = u32::MAX;

/// [`PiProfile::similarity`] on π codes.
fn similarity(a: &[u32], b: &[u32]) -> f64 {
    let longer = a.len().max(b.len());
    if longer == 0 {
        return 1.0;
    }
    let matching = a.iter().zip(b).filter(|(x, y)| x == y).count();
    matching as f64 / longer as f64
}

/// PC-localized reuse distances of one slot's executions in one warp.
#[derive(Debug, Default)]
struct LastTouch {
    /// Last touch per address, as an execution index + 1 (0: untouched),
    /// indexed by the address's line offset from the lowest address.
    dense: Vec<usize>,
    /// The same for address sets too spread out for `dense`. Keyed by
    /// trace-chosen addresses, so it keeps the keyed SipHash.
    sparse: HashMap<u64, usize>,
    out: Vec<u32>,
}

impl LastTouch {
    /// For every execution after the first, the distance in executions
    /// back to the previous one at the same address (0 = the first touch
    /// of that address). A set of line-aligned addresses spanning fewer
    /// than four lines per execution is tracked in a dense row; any other
    /// in a hash map.
    fn distances(&mut self, addrs: &[u64], line_size: u64) -> &[u32] {
        self.out.clear();
        let Some(&lo) = addrs.iter().min() else {
            return &self.out;
        };
        let hi = addrs.iter().copied().max().unwrap_or(lo);
        let shift = line_size.trailing_zeros();
        let dense = line_size.is_power_of_two()
            && addrs.iter().all(|&a| (a - lo) & (line_size - 1) == 0)
            && (hi - lo) >> shift < 4 * addrs.len() as u64;
        if dense {
            let span = (hi - lo) >> shift;
            self.dense.clear();
            self.dense.resize(span as usize + 1, 0);
            for (e, &a) in addrs.iter().enumerate() {
                let last = std::mem::replace(&mut self.dense[((a - lo) >> shift) as usize], e + 1);
                if e > 0 {
                    self.out
                        .push(if last == 0 { 0 } else { (e + 1 - last) as u32 });
                }
            }
        } else {
            self.sparse.clear();
            for (e, &a) in addrs.iter().enumerate() {
                let dist = match self.sparse.insert(a, e) {
                    Some(prev) => (e - prev) as u32,
                    None => 0,
                };
                if e > 0 {
                    self.out.push(dist);
                }
            }
        }
        &self.out
    }
}

/// Transaction counts `profile_streams` tallies in a dense row per slot
/// before they enter the slot's histogram.
const DENSE_TXN: usize = 64;

/// The votes cast at one position of a schedule. Warps mostly agree, so
/// a position holds one value and its count until a second value turns
/// up; only then does it become a histogram.
#[derive(Debug, Clone)]
enum Votes<T: Ord> {
    One(T, u64),
    Many(Histogram<T>),
}

impl<T: Ord> Default for Votes<T> {
    fn default() -> Self {
        Votes::Many(Histogram::default())
    }
}

impl<T: Ord + Copy> Votes<T> {
    fn add(&mut self, value: T) {
        match self {
            Votes::One(v, n) if *v == value => *n += 1,
            Votes::One(v, n) => {
                let mut h = Histogram::new();
                h.add_n(*v, *n);
                h.add(value);
                *self = Votes::Many(h);
            }
            Votes::Many(h) if h.is_empty() => *self = Votes::One(value, 1),
            Votes::Many(h) => h.add(value),
        }
    }

    /// The value a majority of voters agree on: the dominant value at a
    /// frequency of at least one half, the smaller value on a tie.
    fn modal(&self) -> Option<T> {
        match self {
            Votes::One(v, _) => Some(*v),
            Votes::Many(h) => h.dominant().and_then(|(v, f)| (f >= 0.5).then_some(v)),
        }
    }
}

/// Casts `values[e]` at position `e`, growing the schedule as needed.
fn add_votes<T: Ord + Copy>(votes: &mut Vec<Votes<T>>, values: &[T]) {
    if votes.len() < values.len() {
        votes.resize_with(values.len(), Votes::default);
    }
    for (vote, &v) in votes.iter_mut().zip(values) {
        vote.add(v);
    }
}

/// Reduces per-position votes to modal values, keeping a value only where
/// a majority of voters agree — i.e. where the behaviour is *structural*
/// (every warp does it) rather than incidental.
fn modal_schedule<T: Ord + Copy>(votes: Vec<Vec<Votes<T>>>) -> Vec<Vec<Option<T>>> {
    votes
        .iter()
        .map(|per_pos| per_pos.iter().map(Votes::modal).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmap_gpu::kernel::{dsl, IndexExpr, KernelBuilder, Pred, Stmt};
    use gmap_gpu::workloads::{self, Scale};
    use gmap_trace::reuse::ReuseClass;

    fn simple_kernel() -> KernelDesc {
        KernelBuilder::new("simple", 4u32, 64u32)
            .array("a", 1 << 18)
            .stmt(dsl::loop_n(
                4,
                vec![dsl::read(0x10, 0, dsl::affine(0, 1, vec![(0, 1024)]))],
            ))
            .write(Pc(0x20), 0, IndexExpr::tid_linear(0, 1))
            .build()
            .expect("valid")
    }

    #[test]
    fn profiles_simple_kernel() {
        let p = profile_kernel(&simple_kernel(), &ProfilerConfig::default());
        assert_eq!(p.pcs, vec![Pc(0x10), Pc(0x20)]);
        assert_eq!(p.kinds, vec![AccessKind::Read, AccessKind::Write]);
        // No divergence: exactly one π profile.
        assert_eq!(p.profiles.len(), 1);
        assert_eq!(p.profiles[0].num_accesses(), 5);
        assert_eq!(p.total_warp_accesses, 8 * 5);
    }

    #[test]
    fn inter_warp_stride_is_captured() {
        let p = profile_kernel(&simple_kernel(), &ProfilerConfig::default());
        let slot = p.slot_of(Pc(0x10)).expect("profiled");
        // Unit-stride 4-byte elements, 32 lanes: inter-warp stride 128 B.
        let (stride, freq) = p.inter_stride[slot].dominant().expect("non-empty");
        assert_eq!(stride, 128);
        assert!(freq > 0.9);
    }

    #[test]
    fn intra_warp_stride_is_captured() {
        let p = profile_kernel(&simple_kernel(), &ProfilerConfig::default());
        let slot = p.slot_of(Pc(0x10)).expect("profiled");
        // Loop coefficient 1024 elements = 4096 B.
        let (stride, _) = p.intra_stride[slot].dominant().expect("non-empty");
        assert_eq!(stride, 4096);
    }

    #[test]
    fn txn_counts_reflect_coalescing() {
        let p = profile_kernel(&simple_kernel(), &ProfilerConfig::default());
        let slot = p.slot_of(Pc(0x10)).expect("profiled");
        // Fully coalesced: one transaction per access.
        assert_eq!(p.txn_count[slot].dominant(), Some((1, 1.0)));
    }

    #[test]
    fn base_address_is_first_warp_first_access() {
        let p = profile_kernel(&simple_kernel(), &ProfilerConfig::default());
        let slot = p.slot_of(Pc(0x10)).expect("profiled");
        // Array base is 0x1000 (builder layout), line-aligned.
        assert_eq!(p.base_addrs[slot], ByteAddr(0x1000));
    }

    #[test]
    fn divergent_kernel_yields_multiple_profiles() {
        let k = KernelBuilder::new("div", 8u32, 32u32)
            .array("a", 1 << 16)
            .stmt(Stmt::If {
                pred: Pred::BlockMod { m: 2, r: 0 },
                then_body: vec![
                    dsl::read(0x10, 0, IndexExpr::tid_linear(0, 1)),
                    dsl::read(0x18, 0, IndexExpr::tid_linear(64, 1)),
                    dsl::read(0x20, 0, IndexExpr::tid_linear(128, 1)),
                ],
                else_body: vec![dsl::read(0x28, 0, IndexExpr::tid_linear(0, 2))],
            })
            .build()
            .expect("valid");
        let p = profile_kernel(&k, &ProfilerConfig::default());
        assert_eq!(p.profiles.len(), 2, "two distinct execution paths");
        // Equal split: 4 blocks each.
        let w0 = p.profile_weights.count_of(0);
        let w1 = p.profile_weights.count_of(1);
        assert_eq!(w0 + w1, 8);
        assert_eq!(w0, 4);
    }

    #[test]
    fn clustering_threshold_merges_similar_paths() {
        // Paths differing in 1 of 20 entries (95% similar) must merge at
        // Th=0.9 but split at Th=0.99.
        let body = |extra_pc: u64| {
            let mut v = vec![];
            for i in 0..19 {
                v.push(dsl::read(0x100 + i * 8, 0, IndexExpr::tid_linear(0, 1)));
            }
            v.push(dsl::read(extra_pc, 0, IndexExpr::tid_linear(0, 1)));
            v
        };
        let k = KernelBuilder::new("near", 4u32, 32u32)
            .array("a", 1 << 16)
            .stmt(Stmt::If {
                pred: Pred::BlockMod { m: 2, r: 0 },
                then_body: body(0x200),
                else_body: body(0x208),
            })
            .build()
            .expect("valid");
        let loose = profile_kernel(&k, &ProfilerConfig::default());
        assert_eq!(loose.profiles.len(), 1, "95%-similar paths merge at Th=0.9");
        let strict = profile_kernel(
            &k,
            &ProfilerConfig {
                cluster_threshold: 0.99,
                ..ProfilerConfig::default()
            },
        );
        assert_eq!(
            strict.profiles.len(),
            2,
            "95%-similar paths split at Th=0.99"
        );
    }

    #[test]
    fn sync_entries_survive_profiling() {
        let k = KernelBuilder::new("sync", 2u32, 64u32)
            .array("a", 1 << 12)
            .read(Pc(0x10), 0, IndexExpr::tid_linear(0, 1))
            .stmt(Stmt::Sync)
            .read(Pc(0x18), 0, IndexExpr::tid_linear(0, 1))
            .build()
            .expect("valid");
        let p = profile_kernel(&k, &ProfilerConfig::default());
        assert_eq!(
            p.profiles[0].entries,
            vec![PiEntry::Mem(0), PiEntry::Sync, PiEntry::Mem(1)]
        );
    }

    #[test]
    fn reuse_class_survives_profiling() {
        // kmeans is the paper's canonical high-reuse app.
        let p = profile_kernel(&workloads::kmeans(Scale::Tiny), &ProfilerConfig::default());
        let dominant_profile = p.profile_weights.dominant().expect("non-empty").0;
        assert_eq!(p.reuse[dominant_profile].class(), ReuseClass::High);
        // scalarprod is streaming.
        let p = profile_kernel(
            &workloads::scalarprod(Scale::Tiny),
            &ProfilerConfig::default(),
        );
        let dom = p.profile_weights.dominant().expect("non-empty").0;
        assert_eq!(p.reuse[dom].class(), ReuseClass::Low);
    }

    #[test]
    fn empty_streams_are_rejected() {
        let launch = LaunchConfig::new(1u32, 32u32);
        let err = profile_streams("empty", &[], &launch, 32, &ProfilerConfig::default());
        assert!(matches!(err, Err(GmapError::EmptyProfile)));
    }

    #[test]
    fn profile_is_deterministic() {
        let k = workloads::bfs(Scale::Tiny);
        let a = profile_kernel(&k, &ProfilerConfig::default());
        let b = profile_kernel(&k, &ProfilerConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn all_workloads_profile_cleanly() {
        for k in workloads::all(Scale::Tiny) {
            let p = profile_kernel(&k, &ProfilerConfig::default());
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", k.name));
            assert!(p.total_warp_accesses > 0, "{}", k.name);
        }
    }
}
