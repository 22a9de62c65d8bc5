//! `profile_streams` as it was before its one walk: three passes over
//! every warp's materialized raw sequences, the π dedup keyed by cloned
//! sequences, and one histogram insert per per-ordinal vote. The
//! reference the one-walk profiler is diffed against, on random streams
//! of one-line instructions and barriers whose per-ordinal votes tie at
//! exactly half.

use gmap_core::cachekey::key_of;
use gmap_core::profile::{GmapProfile, PiEntry, PiProfile};
use gmap_core::profiler::{profile_streams, ProfilerConfig, MAX_PROFILES};
use gmap_core::GmapError;
use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::schedule::{CoalescedAccess, WarpStream, WarpStreamEvent};
use gmap_trace::record::{AccessKind, ByteAddr, Pc, WarpId};
use gmap_trace::reuse::ReuseHistogram;
use gmap_trace::{default_mode, Histogram};
use proptest::prelude::*;
use std::collections::HashMap;

/// The replaced `profile_streams`.
fn reference_profile_streams(
    name: &str,
    streams: &[WarpStream],
    launch: &LaunchConfig,
    warp_size: u32,
    cfg: &ProfilerConfig,
) -> Result<GmapProfile, GmapError> {
    // --- Pass 1: slot table, per-warp raw sequences, transaction shape. ---
    // The only walk over the events: everything later reads `raws`.
    let mut slot_of: HashMap<Pc, usize> = HashMap::new();
    // The previous instruction's `(pc, slot)`: a run of one PC — a loop
    // body, or the per-line instructions of a lane-0 trace — is looked up
    // in `slot_of` once.
    let mut last_slot: Option<(Pc, usize)> = None;
    let mut pcs: Vec<Pc> = Vec::new();
    let mut kinds: Vec<AccessKind> = Vec::new();
    // Per slot; a histogram does not depend on insertion order, so these
    // are filled as the instructions go by.
    let mut txn_count: Vec<Histogram<u32>> = Vec::new();
    let mut txn_span: Vec<Histogram<u64>> = Vec::new();
    let mut total_warp_accesses = 0u64;

    struct WarpRaw {
        warp: u32,
        pi: PiProfile,
        /// First-transaction address of every memory entry, in order.
        addrs: Vec<u64>,
        /// Indexed by slot: indices into `addrs` of the slot's executions
        /// (empty for a slot this warp never executed). Pass 3 walks it
        /// in slot order, and that order feeds the stride histograms — a
        /// hash map here would make profiles nondeterministic across runs
        /// (and fail clippy's `iter_over_hash_type`).
        by_slot: Vec<Vec<usize>>,
        /// Full line stream (all transactions) for reuse analysis.
        lines: Vec<u64>,
    }

    let mut raws: Vec<WarpRaw> = Vec::with_capacity(streams.len());
    for s in streams {
        let mut raw = WarpRaw {
            warp: s.warp.0,
            pi: PiProfile::default(),
            addrs: Vec::new(),
            by_slot: Vec::new(),
            lines: Vec::new(),
        };
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
                            pcs.len() - 1
                        }),
                    };
                    last_slot = Some((a.pc, slot));
                    raw.pi.entries.push(PiEntry::Mem(slot));
                    let idx = raw.addrs.len();
                    raw.addrs.push(first.0);
                    if raw.by_slot.len() <= slot {
                        raw.by_slot.resize_with(slot + 1, Vec::new);
                    }
                    raw.by_slot[slot].push(idx);
                    for l in &a.lines {
                        raw.lines.push(l.0 / cfg.line_size);
                    }
                    txn_count[slot].add(a.lines.len() as u32);
                    if a.lines.len() > 1 {
                        txn_span[slot].add((last.0 - first.0) / cfg.line_size);
                    }
                    total_warp_accesses += 1;
                }
                WarpStreamEvent::Sync => raw.pi.entries.push(PiEntry::Sync),
            }
        }
        raws.push(raw);
    }
    if pcs.is_empty() {
        return Err(GmapError::EmptyProfile);
    }
    // Profile statistics are keyed by warp id order.
    raws.sort_by_key(|r| r.warp);

    // --- Pass 2: π clustering (§4.4). ------------------------------------
    // Deduplicate identical sequences first; cluster the unique ones
    // greedily by positional similarity against cluster representatives.
    let mut unique: Vec<(PiProfile, u64)> = Vec::new();
    let mut seq_index: HashMap<PiProfile, usize> = HashMap::new();
    let mut warp_unique: Vec<usize> = Vec::with_capacity(raws.len());
    for raw in &raws {
        let i = *seq_index.entry(raw.pi.clone()).or_insert_with(|| {
            unique.push((raw.pi.clone(), 0));
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
    let mut reps: Vec<PiProfile> = Vec::new();
    let mut weights: Histogram<usize> = Histogram::new();
    for &u in &order {
        let (seq, count) = &unique[u];
        let found = reps
            .iter()
            .position(|rep| rep.similarity(seq) >= cfg.cluster_threshold)
            .or_else(|| {
                if reps.len() >= MAX_PROFILES {
                    // Overflow: join the nearest cluster.
                    reps.iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| {
                            a.similarity(seq)
                                .partial_cmp(&b.similarity(seq))
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
                reps.push(seq.clone());
                reps.len() - 1
            }
        };
        cluster_of_unique[u] = c;
        weights.add_n(c, *count);
    }
    let warp_cluster: Vec<usize> = warp_unique.iter().map(|&u| cluster_of_unique[u]).collect();

    // --- Pass 3: locality distributions. ----------------------------------
    let n = pcs.len();
    let mut base_addrs = vec![ByteAddr(0); n];
    let mut base_set = vec![false; n];
    let mut inter_stride: Vec<Histogram<i64>> = vec![Histogram::new(); n];
    let mut intra_stride: Vec<Histogram<i64>> = vec![Histogram::new(); n];
    let mut pc_reuse: Vec<Histogram<u32>> = vec![Histogram::new(); n];
    // Per-slot, per-ordinal distance votes (ordinal e stored at e-1).
    let mut schedule_votes: Vec<Vec<Histogram<u32>>> = vec![Vec::new(); n];
    // Per-slot, per-ordinal intra-stride votes.
    let mut stride_votes: Vec<Vec<Histogram<i64>>> = vec![Vec::new(); n];
    // Per-slot, per-block-phase inter-warp stride votes.
    let wpb = launch.warps_per_block(warp_size).max(1) as usize;
    let mut phase_votes: Vec<Vec<Histogram<i64>>> =
        vec![(0..wpb).map(|_| Histogram::new()).collect(); n];
    let mut last_first_addr: Vec<Option<u64>> = vec![None; n];
    let mut reuse: Vec<ReuseHistogram> = vec![ReuseHistogram::new(); reps.len()];
    let kmode = default_mode();
    let mut stride_scratch: Vec<i64> = Vec::new();
    let mut last_touch: HashMap<u64, usize> = HashMap::new();

    for (w, raw) in raws.iter().enumerate() {
        // Inter-warp strides: first execution per slot vs the previous
        // warp that executed the slot (warp-id order).
        for (slot, execs) in raw.by_slot.iter().enumerate() {
            let Some(&first_exec) = execs.first() else {
                continue;
            };
            let first = raw.addrs[first_exec];
            if !base_set[slot] {
                base_addrs[slot] = ByteAddr(first);
                base_set[slot] = true;
            } else if let Some(prev) = last_first_addr[slot] {
                let stride = first as i64 - prev as i64;
                inter_stride[slot].add(stride);
                phase_votes[slot][raw.warp as usize % wpb].add(stride);
            }
            last_first_addr[slot] = Some(first);
            // Intra-warp strides: successive executions of the slot.
            // Strides are materialized once so the slot-level histogram
            // absorbs them through the batched sort+RLE kernel; the
            // per-ordinal votes still want one add per ordinal.
            stride_scratch.clear();
            for pair in execs.windows(2) {
                stride_scratch.push(raw.addrs[pair[1]] as i64 - raw.addrs[pair[0]] as i64);
            }
            intra_stride[slot].add_slice(&stride_scratch, kmode);
            let votes = &mut stride_votes[slot];
            if votes.len() < stride_scratch.len() {
                votes.resize_with(stride_scratch.len(), Histogram::new);
            }
            for (e, &stride) in stride_scratch.iter().enumerate() {
                votes[e].add(stride);
            }
            // PC-localized reuse: for every execution after the first,
            // distance in same-slot executions back to the previous touch
            // of the same address (0 = fresh address for this slot). Also
            // accumulate the per-ordinal distance votes for the modal
            // reuse schedule.
            last_touch.clear();
            for (e, &idx) in execs.iter().enumerate() {
                let addr = raw.addrs[idx];
                let dist = match last_touch.insert(addr, e) {
                    Some(prev) => (e - prev) as u32,
                    None => 0,
                };
                if e > 0 {
                    pc_reuse[slot].add(dist);
                    let votes = &mut schedule_votes[slot];
                    if votes.len() < e {
                        votes.resize_with(e, Histogram::new);
                    }
                    votes[e - 1].add(dist);
                }
            }
        }
        // Reuse distances per π cluster, at line granularity.
        reuse[warp_cluster[w]].merge(&ReuseHistogram::from_lines(raw.lines.iter().copied()));
        let _ = w;
    }

    let profile = GmapProfile {
        name: name.to_owned(),
        launch: *launch,
        warp_size,
        line_size: cfg.line_size,
        pcs,
        kinds,
        profiles: reps,
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

/// Reduces per-position vote histograms to modal values, keeping a value
/// only where a majority of voters agree — i.e. where the behaviour is
/// *structural* (every warp does it) rather than incidental.
fn modal_schedule<T: Ord + Copy>(votes: Vec<Vec<Histogram<T>>>) -> Vec<Vec<Option<T>>> {
    votes
        .into_iter()
        .map(|per_pos| {
            per_pos
                .into_iter()
                .map(|h| h.dominant().and_then(|(v, f)| (f >= 0.5).then_some(v)))
                .collect()
        })
        .collect()
}

/// One warp's events from `codes`: a barrier (one code in eight) or an
/// access at one of three PCs touching one line of a 16-line alphabet —
/// two lines now and then — so strides and PC-local reuses repeat.
/// `flip` moves the line of every code whose bit is set one line up: the
/// twin warp it builds votes the other value wherever that changes a
/// stride or a reuse distance.
fn warp_events(codes: &[u32], flip: u32) -> Vec<WarpStreamEvent> {
    codes
        .iter()
        .enumerate()
        .map(|(i, &code)| {
            if code % 8 == 0 {
                return WarpStreamEvent::Sync;
            }
            let moved = u64::from(flip >> (i % 32) & 1);
            let line = (u64::from(code >> 3) % 16 + moved) * 128;
            let wide = code >> 7 & 7 == 0;
            WarpStreamEvent::Access(CoalescedAccess {
                pc: Pc(0x10 + u64::from(code >> 10) % 3 * 8),
                kind: if code & 0x2000 == 0 {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                },
                lines: if wide {
                    vec![ByteAddr(line), ByteAddr(line + 3 * 128)].into()
                } else {
                    vec![ByteAddr(0x10_0000 + line)].into()
                },
            })
        })
        .collect()
}

fn assert_same(got: Result<GmapProfile, GmapError>, want: Result<GmapProfile, GmapError>) {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(key_of(&got), key_of(&want), "content keys differ");
            assert_eq!(got, want);
        }
        (Err(GmapError::EmptyProfile), Err(GmapError::EmptyProfile)) => {}
        (got, want) => panic!("got {got:?}, want {want:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Warps come in twins — the same codes, one of them moved by `flip`
    /// — so every ordinal a flip touches is a vote split exactly in half,
    /// which `modal_schedule`'s `f >= 0.5` settles for the smaller value.
    /// Over 1–4 blocks of 2 or 4 warps, streams given in warp order or
    /// reversed, the one-walk profiler must return the reference's
    /// profile, content key included.
    #[test]
    fn one_walk_profile_matches_reference(
        blocks in 1u32..=4,
        twins_per_block in 1u32..=2,
        codes in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..=48), 8),
        flips in proptest::collection::vec(any::<u32>(), 8),
        reversed in any::<bool>(),
    ) {
        let wpb = 2 * twins_per_block;
        let mut streams = Vec::new();
        for b in 0..blocks {
            for t in 0..twins_per_block {
                let pair = (b * twins_per_block + t) as usize;
                for (k, flip) in [0, flips[pair]].into_iter().enumerate() {
                    streams.push(WarpStream {
                        warp: WarpId(b * wpb + 2 * t + k as u32),
                        block: b,
                        events: warp_events(&codes[pair], flip),
                    });
                }
            }
        }
        if reversed {
            streams.reverse();
        }
        let launch = LaunchConfig::new(blocks, wpb * 32);
        let cfg = ProfilerConfig::default();
        assert_same(
            profile_streams("prop", &streams, &launch, 32, &cfg),
            reference_profile_streams("prop", &streams, &launch, 32, &cfg),
        );
    }
}
