//! Proxy generation: Algorithms 1 and 2 of the paper.
//!
//! From nothing but a [`GmapProfile`], regenerate per-warp transaction
//! streams whose locality statistics match the original application:
//!
//! - **Algorithm 1** (per-warp trace generation): the *first* execution of
//!   each static instruction chains off the shared base address through the
//!   inter-thread stride distribution `P_E` — reproducing the inter-warp
//!   regularity of §4.2. Later executions first try to satisfy a sampled
//!   reuse distance (if the implied jump lies in the support of the
//!   intra-stride distribution `P_A`), otherwise they advance by a sampled
//!   intra-thread stride — reproducing §4.3.
//! - **Algorithm 2** (proxy assembly): every warp samples its π profile
//!   from `(Π, Q)`, generates its trace, and is grouped into threadblocks
//!   and warps per the Fermi model; the per-core warp queues and the
//!   scheduling policy then interleave the streams (that part lives in
//!   [`gmap_gpu::schedule`] and is driven by [`crate::model`]).

use crate::profile::{GmapProfile, PiEntry};
use gmap_gpu::schedule::{CoalescedAccess, Lines, WarpStream, WarpStreamEvent};
use gmap_trace::record::{ByteAddr, WarpId};
use gmap_trace::rng::Rng;
use gmap_trace::HistSampler;

/// Generates the clone's per-warp transaction streams (Algorithm 2,
/// lines 3–10).
///
/// The number of warps, their block grouping and the warp size all come
/// from the profile's launch geometry — G-MAP "maintains the same grid and
/// TB dimensions as the original application" (§4). Identical `(profile,
/// seed)` inputs produce identical clones.
pub fn generate_streams(profile: &GmapProfile, seed: u64) -> Vec<WarpStream> {
    let n_slots = profile.num_slots();
    let line = profile.line_size;
    // Samplers are immutable snapshots; build once.
    let q_sampler = profile.profile_weights.sampler();
    let inter: Vec<HistSampler<i64>> = profile.inter_stride.iter().map(|h| h.sampler()).collect();
    let intra: Vec<HistSampler<i64>> = profile.intra_stride.iter().map(|h| h.sampler()).collect();
    let txn: Vec<HistSampler<u32>> = profile.txn_count.iter().map(|h| h.sampler()).collect();
    let span: Vec<HistSampler<u64>> = profile.txn_span.iter().map(|h| h.sampler()).collect();
    let reuse: Vec<HistSampler<u64>> = profile
        .reuse
        .iter()
        .map(|r| r.distances().sampler())
        .collect();
    let pc_reuse: Vec<HistSampler<u32>> = profile.pc_reuse.iter().map(|h| h.sampler()).collect();

    let mut rng = Rng::seed_from(seed ^ 0x6AA9_0000_CAFE);
    let total_warps = profile.launch.total_warps(profile.warp_size);
    let warps_per_block = profile.launch.warps_per_block(profile.warp_size);
    // Global base-address state b(k), shared across warps (Algorithm 1,
    // line 9 updates it so the next warp chains from this one).
    let mut b_global: Vec<u64> = profile.base_addrs.iter().map(|b| b.0).collect();

    // Algorithm 1's per-warp state, reused from warp to warp: b'(k), the
    // warp's address trace, and per slot its address history for the
    // PC-localized reuse extension (empty until the slot's first
    // execution).
    let mut b_local: Vec<u64> = vec![0; n_slots];
    let mut t_addrs: Vec<u64> = Vec::new();
    let mut slot_hist: Vec<Vec<u64>> = vec![Vec::new(); n_slots];

    let mut streams = Vec::with_capacity(total_warps as usize);
    for w in 0..total_warps {
        // Algorithm 2 line 5: sample π_i from Π with respect to Q.
        let pi_idx = q_sampler.sample(&mut rng).unwrap_or(0);
        let pi = &profile.profiles[pi_idx];

        // Algorithm 1 for this warp.
        t_addrs.clear();
        slot_hist.iter_mut().for_each(Vec::clear);
        let mut events = Vec::with_capacity(pi.entries.len());
        for entry in &pi.entries {
            let k = match entry {
                PiEntry::Sync => {
                    events.push(WarpStreamEvent::Sync);
                    continue;
                }
                PiEntry::Mem(k) => *k,
            };
            let addr = if slot_hist[k].is_empty() {
                // First execution: chain from the shared base through P_E,
                // preferring the structural block-phase stride where one
                // exists (block-boundary discontinuities repeat with the
                // block period).
                let phase = &profile.inter_stride_phase[k];
                let offset = phase
                    .get(w as usize % phase.len().max(1))
                    .copied()
                    .flatten()
                    .or_else(|| inter[k].sample(&mut rng))
                    .unwrap_or(0);
                let a = align(b_global[k].saturating_add_signed(offset), line);
                b_global[k] = a;
                b_local[k] = a;
                a
            } else {
                // PC-localized reuse extension: revisit the address this
                // instruction touched `v` of its own executions ago. The
                // modal per-ordinal schedule places structural rewinds at
                // the position every warp performs them; ordinals beyond
                // the schedule sample the marginal distribution.
                let exec_idx = slot_hist[k].len(); // >= 1 on this path
                let sched = &profile.pc_reuse_schedule[k];
                let v = sched
                    .get(exec_idx - 1)
                    .copied()
                    .flatten()
                    .or_else(|| pc_reuse[k].sample(&mut rng));
                let pc_reused = v.and_then(|v| {
                    let h = &slot_hist[k];
                    (v > 0 && h.len() >= v as usize).then(|| h[h.len() - v as usize])
                });
                // Paper's reuse-distance satisfaction (lines 11–13).
                let reused = pc_reused.or_else(|| {
                    reuse[pi_idx].sample(&mut rng).and_then(|r| {
                        let j = t_addrs.len();
                        let back = r as usize + 1;
                        if back > j {
                            return None;
                        }
                        let cand = t_addrs[j - back];
                        let prev = t_addrs[j - 1];
                        let diff = cand.wrapping_sub(prev) as i64;
                        intra[k].contains(diff).then_some(cand)
                    })
                });
                let a = match reused {
                    Some(a) => a,
                    None => {
                        // Fall back to an intra-thread stride (lines
                        // 15–17), structural-first: where every warp
                        // strides identically at this ordinal, replay that
                        // stride; otherwise sample the marginal.
                        let stride = profile.intra_stride_schedule[k]
                            .get(exec_idx - 1)
                            .copied()
                            .flatten()
                            .or_else(|| intra[k].sample(&mut rng))
                            .unwrap_or(0);
                        align(b_local[k].saturating_add_signed(stride), line)
                    }
                };
                // The stride anchor tracks the last address of this
                // instruction even after a reuse — P_A is measured between
                // *successive* executions, so the next stride must apply
                // from wherever this execution landed. (The paper's
                // pseudocode leaves b'(k) untouched on the reuse path,
                // which makes multi-pass kernels walk out of their
                // regions; see DESIGN.md.)
                b_local[k] = a;
                a
            };
            // Reproduce the coalescing behaviour: divergent instructions
            // emit several transactions spread over a sampled span with
            // jittered gaps — consecutive when the original was strided
            // (span = n−1), scattered when it was an irregular gather.
            let n_txn = txn[k].sample(&mut rng).unwrap_or(1).max(1) as u64;
            let lines = if n_txn == 1 {
                Lines::one(ByteAddr(addr))
            } else {
                let spread = span[k].sample(&mut rng).unwrap_or(n_txn - 1).max(n_txn - 1);
                let step = spread / (n_txn - 1);
                let jitter = step / 2;
                let mut lines = Vec::with_capacity(n_txn as usize);
                let mut pos = 0u64;
                for _ in 0..n_txn {
                    let j = if jitter > 0 {
                        rng.gen_range(jitter + 1)
                    } else {
                        0
                    };
                    lines.push(ByteAddr(addr.wrapping_add((pos + j).wrapping_mul(line))));
                    pos += step.max(1);
                }
                lines.dedup();
                lines.into()
            };
            events.push(WarpStreamEvent::Access(CoalescedAccess {
                pc: profile.pcs[k],
                kind: profile.kinds[k],
                lines,
            }));
            t_addrs.push(addr);
            slot_hist[k].push(addr);
        }
        streams.push(WarpStream {
            warp: WarpId(w),
            block: w / warps_per_block.max(1),
            events,
        });
    }
    streams
}

#[inline]
fn align(addr: u64, line: u64) -> u64 {
    addr & !(line - 1)
}

/// Total warp-level memory accesses a clone of this profile will contain,
/// saturating at `u64::MAX`. The count is not a `u32` product of blocks
/// and warps per block, so a launch of 2^32 warps or more does not wrap.
pub fn expected_accesses(profile: &GmapProfile) -> u64 {
    let grid = profile.launch.grid;
    let blocks = u128::from(grid.x) * u128::from(grid.y) * u128::from(grid.z);
    let total_warps = blocks * u128::from(profile.launch.warps_per_block(profile.warp_size));
    // Expected accesses per warp = weighted mean profile length.
    let total_weight = u128::from(profile.profile_weights.total().max(1));
    let weighted: u128 = profile
        .profiles
        .iter()
        .enumerate()
        .map(|(i, p)| u128::from(profile.profile_weights.count_of(i)) * p.num_accesses() as u128)
        .sum();
    u64::try_from(total_warps * weighted / total_weight).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{profile_kernel, ProfilerConfig};
    use gmap_gpu::hierarchy::LaunchConfig;
    use gmap_gpu::kernel::{dsl, IndexExpr, KernelBuilder, Stmt};
    use gmap_gpu::workloads::{self, Scale};
    use gmap_trace::record::Pc;
    use gmap_trace::reuse::ReuseHistogram;
    use gmap_trace::Histogram;

    fn kernel_profile() -> GmapProfile {
        let k = KernelBuilder::new("gen", 4u32, 64u32)
            .array("a", 1 << 18)
            .stmt(dsl::loop_n(
                8,
                vec![dsl::read(0x10, 0, dsl::affine(0, 1, vec![(0, 1024)]))],
            ))
            .write(Pc(0x20), 0, IndexExpr::tid_linear(0, 1))
            .build()
            .expect("valid");
        profile_kernel(&k, &ProfilerConfig::default())
    }

    #[test]
    fn clone_has_original_shape() {
        let p = kernel_profile();
        let streams = generate_streams(&p, 7);
        assert_eq!(streams.len(), 8); // 4 blocks x 2 warps
        for s in &streams {
            assert_eq!(s.num_accesses(), 9); // 8 loop reads + 1 write
        }
        assert_eq!(expected_accesses(&p), 8 * 9);
    }

    #[test]
    fn expected_accesses_counts_warps_past_u32() {
        let mut p = kernel_profile();
        // 2^27 blocks of 32 warps: a `u32` warp count wraps to 0.
        p.launch = LaunchConfig::new(1u32 << 27, 1024u32);
        assert_eq!(expected_accesses(&p), (1u64 << 32) * 9);
    }

    #[test]
    fn clone_reproduces_inter_warp_stride() {
        let p = kernel_profile();
        let streams = generate_streams(&p, 7);
        // First access per warp at PC 0x10 must stride by 128 B.
        let firsts: Vec<u64> = streams
            .iter()
            .map(|s| match &s.events[0] {
                WarpStreamEvent::Access(a) => a.lines[0].0,
                WarpStreamEvent::Sync => panic!("expected access"),
            })
            .collect();
        let mut strides = Histogram::new();
        for w in firsts.windows(2) {
            strides.add(w[1] as i64 - w[0] as i64);
        }
        assert_eq!(strides.dominant().expect("non-empty").0, 128);
    }

    #[test]
    fn clone_reproduces_intra_warp_stride() {
        let p = kernel_profile();
        let streams = generate_streams(&p, 7);
        let s0 = &streams[0];
        let addrs: Vec<u64> = s0
            .events
            .iter()
            .filter_map(|e| match e {
                WarpStreamEvent::Access(a) if a.pc == Pc(0x10) => Some(a.lines[0].0),
                _ => None,
            })
            .collect();
        let mut strides = Histogram::new();
        for w in addrs.windows(2) {
            strides.add(w[1] as i64 - w[0] as i64);
        }
        assert_eq!(strides.dominant().expect("non-empty").0, 4096);
    }

    #[test]
    fn clone_is_deterministic_per_seed() {
        let p = kernel_profile();
        assert_eq!(generate_streams(&p, 3), generate_streams(&p, 3));
        // A profile whose distributions are all single-valued generates the
        // same clone for ANY seed — that's correct: there is nothing to
        // sample. Seed sensitivity shows on a stochastic profile instead.
        let stochastic = profile_kernel(&workloads::bfs(Scale::Tiny), &ProfilerConfig::default());
        assert_eq!(
            generate_streams(&stochastic, 3),
            generate_streams(&stochastic, 3)
        );
        assert_ne!(
            generate_streams(&stochastic, 3),
            generate_streams(&stochastic, 4)
        );
    }

    #[test]
    fn clone_reproduces_reuse_fraction() {
        let p = profile_kernel(&workloads::kmeans(Scale::Tiny), &ProfilerConfig::default());
        let streams = generate_streams(&p, 11);
        let mut merged = ReuseHistogram::new();
        for s in &streams {
            let lines = s.events.iter().flat_map(|e| match e {
                WarpStreamEvent::Access(a) => a.lines.iter().map(|l| l.0 / 128).collect::<Vec<_>>(),
                WarpStreamEvent::Sync => vec![],
            });
            merged.merge(&ReuseHistogram::from_lines(lines));
        }
        let dom = p.profile_weights.dominant().expect("non-empty").0;
        let orig_frac = p.reuse[dom].reuse_fraction();
        let clone_frac = merged.reuse_fraction();
        assert!(
            (orig_frac - clone_frac).abs() < 0.15,
            "reuse fraction drifted: orig {orig_frac:.3}, clone {clone_frac:.3}"
        );
    }

    #[test]
    fn clone_preserves_sync_structure() {
        let k = KernelBuilder::new("sync", 2u32, 64u32)
            .array("a", 1 << 12)
            .read(Pc(0x10), 0, IndexExpr::tid_linear(0, 1))
            .stmt(Stmt::Sync)
            .read(Pc(0x18), 0, IndexExpr::tid_linear(0, 1))
            .build()
            .expect("valid");
        let p = profile_kernel(&k, &ProfilerConfig::default());
        let streams = generate_streams(&p, 1);
        for s in &streams {
            assert!(matches!(s.events[1], WarpStreamEvent::Sync));
        }
    }

    #[test]
    fn clone_addresses_are_line_aligned() {
        let p = profile_kernel(&workloads::srad(Scale::Tiny), &ProfilerConfig::default());
        for s in generate_streams(&p, 5) {
            for e in &s.events {
                if let WarpStreamEvent::Access(a) = e {
                    for l in &a.lines {
                        assert_eq!(l.0 % 128, 0, "unaligned transaction {l}");
                    }
                }
            }
        }
    }

    #[test]
    fn divergent_profiles_are_sampled_by_weight() {
        let p = profile_kernel(&workloads::bfs(Scale::Tiny), &ProfilerConfig::default());
        assert!(p.profiles.len() > 1, "bfs should have several π profiles");
        let streams = generate_streams(&p, 9);
        // Clone warps should show diverse event counts, like the original.
        let mut lens: Vec<usize> = streams.iter().map(|s| s.events.len()).collect();
        lens.sort_unstable();
        lens.dedup();
        assert!(lens.len() > 1);
    }

    #[test]
    fn rebase_shifts_clone_addresses() {
        let p0 = kernel_profile();
        let mut p1 = p0.clone();
        p1.rebase(1 << 20);
        let s0 = generate_streams(&p0, 3);
        let s1 = generate_streams(&p1, 3);
        match (&s0[0].events[0], &s1[0].events[0]) {
            (WarpStreamEvent::Access(a), WarpStreamEvent::Access(b)) => {
                assert_eq!(b.lines[0].0 - a.lines[0].0, 1 << 20);
            }
            _ => panic!("expected accesses"),
        }
    }
}
