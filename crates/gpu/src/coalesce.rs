//! Memory coalescing per CUDA programming guide §G.4.2.
//!
//! On Fermi-class hardware, the memory requests of the (up to) 32 threads of
//! a warp executing one memory instruction are merged into the minimum
//! number of cacheline-sized transactions: one transaction per distinct
//! cacheline touched. G-MAP applies this model *before* the locality
//! analysis (§4), "as it significantly reduces the computational and memory
//! complexity" — and because the cache hierarchy only ever sees coalesced
//! transactions anyway.

use crate::exec::{AppTrace, WarpEvent};
use crate::schedule::{CoalescedAccess, Lines, WarpStream, WarpStreamEvent};
use gmap_trace::batch::{KernelMode, LANES};
use gmap_trace::record::ByteAddr;

/// Coalesces the per-lane byte addresses of one warp instruction into
/// line-aligned transaction addresses (ascending, distinct).
///
/// Runs the process-default kernel mode; see [`coalesce_addrs_into`] for
/// the allocation-free dispatching variant.
///
/// # Panics
///
/// Panics (in debug builds) if `line_size` is not a power of two.
///
/// ```
/// use gmap_gpu::coalesce::coalesce_addrs;
/// use gmap_trace::record::ByteAddr;
///
/// // 32 consecutive 4-byte accesses starting at 0x1000: one 128 B line.
/// let addrs: Vec<ByteAddr> = (0..32).map(|i| ByteAddr(0x1000 + 4 * i)).collect();
/// assert_eq!(coalesce_addrs(&addrs, 128), vec![ByteAddr(0x1000)]);
/// ```
pub fn coalesce_addrs(addrs: &[ByteAddr], line_size: u64) -> Vec<ByteAddr> {
    let mut lines = Vec::new();
    coalesce_addrs_into(addrs, line_size, gmap_trace::default_mode(), &mut lines);
    lines
}

/// Coalesces into a caller-provided buffer (cleared first), dispatching on
/// `mode`. Both paths leave `out` in an identical state: the distinct
/// line-aligned addresses of `addrs`, ascending.
///
/// # Panics
///
/// Panics (in debug builds) if `line_size` is not a power of two.
pub fn coalesce_addrs_into(
    addrs: &[ByteAddr],
    line_size: u64,
    mode: KernelMode,
    out: &mut Vec<ByteAddr>,
) {
    match mode {
        KernelMode::Scalar => coalesce_addrs_scalar(addrs, line_size, out),
        KernelMode::Batched => coalesce_addrs_batched(addrs, line_size, out),
    }
}

/// Scalar reference for [`coalesce_addrs_into`]: map, sort, dedup.
pub fn coalesce_addrs_scalar(addrs: &[ByteAddr], line_size: u64, out: &mut Vec<ByteAddr>) {
    out.clear();
    out.extend(addrs.iter().map(|a| a.line_base(line_size)));
    out.sort_unstable();
    out.dedup();
}

fn coalesce_addrs_batched(addrs: &[ByteAddr], line_size: u64, out: &mut Vec<ByteAddr>) {
    debug_assert!(
        line_size.is_power_of_two(),
        "line size must be a power of two"
    );
    let mask = !(line_size - 1);
    out.clear();
    out.reserve(addrs.len());
    // Warp lanes usually walk memory in ascending unit stride, so the
    // masked line bases come out nondecreasing — fuse masking, order
    // detection, and dedup into one pass over that prefix.
    let sorted_prefix = emit_sorted_dedup(addrs, mask, out);
    if sorted_prefix < addrs.len() {
        // Order violation: `out` holds the dedup'd sorted prefix (every
        // distinct base of the prefix, once). Append the raw masked
        // remainder and resolve globally, like the scalar reference.
        let mut chunks = addrs[sorted_prefix..].chunks_exact(LANES);
        for c in &mut chunks {
            out.extend_from_slice(&[
                ByteAddr(c[0].0 & mask),
                ByteAddr(c[1].0 & mask),
                ByteAddr(c[2].0 & mask),
                ByteAddr(c[3].0 & mask),
                ByteAddr(c[4].0 & mask),
                ByteAddr(c[5].0 & mask),
                ByteAddr(c[6].0 & mask),
                ByteAddr(c[7].0 & mask),
            ]);
        }
        for &a in chunks.remainder() {
            out.push(ByteAddr(a.0 & mask));
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Pushes the dedup'd line bases of the longest nondecreasing masked
/// prefix of `addrs` onto `out` and returns that prefix's length. Whole
/// chunks mask 8 lanes and OR their neighbor comparisons into one
/// violation flag before any element is emitted, so a chunk is either
/// consumed entirely or not at all (the returned length never splits a
/// clean chunk).
fn emit_sorted_dedup(addrs: &[ByteAddr], mask: u64, out: &mut Vec<ByteAddr>) -> usize {
    let n = addrs.len();
    let mut last: Option<u64> = None;
    let mut i = 0usize;
    while i + LANES <= n {
        let mut b = [0u64; LANES];
        for lane in 0..LANES {
            b[lane] = addrs[i + lane].0 & mask;
        }
        let mut viol = u32::from(last.is_some_and(|l| l > b[0]));
        for lane in 1..LANES {
            viol |= u32::from(b[lane - 1] > b[lane]);
        }
        if viol != 0 {
            return i;
        }
        for &base in &b {
            if last != Some(base) {
                out.push(ByteAddr(base));
                last = Some(base);
            }
        }
        i += LANES;
    }
    while i < n {
        let base = addrs[i].0 & mask;
        if last.is_some_and(|l| l > base) {
            return i;
        }
        if last != Some(base) {
            out.push(ByteAddr(base));
            last = Some(base);
        }
        i += 1;
    }
    n
}

/// Coalesces an executed application trace into per-warp transaction
/// streams at the given cacheline size.
pub fn coalesce_app(app: &AppTrace, line_size: u64) -> Vec<WarpStream> {
    let mode = gmap_trace::default_mode();
    let mut addr_scratch: Vec<ByteAddr> = Vec::new();
    let mut line_scratch: Vec<ByteAddr> = Vec::new();
    let mut streams = Vec::with_capacity(app.warps.len());
    for wt in &app.warps {
        let mut events = Vec::with_capacity(wt.events.len());
        for ev in &wt.events {
            match ev {
                WarpEvent::Access {
                    pc,
                    kind,
                    lane_addrs,
                } => {
                    addr_scratch.clear();
                    addr_scratch.extend(lane_addrs.iter().map(|&(_, a)| a));
                    coalesce_addrs_into(&addr_scratch, line_size, mode, &mut line_scratch);
                    events.push(WarpStreamEvent::Access(CoalescedAccess {
                        pc: *pc,
                        kind: *kind,
                        lines: Lines::from_slice(&line_scratch),
                    }));
                }
                WarpEvent::Sync => events.push(WarpStreamEvent::Sync),
            }
        }
        streams.push(WarpStream {
            warp: wt.warp,
            block: wt.block,
            events,
        });
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_kernel;
    use crate::kernel::{IndexExpr, KernelBuilder};
    use gmap_trace::record::Pc;

    #[test]
    fn fully_coalesced_warp_is_one_transaction() {
        let addrs: Vec<ByteAddr> = (0..32).map(|i| ByteAddr(4096 + 4 * i)).collect();
        assert_eq!(coalesce_addrs(&addrs, 128), vec![ByteAddr(4096)]);
    }

    #[test]
    fn misaligned_warp_spans_two_lines() {
        // Unit-stride but starting 64 bytes into a line.
        let addrs: Vec<ByteAddr> = (0..32).map(|i| ByteAddr(4096 + 64 + 4 * i)).collect();
        assert_eq!(
            coalesce_addrs(&addrs, 128),
            vec![ByteAddr(4096), ByteAddr(4224)]
        );
    }

    #[test]
    fn strided_warp_explodes_into_many_transactions() {
        // 136-byte stride between lanes (the kmeans pattern): every lane its
        // own line.
        let addrs: Vec<ByteAddr> = (0..32).map(|i| ByteAddr(4096 + 136 * i)).collect();
        let txns = coalesce_addrs(&addrs, 128);
        assert!(txns.len() >= 31, "got only {} transactions", txns.len());
    }

    #[test]
    fn duplicate_addresses_merge() {
        let addrs = vec![ByteAddr(256); 32];
        assert_eq!(coalesce_addrs(&addrs, 128), vec![ByteAddr(256)]);
    }

    #[test]
    fn smaller_lines_make_more_transactions() {
        let addrs: Vec<ByteAddr> = (0..32).map(|i| ByteAddr(4 * i)).collect();
        assert_eq!(coalesce_addrs(&addrs, 128).len(), 1);
        assert_eq!(coalesce_addrs(&addrs, 64).len(), 2);
        assert_eq!(coalesce_addrs(&addrs, 32).len(), 4);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(coalesce_addrs(&[], 128).is_empty());
    }

    #[test]
    fn kernels_agree_for_all_tail_lengths() {
        let mut rng = gmap_trace::Rng::seed_from(0xc0a1);
        for n in 0..(2 * gmap_trace::batch::LANES + 1) {
            // Mix of random, duplicate, and descending addresses so the
            // presorted fast path does not trivially apply.
            let addrs: Vec<ByteAddr> = (0..n)
                .map(|i| {
                    if i % 3 == 0 {
                        ByteAddr((n - i) as u64 * 100)
                    } else {
                        ByteAddr(rng.gen_range(4096))
                    }
                })
                .collect();
            for line in [32u64, 128] {
                let mut scalar = Vec::new();
                let mut batched = Vec::new();
                coalesce_addrs_scalar(&addrs, line, &mut scalar);
                coalesce_addrs_into(&addrs, line, KernelMode::Batched, &mut batched);
                assert_eq!(scalar, batched, "n={n} line={line}");
            }
        }
    }

    #[test]
    fn presorted_fast_path_matches() {
        let addrs: Vec<ByteAddr> = (0..37).map(|i| ByteAddr(4096 + 4 * i)).collect();
        let mut scalar = Vec::new();
        let mut batched = Vec::new();
        coalesce_addrs_scalar(&addrs, 128, &mut scalar);
        coalesce_addrs_into(&addrs, 128, KernelMode::Batched, &mut batched);
        assert_eq!(scalar, batched);
    }

    #[test]
    fn coalesce_app_preserves_structure() {
        let k = KernelBuilder::new("k", 2u32, 64u32)
            .array("a", 1 << 16)
            .read(Pc(0x10), 0, IndexExpr::tid_linear(0, 1))
            .stmt(crate::kernel::Stmt::Sync)
            .read(Pc(0x20), 0, IndexExpr::tid_linear(0, 2))
            .build()
            .expect("valid");
        let app = execute_kernel(&k);
        let streams = coalesce_app(&app, 128);
        assert_eq!(streams.len(), 4);
        let s0 = &streams[0];
        assert_eq!(s0.events.len(), 3);
        match &s0.events[0] {
            WarpStreamEvent::Access(a) => {
                assert_eq!(a.pc, Pc(0x10));
                assert_eq!(a.lines.len(), 1); // unit stride: fully coalesced
            }
            other => panic!("expected access, got {other:?}"),
        }
        assert!(matches!(s0.events[1], WarpStreamEvent::Sync));
        match &s0.events[2] {
            // Stride-2 over 4-byte elements: 32 lanes span 256 B = 2 lines.
            WarpStreamEvent::Access(a) => assert_eq!(a.lines.len(), 2),
            other => panic!("expected access, got {other:?}"),
        }
    }
}
