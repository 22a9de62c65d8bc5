//! Differential guarantees of the streaming ingest path.
//!
//! The contract under test: pushing a trace through [`Ingestor`] chunk by
//! chunk produces a `GmapProfile` **byte-identical** (canonical JSON) to
//! the materialized reference below — every entry in memory, each warp
//! reconstructed whole — while the resident trace buffer stays bounded,
//! constant in trace length.

use gmap_core::cachekey::canonical_json;
use gmap_core::profile::GmapProfile;
use gmap_core::profiler::{profile_streams, ProfilerConfig};
use gmap_core::GmapError;
use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::schedule::{WarpStream, WarpStreamEvent};
use gmap_ingest::ingest::{pop_warp_instruction, warp_lane_of, WARP_SIZE};
use gmap_ingest::{
    ChunkParser, ClassifierConfig, IngestConfig, IngestError, Ingestor, PatternClass, PatternFsm,
};
use gmap_trace::io::{read_binary, write_binary, write_text, TraceEntry};
use gmap_trace::record::{ByteAddr, MemAccess, Pc, ThreadId, WarpId};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// The materialized reference: queue every in-geometry entry on its
/// warp's lane first, then pop each warp dry, in warp order. No bound,
/// no early pops — what [`Ingestor`] must equal whenever its own bound
/// does not fire.
fn warp_streams_from_entries(
    entries: &[TraceEntry],
    launch: &LaunchConfig,
    line_size: u64,
) -> Vec<WarpStream> {
    let mut warps: BTreeMap<u32, (Vec<VecDeque<MemAccess>>, u64)> = BTreeMap::new();
    for (tid, acc) in entries {
        let Some((warp, lane)) = warp_lane_of(tid.0, launch) else {
            continue;
        };
        let (queues, nonempty) = warps
            .entry(warp)
            .or_insert_with(|| (vec![VecDeque::new(); WARP_SIZE as usize], 0));
        queues[lane].push_back(*acc);
        *nonempty |= 1 << lane;
    }
    let wpb = launch.warps_per_block(WARP_SIZE);
    warps
        .into_iter()
        .map(|(w, (mut queues, mut nonempty))| WarpStream {
            warp: WarpId(w),
            block: w / wpb,
            events: std::iter::from_fn(|| {
                pop_warp_instruction(&mut queues, &mut nonempty, line_size)
            })
            .map(|(access, _)| WarpStreamEvent::Access(access))
            .collect(),
        })
        .collect()
}

/// The reference end to end: entries → warp streams → profile.
fn profile_thread_trace(
    name: &str,
    entries: &[TraceEntry],
    launch: &LaunchConfig,
    cfg: &ProfilerConfig,
) -> Result<GmapProfile, GmapError> {
    let streams = warp_streams_from_entries(entries, launch, cfg.line_size);
    profile_streams(name, &streams, launch, WARP_SIZE, cfg)
}

fn entry(tid: u32, pc: u64, addr: u64, write: bool) -> TraceEntry {
    let acc = if write {
        MemAccess::write(Pc(pc), ByteAddr(addr))
    } else {
        MemAccess::read(Pc(pc), ByteAddr(addr))
    };
    (ThreadId(tid), acc)
}

/// Lane-interleaved trace (lockstep-tracer order): `steps` instructions
/// for every thread of the launch, emitted step-major.
fn interleaved_trace(launch: &LaunchConfig, steps: u64) -> Vec<TraceEntry> {
    let total = launch.total_threads() as u32;
    let mut out = Vec::new();
    for k in 0..steps {
        for tid in 0..total {
            let pc = 0x10 + (k % 3) * 0x10;
            let addr = 0x1_0000 + u64::from(tid) * 4 + k * 0x2000;
            out.push(entry(tid, pc, addr, k % 3 == 2));
        }
    }
    out
}

fn tiny_bounds() -> IngestConfig {
    IngestConfig { max_lane_queue: 8 }
}

#[test]
fn streaming_binary_is_byte_identical_and_bounded() {
    // 8 warps x 100 steps = 25_600 entries ≈ 537 KiB binary — far larger
    // than the 1 KiB chunks and the 8-entry lane-queue bound below.
    let launch = LaunchConfig::new(4u32, 64u32);
    let entries = interleaved_trace(&launch, 100);
    let mut bytes = Vec::new();
    write_binary(&mut bytes, &entries).expect("write");

    let expected = profile_thread_trace("stream", &entries, &launch, &ProfilerConfig::default())
        .expect("materialized profile");

    let mut ing = Ingestor::new("stream", launch, tiny_bounds());
    for chunk in bytes.chunks(1024) {
        ing.push_bytes(chunk).expect("well-formed");
    }
    let outcome = ing.finish().expect("profile");

    assert_eq!(
        canonical_json(&outcome.profile),
        canonical_json(&expected),
        "streaming profile must be byte-identical to the materialized path"
    );
    // Bounded: the trace holds 25_600 entries but lockstep interleaving
    // keeps every lane queue O(1); with 256 lanes that is well under a
    // thousand buffered entries — and constant in `steps`.
    assert_eq!(outcome.stats.entries, 25_600);
    assert!(
        outcome.stats.peak_buffered_entries <= 512,
        "peak buffer {} not bounded",
        outcome.stats.peak_buffered_entries
    );
    assert_eq!(outcome.stats.forced_drains, 0, "lockstep never overflows");
    assert!(bytes.len() as u64 > 8 * 1024, "fixture larger than bounds");
}

#[test]
fn bounded_buffer_is_constant_in_trace_length() {
    // Double the trace; the peak buffer must not move.
    let launch = LaunchConfig::new(4u32, 64u32);
    let mut peaks = Vec::new();
    for steps in [50, 100, 200] {
        let entries = interleaved_trace(&launch, steps);
        let mut bytes = Vec::new();
        write_binary(&mut bytes, &entries).expect("write");
        let mut ing = Ingestor::new("stream", launch, tiny_bounds());
        for chunk in bytes.chunks(4096) {
            ing.push_bytes(chunk).expect("well-formed");
        }
        peaks.push(ing.finish().expect("profile").stats.peak_buffered_entries);
    }
    assert_eq!(peaks[0], peaks[1], "peak buffer grew with trace length");
    assert_eq!(peaks[1], peaks[2], "peak buffer grew with trace length");
}

#[test]
fn streaming_text_is_byte_identical() {
    let launch = LaunchConfig::new(2u32, 64u32);
    let entries = interleaved_trace(&launch, 40);
    let mut bytes = Vec::new();
    write_text(&mut bytes, &entries).expect("write");

    let expected = profile_thread_trace("t", &entries, &launch, &ProfilerConfig::default())
        .expect("materialized profile");
    let mut ing = Ingestor::new("t", launch, tiny_bounds());
    for chunk in bytes.chunks(333) {
        ing.push_bytes(chunk).expect("well-formed");
    }
    let outcome = ing.finish().expect("profile");
    assert_eq!(canonical_json(&outcome.profile), canonical_json(&expected));
}

#[test]
fn single_lane_warps_stay_exact_under_force_drain() {
    // `gmap clone` traces attribute every warp transaction to lane 0, so
    // each warp is a single-lane stream: the force-drain majority is a
    // majority of one and the result stays exact even though the bound
    // fires constantly.
    let launch = LaunchConfig::new(2u32, 64u32);
    let mut entries = Vec::new();
    for w in 0..4u32 {
        let tid = w * 32; // lane 0 of each warp
        for k in 0..100u64 {
            entries.push(entry(
                tid,
                0xA0,
                0x10_0000 + u64::from(w) * 0x4000 + k * 128,
                false,
            ));
        }
    }
    let expected = profile_thread_trace("clone", &entries, &launch, &ProfilerConfig::default())
        .expect("materialized profile");
    let mut ing = Ingestor::new("clone", launch, tiny_bounds());
    for e in &entries {
        ing.push_entry(*e);
    }
    let outcome = ing.finish().expect("profile");
    assert_eq!(canonical_json(&outcome.profile), canonical_json(&expected));
    assert!(outcome.stats.forced_drains > 0, "the bound must have fired");
    assert!(
        outcome.stats.peak_buffered_entries <= 8 * 4 + 4,
        "peak {} exceeds per-lane bound x warps",
        outcome.stats.peak_buffered_entries
    );
}

#[test]
fn partial_warp_drains_on_its_live_lanes() {
    // 48 threads a block: the second warp of each block has 16 live
    // lanes. The exact-prefix rule must fire on those 16 — a warp that
    // waited for its dead lanes would run into the 8-entry bound and
    // force-drain.
    let launch = LaunchConfig::new(2u32, 48u32);
    let entries = interleaved_trace(&launch, 50);
    let expected = profile_thread_trace("partial", &entries, &launch, &ProfilerConfig::default())
        .expect("materialized profile");
    let mut ing = Ingestor::new("partial", launch, tiny_bounds());
    for e in &entries {
        ing.push_entry(*e);
    }
    let outcome = ing.finish().expect("profile");
    assert_eq!(canonical_json(&outcome.profile), canonical_json(&expected));
    assert_eq!(
        outcome.stats.forced_drains, 0,
        "every warp drains in lockstep"
    );
    assert!(outcome.stats.peak_buffered_entries <= 96);
    assert!(
        outcome.report.pcs.iter().all(|pc| !pc.conditional),
        "all live lanes took part in every instruction"
    );
}

#[test]
fn skewed_interleaving_force_drains_within_the_bound() {
    // Thread-major order with multi-lane warps starves the other lanes:
    // lane 0 reaches the bound long before lane 1 has anything queued, so
    // the warp pops early instead of buffering a whole thread's accesses.
    let launch = LaunchConfig::new(1u32, 64u32);
    let mut ing = Ingestor::new("skewed", launch, tiny_bounds());
    for tid in 0..64u32 {
        for k in 0..100u64 {
            ing.push_entry(entry(
                tid,
                0x10,
                0x1000 + u64::from(tid) * 4 + k * 0x100,
                false,
            ));
        }
    }
    let outcome = ing.finish().expect("profile");
    assert!(outcome.stats.forced_drains > 0, "the bound must have fired");
    assert!(
        outcome.stats.peak_buffered_entries <= 8 * 64,
        "peak {} exceeds per-lane bound x lanes",
        outcome.stats.peak_buffered_entries
    );
}

#[test]
fn thread_major_trace_exact_when_bound_allows() {
    // Thread-major (the order `warp_streams_from_entries`'s own tests
    // use): queues grow to the per-thread access count, so with an
    // adequate bound the drain happens at finish and stays exact.
    let launch = LaunchConfig::new(1u32, 64u32);
    let mut entries = Vec::new();
    for tid in 0..64u32 {
        for k in 0..20u64 {
            entries.push(entry(
                tid,
                0x30 + (k % 2) * 0x10,
                0x8000 + u64::from(tid) * 4 + k * 0x1000,
                false,
            ));
        }
    }
    let expected = profile_thread_trace("tm", &entries, &launch, &ProfilerConfig::default())
        .expect("materialized profile");
    let cfg = IngestConfig { max_lane_queue: 64 };
    let mut ing = Ingestor::new("tm", launch, cfg);
    for e in &entries {
        ing.push_entry(*e);
    }
    let outcome = ing.finish().expect("profile");
    assert_eq!(outcome.stats.forced_drains, 0, "under the bound");
    assert_eq!(canonical_json(&outcome.profile), canonical_json(&expected));
}

#[test]
fn report_covers_arrays_and_classes() {
    let launch = LaunchConfig::new(4u32, 64u32);
    let entries = interleaved_trace(&launch, 100);
    let mut ing = Ingestor::new("report", launch, IngestConfig::default());
    for e in &entries {
        ing.push_entry(*e);
    }
    let outcome = ing.finish().expect("profile");
    let report = &outcome.report;
    assert_eq!(report.entries, 25_600);
    assert!(!report.arrays.is_empty(), "heat map found no arrays");
    assert_eq!(report.pcs.len(), 3, "three static PCs in the fixture");
    // Every PC walks `0x2000` per step per warp base: linear per warp.
    for pc in &report.pcs {
        assert_eq!(pc.class, PatternClass::Linear, "pc {:#x}", pc.pc);
        assert_eq!(
            pc.stride,
            Some(3 * 0x2000),
            "per-PC stride skips the other two PCs"
        );
    }
    let text = report.render_text();
    assert!(text.contains("LINEAR"), "missing class in:\n{text}");
    assert!(text.contains("A0"), "missing array row in:\n{text}");
    let json = report.to_json();
    assert!(json.contains("\"arrays\""), "missing arrays in JSON");
    // The streamed bytes were fed via push_entry, so `bytes` is 0 here;
    // entries/instructions must still reconcile.
    assert_eq!(
        report.instructions,
        report.pcs.iter().map(|p| p.instructions).sum::<u64>()
    );
}

#[test]
fn parse_error_positions_survive_streaming() {
    let launch = LaunchConfig::new(1u32, 32u32);
    let mut ing = Ingestor::new("bad", launch, IngestConfig::default());
    let res = (|| -> Result<(), IngestError> {
        ing.push_bytes(b"0 0x10 R 0x80\n")?;
        ing.push_bytes(b"0 0x10 Q 0x80\n")?;
        Ok(())
    })();
    match res {
        Err(IngestError::Parse(gmap_trace::io::ParseTraceError::Malformed {
            index: 2,
            field: "kind",
            ..
        })) => {}
        other => panic!("expected line-2 kind error, got {other:?}"),
    }
}

#[test]
fn binary_round_trip_through_streaming_matches_reader() {
    // The streamed parser and the materializing reader must agree on the
    // exact entry sequence, not just the profile.
    let launch = LaunchConfig::new(2u32, 64u32);
    let entries = interleaved_trace(&launch, 10);
    let mut bytes = Vec::new();
    write_binary(&mut bytes, &entries).expect("write");
    let back = read_binary(&bytes[..]).expect("read");
    assert_eq!(back, entries);
    let mut parser = ChunkParser::new();
    let mut got = Vec::new();
    for chunk in bytes.chunks(17) {
        parser.push(chunk).expect("stream");
        got.extend(parser.drain());
    }
    parser.finish().expect("complete");
    assert_eq!(got, entries);
}

proptest! {
    /// Streaming vs. materialized reconstruction equivalence (satellite
    /// of the divergence tie-break): for arbitrary interleavings of
    /// per-thread access streams — including divergent PCs and partial
    /// warps — the streamed profile equals the materialized one
    /// byte-for-byte, as long as the lane bound does not force early
    /// drains (`max_lane_queue` is set above the trace depth).
    #[test]
    fn arbitrary_interleavings_are_exact(
        picks in proptest::collection::vec((0..96u32, 0..4u8, 0..512u16), 1..200),
    ) {
        // 96 tids over a 64-thread launch: a third of the entries fall
        // outside the geometry and must be skipped by both paths.
        let launch = LaunchConfig::new(1u32, 64u32);
        let entries: Vec<TraceEntry> = picks
            .iter()
            .map(|&(tid, pc_sel, addr_sel)| {
                entry(
                    tid,
                    0x10 + u64::from(pc_sel) * 0x10,
                    0x1000 + u64::from(addr_sel) * 4,
                    pc_sel == 3,
                )
            })
            .collect();
        let materialized =
            profile_thread_trace("prop", &entries, &launch, &ProfilerConfig::default());
        let cfg = IngestConfig {
            max_lane_queue: 256,
        };
        let mut ing = Ingestor::new("prop", launch, cfg);
        for e in &entries {
            ing.push_entry(*e);
        }
        match (ing.finish(), materialized) {
            (Ok(outcome), Ok(expected)) => {
                prop_assert_eq!(outcome.stats.forced_drains, 0);
                prop_assert_eq!(canonical_json(&outcome.profile), canonical_json(&expected));
            }
            (Err(IngestError::Profile(_)), Err(_)) => {} // both empty
            (got, want) => {
                panic!("paths disagree: streaming {got:?} vs materialized {want:?}");
            }
        }
    }

    /// The FSM only relaxes down the hierarchy: over any address
    /// sequence, `rank` never decreases.
    #[test]
    fn fsm_is_monotone(addrs in proptest::collection::vec(0..u64::MAX, 1..300)) {
        let mut f = PatternFsm::new(ClassifierConfig::default().indirect_max_span);
        let mut last = f.class().rank();
        for a in addrs {
            f.observe(a);
            let r = f.class().rank();
            prop_assert!(r >= last, "rank went {last} -> {r}");
            last = r;
        }
    }

    /// Synthesized affine streams classify exactly: constants stay
    /// CONSTANT, strided runs are LINEAR with the right stride, nested
    /// loops are QUADRIC with the right geometry.
    #[test]
    fn synthesized_affine_streams_classify(
        base in 0..(1u64 << 40),
        stride in 1..4096i64,
        ni in 2..32u64,
        nj in 2..16u64,
        outer in 16_384..262_144i64,
    ) {
        let span = ClassifierConfig::default().indirect_max_span;
        let mut c = PatternFsm::new(span);
        for _ in 0..50 {
            c.observe(base);
        }
        prop_assert_eq!(c.class(), PatternClass::Constant);

        let mut l = PatternFsm::new(span);
        for k in 0..50u64 {
            l.observe(base.wrapping_add((k as i64 * stride) as u64));
        }
        prop_assert_eq!(l.class(), PatternClass::Linear);
        prop_assert_eq!(l.stride(), stride);

        // outer == ni * stride degenerates to a pure linear walk, which
        // correctly classifies LINEAR — skip that corner.
        if outer != ni as i64 * stride {
            let mut q = PatternFsm::new(span);
            for j in 0..nj {
                for i in 0..ni {
                    q.observe(
                        base.wrapping_add((j as i64 * outer) as u64)
                            .wrapping_add((i as i64 * stride) as u64),
                    );
                }
            }
            prop_assert_eq!(q.class(), PatternClass::Quadric);
            prop_assert_eq!(q.stride(), stride);
            prop_assert_eq!(q.quadric(), (ni, outer));
        }
    }

    /// Synthesized gathers: bounded non-affine streams are INDIRECT,
    /// unbounded drifts are RANDOM.
    #[test]
    fn synthesized_gathers_classify(seed in 1..u64::MAX) {
        let span = ClassifierConfig::default().indirect_max_span;
        let mut x = seed;
        let mut lcg = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x
        };
        let mut ind = PatternFsm::new(span);
        for _ in 0..100 {
            ind.observe(0x10_0000 + (lcg() % (1 << 18)));
        }
        prop_assert_eq!(ind.class(), PatternClass::Indirect);

        let mut rnd = PatternFsm::new(span);
        for _ in 0..100 {
            rnd.observe(lcg() % (1 << 44));
        }
        prop_assert_eq!(rnd.class(), PatternClass::Random);
    }
}
