//! G-MAP accepts traces from ANY front end, not just the bundled
//! execution substrate: this test builds warp streams by hand (as a
//! third-party tracing tool would) and runs the full profile → clone →
//! simulate pipeline on them.

use gmap::core::{
    generate::generate_streams, profile_streams, simulate_streams, ProfilerConfig, SimtConfig,
};
use gmap::gpu::hierarchy::LaunchConfig;
use gmap::gpu::schedule::{CoalescedAccess, WarpStream, WarpStreamEvent};
use gmap::trace::record::{AccessKind, ByteAddr, Pc, WarpId};

/// A hand-written "trace": 16 warps, each streaming 64 lines at a fixed
/// inter-warp offset, plus a strided second instruction.
fn handmade_streams() -> (Vec<WarpStream>, LaunchConfig) {
    let launch = LaunchConfig::new(4u32, 128u32); // 16 warps
    let streams = (0..16u32)
        .map(|w| {
            let base = 0x10_0000 + w as u64 * 128;
            let events = (0..64u64)
                .flat_map(|j| {
                    vec![
                        WarpStreamEvent::Access(CoalescedAccess {
                            pc: Pc(0xA0),
                            kind: AccessKind::Read,
                            lines: vec![ByteAddr(base + j * 2048)].into(),
                        }),
                        WarpStreamEvent::Access(CoalescedAccess {
                            pc: Pc(0xB0),
                            kind: AccessKind::Write,
                            lines: vec![ByteAddr(0x80_0000 + w as u64 * 128 + j * 4096)].into(),
                        }),
                    ]
                })
                .collect();
            WarpStream {
                warp: WarpId(w),
                block: w / 4,
                events,
            }
        })
        .collect();
    (streams, launch)
}

#[test]
fn external_streams_profile_and_clone() {
    let (streams, launch) = handmade_streams();
    let profile = profile_streams(
        "handmade",
        &streams,
        &launch,
        32,
        &ProfilerConfig::default(),
    )
    .expect("valid streams");
    assert_eq!(profile.num_slots(), 2);
    // The captured statistics match construction.
    let a = profile.slot_of(Pc(0xA0)).expect("profiled");
    let b = profile.slot_of(Pc(0xB0)).expect("profiled");
    assert_eq!(
        profile.inter_stride[a].dominant().expect("non-empty").0,
        128
    );
    assert_eq!(
        profile.intra_stride[a].dominant().expect("non-empty").0,
        2048
    );
    assert_eq!(
        profile.intra_stride[b].dominant().expect("non-empty").0,
        4096
    );
    assert_eq!(profile.kinds[b], AccessKind::Write);

    // Clone and simulate both against the same configuration.
    let clone = generate_streams(&profile, 5);
    assert_eq!(clone.len(), streams.len());
    let cfg = SimtConfig::default();
    let orig = simulate_streams(&streams, &launch, &cfg).expect("valid");
    let prox = simulate_streams(&clone, &launch, &cfg).expect("valid");
    let err = (orig.l1_miss_pct() - prox.l1_miss_pct()).abs();
    assert!(err < 5.0, "handmade clone error {err:.2}pp");
}

#[test]
fn text_trace_round_trip_through_profiling() {
    // Per-thread text trace -> parse -> warp streams -> profile.
    let mut text = String::from("# tid pc kind addr\n");
    for warp in 0..8u32 {
        for lane in 0..32u32 {
            let tid = warp * 32 + lane;
            let addr = 0x1000 + (tid as u64) * 4;
            text.push_str(&format!("{tid} 0x42 R {addr:#x}\n"));
        }
    }
    let entries = gmap::trace::io::read_text(text.as_bytes()).expect("parse");
    assert_eq!(entries.len(), 256);
    // Group into coalesced warp streams (one access per thread; unit
    // stride means one 128 B transaction per warp).
    let streams: Vec<WarpStream> = (0..8u32)
        .map(|w| {
            let addrs: Vec<ByteAddr> = entries
                .iter()
                .filter(|(tid, _)| tid.0 / 32 == w)
                .map(|(_, acc)| acc.addr)
                .collect();
            let lines = gmap::gpu::coalesce::coalesce_addrs(&addrs, 128);
            assert_eq!(lines.len(), 1, "unit stride coalesces to one line");
            WarpStream {
                warp: WarpId(w),
                block: w / 8,
                events: vec![WarpStreamEvent::Access(CoalescedAccess {
                    pc: Pc(0x42),
                    kind: AccessKind::Read,
                    lines: lines.into(),
                })],
            }
        })
        .collect();
    let launch = LaunchConfig::new(1u32, 256u32);
    let profile = profile_streams("text", &streams, &launch, 32, &ProfilerConfig::default())
        .expect("valid streams");
    assert_eq!(
        profile.inter_stride[0].dominant().expect("non-empty").0,
        128
    );
}
