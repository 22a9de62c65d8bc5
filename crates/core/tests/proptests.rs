//! Property-based tests of the profile → clone pipeline, on the
//! workspace's random kernels.

use gmap_core::generate::{expected_accesses, generate_streams};
use gmap_core::miniaturize;
use gmap_core::profiler::{profile_kernel_with_streams, ProfilerConfig};
use gmap_core::GmapProfile;
use gmap_gpu::kernel::{dsl, IndexExpr, KernelBuilder, KernelDesc};
use gmap_gpu::schedule::WarpStreamEvent;
use gmap_trace::record::Pc;
use proptest::prelude::*;

/// The profile of `kernel`, or `None` when it issues no access (some
/// random kernels run every access under a zero-trip loop or an empty
/// branch, and an empty stream has no profile).
fn profiled(kernel: &KernelDesc) -> Option<GmapProfile> {
    profile_kernel_with_streams(kernel, &ProfilerConfig::default())
        .ok()
        .map(|(_, p)| p)
}

/// The profile of the random kernel drawn from `seed`, if it has one.
fn drawn(seed: u64) -> Option<GmapProfile> {
    profiled(&gmap_testkit::kernel(seed))
}

/// Whether every base address, stride and transaction span of `profile`
/// fits a 47-bit address space. Generated address walks saturate at both
/// ends of the 64-bit space, and draws with an array past `i64::MAX`
/// elements or a near-overflow index get there; translation invariance
/// is a property of walks that stay inside.
fn within_47_bits(profile: &GmapProfile) -> bool {
    let small = |v: u64| v < 1 << 47;
    profile.base_addrs.iter().all(|b| small(b.0))
        && profile
            .inter_stride
            .iter()
            .chain(&profile.intra_stride)
            .all(|h| h.iter().all(|(s, _)| small(s.unsigned_abs())))
        && profile.txn_span.iter().all(|h| {
            h.iter()
                .all(|(lines, _)| small(lines.saturating_mul(profile.line_size)))
        })
}

/// Rebasing by `delta_lines` lines shifts every transaction generated
/// from `kernel`'s profile by exactly that offset (locality is
/// translation-invariant). Both sides get a large positive headroom
/// first: generated addresses saturate at zero, so the guarantee holds
/// for the intended use — positive obfuscation offsets — not for walks
/// driven into the bottom of the address space.
fn assert_rebase_translates(mut profile: GmapProfile, delta_lines: u32) {
    profile.rebase(1 << 30);
    let delta = delta_lines as i64 * 128;
    let mut shifted = profile.clone();
    shifted.rebase(delta);
    let a = generate_streams(&profile, 7);
    let b = generate_streams(&shifted, 7);
    for (sa, sb) in a.iter().zip(&b) {
        for (ea, eb) in sa.events.iter().zip(&sb.events) {
            if let (WarpStreamEvent::Access(xa), WarpStreamEvent::Access(xb)) = (ea, eb) {
                for (la, lb) in xa.lines.iter().zip(&xb.lines) {
                    assert_eq!(lb.0 as i64 - la.0 as i64, delta);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Profiles of random kernels validate, and their clones have the
    /// expected shape: same warp count, line-aligned transactions. A
    /// profile of one π class clones every warp with that class's
    /// accesses, so the volume identity holds exactly there; with several
    /// classes `expected_accesses` is a weighted mean over them.
    #[test]
    fn profile_then_clone_shape(kernel_seed in any::<u64>(), seed in any::<u64>()) {
        if let Some(profile) = drawn(kernel_seed) {
            profile.validate().expect("profiler output is consistent");
            let clone = generate_streams(&profile, seed);
            prop_assert_eq!(clone.len() as u32, profile.launch.total_warps(32));
            for s in &clone {
                for e in &s.events {
                    if let WarpStreamEvent::Access(a) = e {
                        for l in &a.lines {
                            prop_assert_eq!(l.0 % 128, 0);
                        }
                    }
                }
            }
            if let [one] = &profile.profiles[..] {
                for s in &clone {
                    prop_assert_eq!(s.num_accesses(), one.num_accesses());
                }
                // Volume identity.
                prop_assert_eq!(
                    expected_accesses(&profile),
                    clone.iter().map(|s| s.num_accesses() as u64).sum::<u64>()
                );
            }
        }
    }

    /// JSON round-trip is the identity for arbitrary profiles.
    #[test]
    fn profile_serde_identity(kernel_seed in any::<u64>()) {
        if let Some(profile) = drawn(kernel_seed) {
            let mut buf = Vec::new();
            profile.save(&mut buf).expect("save");
            let back = GmapProfile::load(&buf[..]).expect("load");
            prop_assert_eq!(profile, back);
        }
    }

    /// Miniaturization never breaks profile consistency and shrinks (or
    /// keeps) the clone volume for factors >= 1.
    #[test]
    fn miniaturize_consistency(kernel_seed in any::<u64>(), factor in 1.0f64..20.0) {
        if let Some(profile) = drawn(kernel_seed) {
            let mini = miniaturize(&profile, factor).expect("factor > 0");
            mini.validate().expect("miniaturized profile is consistent");
            prop_assert!(expected_accesses(&mini) <= expected_accesses(&profile));
            // Still generates a non-empty clone.
            let clone = generate_streams(&mini, 1);
            prop_assert!(clone.iter().map(|s| s.num_accesses()).sum::<usize>() > 0);
        }
    }

    /// Clone generation is a pure function of (profile, seed).
    #[test]
    fn generation_determinism(kernel_seed in any::<u64>(), seed in any::<u64>()) {
        if let Some(profile) = drawn(kernel_seed) {
            prop_assert_eq!(generate_streams(&profile, seed), generate_streams(&profile, seed));
        }
    }

    /// Rebasing by any aligned offset shifts every generated transaction
    /// by exactly that offset, for profiles inside a 47-bit space.
    #[test]
    fn rebase_translates_uniformly(kernel_seed in any::<u64>(), delta_lines in 1u32..10_000) {
        if let Some(profile) = drawn(kernel_seed).filter(within_47_bits) {
            assert_rebase_translates(profile, delta_lines);
        }
    }
}

/// The one case a saved failure of `rebase_translates_uniformly` named: a
/// strided read walking backwards by 174 elements an iteration. Without
/// the headroom, 4 of its 66 lines saturate at zero and do not shift.
#[test]
fn rebase_translates_a_backward_walk() {
    let kernel = KernelBuilder::new("prop", 2u32, 32u32)
        .array("a", 1 << 16)
        .stmt(dsl::loop_n(
            8,
            vec![dsl::read(0x10, 0, dsl::affine(0, 3, vec![(0, -174)]))],
        ))
        .write(Pc(0x20), 0, IndexExpr::tid_linear(0, 1))
        .build()
        .expect("valid");
    assert_rebase_translates(profiled(&kernel).expect("issues accesses"), 1);
}

/// Profiles the random kernel drawn from `seed` and clones it with
/// `clone_seed`. The seeds the tests below name draw kernels whose
/// address deltas overflow `i64` (arrays past `i64::MAX` elements, affine
/// indices near overflow): profiler and generator wrap them, as release
/// builds always did, instead of panicking in a debug build.
fn profile_and_clone(seed: u64, clone_seed: u64) {
    let profile = drawn(seed).expect("issues accesses");
    let clone = generate_streams(&profile, clone_seed);
    assert_eq!(
        clone.len() as u32,
        profile.launch.total_warps(32),
        "seed {seed}"
    );
}

#[test]
fn intra_warp_strides_wrap() {
    for seed in [172, 314] {
        profile_and_clone(seed, 42);
    }
}

#[test]
fn inter_warp_strides_wrap() {
    for seed in [92, 188, 262, 294, 355] {
        profile_and_clone(seed, 42);
    }
}

#[test]
fn reuse_candidate_deltas_wrap() {
    profile_and_clone(194, 8);
}

#[test]
fn spread_transaction_lines_wrap() {
    profile_and_clone(233, 42);
}
