//! End-to-end integration: for every one of the 18 benchmark models,
//! profile → clone → simulate, and check the clone tracks the original.

use gmap::core::{
    generate::expected_accesses, profile_kernel, run_original, run_proxy, ProfilerConfig,
    SimtConfig,
};
use gmap::gpu::workloads::{self, Scale};

/// The headline claim, scaled to test size: clones reproduce L1/L2 miss
/// rates on the baseline configuration. Hotspot is exempted from the
/// tight bound — the paper itself reports it as the worst case, having
/// no dominant patterns.
#[test]
fn clones_track_originals_on_baseline() {
    let cfg = SimtConfig::default();
    for kernel in workloads::all(Scale::Tiny) {
        let orig = run_original(&kernel, &cfg).expect("baseline is valid");
        let profile = profile_kernel(&kernel, &ProfilerConfig::default());
        let proxy = run_proxy(&profile, &cfg).expect("baseline is valid");
        let l1_err = (orig.l1_miss_pct() - proxy.l1_miss_pct()).abs();
        let l2_err = (orig.l2_miss_pct() - proxy.l2_miss_pct()).abs();
        let bound = if kernel.name == "hotspot" { 30.0 } else { 20.0 };
        assert!(
            l1_err < bound,
            "{}: L1 miss {:.2}% vs proxy {:.2}% (err {l1_err:.2}pp)",
            kernel.name,
            orig.l1_miss_pct(),
            proxy.l1_miss_pct()
        );
        assert!(
            l2_err < bound + 10.0,
            "{}: L2 miss {:.2}% vs proxy {:.2}% (err {l2_err:.2}pp)",
            kernel.name,
            orig.l2_miss_pct(),
            proxy.l2_miss_pct()
        );
    }
}

/// The clone also reproduces the *volume* of traffic, not just rates.
#[test]
fn clones_reproduce_access_volume() {
    for name in ["kmeans", "srad", "blackscholes", "lib"] {
        let kernel = workloads::by_name(name, Scale::Tiny).expect("known");
        let profile = profile_kernel(&kernel, &ProfilerConfig::default());
        let orig_accesses = profile.total_warp_accesses;
        let clone_accesses = expected_accesses(&profile);
        let ratio = clone_accesses as f64 / orig_accesses as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "{name}: clone volume ratio {ratio:.3} ({clone_accesses} vs {orig_accesses})"
        );
    }
}

/// Everything downstream of a fixed seed is bit-reproducible.
#[test]
fn pipeline_is_deterministic() {
    let cfg = SimtConfig::default();
    let kernel = workloads::bfs(Scale::Tiny);
    let p1 = profile_kernel(&kernel, &ProfilerConfig::default());
    let p2 = profile_kernel(&kernel, &ProfilerConfig::default());
    assert_eq!(p1, p2);
    let a = run_proxy(&p1, &cfg).expect("baseline is valid");
    let b = run_proxy(&p2, &cfg).expect("baseline is valid");
    assert_eq!(a, b);
}

/// The proxy must also preserve configuration *ranking* across a small
/// design sweep (the paper's correlation metric).
#[test]
fn clone_preserves_config_ranking() {
    use gmap::memsim::cache::{CacheConfig, ReplacementPolicy};
    let kernel = workloads::backprop(Scale::Tiny);
    let profile = profile_kernel(&kernel, &ProfilerConfig::default());
    let mut orig_series = Vec::new();
    let mut proxy_series = Vec::new();
    for kb in [8u64, 32, 128] {
        let mut cfg = SimtConfig::default();
        cfg.hierarchy.l1 =
            CacheConfig::new(kb * 1024, 4, 128, ReplacementPolicy::Lru).expect("valid");
        orig_series.push(run_original(&kernel, &cfg).expect("valid").l1_miss_pct());
        proxy_series.push(run_proxy(&profile, &cfg).expect("valid").l1_miss_pct());
    }
    let corr = gmap::trace::stats::pearson(&orig_series, &proxy_series);
    assert!(
        corr > 0.8,
        "ranking correlation {corr:.3} over {orig_series:?} vs {proxy_series:?}"
    );
}

/// Scheduling statistics survive the round trip: a GTO original replayed
/// through SelfProb(SchedP_self) lands closer to the GTO original than a
/// plain LRR replay does... at minimum it reproduces a similar
/// self-scheduling probability.
#[test]
fn sched_p_self_replay_matches_measurement() {
    use gmap::gpu::schedule::Policy;
    let kernel = workloads::kmeans(Scale::Tiny);
    let gto = SimtConfig {
        policy: Policy::Gto,
        ..Default::default()
    };
    let orig = run_original(&kernel, &gto).expect("valid");
    let measured = orig.schedule.sched_p_self;
    let profile = profile_kernel(&kernel, &ProfilerConfig::default());
    let replay_cfg = SimtConfig {
        policy: Policy::SelfProb(measured),
        ..Default::default()
    };
    let replay = run_proxy(&profile, &replay_cfg).expect("valid");
    assert!(
        (replay.schedule.sched_p_self - measured).abs() < 0.25,
        "replayed SchedP_self {:.3} vs measured {:.3}",
        replay.schedule.sched_p_self,
        measured
    );
}
