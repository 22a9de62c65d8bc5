//! Integration of the full stack down to DRAM (the Fig. 7 path): the
//! clone's memory-request stream must produce DRAM metrics close to the
//! original's across configurations. One more test pins the hand-off
//! itself: the recorded requests' JSON and their replay.

use gmap::bench::sweeps;
use gmap::core::cachekey::{canonical_json, content_key};
use gmap::core::{profile_kernel, run_original, run_proxy, ProfilerConfig, SimtConfig};
use gmap::dram::{AddressMapping, DramConfig};
use gmap::gpu::workloads::{self, Scale};
use gmap::memsim::hierarchy::TraceCapture;
use gmap::trace::stats;

fn traced_cfg() -> SimtConfig {
    let mut cfg = SimtConfig::default();
    cfg.hierarchy.trace_capture = TraceCapture::Full;
    cfg
}

#[test]
fn clone_dram_metrics_track_original() {
    let cfg = traced_cfg();
    for name in ["srad", "blackscholes", "aes"] {
        let kernel = workloads::by_name(name, Scale::Tiny).expect("known");
        let orig = run_original(&kernel, &cfg).expect("valid");
        let profile = profile_kernel(&kernel, &ProfilerConfig::default());
        let proxy = run_proxy(&profile, &cfg).expect("valid");
        let dram_cfg = DramConfig::gddr5_baseline();
        let mo = orig.dram_metrics(dram_cfg);
        let mp = proxy.dram_metrics(dram_cfg);
        assert!(
            mo.requests > 0 && mp.requests > 0,
            "{name}: no DRAM traffic"
        );
        let rbl_err = (mo.rbl - mp.rbl).abs();
        assert!(
            rbl_err < 0.25,
            "{name}: RBL {:.3} vs clone {:.3}",
            mo.rbl,
            mp.rbl
        );
        let lat_err = stats::rel_error(mo.avg_latency(), mp.avg_latency());
        assert!(
            lat_err < 0.5,
            "{name}: latency {:.1} vs clone {:.1} ({:.0}% off)",
            mo.avg_latency(),
            mp.avg_latency(),
            lat_err * 100.0
        );
    }
}

#[test]
fn mapping_schemes_affect_both_equally() {
    let cfg = traced_cfg();
    let kernel = workloads::nw(Scale::Tiny);
    let orig = run_original(&kernel, &cfg).expect("valid");
    let profile = profile_kernel(&kernel, &ProfilerConfig::default());
    let proxy = run_proxy(&profile, &cfg).expect("valid");
    // Compare the direction of the mapping effect: if the original's RBL
    // moves when the mapping changes, the clone's must move the same way.
    let mut robal = DramConfig::gddr5_baseline();
    robal.mapping = AddressMapping::RoBaRaCoCh;
    let mut chraco = DramConfig::gddr5_baseline();
    chraco.mapping = AddressMapping::ChRaBaRoCo;
    let d_orig = orig.dram_metrics(chraco).rbl - orig.dram_metrics(robal).rbl;
    let d_proxy = proxy.dram_metrics(chraco).rbl - proxy.dram_metrics(robal).rbl;
    if d_orig.abs() > 0.05 {
        assert_eq!(
            d_orig.signum(),
            d_proxy.signum(),
            "mapping effect direction differs: orig {d_orig:.3}, proxy {d_proxy:.3}"
        );
    }
}

#[test]
fn memory_traffic_volume_matches() {
    let cfg = traced_cfg();
    let kernel = workloads::cp(Scale::Tiny);
    let orig = run_original(&kernel, &cfg).expect("valid");
    let profile = profile_kernel(&kernel, &ProfilerConfig::default());
    let proxy = run_proxy(&profile, &cfg).expect("valid");
    let ratio = proxy.mem_trace.len() as f64 / orig.mem_trace.len().max(1) as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "memory request volume ratio {ratio:.2} ({} vs {})",
        proxy.mem_trace.len(),
        orig.mem_trace.len()
    );
}

/// The hand-off below the L2, pinned byte for byte: the canonical JSON of
/// an outcome whose hierarchy recorded its memory requests (its content
/// key, its length and its first request written out), and the metrics
/// of replaying that trace at the Table 2 baseline and at one Figure 7
/// configuration.
#[test]
fn recorded_trace_serializes_and_replays_as_pinned() {
    let kernel = workloads::hotspot(Scale::Tiny);
    let out = run_original(&kernel, &traced_cfg()).expect("valid");
    assert_eq!(
        canonical_json(&out.mem_trace[0]),
        r#"{"cycle":0,"addr":10368,"kind":"Read"}"#
    );
    let writes = out.mem_trace.iter().filter(|r| r.kind.is_write()).count();
    assert_eq!((out.mem_trace.len(), writes), (50_077, 6_621));
    let json = canonical_json(&out);
    assert_eq!(
        (json.len(), content_key(&json).as_str()),
        (2_185_483, "72fd032ad9396cfb343e5336b11e0326")
    );
    assert_eq!(
        canonical_json(&out.dram_metrics(DramConfig::table2_baseline())),
        r#"{"requests":50077,"reads":43456,"writes":6621,"row_hits":41341,"rbl":0.8255486550711904,"avg_queue_len":5377.184656600496,"avg_read_latency":36064.59612021355,"avg_write_latency":42184.87720888083,"finish_cycle":94127}"#
    );
    let (_, point) = sweeps::dram_sweep()
        .into_iter()
        .find(|(label, _)| label == "4ch/8B/ChRaBaRoCo")
        .expect("a Figure 7 configuration");
    assert_eq!(
        canonical_json(&out.dram_metrics(point)),
        r#"{"requests":50077,"reads":43456,"writes":6621,"row_hits":10450,"rbl":0.20867863490225053,"avg_queue_len":8178.2618965328875,"avg_read_latency":919315.9383744478,"avg_write_latency":1072640.2028394502,"finish_cycle":1903832}"#
    );
}
