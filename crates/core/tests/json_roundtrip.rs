//! End-to-end JSON round-trip coverage for the wire-format types.
//!
//! The `gmap serve` model store and its content-addressed cache keys
//! depend on (de)serialization being lossless and canonical: a profile
//! must survive `to_json` → `from_json` bit-exactly, pretty and compact
//! renderings must parse to the same value, and equal values must always
//! hash to the same cache key.

use gmap_core::application::AppProfile;
use gmap_core::cachekey;
use gmap_core::profiler::{profile_kernel, ProfilerConfig};
use gmap_core::GmapProfile;
use gmap_gpu::app::Application;
use gmap_gpu::kernel::{dsl, KernelBuilder};
use gmap_gpu::workloads::{self, Scale};
use proptest::prelude::*;

fn workload_profile(name: &str) -> GmapProfile {
    let kernel = workloads::by_name(name, Scale::Tiny).expect("known workload");
    profile_kernel(&kernel, &ProfilerConfig::default())
}

#[test]
fn profile_to_json_from_json_identity() {
    for name in ["kmeans", "hotspot", "bfs"] {
        let p = workload_profile(name);
        let back = GmapProfile::from_json(&p.to_json()).expect("parse back");
        assert_eq!(p, back, "{name}: compact JSON round trip must be lossless");
        back.validate().expect("round-tripped profile stays valid");
    }
}

#[test]
fn compact_and_pretty_parse_to_the_same_profile() {
    let p = workload_profile("srad");
    let mut pretty = Vec::new();
    p.save(&mut pretty).expect("save pretty");
    let from_pretty = GmapProfile::load(&pretty[..]).expect("load pretty");
    let from_compact = GmapProfile::from_json(&p.to_json()).expect("load compact");
    assert_eq!(from_pretty, from_compact);
}

#[test]
fn app_profile_to_json_from_json_identity() {
    let app = gmap_gpu::app::apps::backprop_training(Scale::Tiny);
    let model = gmap_core::profile_application(&app, &ProfilerConfig::default());
    let back = AppProfile::from_json(&model.to_json()).expect("parse back");
    assert_eq!(model, back);
    back.validate().expect("valid after round trip");
}

#[test]
fn cache_keys_are_content_addressed() {
    let a = workload_profile("kmeans");
    let b = workload_profile("kmeans");
    assert_eq!(
        cachekey::key_of(&a),
        cachekey::key_of(&b),
        "identical profiles must share a cache key"
    );
    let mut rebased = a.clone();
    rebased.rebase(0x1000);
    assert_ne!(
        cachekey::key_of(&a),
        cachekey::key_of(&rebased),
        "any content change must change the key"
    );
    assert_ne!(
        cachekey::key_of(&a),
        cachekey::key_of(&workload_profile("bfs"))
    );
}

/// A randomized multi-kernel application with varying geometry.
fn arb_app() -> impl Strategy<Value = Application> {
    proptest::collection::vec((1u32..5, 1u32..3, 1i64..32, -64i64..64), 1..4).prop_map(|specs| {
        let kernels = specs
            .into_iter()
            .enumerate()
            .map(|(i, (blocks, warps_pb, tid_coef, iter_coef))| {
                KernelBuilder::new(&format!("k{i}"), blocks, warps_pb * 32)
                    .array("a", 1 << 14)
                    .stmt(dsl::loop_n(
                        3,
                        vec![dsl::read(
                            0x10 + i as u64 * 0x10,
                            0,
                            dsl::affine(0, tid_coef, vec![(0, iter_coef)]),
                        )],
                    ))
                    .build()
                    .expect("construction is valid by design")
            })
            .collect::<Vec<_>>();
        Application::new("prop-app", kernels)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `to_json`/`from_json` is the identity for arbitrary application
    /// models, and canonical JSON (hence the cache key) is deterministic.
    #[test]
    fn app_model_json_identity(app in arb_app()) {
        let model = gmap_core::profile_application(&app, &ProfilerConfig::default());
        let json = model.to_json();
        let back = AppProfile::from_json(&json).expect("parse back");
        prop_assert_eq!(&model, &back);
        // Canonical form is stable: re-rendering the parsed value gives
        // the same bytes, so cache keys never depend on parse history.
        prop_assert_eq!(json.clone(), back.to_json());
        prop_assert_eq!(cachekey::key_of(&model), cachekey::key_of(&back));
        prop_assert_eq!(cachekey::content_key(&json), cachekey::key_of(&model));
    }
}
