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
    let model = gmap_core::profile_application(&app, &ProfilerConfig::default()).expect("profiles");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `to_json`/`from_json` is the identity for applications of one to
    /// three random kernels, and canonical JSON (hence the cache key) is
    /// deterministic.
    #[test]
    fn app_model_json_identity(seeds in proptest::collection::vec(any::<u64>(), 1..4)) {
        let app = Application::new("prop-app", seeds.into_iter().map(gmap_testkit::kernel).collect());
        // An application one of whose kernels issues no access has no model.
        if let Ok(model) = gmap_core::profile_application(&app, &ProfilerConfig::default()) {
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
}
