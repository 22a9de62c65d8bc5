//! The analyzer over every shipped workload, plus the negative fixtures.
//!
//! All 18 built-in workload models at all three scales must be *clean*:
//! zero error findings (warnings are fine — kmeans is fully uncoalesced
//! by design). Each negative fixture must trip exactly the check it was
//! built for, with a PC-level diagnostic.

use gmap_analyze::{analyze_kernel, fixtures, FindingKind, Severity};
use gmap_gpu::workloads::{self, Scale};

#[test]
fn all_workloads_all_scales_are_error_free() {
    for scale in [Scale::Tiny, Scale::Small, Scale::Default] {
        for kernel in workloads::all(scale) {
            let report = analyze_kernel(&kernel);
            let errors: Vec<_> = report.errors().collect();
            assert!(
                errors.is_empty(),
                "{} @ {scale:?}: unexpected errors {errors:?}",
                kernel.name
            );
            assert!(
                !report.sites.is_empty(),
                "{}: no access sites analyzed",
                kernel.name
            );
        }
    }
}

#[test]
fn every_site_of_every_workload_has_a_positive_degree() {
    for kernel in workloads::all(Scale::Small) {
        let report = analyze_kernel(&kernel);
        for site in &report.sites {
            assert!(
                site.degree >= 1 && site.degree <= 32,
                "{} pc {:#x}: degree {} out of range",
                kernel.name,
                site.pc,
                site.degree
            );
            assert!(
                site.addrs.lo <= site.addrs.hi,
                "{} pc {:#x}: empty address range",
                kernel.name,
                site.pc
            );
        }
    }
}

#[test]
fn kmeans_is_flagged_fully_uncoalesced_but_admissible() {
    // Table 1 of the paper: kmeans' feature walk strides 34 elements
    // (136 B) between adjacent lanes — more than one 128 B transaction
    // per lane, i.e. degree 32. A warning, never an error.
    let kernel = workloads::by_name("kmeans", Scale::Small).expect("known");
    let report = analyze_kernel(&kernel);
    assert!(!report.has_errors());
    assert!(
        report
            .warnings()
            .any(|f| f.kind == FindingKind::Uncoalesced),
        "kmeans should carry an uncoalesced warning: {:?}",
        report.findings
    );
}

#[test]
fn oob_fixture_is_detected_with_pc() {
    let report = analyze_kernel(&fixtures::oob_affine());
    let f = report
        .errors()
        .find(|f| f.kind == FindingKind::OutOfBounds)
        .expect("out-of-bounds finding");
    assert_eq!(f.pc, Some(0x10), "diagnostic must name the access PC");
    assert!(f.message.contains("wraps"), "message: {}", f.message);
    // The site itself reports the wrap.
    let site = &report.sites[0];
    assert!(!site.in_bounds);
}

#[test]
fn uncoalesced_fixture_has_degree_32_at_pc() {
    let report = analyze_kernel(&fixtures::uncoalesced());
    assert_eq!(report.sites.len(), 1);
    let site = &report.sites[0];
    assert_eq!(site.pc, 0x20);
    assert_eq!(site.degree, 32, "one 128B segment per lane");
    assert_eq!(site.lane_stride_bytes, Some(128));
    let f = report
        .warnings()
        .find(|f| f.kind == FindingKind::Uncoalesced)
        .expect("uncoalesced warning");
    assert_eq!(f.pc, Some(0x20));
    // Fully uncoalesced alone is a performance hazard, not an error.
    assert!(!report.has_errors());
}

#[test]
fn barrier_divergence_fixture_is_an_error() {
    let report = analyze_kernel(&fixtures::barrier_divergent());
    let f = report
        .errors()
        .find(|f| f.kind == FindingKind::BarrierDivergence)
        .expect("barrier-divergence finding");
    // The barrier itself has no PC; the diagnostic anchors to the
    // nearest preceding access.
    assert_eq!(f.pc, Some(0x30));
    assert!(f.message.contains("deadlock"));
}

#[test]
fn overlapping_write_fixture_is_an_error() {
    let report = analyze_kernel(&fixtures::overlapping_write());
    let f = report
        .errors()
        .find(|f| f.kind == FindingKind::OverlappingWrite)
        .expect("overlapping-write finding");
    assert!(f.message.contains('a') && f.message.contains('b'));
}

#[test]
fn array_size_overflow_is_reported_as_its_own_kind() {
    // build() rejects such specs outright, so analyze a hand-built
    // (unvalidated) descriptor the way a wire request would arrive.
    let desc = gmap_gpu::kernel::KernelDesc {
        name: "huge".into(),
        launch: gmap_gpu::hierarchy::LaunchConfig::new(1u32, 32u32),
        arrays: vec![gmap_gpu::kernel::ArrayDesc {
            name: "big".into(),
            base: gmap_trace::record::ByteAddr(0),
            elems: u64::MAX / 2,
            elem_size: 8,
        }],
        body: vec![],
    };
    let report = analyze_kernel(&desc);
    assert!(report.has_errors());
    assert_eq!(
        report.errors().next().unwrap().kind,
        FindingKind::ArraySizeOverflow
    );
}

#[test]
fn clean_fixture_really_is_clean() {
    let report = analyze_kernel(&fixtures::clean_streaming());
    assert!(
        report.findings.is_empty(),
        "expected no findings: {:?}",
        report.findings
    );
    assert!(report.sites.iter().all(|s| s.in_bounds));
}

#[test]
fn all_fixtures_have_errors_and_render_mentions_them() {
    for (name, kernel) in fixtures::all() {
        let report = analyze_kernel(&kernel);
        let has_problem = if name == "uncoalesced" {
            report
                .findings
                .iter()
                .any(|f| f.severity >= Severity::Warning)
        } else {
            report.has_errors()
        };
        assert!(has_problem, "fixture {name} produced no findings");
        let text = report.render();
        assert!(text.contains(name), "render names the kernel");
    }
}

#[test]
fn reports_serialize_round_trip() {
    let report = analyze_kernel(&fixtures::oob_affine());
    let json = serde_json::to_string(&report).expect("serialize");
    let back: gmap_analyze::StaticReport = serde_json::from_str(&json).expect("parse");
    assert_eq!(back, report);
}
