//! Spawned-binary checks of `gmap analyze`: real process exit codes and
//! the JSON report schema that CI gates and scripts consume. The
//! in-process CLI tests (src/bin/gmap.rs) cover argument handling; these
//! pin the *observable* contract of the shipped binary.

use gmap::analyze::{FindingKind, StaticReport};
use std::process::{Command, Output};

fn gmap_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gmap"))
        .args(args)
        .output()
        .expect("spawn gmap")
}

/// The stable finding-kind vocabulary. A CI gate or API client greps
/// for these exact strings; renaming one is a breaking change that this
/// snapshot forces to be deliberate.
#[test]
fn finding_kind_vocabulary_is_pinned() {
    let want = [
        "spec-error",
        "array-size-overflow",
        "out-of-bounds",
        "overlapping-write",
        "barrier-divergence",
        "uncoalesced",
    ];
    let got: Vec<&str> = FindingKind::ALL.iter().map(|k| k.as_str()).collect();
    assert_eq!(got, want, "wire vocabulary changed");
}

#[test]
fn exit_codes_gate_on_error_findings_in_every_output_mode() {
    // A barrier divergent threads never reach exits 1 whether the report
    // is the full render or JSON: no output mode weakens the gate.
    for mode in [&[][..], &["--json"][..]] {
        let mut args = vec!["analyze", "--fixture", "barrier-divergent"];
        args.extend_from_slice(mode);
        let out = gmap_bin(&args);
        assert_eq!(out.status.code(), Some(1), "mode {mode:?} must gate");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error finding"), "{stderr}");
    }

    // A clean kernel exits 0 and says so.
    let out = gmap_bin(&["analyze", "--fixture", "clean-streaming"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no findings"), "{stdout}");
}

#[test]
fn json_mode_round_trips_the_static_report_schema() {
    let out = gmap_bin(&["analyze", "--fixture", "barrier-divergent", "--json"]);
    assert_eq!(out.status.code(), Some(1), "defective fixture exits 1");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let report: StaticReport = serde_json::from_str(&stdout).expect("schema round-trips");
    assert_eq!(report.name, "barrier-divergent");
    assert!(
        report
            .errors()
            .any(|f| matches!(f.kind, FindingKind::BarrierDivergence)),
        "{:?}",
        report.findings
    );
    // Kinds serialize as the kebab-case wire strings, not Rust names.
    assert!(stdout.contains("\"barrier-divergence\""), "{stdout}");
    assert!(!stdout.contains("BarrierDivergence"), "{stdout}");
}
