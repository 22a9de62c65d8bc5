//! Pins every static report the analyzer produces for the shipped specs:
//! the 18 builtins at `tiny`, `small` and `default`, and the 5 analyzer
//! fixtures. Per report, `tests/golden/analyze_reports.json` holds the
//! 128-bit content key of two renderings — the canonical JSON (every
//! site and finding) and `render()` (what `gmap analyze` prints) — so a
//! restructure of the analyzer that moves any byte of either fails
//! here. On a mismatch the report's JSON is printed.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test analyze_reports
//! ```

use gmap::analyze::{analyze_kernel, fixtures, StaticReport};
use gmap::core::cachekey::{canonical_json, content_key};
use gmap::gpu::kernel::KernelDesc;
use gmap::gpu::workloads::{self, Scale};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The content keys of one report's two renderings.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
struct ReportKeys {
    json: String,
    render: String,
}

impl ReportKeys {
    fn of(report: &StaticReport) -> Self {
        ReportKeys {
            json: content_key(&canonical_json(report)),
            render: content_key(&report.render()),
        }
    }
}

/// Every pinned spec, keyed `builtin/<scale>/<name>` or `fixture/<name>`.
fn specs() -> Vec<(String, KernelDesc)> {
    let mut out = Vec::new();
    for scale in [Scale::Tiny, Scale::Small, Scale::Default] {
        for (name, k) in workloads::NAMES.iter().zip(workloads::all(scale)) {
            out.push((format!("builtin/{}/{name}", scale.name()), k));
        }
    }
    for name in fixtures::NAMES.iter().chain(&["clean-streaming"]) {
        let k = fixtures::by_name(name).expect("known fixture");
        out.push((format!("fixture/{name}"), k));
    }
    out
}

/// At every scale no builtin has an error-severity finding.
fn assert_builtins_admissible(reports: &[(String, StaticReport)]) {
    for scale in [Scale::Tiny, Scale::Small, Scale::Default] {
        let prefix = format!("builtin/{}/", scale.name());
        let builtins: Vec<&(String, StaticReport)> = reports
            .iter()
            .filter(|(what, _)| what.starts_with(&prefix))
            .collect();
        assert_eq!(builtins.len(), workloads::NAMES.len());
        for (what, report) in &builtins {
            let errors: Vec<_> = report.errors().collect();
            assert!(errors.is_empty(), "{what}: error findings {errors:?}");
        }
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/analyze_reports.json")
}

#[test]
fn static_reports_match_golden() {
    let reports: Vec<(String, StaticReport)> = specs()
        .into_iter()
        .map(|(what, k)| (what, analyze_kernel(&k)))
        .collect();
    assert_eq!(reports.len(), 3 * workloads::NAMES.len() + 5);
    assert_builtins_admissible(&reports);
    let got: BTreeMap<String, ReportKeys> = reports
        .iter()
        .map(|(what, r)| (what.clone(), ReportKeys::of(r)))
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let json = serde_json::to_string_pretty(&got).expect("golden serializes");
        std::fs::write(golden_path(), json + "\n").expect("golden file is writable");
        return;
    }
    let raw = std::fs::read_to_string(golden_path()).expect("tests/golden/analyze_reports.json");
    let want: BTreeMap<String, ReportKeys> = serde_json::from_str(&raw).expect("golden parses");
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "the pinned spec set changed"
    );
    for (what, report) in &reports {
        assert_eq!(
            got[what],
            want[what],
            "{what}: the static report drifted from golden \
             (rerun with UPDATE_GOLDEN=1 if the change is intentional); it is now\n{}",
            serde_json::to_string_pretty(report).expect("report serializes")
        );
    }
}
