//! Structured output of the static analyzer: per-site facts and findings.

use crate::interval::ByteRange;
use gmap_trace::record::AccessKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The wire spelling of an access kind in sites.
pub(crate) fn rw(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Read => "R",
        AccessKind::Write => "W",
    }
}

/// How bad a finding is.
///
/// The admission gate (`gmap-serve`'s `handlers::profile`) rejects
/// kernels with [`Severity::Error`] findings only: warnings describe
/// *performance* hazards (e.g. fully uncoalesced accesses) that shipped
/// workloads such as kmeans exhibit by design, while errors describe
/// *correctness* hazards (out-of-bounds indices that the SIMT executor
/// would silently wrap, aliasing writes, barriers that would deadlock
/// real hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Performance hazard; the kernel is admissible.
    Warning,
    /// Correctness hazard; the kernel is rejected by the admission gate.
    Error,
}

/// The class of a finding.
///
/// Serialized (and displayed) as stable kebab-case strings — e.g.
/// `"barrier-divergence"` — which CI gates and API clients match on;
/// renaming a variant's wire string is a breaking change. The serde
/// impls are hand-written (the vendored derive implements no
/// `#[serde(...)]` attributes) so the JSON string always equals the
/// [`fmt::Display`] string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// The spec failed structural validation ([`gmap_gpu::kernel::KernelDesc::validate`]).
    SpecError,
    /// `elems * elem_size` or `base + size` overflows `u64`.
    ArraySizeOverflow,
    /// An affine index can leave `[0, elems)`; the executor would wrap it
    /// silently (`rem_euclid`), touching addresses the author never wrote.
    OutOfBounds,
    /// Two arrays with overlapping byte ranges, at least one written.
    OverlappingWrite,
    /// A `__syncthreads()` reachable under block-divergent control flow:
    /// deadlock on real hardware.
    BarrierDivergence,
    /// A full warp touches one 128-byte segment per lane (degree =
    /// warp size): fully uncoalesced.
    Uncoalesced,
}

impl FindingKind {
    /// The stable wire/display string of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            FindingKind::SpecError => "spec-error",
            FindingKind::ArraySizeOverflow => "array-size-overflow",
            FindingKind::OutOfBounds => "out-of-bounds",
            FindingKind::OverlappingWrite => "overlapping-write",
            FindingKind::BarrierDivergence => "barrier-divergence",
            FindingKind::Uncoalesced => "uncoalesced",
        }
    }

    /// Every kind, in declaration order — the full wire vocabulary.
    pub const ALL: [FindingKind; 6] = [
        FindingKind::SpecError,
        FindingKind::ArraySizeOverflow,
        FindingKind::OutOfBounds,
        FindingKind::OverlappingWrite,
        FindingKind::BarrierDivergence,
        FindingKind::Uncoalesced,
    ];
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for FindingKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for FindingKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) => Self::ALL
                .into_iter()
                .find(|k| k.as_str() == s)
                .ok_or_else(|| serde::DeError::custom(format!("unknown finding kind {s:?}"))),
            other => Err(serde::DeError::custom(format!(
                "expected a finding-kind string, got {other:?}"
            ))),
        }
    }
}

/// One diagnostic produced by the analyzer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Error or warning.
    pub severity: Severity,
    /// What class of problem this is.
    pub kind: FindingKind,
    /// PC of the offending access, when the finding is attributable to
    /// one (barrier findings carry the PC of the nearest preceding
    /// access, if any).
    pub pc: Option<u64>,
    /// Human-readable diagnosis.
    pub message: String,
}

/// The access pattern class of a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatternKind {
    /// Affine in the thread coordinates and loop iterators.
    Affine,
    /// Hashed per `(thread, iteration)` — irregular.
    Hashed,
    /// Hashed per thread only — irregular but iteration-stable.
    HashedPerThread,
}

impl fmt::Display for PatternKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PatternKind::Affine => "affine",
            PatternKind::Hashed => "hashed",
            PatternKind::HashedPerThread => "hashed/thread",
        })
    }
}

/// Per-access-site (PC) static facts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteReport {
    /// PC of the access.
    pub pc: u64,
    /// Index of the accessed array in the kernel's array table.
    pub array: usize,
    /// Name of the accessed array.
    pub array_name: String,
    /// `"R"` or `"W"`.
    pub kind: String,
    /// Pattern class of the index expression.
    pub pattern: PatternKind,
    /// Sound inclusive byte-address bounds of every address the site can
    /// emit (covers the whole array once the index can wrap or is
    /// hashed).
    pub addrs: ByteRange,
    /// Whether the affine index stays inside `[0, elems)` for every
    /// thread and iteration (hashed indices always wrap by design).
    pub in_bounds: bool,
    /// Coalescing degree of a full warp at 128-byte granularity:
    /// distinct segments touched by warp 0's first execution.
    pub degree: u32,
    /// Element-to-element stride between adjacent lanes of a warp, in
    /// bytes (`None` for hashed patterns).
    pub lane_stride_bytes: Option<i64>,
    /// First-address stride between consecutive warps of a block, in
    /// bytes (`None` for hashed patterns).
    pub inter_warp_stride_bytes: Option<i64>,
    /// Intra-thread strides contributed by each enclosing loop:
    /// `(loop depth, stride bytes per iteration)`.
    pub iter_strides_bytes: Vec<(u8, i64)>,
    /// Whether the site executes under warp-divergent control flow.
    pub divergent: bool,
}

/// The full result of statically analyzing one kernel.
///
/// Parsing drops findings of the retired race kinds, so a report saved
/// while the analyzer still emitted them reads back as what it reports
/// today; any other unknown kind is still an error.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StaticReport {
    /// Kernel name.
    pub name: String,
    /// Warp size the analysis assumed.
    pub warp_size: u32,
    /// Per-site facts, in first-appearance order.
    pub sites: Vec<SiteReport>,
    /// Diagnostics, errors first.
    pub findings: Vec<Finding>,
}

/// Wire strings of the finding kinds of the deleted race analysis. The
/// kernel DSL loads no values, so a race never changed a stream; a
/// finding of one of these kinds is dropped when a report is parsed.
const RETIRED_FINDING_KINDS: [&str; 3] = ["race-write-write", "race-read-write", "race-potential"];

impl Deserialize for StaticReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |name| v.get(name).unwrap_or(&serde::Value::Null);
        let retired = |f: &&serde::Value| match f.get("kind") {
            Some(serde::Value::Str(k)) => RETIRED_FINDING_KINDS.contains(&k.as_str()),
            _ => false,
        };
        let findings = match field("findings") {
            serde::Value::Seq(items) => items
                .iter()
                .filter(|f| !retired(f))
                .map(Finding::from_value)
                .collect::<Result<_, _>>()?,
            other => Vec::from_value(other)?,
        };
        Ok(StaticReport {
            name: Deserialize::from_value(field("name"))?,
            warp_size: Deserialize::from_value(field("warp_size"))?,
            sites: Deserialize::from_value(field("sites"))?,
            findings,
        })
    }
}

impl StaticReport {
    /// Whether any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// The error findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// The warning findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
    }

    /// Human-readable findings table plus per-site facts, for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "static analysis of '{}': {} sites, {} errors, {} warnings\n",
            self.name,
            self.sites.len(),
            self.errors().count(),
            self.warnings().count()
        ));
        if !self.sites.is_empty() {
            out.push_str(&format!(
                "\n{:<10} {:<12} {:>4} {:>13} {:>7} {:>11} {:>11} {:>9}  {}\n",
                "PC",
                "array",
                "kind",
                "pattern",
                "degree",
                "lane-stride",
                "warp-stride",
                "bounds",
                "addr-range"
            ));
            for s in &self.sites {
                out.push_str(&format!(
                    "{:<10} {:<12} {:>4} {:>13} {:>7} {:>11} {:>11} {:>9}  {}\n",
                    format!("{:#x}", s.pc),
                    s.array_name,
                    s.kind,
                    format!("{}{}", s.pattern, if s.divergent { "/div" } else { "" }),
                    s.degree,
                    s.lane_stride_bytes
                        .map_or("-".to_string(), |v| format!("{v}B")),
                    s.inter_warp_stride_bytes
                        .map_or("-".to_string(), |v| format!("{v}B")),
                    if s.in_bounds { "ok" } else { "WRAPS" },
                    s.addrs
                ));
            }
        }
        if self.findings.is_empty() {
            out.push_str("\nno findings: the spec is clean\n");
            return out;
        }
        out.push('\n');
        for f in &self.findings {
            out.push_str(&format!(
                "{:<7} {:<20} {:<10} {}\n",
                match f.severity {
                    Severity::Error => "ERROR",
                    Severity::Warning => "warning",
                },
                f.kind.to_string(),
                f.pc.map_or("-".to_string(), |pc| format!("{pc:#x}")),
                f.message
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(sev: Severity) -> Finding {
        Finding {
            severity: sev,
            kind: FindingKind::OutOfBounds,
            pc: Some(0x10),
            message: "m".into(),
        }
    }

    #[test]
    fn error_detection_and_counts() {
        let r = StaticReport {
            name: "k".into(),
            warp_size: 32,
            sites: vec![],
            findings: vec![finding(Severity::Warning), finding(Severity::Error)],
        };
        assert!(r.has_errors());
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.warnings().count(), 1);
        let clean = StaticReport {
            name: "k".into(),
            warp_size: 32,
            sites: vec![],
            findings: vec![finding(Severity::Warning)],
        };
        assert!(!clean.has_errors());
    }

    #[test]
    fn render_mentions_pcs_and_severity() {
        let r = StaticReport {
            name: "k".into(),
            warp_size: 32,
            sites: vec![],
            findings: vec![finding(Severity::Error)],
        };
        let text = r.render();
        assert!(text.contains("ERROR"));
        assert!(text.contains("0x10"));
        assert!(text.contains("out-of-bounds"));
    }

    #[test]
    fn a_report_with_the_retired_race_fields_still_parses() {
        // Fields are looked up by name and unknown keys are ignored, so
        // `--json` output saved while reports carried `races` and
        // `race_certified` reads back as the same report; so do its
        // findings of the retired race kinds, which are dropped.
        let r = StaticReport {
            name: "k".into(),
            warp_size: 32,
            sites: vec![],
            findings: vec![finding(Severity::Warning)],
        };
        let json = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<StaticReport>(&json).unwrap(), r);
        let old = json
            .replacen(
                '{',
                r#"{"races":[{"array_name":"acc","pc_a":24,"pc_b":24,"same_block":"Proven"}],"race_certified":false,"#,
                1,
            )
            .replacen(
                "}]",
                r#"},{"severity":"Warning","kind":"race-potential","pc":256,"message":"potential read-write race on 'temp' between pc 0x100 (R) and pc 0x128 (W), cross-warp same-block: irregular (hashed) index defeats disjointness reasoning"}]"#,
                1,
            );
        assert!(old.contains("race-potential"), "{old}");
        assert_eq!(serde_json::from_str::<StaticReport>(&old).unwrap(), r);
        // Any other unknown kind is still refused.
        let made_up = json.replace("out-of-bounds", "race-imagined");
        assert_ne!(made_up, json);
        assert!(serde_json::from_str::<StaticReport>(&made_up).is_err());
    }

    #[test]
    fn severity_orders_warning_below_error() {
        assert!(Severity::Warning < Severity::Error);
    }
}
