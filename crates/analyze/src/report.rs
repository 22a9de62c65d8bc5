//! Structured output of the static analyzer: per-site facts and findings.

use crate::interval::ByteRange;
use crate::races::PairVerdict;
use gmap_trace::record::AccessKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The wire spelling of an access kind in sites and race pairs.
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
/// `"race-write-write"` — which CI gates and API clients match on;
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
    /// Two writes to the same array element from threads the execution
    /// model leaves unordered (no barrier between them, or different
    /// blocks), with a concrete witness pair of threads.
    RaceWriteWrite,
    /// A read and a write of the same array element from unordered
    /// threads, with a concrete witness pair of threads.
    RaceReadWrite,
    /// A conflicting pair the detector could neither prove disjoint /
    /// barrier-ordered nor witness concretely (irregular indices,
    /// unresolved predicates, or search budget exhausted).
    RacePotential,
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
            FindingKind::RaceWriteWrite => "race-write-write",
            FindingKind::RaceReadWrite => "race-read-write",
            FindingKind::RacePotential => "race-potential",
        }
    }

    /// Every kind, in declaration order — the full wire vocabulary.
    pub const ALL: [FindingKind; 9] = [
        FindingKind::SpecError,
        FindingKind::ArraySizeOverflow,
        FindingKind::OutOfBounds,
        FindingKind::OverlappingWrite,
        FindingKind::BarrierDivergence,
        FindingKind::Uncoalesced,
        FindingKind::RaceWriteWrite,
        FindingKind::RaceReadWrite,
        FindingKind::RacePotential,
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticReport {
    /// Kernel name.
    pub name: String,
    /// Warp size the analysis assumed.
    pub warp_size: u32,
    /// Per-site facts, in first-appearance order.
    pub sites: Vec<SiteReport>,
    /// Diagnostics, errors first.
    pub findings: Vec<Finding>,
    /// Per-(array, PC-pair) race verdicts from the barrier-phase
    /// detector, in site order.
    pub races: Vec<crate::races::RacePairReport>,
    /// Whether the barrier-phase detector certified the kernel free of
    /// data races: every conflicting pair is provably disjoint or
    /// barrier-ordered in every scope.
    pub race_certified: bool,
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
        if !self.races.is_empty() {
            out.push('\n');
            out.push_str(&self.render_races());
        }
        if self.findings.is_empty() {
            out.push_str("\nno findings: the spec is clean\n");
        } else {
            render_findings_tail(self, &mut out);
        }
        out
    }

    /// Only the race-verdict section: the summary line, the per-pair
    /// table with one verdict per scope, and any witness schedules.
    /// Embedded in [`Self::render`]; shown alone by
    /// `gmap analyze --races`.
    pub fn render_races(&self) -> String {
        let mut out = String::new();
        if self.races.is_empty() {
            out.push_str(&format!(
                "race analysis of '{}': no conflicting pairs — {}\n",
                self.name,
                if self.race_certified {
                    "certified race-free"
                } else {
                    "not certified (spec invalid or analysis skipped)"
                }
            ));
            return out;
        }
        out.push_str(&format!(
            "race analysis of '{}': {} conflicting pair{} — {}\n",
            self.name,
            self.races.len(),
            if self.races.len() == 1 { "" } else { "s" },
            if self.race_certified {
                "certified race-free".to_string()
            } else {
                let proven = self
                    .races
                    .iter()
                    .filter(|p| {
                        p.same_block == PairVerdict::Proven || p.inter_block == PairVerdict::Proven
                    })
                    .count();
                let potential = self
                    .races
                    .iter()
                    .filter(|p| {
                        p.same_block == PairVerdict::Potential
                            || p.inter_block == PairVerdict::Potential
                    })
                    .count();
                format!("{proven} proven, {potential} potential")
            }
        ));
        out.push_str(&format!(
            "{:<12} {:<18} {:<18} {:<12} {:<12}\n",
            "array", "site A", "site B", "same-block", "inter-block"
        ));
        for p in &self.races {
            out.push_str(&format!(
                "{:<12} {:<18} {:<18} {:<12} {:<12}\n",
                p.array_name,
                format!("{:#x} ({})", p.pc_a, p.kind_a),
                format!("{:#x} ({})", p.pc_b, p.kind_b),
                p.same_block.to_string(),
                p.inter_block.to_string(),
            ));
            if let Some(w) = &p.witness {
                out.push_str(&format!("    witness: {w}\n"));
            }
        }
        out
    }
}

/// The findings table at the end of [`StaticReport::render`].
fn render_findings_tail(report: &StaticReport, out: &mut String) {
    out.push('\n');
    for f in &report.findings {
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
            races: vec![],
            race_certified: false,
        };
        assert!(r.has_errors());
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.warnings().count(), 1);
        let clean = StaticReport {
            name: "k".into(),
            warp_size: 32,
            sites: vec![],
            findings: vec![finding(Severity::Warning)],
            races: vec![],
            race_certified: true,
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
            races: vec![],
            race_certified: false,
        };
        let text = r.render();
        assert!(text.contains("ERROR"));
        assert!(text.contains("0x10"));
        assert!(text.contains("out-of-bounds"));
    }

    #[test]
    fn a_report_without_race_fields_is_refused() {
        // The vendored derive implements no `#[serde(default)]`: a report
        // written before race analysis existed does not parse.
        let r = StaticReport {
            name: "k".into(),
            warp_size: 32,
            sites: vec![],
            findings: vec![],
            races: vec![],
            race_certified: true,
        };
        let json = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<StaticReport>(&json).unwrap(), r);
        let old = json.replace(r#","races":[],"race_certified":true"#, "");
        assert_ne!(old, json);
        let err = serde_json::from_str::<StaticReport>(&old).unwrap_err();
        assert!(err.to_string().contains("expected sequence"), "{err}");
    }

    #[test]
    fn severity_orders_warning_below_error() {
        assert!(Severity::Warning < Severity::Error);
    }
}
