//! The analyzer's self-check against a dynamic trace.

use gmap_analyze::{ByteRange, StaticReport};
use gmap_gpu::exec::{AppTrace, WarpEvent};
use std::collections::BTreeMap;

/// One disagreement between the static report and a dynamic trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfCheckViolation {
    /// PC of the offending access.
    pub pc: u64,
    /// The dynamically emitted address.
    pub addr: u64,
    /// The static interval it was supposed to lie in (`None` when the
    /// PC has no static site at all).
    pub expected: Option<ByteRange>,
}

impl std::fmt::Display for SelfCheckViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.expected {
            Some(r) => write!(
                f,
                "pc {:#x}: dynamic address {:#x} escapes static interval {r}",
                self.pc, self.addr
            ),
            None => write!(f, "pc {:#x}: no static site covers this access", self.pc),
        }
    }
}

/// Diffs a [`StaticReport`] against a dynamic execution trace. Sound
/// analysis means an empty result — every address the SIMT executor
/// emitted lies inside the per-PC static interval. Returns at most
/// `limit` violations (the first ones found).
pub fn verify_against_trace(
    report: &StaticReport,
    trace: &AppTrace,
    limit: usize,
) -> Vec<SelfCheckViolation> {
    // A PC can occur at several statements (several sites); its sound
    // interval is the join.
    let mut per_pc: BTreeMap<u64, ByteRange> = BTreeMap::new();
    for s in &report.sites {
        per_pc
            .entry(s.pc)
            .and_modify(|r| {
                r.lo = r.lo.min(s.addrs.lo);
                r.hi = r.hi.max(s.addrs.hi);
            })
            .or_insert(s.addrs);
    }
    let mut out = Vec::new();
    for warp in &trace.warps {
        for ev in &warp.events {
            let WarpEvent::Access { pc, lane_addrs, .. } = ev else {
                continue;
            };
            let expected = per_pc.get(&pc.0).copied();
            for &(_, addr) in lane_addrs {
                let ok = expected.is_some_and(|r| r.contains(addr.0));
                if !ok {
                    out.push(SelfCheckViolation {
                        pc: pc.0,
                        addr: addr.0,
                        expected,
                    });
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
        }
    }
    out
}
