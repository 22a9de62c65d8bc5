//! The statistical profile: the paper's 5-tuple `(Π, Q, B, P_S, P_R)`.
//!
//! A [`GmapProfile`] is the *entire* artifact a workload owner ships in
//! place of a proprietary trace (§1, §4.2): a few kilobytes of histograms
//! and instruction sequences from which proxies of any length can be
//! regenerated. It is JSON-serializable so it can be audited — the point of
//! performance cloning is that the profile provably contains no raw
//! addresses beyond per-instruction base addresses, which may themselves be
//! remapped for obfuscation (see [`GmapProfile::rebase`]).

use crate::error::GmapError;
use gmap_gpu::hierarchy::LaunchConfig;
use gmap_trace::record::{AccessKind, ByteAddr, Pc};
use gmap_trace::reuse::ReuseHistogram;
use gmap_trace::Histogram;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// One entry of a dynamic memory instruction profile π.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PiEntry {
    /// A memory instruction, by static-instruction slot (index into
    /// [`GmapProfile::pcs`]).
    Mem(usize),
    /// A threadblock barrier, kept in the profile so the clone reproduces
    /// TB-level synchronization (§4.5).
    Sync,
}

/// A dynamic memory instruction profile: the ordered sequence of static
/// memory instructions one warp executes (§4.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PiProfile {
    /// Entries in execution order.
    pub entries: Vec<PiEntry>,
}

impl PiProfile {
    /// Number of memory entries (barriers excluded).
    pub fn num_accesses(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e, PiEntry::Mem(_)))
            .count()
    }

    /// Positional similarity with another profile: identical entries in
    /// sequence divided by the longer length (§4.4). Two empty profiles
    /// are identical (1.0).
    pub fn similarity(&self, other: &PiProfile) -> f64 {
        let longer = self.entries.len().max(other.entries.len());
        if longer == 0 {
            return 1.0;
        }
        let matching = self
            .entries
            .iter()
            .zip(&other.entries)
            .filter(|(a, b)| a == b)
            .count();
        matching as f64 / longer as f64
    }
}

/// A complete G-MAP statistical profile.
///
/// Formally (§4.6) the features are the 5-tuple `(Π, Q, B, P_S, P_R)`;
/// this struct adds the bookkeeping needed to regenerate the thread
/// hierarchy (launch geometry, warp size) and the coalescing behaviour
/// (transactions-per-access distributions) plus the measured `SchedP_self`
/// scheduling statistic (§4.5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GmapProfile {
    /// Application name.
    pub name: String,
    /// Launch geometry (G-MAP "maintains the same grid and TB dimensions
    /// as the original application", §4).
    pub launch: LaunchConfig,
    /// Warp size at capture.
    pub warp_size: u32,
    /// Coalescing granularity at capture, bytes.
    pub line_size: u64,
    /// Static instruction table (the slot space all other fields index).
    pub pcs: Vec<Pc>,
    /// Read/write kind per slot.
    pub kinds: Vec<AccessKind>,
    /// Π — dominant dynamic memory instruction profiles.
    pub profiles: Vec<PiProfile>,
    /// Q — weight of each profile (by cluster population).
    pub profile_weights: Histogram<usize>,
    /// B — base address per slot (line-aligned).
    pub base_addrs: Vec<ByteAddr>,
    /// `P_E` — inter-thread (inter-warp) stride distribution per slot,
    /// in bytes.
    pub inter_stride: Vec<Histogram<i64>>,
    /// `P_A` — intra-thread stride distribution per slot, in bytes.
    pub intra_stride: Vec<Histogram<i64>>,
    /// `P_R` — reuse distance distribution per profile.
    pub reuse: Vec<ReuseHistogram>,
    /// PC-localized temporal reuse: for each slot, the distribution of the
    /// distance (in executions of *that* instruction) back to the last
    /// execution that touched the same address; `0` means a fresh address.
    ///
    /// This is a reproduction extension beyond the paper's 5-tuple: it
    /// pins loop-rewind strides (e.g. a multi-pass kernel returning to its
    /// region start) to the right *position* in the stream, which plain
    /// stride sampling places randomly. The `ablation` experiment
    /// quantifies its effect; clear these histograms to recover the
    /// paper's exact Algorithm 1.
    pub pc_reuse: Vec<Histogram<u32>>,
    /// Positional companion to [`GmapProfile::pc_reuse`]: for each slot,
    /// the *modal* reuse distance at each execution ordinal (0 = fresh
    /// address), kept only where the mode is structural (a majority of
    /// warps agree); `None` ordinals — and ordinals beyond the schedule —
    /// sample `pc_reuse` instead. The π profiles already store exact PC
    /// sequences; this stores the same kind of structural information for
    /// temporal reuse, so that loop rewinds happen at the ordinal where
    /// every warp performs them.
    pub pc_reuse_schedule: Vec<Vec<Option<u32>>>,
    /// Modal intra-thread stride per execution ordinal (same majority-vote
    /// rule as [`GmapProfile::pc_reuse_schedule`]): entry `e` is the
    /// stride from execution `e` to `e+1` when a majority of warps agree,
    /// `None` where behaviour is not structural. Keeps every warp's chain
    /// aligned in lockstep-regular kernels, which is what preserves
    /// inter-warp line sharing.
    pub intra_stride_schedule: Vec<Vec<Option<i64>>>,
    /// Modal inter-warp stride by block phase: entry `p` of slot `k` is
    /// the majority first-execution stride for warps whose id is `p`
    /// modulo warps-per-block. Captures block-boundary discontinuities at
    /// their exact period instead of scattering them randomly.
    pub inter_stride_phase: Vec<Vec<Option<i64>>>,
    /// Coalesced transactions per warp-level access, per slot.
    pub txn_count: Vec<Histogram<u32>>,
    /// Span of a multi-transaction access in lines (distance between its
    /// first and last transaction), per slot. A perfectly coalesced
    /// strided access has span = transactions − 1 (consecutive lines); an
    /// irregular gather spans a large random window. The clone spreads its
    /// transactions over a sampled span with jittered gaps, so it neither
    /// invents spatial locality an irregular app lacks nor loses the
    /// locality a strided app has.
    pub txn_span: Vec<Histogram<u64>>,
    /// Measured probability of scheduling the same warp consecutively
    /// (`SchedP_self`, §4.5); `None` if never measured.
    pub sched_p_self: Option<f64>,
    /// Warp-level memory instructions observed at capture (the original
    /// `J`; miniaturization scales it).
    pub total_warp_accesses: u64,
}

impl GmapProfile {
    /// Number of static instructions.
    pub fn num_slots(&self) -> usize {
        self.pcs.len()
    }

    /// Slot of a PC, if profiled.
    pub fn slot_of(&self, pc: Pc) -> Option<usize> {
        self.pcs.iter().position(|&p| p == pc)
    }

    /// Relative execution frequency of each slot across all profiles,
    /// weighted by Q — the "%Mem Freq" column of Table 1.
    pub fn slot_frequencies(&self) -> Vec<f64> {
        let mut counts = vec![0.0f64; self.pcs.len()];
        let mut total = 0.0;
        for (i, p) in self.profiles.iter().enumerate() {
            let w = self.profile_weights.count_of(i) as f64;
            for e in &p.entries {
                if let PiEntry::Mem(slot) = e {
                    counts[*slot] += w;
                    total += w;
                }
            }
        }
        if total > 0.0 {
            for c in &mut counts {
                *c /= total;
            }
        }
        counts
    }

    /// Remaps every base address by a fixed offset — the obfuscation knob
    /// of §4.2 ("choice of the initial base addresses can help to create
    /// obfuscated proxy memory access sequences for proprietariness").
    /// Locality is translation-invariant, so clone fidelity is unchanged.
    pub fn rebase(&mut self, delta: i64) {
        for b in &mut self.base_addrs {
            *b = b.offset(delta);
        }
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O errors as [`GmapError`].
    pub fn save<W: Write>(&self, mut writer: W) -> Result<(), GmapError> {
        let json = serde_json::to_string_pretty(self)?;
        writer.write_all(json.as_bytes())?;
        Ok(())
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Propagates deserialization and I/O errors as [`GmapError`].
    pub fn load<R: Read>(mut reader: R) -> Result<Self, GmapError> {
        let mut buf = String::new();
        reader.read_to_string(&mut buf)?;
        Self::from_json(&buf)
    }

    /// Renders the profile as compact canonical JSON — the wire format of
    /// the `gmap serve` model store, and the byte string its
    /// content-addressed cache keys hash ([`crate::cachekey`]).
    pub fn to_json(&self) -> String {
        crate::cachekey::canonical_json(self)
    }

    /// Parses a profile from a JSON string (compact or pretty).
    ///
    /// # Errors
    ///
    /// Propagates deserialization errors as [`GmapError::Serde`].
    pub fn from_json(json: &str) -> Result<Self, GmapError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Sanity-checks internal consistency (all slot references in range,
    /// parallel arrays of equal length) and that the launch's warps can
    /// be counted.
    ///
    /// # Errors
    ///
    /// Returns [`GmapError::EmptyProfile`] for structurally broken or
    /// empty profiles, and [`GmapError::LaunchTooLarge`] for a launch of
    /// more than `u32::MAX` warps.
    pub fn validate(&self) -> Result<(), GmapError> {
        let n = self.pcs.len();
        let consistent = self.kinds.len() == n
            && self.base_addrs.len() == n
            && self.inter_stride.len() == n
            && self.intra_stride.len() == n
            && self.pc_reuse.len() == n
            && self.pc_reuse_schedule.len() == n
            && self.intra_stride_schedule.len() == n
            && self.inter_stride_phase.len() == n
            && self.txn_count.len() == n
            && self.txn_span.len() == n
            && self.reuse.len() == self.profiles.len()
            && !self.profiles.is_empty()
            && n > 0;
        if !consistent {
            return Err(GmapError::EmptyProfile);
        }
        if self.launch.checked_total_warps(self.warp_size).is_none() {
            return Err(GmapError::LaunchTooLarge);
        }
        for p in &self.profiles {
            for e in &p.entries {
                if let PiEntry::Mem(slot) = e {
                    if *slot >= n {
                        return Err(GmapError::EmptyProfile);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_profile() -> GmapProfile {
        let mut weights = Histogram::new();
        weights.add_n(0, 3);
        weights.add_n(1, 1);
        GmapProfile {
            name: "toy".into(),
            launch: LaunchConfig::new(2u32, 64u32),
            warp_size: 32,
            line_size: 128,
            pcs: vec![Pc(0x10), Pc(0x20)],
            kinds: vec![AccessKind::Read, AccessKind::Write],
            profiles: vec![
                PiProfile {
                    entries: vec![PiEntry::Mem(0), PiEntry::Mem(0), PiEntry::Mem(1)],
                },
                PiProfile {
                    entries: vec![PiEntry::Mem(0), PiEntry::Sync, PiEntry::Mem(1)],
                },
            ],
            profile_weights: weights,
            base_addrs: vec![ByteAddr(0x1000), ByteAddr(0x8000)],
            inter_stride: vec![
                [128i64].into_iter().collect(),
                [256i64].into_iter().collect(),
            ],
            intra_stride: vec![[64i64].into_iter().collect(), Histogram::new()],
            pc_reuse: vec![[0u32].into_iter().collect(), [0u32].into_iter().collect()],
            pc_reuse_schedule: vec![vec![Some(0), Some(0)], vec![Some(0)]],
            intra_stride_schedule: vec![vec![Some(64), Some(64)], vec![]],
            inter_stride_phase: vec![vec![Some(128), Some(128)], vec![Some(256), None]],
            reuse: vec![ReuseHistogram::new(), ReuseHistogram::new()],
            txn_count: vec![[1u32].into_iter().collect(), [2u32].into_iter().collect()],
            txn_span: vec![Histogram::new(), [1u64].into_iter().collect()],
            sched_p_self: Some(0.1),
            total_warp_accesses: 12,
        }
    }

    #[test]
    fn similarity_matches_paper_definition() {
        let a = PiProfile {
            entries: vec![PiEntry::Mem(0), PiEntry::Mem(1), PiEntry::Mem(2)],
        };
        let b = PiProfile {
            entries: vec![PiEntry::Mem(0), PiEntry::Mem(9), PiEntry::Mem(2)],
        };
        assert!((a.similarity(&b) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.similarity(&a), 1.0);
        // Different lengths: normalized by the longer one.
        let c = PiProfile {
            entries: vec![PiEntry::Mem(0)],
        };
        assert!((a.similarity(&c) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(PiProfile::default().similarity(&PiProfile::default()), 1.0);
    }

    #[test]
    fn num_accesses_excludes_sync() {
        let p = PiProfile {
            entries: vec![PiEntry::Mem(0), PiEntry::Sync, PiEntry::Mem(1)],
        };
        assert_eq!(p.num_accesses(), 2);
    }

    #[test]
    fn slot_frequencies_are_weighted_by_q() {
        let p = toy_profile();
        let f = p.slot_frequencies();
        // Profile 0 (weight 3): slot0 x2, slot1 x1. Profile 1 (weight 1):
        // slot0 x1, slot1 x1. Totals: slot0 = 7, slot1 = 4, sum 11.
        assert!((f[0] - 7.0 / 11.0).abs() < 1e-12);
        assert!((f[1] - 4.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn rebase_translates_bases() {
        let mut p = toy_profile();
        p.rebase(0x100);
        assert_eq!(p.base_addrs[0], ByteAddr(0x1100));
        p.rebase(-0x100);
        assert_eq!(p.base_addrs[0], ByteAddr(0x1000));
    }

    #[test]
    fn save_load_round_trip() {
        let p = toy_profile();
        let mut buf = Vec::new();
        p.save(&mut buf).expect("save");
        let q = GmapProfile::load(&buf[..]).expect("load");
        assert_eq!(p, q);
    }

    #[test]
    fn validate_accepts_consistent_profile() {
        toy_profile().validate().expect("toy profile is consistent");
    }

    #[test]
    fn validate_rejects_bad_slot() {
        let mut p = toy_profile();
        p.profiles[0].entries.push(PiEntry::Mem(99));
        assert!(matches!(p.validate(), Err(GmapError::EmptyProfile)));
    }

    #[test]
    fn validate_rejects_a_launch_past_u32_warps() {
        let mut p = toy_profile();
        p.launch = LaunchConfig::new(1u32 << 27, 1024u32);
        assert!(matches!(p.validate(), Err(GmapError::LaunchTooLarge)));
        p.launch = LaunchConfig::new((1u32 << 27) - 1, 1024u32);
        p.validate().expect("u32::MAX - 31 warps fit");
    }

    #[test]
    fn validate_rejects_mismatched_arrays() {
        let mut p = toy_profile();
        p.base_addrs.pop();
        assert!(p.validate().is_err());
    }

    #[test]
    fn slot_lookup() {
        let p = toy_profile();
        assert_eq!(p.slot_of(Pc(0x20)), Some(1));
        assert_eq!(p.slot_of(Pc(0x99)), None);
        assert_eq!(p.num_slots(), 2);
    }
}
