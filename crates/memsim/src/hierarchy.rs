//! The multi-core GPU memory hierarchy: per-SM L1s, shared banked L2,
//! flat memory.
//!
//! Implements [`MemoryModel`], so [`gmap_gpu::schedule::run_schedule`] can
//! drive it directly: every coalesced transaction flows L1 → (MSHR) → L2
//! bank → memory, accumulating the latency that delays the issuing warp.
//!
//! Policies follow the Fermi-class baseline of Table 2 of the paper:
//!
//! - L1: write-through, no-allocate on write (Fermi's L1 does not cache
//!   stores), allocate on read miss, 64 MSHRs per core.
//! - L2: write-back, write-allocate, banked by line index.
//! - Memory: a flat latency; the timestamped request stream can be
//!   recorded, as [`MemRequest`]s, and replayed as recorded through the
//!   `gmap-dram` simulator for the DRAM experiments (Fig. 7).

use crate::cache::{AccessRequest, Cache, CacheConfig, CacheStats, ConfigError, ReplacementPolicy};
use crate::mshr::{Mshr, MshrOutcome};
use crate::prefetch::{
    StreamPrefetcher, StreamPrefetcherConfig, StridePrefetcher, StridePrefetcherConfig,
};
use gmap_gpu::schedule::MemoryModel;
pub use gmap_trace::record::MemRequest;
use gmap_trace::record::{AccessKind, ByteAddr, CoreId, Pc};
use serde::{Deserialize, Serialize};

/// Whether the hierarchy materializes the timestamped memory-request
/// stream that leaves the L2.
///
/// Miss-rate sweeps only read counters, so recording (and growing) a
/// `Vec<MemRequest>` per simulation is pure overhead — [`TraceCapture::Off`]
/// elides it entirely. The DRAM experiments (Fig. 7) replay the stream
/// through `gmap-dram` and need [`TraceCapture::Full`]. Statistics are
/// identical either way; only the trace buffer differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TraceCapture {
    /// Record every request that leaves the L2 (needed for DRAM replay).
    Full,
    /// Record nothing; [`GpuHierarchy::mem_trace`] stays empty.
    #[default]
    Off,
}

impl TraceCapture {
    /// `true` for [`TraceCapture::Full`].
    pub fn is_full(self) -> bool {
        matches!(self, TraceCapture::Full)
    }
}

/// L1 write handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum L1WritePolicy {
    /// Fermi-style: stores write through to the L2 and do not allocate in
    /// the L1 (the Table 2 baseline).
    #[default]
    WriteThroughNoAllocate,
    /// Write-back with write-allocate: stores fill and dirty the L1;
    /// dirty victims write back into the L2.
    WriteBackAllocate,
}

/// Full hierarchy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Number of cores (each with a private L1).
    pub num_cores: u16,
    /// Per-core L1 configuration.
    pub l1: CacheConfig,
    /// Total L2 configuration (capacity is split across banks).
    pub l2: CacheConfig,
    /// Number of L2 banks.
    pub l2_banks: u32,
    /// MSHRs per core.
    pub mshrs_per_core: u32,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u64,
    /// Additional latency of an L2 hit.
    pub l2_hit_latency: u64,
    /// Additional latency of a memory access.
    pub mem_latency: u64,
    /// Latency charged to the warp for a store (stores are
    /// fire-and-forget on GPUs).
    pub store_latency: u64,
    /// How the L1 handles stores.
    pub l1_write_policy: L1WritePolicy,
    /// Optional per-PC stride prefetcher at each L1.
    pub l1_prefetch: Option<StridePrefetcherConfig>,
    /// Optional stream prefetcher at the L2.
    pub l2_prefetch: Option<StreamPrefetcherConfig>,
    /// Whether to record the memory request stream (needed for DRAM
    /// replay; elided for miss-rate sweeps).
    pub trace_capture: TraceCapture,
}

impl HierarchyConfig {
    /// The Table 2 baseline: 15 cores, 16 KB 4-way 128 B L1s (1-cycle
    /// hits), 1 MB 8-way 8-bank 128 B L2, 64 MSHRs/core, no prefetchers.
    pub fn fermi_baseline() -> Self {
        HierarchyConfig {
            num_cores: 15,
            l1: CacheConfig::new(16 * 1024, 4, 128, ReplacementPolicy::Lru)
                .expect("baseline L1 is valid"),
            l2: CacheConfig::new(1024 * 1024, 8, 128, ReplacementPolicy::Lru)
                .expect("baseline L2 is valid"),
            l2_banks: 8,
            mshrs_per_core: 64,
            l1_hit_latency: 1,
            l2_hit_latency: 30,
            mem_latency: 200,
            store_latency: 4,
            l1_write_policy: L1WritePolicy::WriteThroughNoAllocate,
            l1_prefetch: None,
            l2_prefetch: None,
            trace_capture: TraceCapture::Off,
        }
    }

    /// Per-bank L2 configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BanksNotPowerOfTwo`] if the bank count is not
    /// a power of two (a line's bank is its low index bits), or the
    /// underlying [`ConfigError`] if the capacity does not split evenly
    /// across banks.
    pub fn l2_bank_config(&self) -> Result<CacheConfig, ConfigError> {
        if !self.l2_banks.is_power_of_two() {
            return Err(ConfigError::BanksNotPowerOfTwo {
                banks: self.l2_banks,
            });
        }
        CacheConfig::new(
            self.l2.size_bytes / self.l2_banks as u64,
            self.l2.assoc,
            self.l2.line_size,
            self.l2.policy,
        )
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::fermi_baseline()
    }
}

/// Aggregated counters of one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// All L1s merged.
    pub l1: CacheStats,
    /// All L2 banks merged.
    pub l2: CacheStats,
    /// Read requests sent to memory.
    pub mem_reads: u64,
    /// Write requests sent to memory.
    pub mem_writes: u64,
    /// L1 prefetch candidates issued.
    pub l1_pf_issued: u64,
    /// L2 prefetch candidates issued.
    pub l2_pf_issued: u64,
    /// Secondary misses merged in MSHRs.
    pub mshr_merges: u64,
    /// Misses stalled on a full MSHR file.
    pub mshr_full_stalls: u64,
}

impl HierarchyStats {
    /// L1 demand miss rate in `[0, 1]`.
    pub fn l1_miss_rate(&self) -> f64 {
        self.l1.miss_rate()
    }

    /// L2 demand miss rate in `[0, 1]`.
    pub fn l2_miss_rate(&self) -> f64 {
        self.l2.miss_rate()
    }
}

/// The simulated hierarchy.
#[derive(Debug)]
pub struct GpuHierarchy {
    cfg: HierarchyConfig,
    l1s: Vec<Cache>,
    mshrs: Vec<Mshr>,
    l2: Vec<Cache>,
    l1_pf: Vec<Option<StridePrefetcher>>,
    l2_pf: Option<StreamPrefetcher>,
    /// Candidate buffer `l1_prefetch` fills in place per demand load.
    l1_cands: Vec<u64>,
    /// Candidate buffer `l2_demand` fills in place per demand miss — its
    /// own, because an L1 candidate's dirty victim re-enters `l2_demand`
    /// while the L1 list is still being walked.
    l2_cands: Vec<u64>,
    mem_trace: Vec<MemRequest>,
    mem_reads: u64,
    mem_writes: u64,
    /// `log2` of the L1 and L2 line sizes.
    l1_shift: u32,
    l2_shift: u32,
    /// `l2_banks - 1`: the bank of a line is its low index bits.
    bank_mask: u64,
}

impl GpuHierarchy {
    /// Builds an empty hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the L2 bank count is not a power of two,
    /// the L2 does not split evenly into banks, or either cache geometry
    /// is invalid.
    pub fn new(cfg: HierarchyConfig) -> Result<Self, ConfigError> {
        let bank_cfg = cfg.l2_bank_config()?;
        let l1s = (0..cfg.num_cores).map(|_| Cache::new(cfg.l1)).collect();
        let mshrs = (0..cfg.num_cores)
            .map(|_| Mshr::new(cfg.mshrs_per_core.max(1) as usize))
            .collect();
        let l2 = (0..cfg.l2_banks).map(|_| Cache::new(bank_cfg)).collect();
        let l1_pf = (0..cfg.num_cores)
            .map(|_| cfg.l1_prefetch.map(StridePrefetcher::new))
            .collect();
        let l2_pf = cfg.l2_prefetch.map(StreamPrefetcher::new);
        Ok(GpuHierarchy {
            cfg,
            l1s,
            mshrs,
            l2,
            l1_pf,
            l2_pf,
            l1_cands: Vec::new(),
            l2_cands: Vec::new(),
            mem_trace: Vec::new(),
            mem_reads: 0,
            mem_writes: 0,
            l1_shift: cfg.l1.line_size.trailing_zeros(),
            l2_shift: cfg.l2.line_size.trailing_zeros(),
            bank_mask: u64::from(cfg.l2_banks - 1),
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> HierarchyStats {
        let mut l1 = CacheStats::default();
        for c in &self.l1s {
            l1.merge(c.stats());
        }
        let mut l2 = CacheStats::default();
        for c in &self.l2 {
            l2.merge(c.stats());
        }
        HierarchyStats {
            l1,
            l2,
            mem_reads: self.mem_reads,
            mem_writes: self.mem_writes,
            l1_pf_issued: self
                .l1_pf
                .iter()
                .flatten()
                .map(StridePrefetcher::issued)
                .sum(),
            l2_pf_issued: self.l2_pf.as_ref().map_or(0, StreamPrefetcher::issued),
            mshr_merges: self.mshrs.iter().map(Mshr::merges).sum(),
            mshr_full_stalls: self.mshrs.iter().map(Mshr::full_stalls).sum(),
        }
    }

    /// The recorded memory request stream (empty unless
    /// [`HierarchyConfig::trace_capture`] is [`TraceCapture::Full`]).
    pub fn mem_trace(&self) -> &[MemRequest] {
        &self.mem_trace
    }

    /// Consumes the hierarchy and returns the recorded request stream.
    pub fn into_mem_trace(self) -> Vec<MemRequest> {
        self.mem_trace
    }

    /// Shifts the cycle stamps of trace entries from index `from` onward
    /// by `offset` cycles. Used when several kernels are simulated back to
    /// back on one hierarchy: each schedule run counts cycles from zero,
    /// so later kernels' requests must be moved past their predecessors'.
    pub fn shift_mem_trace_cycles(&mut self, from: usize, offset: u64) {
        for req in self.mem_trace.iter_mut().skip(from) {
            req.cycle += offset;
        }
    }

    /// Number of memory requests recorded so far.
    pub fn mem_trace_len(&self) -> usize {
        self.mem_trace.len()
    }

    #[inline]
    fn l1_line(&self, addr: ByteAddr) -> u64 {
        addr.0 >> self.l1_shift
    }

    #[inline]
    fn l2_line(&self, addr: ByteAddr) -> u64 {
        addr.0 >> self.l2_shift
    }

    #[inline]
    fn bank_of(&self, l2_line: u64) -> usize {
        (l2_line & self.bank_mask) as usize
    }

    fn send_mem(&mut self, l2_line: u64, kind: AccessKind, cycle: u64) {
        match kind {
            AccessKind::Read => self.mem_reads += 1,
            AccessKind::Write => self.mem_writes += 1,
        }
        if self.cfg.trace_capture.is_full() {
            let addr = ByteAddr(l2_line << self.l2_shift);
            self.mem_trace.push(MemRequest { cycle, addr, kind });
        }
    }

    /// L2 demand lookup: returns the latency beyond the L1 portion and
    /// performs all fills, write-backs and L2 prefetching.
    fn l2_demand(&mut self, addr: ByteAddr, is_write: bool, cycle: u64) -> u64 {
        let l2_line = self.l2_line(addr);
        let bank = self.bank_of(l2_line);
        let out = self.l2[bank].request(AccessRequest {
            line: l2_line,
            is_write,
            allocate_on_miss: true,
            mark_dirty: is_write,
        });
        if let Some(victim) = out.writeback {
            self.send_mem(victim, AccessKind::Write, cycle);
        }
        if out.hit {
            self.cfg.l2_hit_latency
        } else {
            self.send_mem(l2_line, AccessKind::Read, cycle);
            // Stream prefetcher trains on demand misses.
            if let Some(pf) = self.l2_pf.as_mut() {
                let mut candidates = std::mem::take(&mut self.l2_cands);
                pf.observe_into(l2_line, &mut candidates);
                for &cand in &candidates {
                    let b = self.bank_of(cand);
                    if !self.l2[b].probe(cand) {
                        self.send_mem(cand, AccessKind::Read, cycle);
                        if let Some(victim) = self.l2[b].prefetch_fill(cand) {
                            self.send_mem(victim, AccessKind::Write, cycle);
                        }
                    }
                }
                self.l2_cands = candidates;
            }
            self.cfg.l2_hit_latency + self.cfg.mem_latency
        }
    }

    /// Runs the L1 stride prefetcher for a demand access and installs the
    /// candidates into L1 (fetching through L2 as needed, off the critical
    /// path).
    fn l1_prefetch(&mut self, core: usize, pc: Pc, l1_line: u64, cycle: u64) {
        let Some(pf) = self.l1_pf[core].as_mut() else {
            return;
        };
        let mut candidates = std::mem::take(&mut self.l1_cands);
        pf.observe_into(pc.0, l1_line, &mut candidates);
        for &cand in &candidates {
            if self.l1s[core].probe(cand) {
                continue;
            }
            let addr = ByteAddr(cand << self.l1_shift);
            let l2_line = self.l2_line(addr);
            let bank = self.bank_of(l2_line);
            if !self.l2[bank].probe(l2_line) {
                self.send_mem(l2_line, AccessKind::Read, cycle);
                if let Some(victim) = self.l2[bank].prefetch_fill(l2_line) {
                    self.send_mem(victim, AccessKind::Write, cycle);
                }
            }
            // Under a write-back policy a prefetch fill can evict a dirty
            // victim, which must reach the L2.
            if let Some(victim) = self.l1s[core].prefetch_fill(cand) {
                let victim_addr = ByteAddr(victim << self.l1_shift);
                let _ = self.l2_demand(victim_addr, true, cycle);
            }
        }
        self.l1_cands = candidates;
    }
}

impl MemoryModel for GpuHierarchy {
    fn access(
        &mut self,
        core: CoreId,
        pc: Pc,
        line: ByteAddr,
        kind: AccessKind,
        cycle: u64,
    ) -> u64 {
        // Core ids past the L1 count wrap.
        let core = usize::from(core.0 % self.cfg.num_cores);
        let l1_line = self.l1_line(line);
        match kind {
            AccessKind::Read => {
                let hit = self.l1s[core]
                    .request(AccessRequest {
                        line: l1_line,
                        is_write: false,
                        allocate_on_miss: false,
                        mark_dirty: false,
                    })
                    .hit;
                self.l1_prefetch(core, pc, l1_line, cycle);
                if hit {
                    // Hit-under-miss: the tag may be present while the fill
                    // is still in flight; the warp waits for the fill.
                    if let Some(remaining) = self.mshrs[core].pending_remaining(l1_line, cycle) {
                        return self.cfg.l1_hit_latency + remaining;
                    }
                    return self.cfg.l1_hit_latency;
                }
                // Miss: consult the MSHR file before going below. The fill
                // completion depends on L2/memory, which we must consult
                // exactly once per primary miss; the file grants the
                // register first and learns the completion afterwards.
                let stall = match self.mshrs[core].on_miss(l1_line, cycle) {
                    MshrOutcome::Merged { remaining } => {
                        // Secondary miss: wait for the in-flight fill.
                        return self.cfg.l1_hit_latency + remaining;
                    }
                    MshrOutcome::Allocated => 0,
                    MshrOutcome::Full { stall } => stall,
                };
                // Primary miss (possibly delayed by MSHR back-pressure):
                // fetch through L2 and fill the L1.
                let below = self.l2_demand(line, false, cycle);
                let total = self.cfg.l1_hit_latency + stall + below;
                // Record the completion time for later mergers.
                self.mshrs[core].fill(l1_line, cycle + total);
                // Fill L1; under a write-back policy the evicted victim
                // may be dirty and must reach the L2.
                if let Some(victim) = self.l1s[core].demand_fill(l1_line) {
                    let addr = ByteAddr(victim << self.l1_shift);
                    let _ = self.l2_demand(addr, true, cycle);
                }
                total
            }
            AccessKind::Write => match self.cfg.l1_write_policy {
                L1WritePolicy::WriteThroughNoAllocate => {
                    // Update on hit, never fill; the write always goes to
                    // the L2 (write-back there).
                    let _ = self.l1s[core].request(AccessRequest {
                        line: l1_line,
                        is_write: true,
                        allocate_on_miss: false,
                        mark_dirty: false,
                    });
                    let _ = self.l2_demand(line, true, cycle);
                    self.cfg.store_latency
                }
                L1WritePolicy::WriteBackAllocate => {
                    // Fill and dirty the L1; dirty victims write into the
                    // L2 (which may itself write back to memory).
                    let out = self.l1s[core].request(AccessRequest {
                        line: l1_line,
                        is_write: true,
                        allocate_on_miss: true,
                        mark_dirty: true,
                    });
                    if let Some(victim) = out.writeback {
                        let addr = ByteAddr(victim << self.l1_shift);
                        let _ = self.l2_demand(addr, true, cycle);
                    }
                    if !out.hit {
                        // Write-allocate fetch of the rest of the line.
                        let _ = self.l2_demand(line, false, cycle);
                    }
                    self.cfg.store_latency
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> HierarchyConfig {
        HierarchyConfig {
            num_cores: 2,
            l1: CacheConfig::new(1024, 2, 128, ReplacementPolicy::Lru).expect("valid"),
            l2: CacheConfig::new(8 * 1024, 4, 128, ReplacementPolicy::Lru).expect("valid"),
            l2_banks: 2,
            mshrs_per_core: 4,
            l1_hit_latency: 1,
            l2_hit_latency: 10,
            mem_latency: 100,
            store_latency: 2,
            l1_write_policy: L1WritePolicy::WriteThroughNoAllocate,
            l1_prefetch: None,
            l2_prefetch: None,
            trace_capture: TraceCapture::Full,
        }
    }

    fn read(h: &mut GpuHierarchy, core: u16, addr: u64, cycle: u64) -> u64 {
        h.access(
            CoreId(core),
            Pc(0x10),
            ByteAddr(addr),
            AccessKind::Read,
            cycle,
        )
    }

    #[test]
    fn baseline_matches_table2() {
        let cfg = HierarchyConfig::fermi_baseline();
        assert_eq!(cfg.num_cores, 15);
        assert_eq!(cfg.l1.size_bytes, 16 * 1024);
        assert_eq!(cfg.l1.assoc, 4);
        assert_eq!(cfg.l2.size_bytes, 1024 * 1024);
        assert_eq!(cfg.l2_banks, 8);
        assert_eq!(cfg.mshrs_per_core, 64);
        assert!(GpuHierarchy::new(cfg).is_ok());
    }

    #[test]
    fn bank_count_must_be_a_power_of_two() {
        for banks in [0, 3, 6] {
            let cfg = HierarchyConfig {
                l2_banks: banks,
                ..HierarchyConfig::fermi_baseline()
            };
            assert_eq!(
                GpuHierarchy::new(cfg).err(),
                Some(ConfigError::BanksNotPowerOfTwo { banks })
            );
        }
    }

    #[test]
    fn read_latencies_reflect_hit_level() {
        let mut h = GpuHierarchy::new(tiny_config()).expect("valid");
        let cold = read(&mut h, 0, 0x10000, 0);
        assert_eq!(cold, 1 + 10 + 100);
        let l1_hit = read(&mut h, 0, 0x10000, 200);
        assert_eq!(l1_hit, 1);
        // Another core misses L1 but hits L2.
        let l2_hit = read(&mut h, 1, 0x10000, 400);
        assert_eq!(l2_hit, 1 + 10);
    }

    #[test]
    fn stats_count_levels_correctly() {
        let mut h = GpuHierarchy::new(tiny_config()).expect("valid");
        read(&mut h, 0, 0, 0);
        read(&mut h, 0, 0, 300);
        let s = h.stats();
        assert_eq!(s.l1.accesses, 2);
        assert_eq!(s.l1.hits, 1);
        assert_eq!(s.l2.accesses, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.mem_reads, 1);
        assert!((s.l1_miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mshr_merges_secondary_misses() {
        let mut h = GpuHierarchy::new(tiny_config()).expect("valid");
        let primary = read(&mut h, 0, 0x40000, 0);
        assert_eq!(primary, 111); // fill completes at cycle 111
                                  // A second access while the fill is in flight waits for it
                                  // (hit-under-miss) and does not re-query the L2 or memory.
        let mem_before = h.stats().mem_reads;
        let secondary = read(&mut h, 0, 0x40000, 5);
        assert_eq!(secondary, 1 + (111 - 5));
        assert_eq!(h.stats().mem_reads, mem_before);
        assert_eq!(h.stats().mshr_merges, 1);
        // After the fill lands it is a plain L1 hit.
        let hit = read(&mut h, 0, 0x40000, 200);
        assert_eq!(hit, 1);
    }

    #[test]
    fn writes_are_write_through_no_allocate() {
        let mut h = GpuHierarchy::new(tiny_config()).expect("valid");
        let lat = h.access(CoreId(0), Pc(0x20), ByteAddr(0x8000), AccessKind::Write, 0);
        assert_eq!(lat, 2); // store latency
        let s = h.stats();
        // L1 did not allocate; L2 did (write-allocate).
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.l2.accesses, 1);
        assert_eq!(s.mem_reads, 1); // write-allocate fetch
                                    // A read to the same line now hits L2 (not L1).
        let lat = read(&mut h, 0, 0x8000, 100);
        assert_eq!(lat, 11);
    }

    #[test]
    fn write_back_l1_allocates_stores() {
        let mut cfg = tiny_config();
        cfg.l1_write_policy = L1WritePolicy::WriteBackAllocate;
        let mut h = GpuHierarchy::new(cfg).expect("valid");
        h.access(CoreId(0), Pc(0x20), ByteAddr(0x8000), AccessKind::Write, 0);
        // Unlike the write-through default, the store filled the L1.
        let lat = read(&mut h, 0, 0x8000, 100);
        assert_eq!(lat, 1, "read after store should hit a write-back L1");
    }

    #[test]
    fn write_back_l1_dirty_victims_reach_l2() {
        let mut cfg = tiny_config();
        cfg.l1_write_policy = L1WritePolicy::WriteBackAllocate;
        // 1 KiB 2-way 128 B L1: 4 sets; conflict a set with 3 lines.
        let mut h = GpuHierarchy::new(cfg).expect("valid");
        h.access(CoreId(0), Pc(0x20), ByteAddr(0), AccessKind::Write, 0);
        // Two conflicting reads (same set: stride = sets*line = 512 B)
        // evict the dirty line.
        read(&mut h, 0, 512, 10);
        read(&mut h, 0, 1024, 20);
        let s = h.stats();
        assert!(s.l1.writebacks >= 1, "dirty L1 victim should write back");
        // Under write-back the store itself never reaches the L2 — only
        // the dirty victim does (plus the write-allocate fetch as a read).
        assert_eq!(s.l2.writes, 1, "victim write at L2");
        assert!(
            s.l2.reads >= 3,
            "allocate fetch + demand reads, got {}",
            s.l2.reads
        );
    }

    #[test]
    fn dirty_l2_eviction_writes_back() {
        let mut cfg = tiny_config();
        // Shrink L2 to force evictions quickly: 2 banks x 2 sets x 2 ways.
        cfg.l2 = CacheConfig::new(2048, 2, 128, ReplacementPolicy::Lru).expect("valid");
        let mut h = GpuHierarchy::new(cfg).expect("valid");
        // Dirty a line, then stream enough conflicting lines through the
        // same bank to evict it.
        h.access(CoreId(0), Pc(0x20), ByteAddr(0), AccessKind::Write, 0);
        for i in 1..20u64 {
            // Same bank requires same (line % banks) parity: step by 2 lines.
            read(&mut h, 0, i * 2 * 128, i * 10);
        }
        let s = h.stats();
        assert!(
            s.mem_writes >= 1,
            "expected at least one write-back, got {}",
            s.mem_writes
        );
    }

    #[test]
    fn l2_banking_splits_capacity() {
        let cfg = tiny_config();
        let bank = cfg.l2_bank_config().expect("valid");
        assert_eq!(bank.size_bytes, 4 * 1024);
        // Lines alternate banks.
        let mut h = GpuHierarchy::new(cfg).expect("valid");
        read(&mut h, 0, 0, 0); // line 0 -> bank 0
        read(&mut h, 0, 128, 0); // line 1 -> bank 1
        assert_eq!(h.l2[0].stats().accesses, 1);
        assert_eq!(h.l2[1].stats().accesses, 1);
    }

    #[test]
    fn mem_trace_is_recorded_with_cycles() {
        let mut h = GpuHierarchy::new(tiny_config()).expect("valid");
        read(&mut h, 0, 0x1000, 7);
        read(&mut h, 0, 0x2000, 19);
        let t = h.mem_trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].cycle, 7);
        assert_eq!(t[1].cycle, 19);
        assert_eq!(t[0].kind, AccessKind::Read);
        assert_eq!(t[0].addr, ByteAddr(0x1000));
    }

    #[test]
    fn trace_off_matches_full_stats_with_empty_trace() {
        let full_cfg = tiny_config();
        let mut off_cfg = full_cfg;
        off_cfg.trace_capture = TraceCapture::Off;
        let mut full = GpuHierarchy::new(full_cfg).expect("valid");
        let mut off = GpuHierarchy::new(off_cfg).expect("valid");
        let mut state = 1u64;
        for i in 0..500u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (state >> 20) % 0x20000;
            let kind = if state.is_multiple_of(5) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let core = (state % 2) as u16;
            full.access(CoreId(core), Pc(0x10), ByteAddr(addr), kind, i * 3);
            off.access(CoreId(core), Pc(0x10), ByteAddr(addr), kind, i * 3);
        }
        assert_eq!(
            full.stats(),
            off.stats(),
            "capture mode must not affect stats"
        );
        assert!(!full.mem_trace().is_empty());
        assert!(off.mem_trace().is_empty(), "Off must record nothing");
    }

    #[test]
    fn l1_stride_prefetcher_reduces_misses_on_streams() {
        let mut base = tiny_config();
        base.l1 = CacheConfig::new(4 * 1024, 4, 128, ReplacementPolicy::Lru).expect("valid");
        let mut with_pf = base;
        with_pf.l1_prefetch = Some(StridePrefetcherConfig {
            table_size: 16,
            degree: 4,
            distance: 1,
            min_confidence: 2,
        });
        let mut h0 = GpuHierarchy::new(base).expect("valid");
        let mut h1 = GpuHierarchy::new(with_pf).expect("valid");
        for i in 0..512u64 {
            let addr = i * 128; // unit-stride line stream from one PC
            h0.access(
                CoreId(0),
                Pc(0x10),
                ByteAddr(addr),
                AccessKind::Read,
                i * 10,
            );
            h1.access(
                CoreId(0),
                Pc(0x10),
                ByteAddr(addr),
                AccessKind::Read,
                i * 10,
            );
        }
        let (m0, m1) = (h0.stats().l1.misses, h1.stats().l1.misses);
        assert!(m1 < m0 / 2, "prefetcher should cut misses: {m1} vs {m0}");
        assert!(h1.stats().l1.prefetch_useful > 0);
    }

    #[test]
    fn l2_stream_prefetcher_reduces_l2_misses() {
        let mut base = tiny_config();
        let mut with_pf = base;
        with_pf.l2_prefetch = Some(StreamPrefetcherConfig {
            num_streams: 8,
            window: 16,
            degree: 4,
        });
        base.trace_capture = TraceCapture::Off;
        with_pf.trace_capture = TraceCapture::Off;
        let mut h0 = GpuHierarchy::new(base).expect("valid");
        let mut h1 = GpuHierarchy::new(with_pf).expect("valid");
        for i in 0..512u64 {
            let addr = i * 128;
            h0.access(
                CoreId(0),
                Pc(0x10),
                ByteAddr(addr),
                AccessKind::Read,
                i * 10,
            );
            h1.access(
                CoreId(0),
                Pc(0x10),
                ByteAddr(addr),
                AccessKind::Read,
                i * 10,
            );
        }
        assert!(
            h1.stats().l2.misses < h0.stats().l2.misses,
            "stream prefetcher should cut L2 misses: {} vs {}",
            h1.stats().l2.misses,
            h0.stats().l2.misses
        );
    }

    #[test]
    fn different_l1_and_l2_line_sizes_compose() {
        let mut cfg = tiny_config();
        cfg.l1 = CacheConfig::new(1024, 2, 32, ReplacementPolicy::Lru).expect("valid");
        cfg.l2 = CacheConfig::new(8 * 1024, 4, 128, ReplacementPolicy::Lru).expect("valid");
        let mut h = GpuHierarchy::new(cfg).expect("valid");
        // Two reads 32 B apart: two L1 lines, one L2 line.
        read(&mut h, 0, 0x1000, 0);
        read(&mut h, 0, 0x1020, 10);
        let s = h.stats();
        assert_eq!(s.l1.misses, 2);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.l2.hits, 1);
    }

    #[test]
    fn core_ids_wrap_safely() {
        let mut h = GpuHierarchy::new(tiny_config()).expect("valid");
        // Core id beyond num_cores must not panic (wraps by modulo).
        let lat = read(&mut h, 7, 0x100, 0);
        assert!(lat > 0);
    }
}
