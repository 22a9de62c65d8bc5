//! Per-channel memory controllers with row-buffer state and FR-FCFS
//! scheduling.
//!
//! [`DramSystem::run`] consumes a timestamped request stream (as recorded
//! by the cache hierarchy) and produces the three metrics of the paper's
//! Figure 7: row-buffer locality, time-averaged controller queue length,
//! and average read/write latency.
//!
//! # How a channel's queue is held
//!
//! Requests are scattered once into per-channel slices, in arrival order.
//! A channel's queue is two parts of its slice:
//!
//! - the *arbitration window*: the oldest ≤ 64 queued requests, in
//!   arrival order, as small fixed arrays plus a `u64` row-hit mask with
//!   one bit per window position;
//! - the *tail*: everything younger. Arbitration never reorders it, so it
//!   is just a range of the slice — admitted by moving an index, copied
//!   nowhere.
//!
//! Order is position: the window is filled from the tail in arrival order
//! and a removal closes the gap, so the oldest entry is position 0 and
//! the oldest row hit is the *first* set bit of the mask. FR-FCFS is
//! `mask.trailing_zeros()`, or position 0 when the mask is empty. The mask
//! is kept true at the only three events that can change it: an entry
//! enters the window (tested against its bank's open row), the picked
//! entry leaves (the gap closes in the mask as in the arrays), and a bank
//! opens a different row (that bank's lanes are re-marked in one
//! branch-free pass — only when the served request was not a hit).
//!
//! The straightforward form — one double-ended queue, a scan of the
//! window for the oldest hit and a second one for the oldest entry — is
//! kept as the oracle of the differential tests in `tests/proptests.rs`;
//! the two produce bit-identical [`DramMetrics`].

use crate::mapping::{AddressMapping, DramGeometry, MappingPlan};
use crate::timing::DramTiming;
use gmap_trace::record::{AccessKind, ByteAddr};
use serde::{Deserialize, Serialize};

/// Controller buffer capacity per channel. Arrivals beyond it wait at the
/// sender until a queued request is served.
const QUEUE_CAPACITY: usize = 4096;

/// FR-FCFS arbitrates over the oldest `SCAN_WINDOW` queued requests only:
/// real controllers arbitrate over a bounded CAM, and an unbounded scan
/// would make saturated channels quadratic in trace length. One bit of
/// the row-hit mask per position, so at most 64.
const SCAN_WINDOW: usize = 64;

/// A memory request presented to the DRAM system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramRequest {
    /// Arrival cycle at the controller.
    pub cycle: u64,
    /// Byte address (line-aligned).
    pub addr: ByteAddr,
    /// Read or write.
    pub kind: AccessKind,
}

/// Request scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum MemSched {
    /// First-ready, first-come-first-served: row-buffer hits first, then
    /// oldest (Table 2 baseline).
    #[default]
    FrFcfs,
    /// Strict arrival order.
    Fcfs,
}

/// Full DRAM system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Organization.
    pub geometry: DramGeometry,
    /// Address decomposition scheme.
    pub mapping: AddressMapping,
    /// Device timings.
    pub timing: DramTiming,
    /// Scheduling discipline.
    pub scheduler: MemSched,
}

impl DramConfig {
    /// The Table 2 baseline: GDDR3 timings, 8 channels × 1 rank × 8 banks,
    /// FR-FCFS, RoBaRaCoCh mapping.
    pub fn table2_baseline() -> Self {
        DramConfig {
            geometry: DramGeometry::table2_baseline(),
            mapping: AddressMapping::RoBaRaCoCh,
            timing: DramTiming::gddr3_table2(),
            scheduler: MemSched::FrFcfs,
        }
    }

    /// A GDDR5 starting point for the Figure 7 sweep (8 channels, 32-bit
    /// bus per channel, 4 bank groups).
    pub fn gddr5_baseline() -> Self {
        DramConfig {
            geometry: DramGeometry {
                channels: 8,
                ranks: 1,
                banks: 16,
                bank_groups: 4,
                columns: 32,
                bus_width_bytes: 4,
            },
            mapping: AddressMapping::RoBaRaCoCh,
            timing: DramTiming::gddr5(4),
            scheduler: MemSched::FrFcfs,
        }
    }

    /// An HBM2-class stack: many narrow channels, short bursts.
    pub fn hbm2_baseline() -> Self {
        DramConfig {
            geometry: DramGeometry {
                channels: 16,
                ranks: 1,
                banks: 16,
                bank_groups: 4,
                columns: 32,
                bus_width_bytes: 16,
            },
            mapping: AddressMapping::RoBaRaCoCh,
            timing: DramTiming::hbm2(),
            scheduler: MemSched::FrFcfs,
        }
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::table2_baseline()
    }
}

/// Aggregate metrics of one run (the Figure 7 triplet plus supporting
/// counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DramMetrics {
    /// Requests served.
    pub requests: u64,
    /// Read requests.
    pub reads: u64,
    /// Write requests.
    pub writes: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Row-buffer locality: `row_hits / requests` in `[0, 1]`.
    pub rbl: f64,
    /// Time-averaged controller queue length (averaged over channels,
    /// weighted by busy time).
    pub avg_queue_len: f64,
    /// Mean read latency (arrival → data) in cycles.
    pub avg_read_latency: f64,
    /// Mean write latency in cycles.
    pub avg_write_latency: f64,
    /// Cycle the last request finished.
    pub finish_cycle: u64,
}

impl DramMetrics {
    /// Mean latency over reads and writes combined.
    pub fn avg_latency(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.avg_read_latency * self.reads as f64 + self.avg_write_latency * self.writes as f64)
            / self.requests as f64
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u64>,
    /// Earliest cycle the bank can accept a new column/activate command.
    ready_at: u64,
    /// When the open row was activated (for tRAS).
    activated_at: u64,
}

/// A request as its channel's controller sees it: what arbitration and
/// the timing model read, nothing else. Age is position in the channel's
/// slice.
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    arrival: u64,
    row: u64,
    flat_bank: u32,
    bank_group: u32,
    is_write: bool,
}

/// A mask of the low `n` bits (`n` ≤ 64).
#[inline]
fn low_bits(n: usize) -> u64 {
    u64::MAX.checked_shr(64 - n as u32).unwrap_or(0)
}

/// The arbitration window of one channel: the oldest ≤ [`SCAN_WINDOW`]
/// queued requests, oldest at position 0.
///
/// Position `i` lives at index `head + i` of arrays twice the window's
/// size, so that a removal moves whichever side of the gap is shorter —
/// nothing at all for position 0, the common pick — and the window slides
/// back to index 0 once per `SCAN_WINDOW` steps of `head`.
#[derive(Debug)]
struct Window {
    /// Index of position 0; below `SCAN_WINDOW`.
    head: usize,
    len: usize,
    /// Index into the channel's request slice.
    req: [usize; 2 * SCAN_WINDOW],
    /// Flat bank of each entry.
    bank: [u32; 2 * SCAN_WINDOW],
    /// Row of each entry.
    row: [u64; 2 * SCAN_WINDOW],
    /// Bit `i` is set iff the row of the entry at position `i` is the
    /// open row of its bank. Bits at and above `len` are clear.
    hits: u64,
}

impl Window {
    fn new() -> Self {
        Window {
            head: 0,
            len: 0,
            req: [0; 2 * SCAN_WINDOW],
            bank: [0; 2 * SCAN_WINDOW],
            row: [0; 2 * SCAN_WINDOW],
            hits: 0,
        }
    }

    /// Appends request `req` as the youngest entry.
    #[inline]
    fn push(&mut self, req: usize, p: &Pending, banks: &[BankState]) {
        let at = self.head + self.len;
        self.req[at] = req;
        self.bank[at] = p.flat_bank;
        self.row[at] = p.row;
        let hit = banks[p.flat_bank as usize].open_row == Some(p.row);
        self.hits |= u64::from(hit) << self.len;
        self.len += 1;
    }

    /// Moves the entries at indices `src` to start at index `dst`.
    #[inline]
    fn shift(&mut self, src: std::ops::Range<usize>, dst: usize) {
        self.req.copy_within(src.clone(), dst);
        self.bank.copy_within(src.clone(), dst);
        self.row.copy_within(src, dst);
    }

    /// Removes the entry at position `pos`, closing the gap in the arrays
    /// and in the mask, and returns its request index.
    #[inline]
    fn remove(&mut self, pos: usize) -> usize {
        let at = self.head + pos;
        let req = self.req[at];
        if pos < self.len / 2 {
            // Fewer older entries than younger: move the older ones up.
            self.shift(self.head..at, self.head + 1);
            self.head += 1;
            if self.head == SCAN_WINDOW {
                self.shift(self.head..self.head + self.len - 1, 0);
                self.head = 0;
            }
        } else {
            self.shift(at + 1..self.head + self.len, at);
        }
        let older = low_bits(pos);
        self.hits = (self.hits & older) | ((self.hits >> 1) & !older);
        self.len -= 1;
        req
    }

    /// `bank` now has `row` open where it had another (or none): re-marks
    /// that bank's entries. One branch-free pass over all lanes; lanes
    /// past `len` hold stale copies and are masked out.
    #[inline]
    fn bank_opened(&mut self, bank: u32, row: u64) {
        let mut bank_lanes = 0u64;
        let mut row_lanes = 0u64;
        let lanes = self.head..self.head + SCAN_WINDOW;
        for (i, (&b, &r)) in self.bank[lanes.clone()]
            .iter()
            .zip(&self.row[lanes])
            .enumerate()
        {
            bank_lanes |= u64::from(b == bank) << i;
            row_lanes |= u64::from(r == row) << i;
        }
        bank_lanes &= low_bits(self.len);
        self.hits = (self.hits & !bank_lanes) | (bank_lanes & row_lanes);
    }
}

/// The DRAM system: a set of independent channel controllers.
#[derive(Debug, Clone)]
pub struct DramSystem {
    cfg: DramConfig,
}

impl DramSystem {
    /// Creates a system.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not power-of-two sized.
    pub fn new(cfg: DramConfig) -> Self {
        cfg.geometry.assert_valid();
        DramSystem { cfg }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Simulates a request stream to completion and returns the metrics.
    /// Requests must be in non-decreasing arrival order (the hierarchy
    /// records them that way); debug builds assert it.
    pub fn run(&self, requests: &[DramRequest]) -> DramMetrics {
        debug_assert!(
            requests.windows(2).all(|w| w[0].cycle <= w[1].cycle),
            "DRAM requests must be in non-decreasing arrival order"
        );
        let geom = self.cfg.geometry;
        let plan = MappingPlan::new(&geom, self.cfg.mapping);
        // Front end: a counting pass sizes the channels, then one scatter
        // places every request in its channel's slice of one buffer, in
        // arrival order.
        let mut cursor = vec![0usize; geom.channels as usize];
        for r in requests {
            cursor[plan.decompose(r.addr.0).channel as usize] += 1;
        }
        let mut start = 0;
        for c in &mut cursor {
            let count = *c;
            *c = start;
            start += count;
        }
        let mut pending = vec![Pending::default(); requests.len()];
        for r in requests {
            let loc = plan.decompose(r.addr.0);
            let slot = &mut cursor[loc.channel as usize];
            pending[*slot] = Pending {
                arrival: r.cycle,
                row: loc.row,
                // `rank * banks + bank` of `u32`s: the cast back is exact.
                flat_bank: loc.flat_bank(&geom) as u32,
                bank_group: geom.group_of_bank(loc.bank),
                is_write: r.kind.is_write(),
            };
            *slot += 1;
        }
        let mut total = DramMetrics::default();
        let mut read_lat_sum = 0u64;
        let mut write_lat_sum = 0u64;
        let mut queue_area = 0f64;
        let mut busy_time = 0u64;
        // The scatter left each cursor at the end of its channel's slice.
        let mut lo = 0;
        for hi in cursor {
            let ch = self.run_channel(&pending[lo..hi]);
            lo = hi;
            total.requests += ch.requests;
            total.reads += ch.reads;
            total.writes += ch.writes;
            total.row_hits += ch.row_hits;
            read_lat_sum += ch.read_lat_sum;
            write_lat_sum += ch.write_lat_sum;
            queue_area += ch.queue_area;
            busy_time += ch.busy_time;
            total.finish_cycle = total.finish_cycle.max(ch.finish_cycle);
        }
        total.rbl = if total.requests == 0 {
            0.0
        } else {
            total.row_hits as f64 / total.requests as f64
        };
        total.avg_read_latency = if total.reads == 0 {
            0.0
        } else {
            read_lat_sum as f64 / total.reads as f64
        };
        total.avg_write_latency = if total.writes == 0 {
            0.0
        } else {
            write_lat_sum as f64 / total.writes as f64
        };
        total.avg_queue_len = if busy_time == 0 {
            0.0
        } else {
            queue_area / busy_time as f64
        };
        total
    }

    fn run_channel(&self, reqs: &[Pending]) -> ChannelOutcome {
        let timing = &self.cfg.timing;
        let banks_per_ch = (self.cfg.geometry.ranks * self.cfg.geometry.banks) as usize;
        let mut banks = vec![BankState::default(); banks_per_ch];
        let mut out = ChannelOutcome::default();
        if reqs.is_empty() {
            return out;
        }
        // The queue is the window plus the tail `reqs[tail_lo..next]`.
        let mut window = Window::new();
        let mut tail_lo = 0usize;
        let mut next = 0usize;
        let mut now = reqs[0].arrival;
        let mut bus_free_at = now;
        let start_time = now;
        // Bank-group column gating: last column command's group and time.
        let mut last_col: Option<(u32, u64)> = None;
        // An empty window is an empty queue: the refill below leaves the
        // tail non-empty only behind a full window.
        while next < reqs.len() || window.len > 0 {
            // Admit arrivals, up to the controller buffer capacity —
            // senders stall when the queue is full.
            while next < reqs.len()
                && reqs[next].arrival <= now
                && window.len + (next - tail_lo) < QUEUE_CAPACITY
            {
                next += 1;
            }
            // Refill the window from the tail, oldest first: it lost an
            // entry to the last pick, or the queue was shorter than it.
            while window.len < SCAN_WINDOW && tail_lo < next {
                window.push(tail_lo, &reqs[tail_lo], &banks);
                tail_lo += 1;
            }
            if window.len == 0 {
                // Idle: jump to the next arrival.
                now = reqs[next].arrival;
                continue;
            }
            // Pick a request: the oldest row hit in the window, else the
            // oldest request. Both are positional (see the module docs).
            let pick = match self.cfg.scheduler {
                MemSched::Fcfs => 0,
                MemSched::FrFcfs if window.hits != 0 => window.hits.trailing_zeros() as usize,
                MemSched::FrFcfs => 0,
            };
            let p = reqs[window.remove(pick)];
            let bank = &mut banks[p.flat_bank as usize];
            // Command issue respects the bank and the column-command gap
            // (long within a bank group); the data bus is reserved
            // separately so commands pipeline under transfers.
            let mut start = now.max(bank.ready_at);
            if let Some((group, at)) = last_col {
                let gap = if group == p.bank_group {
                    timing.t_ccd_l
                } else {
                    timing.t_ccd
                };
                start = start.max(at + gap);
            }
            let (mut data_at, hit) = match bank.open_row {
                Some(row) if row == p.row => (start + timing.t_cas, true),
                Some(_) => {
                    // Conflict: precharge (respecting tRAS) then activate.
                    let pre_at = start.max(bank.activated_at + timing.t_ras);
                    let act_at = pre_at + timing.t_rp;
                    bank.activated_at = act_at;
                    (act_at + timing.t_rcd + timing.t_cas, false)
                }
                None => {
                    bank.activated_at = start;
                    (start + timing.t_rcd + timing.t_cas, false)
                }
            };
            // One transfer at a time on the data bus.
            if data_at < bus_free_at {
                let delay = bus_free_at - data_at;
                start += delay;
                data_at += delay;
            }
            let finish = data_at + timing.burst;
            last_col = Some((p.bank_group, data_at.saturating_sub(timing.t_cas)));
            bank.open_row = Some(p.row);
            bank.ready_at = data_at + timing.t_ccd + if p.is_write { timing.t_wr } else { 0 };
            if !hit {
                window.bank_opened(p.flat_bank, p.row);
            }
            // Queue-length accounting: the queue (including the request in
            // service) occupies the interval [now, finish).
            let dt = finish.saturating_sub(now);
            let queued = window.len + (next - tail_lo);
            out.queue_area += (queued + 1) as f64 * dt as f64;
            bus_free_at = finish;
            // Advance time just past the command slot: the next command
            // can issue while this burst is still on the data bus.
            now = now.max(start + 1);
            let latency = finish - p.arrival;
            out.requests += 1;
            if hit {
                out.row_hits += 1;
            }
            if p.is_write {
                out.writes += 1;
                out.write_lat_sum += latency;
            } else {
                out.reads += 1;
                out.read_lat_sum += latency;
            }
            out.finish_cycle = out.finish_cycle.max(finish);
        }
        out.busy_time = out.finish_cycle.saturating_sub(start_time);
        out
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ChannelOutcome {
    requests: u64,
    reads: u64,
    writes: u64,
    row_hits: u64,
    read_lat_sum: u64,
    write_lat_sum: u64,
    queue_area: f64,
    busy_time: u64,
    finish_cycle: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads(addrs: &[u64], gap: u64) -> Vec<DramRequest> {
        addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| DramRequest {
                cycle: i as u64 * gap,
                addr: ByteAddr(a),
                kind: AccessKind::Read,
            })
            .collect()
    }

    /// Single-channel, single-bank config for deterministic reasoning.
    fn one_bank() -> DramConfig {
        DramConfig {
            geometry: DramGeometry {
                channels: 1,
                ranks: 1,
                banks: 1,
                bank_groups: 1,
                columns: 32,
                bus_width_bytes: 8,
            },
            mapping: AddressMapping::ChRaBaRoCo,
            timing: DramTiming::gddr3_table2(),
            scheduler: MemSched::FrFcfs,
        }
    }

    #[test]
    fn empty_stream_is_all_zero() {
        let m = DramSystem::new(DramConfig::table2_baseline()).run(&[]);
        assert_eq!(m, DramMetrics::default());
    }

    #[test]
    fn sequential_same_row_stream_has_high_rbl() {
        // 32 columns x 128 B = one 4 KiB row under ChRaBaRoCo.
        let addrs: Vec<u64> = (0..32).map(|i| i * 128).collect();
        let m = DramSystem::new(one_bank()).run(&reads(&addrs, 50));
        assert_eq!(m.requests, 32);
        assert_eq!(m.row_hits, 31); // all but the first
        assert!(m.rbl > 0.9);
    }

    #[test]
    fn row_conflict_stream_has_zero_rbl() {
        // Alternate between two rows of the same bank.
        let row_bytes = 32 * 128u64;
        let addrs: Vec<u64> = (0..32).map(|i| (i % 2) * row_bytes).collect();
        let mut cfg = one_bank();
        cfg.scheduler = MemSched::Fcfs; // prevent FR-FCFS from batching rows
        let m = DramSystem::new(cfg).run(&reads(&addrs, 100));
        assert_eq!(m.row_hits, 0);
        assert!(m.avg_read_latency > DramTiming::gddr3_table2().row_hit_latency() as f64);
    }

    #[test]
    fn frfcfs_reorders_for_row_hits() {
        // Burst arrival of interleaved rows: FR-FCFS batches by row and
        // gets more hits than FCFS.
        let row_bytes = 32 * 128u64;
        let addrs: Vec<u64> = (0..32)
            .map(|i| (i % 2) * row_bytes + (i / 2) * 128)
            .collect();
        let all_at_once: Vec<DramRequest> = addrs
            .iter()
            .map(|&a| DramRequest {
                cycle: 0,
                addr: ByteAddr(a),
                kind: AccessKind::Read,
            })
            .collect();
        let mut fr = one_bank();
        fr.scheduler = MemSched::FrFcfs;
        let mut fc = one_bank();
        fc.scheduler = MemSched::Fcfs;
        let m_fr = DramSystem::new(fr).run(&all_at_once);
        let m_fc = DramSystem::new(fc).run(&all_at_once);
        assert!(
            m_fr.row_hits > m_fc.row_hits,
            "FR-FCFS hits {} <= FCFS hits {}",
            m_fr.row_hits,
            m_fc.row_hits
        );
        assert!(m_fr.rbl > 0.8);
    }

    #[test]
    fn burst_arrivals_grow_the_queue() {
        let addrs: Vec<u64> = (0..64).map(|i| i * 128).collect();
        let burst: Vec<DramRequest> = addrs
            .iter()
            .map(|&a| DramRequest {
                cycle: 0,
                addr: ByteAddr(a),
                kind: AccessKind::Read,
            })
            .collect();
        let spaced = reads(&addrs, 200);
        let m_burst = DramSystem::new(one_bank()).run(&burst);
        let m_spaced = DramSystem::new(one_bank()).run(&spaced);
        assert!(
            m_burst.avg_queue_len > m_spaced.avg_queue_len,
            "burst queue {} <= spaced queue {}",
            m_burst.avg_queue_len,
            m_spaced.avg_queue_len
        );
        assert!(m_burst.avg_read_latency > m_spaced.avg_read_latency);
    }

    #[test]
    fn more_channels_spread_load() {
        let addrs: Vec<u64> = (0..256).map(|i| i * 128).collect();
        let burst: Vec<DramRequest> = addrs
            .iter()
            .map(|&a| DramRequest {
                cycle: 0,
                addr: ByteAddr(a),
                kind: AccessKind::Read,
            })
            .collect();
        let mut narrow = DramConfig::table2_baseline();
        narrow.geometry.channels = 1;
        let mut wide = DramConfig::table2_baseline();
        wide.geometry.channels = 8;
        let m_narrow = DramSystem::new(narrow).run(&burst);
        let m_wide = DramSystem::new(wide).run(&burst);
        assert!(m_wide.finish_cycle < m_narrow.finish_cycle);
        assert!(m_wide.avg_read_latency < m_narrow.avg_read_latency);
    }

    #[test]
    fn writes_are_tracked_separately() {
        let reqs = vec![
            DramRequest {
                cycle: 0,
                addr: ByteAddr(0),
                kind: AccessKind::Read,
            },
            DramRequest {
                cycle: 10,
                addr: ByteAddr(128),
                kind: AccessKind::Write,
            },
            DramRequest {
                cycle: 20,
                addr: ByteAddr(256),
                kind: AccessKind::Write,
            },
        ];
        let m = DramSystem::new(one_bank()).run(&reqs);
        assert_eq!((m.reads, m.writes), (1, 2));
        assert!(m.avg_write_latency > 0.0);
        assert!(m.avg_latency() > 0.0);
    }

    #[test]
    fn mapping_changes_rbl() {
        // Strided stream: consecutive requests 128 B apart. Under
        // ChRaBaRoCo they share a row (high RBL); under RoBaRaCoCh they
        // alternate channels (still same row per channel, so also decent) —
        // use a stride of one channel-round to separate the schemes.
        let addrs: Vec<u64> = (0..128).map(|i| i * 128).collect();
        let mut co = DramConfig::table2_baseline();
        co.mapping = AddressMapping::ChRaBaRoCo;
        let mut ch = DramConfig::table2_baseline();
        ch.mapping = AddressMapping::RoBaRaCoCh;
        let m_co = DramSystem::new(co).run(&reads(&addrs, 8));
        let m_ch = DramSystem::new(ch).run(&reads(&addrs, 8));
        // Both decompose validly and RBL is a proper fraction.
        for m in [m_co, m_ch] {
            assert!(m.rbl >= 0.0 && m.rbl <= 1.0);
            assert_eq!(m.requests, 128);
        }
        assert_ne!(m_co.rbl, m_ch.rbl, "mappings should differ on this stream");
    }

    #[test]
    fn same_bank_group_column_gating_slows_bursts() {
        // Two banks in the same group vs two banks in different groups:
        // alternating row-hit streams finish later under the long CCD.
        let mk = |bank_groups: u32| {
            let mut cfg = DramConfig::gddr5_baseline();
            cfg.geometry.channels = 1;
            cfg.geometry.banks = 4;
            cfg.geometry.bank_groups = bank_groups;
            cfg.timing.t_ccd = 2;
            cfg.timing.t_ccd_l = 8;
            // Keep the data bus out of the way so the CCD gap is the
            // binding constraint, and preserve the bank alternation (FR-FCFS
            // would batch each bank's row hits together).
            cfg.timing.burst = 1;
            cfg.scheduler = MemSched::Fcfs;
            cfg
        };
        // Interleave two banks: with ChRaBaRoCo, banks sit above the row
        // bits; easier to alternate columns within one row per bank.
        let row_bytes = 32 * 128u64;
        let bank_stride = row_bytes << 20; // one bank apart under ChRaBaRoCo
        let reqs: Vec<DramRequest> = (0..64u64)
            .map(|i| DramRequest {
                cycle: 0,
                addr: ByteAddr((i % 2) * bank_stride + (i / 2) * 128),
                kind: AccessKind::Read,
            })
            .collect();
        let mut grouped = mk(1); // banks 0 and 1 share the single group
        grouped.mapping = AddressMapping::ChRaBaRoCo;
        let mut split = mk(2); // banks 0 and 1 land in different groups
        split.mapping = AddressMapping::ChRaBaRoCo;
        let slow = DramSystem::new(grouped).run(&reqs);
        let fast = DramSystem::new(split).run(&reqs);
        assert!(
            slow.finish_cycle > fast.finish_cycle,
            "same-group gating should cost cycles: {} vs {}",
            slow.finish_cycle,
            fast.finish_cycle
        );
    }

    #[test]
    fn hbm_baseline_runs() {
        let addrs: Vec<u64> = (0..128).map(|i| i * 128).collect();
        let m = DramSystem::new(DramConfig::hbm2_baseline()).run(&reads(&addrs, 4));
        assert_eq!(m.requests, 128);
        assert!(m.avg_read_latency > 0.0);
    }

    #[test]
    fn determinism() {
        let addrs: Vec<u64> = (0..200).map(|i| (i * 37) % 64 * 128).collect();
        let reqs = reads(&addrs, 13);
        let a = DramSystem::new(DramConfig::table2_baseline()).run(&reqs);
        let b = DramSystem::new(DramConfig::table2_baseline()).run(&reqs);
        assert_eq!(a, b);
    }
}
