//! Per-channel memory controllers with row-buffer state and FR-FCFS
//! scheduling, the Table 2 controller and the only policy modeled.
//!
//! [`DramSystem::run`] replays the [`MemRequest`]s the cache hierarchy
//! recorded, as recorded, and produces the three metrics of the paper's
//! Figure 7: row-buffer locality, controller queue length (see
//! [`DramMetrics::avg_queue_len`] for what is summed) and average
//! read/write latency.
//!
//! # How a channel's queue is held
//!
//! One pass decomposes every request once and appends it to its
//! channel's queue in arrival order: two rows of `u64`, the arrival
//! cycle and the *page* — row and bank in one key, the write flag in its
//! top bit. Nothing is ever moved after that. A channel's queue is a
//! range of its rows:
//!
//! - the *arbitration window*: the oldest ≤ 64 queued requests — the
//!   unserved entries below `win_end`, with a served bit per entry;
//! - the *tail*: `win_end..next`. Arbitration never reorders it, so
//!   admitting to it and refilling the window from it move an index.
//!
//! FR-FCFS needs the oldest row hit, else the oldest entry. Hits are kept
//! as a ring of entry indices, oldest first. A bank changes its open row
//! only when it serves a miss, and FR-FCFS serves a miss only when the
//! window holds no hit; so between two such events hits only leave from
//! the front (oldest first) and only join at the back (an entry that
//! enters the window is younger than all in it, and joins if its page is
//! open). A pick is a pop, or — when the ring is empty — the first clear
//! served bit. After a miss the ring is rebuilt from one vector compare of
//! the window's pages against the newly open one. In the regime the
//! Figure 7 traces live in, a full queue where each pick admits one
//! request and refills one window slot, the bookkeeping of a pick is a
//! handful of index steps and no data moves.
//!
//! The straightforward form — one double-ended queue, a scan of the
//! window for the oldest hit and a second one for the oldest entry — is
//! kept as the oracle of the differential tests in `tests/proptests.rs`;
//! the two produce bit-identical [`DramMetrics`].

use crate::mapping::{AddressMapping, DramGeometry, MappingPlan};
use crate::timing::DramTiming;
use gmap_trace::record::MemRequest;
use serde::{Deserialize, Serialize};

/// Controller buffer capacity per channel. Arrivals beyond it wait at the
/// sender until a queued request is served.
const QUEUE_CAPACITY: usize = 4096;

/// FR-FCFS arbitrates over the oldest `SCAN_WINDOW` queued requests only:
/// real controllers arbitrate over a bounded CAM, and an unbounded scan
/// would make saturated channels quadratic in trace length. One bit of
/// the row-hit mask per position, so at most 64.
const SCAN_WINDOW: usize = 64;

/// Full DRAM system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Organization.
    pub geometry: DramGeometry,
    /// Address decomposition scheme.
    pub mapping: AddressMapping,
    /// Device timings.
    pub timing: DramTiming,
}

impl DramConfig {
    /// The Table 2 baseline: GDDR3 timings, 8 channels × 1 rank × 8 banks,
    /// RoBaRaCoCh mapping.
    pub fn table2_baseline() -> Self {
        DramConfig {
            geometry: DramGeometry::table2_baseline(),
            mapping: AddressMapping::RoBaRaCoCh,
            timing: DramTiming::gddr3_table2(),
        }
    }

    /// The GDDR5 device of the Figure 7 sweep: 8 channels, a 32-bit bus
    /// per channel, 16 banks in 4 bank groups. The sweep varies the
    /// channels, the bus width (and the burst with it) and the mapping.
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
    /// Controller queue length as the controllers weigh it — *not* a time
    /// average. Each pick adds `(queued + 1) × (finish − now)`: the
    /// requests still queued after it plus itself, times the span from
    /// the cycle it is picked at to the end of its data transfer. The sum
    /// over all picks of all channels is divided by the channels' summed
    /// busy time (first arrival to last transfer). Successive picks' spans
    /// overlap — commands pipeline under transfers — so the value can
    /// exceed the buffer capacity: kmeans' baseline trace at 2 channels,
    /// 4-byte bus and ChRaBaRoCo reads 10,758.8 on one channel that holds
    /// at most 4,096 requests.
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

/// The open page of a bank that has never been activated: no request's
/// page is all ones (see [`ChannelQueue`]).
const NO_PAGE: u64 = u64::MAX;

/// The bit of a [`ChannelQueue::word`] entry that marks a write.
const WRITE: u64 = 1 << 63;

#[derive(Debug, Clone, Copy)]
struct BankState {
    /// The open row as a page (see [`ChannelQueue`]), or [`NO_PAGE`].
    open_page: u64,
    /// Earliest cycle the bank can accept a new column/activate command.
    ready_at: u64,
    /// When the open row was activated (for tRAS).
    activated_at: u64,
}

/// A channel's requests as its controller sees them, in arrival order:
/// 16 bytes per request in two rows, what arbitration and the timing model
/// read and nothing else. Age is position.
///
/// The *page* of a request is the row and the channel-local bank in one
/// key, `row << bank_bits | flat_bank`: two requests are in the same row
/// of the same bank iff their pages are equal, and the bank is the low
/// bits. The row starts at bit 7 or above of the address and the flat bank
/// has no more bits than the fields below the row, so a page is below
/// 2^57 — never [`NO_PAGE`], and bit 63 is free to carry [`WRITE`].
#[derive(Debug, Clone, Default)]
struct ChannelQueue {
    arrival: Vec<u64>,
    /// The page, with [`WRITE`] set for a write.
    word: Vec<u64>,
}

/// The row hits among the window's entries, oldest first, as indices into
/// the channel's slice. Between two row openings hits are taken only from
/// the front, and entries join the window in arrival order, so a hit only
/// ever joins at the back: a ring the size of the window holds them in
/// order.
#[derive(Debug)]
struct HitRing {
    at: [usize; SCAN_WINDOW],
    head: usize,
    len: usize,
}

impl HitRing {
    /// Appends `i` if `hit`; branch-free, for the refill.
    #[inline]
    fn push_if(&mut self, i: usize, hit: bool) {
        self.at[(self.head + self.len) % SCAN_WINDOW] = i;
        self.len += usize::from(hit);
    }

    #[inline]
    fn pop(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let i = self.at[self.head];
        self.head = (self.head + 1) % SCAN_WINDOW;
        self.len -= 1;
        Some(i)
    }

    /// A bank opened `page` while no entry of the window was a row hit: the
    /// hits are now the window's entries of that page. The window is the
    /// unserved entries of `words[from..end]`.
    fn page_opened(&mut self, words: &[u64], served: &[u64], from: usize, end: usize, page: u64) {
        self.head = 0;
        self.len = 0;
        let words = words.chunks(64).zip(served).enumerate();
        for (word, (chunk, &done)) in words.take(end.div_ceil(64)).skip(from / 64) {
            let base = word * 64;
            let mut lanes = same_page_lanes(chunk, page) & !done;
            if word == from / 64 {
                lanes &= u64::MAX << (from % 64);
            }
            if base + 64 > end {
                lanes &= (1 << (end - base)) - 1;
            }
            while lanes != 0 {
                self.at[self.len] = base + lanes.trailing_zeros() as usize;
                self.len += 1;
                lanes &= lanes - 1;
            }
        }
    }
}

/// Bit `k` is set iff `chunk[k]` is `page`, write bit ignored. Only a
/// channel's last chunk can be short; a whole one is passed on with its
/// length known, so the inlined scan is one fixed-width vector loop.
#[inline]
fn same_page_lanes(chunk: &[u64], page: u64) -> u64 {
    #[inline(always)]
    fn scan(words: &[u64], page: u64) -> u64 {
        words.iter().enumerate().fold(0, |lanes, (k, &w)| {
            lanes | u64::from((w ^ page) << 1 == 0) << k
        })
    }
    match <&[u64; 64]>::try_from(chunk) {
        Ok(full) => scan(full, page),
        Err(_) => scan(chunk, page),
    }
}

/// The first index at or after `from` whose bit in `served` is clear;
/// the caller knows there is one.
#[inline]
fn first_unserved(served: &[u64], mut from: usize) -> usize {
    loop {
        let open = !served[from / 64] >> (from % 64);
        if open != 0 {
            return from + open.trailing_zeros() as usize;
        }
        from = (from / 64 + 1) * 64;
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
    pub fn run(&self, requests: &[MemRequest]) -> DramMetrics {
        debug_assert!(
            requests.windows(2).all(|w| w[0].cycle <= w[1].cycle),
            "DRAM requests must be in non-decreasing arrival order"
        );
        let geom = self.cfg.geometry;
        let plan = MappingPlan::new(&geom, self.cfg.mapping);
        let bank_bits = (geom.ranks * geom.banks).trailing_zeros();
        // Front end: one decomposition per request, appended to its
        // channel's queue in arrival order.
        let mut channels = vec![ChannelQueue::default(); geom.channels as usize];
        for r in requests {
            let loc = plan.decompose(r.addr.0);
            let queue = &mut channels[loc.channel as usize];
            queue.arrival.push(r.cycle);
            queue.word.push(
                loc.row << bank_bits
                    | loc.flat_bank(&geom) as u64
                    | if r.kind.is_write() { WRITE } else { 0 },
            );
        }
        let mut total = DramMetrics::default();
        let mut read_lat_sum = 0u64;
        let mut write_lat_sum = 0u64;
        let mut queue_area = 0f64;
        let mut busy_time = 0u64;
        for queue in &channels {
            let ch = self.run_channel(queue, bank_bits);
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

    fn run_channel(&self, queue: &ChannelQueue, bank_bits: u32) -> ChannelOutcome {
        let mut out = ChannelOutcome::default();
        let (arrivals, words) = (&queue.arrival[..], &queue.word[..]);
        let n = words.len();
        let Some(&first_arrival) = arrivals.first() else {
            return out;
        };
        let t = self.cfg.timing;
        let bank_mask = (1u64 << bank_bits) - 1;
        // The flat bank is `rank * banks + bank` and `bank_groups` divides
        // `banks`, so its low bits are the bank group.
        let group_mask = u64::from(self.cfg.geometry.bank_groups - 1);
        let mut banks = vec![
            BankState {
                open_page: NO_PAGE,
                ready_at: 0,
                activated_at: 0,
            };
            1 << bank_bits
        ];
        // The queue is the window — the unserved entries of `..win_end`,
        // `win_len` ≤ SCAN_WINDOW of them — and the tail `win_end..next`.
        // Every entry below `oldest` is served.
        let mut served = vec![0u64; n.div_ceil(64)];
        let mut hits = HitRing {
            at: [0; SCAN_WINDOW],
            head: 0,
            len: 0,
        };
        let (mut oldest, mut win_end, mut win_len, mut next) = (0, 0, 0, 0);
        let mut now = first_arrival;
        let mut bus_free_at = now;
        // Bank-group column gating: the group of the last column command
        // and the earliest next column command in that group and in any
        // other. Zero gates nothing before the first command.
        let mut last_group = u64::MAX;
        let (mut col_free_same, mut col_free_other) = (0u64, 0u64);
        // An empty window is an empty queue: the refill below leaves the
        // tail non-empty only behind a full window.
        while next < n || win_len > 0 {
            // Admit arrivals, up to the controller buffer capacity —
            // senders stall when the queue is full.
            while next < n && arrivals[next] <= now && win_len + (next - win_end) < QUEUE_CAPACITY {
                next += 1;
            }
            // Refill the window from the tail, oldest first: it lost an
            // entry to the last pick, or the queue was shorter than it.
            while win_len < SCAN_WINDOW && win_end < next {
                let page = words[win_end] & !WRITE;
                let open = banks[(page & bank_mask) as usize].open_page;
                hits.push_if(win_end, open == page);
                win_end += 1;
                win_len += 1;
            }
            if win_len == 0 {
                // Idle: jump to the next arrival.
                now = arrivals[next];
                continue;
            }
            // Pick a request: the oldest row hit in the window, else the
            // oldest request.
            let i = match hits.pop() {
                Some(i) => i,
                None => {
                    oldest = first_unserved(&served, oldest);
                    oldest
                }
            };
            served[i / 64] |= 1 << (i % 64);
            win_len -= 1;
            let (page, is_write) = (words[i] & !WRITE, words[i] & WRITE != 0);
            let group = page & group_mask;
            let bank = &mut banks[(page & bank_mask) as usize];
            // Command issue respects the bank and the column-command gap
            // (long within a bank group); the data bus is reserved
            // separately so commands pipeline under transfers.
            let col_free = if group == last_group {
                col_free_same
            } else {
                col_free_other
            };
            let mut start = now.max(bank.ready_at).max(col_free);
            let hit = bank.open_page == page;
            let mut data_at = if hit {
                start + t.t_cas
            } else if bank.open_page == NO_PAGE {
                bank.activated_at = start;
                start + t.t_rcd + t.t_cas
            } else {
                // Conflict: precharge (respecting tRAS) then activate.
                let act_at = start.max(bank.activated_at + t.t_ras) + t.t_rp;
                bank.activated_at = act_at;
                act_at + t.t_rcd + t.t_cas
            };
            // One transfer at a time on the data bus.
            if data_at < bus_free_at {
                let delay = bus_free_at - data_at;
                start += delay;
                data_at += delay;
            }
            let finish = data_at + t.burst;
            // `data_at` is at least `t_cas` past a command slot.
            let col_at = data_at - t.t_cas;
            last_group = group;
            col_free_same = col_at + t.t_ccd_l;
            col_free_other = col_at + t.t_ccd;
            bank.open_page = page;
            bank.ready_at = data_at + t.t_ccd + if is_write { t.t_wr } else { 0 };
            if !hit {
                // FR-FCFS serves a miss only when no entry is a hit, and
                // that miss was the oldest entry.
                hits.page_opened(words, &served, oldest, win_end, page);
            }
            // Queue-length accounting: the queue (including the request in
            // service) occupies the interval [now, finish).
            let queued = win_len + (next - win_end);
            out.queue_area += (queued + 1) as f64 * (finish - now) as f64;
            bus_free_at = finish;
            // Advance time just past the command slot (`start >= now`):
            // the next command can issue while this burst is still on
            // the data bus.
            now = start + 1;
            let latency = finish - arrivals[i];
            out.row_hits += u64::from(hit);
            if is_write {
                out.writes += 1;
                out.write_lat_sum += latency;
            } else {
                out.read_lat_sum += latency;
            }
        }
        out.requests = n as u64;
        out.reads = out.requests - out.writes;
        // Each transfer ends after the one before it on the bus.
        out.finish_cycle = bus_free_at;
        out.busy_time = bus_free_at - first_arrival;
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
    use gmap_trace::record::{AccessKind, ByteAddr};

    fn reads(addrs: &[u64], gap: u64) -> Vec<MemRequest> {
        addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| MemRequest {
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
        // Alternate between two rows of the same bank, each request
        // served before the next arrives: nothing to reorder.
        let row_bytes = 32 * 128u64;
        let addrs: Vec<u64> = (0..32).map(|i| (i % 2) * row_bytes).collect();
        let m = DramSystem::new(one_bank()).run(&reads(&addrs, 100));
        assert_eq!(m.row_hits, 0);
        assert!(m.avg_read_latency > DramTiming::gddr3_table2().row_hit_latency() as f64);
    }

    #[test]
    fn frfcfs_reorders_for_row_hits() {
        // Burst arrival of interleaved rows: FR-FCFS serves each row's
        // sixteen requests together, one activation per row.
        let row_bytes = 32 * 128u64;
        let addrs: Vec<u64> = (0..32)
            .map(|i| (i % 2) * row_bytes + (i / 2) * 128)
            .collect();
        let m = DramSystem::new(one_bank()).run(&reads(&addrs, 0));
        assert_eq!(m.row_hits, 30);
    }

    #[test]
    fn burst_arrivals_grow_the_queue() {
        let addrs: Vec<u64> = (0..64).map(|i| i * 128).collect();
        let burst: Vec<MemRequest> = addrs
            .iter()
            .map(|&a| MemRequest {
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
        let burst: Vec<MemRequest> = addrs
            .iter()
            .map(|&a| MemRequest {
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
            MemRequest {
                cycle: 0,
                addr: ByteAddr(0),
                kind: AccessKind::Read,
            },
            MemRequest {
                cycle: 10,
                addr: ByteAddr(128),
                kind: AccessKind::Write,
            },
            MemRequest {
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
            cfg.mapping = AddressMapping::ChRaBaRoCo;
            cfg.timing.t_ccd = 2;
            cfg.timing.t_ccd_l = 8;
            // Keep the data bus out of the way so the CCD gap is the
            // binding constraint.
            cfg.timing.burst = 1;
            cfg
        };
        // Interleave two banks, columns of one row each: with ChRaBaRoCo
        // the banks sit above the row bits. The first request to each
        // bank opens its row; the rest arrive once both are open, so
        // every one is a row hit and FR-FCFS serves them oldest first,
        // alternating banks.
        let row_bytes = 32 * 128u64;
        let bank_stride = row_bytes << 20; // one bank apart under ChRaBaRoCo
        let reqs: Vec<MemRequest> = (0..64u64)
            .map(|i| MemRequest {
                cycle: if i < 2 { 0 } else { 100 },
                addr: ByteAddr((i % 2) * bank_stride + (i / 2) * 128),
                kind: AccessKind::Read,
            })
            .collect();
        let slow = DramSystem::new(mk(1)).run(&reqs); // banks 0 and 1 share the group
        let fast = DramSystem::new(mk(2)).run(&reqs); // banks 0 and 1 in different groups
        assert_eq!((slow.row_hits, fast.row_hits), (62, 62));
        assert!(
            slow.finish_cycle > fast.finish_cycle,
            "same-group gating should cost cycles: {} vs {}",
            slow.finish_cycle,
            fast.finish_cycle
        );
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
