//! Property-based tests of DRAM-model invariants, and the differential
//! tests of the controller against [`reference`].

use gmap_dram::{
    AddressMapping, DramConfig, DramGeometry, DramMetrics, DramRequest, DramSystem, DramTiming,
};
use gmap_trace::record::{AccessKind, ByteAddr};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The controller as it was before its queue became a window, a tail and
/// a row-hit mask: one `VecDeque` of requests carrying their arrival
/// sequence number, FR-FCFS as a scan of the oldest 64 entries for the
/// row hit with the lowest `seq` and, when there is none, a second scan
/// for the lowest `seq` overall. Kept verbatim as the oracle; the timing
/// model after the pick is the same code as in `gmap_dram::dram`.
mod reference {
    use gmap_dram::mapping::MappingPlan;
    use gmap_dram::{DramConfig, DramLoc, DramMetrics, DramRequest};
    use std::collections::VecDeque;

    #[derive(Debug, Clone, Copy, Default)]
    struct BankState {
        open_row: Option<u64>,
        ready_at: u64,
        activated_at: u64,
    }

    #[derive(Debug, Clone)]
    struct Pending {
        arrival: u64,
        row: u64,
        flat_bank: usize,
        bank_group: u32,
        is_write: bool,
        seq: u64,
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

    pub fn run(cfg: &DramConfig, requests: &[DramRequest]) -> DramMetrics {
        let geom = cfg.geometry;
        let mut per_channel: Vec<Vec<Pending>> = vec![Vec::new(); geom.channels as usize];
        let plan = MappingPlan::new(&geom, cfg.mapping);
        let addrs: Vec<u64> = requests.iter().map(|r| r.addr.0).collect();
        let mut locs: Vec<DramLoc> = Vec::new();
        plan.decompose_batch(&addrs, gmap_trace::default_mode(), &mut locs);
        for (seq, (r, loc)) in requests.iter().zip(&locs).enumerate() {
            per_channel[loc.channel as usize].push(Pending {
                arrival: r.cycle,
                row: loc.row,
                flat_bank: loc.flat_bank(&geom),
                bank_group: geom.group_of_bank(loc.bank),
                is_write: r.kind.is_write(),
                seq: seq as u64,
            });
        }
        let mut total = DramMetrics::default();
        let mut read_lat_sum = 0u64;
        let mut write_lat_sum = 0u64;
        let mut queue_area = 0f64;
        let mut busy_time = 0u64;
        for reqs in per_channel {
            let ch = run_channel(cfg, &reqs);
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

    fn run_channel(cfg: &DramConfig, reqs: &[Pending]) -> ChannelOutcome {
        let timing = &cfg.timing;
        let banks_per_ch = (cfg.geometry.ranks * cfg.geometry.banks) as usize;
        let mut banks = vec![BankState::default(); banks_per_ch];
        let mut out = ChannelOutcome::default();
        if reqs.is_empty() {
            return out;
        }
        let mut queue: VecDeque<Pending> = VecDeque::new();
        let mut next = 0usize;
        let mut now = reqs[0].arrival;
        let mut bus_free_at = now;
        let start_time = now;
        let mut last_col: Option<(u32, u64)> = None;
        while next < reqs.len() || !queue.is_empty() {
            const QUEUE_CAPACITY: usize = 4096;
            while next < reqs.len() && reqs[next].arrival <= now && queue.len() < QUEUE_CAPACITY {
                queue.push_back(reqs[next].clone());
                next += 1;
            }
            if queue.is_empty() {
                now = reqs[next].arrival;
                continue;
            }
            const SCAN_WINDOW: usize = 64;
            let window = queue.len().min(SCAN_WINDOW);
            let pick = queue
                .iter()
                .take(window)
                .enumerate()
                .filter(|(_, p)| banks[p.flat_bank].open_row == Some(p.row))
                .min_by_key(|(_, p)| p.seq)
                .map(|(i, _)| i)
                .unwrap_or_else(|| {
                    queue
                        .iter()
                        .take(window)
                        .enumerate()
                        .min_by_key(|(_, p)| p.seq)
                        .map(|(i, _)| i)
                        .expect("queue is non-empty")
                });
            let p = queue.remove(pick).expect("index in range");
            let bank = &mut banks[p.flat_bank];
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
            if data_at < bus_free_at {
                let delay = bus_free_at - data_at;
                start += delay;
                data_at += delay;
            }
            let finish = data_at + timing.burst;
            last_col = Some((p.bank_group, data_at.saturating_sub(timing.t_cas)));
            bank.open_row = Some(p.row);
            bank.ready_at = data_at + timing.t_ccd + if p.is_write { timing.t_wr } else { 0 };
            let dt = finish.saturating_sub(now);
            out.queue_area += (queue.len() + 1) as f64 * dt as f64;
            bus_free_at = finish;
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

/// Runs both controllers; the metrics must be equal exactly, floats
/// included — the arithmetic is the same sequence of operations.
fn assert_matches_reference(cfg: DramConfig, reqs: &[DramRequest]) -> DramMetrics {
    let got = DramSystem::new(cfg).run(reqs);
    assert_eq!(got, reference::run(&cfg, reqs), "{cfg:?}");
    got
}

/// One channel, one bank, 4 KiB rows, row bits directly above the column
/// bits: `row * ROW_BYTES + column * 128` addresses the bank's rows.
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

const ROW_BYTES: u64 = 32 * 128;

fn same_cycle_reads(addrs: impl Iterator<Item = u64>) -> Vec<DramRequest> {
    addrs
        .map(|a| DramRequest {
            cycle: 0,
            addr: ByteAddr(a),
            kind: AccessKind::Read,
        })
        .collect()
}

/// A full window over one bank whose open row keeps changing: when the
/// open row's requests run out inside the window the bank opens another
/// row and every lane of the mask has to be re-marked, and each refill
/// appends against the row open at that moment. A mask that missed a row
/// change, or was read before the refill, picks differently.
#[test]
fn full_window_alternating_rows_matches_reference() {
    let rotating = |rows: u64| {
        same_cycle_reads((0..200u64).map(move |i| (i % rows) * ROW_BYTES + (i / rows % 32) * 128))
    };
    // FR-FCFS stays on a row while the refill keeps bringing its
    // requests into the window: three activations in all.
    let fr = assert_matches_reference(one_bank(), &rotating(2));
    assert_eq!(fr.row_hits, 197);
    // Eight rows, eight window entries each: sixteen activations.
    let fr = assert_matches_reference(one_bank(), &rotating(8));
    assert_eq!(fr.row_hits, 184);
}

/// More same-cycle requests than the controller buffer holds: the queue
/// sits at its capacity with senders stalled behind it, and admission
/// resumes one request per pick.
#[test]
fn queue_held_at_capacity_matches_reference() {
    let reqs = same_cycle_reads((0..6000u64).map(|i| (i * 7 % 5) * ROW_BYTES + (i % 32) * 128));
    let fr = assert_matches_reference(one_bank(), &reqs);
    // FR-FCFS drains the open row's requests from the window before it
    // activates another: 197 activations for 6000 requests.
    assert_eq!((fr.requests, fr.row_hits), (6000, 5803));
    // Every request arrived at cycle 0, so the weighted queue length
    // (see `DramMetrics::avg_queue_len`) is long.
    assert!(fr.avg_queue_len > 64.0);
}

fn requests(
    max_lines: u64,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<DramRequest>> {
    proptest::collection::vec((0u64..max_lines, 0u64..50, any::<bool>()), len).prop_map(|v| {
        let mut cycle = 0;
        v.into_iter()
            .map(|(line, gap, w)| {
                cycle += gap;
                DramRequest {
                    cycle,
                    addr: ByteAddr(line * 128),
                    kind: if w {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                }
            })
            .collect()
    })
}

fn any_mapping() -> impl Strategy<Value = AddressMapping> {
    prop_oneof![
        Just(AddressMapping::RoBaRaCoCh),
        Just(AddressMapping::ChRaBaRoCo)
    ]
}

/// The two device classes the experiments use: Table 2 (no bank
/// groups) and GDDR5 (4 bank groups, long same-group column gap).
fn any_device() -> impl Strategy<Value = DramConfig> {
    prop_oneof![
        Just(DramConfig::table2_baseline()),
        Just(DramConfig::gddr5_baseline()),
    ]
}

/// Request streams for the differential property. `(lines, gap)` pairs
/// the footprint with the arrival spacing: lines within a few rows of a
/// few banks so that hits and conflicts both occur, and gaps from
/// "everything at once" (hundreds queued per channel, the window full on
/// every pick) to sparse enough that channels go idle between requests.
/// The widest footprint reaches bit 62 of the address, so rows use every
/// bit the controller packs beside the bank.
fn differential_requests() -> impl Strategy<Value = Vec<DramRequest>> {
    let shape = prop_oneof![
        Just((1u64 << 9, 1u64)),
        Just((1 << 12, 1)),
        Just((1 << 12, 3)),
        Just((1 << 16, 3)),
        Just((1 << 12, 40)),
        Just((1 << 16, 600)),
        Just((1 << 56, 3)),
    ];
    (
        shape,
        proptest::collection::vec((any::<u64>(), any::<u64>(), 0u32..4), 1..1500),
        0u32..4,
    )
        .prop_map(|((lines, gap), raw, write_share)| {
            let mut cycle = 0;
            raw.into_iter()
                .map(|(line, wait, w)| {
                    cycle += wait % gap;
                    DramRequest {
                        cycle,
                        addr: ByteAddr(line % lines * 128),
                        kind: if w < write_share {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                    }
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The hit-ring controller serves every stream exactly as the
    /// `VecDeque` controller did.
    #[test]
    fn controller_matches_vecdeque_reference(
        reqs in differential_requests(),
        device in any_device(),
        mapping in any_mapping(),
    ) {
        let cfg = DramConfig { mapping, ..device };
        assert_matches_reference(cfg, &reqs);
    }
}

proptest! {
    /// Every request is served exactly once; metric identities hold; the
    /// minimum possible latency is a row hit.
    #[test]
    fn conservation_and_bounds(
        reqs in requests(1 << 14, 1..300),
        mapping in any_mapping(),
    ) {
        let cfg = DramConfig {
            geometry: DramGeometry::table2_baseline(),
            mapping,
            timing: DramTiming::gddr3_table2(),
        };
        let m = DramSystem::new(cfg).run(&reqs);
        prop_assert_eq!(m.requests as usize, reqs.len());
        prop_assert_eq!(m.reads + m.writes, m.requests);
        prop_assert!(m.row_hits <= m.requests);
        prop_assert!((0.0..=1.0).contains(&m.rbl));
        let min_lat = cfg.timing.row_hit_latency() as f64;
        if m.reads > 0 {
            prop_assert!(m.avg_read_latency >= min_lat);
        }
        if m.writes > 0 {
            prop_assert!(m.avg_write_latency >= min_lat);
        }
        prop_assert!(m.avg_queue_len >= 0.0);
        // Finish time can never precede the last arrival.
        let last_arrival = reqs.iter().map(|r| r.cycle).max().unwrap_or(0);
        prop_assert!(m.finish_cycle >= last_arrival);
    }

    /// Requests spaced further apart than one takes to serve each meet an
    /// empty queue, so FR-FCFS serves them as they arrive: a request is a
    /// row hit iff the previous request to its bank opened the same row.
    #[test]
    fn spaced_streams_are_served_in_arrival_order(
        raw in proptest::collection::vec((0u64..1 << 10, 100u64..200, any::<bool>()), 1..200),
        mapping in any_mapping(),
    ) {
        let cfg = DramConfig { mapping, ..DramConfig::table2_baseline() };
        let mut cycle = 0;
        let reqs: Vec<DramRequest> = raw
            .into_iter()
            .map(|(line, gap, w)| {
                cycle += gap;
                DramRequest {
                    cycle,
                    addr: ByteAddr(line * 128),
                    kind: if w { AccessKind::Write } else { AccessKind::Read },
                }
            })
            .collect();
        let mut open = BTreeMap::new();
        let mut hits = 0;
        for r in &reqs {
            let loc = gmap_dram::mapping::decompose(r.addr.0, &cfg.geometry, mapping);
            let bank = (loc.channel, loc.flat_bank(&cfg.geometry));
            hits += u64::from(open.insert(bank, loc.row) == Some(loc.row));
        }
        prop_assert_eq!(DramSystem::new(cfg).run(&reqs).row_hits, hits);
    }

    /// Determinism: identical inputs, identical metrics.
    #[test]
    fn runs_are_deterministic(reqs in requests(1 << 12, 1..150), mapping in any_mapping()) {
        let mut cfg = DramConfig::table2_baseline();
        cfg.mapping = mapping;
        let a = DramSystem::new(cfg).run(&reqs);
        let b = DramSystem::new(cfg).run(&reqs);
        prop_assert_eq!(a, b);
    }

    /// Address decomposition round-trips within field bounds for random
    /// geometries.
    #[test]
    fn decomposition_in_bounds(
        addr in any::<u64>(),
        ch_bits in 0u32..4,
        bank_bits in 0u32..4,
        mapping in any_mapping(),
    ) {
        let geom = DramGeometry {
            channels: 1 << ch_bits,
            ranks: 2,
            banks: 1 << bank_bits,
            bank_groups: 1,
            columns: 64,
            bus_width_bytes: 8,
        };
        let loc = gmap_dram::mapping::decompose(addr, &geom, mapping);
        prop_assert!(loc.channel < geom.channels);
        prop_assert!(loc.rank < geom.ranks);
        prop_assert!(loc.bank < geom.banks);
        prop_assert!(loc.column < geom.columns);
    }
}
