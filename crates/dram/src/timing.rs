//! DRAM timing parameter sets.
//!
//! All values are in memory-controller cycles. Only the parameters that
//! shape the experiments' metrics are modeled: row activate/precharge
//! latencies (which separate row hits from row misses and drive RBL
//! sensitivity), column access latency, burst occupancy of the data bus
//! (which creates queuing), and write recovery. Two sets: the Table 2
//! baseline and the GDDR5 set of the Figure 7 sweep.

use serde::{Deserialize, Serialize};

/// A DRAM device timing set, in controller cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramTiming {
    /// Row-to-column delay (activate → column command).
    pub t_rcd: u64,
    /// Column access strobe latency (column command → data).
    pub t_cas: u64,
    /// Precharge latency.
    pub t_rp: u64,
    /// Minimum row-active time (activate → precharge).
    pub t_ras: u64,
    /// Column-to-column gap within an open row (short: different bank
    /// group, or devices without bank groups).
    pub t_ccd: u64,
    /// Column-to-column gap for back-to-back accesses to the *same* bank
    /// group (GDDR5; equal to `t_ccd` when the device has no bank
    /// groups).
    pub t_ccd_l: u64,
    /// Write recovery (end of write burst → precharge).
    pub t_wr: u64,
    /// Data-bus occupancy of one request's burst.
    pub burst: u64,
}

impl DramTiming {
    /// The Table 2 baseline: GDDR3 at 924 MHz,
    /// `tRCD-tCAS-tRP-tRAS = 11-11-11-28`.
    pub fn gddr3_table2() -> Self {
        DramTiming {
            t_rcd: 11,
            t_cas: 11,
            t_rp: 11,
            t_ras: 28,
            t_ccd: 2,
            t_ccd_l: 2,
            t_wr: 12,
            burst: 4,
        }
    }

    /// GDDR5-class timings for the Figure 7 sweep. A wider bus moves the
    /// same 128-byte request in fewer beats, shortening the burst.
    ///
    /// # Panics
    ///
    /// Panics if `bus_width_bytes` is zero.
    pub fn gddr5(bus_width_bytes: u32) -> Self {
        assert!(bus_width_bytes > 0, "bus width must be positive");
        // 128-byte request; double data rate moves 2 x width per cycle.
        let burst = (128 / (2 * bus_width_bytes as u64)).max(1);
        DramTiming {
            t_rcd: 12,
            t_cas: 12,
            t_rp: 12,
            t_ras: 32,
            t_ccd: 2,
            t_ccd_l: 3,
            t_wr: 14,
            burst,
        }
    }

    /// Latency of a row-buffer hit (column access + burst).
    pub fn row_hit_latency(&self) -> u64 {
        self.t_cas + self.burst
    }
}

impl Default for DramTiming {
    fn default() -> Self {
        DramTiming::gddr3_table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values() {
        let t = DramTiming::gddr3_table2();
        assert_eq!((t.t_rcd, t.t_cas, t.t_rp, t.t_ras), (11, 11, 11, 28));
    }

    #[test]
    fn gddr5_burst_scales_with_bus_width() {
        assert_eq!(DramTiming::gddr5(16).burst, 4);
        assert_eq!(DramTiming::gddr5(32).burst, 2);
        assert_eq!(DramTiming::gddr5(64).burst, 1);
        // Never zero, even for absurdly wide buses.
        assert_eq!(DramTiming::gddr5(256).burst, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gddr5_rejects_zero_width() {
        DramTiming::gddr5(0);
    }

    #[test]
    fn serde_round_trip() {
        let t = DramTiming::gddr5(32);
        let json = serde_json::to_string(&t).expect("serialize");
        assert_eq!(
            serde_json::from_str::<DramTiming>(&json).expect("deserialize"),
            t
        );
    }
}
