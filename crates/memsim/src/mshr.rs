//! Miss status holding registers.
//!
//! GPUs hide latency by keeping many misses in flight; the MSHR file bounds
//! that concurrency per core (Table 2: 64 MSHRs per SM). A *secondary* miss
//! to a line that is already being fetched merges into the existing entry
//! and waits only for the remaining latency; a miss arriving when the file
//! is full pays a stall penalty, modeling allocation back-pressure.
//!
//! # Protocol
//!
//! A primary miss is two calls: [`Mshr::on_miss`] decides whether the line
//! merges, allocates, or must wait for the earliest fill to retire; on
//! [`MshrOutcome::Allocated`] and [`MshrOutcome::Full`] the caller finds
//! out below how long the fill takes and hands the register its
//! completion cycle with [`Mshr::fill`], before the next call on the file.
//!
//! # Representation
//!
//! The file is kept sorted on `(completion, line)`, two parallel rows of
//! twice the capacity with the live entries at `head..head + len`. The
//! tuple order is the retirement rule — earliest completion leaves first,
//! ties go to the lowest line — so retiring is advancing `head` while the
//! front has completed, and a full file gives up its front. A new fill
//! completes a full miss latency after its stall, at or near the latest
//! completion in the file, so its sorted place is found walking from the
//! back and usually moves nothing. At the Table 2 baseline the file is
//! full on 87 % of L1 misses, so that path has to cost a step of `head`
//! and an append. The merge check compares every entry, a branch-free
//! scan of the contiguous line row; lines are unique.

/// Outcome of presenting a miss to the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A register is free; the caller pays the full miss latency and
    /// reports the completion with [`Mshr::fill`].
    Allocated,
    /// The line was already in flight; the caller waits for the remaining
    /// cycles only.
    Merged {
        /// Cycles until the in-flight fill completes.
        remaining: u64,
    },
    /// The file was full; the caller pays `stall` extra cycles (time until
    /// the earliest entry retires, whose register the miss takes) plus the
    /// full miss latency, and reports the completion with [`Mshr::fill`].
    Full {
        /// Cycles until a register frees up.
        stall: u64,
    },
}

/// A per-core MSHR file.
#[derive(Debug, Clone)]
pub struct Mshr {
    capacity: usize,
    /// Completion cycles of the fills in flight at `head..head + len`,
    /// ascending with [`Self::lines`] as the tie-break. A total order, not
    /// a hash, so that completion-time ties resolve identically on every
    /// thread.
    done: Box<[u64]>,
    /// The line of each fill, parallel to `done`; unique.
    lines: Box<[u64]>,
    head: usize,
    len: usize,
    /// Merged (secondary) misses observed.
    merges: u64,
    /// Misses that found the file full.
    full_stalls: u64,
}

impl Mshr {
    /// Creates a file with the given number of registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        Mshr {
            capacity,
            done: vec![0; 2 * capacity].into_boxed_slice(),
            lines: vec![0; 2 * capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            merges: 0,
            full_stalls: 0,
        }
    }

    /// The completion cycle of the entry holding `line`, if any. "Absent"
    /// is the common answer, so the line row is first scanned whole, with
    /// no early exit to mispredict.
    fn completion_of(&self, line: u64) -> Option<u64> {
        let lines = &self.lines[self.head..self.head + self.len];
        if !lines.iter().fold(false, |any, &l| any | (l == line)) {
            return None;
        }
        let i = lines.iter().position(|&l| l == line)?;
        Some(self.done[self.head + i])
    }

    /// Presents a miss for `line` at `cycle`. Entries whose fill has
    /// completed are reclaimed first. Unless the miss merges, the caller
    /// owes the file a [`Mshr::fill`] for `line`.
    pub fn on_miss(&mut self, line: u64, cycle: u64) -> MshrOutcome {
        // Reclaim finished fills.
        while self.len > 0 && self.done[self.head] <= cycle {
            self.head += 1;
            self.len -= 1;
        }
        if let Some(done) = self.completion_of(line) {
            self.merges += 1;
            return MshrOutcome::Merged {
                remaining: done - cycle,
            };
        }
        if self.len >= self.capacity {
            self.full_stalls += 1;
            // The stalled miss allocates once the earliest entry retires.
            let earliest = self.done[self.head];
            self.head += 1;
            self.len -= 1;
            return MshrOutcome::Full {
                stall: earliest - cycle,
            };
        }
        MshrOutcome::Allocated
    }

    /// Records that the fill of `line`, whose miss [`Mshr::on_miss`] just
    /// answered with `Allocated` or `Full`, completes at `completion`
    /// (for `Full`, the stall included).
    pub fn fill(&mut self, line: u64, completion: u64) {
        debug_assert!(
            self.len < self.capacity,
            "fill without a register granted by on_miss"
        );
        if self.head + self.len == self.done.len() {
            // The rows ran out behind the front: move the file to index 0.
            let live = self.head..self.head + self.len;
            self.done.copy_within(live.clone(), 0);
            self.lines.copy_within(live, 0);
            self.head = 0;
        }
        let end = self.head + self.len;
        let mut at = end;
        while at > self.head && (self.done[at - 1], self.lines[at - 1]) > (completion, line) {
            at -= 1;
        }
        if at < end {
            self.done.copy_within(at..end, at + 1);
            self.lines.copy_within(at..end, at + 1);
        }
        self.done[at] = completion;
        self.lines[at] = line;
        self.len += 1;
    }

    /// If `line` has a fill in flight at `cycle`, returns the remaining
    /// cycles until it completes. Used for hit-under-miss accounting: a
    /// tag hit on a line whose data is still being fetched must wait for
    /// the fill, not the L1 hit latency.
    pub fn pending_remaining(&mut self, line: u64, cycle: u64) -> Option<u64> {
        match self.completion_of(line) {
            Some(done) if done > cycle => {
                self.merges += 1;
                Some(done - cycle)
            }
            _ => None,
        }
    }

    /// Entries currently in flight at `cycle`.
    pub fn in_flight(&self, cycle: u64) -> usize {
        self.done[self.head..self.head + self.len]
            .iter()
            .filter(|&&done| done > cycle)
            .count()
    }

    /// Secondary misses merged so far.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Misses that found the file full.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hierarchy's protocol for one miss whose fill, once a register
    /// is granted, takes `latency` cycles.
    fn miss(m: &mut Mshr, line: u64, cycle: u64, latency: u64) -> MshrOutcome {
        let out = m.on_miss(line, cycle);
        match out {
            MshrOutcome::Merged { .. } => {}
            MshrOutcome::Allocated => m.fill(line, cycle + latency),
            MshrOutcome::Full { stall } => m.fill(line, cycle + stall + latency),
        }
        out
    }

    #[test]
    fn allocate_then_merge() {
        let mut m = Mshr::new(4);
        assert_eq!(miss(&mut m, 10, 0, 100), MshrOutcome::Allocated);
        assert_eq!(
            miss(&mut m, 10, 40, 100),
            MshrOutcome::Merged { remaining: 60 }
        );
        assert_eq!(m.merges(), 1);
        // The merge took no register and moved no completion.
        assert_eq!(m.in_flight(40), 1);
        assert_eq!(m.pending_remaining(10, 99), Some(1));
    }

    #[test]
    fn entries_retire() {
        let mut m = Mshr::new(2);
        miss(&mut m, 1, 0, 50);
        assert_eq!(m.in_flight(0), 1);
        assert_eq!(m.in_flight(50), 0);
        // After retirement the same line allocates anew.
        assert_eq!(miss(&mut m, 1, 60, 100), MshrOutcome::Allocated);
    }

    #[test]
    fn full_file_stalls() {
        let mut m = Mshr::new(2);
        miss(&mut m, 1, 0, 100);
        miss(&mut m, 2, 0, 80);
        match miss(&mut m, 3, 10, 100) {
            MshrOutcome::Full { stall } => assert_eq!(stall, 70), // entry 2 retires at 80
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(m.full_stalls(), 1);
        // The stalled miss took entry 2's register: capacity holds, line 1
        // is still in flight and line 3 completes after its stall.
        assert_eq!(m.in_flight(10), 2);
        assert_eq!(m.pending_remaining(2, 10), None);
        assert_eq!(m.pending_remaining(1, 10), Some(90));
        assert_eq!(m.pending_remaining(3, 10), Some(170));
    }

    #[test]
    fn merge_remaining_saturates() {
        let mut m = Mshr::new(2);
        miss(&mut m, 5, 0, 30);
        // A miss exactly at the completion boundary does not merge with
        // zero remaining: the entry retires at cycle >= 30, so this
        // allocates.
        assert_eq!(miss(&mut m, 5, 30, 30), MshrOutcome::Allocated);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        Mshr::new(0);
    }

    #[test]
    fn completion_ties_resolve_deterministically() {
        // Two entries retire at the same cycle; the full-file path must
        // evict the same one on every run (lowest line address), keeping
        // simulations bit-reproducible across threads.
        let runs: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let mut m = Mshr::new(2);
                miss(&mut m, 7, 0, 100);
                miss(&mut m, 3, 0, 100);
                miss(&mut m, 9, 10, 100);
                let mut pending: Vec<u64> = Vec::new();
                for line in [3u64, 7, 9] {
                    if m.pending_remaining(line, 20).is_some() {
                        pending.push(line);
                    }
                }
                pending
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], vec![7, 9], "line 3 (lowest) was evicted");
    }
}
