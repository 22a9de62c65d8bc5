//! Differential test of the warp-reconstruction step.
//!
//! `gmap_ingest::ingest::pop_warp_instruction` walks a mask of non-empty
//! lanes and tallies front PCs on the stack. The step it replaced — a
//! `HashMap` vote over every queue — is kept here, verbatim, as the
//! oracle: the streaming-vs-materialized tests in `streaming.rs` cannot
//! see a wrong vote, because both of their sides call the same step.

use gmap_gpu::coalesce::coalesce_addrs;
use gmap_gpu::schedule::CoalescedAccess;
use gmap_ingest::ingest::pop_warp_instruction;
use gmap_trace::record::{ByteAddr, MemAccess, Pc};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// The step before the lane mask.
fn reference_pop(queues: &mut [VecDeque<MemAccess>], line_size: u64) -> Option<CoalescedAccess> {
    let mut votes: HashMap<Pc, u32> = HashMap::new();
    for q in queues.iter() {
        if let Some(a) = q.front() {
            *votes.entry(a.pc).or_insert(0) += 1;
        }
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "max by (count, Reverse(pc)) is a total order, so the winner does not depend on iteration order"
    )]
    let (&pc, _) = votes
        .iter()
        .max_by_key(|(pc, &c)| (c, std::cmp::Reverse(pc.0)))?;
    let mut addrs = Vec::new();
    let mut kind = None;
    for q in queues.iter_mut() {
        if q.front().is_some_and(|a| a.pc == pc) {
            let a = q.pop_front().expect("front checked");
            addrs.push(a.addr);
            kind.get_or_insert(a.kind);
        }
    }
    Some(CoalescedAccess {
        pc,
        kind: kind.expect("at least one lane participated"),
        lines: coalesce_addrs(&addrs, line_size).into(),
    })
}

/// Neither ascending nor descending, so "lowest PC" is neither "first
/// seen" nor "last seen" in lane order.
const PC_POOL: [u64; 4] = [0x50, 0x20, 0x40, 0x30];
const LINE: u64 = 128;

fn mask_of(queues: &[VecDeque<MemAccess>]) -> u64 {
    queues
        .iter()
        .enumerate()
        .filter(|(_, q)| !q.is_empty())
        .fold(0, |m, (l, _)| m | 1 << l)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// 1–32 live lanes with queues of 0–6 accesses over 1–4 PCs and
    /// addresses spanning 1–4 lines, popped to exhaustion by both steps:
    /// the same instructions in the same order, the participant count
    /// equal to the number of fronts at the winning PC, and the mask
    /// equal to the queues' emptiness after every pop.
    #[test]
    fn masked_step_matches_hashmap_vote(
        lanes in proptest::collection::vec(
            proptest::collection::vec((0usize..4, 0u64..4096, any::<bool>()), 0..=6),
            1..=32,
        ),
        pcs in 1usize..=4,
        span_lines in 1u64..=4,
        tie in any::<bool>(),
    ) {
        let mut queues: Vec<VecDeque<MemAccess>> = lanes
            .iter()
            .map(|lane| {
                lane.iter()
                    .map(|&(pc, offset, write)| {
                        let pc = Pc(PC_POOL[pc % pcs]);
                        let addr = ByteAddr(0x10_0000 + offset % (span_lines * LINE));
                        if write {
                            MemAccess::write(pc, addr)
                        } else {
                            MemAccess::read(pc, addr)
                        }
                    })
                    .collect()
            })
            .collect();
        if tie {
            // Force an equal-count tie at the first pop: an even number
            // of lanes, their fronts alternating between two PCs.
            let even = queues.len() & !1;
            for (l, q) in queues[..even].iter_mut().enumerate() {
                q.push_front(MemAccess::read(Pc(PC_POOL[l % 2]), ByteAddr(0x20_0000 + l as u64 * 64)));
            }
        }
        let mut reference = queues.clone();
        let mut nonempty = mask_of(&queues);
        loop {
            // The lanes the oracle pops are the fronts at the winning PC.
            let before: Vec<usize> = reference.iter().map(VecDeque::len).collect();
            let want = reference_pop(&mut reference, LINE);
            let popped = reference.iter().zip(&before).filter(|(q, &n)| q.len() < n).count();
            let got = pop_warp_instruction(&mut queues, &mut nonempty, LINE);
            prop_assert_eq!(nonempty, mask_of(&queues));
            prop_assert_eq!(&queues, &reference);
            match (got, want) {
                (Some((access, participants)), Some(want)) => {
                    prop_assert_eq!(access, want);
                    prop_assert_eq!(participants as usize, popped);
                }
                (None, None) => break,
                (got, want) => panic!("steps disagree on exhaustion: {got:?} vs {want:?}"),
            }
        }
    }
}
