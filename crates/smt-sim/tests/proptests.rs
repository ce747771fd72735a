//! Property tests for the pipeline containers and policy algebra.

use micro_isa::OpClass;
use proptest::prelude::*;
use smt_sim::fu::FuPools;
use smt_sim::iq::IssueQueue;
use smt_sim::issue::{IssuePolicy, OldestFirst, ReadyInst};
use smt_sim::layout;

fn arb_ready(n: usize) -> impl Strategy<Value = Vec<ReadyInst>> {
    prop::collection::vec((0u64..10_000, prop::bool::ANY), 0..n).prop_map(|items| {
        items
            .into_iter()
            .enumerate()
            .map(|(i, (seq, ace))| ReadyInst {
                id: i,
                seq: seq * 16 + i as u64, // unique ages
                tid: (i % 4) as u8,
                op: OpClass::IAlu,
                ace_hint: ace,
                wrong_path: false,
            })
            .collect()
    })
}

proptest! {
    /// Oldest-first is a permutation sorted by age.
    #[test]
    fn oldest_first_is_an_age_sorted_permutation(ready in arb_ready(64)) {
        let mut sorted = ready.clone();
        OldestFirst.prioritize(&mut sorted);
        prop_assert_eq!(sorted.len(), ready.len());
        for w in sorted.windows(2) {
            prop_assert!(w[0].seq <= w[1].seq);
        }
        let mut a: Vec<u64> = ready.iter().map(|r| r.seq).collect();
        let mut b: Vec<u64> = sorted.iter().map(|r| r.seq).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// The issue-queue container tracks occupancy, membership, the
    /// hint-bit counter and the `swap_remove` physical slot order (which
    /// fault-injection sampling and snapshots depend on) exactly through
    /// arbitrary insert/remove interleavings.
    #[test]
    fn issue_queue_bookkeeping(ops in prop::collection::vec((0usize..32, prop::bool::ANY), 1..200)) {
        let mut iq = IssueQueue::new(32);
        let mut resident: Vec<(usize, bool)> = Vec::new();
        for (id, ace) in ops {
            if let Some(pos) = resident.iter().position(|&(i, _)| i == id) {
                // `resident` mirrors the IQ's storage order.
                let (_, was_ace) = resident.swap_remove(pos);
                iq.remove(id, was_ace, (id % 4) as u8);
            } else if !iq.is_full() {
                iq.insert(id, ace, (id % 4) as u8);
                resident.push((id, ace));
            }
            prop_assert_eq!(iq.len(), resident.len());
            let expect_bits: u64 = resident
                .iter()
                .map(|&(_, a)| layout::iq_ace_bits(a) as u64)
                .sum();
            prop_assert_eq!(iq.hint_bits_resident(), expect_bits);
            let expect_t0 = resident.iter().filter(|&&(i, _)| i % 4 == 0).count();
            prop_assert_eq!(iq.thread_occupancy(0), expect_t0);
            for slot in 0..iq.capacity() {
                prop_assert_eq!(iq.entry_at(slot), resident.get(slot).map(|&(i, _)| i));
            }
            for id in 0..32 {
                prop_assert_eq!(iq.contains(id), resident.iter().any(|&(i, _)| i == id));
            }
            prop_assert_eq!(iq.check_index(), Ok(()));
        }
    }

    /// Function-unit pools never oversubscribe: within one cycle, a pool
    /// grants at most its unit count.
    #[test]
    fn fu_pools_never_oversubscribe(requests in prop::collection::vec(0usize..5, 1..64)) {
        let sizes = [3usize, 2, 2, 3, 1];
        let ops = [OpClass::IAlu, OpClass::IMul, OpClass::Load, OpClass::FAlu, OpClass::FSqrt];
        let mut fu = FuPools::new(sizes);
        let mut granted = [0usize; 5];
        for pool in requests {
            if fu.can_issue(ops[pool], 0) {
                fu.issue(ops[pool], 0);
                granted[pool] += 1;
            }
        }
        for i in 0..5 {
            prop_assert!(granted[i] <= sizes[i], "pool {i}: {} > {}", granted[i], sizes[i]);
        }
    }
}
