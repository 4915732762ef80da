//! Property tests of the event-queue core invariants (ISSUE.md satellite):
//! delivery is totally ordered by `(time, seq)`, and a cancelled event is
//! never delivered — no stale completion can fire after its flow changed.

use orp_netsim::queue::EventQueue;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Random event times drawn from a small set of buckets so equal
/// timestamps (the interesting case for the seq tie-break) are common.
fn times(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| rng.gen_range(0u32..8) as f64 * 1e-3)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delivery_is_totally_ordered_by_time_then_seq((n, seed) in (1usize..200, any::<u64>())) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let ts = times(seed, n);
        for (i, &t) in ts.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last: Option<(f64, usize)> = None;
        let mut delivered = 0usize;
        while let Some((t, payload)) = q.pop() {
            if let Some((lt, lp)) = last {
                prop_assert!(t >= lt, "time went backwards: {t} after {lt}");
                if t == lt {
                    // equal times fire in schedule order — payloads are
                    // schedule indices, so they must increase
                    prop_assert!(
                        payload > lp,
                        "same-time events out of schedule order: {payload} after {lp}"
                    );
                }
            }
            prop_assert!((ts[payload] - t).abs() == 0.0, "payload delivered at wrong time");
            last = Some((t, payload));
            delivered += 1;
        }
        prop_assert_eq!(delivered, n);
        prop_assert_eq!(q.processed(), n as u64);
        prop_assert_eq!(q.scheduled(), n as u64);
        prop_assert_eq!(q.cancelled(), 0);
        prop_assert!(q.peak_depth() >= 1);
    }

    #[test]
    fn cancellation_never_delivers_stale_events((n, seed) in (1usize..200, any::<u64>())) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut q: EventQueue<usize> = EventQueue::new();
        let ts = times(seed, n);
        let ids: Vec<_> = ts.iter().enumerate().map(|(i, &t)| q.schedule(t, i)).collect();
        // cancel a random subset — the "stale completion times" of the
        // approximate sharing model — some of them twice
        let mut cancelled = vec![false; n];
        for (i, &id) in ids.iter().enumerate() {
            if rng.gen_range(0u32..3) == 0 {
                prop_assert!(q.cancel(id).is_some(), "live event must cancel");
                cancelled[i] = true;
                // double-cancel is an idempotent no-op
                prop_assert!(q.cancel(id).is_none());
            }
        }
        let n_cancelled = cancelled.iter().filter(|&&c| c).count();
        prop_assert_eq!(q.len(), n - n_cancelled);
        let mut seen = vec![false; n];
        while let Some((_, payload)) = q.pop() {
            prop_assert!(!cancelled[payload], "cancelled event {payload} delivered");
            prop_assert!(!seen[payload], "event {payload} delivered twice");
            seen[payload] = true;
            // cancelling after delivery is a no-op too
            prop_assert!(q.cancel(ids[payload]).is_none());
        }
        for i in 0..n {
            prop_assert!(seen[i] != cancelled[i], "event {} lost", i);
        }
        prop_assert_eq!(q.processed() + q.cancelled(), q.scheduled());
        prop_assert_eq!(q.cancelled(), n_cancelled as u64);
    }

    /// Slab slots are recycled aggressively under churn; the generation
    /// tag must make every stale `EventId` (cancelled or delivered) a
    /// permanent dead letter even when its slot now holds a live event.
    #[test]
    fn recycled_slots_never_honor_stale_ids((rounds, seed) in (1usize..40, any::<u64>())) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut stale = Vec::new();
        let mut live: Vec<(orp_netsim::EventId, u64)> = Vec::new();
        let mut next_payload = 0u64;
        let mut expect_delivered: Vec<u64> = Vec::new();
        for _ in 0..rounds {
            // schedule a burst — reuses slots freed in earlier rounds
            for _ in 0..rng.gen_range(1usize..12) {
                let id = q.schedule(rng.gen_range(0u32..8) as f64 * 1e-3, next_payload);
                live.push((id, next_payload));
                next_payload += 1;
            }
            // every stale id must stay dead, even though its slot is
            // likely occupied by one of the events just scheduled
            for &id in &stale {
                prop_assert!(q.cancel(id).is_none(), "stale id resurrected");
            }
            // retire a random subset: half cancelled, half drained
            let n_cancel = rng.gen_range(0..=live.len());
            for _ in 0..n_cancel {
                let (id, _) = live.swap_remove(rng.gen_range(0..live.len()));
                prop_assert!(q.cancel(id).is_some());
                stale.push(id);
            }
            let n_pop = rng.gen_range(0..=q.len());
            for _ in 0..n_pop {
                let (_, p) = q.pop().expect("queue holds live events");
                expect_delivered.push(p);
                let pos = live.iter().position(|&(_, lp)| lp == p).expect("delivered event was live");
                stale.push(live.swap_remove(pos).0);
            }
        }
        // drain: exactly the never-cancelled payloads come out, once each
        while let Some((_, p)) = q.pop() {
            expect_delivered.push(p);
        }
        let mut remaining: Vec<u64> = live.iter().map(|&(_, p)| p).collect();
        remaining.sort_unstable();
        let mut tail: Vec<u64> = expect_delivered.split_off(expect_delivered.len() - remaining.len());
        tail.sort_unstable();
        prop_assert_eq!(tail, remaining);
        prop_assert_eq!(q.processed() + q.cancelled(), q.scheduled());
    }

    /// Cancel-heavy churn must not grow the heap without bound: lazy
    /// tombstones are compacted away once they outnumber live entries.
    #[test]
    fn compaction_bounds_tombstones_under_churn(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut ids = Vec::new();
        for round in 0..200u32 {
            for i in 0..32u32 {
                ids.push(q.schedule(rng.gen_range(0u32..1000) as f64, round * 32 + i));
            }
            // cancel almost everything, keeping a small live residue
            while ids.len() > 4 {
                let id = ids.swap_remove(rng.gen_range(0..ids.len()));
                q.cancel(id);
            }
            // invariant: dead heap keys never exceed live entries (plus
            // the small compaction threshold)
            prop_assert!(
                q.tombstones() <= q.len().max(64),
                "tombstones {} vs live {}", q.tombstones(), q.len()
            );
        }
        prop_assert!(q.compactions() > 0, "churn this heavy must compact");
        prop_assert!(q.compacted() > 0);
    }
}
