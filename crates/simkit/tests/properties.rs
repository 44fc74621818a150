//! Property tests for the simulation kernel's ordering guarantees.

use proptest::prelude::*;
use simkit::{Calendar, Duration, SerialResource, SimTime};

proptest! {
    /// The calendar delivers events in nondecreasing time order, with
    /// FIFO tie-breaking among equal timestamps.
    #[test]
    fn calendar_orders_any_schedule(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::from_ns(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, id)) = cal.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!(at >= lt, "time went backwards");
                if at == lt {
                    // FIFO among ties: schedule order == insertion index.
                    prop_assert!(
                        times[lid] != times[id] || lid < id,
                        "tie broken out of order"
                    );
                }
            }
            last = Some((at, id));
        }
    }

    /// Serial-resource grants never overlap and respect arrival order:
    /// for arrivals issued in nondecreasing time order, each grant
    /// starts no earlier than the previous grant's end or its own
    /// arrival.
    #[test]
    fn serial_resource_grants_are_disjoint(
        jobs in proptest::collection::vec((0u64..500, 1u64..50), 1..100),
    ) {
        let mut r = SerialResource::new();
        let mut arrivals: Vec<(u64, u64)> = jobs;
        arrivals.sort_by_key(|&(a, _)| a);
        let mut prev_end = SimTime::ZERO;
        let mut busy_total = Duration::ZERO;
        for (arrive, dur) in arrivals {
            let g = r.acquire(SimTime::from_ns(arrive), Duration::from_ns(dur));
            prop_assert!(g.start >= prev_end, "grants overlap");
            prop_assert!(g.start >= SimTime::from_ns(arrive), "service before arrival");
            prop_assert_eq!(g.end, g.start + Duration::from_ns(dur));
            prev_end = g.end;
            busy_total += Duration::from_ns(dur);
        }
        prop_assert_eq!(r.busy_total(), busy_total);
    }
}

/// One operation of a calendar-versus-model run.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule this many ns after the watermark.
    After(u64),
    /// Schedule at the time of the pending event with this index
    /// (modulo the pending count), or at the watermark if none is.
    Tie(usize),
    Pop,
    Reset,
}

/// Runs `ops` against a calendar and a flat reference model: pending
/// events as `(at, id)`, where `id` is the index of the scheduling op
/// and so rises in schedule order, delivered at the `(at, id)` minimum.
/// Every pop is compared, and so are `len()` and `peek_time()` after
/// every operation; at the end both are drained and compared.
fn check_against_model(ops: &[Op]) {
    let mut cal = Calendar::new();
    let mut model: Vec<(u64, usize)> = Vec::new();
    let mut watermark = 0u64;
    for (id, &op) in ops.iter().enumerate() {
        match op {
            Op::After(delta) => {
                let at = watermark + delta;
                cal.schedule(SimTime::from_ns(at), id);
                model.push((at, id));
            }
            Op::Tie(pick) => {
                let at = match model.len() {
                    0 => watermark,
                    n => model[pick % n].0,
                };
                cal.schedule(SimTime::from_ns(at), id);
                model.push((at, id));
            }
            Op::Pop => match model.iter().enumerate().min_by_key(|&(_, &e)| e) {
                Some((i, _)) => {
                    let (at, id) = model.remove(i);
                    watermark = at;
                    assert_eq!(cal.pop(), Some((SimTime::from_ns(at), id)));
                }
                None => assert_eq!(cal.pop(), None),
            },
            Op::Reset => {
                cal.reset();
                model.clear();
                watermark = 0;
            }
        }
        assert_eq!(cal.len(), model.len());
        let earliest = model.iter().map(|&(at, _)| at).min();
        assert_eq!(cal.peek_time(), earliest.map(SimTime::from_ns));
    }
    model.sort_unstable();
    for &(at, id) in &model {
        assert_eq!(cal.pop(), Some((SimTime::from_ns(at), id)));
    }
    assert_eq!(cal.pop(), None);
}

proptest! {
    /// The radix-heap calendar is a drop-in replacement for a naive
    /// sorted-list calendar: under arbitrary interleavings of schedules
    /// a few ns ahead (dense ties, many at the watermark itself), pops
    /// and resets, it delivers in the model's order — nondecreasing
    /// time with FIFO tie-breaking — and agrees on `len` and
    /// `peek_time` throughout.
    #[test]
    fn pooled_calendar_matches_reference_model(
        raw in proptest::collection::vec((0u8..40, 0u64..60), 1..300),
    ) {
        let ops: Vec<Op> = raw
            .into_iter()
            .map(|(kind, a)| match kind {
                0..=23 => Op::After(a),
                24..=38 => Op::Pop,
                _ => Op::Reset,
            })
            .collect();
        check_against_model(&ops);
    }

    /// The wide-range variant: deltas are `2^k + r` with `r < 2^k` for
    /// `k` in 0..=40, so schedules land in every bucket up to 41, and
    /// redistributions cascade down through the buckets as the
    /// watermark advances. Tie operations schedule at an already
    /// pending time, so equal times also arrive from different
    /// watermarks. Order, `len` and `peek_time` must match the model.
    #[test]
    fn calendar_matches_reference_across_tiers(
        raw in proptest::collection::vec((0u8..40, 0u32..41, any::<u64>()), 1..200),
    ) {
        let ops: Vec<Op> = raw
            .into_iter()
            .map(|(kind, k, r)| match kind {
                0..=5 => Op::Tie(r as usize),
                6..=23 => Op::After((1u64 << k) + r % (1u64 << k)),
                24..=38 => Op::Pop,
                _ => Op::Reset,
            })
            .collect();
        check_against_model(&ops);
    }

    /// Equal timestamps drain in schedule order even when the tied
    /// group sits many buckets above the watermark at schedule time and
    /// is redistributed bucket by bucket on its way down.
    #[test]
    fn calendar_far_tier_preserves_fifo_ties(
        tie_at in 8_192u64..(1u64 << 40),
        n in 2usize..64,
    ) {
        let mut cal = simkit::Calendar::new();
        for i in 0..n {
            cal.schedule(SimTime::from_ns(tie_at), i);
        }
        for expect in 0..n {
            prop_assert_eq!(cal.pop(), Some((SimTime::from_ns(tie_at), expect)));
        }
        prop_assert_eq!(cal.pop(), None);
    }

    /// `reset` restores a calendar that has events pending in many
    /// buckets to a pristine state: the next schedule/pop cycle behaves
    /// exactly like a fresh calendar's.
    #[test]
    fn calendar_reset_then_reuse_across_tiers(
        first in proptest::collection::vec(0u64..100_000, 1..100),
        pops in 0usize..50,
        second in proptest::collection::vec(0u64..100_000, 1..100),
    ) {
        let mut cal = simkit::Calendar::new();
        let mut fresh = simkit::Calendar::new();
        for (i, &t) in first.iter().enumerate() {
            cal.schedule(SimTime::from_ns(t), i);
        }
        for _ in 0..pops.min(first.len()) {
            cal.pop();
        }
        cal.reset();
        prop_assert_eq!(cal.len(), 0);
        prop_assert_eq!(cal.peek_time(), None);
        prop_assert_eq!(cal.pop(), None);
        // Second wave: the reused calendar must deliver the same
        // sequence as a never-used one.
        for (i, &t) in second.iter().enumerate() {
            cal.schedule(SimTime::from_ns(t), i);
            fresh.schedule(SimTime::from_ns(t), i);
        }
        while let Some(expect) = fresh.pop() {
            prop_assert_eq!(cal.pop(), Some(expect));
        }
        prop_assert_eq!(cal.pop(), None);
        prop_assert_eq!(cal.pool_stats(), fresh.pool_stats());
    }

    /// Draining in rounds — popping while `peek_time` is at or below a
    /// rising horizon, as the lanes do — delivers exactly the sequence
    /// of repeated `pop` calls and leaves the same watermark.
    #[test]
    fn drain_until_equals_repeated_pop(
        times in proptest::collection::vec(0u64..50_000, 1..150),
        cuts in proptest::collection::vec(0u64..50_000, 1..8),
    ) {
        let mut a = simkit::Calendar::new();
        let mut b = simkit::Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            a.schedule(SimTime::from_ns(t), i);
            b.schedule(SimTime::from_ns(t), i);
        }
        let mut cuts = cuts;
        cuts.sort_unstable();
        let mut drained = Vec::new();
        for cut in cuts {
            while a.peek_time().is_some_and(|t| t <= SimTime::from_ns(cut)) {
                drained.push(a.pop().unwrap());
            }
        }
        let popped: Vec<_> = (0..drained.len()).map(|_| b.pop().unwrap()).collect();
        prop_assert_eq!(drained, popped);
        prop_assert_eq!(a.now(), b.now());
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a.peek_time(), b.peek_time());
    }
}
