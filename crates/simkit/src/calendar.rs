//! The event calendar: a time-ordered priority queue of simulation events.

use std::collections::VecDeque;

use crate::time::SimTime;

/// log2 of the aligned window [`PoolStats`] splits pending events by:
/// an event lies in the watermark's window when `at ^ watermark` is
/// below `2^WINDOW_BITS` (8,192 ns), i.e. its bucket is at most
/// `WINDOW_BITS`.
const WINDOW_BITS: u32 = 13;

/// Occupancy of the calendar over one run (see [`Calendar::pool_stats`]).
/// Every field rewinds to zero on [`Calendar::reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Events scheduled.
    pub schedules: u64,
    /// Peak number of pending events at once (the `len()` high water).
    pub live_high_water: u64,
    /// Peak number of pending events inside the watermark's aligned
    /// 8,192-ns window, not counting those at the watermark itself.
    pub wheel_high_water: u64,
    /// Peak number of pending events beyond the watermark's aligned
    /// 8,192-ns window.
    pub far_high_water: u64,
}

/// A time-ordered event calendar.
///
/// Events scheduled for the same instant are delivered in the order
/// they were scheduled, so a simulation's event order never depends on
/// the queue's internals.
///
/// # Monotone radix heap
///
/// Simulated time never runs backwards: nothing may be scheduled before
/// the time most recently popped (the watermark, `last`). That is the
/// precondition of a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
/// J. ACM 1990). A pending event at `at` lives in bucket
/// `bit_length(at ^ last)`:
///
/// - bucket 0 holds the events at exactly `last`, as a FIFO;
/// - bucket `k` (1–64) holds events that agree with `last` above bit
///   `k - 1` and have that bit set, so every event in bucket `k` is
///   earlier than every event in bucket `k + 1`. Each of these buckets
///   caches its minimum time, and one `u64` mask records which are
///   occupied.
///
/// [`schedule`](Calendar::schedule) appends in O(1). [`pop`](Calendar::pop)
/// takes the front of bucket 0; when bucket 0 is empty it first moves
/// `last` to the lowest occupied bucket's minimum and redistributes that
/// bucket. Its events share `last`'s bits from the bucket's bit upwards,
/// so each lands in a strictly lower bucket, while events in higher
/// buckets keep theirs. An event therefore moves at most 64 times; the
/// engine's traffic moves it about 4 times on average.
/// [`peek_time`](Calendar::peek_time) is O(1): `last` when bucket 0 is
/// occupied, otherwise the lowest occupied bucket's cached minimum.
///
/// ## Why delivery order is exactly `(time, schedule order)`
///
/// A bucket is a function of `at` and `last` alone, so events with
/// equal times always share a bucket. Every bucket lists its events in
/// schedule order: `schedule` appends the newest event at the end, and a
/// redistribution walks its bucket front to back into lower buckets
/// that are all empty when it starts (it only runs on the lowest
/// occupied bucket, with bucket 0 empty). Bucket 0 therefore holds
/// exactly the events at `last`, the earliest pending time, oldest
/// first — equal times come out in schedule order without a sequence
/// number.
///
/// # Examples
///
/// ```
/// use simkit::{Calendar, SimTime};
///
/// let mut cal = Calendar::new();
/// cal.schedule(SimTime::from_ns(10), 'b');
/// cal.schedule(SimTime::from_ns(10), 'c');
/// cal.schedule(SimTime::from_ns(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct Calendar<E> {
    /// Bucket 0: the events due at exactly `last`, in schedule order.
    due: VecDeque<E>,
    /// `buckets[i]` is bucket `i + 1`: events with
    /// `bit_length(at ^ last) == i + 1`, in schedule order.
    buckets: [Vec<(SimTime, E)>; 64],
    /// `mins[i]` is the earliest time in `buckets[i]`; `SimTime::MAX`
    /// while it is empty.
    mins: [SimTime; 64],
    /// Bit `i` set ⇔ `buckets[i]` is non-empty.
    occupied: u64,
    /// The time most recently popped: the causality watermark.
    last: SimTime,
    len: usize,
    /// Pending events beyond the watermark's window (buckets above
    /// `WINDOW_BITS`), for [`PoolStats::far_high_water`].
    far: usize,
    stats: PoolStats,
}

impl<E> Calendar<E> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        Calendar {
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [SimTime::MAX; 64],
            occupied: 0,
            last: SimTime::ZERO,
            len: 0,
            far: 0,
            stats: PoolStats::default(),
        }
    }

    /// Empties the calendar and rewinds the watermark and the
    /// [`pool_stats`](Calendar::pool_stats) to zero, keeping the buckets'
    /// capacity. A reset calendar behaves exactly like a fresh one
    /// (identical pop order for identical schedules), so one calendar
    /// can serve many independent runs.
    pub fn reset(&mut self) {
        self.due.clear();
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.mins = [SimTime::MAX; 64];
        self.occupied = 0;
        self.last = SimTime::ZERO;
        self.len = 0;
        self.far = 0;
        self.stats = PoolStats::default();
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last popped time: scheduling into
    /// the past is a causality bug in the model.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.last,
            "event scheduled in the past: at={at}, watermark={}",
            self.last
        );
        let bucket = self.file(at, event);
        self.len += 1;
        self.stats.schedules += 1;
        self.stats.live_high_water = self.stats.live_high_water.max(self.len as u64);
        if bucket > WINDOW_BITS {
            self.far += 1;
            self.stats.far_high_water = self.stats.far_high_water.max(self.far as u64);
        } else if bucket > 0 {
            self.note_near();
        }
    }

    /// Appends an event to bucket `bit_length(at ^ last)` and returns
    /// that bucket's number (0 for the FIFO at `last`).
    #[inline]
    fn file(&mut self, at: SimTime, event: E) -> u32 {
        let x = at.as_ns() ^ self.last.as_ns();
        if x == 0 {
            self.due.push_back(event);
            return 0;
        }
        let i = 63 - x.leading_zeros() as usize;
        self.occupied |= 1 << i;
        self.mins[i] = self.mins[i].min(at);
        self.buckets[i].push((at, event));
        i as u32 + 1
    }

    /// Raises the window high-water mark to the pending events inside
    /// the watermark's window but not at it.
    #[inline]
    fn note_near(&mut self) {
        let near = (self.len - self.due.len() - self.far) as u64;
        self.stats.wheel_high_water = self.stats.wheel_high_water.max(near);
    }

    /// Moves the watermark to the earliest pending time and redistributes
    /// the lowest occupied bucket, which holds it. Called only when
    /// bucket 0 is empty and some other bucket is not.
    fn advance(&mut self) {
        let i = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << i);
        self.last = std::mem::replace(&mut self.mins[i], SimTime::MAX);
        let mut moving = std::mem::take(&mut self.buckets[i]);
        if i as u32 >= WINDOW_BITS {
            self.far -= moving.len();
        }
        for (at, event) in moving.drain(..) {
            if self.file(at, event) > WINDOW_BITS {
                self.far += 1;
            }
        }
        // Hand the emptied vector back so the bucket keeps its capacity.
        self.buckets[i] = moving;
        self.note_near();
    }

    /// Removes and returns the earliest event, advancing the causality
    /// watermark to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.due.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            self.advance();
        }
        let event = self.due.pop_front().expect("advance fills bucket 0");
        self.len -= 1;
        Some((self.last, event))
    }

    /// Returns the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.due.is_empty() {
            Some(self.last)
        } else if self.occupied != 0 {
            Some(self.mins[self.occupied.trailing_zeros() as usize])
        } else {
            None
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The latest time returned by [`Calendar::pop`] so far.
    pub fn now(&self) -> SimTime {
        self.last
    }

    /// Occupancy since the last [`reset`](Calendar::reset): events
    /// scheduled, and the peak number pending in total, inside the
    /// watermark's window and beyond it.
    pub fn pool_stats(&self) -> PoolStats {
        self.stats
    }
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    /// Width of the watermark's window that [`PoolStats`] splits by.
    const SPAN: u64 = 1 << WINDOW_BITS;

    /// The lanes' drain loop: pops every event at or before `until`.
    fn drain_until(cal: &mut Calendar<char>, until: SimTime, out: &mut Vec<(SimTime, char)>) {
        while cal.peek_time().is_some_and(|t| t <= until) {
            out.push(cal.pop().expect("peeked event"));
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_ns(30), 3);
        cal.schedule(SimTime::from_ns(10), 1);
        cal.schedule(SimTime::from_ns(20), 2);
        assert_eq!(cal.pop(), Some((SimTime::from_ns(10), 1)));
        assert_eq!(cal.pop(), Some((SimTime::from_ns(20), 2)));
        assert_eq!(cal.pop(), Some((SimTime::from_ns(30), 3)));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn fifo_on_ties() {
        let mut cal = Calendar::new();
        for i in 0..100 {
            cal.schedule(SimTime::from_ns(7), i);
        }
        for i in 0..100 {
            assert_eq!(cal.pop().unwrap().1, i);
        }
    }

    #[test]
    fn immediate_fast_path_preserves_fifo_with_wheel_ties() {
        let mut cal = Calendar::new();
        // Two events at t=10, scheduled before the watermark gets there.
        cal.schedule(SimTime::from_ns(10), "wheel-a");
        cal.schedule(SimTime::from_ns(10), "wheel-b");
        assert_eq!(cal.pop().unwrap().1, "wheel-a");
        // The watermark is now 10. An event scheduled at the watermark
        // must NOT overtake the equal-time event scheduled before it.
        cal.schedule(SimTime::from_ns(10), "imm-c");
        cal.schedule(SimTime::from_ns(11), "late");
        cal.schedule(SimTime::from_ns(10), "imm-d");
        assert_eq!(cal.pop().unwrap().1, "wheel-b");
        assert_eq!(cal.pop().unwrap().1, "imm-c");
        assert_eq!(cal.pop().unwrap().1, "imm-d");
        assert_eq!(cal.pop().unwrap().1, "late");
        assert!(cal.is_empty());
    }

    #[test]
    fn immediate_events_at_time_zero() {
        // Before any pop the watermark is zero, so t=0 events go straight
        // to bucket 0 — and still interleave FIFO.
        let mut cal = Calendar::new();
        cal.schedule(SimTime::ZERO, 0);
        cal.schedule(SimTime::from_ns(5), 2);
        cal.schedule(SimTime::ZERO, 1);
        assert_eq!(cal.len(), 3);
        assert_eq!(cal.peek_time(), Some(SimTime::ZERO));
        assert_eq!(cal.pop(), Some((SimTime::ZERO, 0)));
        assert_eq!(cal.pop(), Some((SimTime::ZERO, 1)));
        assert_eq!(cal.pop(), Some((SimTime::from_ns(5), 2)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_into_past_panics() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_ns(10), ());
        cal.pop();
        cal.schedule(SimTime::from_ns(5), ());
    }

    #[test]
    fn watermark_tracks_now() {
        let mut cal = Calendar::new();
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.schedule(SimTime::from_ns(42), ());
        cal.pop();
        assert_eq!(cal.now(), SimTime::from_ns(42));
        // Scheduling at the current time is allowed.
        cal.schedule(cal.now() + Duration::ZERO, ());
        assert_eq!(cal.len(), 1);
        assert!(!cal.is_empty());
        assert_eq!(cal.peek_time(), Some(SimTime::from_ns(42)));
    }

    #[test]
    fn drain_until_batches_one_instant_fifo() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_ns(10), 'a');
        cal.schedule(SimTime::from_ns(10), 'b');
        cal.schedule(SimTime::from_ns(20), 'c');
        let mut buf = Vec::new();
        drain_until(&mut cal, SimTime::from_ns(10), &mut buf);
        assert_eq!(
            buf,
            vec![(SimTime::from_ns(10), 'a'), (SimTime::from_ns(10), 'b')]
        );
        // The watermark advanced with the drained events...
        assert_eq!(cal.now(), SimTime::from_ns(10));
        // ...and same-instant events scheduled afterwards still deliver
        // after the batch, before later times.
        cal.schedule(SimTime::from_ns(10), 'd');
        buf.clear();
        drain_until(&mut cal, SimTime::from_ns(30), &mut buf);
        assert_eq!(
            buf,
            vec![(SimTime::from_ns(10), 'd'), (SimTime::from_ns(20), 'c')]
        );
        assert!(cal.is_empty());
    }

    #[test]
    fn drain_until_advances_watermark_monotonically() {
        let mut cal = Calendar::new();
        for (t, c) in [(5u64, 'a'), (1, 'b'), (9, 'c'), (1, 'd'), (5, 'e')] {
            cal.schedule(SimTime::from_ns(t), c);
        }
        let mut buf = Vec::new();
        drain_until(&mut cal, SimTime::from_ns(5), &mut buf);
        let order: Vec<(u64, char)> = buf.iter().map(|&(t, c)| (t.as_ns(), c)).collect();
        assert_eq!(order, vec![(1, 'b'), (1, 'd'), (5, 'a'), (5, 'e')]);
        assert_eq!(cal.now(), SimTime::from_ns(5));
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.peek_time(), Some(SimTime::from_ns(9)));
        // Causality: the watermark now rejects anything before 5 ns.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cal.schedule(SimTime::from_ns(3), 'f');
        }));
        assert!(r.is_err(), "pre-watermark schedule must panic after drain");
    }

    #[test]
    fn drain_until_on_empty_is_noop() {
        let mut cal = Calendar::new();
        let mut buf = Vec::new();
        drain_until(&mut cal, SimTime::from_ns(100), &mut buf);
        assert!(buf.is_empty());
        assert_eq!(cal.peek_time(), None);
        assert_eq!(cal.now(), SimTime::ZERO);
        assert!(cal.is_empty());
    }

    #[test]
    fn far_windows_deliver_in_time_seq_order() {
        // Spread events across several windows, with ties inside a
        // distant one, and interleave an insert after it is redistributed.
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_ns(2 * SPAN + 5), "far-a");
        cal.schedule(SimTime::from_ns(5), "near");
        cal.schedule(SimTime::from_ns(2 * SPAN + 5), "far-b");
        cal.schedule(SimTime::from_ns(7 * SPAN + 1), "farther");
        assert_eq!(cal.pop().unwrap().1, "near");
        assert_eq!(cal.pop().unwrap().1, "far-a");
        // far-b now sits at the watermark: a new tie appends after it.
        cal.schedule(SimTime::from_ns(2 * SPAN + 5), "late-tie");
        assert_eq!(cal.pop().unwrap().1, "far-b");
        assert_eq!(cal.pop().unwrap().1, "late-tie");
        assert_eq!(cal.pop().unwrap().1, "farther");
        assert!(cal.is_empty());
    }

    #[test]
    fn pool_reuses_slots_in_steady_state() {
        let mut cal = Calendar::new();
        // A pipeline with bounded concurrency: at most 4 outstanding.
        for i in 0..4u64 {
            cal.schedule(SimTime::from_ns(i), i);
        }
        for i in 4..1000u64 {
            let (_, _) = cal.pop().unwrap();
            cal.schedule(SimTime::from_ns(i), i);
        }
        while cal.pop().is_some() {}
        let stats = cal.pool_stats();
        assert_eq!(stats.schedules, 1000);
        assert_eq!(stats.live_high_water, 4, "peak concurrency is 4");
    }

    #[test]
    fn high_water_marks_track_tier_occupancy() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::ZERO, 'w'); // at the watermark: neither
        cal.schedule(SimTime::from_ns(1), 'a');
        cal.schedule(SimTime::from_ns(SPAN - 1), 'b'); // window's last ns
        cal.schedule(SimTime::from_ns(SPAN), 'c'); // next window: far
        cal.schedule(SimTime::from_ns(3 * SPAN), 'd');
        let s = cal.pool_stats();
        assert_eq!(s.schedules, 5);
        assert_eq!(s.live_high_water, 5);
        assert_eq!(s.wheel_high_water, 2);
        assert_eq!(s.far_high_water, 2);
        // Once the watermark enters the next window, the window moves
        // with it: `SPAN + 2 .. 2 * SPAN - 1` is inside, `2 * SPAN` beyond.
        for expect in ['w', 'a', 'b', 'c'] {
            assert_eq!(cal.pop().unwrap().1, expect);
        }
        assert_eq!(cal.now(), SimTime::from_ns(SPAN));
        cal.schedule(SimTime::from_ns(SPAN + 2), 'e');
        cal.schedule(SimTime::from_ns(SPAN + 3), 'f');
        cal.schedule(SimTime::from_ns(2 * SPAN - 1), 'g');
        cal.schedule(SimTime::from_ns(2 * SPAN), 'h');
        let s = cal.pool_stats();
        assert_eq!(s.schedules, 9);
        assert_eq!(s.live_high_water, 5);
        assert_eq!(s.wheel_high_water, 3);
        assert_eq!(s.far_high_water, 2);
        while cal.pop().is_some() {}
        // Marks are per-run: reset rewinds every field.
        cal.reset();
        assert_eq!(cal.pool_stats(), PoolStats::default());
    }

    #[test]
    fn far_events_count_once_they_leave_the_window() {
        // A far event distributed into the watermark's window moves from
        // the far count to the window count.
        let mut cal = Calendar::new();
        for t in [SPAN + 1, SPAN + 2, SPAN + 3] {
            cal.schedule(SimTime::from_ns(t), 'x');
        }
        assert_eq!(cal.pool_stats().far_high_water, 3);
        assert_eq!(cal.pool_stats().wheel_high_water, 0);
        cal.pop(); // watermark SPAN + 1: two events left in its window
        assert_eq!(cal.pool_stats().wheel_high_water, 2);
        assert_eq!(cal.pool_stats().far_high_water, 3);
    }

    #[test]
    fn reset_behaves_like_fresh() {
        let run = |cal: &mut Calendar<u64>| -> Vec<(u64, u64)> {
            for t in [7u64, 3, 7, 1] {
                cal.schedule(SimTime::from_ns(t), t * 10);
            }
            let mut out = Vec::new();
            while let Some((t, e)) = cal.pop() {
                out.push((t.as_ns(), e));
            }
            out
        };
        let mut fresh = Calendar::new();
        let expect = run(&mut fresh);
        let mut reused = Calendar::new();
        let _ = run(&mut reused);
        reused.reset();
        assert_eq!(reused.now(), SimTime::ZERO);
        assert!(reused.is_empty());
        assert_eq!(run(&mut reused), expect);
        // The stats describe the second run only.
        assert_eq!(reused.pool_stats(), fresh.pool_stats());
        assert_eq!(reused.pool_stats().schedules, 4);
    }

    #[test]
    fn reset_clears_far_tier() {
        let run = |cal: &mut Calendar<u32>| -> Vec<u64> {
            cal.schedule(SimTime::from_ns(4 * SPAN + 2), 1);
            cal.schedule(SimTime::from_ns(9), 2);
            cal.schedule(SimTime::from_ns(SPAN - 1), 3);
            let mut out = Vec::new();
            while let Some((t, _)) = cal.pop() {
                out.push(t.as_ns());
            }
            out
        };
        let mut cal = Calendar::new();
        let expect = run(&mut cal);
        let stats = cal.pool_stats();
        cal.reset();
        assert_eq!(run(&mut cal), expect);
        assert_eq!(cal.pool_stats(), stats);
        // Reset with events still pending in high buckets.
        cal.schedule(SimTime::from_ns(u64::MAX), 9);
        cal.schedule(SimTime::from_ns(5 * SPAN), 8);
        cal.reset();
        assert_eq!(cal.peek_time(), None);
        assert_eq!(run(&mut cal), expect);
    }

    #[test]
    fn extreme_times_use_the_top_bucket() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::MAX, 'z');
        cal.schedule(SimTime::from_ns(1 << 63), 'y');
        cal.schedule(SimTime::from_ns(1), 'x');
        assert_eq!(cal.peek_time(), Some(SimTime::from_ns(1)));
        assert_eq!(cal.pop(), Some((SimTime::from_ns(1), 'x')));
        assert_eq!(cal.peek_time(), Some(SimTime::from_ns(1 << 63)));
        assert_eq!(cal.pop(), Some((SimTime::from_ns(1 << 63), 'y')));
        assert_eq!(cal.pop(), Some((SimTime::MAX, 'z')));
        assert_eq!(cal.pop(), None);
        assert_eq!(cal.now(), SimTime::MAX);
    }
}
