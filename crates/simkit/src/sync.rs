//! Conservative-lookahead synchronization for partitioned event loops.
//!
//! A partitioned simulation splits its units into *lanes* that each own
//! a private calendar and advance in bulk-synchronous *rounds*: every
//! round the coordinator picks a shared horizon, each lane drains its
//! calendar strictly below the horizon, and everything a lane wants to
//! tell another lane (or a shared resource) is buffered as a message
//! and delivered at the next round boundary.
//!
//! Determinism at any worker-thread count comes from two rules this
//! module enforces:
//!
//! 1. The horizon is a pure function of simulated state — the next
//!    epoch boundary at or above the earliest pending event across all
//!    lanes ([`EpochWindow::horizon_for`]) — never of thread timing.
//! 2. Cross-lane messages are merged into one globally sorted sequence
//!    by `(time, key)` ([`MessagePool::drain_sorted`]), where `key` is
//!    a deterministic per-message identity, before any of them is
//!    delivered. Which worker produced a message is invisible after the
//!    sort, so any grouping of lanes onto threads yields byte-identical
//!    delivery order.
//!
//! [`run_lanes`] is the one implementation of that round protocol. A
//! simulation supplies a [`Lane`] (its per-partition event loop) and a
//! coordinator hook that applies each round's sorted messages and posts
//! the resulting deliveries; the runtime owns the horizon, the
//! mailboxes, the message pool and — above one thread — the persistent
//! workers and their barrier.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use crate::time::{Duration, SimTime};

/// The conservative lookahead window: lanes may only interact at
/// multiples of `window`, so a round that drains `[.., horizon)` can
/// run its lanes independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochWindow {
    window: Duration,
}

impl EpochWindow {
    /// Creates a window of `window` nanoseconds of lookahead.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero — a zero window would make every
    /// round a single event and the rounds would never terminate.
    pub fn new(window: Duration) -> Self {
        assert!(!window.is_zero(), "epoch window must be positive");
        EpochWindow { window }
    }

    /// The window length.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// The first epoch boundary strictly after `t`: the earliest
    /// instant a message emitted at `t` may be delivered to another
    /// lane.
    pub fn next_boundary(&self, t: SimTime) -> SimTime {
        let w = self.window.as_ns();
        let n = t.as_ns() / w + 1;
        SimTime::from_ns(n.saturating_mul(w))
    }

    /// The round horizon for an earliest pending event at `min_next`:
    /// the first boundary strictly above it. Every lane drains events
    /// with `time < horizon` this round.
    pub fn horizon_for(&self, min_next: SimTime) -> SimTime {
        self.next_boundary(min_next)
    }

    /// Quantizes a cross-lane delivery: the later of the message's own
    /// arrival time and the first boundary after `sent` — a message
    /// never lands inside the epoch it was produced in.
    pub fn quantize(&self, sent: SimTime, arrival: SimTime) -> SimTime {
        arrival.max(self.next_boundary(sent))
    }
}

/// A deterministically ordered pool of cross-lane messages.
///
/// Workers append in whatever interleaving the host scheduler produces;
/// [`drain_sorted`](MessagePool::drain_sorted) then yields them in
/// `(time, key)` order. As long as every message carries a unique
/// deterministic `key`, the drained order is a pure function of the
/// simulation — worker count and scheduling are invisible.
#[derive(Debug)]
pub struct MessagePool<M> {
    items: Vec<(SimTime, u128, M)>,
}

impl<M> Default for MessagePool<M> {
    fn default() -> Self {
        MessagePool { items: Vec::new() }
    }
}

impl<M> MessagePool<M> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one message.
    pub fn push(&mut self, at: SimTime, key: u128, msg: M) {
        self.items.push((at, key, msg));
    }

    /// Moves another pool's messages into this one (used to fold
    /// per-worker outboxes into the round's global pool).
    pub fn absorb(&mut self, other: &mut MessagePool<M>) {
        self.items.append(&mut other.items);
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when no messages are pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Sorts by `(time, key)` and drains, returning the canonical
    /// delivery sequence for this round.
    ///
    /// The sort is unstable on purpose: keys must be unique, so no two
    /// messages ever compare equal and instability can never show.
    pub fn drain_sorted(&mut self) -> std::vec::Drain<'_, (SimTime, u128, M)> {
        self.items.sort_unstable_by_key(|&(t, k, _)| (t, k));
        self.items.drain(..)
    }
}

/// Sentinel for "lane calendar is empty" in the next-event atomics.
const IDLE: u64 = u64::MAX;

/// One lane's inbound deliveries, in posting order.
type Mailbox<D> = Mutex<Vec<(SimTime, D)>>;

/// One partition of a lane-parallel simulation: a private calendar plus
/// the state only it touches, advanced by [`run_lanes`] one round at a
/// time. Within a round a lane reads only its own state, the horizon
/// and the broadcast value, so its event order is independent of every
/// other lane and of thread scheduling.
pub trait Lane: Send {
    /// An inbound delivery the coordinator posts to this lane.
    type Delivery: Send;
    /// An outbound cross-lane message, applied by the coordinator.
    type Msg: Send;
    /// A value the coordinator broadcasts to every lane between rounds
    /// (for example per-batch flags); each round reads the latest one.
    type Broadcast: Copy + Default + Send;

    /// Schedules one inbound delivery at `at`.
    fn deliver(&mut self, at: SimTime, delivery: Self::Delivery);
    /// Drains every event strictly below `horizon`.
    fn drain(&mut self, horizon: SimTime, broadcast: Self::Broadcast);
    /// The earliest pending event, `None` when the calendar is empty.
    fn next_time(&self) -> Option<SimTime>;
    /// The latest instant this lane has finished work at (monotone);
    /// [`Rounds::prep_end`] is the maximum over all lanes.
    fn prep_end(&self) -> SimTime;
    /// Messages produced since the last round; the runtime empties it
    /// into the round's global pool.
    fn outbox(&mut self) -> &mut MessagePool<Self::Msg>;
}

/// Work counters of one [`run_lanes`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Rounds run.
    pub rounds: u64,
    /// Cross-lane messages applied.
    pub messages: u64,
}

/// State shared between the coordinator and the lane workers. Every
/// value written into it is a pure function of simulated state.
struct Shared<L: Lane> {
    horizon: AtomicU64,
    done: AtomicBool,
    broadcast: Mutex<L::Broadcast>,
    prep_end_max: AtomicU64,
    next_times: Vec<AtomicU64>,
    /// Per-lane inbound deliveries, written by the coordinator in
    /// globally sorted order, drained by the lane at the start of its
    /// next round.
    mailboxes: Vec<Mailbox<L::Delivery>>,
    /// The round's outbound messages from all lanes.
    pool: Mutex<MessagePool<L::Msg>>,
    barrier: Barrier,
}

impl<L: Lane> Shared<L> {
    fn new(lanes: usize, parties: usize) -> Self {
        Shared {
            horizon: AtomicU64::new(0),
            done: AtomicBool::new(false),
            broadcast: Mutex::new(L::Broadcast::default()),
            prep_end_max: AtomicU64::new(0),
            next_times: (0..lanes).map(|_| AtomicU64::new(IDLE)).collect(),
            mailboxes: (0..lanes).map(|_| Mutex::new(Vec::new())).collect(),
            pool: Mutex::new(MessagePool::new()),
            barrier: Barrier::new(parties),
        }
    }

    fn round_inputs(&self) -> (SimTime, L::Broadcast) {
        (
            SimTime::from_ns(self.horizon.load(Ordering::Acquire)),
            *self.broadcast.lock().expect("broadcast"),
        )
    }

    /// Runs one lane's round: take its inbound deliveries, drain to the
    /// horizon, publish its next event time and outbound messages.
    fn lane_round(&self, lane: &mut L, li: usize, horizon: SimTime, broadcast: L::Broadcast) {
        let inbound = std::mem::take(&mut *self.mailboxes[li].lock().expect("mailbox"));
        for (at, delivery) in inbound {
            lane.deliver(at, delivery);
        }
        lane.drain(horizon, broadcast);
        let next = lane.next_time().map_or(IDLE, |t| t.as_ns());
        self.next_times[li].store(next, Ordering::Release);
        self.prep_end_max
            .fetch_max(lane.prep_end().as_ns(), Ordering::AcqRel);
        let outbox = lane.outbox();
        if !outbox.is_empty() {
            self.pool.lock().expect("pool").absorb(outbox);
        }
    }
}

/// The coordinator's handle on a running lane set (see [`run_lanes`]).
pub struct Rounds<'r, L: Lane> {
    shared: &'r Shared<L>,
    /// The lanes when they run inline on the coordinator's thread;
    /// `None` when persistent workers own them.
    inline: Option<&'r mut [L]>,
    window: EpochWindow,
    stats: RoundStats,
}

impl<L: Lane> Rounds<'_, L> {
    /// Sets the value every lane reads from its next round on.
    pub fn broadcast(&mut self, value: L::Broadcast) {
        *self.shared.broadcast.lock().expect("broadcast") = value;
    }

    /// Queues a delivery for `lane`, applied at the start of its next
    /// round.
    pub fn post(&mut self, lane: usize, at: SimTime, delivery: L::Delivery) {
        self.shared.mailboxes[lane]
            .lock()
            .expect("mailbox")
            .push((at, delivery));
    }

    /// Runs rounds until every lane is idle and nothing is in flight.
    /// `start` is the earliest delivery [`post`](Self::post)ed since
    /// the last call. Each round drains every lane below the horizon
    /// (the first window boundary above the earliest pending event),
    /// then hands the round's messages to `apply` one at a time in
    /// `(time, key)` order; `apply` posts whatever deliveries they
    /// trigger.
    pub fn run_until_idle<F>(&mut self, start: SimTime, mut apply: F)
    where
        F: FnMut(SimTime, L::Msg, &mut Deliveries<'_, L::Delivery>),
    {
        let mut pending = start.as_ns();
        loop {
            let lanes_min = self
                .shared
                .next_times
                .iter()
                .map(|t| t.load(Ordering::Acquire))
                .min()
                .unwrap_or(IDLE);
            let min_next = lanes_min.min(pending);
            if min_next == IDLE {
                break;
            }
            let horizon = self.window.horizon_for(SimTime::from_ns(min_next));
            self.shared
                .horizon
                .store(horizon.as_ns(), Ordering::Release);
            self.round();
            self.stats.rounds += 1;
            pending = self.apply_messages(horizon, &mut apply);
        }
    }

    /// The latest [`Lane::prep_end`] any lane has reported.
    pub fn prep_end(&self) -> SimTime {
        SimTime::from_ns(self.shared.prep_end_max.load(Ordering::Acquire))
    }

    /// Advances every lane one round: inline, or by releasing the
    /// workers and waiting for them. Both run the identical protocol on
    /// identical shared state, which is what makes one thread the
    /// byte-exact reference for any thread count.
    fn round(&mut self) {
        match self.inline.as_deref_mut() {
            Some(lanes) => {
                let (horizon, broadcast) = self.shared.round_inputs();
                for (li, lane) in lanes.iter_mut().enumerate() {
                    self.shared.lane_round(lane, li, horizon, broadcast);
                }
            }
            None => {
                self.shared.barrier.wait();
                // Workers run their lanes here.
                self.shared.barrier.wait();
            }
        }
    }

    /// Applies the round's messages in sorted order; returns the
    /// earliest delivery they triggered, or [`IDLE`].
    fn apply_messages<F>(&mut self, horizon: SimTime, apply: &mut F) -> u64
    where
        F: FnMut(SimTime, L::Msg, &mut Deliveries<'_, L::Delivery>),
    {
        let mut pool = self.shared.pool.lock().expect("pool");
        let mut out = Deliveries {
            mailboxes: &self.shared.mailboxes,
            horizon,
            window: self.window,
            earliest: IDLE,
        };
        for (at, _, msg) in pool.drain_sorted() {
            self.stats.messages += 1;
            apply(at, msg, &mut out);
        }
        out.earliest
    }
}

/// Where the coordinator hook of [`Rounds::run_until_idle`] posts the
/// deliveries a round's messages trigger.
pub struct Deliveries<'r, D> {
    mailboxes: &'r [Mailbox<D>],
    horizon: SimTime,
    window: EpochWindow,
    earliest: u64,
}

impl<D> Deliveries<'_, D> {
    /// The horizon of the round just drained: no delivery may land
    /// before it.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// The lookahead window.
    pub fn window(&self) -> EpochWindow {
        self.window
    }

    /// Queues a delivery for `lane` at `at`.
    pub fn post(&mut self, lane: usize, at: SimTime, delivery: D) {
        debug_assert!(at >= self.horizon, "delivery lands in a drained epoch");
        self.mailboxes[lane]
            .lock()
            .expect("mailbox")
            .push((at, delivery));
        self.earliest = self.earliest.min(at.as_ns());
    }
}

/// Runs a lane set under the conservative-lookahead round protocol.
///
/// `body` is the coordinator: it [`post`](Rounds::post)s initial
/// deliveries, sets the [`broadcast`](Rounds::broadcast) value and calls
/// [`run_until_idle`](Rounds::run_until_idle) as often as it needs
/// (once per batch, say). With `threads` below 2 (or a single lane) the
/// lanes run inline on the calling thread; otherwise they are dealt
/// round-robin onto `min(threads, lanes)` persistent workers that meet
/// the coordinator at a barrier twice per round. Output is
/// byte-identical either way, and `lanes` is handed back in its
/// original order.
pub fn run_lanes<L: Lane>(
    lanes: &mut Vec<L>,
    window: EpochWindow,
    threads: usize,
    body: impl FnOnce(&mut Rounds<'_, L>),
) -> RoundStats {
    let n = lanes.len();
    let workers = match threads.min(n) {
        t if t >= 2 => t,
        _ => 0,
    };
    let shared = Shared::<L>::new(n, workers + 1);
    if workers == 0 {
        let mut rounds = Rounds {
            shared: &shared,
            inline: Some(lanes.as_mut_slice()),
            window,
            stats: RoundStats::default(),
        };
        body(&mut rounds);
        return rounds.stats;
    }

    let mut groups: Vec<Vec<(usize, L)>> = (0..workers).map(|_| Vec::new()).collect();
    for (li, lane) in lanes.drain(..).enumerate() {
        groups[li % workers].push((li, lane));
    }
    let shared = &shared;
    std::thread::scope(|s| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|mut group| {
                s.spawn(move || loop {
                    shared.barrier.wait();
                    if shared.done.load(Ordering::Acquire) {
                        return group;
                    }
                    let (horizon, broadcast) = shared.round_inputs();
                    for (li, lane) in group.iter_mut() {
                        shared.lane_round(lane, *li, horizon, broadcast);
                    }
                    shared.barrier.wait();
                })
            })
            .collect();
        let mut rounds = Rounds {
            shared,
            inline: None,
            window,
            stats: RoundStats::default(),
        };
        body(&mut rounds);
        shared.done.store(true, Ordering::Release);
        shared.barrier.wait();
        let mut slots: Vec<Option<L>> = (0..n).map(|_| None).collect();
        for handle in handles {
            for (li, lane) in handle.join().expect("lane worker") {
                slots[li] = Some(lane);
            }
        }
        lanes.extend(slots.into_iter().map(|l| l.expect("every lane returned")));
        rounds.stats
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn boundary_is_strictly_after() {
        let w = EpochWindow::new(Duration::from_ns(500));
        assert_eq!(w.next_boundary(t(0)), t(500));
        assert_eq!(w.next_boundary(t(499)), t(500));
        assert_eq!(w.next_boundary(t(500)), t(1000));
        assert_eq!(w.next_boundary(t(501)), t(1000));
        assert_eq!(w.window(), Duration::from_ns(500));
    }

    #[test]
    fn quantize_never_lands_in_source_epoch() {
        let w = EpochWindow::new(Duration::from_ns(500));
        // Arrival already past the boundary: untouched.
        assert_eq!(w.quantize(t(100), t(700)), t(700));
        // Arrival inside the source epoch: pushed to the boundary.
        assert_eq!(w.quantize(t(100), t(200)), t(500));
        // Sent exactly on a boundary: delivery waits for the next one.
        assert_eq!(w.quantize(t(500), t(500)), t(1000));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        EpochWindow::new(Duration::ZERO);
    }

    #[test]
    fn pool_drains_in_time_key_order_regardless_of_push_order() {
        let mut a: MessagePool<&str> = MessagePool::new();
        let mut b: MessagePool<&str> = MessagePool::new();
        // Two "workers" push in different interleavings.
        a.push(t(20), 1, "a-late");
        a.push(t(10), 7, "a-early-hi");
        b.push(t(10), 3, "b-early-lo");
        b.push(t(30), 0, "b-last");
        let mut merged = MessagePool::new();
        merged.absorb(&mut a);
        merged.absorb(&mut b);
        assert!(a.is_empty() && b.is_empty());
        assert_eq!(merged.len(), 4);
        let order: Vec<&str> = merged.drain_sorted().map(|(_, _, m)| m).collect();
        assert_eq!(order, vec!["b-early-lo", "a-early-hi", "a-late", "b-last"]);
        assert!(merged.is_empty());

        // The reverse interleaving produces the identical sequence.
        let mut merged2 = MessagePool::new();
        merged2.push(t(30), 0, "b-last");
        merged2.push(t(10), 3, "b-early-lo");
        merged2.push(t(20), 1, "a-late");
        merged2.push(t(10), 7, "a-early-hi");
        let order2: Vec<&str> = merged2.drain_sorted().map(|(_, _, m)| m).collect();
        assert_eq!(order, order2);
    }

    /// A ring of lanes passing tokens: every third hop stays local,
    /// the rest cross to the next lane through the coordinator.
    struct Ring {
        id: usize,
        lanes: usize,
        calendar: crate::Calendar<u32>,
        log: Vec<(u64, u32, u32)>,
        outbox: MessagePool<(usize, u32)>,
        last: SimTime,
    }

    impl Lane for Ring {
        type Delivery = u32;
        type Msg = (usize, u32);
        type Broadcast = u32;

        fn deliver(&mut self, at: SimTime, hop: u32) {
            self.calendar.schedule(at, hop);
        }

        fn drain(&mut self, horizon: SimTime, batch: u32) {
            while self.calendar.peek_time().is_some_and(|t| t < horizon) {
                let (now, hop) = self.calendar.pop().expect("peeked");
                self.log.push((now.as_ns(), hop, batch));
                self.last = self.last.max(now);
                if hop >= 20 {
                    continue;
                }
                if hop % 3 == 0 {
                    self.calendar.schedule(now + Duration::from_ns(3), hop + 1);
                } else {
                    let key = ((hop as u128) << 8) | self.id as u128;
                    self.outbox
                        .push(now, key, ((self.id + 1) % self.lanes, hop + 1));
                }
            }
        }

        fn next_time(&self) -> Option<SimTime> {
            self.calendar.peek_time()
        }

        fn prep_end(&self) -> SimTime {
            self.last
        }

        fn outbox(&mut self) -> &mut MessagePool<(usize, u32)> {
            &mut self.outbox
        }
    }

    /// Every lane's `(time, hop, batch)` event log.
    type RingLogs = Vec<Vec<(u64, u32, u32)>>;

    fn run_ring(threads: usize) -> (RingLogs, RoundStats) {
        let n = 4;
        let mut lanes: Vec<Ring> = (0..n)
            .map(|id| Ring {
                id,
                lanes: n,
                calendar: crate::Calendar::new(),
                log: Vec::new(),
                outbox: MessagePool::new(),
                last: SimTime::ZERO,
            })
            .collect();
        let stats = run_lanes(
            &mut lanes,
            EpochWindow::new(Duration::from_ns(10)),
            threads,
            |r| {
                let mut start = t(0);
                for batch in 0..2 {
                    r.broadcast(batch);
                    for lane in 0..n {
                        r.post(lane, start, 0);
                    }
                    r.run_until_idle(start, |at, (to, hop), out| {
                        let arrive = out.window().quantize(at, at + Duration::from_ns(5));
                        out.post(to, arrive, hop);
                    });
                    start = r.prep_end() + Duration::from_ns(1);
                }
            },
        );
        assert!(lanes.iter().enumerate().all(|(i, l)| l.id == i));
        (lanes.into_iter().map(|l| l.log).collect(), stats)
    }

    #[test]
    fn lane_runtime_is_thread_count_invariant() {
        let (reference, stats) = run_ring(1);
        assert!(stats.rounds > 0 && stats.messages > 0);
        // Every lane saw both batches' full token chains.
        assert!(reference.iter().all(|log| log.len() == 2 * 21));
        for threads in [2, 3, 8] {
            assert_eq!(
                run_ring(threads),
                (reference.clone(), stats),
                "threads={threads}"
            );
        }
    }
}
