//! First-come-first-served resource models.
//!
//! Two flavors cover everything the SSD model needs:
//!
//! * [`SerialResource`] — one request at a time (a flash die sensing a
//!   page, a channel bus moving data, an embedded core running firmware).
//! * [`BandwidthResource`] — a shared link where each request occupies the
//!   link for `bytes / bandwidth` (SSD DRAM, the PCIe link). Modeled as a
//!   serial pipe, which is the standard store-and-forward approximation
//!   used by SimpleSSD/MQSim-style simulators.

use crate::time::{Duration, SimTime};

/// A resource that serves one request at a time, FCFS.
///
/// The caller asks "if a request arrives at `now` and needs `service`
/// time, when does it start and finish?" — the resource accounts for its
/// own backlog.
///
/// # Examples
///
/// ```
/// use simkit::{SerialResource, SimTime, Duration};
///
/// let mut die = SerialResource::new();
/// let g1 = die.acquire(SimTime::ZERO, Duration::from_us(3));
/// let g2 = die.acquire(SimTime::ZERO, Duration::from_us(3));
/// assert_eq!(g1.start, SimTime::ZERO);
/// assert_eq!(g2.start, SimTime::from_ns(3_000)); // queued behind g1
/// ```
#[derive(Debug, Clone)]
pub struct SerialResource {
    next_free: SimTime,
    served: u64,
    busy_total: Duration,
    wait_total: Duration,
}

/// The scheduling outcome of one [`SerialResource::acquire`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service begins (>= arrival).
    pub start: SimTime,
    /// When service completes.
    pub end: SimTime,
}

impl Grant {
    /// Queueing delay experienced by this request.
    pub fn wait(&self, arrival: SimTime) -> Duration {
        self.start.saturating_duration_since(arrival)
    }
}

impl SerialResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        SerialResource {
            next_free: SimTime::ZERO,
            served: 0,
            busy_total: Duration::ZERO,
            wait_total: Duration::ZERO,
        }
    }

    /// Schedules a request arriving at `arrival` needing `service` time.
    pub fn acquire(&mut self, arrival: SimTime, service: Duration) -> Grant {
        let start = arrival.max(self.next_free);
        let end = start + service;
        self.next_free = end;
        self.served += 1;
        self.busy_total += service;
        self.wait_total += start - arrival;
        Grant { start, end }
    }

    /// Earliest time a new request could begin service.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Whether the resource would be idle for a request arriving at `now`.
    pub fn is_idle_at(&self, now: SimTime) -> bool {
        self.next_free <= now
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Total service (busy) time granted.
    pub fn busy_total(&self) -> Duration {
        self.busy_total
    }

    /// Total queueing delay experienced by all requests.
    pub fn wait_total(&self) -> Duration {
        self.wait_total
    }

    /// Busy fraction of the window `[0, end]` (grants never overlap,
    /// so busy time is the plain sum of service times).
    pub fn utilization(&self, end: SimTime) -> f64 {
        if end == SimTime::ZERO {
            return 0.0;
        }
        (self.busy_total.min(end - SimTime::ZERO).as_ns() as f64) / end.as_ns() as f64
    }
}

impl Default for SerialResource {
    fn default() -> Self {
        Self::new()
    }
}

/// A shared link with finite bandwidth, modeled as a serial pipe.
///
/// # Examples
///
/// ```
/// use simkit::{BandwidthResource, SimTime};
///
/// let mut pcie = BandwidthResource::new(8_000_000_000); // 8 GB/s
/// let g = pcie.transfer(SimTime::ZERO, 8_000);
/// assert_eq!(g.end.as_ns(), 1_000); // 8 KB at 8 GB/s = 1 us
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthResource {
    bytes_per_sec: u64,
    pipe: SerialResource,
    bytes_moved: u64,
}

impl BandwidthResource {
    /// Creates a link with the given bandwidth in bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn new(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        BandwidthResource {
            bytes_per_sec,
            pipe: SerialResource::new(),
            bytes_moved: 0,
        }
    }

    /// Schedules a transfer of `bytes` arriving at `arrival`.
    pub fn transfer(&mut self, arrival: SimTime, bytes: u64) -> Grant {
        self.bytes_moved += bytes;
        let service = Duration::from_bytes_at_bandwidth(bytes, self.bytes_per_sec);
        self.pipe.acquire(arrival, service)
    }

    /// Link bandwidth in bytes/second.
    pub fn bandwidth(&self) -> u64 {
        self.bytes_per_sec
    }

    /// Total bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Number of transfers served.
    pub fn served(&self) -> u64 {
        self.pipe.served()
    }

    /// Total busy time.
    pub fn busy_total(&self) -> Duration {
        self.pipe.busy_total()
    }

    /// Busy fraction of the window `[0, end]`.
    pub fn utilization(&self, end: SimTime) -> f64 {
        self.pipe.utilization(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_fcfs_queueing() {
        let mut r = SerialResource::new();
        let g1 = r.acquire(SimTime::from_ns(0), Duration::from_ns(10));
        let g2 = r.acquire(SimTime::from_ns(2), Duration::from_ns(10));
        let g3 = r.acquire(SimTime::from_ns(50), Duration::from_ns(10));
        assert_eq!((g1.start.as_ns(), g1.end.as_ns()), (0, 10));
        assert_eq!((g2.start.as_ns(), g2.end.as_ns()), (10, 20));
        assert_eq!((g3.start.as_ns(), g3.end.as_ns()), (50, 60)); // idle gap
        assert_eq!(g2.wait(SimTime::from_ns(2)), Duration::from_ns(8));
        assert_eq!(r.served(), 3);
        assert_eq!(r.busy_total(), Duration::from_ns(30));
        assert_eq!(r.wait_total(), Duration::from_ns(8));
    }

    #[test]
    fn serial_utilization() {
        let mut r = SerialResource::new();
        r.acquire(SimTime::ZERO, Duration::from_ns(25));
        let u = r.utilization(SimTime::from_ns(100));
        assert!((u - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_transfer_time() {
        let mut link = BandwidthResource::new(1_000_000_000); // 1 GB/s
        let g = link.transfer(SimTime::ZERO, 1_000);
        assert_eq!(g.end.as_ns(), 1_000);
        assert_eq!(link.bytes_moved(), 1_000);
        assert_eq!(link.served(), 1);
        assert_eq!(link.bandwidth(), 1_000_000_000);
    }

    #[test]
    fn bandwidth_serializes_contention() {
        let mut link = BandwidthResource::new(1_000_000_000);
        let g1 = link.transfer(SimTime::ZERO, 500);
        let g2 = link.transfer(SimTime::ZERO, 500);
        assert_eq!(g1.end.as_ns(), 500);
        assert_eq!(g2.start.as_ns(), 500);
        assert_eq!(g2.end.as_ns(), 1_000);
        assert_eq!(link.busy_total(), Duration::from_ns(1_000));
    }

    #[test]
    fn idle_check() {
        let mut r = SerialResource::new();
        assert!(r.is_idle_at(SimTime::ZERO));
        r.acquire(SimTime::ZERO, Duration::from_ns(10));
        assert!(!r.is_idle_at(SimTime::from_ns(5)));
        assert!(r.is_idle_at(SimTime::from_ns(10)));
        assert_eq!(r.next_free(), SimTime::from_ns(10));
    }
}
