//! Storage-inflation accounting (paper Table IV, §VII-F).
//!
//! Converting a raw dataset (CSR neighbor lists + feature table) into
//! DirectGraph inflates storage because pages are the allocation unit:
//! fragmentation, section headers, and — for graphs with short sections —
//! the in-page slot-index capacity leave page bytes unused. The paper
//! reports 2.8–4.1% inflation for four workloads and 32.3% for OGBN,
//! whose low average degree (28) yields mostly short sections.

use std::fmt;

/// The inflation report for one converted dataset.
///
/// # Examples
///
/// ```
/// use directgraph::InflationReport;
/// let r = InflationReport::new(1_000, 1_100, 1_050);
/// assert!((r.inflation_ratio() - 0.10).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InflationReport {
    raw_bytes: u64,
    stored_bytes: u64,
    used_bytes: u64,
}

impl InflationReport {
    /// Creates a report from raw dataset size, total flash bytes
    /// allocated (pages × page size), and section payload bytes used.
    pub fn new(raw_bytes: u64, stored_bytes: u64, used_bytes: u64) -> Self {
        InflationReport {
            raw_bytes,
            stored_bytes,
            used_bytes,
        }
    }

    /// Raw (pre-conversion) dataset bytes.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// Flash bytes allocated to the DirectGraph image.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// Section payload bytes actually used within allocated pages.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// The Table IV "inflate ratio": extra storage relative to raw
    /// (`stored/raw - 1`).
    pub fn inflation_ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            return 0.0;
        }
        self.stored_bytes as f64 / self.raw_bytes as f64 - 1.0
    }

    /// Fraction of allocated page bytes holding section payload.
    pub fn page_utilization(&self) -> f64 {
        if self.stored_bytes == 0 {
            return 0.0;
        }
        self.used_bytes as f64 / self.stored_bytes as f64
    }
}

impl fmt::Display for InflationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "raw {} B -> stored {} B (inflation {:.1}%, page utilization {:.1}%)",
            self.raw_bytes,
            self.stored_bytes,
            self.inflation_ratio() * 100.0,
            self.page_utilization() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrLayout;
    use crate::build::DirectGraphBuilder;
    use beacon_graph::{Dataset, DatasetSpec};

    fn inflation_for(d: Dataset, n: usize) -> f64 {
        let spec = DatasetSpec::preset(d).at_scale(n);
        let graph = spec.build_graph(11);
        let features = spec.build_features(11);
        let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
            .build(&graph, &features)
            .unwrap();
        dg.inflation(spec.feature_bytes()).inflation_ratio()
    }

    #[test]
    fn ratio_arithmetic() {
        let r = InflationReport::new(100, 125, 110);
        assert!((r.inflation_ratio() - 0.25).abs() < 1e-12);
        assert!((r.page_utilization() - 0.88).abs() < 1e-12);
        assert_eq!(r.raw_bytes(), 100);
        assert_eq!(r.stored_bytes(), 125);
        assert_eq!(r.used_bytes(), 110);
    }

    #[test]
    fn zero_raw_is_not_a_division_error() {
        let r = InflationReport::new(0, 0, 0);
        assert_eq!(r.inflation_ratio(), 0.0);
        assert_eq!(r.page_utilization(), 0.0);
    }

    #[test]
    fn display_is_informative() {
        let s = InflationReport::new(100, 125, 110).to_string();
        assert!(s.contains("25.0%"), "{s}");
    }

    #[test]
    fn ogbn_is_the_inflation_outlier() {
        // Table IV's shape: OGBN (short sections) inflates far more than
        // a long-section workload like amazon.
        let ogbn = inflation_for(Dataset::Ogbn, 2_000);
        let amazon = inflation_for(Dataset::Amazon, 2_000);
        assert!(
            ogbn > 2.0 * amazon,
            "OGBN inflation ({ogbn:.3}) should far exceed amazon ({amazon:.3})"
        );
        assert!(
            ogbn > 0.10,
            "OGBN inflation should be substantial, got {ogbn:.3}"
        );
        assert!(
            amazon < 0.15,
            "amazon inflation should be modest, got {amazon:.3}"
        );
    }
}
