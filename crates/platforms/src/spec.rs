//! Platform definitions (paper §VII-A).
//!
//! The evaluation compares eight systems: the CPU-centric baseline, the
//! two prior ISC designs (SmartSage, GList), and the BeaconGNN ablation
//! chain BG-1 → BG-DG → BG-SP → BG-DGSP → BG-2. All eight run through
//! one engine, differentiated only by the feature flags in
//! [`PlatformSpec`] — exactly the paper's ablation methodology.

use std::fmt;

/// Where neighbor sampling executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplingLocation {
    /// Host CPU samples over pages shipped through PCIe.
    HostCpu,
    /// SSD firmware samples over pages staged in SSD DRAM.
    Firmware,
    /// Die-level samplers sample in the flash control layer (§V-A).
    Die,
}

/// What crosses the flash channel per visited node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferGranularity {
    /// Whole flash pages (conventional SSDs — Challenge 2).
    Page,
    /// Only sampled commands + feature bytes (die-level sampling).
    Useful,
}

/// Who shepherds backend flash I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendControl {
    /// Firmware threads on the embedded cores (Challenge 3).
    Firmware,
    /// The hardware command router of §V-B (BG-2).
    HardwareRouter,
}

/// Where GNN computation executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeLocation {
    /// Discrete PCIe accelerator (TPU-class), features cross PCIe.
    DiscreteAccel,
    /// The bus-attached SSD-internal spatial accelerator (§V-C).
    SsdAccel,
}

/// The eight evaluated systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// CPU-centric baseline: host sampling, discrete accelerator.
    Cc,
    /// SmartSage: in-SSD firmware sampling, host-side compute.
    SmartSage,
    /// GList: host sampling, in-SSD feature lookup + compute.
    Glist,
    /// BeaconGNN-1.0: GList + SmartSage combined (full offload, no
    /// further optimization).
    Bg1,
    /// BG-1 + DirectGraph (out-of-order sampling, no host translation).
    BgDg,
    /// BG-1 + die-level samplers (useful-bytes channel transfer).
    BgSp,
    /// BG-DG + BG-SP combined.
    BgDgsp,
    /// BeaconGNN-2.0: BG-DGSP + hardware command routing.
    Bg2,
}

impl Platform {
    /// All platforms in the paper's presentation order.
    pub const ALL: [Platform; 8] = [
        Platform::Cc,
        Platform::SmartSage,
        Platform::Glist,
        Platform::Bg1,
        Platform::BgDg,
        Platform::BgSp,
        Platform::BgDgsp,
        Platform::Bg2,
    ];

    /// The BeaconGNN ablation chain (Fig 14's BG-X bars).
    pub const BG_CHAIN: [Platform; 5] = [
        Platform::Bg1,
        Platform::BgDg,
        Platform::BgSp,
        Platform::BgDgsp,
        Platform::Bg2,
    ];

    /// The platform's feature specification.
    pub fn spec(self) -> PlatformSpec {
        match self {
            Platform::Cc => PlatformSpec {
                name: "CC",
                hop_barrier: true,
                direct_graph: false,
                sampling: SamplingLocation::HostCpu,
                transfer: TransferGranularity::Page,
                backend_control: BackendControl::Firmware,
                compute: ComputeLocation::DiscreteAccel,
                features_cross_pcie: true,
                host_feature_lookup: true,
            },
            Platform::SmartSage => PlatformSpec {
                name: "SmartSage",
                hop_barrier: true,
                direct_graph: false,
                sampling: SamplingLocation::Firmware,
                transfer: TransferGranularity::Page,
                backend_control: BackendControl::Firmware,
                compute: ComputeLocation::DiscreteAccel,
                features_cross_pcie: true,
                host_feature_lookup: true,
            },
            Platform::Glist => PlatformSpec {
                name: "GList",
                hop_barrier: true,
                direct_graph: false,
                sampling: SamplingLocation::HostCpu,
                transfer: TransferGranularity::Page,
                backend_control: BackendControl::Firmware,
                compute: ComputeLocation::SsdAccel,
                features_cross_pcie: false,
                host_feature_lookup: false,
            },
            Platform::Bg1 => PlatformSpec {
                name: "BG-1",
                hop_barrier: true,
                direct_graph: false,
                sampling: SamplingLocation::Firmware,
                transfer: TransferGranularity::Page,
                backend_control: BackendControl::Firmware,
                compute: ComputeLocation::SsdAccel,
                features_cross_pcie: false,
                host_feature_lookup: false,
            },
            Platform::BgDg => PlatformSpec {
                name: "BG-DG",
                hop_barrier: false,
                direct_graph: true,
                sampling: SamplingLocation::Firmware,
                transfer: TransferGranularity::Page,
                backend_control: BackendControl::Firmware,
                compute: ComputeLocation::SsdAccel,
                features_cross_pcie: false,
                host_feature_lookup: false,
            },
            Platform::BgSp => PlatformSpec {
                name: "BG-SP",
                hop_barrier: true,
                direct_graph: false,
                sampling: SamplingLocation::Die,
                transfer: TransferGranularity::Useful,
                backend_control: BackendControl::Firmware,
                compute: ComputeLocation::SsdAccel,
                features_cross_pcie: false,
                host_feature_lookup: false,
            },
            Platform::BgDgsp => PlatformSpec {
                name: "BG-DGSP",
                hop_barrier: false,
                direct_graph: true,
                sampling: SamplingLocation::Die,
                transfer: TransferGranularity::Useful,
                backend_control: BackendControl::Firmware,
                compute: ComputeLocation::SsdAccel,
                features_cross_pcie: false,
                host_feature_lookup: false,
            },
            Platform::Bg2 => PlatformSpec {
                name: "BG-2",
                hop_barrier: false,
                direct_graph: true,
                sampling: SamplingLocation::Die,
                transfer: TransferGranularity::Useful,
                backend_control: BackendControl::HardwareRouter,
                compute: ComputeLocation::SsdAccel,
                features_cross_pcie: false,
                host_feature_lookup: false,
            },
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        self.spec().name
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The feature flags that define a platform in the unified engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlatformSpec {
    /// Display name.
    pub name: &'static str,
    /// Hops serialize with a host round-trip between them (Challenge 1).
    pub hop_barrier: bool,
    /// Uses DirectGraph addressing (no per-node host/FTL translation).
    pub direct_graph: bool,
    /// Where sampling runs.
    pub sampling: SamplingLocation,
    /// What crosses the channel.
    pub transfer: TransferGranularity,
    /// Who controls the backend.
    pub backend_control: BackendControl,
    /// Where computation runs.
    pub compute: ComputeLocation,
    /// Whether feature vectors must cross PCIe to reach the compute
    /// engine.
    pub features_cross_pcie: bool,
    /// Whether the *host* performs feature-table lookup (CC and
    /// SmartSage): every visited node costs an extra host-issued
    /// feature-page read whose page crosses PCIe. GList's headline
    /// optimization — and half of BG-1's full-stage offload — is
    /// removing exactly this.
    pub host_feature_lookup: bool,
}

impl PlatformSpec {
    /// Whether the pipeline is channel-separable: the hardware router
    /// controls the backend, sampling happens on the dies, only useful
    /// bytes cross the channel, and neither the host nor a hop barrier
    /// sits in the command path — so a command's whole lifetime touches
    /// one channel's resources. Exactly BG-2 in the paper's lineup.
    /// This is the precondition for both the partitioned per-channel
    /// engine and the multi-SSD array replay.
    pub fn channel_separable(&self) -> bool {
        self.backend_control == BackendControl::HardwareRouter
            && self.sampling == SamplingLocation::Die
            && self.transfer == TransferGranularity::Useful
            && !self.hop_barrier
            && !self.features_cross_pcie
            && !self.host_feature_lookup
    }

    /// The accelerator the platform computes on.
    pub fn accel_config(&self) -> beacon_accel::AcceleratorConfig {
        match self.compute {
            ComputeLocation::DiscreteAccel => beacon_accel::AcceleratorConfig::discrete_tpu(),
            ComputeLocation::SsdAccel => beacon_accel::AcceleratorConfig::ssd_internal(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bg2_is_fully_optimized() {
        let s = Platform::Bg2.spec();
        assert!(!s.hop_barrier);
        assert!(s.direct_graph);
        assert_eq!(s.sampling, SamplingLocation::Die);
        assert_eq!(s.transfer, TransferGranularity::Useful);
        assert_eq!(s.backend_control, BackendControl::HardwareRouter);
        assert_eq!(s.compute, ComputeLocation::SsdAccel);
        assert!(!s.features_cross_pcie);
    }

    #[test]
    fn ablation_chain_differs_stepwise() {
        // BG-DG = BG-1 + DirectGraph only.
        let bg1 = Platform::Bg1.spec();
        let bgdg = Platform::BgDg.spec();
        assert!(bg1.hop_barrier && !bgdg.hop_barrier);
        assert_eq!(bg1.transfer, bgdg.transfer);
        // BG-SP = BG-1 + die samplers only.
        let bgsp = Platform::BgSp.spec();
        assert!(bgsp.hop_barrier);
        assert_eq!(bgsp.sampling, SamplingLocation::Die);
        // BG-DGSP combines both; BG-2 adds the router.
        let dgsp = Platform::BgDgsp.spec();
        assert_eq!(dgsp.backend_control, BackendControl::Firmware);
        assert_eq!(
            Platform::Bg2.spec().backend_control,
            BackendControl::HardwareRouter
        );
    }

    #[test]
    fn prior_work_shapes() {
        // SmartSage offloads sampling, computes off-device.
        let ss = Platform::SmartSage.spec();
        assert_eq!(ss.sampling, SamplingLocation::Firmware);
        assert_eq!(ss.compute, ComputeLocation::DiscreteAccel);
        assert!(ss.features_cross_pcie);
        // GList offloads feature lookup + compute, samples on host.
        let gl = Platform::Glist.spec();
        assert_eq!(gl.sampling, SamplingLocation::HostCpu);
        assert_eq!(gl.compute, ComputeLocation::SsdAccel);
        assert!(!gl.features_cross_pcie);
    }

    #[test]
    fn names_and_order() {
        let names: Vec<&str> = Platform::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "CC",
                "SmartSage",
                "GList",
                "BG-1",
                "BG-DG",
                "BG-SP",
                "BG-DGSP",
                "BG-2"
            ]
        );
        assert_eq!(Platform::Bg2.to_string(), "BG-2");
    }
}
