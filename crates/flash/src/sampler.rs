//! The die-level sampler (paper §V-A, Figs 10–11).
//!
//! BeaconGNN places sampling logic in each flash die's control layer so
//! that only *useful* bytes — sampled-neighbor commands and feature
//! vectors — cross the channel, instead of whole pages. The
//! microarchitecture has four components, all modeled here functionally:
//!
//! * **section iterator** — walks the page in the cache register to the
//!   target section (implemented by
//!   [`PageStore::parse_section`](directgraph::PageStore::parse_section));
//! * **vector retriever** — copies the feature vector from the cache
//!   register to the data register (modeled as the returned feature
//!   bytes);
//! * **node sampler** — draws neighbor indices with the on-die TRNG via
//!   a modulo (here: multiply-shift) reduction. For a *primary* section
//!   it samples over the node's **entire** neighbor range; hits inside
//!   the page become direct neighbor commands, hits in overflow ranges
//!   become per-secondary-section resolution commands (coalesced so a
//!   secondary page is read once);
//! * **command generator** — emits the new sampling commands into the
//!   data register for the channel-level router.
//!
//! The final hop performs feature retrieval only — no further commands.

use beacon_graph::NodeId;
use directgraph::layout::secondary_capacity;
use directgraph::{PageStore, PhysAddr, SectionParseError, SectionView};
use simkit::Xoshiro256StarStar;

/// Serialized size of one sampling command on the channel, in bytes
/// (matches [`crate::onfi`]'s encoding).
pub const SAMPLE_CMD_BYTES: usize = 16;
/// Per-result framing overhead on the channel, in bytes.
pub const RESULT_HEADER_BYTES: usize = 8;

/// Global GNN configuration, set once per die before a task begins
/// (paper Fig 13's global-configuration command).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GnnDieConfig {
    /// Number of sampling hops (`k`; the paper's model uses 3).
    pub num_hops: u8,
    /// Neighbors sampled per node per hop (the paper's model uses 3).
    pub fanout: u16,
    /// Feature-vector length in bytes.
    pub feature_bytes: u16,
}

impl GnnDieConfig {
    /// The paper's evaluation model: 3 hops × 3 samples.
    pub fn paper_default(feature_bytes: u16) -> Self {
        GnnDieConfig {
            num_hops: 3,
            fanout: 3,
            feature_bytes,
        }
    }

    /// Expected subgraph size per target: `sum_{i=0..=k} fanout^i`.
    pub fn subgraph_nodes(&self) -> u64 {
        let mut total = 0u64;
        let mut level = 1u64;
        for _ in 0..=self.num_hops {
            total += level;
            level *= self.fanout as u64;
        }
        total
    }
}

/// One sampling command (paper Fig 13's runtime sampling command):
/// target section address plus hop id, sampling count, and subgraph
/// reconstruction metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleCommand {
    /// Section to read and sample from.
    pub target: PhysAddr,
    /// Hop id of the node being visited (0 = mini-batch target).
    pub hop: u8,
    /// Sampling count: 0 means "use the configured fanout"; nonzero is a
    /// coalesced count for secondary-section resolution.
    pub count: u16,
    /// Which subgraph (batch slot) this command belongs to.
    pub subgraph: u32,
    /// Node id of the sampling parent (`u32::MAX` for roots).
    pub parent: u32,
}

impl SampleCommand {
    /// Marker parent value for mini-batch targets.
    pub const NO_PARENT: u32 = u32::MAX;

    /// The command the controller issues for a mini-batch target node.
    pub fn root(target: PhysAddr, subgraph: u32) -> Self {
        SampleCommand {
            target,
            hop: 0,
            count: 0,
            subgraph,
            parent: Self::NO_PARENT,
        }
    }
}

/// The result of executing one sampling command on a die.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleOutcome {
    /// The node visited, when the command addressed a primary section
    /// (it joins the subgraph and its feature is retrieved).
    pub visited: Option<NodeId>,
    /// Feature bytes placed in the data register (0 for secondary
    /// sections).
    pub feature_bytes: usize,
    /// Newly generated sampling commands.
    pub new_commands: Vec<SampleCommand>,
}

impl SampleOutcome {
    /// Bytes this result occupies on the channel: framing + feature +
    /// encoded new commands. This is the die-sampler's whole point —
    /// compare with a full page transfer.
    pub fn result_bytes(&self) -> usize {
        RESULT_HEADER_BYTES + self.feature_bytes + self.new_commands.len() * SAMPLE_CMD_BYTES
    }
}

/// Why a sampling command failed on-die.
///
/// Per §VI-E, the sampler stops immediately and returns control to the
/// firmware when a section is missing or has the wrong type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplerError {
    /// The target section failed to parse.
    Section(SectionParseError),
    /// A secondary-resolution command addressed a primary section or
    /// vice versa is impossible by construction; this covers a root /
    /// child command landing on a secondary section unexpectedly.
    WrongSectionKind { target: PhysAddr },
}

impl std::fmt::Display for SamplerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SamplerError::Section(e) => write!(f, "section error: {e}"),
            SamplerError::WrongSectionKind { target } => {
                write!(f, "command targeted wrong section kind at {target}")
            }
        }
    }
}

impl std::error::Error for SamplerError {}

impl From<SectionParseError> for SamplerError {
    fn from(e: SectionParseError) -> Self {
        SamplerError::Section(e)
    }
}

/// The functional model of one die's sampler logic.
///
/// Each die owns a TRNG (paper Fig 10); we model its *distribution*
/// with a xoshiro256** stream. Draws are **command-content-keyed**: the
/// stream for one command is derived from the run seed and the
/// command's own fields (see [`draw_stream_seed`]), never from the
/// order commands happen to reach the die. That makes the sampled
/// cascade a pure function of (graph image, mini-batches, model
/// configuration, run seed) — independent of device timing, geometry,
/// and platform wiring — which is what lets one recorded cascade be
/// replayed byte-identically under any re-timing (see
/// `beacon_platforms::replay`).
#[derive(Debug, Clone)]
pub struct DieSampler {
    config: GnnDieConfig,
    seed: u64,
    executed: u64,
    /// Reusable `(secondary index, coalesced count)` scratch for
    /// overflow-hit coalescing, so the hot path allocates nothing in
    /// steady state. Always left empty between commands.
    coalesce: Vec<(usize, u16)>,
}

/// The draw-stream seed for one command: a full-avalanche mix of the
/// run seed and the command's content. Two commands with identical
/// content share a stream (they sample the same realization); any field
/// difference yields a statistically independent stream.
#[inline]
pub fn draw_stream_seed(seed: u64, cmd: &SampleCommand) -> u64 {
    use simkit::rng::mix64;
    let lo = (cmd.hop as u64) | ((cmd.count as u64) << 8) | ((cmd.subgraph as u64) << 24);
    mix64(mix64(seed ^ mix64(cmd.target.to_raw() as u64)) ^ lo ^ ((cmd.parent as u64) << 32))
}

impl DieSampler {
    /// Creates a sampler with the given global configuration and draw
    /// seed. Samplers with the same seed produce identical outcomes for
    /// identical commands regardless of which die they model — per-die
    /// streams come from the command content, not the constructor.
    pub fn new(config: GnnDieConfig, seed: u64) -> Self {
        DieSampler {
            config,
            seed,
            executed: 0,
            coalesce: Vec::new(),
        }
    }

    /// The configured global parameters.
    pub fn config(&self) -> GnnDieConfig {
        self.config
    }

    /// Reconfigures the die (the global GNN configuration command).
    pub fn configure(&mut self, config: GnnDieConfig) {
        self.config = config;
    }

    /// Number of sampling commands executed.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Executes one sampling command against the flash image.
    ///
    /// Convenience wrapper over [`DieSampler::execute_into`] that
    /// returns a freshly allocated outcome. Hot paths should prefer
    /// `execute_into` with a pooled outcome so the child-command vector
    /// is reused across commands.
    ///
    /// # Errors
    ///
    /// Returns [`SamplerError`] when the section is missing or malformed
    /// (the §VI-E on-die runtime check).
    pub fn execute(
        &mut self,
        cmd: &SampleCommand,
        store: &PageStore,
    ) -> Result<SampleOutcome, SamplerError> {
        let mut out = SampleOutcome {
            visited: None,
            feature_bytes: 0,
            new_commands: Vec::new(),
        };
        self.execute_into(cmd, store, &mut out)?;
        Ok(out)
    }

    /// Executes one sampling command, writing the result into `out`
    /// (cleared first; its `new_commands` allocation is reused).
    ///
    /// On error `out` is left cleared — no visit, no feature bytes, no
    /// child commands — which is exactly the §VI-E abort semantics: the
    /// command's subtree is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`SamplerError`] when the section is missing or malformed
    /// (the §VI-E on-die runtime check).
    pub fn execute_into(
        &mut self,
        cmd: &SampleCommand,
        store: &PageStore,
        out: &mut SampleOutcome,
    ) -> Result<(), SamplerError> {
        out.visited = None;
        out.feature_bytes = 0;
        out.new_commands.clear();
        self.executed += 1;
        let mut trng = Xoshiro256StarStar::seeded(draw_stream_seed(self.seed, cmd));
        let section = store.parse_section_view(cmd.target)?;
        match section {
            SectionView::Primary(p) => {
                out.visited = Some(p.node);
                out.feature_bytes = p.feature().len();
                if cmd.hop >= self.config.num_hops {
                    return Ok(()); // final hop: feature retrieval only
                }
                let total = p.total_neighbors as u64;
                if total == 0 {
                    return Ok(());
                }
                let fanout = if cmd.count == 0 {
                    self.config.fanout
                } else {
                    cmd.count
                };
                let inline = p.inline_count() as u64;
                let sec_cap = secondary_capacity(store.layout().page_size()) as u64;
                // Coalesce overflow hits per secondary section so each
                // secondary page is read once (paper §V-A). The scratch
                // is tiny (≤ fanout entries), so linear-probe accumulate
                // plus one sort beats a per-command tree allocation.
                debug_assert!(self.coalesce.is_empty());
                for _ in 0..fanout {
                    let r = trng.next_bounded(total);
                    if r < inline {
                        out.new_commands.push(SampleCommand {
                            target: p.inline_neighbor(r as usize),
                            hop: cmd.hop + 1,
                            count: 0,
                            subgraph: cmd.subgraph,
                            parent: p.node.as_u32(),
                        });
                    } else {
                        let j = ((r - inline) / sec_cap) as usize;
                        match self.coalesce.iter_mut().find(|(k, _)| *k == j) {
                            Some((_, c)) => *c += 1,
                            None => self.coalesce.push((j, 1)),
                        }
                    }
                }
                // Ascending secondary index, matching the ordered-map
                // iteration the engine's determinism contract relies on.
                self.coalesce.sort_unstable_by_key(|&(j, _)| j);
                for &(j, count) in &self.coalesce {
                    out.new_commands.push(SampleCommand {
                        target: p.secondary_addr(j),
                        hop: cmd.hop,
                        count,
                        subgraph: cmd.subgraph,
                        parent: p.node.as_u32(),
                    });
                }
                self.coalesce.clear();
                Ok(())
            }
            SectionView::Secondary(s) => {
                if cmd.count == 0 {
                    // A fanout-style command must target a primary section.
                    return Err(SamplerError::WrongSectionKind { target: cmd.target });
                }
                let n = s.num_neighbors() as u64;
                if n == 0 {
                    return Ok(());
                }
                for _ in 0..cmd.count {
                    let idx = trng.next_bounded(n) as usize;
                    out.new_commands.push(SampleCommand {
                        target: s.neighbor(idx),
                        hop: cmd.hop + 1,
                        count: 0,
                        subgraph: cmd.subgraph,
                        parent: s.node.as_u32(),
                    });
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_graph::{generate, FeatureTable};
    use directgraph::{build::DirectGraphBuilder, AddrLayout, DirectGraph};

    fn build(avg_deg: f64, feat_dim: usize, n: usize) -> DirectGraph {
        let cfg = generate::PowerLawConfig::new(n, avg_deg);
        let graph = generate::power_law(&cfg, 3);
        let features = FeatureTable::synthetic(n, feat_dim, 3);
        DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
            .build(&graph, &features)
            .unwrap()
    }

    fn feature_bytes(dim: usize) -> u16 {
        (dim * 2) as u16
    }

    #[test]
    fn subgraph_size_formula() {
        let cfg = GnnDieConfig::paper_default(256);
        // 1 + 3 + 9 + 27 = 40 — the paper's "total of 40 nodes".
        assert_eq!(cfg.subgraph_nodes(), 40);
    }

    #[test]
    fn root_samples_fanout_children() {
        let dg = build(20.0, 16, 400);
        let cfg = GnnDieConfig::paper_default(feature_bytes(16));
        let mut sampler = DieSampler::new(cfg, 1);
        let cmd = SampleCommand::root(dg.directory().primary_addr(NodeId::new(0)).unwrap(), 0);
        let out = sampler.execute(&cmd, dg.image()).unwrap();
        assert_eq!(out.visited, Some(NodeId::new(0)));
        assert_eq!(out.feature_bytes, 32);
        // With everything inline, exactly `fanout` child commands.
        assert_eq!(out.new_commands.len(), 3);
        for c in &out.new_commands {
            assert_eq!(c.hop, 1);
            assert_eq!(c.parent, 0);
            assert_eq!(c.subgraph, 0);
        }
        assert_eq!(sampler.executed(), 1);
    }

    #[test]
    fn final_hop_is_feature_only() {
        let dg = build(10.0, 16, 200);
        let cfg = GnnDieConfig::paper_default(feature_bytes(16));
        let mut sampler = DieSampler::new(cfg, 2);
        let mut cmd = SampleCommand::root(dg.directory().primary_addr(NodeId::new(5)).unwrap(), 0);
        cmd.hop = cfg.num_hops; // leaf
        let out = sampler.execute(&cmd, dg.image()).unwrap();
        assert!(out.new_commands.is_empty());
        assert_eq!(out.feature_bytes, 32);
    }

    #[test]
    fn overflow_sampling_coalesces_per_secondary() {
        // Force many secondary sections: degree >> page capacity.
        let dg = build(900.0, 600, 200);
        let cfg = GnnDieConfig {
            num_hops: 3,
            fanout: 64,
            feature_bytes: 1200,
        };
        let mut sampler = DieSampler::new(cfg, 7);
        // Find a node with secondaries.
        let mut found = false;
        for v in 0..200u32 {
            let addr = dg.directory().primary_addr(NodeId::new(v)).unwrap();
            let p = dg.image().parse_section(addr).unwrap();
            let p = p.as_primary().unwrap().clone();
            if p.secondary_addrs.is_empty() {
                continue;
            }
            found = true;
            let cmd = SampleCommand::root(addr, 0);
            let out = sampler.execute(&cmd, dg.image()).unwrap();
            // Coalescing: at most one command per distinct secondary.
            let sec_targets: Vec<_> = out
                .new_commands
                .iter()
                .filter(|c| c.count > 0)
                .map(|c| c.target)
                .collect();
            let mut dedup = sec_targets.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(
                sec_targets.len(),
                dedup.len(),
                "secondary commands must coalesce"
            );
            // Total sampled = fanout.
            let total: u32 = out
                .new_commands
                .iter()
                .map(|c| if c.count == 0 { 1 } else { c.count as u32 })
                .sum();
            assert_eq!(total, 64);
            // Resolve one secondary command and check children.
            if let Some(sc) = out.new_commands.iter().find(|c| c.count > 0) {
                let res = sampler.execute(sc, dg.image()).unwrap();
                assert_eq!(res.visited, None);
                assert_eq!(res.feature_bytes, 0);
                assert_eq!(res.new_commands.len(), sc.count as usize);
                for c in &res.new_commands {
                    assert_eq!(c.hop, sc.hop + 1);
                    assert_eq!(c.parent, v);
                }
            }
            break;
        }
        assert!(found, "test graph should have overflow nodes");
    }

    #[test]
    fn sampled_children_are_true_neighbors() {
        let n = 300;
        let cfg_g = generate::PowerLawConfig::new(n, 25.0);
        let graph = generate::power_law(&cfg_g, 9);
        let features = FeatureTable::synthetic(n, 8, 9);
        let dg = DirectGraphBuilder::new(AddrLayout::for_page_size(4096).unwrap())
            .build(&graph, &features)
            .unwrap();
        let cfg = GnnDieConfig::paper_default(16);
        let mut sampler = DieSampler::new(cfg, 11);
        for v in graph.nodes().take(50) {
            let cmd = SampleCommand::root(dg.directory().primary_addr(v).unwrap(), 0);
            let out = sampler.execute(&cmd, dg.image()).unwrap();
            for c in out.new_commands.iter().filter(|c| c.count == 0) {
                let child = dg.image().parse_section(c.target).unwrap().node();
                assert!(graph.has_edge(v, child), "{child} is not a neighbor of {v}");
            }
        }
    }

    #[test]
    fn result_bytes_far_below_page_size() {
        let dg = build(30.0, 64, 300);
        let cfg = GnnDieConfig::paper_default(128);
        let mut sampler = DieSampler::new(cfg, 5);
        let cmd = SampleCommand::root(dg.directory().primary_addr(NodeId::new(1)).unwrap(), 0);
        let out = sampler.execute(&cmd, dg.image()).unwrap();
        assert!(
            out.result_bytes() < 4096 / 4,
            "result {} B",
            out.result_bytes()
        );
    }

    #[test]
    fn deterministic_with_same_seed() {
        let dg = build(20.0, 16, 300);
        let cfg = GnnDieConfig::paper_default(32);
        let cmd = SampleCommand::root(dg.directory().primary_addr(NodeId::new(2)).unwrap(), 0);
        let a = DieSampler::new(cfg, 3).execute(&cmd, dg.image()).unwrap();
        let b = DieSampler::new(cfg, 3).execute(&cmd, dg.image()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn execute_into_matches_execute_with_reused_buffer() {
        let dg = build(25.0, 16, 300);
        let cfg = GnnDieConfig::paper_default(32);
        let mut fresh_sampler = DieSampler::new(cfg, 3);
        let mut pooled_sampler = DieSampler::new(cfg, 3);
        let mut out = SampleOutcome {
            visited: Some(NodeId::new(99)), // stale garbage, must be cleared
            feature_bytes: 777,
            new_commands: vec![SampleCommand::root(
                dg.directory().primary_addr(NodeId::new(0)).unwrap(),
                9,
            )],
        };
        for v in 0..30u32 {
            let cmd = SampleCommand::root(dg.directory().primary_addr(NodeId::new(v)).unwrap(), 0);
            let fresh = fresh_sampler.execute(&cmd, dg.image()).unwrap();
            pooled_sampler
                .execute_into(&cmd, dg.image(), &mut out)
                .unwrap();
            assert_eq!(out, fresh, "pooled outcome diverged at node {v}");
        }
        assert_eq!(fresh_sampler.executed(), pooled_sampler.executed());
    }

    #[test]
    fn execute_into_clears_outcome_on_error() {
        let dg = build(900.0, 600, 100);
        let mut sec_addr = None;
        for v in 0..100u32 {
            let addr = dg.directory().primary_addr(NodeId::new(v)).unwrap();
            let p = dg.image().parse_section(addr).unwrap();
            if let Some(a) = p.as_primary().unwrap().secondary_addrs.first() {
                sec_addr = Some(*a);
                break;
            }
        }
        let sec_addr = sec_addr.expect("graph should have secondaries");
        let mut sampler = DieSampler::new(GnnDieConfig::paper_default(1200), 1);
        let mut out = SampleOutcome {
            visited: Some(NodeId::new(1)),
            feature_bytes: 5,
            new_commands: vec![SampleCommand::root(sec_addr, 0)],
        };
        let err = sampler
            .execute_into(&SampleCommand::root(sec_addr, 0), dg.image(), &mut out)
            .unwrap_err();
        assert!(matches!(err, SamplerError::WrongSectionKind { .. }));
        // §VI-E abort: the outcome carries nothing.
        assert_eq!(out.visited, None);
        assert_eq!(out.feature_bytes, 0);
        assert!(out.new_commands.is_empty());
    }

    #[test]
    fn wrong_kind_stops_sampler() {
        let dg = build(900.0, 600, 100);
        // Find a secondary address and send a fanout-style (count=0)
        // command at it.
        let mut sec_addr = None;
        for v in 0..100u32 {
            let addr = dg.directory().primary_addr(NodeId::new(v)).unwrap();
            let p = dg.image().parse_section(addr).unwrap();
            if let Some(a) = p.as_primary().unwrap().secondary_addrs.first() {
                sec_addr = Some(*a);
                break;
            }
        }
        let sec_addr = sec_addr.expect("graph should have secondaries");
        let cfg = GnnDieConfig::paper_default(1200);
        let mut sampler = DieSampler::new(cfg, 1);
        let cmd = SampleCommand::root(sec_addr, 0);
        let err = sampler.execute(&cmd, dg.image()).unwrap_err();
        assert!(matches!(err, SamplerError::WrongSectionKind { .. }));
    }

    #[test]
    fn reconfigure_changes_behaviour() {
        let dg = build(20.0, 16, 200);
        let mut sampler = DieSampler::new(GnnDieConfig::paper_default(32), 4);
        sampler.configure(GnnDieConfig {
            num_hops: 1,
            fanout: 5,
            feature_bytes: 32,
        });
        assert_eq!(sampler.config().fanout, 5);
        let cmd = SampleCommand::root(dg.directory().primary_addr(NodeId::new(0)).unwrap(), 0);
        let out = sampler.execute(&cmd, dg.image()).unwrap();
        assert_eq!(out.new_commands.len(), 5);
    }
}
