//! Workload preparation: graph + features + DirectGraph + mini-batches.
//!
//! The expensive part, the image — the graph and its DirectGraph
//! encoding — depends only on the graph key (dataset, nodes, page size,
//! seed), so every workload over one key can share it, as the paper
//! flashes a dataset once for every mini-batch; the model and batches
//! are drawn per workload in microseconds. A [`Workload`] is then reused
//! across all platforms and sensitivity points — exactly how the paper
//! holds the dataset fixed while sweeping the architecture.
//!
//! A synthetic image's graph and features live once, in the
//! DirectGraph's pages (paper §IV-A, Fig 8): each node's primary section
//! holds its FP-16 feature vector and the flash addresses of its
//! neighbors' primary sections. The encoder draws each node's neighbor
//! list from the generator ([`DatasetSpec::wiring`]) and its feature row
//! as it writes the node's sections, so preparing an image never builds
//! an f32 table or a CSR. Only host code that works on node ids
//! (scaleout's partitioners, the host-side sampler of the functional
//! path) reads the CSR, through [`Workload::graph`], which decodes it
//! from the pages on first use, and only the functional GNN path reads
//! f32 features, through [`Workload::features`], which synthesizes the
//! table on first use.

use std::fmt;
use std::sync::{Arc, OnceLock};

use beacon_gnn::GnnModelConfig;
use beacon_graph::{CsrGraph, Dataset, DatasetSpec, FeatureTable, MinibatchStream, NodeId};
use directgraph::{AddrLayout, BuildError, DirectGraph, DirectGraphBuilder};

/// Failure to prepare a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// DirectGraph construction failed.
    Build(BuildError),
    /// The requested page size has no valid address layout.
    BadPageSize(usize),
    /// A synthetic graph of fewer than two nodes or more than
    /// [`WorkloadBuilder::MAX_NODES`], an empty mini-batch, or more than
    /// [`WorkloadBuilder::MAX_TARGETS`] targets in all: no workload
    /// exists at these sizes.
    BadSize {
        /// Requested synthetic graph nodes.
        nodes: usize,
        /// Requested mini-batch size.
        batch_size: usize,
        /// Requested number of mini-batches.
        batches: usize,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Build(e) => write!(f, "DirectGraph construction failed: {e}"),
            WorkloadError::BadPageSize(s) => write!(f, "unsupported page size {s}"),
            WorkloadError::BadSize {
                nodes,
                batch_size,
                batches,
            } => write!(
                f,
                "cannot build {nodes} nodes in {batches} batches of {batch_size}: \
                 a workload needs at least 2 nodes and at most {}, and a positive \
                 batch size with at most {} targets in all (batch size × batches)",
                WorkloadBuilder::MAX_NODES,
                WorkloadBuilder::MAX_TARGETS,
            ),
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Build(e) => Some(e),
            WorkloadError::BadPageSize(_) | WorkloadError::BadSize { .. } => None,
        }
    }
}

impl From<BuildError> for WorkloadError {
    fn from(e: BuildError) -> Self {
        WorkloadError::Build(e)
    }
}

/// Builder for [`Workload`].
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    dataset: Dataset,
    nodes: usize,
    batch_size: usize,
    batches: usize,
    page_size: usize,
    seed: u64,
    model: Option<GnnModelConfig>,
    custom: Option<(CsrGraph, FeatureTable)>,
}

impl WorkloadBuilder {
    /// The most nodes a synthetic graph can have: node ids are `u32`,
    /// and `u32::MAX` is the sampling cascade's no-node sentinel.
    pub const MAX_NODES: usize = u32::MAX as usize;

    /// The most targets a workload can hold in all (batch size ×
    /// batches): batch slots and latency query ids are `u32`.
    pub const MAX_TARGETS: usize = u32::MAX as usize;

    /// Picks the dataset preset (default: amazon, the paper's
    /// representative workload).
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.dataset = dataset;
        self
    }

    /// Graph scale in nodes (default 10 000).
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Mini-batch size (default 256, the paper's largest sweep point).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Number of mini-batches to run (default 4).
    pub fn batches(mut self, batches: usize) -> Self {
        self.batches = batches;
        self
    }

    /// Flash page size in bytes (default 4096; Fig 18f sweeps 2–16 KB).
    pub fn page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size;
        self
    }

    /// RNG seed for graph/feature synthesis and target selection.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the GNN model (default: the paper's 3 hops × 3 samples
    /// at the dataset's feature dimension).
    pub fn model(mut self, model: GnnModelConfig) -> Self {
        self.model = Some(model);
        self
    }

    /// Uses a caller-supplied graph and feature table instead of
    /// synthesizing one (e.g. loaded with
    /// [`beacon_graph::io::read_edge_list`]). The dataset preset then
    /// only labels the workload; `nodes` is taken from the graph.
    pub fn custom_graph(mut self, graph: CsrGraph, features: FeatureTable) -> Self {
        self.custom = Some((graph, features));
        self
    }

    /// A stable identity string for caching: two builders with the same
    /// fingerprint prepare byte-identical workloads. Builders carrying a
    /// caller-supplied graph have no fingerprint (the graph itself is
    /// the identity, and hashing it would cost more than rebuilding the
    /// image).
    pub(crate) fn fingerprint(&self) -> Option<String> {
        if self.custom.is_some() {
            return None;
        }
        Some(format!(
            "{:?}|n{}|b{}|c{}|p{}|s{}|m{:?}",
            self.dataset,
            self.nodes,
            self.batch_size,
            self.batches,
            self.page_size,
            self.seed,
            self.model,
        ))
    }

    /// The identity of the image: the only inputs its graph, features
    /// and DirectGraph are built from. Builders that differ only in batch
    /// size, batch count or model share it; `None` when the fingerprint is.
    pub(crate) fn graph_key(&self) -> Option<String> {
        if self.custom.is_some() {
            return None;
        }
        let (d, n, p, s) = (self.dataset, self.nodes, self.page_size, self.seed);
        Some(format!("{d:?}|n{n}|p{p}|s{s}"))
    }

    /// Synthesizes the graph, converts it to DirectGraph, and draws the
    /// mini-batch targets.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if the page size is unsupported, a
    /// synthetic graph would have fewer than two nodes or more than
    /// [`MAX_NODES`](Self::MAX_NODES), the batch size is zero, the
    /// batches would hold more than [`MAX_TARGETS`](Self::MAX_TARGETS)
    /// targets, or conversion fails.
    pub fn prepare(mut self) -> Result<Workload, WorkloadError> {
        self.check_sizes()?;
        let fingerprint = self.fingerprint();
        let image = Arc::new(self.image()?);
        Ok(self.shape(image, fingerprint))
    }

    /// Rejects the sizes at which no workload exists, before anything
    /// is allocated. A custom graph's node count is its own.
    pub(crate) fn check_sizes(&self) -> Result<(), WorkloadError> {
        let nodes_ok = self.custom.is_some() || (2..=Self::MAX_NODES).contains(&self.nodes);
        let targets = self.batch_size.checked_mul(self.batches);
        let targets_ok = self.batch_size > 0 && targets.is_some_and(|t| t <= Self::MAX_TARGETS);
        if !(nodes_ok && targets_ok) {
            return Err(WorkloadError::BadSize {
                nodes: self.nodes,
                batch_size: self.batch_size,
                batches: self.batches,
            });
        }
        Ok(())
    }

    /// Builds the image from the graph key's parameters, or over the
    /// caller-supplied graph and features, which it takes. A synthetic
    /// image encodes each node's neighbor list and feature row as it
    /// draws them, so no table or CSR of it ever exists; a custom one
    /// keeps the caller's.
    pub(crate) fn image(&mut self) -> Result<Image, WorkloadError> {
        let layout = AddrLayout::for_page_size(self.page_size)
            .ok_or(WorkloadError::BadPageSize(self.page_size))?;
        let builder = DirectGraphBuilder::new(layout);
        let mut spec = DatasetSpec::preset(self.dataset).at_scale(self.nodes);
        let (graph, features, dg) = match self.custom.take() {
            Some((graph, table)) => {
                spec.num_nodes = graph.num_nodes();
                spec.avg_degree = graph.avg_degree().max(f64::MIN_POSITIVE);
                spec.feature_dim = table.dim();
                let dg = builder.build(&graph, &table)?;
                (OnceLock::from(graph), OnceLock::from(table), dg)
            }
            None => {
                let seed = self.seed;
                let dg = builder.build_with(&spec.wiring(seed), spec.feature_dim, &|v, out| {
                    spec.feature_row(seed, v, out)
                })?;
                (OnceLock::new(), OnceLock::new(), dg)
            }
        };
        Ok(Image {
            spec,
            graph,
            features,
            dg,
        })
    }

    /// The workload over `image`: the model, and the mini-batch targets
    /// drawn from their own stream.
    pub(crate) fn shape(&self, image: Arc<Image>, fingerprint: Option<String>) -> Workload {
        let model = self
            .model
            .unwrap_or_else(|| GnnModelConfig::paper_default(image.spec.feature_dim));
        let nodes = image.dg.directory().len();
        let mut stream = MinibatchStream::new(nodes, self.batch_size, self.seed ^ 0xBA7C);
        let batches = (0..self.batches).map(|_| stream.next_batch()).collect();
        Workload {
            image,
            model,
            batches,
            seed: self.seed,
            fingerprint,
        }
    }
}

/// The part of a workload its graph key determines: the dataset spec
/// and the DirectGraph image, whose pages hold the graph and the
/// features. `graph` is the CSR and `features` the f32 table, each set
/// by a custom graph's caller or on the first [`Workload::graph`] or
/// [`Workload::features`] call.
#[derive(Debug, Clone)]
pub(crate) struct Image {
    pub(crate) spec: DatasetSpec,
    pub(crate) graph: OnceLock<CsrGraph>,
    pub(crate) features: OnceLock<FeatureTable>,
    pub(crate) dg: DirectGraph,
}

/// A fully prepared, platform-independent workload: an image shared by
/// every workload over its graph key, plus its own model and batches.
#[derive(Debug, Clone)]
pub struct Workload {
    image: Arc<Image>,
    model: GnnModelConfig,
    batches: Vec<Vec<NodeId>>,
    seed: u64,
    fingerprint: Option<String>,
}

impl Workload {
    /// Starts building a workload.
    pub fn builder() -> WorkloadBuilder {
        WorkloadBuilder {
            dataset: Dataset::Amazon,
            nodes: 10_000,
            batch_size: 256,
            batches: 4,
            page_size: 4096,
            seed: 1,
            model: None,
            custom: None,
        }
    }

    /// The dataset spec this workload was synthesized from.
    pub fn spec(&self) -> &DatasetSpec {
        &self.image.spec
    }

    /// The CSR graph. A custom graph's is the caller's. A synthetic
    /// image stores its graph only in the DirectGraph pages, so the
    /// first call decodes it ([`DirectGraph::to_csr`]) — equal to
    /// [`DatasetSpec::build_graph`] at this workload's seed — and keeps
    /// it in the image, where every workload sharing the image finds it.
    /// An image that does not decode gets the graph regenerated from the
    /// spec and seed instead: only a damaged cache file that passes its
    /// checksum can be one, and its bytes must not cause a panic.
    pub fn graph(&self) -> &CsrGraph {
        self.image.graph.get_or_init(|| {
            self.image
                .dg
                .to_csr()
                .unwrap_or_else(|_| self.image.spec.build_graph(self.seed))
        })
    }

    /// The f32 feature table the functional GNN path computes on. A
    /// custom graph's is the caller's table. A synthetic image stores
    /// its features only as the DirectGraph's FP-16 vectors, so the
    /// first call synthesizes the table — bit-identical to
    /// [`DatasetSpec::build_features`] at this workload's seed — and
    /// keeps it in the image, where every workload sharing the image
    /// finds it.
    pub fn features(&self) -> &FeatureTable {
        self.image
            .features
            .get_or_init(|| self.image.spec.build_features(self.seed))
    }

    /// The DirectGraph image.
    pub fn directgraph(&self) -> &DirectGraph {
        &self.image.dg
    }

    /// Mutable access to the DirectGraph image, for reliability
    /// operations (scrub re-programs, wear-leveling reclamation) and
    /// fault-injection tests. Copy-on-write: while other workloads share
    /// the image, this workload first takes its own copy of it, so they
    /// never see the change. The workload loses its fingerprint, since
    /// the image may no longer be the one the builder prepared: like a
    /// custom-graph workload, it then runs in full, never through a
    /// recording or memoized metrics of the unmodified image.
    pub fn directgraph_mut(&mut self) -> &mut DirectGraph {
        self.fingerprint = None;
        &mut Arc::make_mut(&mut self.image).dg
    }

    /// The GNN model configuration.
    pub fn model(&self) -> GnnModelConfig {
        self.model
    }

    /// The mini-batch target sets.
    pub fn batches(&self) -> &[Vec<NodeId>] {
        &self.batches
    }

    /// The synthesis seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The builder fingerprint this workload was prepared from, if it
    /// has one. Workloads built from a caller-supplied graph, or whose
    /// image went through [`directgraph_mut`](Self::directgraph_mut),
    /// have no fingerprint — they carry no stable identity to key a
    /// cache on — and are excluded from both the workload disk cache
    /// and the cascade record/replay cache.
    pub fn fingerprint(&self) -> Option<&str> {
        self.fingerprint.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_prepare() {
        let w = Workload::builder()
            .nodes(500)
            .batch_size(8)
            .batches(2)
            .prepare()
            .unwrap();
        assert_eq!(w.graph().num_nodes(), 500);
        assert_eq!(w.batches().len(), 2);
        assert_eq!(w.batches()[0].len(), 8);
        assert_eq!(w.model().hops, 3);
        assert_eq!(w.spec().dataset, Dataset::Amazon);
    }

    #[test]
    fn bad_page_size_rejected() {
        let err = Workload::builder().page_size(1000).prepare().unwrap_err();
        assert_eq!(err, WorkloadError::BadPageSize(1000));
        assert!(err.to_string().contains("1000"));
    }

    #[test]
    fn degenerate_sizes_rejected() {
        let (max_nodes, max_targets) = (WorkloadBuilder::MAX_NODES, WorkloadBuilder::MAX_TARGETS);
        for (nodes, batch_size, batches) in [
            (0, 8, 4),
            (1, 8, 4),
            (500, 0, 4),
            // More nodes than `u32` ids, or more targets than `u32`
            // slots: rejected before the 40 GB degree table or the
            // targets are allocated.
            (5_000_000_000, 8, 4),
            (max_nodes + 1, 8, 4),
            (500, 4_000_000_000, 3),
            (500, max_targets / 2 + 1, 2),
            (500, usize::MAX / 2 + 1, 2), // the product overflows `usize`
        ] {
            let err = Workload::builder()
                .nodes(nodes)
                .batch_size(batch_size)
                .batches(batches)
                .prepare()
                .unwrap_err();
            let want = WorkloadError::BadSize {
                nodes,
                batch_size,
                batches,
            };
            assert_eq!(err, want);
            for bound in [
                "at least 2 nodes",
                "at most 4294967295,",
                "4294967295 targets",
            ] {
                assert!(err.to_string().contains(bound), "{err}");
            }
        }
        // The bounds themselves are sizes a workload can have.
        let edge = Workload::builder()
            .nodes(max_nodes)
            .batch_size(max_targets / 3);
        assert_eq!(edge.batches(3).check_sizes(), Ok(()));
        // Two nodes is the smallest graph the generator can wire up.
        let w = Workload::builder().nodes(2).batch_size(1).batches(1);
        assert_eq!(w.prepare().unwrap().graph().num_nodes(), 2);
    }

    #[test]
    fn oversized_feature_propagates_build_error() {
        // 3,000 FP-16 scalars (6 KB) cannot fit a 4 KB page; no preset's
        // features are that long, so the graph is a custom one.
        let graph = beacon_graph::generate::uniform(4, 1, 1);
        let err = Workload::builder()
            .custom_graph(graph, FeatureTable::synthetic(4, 3_000, 1))
            .page_size(4096)
            .batch_size(1)
            .prepare()
            .unwrap_err();
        assert!(
            matches!(
                err,
                WorkloadError::Build(BuildError::FeatureTooLarge { .. })
            ),
            "{err}"
        );
    }

    fn bits(table: &FeatureTable) -> Vec<u32> {
        table.values().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn synthetic_feature_table_is_built_once_on_first_use() {
        let dir =
            std::env::temp_dir().join(format!("beacon-workload-features-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let builder = || {
            Workload::builder()
                .dataset(Dataset::Movielens)
                .nodes(600)
                .batch_size(8)
                .batches(1)
                .seed(13)
        };
        let want = bits(
            &DatasetSpec::preset(Dataset::Movielens)
                .at_scale(600)
                .build_features(13),
        );

        let w = builder().prepare().unwrap();
        assert!(w.image.features.get().is_none(), "prepare keeps no table");
        assert_eq!(bits(w.features()), want);
        assert!(w.image.features.get().is_some());

        // A BWC1 load keeps none either, and every workload over the
        // loaded image shares the one table the first call builds.
        crate::WorkloadCache::with_disk_dir(&dir)
            .get_or_prepare(builder())
            .unwrap();
        let key = builder().graph_key().unwrap();
        let loaded = crate::diskcache::load(&dir, &key).expect("the saved image loads");
        assert!(loaded.features.get().is_none(), "a load keeps no table");
        let cache = crate::WorkloadCache::with_disk_dir(&dir);
        let a = cache.get_or_prepare(builder()).unwrap();
        let b = cache
            .get_or_prepare(builder().batch_size(4).batches(3))
            .unwrap();
        assert!(a.image.features.get().is_none());
        assert!(std::ptr::eq(a.features(), b.features()));
        assert_eq!(bits(b.features()), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn synthetic_graph_is_decoded_once_on_first_use() {
        let dir =
            std::env::temp_dir().join(format!("beacon-workload-graph-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let builder = || {
            Workload::builder()
                .dataset(Dataset::Ppi)
                .nodes(700)
                .batch_size(8)
                .batches(1)
                .seed(17)
        };
        let want = DatasetSpec::preset(Dataset::Ppi)
            .at_scale(700)
            .build_graph(17);

        let w = builder().prepare().unwrap();
        assert!(w.image.graph.get().is_none(), "prepare keeps no graph");
        assert_eq!(w.graph(), &want);
        assert!(w.image.graph.get().is_some());

        // A BWC1 load keeps none either, and every workload over the
        // loaded image shares the one graph the first call decodes.
        crate::WorkloadCache::with_disk_dir(&dir)
            .get_or_prepare(builder())
            .unwrap();
        let key = builder().graph_key().unwrap();
        let loaded = crate::diskcache::load(&dir, &key).expect("the saved image loads");
        assert!(loaded.graph.get().is_none(), "a load keeps no graph");
        let cache = crate::WorkloadCache::with_disk_dir(&dir);
        let a = cache.get_or_prepare(builder()).unwrap();
        let b = cache
            .get_or_prepare(builder().batch_size(4).batches(3))
            .unwrap();
        assert!(a.image.graph.get().is_none());
        assert!(std::ptr::eq(a.graph(), b.graph()));
        assert_eq!(b.graph(), &want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn custom_graph_workload() {
        use beacon_graph::io::read_edge_list;
        // A user-supplied graph loaded from an edge list.
        let mut text = String::new();
        for u in 0..40u32 {
            for d in 1..=4u32 {
                text.push_str(&format!("{} {}\n", u, (u + d) % 40));
            }
        }
        let graph = read_edge_list(text.as_bytes()).unwrap();
        let features = FeatureTable::synthetic(40, 16, 1);
        let w = Workload::builder()
            .custom_graph(graph.clone(), features.clone())
            .batch_size(4)
            .batches(1)
            .prepare()
            .unwrap();
        assert_eq!(w.graph().num_nodes(), 40);
        assert_eq!(w.model().feature_dim, 16);
        // The caller's graph and table, not ones synthesized from the
        // seed.
        assert_eq!(w.image.graph.get(), Some(&graph));
        assert_eq!(w.graph(), &graph);
        assert_eq!(bits(w.features()), bits(&features));
        // And it simulates end-to-end.
        let m = crate::Experiment::new(&w).run(crate::Platform::Bg2);
        assert!(m.throughput() > 0.0);
    }

    #[test]
    fn mutating_a_clone_leaves_the_shared_image_unchanged() {
        let w = Workload::builder()
            .nodes(300)
            .batch_size(4)
            .batches(1)
            .seed(5)
            .prepare()
            .unwrap();
        let digest = w.directgraph().digest();
        let mut copy = w.clone();
        assert!(std::ptr::eq(w.directgraph(), copy.directgraph()));
        copy.directgraph_mut()
            .relocate_pages(|p| directgraph::PageIndex::new(p.as_u64() + 64))
            .unwrap();
        assert_ne!(copy.directgraph().digest(), digest);
        assert_eq!(w.directgraph().digest(), digest);
        // The relocated pages decode to the same graph.
        assert!(copy.image.graph.get().is_none());
        let graph = DatasetSpec::preset(Dataset::Amazon)
            .at_scale(300)
            .build_graph(5);
        assert_eq!(copy.graph(), &graph);
        assert_eq!(w.graph(), &graph);
    }

    #[test]
    fn relocated_workload_runs_in_full() {
        let mut w = Workload::builder()
            .dataset(Dataset::Amazon)
            .nodes(3_000)
            .batch_size(32)
            .batches(2)
            .seed(7)
            .prepare()
            .unwrap();
        // Memoizes the unmodified image's BG-2 cell in the global cache.
        let before = crate::Experiment::new(&w).run(crate::Platform::Bg2);
        w.directgraph_mut()
            .relocate_pages(|p| directgraph::PageIndex::new(p.as_u64() + 1))
            .unwrap();
        assert_eq!(w.fingerprint(), None);
        let after = crate::Experiment::new(&w).run(crate::Platform::Bg2);
        let direct = crate::platforms::Engine::new(
            crate::Platform::Bg2,
            crate::SsdConfig::paper_default(),
            w.model(),
            w.directgraph(),
            w.seed(),
        )
        .run(w.batches());
        assert_eq!(
            after.metrics_registry().to_json_string(),
            direct.metrics_registry().to_json_string()
        );
        assert_ne!(after.makespan, before.makespan);
    }

    #[test]
    fn workload_is_deterministic() {
        let a = Workload::builder()
            .nodes(300)
            .batch_size(4)
            .batches(1)
            .seed(9)
            .prepare()
            .unwrap();
        let b = Workload::builder()
            .nodes(300)
            .batch_size(4)
            .batches(1)
            .seed(9)
            .prepare()
            .unwrap();
        assert_eq!(a.batches(), b.batches());
        assert_eq!(a.directgraph().stats(), b.directgraph().stats());
    }
}
