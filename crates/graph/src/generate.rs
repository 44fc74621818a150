//! Deterministic synthetic graph generators.
//!
//! The paper evaluates on scaled-up versions of real datasets that reach
//! hundreds of gigabytes. This reproduction substitutes synthetic graphs
//! whose *average degree* and *degree skew* match the dataset presets
//! (see DESIGN.md) at a simulation-tractable node count. Two wiring models
//! are provided:
//!
//! * [`uniform`] — every node draws the same number of neighbors,
//!   uniformly at random (Erdős–Rényi-like in expectation).
//! * [`power_law`] — Chung-Lu style: nodes draw degrees from a truncated
//!   power law, matching the heavy-tailed neighborhoods of social and
//!   e-commerce graphs (and the Densification-law argument of §VII-F).
//!
//! Every generator derives one RNG stream per node (or per edge) via
//! [`SplitMix64::for_stream`] instead of walking a single sequential
//! generator. That makes each node's draws a pure function of
//! `(seed, node)`, so node ranges can be generated on any number of
//! [`simkit::par`] worker threads — with fixed chunk boundaries — and
//! still produce byte-identical CSR output at every thread count.
//!
//! Chung-Lu wiring is the bulk of a large build: every edge maps a
//! uniform draw `x ∈ [0, total)` to the first node whose cumulative
//! weight reaches `x`. A search of the whole cumulative array misses
//! cache at every level once it outgrows L2, so [`power_law`] first
//! jumps through a guide table: `n + 2` bucket entries, each naming the
//! first node whose cumulative weight lands in that bucket or a later
//! one. Two adjacent entries bracket the answer, and a search of that
//! short range finishes the draw. The result is the index a full search
//! returns, not an approximation of it (see [`power_law`]), so graphs
//! and everything built from them stay byte-identical.

use simkit::{par, SplitMix64};

use crate::csr::{CsrGraph, CsrGraphBuilder, NodeId};

/// Nodes per parallel work item. Fixed (never derived from the thread
/// count) so chunk boundaries — and therefore output — are identical at
/// any parallelism level.
const NODE_CHUNK: usize = 1024;

/// Edges per parallel work item for edge-stream generators (R-MAT).
const EDGE_CHUNK: usize = 8192;

// Distinct stream salts per generator stage: two stages must never read
// the same (seed, index) stream.
const SALT_UNIFORM: u64 = 0x5EED_0001;
const SALT_PL_DEGREE: u64 = 0x5EED_0002;
const SALT_PL_ROUND: u64 = 0x5EED_0003;
const SALT_PL_WIRE: u64 = 0x5EED_0004;
const SALT_RMAT: u64 = 0x5EED_0005;
const SALT_BIPARTITE: u64 = 0x5EED_0006;

/// Generates a graph where every node has exactly `degree` out-neighbors
/// drawn uniformly (self-loops excluded, duplicates allowed — like
/// sampled multigraph adjacency).
///
/// # Panics
///
/// Panics if `num_nodes < 2` while `degree > 0`.
///
/// # Examples
///
/// ```
/// use beacon_graph::generate::uniform;
/// let g = uniform(100, 8, 7);
/// assert_eq!(g.num_nodes(), 100);
/// assert_eq!(g.num_edges(), 800);
/// ```
pub fn uniform(num_nodes: usize, degree: usize, seed: u64) -> CsrGraph {
    if degree == 0 {
        return CsrGraphBuilder::new(num_nodes).build();
    }
    assert!(num_nodes >= 2, "need at least two nodes to draw neighbors");
    let mut adjacency = vec![NodeId::default(); num_nodes * degree];
    par::for_each_chunk_mut(&mut adjacency, NODE_CHUNK * degree, |start, chunk| {
        let first_node = start / degree;
        for (k, row) in chunk.chunks_mut(degree).enumerate() {
            let u = (first_node + k) as u32;
            let mut rng = SplitMix64::for_stream(seed, SALT_UNIFORM, u as u64);
            for slot in row {
                *slot = NodeId::new(draw_other(&mut rng, num_nodes as u64, u) as u32);
            }
        }
    });
    let offsets = (0..=num_nodes).map(|i| (i * degree) as u64).collect();
    CsrGraph::from_raw_parts(offsets, adjacency)
}

/// Parameters for the Chung-Lu power-law generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawConfig {
    /// Target number of nodes.
    pub num_nodes: usize,
    /// Target *average* out-degree.
    pub avg_degree: f64,
    /// Power-law exponent of the degree distribution (typically 2.0–3.0;
    /// smaller = heavier tail).
    pub exponent: f64,
    /// Cap on any single node's degree (keeps simulation-scale graphs from
    /// concentrating all edges on one hub).
    pub max_degree: usize,
}

impl PowerLawConfig {
    /// A reasonable default: exponent 2.3, max degree `16 × avg`.
    pub fn new(num_nodes: usize, avg_degree: f64) -> Self {
        PowerLawConfig {
            num_nodes,
            avg_degree,
            exponent: 2.3,
            max_degree: ((avg_degree * 16.0) as usize).max(4),
        }
    }
}

/// Generates a power-law graph per [`PowerLawConfig`].
///
/// Degrees are drawn from a truncated zeta-like distribution via inverse
/// transform sampling, then rescaled so the realized average matches
/// `avg_degree` within a few percent; wiring is Chung-Lu (endpoints chosen
/// proportional to degree weight).
///
/// Each endpoint draw `x` resolves to the first node `i` with
/// `cumulative[i] ≥ x`, found through a guide table. With
/// `bucket(x) = min(⌊x · n / total⌋, n)`, `guide[b]` is the first node
/// whose cumulative weight has a bucket of at least `b` (capped at
/// `n − 1`), and a draw searches only `cumulative[guide[b]..guide[b + 1]]`
/// for `b = bucket(x)`. The bracket is exact: `bucket` is monotone and
/// `cumulative` strictly increasing (every weight is at least 1), so
/// every node before `guide[b]` has a cumulative weight below `x`, and
/// the node at `guide[b + 1]` (when not capped) has one above it. The
/// draw therefore returns the index a search of the whole array would,
/// clamped to `n − 1`. The RNG streams, the self-loop rejection and the
/// chunking are untouched, so the generated graph for a given
/// `(config, seed)` is unchanged, and so is every cached workload built
/// from it: the lookup needs no disk-cache format bump.
///
/// # Panics
///
/// Panics if `num_nodes < 2` or `avg_degree <= 0`.
///
/// # Examples
///
/// ```
/// use beacon_graph::generate::{power_law, PowerLawConfig};
/// let g = power_law(&PowerLawConfig::new(5_000, 20.0), 11);
/// let avg = g.avg_degree();
/// assert!((avg - 20.0).abs() / 20.0 < 0.1, "avg degree {avg}");
/// ```
pub fn power_law(cfg: &PowerLawConfig, seed: u64) -> CsrGraph {
    assert!(cfg.num_nodes >= 2, "need at least two nodes");
    assert!(cfg.avg_degree > 0.0, "average degree must be positive");
    let n = cfg.num_nodes;
    let max_degree = cfg.max_degree as f64;

    // Draw raw degrees d_i ∝ pareto(exponent), one stream per node. The
    // draws are invariant across calibration — only the scale factor
    // moves — so they happen exactly once.
    let alpha = cfg.exponent - 1.0; // pareto shape for the CCDF
    let mut raw = vec![0f64; n];
    par::for_each_chunk_mut(&mut raw, NODE_CHUNK, |start, chunk| {
        for (k, d) in chunk.iter_mut().enumerate() {
            let mut rng = SplitMix64::for_stream(seed, SALT_PL_DEGREE, (start + k) as u64);
            let u = rng.next_f64().max(1e-12);
            *d = u.powf(-1.0 / alpha).min(max_degree); // pareto with x_min = 1
        }
    });

    // Calibrate a single scale factor so the clamped mean matches
    // avg_degree. Clamping to [1, max_degree] shifts the mean, so
    // iterate to a fixed point (a handful of rounds); the raw draws are
    // read-only and the reduction order is fixed, so the result is
    // schedule-independent.
    let mut scale = 1.0f64;
    for _ in 0..12 {
        let mean = raw
            .iter()
            .map(|&d| (d * scale).clamp(1.0, max_degree))
            .sum::<f64>()
            / n as f64;
        let rel_err = (mean - cfg.avg_degree).abs() / cfg.avg_degree;
        if rel_err < 0.005 {
            break;
        }
        scale *= cfg.avg_degree / mean;
    }

    // Integer degrees via stochastic rounding (per-node streams) to
    // preserve the mean; keep the real-valued degrees as Chung-Lu
    // weights.
    let mut degrees = vec![0f64; n];
    let mut int_degrees = vec![0usize; n];
    {
        let raw = &raw;
        let jobs: Vec<_> = degrees
            .chunks_mut(NODE_CHUNK)
            .zip(int_degrees.chunks_mut(NODE_CHUNK))
            .enumerate()
            .map(|(c, (dchunk, ichunk))| {
                move || {
                    let start = c * NODE_CHUNK;
                    for (k, (d, di)) in dchunk.iter_mut().zip(ichunk.iter_mut()).enumerate() {
                        let i = start + k;
                        *d = (raw[i] * scale).clamp(1.0, max_degree);
                        let floor = d.floor();
                        let frac = *d - floor;
                        let mut rng = SplitMix64::for_stream(seed, SALT_PL_ROUND, i as u64);
                        let up = rng.next_f64() < frac;
                        *di = (floor as usize + usize::from(up)).min(cfg.max_degree);
                    }
                }
            })
            .collect();
        par::run_jobs(jobs);
    }
    drop(raw);

    // Chung-Lu target sampling over the real-valued weights.
    let targets = WeightIndex::new(&degrees);
    let total = targets.total();

    let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
    offsets.push(0);
    for &d in &int_degrees {
        offsets.push(offsets.last().unwrap() + d as u64);
    }

    // Wire edges: one stream per source node, adjacency carved into
    // per-chunk slices at offset boundaries so workers write disjoint
    // regions of the final array.
    let mut adjacency = vec![NodeId::default(); *offsets.last().unwrap() as usize];
    {
        let offsets = &offsets;
        let int_degrees = &int_degrees;
        let targets = &targets;
        let mut rest = adjacency.as_mut_slice();
        let mut jobs = Vec::with_capacity(n.div_ceil(NODE_CHUNK));
        for start in (0..n).step_by(NODE_CHUNK) {
            let end = (start + NODE_CHUNK).min(n);
            let len = (offsets[end] - offsets[start]) as usize;
            let (slice, tail) = rest.split_at_mut(len);
            rest = tail;
            jobs.push(move || {
                let mut pos = 0usize;
                for (u, &node_degree) in int_degrees.iter().enumerate().take(end).skip(start) {
                    let mut rng = SplitMix64::for_stream(seed, SALT_PL_WIRE, u as u64);
                    for _ in 0..node_degree {
                        let mut v;
                        loop {
                            v = targets.find(rng.next_f64() * total);
                            if v != u {
                                break;
                            }
                        }
                        slice[pos] = NodeId::new(v as u32);
                        pos += 1;
                    }
                }
            });
        }
        par::run_jobs(jobs);
    }
    CsrGraph::from_raw_parts(offsets, adjacency)
}

/// Chung-Lu endpoint lookup: cumulative weights plus the guide table
/// that brackets each search (see [`power_law`] for why the bracket is
/// exact).
struct WeightIndex {
    /// Prefix sums of the weights, accumulated sequentially so the f64
    /// rounding is fixed.
    cumulative: Vec<f64>,
    /// `guide[b]`: the first node whose cumulative weight has a bucket
    /// of at least `b`, or `n − 1` if none does; `n + 2` entries.
    guide: Vec<u32>,
    /// `n / total`, so `bucket(x) = ⌊x · per_weight⌋`. Only the
    /// monotonicity of `bucket` matters for exactness, not its rounding.
    per_weight: f64,
}

impl WeightIndex {
    /// Indexes `weights`, each at least 1 (so the prefix sums strictly
    /// increase).
    fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &w in weights {
            acc += w;
            cumulative.push(acc);
        }
        let mut index = WeightIndex {
            cumulative,
            guide: Vec::with_capacity(n + 2),
            per_weight: n as f64 / acc,
        };
        for (i, &c) in index.cumulative.iter().enumerate() {
            let b = index.bucket(c);
            if index.guide.len() <= b {
                index.guide.resize(b + 1, i as u32);
            }
        }
        index.guide.resize(n + 2, (n - 1) as u32);
        index
    }

    /// Sum of all weights.
    fn total(&self) -> f64 {
        self.cumulative[self.cumulative.len() - 1]
    }

    /// `min(⌊x · n / total⌋, n)`: monotone in `x`.
    fn bucket(&self, x: f64) -> usize {
        ((x * self.per_weight) as usize).min(self.cumulative.len())
    }

    /// The first node whose cumulative weight reaches `x`, clamped to
    /// `n − 1`.
    fn find(&self, x: f64) -> usize {
        let b = self.bucket(x);
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        lo + self.cumulative[lo..hi].partition_point(|&c| c < x)
    }
}

fn draw_other(rng: &mut SplitMix64, n: u64, exclude: u32) -> u64 {
    loop {
        let v = rng.next_bounded(n);
        if v != exclude as u64 {
            return v;
        }
    }
}

/// Stable counting sort of directed edge pairs into CSR form: adjacency
/// entries of each source keep their pair-array order, matching what a
/// sequential append-per-node builder would produce.
fn csr_from_pairs(num_nodes: usize, pairs: &[(u32, u32)]) -> CsrGraph {
    let mut counts = vec![0u64; num_nodes + 1];
    for &(u, _) in pairs {
        counts[u as usize + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let offsets = counts.clone();
    let mut cursor = counts;
    let mut adjacency = vec![NodeId::default(); pairs.len()];
    for &(u, v) in pairs {
        let at = &mut cursor[u as usize];
        adjacency[*at as usize] = NodeId::new(v);
        *at += 1;
    }
    CsrGraph::from_raw_parts(offsets, adjacency)
}

/// Parameters of the recursive-matrix (R-MAT) generator.
///
/// R-MAT recursively partitions the adjacency matrix into quadrants
/// with probabilities `(a, b, c, d)`; the classic Graph500 skew is
/// `(0.57, 0.19, 0.19, 0.05)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatConfig {
    /// log2 of the node count (the graph has `2^scale` nodes).
    pub scale: u32,
    /// Target edges per node.
    pub edge_factor: usize,
    /// Top-left quadrant probability.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
}

impl RmatConfig {
    /// Graph500-style parameters at the given scale.
    pub fn graph500(scale: u32, edge_factor: usize) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

/// Generates an R-MAT graph (self-loops redrawn once, then dropped).
///
/// # Panics
///
/// Panics if `scale` is 0 or ≥ 31, or quadrant probabilities don't
/// leave a positive `d`.
///
/// # Examples
///
/// ```
/// use beacon_graph::generate::{rmat, RmatConfig};
/// let g = rmat(&RmatConfig::graph500(10, 8), 3);
/// assert_eq!(g.num_nodes(), 1024);
/// ```
pub fn rmat(cfg: &RmatConfig, seed: u64) -> CsrGraph {
    assert!(cfg.scale >= 1 && cfg.scale < 31, "scale out of range");
    let d = 1.0 - cfg.a - cfg.b - cfg.c;
    assert!(d > 0.0, "quadrant probabilities must sum below 1");
    let n = 1usize << cfg.scale;
    let edges = n * cfg.edge_factor;
    let mut pairs = vec![(0u32, 0u32); edges];
    par::for_each_chunk_mut(&mut pairs, EDGE_CHUNK, |start, chunk| {
        for (k, pair) in chunk.iter_mut().enumerate() {
            let mut rng = SplitMix64::for_stream(seed, SALT_RMAT, (start + k) as u64);
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..cfg.scale {
                let r = rng.next_f64();
                let (du, dv) = if r < cfg.a {
                    (0, 0)
                } else if r < cfg.a + cfg.b {
                    (0, 1)
                } else if r < cfg.a + cfg.b + cfg.c {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | du;
                v = (v << 1) | dv;
            }
            if u == v {
                v = draw_other(&mut rng, n as u64, u as u32) as usize;
            }
            *pair = (u as u32, v as u32);
        }
    });
    csr_from_pairs(n, &pairs)
}

/// Generates a bipartite interaction graph (users × items, stored as
/// one node space with users first), movielens-style: each user rates
/// `ratings_per_user` items drawn with popularity skew, and edges are
/// stored in both directions.
///
/// # Panics
///
/// Panics if either side is empty while ratings are requested.
///
/// # Examples
///
/// ```
/// use beacon_graph::generate::bipartite;
/// let g = bipartite(100, 20, 5, 7);
/// assert_eq!(g.num_nodes(), 120);
/// assert_eq!(g.num_edges(), 2 * 100 * 5);
/// ```
pub fn bipartite(users: usize, items: usize, ratings_per_user: usize, seed: u64) -> CsrGraph {
    if ratings_per_user == 0 {
        return CsrGraphBuilder::new(users + items).build();
    }
    assert!(users > 0 && items > 0, "both sides must be non-empty");
    let mut pairs = vec![(0u32, 0u32); 2 * users * ratings_per_user];
    par::for_each_chunk_mut(
        &mut pairs,
        NODE_CHUNK * 2 * ratings_per_user,
        |start, chunk| {
            let first_user = start / (2 * ratings_per_user);
            for (k, user_pairs) in chunk.chunks_mut(2 * ratings_per_user).enumerate() {
                let u = (first_user + k) as u32;
                let mut rng = SplitMix64::for_stream(seed, SALT_BIPARTITE, u as u64);
                for both in user_pairs.chunks_mut(2) {
                    // Popularity skew: square the uniform draw so low item
                    // indices are hit far more often (hit-movie effect).
                    let x = rng.next_f64();
                    let item = ((x * x) * items as f64) as usize;
                    let item = (users + item.min(items - 1)) as u32;
                    both[0] = (u, item);
                    both[1] = (item, u);
                }
            }
        },
    );
    csr_from_pairs(users + items, &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_is_deterministic() {
        let a = uniform(500, 4, 3);
        let b = uniform(500, 4, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_has_exact_degrees_no_self_loops() {
        let g = uniform(200, 5, 9);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 5);
            assert!(!g.neighbors(v).contains(&v), "self loop at {v}");
        }
    }

    #[test]
    fn uniform_zero_degree() {
        let g = uniform(10, 0, 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn power_law_matches_target_mean() {
        let cfg = PowerLawConfig::new(20_000, 28.0);
        let g = power_law(&cfg, 5);
        let avg = g.avg_degree();
        assert!((avg - 28.0).abs() / 28.0 < 0.1, "avg={avg}");
    }

    #[test]
    fn power_law_is_skewed() {
        let cfg = PowerLawConfig::new(10_000, 10.0);
        let g = power_law(&cfg, 7);
        // A power-law graph's max degree should comfortably exceed the mean.
        assert!(g.max_degree() as f64 > 3.0 * g.avg_degree());
        // ...but respect the configured cap.
        assert!(g.max_degree() <= cfg.max_degree);
    }

    #[test]
    fn power_law_is_deterministic() {
        let cfg = PowerLawConfig::new(3_000, 12.0);
        assert_eq!(power_law(&cfg, 42), power_law(&cfg, 42));
    }

    #[test]
    fn power_law_every_node_has_a_neighbor() {
        let cfg = PowerLawConfig::new(2_000, 8.0);
        let g = power_law(&cfg, 13);
        for v in g.nodes() {
            assert!(g.degree(v) >= 1, "{v} has no neighbors");
        }
    }

    /// Regression pin for the calibrate-once degree pipeline: the exact
    /// degree sequence for a fixed (config, seed) pair, summarized as an
    /// FNV-1a hash plus spot values. Any change to the draw streams, the
    /// scalar calibration, or the stochastic rounding shows up here.
    #[test]
    fn power_law_degree_sequence_pinned() {
        let cfg = PowerLawConfig::new(4_000, 16.0);
        let g = power_law(&cfg, 99);
        let mut h = 0xcbf29ce484222325u64;
        for v in g.nodes() {
            for b in (g.degree(v) as u32).to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        let spot: Vec<usize> = [0usize, 1, 777, 1999, 3999]
            .iter()
            .map(|&i| g.degree(NodeId::new(i as u32)))
            .collect();
        assert_eq!(
            (h, spot),
            (8526064610743682520, vec![10, 21, 5, 62, 11]),
            "degree sequence drifted for fixed seed"
        );
    }

    fn adjacency_fnv(g: &CsrGraph) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for v in g.adjacency() {
            for b in v.as_u32().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    /// Regression pin for Chung-Lu wiring: an FNV-1a of the full
    /// adjacency (every endpoint, in order) for the degree pin's config
    /// and for a reddit-shaped one (heavy tail, dense, hubs capped above
    /// `n`). Taken with the whole-array binary search the guide table
    /// replaced; any lookup that is not exact shows up here.
    #[test]
    fn power_law_adjacency_pinned() {
        let g = power_law(&PowerLawConfig::new(4_000, 16.0), 99);
        assert_eq!(
            (adjacency_fnv(&g), g.num_edges()),
            (0xfa23_8a94_9ca8_b979, 63_942)
        );
        let mut reddit = PowerLawConfig::new(3_000, 492.0);
        reddit.exponent = 2.1;
        let g = power_law(&reddit, 99);
        assert_eq!(
            (adjacency_fnv(&g), g.num_edges()),
            (0x26e7_d9e0_2137_7f61, 1_471_395)
        );
    }

    proptest! {
        /// The guide-table lookup is exact: at every boundary point of
        /// random, all-equal and single-hub weight vectors it returns the
        /// whole-array `binary_search_by` index, clamped to `n − 1`.
        #[test]
        fn guide_table_lookup_matches_binary_search(
            weights in proptest::collection::vec(1.0f64..1e4, 2..2_001),
            shape in 0u8..3,
            hub in 0usize..2_000,
        ) {
            let mut weights = weights;
            let n = weights.len();
            match shape {
                1 => {
                    let w = weights[0];
                    weights.fill(w);
                }
                2 => {
                    weights.fill(1.0);
                    weights[hub % n] = 1e4;
                }
                _ => {}
            }
            let index = WeightIndex::new(&weights);
            let cumulative = &index.cumulative;
            let below = |x: f64| f64::from_bits(x.to_bits() - 1);
            let points = std::iter::once(0.0)
                .chain(cumulative.iter().flat_map(|&c| [c, below(c)]))
                .chain(std::iter::once(below(index.total())));
            for x in points {
                let expected = match cumulative.binary_search_by(|c| c.partial_cmp(&x).unwrap()) {
                    Ok(i) | Err(i) => i.min(n - 1),
                };
                prop_assert_eq!(index.find(x), expected, "n {} shape {} x {}", n, shape, x);
            }
        }
    }

    #[test]
    fn generators_are_thread_count_invariant() {
        let reference = {
            par::set_build_threads(1);
            (
                uniform(2_000, 6, 11),
                power_law(&PowerLawConfig::new(3_000, 14.0), 11),
                rmat(&RmatConfig::graph500(10, 6), 11),
                bipartite(800, 60, 7, 11),
            )
        };
        for threads in [2, 8] {
            par::set_build_threads(threads);
            assert_eq!(uniform(2_000, 6, 11), reference.0, "uniform@{threads}");
            assert_eq!(
                power_law(&PowerLawConfig::new(3_000, 14.0), 11),
                reference.1,
                "power_law@{threads}"
            );
            assert_eq!(
                rmat(&RmatConfig::graph500(10, 6), 11),
                reference.2,
                "rmat@{threads}"
            );
            assert_eq!(
                bipartite(800, 60, 7, 11),
                reference.3,
                "bipartite@{threads}"
            );
        }
        par::set_build_threads(1);
    }

    #[test]
    fn rmat_shape() {
        let g = rmat(&RmatConfig::graph500(9, 8), 3);
        assert_eq!(g.num_nodes(), 512);
        assert_eq!(g.num_edges(), 512 * 8);
        // R-MAT with Graph500 skew is heavy-tailed: the max degree far
        // exceeds the mean.
        assert!(g.max_degree() as f64 > 4.0 * g.avg_degree());
        for v in g.nodes() {
            assert!(!g.neighbors(v).contains(&v), "self loop at {v}");
        }
    }

    #[test]
    fn rmat_deterministic() {
        let cfg = RmatConfig::graph500(8, 4);
        assert_eq!(rmat(&cfg, 5), rmat(&cfg, 5));
        assert_ne!(rmat(&cfg, 5), rmat(&cfg, 6));
    }

    #[test]
    #[should_panic(expected = "scale out of range")]
    fn rmat_zero_scale_rejected() {
        rmat(&RmatConfig::graph500(0, 4), 1);
    }

    #[test]
    fn bipartite_edges_respect_sides() {
        let users = 50;
        let items = 10;
        let g = bipartite(users, items, 4, 9);
        for u in 0..users as u32 {
            for &nb in g.neighbors(NodeId::new(u)) {
                assert!(nb.index() >= users, "user {u} linked to a user");
            }
        }
        for i in users as u32..(users + items) as u32 {
            for &nb in g.neighbors(NodeId::new(i)) {
                assert!(nb.index() < users, "item {i} linked to an item");
            }
        }
    }

    #[test]
    fn bipartite_popularity_is_skewed() {
        let users = 2_000;
        let items = 100;
        let g = bipartite(users, items, 10, 4);
        let first_item = g.degree(NodeId::new(users as u32));
        let last_item = g.degree(NodeId::new((users + items - 1) as u32));
        assert!(
            first_item > 3 * last_item.max(1),
            "{first_item} vs {last_item}"
        );
    }

    #[test]
    fn power_law_no_self_loops() {
        let cfg = PowerLawConfig::new(1_000, 6.0);
        let g = power_law(&cfg, 17);
        for v in g.nodes() {
            assert!(!g.neighbors(v).contains(&v));
        }
    }
}
