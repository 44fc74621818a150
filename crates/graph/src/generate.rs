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
//! Every generator derives one RNG stream per node via
//! [`SplitMix64::for_stream`] instead of walking a single sequential
//! generator. That makes each node's draws a pure function of
//! `(seed, node)`, so node ranges can be generated on any number of
//! [`simkit::par`] worker threads — with fixed chunk boundaries — and
//! still produce byte-identical CSR output at every thread count.
//!
//! It also means a power-law graph need never be held whole.
//! [`PowerLawWiring`] keeps only what its edges are drawn from — each
//! node's integer degree and the endpoint index below — and draws any
//! one node's neighbor list on demand ([`Adjacency::neighbors_into`]).
//! [`power_law`] wires every node of it into a CSR; the DirectGraph
//! encoder instead draws each list as it writes that node's sections, so
//! a prepared workload never allocates the CSR at all.
//!
//! Chung-Lu wiring is the bulk of a large build: every edge maps a
//! uniform draw `x ∈ [0, total)` to the first node whose cumulative
//! weight reaches `x`. A search of the whole cumulative array misses
//! cache at every level once it outgrows L2, so [`power_law`] first
//! jumps through a guide table: `n + 2` bucket entries, each naming the
//! first node whose cumulative weight lands in that bucket or a later
//! one. Two adjacent entries bracket the answer. A bracket of at most
//! four nodes, nearly every one, is counted with no branch on the data
//! (the cumulative array ends in four `+∞` pads); a wider one is
//! binary-searched. Either way the result is the index a full search
//! returns, not an approximation of it (see [`power_law`]), so graphs
//! and everything built from them stay byte-identical.

use simkit::{par, SplitMix64};

use crate::csr::{Adjacency, CsrGraph, CsrGraphBuilder, NodeId};

/// Nodes per parallel work item. Fixed (never derived from the thread
/// count) so chunk boundaries — and therefore output — are identical at
/// any parallelism level.
const NODE_CHUNK: usize = 1024;

// Distinct stream salts per generator stage: two stages must never read
// the same (seed, index) stream.
const SALT_UNIFORM: u64 = 0x5EED_0001;
const SALT_PL_DEGREE: u64 = 0x5EED_0002;
const SALT_PL_ROUND: u64 = 0x5EED_0003;
const SALT_PL_WIRE: u64 = 0x5EED_0004;

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

/// Generates a power-law graph per [`PowerLawConfig`]: the CSR of
/// [`PowerLawWiring::new`]`(cfg, seed)`, every node's list drawn once,
/// in chunks on build threads.
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
/// clamped to `n − 1`. A bracket of at most four nodes is counted, not
/// searched: the draw adds to `guide[b]` how many of the four entries
/// from there lie below `x`. Four `+∞` pads past node `n − 1` keep them
/// in bounds, and every entry from `guide[b + 1]` on is at least `x`
/// (its bucket is above `x`'s, or it is node `n − 1`, whose cumulative
/// weight is the total, or a pad), so the count is the search's answer.
/// The RNG streams, the self-loop rejection and the chunking are
/// untouched, so the generated graph for a given `(config, seed)` is
/// unchanged, and so is every cached workload built from it: the lookup
/// needs no disk-cache format bump.
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
    PowerLawWiring::new(cfg, seed).to_csr()
}

/// A [`power_law`] graph before its edges are wired: each node's integer
/// degree and the Chung-Lu endpoint index, about 16 bytes per node.
/// Node `u`'s neighbor list is a pure function of `(seed, u)` — its own
/// wiring stream, self-loops rejected — so
/// [`neighbors_into`](Adjacency::neighbors_into) draws any one list on
/// demand, equal to row `u` of [`to_csr`](Self::to_csr), and a consumer
/// that walks the nodes never holds the adjacency.
///
/// # Examples
///
/// ```
/// use beacon_graph::generate::{PowerLawConfig, PowerLawWiring};
/// use beacon_graph::{Adjacency, NodeId};
/// let wiring = PowerLawWiring::new(&PowerLawConfig::new(1_000, 8.0), 3);
/// let mut row = Vec::new();
/// wiring.neighbors_into(NodeId::new(5), &mut row);
/// assert_eq!(row, wiring.to_csr().neighbors(NodeId::new(5)));
/// ```
#[derive(Debug, Clone)]
pub struct PowerLawWiring {
    seed: u64,
    degrees: Vec<u32>,
    targets: WeightIndex,
}

impl PowerLawWiring {
    /// Draws the degrees and indexes the endpoint weights of the graph
    /// [`power_law`]`(cfg, seed)` generates.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes < 2` or `avg_degree <= 0`.
    pub fn new(cfg: &PowerLawConfig, seed: u64) -> Self {
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
        let mut weights = vec![0f64; n];
        let mut degrees = vec![0u32; n];
        {
            let raw = &raw;
            let jobs: Vec<_> = weights
                .chunks_mut(NODE_CHUNK)
                .zip(degrees.chunks_mut(NODE_CHUNK))
                .enumerate()
                .map(|(c, (wchunk, dchunk))| {
                    move || {
                        let start = c * NODE_CHUNK;
                        for (k, (w, di)) in wchunk.iter_mut().zip(dchunk.iter_mut()).enumerate() {
                            let i = start + k;
                            *w = (raw[i] * scale).clamp(1.0, max_degree);
                            let floor = w.floor();
                            let frac = *w - floor;
                            let mut rng = SplitMix64::for_stream(seed, SALT_PL_ROUND, i as u64);
                            let up = rng.next_f64() < frac;
                            let d = (floor as usize + usize::from(up)).min(cfg.max_degree);
                            *di = u32::try_from(d).expect("node degree fits a u32");
                        }
                    }
                })
                .collect();
            par::run_jobs(jobs);
        }
        drop(raw);
        PowerLawWiring {
            seed,
            degrees,
            targets: WeightIndex::new(&weights),
        }
    }

    /// Wires every node into a CSR: one stream per source node, the
    /// adjacency carved into per-chunk slices at offset boundaries so
    /// build threads write disjoint regions of the final array.
    pub fn to_csr(&self) -> CsrGraph {
        let n = self.degrees.len();
        let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
        offsets.push(0);
        for &d in &self.degrees {
            offsets.push(offsets.last().unwrap() + u64::from(d));
        }
        let mut adjacency = vec![NodeId::default(); *offsets.last().unwrap() as usize];
        {
            let offsets = &offsets;
            let mut rest = adjacency.as_mut_slice();
            let mut jobs = Vec::with_capacity(n.div_ceil(NODE_CHUNK));
            for start in (0..n).step_by(NODE_CHUNK) {
                let end = (start + NODE_CHUNK).min(n);
                let len = (offsets[end] - offsets[start]) as usize;
                let (slice, tail) = rest.split_at_mut(len);
                rest = tail;
                jobs.push(move || {
                    let mut slice = slice;
                    for u in start..end {
                        let (row, tail) = slice.split_at_mut(self.degrees[u] as usize);
                        self.wire(u, row);
                        slice = tail;
                    }
                });
            }
            par::run_jobs(jobs);
        }
        CsrGraph::from_raw_parts(offsets, adjacency)
    }

    /// Draws node `u`'s neighbors into `out`, one per slot, from its
    /// wiring stream, redrawing any endpoint that is `u` itself.
    fn wire(&self, u: usize, out: &mut [NodeId]) {
        let total = self.targets.total();
        let mut rng = SplitMix64::for_stream(self.seed, SALT_PL_WIRE, u as u64);
        for slot in out {
            let v = loop {
                let v = self.targets.find(rng.next_f64() * total);
                if v != u {
                    break v;
                }
            };
            *slot = NodeId::new(v as u32);
        }
    }
}

impl Adjacency for PowerLawWiring {
    fn num_nodes(&self) -> usize {
        self.degrees.len()
    }

    fn degree(&self, v: NodeId) -> usize {
        self.degrees[v.index()] as usize
    }

    fn neighbors_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.resize(self.degree(v), NodeId::default());
        self.wire(v.index(), out);
    }
}

/// Chung-Lu endpoint lookup: cumulative weights plus the guide table
/// that brackets each search (see [`power_law`] for why the bracket is
/// exact).
#[derive(Debug, Clone)]
struct WeightIndex {
    /// Prefix sums of the weights, accumulated sequentially so the f64
    /// rounding is fixed, then [`SLOTS`] entries of `+∞`.
    cumulative: Vec<f64>,
    /// `guide[b]`: the first node whose cumulative weight has a bucket
    /// of at least `b`, or `n − 1` if none does; `n + 2` entries.
    guide: Vec<u32>,
    /// `n / total`, so `bucket(x) = ⌊x · per_weight⌋`. Only the
    /// monotonicity of `bucket` matters for exactness, not its rounding.
    per_weight: f64,
}

/// Brackets of at most this many nodes are counted, not searched.
const SLOTS: usize = 4;

impl WeightIndex {
    /// Indexes `weights`, each at least 1 (so the prefix sums strictly
    /// increase).
    fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        let mut cumulative = Vec::with_capacity(n + SLOTS);
        let mut acc = 0.0;
        for &w in weights {
            acc += w;
            cumulative.push(acc);
        }
        cumulative.extend([f64::INFINITY; SLOTS]);
        let mut index = WeightIndex {
            cumulative,
            guide: Vec::with_capacity(n + 2),
            per_weight: n as f64 / acc,
        };
        for (i, &c) in index.cumulative[..n].iter().enumerate() {
            let b = index.bucket(c);
            if index.guide.len() <= b {
                index.guide.resize(b + 1, i as u32);
            }
        }
        index.guide.resize(n + 2, (n - 1) as u32);
        index
    }

    /// Number of indexed nodes.
    fn nodes(&self) -> usize {
        self.cumulative.len() - SLOTS
    }

    /// Sum of all weights.
    fn total(&self) -> f64 {
        self.cumulative[self.nodes() - 1]
    }

    /// `min(⌊x · n / total⌋, n)`: monotone in `x`.
    fn bucket(&self, x: f64) -> usize {
        ((x * self.per_weight) as usize).min(self.nodes())
    }

    /// The first node whose cumulative weight reaches `x`, clamped to
    /// `n − 1` (see [`power_law`]).
    fn find(&self, x: f64) -> usize {
        let b = self.bucket(x);
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        if hi - lo <= SLOTS {
            let slots = &self.cumulative[lo..lo + SLOTS];
            let below = slots.iter().map(|&c| usize::from(c < x)).sum::<usize>();
            (lo + below).min(self.nodes() - 1)
        } else {
            lo + self.cumulative[lo..hi].partition_point(|&c| c < x)
        }
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

    /// Checks the lookup over `weights` against the whole-array
    /// `binary_search_by` index, clamped to `n − 1`, at 0, at every
    /// cumulative weight (the total among them) and the float below it,
    /// at the top of every bucket (the largest draw still in it) and
    /// just above the total. Returns how many probes landed in brackets
    /// of at most [`SLOTS`] nodes, which are counted, and how many in
    /// wider ones, which are searched.
    fn check_lookup(weights: &[f64]) -> (usize, usize) {
        let n = weights.len();
        let index = WeightIndex::new(weights);
        let cumulative = &index.cumulative[..n];
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let above = |x: f64| f64::from_bits(x.to_bits() + 1);
        let tops = (1..=n).map(|b| {
            let mut x = b as f64 / index.per_weight;
            while index.bucket(x) >= b {
                x = below(x);
            }
            while index.bucket(above(x)) < b {
                x = above(x);
            }
            x
        });
        let points = std::iter::once(0.0)
            .chain(cumulative.iter().flat_map(|&c| [c, below(c)]))
            .chain(tops)
            .chain(std::iter::once(above(index.total())));
        let (mut counted, mut searched) = (0, 0);
        for x in points {
            let expected = match cumulative.binary_search_by(|c| c.partial_cmp(&x).unwrap()) {
                Ok(i) | Err(i) => i.min(n - 1),
            };
            assert_eq!(index.find(x), expected, "n {n} x {x}");
            let b = index.bucket(x);
            if (index.guide[b + 1] - index.guide[b]) as usize <= SLOTS {
                counted += 1;
            } else {
                searched += 1;
            }
        }
        (counted, searched)
    }

    proptest! {
        /// The guide-table lookup is exact on random and all-equal
        /// weight vectors of up to 2,000 nodes, and on 2,000 unit weights
        /// with one hub. The hub's jump leaves brackets of 0–1 nodes and
        /// the unit weights brackets of 5–6, so that shape takes both the
        /// four-slot count and the search.
        #[test]
        fn guide_table_lookup_matches_binary_search(
            weights in proptest::collection::vec(1.0f64..1e4, 2..2_001),
            shape in 0u8..3,
            hub in 0usize..2_000,
            hub_weight in 8_000.0f64..1e4,
        ) {
            let mut weights = weights;
            match shape {
                1 => {
                    let w = weights[0];
                    weights.fill(w);
                }
                2 => {
                    weights = vec![1.0; 2_000];
                    weights[hub] = hub_weight;
                }
                _ => {}
            }
            let (counted, searched) = check_lookup(&weights);
            if shape == 2 {
                prop_assert!(counted > 0 && searched > 0, "{} counted, {} searched", counted, searched);
            }
        }
    }

    /// Drawing one node's list on demand gives that node's CSR row, for
    /// every node of both pinned configs and of the smallest graph.
    #[test]
    fn neighbors_into_matches_every_csr_row() {
        let mut reddit = PowerLawConfig::new(3_000, 492.0);
        reddit.exponent = 2.1;
        let mut row = Vec::new();
        for cfg in [
            PowerLawConfig::new(4_000, 16.0),
            reddit,
            PowerLawConfig::new(2, 1.0),
        ] {
            let wiring = PowerLawWiring::new(&cfg, 99);
            let csr = wiring.to_csr();
            assert_eq!(csr, power_law(&cfg, 99));
            assert_eq!(Adjacency::num_nodes(&wiring), csr.num_nodes());
            for v in csr.nodes() {
                assert_eq!(Adjacency::degree(&wiring, v), csr.degree(v), "{v}");
                wiring.neighbors_into(v, &mut row);
                assert_eq!(row, csr.neighbors(v), "{v}");
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
        }
        par::set_build_threads(1);
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
