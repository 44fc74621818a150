//! Node feature tables.
//!
//! The paper stores features as FP-16 vectors whose dimensionality is set
//! by the dataset (Table III) and uses 128-dimensional FP-16 embeddings
//! for all intermediate layers. We keep feature values in `f32` for
//! functional computation but account for storage and transfer sizes at
//! the FP-16 width the paper uses.

use simkit::{par, SplitMix64};

use crate::csr::NodeId;

/// Feature rows per parallel work item; fixed so chunk boundaries (and
/// output) are identical at any thread count.
const ROWS_PER_CHUNK: usize = 256;

/// Stream salt separating feature draws from every graph-generator
/// stream family.
const SALT_FEATURES: u64 = 0x5EED_00F1;

/// Bytes per stored feature scalar (FP-16 per the paper).
pub const FEATURE_SCALAR_BYTES: usize = 2;

/// A dense node-feature table of fixed dimension.
///
/// Contents are synthesized deterministically from a seed; functional GNN
/// tests only need *stable, well-distributed* values, not trained ones.
///
/// # Examples
///
/// ```
/// use beacon_graph::{FeatureTable, NodeId};
///
/// let t = FeatureTable::synthetic(100, 64, 9);
/// assert_eq!(t.dim(), 64);
/// assert_eq!(t.feature(NodeId::new(3)).len(), 64);
/// assert_eq!(t.vector_bytes(), 128); // 64 scalars x FP-16
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureTable {
    dim: usize,
    data: Vec<f32>,
}

impl FeatureTable {
    /// Creates a table of `num_nodes × dim` deterministic pseudo-random
    /// features in `[-1, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn synthetic(num_nodes: usize, dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        let mut data = vec![0f32; num_nodes * dim];
        par::for_each_chunk_mut(&mut data, ROWS_PER_CHUNK * dim, |start, chunk| {
            let first_row = start / dim;
            for (k, out) in chunk.chunks_mut(dim).enumerate() {
                Self::synthetic_row(seed, first_row + k, out);
            }
        });
        FeatureTable { dim, data }
    }

    /// Writes row `row` of a [`synthetic`](Self::synthetic) table of
    /// `out.len()` columns under `seed` into `out`, without building the
    /// table.
    ///
    /// One stream per row: each node's vector is a pure function of
    /// (seed, node), so rows synthesize independently, in any order and
    /// on any number of build threads, with byte-identical output.
    pub fn synthetic_row(seed: u64, row: usize, out: &mut [f32]) {
        let mut rng = SplitMix64::for_stream(seed, SALT_FEATURES, row as u64);
        for v in out {
            *v = (rng.next_f64() * 2.0 - 1.0) as f32;
        }
    }

    /// Creates a table from row-major values.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or `data.len()` is not a multiple of `dim`.
    pub fn from_rows(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "data length must be a multiple of dim"
        );
        FeatureTable { dim, data }
    }

    /// Feature dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.data.len() / self.dim
    }

    /// The feature vector of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn feature(&self, v: NodeId) -> &[f32] {
        let i = v.index();
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole table, row-major.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.data
    }

    /// Storage footprint of one vector at FP-16 width, in bytes.
    #[inline]
    pub fn vector_bytes(&self) -> usize {
        self.dim * FEATURE_SCALAR_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic() {
        let a = FeatureTable::synthetic(50, 16, 1);
        let b = FeatureTable::synthetic(50, 16, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_seeds_differ() {
        let a = FeatureTable::synthetic(50, 16, 1);
        let b = FeatureTable::synthetic(50, 16, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn shapes_and_bytes() {
        let t = FeatureTable::synthetic(10, 602, 3); // reddit-like dim
        assert_eq!(t.num_nodes(), 10);
        assert_eq!(t.dim(), 602);
        assert_eq!(t.vector_bytes(), 1204);
    }

    #[test]
    fn values_bounded() {
        let t = FeatureTable::synthetic(100, 8, 7);
        for v in 0..100 {
            for &x in t.feature(NodeId::new(v)) {
                assert!((-1.0..1.0).contains(&x));
            }
        }
    }

    #[test]
    fn from_rows_roundtrip() {
        let t = FeatureTable::from_rows(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.feature(NodeId::new(1)), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn ragged_rows_panic() {
        FeatureTable::from_rows(3, vec![1.0, 2.0]);
    }

    #[test]
    fn synthetic_row_reproduces_every_row_at_any_thread_count() {
        let mut row = vec![0f32; 48];
        for threads in [1, 2, 8] {
            par::set_build_threads(threads);
            let table = FeatureTable::synthetic(1_000, 48, 21);
            for v in 0..1_000 {
                FeatureTable::synthetic_row(21, v, &mut row);
                let bits = |r: &[f32]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&row),
                    bits(table.feature(NodeId::new(v as u32))),
                    "threads={threads} row={v}"
                );
            }
        }
        par::set_build_threads(1);
    }

    #[test]
    fn synthetic_is_thread_count_invariant() {
        par::set_build_threads(1);
        let reference = FeatureTable::synthetic(1_000, 48, 21);
        for threads in [2, 8] {
            par::set_build_threads(threads);
            assert_eq!(
                FeatureTable::synthetic(1_000, 48, 21),
                reference,
                "threads={threads}"
            );
        }
        par::set_build_threads(1);
    }
}
