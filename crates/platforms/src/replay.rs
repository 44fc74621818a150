//! Shared cascade recordings: record a sampling cascade once, replay it
//! under any timing configuration.
//!
//! Since the die samplers key every draw on command *content* (see
//! `beacon_flash::draw_stream_seed`), the functional cascade — which
//! nodes get visited, which children each command spawns — is a pure
//! function of (DirectGraph image, mini-batches, model config, run
//! seed). Device timing, geometry, core counts, platform wiring: none
//! of it can change the cascade. A [`CascadeRecording`] captures that
//! pure function's output once so that every other cell of a timing
//! sweep can *replay* it ([`Engine::replay_with`](crate::Engine)) —
//! identical metrics, no page parsing, no sampling draws.
//!
//! Recordings are produced by `Engine::record_cascade` (BG-2 only: the
//! recorder requires a channel-separable spec so the cascade contains
//! nothing but `Visit` commands in parent/child order), but *replayed*
//! on any platform — barrier platforms re-buffer the replayed commands
//! per hop, host-lookup platforms re-derive their feature reads from
//! the replayed visits, and every platform re-times the identical
//! command stream under its own resource model.

use beacon_flash::{SampleCommand, SampleOutcome};
use beacon_gnn::GnnModelConfig;
use beacon_graph::NodeId;
use directgraph::{DirectGraph, PhysAddr};

/// One flash command of a recorded sampling cascade: its content (what
/// the command asked for) and its outcome (what the die returned) —
/// everything a replay needs to re-time the command without re-running
/// the sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CascadeRec {
    /// Target physical address (raw `PhysAddr` bits).
    pub(crate) target: u32,
    /// Subgraph (mini-batch slot) the command belongs to.
    pub(crate) subgraph: u32,
    /// Parent node id (`SampleCommand::NO_PARENT` for roots).
    pub(crate) parent: u32,
    /// Secondary-section draw count (0 = primary section).
    pub(crate) count: u16,
    /// Sampling hop (0 = mini-batch target).
    pub(crate) hop: u8,
    /// Whether the on-die §VI-E check aborted the command.
    pub(crate) fault: bool,
    /// Target die under the *recording* geometry (array replay re-homes
    /// commands with it; engine replay recomputes the die from `target`
    /// under its own geometry).
    pub(crate) die: u32,
    /// Visited node id, or `u32::MAX` when the command visited nothing
    /// (secondary sections, faulted commands).
    pub(crate) visited: u32,
    /// Feature bytes the command retrieved.
    pub(crate) feature_bytes: u32,
    /// Bytes its channel transfer moved under the recording spec
    /// (useful-bytes granularity).
    pub(crate) result_bytes: u32,
    /// First child record index; children are consecutive and every
    /// child index is greater than its parent's (topological order).
    pub(crate) children_start: u32,
    pub(crate) children_len: u32,
}

/// Serialized size of one [`CascadeRec`] (see
/// [`CascadeRecording::to_bytes`]).
const REC_BYTES: usize = 40;

/// A full recorded cascade: every flash command of every batch, in
/// spawn order. Batch `b`'s roots are the `batches[b].len()` records
/// starting at `batch_roots[b]`, in target order.
///
/// One recording serves every platform and every `SsdConfig` over the
/// same workload + seed; see the module docs for why.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CascadeRecording {
    pub(crate) recs: Vec<CascadeRec>,
    pub(crate) batch_roots: Vec<u32>,
}

impl CascadeRecording {
    /// Flash commands recorded.
    pub fn commands(&self) -> usize {
        self.recs.len()
    }

    /// Mini-batches recorded.
    pub fn batches(&self) -> usize {
        self.batch_roots.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Cheap shape check that `batches` is plausibly the workload this
    /// cascade was recorded from: batch count, per-batch root count and
    /// root subgraph slots must line up. (Root *targets* are verified
    /// against the live DirectGraph directory during replay.)
    pub fn matches_batches(&self, batches: &[Vec<NodeId>]) -> bool {
        if self.batch_roots.len() != batches.len() {
            return false;
        }
        for (b, batch) in batches.iter().enumerate() {
            let start = self.batch_roots[b] as usize;
            let Some(end) = start.checked_add(batch.len()) else {
                return false;
            };
            if end > self.recs.len() {
                return false;
            }
            for (slot, r) in self.recs[start..end].iter().enumerate() {
                if r.hop != 0 || r.parent != SampleCommand::NO_PARENT || r.subgraph != slot as u32 {
                    return false;
                }
            }
        }
        true
    }

    /// Whether every field serial replay indexes or sums holds a value
    /// the recorder could have written for this workload: beyond
    /// [`CascadeRecording::matches_batches`], roots target their slot's
    /// directory address, every target is a written page, hops stay
    /// within the model's, children keep their parent's subgraph,
    /// visited nodes are in the graph, and only visits carry feature
    /// bytes, at most one page of them. (`die` and `result_bytes` are
    /// read only by the array's lanes, which replay their own
    /// recordings.) A recording read from disk must pass this first.
    pub fn fits(&self, model: &GnnModelConfig, dg: &DirectGraph, batches: &[Vec<NodeId>]) -> bool {
        let (layout, directory) = (dg.layout(), dg.directory());
        let mut roots = batches
            .iter()
            .zip(&self.batch_roots)
            .flat_map(|(batch, &start)| batch.iter().zip(&self.recs[start as usize..]));
        self.matches_batches(batches)
            && roots.all(|(&node, r)| {
                directory.primary_addr(node).map(PhysAddr::to_raw) == Some(r.target)
            })
            && self.recs.iter().all(|r| {
                let start = r.children_start as usize;
                let children = self.recs.get(start..start + r.children_len as usize);
                let visited = r.visited != u32::MAX;
                r.hop <= model.hops
                    && dg
                        .image()
                        .contains_page(layout.unpack(PhysAddr::from_raw(r.target)).0)
                    && (!visited || (r.visited as usize) < directory.len())
                    && r.feature_bytes as usize <= if visited { layout.page_size() } else { 0 }
                    && children
                        .unwrap_or_default()
                        .iter()
                        .all(|c| c.subgraph == r.subgraph)
            })
    }

    /// Reconstructs record `rec`'s command content.
    pub(crate) fn command(&self, rec: u32) -> SampleCommand {
        let r = &self.recs[rec as usize];
        SampleCommand {
            target: PhysAddr::from_raw(r.target),
            hop: r.hop,
            count: r.count,
            subgraph: r.subgraph,
            parent: r.parent,
        }
    }

    /// Fills `out` with record `rec`'s recorded outcome, reconstructing
    /// the child commands from the record's children range. Returns
    /// `true` if the recorded command faulted (the outcome is left
    /// cleared, exactly like `DieSampler::execute_into`'s error path).
    ///
    /// `out` must arrive cleared (fresh from the engine's outcome
    /// pool).
    pub(crate) fn fill_outcome(&self, rec: u32, out: &mut SampleOutcome) -> bool {
        let r = &self.recs[rec as usize];
        if r.fault {
            return true;
        }
        out.visited = (r.visited != u32::MAX).then(|| NodeId::new(r.visited));
        out.feature_bytes = r.feature_bytes as usize;
        let start = r.children_start as usize;
        let end = start + r.children_len as usize;
        for c in &self.recs[start..end] {
            out.new_commands.push(SampleCommand {
                target: PhysAddr::from_raw(c.target),
                hop: c.hop,
                count: c.count,
                subgraph: c.subgraph,
                parent: c.parent,
            });
        }
        false
    }

    /// Serializes the recording to a flat little-endian byte stream
    /// (fixed 40 bytes per record). The stream carries no checksum or
    /// identity — persistent layers (see `beacongnn::diskcache`) wrap
    /// it in their own envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf =
            Vec::with_capacity(16 + self.recs.len() * REC_BYTES + self.batch_roots.len() * 4);
        buf.extend_from_slice(&(self.recs.len() as u64).to_le_bytes());
        buf.extend_from_slice(&(self.batch_roots.len() as u64).to_le_bytes());
        for r in &self.recs {
            buf.extend_from_slice(&r.target.to_le_bytes());
            buf.extend_from_slice(&r.subgraph.to_le_bytes());
            buf.extend_from_slice(&r.parent.to_le_bytes());
            buf.extend_from_slice(&r.die.to_le_bytes());
            buf.extend_from_slice(&r.visited.to_le_bytes());
            buf.extend_from_slice(&r.feature_bytes.to_le_bytes());
            buf.extend_from_slice(&r.result_bytes.to_le_bytes());
            buf.extend_from_slice(&r.children_start.to_le_bytes());
            buf.extend_from_slice(&r.children_len.to_le_bytes());
            buf.extend_from_slice(&r.count.to_le_bytes());
            buf.push(r.hop);
            buf.push(r.fault as u8);
        }
        for &b in &self.batch_roots {
            buf.extend_from_slice(&b.to_le_bytes());
        }
        buf
    }

    /// Deserializes a recording produced by
    /// [`CascadeRecording::to_bytes`]. Returns `None` on truncation or
    /// structural corruption (out-of-range children, non-topological
    /// child order, unsorted batch roots).
    pub fn from_bytes(bytes: &[u8]) -> Option<CascadeRecording> {
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
            let s = bytes.get(*at..*at + n)?;
            *at += n;
            Some(s)
        };
        let n_recs = u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?) as usize;
        let n_batches = u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?) as usize;
        if n_recs > u32::MAX as usize
            || bytes.len() != 16 + n_recs.checked_mul(REC_BYTES)? + n_batches.checked_mul(4)?
        {
            return None;
        }
        let mut recs = Vec::with_capacity(n_recs);
        for _ in 0..n_recs {
            let f = take(&mut at, REC_BYTES)?;
            let u32_at = |o: usize| u32::from_le_bytes(f[o..o + 4].try_into().unwrap());
            recs.push(CascadeRec {
                target: u32_at(0),
                subgraph: u32_at(4),
                parent: u32_at(8),
                die: u32_at(12),
                visited: u32_at(16),
                feature_bytes: u32_at(20),
                result_bytes: u32_at(24),
                children_start: u32_at(28),
                children_len: u32_at(32),
                count: u16::from_le_bytes(f[36..38].try_into().unwrap()),
                hop: f[38],
                fault: match f[39] {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
            });
        }
        let mut batch_roots = Vec::with_capacity(n_batches);
        for _ in 0..n_batches {
            batch_roots.push(u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap()));
        }
        let rec = CascadeRecording { recs, batch_roots };
        rec.validate().then_some(rec)
    }

    /// Structural integrity: children ranges in bounds and strictly
    /// after their parent (topological order), batch roots nondecreasing
    /// and in bounds.
    fn validate(&self) -> bool {
        let n = self.recs.len() as u64;
        for (i, r) in self.recs.iter().enumerate() {
            let start = r.children_start as u64;
            let end = start + r.children_len as u64;
            if r.children_len > 0 && (start <= i as u64 || end > n) {
                return false;
            }
        }
        self.batch_roots.windows(2).all(|w| w[0] <= w[1])
            && self.batch_roots.last().is_none_or(|&b| (b as u64) <= n)
    }
}

/// Recorder state while a cascade-logging run is in flight. Records are
/// created at spawn — content filled from the spawned command — and
/// their outcomes filled in as the command moves through the pipeline
/// (the engine threads the record index through `Cmd::rec`).
#[derive(Debug, Default)]
pub(crate) struct CascadeRecorder {
    pub(crate) recs: Vec<CascadeRec>,
    pub(crate) batch_roots: Vec<u32>,
}

impl CascadeRecorder {
    /// Appends a record for a freshly spawned command; returns its
    /// index.
    pub(crate) fn append(&mut self, sample: &SampleCommand) -> u32 {
        let rid = u32::try_from(self.recs.len()).expect("cascade log overflow");
        self.recs.push(CascadeRec {
            target: sample.target.to_raw(),
            subgraph: sample.subgraph,
            parent: sample.parent,
            count: sample.count,
            hop: sample.hop,
            fault: false,
            die: 0,
            visited: u32::MAX,
            feature_bytes: 0,
            result_bytes: 0,
            children_start: 0,
            children_len: 0,
        });
        rid
    }

    /// Marks the start of a new batch's records.
    pub(crate) fn start_batch(&mut self) {
        self.batch_roots
            .push(u32::try_from(self.recs.len()).expect("cascade log overflow"));
    }

    pub(crate) fn finish(self) -> CascadeRecording {
        CascadeRecording {
            recs: self.recs,
            batch_roots: self.batch_roots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recording() -> CascadeRecording {
        CascadeRecording {
            recs: vec![
                CascadeRec {
                    target: 11,
                    subgraph: 0,
                    parent: SampleCommand::NO_PARENT,
                    count: 0,
                    hop: 0,
                    fault: false,
                    die: 3,
                    visited: 7,
                    feature_bytes: 400,
                    result_bytes: 424,
                    children_start: 1,
                    children_len: 2,
                },
                CascadeRec {
                    target: 21,
                    subgraph: 0,
                    parent: 7,
                    count: 0,
                    hop: 1,
                    fault: false,
                    die: 1,
                    visited: 9,
                    feature_bytes: 400,
                    result_bytes: 408,
                    children_start: 0,
                    children_len: 0,
                },
                CascadeRec {
                    target: 31,
                    subgraph: 0,
                    parent: 7,
                    count: 2,
                    hop: 1,
                    fault: true,
                    die: 2,
                    visited: u32::MAX,
                    feature_bytes: 0,
                    result_bytes: 8,
                    children_start: 0,
                    children_len: 0,
                },
            ],
            batch_roots: vec![0],
        }
    }

    #[test]
    fn byte_round_trip_is_lossless() {
        let rec = sample_recording();
        let bytes = rec.to_bytes();
        let back = CascadeRecording::from_bytes(&bytes).expect("round trip");
        assert_eq!(rec, back);
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let rec = sample_recording();
        let bytes = rec.to_bytes();
        assert!(CascadeRecording::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(CascadeRecording::from_bytes(&[]).is_none());
        // A child range pointing out of bounds must not validate.
        let mut bad = rec.clone();
        bad.recs[0].children_len = 9;
        assert!(CascadeRecording::from_bytes(&bad.to_bytes()).is_none());
        // A child range pointing at (or before) its parent breaks the
        // topological invariant the replay's spawn order relies on.
        let mut cyclic = rec.clone();
        cyclic.recs[0].children_start = 0;
        assert!(CascadeRecording::from_bytes(&cyclic.to_bytes()).is_none());
    }

    #[test]
    fn fill_outcome_reconstructs_children_and_faults() {
        let rec = sample_recording();
        let mut out = SampleOutcome {
            visited: None,
            feature_bytes: 0,
            new_commands: Vec::new(),
        };
        assert!(!rec.fill_outcome(0, &mut out));
        assert_eq!(out.visited, Some(NodeId::new(7)));
        assert_eq!(out.feature_bytes, 400);
        assert_eq!(out.new_commands.len(), 2);
        assert_eq!(out.new_commands[0], rec.command(1));
        assert_eq!(out.new_commands[1], rec.command(2));
        assert_eq!(out.new_commands[1].count, 2);

        let mut out2 = SampleOutcome {
            visited: None,
            feature_bytes: 0,
            new_commands: Vec::new(),
        };
        assert!(rec.fill_outcome(2, &mut out2), "faulted record");
        assert!(out2.visited.is_none() && out2.new_commands.is_empty());
    }

    #[test]
    fn matches_batches_checks_shape() {
        let rec = sample_recording();
        let batch = vec![NodeId::new(7)];
        assert!(rec.matches_batches(std::slice::from_ref(&batch)));
        assert!(!rec.matches_batches(&[batch.clone(), batch.clone()]));
        assert!(!rec.matches_batches(&[vec![
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(3),
            NodeId::new(4)
        ]]));
    }
}
