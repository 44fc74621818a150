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
use beacon_graph::NodeId;
use directgraph::PhysAddr;

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

/// A full recorded cascade: every flash command of every batch, in
/// spawn order. Batch `b`'s roots are the `batches[b].len()` records
/// starting at `batch_roots[b]`, in target order.
///
/// One recording serves every platform and every `SsdConfig` over the
/// same workload + seed; see the module docs for why. Only
/// `Engine::record_cascade` makes one, so every recording is this
/// build's own sampler output.
#[derive(Debug, Clone, PartialEq, Eq)]
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
