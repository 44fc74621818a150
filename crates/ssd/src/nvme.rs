//! NVMe queue-pair model (paper §II-B2, Fig 3).
//!
//! The I/O poller serves host requests through paired submission and
//! completion rings in host memory, with head/tail doorbell registers on
//! the host interface. BeaconGNN adds customized commands on the same
//! transport (§VI-A): reserving physical blocks, flushing DirectGraph
//! pages into them, and launching mini-batched GNN jobs.
//!
//! This module is a functional ring model: fixed-size rings, doorbell
//! semantics, and completion phase bits, plus the byte-level encoding of
//! the standard and customized commands.

use std::fmt;

use directgraph::PhysAddr;

/// Commands accepted on a BeaconGNN NVMe queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NvmeCommand {
    /// Standard block read.
    Read {
        /// Logical page address.
        lpa: u64,
        /// Pages to read.
        npages: u16,
    },
    /// Standard block write.
    Write {
        /// Logical page address.
        lpa: u64,
        /// Pages to write.
        npages: u16,
    },
    /// Custom (§VI-A): reserve `count` physical blocks for DirectGraph.
    ReserveBlocks {
        /// Blocks requested.
        count: u32,
    },
    /// Custom (§VI-A): flush one DirectGraph page to a reserved block.
    FlushPage {
        /// Destination physical page.
        ppa: u64,
    },
    /// Custom (§VI-D): configure the GNN task (model + sampling shape).
    ConfigureGnn {
        /// Sampling hops.
        hops: u8,
        /// Fanout per hop.
        fanout: u16,
        /// Feature bytes per node.
        feature_bytes: u16,
        /// Mini-batch size.
        batch_size: u32,
    },
    /// Custom (§VI-D): start a mini-batch; the payload carries
    /// `(node, primary-section address)` pairs.
    StartBatch {
        /// Number of targets in the payload.
        targets: u32,
    },
}

/// A completion queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The command identifier being completed.
    pub cid: u16,
    /// Status code (0 = success).
    pub status: u16,
    /// Phase bit for host-side new-entry detection.
    pub phase: bool,
}

/// Errors from queue operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueError {
    /// Submission ring is full.
    SubmissionFull,
    /// Completion ring is full (host not reaping).
    CompletionFull,
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::SubmissionFull => write!(f, "submission queue full"),
            QueueError::CompletionFull => write!(f, "completion queue full"),
        }
    }
}

impl std::error::Error for QueueError {}

/// A paired submission/completion queue with doorbell semantics.
///
/// # Examples
///
/// ```
/// use beacon_ssd::nvme::{NvmeCommand, QueuePair};
///
/// let mut qp = QueuePair::new(8);
/// let cid = qp.submit(NvmeCommand::Read { lpa: 7, npages: 1 }).unwrap();
/// let (popped_cid, cmd) = qp.device_pop().unwrap();
/// assert_eq!(popped_cid, cid);
/// assert_eq!(cmd, NvmeCommand::Read { lpa: 7, npages: 1 });
/// qp.device_complete(cid, 0).unwrap();
/// assert_eq!(qp.host_reap().unwrap().cid, cid);
/// ```
#[derive(Debug, Clone)]
pub struct QueuePair {
    depth: usize,
    sq: Vec<Option<(u16, NvmeCommand)>>,
    sq_tail: usize, // host-written doorbell
    sq_head: usize, // device-consumed
    cq: Vec<Option<Completion>>,
    cq_tail: usize, // device-written
    cq_head: usize, // host-reaped doorbell
    phase: bool,
    next_cid: u16,
    submitted: u64,
    completed: u64,
}

impl QueuePair {
    /// Creates a queue pair with `depth` entries per ring.
    ///
    /// # Panics
    ///
    /// Panics if `depth < 2` (NVMe requires at least two entries).
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 2, "queue depth must be at least 2");
        QueuePair {
            depth,
            sq: vec![None; depth],
            sq_tail: 0,
            sq_head: 0,
            cq: vec![None; depth],
            cq_tail: 0,
            cq_head: 0,
            phase: true,
            next_cid: 0,
            submitted: 0,
            completed: 0,
        }
    }

    /// Ring depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Entries waiting for the device.
    pub fn sq_pending(&self) -> usize {
        (self.sq_tail + self.depth - self.sq_head) % self.depth
    }

    /// Host side: submits a command and rings the tail doorbell;
    /// returns the command id.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::SubmissionFull`] when the ring has no slot
    /// (one slot is sacrificed to distinguish full from empty).
    pub fn submit(&mut self, cmd: NvmeCommand) -> Result<u16, QueueError> {
        let next_tail = (self.sq_tail + 1) % self.depth;
        if next_tail == self.sq_head {
            return Err(QueueError::SubmissionFull);
        }
        let cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        self.sq[self.sq_tail] = Some((cid, cmd));
        self.sq_tail = next_tail;
        self.submitted += 1;
        Ok(cid)
    }

    /// Device side: pops the next submitted command (the poller's
    /// acquire step).
    pub fn device_pop(&mut self) -> Option<(u16, NvmeCommand)> {
        if self.sq_head == self.sq_tail {
            return None;
        }
        let entry = self.sq[self.sq_head].take().expect("occupied slot");
        self.sq_head = (self.sq_head + 1) % self.depth;
        Some(entry)
    }

    /// Device side: posts a completion with the current phase bit.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::CompletionFull`] if the host has not reaped.
    pub fn device_complete(&mut self, cid: u16, status: u16) -> Result<(), QueueError> {
        let next_tail = (self.cq_tail + 1) % self.depth;
        if next_tail == self.cq_head {
            return Err(QueueError::CompletionFull);
        }
        self.cq[self.cq_tail] = Some(Completion {
            cid,
            status,
            phase: self.phase,
        });
        self.cq_tail = next_tail;
        if self.cq_tail == 0 {
            // Ring wrapped: flip the phase so the host can tell new
            // entries from stale ones.
            self.phase = !self.phase;
        }
        self.completed += 1;
        Ok(())
    }

    /// Host side: reaps the next completion and rings the head doorbell.
    pub fn host_reap(&mut self) -> Option<Completion> {
        if self.cq_head == self.cq_tail {
            return None;
        }
        let c = self.cq[self.cq_head].take().expect("occupied slot");
        self.cq_head = (self.cq_head + 1) % self.depth;
        Some(c)
    }

    /// Total commands submitted.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Total completions posted.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

/// Opcode bytes of the command encoding.
mod opcode {
    pub const READ: u8 = 0x02;
    pub const WRITE: u8 = 0x01;
    pub const RESERVE: u8 = 0xC0;
    pub const FLUSH_PAGE: u8 = 0xC1;
    pub const CONFIGURE: u8 = 0xC2;
    pub const START_BATCH: u8 = 0xC3;
}

impl NvmeCommand {
    /// Encodes the command into a 16-byte DW-style representation
    /// (opcode + operands, little-endian).
    pub fn encode(&self) -> [u8; 16] {
        let mut b = [0u8; 16];
        match *self {
            NvmeCommand::Read { lpa, npages } => {
                b[0] = opcode::READ;
                b[1..9].copy_from_slice(&lpa.to_le_bytes());
                b[9..11].copy_from_slice(&npages.to_le_bytes());
            }
            NvmeCommand::Write { lpa, npages } => {
                b[0] = opcode::WRITE;
                b[1..9].copy_from_slice(&lpa.to_le_bytes());
                b[9..11].copy_from_slice(&npages.to_le_bytes());
            }
            NvmeCommand::ReserveBlocks { count } => {
                b[0] = opcode::RESERVE;
                b[1..5].copy_from_slice(&count.to_le_bytes());
            }
            NvmeCommand::FlushPage { ppa } => {
                b[0] = opcode::FLUSH_PAGE;
                b[1..9].copy_from_slice(&ppa.to_le_bytes());
            }
            NvmeCommand::ConfigureGnn {
                hops,
                fanout,
                feature_bytes,
                batch_size,
            } => {
                b[0] = opcode::CONFIGURE;
                b[1] = hops;
                b[2..4].copy_from_slice(&fanout.to_le_bytes());
                b[4..6].copy_from_slice(&feature_bytes.to_le_bytes());
                b[6..10].copy_from_slice(&batch_size.to_le_bytes());
            }
            NvmeCommand::StartBatch { targets } => {
                b[0] = opcode::START_BATCH;
                b[1..5].copy_from_slice(&targets.to_le_bytes());
            }
        }
        b
    }

    /// Decodes a command from its 16-byte representation.
    ///
    /// Returns `None` for unknown opcodes.
    pub fn decode(b: &[u8; 16]) -> Option<Self> {
        Some(match b[0] {
            opcode::READ => NvmeCommand::Read {
                lpa: u64::from_le_bytes(b[1..9].try_into().expect("8 bytes")),
                npages: u16::from_le_bytes([b[9], b[10]]),
            },
            opcode::WRITE => NvmeCommand::Write {
                lpa: u64::from_le_bytes(b[1..9].try_into().expect("8 bytes")),
                npages: u16::from_le_bytes([b[9], b[10]]),
            },
            opcode::RESERVE => NvmeCommand::ReserveBlocks {
                count: u32::from_le_bytes(b[1..5].try_into().expect("4 bytes")),
            },
            opcode::FLUSH_PAGE => NvmeCommand::FlushPage {
                ppa: u64::from_le_bytes(b[1..9].try_into().expect("8 bytes")),
            },
            opcode::CONFIGURE => NvmeCommand::ConfigureGnn {
                hops: b[1],
                fanout: u16::from_le_bytes([b[2], b[3]]),
                feature_bytes: u16::from_le_bytes([b[4], b[5]]),
                batch_size: u32::from_le_bytes(b[6..10].try_into().expect("4 bytes")),
            },
            opcode::START_BATCH => NvmeCommand::StartBatch {
                targets: u32::from_le_bytes(b[1..5].try_into().expect("4 bytes")),
            },
            _ => return None,
        })
    }
}

/// One `(node, primary-section address)` target record in a StartBatch
/// payload (§VI-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetRecord {
    /// Target node index.
    pub node: u32,
    /// Its primary-section physical address.
    pub addr: PhysAddr,
}

impl TargetRecord {
    /// Payload bytes per record.
    pub const BYTES: usize = 8;

    /// Encodes a batch payload.
    pub fn encode_batch(records: &[TargetRecord]) -> Vec<u8> {
        let mut out = Vec::with_capacity(records.len() * Self::BYTES);
        for r in records {
            out.extend_from_slice(&r.node.to_le_bytes());
            out.extend_from_slice(&r.addr.to_raw().to_le_bytes());
        }
        out
    }

    /// Decodes a batch payload.
    ///
    /// Returns `None` if the byte length is not a record multiple.
    pub fn decode_batch(bytes: &[u8]) -> Option<Vec<TargetRecord>> {
        if !bytes.len().is_multiple_of(Self::BYTES) {
            return None;
        }
        Some(
            bytes
                .chunks_exact(Self::BYTES)
                .map(|c| TargetRecord {
                    node: u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                    addr: PhysAddr::from_raw(u32::from_le_bytes([c[4], c[5], c[6], c[7]])),
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_pop_complete_reap_cycle() {
        let mut qp = QueuePair::new(4);
        let cid = qp.submit(NvmeCommand::Read { lpa: 1, npages: 2 }).unwrap();
        assert_eq!(qp.sq_pending(), 1);
        let (pc, cmd) = qp.device_pop().unwrap();
        assert_eq!(pc, cid);
        assert!(matches!(cmd, NvmeCommand::Read { lpa: 1, npages: 2 }));
        qp.device_complete(cid, 0).unwrap();
        let c = qp.host_reap().unwrap();
        assert_eq!((c.cid, c.status), (cid, 0));
        assert_eq!(qp.submitted(), 1);
        assert_eq!(qp.completed(), 1);
    }

    #[test]
    fn submission_full_detected() {
        let mut qp = QueuePair::new(4);
        for _ in 0..3 {
            qp.submit(NvmeCommand::Read { lpa: 0, npages: 1 }).unwrap();
        }
        assert_eq!(
            qp.submit(NvmeCommand::Read { lpa: 0, npages: 1 }),
            Err(QueueError::SubmissionFull)
        );
    }

    #[test]
    fn completion_full_detected() {
        let mut qp = QueuePair::new(4);
        for _ in 0..3 {
            let cid = qp.submit(NvmeCommand::Read { lpa: 0, npages: 1 }).unwrap();
            qp.device_pop();
            qp.device_complete(cid, 0).unwrap();
        }
        let cid = qp.submit(NvmeCommand::Read { lpa: 0, npages: 1 }).unwrap();
        qp.device_pop();
        assert_eq!(qp.device_complete(cid, 0), Err(QueueError::CompletionFull));
    }

    #[test]
    fn phase_bit_flips_on_wrap() {
        let mut qp = QueuePair::new(2);
        // Depth 2: the ring wraps every second completion, flipping the
        // phase the host uses to detect fresh entries.
        let mut phases = Vec::new();
        for _ in 0..4 {
            let cid = qp.submit(NvmeCommand::Read { lpa: 0, npages: 1 }).unwrap();
            qp.device_pop();
            qp.device_complete(cid, 0).unwrap();
            phases.push(qp.host_reap().unwrap().phase);
        }
        assert_eq!(phases, vec![true, true, false, false]);
    }

    #[test]
    fn ring_wraps_many_times() {
        let mut qp = QueuePair::new(3);
        for i in 0..100u64 {
            let cid = qp.submit(NvmeCommand::Write { lpa: i, npages: 1 }).unwrap();
            let (pc, cmd) = qp.device_pop().unwrap();
            assert_eq!(pc, cid);
            assert_eq!(cmd, NvmeCommand::Write { lpa: i, npages: 1 });
            qp.device_complete(cid, 0).unwrap();
            assert_eq!(qp.host_reap().unwrap().cid, cid);
        }
        assert_eq!(qp.submitted(), 100);
    }

    #[test]
    fn command_encoding_roundtrips() {
        let cmds = [
            NvmeCommand::Read {
                lpa: 0xDEAD_BEEF_CAFE,
                npages: 17,
            },
            NvmeCommand::Write { lpa: 42, npages: 1 },
            NvmeCommand::ReserveBlocks { count: 1000 },
            NvmeCommand::FlushPage {
                ppa: 0x1234_5678_9ABC,
            },
            NvmeCommand::ConfigureGnn {
                hops: 3,
                fanout: 3,
                feature_bytes: 400,
                batch_size: 256,
            },
            NvmeCommand::StartBatch { targets: 256 },
        ];
        for cmd in cmds {
            assert_eq!(NvmeCommand::decode(&cmd.encode()), Some(cmd));
        }
        assert_eq!(NvmeCommand::decode(&[0xFFu8; 16]), None);
    }

    #[test]
    fn target_records_roundtrip() {
        let records: Vec<TargetRecord> = (0..10)
            .map(|i| TargetRecord {
                node: i,
                addr: PhysAddr::from_raw(i * 16 + 3),
            })
            .collect();
        let bytes = TargetRecord::encode_batch(&records);
        assert_eq!(bytes.len(), 80);
        assert_eq!(TargetRecord::decode_batch(&bytes), Some(records));
        assert_eq!(TargetRecord::decode_batch(&bytes[..7]), None);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_queue_rejected() {
        QueuePair::new(1);
    }
}
