//! VIA descriptors: the data structures a process builds in registered
//! memory and posts to a work queue to request a transfer.

use simmem::{MmError, VirtAddr};
use vialock::RegError;

use crate::tpt::MemId;
use crate::{ViaError, ViaResult};

/// Descriptor operation type (control-segment opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescOp {
    /// Two-sided send: consumes a receive descriptor at the peer.
    Send,
    /// Receive: pre-posted buffer for an incoming send.
    Recv,
    /// One-sided RDMA write into the peer's registered memory.
    RdmaWrite,
    /// One-sided RDMA read from the peer's registered memory (optional in
    /// the VIA spec; expensive — two fabric traversals).
    RdmaRead,
    /// One-sided atomic compare-and-swap on an aligned u64 in the peer's
    /// registered memory. The old value lands in the local data segment;
    /// like RdmaRead this costs two fabric traversals, but the
    /// read-compare-write at the target is indivisible.
    AtomicCas,
}

/// Completion status written back into the descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescStatus {
    /// Still on the work queue.
    Pending,
    /// Completed successfully.
    Done,
    /// Protection-tag or bounds check failed; no data transferred.
    ProtectionError,
    /// Arrived with no receive descriptor posted / buffer too small; the
    /// connection is broken in reliable mode.
    Dropped,
    /// Malformed descriptor (e.g. an RDMA opcode without an address
    /// segment) — VIA's "descriptor format error" completion.
    FormatError,
    /// The fabric lost the transfer on a reliable connection; the NIC
    /// completes the affected descriptor with this status and breaks the
    /// connection.
    TransportError,
    /// An on-demand page could not be repinned (memory pressure, swap
    /// exhaustion) while the NIC was resolving the descriptor's buffers.
    /// No data transferred; the connection stays intact — the degradation
    /// is per-descriptor, mirroring how the eager path degrades at
    /// registration time instead.
    RepinFailed,
}

impl DescStatus {
    /// `true` for every status other than `Pending`/`Done` — the msg layer
    /// uses this to recognise error completions.
    pub fn is_error(self) -> bool {
        !matches!(self, DescStatus::Pending | DescStatus::Done)
    }

    /// A completion's status as the outcome of the operation it completes:
    /// the one mapping from status to error. A completion carries no
    /// cause for a failed repin; memory pressure is the one it documents.
    pub fn result(self) -> ViaResult<()> {
        match self {
            DescStatus::Done => Ok(()),
            DescStatus::Pending => Err(ViaError::BadState("completion still pending")),
            DescStatus::ProtectionError => Err(ViaError::ProtectionMismatch),
            DescStatus::Dropped | DescStatus::TransportError => Err(ViaError::Disconnected),
            DescStatus::FormatError => Err(ViaError::BadState("descriptor format error")),
            DescStatus::RepinFailed => Err(ViaError::Repin(RegError::Mm(MmError::OutOfMemory))),
        }
    }
}

/// One scatter/gather element: a range of *registered* user memory.
#[derive(Debug, Clone, Copy)]
pub struct DataSeg {
    pub mem: MemId,
    pub addr: VirtAddr,
    pub len: usize,
}

/// A descriptor's gather/scatter list. The one-segment list every post
/// builds is held inline, so building and posting a descriptor allocates
/// nothing; a second segment moves the list to the heap. Derefs to
/// `&[DataSeg]`.
#[derive(Debug, Clone)]
pub struct SegList(Segs);

#[derive(Debug, Clone)]
enum Segs {
    One([DataSeg; 1]),
    /// Any other length (an empty `Vec` holds no allocation).
    Many(Vec<DataSeg>),
}

impl SegList {
    /// A one-segment list.
    pub fn one(seg: DataSeg) -> Self {
        SegList(Segs::One([seg]))
    }

    /// Append a segment.
    pub fn push(&mut self, seg: DataSeg) {
        match &mut self.0 {
            Segs::One([first]) => self.0 = Segs::Many(vec![*first, seg]),
            Segs::Many(segs) if segs.is_empty() => self.0 = Segs::One([seg]),
            Segs::Many(segs) => segs.push(seg),
        }
    }
}

impl std::ops::Deref for SegList {
    type Target = [DataSeg];

    fn deref(&self) -> &[DataSeg] {
        match &self.0 {
            Segs::One(seg) => seg,
            Segs::Many(segs) => segs,
        }
    }
}

impl FromIterator<DataSeg> for SegList {
    fn from_iter<I: IntoIterator<Item = DataSeg>>(iter: I) -> Self {
        let mut list = SegList(Segs::Many(Vec::new()));
        for seg in iter {
            list.push(seg);
        }
        list
    }
}

/// RDMA address segment: names the target range in the *remote* process'
/// registered memory. The remote `MemId` travels out of band (the VIA spec
/// leaves the exchange to the application protocol).
#[derive(Debug, Clone, Copy)]
pub struct RdmaSeg {
    pub remote_mem: MemId,
    pub remote_addr: VirtAddr,
}

/// A work-queue descriptor.
#[derive(Debug, Clone)]
pub struct Descriptor {
    pub op: DescOp,
    /// Gather (send/RDMA) or scatter (recv) list.
    pub segs: SegList,
    /// Address segment for RDMA operations.
    pub rdma: Option<RdmaSeg>,
    /// Up to four bytes of immediate data carried in the descriptor itself.
    pub imm: Option<u32>,
    /// `(compare, swap)` operands of an [`DescOp::AtomicCas`] descriptor.
    pub cas: Option<(u64, u64)>,
    pub status: DescStatus,
    /// Bytes actually transferred (filled at completion).
    pub done_len: usize,
}

impl Descriptor {
    /// A one-segment send descriptor.
    pub fn send(mem: MemId, addr: VirtAddr, len: usize) -> Self {
        Descriptor {
            op: DescOp::Send,
            segs: SegList::one(DataSeg { mem, addr, len }),
            rdma: None,
            imm: None,
            cas: None,
            status: DescStatus::Pending,
            done_len: 0,
        }
    }

    /// A one-segment receive descriptor.
    pub fn recv(mem: MemId, addr: VirtAddr, len: usize) -> Self {
        Descriptor {
            op: DescOp::Recv,
            segs: SegList::one(DataSeg { mem, addr, len }),
            rdma: None,
            imm: None,
            cas: None,
            status: DescStatus::Pending,
            done_len: 0,
        }
    }

    /// A one-segment RDMA-write descriptor.
    pub fn rdma_write(
        mem: MemId,
        addr: VirtAddr,
        len: usize,
        remote_mem: MemId,
        remote_addr: VirtAddr,
    ) -> Self {
        Descriptor {
            op: DescOp::RdmaWrite,
            segs: SegList::one(DataSeg { mem, addr, len }),
            rdma: Some(RdmaSeg {
                remote_mem,
                remote_addr,
            }),
            imm: None,
            cas: None,
            status: DescStatus::Pending,
            done_len: 0,
        }
    }

    /// A one-segment RDMA-read descriptor: fetch `len` bytes from the
    /// peer's `(remote_mem, remote_addr)` into local registered memory.
    pub fn rdma_read(
        mem: MemId,
        addr: VirtAddr,
        len: usize,
        remote_mem: MemId,
        remote_addr: VirtAddr,
    ) -> Self {
        Descriptor {
            op: DescOp::RdmaRead,
            segs: SegList::one(DataSeg { mem, addr, len }),
            rdma: Some(RdmaSeg {
                remote_mem,
                remote_addr,
            }),
            imm: None,
            cas: None,
            status: DescStatus::Pending,
            done_len: 0,
        }
    }

    /// An atomic compare-and-swap descriptor: if the u64 at the peer's
    /// `(remote_mem, remote_addr)` equals `compare`, replace it with
    /// `swap`; either way the old value is scattered into the 8-byte local
    /// segment at `(mem, addr)`.
    pub fn atomic_cas(
        mem: MemId,
        addr: VirtAddr,
        remote_mem: MemId,
        remote_addr: VirtAddr,
        compare: u64,
        swap: u64,
    ) -> Self {
        Descriptor {
            op: DescOp::AtomicCas,
            segs: SegList::one(DataSeg { mem, addr, len: 8 }),
            rdma: Some(RdmaSeg {
                remote_mem,
                remote_addr,
            }),
            imm: None,
            cas: Some((compare, swap)),
            status: DescStatus::Pending,
            done_len: 0,
        }
    }

    /// Attach immediate data.
    pub fn with_imm(mut self, imm: u32) -> Self {
        self.imm = Some(imm);
        self
    }

    /// Total bytes named by the gather/scatter list. The lengths are the
    /// poster's claim, not yet checked against anything, so the sum
    /// saturates: a list that overflows `usize` names no registrable range
    /// and every bounds check refuses the saturated total.
    pub fn total_len(&self) -> usize {
        self.segs
            .iter()
            .fold(0usize, |n, s| n.saturating_add(s.len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let d = Descriptor::send(MemId(1), 0x1000, 64);
        assert_eq!(d.op, DescOp::Send);
        assert_eq!(d.total_len(), 64);
        assert_eq!(d.status, DescStatus::Pending);

        let d = Descriptor::recv(MemId(2), 0x2000, 128).with_imm(42);
        assert_eq!(d.op, DescOp::Recv);
        assert_eq!(d.imm, Some(42));

        let d = Descriptor::rdma_write(MemId(1), 0x1000, 32, MemId(9), 0x9000);
        assert_eq!(d.op, DescOp::RdmaWrite);
        assert_eq!(d.rdma.unwrap().remote_mem, MemId(9));
    }

    #[test]
    fn multi_segment_total() {
        let mut d = Descriptor::send(MemId(1), 0x1000, 10);
        d.segs.push(DataSeg {
            mem: MemId(1),
            addr: 0x3000,
            len: 20,
        });
        assert_eq!(d.total_len(), 30);
    }

    #[test]
    fn one_segment_is_inline_and_a_second_spills() {
        let seg = |len| DataSeg {
            mem: MemId(1),
            addr: 0x1000,
            len,
        };
        let lens = |l: &SegList| l.iter().map(|s| s.len).collect::<Vec<_>>();
        let mut l = SegList::one(seg(1));
        assert!(matches!(l.0, Segs::One(_)));
        l.push(seg(2));
        l.push(seg(3));
        assert!(matches!(l.0, Segs::Many(_)));
        assert_eq!(lens(&l), [1, 2, 3]);
        assert_eq!((l.len(), l[2].len), (3, 3));
        let collected: SegList = [seg(4)].into_iter().collect();
        assert!(matches!(collected.0, Segs::One(_)));
        let empty: SegList = std::iter::empty().collect();
        assert!(empty.is_empty());
        let three: SegList = (1..=3).map(seg).collect();
        assert_eq!(lens(&three), [1, 2, 3]);
    }
}
