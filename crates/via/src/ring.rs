//! Native descriptor processing: work queues as **rings of descriptors in
//! registered user memory**, fetched by the NIC via DMA.
//!
//! The fast-path queues in [`crate::vi`] hold decoded descriptors in host
//! structures; this module models what real VIA hardware does instead —
//! and what the "Comparing MPI Performance" paper blames for VIA's latency
//! floor: *"A descriptor must be prepared and posted to the NIC. Then the
//! hardware starts reading the descriptor from main memory by means of
//! DMA. After retrieving the data address it must perform another DMA
//! cycle in order to get the actual data."*
//!
//! * [`wire`] defines the on-memory descriptor format (a 16-byte control
//!   segment, an optional 16-byte address segment, and 16-byte data
//!   segments — the VIA spec's layout, simplified);
//! * [`DescriptorRing`] is a ring of fixed-size descriptor slots inside a
//!   registered region; the process encodes descriptors into its own
//!   memory with CPU stores and rings a (counting) doorbell;
//! * [`DescriptorRing::fetch_next`] performs the NIC-side **descriptor DMA**: translate
//!   the slot through the TPT, `dma_read` the bytes, decode — so a stale
//!   TPT corrupts *descriptor fetch* just as it corrupts data, which is
//!   exactly why the VIA spec demands that descriptor memory be
//!   registered and locked too.

use simmem::{CounterCell, Kernel, VirtAddr};

use crate::descriptor::{DataSeg, DescOp, DescStatus, Descriptor, RdmaSeg};
use crate::error::{ViaError, ViaResult};
use crate::tpt::{Access, DmaRun, MemId, ProtectionTag, Tpt};

/// On-memory descriptor layout.
pub mod wire {
    /// Control segment: opcode(1) pad(1) seg_count(2) imm_valid(1) pad(3)
    /// imm(4) pad(4) = 16 bytes.
    pub const CTRL_SIZE: usize = 16;
    /// Address segment (RDMA): remote_mem(4) pad(4) remote_addr(8).
    pub const ADDR_SIZE: usize = 16;
    /// Data segment: mem(4) len(4) addr(8).
    pub const SEG_SIZE: usize = 16;

    pub const OP_SEND: u8 = 1;
    pub const OP_RECV: u8 = 2;
    pub const OP_RDMA_WRITE: u8 = 3;
    pub const OP_RDMA_READ: u8 = 4;
    pub const OP_ATOMIC_CAS: u8 = 5;

    /// Atomic operand segment (CAS): compare(8) swap(8).
    pub const ATOMIC_SIZE: usize = 16;

    /// Bytes needed to encode a descriptor with `nsegs` data segments and
    /// optionally an address segment and an atomic operand segment.
    pub fn encoded_len(nsegs: usize, has_addr: bool, has_atomic: bool) -> usize {
        CTRL_SIZE
            + if has_addr { ADDR_SIZE } else { 0 }
            + if has_atomic { ATOMIC_SIZE } else { 0 }
            + nsegs * SEG_SIZE
    }
}

/// Copy a little-endian `u16` out of `bytes` at `off`. Callers bounds-check
/// the slice first; the fixed-size destination makes the conversion itself
/// infallible (datapath modules must stay panic-free — lint rule R3).
#[inline]
pub(crate) fn le_u16(bytes: &[u8], off: usize) -> u16 {
    let mut b = [0u8; 2];
    b.copy_from_slice(&bytes[off..off + 2]);
    u16::from_le_bytes(b)
}

/// Little-endian `u32` at `off`; see [`le_u16`].
#[inline]
pub(crate) fn le_u32(bytes: &[u8], off: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[off..off + 4]);
    u32::from_le_bytes(b)
}

/// Little-endian `u64` at `off`; see [`le_u16`].
#[inline]
pub(crate) fn le_u64(bytes: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Encode a descriptor into its wire format.
pub fn encode(desc: &Descriptor) -> ViaResult<Vec<u8>> {
    let has_addr = desc.rdma.is_some();
    let has_atomic = desc.op == DescOp::AtomicCas;
    let cas_ops = match (has_atomic, desc.cas) {
        (true, None) => return Err(ViaError::BadState("CAS descriptor without operands")),
        (true, Some(ops)) => Some(ops),
        (false, _) => None,
    };
    let mut out = vec![0u8; wire::encoded_len(desc.segs.len(), has_addr, has_atomic)];
    out[0] = match desc.op {
        DescOp::Send => wire::OP_SEND,
        DescOp::Recv => wire::OP_RECV,
        DescOp::RdmaWrite => wire::OP_RDMA_WRITE,
        DescOp::RdmaRead => wire::OP_RDMA_READ,
        DescOp::AtomicCas => wire::OP_ATOMIC_CAS,
    };
    let nsegs =
        u16::try_from(desc.segs.len()).map_err(|_| ViaError::BadState("too many segments"))?;
    out[2..4].copy_from_slice(&nsegs.to_le_bytes());
    if let Some(imm) = desc.imm {
        out[4] = 1;
        out[8..12].copy_from_slice(&imm.to_le_bytes());
    }
    let mut off = wire::CTRL_SIZE;
    if let Some(r) = &desc.rdma {
        out[off..off + 4].copy_from_slice(&r.remote_mem.0.to_le_bytes());
        out[off + 8..off + 16].copy_from_slice(&r.remote_addr.to_le_bytes());
        off += wire::ADDR_SIZE;
    }
    if let Some((compare, swap)) = cas_ops {
        out[off..off + 8].copy_from_slice(&compare.to_le_bytes());
        out[off + 8..off + 16].copy_from_slice(&swap.to_le_bytes());
        off += wire::ATOMIC_SIZE;
    }
    for s in desc.segs.iter() {
        // The wire field is 32 bits: a longer segment must be refused, not
        // truncated into a different descriptor than the one posted.
        let len = u32::try_from(s.len)
            .map_err(|_| ViaError::BadState("segment length exceeds the 32-bit wire field"))?;
        out[off..off + 4].copy_from_slice(&s.mem.0.to_le_bytes());
        out[off + 4..off + 8].copy_from_slice(&len.to_le_bytes());
        out[off + 8..off + 16].copy_from_slice(&s.addr.to_le_bytes());
        off += wire::SEG_SIZE;
    }
    Ok(out)
}

/// Decode a wire-format descriptor.
pub fn decode(bytes: &[u8]) -> ViaResult<Descriptor> {
    if bytes.len() < wire::CTRL_SIZE {
        return Err(ViaError::BadState("short descriptor"));
    }
    let op = match bytes[0] {
        wire::OP_SEND => DescOp::Send,
        wire::OP_RECV => DescOp::Recv,
        wire::OP_RDMA_WRITE => DescOp::RdmaWrite,
        wire::OP_RDMA_READ => DescOp::RdmaRead,
        wire::OP_ATOMIC_CAS => DescOp::AtomicCas,
        _ => return Err(ViaError::BadState("bad opcode in descriptor")),
    };
    let nsegs = le_u16(bytes, 2) as usize;
    let imm = if bytes[4] == 1 {
        Some(le_u32(bytes, 8))
    } else {
        None
    };
    let has_addr = matches!(op, DescOp::RdmaWrite | DescOp::RdmaRead | DescOp::AtomicCas);
    let has_atomic = op == DescOp::AtomicCas;
    if bytes.len() < wire::encoded_len(nsegs, has_addr, has_atomic) {
        return Err(ViaError::BadState("truncated descriptor"));
    }
    let mut off = wire::CTRL_SIZE;
    let rdma = if has_addr {
        let mem = le_u32(bytes, off);
        let addr = le_u64(bytes, off + 8);
        off += wire::ADDR_SIZE;
        Some(RdmaSeg {
            remote_mem: MemId(mem),
            remote_addr: addr,
        })
    } else {
        None
    };
    let cas = if has_atomic {
        let compare = le_u64(bytes, off);
        let swap = le_u64(bytes, off + 8);
        off += wire::ATOMIC_SIZE;
        Some((compare, swap))
    } else {
        None
    };
    let segs = (0..nsegs)
        .map(|i| {
            let at = off + i * wire::SEG_SIZE;
            DataSeg {
                mem: MemId(le_u32(bytes, at)),
                addr: le_u64(bytes, at + 8),
                len: le_u32(bytes, at + 4) as usize,
            }
        })
        .collect();
    Ok(Descriptor {
        op,
        segs,
        rdma,
        imm,
        cas,
        status: DescStatus::Pending,
        done_len: 0,
    })
}

/// Fixed descriptor-slot size in the ring (holds up to 6 data segments
/// plus an address segment).
pub const SLOT_SIZE: usize = 128;

/// A work-queue ring in registered user memory.
pub struct DescriptorRing {
    /// Registered region holding the ring.
    pub mem: MemId,
    /// Base user address of the ring.
    pub base: VirtAddr,
    /// Number of slots.
    pub slots: usize,
    /// Producer index (process side).
    head: u64,
    /// Consumer index (NIC side).
    tail: u64,
    /// The doorbell: outstanding descriptor count. In hardware this is a
    /// memory-mapped register; posting = incrementing.
    doorbell: u64,
    /// Scratch run list reused across descriptor fetches.
    runs: Vec<DmaRun>,
}

impl DescriptorRing {
    /// Create a ring over `[base, base + slots*SLOT_SIZE)` of a registered
    /// region. The region must cover the ring.
    pub fn new(mem: MemId, base: VirtAddr, slots: usize) -> Self {
        DescriptorRing {
            mem,
            base,
            slots,
            head: 0,
            tail: 0,
            doorbell: 0,
            runs: Vec::new(),
        }
    }

    /// Bytes the ring occupies.
    pub fn bytes(slots: usize) -> usize {
        slots * SLOT_SIZE
    }

    /// Process side: encode `desc` into the next free slot (CPU stores
    /// through the fault path) and ring the doorbell.
    pub fn post(
        &mut self,
        kernel: &mut Kernel,
        pid: simmem::Pid,
        desc: &Descriptor,
    ) -> ViaResult<()> {
        if self.doorbell as usize >= self.slots
            || kernel.inject(vialock::FaultSite::DoorbellOverflow.code())
        {
            return Err(ViaError::BadState("descriptor ring full"));
        }
        let bytes = encode(desc)?;
        if bytes.len() > SLOT_SIZE {
            return Err(ViaError::BadState("descriptor exceeds slot size"));
        }
        let slot = (self.head % self.slots as u64) as usize;
        let addr = self.base + (slot * SLOT_SIZE) as u64;
        kernel.write_user(pid, addr, &bytes)?;
        self.head += 1;
        self.doorbell += 1;
        Ok(())
    }

    /// [`DescriptorRing::post`] with bounded retry: a doorbell overflow is
    /// transient when the NIC is draining the ring concurrently (or the
    /// overflow was injected), so the send path retries up to `retries`
    /// times with exponentially growing backoff before surfacing the error.
    /// Returns the number of retries that were needed.
    pub fn post_with_retry(
        &mut self,
        kernel: &mut Kernel,
        pid: simmem::Pid,
        desc: &Descriptor,
        retries: u32,
    ) -> ViaResult<u32> {
        let mut attempt = 0u32;
        loop {
            match self.post(kernel, pid, desc) {
                Ok(()) => return Ok(attempt),
                Err(ViaError::BadState(msg))
                    if msg == "descriptor ring full" && attempt < retries =>
                {
                    attempt += 1;
                    // Model the backoff: each retry waits twice as long for
                    // the NIC to drain (accounted, not slept).
                    kernel.stats.backoff_ticks.add(1u64 << attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Outstanding descriptors (doorbell value).
    pub fn pending(&self) -> usize {
        self.doorbell as usize
    }

    /// NIC side: DMA-fetch and decode the next posted descriptor through
    /// the TPT. This is the extra DMA cycle of the VIA critical path.
    pub fn fetch_next(
        &mut self,
        kernel: &Kernel,
        tpt: &Tpt,
        tag: ProtectionTag,
    ) -> ViaResult<Option<Descriptor>> {
        if self.doorbell == 0 {
            return Ok(None);
        }
        let slot = (self.tail % self.slots as u64) as usize;
        let addr = self.base + (slot * SLOT_SIZE) as u64;
        let mut bytes = [0u8; SLOT_SIZE];
        // The slot may cross a page boundary inside the registered region;
        // translate_range hands back one run per contiguous stretch (one,
        // for a page-interior slot).
        self.runs.clear();
        tpt.translate_range(
            self.mem,
            addr,
            SLOT_SIZE,
            tag,
            Access::Local,
            &mut self.runs,
        )?;
        let mut read = 0usize;
        for run in &self.runs {
            kernel.dma_read_run(run.frame, run.offset, &mut bytes[read..read + run.len])?;
            read += run.len;
        }
        let desc = decode(&bytes)?;
        self.tail += 1;
        self.doorbell -= 1;
        Ok(Some(desc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::Node;
    use simmem::{prot, Capabilities, KernelConfig, PAGE_SIZE};
    use vialock::StrategyKind;

    #[test]
    fn wire_roundtrip_send() {
        let d = Descriptor::send(MemId(7), 0xABCD_1234, 999).with_imm(0xFEED);
        let e = encode(&d).unwrap();
        let back = decode(&e).unwrap();
        assert_eq!(back.op, DescOp::Send);
        assert_eq!(back.segs.len(), 1);
        assert_eq!(back.segs[0].mem, MemId(7));
        assert_eq!(back.segs[0].addr, 0xABCD_1234);
        assert_eq!(back.segs[0].len, 999);
        assert_eq!(back.imm, Some(0xFEED));
    }

    #[test]
    fn wire_roundtrip_rdma() {
        let d = Descriptor::rdma_write(MemId(1), 0x1000, 64, MemId(9), 0x9000);
        let back = decode(&encode(&d).unwrap()).unwrap();
        assert_eq!(back.op, DescOp::RdmaWrite);
        let r = back.rdma.unwrap();
        assert_eq!(r.remote_mem, MemId(9));
        assert_eq!(r.remote_addr, 0x9000);

        let d = Descriptor::rdma_read(MemId(2), 0x2000, 32, MemId(8), 0x8000);
        let back = decode(&encode(&d).unwrap()).unwrap();
        assert_eq!(back.op, DescOp::RdmaRead);
    }

    #[test]
    fn wire_roundtrip_multiseg() {
        let mut d = Descriptor::send(MemId(1), 0x1000, 10);
        d.segs.push(DataSeg {
            mem: MemId(2),
            addr: 0x2000,
            len: 20,
        });
        d.segs.push(DataSeg {
            mem: MemId(3),
            addr: 0x3000,
            len: 30,
        });
        let back = decode(&encode(&d).unwrap()).unwrap();
        assert_eq!(back.segs.len(), 3);
        assert_eq!(back.total_len(), 60);
    }

    #[test]
    fn segment_longer_than_the_wire_field_is_refused() {
        // Truncated to 32 bits, this would reach the NIC as a 5-byte send.
        let d = Descriptor::send(MemId(1), 0x1000, (1usize << 32) + 5);
        assert!(matches!(encode(&d), Err(ViaError::BadState(_))));
        // The second segment alone overflows: the refusal is per segment.
        let mut d = Descriptor::send(MemId(1), 0x1000, 16);
        d.segs.push(DataSeg {
            mem: MemId(2),
            addr: 0x2000,
            len: (1usize << 32) + 5,
        });
        assert!(matches!(encode(&d), Err(ViaError::BadState(_))));
        // The largest length the field holds still round-trips.
        let d = Descriptor::send(MemId(1), 0x1000, u32::MAX as usize);
        let back = decode(&encode(&d).unwrap()).unwrap();
        assert_eq!(back.segs[0].len, u32::MAX as usize);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[0u8; 4]).is_err());
        let mut bad = [0u8; wire::CTRL_SIZE];
        bad[0] = 99;
        assert!(decode(&bad).is_err());
    }

    fn ring_setup() -> (Node, simmem::Pid, DescriptorRing, ProtectionTag) {
        let mut node = Node::new(KernelConfig::small(), StrategyKind::KiobufReliable, 512);
        let pid = node.kernel.spawn_process(Capabilities::default());
        let tag = ProtectionTag(4);
        let slots = 8;
        let len = DescriptorRing::bytes(slots);
        let base = node
            .kernel
            .mmap_anon(pid, len, prot::READ | prot::WRITE)
            .unwrap();
        // The ring itself lives in registered memory, as the spec demands.
        let mem = node.register_mem(pid, base, len, tag).unwrap();
        (node, pid, DescriptorRing::new(mem, base, slots), tag)
    }

    #[test]
    fn post_and_fetch_through_dma() {
        let (mut node, pid, mut ring, tag) = ring_setup();
        let d = Descriptor::send(MemId(42), 0xAA00, 1234).with_imm(7);
        ring.post(&mut node.kernel, pid, &d).unwrap();
        assert_eq!(ring.pending(), 1);
        let got = ring
            .fetch_next(&node.kernel, &node.nic.tpt, tag)
            .unwrap()
            .expect("descriptor fetched");
        assert_eq!(got.segs[0].mem, MemId(42));
        assert_eq!(got.segs[0].len, 1234);
        assert_eq!(got.imm, Some(7));
        assert_eq!(ring.pending(), 0);
        assert!(ring
            .fetch_next(&node.kernel, &node.nic.tpt, tag)
            .unwrap()
            .is_none());
    }

    #[test]
    fn ring_wraps_and_fills() {
        let (mut node, pid, mut ring, tag) = ring_setup();
        // Fill completely.
        for i in 0..8u32 {
            ring.post(
                &mut node.kernel,
                pid,
                &Descriptor::send(MemId(i), 0, i as usize),
            )
            .unwrap();
        }
        assert!(matches!(
            ring.post(&mut node.kernel, pid, &Descriptor::send(MemId(9), 0, 9)),
            Err(ViaError::BadState(_))
        ));
        // Drain in order, refill past the wrap point.
        for i in 0..8u32 {
            let d = ring
                .fetch_next(&node.kernel, &node.nic.tpt, tag)
                .unwrap()
                .unwrap();
            assert_eq!(d.segs[0].mem, MemId(i));
        }
        for i in 100..104u32 {
            ring.post(&mut node.kernel, pid, &Descriptor::send(MemId(i), 0, 1))
                .unwrap();
        }
        for i in 100..104u32 {
            let d = ring
                .fetch_next(&node.kernel, &node.nic.tpt, tag)
                .unwrap()
                .unwrap();
            assert_eq!(d.segs[0].mem, MemId(i));
        }
    }

    #[test]
    fn stale_ring_registration_corrupts_descriptor_fetch() {
        // The reason descriptor memory must be pinned reliably too: with
        // refcount-only pinning, pressure moves the ring pages and the NIC
        // fetches garbage descriptors.
        let mut node = Node::new(
            KernelConfig {
                nframes: 128,
                reserved_frames: 8,
                swap_slots: 4096,
                default_rlimit_memlock: None,
                swap_cache: false,
            },
            StrategyKind::RefcountOnly,
            512,
        );
        let pid = node.kernel.spawn_process(Capabilities::default());
        let tag = ProtectionTag(4);
        let slots = 8;
        let len = DescriptorRing::bytes(slots);
        let base = node
            .kernel
            .mmap_anon(pid, len, prot::READ | prot::WRITE)
            .unwrap();
        let mem = node.register_mem(pid, base, len, tag).unwrap();
        let mut ring = DescriptorRing::new(mem, base, slots);

        // Evict the ring pages.
        let hog = node.kernel.spawn_process(Capabilities::default());
        let hb = node
            .kernel
            .mmap_anon(hog, 200 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        for i in 0..200 {
            let _ = node
                .kernel
                .write_user(hog, hb + (i * PAGE_SIZE) as u64, &[1u8; 8]);
        }

        // Post through the (refaulted) user mapping; the NIC fetches via
        // the stale TPT: the orphaned frame holds zeros → bad opcode.
        let d = Descriptor::send(MemId(5), 0x5000, 64);
        ring.post(&mut node.kernel, pid, &d).unwrap();
        let r = ring.fetch_next(&node.kernel, &node.nic.tpt, tag);
        assert!(
            matches!(r, Err(ViaError::BadState(_)) | Ok(None)),
            "descriptor fetch must not see the posted descriptor: {r:?}"
        );
    }
}
