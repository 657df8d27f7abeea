//! Physical memory: a contiguous arena of page frames.
//!
//! Device models (the VIA NIC) address this arena by [`FrameId`] — the
//! simulated equivalent of a bus-master DMA engine using physical addresses.

use std::ops::Range;

use crate::{MmError, PAGE_SIZE};

/// Index of a physical page frame (the simulated physical page number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u32);

impl FrameId {
    /// Physical byte address of the start of this frame.
    #[inline]
    pub fn phys_addr(self) -> u64 {
        (self.0 as u64) << crate::PAGE_SHIFT
    }
}

/// The physical memory arena: `nframes` page frames of [`PAGE_SIZE`] bytes.
pub struct PhysMem {
    bytes: Vec<u8>,
    nframes: u32,
}

impl PhysMem {
    /// Allocate an arena of `nframes` zeroed frames.
    pub fn new(nframes: u32) -> Self {
        PhysMem {
            bytes: vec![0u8; nframes as usize * PAGE_SIZE],
            nframes,
        }
    }

    /// Number of frames in the arena.
    #[inline]
    pub fn nframes(&self) -> u32 {
        self.nframes
    }

    /// Immutable view of one frame's bytes.
    #[inline]
    pub fn frame(&self, id: FrameId) -> &[u8] {
        let off = id.0 as usize * PAGE_SIZE;
        &self.bytes[off..off + PAGE_SIZE]
    }

    /// Mutable view of one frame's bytes.
    #[inline]
    pub fn frame_mut(&mut self, id: FrameId) -> &mut [u8] {
        let off = id.0 as usize * PAGE_SIZE;
        &mut self.bytes[off..off + PAGE_SIZE]
    }

    /// Copy one whole frame onto another (used by COW and swap-in).
    pub fn copy_frame(&mut self, src: FrameId, dst: FrameId) {
        assert_ne!(src, dst, "copy_frame onto itself");
        let (s, d) = (src.0 as usize * PAGE_SIZE, dst.0 as usize * PAGE_SIZE);
        // Split borrows: copy_within handles overlapping ranges, but frames
        // never overlap, so a plain copy is fine.
        self.bytes.copy_within(s..s + PAGE_SIZE, d);
    }

    /// Zero-fill a frame (demand-zero allocation path).
    pub fn zero_frame(&mut self, id: FrameId) {
        self.frame_mut(id).fill(0);
    }

    /// Read `buf.len()` bytes starting at byte `offset` within frame `id`.
    /// The read must not cross the frame boundary.
    pub fn read(&self, id: FrameId, offset: usize, buf: &mut [u8]) -> Result<(), MmError> {
        if offset + buf.len() > PAGE_SIZE {
            return Err(MmError::InvalidArgument("frame read crosses page boundary"));
        }
        let f = self.frame(id);
        buf.copy_from_slice(&f[offset..offset + buf.len()]);
        Ok(())
    }

    /// Write `buf` at byte `offset` within frame `id`. Must not cross the
    /// frame boundary.
    pub fn write(&mut self, id: FrameId, offset: usize, buf: &[u8]) -> Result<(), MmError> {
        if offset + buf.len() > PAGE_SIZE {
            return Err(MmError::InvalidArgument(
                "frame write crosses page boundary",
            ));
        }
        let f = self.frame_mut(id);
        f[offset..offset + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    /// Byte range of a run starting at `offset` within frame `id`; the run
    /// may span any number of *physically consecutive* frames. Total: an
    /// offset outside the frame or a run past the arena, however absurd its
    /// length, is refused, never an overflow.
    fn run_range(&self, id: FrameId, offset: usize, len: usize) -> Result<Range<usize>, MmError> {
        let start = (id.0 as usize)
            .checked_mul(PAGE_SIZE)
            .and_then(|base| base.checked_add(offset));
        match start.and_then(|s| Some(s..s.checked_add(len)?)) {
            Some(range) if offset < PAGE_SIZE && range.end <= self.bytes.len() => Ok(range),
            _ => Err(MmError::InvalidArgument("run exceeds physical memory")),
        }
    }

    /// Borrow a physically contiguous run: `len` bytes starting at `offset`
    /// within frame `id`, continuing through consecutive frames.
    pub fn run(&self, id: FrameId, offset: usize, len: usize) -> Result<&[u8], MmError> {
        Ok(&self.bytes[self.run_range(id, offset, len)?])
    }

    /// Read a physically contiguous run (see [`PhysMem::run`]) into `buf`.
    /// One burst transaction instead of a per-page loop.
    pub fn read_run(&self, id: FrameId, offset: usize, buf: &mut [u8]) -> Result<(), MmError> {
        buf.copy_from_slice(self.run(id, offset, buf.len())?);
        Ok(())
    }

    /// Write a physically contiguous run (see [`PhysMem::run`]).
    pub fn write_run(&mut self, id: FrameId, offset: usize, buf: &[u8]) -> Result<(), MmError> {
        let range = self.run_range(id, offset, buf.len())?;
        self.bytes[range].copy_from_slice(buf);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_roundtrip() {
        let mut pm = PhysMem::new(4);
        assert_eq!(pm.nframes(), 4);
        pm.write(FrameId(2), 100, b"abc").unwrap();
        let mut out = [0u8; 3];
        pm.read(FrameId(2), 100, &mut out).unwrap();
        assert_eq!(&out, b"abc");
        // other frames untouched
        assert!(pm.frame(FrameId(1)).iter().all(|&b| b == 0));
    }

    #[test]
    fn copy_and_zero() {
        let mut pm = PhysMem::new(2);
        pm.frame_mut(FrameId(0)).fill(0xAB);
        pm.copy_frame(FrameId(0), FrameId(1));
        assert!(pm.frame(FrameId(1)).iter().all(|&b| b == 0xAB));
        pm.zero_frame(FrameId(1));
        assert!(pm.frame(FrameId(1)).iter().all(|&b| b == 0));
    }

    #[test]
    fn boundary_checks() {
        let mut pm = PhysMem::new(1);
        assert!(pm.write(FrameId(0), PAGE_SIZE - 1, b"xy").is_err());
        let mut buf = [0u8; 2];
        assert!(pm.read(FrameId(0), PAGE_SIZE - 1, &mut buf).is_err());
        assert!(pm.write(FrameId(0), PAGE_SIZE - 1, b"x").is_ok());
    }

    #[test]
    fn run_io_crosses_frames() {
        let mut pm = PhysMem::new(4);
        // A run spanning three frames (1..=3), unaligned at both ends.
        let data: Vec<u8> = (0..PAGE_SIZE + 150).map(|i| (i % 251) as u8).collect();
        pm.write_run(FrameId(1), PAGE_SIZE - 50, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        pm.read_run(FrameId(1), PAGE_SIZE - 50, &mut out).unwrap();
        assert_eq!(out, data);
        // Equivalent to the per-page view.
        let mut first = [0u8; 50];
        pm.read(FrameId(1), PAGE_SIZE - 50, &mut first).unwrap();
        assert_eq!(&first, &data[..50]);
        // Out-of-arena runs refused.
        assert!(pm.write_run(FrameId(3), PAGE_SIZE - 1, &[0u8; 1]).is_ok());
        assert!(pm.write_run(FrameId(3), PAGE_SIZE - 1, &[0u8; 2]).is_err());
        assert!(pm.read_run(FrameId(0), PAGE_SIZE, &mut [0u8; 1]).is_err());
    }

    #[test]
    fn run_borrow_is_total() {
        let mut pm = PhysMem::new(4);
        pm.write_run(FrameId(3), PAGE_SIZE - 2, b"yz").unwrap();
        assert_eq!(pm.run(FrameId(3), PAGE_SIZE - 2, 2).unwrap(), b"yz");
        assert_eq!(
            pm.run(FrameId(4), 0, 0).unwrap(),
            b"",
            "empty run at the end"
        );
        let refused = |r: Result<&[u8], MmError>| {
            assert_eq!(
                r,
                Err(MmError::InvalidArgument("run exceeds physical memory"))
            )
        };
        // Absurd lengths wrap nothing, in debug and release alike.
        refused(pm.run(FrameId(0), 0, usize::MAX));
        refused(pm.run(FrameId(3), PAGE_SIZE - 1, usize::MAX));
        refused(pm.run(FrameId(u32::MAX), PAGE_SIZE - 1, usize::MAX));
        // An offset outside its frame, even one that stays in the arena.
        refused(pm.run(FrameId(0), PAGE_SIZE, 1));
        refused(pm.run(FrameId(0), usize::MAX, 1));
        // The last frame plus one byte, and the first frame past the arena.
        refused(pm.run(FrameId(3), PAGE_SIZE - 2, 3));
        refused(pm.run(FrameId(0), 0, 4 * PAGE_SIZE + 1));
        refused(pm.run(FrameId(4), 0, 1));
    }

    #[test]
    fn phys_addr() {
        assert_eq!(FrameId(0).phys_addr(), 0);
        assert_eq!(FrameId(3).phys_addr(), 3 * PAGE_SIZE as u64);
    }
}
