//! The swap device: a finite array of page-sized slots.
//!
//! 2.2-era semantics, which is what the paper's `locktest` experiment relies
//! on: when a page is swapped out its contents move to a slot and the frame
//! is `__free_page`d; swap-in allocates a **fresh** frame and copies the slot
//! back. There is no swap-cache frame reuse, so a page pinned only by an
//! elevated reference count comes back at a *different* physical address.

use crate::{MmError, PAGE_SIZE};

/// Index of a swap slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u32);

/// A fixed-capacity swap device.
pub struct SwapDevice {
    slots: Vec<Option<Box<[u8]>>>,
    free: Vec<SlotId>,
    /// Page buffers emptied by [`SwapDevice::swap_in`], handed to the next
    /// [`SwapDevice::swap_out`]: steady-state paging moves a page out for
    /// every page it moves in and allocates nothing. Only `swap_in` feeds
    /// the list, so the device never holds more buffers than it held pages
    /// at its fullest.
    spare: Vec<Box<[u8]>>,
    /// Total writes (page-outs) ever performed, for statistics.
    pub writes: u64,
    /// Total reads (page-ins) ever performed.
    pub reads: u64,
}

impl SwapDevice {
    /// Create a device with `nslots` free slots.
    pub fn new(nslots: u32) -> Self {
        SwapDevice {
            slots: (0..nslots).map(|_| None).collect(),
            free: (0..nslots).rev().map(SlotId).collect(),
            spare: Vec::new(),
            writes: 0,
            reads: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    pub fn used_slots(&self) -> usize {
        self.capacity() - self.free_slots()
    }

    /// Write a page out; returns the slot holding it (`get_swap_page` +
    /// write).
    pub fn swap_out(&mut self, data: &[u8]) -> Result<SlotId, MmError> {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        let slot = self.free.pop().ok_or(MmError::SwapFull)?;
        let page = match self.spare.pop() {
            Some(mut page) => {
                page.copy_from_slice(data);
                page
            }
            None => data.into(),
        };
        self.slots[slot.0 as usize] = Some(page);
        self.writes += 1;
        Ok(slot)
    }

    /// Read a page back in and free the slot (`swap_free` after read).
    pub fn swap_in(&mut self, slot: SlotId, out: &mut [u8]) -> Result<(), MmError> {
        debug_assert_eq!(out.len(), PAGE_SIZE);
        let data = self.slots[slot.0 as usize]
            .take()
            .ok_or(MmError::InvalidArgument("swap-in from empty slot"))?;
        out.copy_from_slice(&data);
        self.spare.push(data);
        self.free.push(slot);
        self.reads += 1;
        Ok(())
    }

    /// Drop a slot without reading it (process exit with swapped pages).
    pub fn free_slot(&mut self, slot: SlotId) -> Result<(), MmError> {
        if self.slots[slot.0 as usize].take().is_none() {
            return Err(MmError::InvalidArgument("freeing empty swap slot"));
        }
        self.free.push(slot);
        Ok(())
    }

    /// Peek at a slot's contents without freeing it (diagnostics only).
    pub fn peek(&self, slot: SlotId) -> Option<&[u8]> {
        self.slots[slot.0 as usize].as_deref()
    }

    /// The device census: every slot is either on the free list (once, and
    /// empty) or occupied, the two add up to the capacity, and the spare
    /// buffers are whole pages, at most one per free slot.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let mut on_free_list = vec![false; self.capacity()];
        for slot in &self.free {
            match on_free_list.get_mut(slot.0 as usize) {
                None => return Err(format!("free list names slot {} beyond the device", slot.0)),
                Some(seen) if *seen => {
                    return Err(format!("slot {} is on the free list twice", slot.0))
                }
                Some(seen) => *seen = true,
            }
        }
        for (i, (page, free)) in self.slots.iter().zip(&on_free_list).enumerate() {
            if page.is_some() == *free {
                return Err(format!(
                    "slot {i} is {} and {} the free list",
                    if page.is_some() { "occupied" } else { "empty" },
                    if *free { "on" } else { "off" },
                ));
            }
        }
        if self.spare.len() > self.free.len() || self.spare.iter().any(|b| b.len() != PAGE_SIZE) {
            return Err(format!(
                "{} spare buffers for {} free slots",
                self.spare.len(),
                self.free.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut sd = SwapDevice::new(2);
        let page = vec![0x5Au8; PAGE_SIZE];
        let slot = sd.swap_out(&page).unwrap();
        assert_eq!(sd.used_slots(), 1);
        let mut back = vec![0u8; PAGE_SIZE];
        sd.swap_in(slot, &mut back).unwrap();
        assert_eq!(back, page);
        assert_eq!(sd.used_slots(), 0);
        assert_eq!(sd.writes, 1);
        assert_eq!(sd.reads, 1);
    }

    #[test]
    fn fills_up() {
        let mut sd = SwapDevice::new(1);
        let page = vec![0u8; PAGE_SIZE];
        let s0 = sd.swap_out(&page).unwrap();
        assert_eq!(sd.swap_out(&page), Err(MmError::SwapFull));
        sd.free_slot(s0).unwrap();
        assert!(sd.swap_out(&page).is_ok());
    }

    #[test]
    fn double_free_rejected() {
        let mut sd = SwapDevice::new(1);
        let page = vec![0u8; PAGE_SIZE];
        let s = sd.swap_out(&page).unwrap();
        sd.free_slot(s).unwrap();
        assert!(sd.free_slot(s).is_err());
    }

    #[test]
    fn page_in_hands_its_buffer_to_the_next_page_out() {
        let mut sd = SwapDevice::new(4);
        let mut page = vec![1u8; PAGE_SIZE];
        let a = sd.swap_out(&page).unwrap();
        let b = sd.swap_out(&page).unwrap();
        assert!(sd.spare.is_empty());
        let buf = sd.peek(a).unwrap().as_ptr();
        sd.swap_in(a, &mut page).unwrap();
        assert_eq!(sd.spare.len(), 1);
        page.fill(2);
        let c = sd.swap_out(&page).unwrap();
        assert!(sd.spare.is_empty());
        assert_eq!(sd.peek(c).unwrap().as_ptr(), buf, "same allocation");
        assert!(sd.peek(c).unwrap().iter().all(|&x| x == 2), "new contents");
        // A slot dropped unread gives its buffer back to the allocator.
        sd.free_slot(b).unwrap();
        assert!(sd.spare.is_empty());
        sd.check_invariants().unwrap();
    }

    #[test]
    fn census_catches_a_broken_free_list() {
        let mut sd = SwapDevice::new(2);
        let s = sd.swap_out(&vec![0u8; PAGE_SIZE]).unwrap();
        sd.check_invariants().unwrap();
        sd.free.push(s);
        assert!(
            sd.check_invariants().is_err(),
            "occupied slot on the free list"
        );
        sd.free.pop();
        sd.free.push(SlotId(1));
        assert!(
            sd.check_invariants().is_err(),
            "slot on the free list twice"
        );
    }
}
