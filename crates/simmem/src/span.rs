//! Checked spans: the one place a caller's `(addr, len)` becomes a page
//! range, and the one test of an `(offset, len)` against a length.
//!
//! Addresses and lengths reach the kernel straight from user space (the
//! system calls, `VipRegisterMem`), and offsets reach a window or an
//! exported region from a peer. Their sums are computed here, checked,
//! before anything is sized, indexed or walked by them; past these
//! constructors the arithmetic is bounded.

use std::ops::Range;

use crate::{MmError, VirtAddr, Vpn, PAGE_SHIFT, PAGE_SIZE};

/// A byte range whose page-aligned end does not fit in a `u64`: it wraps
/// the address space. Each layer reports it as its own invalid argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanWraps;

impl From<SpanWraps> for MmError {
    fn from(_: SpanWraps) -> Self {
        MmError::InvalidArgument("range wraps the address space")
    }
}

/// The whole pages a byte range `[addr, addr + len)` touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageSpan {
    /// The page-aligned start.
    pub base: VirtAddr,
    pub npages: usize,
}

impl PageSpan {
    /// The page span of `[addr, addr + len)`, refused when its page-aligned
    /// end does not fit in a `u64`. The last page of the address space is
    /// therefore never part of a span, and [`PageSpan::end`] never wraps.
    pub fn of(addr: VirtAddr, len: usize) -> Result<PageSpan, SpanWraps> {
        let end = addr
            .checked_add(len as u64)
            .and_then(|end| end.checked_next_multiple_of(PAGE_SIZE as u64))
            .ok_or(SpanWraps)?;
        let base = crate::page_base(addr);
        Ok(PageSpan {
            base,
            npages: ((end - base) >> PAGE_SHIFT) as usize,
        })
    }

    /// Bytes the span covers.
    pub fn bytes(&self) -> usize {
        self.npages * PAGE_SIZE
    }

    /// One past the span's last byte.
    pub fn end(&self) -> VirtAddr {
        self.base + self.bytes() as u64
    }

    /// The span's virtual page numbers.
    pub fn vpns(&self) -> Range<Vpn> {
        let first = self.base >> PAGE_SHIFT;
        first..first + self.npages as u64
    }

    /// The page-aligned address of each page, in order.
    pub fn pages(&self) -> impl Iterator<Item = VirtAddr> {
        self.vpns().map(|vpn| vpn << PAGE_SHIFT)
    }
}

/// Whether `[off, off + len)` lies inside `[0, total)`. The sum is
/// checked, so an offset near the top cannot wrap back inside.
pub fn within(off: u64, len: u64, total: u64) -> bool {
    off.checked_add(len).is_some_and(|end| end <= total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_span_math_and_the_wrap_check() {
        let span = PageSpan::of(10, PAGE_SIZE).unwrap();
        assert_eq!(
            (span.base, span.npages),
            (0, 2),
            "unaligned spans two pages"
        );
        assert_eq!(span.bytes(), 2 * PAGE_SIZE);
        assert_eq!(span.end(), 2 * PAGE_SIZE as u64);
        assert_eq!(span.vpns(), 0..2);
        assert_eq!(span.pages().collect::<Vec<_>>(), [0, PAGE_SIZE as u64]);
        assert_eq!(PageSpan::of(0, 1).unwrap().npages, 1);
        assert_eq!(PageSpan::of(PAGE_SIZE as u64, 0).unwrap().npages, 0);
        // The last whole page below the top is fine; the top page is not,
        // because its end (2^64) does not fit.
        let last = u64::MAX - PAGE_SIZE as u64 + 1;
        assert_eq!(PageSpan::of(last - PAGE_SIZE as u64, 1).unwrap().npages, 1);
        assert_eq!(PageSpan::of(last, 1), Err(SpanWraps));
        assert_eq!(PageSpan::of(u64::MAX - 100, 200), Err(SpanWraps));
        assert_eq!(
            PageSpan::of(u64::MAX - 15, 16),
            Err(SpanWraps),
            "end = 2^64"
        );
        assert_eq!(PageSpan::of(0, usize::MAX), Err(SpanWraps), "aligned end");
        assert_eq!(PageSpan::of(1, usize::MAX), Err(SpanWraps));
    }

    #[test]
    fn within_checks_the_sum() {
        assert!(within(0, 4096, 4096));
        assert!(within(4096, 0, 4096));
        assert!(!within(4000, 512, 4096));
        assert!(!within(4097, 0, 4096));
        assert!(!within(u64::MAX - 3, 16, 4096), "sum wraps to 12");
        assert!(!within(u64::MAX - 15, 16, 4096), "sum wraps to 0");
        assert!(!within(0, u64::MAX, 4096));
    }
}
