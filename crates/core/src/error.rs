//! Errors of the registration layer.

use std::fmt;

use simmem::{MmError, SpanWraps};

/// Errors returned by registration, pinning and cache operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegError {
    /// An underlying VM operation failed.
    Mm(MmError),
    /// Unknown memory handle.
    NoSuchHandle,
    /// The registration limit (TPT capacity, cache capacity) is exhausted.
    LimitExceeded,
    /// A page could not be pinned because the kernel holds its I/O lock; the
    /// caller should wait for the I/O to finish and retry (the real
    /// mechanism sleeps on the page wait queue).
    WouldBlock,
    /// The strategy cannot express the requested operation (e.g. zero-length
    /// region).
    InvalidArgument(&'static str),
    /// Pin-table bookkeeping violated (unpin of an unpinned frame).
    PinUnderflow,
}

impl fmt::Display for RegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegError::Mm(e) => write!(f, "memory-management error: {e}"),
            RegError::NoSuchHandle => write!(f, "no such memory handle"),
            RegError::LimitExceeded => write!(f, "registration limit exceeded"),
            RegError::WouldBlock => write!(f, "page locked for I/O; retry"),
            RegError::InvalidArgument(s) => write!(f, "invalid argument: {s}"),
            RegError::PinUnderflow => write!(f, "pin count underflow"),
        }
    }
}

impl std::error::Error for RegError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegError::Mm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MmError> for RegError {
    fn from(e: MmError) -> Self {
        // A busy page surfaces as WouldBlock so callers uniformly model the
        // page-wait-queue sleep.
        match e {
            MmError::PageBusy(_) => RegError::WouldBlock,
            other => RegError::Mm(other),
        }
    }
}

impl From<SpanWraps> for RegError {
    fn from(_: SpanWraps) -> Self {
        RegError::InvalidArgument("region wraps the address space")
    }
}

/// Result alias for this crate.
pub type RegResult<T> = Result<T, RegError>;

#[cfg(test)]
mod tests {
    use super::*;
    use simmem::FrameId;

    #[test]
    fn page_busy_becomes_would_block() {
        let e: RegError = MmError::PageBusy(FrameId(3)).into();
        assert_eq!(e, RegError::WouldBlock);
    }

    #[test]
    fn other_mm_errors_pass_through() {
        let e: RegError = MmError::OutOfMemory.into();
        assert_eq!(e, RegError::Mm(MmError::OutOfMemory));
    }

    #[test]
    fn display_is_informative() {
        assert!(format!("{}", RegError::WouldBlock).contains("retry"));
        assert!(format!("{}", RegError::Mm(MmError::SwapFull)).contains("swap"));
    }
}
