//! Errors of the VIA stack.

use std::fmt;

use simmem::{MmError, SpanWraps};
use vialock::RegError;

/// Errors surfaced by NIC, fabric and VIPL operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViaError {
    /// Registration layer failure.
    Reg(RegError),
    /// Simulated-VM failure.
    Mm(MmError),
    /// Memory protection tag mismatch between a VI and a memory region —
    /// the NIC refuses the access and no data is transferred.
    ProtectionMismatch,
    /// The referenced VI is not connected.
    NotConnected,
    /// A message arrived on a VI with an empty receive queue. In reliable
    /// delivery mode the VIA breaks the connection.
    NoRecvDescriptor,
    /// The receive descriptor's buffers are smaller than the message.
    RecvTooSmall { need: usize, have: usize },
    /// Access outside the registered region.
    OutOfBounds,
    /// RDMA attempted on a region without the matching enable attribute.
    RdmaDisabled,
    /// Unknown VI / memory / node id.
    BadId(&'static str),
    /// The VI is in the wrong state for the operation.
    BadState(&'static str),
    /// Every message slot of the channel is in flight: transient
    /// backpressure, to be retried once the receiver drains, never a sign
    /// that the peer is gone.
    NoFreeSlot,
    /// The connection was broken by a previous delivery error.
    Disconnected,
    /// A completion could not be delivered because the completion queue was
    /// at capacity; the completion is lost and the VI is broken.
    CqOverrun,
    /// The service thread for the given node is gone — it panicked, was
    /// shut down or killed, so its control channel or its wire ring is
    /// closed. The fabric equivalent of a peer process dying
    /// mid-conversation.
    PeerGone(usize),
    /// Several node service threads are gone; carries the index of every
    /// dead node (the shutdown/join path reports them all, not just the
    /// first).
    NodesGone(Vec<usize>),
    /// The operation did not complete before its deadline — a blocking
    /// wait gave up rather than hang on a dead or silent peer.
    Timeout,
    /// NIC-side translation hit a non-resident TPT entry: an on-demand
    /// region whose page is not currently pinned. Carries the
    /// region-relative page index; the node's kernel agent resolves this by
    /// lazy-pinning the page, installing the frame, and retrying — it only
    /// escapes to callers that bypass the repin loop (raw TPT users).
    NotResident { page: usize },
    /// An on-demand repin attempt failed (pin refused under memory pressure
    /// or swap exhaustion): the typed degradation of the lazy-pin fault
    /// path. The descriptor completes with
    /// [`crate::descriptor::DescStatus::RepinFailed`].
    Repin(RegError),
    /// A failed batch registration could not be fully rolled back: one of
    /// the already-registered ids failed to deregister with something other
    /// than the tolerated already-gone race (a concurrent process exit
    /// tearing the region down first). Carries the id and the underlying
    /// failure so the caller can audit instead of assuming a clean state.
    BatchRollbackFailed {
        mem: crate::tpt::MemId,
        cause: Box<ViaError>,
    },
}

impl fmt::Display for ViaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViaError::Reg(e) => write!(f, "registration error: {e}"),
            ViaError::Mm(e) => write!(f, "memory error: {e}"),
            ViaError::ProtectionMismatch => write!(f, "memory protection tag mismatch"),
            ViaError::NotConnected => write!(f, "VI not connected"),
            ViaError::NoRecvDescriptor => write!(f, "no receive descriptor posted"),
            ViaError::RecvTooSmall { need, have } => {
                write!(f, "receive buffer too small: need {need}, have {have}")
            }
            ViaError::OutOfBounds => write!(f, "access outside registered region"),
            ViaError::RdmaDisabled => write!(f, "RDMA not enabled on region"),
            ViaError::BadId(what) => write!(f, "unknown {what} id"),
            ViaError::BadState(s) => write!(f, "bad VI state: {s}"),
            ViaError::NoFreeSlot => write!(f, "no free message slot"),
            ViaError::Disconnected => write!(f, "connection broken"),
            ViaError::CqOverrun => write!(f, "completion queue overrun"),
            ViaError::PeerGone(node) => write!(f, "node {node} thread is gone"),
            ViaError::NodesGone(nodes) => write!(f, "node threads gone: {nodes:?}"),
            ViaError::Timeout => write!(f, "operation timed out"),
            ViaError::NotResident { page } => {
                write!(f, "TPT entry for region page {page} is not resident")
            }
            ViaError::Repin(e) => write!(f, "on-demand repin failed: {e}"),
            ViaError::BatchRollbackFailed { mem, cause } => {
                write!(f, "batch rollback failed at mem id {}: {cause}", mem.0)
            }
        }
    }
}

impl std::error::Error for ViaError {}

impl From<RegError> for ViaError {
    fn from(e: RegError) -> Self {
        ViaError::Reg(e)
    }
}

impl From<MmError> for ViaError {
    fn from(e: MmError) -> Self {
        ViaError::Mm(e)
    }
}

/// A wrapping span reaches the VIA layer as the registration refusal.
impl From<SpanWraps> for ViaError {
    fn from(e: SpanWraps) -> Self {
        ViaError::Reg(e.into())
    }
}

/// Result alias for this crate.
pub type ViaResult<T> = Result<T, ViaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e: ViaError = RegError::NoSuchHandle.into();
        assert_eq!(e, ViaError::Reg(RegError::NoSuchHandle));
        let e: ViaError = MmError::OutOfMemory.into();
        assert_eq!(e, ViaError::Mm(MmError::OutOfMemory));
    }

    #[test]
    fn display() {
        assert!(ViaError::ProtectionMismatch.to_string().contains("tag"));
        assert!(ViaError::RecvTooSmall { need: 10, have: 5 }
            .to_string()
            .contains("10"));
        assert!(ViaError::PeerGone(3).to_string().contains('3'));
    }
}
