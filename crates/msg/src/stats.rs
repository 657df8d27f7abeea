//! Event counters: what the message layer actually did, per protocol.
//! The workload harness combines deltas of these with the `netsim` cost
//! models to produce simulated transfer times.

use vialock::impl_since;

/// Cumulative message-layer statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MsgStats {
    /// Messages sent via the shared-memory protocol.
    pub sm_msgs: u64,
    /// Payload bytes moved by PIO (SM protocol payload + all control
    /// writes).
    pub pio_bytes: u64,
    /// Control-structure PIO writes (info structs, responses, ready flags).
    pub control_writes: u64,

    /// Messages sent via the one-copy protocol.
    pub oc_msgs: u64,
    /// One-copy chunks (descriptors) posted.
    pub oc_chunks: u64,

    /// Messages sent via the zero-copy protocol.
    pub zc_msgs: u64,

    /// Payload bytes moved by the DMA engine (one-copy sends + RDMA).
    pub dma_bytes: u64,
    /// Bytes memcpy'd by a CPU (receiver copy-out in SM and one-copy).
    pub copy_bytes: u64,
    /// CPU staging-copy operations (each SM/one-copy copy-out is one op;
    /// the staging buffer itself is recycled, not reallocated).
    pub copy_ops: u64,

    /// Dynamic registrations performed (cache misses, both sides).
    pub registrations: u64,
    /// Pages pinned by those registrations.
    pub pages_registered: u64,
    /// Registration-cache hits.
    pub cache_hits: u64,

    /// Response records of live sends the progress engine read: at most
    /// one per record written, however many sends are in flight.
    pub progress_visits: u64,
    /// Sends refused because every message slot of the pair was in flight,
    /// whether `Comm::can_send` answered no or `Comm::send` refused.
    pub send_refusals: u64,
}

impl_since!(MsgStats {
    sm_msgs,
    pio_bytes,
    control_writes,
    oc_msgs,
    oc_chunks,
    zc_msgs,
    dma_bytes,
    copy_bytes,
    copy_ops,
    registrations,
    pages_registered,
    cache_hits,
    progress_visits,
    send_refusals,
});

impl MsgStats {
    /// Total messages.
    pub fn msgs(&self) -> u64 {
        self.sm_msgs + self.oc_msgs + self.zc_msgs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_difference() {
        let a = MsgStats {
            sm_msgs: 2,
            dma_bytes: 100,
            ..Default::default()
        };
        let b = MsgStats {
            sm_msgs: 5,
            dma_bytes: 400,
            zc_msgs: 1,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.sm_msgs, 3);
        assert_eq!(d.dma_bytes, 300);
        assert_eq!(d.zc_msgs, 1);
        assert_eq!(d.msgs(), 4);
    }
}
