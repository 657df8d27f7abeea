//! Protocol configuration: switch points and segment geometry.

use serde::Serialize;

/// Which protocol a message of a given size uses, plus the shared-memory
/// segment and one-copy ring geometry.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MsgConfig {
    /// Messages up to this size (bytes) use the shared-memory protocol.
    /// Must fit in one SM data slot.
    pub sm_max: usize,
    /// Messages up to this size use the one-copy VIA protocol; larger ones
    /// go zero-copy.
    pub one_copy_max: usize,
    /// One-copy chunk size M (the pre-posted buffer size).
    pub chunk_bytes: usize,
    /// Receive descriptors pre-posted per directed pair.
    pub prepost: usize,
    /// Number of message-info slots per directed pair.
    pub info_slots: usize,
    /// Registration-cache budget in pages (per node).
    pub cache_pages: usize,
}

impl MsgConfig {
    /// Defaults close to the CHEMPI design: 8 KiB SM slots, 8 KiB chunks,
    /// 64 pre-posted descriptors, one-copy up to 128 KiB.
    pub fn classic() -> Self {
        MsgConfig {
            sm_max: 8 * 1024,
            one_copy_max: 128 * 1024,
            chunk_bytes: 8 * 1024,
            prepost: 64,
            info_slots: 16,
            cache_pages: 4096,
        }
    }

    /// Small geometry for unit tests (tiny kernels).
    pub fn tiny() -> Self {
        MsgConfig {
            sm_max: 512,
            one_copy_max: 4 * 1024,
            chunk_bytes: 1024,
            prepost: 8,
            info_slots: 4,
            cache_pages: 64,
        }
    }

    /// Check internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.sm_max == 0 || self.chunk_bytes == 0 || self.info_slots == 0 {
            return Err("zero-sized geometry".into());
        }
        if self.one_copy_max < self.sm_max {
            return Err("one_copy_max below sm_max".into());
        }
        // Every one-copy message must fit in the pre-posted window, since
        // descriptors are consumed at delivery time.
        if self.one_copy_max.div_ceil(self.chunk_bytes) > self.prepost {
            return Err(format!(
                "one_copy_max needs {} chunks but only {} descriptors are pre-posted",
                self.one_copy_max.div_ceil(self.chunk_bytes),
                self.prepost
            ));
        }
        Ok(())
    }

    /// Protocol for a message size.
    pub fn protocol_for(&self, bytes: usize) -> Protocol {
        if bytes <= self.sm_max {
            Protocol::SharedMemory
        } else if bytes <= self.one_copy_max {
            Protocol::OneCopy
        } else {
            Protocol::ZeroCopy
        }
    }
}

/// The three transfer protocols. The discriminant is the wire encoding
/// (`MsgInfo::proto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Protocol {
    SharedMemory = 0,
    OneCopy = 1,
    ZeroCopy = 2,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_is_valid() {
        MsgConfig::classic().validate().unwrap();
        MsgConfig::tiny().validate().unwrap();
    }

    #[test]
    fn protocol_switch_points() {
        let c = MsgConfig::classic();
        assert_eq!(c.protocol_for(1), Protocol::SharedMemory);
        assert_eq!(c.protocol_for(c.sm_max), Protocol::SharedMemory);
        assert_eq!(c.protocol_for(c.sm_max + 1), Protocol::OneCopy);
        assert_eq!(c.protocol_for(c.one_copy_max), Protocol::OneCopy);
        assert_eq!(c.protocol_for(c.one_copy_max + 1), Protocol::ZeroCopy);
    }

    #[test]
    fn invalid_geometries_rejected() {
        let mut c = MsgConfig::classic();
        c.one_copy_max = c.sm_max - 1;
        assert!(c.validate().is_err());

        let mut c = MsgConfig::classic();
        c.prepost = 1;
        assert!(c.validate().is_err(), "window smaller than max chunks");
    }
}
