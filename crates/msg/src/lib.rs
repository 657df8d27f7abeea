//! # msg — a miniature CHEMPI: message passing over the VIA/SCI stack
//!
//! Reimplements the three data-transfer protocols of the companion paper
//! *"An optimized MPI library for VIA/SCI cards"* on top of the functional
//! `via` stack, so that the registration machinery under test (`vialock`)
//! sits on the hot path exactly where it does in a real MPI:
//!
//! * **shared-memory protocol** ([`comm`], short messages): the sender
//!   PIO-copies payload + a *message info struct* into a segment the
//!   receiver exported over SCI; the receiver polls its local memory,
//!   copies out, and raises a *ready flag* in the sender's exported
//!   control segment;
//! * **one-copy VIA protocol** (medium): the receiver pre-posts fixed-size
//!   receive descriptors on pre-registered ring buffers; the sender
//!   registers its user buffer (through the registration cache), chunks the
//!   payload into VIA sends, and the receiver copies chunks into the user
//!   buffer;
//! * **zero-copy VIA protocol** (long): rendezvous — the receiver registers
//!   its user buffer and PIO-writes `(MemId, addr)` back; the sender
//!   registers its own buffer and RDMA-writes the payload directly into the
//!   receiver's memory. No copies.
//!
//! Protocol choice is by message size ([`config::MsgConfig`]); every
//! dynamic registration goes through the LRU [`regcache`], which is the
//! paper's "keep regions registered as long as possible" remedy.
//!
//! The crate is *functional*: data really moves through registered frames,
//! so an unreliable pinning strategy corrupts transfers here exactly as in
//! the locktest. Event counts ([`stats::MsgStats`]) feed the `netsim` cost
//! models to regenerate the bandwidth figures.

pub mod coll;
pub mod comm;
pub mod config;
pub mod indirect;
pub mod regcache;
pub mod seg;
pub mod stats;
pub mod window;

#[cfg(test)]
mod progress_diff_tests;

pub use comm::{Comm, RankId, SendHandle, ANY_SOURCE, ANY_TAG};
pub use config::MsgConfig;
pub use regcache::NodeRegCache;
pub use stats::MsgStats;
pub use window::Window;
