//! # via-lockmem — reproduction of "Proposing a Mechanism for Reliably
//! Locking VIA Communication Memory in Linux" (Seifert & Rehm, CLUSTER 2000)
//!
//! Umbrella crate re-exporting the workspace:
//!
//! * [`simmem`] — the simulated Linux 2.2/2.4 VM (frames, page map, VMAs,
//!   demand paging, swap, the page stealer, mlock, kiobufs);
//! * [`vialock`] — **the paper's contribution**: pluggable pinning
//!   strategies, the nestable kiobuf pin table, region table and
//!   registration cache;
//! * [`via`] — the VIA stack (VIs, descriptors, doorbells, TPT, NIC,
//!   kernel agent, and the `Fabric` surface over two fabrics);
//! * [`netsim`] — calibrated interconnect cost models and the CPU
//!   availability model;
//! * [`msg`] — the CHEMPI-style message-passing layer (shared-memory /
//!   one-copy / zero-copy protocols with a registration cache);
//! * [`workload`] — the experiment harnesses regenerating the evaluation.
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the paper-vs-measured
//! record; the `examples/` directory contains runnable walkthroughs.

pub use msg;
pub use netsim;
pub use simmem;
pub use via;
pub use vialock;
pub use workload;
