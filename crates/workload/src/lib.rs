//! # workload — experiment harnesses for the evaluation
//!
//! Each module regenerates one experiment from DESIGN.md's index:
//!
//! * [`locktest`] — **E1**: the paper's section-3.1 experiment, verbatim
//!   eight steps, across all four pinning strategies;
//! * [`multireg`] — **E4**: multiple-registration semantics (naive mlock vs.
//!   the registry's interval bookkeeping vs. kiobuf pin counts);
//! * [`regmetrics`] — **E2**'s kernel events per registration (faults,
//!   COW copies, VMA splits, `PG_locked` and `VM_LOCKED` pages);
//! * [`cachebench`] — **E5**: registration-cache hit ratios under varying
//!   buffer working sets;
//! * [`netpipe`] — **E6/E7**: NetPIPE-style bandwidth/latency sweeps, both
//!   from the pure cost models and composed from functional ping-pong event
//!   counts;
//! * [`minis`] — **E9 (extension)**: a miniature NAS IS kernel over the
//!   collectives, regenerating the NPB comparison's shape;
//! * [`pressure`] — the `allocator` antagonist process;
//! * [`model`] — event-count → simulated-time composition;
//! * [`tables`] — markdown table rendering for EXPERIMENTS.md.

pub mod cachebench;
pub mod locktest;
pub mod minis;
pub mod model;
pub mod multireg;
pub mod netpipe;
pub mod pressure;
pub mod regmetrics;
pub mod tables;

pub use locktest::{run_locktest, LocktestOutcome};
pub use pressure::apply_pressure;
