//! Correctness tooling for the fabric's lock-free cores.
//!
//! Three prongs (see DESIGN.md §15 and §21):
//!
//! 1. **Model checking** — [`sync`] is a shim the lock-free code is written
//!    against: thin `std` re-exports normally, but under
//!    `RUSTFLAGS="--cfg viamodel"` a deterministic cooperative scheduler
//!    ([`model`]) that DFS-explores thread interleavings with a
//!    vector-clock ([`vc`]) race detector keyed off each access's
//!    *declared* `Ordering`. The model-check suites live in
//!    `crates/check/tests/` behind `#![cfg(viamodel)]`.
//!
//! 2. **Repo-specific lint** — [`lint`] scans the workspace sources for
//!    project rules (SAFETY comments on `unsafe`, justified `Relaxed`
//!    orderings, no panics in datapath modules, `push_completion` as the
//!    single completion choke point). Run it via
//!    `cargo run -p check --bin lint`.
//!
//! 3. **Differentials and properties** — [`diff`] drives two
//!    implementations of one behaviour through the same seeded script,
//!    compares them after every step and shrinks a divergence to a
//!    pasteable test; its case runner serves the property tests.

pub mod diff;
pub mod lint;
pub mod sync;
pub mod vc;

#[cfg(viamodel)]
pub mod model;
