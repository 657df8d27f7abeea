//! **E5 — registration-cache effectiveness.**
//!
//! Zero-copy sends cycling over a pool of `working_set` distinct buffers;
//! the cache holds `cache_pages` pages. Hit ratio and registrations per
//! send fall out of the functional run.

use simmem::KernelConfig;
use vialock::StrategyKind;

use msg::{Comm, MsgConfig};

/// One cache-experiment row.
#[derive(Debug, Clone)]
pub struct CachePoint {
    pub working_set_buffers: usize,
    pub cache_pages: usize,
    pub sends: usize,
    pub hit_ratio: f64,
    pub registrations: u64,
    /// Dynamic registrations per send (2.0 = both sides register every
    /// time; 0.0 = fully cached).
    pub regs_per_send: f64,
}

/// Run `sends` zero-copy messages round-robin over `working_set` buffers
/// of `buf_bytes` each, with the given per-node cache budget.
pub fn run_cache_experiment(
    working_set: usize,
    buf_bytes: usize,
    sends: usize,
    cache_pages: usize,
) -> CachePoint {
    let mut cfg = MsgConfig::classic();
    cfg.cache_pages = cache_pages;
    let mut comm = Comm::new(
        2,
        2,
        KernelConfig::large(),
        StrategyKind::KiobufReliable,
        cfg,
    )
    .expect("communicator");

    // Pools on both sides.
    let sbufs: Vec<_> = (0..working_set)
        .map(|_| comm.alloc_buffer(0, buf_bytes).expect("sbuf"))
        .collect();
    let rbufs: Vec<_> = (0..working_set)
        .map(|_| comm.alloc_buffer(1, buf_bytes).expect("rbuf"))
        .collect();
    let data = vec![0x3Cu8; buf_bytes];
    for &b in &sbufs {
        comm.fill_buffer(0, b, &data).expect("fill");
    }

    let before = comm.stats;
    for i in 0..sends {
        let s = sbufs[i % working_set];
        let r = rbufs[i % working_set];
        let h = comm.send(0, 1, 1, s, buf_bytes).expect("send");
        comm.recv(1, 0, 1, r, buf_bytes).expect("recv");
        comm.wait(h).expect("wait");
    }
    let d = comm.stats.since(&before);
    let lookups = d.registrations + d.cache_hits;
    CachePoint {
        working_set_buffers: working_set,
        cache_pages,
        sends,
        hit_ratio: if lookups == 0 {
            0.0
        } else {
            d.cache_hits as f64 / lookups as f64
        },
        registrations: d.registrations,
        regs_per_send: d.registrations as f64 / sends as f64,
    }
}

/// The E5 series: hit ratio vs. working-set size at a fixed cache budget.
pub fn run_cache_series(
    working_sets: &[usize],
    buf_bytes: usize,
    sends: usize,
    cache_pages: usize,
) -> Vec<CachePoint> {
    working_sets
        .iter()
        .map(|&w| run_cache_experiment(w, buf_bytes, sends, cache_pages))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUF: usize = 256 * 1024; // 64 pages — zero-copy territory

    #[test]
    fn single_buffer_is_fully_cached() {
        let p = run_cache_experiment(1, BUF, 6, 4096);
        assert_eq!(p.registrations, 2, "one registration per side");
        assert!(p.hit_ratio > 0.8, "hit ratio {}", p.hit_ratio);
    }

    #[test]
    fn cache_too_small_forces_re_registration() {
        // Working set of 4 × 64 pages = 256 pages against a 64-page cache:
        // every send re-registers.
        let small = run_cache_experiment(4, BUF, 8, 64);
        let large = run_cache_experiment(4, BUF, 8, 4096);
        assert!(small.hit_ratio < large.hit_ratio);
        assert!(small.regs_per_send > large.regs_per_send);
    }

    #[test]
    fn series_is_monotone_in_working_set() {
        let pts = run_cache_series(&[1, 4], BUF, 6, 160);
        assert!(pts[0].hit_ratio >= pts[1].hit_ratio);
    }
}
