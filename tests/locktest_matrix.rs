//! E1 integration: the full locktest matrix through the complete stack
//! (simmem VM + vialock strategies + via NIC/TPT), asserting the paper's
//! verdict for every strategy and the failure anatomy for refcount-only.

use vialock::StrategyKind;
use workload::locktest::{run_locktest, run_locktest_matrix};

#[test]
fn verdicts_match_the_paper() {
    let outcomes = run_locktest_matrix(32);
    for o in &outcomes {
        assert!(o.swap_outs > 0, "{}: pressure must swap", o.strategy);
        match o.strategy {
            "refcount-only" => assert!(!o.reliable, "refcount pinning must fail"),
            // On-demand registration never promises stable physical
            // addresses — stale-address DMA is exactly what its NIC
            // fault-and-repin protocol exists to replace (E18). The raw
            // locktest must find it unreliable, but *cleanly* so: the
            // stealer dissolves the lazy pins and frees the frames, so no
            // memory is orphaned (unlike refcount-only).
            "on-demand" => {
                assert!(
                    !o.reliable,
                    "stale-address DMA is outside the on-demand contract"
                );
                assert_eq!(o.orphaned_frames, 0, "on-demand must fail without orphans");
            }
            other => assert!(o.reliable, "{other} must survive the locktest"),
        }
    }
}

#[test]
fn refcount_failure_anatomy() {
    let o = run_locktest(StrategyKind::RefcountOnly, 32);
    // "In most cases we observed ... all physical addresses had changed and
    // the first page still contained its original value."
    assert_eq!(o.pages_moved, o.pages_total, "every page relocated");
    assert!(!o.dma_visible, "DMA landed in the orphaned frame");
    // "the original physical pages have not been freed yet" — orphaned, so
    // system stability is unaffected but the memory is lost.
    assert_eq!(o.orphaned_frames, o.pages_total);
}

#[test]
fn reliable_strategies_leave_no_orphans() {
    for s in [
        StrategyKind::RawFlags,
        StrategyKind::VmaMlock,
        StrategyKind::KiobufReliable,
    ] {
        let o = run_locktest(s, 32);
        assert_eq!(o.orphaned_frames, 0, "{:?}", s);
        assert_eq!(o.pages_moved, 0, "{:?}", s);
    }
}

#[test]
fn mlock_skips_whole_vmas_kiobuf_skips_pages() {
    // The two reliable mechanisms protect at different granularity; the
    // stealer statistics tell them apart.
    let m = run_locktest(StrategyKind::VmaMlock, 32);
    assert!(m.skipped_vm_locked > 0);
    let k = run_locktest(StrategyKind::KiobufReliable, 32);
    assert!(k.skipped_pg_locked > 0);
}

#[test]
fn scales_with_region_size() {
    // The failure is not an artifact of one region size.
    for npages in [4usize, 16, 128] {
        let o = run_locktest(StrategyKind::RefcountOnly, npages);
        assert!(!o.reliable, "refcount fails at {npages} pages");
        let o = run_locktest(StrategyKind::KiobufReliable, npages);
        assert!(o.reliable, "kiobuf survives at {npages} pages");
    }
}
