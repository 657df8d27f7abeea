//! The paper's locktest experiment (section 3.1), every pinning strategy —
//! regenerates Table E1 of EXPERIMENTS.md, then its two extensions: the
//! pressure sweep (E1b) and the kernel-semantics ablation (E1-abl).
//!
//! Run with: `cargo run --example locktest`

use vialock::StrategyKind;
use workload::locktest::{run_locktest_matrix, run_pressure_sweep, run_semantics_ablation};
use workload::tables::{markdown_table, verdict};

fn main() {
    let npages = 64;
    println!("locktest: register {npages} pages, run the allocator antagonist,");
    println!("rewrite the block, DMA through the registration-time physical");
    println!("addresses, compare. (Paper section 3.1, steps 1-8.)\n");

    let rows: Vec<Vec<String>> = run_locktest_matrix(npages)
        .into_iter()
        .map(|o| {
            vec![
                o.strategy.to_string(),
                format!("{}/{}", o.pages_moved, o.pages_total),
                if o.dma_visible { "yes" } else { "NO" }.to_string(),
                o.orphaned_frames.to_string(),
                o.swap_outs.to_string(),
                verdict(o.reliable),
            ]
        })
        .collect();

    println!(
        "{}",
        markdown_table(
            &[
                "strategy",
                "pages moved",
                "DMA visible",
                "orphaned frames",
                "swap-outs",
                "verdict",
            ],
            &rows,
        )
    );

    println!("Expected (the paper's findings):");
    println!("  refcount-only  — pages moved, DMA writes lost, frames orphaned;");
    println!("  raw-flags      — survives, but clobbers the kernel's I/O lock;");
    println!("  vma-mlock      — survives (stealer skips VM_LOCKED), needs CAP_IPC_LOCK;");
    println!("  kiobuf         — survives: the proposed mechanism;");
    println!("  on-demand      — addresses move by design (the NIC repins), no orphans.");

    println!("\nE1b: registered pages lost vs antagonist size");
    let fractions = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0];
    let refcount = run_pressure_sweep(StrategyKind::RefcountOnly, npages, &fractions);
    let kiobuf = run_pressure_sweep(StrategyKind::KiobufReliable, npages, &fractions);
    let rows: Vec<Vec<String>> = refcount
        .iter()
        .zip(&kiobuf)
        .map(|((f, r), (_, k))| {
            vec![
                format!("{f:.2}"),
                format!("{}/{}", r.pages_moved, r.pages_total),
                format!("{}/{}", k.pages_moved, k.pages_total),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "antagonist (xRAM)",
                "refcount pages lost",
                "kiobuf pages lost"
            ],
            &rows,
        )
    );

    println!("E1-abl: kernel eviction semantics");
    let rows: Vec<Vec<String>> = run_semantics_ablation(npages)
        .into_iter()
        .map(|(label, o)| {
            vec![
                label.to_string(),
                o.strategy.to_string(),
                format!("{}/{}", o.pages_moved, o.pages_total),
                o.swap_cache_hits.to_string(),
                verdict(o.reliable),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "kernel",
                "strategy",
                "pages moved",
                "cache refaults",
                "verdict"
            ],
            &rows,
        )
    );
}
