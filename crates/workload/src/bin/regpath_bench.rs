//! Registration fast-path micro-benchmark (criterion-free, offline).
//!
//! Measures the three paths the fast-path overhaul targets and writes the
//! numbers to `BENCH_regpath.json` in the repository root:
//!
//! * `register`/`deregister` cost per strategy × region size (the batched
//!   pin paths);
//! * `find_covering` cost and probe count as the live-region count grows
//!   (the interval index — the probe column is the deterministic witness
//!   that lookups no longer scan the table);
//! * registration-cache acquire cost for exact hits, covering hits and
//!   misses (the O(1)-release / O(log n)-eviction LRU).
//!
//! It also runs the **eager-vs-on-demand A/B sweep** over the full VIA
//! fabric: steady-state send/receive throughput once the lazily pinned
//! pages are resident (`REGPATH_ASSERT_ONDEMAND=1` gates the on-demand
//! path to within `REGPATH_ONDEMAND_MAX`× of eager kiobuf), and a
//! memory-stress regime where the page stealer must dissolve cold lazy
//! pins and the NIC must fault-and-repin without corrupting the transfer
//! (asserted unconditionally — it is deterministic).
//!
//! Wall-clock numbers are medians over `REPS` timed batches; probe counts
//! are exact. Run with `cargo run --release --bin regpath_bench`.

use std::fmt::Write as _;
use std::time::Instant;

use simmem::{prot, Capabilities, Kernel, KernelConfig, Pid, PAGE_SIZE};
use via::system::ViaSystem;
use via::tpt::ProtectionTag;
use vialock::{MemoryRegistry, RegistrationCache, StrategyKind};
use workload::apply_pressure;

const REPS: usize = 7;

fn kernel() -> (Kernel, Pid) {
    let mut k = Kernel::new(KernelConfig {
        nframes: 1 << 16,
        reserved_frames: 128,
        swap_slots: 1 << 17,
        default_rlimit_memlock: None,
        swap_cache: false,
    });
    let pid = k.spawn_process(Capabilities::default());
    (k, pid)
}

/// Median of `REPS` runs of `f`, each returning (total_ns, per-op count).
fn median_ns_per_op(mut f: impl FnMut() -> (u128, usize)) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, n) = f();
            ns as f64 / n as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn bench_register(strategy: StrategyKind, npages: usize) -> (f64, f64) {
    let (mut k, pid) = kernel();
    let iters = 64;
    let buf = k
        .mmap_anon(pid, iters * npages * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    let mut reg = MemoryRegistry::new(strategy);
    let reg_ns = median_ns_per_op(|| {
        let t = Instant::now();
        let handles: Vec<_> = (0..iters)
            .map(|i| {
                reg.register(
                    &mut k,
                    pid,
                    buf + (i * npages * PAGE_SIZE) as u64,
                    npages * PAGE_SIZE,
                )
                .unwrap()
            })
            .collect();
        let ns = t.elapsed().as_nanos();
        for h in handles {
            reg.deregister(&mut k, h).unwrap();
        }
        (ns, iters)
    });
    let dereg_ns = median_ns_per_op(|| {
        let handles: Vec<_> = (0..iters)
            .map(|i| {
                reg.register(
                    &mut k,
                    pid,
                    buf + (i * npages * PAGE_SIZE) as u64,
                    npages * PAGE_SIZE,
                )
                .unwrap()
            })
            .collect();
        let t = Instant::now();
        for h in handles {
            reg.deregister(&mut k, h).unwrap();
        }
        (t.elapsed().as_nanos(), iters)
    });
    (reg_ns, dereg_ns)
}

fn bench_find_covering(live: usize) -> (f64, usize) {
    let (mut k, pid) = kernel();
    let buf = k
        .mmap_anon(pid, live * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
    let handles: Vec<_> = (0..live)
        .map(|i| {
            reg.register(&mut k, pid, buf + (i * PAGE_SIZE) as u64, PAGE_SIZE)
                .unwrap()
        })
        .collect();
    let iters = 4096;
    let lookup_ns = median_ns_per_op(|| {
        let t = Instant::now();
        let mut found = 0usize;
        for i in 0..iters {
            let q = buf + (((i * 31) % live) * PAGE_SIZE) as u64;
            found += usize::from(reg.find_covering(pid, q, PAGE_SIZE).is_some());
        }
        assert_eq!(found, iters);
        (t.elapsed().as_nanos(), iters)
    });
    let (_, probes) =
        reg.find_covering_probed(pid, buf + ((live / 2) * PAGE_SIZE) as u64, PAGE_SIZE);
    for h in handles {
        reg.deregister(&mut k, h).unwrap();
    }
    (lookup_ns, probes)
}

fn bench_cache() -> (f64, f64, f64) {
    let (mut k, pid) = kernel();
    let buf = k
        .mmap_anon(pid, 4096 * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
    let mut cache = RegistrationCache::new(1 << 20);
    // Warm 512 cached 8-page spans.
    let spans = 512usize;
    for i in 0..spans {
        let h = cache
            .acquire(
                &mut k,
                &mut reg,
                pid,
                buf + (i * 8 * PAGE_SIZE) as u64,
                8 * PAGE_SIZE,
            )
            .unwrap();
        cache.release(&mut k, &mut reg, h).unwrap();
    }
    let iters = 4096;
    let exact_ns = median_ns_per_op(|| {
        let t = Instant::now();
        for i in 0..iters {
            let a = buf + (((i * 13) % spans) * 8 * PAGE_SIZE) as u64;
            let h = cache
                .acquire(&mut k, &mut reg, pid, a, 8 * PAGE_SIZE)
                .unwrap();
            cache.release(&mut k, &mut reg, h).unwrap();
        }
        (t.elapsed().as_nanos(), iters)
    });
    let covering_ns = median_ns_per_op(|| {
        let t = Instant::now();
        for i in 0..iters {
            let a = buf + ((((i * 13) % spans) * 8 + 1) * PAGE_SIZE) as u64;
            let h = cache
                .acquire(&mut k, &mut reg, pid, a, 2 * PAGE_SIZE)
                .unwrap();
            cache.release(&mut k, &mut reg, h).unwrap();
        }
        (t.elapsed().as_nanos(), iters)
    });
    // Miss + immediate flush: the full register/admit/evict cycle.
    let miss_buf = k
        .mmap_anon(pid, 256 * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    let miss_iters = 256;
    let miss_ns = median_ns_per_op(|| {
        let t = Instant::now();
        for i in 0..miss_iters {
            let a = miss_buf + (i * PAGE_SIZE) as u64;
            let h = cache.acquire(&mut k, &mut reg, pid, a, PAGE_SIZE).unwrap();
            cache.release(&mut k, &mut reg, h).unwrap();
        }
        let ns = t.elapsed().as_nanos();
        // Drop the fresh entries so the next rep misses again.
        cache.flush(&mut k, &mut reg).unwrap();
        // Re-warm the hit working set evicted by the flush.
        for i in 0..spans {
            let h = cache
                .acquire(
                    &mut k,
                    &mut reg,
                    pid,
                    buf + (i * 8 * PAGE_SIZE) as u64,
                    8 * PAGE_SIZE,
                )
                .unwrap();
            cache.release(&mut k, &mut reg, h).unwrap();
        }
        (ns, miss_iters)
    });
    (exact_ns, covering_ns, miss_ns)
}

/// Pages per transfer in the eager-vs-on-demand A/B sweep.
const AB_PAGES: usize = 8;
/// Transfers per timed batch in the steady-state A/B measurement.
const AB_TRANSFERS: usize = 64;

/// Build a connected 2-node fabric with registered send/receive buffers.
/// Returns everything the transfer loop needs.
#[allow(clippy::type_complexity)]
fn ab_fabric(
    config: KernelConfig,
    strategy: StrategyKind,
) -> (
    ViaSystem,
    (Pid, via::vi::ViId, via::tpt::MemId, u64),
    (Pid, via::vi::ViId, via::tpt::MemId, u64),
) {
    let mut sys = ViaSystem::new(2, config, strategy);
    let pa = sys.spawn_process(0);
    let pb = sys.spawn_process(1);
    let tag = ProtectionTag(7);
    let va = sys.create_vi(0, pa, tag).unwrap();
    let vb = sys.create_vi(1, pb, tag).unwrap();
    sys.connect((0, va), (1, vb)).unwrap();
    let len = AB_PAGES * PAGE_SIZE;
    let sbuf = sys.mmap(0, pa, len, prot::READ | prot::WRITE).unwrap();
    let rbuf = sys.mmap(1, pb, len, prot::READ | prot::WRITE).unwrap();
    let sh = sys.register_mem(0, pa, sbuf, len, tag).unwrap();
    let rh = sys.register_mem(1, pb, rbuf, len, tag).unwrap();
    (sys, (pa, va, sh, sbuf), (pb, vb, rh, rbuf))
}

/// One send/receive round trip with drained completion queues.
fn ab_transfer(
    sys: &mut ViaSystem,
    send: (Pid, via::vi::ViId, via::tpt::MemId, u64),
    recv: (Pid, via::vi::ViId, via::tpt::MemId, u64),
) {
    let len = AB_PAGES * PAGE_SIZE;
    let (_, va, sh, sbuf) = send;
    let (_, vb, rh, rbuf) = recv;
    sys.post_recv(1, vb, rh, rbuf, len).unwrap();
    sys.post_send(0, va, sh, sbuf, len).unwrap();
    sys.pump().unwrap();
    while sys.poll_cq(0, va).unwrap().is_some() {}
    while sys.poll_cq(1, vb).unwrap().is_some() {}
}

/// Steady-state resident hit path: after a warm-up transfer has faulted
/// every on-demand page resident, the timed loop should run the same TPT
/// translations as eager pinning plus only the (empty) invalidation drain.
fn bench_ab_steady(strategy: StrategyKind) -> f64 {
    let (mut sys, send, recv) = ab_fabric(
        KernelConfig {
            nframes: 1 << 14,
            reserved_frames: 128,
            swap_slots: 1 << 15,
            default_rlimit_memlock: None,
            swap_cache: false,
        },
        strategy,
    );
    let len = AB_PAGES * PAGE_SIZE;
    sys.write_user(0, send.0, send.3, &vec![0x5Au8; len])
        .unwrap();
    ab_transfer(&mut sys, send, recv);
    let ns = median_ns_per_op(|| {
        let t = Instant::now();
        for _ in 0..AB_TRANSFERS {
            ab_transfer(&mut sys, send, recv);
        }
        (t.elapsed().as_nanos(), AB_TRANSFERS)
    });
    sys.check_invariants().expect("A/B steady-state invariants");
    ns
}

/// Fault counters from one pressure run, summed over both nodes.
struct AbPressure {
    intact: bool,
    protection_faults: u64,
    repins: u64,
    pressure_unpins: u64,
    tpt_invalidations: u64,
}

/// Memory-stress regime (the `dma_under_pressure` machine): warm the
/// buffers resident, flood both nodes with an antagonist, then transfer a
/// fresh payload. Eager pinning must hold its frames; on-demand must let
/// the stealer dissolve the cold pins and recover by fault-and-repin.
fn bench_ab_pressure(strategy: StrategyKind) -> AbPressure {
    let (mut sys, send, recv) = ab_fabric(
        KernelConfig {
            nframes: 512,
            reserved_frames: 8,
            swap_slots: 8192,
            default_rlimit_memlock: None,
            swap_cache: false,
        },
        strategy,
    );
    let len = AB_PAGES * PAGE_SIZE;
    sys.write_user(0, send.0, send.3, &vec![0xA5u8; len])
        .unwrap();
    ab_transfer(&mut sys, send, recv);

    apply_pressure(sys.kernel_mut(0), 1024);
    apply_pressure(sys.kernel_mut(1), 1024);

    let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    sys.write_user(0, send.0, send.3, &payload).unwrap();
    ab_transfer(&mut sys, send, recv);
    let mut got = vec![0u8; len];
    sys.read_user(1, recv.0, recv.3, &mut got).unwrap();
    sys.check_invariants().expect("A/B pressure invariants");

    let (ra, rb) = (sys.registry_stats(0), sys.registry_stats(1));
    AbPressure {
        intact: got == payload,
        protection_faults: ra.protection_faults + rb.protection_faults,
        repins: ra.repins + rb.repins,
        pressure_unpins: ra.pressure_unpins + rb.pressure_unpins,
        tpt_invalidations: sys.node(0).nic.stats.tpt_invalidations
            + sys.node(1).nic.stats.tpt_invalidations,
    }
}

fn main() {
    let mut json = String::from(
        "{\n  \"bench\": \"regpath\",\n  \"schema\": 4,\n  \"unit\": \"ns_per_op\",\n",
    );

    json.push_str("  \"register\": {\n");
    let sizes = [4usize, 64];
    for (si, strategy) in StrategyKind::ALL.iter().enumerate() {
        write!(json, "    \"{}\": {{", strategy.label()).unwrap();
        for (i, &npages) in sizes.iter().enumerate() {
            let (r, d) = bench_register(*strategy, npages);
            eprintln!(
                "register {:>14} {:>3} pages: {:>9.0} ns/reg {:>9.0} ns/dereg",
                strategy.label(),
                npages,
                r,
                d
            );
            write!(
                json,
                "{}\"{}p\": {{\"register\": {:.0}, \"deregister\": {:.0}}}",
                if i == 0 { "" } else { ", " },
                npages,
                r,
                d
            )
            .unwrap();
        }
        json.push_str(if si + 1 == StrategyKind::ALL.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    json.push_str("  },\n");

    json.push_str("  \"find_covering\": {\n");
    let counts = [64usize, 1024, 4096];
    for (i, &live) in counts.iter().enumerate() {
        let (ns, probes) = bench_find_covering(live);
        eprintln!("find_covering {live:>5} live regions: {ns:>7.0} ns/lookup, {probes} probes");
        writeln!(
            json,
            "    \"{}\": {{\"lookup_ns\": {:.0}, \"probes\": {}}}{}",
            live,
            ns,
            probes,
            if i + 1 == counts.len() { "" } else { "," }
        )
        .unwrap();
    }
    json.push_str("  },\n");

    let (exact, covering, miss) = bench_cache();
    eprintln!("cache acquire: exact {exact:.0} ns, covering {covering:.0} ns, miss {miss:.0} ns");
    writeln!(
        json,
        "  \"cache_acquire\": {{\"exact_hit\": {exact:.0}, \"covering_hit\": {covering:.0}, \"miss\": {miss:.0}}},"
    )
    .unwrap();

    // Eager-vs-on-demand A/B sweep: steady-state resident throughput plus
    // the pressure regime where the stealer dissolves cold lazy pins.
    let eager_ns = bench_ab_steady(StrategyKind::KiobufReliable);
    let ondemand_ns = bench_ab_steady(StrategyKind::OnDemand);
    let ab_ratio = ondemand_ns / eager_ns;
    eprintln!(
        "ondemand A/B steady state: eager {eager_ns:>9.0} ns/transfer, on-demand {ondemand_ns:>9.0} ns/transfer ({ab_ratio:.2}x)"
    );
    json.push_str("  \"ondemand_ab\": {\n");
    writeln!(json, "    \"transfer_pages\": {AB_PAGES},").unwrap();
    writeln!(
        json,
        "    \"steady_state_ns_per_transfer\": {{\"eager\": {eager_ns:.0}, \"on_demand\": {ondemand_ns:.0}, \"ratio\": {ab_ratio:.3}}},"
    )
    .unwrap();
    json.push_str("    \"pressure\": {\n");
    for (i, strategy) in [StrategyKind::KiobufReliable, StrategyKind::OnDemand]
        .iter()
        .enumerate()
    {
        let p = bench_ab_pressure(*strategy);
        eprintln!(
            "ondemand A/B pressure {:>8}: intact {}, {} protection faults, {} repins, {} pressure unpins, {} TPT invalidations",
            strategy.label(),
            p.intact,
            p.protection_faults,
            p.repins,
            p.pressure_unpins,
            p.tpt_invalidations
        );
        // Correctness is not a timing question: both strategies must land
        // the payload, and on-demand must do it by demonstrably unpinning
        // under pressure and repinning on access — not by the stealer
        // having happened to spare the buffers.
        assert!(
            p.intact,
            "{} lost the transfer under pressure",
            strategy.label()
        );
        if *strategy == StrategyKind::OnDemand {
            assert!(p.pressure_unpins > 0, "stealer never dissolved a lazy pin");
            assert!(p.repins > 0, "NIC never repinned a stolen page");
            assert!(p.tpt_invalidations > 0, "no TPT entry was invalidated");
        }
        writeln!(
            json,
            "      \"{}\": {{\"intact\": {}, \"protection_faults\": {}, \"repins\": {}, \"pressure_unpins\": {}, \"tpt_invalidations\": {}}}{}",
            strategy.label(),
            p.intact,
            p.protection_faults,
            p.repins,
            p.pressure_unpins,
            p.tpt_invalidations,
            if i == 0 { "," } else { "" }
        )
        .unwrap();
    }
    json.push_str("    }\n  }\n}\n");

    // Anchor to the repository root so the output lands in the same place
    // regardless of the invoking directory.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_regpath.json");
    std::fs::write(out, &json).expect("write BENCH_regpath.json");
    println!("{json}");

    // CI on-demand gate: with REGPATH_ASSERT_ONDEMAND=1, require the
    // on-demand steady-state resident hit path to stay within a bounded
    // factor of eager kiobuf (override with REGPATH_ONDEMAND_MAX). The
    // pressure-regime correctness asserts above run unconditionally; only
    // this timing ratio is environment-gated because it is noisy on loaded
    // runners.
    if std::env::var("REGPATH_ASSERT_ONDEMAND").as_deref() == Ok("1") {
        let max = std::env::var("REGPATH_ONDEMAND_MAX")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(3.0);
        eprintln!("on-demand gate: steady-state on-demand/eager = {ab_ratio:.2}x (max {max:.2}x)");
        if ab_ratio > max {
            eprintln!("on-demand gate FAILED: {ab_ratio:.2}x > {max:.2}x");
            std::process::exit(1);
        }
    }
}
