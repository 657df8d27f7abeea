//! The invariant-checked chaos harness: sweep seeded fault plans over a
//! representative VIA workload and assert, after every operation, that the
//! stack degraded *cleanly* — every injected fault surfaces as a typed
//! `ViaError` or an error completion, never as a panic, and the structural
//! invariants hold throughout:
//!
//! 1. registry census: per-frame pin counts equal the live registrations
//!    covering them;
//! 2. no orphaned frames (the reliable-pinning promise);
//! 3. TPT occupancy never exceeds capacity;
//! 4. the packet-pool ledger balances against packets in flight.
//!
//! The deterministic per-site sweep doubles as the CI `chaos-smoke` run:
//! seeds are fixed, so a failure reproduces with `cargo test --test chaos`.

use check::diff::cases;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use dlm::sim::ServerSim;
use msg::{Comm, MsgConfig};
use simmem::{prot, KernelConfig, PAGE_SIZE};
use via::system::ViaSystem;
use via::tpt::{MemId, ProtectionTag};
use via::{Fabric, ViaError};
use vialock::{fault, FaultPlan, FaultSite, StrategyKind};

/// Run one workload round under `plan` on the deterministic system.
/// Returns `Err` only when an invariant breaks or teardown leaks — an
/// injected fault surfacing as a `ViaError` is an *accepted* outcome
/// (returned in the `Ok` payload for the caller to inspect).
fn chaos_round(plan: FaultPlan) -> Result<Result<(), ViaError>, String> {
    chaos_round_on(
        ViaSystem::new(2, KernelConfig::small(), StrategyKind::KiobufReliable),
        plan,
    )
}

/// The fabric-generic chaos round: the same workload, invariant cadence
/// and teardown audit against any [`Fabric`] and pinning strategy. (That
/// the threaded cluster degrades exactly as the deterministic system does,
/// step by step and fault by fault, is `crates/via/tests/fabric_diff.rs`.)
fn chaos_round_on<F: Fabric>(mut sys: F, plan: FaultPlan) -> Result<Result<(), ViaError>, String> {
    let handle = fault::handle(plan);
    sys.install_fault_plan(&handle);
    let tag = ProtectionTag(1);
    let p0 = sys.spawn_process(0);
    let p1 = sys.spawn_process(1);
    let mut mems: Vec<(usize, MemId)> = Vec::new();

    let outcome = workload(&mut sys, p0, p1, tag, &mut mems)?;

    // Teardown reclaims everything regardless of what the faults did:
    // registrations, pins, mlock intervals, TPT entries, address spaces.
    sys.exit_process(0, p0)
        .map_err(|e| format!("exit_process p0: {e:?}"))?;
    sys.exit_process(1, p1)
        .map_err(|e| format!("exit_process p1: {e:?}"))?;
    sys.check_invariants()
        .map_err(|e| format!("after process exit: {e}"))?;
    for n in 0..sys.node_count() {
        let (pinned, regions, lazy) = sys.with_node(n, |node| {
            (
                node.registry.pinned_frames(),
                node.nic.tpt.region_count(),
                node.kernel.lazy_pinned_frames().len(),
            )
        });
        if pinned != 0 {
            return Err(format!("node {n}: {pinned} pins leaked after exit"));
        }
        if regions != 0 {
            return Err(format!("node {n}: TPT regions leaked after exit"));
        }
        if lazy != 0 {
            return Err(format!("node {n}: {lazy} lazy pins leaked after exit"));
        }
    }
    Ok(outcome)
}

/// The workload itself: registration, two-sided traffic, RDMA write,
/// deregistration. Invariants are checked after EVERY operation; the
/// first typed error ends the round early (still a clean outcome).
fn workload<F: Fabric>(
    sys: &mut F,
    p0: simmem::Pid,
    p1: simmem::Pid,
    tag: ProtectionTag,
    mems: &mut Vec<(usize, MemId)>,
) -> Result<Result<(), ViaError>, String> {
    macro_rules! step {
        ($name:expr, $e:expr) => {{
            let r = $e;
            sys.check_invariants()
                .map_err(|err| format!("after {}: {err}", $name))?;
            match r {
                Ok(v) => v,
                Err(e) => return Ok(Err(e)),
            }
        }};
    }
    let v0 = step!("create_vi 0", sys.create_vi(0, p0, tag));
    let v1 = step!("create_vi 1", sys.create_vi(1, p1, tag));
    step!("connect", sys.connect((0, v0), (1, v1)));
    let len = 2 * PAGE_SIZE;
    let b0 = step!("mmap 0", sys.mmap(0, p0, len, prot::READ | prot::WRITE));
    let b1 = step!("mmap 1", sys.mmap(1, p1, len, prot::READ | prot::WRITE));
    step!("write_user", sys.write_user(0, p0, b0, &[0xAB; 512]));
    let m0 = step!("register 0", sys.register_mem(0, p0, b0, len, tag));
    mems.push((0, m0));
    let m1 = step!("register 1", sys.register_mem(1, p1, b1, len, tag));
    mems.push((1, m1));

    // Two-sided exchange.
    step!("post_recv", sys.post_recv(1, v1, m1, b1, len));
    step!("post_send", sys.post_send(0, v0, m0, b0, 512));
    step!("pump 1", sys.pump());
    while step!("poll_cq 0", sys.poll_cq(0, v0)).is_some() {}
    while step!("poll_cq 1", sys.poll_cq(1, v1)).is_some() {}

    // Second exchange plus a one-sided write.
    step!("post_recv 2", sys.post_recv(1, v1, m1, b1, len));
    step!("post_send 2", sys.post_send(0, v0, m0, b0, 256));
    step!("pump 2", sys.pump());
    step!(
        "post_rdma_write",
        sys.post_rdma_write(0, v0, m0, b0, 128, m1, b1 + PAGE_SIZE as u64)
    );
    step!("pump 3", sys.pump());

    // Explicit deregistration (exit_process covers whatever is left).
    for (n, m) in mems.drain(..) {
        step!("deregister", sys.deregister_mem(n, m));
    }
    Ok(Ok(()))
}

// ---------------------------------------------------------------------
// Deterministic per-site sweep (the CI chaos-smoke entry point)
// ---------------------------------------------------------------------

/// Every site, hit positions 0..4, one and three failures per activation:
/// 96 fixed-seed rounds. Each must end with success or a typed error and
/// all four invariants intact.
#[test]
fn chaos_smoke_every_site_every_position() {
    let mut rounds = 0u32;
    let mut errored = 0u32;
    for site in FaultSite::ALL {
        for skip in 0..4u64 {
            for fail in [1u64, 3] {
                let seed = 0xC0FFEE ^ (skip << 8) ^ fail;
                let plan = FaultPlan::new(seed).fail_after(site, skip, fail);
                match chaos_round(plan) {
                    Ok(Ok(())) => {}
                    Ok(Err(_)) => errored += 1,
                    Err(violation) => {
                        panic!("site {site} skip {skip} fail {fail}: {violation}")
                    }
                }
                rounds += 1;
            }
        }
    }
    assert_eq!(rounds, 8 * FaultSite::ALL.len() as u32);
    // The sweep is only meaningful if faults actually bite somewhere.
    assert!(errored > 0, "no plan produced a typed error — sites dead?");
}

/// The same sweep with the on-demand strategy: registration reserves but
/// never pins, so every DMA runs the fault-handler/repin path — and the
/// new lazy-pin and pressure-unpin sites fire inside it. Faults must
/// degrade as typed errors or error completions (`RepinFailed`), leave
/// every invariant intact, and leak zero pins — eager or lazy — at exit.
#[test]
fn chaos_smoke_ondemand_repin_path() {
    let mut rounds = 0u32;
    for site in FaultSite::ALL {
        for skip in 0..4u64 {
            let seed = 0x0DDE ^ (skip << 8) ^ (site.code() as u64);
            let plan = FaultPlan::new(seed).fail_after(site, skip, 1);
            match chaos_round_on(
                ViaSystem::new(2, KernelConfig::small(), StrategyKind::OnDemand),
                plan,
            ) {
                // Typed ViaError or absorbed error completion: both clean.
                Ok(_) => {}
                Err(violation) => panic!("ondemand, site {site} skip {skip}: {violation}"),
            }
            rounds += 1;
        }
    }
    assert_eq!(rounds, 4 * FaultSite::ALL.len() as u32);
}

/// A plan with every site disabled must behave exactly like no plan:
/// the full workload succeeds.
#[test]
fn empty_plan_is_transparent() {
    let outcome = chaos_round(FaultPlan::new(1)).expect("invariants");
    assert_eq!(outcome, Ok(()));
}

// ---------------------------------------------------------------------
// The DLM round: faults during acquire/release/holder-exit
// ---------------------------------------------------------------------

/// A compact distributed-lock-manager round under `plan`: fault-free
/// warmup, then the plan fires during live acquire/release traffic AND
/// across a whole rank's exit (`reclaim::exit_rank` racing the storm).
/// The harness's new invariant is checked after **every** step: no lock
/// whose holder has exited remains held past its lease bound. After the
/// storm a calm-phase recovery must leave zero orphaned locks and zero
/// hung waiters. (The 400-plan acceptance sweeps over both DLM designs
/// live in `tests/dlm_chaos.rs`; this round is the per-site smoke.)
fn dlm_round(plan: FaultPlan) -> Result<(Result<(), ViaError>, u64), String> {
    const LEASE: u64 = 30;
    const VICTIM: msg::RankId = 2;
    let mut c = Comm::new(
        3,
        3,
        KernelConfig::small(),
        StrategyKind::KiobufReliable,
        MsgConfig::tiny(),
    )
    .expect("comm setup");
    let mut sim = ServerSim::new(&mut c, 0, &[1, 2], 3, 4, 0.9, LEASE, plan.seed())
        .map_err(|e| format!("sim setup: {e:?}"))?;
    for _ in 0..20 {
        sim.step(&mut c, 3)
            .map_err(|e| format!("fault-free warmup: {e:?}"))?;
    }

    // Lock traffic in the server design is PIO and consults no fault
    // site after setup; a small RDMA put rides along so the storm bites
    // the descriptor path the locks are protecting. Its typed errors
    // are absorbed — application traffic failing must never corrupt
    // lock state.
    let win_buf = c
        .alloc_buffer(0, 256)
        .map_err(|e| format!("antagonist window: {e:?}"))?;
    let win = c
        .expose_window(0, win_buf, 256)
        .map_err(|e| format!("antagonist expose: {e:?}"))?;
    let dma_src = c
        .alloc_buffer(1, 64)
        .map_err(|e| format!("antagonist src: {e:?}"))?;

    let storm = fault::handle(plan);
    c.system_mut().install_fault_plan(&storm);
    let mut outcome = Ok(());
    let mut victim_exited = false;
    for i in 0..80u64 {
        if i % 2 == 0 {
            let _ = c.put(1, dma_src, 64, &win, 0);
        }
        if i == 30 {
            sim.kill_rank_clients(VICTIM);
            match reclaim_exit(&mut c, &mut sim, VICTIM) {
                Ok(()) => victim_exited = true,
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        match sim.step(&mut c, 3) {
            Ok(()) => {}
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
        let live = sim.live_clients();
        sim.manager
            .check_lease_invariant(sim.now, |cl| live.contains(&cl))
            .map_err(|e| format!("after step {i}: {e}"))?;
        c.system_mut()
            .check_invariants()
            .map_err(|e| format!("after step {i}: {e}"))?;
    }

    let fired = storm.lock().unwrap().total_fired();

    // Calm phase: the fault condition cleared; the failure detector
    // re-drives reclamation (idempotent on the lock table).
    let calm = fault::handle(FaultPlan::new(0));
    c.system_mut().install_fault_plan(&calm);
    sim.kill_rank_clients(VICTIM);
    if !victim_exited {
        sim.manager
            .rank_died(&mut c, VICTIM, sim.now)
            .map_err(|e| format!("calm-phase rank_died: {e:?}"))?;
    }
    let live = sim.live_clients();
    let fin = sim.now + 2 * LEASE;
    sim.manager
        .sweep_leases(&mut c, fin)
        .map_err(|e| format!("final sweep: {e:?}"))?;
    sim.manager
        .check_lease_invariant(fin, |cl| live.contains(&cl))?;
    let orphans = sim.manager.orphans(|cl| live.contains(&cl));
    if !orphans.is_empty() {
        return Err(format!("orphaned locks after recovery: {orphans:?}"));
    }
    let hung = sim.manager.hung_waiters(|cl| live.contains(&cl));
    if !hung.is_empty() {
        return Err(format!("hung waiters after recovery: {hung:?}"));
    }
    Ok((outcome, fired))
}

/// Split out so the round body stays readable.
fn reclaim_exit(
    c: &mut Comm<ViaSystem>,
    sim: &mut ServerSim,
    victim: msg::RankId,
) -> Result<(), ViaError> {
    dlm::reclaim::exit_rank(c, &mut sim.manager, victim, sim.now).map(|_| ())
}

/// Every fault site, two hit positions, during DLM traffic with a
/// mid-round holder exit: 20 fixed-seed plans. Most hits are *absorbed*
/// by the lock layer (backpressure, retries, lease recovery) rather
/// than surfaced — the meaningful assertion is that the plans actually
/// fired while every invariant held, not that errors reached the top.
#[test]
fn chaos_dlm_round_every_site() {
    let mut fired_total = 0u64;
    for (si, &site) in FaultSite::ALL.iter().enumerate() {
        for skip in [0u64, 3] {
            let seed = 0xD1A0_C0DE ^ ((si as u64) << 8) ^ skip;
            let plan = FaultPlan::new(seed).fail_after(site, skip, 2);
            match dlm_round(plan) {
                Ok((_, fired)) => fired_total += fired,
                Err(violation) => panic!("dlm, site {site} skip {skip}: {violation}"),
            }
        }
    }
    assert!(fired_total > 0, "no plan fired during the DLM round");
}

// ---------------------------------------------------------------------
// Randomised sweeps
// ---------------------------------------------------------------------

/// A random site of the catalog.
fn site(rng: &mut StdRng) -> usize {
    rng.random_range(0..FaultSite::ALL.len())
}

/// The acceptance sweep: every single-fault plan — any site, any hit
/// position, any failure burst — yields success or a typed error with
/// all four invariants held.
#[test]
fn single_fault_plans_degrade_cleanly() {
    let draw = |rng: &mut StdRng| {
        let shape = (
            site(rng),
            rng.random_range(0u64..6),
            rng.random_range(1u64..4),
        );
        Some((shape, rng.next_u64()))
    };
    let name = "single_fault_plans_degrade_cleanly";
    cases(name, 256, draw, |(shape, seed)| {
        let (i, skip, fail) = shape;
        let plan = FaultPlan::new(seed).fail_after(FaultSite::ALL[i], skip, fail);
        let r = chaos_round(plan);
        assert!(
            r.is_ok(),
            "site {} skip {skip} fail {fail} seed {seed:#x}: {:?}",
            FaultSite::ALL[i],
            r.err()
        );
    });
}

/// Compound plans: two independent sites active at once, plus a
/// residual probability on a third. Same guarantee.
#[test]
fn compound_fault_plans_degrade_cleanly() {
    let draw = |rng: &mut StdRng| {
        let sites = (site(rng), site(rng), site(rng));
        let knobs = (rng.random_range(0u64..4), rng.random_range(1u32..2048));
        Some((sites, knobs, rng.next_u64()))
    };
    let name = "compound_fault_plans_degrade_cleanly";
    cases(name, 64, draw, |(sites, knobs, seed)| {
        let (a, b, c) = sites;
        let (skip, prob) = knobs;
        let plan = FaultPlan::new(seed)
            .fail_after(FaultSite::ALL[a], skip, 2)
            .fail(FaultSite::ALL[b], 1)
            .fail_with_probability(FaultSite::ALL[c], prob);
        let r = chaos_round(plan);
        assert!(
            r.is_ok(),
            "sites {}/{}/{} seed {seed:#x}: {:?}",
            FaultSite::ALL[a],
            FaultSite::ALL[b],
            FaultSite::ALL[c],
            r.err()
        );
    });
}

// ---------------------------------------------------------------------
// Overlapping registrations under fault injection
// ---------------------------------------------------------------------

/// Chaos on the registry alone: an intermittent page-lock fault (the
/// paper's "page busy with I/O" case) fires while four lanes register and
/// deregister overlapping windows of one buffer, each lane holding its
/// previous window until its next turn so neighbouring windows are live
/// at once. Every hit must surface as a typed `WouldBlock` and roll back
/// completely — no partial pins, and the live registrations it overlaps
/// must be untouched. The pin census is audited after every round.
#[test]
fn chaos_on_overlapping_registrations_rolls_back_cleanly() {
    use simmem::Capabilities;
    use vialock::{MemoryRegistry, RegError};

    let mut total_blocked = 0usize;
    for round in 0..6u64 {
        // ~10 % of page-lock consultations fire (probability is /65536).
        let plan = FaultPlan::new(0xFACE ^ round).fail_with_probability(FaultSite::PageLock, 6554);
        let handle = fault::handle(plan);
        let mut k = simmem::Kernel::new(KernelConfig::small());
        k.set_injector(Some(fault::kernel_hook(&handle)));
        let pid = k.spawn_process(Capabilities::default());
        let buf = k
            .mmap_anon(pid, 64 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.touch_pages(pid, buf, 64 * PAGE_SIZE, true).unwrap();
        let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);

        let mut held = [None; 4];
        for i in 0..100usize {
            for (t, slot) in held.iter_mut().enumerate() {
                if let Some(h) = slot.take() {
                    reg.deregister(&mut k, h).unwrap();
                }
                let start = ((t * 11 + i * 5) % 48) as u64;
                let pages = 1 + (i % 6);
                match reg.register(
                    &mut k,
                    pid,
                    buf + start * PAGE_SIZE as u64,
                    pages * PAGE_SIZE,
                ) {
                    Ok(h) => {
                        assert_eq!(reg.frames(h).unwrap().len(), pages);
                        *slot = Some(h);
                    }
                    // The injected fault: a clean typed refusal.
                    Err(RegError::WouldBlock) => total_blocked += 1,
                    Err(other) => panic!("unexpected error under chaos: {other:?}"),
                }
            }
        }
        for h in held.into_iter().flatten() {
            reg.deregister(&mut k, h).unwrap();
        }

        // Whatever the faults did mid-round, nothing may survive it.
        assert_eq!(reg.live_regions(), 0, "round {round}: regions leaked");
        assert_eq!(reg.pinned_frames(), 0, "round {round}: pins leaked");
        reg.check_invariants(&k)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
    assert!(
        total_blocked > 0,
        "page-lock chaos never fired across 6 rounds — site dead on the registry path?"
    );
}

/// Same plan, same seed → same outcome and same fault-site hit counts:
/// the subsystem is deterministic, so any chaos failure reproduces.
#[test]
fn chaos_runs_are_deterministic() {
    let mk = || {
        FaultPlan::new(0xDEAD_BEEF)
            .fail_after(FaultSite::PageLock, 1, 2)
            .fail_with_probability(FaultSite::WireDrop, 1024)
    };
    let run = |plan: FaultPlan| {
        let h = fault::handle(plan);
        let mut sys = ViaSystem::new(2, KernelConfig::small(), StrategyKind::KiobufReliable);
        sys.install_fault_plan(&h);
        let tag = ProtectionTag(1);
        let p0 = sys.spawn_process(0);
        let p1 = sys.spawn_process(1);
        let mut mems = Vec::new();
        let outcome = workload(&mut sys, p0, p1, tag, &mut mems).expect("invariants");
        let fired = h.lock().unwrap().total_fired();
        (format!("{outcome:?}"), fired)
    };
    let (o1, f1) = run(mk());
    let (o2, f2) = run(mk());
    assert_eq!(o1, o2);
    assert_eq!(f1, f2);
}
