//! Chaos sweep for the distributed lock manager: hundreds of seeded
//! fault plans fired during acquire/release/holder-exit traffic, for
//! BOTH designs (server-mediated and one-sided CAS).
//!
//! Every round follows the same shape:
//!
//! 1. **warmup** — fault-free traffic populates the lock table;
//! 2. **storm** — the fault plan is installed and traffic continues; at
//!    a fixed step one whole rank is killed *while the faults are live*
//!    (`reclaim::exit_rank` / `exit_rank_onesided` racing the plan). The
//!    first typed `ViaError` ends the storm — an accepted outcome;
//! 3. **calm** — the plan is replaced by an empty one (the fault
//!    condition cleared) and the failure detector re-runs reclamation;
//!    survivors drain for several lease periods;
//! 4. **audit** — transport-independent checks on the final state:
//!    *zero orphaned locks* (no lock held by an exited client), *zero
//!    hung waiters* (no exited client parked in a wait queue), the lease
//!    invariant (no exited holder past its lease bound), and the
//!    fabric's own structural invariants.
//!
//! A panic or a `String` error anywhere is a harness failure and fails
//! the test; typed errors during the storm are the system degrading
//! cleanly. Together with the per-site round in `tests/chaos.rs`, the
//! sweeps here cover 400+ distinct seeded plans.

use check::diff::{cases, coin};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use dlm::reclaim;
use dlm::server::{ClientEndpoint, Reply};
use dlm::sim::{OneSidedSim, ServerSim};
use msg::{Comm, MsgConfig, RankId};
use simmem::KernelConfig;
use via::system::ViaSystem;
use via::{Fabric, ViaError};
use vialock::{fault, FaultPlan, FaultSite, StrategyKind};

/// Rank 0 hosts the manager (server design) or the lock table
/// (one-sided design); ranks 1..=3 run clients.
const RANKS: usize = 4;
const CLIENT_RANKS: [RankId; 3] = [1, 2, 3];
const CPR: usize = 4; // clients per rank -> 12 logical clients
const NLOCKS: usize = 8;
const THETA: f64 = 0.9;
const LEASE: u64 = 40;
const WARMUP_STEPS: u64 = 40;
const STORM_STEPS: u64 = 260;
const KILL_STEP: u64 = 120;
const CPT: usize = 4; // clients stepped per tick
const VICTIM: RankId = 3;

fn comm() -> Comm<ViaSystem> {
    Comm::new(
        RANKS,
        RANKS,
        KernelConfig::medium(),
        StrategyKind::KiobufReliable,
        MsgConfig::tiny(),
    )
    .expect("comm setup")
}

/// Client-id layout used by both sims: `ri * CPR + j` for
/// `CLIENT_RANKS[ri]`, so the owning rank is recoverable from the id.
fn rank_of(client: dlm::ClientId) -> RankId {
    1 + (client as usize / CPR)
}

/// What a round reports upward for sweep-level aggregation.
struct RoundOutcome {
    /// A typed `ViaError` ended the storm early (clean degradation).
    typed_error: bool,
    /// Faults the plan actually fired during the storm.
    fired: u64,
    /// Stale fencing tokens rejected (sim- plus manager-side).
    stale_rejections: u64,
}

/// One server-design chaos round. `Err(String)` = invariant violation.
fn server_round(plan: FaultPlan) -> Result<RoundOutcome, String> {
    let seed = plan.seed();
    let mut c = comm();
    let mut sim = ServerSim::new(&mut c, 0, &CLIENT_RANKS, CPR, NLOCKS, THETA, LEASE, seed)
        .map_err(|e| format!("sim setup: {e:?}"))?;

    for _ in 0..WARMUP_STEPS {
        sim.step(&mut c, CPT)
            .map_err(|e| format!("fault-free warmup failed: {e:?}"))?;
    }

    // Datapath antagonist: the server design's lock traffic is PIO (SCI
    // writes) and consults no fault site once set up, so a small RDMA
    // put rides along to keep the descriptor path — registration cache,
    // doorbell, wire, CQ — under the storm. Its typed errors are
    // absorbed: application traffic failing must never corrupt lock
    // state.
    let win_buf = c
        .alloc_buffer(0, 256)
        .map_err(|e| format!("antagonist window: {e:?}"))?;
    let win = c
        .expose_window(0, win_buf, 256)
        .map_err(|e| format!("antagonist expose: {e:?}"))?;
    let dma_src = c
        .alloc_buffer(1, 64)
        .map_err(|e| format!("antagonist src: {e:?}"))?;

    // The laggard: one extra client that acquires the HOT lock (key 0 —
    // the Zipf head, so it is certainly re-granted after expiry), sleeps
    // through its entire lease, and later presents the stale fencing
    // token — the sweep's "always rejected" acceptance check.
    const LAGGARD: dlm::ClientId = 999;
    let lag_key: dlm::LockKey = 0;
    let laggard =
        ClientEndpoint::new(&mut c, 1, LAGGARD).map_err(|e| format!("laggard setup: {e:?}"))?;
    let mut lag_token: Option<u64> = None;
    let mut lag_sent = false;

    let storm = fault::handle(plan);
    c.system_mut().install_fault_plan(&storm);
    let mut first_error: Option<ViaError> = None;
    let mut victim_exited = false;
    for i in 0..STORM_STEPS {
        if i % 2 == 0 {
            let _ = c.put(1, dma_src, 64, &win, 0);
        }
        if i == 4 {
            lag_sent = laggard.send_acquire(&mut c, 0, lag_key).is_ok();
        }
        if lag_sent && lag_token.is_none() {
            if let Ok(Some(Reply::Granted(g))) = laggard.poll_reply(&mut c, 0, 4) {
                lag_token = Some(g.token);
            }
        }
        if i == KILL_STEP {
            // Holder exit *under* the storm: the teardown itself races
            // the fault plan.
            sim.kill_rank_clients(VICTIM);
            match reclaim::exit_rank(&mut c, &mut sim.manager, VICTIM, sim.now) {
                Ok(_) => victim_exited = true,
                Err(e) => {
                    first_error = Some(e);
                    break;
                }
            }
        }
        match sim.step(&mut c, CPT) {
            Ok(()) => {}
            Err(e) => {
                first_error = Some(e);
                break;
            }
        }
        if i % 16 == 0 {
            c.system_mut()
                .check_invariants()
                .map_err(|e| format!("fabric invariant mid-storm: {e}"))?;
            let live = sim.live_clients();
            sim.manager
                .check_lease_invariant(sim.now, |cl| cl == LAGGARD || live.contains(&cl))?;
        }
    }
    let fired = storm.lock().unwrap().total_fired();

    // The fault condition clears; the failure detector re-drives
    // reclamation (idempotent on the lock table) and survivors drain.
    let calm = fault::handle(FaultPlan::new(0));
    c.system_mut().install_fault_plan(&calm);
    sim.kill_rank_clients(VICTIM);
    if !victim_exited {
        sim.manager
            .rank_died(&mut c, VICTIM, sim.now)
            .map_err(|e| format!("rank_died retry in calm phase: {e:?}"))?;
    }
    let live = sim.live_clients();
    let is_live = |cl: dlm::ClientId| cl == LAGGARD || live.contains(&cl);
    for _ in 0..4 * LEASE {
        // A storm can leave individual endpoints wedged (a lost reply);
        // leases bound the damage, so drain errors are tolerated here
        // and the audits below stay authoritative.
        let _ = sim.step(&mut c, CPT);
        if lag_sent && lag_token.is_none() {
            if let Ok(Some(Reply::Granted(g))) = laggard.poll_reply(&mut c, 0, 4) {
                lag_token = Some(g.token);
            }
        }
    }

    // The laggard slept through its whole lease (the drain alone spans
    // four of them); its fencing token is stale and the release MUST be
    // rejected — acceptance would mean a stale holder can clobber the
    // current one.
    let mut stale_rejections = 0u64;
    if let Some(token) = lag_token {
        laggard
            .send_release(&mut c, 0, lag_key, token)
            .map_err(|e| format!("laggard release send: {e:?}"))?;
        let mut answered = false;
        for _ in 0..3 * LEASE {
            let _ = sim.step(&mut c, CPT);
            match laggard.poll_reply(&mut c, 0, 4) {
                Ok(Some(Reply::Stale { .. })) => {
                    stale_rejections += 1;
                    answered = true;
                    break;
                }
                Ok(Some(Reply::Released { .. })) => {
                    return Err("stale fencing token was ACCEPTED on release".into());
                }
                // The lock went back to free and was never re-granted:
                // an honest "not held" (the token counter not having
                // advanced past ours means nobody else is endangered).
                Ok(Some(Reply::NotHeld { .. })) => {
                    answered = true;
                    break;
                }
                Ok(_) => {}
                Err(e) => return Err(format!("laggard release poll: {e:?}")),
            }
        }
        if !answered {
            return Err("laggard's stale release got no reply (hung waiter)".into());
        }
    }

    // Final audit, past every lease bound that could still matter.
    let fin = sim.now + 2 * LEASE;
    sim.manager
        .sweep_leases(&mut c, fin)
        .map_err(|e| format!("final sweep: {e:?}"))?;
    sim.manager.check_lease_invariant(fin, is_live)?;
    let orphans = sim.manager.orphans(is_live);
    if !orphans.is_empty() {
        return Err(format!("orphaned locks after recovery: {orphans:?}"));
    }
    let hung = sim.manager.hung_waiters(is_live);
    if !hung.is_empty() {
        return Err(format!("hung waiters after recovery: {hung:?}"));
    }
    c.system_mut()
        .check_invariants()
        .map_err(|e| format!("fabric invariant after recovery: {e}"))?;

    Ok(RoundOutcome {
        typed_error: first_error.is_some(),
        fired,
        stale_rejections: stale_rejections
            + sim.stats.stale_rejections
            + sim.manager.stats.stale_rejections,
    })
}

/// One one-sided chaos round: same storm shape, CAS-based recovery.
fn onesided_round(plan: FaultPlan) -> Result<RoundOutcome, String> {
    let seed = plan.seed();
    let mut c = comm();
    let mut sim = OneSidedSim::new(&mut c, 0, &CLIENT_RANKS, CPR, NLOCKS, THETA, LEASE, seed)
        .map_err(|e| format!("sim setup: {e:?}"))?;

    for _ in 0..WARMUP_STEPS {
        sim.step(&mut c, CPT)
            .map_err(|e| format!("fault-free warmup failed: {e:?}"))?;
    }

    let storm = fault::handle(plan);
    c.system_mut().install_fault_plan(&storm);
    let mut first_error: Option<ViaError> = None;
    for i in 0..STORM_STEPS {
        if i == KILL_STEP {
            sim.kill_rank_clients(VICTIM);
            match reclaim::exit_rank_onesided(&mut c, &mut sim.table, VICTIM, 0, rank_of) {
                Ok(_) => {}
                Err(e) => {
                    first_error = Some(e);
                    break;
                }
            }
        }
        match sim.step(&mut c, CPT) {
            Ok(()) => {}
            Err(e) => {
                first_error = Some(e);
                break;
            }
        }
        if i % 16 == 0 {
            c.system_mut()
                .check_invariants()
                .map_err(|e| format!("fabric invariant mid-storm: {e}"))?;
        }
    }
    let fired = storm.lock().unwrap().total_fired();

    let calm = fault::handle(FaultPlan::new(0));
    c.system_mut().install_fault_plan(&calm);
    sim.kill_rank_clients(VICTIM);
    let live = sim.live_clients();
    // Failure-detector retry: a CAS sweep frees every dead-owned lock,
    // whether or not the in-storm sweep got through.
    sim.table
        .reclaim(&mut c, 0, |cl| !live.contains(&cl))
        .map_err(|e| format!("calm-phase reclaim sweep: {e:?}"))?;
    for _ in 0..4 * LEASE {
        let _ = sim.step(&mut c, CPT);
    }

    // Live clients acquired during the drain; their locks are legal.
    // Dead-owned locks must all be gone.
    let orphans = sim
        .table
        .orphans(&mut c, 0, |cl| live.contains(&cl))
        .map_err(|e| format!("orphan audit read: {e:?}"))?;
    if !orphans.is_empty() {
        return Err(format!("orphaned locks after recovery: {orphans:?}"));
    }
    c.system_mut()
        .check_invariants()
        .map_err(|e| format!("fabric invariant after recovery: {e}"))?;

    Ok(RoundOutcome {
        typed_error: first_error.is_some(),
        fired,
        stale_rejections: sim.stats.stale_rejections + sim.table.stats.stale_rejections,
    })
}

/// Deterministic per-site sweep, server design: every fault site, four
/// skip offsets, two burst lengths — 88 seeded plans.
#[test]
fn dlm_chaos_server_sweep() {
    let mut fired_total = 0u64;
    let mut stale_total = 0u64;
    for (si, &site) in FaultSite::ALL.iter().enumerate() {
        for skip in [0u64, 2, 5, 11] {
            for fail in [1u64, 3] {
                let seed = 0xD1A0_0001 ^ ((si as u64) << 16) ^ (skip << 8) ^ fail;
                let plan = FaultPlan::new(seed).fail_after(site, skip, fail);
                let out = server_round(plan)
                    .unwrap_or_else(|e| panic!("site {site:?} skip {skip} fail {fail}: {e}"));
                fired_total += out.fired;
                stale_total += out.stale_rejections;
            }
        }
    }
    assert!(fired_total > 0, "sweep never fired a fault");
    // Storms force lease expiries, so late releases with stale fencing
    // tokens must have been presented — and every one rejected (an
    // accepted stale release would have shown up as an orphan or a
    // clobbered holder above).
    assert!(
        stale_total > 0,
        "sweep never exercised stale-token rejection"
    );
}

/// Deterministic per-site sweep, one-sided design — 88 seeded plans.
#[test]
fn dlm_chaos_onesided_sweep() {
    let mut fired_total = 0u64;
    for (si, &site) in FaultSite::ALL.iter().enumerate() {
        for skip in [0u64, 2, 5, 11] {
            for fail in [1u64, 3] {
                let seed = 0xD1A0_0051 ^ ((si as u64) << 16) ^ (skip << 8) ^ fail;
                let plan = FaultPlan::new(seed).fail_after(site, skip, fail);
                let out = onesided_round(plan)
                    .unwrap_or_else(|e| panic!("site {site:?} skip {skip} fail {fail}: {e}"));
                fired_total += out.fired;
            }
        }
    }
    assert!(fired_total > 0, "sweep never fired a fault");
}

/// Probabilistic storms: instead of a one-shot burst, every consultation
/// of the site can fail — 2 rates x 11 sites x both designs, 44 plans.
#[test]
fn dlm_chaos_probabilistic_storms() {
    let mut typed = 0u32;
    for (si, &site) in FaultSite::ALL.iter().enumerate() {
        for prob in [512u32, 4096] {
            let seed = 0xD1A0_00AB ^ ((si as u64) << 16) ^ prob as u64;
            let plan = FaultPlan::new(seed).fail_with_probability(site, prob);
            let out = server_round(plan.clone())
                .unwrap_or_else(|e| panic!("server site {site:?} p{prob}: {e}"));
            typed += out.typed_error as u32;
            let out = onesided_round(plan)
                .unwrap_or_else(|e| panic!("onesided site {site:?} p{prob}: {e}"));
            typed += out.typed_error as u32;
        }
    }
    // High-rate storms must actually bite somewhere in the sweep: at
    // least one round is expected to end on a typed error.
    assert!(
        typed > 0,
        "no probabilistic storm ever surfaced a typed error"
    );
}

/// A random site of the catalog, and one round of either design.
fn site(rng: &mut StdRng) -> usize {
    rng.random_range(0..FaultSite::ALL.len())
}

fn round(onesided: bool, plan: FaultPlan) -> Result<RoundOutcome, String> {
    [server_round, onesided_round][onesided as usize](plan)
}

/// Randomized single-fault plans across both designs — 112 cases.
#[test]
fn dlm_chaos_any_single_fault() {
    let draw = |rng: &mut StdRng| {
        let (site_idx, skip, fail) = (
            site(rng),
            rng.random_range(0u64..48),
            rng.random_range(1u64..4),
        );
        Some((site_idx, skip, fail, rng.next_u64(), coin(rng)))
    };
    let name = "dlm_chaos_any_single_fault";
    cases(name, 112, draw, |(i, skip, fail, seed, onesided)| {
        let r = round(
            onesided,
            FaultPlan::new(seed).fail_after(FaultSite::ALL[i], skip, fail),
        );
        assert!(r.is_ok(), "{}", r.err().unwrap_or_default());
    });
}

/// Randomized compound plans: two independent sites armed at once —
/// 112 cases.
#[test]
fn dlm_chaos_compound_faults() {
    let draw = |rng: &mut StdRng| {
        let (a, b, skip_a, skip_b) = (
            site(rng),
            site(rng),
            rng.random_range(0u64..32),
            rng.random_range(0u64..32),
        );
        Some((a, b, skip_a, skip_b, rng.next_u64(), coin(rng)))
    };
    let name = "dlm_chaos_compound_faults";
    cases(name, 112, draw, |(a, b, skip_a, skip_b, seed, onesided)| {
        let plan = FaultPlan::new(seed)
            .fail_after(FaultSite::ALL[a], skip_a, 2)
            .fail_after(FaultSite::ALL[b], skip_b, 1);
        let r = round(onesided, plan);
        assert!(r.is_ok(), "{}", r.err().unwrap_or_default());
    });
}

/// Determinism spot-check: the same plan and seed replay to the same
/// outcome, fired-count and stale-rejection tally included.
#[test]
fn dlm_chaos_rounds_are_deterministic() {
    let mk = || {
        FaultPlan::new(0xD1A0_5EED)
            .fail_after(FaultSite::WireDrop, 3, 2)
            .fail_after(FaultSite::CqOverrun, 7, 1)
    };
    let a = server_round(mk()).expect("round a");
    let b = server_round(mk()).expect("round b");
    assert_eq!(a.typed_error, b.typed_error);
    assert_eq!(a.fired, b.fired);
    assert_eq!(a.stale_rejections, b.stale_rejections);
}
