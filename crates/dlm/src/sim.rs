//! Deterministic multi-client simulation harness for both lock designs.
//!
//! Thousands of *logical* clients multiplex the communicator's ranks
//! (one rank per node; per-pair channel state is quadratic in ranks, so
//! ranks stay few while clients scale). The harness interleaves client
//! state machines round-robin with manager serve steps under a logical
//! clock, samples acquire/release latency in ticks, and tracks
//! per-client completed acquisitions for fairness — the same driver
//! backs the 8-node benchmark and the seeded chaos sweeps.

use std::collections::HashMap;

use msg::{Comm, RankId};
use via::{Fabric, ViaResult};

use crate::onesided::{OneSidedTable, TryAcquire};
use crate::server::{ClientEndpoint, Manager, Reply};
use crate::{ClientId, DlmError, LockKey};

/// SplitMix64 — the harness's own deterministic generator (the vendored
/// rand crate is a dev-dependency only).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn seeded(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian key sampler over `n` keys with exponent `theta` — hot-key
/// contention: a handful of keys absorb most of the traffic.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Latency/fairness accumulator shared by both designs.
#[derive(Debug, Default)]
pub struct OpStats {
    /// Acquire latency samples, in logical ticks from request to grant.
    pub acquire_ticks: Vec<u64>,
    /// Release latency samples.
    pub release_ticks: Vec<u64>,
    /// Completed acquisitions per client (fairness input).
    pub per_client: HashMap<ClientId, u64>,
    /// Acquire attempts abandoned with a typed deadline/timeout error.
    pub deadline_errors: u64,
    /// Releases rejected as stale.
    pub stale_rejections: u64,
}

impl OpStats {
    fn record_acquire(&mut self, client: ClientId, ticks: u64) {
        self.acquire_ticks.push(ticks);
        *self.per_client.entry(client).or_insert(0) += 1;
    }

    /// p-th percentile of a sample set (ticks).
    pub fn percentile(samples: &[u64], p: f64) -> u64 {
        if samples.is_empty() {
            return 0;
        }
        let mut s = samples.to_vec();
        s.sort_unstable();
        let idx = ((s.len() - 1) as f64 * p).round() as usize;
        s[idx]
    }

    /// Jain's fairness index over per-client completed acquisitions:
    /// 1.0 = perfectly fair, 1/n = one client starved all others.
    pub fn jain_fairness(&self) -> f64 {
        let xs: Vec<f64> = self.per_client.values().map(|&v| v as f64).collect();
        if xs.is_empty() {
            return 1.0;
        }
        let sum: f64 = xs.iter().sum();
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            return 1.0;
        }
        (sum * sum) / (xs.len() as f64 * sq)
    }
}

// ---------------------------------------------------------------------
// Server-design simulation.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum SmState {
    Idle,
    /// Waiting for a grant since `sent_at`.
    WaitGrant {
        key: LockKey,
        sent_at: u64,
    },
    /// Holding; release when the clock reaches `release_at`.
    Held {
        key: LockKey,
        token: u64,
        release_at: u64,
    },
    /// Release sent at `sent_at`; waiting for the ack.
    WaitRelease {
        sent_at: u64,
    },
    /// Crashed or exited: does nothing ever again.
    Dead,
}

struct ClientSm {
    ep: ClientEndpoint,
    state: SmState,
}

/// The server-design simulation: one manager rank, `clients_per_rank`
/// logical clients on every other rank, Zipfian keys.
pub struct ServerSim {
    pub manager: Manager,
    clients: Vec<ClientSm>,
    zipf: Zipf,
    /// Round-robin stepping cursor: every client is stepped on a fixed
    /// cadence of `clients / clients_per_tick` ticks, so latency samples
    /// measure the protocol, not scheduling jitter.
    cursor: usize,
    pub rng: Rng,
    pub now: u64,
    /// Ticks a holder keeps a lock before releasing (work inside the
    /// critical section).
    pub hold_ticks: u64,
    pub stats: OpStats,
}

impl ServerSim {
    #[allow(clippy::too_many_arguments)]
    pub fn new<F: Fabric>(
        c: &mut Comm<F>,
        manager_rank: RankId,
        client_ranks: &[RankId],
        clients_per_rank: usize,
        nlocks: usize,
        theta: f64,
        lease_ticks: u64,
        seed: u64,
    ) -> ViaResult<Self> {
        let manager = Manager::new(c, manager_rank, lease_ticks)?;
        let mut clients = Vec::new();
        for (ri, &rank) in client_ranks.iter().enumerate() {
            for j in 0..clients_per_rank {
                let id = (ri * clients_per_rank + j) as ClientId;
                clients.push(ClientSm {
                    ep: ClientEndpoint::new(c, rank, id)?,
                    state: SmState::Idle,
                });
            }
        }
        Ok(ServerSim {
            manager,
            clients,
            zipf: Zipf::new(nlocks, theta),
            cursor: 0,
            rng: Rng::seeded(seed),
            now: 0,
            hold_ticks: 3,
            stats: OpStats::default(),
        })
    }

    /// Mark every client of `rank` dead in the harness (their state
    /// machines stop; the manager is told separately via
    /// [`crate::reclaim::exit_rank`] or [`Manager::rank_died`]).
    pub fn kill_rank_clients(&mut self, rank: RankId) {
        for cl in &mut self.clients {
            if cl.ep.rank == rank {
                cl.state = SmState::Dead;
            }
        }
    }

    /// Ids of clients currently alive (the zero-orphans audit's liveness
    /// predicate).
    pub fn live_clients(&self) -> Vec<ClientId> {
        self.clients
            .iter()
            .filter(|c| !matches!(c.state, SmState::Dead))
            .map(|c| c.ep.client)
            .collect()
    }

    /// One simulation tick: advance the clock, step a slice of client
    /// state machines, serve the manager. Returns transport errors
    /// upward; lock-protocol outcomes are absorbed into stats.
    pub fn step<F: Fabric>(&mut self, c: &mut Comm<F>, clients_per_tick: usize) -> ViaResult<()> {
        self.now += 1;
        let n = self.clients.len();
        for _ in 0..clients_per_tick.min(n) {
            let i = self.cursor;
            self.cursor = (self.cursor + 1) % n;
            self.step_client(c, i)?;
        }
        self.manager.serve_step(c, self.now, 16)?;
        Ok(())
    }

    fn step_client<F: Fabric>(&mut self, c: &mut Comm<F>, i: usize) -> ViaResult<()> {
        let manager_rank = self.manager.rank;
        let (state, ep) = {
            let cl = &self.clients[i];
            (cl.state, cl.ep)
        };
        let next = match state {
            SmState::Dead => SmState::Dead,
            SmState::Idle => {
                let key = self.zipf.sample(&mut self.rng) as LockKey;
                match ep.send_acquire(c, manager_rank, key) {
                    Ok(()) => SmState::WaitGrant {
                        key,
                        sent_at: self.now,
                    },
                    Err(DlmError::Backpressure) => SmState::Idle,
                    Err(DlmError::ManagerUnreachable(_)) => {
                        self.stats.deadline_errors += 1;
                        SmState::Idle
                    }
                    Err(DlmError::Via(e)) => return Err(e),
                    Err(_) => SmState::Idle,
                }
            }
            SmState::WaitGrant { key, sent_at } => match ep.poll_reply(c, manager_rank, 4) {
                Ok(Some(Reply::Granted(g))) if g.key == key => {
                    self.stats.record_acquire(ep.client, self.now - sent_at);
                    SmState::Held {
                        key,
                        token: g.token,
                        release_at: self.now + self.hold_ticks,
                    }
                }
                Ok(Some(_)) | Ok(None) => state,
                Err(DlmError::ManagerUnreachable(_)) => {
                    self.stats.deadline_errors += 1;
                    SmState::Idle
                }
                Err(DlmError::Via(e)) => return Err(e),
                Err(_) => SmState::Idle,
            },
            SmState::Held {
                key,
                token,
                release_at,
            } => {
                if self.now < release_at {
                    state
                } else {
                    match ep.send_release(c, manager_rank, key, token) {
                        Ok(()) => SmState::WaitRelease { sent_at: self.now },
                        // Slots full: stay Held, retry next turn.
                        Err(DlmError::Backpressure) => state,
                        Err(DlmError::ManagerUnreachable(_)) => {
                            self.stats.deadline_errors += 1;
                            SmState::Idle
                        }
                        Err(DlmError::Via(e)) => return Err(e),
                        Err(_) => SmState::Idle,
                    }
                }
            }
            SmState::WaitRelease { sent_at } => match ep.poll_reply(c, manager_rank, 4) {
                Ok(Some(Reply::Released { .. })) => {
                    self.stats.release_ticks.push(self.now - sent_at);
                    SmState::Idle
                }
                Ok(Some(Reply::Stale { .. })) => {
                    // Our lease expired while we held: typed rejection.
                    self.stats.stale_rejections += 1;
                    SmState::Idle
                }
                Ok(Some(_)) | Ok(None) => state,
                Err(DlmError::ManagerUnreachable(_)) => {
                    self.stats.deadline_errors += 1;
                    SmState::Idle
                }
                Err(DlmError::Via(e)) => return Err(e),
                Err(_) => SmState::Idle,
            },
        };
        self.clients[i].state = next;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// One-sided simulation.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum OsState {
    Idle,
    /// Backing off until `retry_at`, with the current backoff step.
    Backoff {
        key: LockKey,
        started: u64,
        retry_at: u64,
        backoff: u64,
    },
    Held {
        key: LockKey,
        token: u64,
        release_at: u64,
    },
    Dead,
}

struct OsClient {
    rank: RankId,
    id: ClientId,
    state: OsState,
}

/// The one-sided simulation: every client CASes the shared table
/// directly; no manager rank exists.
pub struct OneSidedSim {
    pub table: OneSidedTable,
    clients: Vec<OsClient>,
    zipf: Zipf,
    /// Round-robin stepping cursor (see [`ServerSim`]).
    cursor: usize,
    pub rng: Rng,
    pub now: u64,
    pub hold_ticks: u64,
    pub lease_ticks: u64,
    /// Give up an acquire after this many ticks of backoff.
    pub deadline_ticks: u64,
    pub stats: OpStats,
}

impl OneSidedSim {
    #[allow(clippy::too_many_arguments)]
    pub fn new<F: Fabric>(
        c: &mut Comm<F>,
        host_rank: RankId,
        client_ranks: &[RankId],
        clients_per_rank: usize,
        nlocks: usize,
        theta: f64,
        lease_ticks: u64,
        seed: u64,
    ) -> ViaResult<Self> {
        let table = OneSidedTable::create(c, host_rank, nlocks)?;
        let mut clients = Vec::new();
        for (ri, &rank) in client_ranks.iter().enumerate() {
            for j in 0..clients_per_rank {
                clients.push(OsClient {
                    rank,
                    id: (ri * clients_per_rank + j) as ClientId,
                    state: OsState::Idle,
                });
            }
        }
        Ok(OneSidedSim {
            table,
            clients,
            zipf: Zipf::new(nlocks, theta),
            cursor: 0,
            rng: Rng::seeded(seed ^ 0x0051_DE00),
            now: 0,
            hold_ticks: 3,
            lease_ticks,
            deadline_ticks: lease_ticks * 8,
            stats: OpStats::default(),
        })
    }

    pub fn kill_rank_clients(&mut self, rank: RankId) {
        for cl in &mut self.clients {
            if cl.rank == rank {
                cl.state = OsState::Dead;
            }
        }
    }

    pub fn live_clients(&self) -> Vec<ClientId> {
        self.clients
            .iter()
            .filter(|c| !matches!(c.state, OsState::Dead))
            .map(|c| c.id)
            .collect()
    }

    pub fn step<F: Fabric>(&mut self, c: &mut Comm<F>, clients_per_tick: usize) -> ViaResult<()> {
        self.now += 1;
        let n = self.clients.len();
        for _ in 0..clients_per_tick.min(n) {
            let i = self.cursor;
            self.cursor = (self.cursor + 1) % n;
            self.step_client(c, i)?;
        }
        Ok(())
    }

    fn step_client<F: Fabric>(&mut self, c: &mut Comm<F>, i: usize) -> ViaResult<()> {
        let (rank, id, state) = {
            let cl = &self.clients[i];
            (cl.rank, cl.id, cl.state)
        };
        let next = match state {
            OsState::Dead => OsState::Dead,
            OsState::Idle => {
                let key = self.zipf.sample(&mut self.rng) as LockKey;
                self.attempt(c, rank, id, key, self.now, 1)?
            }
            OsState::Backoff {
                key,
                started,
                retry_at,
                backoff,
            } => {
                if self.now < retry_at {
                    state
                } else if self.now - started > self.deadline_ticks {
                    // Typed deadline: abandon the acquire.
                    self.stats.deadline_errors += 1;
                    OsState::Idle
                } else {
                    match self.attempt(c, rank, id, key, started, backoff * 2)? {
                        OsState::Held {
                            key,
                            token,
                            release_at,
                        } => {
                            // attempt() recorded with `started` as base.
                            OsState::Held {
                                key,
                                token,
                                release_at,
                            }
                        }
                        other => other,
                    }
                }
            }
            OsState::Held {
                key,
                token,
                release_at,
            } => {
                if self.now < release_at {
                    state
                } else {
                    match self.table.release(c, rank, id, key, token) {
                        Ok(()) => {
                            self.stats.release_ticks.push(0);
                            OsState::Idle
                        }
                        Err(DlmError::StaleToken { .. }) | Err(DlmError::NotHeld) => {
                            self.stats.stale_rejections += 1;
                            OsState::Idle
                        }
                        Err(DlmError::Via(e)) | Err(DlmError::ManagerUnreachable(e)) => {
                            return Err(e)
                        }
                        Err(_) => OsState::Idle,
                    }
                }
            }
        };
        self.clients[i].state = next;
        Ok(())
    }

    /// One CAS attempt; on failure, enter (or continue) backoff.
    fn attempt<F: Fabric>(
        &mut self,
        c: &mut Comm<F>,
        rank: RankId,
        id: ClientId,
        key: LockKey,
        started: u64,
        backoff: u64,
    ) -> ViaResult<OsState> {
        match self
            .table
            .try_acquire(c, rank, id, key, self.now, self.lease_ticks)
        {
            Ok(TryAcquire::Acquired(g)) => {
                self.stats.record_acquire(id, self.now - started);
                Ok(OsState::Held {
                    key,
                    token: g.token,
                    release_at: self.now + self.hold_ticks,
                })
            }
            Ok(TryAcquire::Busy { .. }) => {
                let b = backoff.max(1).min(self.lease_ticks.max(2));
                Ok(OsState::Backoff {
                    key,
                    started,
                    retry_at: self.now + self.rng.below(b) + 1,
                    backoff: b,
                })
            }
            Err(DlmError::Via(e)) | Err(DlmError::ManagerUnreachable(e)) => Err(e),
            Err(_) => Ok(OsState::Idle),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msg::MsgConfig;
    use simmem::KernelConfig;
    use vialock::StrategyKind;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(64, 0.99);
        let mut rng = Rng::seeded(7);
        let mut counts = vec![0u64; 64];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[32] * 4, "hot key not hot: {counts:?}");
        assert!(counts.iter().sum::<u64>() == 10_000);
    }

    #[test]
    fn fairness_index_bounds() {
        let mut s = OpStats::default();
        for c in 0..10 {
            s.per_client.insert(c, 5);
        }
        assert!((s.jain_fairness() - 1.0).abs() < 1e-9);
        s.per_client.clear();
        s.per_client.insert(0, 100);
        for c in 1..10 {
            s.per_client.insert(c, 0);
        }
        assert!((s.jain_fairness() - 0.1).abs() < 1e-9);
    }

    fn small_comm(nodes: usize, ranks: usize) -> Comm {
        Comm::new(
            ranks,
            nodes,
            KernelConfig::medium(),
            StrategyKind::KiobufReliable,
            MsgConfig::tiny(),
        )
        .unwrap()
    }

    #[test]
    fn server_sim_makes_progress_and_stays_consistent() {
        let mut c = small_comm(3, 3);
        let mut sim = ServerSim::new(&mut c, 0, &[1, 2], 8, 16, 0.99, 40, 42).unwrap();
        for _ in 0..600 {
            sim.step(&mut c, 4).unwrap();
        }
        assert!(
            sim.stats.acquire_ticks.len() > 50,
            "too few acquisitions: {}",
            sim.stats.acquire_ticks.len()
        );
        let live = sim.live_clients();
        assert!(sim.manager.orphans(|cl| live.contains(&cl)).is_empty());
        let f = sim.stats.jain_fairness();
        assert!(f > 0.3, "fairness collapsed: {f}");
    }

    #[test]
    fn onesided_sim_makes_progress_and_stays_consistent() {
        let mut c = small_comm(3, 3);
        let mut sim = OneSidedSim::new(&mut c, 0, &[1, 2], 8, 16, 0.99, 40, 42).unwrap();
        for _ in 0..600 {
            sim.step(&mut c, 4).unwrap();
        }
        assert!(
            sim.stats.acquire_ticks.len() > 50,
            "too few acquisitions: {}",
            sim.stats.acquire_ticks.len()
        );
        let live = sim.live_clients();
        let orphans = sim
            .table
            .orphans(&mut c, 0, |cl| live.contains(&cl))
            .unwrap();
        assert!(orphans.is_empty(), "{orphans:?}");
        let f = sim.stats.jain_fairness();
        assert!(f > 0.3, "fairness collapsed: {f}");
    }

    /// The benchmark's `dlm_onesided` shape at seed 7: rank 7 crash-stops and
    /// rank 8 exits and is swept at the midpoint, then the final sweep
    /// leaves no orphan. Returns (grants, give-ups, cas_attempts, steals,
    /// reclaimed). Every number depends on who wins each CAS race, so a
    /// change in the fabric's delivery order (or in the lock protocol) fails
    /// here rather than in a benchmark comparison.
    fn onesided_benchmark_shape(
        clients_per_rank: usize,
        steps: u64,
        clients_per_tick: usize,
    ) -> (usize, u64, u64, u64, u64) {
        let mut c = Comm::new(
            9,
            9,
            KernelConfig::large(),
            StrategyKind::KiobufReliable,
            MsgConfig::tiny(),
        )
        .unwrap();
        let ranks: Vec<RankId> = (1..=8).collect();
        let mut sim =
            OneSidedSim::new(&mut c, 0, &ranks, clients_per_rank, 64, 0.99, 80, 7).unwrap();
        for _ in 0..steps / 2 {
            sim.step(&mut c, clients_per_tick).unwrap();
        }
        sim.kill_rank_clients(7);
        sim.kill_rank_clients(8);
        crate::reclaim::exit_rank_onesided(&mut c, &mut sim.table, 8, 0, |cl| {
            1 + cl as usize / clients_per_rank
        })
        .unwrap();
        for _ in steps / 2..steps {
            sim.step(&mut c, clients_per_tick).unwrap();
        }
        let live = sim.live_clients();
        sim.table
            .reclaim(&mut c, 0, |cl| !live.contains(&cl))
            .unwrap();
        let orphans = sim
            .table
            .orphans(&mut c, 0, |cl| live.contains(&cl))
            .unwrap();
        assert!(orphans.is_empty(), "{orphans:?}");
        c.system_mut().check_invariants().unwrap();
        let t = sim.table.stats;
        (
            sim.stats.acquire_ticks.len(),
            sim.stats.deadline_errors,
            t.cas_attempts,
            t.steals,
            t.reclaimed,
        )
    }

    /// The smoke shape: no client gives up yet.
    #[test]
    fn onesided_golden_counts_on_the_benchmark_smoke_shape() {
        assert_eq!(
            onesided_benchmark_shape(64, 200, 32),
            (442, 0, 852, 9, 2),
            "(grants, give-ups, cas_attempts, steals, reclaimed)"
        );
    }

    /// The full shape: the ruler counts its give-ups as failed operations,
    /// so a moved give-up count is a changed failed share.
    #[test]
    fn onesided_golden_gives_up_on_the_benchmark_full_shape() {
        assert_eq!(
            onesided_benchmark_shape(512, 2400, 256),
            (7_406, 8_474, 14_767, 1, 4),
            "(grants, give-ups, cas_attempts, steals, reclaimed)"
        );
    }

    /// The benchmark's `dlm_server` smoke shape with exact counts: the twin
    /// of the one-sided test above. Every number depends on which request
    /// the manager serves when and on which replies reach their clients, so
    /// a change in the message layer's progress order, its slot reuse or
    /// its backpressure fails here.
    #[test]
    fn server_golden_counts_on_the_benchmark_smoke_shape() {
        const CLIENTS_PER_RANK: usize = 64;
        const STEPS: u64 = 200;
        const CLIENTS_PER_TICK: usize = 32;
        const LEASE: u64 = 80;
        let mut c = Comm::new(
            9,
            9,
            KernelConfig::large(),
            StrategyKind::KiobufReliable,
            MsgConfig::tiny(),
        )
        .unwrap();
        let ranks: Vec<RankId> = (1..=8).collect();
        let mut sim = ServerSim::new(
            &mut c,
            0,
            &ranks,
            CLIENTS_PER_RANK,
            64,
            0.99,
            LEASE,
            0xD1A0_10CC,
        )
        .unwrap();
        for _ in 0..STEPS / 2 {
            sim.step(&mut c, CLIENTS_PER_TICK).unwrap();
        }
        // Midpoint: rank 7 crash-stops unannounced, rank 8 exits and the
        // manager reclaims its locks eagerly.
        sim.kill_rank_clients(7);
        sim.kill_rank_clients(8);
        let now = sim.now;
        crate::reclaim::exit_rank(&mut c, &mut sim.manager, 8, now).unwrap();
        for _ in STEPS / 2..STEPS {
            sim.step(&mut c, CLIENTS_PER_TICK).unwrap();
        }
        // Drain: the silent casualty's leases expire. Nothing else finds it:
        // replies it never drains wait in the manager's outbox, and a full
        // reply channel is not taken for a death.
        let live = sim.live_clients();
        let mut drained = 0;
        while !sim.manager.orphans(|cl| live.contains(&cl)).is_empty() && drained < 4 * LEASE {
            sim.step(&mut c, CLIENTS_PER_TICK).unwrap();
            drained += 1;
        }
        assert!(sim.manager.orphans(|cl| live.contains(&cl)).is_empty());

        let (m, s) = (sim.manager.stats, &sim.stats);
        let got = (
            s.acquire_ticks.len(),
            m.expiries,
            m.stale_rejections,
            m.queued,
            m.reclaimed,
            drained,
        );
        assert_eq!(
            got,
            (133, 13, 1, 139, 2, 131),
            "(grants, expiries, stale rejections, queued, reclaimed, drain steps)"
        );
        let ticks = (
            OpStats::percentile(&s.acquire_ticks, 0.50),
            OpStats::percentile(&s.acquire_ticks, 0.99),
            OpStats::percentile(&s.release_ticks, 0.50),
            (s.jain_fairness() * 1e4).round() as u64,
        );
        assert_eq!(
            ticks,
            (32, 272, 32, 8066),
            "(acquire p50, acquire p99, release p50 ticks, Jain × 10⁴)"
        );
        // Sends refused on a full channel: 7 113 client requests and 161
        // manager replies. A refusal writes nothing, so a client's buffer
        // page is demand-faulted by its first accepted request, and a
        // client whose every request was refused never faults it.
        let sys = c.system_mut();
        let minor_faults: u64 = (0..sys.len())
            .map(|n| sys.node(n).kernel.mm_stats().minor_faults)
            .sum();
        assert_eq!(
            (c.stats.send_refusals, minor_faults),
            (7_274, 427),
            "(send refusals, minor faults summed over nodes)"
        );
        c.system_mut().check_invariants().unwrap();
    }
}
