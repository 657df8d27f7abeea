//! The server-mediated lock design: a manager rank owns the table.
//!
//! Clients send fixed 32-byte acquire/release requests over [`msg::Comm`]
//! and the manager answers with typed replies. Each lock keeps a FIFO
//! wait queue of compact packed waiter entries (`rank << 32 | client` in
//! one u64 — the queue-node-per-waiter equivalent of the compact queue
//! nodes in CNA-style locks). Grants carry leases stamped from the
//! manager's logical clock; the manager sweeps expired leases on every
//! serve step, frees the lock, and wakes the next waiter with a fresh
//! grant — a *typed* completion, never a silent drop.
//!
//! Failure handling:
//!
//! * a crashed **holder** is reclaimed either eagerly
//!   ([`Manager::client_exited`] / [`Manager::rank_died`], driven by the
//!   process-exit path) or lazily by lease expiry — waiters behind it are
//!   woken either way;
//! * a crashed **waiter** is dropped from every queue so it can never be
//!   granted a lock nobody will release;
//! * a crashed **manager** surfaces to clients as
//!   [`DlmError::ManagerUnreachable`] through the budgeted receive, not
//!   as a hang;
//! * a **full reply channel** (every slot toward a rank in flight, because
//!   its clients have not polled yet) is backpressure, not death: the reply
//!   waits in a per-rank FIFO outbox that every serve step retries first.

use std::collections::{HashMap, VecDeque};

use msg::{Comm, RankId};
use simmem::VirtAddr;
use via::{Fabric, ViaError, ViaResult};

use crate::{ClientId, DlmError, DlmResult, Grant, LockKey};

/// Request tag (clients → manager).
pub const TAG_REQ: u32 = 0x4D52_0001;
/// Reply tag base: the low 24 bits carry the client id, so thousands of
/// logical clients can multiplex one rank's receive path.
pub const TAG_REP_BASE: u32 = 0x4700_0000;

/// Fixed message size for both directions.
pub const MSG_BYTES: usize = 32;

const OP_ACQUIRE: u8 = 1;
const OP_RELEASE: u8 = 2;
const OP_CLIENT_EXIT: u8 = 3;

const ST_GRANTED: u8 = 1;
const ST_STALE: u8 = 2;
const ST_RELEASED: u8 = 3;
const ST_NOT_HELD: u8 = 4;
const ST_EXIT_ACK: u8 = 5;

/// Manager-side counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct ManagerStats {
    /// Grants issued (immediate and queued).
    pub grants: u64,
    /// Requests that had to queue behind a holder.
    pub queued: u64,
    /// Leases expired by the sweep.
    pub expiries: u64,
    /// Releases rejected for a stale fencing token.
    pub stale_rejections: u64,
    /// Locks reclaimed through exit/death notifications.
    pub reclaimed: u64,
    /// Waiters woken with a grant after an expiry or reclamation.
    pub woken: u64,
    /// Waiters dropped because their rank died mid-acquire.
    pub waiters_dropped: u64,
}

#[derive(Debug, Clone, Copy)]
struct Holder {
    client: ClientId,
    rank: RankId,
    token: u64,
    expires: u64,
}

#[derive(Debug, Default)]
struct LockState {
    holder: Option<Holder>,
    /// Monotonic fencing-token source for this lock.
    next_token: u64,
    /// FIFO of packed `(rank << 32) | client` waiter entries.
    waiters: VecDeque<u64>,
}

fn pack_waiter(rank: RankId, client: ClientId) -> u64 {
    ((rank as u64) << 32) | client as u64
}

fn unpack_waiter(w: u64) -> (RankId, ClientId) {
    ((w >> 32) as RankId, (w & 0xFFFF_FFFF) as ClientId)
}

/// Why [`send_msg`] did not send.
enum Unsent {
    /// Every message slot toward the peer is in flight: transient
    /// backpressure, to be retried once the receiver drains, never a sign
    /// that the peer is gone.
    Full,
    /// Writing the message into the sender's own buffer failed.
    Local(ViaError),
    /// The channel failed: the check's progress round or the send itself.
    Channel(ViaError),
}

/// Send one fixed-size message from `buf` on rank `from`. The channel is
/// asked first and the message written only once it has a free slot, so a
/// refusal touches no simulated memory. Fire and forget: a 32-byte message
/// rides the PIO path, which copies the payload out during `send` itself,
/// and any later progress round reaps the slot. Blocking here would
/// deadlock the single-driver interleave, where the peer only receives on
/// its next turn.
fn send_msg<F: Fabric>(
    c: &mut Comm<F>,
    from: RankId,
    to: RankId,
    tag: u32,
    buf: VirtAddr,
    m: &[u8; MSG_BYTES],
) -> Result<(), Unsent> {
    match c.can_send(from, to) {
        Ok(true) => {}
        Ok(false) => return Err(Unsent::Full),
        Err(e) => return Err(Unsent::Channel(e)),
    }
    c.fill_buffer(from, buf, m).map_err(Unsent::Local)?;
    match c.send(from, to, tag, buf, MSG_BYTES) {
        Ok(_) => Ok(()),
        Err(ViaError::NoFreeSlot) => Err(Unsent::Full),
        Err(e) => Err(Unsent::Channel(e)),
    }
}

/// A reply the manager could not send yet: its tag and its bytes.
type Outgoing = (u32, [u8; MSG_BYTES]);

/// The lock manager, living on one communicator rank.
pub struct Manager {
    pub rank: RankId,
    recv_buf: VirtAddr,
    send_buf: VirtAddr,
    locks: HashMap<LockKey, LockState>,
    /// Locks currently held, per client — the eager-reclamation index.
    held_by: HashMap<ClientId, Vec<LockKey>>,
    /// Ranks known dead: their clients are never granted anything.
    dead_ranks: Vec<RankId>,
    /// Per destination rank, the replies refused for backpressure, in the
    /// order they were made; `serve_step` retries them first.
    outbox: Vec<VecDeque<Outgoing>>,
    pub lease_ticks: u64,
    pub stats: ManagerStats,
}

impl Manager {
    /// Set the manager up on `rank` with its fixed message buffers.
    pub fn new<F: Fabric>(c: &mut Comm<F>, rank: RankId, lease_ticks: u64) -> ViaResult<Self> {
        Ok(Manager {
            rank,
            recv_buf: c.alloc_buffer(rank, MSG_BYTES)?,
            send_buf: c.alloc_buffer(rank, MSG_BYTES)?,
            locks: HashMap::new(),
            held_by: HashMap::new(),
            dead_ranks: Vec::new(),
            outbox: vec![VecDeque::new(); c.n_ranks()],
            lease_ticks,
            stats: ManagerStats::default(),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn reply<F: Fabric>(
        &mut self,
        c: &mut Comm<F>,
        to_rank: RankId,
        client: ClientId,
        status: u8,
        key: LockKey,
        token: u64,
        expires: u64,
    ) -> ViaResult<()> {
        if self.dead_ranks.contains(&to_rank) {
            return Ok(());
        }
        let mut m = [0u8; MSG_BYTES];
        m[0] = status;
        m[4..8].copy_from_slice(&key.to_le_bytes());
        m[8..16].copy_from_slice(&token.to_le_bytes());
        m[16..24].copy_from_slice(&expires.to_le_bytes());
        let out = (TAG_REP_BASE | (client & 0x00FF_FFFF), m);
        // Behind any reply to the same rank that is still waiting.
        if !self.outbox[to_rank].is_empty() || !self.post(c, to_rank, &out)? {
            self.outbox[to_rank].push_back(out);
        }
        Ok(())
    }

    /// Send one reply; `false` if it was not sent and should wait, with
    /// `send_buf` untouched: every slot toward `to_rank` is in flight, or
    /// another rank's send failed first. A failed send means its rank is
    /// dying: record that death and keep serving the living. The reply is
    /// dropped only when its own destination is the one dying.
    fn post<F: Fabric>(
        &mut self,
        c: &mut Comm<F>,
        to_rank: RankId,
        (tag, m): &Outgoing,
    ) -> ViaResult<bool> {
        match send_msg(c, self.rank, to_rank, *tag, self.send_buf, m) {
            Ok(()) => Ok(true),
            Err(Unsent::Full) => Ok(false),
            Err(Unsent::Local(e)) => Err(e),
            Err(Unsent::Channel(_)) => {
                // Progress steps every pair: blame the manager's peer on the
                // send that failed, not the reply's destination.
                let (from, to) = c.take_failed_send().unwrap_or((self.rank, to_rank));
                let dead = if from == self.rank { to } else { from };
                self.rank_died_local(dead);
                Ok(dead == to_rank)
            }
        }
    }

    /// Retry the refused replies, oldest first per destination, stopping at
    /// a destination's first refusal: a rank that stopped receiving costs
    /// one refused send per step, not one per waiting reply.
    fn retry_outbox<F: Fabric>(&mut self, c: &mut Comm<F>) -> ViaResult<()> {
        for to_rank in 0..self.outbox.len() {
            while let Some(&out) = self.outbox[to_rank].front() {
                if !self.post(c, to_rank, &out)? {
                    break;
                }
                self.outbox[to_rank].pop_front();
            }
        }
        Ok(())
    }

    fn grant_to<F: Fabric>(
        &mut self,
        c: &mut Comm<F>,
        key: LockKey,
        rank: RankId,
        client: ClientId,
        now: u64,
    ) -> ViaResult<()> {
        let lease = self.lease_ticks;
        let st = self.locks.entry(key).or_default();
        st.next_token += 1;
        let token = st.next_token;
        let expires = now + lease;
        st.holder = Some(Holder {
            client,
            rank,
            token,
            expires,
        });
        self.held_by.entry(client).or_default().push(key);
        self.stats.grants += 1;
        self.reply(c, rank, client, ST_GRANTED, key, token, expires)
    }

    /// Free `key` and grant it to the next *live* waiter, dropping dead
    /// ones. Every woken waiter gets a typed grant message.
    fn free_and_wake<F: Fabric>(
        &mut self,
        c: &mut Comm<F>,
        key: LockKey,
        now: u64,
    ) -> ViaResult<()> {
        loop {
            let next = {
                let st = self.locks.entry(key).or_default();
                st.holder = None;
                st.waiters.pop_front()
            };
            let Some(w) = next else { return Ok(()) };
            let (rank, client) = unpack_waiter(w);
            if self.dead_ranks.contains(&rank) {
                self.stats.waiters_dropped += 1;
                continue;
            }
            self.stats.woken += 1;
            return self.grant_to(c, key, rank, client, now);
        }
    }

    fn drop_held(&mut self, client: ClientId, key: LockKey) {
        if let Some(keys) = self.held_by.get_mut(&client) {
            keys.retain(|&k| k != key);
            if keys.is_empty() {
                self.held_by.remove(&client);
            }
        }
    }

    /// Sweep expired leases: free each one and wake its next waiter. The
    /// expired holder keeps its (now stale) token — its eventual release
    /// is rejected.
    pub fn sweep_leases<F: Fabric>(&mut self, c: &mut Comm<F>, now: u64) -> ViaResult<usize> {
        let expired: Vec<(LockKey, ClientId)> = self
            .locks
            .iter()
            .filter_map(|(&k, st)| {
                st.holder
                    .filter(|h| h.expires <= now)
                    .map(|h| (k, h.client))
            })
            .collect();
        let n = expired.len();
        for (key, client) in expired {
            self.stats.expiries += 1;
            self.drop_held(client, key);
            self.free_and_wake(c, key, now)?;
        }
        Ok(n)
    }

    /// Eager reclamation: `client` exited — release everything it holds
    /// (waking waiters) and remove it from every wait queue.
    pub fn client_exited<F: Fabric>(
        &mut self,
        c: &mut Comm<F>,
        client: ClientId,
        now: u64,
    ) -> ViaResult<usize> {
        let held = self.held_by.remove(&client).unwrap_or_default();
        let n = held.len();
        for key in held {
            if self
                .locks
                .get(&key)
                .and_then(|st| st.holder)
                .is_some_and(|h| h.client == client)
            {
                self.stats.reclaimed += 1;
                self.free_and_wake(c, key, now)?;
            }
        }
        for st in self.locks.values_mut() {
            let before = st.waiters.len();
            st.waiters.retain(|&w| unpack_waiter(w).1 != client);
            self.stats.waiters_dropped += (before - st.waiters.len()) as u64;
        }
        Ok(n)
    }

    fn rank_died_local(&mut self, rank: RankId) {
        if !self.dead_ranks.contains(&rank) {
            self.dead_ranks.push(rank);
        }
        if let Some(waiting) = self.outbox.get_mut(rank) {
            waiting.clear();
        }
    }

    /// A whole rank (node/process) died: reclaim every lock its clients
    /// held, wake the survivors queued behind them, and purge its
    /// waiters. Driven by `PeerGone` detection or the process-exit path.
    pub fn rank_died<F: Fabric>(
        &mut self,
        c: &mut Comm<F>,
        rank: RankId,
        now: u64,
    ) -> ViaResult<usize> {
        self.rank_died_local(rank);
        let victims: Vec<ClientId> = self
            .locks
            .values()
            .filter_map(|st| st.holder.filter(|h| h.rank == rank).map(|h| h.client))
            .collect();
        let mut reclaimed = 0;
        for client in victims {
            reclaimed += self.client_exited(c, client, now)?;
        }
        // Purge queued waiters from the dead rank.
        for st in self.locks.values_mut() {
            let before = st.waiters.len();
            st.waiters.retain(|&w| unpack_waiter(w).0 != rank);
            self.stats.waiters_dropped += (before - st.waiters.len()) as u64;
        }
        Ok(reclaimed)
    }

    /// Retry the replies refused for backpressure, sweep leases, then
    /// serve one request if one is pending within `budget` progress
    /// rounds. Returns how many requests were served (0 or 1) — the caller
    /// loops this as its serve loop.
    pub fn serve_step<F: Fabric>(
        &mut self,
        c: &mut Comm<F>,
        now: u64,
        budget: usize,
    ) -> ViaResult<usize> {
        self.retry_outbox(c)?;
        self.sweep_leases(c, now)?;
        let (src, n) = match c.recv_any_budget(self.rank, TAG_REQ, self.recv_buf, MSG_BYTES, budget)
        {
            Ok(r) => r,
            Err(ViaError::Timeout) => return Ok(0),
            Err(e) => return Err(e),
        };
        debug_assert_eq!(n, MSG_BYTES);
        let mut m = [0u8; MSG_BYTES];
        c.read_buffer(self.rank, self.recv_buf, &mut m)?;
        let op = m[0];
        let key = LockKey::from_le_bytes(m[4..8].try_into().unwrap());
        let client = ClientId::from_le_bytes(m[8..12].try_into().unwrap());
        let token = u64::from_le_bytes(m[16..24].try_into().unwrap());
        match op {
            OP_ACQUIRE => {
                let st = self.locks.entry(key).or_default();
                match st.holder {
                    None => self.grant_to(c, key, src, client, now)?,
                    Some(_) => {
                        // FIFO: queue the compact waiter entry.
                        st.waiters.push_back(pack_waiter(src, client));
                        self.stats.queued += 1;
                    }
                }
            }
            OP_RELEASE => {
                let holder = self.locks.get(&key).and_then(|st| st.holder);
                match holder {
                    Some(h) if h.client == client && h.token == token => {
                        self.drop_held(client, key);
                        self.free_and_wake(c, key, now)?;
                        self.reply(c, src, client, ST_RELEASED, key, token, 0)?;
                    }
                    Some(h) => {
                        // Stale token or not the holder: reject, with the
                        // current epoch in the reply.
                        self.stats.stale_rejections += 1;
                        self.reply(c, src, client, ST_STALE, key, h.token, h.expires)?;
                    }
                    None => {
                        let current = self.locks.get(&key).map_or(0, |st| st.next_token);
                        if current > token {
                            self.stats.stale_rejections += 1;
                            self.reply(c, src, client, ST_STALE, key, current, 0)?;
                        } else {
                            self.reply(c, src, client, ST_NOT_HELD, key, token, 0)?;
                        }
                    }
                }
            }
            OP_CLIENT_EXIT => {
                self.client_exited(c, client, now)?;
                self.reply(c, src, client, ST_EXIT_ACK, key, 0, 0)?;
            }
            _ => return Err(ViaError::BadState("unknown DLM opcode")),
        }
        Ok(1)
    }

    /// Locks currently held whose holder fails `is_live` — the
    /// zero-orphans audit for the server design.
    pub fn orphans(&self, is_live: impl Fn(ClientId) -> bool) -> Vec<(LockKey, ClientId)> {
        self.locks
            .iter()
            .filter_map(|(&k, st)| st.holder.map(|h| (k, h.client)))
            .filter(|&(_, c)| !is_live(c))
            .collect()
    }

    /// Total queued waiters (audit: must drain to zero when clients stop
    /// requesting).
    pub fn queued_waiters(&self) -> usize {
        self.locks.values().map(|st| st.waiters.len()).sum()
    }

    /// The holder of `key`, if any (tests and audits).
    pub fn holder_of(&self, key: LockKey) -> Option<(ClientId, u64, u64)> {
        self.locks
            .get(&key)
            .and_then(|st| st.holder)
            .map(|h| (h.client, h.token, h.expires))
    }

    /// The chaos-harness invariant: no lock whose holder has exited may
    /// remain held past its lease bound. Call with the `now` of the most
    /// recent sweep — between sweeps an expired-but-not-yet-swept lease
    /// is legal (the manager is lazy, not omniscient).
    pub fn check_lease_invariant(
        &self,
        now: u64,
        is_live: impl Fn(ClientId) -> bool,
    ) -> Result<(), String> {
        for (key, client) in self.orphans(is_live) {
            let (_, _, expires) = self.holder_of(key).expect("orphan listed without a holder");
            if now > expires {
                return Err(format!(
                    "lock {key} held by exited client {client} past its \
                     lease bound (now {now} > expires {expires})"
                ));
            }
        }
        Ok(())
    }

    /// Queued waiters whose client fails `is_live` — the zero-hung-waiters
    /// audit. A dead client parked in a wait queue can never consume its
    /// grant; once death notifications and sweeps have run, this must be
    /// empty.
    pub fn hung_waiters(&self, is_live: impl Fn(ClientId) -> bool) -> Vec<(LockKey, ClientId)> {
        self.locks
            .iter()
            .flat_map(|(&k, st)| st.waiters.iter().map(move |&w| (k, unpack_waiter(w).1)))
            .filter(|&(_, c)| !is_live(c))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Client side: stateless helpers over a per-client 32-byte buffer.
// ---------------------------------------------------------------------

/// A client endpoint: its rank, id, and fixed message buffer.
#[derive(Debug, Clone, Copy)]
pub struct ClientEndpoint {
    pub rank: RankId,
    pub client: ClientId,
    pub buf: VirtAddr,
}

impl ClientEndpoint {
    pub fn new<F: Fabric>(c: &mut Comm<F>, rank: RankId, client: ClientId) -> ViaResult<Self> {
        Ok(ClientEndpoint {
            rank,
            client,
            buf: c.alloc_buffer(rank, MSG_BYTES)?,
        })
    }

    fn request<F: Fabric>(
        &self,
        c: &mut Comm<F>,
        manager: RankId,
        op: u8,
        key: LockKey,
        token: u64,
    ) -> DlmResult<()> {
        let mut m = [0u8; MSG_BYTES];
        m[0] = op;
        m[4..8].copy_from_slice(&key.to_le_bytes());
        m[8..12].copy_from_slice(&self.client.to_le_bytes());
        m[16..24].copy_from_slice(&token.to_le_bytes());
        match send_msg(c, self.rank, manager, TAG_REQ, self.buf, &m) {
            Ok(()) => Ok(()),
            // Every slot to the manager is in flight: transient, retry.
            Err(Unsent::Full) => Err(DlmError::Backpressure),
            Err(Unsent::Local(e) | Unsent::Channel(e)) => Err(e.into()),
        }
    }

    /// Fire an acquire request; the grant arrives later via
    /// [`ClientEndpoint::poll_reply`] (FIFO position is assigned on
    /// receipt at the manager).
    pub fn send_acquire<F: Fabric>(
        &self,
        c: &mut Comm<F>,
        manager: RankId,
        key: LockKey,
    ) -> DlmResult<()> {
        self.request(c, manager, OP_ACQUIRE, key, 0)
    }

    /// Fire a release carrying the grant's fencing token.
    pub fn send_release<F: Fabric>(
        &self,
        c: &mut Comm<F>,
        manager: RankId,
        key: LockKey,
        token: u64,
    ) -> DlmResult<()> {
        self.request(c, manager, OP_RELEASE, key, token)
    }

    /// Announce this client's orderly exit (the manager reclaims its
    /// locks eagerly).
    pub fn send_exit<F: Fabric>(&self, c: &mut Comm<F>, manager: RankId) -> DlmResult<()> {
        self.request(c, manager, OP_CLIENT_EXIT, 0, 0)
    }

    /// Poll for this client's next manager reply within `budget` progress
    /// rounds. `Ok(None)` means nothing yet; transport loss of the
    /// manager maps to [`DlmError::ManagerUnreachable`] at the caller's
    /// discretion (a bare budget exhaustion here is just "not yet").
    pub fn poll_reply<F: Fabric>(
        &self,
        c: &mut Comm<F>,
        manager: RankId,
        budget: usize,
    ) -> DlmResult<Option<Reply>> {
        let tag = TAG_REP_BASE | (self.client & 0x00FF_FFFF);
        match c.recv_budget(self.rank, manager, tag, self.buf, MSG_BYTES, budget) {
            Ok(n) => {
                debug_assert_eq!(n, MSG_BYTES);
                let mut m = [0u8; MSG_BYTES];
                c.read_buffer(self.rank, self.buf, &mut m)
                    .map_err(DlmError::from)?;
                let key = LockKey::from_le_bytes(m[4..8].try_into().unwrap());
                let token = u64::from_le_bytes(m[8..16].try_into().unwrap());
                let expires = u64::from_le_bytes(m[16..24].try_into().unwrap());
                Ok(Some(match m[0] {
                    ST_GRANTED => Reply::Granted(Grant {
                        key,
                        token,
                        expires,
                    }),
                    ST_RELEASED => Reply::Released { key },
                    ST_STALE => Reply::Stale {
                        key,
                        current: token,
                    },
                    ST_NOT_HELD => Reply::NotHeld { key },
                    ST_EXIT_ACK => Reply::ExitAck,
                    _ => return Err(DlmError::Via(ViaError::BadState("unknown DLM reply"))),
                }))
            }
            Err(ViaError::Timeout) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// Decoded manager replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    Granted(Grant),
    Released {
        key: LockKey,
    },
    /// Release rejected: the lock's current epoch outran the caller.
    Stale {
        key: LockKey,
        current: u64,
    },
    NotHeld {
        key: LockKey,
    },
    ExitAck,
}

#[cfg(test)]
mod tests {
    use super::*;
    use msg::MsgConfig;
    use simmem::KernelConfig;
    use vialock::StrategyKind;

    fn setup() -> (Comm, Manager, ClientEndpoint, ClientEndpoint) {
        let mut c = Comm::new(
            3,
            3,
            KernelConfig::medium(),
            StrategyKind::KiobufReliable,
            MsgConfig::tiny(),
        )
        .unwrap();
        let m = Manager::new(&mut c, 0, 50).unwrap();
        let a = ClientEndpoint::new(&mut c, 1, 100).unwrap();
        let b = ClientEndpoint::new(&mut c, 2, 200).unwrap();
        (c, m, a, b)
    }

    /// Drive the manager until `ep` has a reply (bounded).
    fn pump_for_reply(c: &mut Comm, m: &mut Manager, ep: &ClientEndpoint, now: &mut u64) -> Reply {
        for _ in 0..100 {
            *now += 1;
            m.serve_step(c, *now, 8).unwrap();
            if let Some(r) = ep.poll_reply(c, m.rank, 8).unwrap() {
                return r;
            }
        }
        panic!("no reply within bound");
    }

    #[test]
    fn grant_queue_fifo_and_release() {
        let (mut c, mut m, a, b) = setup();
        let mut now = 0;
        a.send_acquire(&mut c, 0, 7).unwrap();
        let Reply::Granted(ga) = pump_for_reply(&mut c, &mut m, &a, &mut now) else {
            panic!("expected grant");
        };
        assert_eq!(ga.token, 1);
        // B queues behind A.
        b.send_acquire(&mut c, 0, 7).unwrap();
        now += 1;
        m.serve_step(&mut c, now, 8).unwrap();
        assert_eq!(m.queued_waiters(), 1);
        assert!(b.poll_reply(&mut c, 0, 4).unwrap().is_none());
        // A releases: B is woken with the next token.
        a.send_release(&mut c, 0, 7, ga.token).unwrap();
        let Reply::Granted(gb) = pump_for_reply(&mut c, &mut m, &b, &mut now) else {
            panic!("expected queued grant");
        };
        assert_eq!(gb.token, 2);
        assert_eq!(
            pump_for_reply(&mut c, &mut m, &a, &mut now),
            Reply::Released { key: 7 }
        );
        assert_eq!(m.stats.woken, 1);
    }

    #[test]
    fn expired_lease_wakes_waiter_and_stale_release_rejected() {
        let (mut c, mut m, a, b) = setup();
        let mut now = 0;
        a.send_acquire(&mut c, 0, 3).unwrap();
        let Reply::Granted(ga) = pump_for_reply(&mut c, &mut m, &a, &mut now) else {
            panic!()
        };
        b.send_acquire(&mut c, 0, 3).unwrap();
        now += 1;
        m.serve_step(&mut c, now, 8).unwrap();
        // Jump past A's lease: the sweep frees the lock and wakes B.
        now = ga.expires + 1;
        let Reply::Granted(gb) = pump_for_reply(&mut c, &mut m, &b, &mut now) else {
            panic!("waiter not woken after expiry")
        };
        assert!(gb.token > ga.token);
        assert_eq!(m.stats.expiries, 1);
        // A's late release presents a stale token and must be rejected.
        a.send_release(&mut c, 0, 3, ga.token).unwrap();
        assert_eq!(
            pump_for_reply(&mut c, &mut m, &a, &mut now),
            Reply::Stale {
                key: 3,
                current: gb.token
            }
        );
        assert_eq!(m.stats.stale_rejections, 1);
    }

    #[test]
    fn client_exit_reclaims_and_wakes() {
        let (mut c, mut m, a, b) = setup();
        let mut now = 0;
        a.send_acquire(&mut c, 0, 1).unwrap();
        let Reply::Granted(_) = pump_for_reply(&mut c, &mut m, &a, &mut now) else {
            panic!()
        };
        b.send_acquire(&mut c, 0, 1).unwrap();
        now += 1;
        m.serve_step(&mut c, now, 8).unwrap();
        // A dies (announced exit): B must be woken with a grant.
        a.send_exit(&mut c, 0).unwrap();
        let Reply::Granted(gb) = pump_for_reply(&mut c, &mut m, &b, &mut now) else {
            panic!("waiter not woken after holder exit")
        };
        assert_eq!(gb.key, 1);
        assert_eq!(m.stats.reclaimed, 1);
        assert!(m.orphans(|cl| cl != 100).is_empty());
    }

    #[test]
    fn rank_death_reclaims_holders_and_purges_waiters() {
        let (mut c, mut m, a, b) = setup();
        let mut now = 0;
        // A holds key 5; B queues behind it, then A's whole rank dies.
        a.send_acquire(&mut c, 0, 5).unwrap();
        let Reply::Granted(_) = pump_for_reply(&mut c, &mut m, &a, &mut now) else {
            panic!()
        };
        b.send_acquire(&mut c, 0, 5).unwrap();
        now += 1;
        m.serve_step(&mut c, now, 8).unwrap();
        m.rank_died(&mut c, a.rank, now).unwrap();
        // B is woken with the grant; A's entries are gone.
        let Reply::Granted(gb) = pump_for_reply(&mut c, &mut m, &b, &mut now) else {
            panic!("survivor waiter not woken after rank death")
        };
        assert_eq!(gb.key, 5);
        assert!(m.orphans(|cl| cl == 200).is_empty());
        assert_eq!(m.holder_of(5).unwrap().0, 200);
    }

    #[test]
    fn reply_backpressure_is_not_rank_death() {
        // One client rank, five clients: the manager grants five locks
        // before any client polls, one more reply than the manager → rank
        // pair has slots.
        let mut c = Comm::new(
            2,
            2,
            KernelConfig::medium(),
            StrategyKind::KiobufReliable,
            MsgConfig::tiny(),
        )
        .unwrap();
        let mut m = Manager::new(&mut c, 0, 1_000).unwrap();
        let eps: Vec<_> = (0..5)
            .map(|i| ClientEndpoint::new(&mut c, 1, 10 + i).unwrap())
            .collect();
        let mut now = 0;
        for (key, ep) in eps.iter().enumerate() {
            ep.send_acquire(&mut c, 0, key as LockKey).unwrap();
            now += 1;
            assert_eq!(m.serve_step(&mut c, now, 8).unwrap(), 1);
        }
        assert_eq!(m.stats.grants, 5);
        assert!(m.dead_ranks.is_empty(), "a full pair is not a dead rank");
        for (key, ep) in eps.iter().enumerate() {
            let Reply::Granted(g) = pump_for_reply(&mut c, &mut m, ep, &mut now) else {
                panic!("expected a grant");
            };
            assert_eq!(g.key, key as LockKey);
        }
    }

    fn minor_faults(c: &mut Comm, rank: RankId) -> u64 {
        let node = c.rank_node(rank);
        c.system_mut().node(node).kernel.mm_stats().minor_faults
    }

    fn buffer(c: &mut Comm, rank: RankId, addr: VirtAddr) -> [u8; MSG_BYTES] {
        let mut b = [0u8; MSG_BYTES];
        c.read_buffer(rank, addr, &mut b).unwrap();
        b
    }

    #[test]
    fn refusal_of_a_request_touches_nothing() {
        let (mut c, _m, a, b) = setup();
        // Four requests nobody serves fill every slot from rank 1.
        for key in 0..4 {
            a.send_acquire(&mut c, 0, key).unwrap();
        }
        let written = ClientEndpoint::new(&mut c, 1, 101).unwrap();
        c.fill_buffer(1, written.buf, &[0xAB; MSG_BYTES]).unwrap();
        let fresh = ClientEndpoint::new(&mut c, 1, 102).unwrap();
        let (faults, refusals) = (minor_faults(&mut c, 1), c.stats.send_refusals);
        assert!(matches!(
            written.send_acquire(&mut c, 0, 9),
            Err(DlmError::Backpressure)
        ));
        // A never-written buffer is not demand-faulted by a refusal.
        assert!(matches!(
            fresh.send_release(&mut c, 0, 9, 1),
            Err(DlmError::Backpressure)
        ));
        assert_eq!(minor_faults(&mut c, 1), faults, "no fault for a refusal");
        assert_eq!(c.stats.send_refusals, refusals + 2);
        assert_eq!(buffer(&mut c, 1, written.buf), [0xAB; MSG_BYTES]);
        // Another rank's channel is not full.
        b.send_acquire(&mut c, 0, 9).unwrap();
    }

    #[test]
    fn refusal_of_a_reply_waits_and_leaves_send_buf_untouched() {
        let mut c = Comm::new(
            2,
            2,
            KernelConfig::medium(),
            StrategyKind::KiobufReliable,
            MsgConfig::tiny(),
        )
        .unwrap();
        let mut m = Manager::new(&mut c, 0, 1_000).unwrap();
        let eps: Vec<_> = (0..5)
            .map(|i| ClientEndpoint::new(&mut c, 1, 10 + i).unwrap())
            .collect();
        let mut now = 0;
        let mut last_sent = [0u8; MSG_BYTES];
        for (key, ep) in eps.iter().enumerate() {
            if key == 4 {
                last_sent = buffer(&mut c, 0, m.send_buf);
            }
            ep.send_acquire(&mut c, 0, key as LockKey).unwrap();
            now += 1;
            assert_eq!(m.serve_step(&mut c, now, 8).unwrap(), 1);
        }
        // Four grants fill every slot toward rank 1; the fifth waits.
        assert_eq!(m.outbox[1].len(), 1);
        assert_eq!(m.outbox[1][0].1[4..8], 4u32.to_le_bytes());
        assert_eq!(buffer(&mut c, 0, m.send_buf), last_sent);
        assert_eq!(last_sent[4..8], 3u32.to_le_bytes(), "the fourth grant");
        assert!(m.dead_ranks.is_empty());
    }

    /// Ranks 0 (manager), 1 and 2; `held` on rank 2 holds key 5 and `waiter`
    /// on rank 1 queues behind it. Then a third request from rank 1 is
    /// consumed outside the manager, and rank 1's process exits without
    /// the communicator being told: the next progress round reads that
    /// request's response record from a process that is gone and fails.
    /// That is an error of the channel check, not a full channel.
    fn progress_will_fail() -> (Comm, Manager, ClientEndpoint, ClientEndpoint) {
        progress_will_fail_with_waiter(1, 100)
    }

    /// [`progress_will_fail`] with the waiter on `rank` as client `client`.
    fn progress_will_fail_with_waiter(
        rank: RankId,
        client: ClientId,
    ) -> (Comm, Manager, ClientEndpoint, ClientEndpoint) {
        let mut c = Comm::new(
            3,
            3,
            KernelConfig::medium(),
            StrategyKind::KiobufReliable,
            MsgConfig::tiny(),
        )
        .unwrap();
        let mut m = Manager::new(&mut c, 0, 50).unwrap();
        let held = ClientEndpoint::new(&mut c, 2, 200).unwrap();
        let waiter = ClientEndpoint::new(&mut c, rank, client).unwrap();
        let late = ClientEndpoint::new(&mut c, 1, 101).unwrap();
        let other = ClientEndpoint::new(&mut c, 2, 201).unwrap();
        let mut now = 0;
        held.send_acquire(&mut c, 0, 5).unwrap();
        let Reply::Granted(_) = pump_for_reply(&mut c, &mut m, &held, &mut now) else {
            panic!("expected a grant");
        };
        waiter.send_acquire(&mut c, 0, 5).unwrap();
        now += 1;
        m.serve_step(&mut c, now, 8).unwrap();
        assert_eq!(m.queued_waiters(), 1);
        late.send_acquire(&mut c, 0, 6).unwrap();
        let sink = c.alloc_buffer(0, MSG_BYTES).unwrap();
        c.recv(0, 1, TAG_REQ, sink, MSG_BYTES).unwrap();
        let (node, pid) = (c.rank_node(1), c.rank_pid(1));
        c.system_mut().exit_process(node, pid).unwrap();
        (c, m, waiter, other)
    }

    #[test]
    fn refusal_check_error_ends_where_a_send_error_did() {
        // Manager: the grant to the waiter on the dying rank meets the
        // failed check, and the rank is taken for dead, as a failed send is.
        let (mut c, mut m, waiter, _) = progress_will_fail();
        let expires = m.holder_of(5).unwrap().2;
        let send_buf = buffer(&mut c, 0, m.send_buf);
        m.sweep_leases(&mut c, expires).unwrap();
        assert_eq!(m.dead_ranks, vec![waiter.rank]);
        assert!(m.outbox[waiter.rank].is_empty());
        assert_eq!(buffer(&mut c, 0, m.send_buf), send_buf);

        // Client: the same `DlmError` as the one a send that wrote its
        // message first and then failed maps to.
        let (mut c, _m, _, other) = progress_will_fail();
        let got = other.send_acquire(&mut c, 0, 7).unwrap_err();
        let (mut twin, _m, _, other) = progress_will_fail();
        twin.fill_buffer(other.rank, other.buf, &[0; MSG_BYTES])
            .unwrap();
        let want = DlmError::from(
            twin.send(other.rank, 0, TAG_REQ, other.buf, MSG_BYTES)
                .unwrap_err(),
        );
        assert_eq!(got, want);
        assert!(matches!(got, DlmError::Via(ViaError::Mm(_))), "{got:?}");
        // The failed send was discarded: the channel works again.
        other.send_acquire(&mut c, 0, 7).unwrap();
    }

    #[test]
    fn a_failed_send_condemns_its_own_rank_not_the_reply_destination() {
        // The sweep grants key 5 to a waiter on live rank 2; the channel
        // check fails on rank 1's send. Rank 1 is the dead one, and the
        // grant reaches its waiter once the failed send is discarded.
        let (mut c, mut m, waiter, _) = progress_will_fail_with_waiter(2, 202);
        let mut now = m.holder_of(5).unwrap().2;
        m.sweep_leases(&mut c, now).unwrap();
        assert_eq!(m.dead_ranks, vec![1]);
        assert_eq!(m.holder_of(5).unwrap().0, 202);
        let Reply::Granted(g) = pump_for_reply(&mut c, &mut m, &waiter, &mut now) else {
            panic!("expected the grant");
        };
        assert_eq!(g.key, 5);
        assert_eq!(m.dead_ranks, vec![1]);
    }
}
