//! A multi-threaded N-node fabric: each node (kernel + NIC + kernel
//! agent) runs on its own OS thread; packets travel over **per-pair
//! lock-free SPSC rings** ([`crate::spsc`]) — the producer writes
//! directly into the consumer's queue, one release-store publishes a
//! whole batch, and a per-node [`Doorbell`] wakes a parked consumer
//! without touching a lock unless it is actually asleep. This is the
//! concurrency-faithful counterpart of the deterministic
//! single-threaded [`crate::system::ViaSystem`]: the same `Node` type,
//! real thread interleavings, no shared state beyond the wire.
//!
//! The control plane stays off the data path: [`Fabric`] commands
//! round-trip over a plain (low-rate) mpsc channel per node, so RPC
//! traffic never contends with packet flow. Peer death is detected
//! through the rings' explicit `Closed` state — the replacement for the
//! channel-disconnect semantics of the retired mailbox transport.
//!
//! Two ways to drive it:
//!
//! * [`ThreadedCluster`] — the fabric as a service. Node threads run a
//!   command loop; the cluster handle implements [`Fabric`], so the
//!   message layer and the workload drivers run on it unchanged. Build
//!   one with [`ClusterBuilder`] (node count, kernel config, pinning
//!   strategy, ring capacity, wait timeout).
//! * [`run_cluster`] — one closure per node, each driving its node
//!   through a [`NodeCtx`]: post descriptors on the node directly, then
//!   [`NodeCtx::pump`] to ship outgoing packets and deliver incoming
//!   ones, or [`NodeCtx::wait_completion`] to block until a CQ entry
//!   arrives. Wire VIs first with [`connect_nodes`].

use std::any::Any;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use simmem::{KernelConfig, Pid, VirtAddr};
use vialock::{impl_since, StrategyKind};

use crate::error::{ViaError, ViaResult};
use crate::fabric::{connect_rule, Fabric};
use crate::nic::{Node, Packet, DEFAULT_TPT_PAGES};
use crate::spsc::{self, Consumer, Doorbell, Producer, PushError};
use crate::system::NodeId;
use crate::tpt::MemId;
use crate::vi::{Completion, ViId};

/// Default for how long [`NodeCtx::wait_completion`] (and the cluster's
/// [`Fabric::wait_cq`]) waits before declaring the peer dead. Override
/// per cluster with [`ClusterBuilder::wait_timeout`].
pub const WAIT_TIMEOUT: Duration = Duration::from_secs(5);

/// Non-blocking polls of the inbound rings before
/// [`NodeCtx::wait_completion`] starts yielding (spin-yield-park). On a
/// single-core host the budget is zero: the peer can only make progress
/// once we give the core away, so every spin iteration is pure added
/// latency there.
fn spin_budget() -> usize {
    static BUDGET: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *BUDGET.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores > 1 {
            64
        } else {
            0
        }
    })
}

/// Polls with a `yield_now` between them after the spin budget runs out:
/// a yield hands the core to the peer without the futex sleep/wake
/// round-trip a park costs.
const YIELD_BUDGET: usize = 16;

/// How long a single park lasts once the spin budget is exhausted.
/// Doorbell rings cut it short; the timeout only bounds the damage of a
/// wedged peer so wait budgets and chaos timeouts still fire.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Idle park of the autonomous service loop. Longer than
/// [`PARK_TIMEOUT`]: every packet batch and every command rings the
/// node's doorbell, so the timeout is pure belt-and-braces (it also
/// bounds how long an abandoned node lingers after its controller dies
/// without an orderly shutdown).
const SERVICE_PARK_TIMEOUT: Duration = Duration::from_millis(25);

/// Default slot count of each per-pair wire ring (power of two). A ring
/// holds packet headers, not payload bytes — payloads ride pooled
/// buffers — so capacity bounds in-flight *packets* per (src, dst) pair.
/// Override per cluster with [`ClusterBuilder::ring_capacity`].
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// Most packets [`NodeCtx::pump`] delivers per call (bounded burst).
const DELIVER_BURST: usize = 256;

/// Service-loop rounds [`ThreadedCluster::quiesce`] tolerates before
/// declaring the cluster livelocked.
const QUIESCE_ROUND_CAP: usize = 10_000;

/// Per-node counters of the threaded fabric itself (not the NIC): wire
/// batching, routing, and wait-ladder behaviour. Diffable with
/// [`FabricStats::since`] like every other stats block.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FabricStats {
    /// Ring publishes (one release-store per destination per flush,
    /// however many packets each exposed).
    pub batches_sent: u64,
    /// Packets routed into another node's ring.
    pub packets_routed: u64,
    /// Packets delivered into this node's NIC.
    pub delivered: u64,
    /// Times the node parked on its doorbell (idle or wait-ladder park).
    pub parks: u64,
    /// Times the spin/yield phase of the wait ladder caught new work
    /// before a park was needed.
    pub spin_wakes: u64,
    /// Fabric commands served by this node's thread.
    pub commands: u64,
    /// High-water mark of the inbound queue (monotone) — the occupancy
    /// stat the mailbox transport called by the same name.
    pub mailbox_peak: u64,
    /// Doorbells rung at peers (at most one per published batch).
    pub doorbell_rings: u64,
    /// Backpressure rounds: a wire ring was full and the producer had to
    /// publish early, drain its own inbound and retry.
    pub wire_stalls: u64,
}

impl_since!(FabricStats {
    batches_sent,
    packets_routed,
    delivered,
    parks,
    spin_wakes,
    commands,
    mailbox_peak,
    doorbell_rings,
    wire_stalls,
});

/// A closure shipped to a node's service thread by
/// [`Fabric::try_with_node`].
type NodeFn = Box<dyn FnOnce(&mut Node) -> Box<dyn Any + Send> + Send>;

/// What a [`ThreadedCluster`] asks of a node's service thread: the few
/// things that need the [`NodeCtx`] (its wire, its wait ladder, its own
/// counters). One command, one [`Reply`], in lockstep. Everything that
/// needs only the [`Node`] is a closure in [`Command::WithNode`] — see the
/// provided methods of [`Fabric`]; do not add a variant for one.
enum Command {
    /// Block for a completion on `vi` under `timeout`, or under the
    /// cluster-wide wait budget when `None`.
    WaitCq {
        vi: ViId,
        timeout: Option<Duration>,
    },
    Pump,
    FabricStats,
    /// Local invariants + pool ledger contribution + inbound depth.
    CheckNode,
    WithNode(NodeFn),
    Shutdown,
    /// Simulated crash: the service thread exits *immediately* — no
    /// reply, no flush of staged wire traffic, no retirement handshake.
    /// The reply channel and wire rings close as the thread unwinds, so
    /// the controller and every peer observe [`ViaError::PeerGone`].
    Die,
}

/// Service-thread answers, one per [`Command`].
enum Reply {
    Completion(ViaResult<Completion>),
    Pumped {
        delivered: usize,
        idle: bool,
        error: Option<ViaError>,
    },
    Fabric(FabricStats),
    Check {
        local: Result<(), String>,
        outstanding: i64,
        inbound: usize,
    },
    Any(Box<dyn Any + Send>),
    /// [`Command::Shutdown`] acknowledged.
    Done,
}

/// The wire endpoints one node owns: a producer per destination, a
/// consumer per source, and everyone's doorbells.
struct WirePorts {
    /// `tx[dst]` is this node's private ring into `dst` (`None` for the
    /// self slot — loopback short-circuits through `inbound`).
    tx: Vec<Option<Producer<Packet>>>,
    /// `rx[src]` is `src`'s private ring into this node.
    rx: Vec<Option<Consumer<Packet>>>,
    /// Every node's doorbell; `bells[i]` is rung after publishing into
    /// `tx[i]`. The self slot is this node's own bell.
    bells: Vec<Arc<Doorbell>>,
}

impl WirePorts {
    /// This node's own doorbell.
    fn own_bell(&self, index: usize) -> &Doorbell {
        &self.bells[index]
    }

    /// Packets sitting published-but-unconsumed in this node's inbound
    /// rings (approximate while producers run).
    fn queued(&self) -> usize {
        self.rx.iter().flatten().map(Consumer::len).sum()
    }

    /// Whether every peer has closed its ring into this node.
    fn all_peers_closed(&self) -> bool {
        self.rx.iter().flatten().all(Consumer::is_closed)
    }
}

/// Build the full wire mesh for `n` nodes: one SPSC ring per ordered
/// (src, dst) pair plus one doorbell per node. Returns per-node ports.
fn wire_mesh(n: usize, ring_capacity: usize) -> Vec<WirePorts> {
    let bells: Vec<Arc<Doorbell>> = (0..n).map(|_| Arc::new(Doorbell::default())).collect();
    // rings[src][dst]
    let mut txs: Vec<Vec<Option<Producer<Packet>>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    let mut rxs: Vec<Vec<Option<Consumer<Packet>>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let (p, c) = spsc::ring(ring_capacity);
            txs[src][dst] = Some(p);
            rxs[dst][src] = Some(c);
        }
    }
    txs.into_iter()
        .zip(rxs)
        .map(|(tx, rx)| WirePorts {
            tx,
            rx,
            bells: bells.clone(),
        })
        .collect()
}

/// Per-thread driver for one node of an N-node cluster. Outgoing packets
/// are written straight into the destination's SPSC ring and published
/// in batches — one release-store plus at most one doorbell ring per
/// destination per flush; arriving packets are popped into `inbound` to
/// be delivered one at a time.
pub struct NodeCtx {
    pub node: Node,
    index: usize,
    /// The data plane: per-pair rings and doorbells.
    wire: WirePorts,
    /// The control plane: fabric commands from the cluster handle (a
    /// dead channel in closure mode). Low-rate by construction, so RPC
    /// never contends with the rings.
    cmd_rx: Receiver<Command>,
    /// The command channel disconnected: the cluster handle (or closure
    /// harness) is gone. Together with every inbound ring closed this is
    /// the transport's "everyone else is gone" signal.
    controller_gone: bool,
    /// Packets received from the wire but not yet delivered.
    inbound: VecDeque<Packet>,
    /// Fabric commands that arrived while this thread was mid-wait;
    /// served by the service loop in arrival order.
    backlog: VecDeque<Command>,
    /// Outgoing packets staged for the next routed flush.
    outbox: Vec<Packet>,
    /// Destinations with deferred (unpublished) ring entries.
    touched: Vec<bool>,
    /// Doorbell event count as of the last inbound-ring scan. Every
    /// publish toward us rings our bell, so an unchanged count means a
    /// scan would find nothing: the idle poll stays O(1) instead of
    /// walking N-1 consumers.
    last_events: u64,
    /// Deadline budget for [`NodeCtx::wait_completion`] and
    /// backpressure stalls.
    wait_timeout: Duration,
    stats: FabricStats,
    /// First error the autonomous service pump swallowed; surfaced on
    /// the next `Pump` command.
    pending_error: Option<ViaError>,
}

impl NodeCtx {
    fn new(
        node: Node,
        index: usize,
        wire: WirePorts,
        cmd_rx: Receiver<Command>,
        wait_timeout: Duration,
    ) -> Self {
        let n = wire.bells.len();
        NodeCtx {
            node,
            index,
            wire,
            cmd_rx,
            controller_gone: false,
            inbound: VecDeque::new(),
            backlog: VecDeque::new(),
            outbox: Vec::new(),
            touched: vec![false; n],
            // MAX forces the first refill to scan regardless of bell
            // state.
            last_events: u64::MAX,
            wait_timeout,
            stats: FabricStats::default(),
            pending_error: None,
        }
    }

    /// This node's index in the cluster (its routing address).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Fabric-layer counters for this node.
    pub fn fabric_stats(&self) -> FabricStats {
        self.stats
    }

    /// Ship every pending send and deliver a bounded burst of queued
    /// inbound packets (one at a time, a CQ stays checkable between any
    /// two). Returns (packets sent, packets delivered).
    pub fn pump(&mut self) -> ViaResult<(usize, usize)> {
        let sent = self.ship_sends()?;
        let mut delivered = 0usize;
        while delivered < DELIVER_BURST && self.deliver_one_inbound(false)? {
            delivered += 1;
        }
        Ok((sent, delivered))
    }

    /// Route one outbound packet: self-destined short-circuits into
    /// `inbound`, everything else is written (deferred, unpublished) into
    /// the destination's ring. A full ring is backpressure: publish what
    /// we have, drain our own inbound rings (so a mutual-full cycle
    /// always unwinds — popping needs no CQ progress), and retry until
    /// the wait budget runs out. A closed ring is a gone peer: the
    /// payload returns to the pool and — unless `best_effort` — the
    /// stall surfaces as [`ViaError::PeerGone`].
    fn stage(&mut self, pkt: Packet, best_effort: bool) -> ViaResult<()> {
        if pkt.dst_node == self.index {
            self.inbound.push_back(pkt);
            self.stats.mailbox_peak = self.stats.mailbox_peak.max(self.inbound.len() as u64);
            return Ok(());
        }
        let dst = pkt.dst_node;
        let mut pkt = pkt;
        let mut deadline: Option<Instant> = None;
        loop {
            let prod = self.wire.tx[dst]
                .as_mut()
                .expect("non-self destination has a ring");
            match prod.push_deferred(pkt) {
                Ok(()) => {
                    self.touched[dst] = true;
                    self.stats.packets_routed += 1;
                    return Ok(());
                }
                Err(PushError::Closed(p)) => {
                    // Return the payload so the pool ledger stays
                    // balanced even across a peer death.
                    self.node.pool.put(p.payload);
                    return if best_effort {
                        Ok(())
                    } else {
                        Err(ViaError::PeerGone(dst))
                    };
                }
                Err(PushError::Full(p)) => {
                    pkt = p;
                    self.stats.wire_stalls += 1;
                    // Expose what we already staged so the consumer can
                    // make progress, then absorb our own inbound.
                    if self.wire.tx[dst].as_mut().unwrap().publish() > 0 {
                        self.stats.batches_sent += 1;
                        self.stats.doorbell_rings += 1;
                        self.wire.bells[dst].ring();
                    }
                    self.touched[dst] = false;
                    self.refill_wire();
                    std::thread::yield_now();
                    let d = *deadline.get_or_insert_with(|| Instant::now() + self.wait_timeout);
                    if Instant::now() > d {
                        self.node.pool.put(pkt.payload);
                        return Err(ViaError::BadState("wire backpressure stall"));
                    }
                }
            }
        }
    }

    /// Publish every touched destination ring — ONE release-store and at
    /// most one doorbell ring per destination, however many packets the
    /// flush carried.
    fn flush_wire(&mut self) {
        for dst in 0..self.touched.len() {
            if !self.touched[dst] {
                continue;
            }
            self.touched[dst] = false;
            let Some(prod) = self.wire.tx[dst].as_mut() else {
                continue;
            };
            if prod.publish() > 0 {
                self.stats.batches_sent += 1;
                self.stats.doorbell_rings += 1;
                self.wire.bells[dst].ring();
            }
        }
    }

    /// Stage-and-flush the whole outbox. On a hard error (dead peer,
    /// backpressure timeout) the not-yet-staged remainder returns its
    /// payloads to the pool so the ledger survives the failure.
    fn route_outbox(&mut self, best_effort: bool) -> ViaResult<()> {
        let mut pkts = std::mem::take(&mut self.outbox).into_iter();
        let mut result = Ok(());
        for pkt in pkts.by_ref() {
            if let Err(e) = self.stage(pkt, best_effort) {
                result = Err(e);
                break;
            }
        }
        for pkt in pkts {
            self.node.pool.put(pkt.payload);
        }
        self.flush_wire();
        result
    }

    /// Ship every pending send of every VI ([`Node::ship_sends`]),
    /// batched per destination, without touching the inbound queue (beyond
    /// loopback traffic).
    fn ship_sends(&mut self) -> ViaResult<usize> {
        let sent = self.node.ship_sends(self.index, &mut self.outbox)?;
        if self.outbox.is_empty() {
            return Ok(sent);
        }
        self.route_outbox(false)?;
        Ok(sent)
    }

    /// Drain the control channel into the backlog, noting a disconnect
    /// (the cluster handle is gone).
    fn drain_commands(&mut self) {
        loop {
            match self.cmd_rx.try_recv() {
                Ok(cmd) => self.backlog.push_back(cmd),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.controller_gone = true;
                    break;
                }
            }
        }
    }

    /// Pop everything currently published in the inbound rings into
    /// `inbound`, tracking the high-water mark. Unconditional scan —
    /// prefer [`NodeCtx::refill_wire`], which skips it when the doorbell
    /// says nothing arrived.
    fn scan_wire(&mut self) {
        for src in 0..self.wire.rx.len() {
            if let Some(cons) = self.wire.rx[src].as_mut() {
                while let Ok(pkt) = cons.pop() {
                    self.inbound.push_back(pkt);
                }
            }
        }
        self.stats.mailbox_peak = self.stats.mailbox_peak.max(self.inbound.len() as u64);
    }

    /// [`NodeCtx::scan_wire`], gated on the doorbell: every publish into
    /// one of our rings rings our bell *after* the release-store, so an
    /// unchanged event count proves the scan would come up empty. The
    /// snapshot is taken before the scan — a publish landing mid-scan
    /// bumps the count past the snapshot and forces the next scan.
    fn refill_wire(&mut self) {
        let events = self.wire.own_bell(self.index).events();
        if events == self.last_events {
            return;
        }
        self.last_events = events;
        self.scan_wire();
    }

    /// Pull whatever the wire and the control channel have queued into
    /// `inbound`/`backlog` without blocking. Returns whether `inbound`
    /// is now non-empty.
    fn refill_inbound(&mut self) -> bool {
        self.drain_commands();
        self.refill_wire();
        !self.inbound.is_empty()
    }

    /// The transport-level "everyone else is gone" signal: the control
    /// channel is disconnected and every peer closed its inbound ring.
    /// (In closure mode the control channel is born disconnected, so
    /// this reduces to all-peers-closed, exactly the old mailbox
    /// disconnect condition.)
    fn all_peers_gone(&self) -> bool {
        self.controller_gone && self.wire.all_peers_closed()
    }

    /// Leave the wire: close every outbound ring (publishing anything
    /// still deferred) and ring every peer's bell so their event-gated
    /// scans notice both the final packets and the close. Called before
    /// the node is handed back; the thread is done with the fabric.
    fn retire(&mut self) {
        for tx in self.wire.tx.iter_mut() {
            // Dropping the producer closes the ring, publishing pending
            // slots first.
            drop(tx.take());
        }
        for (i, bell) in self.wire.bells.iter().enumerate() {
            if i != self.index {
                bell.ring();
            }
        }
    }

    /// Deliver exactly ONE inbound packet, if any is queued. This is the
    /// single choke point every drain path goes through, so the
    /// one-packet-per-CQ-check rule holds everywhere. With
    /// `best_effort_tx` a closed ring to a dead peer swallows responses
    /// instead of erroring (used while draining after a disconnect and by
    /// the autonomous service pump).
    fn deliver_one_inbound(&mut self, best_effort_tx: bool) -> ViaResult<bool> {
        if self.inbound.is_empty() {
            self.refill_inbound();
        }
        let Some(pkt) = self.inbound.pop_front() else {
            return Ok(false);
        };
        // What the packet meets here is the node's rule; a packet it
        // requeues goes to the back of `inbound`, behind everything already
        // waiting.
        let Some(resps) = self.node.ingress(pkt, &mut self.inbound)? else {
            return Ok(true);
        };
        self.stats.delivered += 1;
        if !resps.is_empty() {
            self.outbox.extend(resps);
            self.route_outbox(best_effort_tx)?;
        }
        Ok(true)
    }

    /// Block until a completion appears on `vi`'s CQ (pumping while
    /// waiting), or time out after the cluster's wait budget.
    ///
    /// Inbound packets are delivered one at a time with a CQ check in
    /// between, never drained in bulk: once the awaited completion is on
    /// the CQ the caller gets control back before we consume a message
    /// whose receive descriptor it has not posted yet. (Bulk draining
    /// here loses the race against a fast peer: its next message lands
    /// before our next receive is posted and reliable mode rejects it
    /// with `NoRecvDescriptor`, tearing the node down.)
    ///
    /// While idle the wait spins on non-blocking wire polls for
    /// [`spin_budget`] iterations (latency path: the peer usually answers
    /// within microseconds), yields the core for up to [`YIELD_BUDGET`]
    /// more polls, and only then parks on the doorbell for
    /// [`PARK_TIMEOUT`]. The doorbell snapshot is taken *before* the
    /// final emptiness re-check, so a publish that lands between the
    /// check and the park still wakes us immediately.
    pub fn wait_completion(&mut self, vi: ViId) -> ViaResult<Completion> {
        self.wait_completion_for(vi, self.wait_timeout)
    }

    /// [`NodeCtx::wait_completion`] with an explicit wait budget — the
    /// deadline-aware variant DLM clients (and anything else talking to a
    /// possibly-dead peer) use so they can never hang past their lease.
    pub fn wait_completion_for(&mut self, vi: ViId, timeout: Duration) -> ViaResult<Completion> {
        let deadline = Instant::now() + timeout;
        loop {
            self.ship_sends()?;
            if let Some(c) = self.node.nic.vi_mut(vi)?.poll_cq() {
                return Ok(c);
            }
            if self.deliver_one_inbound(false)? {
                continue;
            }
            // Nothing queued: spin briefly, then park so we neither burn
            // the core nor miss a wakeup.
            let mut woke = false;
            let spins = spin_budget();
            for i in 0..spins + YIELD_BUDGET {
                if self.refill_inbound() {
                    woke = true;
                    self.stats.spin_wakes += 1;
                    break;
                }
                if i < spins {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            if !woke {
                if self.all_peers_gone() {
                    return self.drain_disconnected(vi);
                }
                let observed = self.wire.own_bell(self.index).events();
                // Ungated scan on the park path: a peer that closed
                // without ringing (panicked thread) must not stall us a
                // full park interval per packet it left behind.
                self.drain_commands();
                self.scan_wire();
                if self.inbound.is_empty() && self.backlog.is_empty() {
                    self.stats.parks += 1;
                    self.wire.own_bell(self.index).wait(observed, PARK_TIMEOUT);
                }
            }
            if Instant::now() > deadline {
                return Err(ViaError::Timeout);
            }
        }
    }

    /// Every other thread finished: deliver what they left behind —
    /// still one packet per CQ check — then report the disconnect if the
    /// awaited completion never materialises.
    fn drain_disconnected(&mut self, vi: ViId) -> ViaResult<Completion> {
        loop {
            if let Some(c) = self.node.nic.vi_mut(vi)?.poll_cq() {
                return Ok(c);
            }
            // Ungated scan: a peer that died without ringing (a panicked
            // thread) may have published right before closing.
            self.scan_wire();
            if !self.deliver_one_inbound(true)? {
                return Err(ViaError::Disconnected);
            }
        }
    }

    /// Remember the first error the autonomous pump swallowed.
    fn note_error(&mut self, e: ViaError) {
        self.pending_error.get_or_insert(e);
    }

    /// One best-effort progress round for the service loop: ship, then
    /// deliver a bounded burst. Errors are noted (and the offending
    /// packet consumed) rather than propagated — a service thread must
    /// outlive a torn-down VI. Returns whether any progress was made.
    fn pump_round(&mut self) -> bool {
        let mut progressed = false;
        match self.ship_sends() {
            Ok(sent) => progressed |= sent > 0,
            Err(e) => self.note_error(e),
        }
        let mut delivered = 0usize;
        while delivered < DELIVER_BURST {
            match self.deliver_one_inbound(true) {
                Ok(true) => delivered += 1,
                Ok(false) => break,
                Err(e) => {
                    // The packet was consumed; the error is the result of
                    // its delivery (e.g. a reliable VI torn down). Finite,
                    // so it counts as progress.
                    self.note_error(e);
                    delivered += 1;
                }
            }
        }
        progressed | (delivered > 0)
    }
}

// ----------------------------------------------------------------------
// The service loop: a NodeCtx driven by commands from the cluster handle
// ----------------------------------------------------------------------

impl NodeCtx {
    /// Execute one fabric command against this node. `WaitCq` and `Pump`
    /// recurse into the normal pump/wait machinery, so wire traffic keeps
    /// flowing while a command is being served.
    fn handle(&mut self, cmd: Command) -> Reply {
        match cmd {
            Command::WaitCq { vi, timeout } => Reply::Completion(
                self.wait_completion_for(vi, timeout.unwrap_or(self.wait_timeout)),
            ),
            Command::Pump => {
                let before = self.stats.delivered;
                let progressed = self.pump_round();
                let delivered = (self.stats.delivered - before) as usize;
                Reply::Pumped {
                    delivered,
                    idle: !progressed && self.inbound.is_empty() && self.outbox.is_empty(),
                    error: self.pending_error.take(),
                }
            }
            Command::FabricStats => Reply::Fabric(self.stats),
            Command::CheckNode => Reply::Check {
                local: self.node.check_local_invariants(),
                outstanding: self.node.pool.outstanding(),
                // Undelivered work is both the local queue and anything
                // still sitting published in our inbound rings.
                inbound: self.inbound.len() + self.wire.queued(),
            },
            Command::WithNode(f) => Reply::Any(f(&mut self.node)),
            Command::Shutdown => Reply::Done,
            Command::Die => unreachable!("Die is intercepted by the service loop"),
        }
    }
}

/// The per-node service thread: serve backlogged commands, make
/// autonomous wire progress, and park on the doorbell when idle. Returns
/// the node for post-mortem inspection once the cluster shuts down.
fn service(mut ctx: NodeCtx, reply_tx: Sender<Reply>) -> Node {
    loop {
        ctx.drain_commands();
        while let Some(cmd) = ctx.backlog.pop_front() {
            ctx.stats.commands += 1;
            if matches!(cmd, Command::Die) {
                // Simulated crash: drop everything on the floor. Peers
                // discover the death through their closed wire rings,
                // the controller through the closed reply channel.
                return ctx.node;
            }
            let shutdown = matches!(cmd, Command::Shutdown);
            if shutdown {
                // Flush anything still staged so peers draining their
                // rings see it.
                let _ = ctx.pump_round();
            }
            let reply = ctx.handle(cmd);
            if reply_tx.send(reply).is_err() || shutdown {
                // Controller gone (or orderly shutdown): we're done.
                ctx.retire();
                return ctx.node;
            }
        }
        if ctx.controller_gone {
            // The handle was dropped without a shutdown: flush what we
            // can so draining peers see it, then leave.
            let _ = ctx.pump_round();
            ctx.retire();
            return ctx.node;
        }
        if ctx.pump_round() {
            continue;
        }
        if !ctx.backlog.is_empty() || ctx.refill_inbound() {
            continue;
        }
        // Fully idle: park on the doorbell until a peer publishes or the
        // controller sends a command (commands ring the bell too). The
        // snapshot-then-recheck order makes the sleep lost-wakeup-free;
        // the recheck scans ungated so a peer that closed without
        // ringing cannot stall us, and the timeout bounds everything
        // else.
        let observed = ctx.wire.own_bell(ctx.index).events();
        ctx.drain_commands();
        ctx.scan_wire();
        if !ctx.inbound.is_empty() || !ctx.backlog.is_empty() {
            continue;
        }
        ctx.stats.parks += 1;
        ctx.wire
            .own_bell(ctx.index)
            .wait(observed, SERVICE_PARK_TIMEOUT);
    }
}

// ----------------------------------------------------------------------
// The cluster handle
// ----------------------------------------------------------------------

/// Configuration for a [`ThreadedCluster`].
pub struct ClusterBuilder {
    nodes: usize,
    config: KernelConfig,
    strategy: StrategyKind,
    tpt_pages: usize,
    wait_timeout: Duration,
    ring_capacity: usize,
}

impl ClusterBuilder {
    /// `nodes` identical nodes with the given kernel configuration and
    /// pinning strategy.
    pub fn new(nodes: usize, config: KernelConfig, strategy: StrategyKind) -> Self {
        ClusterBuilder {
            nodes,
            config,
            strategy,
            tpt_pages: DEFAULT_TPT_PAGES,
            wait_timeout: WAIT_TIMEOUT,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }

    /// TPT capacity per node, in pages.
    pub fn tpt_pages(mut self, pages: usize) -> Self {
        self.tpt_pages = pages;
        self
    }

    /// How long a blocking wait ([`Fabric::wait_cq`],
    /// [`NodeCtx::wait_completion`]) may stall before erroring. Tighten
    /// for tests that expect to time out; loosen for heavily oversubscribed
    /// hosts.
    pub fn wait_timeout(mut self, timeout: Duration) -> Self {
        self.wait_timeout = timeout;
        self
    }

    /// Per-(src, dst) wire ring capacity in packets, rounded up to a
    /// power of two (minimum 2). Smaller rings exercise backpressure;
    /// larger rings absorb burstier flushes.
    pub fn ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// Spawn the node threads and hand back the cluster.
    pub fn build(self) -> ThreadedCluster {
        let nodes = (0..self.nodes)
            .map(|_| Node::new(self.config, self.strategy, self.tpt_pages))
            .collect();
        ThreadedCluster::launch(nodes, self.wait_timeout, self.ring_capacity)
    }
}

/// An N-node threaded fabric behind a [`Fabric`] surface: one service
/// thread per node, commands round-trip over the node's control channel
/// (ringing its doorbell so a parked thread wakes). Dropping the handle
/// shuts the threads down; [`ThreadedCluster::into_nodes`] shuts down
/// *and* returns the nodes for post-mortem inspection.
pub struct ThreadedCluster {
    cmd_txs: Vec<Sender<Command>>,
    bells: Vec<Arc<Doorbell>>,
    replies: Vec<Receiver<Reply>>,
    handles: Vec<Option<JoinHandle<Node>>>,
    wait_timeout: Duration,
}

impl ThreadedCluster {
    /// A cluster with default TPT capacity, ring capacity and wait
    /// timeout. See [`ClusterBuilder`] for the knobs.
    pub fn new(nodes: usize, config: KernelConfig, strategy: StrategyKind) -> Self {
        ClusterBuilder::new(nodes, config, strategy).build()
    }

    /// Put pre-built nodes on service threads.
    fn launch(nodes: Vec<Node>, wait_timeout: Duration, ring_capacity: usize) -> Self {
        let n = nodes.len();
        let mut ports = wire_mesh(n, ring_capacity);
        let bells = ports[0].bells.clone();
        let mut cmd_txs = Vec::with_capacity(n);
        let mut replies = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (i, node) in nodes.into_iter().enumerate() {
            let (cmd_tx, cmd_rx) = channel::<Command>();
            let wire = std::mem::replace(
                &mut ports[i],
                WirePorts {
                    tx: Vec::new(),
                    rx: Vec::new(),
                    bells: Vec::new(),
                },
            );
            let ctx = NodeCtx::new(node, i, wire, cmd_rx, wait_timeout);
            let (reply_tx, reply_rx) = channel::<Reply>();
            cmd_txs.push(cmd_tx);
            replies.push(reply_rx);
            let handle = std::thread::Builder::new()
                .name(format!("via-node-{i}"))
                .spawn(move || service(ctx, reply_tx))
                .expect("spawn via node thread");
            handles.push(Some(handle));
        }
        ThreadedCluster {
            cmd_txs,
            bells,
            replies,
            handles,
            wait_timeout,
        }
    }

    /// The configured wait budget.
    pub fn wait_timeout(&self) -> Duration {
        self.wait_timeout
    }

    /// One command round-trip to node `n`'s service thread: send on the
    /// control channel, ring the node's doorbell (it may be parked), wait
    /// for the reply. A closed channel means the thread is gone (panicked
    /// or shut down) — [`ViaError::PeerGone`].
    fn command(&mut self, n: NodeId, cmd: Command) -> ViaResult<Reply> {
        self.cmd_txs[n]
            .send(cmd)
            .map_err(|_| ViaError::PeerGone(n))?;
        self.bells[n].ring();
        // A panicking service thread drops its reply sender, so this
        // cannot deadlock.
        self.replies[n].recv().map_err(|_| ViaError::PeerGone(n))
    }

    /// Block on node `n` for a completion on `vi`: under `timeout`, or the
    /// cluster's wait budget when `None`.
    fn wait(&mut self, n: NodeId, vi: ViId, timeout: Option<Duration>) -> ViaResult<Completion> {
        match self.command(n, Command::WaitCq { vi, timeout })? {
            Reply::Completion(r) => r,
            _ => unreachable!("reply type mismatch for WaitCq"),
        }
    }

    /// Have node `n` fill a fresh `len`-byte buffer and send it back: the
    /// owned copy a closure has to make where the deterministic fabric
    /// lends the caller's slice. Callers bound `len` first.
    fn fetch(
        &mut self,
        n: NodeId,
        len: usize,
        fill: impl FnOnce(&mut Node, &mut [u8]) -> ViaResult<()> + Send + 'static,
    ) -> ViaResult<Vec<u8>> {
        self.try_with_node(n, move |node| {
            let mut buf = vec![0u8; len];
            fill(node, &mut buf).map(|()| buf)
        })?
    }

    /// One bounded, best-effort progress round on node `n`. Returns
    /// (packets delivered, node idle, first autonomous error).
    fn pump_node(&mut self, n: NodeId) -> ViaResult<(usize, bool, Option<ViaError>)> {
        match self.command(n, Command::Pump)? {
            Reply::Pumped {
                delivered,
                idle,
                error,
            } => Ok((delivered, idle, error)),
            _ => unreachable!("reply type mismatch for Pump"),
        }
    }

    /// Pump every node until two consecutive all-idle rounds — the
    /// threaded analogue of the deterministic fabric's pump-to-quiescence.
    /// Autonomous delivery errors encountered on the way are dropped (they
    /// are already recorded in NIC stats and VI state); callers that care
    /// should use [`ThreadedCluster::pump`] and inspect its error. Errors
    /// from this method itself mean the cluster is unhealthy (a thread is
    /// gone, or the fabric would not settle).
    pub fn quiesce(&mut self) -> ViaResult<usize> {
        let n = self.cmd_txs.len();
        let mut total = 0usize;
        let mut idle_rounds = 0usize;
        let mut rounds = 0usize;
        while idle_rounds < 2 {
            rounds += 1;
            if rounds > QUIESCE_ROUND_CAP {
                return Err(ViaError::BadState("quiesce: cluster would not settle"));
            }
            let mut all_idle = true;
            for i in 0..n {
                let (delivered, idle, _autonomous) = self.pump_node(i)?;
                total += delivered;
                if delivered > 0 || !idle {
                    all_idle = false;
                }
            }
            if all_idle {
                idle_rounds += 1;
            } else {
                idle_rounds = 0;
            }
        }
        Ok(total)
    }

    /// Fabric-layer counters of node `n`'s service thread.
    pub fn fabric_stats(&mut self, n: NodeId) -> ViaResult<FabricStats> {
        match self.command(n, Command::FabricStats)? {
            Reply::Fabric(s) => Ok(s),
            _ => unreachable!("reply type mismatch for FabricStats"),
        }
    }

    /// Crash node `n`: its service thread exits immediately without
    /// replying, flushing staged wire traffic, or retiring, so every
    /// subsequent command to it — and every peer's send toward it —
    /// surfaces [`ViaError::PeerGone`] (or, for a blocking wait that was
    /// counting on its traffic, [`ViaError::Timeout`] once the wait
    /// ladder expires). Joins the thread so the death is complete, not
    /// merely requested, when this returns. The node's state dies with
    /// it; [`ThreadedCluster::into_nodes`] reports it among the dead.
    pub fn kill_node(&mut self, n: NodeId) -> ViaResult<()> {
        self.cmd_txs[n]
            .send(Command::Die)
            .map_err(|_| ViaError::PeerGone(n))?;
        self.bells[n].ring();
        if let Some(handle) = self.handles[n].take() {
            let _ = handle.join();
        }
        Ok(())
    }

    /// Ask every node thread to shut down and hang up on all of them.
    fn shut_down(&mut self) {
        for (i, tx) in self.cmd_txs.iter().enumerate() {
            let _ = tx.send(Command::Shutdown);
            self.bells[i].ring();
        }
        self.cmd_txs.clear();
        self.replies.clear();
    }

    /// Shut every node thread down and return the nodes for post-mortem
    /// inspection (registries, stats, VI state).
    pub fn into_nodes(mut self) -> ViaResult<Vec<Node>> {
        self.shut_down();
        let mut handles = std::mem::take(&mut self.handles);
        // Join every thread before reporting: a panicked node must not
        // leave the rest detached, and all dead indices are reported, not
        // just the first.
        let mut nodes = Vec::with_capacity(handles.len());
        let mut dead: Vec<usize> = Vec::new();
        for (i, slot) in handles.iter_mut().enumerate() {
            // A `None` slot is a node killed earlier via `kill_node`.
            let Some(handle) = slot.take() else {
                dead.push(i);
                continue;
            };
            match handle.join() {
                Ok(node) => nodes.push(node),
                Err(_) => dead.push(i),
            }
        }
        match dead.len() {
            0 => Ok(nodes),
            1 => Err(ViaError::PeerGone(dead[0])),
            _ => Err(ViaError::NodesGone(dead)),
        }
    }
}

impl Drop for ThreadedCluster {
    fn drop(&mut self) {
        self.shut_down();
        for handle in self.handles.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
    }
}

impl Fabric for ThreadedCluster {
    fn node_count(&self) -> usize {
        self.cmd_txs.len()
    }

    fn try_with_node<R, G>(&mut self, n: NodeId, f: G) -> ViaResult<R>
    where
        R: Send + 'static,
        G: FnOnce(&mut Node) -> R + Send + 'static,
    {
        let boxed: NodeFn = Box::new(move |node| Box::new(f(node)) as Box<dyn Any + Send>);
        match self.command(n, Command::WithNode(boxed))? {
            Reply::Any(any) => Ok(*any.downcast::<R>().expect("with_node reply type")),
            _ => unreachable!("reply type mismatch for WithNode"),
        }
    }

    fn write_user(&mut self, n: NodeId, pid: Pid, addr: VirtAddr, data: &[u8]) -> ViaResult<()> {
        let data = data.to_vec();
        self.try_with_node(n, move |node| {
            Ok(node.kernel.write_user(pid, addr, &data)?)
        })?
    }

    fn read_user(&mut self, n: NodeId, pid: Pid, addr: VirtAddr, out: &mut [u8]) -> ViaResult<()> {
        let bytes = self.fetch(n, out.len(), move |node, buf| {
            Ok(node.kernel.read_user(pid, addr, buf)?)
        })?;
        out.copy_from_slice(&bytes);
        Ok(())
    }

    fn connect(&mut self, a: (NodeId, ViId), b: (NodeId, ViId)) -> ViaResult<()> {
        connect_rule(a, b, |n, edit| {
            self.try_with_node(n, move |node| edit(&mut node.nic))?
        })
    }

    fn wait_cq(&mut self, n: NodeId, vi: ViId) -> ViaResult<Completion> {
        self.wait(n, vi, None)
    }

    fn wait_cq_deadline(
        &mut self,
        n: NodeId,
        vi: ViId,
        timeout: Duration,
    ) -> ViaResult<Completion> {
        self.wait(n, vi, Some(timeout))
    }

    fn pump(&mut self) -> ViaResult<usize> {
        let n = self.cmd_txs.len();
        let mut delivered = 0usize;
        let mut first_error: Option<ViaError> = None;
        for i in 0..n {
            let (d, _idle, autonomous) = self.pump_node(i)?;
            delivered += d;
            if first_error.is_none() {
                first_error = autonomous;
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(delivered),
        }
    }

    fn sci_write(
        &mut self,
        src: (NodeId, Pid, VirtAddr),
        len: usize,
        dst: (NodeId, MemId, usize),
    ) -> ViaResult<()> {
        let (sn, spid, saddr) = src;
        let (dn, dmem, doff) = dst;
        self.try_with_node(dn, move |node| node.check_pio_span(dmem, doff, len))??;
        let data = self.fetch(sn, len, move |node, buf| {
            Ok(node.kernel.read_user(spid, saddr, buf)?)
        })?;
        self.sci_write_bytes(&data, dst)
    }

    fn sci_write_bytes(&mut self, data: &[u8], dst: (NodeId, MemId, usize)) -> ViaResult<()> {
        let (dn, dmem, doff) = dst;
        let data = data.to_vec();
        self.try_with_node(dn, move |node| node.sci_write_bytes(&data, dmem, doff))?
    }

    fn sci_read_bytes(&mut self, src: (NodeId, MemId, usize), out: &mut [u8]) -> ViaResult<()> {
        let (sn, smem, soff) = src;
        let bytes = self.fetch(sn, out.len(), move |node, buf| {
            node.sci_read_bytes(smem, soff, buf)
        })?;
        out.copy_from_slice(&bytes);
        Ok(())
    }

    fn check_invariants(&mut self) -> Result<(), String> {
        // The pool ledger only balances with no packets in flight, so
        // settle the fabric first.
        self.quiesce().map_err(|e| format!("quiesce: {e}"))?;
        let n = self.cmd_txs.len();
        let mut outstanding_total = 0i64;
        for i in 0..n {
            match self
                .command(i, Command::CheckNode)
                .map_err(|e| format!("node {i}: {e}"))?
            {
                Reply::Check {
                    local,
                    outstanding,
                    inbound,
                } => {
                    local.map_err(|e| format!("node {i}: {e}"))?;
                    if inbound != 0 {
                        return Err(format!(
                            "node {i}: {inbound} packets still queued after quiesce"
                        ));
                    }
                    outstanding_total += outstanding;
                }
                _ => unreachable!("reply type mismatch for CheckNode"),
            }
        }
        if outstanding_total != 0 {
            return Err(format!(
                "pool ledger imbalance: {outstanding_total} buffers outstanding \
                 with the fabric quiescent"
            ));
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Closure mode: one thread per node, caller-supplied drivers
// ----------------------------------------------------------------------

/// Wire two VIs of two (not yet split) nodes together; slice-indexed, so
/// same-node connects work too. Both VIs must be idle.
pub fn connect_nodes(nodes: &mut [Node], a: (usize, ViId), b: (usize, ViId)) -> ViaResult<()> {
    connect_rule(a, b, |n, edit| edit(&mut nodes[n].nic))
}

/// Run N nodes on N threads with the default [`WAIT_TIMEOUT`]. See
/// [`run_cluster_with_timeout`].
pub fn run_cluster<R, F>(nodes: Vec<Node>, fns: Vec<F>) -> ViaResult<Vec<(R, Node)>>
where
    R: Send,
    F: FnOnce(&mut NodeCtx) -> ViaResult<R> + Send,
{
    run_cluster_with_timeout(nodes, WAIT_TIMEOUT, fns)
}

/// Run N nodes on N threads, one closure per node (use boxed closures if
/// the per-node drivers differ in type). Node `i` routes packets with
/// `src_node = i`; wire the VIs first with [`connect_nodes`]. Returns
/// every closure result plus its node (for post-mortem inspection), in
/// node order. All threads are joined before any error is propagated; a
/// panicked node thread reports [`ViaError::PeerGone`] with its index.
pub fn run_cluster_with_timeout<R, F>(
    nodes: Vec<Node>,
    wait_timeout: Duration,
    fns: Vec<F>,
) -> ViaResult<Vec<(R, Node)>>
where
    R: Send,
    F: FnOnce(&mut NodeCtx) -> ViaResult<R> + Send,
{
    if nodes.len() != fns.len() {
        return Err(ViaError::BadState("run_cluster: one closure per node"));
    }
    let n = nodes.len();
    let ctxs: Vec<NodeCtx> = nodes
        .into_iter()
        .zip(wire_mesh(n, DEFAULT_RING_CAPACITY))
        .enumerate()
        .map(|(i, (node, wire))| {
            // No cluster handle in closure mode: the control channel is
            // born disconnected, so `all_peers_gone` reduces to every
            // peer having closed its ring (dropped its NodeCtx).
            let (_, cmd_rx) = channel::<Command>();
            NodeCtx::new(node, i, wire, cmd_rx, wait_timeout)
        })
        .collect();

    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(n);
        for (mut ctx, f) in ctxs.into_iter().zip(fns) {
            joins.push(s.spawn(move || -> ViaResult<(R, Node)> {
                let r = f(&mut ctx)?;
                // Final drain so late arrivals are not lost, then leave
                // the wire (close + ring) so peers notice promptly.
                let _ = ctx.pump();
                ctx.retire();
                Ok((r, ctx.node))
            }));
        }
        // Join every thread before propagating any error: bailing early
        // would detach the other scope guards mid-run. Every failed node
        // is collected — one dead node commonly cascades (peers see closed
        // rings), and reporting only the first would hide the cascade's
        // true extent.
        let mut results = Vec::with_capacity(n);
        let mut first_error: Option<ViaError> = None;
        let mut dead: Vec<usize> = Vec::new();
        for (i, join) in joins.into_iter().enumerate() {
            match join.join() {
                Ok(Ok(r)) => results.push(Some(r)),
                Ok(Err(e)) => {
                    results.push(None);
                    dead.push(i);
                    first_error.get_or_insert(e);
                }
                Err(_) => {
                    results.push(None);
                    dead.push(i);
                    first_error.get_or_insert(ViaError::PeerGone(i));
                }
            }
        }
        if dead.len() > 1 {
            return Err(ViaError::NodesGone(dead));
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("no error, so every result is present"))
            .collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Descriptor;
    use crate::tpt::ProtectionTag;
    use simmem::{prot, Capabilities, KernelConfig, PAGE_SIZE};
    use vialock::StrategyKind;

    type Driver<R> = Box<dyn FnOnce(&mut NodeCtx) -> ViaResult<R> + Send>;

    fn node() -> Node {
        Node::new(KernelConfig::medium(), StrategyKind::KiobufReliable, 1024)
    }

    #[test]
    fn threaded_ping_pong() {
        let mut nodes = vec![node(), node()];
        let tag = ProtectionTag(1);
        let p0 = nodes[0].kernel.spawn_process(Capabilities::default());
        let p1 = nodes[1].kernel.spawn_process(Capabilities::default());
        let v0 = nodes[0].nic.create_vi(p0, tag);
        let v1 = nodes[1].nic.create_vi(p1, tag);
        connect_nodes(&mut nodes, (0, v0), (1, v1)).unwrap();

        let len = 2 * PAGE_SIZE;
        let b0 = nodes[0]
            .kernel
            .mmap_anon(p0, len, prot::READ | prot::WRITE)
            .unwrap();
        let b1 = nodes[1]
            .kernel
            .mmap_anon(p1, len, prot::READ | prot::WRITE)
            .unwrap();
        let m0 = nodes[0].register_mem(p0, b0, len, tag).unwrap();
        let m1 = nodes[1].register_mem(p1, b1, len, tag).unwrap();

        const ROUNDS: usize = 50;
        let drivers: Vec<Driver<usize>> = vec![
            Box::new(move |ctx| {
                let mut sent = 0usize;
                for i in 0..ROUNDS {
                    let msg = vec![i as u8; 256];
                    ctx.node.kernel.write_user(p0, b0, &msg)?;
                    // Pre-post the pong receive BEFORE sending the ping
                    // (reliable mode drops unmatched messages).
                    ctx.node
                        .nic
                        .post(v0, Descriptor::recv(m0, b0, len), false)?;
                    ctx.node.nic.post(v0, Descriptor::send(m0, b0, 256), true)?;
                    // Send completion, then pong arrival.
                    let c = ctx.wait_completion(v0)?;
                    assert_eq!(c.op, crate::descriptor::DescOp::Send);
                    let c = ctx.wait_completion(v0)?;
                    assert_eq!(c.op, crate::descriptor::DescOp::Recv);
                    assert_eq!(c.len, 256);
                    sent += 1;
                }
                Ok(sent)
            }),
            Box::new(move |ctx| {
                let mut got = 0usize;
                for i in 0..ROUNDS {
                    ctx.node
                        .nic
                        .post(v1, Descriptor::recv(m1, b1, len), false)?;
                    // Wait for the ping.
                    loop {
                        let c = ctx.wait_completion(v1)?;
                        if c.op == crate::descriptor::DescOp::Recv {
                            assert_eq!(c.len, 256);
                            let mut out = vec![0u8; 256];
                            ctx.node.kernel.read_user(p1, b1, &mut out)?;
                            assert!(out.iter().all(|&b| b == i as u8), "round {i}");
                            got += 1;
                            break;
                        }
                    }
                    // Pong it back.
                    ctx.node.nic.post(v1, Descriptor::send(m1, b1, 256), true)?;
                    let c = ctx.wait_completion(v1)?;
                    assert_eq!(c.op, crate::descriptor::DescOp::Send);
                }
                Ok(got)
            }),
        ];
        let mut results = run_cluster(nodes, drivers).unwrap();
        let (got, _n1) = results.pop().unwrap();
        let (sent, _n0) = results.pop().unwrap();
        assert_eq!(sent, ROUNDS);
        assert_eq!(got, ROUNDS);
    }

    #[test]
    fn threaded_rdma_write_stream() {
        let mut nodes = vec![node(), node()];
        let tag = ProtectionTag(2);
        let p0 = nodes[0].kernel.spawn_process(Capabilities::default());
        let p1 = nodes[1].kernel.spawn_process(Capabilities::default());
        let v0 = nodes[0].nic.create_vi(p0, tag);
        let v1 = nodes[1].nic.create_vi(p1, tag);
        connect_nodes(&mut nodes, (0, v0), (1, v1)).unwrap();

        let len = 8 * PAGE_SIZE;
        let b0 = nodes[0]
            .kernel
            .mmap_anon(p0, len, prot::READ | prot::WRITE)
            .unwrap();
        let b1 = nodes[1]
            .kernel
            .mmap_anon(p1, len, prot::READ | prot::WRITE)
            .unwrap();
        nodes[0]
            .kernel
            .write_user(p0, b0, &vec![0xEE; len])
            .unwrap();
        let m0 = nodes[0].register_mem(p0, b0, len, tag).unwrap();
        let m1 = nodes[1].register_mem(p1, b1, len, tag).unwrap();

        let drivers: Vec<Driver<()>> = vec![
            Box::new(move |ctx| {
                // Stream 16 RDMA writes, one page each.
                for i in 0..16usize {
                    let off = (i % 8) * PAGE_SIZE;
                    ctx.node.nic.post(
                        v0,
                        Descriptor::rdma_write(m0, b0 + off as u64, PAGE_SIZE, m1, b1 + off as u64),
                        true,
                    )?;
                    let c = ctx.wait_completion(v0)?;
                    assert_eq!(c.op, crate::descriptor::DescOp::RdmaWrite);
                }
                Ok(())
            }),
            Box::new(move |ctx| {
                // One-sided: the target just pumps until the data shows
                // up everywhere.
                let deadline = Instant::now() + WAIT_TIMEOUT;
                loop {
                    ctx.pump()?;
                    let mut all = vec![0u8; len];
                    ctx.node.kernel.read_user(p1, b1, &mut all)?;
                    if all.iter().all(|&b| b == 0xEE) {
                        return Ok(());
                    }
                    if Instant::now() > deadline {
                        return Err(ViaError::BadState("rdma stream never completed"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }),
        ];
        run_cluster(nodes, drivers).unwrap();
    }

    /// Three nodes in a line, traffic relayed by the middle one: packets
    /// route by destination, not to "the peer".
    #[test]
    fn three_node_relay() {
        let mut nodes = vec![node(), node(), node()];
        let tag = ProtectionTag(3);
        let pids: Vec<_> = nodes
            .iter_mut()
            .map(|n| n.kernel.spawn_process(Capabilities::default()))
            .collect();
        // 0 <-> 1 and 1 <-> 2.
        let v0 = nodes[0].nic.create_vi(pids[0], tag);
        let v1a = nodes[1].nic.create_vi(pids[1], tag);
        let v1b = nodes[1].nic.create_vi(pids[1], tag);
        let v2 = nodes[2].nic.create_vi(pids[2], tag);
        connect_nodes(&mut nodes, (0, v0), (1, v1a)).unwrap();
        connect_nodes(&mut nodes, (1, v1b), (2, v2)).unwrap();

        let len = PAGE_SIZE;
        let bufs: Vec<_> = nodes
            .iter_mut()
            .zip(&pids)
            .map(|(n, &p)| {
                n.kernel
                    .mmap_anon(p, len, prot::READ | prot::WRITE)
                    .unwrap()
            })
            .collect();
        let mems: Vec<_> = nodes
            .iter_mut()
            .zip(&pids)
            .zip(&bufs)
            .map(|((n, &p), &b)| n.register_mem(p, b, len, tag).unwrap())
            .collect();

        let (p0, _p1, p2) = (pids[0], pids[1], pids[2]);
        let (b0, b1, b2) = (bufs[0], bufs[1], bufs[2]);
        let (m0, m1, m2) = (mems[0], mems[1], mems[2]);
        let drivers: Vec<Driver<()>> = vec![
            Box::new(move |ctx| {
                ctx.node.kernel.write_user(p0, b0, b"relay me!")?;
                ctx.node.nic.post(v0, Descriptor::send(m0, b0, 9), true)?;
                let c = ctx.wait_completion(v0)?;
                assert_eq!(c.op, crate::descriptor::DescOp::Send);
                Ok(())
            }),
            Box::new(move |ctx| {
                // Receive from node 0, forward to node 2.
                ctx.node
                    .nic
                    .post(v1a, Descriptor::recv(m1, b1, len), false)?;
                let c = ctx.wait_completion(v1a)?;
                assert_eq!(c.op, crate::descriptor::DescOp::Recv);
                ctx.node
                    .nic
                    .post(v1b, Descriptor::send(m1, b1, c.len), true)?;
                let c = ctx.wait_completion(v1b)?;
                assert_eq!(c.op, crate::descriptor::DescOp::Send);
                Ok(())
            }),
            Box::new(move |ctx| {
                ctx.node
                    .nic
                    .post(v2, Descriptor::recv(m2, b2, len), false)?;
                let c = ctx.wait_completion(v2)?;
                assert_eq!(c.op, crate::descriptor::DescOp::Recv);
                assert_eq!(c.len, 9);
                let mut out = [0u8; 9];
                ctx.node.kernel.read_user(p2, b2, &mut out)?;
                assert_eq!(&out, b"relay me!");
                Ok(())
            }),
        ];
        run_cluster(nodes, drivers).unwrap();
    }

    /// The cluster-as-a-service surface: a roundtrip entirely through the
    /// `Fabric` trait, then invariants and an orderly teardown.
    #[test]
    fn cluster_service_roundtrip() {
        let mut fab = ThreadedCluster::new(2, KernelConfig::small(), StrategyKind::KiobufReliable);
        assert_eq!(fab.node_count(), 2);
        let pa = fab.spawn_process(0);
        let pb = fab.spawn_process(1);
        let tag = ProtectionTag(7);
        let va = fab.create_vi(0, pa, tag).unwrap();
        let vb = fab.create_vi(1, pb, tag).unwrap();
        fab.connect((0, va), (1, vb)).unwrap();
        let sbuf = fab
            .mmap(0, pa, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let rbuf = fab
            .mmap(1, pb, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        fab.write_user(0, pa, sbuf, b"via threads").unwrap();
        let sh = fab.register_mem(0, pa, sbuf, PAGE_SIZE, tag).unwrap();
        let rh = fab.register_mem(1, pb, rbuf, PAGE_SIZE, tag).unwrap();
        fab.post_recv(1, vb, rh, rbuf, PAGE_SIZE).unwrap();
        fab.post_send(0, va, sh, sbuf, 11).unwrap();
        let cr = fab.wait_cq(1, vb).unwrap();
        assert_eq!(cr.op, crate::descriptor::DescOp::Recv);
        assert_eq!(cr.len, 11);
        let cs = fab.wait_cq(0, va).unwrap();
        assert_eq!(cs.op, crate::descriptor::DescOp::Send);
        let mut out = [0u8; 11];
        fab.read_user(1, pb, rbuf, &mut out).unwrap();
        assert_eq!(&out, b"via threads");
        assert!(fab.nic_stats(0).sends >= 1);
        let fs = fab.fabric_stats(0).unwrap();
        assert!(fs.commands > 0);
        fab.check_invariants().unwrap();
        let nodes = fab.into_nodes().unwrap();
        assert_eq!(nodes.len(), 2);
        assert!(nodes[1].nic.stats.recvs >= 1);
    }

    /// A tightened wait budget actually bites: waiting on a CQ nobody
    /// will ever complete surfaces the typed [`ViaError::Timeout`]
    /// quickly instead of after 5 s.
    #[test]
    fn cluster_wait_timeout_is_configurable() {
        let mut fab = ClusterBuilder::new(2, KernelConfig::small(), StrategyKind::KiobufReliable)
            .wait_timeout(Duration::from_millis(50))
            .build();
        assert_eq!(fab.wait_timeout(), Duration::from_millis(50));
        let p = fab.spawn_process(0);
        let vi = fab.create_vi(0, p, ProtectionTag(1)).unwrap();
        let start = Instant::now();
        let r = fab.wait_cq(0, vi);
        assert!(matches!(r, Err(ViaError::Timeout)), "got {r:?}");
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    /// A tiny ring capacity forces the backpressure path: stage hits
    /// `Full`, publishes early, drains its own inbound, and the burst
    /// still lands intact.
    #[test]
    fn tiny_rings_backpressure_without_deadlock() {
        let mut fab = ClusterBuilder::new(2, KernelConfig::medium(), StrategyKind::KiobufReliable)
            .ring_capacity(2)
            .build();
        let tag = ProtectionTag(1);
        let p0 = fab.spawn_process(0);
        let p1 = fab.spawn_process(1);
        let v0 = fab.create_vi(0, p0, tag).unwrap();
        let v1 = fab.create_vi(1, p1, tag).unwrap();
        fab.connect((0, v0), (1, v1)).unwrap();
        let len = 4 * PAGE_SIZE;
        let b0 = fab.mmap(0, p0, len, prot::READ | prot::WRITE).unwrap();
        let b1 = fab.mmap(1, p1, len, prot::READ | prot::WRITE).unwrap();
        fab.write_user(0, p0, b0, &[7u8; 64]).unwrap();
        let m0 = fab.register_mem(0, p0, b0, len, tag).unwrap();
        let m1 = fab.register_mem(1, p1, b1, len, tag).unwrap();
        // Many small messages through a 2-slot ring. The sends are all
        // queued in ONE `with_node` call, so the next autonomous
        // `ship_sends` flushes a 16-packet batch through a 2-slot ring:
        // the third deferred push *must* observe Full (deferred slots
        // are invisible to the consumer, so it cannot help).
        const BURST: usize = 16;
        for _ in 0..BURST {
            fab.post_recv(1, v1, m1, b1, 64).unwrap();
        }
        fab.with_node(0, move |node| {
            for _ in 0..BURST {
                node.nic
                    .post(v0, Descriptor::send(m0, b0, 64), true)
                    .expect("sender VI");
            }
        });
        for _ in 0..BURST {
            let c = fab.wait_cq(0, v0).unwrap();
            assert!(!c.status.is_error(), "send errored under backpressure");
        }
        for _ in 0..BURST {
            let c = fab.wait_cq(1, v1).unwrap();
            assert!(!c.status.is_error(), "recv errored under backpressure");
            assert_eq!(c.len, 64);
        }
        let stats = fab.fabric_stats(0).unwrap();
        assert!(stats.wire_stalls > 0, "2-slot ring never filled");
        fab.check_invariants().unwrap();
    }
}
