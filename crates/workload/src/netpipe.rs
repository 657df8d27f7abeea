//! **E6/E7 — NetPIPE-style sweeps.**
//!
//! Two layers:
//!
//! * [`profile_sweep`] evaluates the pure network cost models (the
//!   MPI-level curves of "Comparing MPI Performance of SCI and VIA");
//! * [`protocol_sweep`] runs *functional* ping-pongs through the `msg`
//!   protocols, then charges the observed event counts against the cost
//!   model — so protocol choice, chunking, registration caching and all
//!   control traffic come from the real implementation, not a formula.

use simmem::KernelConfig;
use via::{Fabric, ThreadedCluster};
use vialock::StrategyKind;

use msg::{Comm, MsgConfig};
use netsim::cost::NetworkProfile;
use netsim::proto::ProtocolCosts;
use netsim::sweep::bandwidth_mb_s;

use crate::model::{reg_cost_for, time_from_stats};

/// One sweep data point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub bytes: usize,
    pub one_way_ns: u64,
    pub bandwidth_mb_s: f64,
    /// Which protocol carried the payload (functional sweep only).
    pub protocol: Option<&'static str>,
    /// NIC translation-cache hit rate over the point's transfers
    /// (functional sweep only; 0 when no translations ran).
    pub tlb_hit_rate: f64,
    /// CPU staging copies the message layer performed for the point.
    pub copy_ops: u64,
}

/// Evaluate a pure profile over a size ladder (the E7 figures).
pub fn profile_sweep(profile: &NetworkProfile, sizes: &[usize]) -> Vec<SweepPoint> {
    sizes
        .iter()
        .map(|&n| {
            let t = profile.transfer_ns(n);
            SweepPoint {
                bytes: n,
                one_way_ns: t,
                bandwidth_mb_s: bandwidth_mb_s(n, t),
                protocol: None,
                tlb_hit_rate: 0.0,
                copy_ops: 0,
            }
        })
        .collect()
}

/// Build a two-rank communicator for the functional sweep.
pub fn sweep_comm(strategy: StrategyKind) -> Comm {
    Comm::new(2, 2, KernelConfig::large(), strategy, MsgConfig::classic())
        .expect("sweep communicator")
}

/// Build a two-rank communicator on an `n_nodes`-node threaded cluster:
/// ranks 0 and 1 land on nodes 0 and 1, the remaining nodes idle — but the
/// full N-node mailbox/routing layer is live, so the same sweep exercises
/// the concurrent fabric.
pub fn threaded_sweep_comm(n_nodes: usize, strategy: StrategyKind) -> Comm<ThreadedCluster> {
    let cluster = ThreadedCluster::new(n_nodes, KernelConfig::large(), strategy);
    Comm::on_fabric(cluster, 2, MsgConfig::classic()).expect("threaded sweep communicator")
}

/// Run `reps` functional ping-pongs of `bytes` and return the event-charged
/// one-way time and bandwidth. Generic over the [`Fabric`]: the same
/// measurement runs on the deterministic system or a threaded cluster.
pub fn measure_point<F: Fabric>(
    comm: &mut Comm<F>,
    costs: &ProtocolCosts,
    bytes: usize,
    reps: usize,
) -> SweepPoint {
    let len = bytes.max(1);
    let sbuf = comm.alloc_buffer(0, len).expect("send buffer");
    let rbuf = comm.alloc_buffer(1, len).expect("recv buffer");
    let payload: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
    comm.fill_buffer(0, sbuf, &payload).expect("fill");

    let before = comm.stats;
    let nic_before = [comm.nic_stats(0), comm.nic_stats(1)];
    for _ in 0..reps {
        // Ping…
        let h = comm.send(0, 1, 1, sbuf, len).expect("send");
        comm.recv(1, 0, 1, rbuf, len).expect("recv");
        comm.wait(h).expect("wait");
        // …pong.
        let h = comm.send(1, 0, 2, rbuf, len).expect("send back");
        comm.recv(0, 1, 2, sbuf, len).expect("recv back");
        comm.wait(h).expect("wait back");
    }
    let delta = comm.stats.since(&before);
    let (mut hits, mut misses) = (0u64, 0u64);
    for (n, b) in nic_before.iter().enumerate() {
        let s = comm.nic_stats(n);
        hits += s.tlb_hits - b.tlb_hits;
        misses += s.tlb_misses - b.tlb_misses;
    }
    let total = time_from_stats(&delta, costs);
    let one_way = total / (2 * reps as u64);
    // Return the pages: sweeps run many points on one machine.
    comm.free_buffer(0, sbuf, len).expect("free send buffer");
    comm.free_buffer(1, rbuf, len).expect("free recv buffer");
    let protocol = Some(match MsgConfig::classic().protocol_for(len) {
        msg::config::Protocol::SharedMemory => "shared-memory",
        msg::config::Protocol::OneCopy => "one-copy",
        msg::config::Protocol::ZeroCopy => "zero-copy",
    });
    SweepPoint {
        bytes,
        one_way_ns: one_way,
        bandwidth_mb_s: bandwidth_mb_s(bytes, one_way),
        protocol,
        tlb_hit_rate: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        copy_ops: delta.copy_ops,
    }
}

/// Full functional sweep (E6): ping-pong at each size, event-charged.
pub fn protocol_sweep(strategy: StrategyKind, sizes: &[usize], reps: usize) -> Vec<SweepPoint> {
    let mut comm = sweep_comm(strategy);
    let costs = ProtocolCosts::classic(reg_cost_for(strategy));
    sizes
        .iter()
        .map(|&n| measure_point(&mut comm, &costs, n, reps))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::sweep::pow2_sizes;

    #[test]
    fn profile_sweep_shapes() {
        let sizes = pow2_sizes(4, 1 << 20);
        let sci = profile_sweep(&NetworkProfile::sci_pio(), &sizes);
        let via = profile_sweep(&NetworkProfile::via_clan_mpi(), &sizes);
        // SCI ahead at 1 KB, cLAN ahead at 1 MB (the paper's figure 3).
        let at = |v: &Vec<SweepPoint>, n: usize| {
            v.iter()
                .find(|p| p.bytes == n)
                .expect("point")
                .bandwidth_mb_s
        };
        assert!(at(&sci, 1024) > at(&via, 1024));
        assert!(at(&via, 1 << 20) > at(&sci, 1 << 20));
    }

    #[test]
    fn functional_sweep_switches_protocols() {
        let pts = protocol_sweep(
            StrategyKind::KiobufReliable,
            &[64, 64 * 1024, 512 * 1024],
            1,
        );
        assert_eq!(pts[0].protocol, Some("shared-memory"));
        assert_eq!(pts[1].protocol, Some("one-copy"));
        assert_eq!(pts[2].protocol, Some("zero-copy"));
        // Bandwidth grows with message size across the ladder.
        assert!(pts[2].bandwidth_mb_s > pts[0].bandwidth_mb_s);
    }

    #[test]
    fn small_message_latency_matches_the_mpi_figure() {
        // One SM ping-pong ≈ 3 PIO latencies one-way ≈ 7–12 µs — the same
        // decade as ScaMPI's 8 µs.
        let pts = protocol_sweep(StrategyKind::KiobufReliable, &[4], 2);
        let t = pts[0].one_way_ns;
        assert!((5_000..20_000).contains(&t), "one-way {t} ns");
    }
}
