//! **E9 (extension) — a miniature NAS IS (Integer Sort) kernel.**
//!
//! The companion paper "Comparing MPI Performance of SCI and VIA" evaluates
//! with the NAS Parallel Benchmarks and singles out IS as the
//! communication-dominated case: its traffic is a handful of tiny
//! `allreduce`s plus *huge* `alltoallv` exchanges, which is why FastEthernet
//! collapses on it while SCI and cLAN stay close. This module runs a real
//! bucket sort over the functional message layer and charges the observed
//! event trace against the per-network cost models, regenerating the
//! figure's *shape* (cLAN ≳ SCI ≫ FastEthernet).

// Rank/node indices are semantic here; iterating them directly is the
// clearer idiom.
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simmem::KernelConfig;
use via::Fabric;
use vialock::StrategyKind;

use msg::coll::alltoallv;
use msg::{Comm, MsgConfig};
use netsim::cost::{Nanos, NetworkProfile};
use netsim::proto::{ProtocolCosts, RegistrationCost};
use netsim::sweep::bandwidth_mb_s;

use crate::model::time_from_stats;

/// Key space of the sort (IS class-agnostic; scaled to the simulation).
const KEY_RANGE: u32 = 1 << 20;

/// Nanoseconds charged per local key operation (histogram + counting sort
/// touch each key a small constant number of times on a ~450 MHz PIII).
const NS_PER_KEY_OP: f64 = 20.0;

/// One network's end-to-end result for the mini-IS run.
#[derive(Debug, Clone)]
pub struct IsNetworkResult {
    pub network: &'static str,
    pub comm_ns: Nanos,
    pub total_ns: Nanos,
    /// Millions of keys ranked per second (the NPB "Mop/s" analogue).
    pub mkeys_per_s: f64,
    pub exchange_bandwidth_mb_s: f64,
}

/// The full mini-IS report.
#[derive(Debug, Clone)]
pub struct IsReport {
    pub ranks: usize,
    pub keys_per_rank: usize,
    pub bytes_exchanged: u64,
    pub sorted_ok: bool,
    pub per_network: Vec<IsNetworkResult>,
}

/// The three cluster flavours the NAS comparison ran on, as protocol cost
/// models. FastEthernet has neither PIO nor a separate DMA engine — every
/// path pays the TCP stack.
fn network_models() -> Vec<(&'static str, ProtocolCosts)> {
    let mut sci = ProtocolCosts::classic(RegistrationCost::kiobuf());
    sci.pio = NetworkProfile::sci_raw();
    sci.dma = NetworkProfile::dolphin_dma();

    let mut clan = ProtocolCosts::classic(RegistrationCost::kiobuf());
    clan.pio = NetworkProfile::via_clan_hw();
    clan.dma = NetworkProfile::via_clan_hw();

    let mut eth = ProtocolCosts::classic(RegistrationCost::kiobuf());
    eth.pio = NetworkProfile::fast_ethernet();
    eth.dma = NetworkProfile::fast_ethernet();

    vec![
        ("sci-scampi", sci),
        ("via-clan", clan),
        ("fast-ethernet", eth),
    ]
}

/// Run the bucket sort: generate keys, histogram by destination rank,
/// `alltoallv` the buckets, counting-sort locally, verify the global order,
/// and charge the communication trace against each network model.
pub fn run_mini_is(n_ranks: usize, keys_per_rank: usize, seed: u64) -> IsReport {
    let mut comm = Comm::new(
        n_ranks,
        2,
        KernelConfig::large(),
        StrategyKind::KiobufReliable,
        MsgConfig::classic(),
    )
    .expect("communicator");
    run_mini_is_on(&mut comm, keys_per_rank, seed)
}

/// The bucket sort against an existing communicator — generic over the
/// [`Fabric`], so the same kernel runs on the deterministic system or a
/// threaded N-node cluster.
pub fn run_mini_is_on<F: Fabric>(comm: &mut Comm<F>, keys_per_rank: usize, seed: u64) -> IsReport {
    let n_ranks = comm.n_ranks();
    let mut rng = StdRng::seed_from_u64(seed);
    let bucket_width = KEY_RANGE.div_ceil(n_ranks as u32);

    // Per-rank key generation and bucketing (send buffer laid out by
    // destination, like the real IS).
    let mut send_bufs = Vec::new();
    let mut send_offs: Vec<Vec<usize>> = Vec::new();
    let mut send_counts: Vec<Vec<usize>> = Vec::new();
    for r in 0..n_ranks {
        let keys: Vec<u32> = (0..keys_per_rank)
            .map(|_| rng.random_range(0..KEY_RANGE))
            .collect();
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n_ranks];
        for k in keys {
            buckets[(k / bucket_width) as usize % n_ranks].push(k);
        }
        let mut bytes = Vec::with_capacity(keys_per_rank * 4);
        let mut offs = Vec::with_capacity(n_ranks);
        let mut counts = Vec::with_capacity(n_ranks);
        for b in &buckets {
            offs.push(bytes.len());
            counts.push(b.len() * 4);
            for k in b {
                bytes.extend_from_slice(&k.to_le_bytes());
            }
        }
        let buf = comm.alloc_buffer(r, bytes.len().max(4)).expect("send buf");
        comm.fill_buffer(r, buf, &bytes).expect("fill");
        send_bufs.push(buf);
        send_offs.push(offs);
        send_counts.push(counts);
    }

    // Receive layout: rank d gets send_counts[s][d] bytes from each s.
    let mut recv_bufs = Vec::new();
    let mut recv_offs: Vec<Vec<usize>> = Vec::new();
    let mut recv_totals = Vec::new();
    for d in 0..n_ranks {
        let mut offs = Vec::with_capacity(n_ranks);
        let mut total = 0usize;
        for s in 0..n_ranks {
            offs.push(total);
            total += send_counts[s][d];
        }
        let buf = comm.alloc_buffer(d, total.max(4)).expect("recv buf");
        recv_bufs.push(buf);
        recv_offs.push(offs);
        recv_totals.push(total);
    }

    // The exchange — the traffic the figure is about.
    let stats_before = comm.stats;
    alltoallv(
        comm,
        &send_bufs,
        &send_offs,
        &send_counts,
        &recv_bufs,
        &recv_offs,
    )
    .expect("alltoallv");
    let delta = comm.stats.since(&stats_before);
    let bytes_exchanged = delta.pio_bytes + delta.dma_bytes;

    // Local counting sort + global-order verification.
    let mut prev_max: Option<u32> = None;
    let mut sorted_ok = true;
    for d in 0..n_ranks {
        let mut bytes = vec![0u8; recv_totals[d]];
        comm.read_buffer(d, recv_bufs[d], &mut bytes)
            .expect("read keys");
        let mut keys: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        keys.sort_unstable();
        // Every key must belong to this rank's bucket…
        if !keys
            .iter()
            .all(|&k| (k / bucket_width) as usize % n_ranks == d)
        {
            sorted_ok = false;
        }
        // …and bucket ranges must be globally ordered.
        if let (Some(pm), Some(&mn)) = (prev_max, keys.first()) {
            if mn < pm {
                sorted_ok = false;
            }
        }
        prev_max = keys.last().copied().or(prev_max);
    }

    // Charge the trace against each network model.
    let compute_ns = (n_ranks as f64 * keys_per_rank as f64 * NS_PER_KEY_OP).round() as Nanos;
    let per_network = network_models()
        .into_iter()
        .map(|(name, costs)| {
            let comm_ns = time_from_stats(&delta, &costs);
            let total_ns = comm_ns + compute_ns;
            IsNetworkResult {
                network: name,
                comm_ns,
                total_ns,
                mkeys_per_s: (n_ranks * keys_per_rank) as f64 / (total_ns as f64 / 1e9) / 1e6,
                exchange_bandwidth_mb_s: bandwidth_mb_s(bytes_exchanged as usize, comm_ns),
            }
        })
        .collect();

    IsReport {
        ranks: n_ranks,
        keys_per_rank,
        bytes_exchanged,
        sorted_ok,
        per_network,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_is_sorts_and_ranks_networks() {
        let rep = run_mini_is(4, 2000, 42);
        assert!(rep.sorted_ok, "bucket sort must be globally ordered");
        assert!(rep.bytes_exchanged > 0);
        let by = |n: &str| {
            rep.per_network
                .iter()
                .find(|r| r.network == n)
                .expect("network present")
                .mkeys_per_s
        };
        // The figure's shape: both high-speed networks beat FastEthernet
        // by a wide margin; they are close to each other.
        assert!(by("sci-scampi") > 2.0 * by("fast-ethernet"));
        assert!(by("via-clan") > 2.0 * by("fast-ethernet"));
        let ratio = by("via-clan") / by("sci-scampi");
        assert!(
            (0.4..2.5).contains(&ratio),
            "high-speed nets comparable: {ratio}"
        );
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = run_mini_is(2, 500, 7);
        let b = run_mini_is(2, 500, 7);
        assert_eq!(a.bytes_exchanged, b.bytes_exchanged);
        assert_eq!(a.per_network[0].comm_ns, b.per_network[0].comm_ns);
    }
}
