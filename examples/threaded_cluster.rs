//! The multi-threaded fabric at cluster scale: four nodes on four OS
//! threads forming a store-and-forward pipeline 0 → 1 → 2 → 3 — real
//! interleavings, per-node mailboxes and N-way routing, same VIA
//! semantics as the deterministic fabric.
//!
//! VIA discipline on display: every hop pre-posts one receive descriptor
//! per expected message (reliable mode *drops* unmatched sends and breaks
//! the connection), each into its own slot, and the upstream node streams
//! freely against its send-completion back-pressure.
//!
//! Run with: `cargo run --example threaded_cluster`

use simmem::{prot, Capabilities, KernelConfig};
use via::descriptor::{DescOp, Descriptor};
use via::nic::Node;
use via::threaded::{connect_nodes, run_cluster, FabricStats, NodeCtx};
use via::tpt::ProtectionTag;
use via::{ViId, ViaResult};
use vialock::StrategyKind;

const NODES: usize = 4;
const MSGS: usize = 100;
const MSG_BYTES: usize = 1024;

type Driver = Box<dyn FnOnce(&mut NodeCtx) -> ViaResult<(usize, FabricStats)> + Send>;

fn main() {
    let tag = ProtectionTag(1);
    let mut nodes: Vec<Node> = (0..NODES)
        .map(|_| Node::new(KernelConfig::large(), StrategyKind::KiobufReliable, 4096))
        .collect();
    let pids: Vec<_> = nodes
        .iter_mut()
        .map(|n| n.kernel.spawn_process(Capabilities::default()))
        .collect();

    // Node i owns `vin[i]` (from its predecessor) and `vout[i]` (to its
    // successor); the ends of the pipeline leave the unused side out.
    let mut vin: Vec<Option<ViId>> = vec![None; NODES];
    let mut vout: Vec<Option<ViId>> = vec![None; NODES];
    for i in 0..NODES {
        if i > 0 {
            vin[i] = Some(nodes[i].nic.create_vi(pids[i], tag));
        }
        if i + 1 < NODES {
            vout[i] = Some(nodes[i].nic.create_vi(pids[i], tag));
        }
    }
    for i in 0..NODES - 1 {
        connect_nodes(
            &mut nodes,
            (i, vout[i].expect("vout")),
            (i + 1, vin[i + 1].expect("vin")),
        )
        .expect("connect hop");
    }

    // One MSG_BYTES staging buffer on node 0; a MSGS-slot arena on every
    // downstream node (slot i holds message i, so the tail can audit all
    // of them after the dust settles).
    let arena = MSGS * MSG_BYTES;
    let b0 = nodes[0]
        .kernel
        .mmap_anon(pids[0], MSG_BYTES, prot::READ | prot::WRITE)
        .unwrap();
    let m0 = nodes[0].register_mem(pids[0], b0, MSG_BYTES, tag).unwrap();
    let mut slabs = [(0u64, via::MemId(0)); NODES];
    for i in 1..NODES {
        let b = nodes[i]
            .kernel
            .mmap_anon(pids[i], arena, prot::READ | prot::WRITE)
            .unwrap();
        let m = nodes[i].register_mem(pids[i], b, arena, tag).unwrap();
        slabs[i] = (b, m);
        // Pre-post every receive, one slot per message.
        for k in 0..MSGS {
            let slot = Descriptor::recv(m, b + (k * MSG_BYTES) as u64, MSG_BYTES);
            nodes[i]
                .nic
                .post(vin[i].expect("vin"), slot, false)
                .unwrap();
        }
    }

    println!("streaming {MSGS} × {MSG_BYTES} B down the pipeline 0 → 1 → 2 → 3…");

    let mut drivers: Vec<Driver> = Vec::new();
    for i in 0..NODES {
        let (vi_in, vi_out) = (vin[i], vout[i]);
        let (slab_addr, slab_mem) = slabs[i];
        let pid = pids[i];
        drivers.push(Box::new(move |ctx| {
            let mut handled = 0usize;
            if i == 0 {
                // The head: stamp each payload and stream, reusing the
                // buffer only after its send completion comes back.
                for k in 0..MSGS {
                    ctx.node
                        .kernel
                        .write_user(pid, b0, &vec![(k % 251) as u8; MSG_BYTES])?;
                    let out = vi_out.expect("head sends");
                    ctx.node
                        .nic
                        .post(out, Descriptor::send(m0, b0, MSG_BYTES), true)?;
                    let c = ctx.wait_completion(out)?;
                    assert_eq!(c.op, DescOp::Send);
                    handled += 1;
                }
            } else {
                // Middle hops forward each slot as it lands; the tail
                // just counts.
                for k in 0..MSGS {
                    let c = ctx.wait_completion(vi_in.expect("downstream receives"))?;
                    assert_eq!(c.op, DescOp::Recv);
                    assert_eq!(c.len, MSG_BYTES);
                    if let Some(out) = vi_out {
                        let slot = slab_addr + (k * MSG_BYTES) as u64;
                        ctx.node.nic.post(
                            out,
                            Descriptor::send(slab_mem, slot, MSG_BYTES),
                            true,
                        )?;
                        loop {
                            if ctx.wait_completion(out)?.op == DescOp::Send {
                                break;
                            }
                        }
                    }
                    handled += 1;
                }
            }
            Ok((handled, ctx.fabric_stats()))
        }));
    }

    let mut results = run_cluster(nodes, drivers).expect("threaded run");

    // Verify every slot on the tail node after the dust settles.
    let (tail_result, tail_node) = &mut results[NODES - 1];
    let (tail_addr, _) = slabs[NODES - 1];
    for k in 0..MSGS {
        let mut out = vec![0u8; MSG_BYTES];
        tail_node
            .kernel
            .read_user(
                pids[NODES - 1],
                tail_addr + (k * MSG_BYTES) as u64,
                &mut out,
            )
            .unwrap();
        assert!(
            out.iter().all(|&b| b == (k % 251) as u8),
            "message {k} corrupted at the tail"
        );
    }
    assert_eq!(tail_result.0, MSGS);

    println!("all {MSGS} payloads verified after {} hops", NODES - 1);
    for (i, ((handled, stats), node)) in results.iter().enumerate() {
        println!(
            "node {i}: handled {handled}, routed {} pkts in {} batches, \
             delivered {}, parks {}, spin-wakes {} | nic tx {} B rx {} B",
            stats.packets_routed,
            stats.batches_sent,
            stats.delivered,
            stats.parks,
            stats.spin_wakes,
            node.nic.stats.bytes_tx,
            node.nic.stats.bytes_rx
        );
    }
}
