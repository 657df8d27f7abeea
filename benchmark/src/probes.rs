//! Probes: one public call of a layer timed in isolation on an idle system,
//! with the shapes the workloads use (64 B / 256 KiB, 64-page regions).
//!
//! A probe answers "what does this call cost when nothing else is going on";
//! the spans of the traced epochs answer "what did it cost inside the
//! workload". Each value is the median over [`REPS`] timed groups, host ns
//! per call. Probes run once, after the workload's epochs, in traced runs.

use std::hint::black_box;
use std::time::Instant;

use dlm::onesided::{OneSidedTable, TryAcquire};
use dlm::server::{ClientEndpoint, Manager, Reply};
use msg::{Comm, MsgConfig, NodeRegCache};
use netsim::proto::ProtocolCosts;
use simmem::{prot, KernelConfig, PAGE_SIZE};
use via::tpt::Access;
use via::{FabricNode, ProtectionTag, ViaSystem};
use vialock::StrategyKind;

use crate::kit::{median, Metrics};
use crate::workloads::{err, roomy_kernel};

const REPS: usize = 15;
const SMALL: usize = 64;
const LARGE: usize = 256 * 1024;
/// Pages of the region the registration probes pin: one 256 KiB buffer.
const REG_PAGES: usize = LARGE / PAGE_SIZE;

/// Median over `REPS` groups of the mean host ns of one `f()` in a group of
/// `calls`. `f` returns the ns it wants counted (so a probe can leave its
/// own undo step out) or `None` to have the whole call timed.
fn probe(calls: usize, mut f: impl FnMut() -> Result<Option<u64>, String>) -> Result<f64, String> {
    let mut group = || -> Result<f64, String> {
        let mut counted = 0u64;
        let t = Instant::now();
        let mut whole = true;
        for _ in 0..calls {
            if let Some(ns) = f()? {
                counted += ns;
                whole = false;
            }
        }
        let total = if whole {
            t.elapsed().as_nanos() as u64
        } else {
            counted
        };
        Ok(total as f64 / calls as f64)
    };
    group()?; // warm-up
    let samples = (0..REPS).map(|_| group()).collect::<Result<Vec<_>, _>>()?;
    Ok(median(&samples))
}

/// Time `f` alone and hand the ns back to [`probe`].
fn timed<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let t = Instant::now();
    let r = f();
    (r, Some(t.elapsed().as_nanos() as u64))
}

/// simmem, vialock and via probes on one idle two-node fabric.
fn fabric_probes(m: &mut Metrics) -> Result<(), String> {
    let tag = ProtectionTag(7);
    let mut sys = ViaSystem::new(2, roomy_kernel(), StrategyKind::KiobufReliable);
    let pid = sys.spawn_process(0);
    let vi = sys.create_vi(0, pid, tag).map_err(err("create_vi"))?;
    let touched = |sys: &mut ViaSystem| -> Result<u64, String> {
        let a = sys
            .mmap(0, pid, LARGE, prot::READ | prot::WRITE)
            .map_err(err("mmap"))?;
        sys.touch_pages(0, pid, a, LARGE, true)
            .map_err(err("touch"))?;
        Ok(a)
    };
    let (registered, plain) = (touched(&mut sys)?, touched(&mut sys)?);
    let mem = sys
        .register_mem(0, pid, registered, LARGE, tag)
        .map_err(err("register"))?;

    // simmem: page grabbing and the kiobuf cycle, per page.
    let k = sys.kernel_mut(0);
    m.insert(
        "simmem.get_user_pages_ns_per_page",
        probe(64, || {
            let (frames, ns) = timed(|| k.get_user_pages(pid, plain, LARGE));
            k.put_user_pages(&frames.map_err(err("get_user_pages"))?);
            Ok(ns)
        })? / REG_PAGES as f64,
    );
    m.insert(
        "simmem.kiobuf_cycle_ns_per_page",
        probe(64, || {
            let id = k
                .map_user_kiobuf(pid, plain, LARGE)
                .map_err(err("map_user_kiobuf"))?;
            k.lock_kiobuf(id).map_err(err("lock_kiobuf"))?;
            k.unlock_kiobuf(id).map_err(err("unlock_kiobuf"))?;
            k.unmap_kiobuf(id).map_err(err("unmap_kiobuf"))?;
            Ok(None)
        })? / REG_PAGES as f64,
    );

    // via: translation on the mini-TLB hit path; the runs feed the DMA probes.
    let mut runs = Vec::new();
    for (name, len) in [
        ("via.translate_ns.64", SMALL),
        ("via.translate_ns.262144", LARGE),
    ] {
        let nic = &mut sys.node_mut(0).nic;
        let ns = probe(4096, || {
            runs.clear();
            nic.translate_range(vi, mem, registered, len, Access::Local, &mut runs)
                .map_err(err("translate_range"))?;
            black_box(&runs);
            Ok(None)
        })?;
        m.insert(name, ns);
    }

    // simmem: the burst DMA the NIC issues per contiguous run.
    let mut data = vec![0x5Au8; LARGE];
    for (read, write, len, calls) in [
        (
            "simmem.dma_read_run_ns.64",
            "simmem.dma_write_run_ns.64",
            SMALL,
            4096,
        ),
        (
            "simmem.dma_read_run_ns.262144",
            "simmem.dma_write_run_ns.262144",
            LARGE,
            64,
        ),
    ] {
        runs.clear();
        sys.node_mut(0)
            .nic
            .translate_range(vi, mem, registered, len, Access::Local, &mut runs)
            .map_err(err("translate_range"))?;
        let k = sys.kernel_mut(0);
        let ns = probe(calls, || {
            let mut off = 0;
            for r in &runs {
                k.dma_read_run(r.frame, r.offset, &mut data[off..off + r.len])
                    .map_err(err("dma_read_run"))?;
                off += r.len;
            }
            black_box(&data);
            Ok(None)
        })?;
        m.insert(read, ns);
        let ns = probe(calls, || {
            let mut off = 0;
            for r in &runs {
                k.dma_write_run(r.frame, r.offset, &data[off..off + r.len])
                    .map_err(err("dma_write_run"))?;
                off += r.len;
            }
            Ok(None)
        })?;
        m.insert(write, ns);
    }

    m.insert(
        "via.sci_write_ns",
        probe(4096, || {
            sys.sci_write_bytes(&data[..SMALL], (0, mem, 0))
                .map_err(err("sci_write_bytes"))?;
            Ok(None)
        })?,
    );

    // vialock: one 64-page kiobuf registration through the fabric, and back.
    m.insert(
        "vialock.register_ns",
        probe(32, || {
            let (id, ns) = timed(|| sys.register_mem(0, pid, plain, LARGE, tag));
            let id = id.map_err(err("register_mem"))?;
            sys.deregister_mem(0, id).map_err(err("deregister_mem"))?;
            Ok(ns)
        })?,
    );
    m.insert(
        "vialock.deregister_ns",
        probe(32, || {
            let id = sys
                .register_mem(0, pid, plain, LARGE, tag)
                .map_err(err("register_mem"))?;
            let (r, ns) = timed(|| sys.deregister_mem(0, id));
            r.map_err(err("deregister_mem"))?;
            Ok(ns)
        })?,
    );

    // msg: the registration cache in front of the same calls. A budget of
    // one region makes two alternating regions miss and evict every time.
    let mut cache = NodeRegCache::new(REG_PAGES);
    let mut port = FabricNode {
        fabric: &mut sys,
        node: 0,
    };
    m.insert(
        "msg.regcache_hit_ns",
        probe(4096, || {
            let id = cache
                .acquire(&mut port, pid, plain, LARGE, tag)
                .map_err(err("cache acquire"))?;
            cache.release(&mut port, id).map_err(err("cache release"))?;
            Ok(None)
        })?,
    );
    let other = touched(port.fabric)?;
    let mut turn = 0usize;
    m.insert(
        "msg.regcache_miss_ns",
        probe(32, || {
            turn += 1;
            let addr = [plain, other][turn % 2];
            let id = cache
                .acquire(&mut port, pid, addr, LARGE, tag)
                .map_err(err("cache acquire"))?;
            cache.release(&mut port, id).map_err(err("cache release"))?;
            Ok(None)
        })?,
    );
    if cache.stats().hits == 0 || cache.stats().evictions == 0 {
        return Err("registration-cache probes did not hit and evict as designed".into());
    }
    cache.flush(&mut port).map_err(err("cache flush"))?;
    sys.check_invariants()
        .map_err(err("probe fabric invariants"))
}

/// `StrategyKind::OnDemand` registration: write-protect only, no pinning.
fn ondemand_probe(m: &mut Metrics) -> Result<(), String> {
    let tag = ProtectionTag(7);
    let mut sys = ViaSystem::new(1, roomy_kernel(), StrategyKind::OnDemand);
    let pid = sys.spawn_process(0);
    let a = sys
        .mmap(0, pid, LARGE, prot::READ | prot::WRITE)
        .map_err(err("mmap"))?;
    sys.touch_pages(0, pid, a, LARGE, true)
        .map_err(err("touch"))?;
    m.insert(
        "vialock.register_ondemand_ns",
        probe(32, || {
            let (id, ns) = timed(|| sys.register_mem(0, pid, a, LARGE, tag));
            sys.deregister_mem(0, id.map_err(err("register_mem"))?)
                .map_err(err("deregister_mem"))?;
            Ok(ns)
        })?,
    );
    Ok(())
}

/// The threaded fabric's two primitives, uncontended on one thread.
fn wire_probes(m: &mut Metrics) -> Result<(), String> {
    let (mut tx, mut rx) = via::spsc::ring::<u64>(256);
    let mut x = 0u64;
    m.insert(
        "via.spsc_transfer_ns",
        probe(4096, || {
            x += 1;
            tx.push_deferred(x).map_err(|_| "spsc ring full")?;
            tx.publish();
            black_box(rx.pop().map_err(|_| "spsc ring empty")?);
            Ok(None)
        })?,
    );
    let bell = via::spsc::Doorbell::default();
    m.insert(
        "via.doorbell_ring_ns",
        probe(4096, || {
            bell.ring();
            Ok(None)
        })?,
    );
    Ok(())
}

/// One uncontended acquire and release in each DLM design, on an idle table.
fn dlm_probes(m: &mut Metrics) -> Result<(), String> {
    const LEASE: u64 = 80;
    let mut c: Comm = Comm::new(
        2,
        2,
        KernelConfig::medium(),
        StrategyKind::KiobufReliable,
        MsgConfig::tiny(),
    )
    .map_err(err("Comm::new"))?;

    let mut table = OneSidedTable::create(&mut c, 0, 64).map_err(err("OneSidedTable::create"))?;
    let mut key = 0u32;
    let mut cycle = |c: &mut Comm, time_acquire: bool| -> Result<Option<u64>, String> {
        key = (key + 1) % 64;
        let (got, acquire_ns) = timed(|| table.try_acquire(c, 1, 1, key, 1, LEASE));
        let TryAcquire::Acquired(g) = got.map_err(err("try_acquire"))? else {
            return Err("idle lock reported busy".into());
        };
        let (r, release_ns) = timed(|| table.release(c, 1, 1, key, g.token));
        r.map_err(err("release"))?;
        Ok(if time_acquire { acquire_ns } else { release_ns })
    };
    m.insert(
        "dlm.onesided.acquire_ns",
        probe(256, || cycle(&mut c, true))?,
    );
    m.insert(
        "dlm.onesided.release_ns",
        probe(256, || cycle(&mut c, false))?,
    );

    let mut manager = Manager::new(&mut c, 0, LEASE).map_err(err("Manager::new"))?;
    let client = ClientEndpoint::new(&mut c, 1, 1).map_err(err("ClientEndpoint::new"))?;
    let mut exchange = |c: &mut Comm, token: Option<u64>| -> Result<(Reply, Option<u64>), String> {
        let (reply, ns) = timed(|| -> Result<Option<Reply>, String> {
            match token {
                None => client.send_acquire(c, 0, 7),
                Some(t) => client.send_release(c, 0, 7, t),
            }
            .map_err(err("request"))?;
            manager.serve_step(c, 1, 16).map_err(err("serve_step"))?;
            client.poll_reply(c, 0, 16).map_err(err("poll_reply"))
        });
        Ok((reply?.ok_or("manager did not reply")?, ns))
    };
    let mut cycle = |c: &mut Comm, time_acquire: bool| -> Result<Option<u64>, String> {
        let (Reply::Granted(g), acquire_ns) = exchange(c, None)? else {
            return Err("idle lock not granted".into());
        };
        let (Reply::Released { .. }, release_ns) = exchange(c, Some(g.token))? else {
            return Err("release not acknowledged".into());
        };
        Ok(if time_acquire { acquire_ns } else { release_ns })
    };
    m.insert("dlm.server.acquire_ns", probe(64, || cycle(&mut c, true))?);
    m.insert("dlm.server.release_ns", probe(64, || cycle(&mut c, false))?);
    Ok(())
}

/// `netsim`'s prediction for one message of each protocol at the workload
/// sizes: simulated µs, printed beside the host-time `msg.<proto>.*_ns`.
fn model(m: &mut Metrics) {
    let c = ProtocolCosts::classic(workload::model::reg_cost_for(StrategyKind::KiobufReliable));
    m.insert(
        "netsim.model_us_per_msg.sm",
        c.shared_memory_ns(64) as f64 / 1e3,
    );
    m.insert(
        "netsim.model_us_per_msg.oc",
        c.one_copy_ns(32 * 1024) as f64 / 1e3,
    );
    m.insert(
        "netsim.model_us_per_msg.zc",
        c.zero_copy_ns(LARGE) as f64 / 1e3,
    );
}

pub fn run(m: &mut Metrics) -> Result<(), String> {
    fabric_probes(m)?;
    ondemand_probe(m)?;
    wire_probes(m)?;
    dlm_probes(m)?;
    model(m);
    Ok(())
}
