//! The eight workloads and what one *epoch* of each returns.
//!
//! An epoch builds its system from the seed (timed as set-up), warms it up,
//! runs a **fixed number of operations** in timed batches, checks the
//! outputs and tears everything down. The runner repeats epochs until the
//! measuring time is used up and reports medians over them — so counters are
//! per fixed work and compare exactly between commits, while the wall-clock
//! figures get as many repeats as the time allows.

use std::time::{Duration, Instant};

use msg::MsgStats;
use simmem::{KernelConfig, MmStats};
use via::{FabricStats, NicStats, ViaSystem};
use vialock::RegistryStats;

use crate::kit::alloc_counts;
use crate::trace::Tracer;

mod dlm_sim;
mod msg_pingpong;
mod pressure;
mod via_pingpong;
mod via_threaded;

/// What the runner hands an epoch.
pub struct Params {
    /// Inputs (payloads, permutations, the DLM simulation) derive from this.
    pub seed: u64,
    /// `--smoke`: about 1/100 of the operations, every check still on.
    pub smoke: bool,
    /// The runner wants one more `setup_s` sample and nothing else: build,
    /// warm up exactly as a full epoch does, then return before the timed
    /// region (see [`Recorder::end_setup`]).
    pub setup_only: bool,
}

impl Params {
    #[cfg(test)]
    pub fn smoke(seed: u64) -> Self {
        Params {
            seed,
            smoke: true,
            setup_only: false,
        }
    }

    /// `full` operations, or a hundredth of them (at least `floor`) in a smoke run.
    pub fn ops(&self, full: u64, floor: u64) -> u64 {
        if self.smoke {
            (full / 100).max(floor)
        } else {
            full
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line for BENCHMARK.json: why the workload exists.
    pub why: &'static str,
    /// Hardware threads the workload needs to mean anything.
    pub threads: usize,
    /// Single-threaded and seeded: every counter must repeat exactly from
    /// epoch to epoch, and the runner checks that it does.
    pub exact: bool,
    /// Counts give-ups as failed operations; everywhere else a failed
    /// operation makes the run incorrect.
    pub gives_up: bool,
    pub epoch: fn(&Params, &mut Tracer) -> Result<Epoch, String>,
}

pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "via_small",
        why: "64 B VI ping-pong on ViaSystem: per-descriptor cost (post, mini-TLB, packet, completion) is all the work, bytes are nothing",
        threads: 1,
        exact: true,
        gives_up: false,
        epoch: via_pingpong::small,
    },
    Workload {
        name: "via_large",
        why: "same loop at 256 KiB: read_run/write_run and the packet pool do the work, per-descriptor cost is noise; bypasses via_small optimisations",
        threads: 1,
        exact: true,
        gives_up: false,
        epoch: via_pingpong::large,
    },
    Workload {
        name: "via_threaded",
        why: "64 B ping-pong on two node threads: the only workload where spsc rings, doorbells and the spin-yield-park ladder run",
        threads: 2,
        exact: false,
        gives_up: false,
        epoch: via_threaded::epoch,
    },
    Workload {
        name: "msg_reuse",
        why: "Comm ping-pong cycling 64 B, 32 KiB, 256 KiB over the same buffers: all three protocols with registration-cache hits only",
        threads: 1,
        exact: true,
        gives_up: false,
        epoch: msg_pingpong::reuse,
    },
    Workload {
        name: "msg_fresh",
        why: "256 KiB zero-copy over a buffer pool twice the cache budget: every acquire misses and evicts, so register/deregister and pinning do the work",
        threads: 1,
        exact: true,
        gives_up: false,
        epoch: msg_pingpong::fresh,
    },
    Workload {
        name: "pressure_ondemand",
        why: "on-demand registration on a 512-frame machine with an antagonist: stealer, protection fault, lazy pin and NIC repin do the work",
        threads: 1,
        exact: true,
        gives_up: false,
        epoch: pressure::epoch,
    },
    Workload {
        name: "dlm_onesided",
        why: "RDMA-CAS lock table, 9 nodes, 4096 clients, Zipf 0.99, crashes at the midpoint: give-ups are counted as failed operations",
        threads: 1,
        exact: true,
        gives_up: true,
        epoch: dlm_sim::onesided,
    },
    Workload {
        name: "dlm_server",
        why: "server-mediated lock manager over PIO mailboxes, same configuration, dlm_bench's fixed seed: the no-change side for one-sided work and vice versa",
        threads: 1,
        exact: true,
        gives_up: false,
        epoch: dlm_sim::server,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Declares [`Counts`]: plain `u64` tallies that add field by field. The
/// struct-literal expansion keeps the field list and `add` from drifting.
macro_rules! counts {
    ($($field:ident),+ $(,)?) => {
        /// Layer counter deltas over an epoch's timed region, summed over nodes.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct Counts {
            $(pub $field: u64,)+
            /// High-water mark, so it merges by `max`, not `+`.
            pub mailbox_peak: u64,
        }

        impl Counts {
            pub fn add(&mut self, o: &Counts) {
                $(self.$field += o.$field;)+
                self.mailbox_peak = self.mailbox_peak.max(o.mailbox_peak);
            }
        }
    };
}

counts! {
    // simmem (MmStats)
    swap_outs, reclaim_passes, skipped_pg_locked, pressure_unpins, protection_faults, faults,
    // vialock (RegistryStats)
    pages_pinned, pin_retries, blocked, fallbacks, reg_repins, cow_invalidations,
    // via NIC (NicStats)
    nic_msgs, tlb_hits, tlb_misses, dma_ops, payload_allocs, pool_recycled, desc_errors,
    cq_overruns, nic_repins, repin_failures, tpt_invalidations, atomic_cas, cas_applied,
    // via threaded fabric (FabricStats)
    parks, spin_wakes, doorbell_rings, batches_sent, wire_stalls,
    // msg (MsgStats, CacheStats)
    msgs, control_writes, copy_bytes, copy_ops, registrations, pages_registered, cache_hits,
    cache_evictions,
    // dlm
    steps, grants, giveups, steals, expiries, reclaimed, stale_rejections, orphans,
    cas_attempts, queued,
}

impl Counts {
    pub fn add_mm(&mut self, d: &MmStats) {
        self.swap_outs += d.swap_outs;
        self.reclaim_passes += d.reclaim_passes;
        self.skipped_pg_locked += d.skipped_pg_locked;
        self.pressure_unpins += d.pressure_unpins;
        self.protection_faults += d.protection_faults;
        self.faults += d.minor_faults + d.major_faults;
    }

    /// `now − before` of a registry snapshot (it has no `since` of its own).
    pub fn add_registry(&mut self, now: &RegistryStats, before: &RegistryStats) {
        self.pages_pinned += now.pages_pinned - before.pages_pinned;
        self.pin_retries += now.pin_retries - before.pin_retries;
        self.blocked += now.blocked - before.blocked;
        self.fallbacks += now.fallbacks - before.fallbacks;
        self.reg_repins += now.repins - before.repins;
        self.cow_invalidations += now.cow_invalidations - before.cow_invalidations;
    }

    pub fn add_nic(&mut self, d: &NicStats) {
        self.nic_msgs += d.sends + d.rdma_writes + d.rdma_reads;
        self.tlb_hits += d.tlb_hits;
        self.tlb_misses += d.tlb_misses;
        self.dma_ops += d.dma_ops;
        self.payload_allocs += d.payload_allocs;
        self.pool_recycled += d.pool_recycled;
        self.desc_errors += d.desc_errors;
        self.cq_overruns += d.cq_overruns;
        self.nic_repins += d.repins;
        self.repin_failures += d.repin_failures;
        self.tpt_invalidations += d.tpt_invalidations;
        self.atomic_cas += d.atomic_cas;
        self.cas_applied += d.cas_applied;
    }

    /// `peak` is the absolute high-water mark (a `since` delta of it means nothing).
    pub fn add_fabric(&mut self, d: &FabricStats, peak: u64) {
        self.parks += d.parks;
        self.spin_wakes += d.spin_wakes;
        self.doorbell_rings += d.doorbell_rings;
        self.batches_sent += d.batches_sent;
        self.wire_stalls += d.wire_stalls;
        self.mailbox_peak = self.mailbox_peak.max(peak);
    }

    pub fn add_msg(&mut self, d: &MsgStats) {
        self.msgs += d.msgs();
        self.control_writes += d.control_writes;
        self.copy_bytes += d.copy_bytes;
        self.copy_ops += d.copy_ops;
        self.registrations += d.registrations;
        self.pages_registered += d.pages_registered;
        self.cache_hits += d.cache_hits;
    }
}

/// The counters of every node of a functional fabric at one instant.
pub struct SysSnap {
    nic: Vec<NicStats>,
    mm: Vec<MmStats>,
    reg: Vec<RegistryStats>,
}

impl SysSnap {
    pub fn take(sys: &ViaSystem) -> Self {
        let nodes = 0..sys.len();
        SysSnap {
            nic: nodes.clone().map(|n| sys.node(n).nic.stats).collect(),
            mm: nodes
                .clone()
                .map(|n| sys.node(n).kernel.mm_stats())
                .collect(),
            reg: nodes.map(|n| sys.registry_stats(n)).collect(),
        }
    }

    /// What every node did between `before` and `self`, summed over nodes.
    pub fn since(&self, before: &SysSnap) -> Counts {
        let mut c = Counts::default();
        for n in 0..self.nic.len() {
            c.add_nic(&self.nic[n].since(&before.nic[n]));
            c.add_mm(&self.mm[n].since(&before.mm[n]));
            c.add_registry(&self.reg[n], &before.reg[n]);
        }
        c
    }
}

/// Simulated-time results of one DLM simulation (logical ticks, not host time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DlmSim {
    pub acquire_p50_ticks: f64,
    pub acquire_p99_ticks: f64,
    pub release_p50_ticks: f64,
    pub release_p99_ticks: f64,
    pub jain_fairness: f64,
}

/// Everything one epoch measured.
#[derive(Debug, Default)]
pub struct Epoch {
    /// Host seconds from the start of the epoch to the first timed batch:
    /// fabric/communicator build, spawn, mmap+touch, register, connect, warm-up
    /// (`via_threaded`: to the start of the sender thread, warm-up left out).
    pub setup_s: f64,
    /// Host seconds inside timed batches (output checks between batches excluded).
    pub timed_s: f64,
    pub attempted: u64,
    /// Error completions, payload mismatches, give-ups.
    pub failed: u64,
    /// Payload bytes delivered in the timed region.
    pub bytes: u64,
    /// One per timed batch: host µs per operation in that batch.
    pub samples_us: Vec<f64>,
    /// Heap allocations (calls, bytes) inside timed batches.
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub counts: Counts,
    /// Raw `MsgStats` delta for the `netsim` model (msg workloads only).
    pub msg: MsgStats,
    pub dlm: Option<DlmSim>,
    /// Broken invariants and steady-state asserts; any entry makes the run incorrect.
    pub violations: Vec<String>,
}

impl Epoch {
    fn expect_zero(&mut self, n: u64, what: &str) {
        if n > 0 {
            self.violations.push(format!("{n} {what}"));
        }
    }

    /// No workload but `pressure_ondemand` may make the stealer work.
    pub fn expect_no_pressure(&mut self) {
        let c = self.counts;
        self.expect_zero(
            c.swap_outs + c.reclaim_passes + c.pressure_unpins + c.protection_faults,
            "reclaim events on a workload without memory pressure",
        );
    }

    /// Recovery must leave no lock held by a dead client.
    pub fn expect_orphan_free(&mut self) {
        self.expect_zero(self.counts.orphans, "orphaned locks after recovery");
    }

    /// Steady state of ping-pong traffic over warmed, registered buffers:
    /// nothing faults and the packet pool recycles every payload buffer.
    pub fn expect_steady(&mut self) {
        self.expect_no_pressure();
        self.expect_zero(self.counts.faults, "page faults in steady state");
        self.expect_zero(
            self.counts.payload_allocs,
            "packet payload allocations in steady state",
        );
    }
}

/// Times an epoch: set-up until the first batch, then each batch on its own
/// clock so the checks between batches cost nothing.
pub struct Recorder {
    started: Instant,
    epoch: Epoch,
    timed: Duration,
    in_setup: bool,
}

impl Recorder {
    pub fn start() -> Self {
        Recorder {
            started: Instant::now(),
            epoch: Epoch::default(),
            timed: Duration::ZERO,
            in_setup: true,
        }
    }

    /// Set-up ends here. The first timed batch says so by itself; an epoch
    /// that stops after set-up (`Params::setup_only`) has to.
    pub fn end_setup(&mut self) {
        if self.in_setup {
            self.in_setup = false;
            self.epoch.setup_s = self.started.elapsed().as_secs_f64();
        }
    }

    /// Run `f` as one timed batch of `ops` operations.
    pub fn batch<R>(&mut self, ops: u64, f: impl FnOnce() -> R) -> R {
        self.batch_counted(|| (ops, f()))
    }

    /// Run `f` as one timed batch; `f` reports how many operations finished in it.
    pub fn batch_counted<R>(&mut self, f: impl FnOnce() -> (u64, R)) -> R {
        self.end_setup();
        let (a0, b0) = alloc_counts();
        let t = Instant::now();
        let (ops, r) = f();
        let dt = t.elapsed();
        let (a1, b1) = alloc_counts();
        self.timed += dt;
        self.epoch.allocs += a1 - a0;
        self.epoch.alloc_bytes += b1 - b0;
        self.epoch.attempted += ops;
        if ops > 0 {
            self.epoch
                .samples_us
                .push(dt.as_secs_f64() * 1e6 / ops as f64);
        }
        r
    }

    pub fn epoch(&mut self) -> &mut Epoch {
        &mut self.epoch
    }

    /// The epoch of a `Params::setup_only` call: set-up time and nothing else.
    pub fn setup_only(mut self) -> Epoch {
        self.end_setup();
        self.finish()
    }

    pub fn finish(mut self) -> Epoch {
        self.epoch.timed_s = self.timed.as_secs_f64();
        self.epoch
    }
}

/// The machine of `datapath_bench`: 16 MiB per node, nothing ever swaps. The
/// `via_*` workloads and the probes run on it.
pub fn roomy_kernel() -> KernelConfig {
    KernelConfig {
        nframes: 1 << 12,
        reserved_frames: 64,
        swap_slots: 1 << 13,
        default_rlimit_memlock: None,
        swap_cache: false,
    }
}

/// Every `CHECK_EVERY`-th batch carries a fresh seeded payload that is
/// compared at the far end.
pub const CHECK_EVERY: u64 = 64;

/// Shorthand for the `map_err` every layer call needs.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}
