//! Counter snapshots of the layers under test, read through their public
//! accessors from outside. Two kinds, kept apart because they live on
//! different clocks:
//!
//! * [`Virt`] — the simulator's virtual clock and every count derived
//!   from it. Deterministic for a seed: same inputs, same bits.
//! * [`Host`] — counters of the real `rt` plane and the `ctl` loop. They
//!   depend on how the host schedules threads, so they vary run to run.

use std::collections::BTreeMap;

use apps::AppEnv;
use hotcalls::rt::ArenaStats;
use hotcalls::{CtlStats, RingStats};
use sgx_sim::Machine;

/// Virtual-clock counters (sgx-sim, calibrated to the paper's Table 1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Virt {
    /// Machine clock, cycles.
    pub cycles: u64,
    /// Cycles spent inside the call interface (the SDK edge-call ledger,
    /// HotCalls included): Table 2's "core time" numerator.
    pub iface: u64,
    /// Edge calls issued.
    pub calls: u64,
    /// Per-API `(calls, cycles)` from the edge-call ledger.
    pub per_api: BTreeMap<String, (u64, u64)>,
    /// Cache-line accesses through the memory model.
    pub lines: u64,
    /// Last-level cache `(hits, misses)`.
    pub llc: (u64, u64),
    /// MEE node cache `(hits, misses)`.
    pub mee: (u64, u64),
    /// EPC pages evicted.
    pub epc_evictions: u64,
}

fn pair_sub(a: (u64, u64), b: (u64, u64)) -> (u64, u64) {
    (a.0 - b.0, a.1 - b.1)
}

impl Virt {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Virt) -> Virt {
        let per_api = self
            .per_api
            .iter()
            .map(|(k, &(c, y))| {
                let (c0, y0) = earlier.per_api.get(k).copied().unwrap_or((0, 0));
                (k.clone(), (c - c0, y - y0))
            })
            .filter(|(_, (c, _))| *c > 0)
            .collect();
        Virt {
            cycles: self.cycles - earlier.cycles,
            iface: self.iface - earlier.iface,
            calls: self.calls - earlier.calls,
            per_api,
            lines: self.lines - earlier.lines,
            llc: pair_sub(self.llc, earlier.llc),
            mee: pair_sub(self.mee, earlier.mee),
            epc_evictions: self.epc_evictions - earlier.epc_evictions,
        }
    }

    /// Fills the memory-model fields from a machine.
    pub fn with_machine(mut self, m: &Machine) -> Virt {
        let t = m.telemetry();
        self.cycles = m.now().get();
        self.lines = t.l1.0 + t.l1.1;
        self.llc = t.llc;
        self.mee = t.mee_cache;
        self.epc_evictions = t.epc.ewb;
        self
    }

    /// A snapshot of an application environment. `app` names the census.
    pub fn of_env(env: &AppEnv, app: &str) -> Virt {
        let census = env.api_census(app);
        let per_api = census
            .rows
            .iter()
            .map(|r| {
                // The census keeps the paper's own spelling of its ecall.
                let name = if r.name == "RunEnclaveFucntion" {
                    "RunEnclaveFunction".to_string()
                } else {
                    r.name.clone()
                };
                let cycles = (r.cycles_per_call * r.calls as f64).round() as u64;
                (name, (r.calls, cycles))
            })
            .collect();
        Virt {
            iface: env.interface_cycles().get(),
            calls: env.total_calls(),
            per_api,
            ..Virt::default()
        }
        .with_machine(&env.machine)
    }
}

/// Host-side counters of the `rt` plane, its arena, the `ctl` loop and the
/// streaming path. Cheap to read: plain atomic loads and small copies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Host {
    pub env_calls: u64,
    pub ring_calls: u64,
    pub fallbacks: u64,
    pub wakeups: u64,
    pub idle_polls: u64,
    pub busy_polls: u64,
    pub fused_runs: u64,
    pub parks: u64,
    pub wakes: u64,
    pub steals: u64,
    pub steal_hits: u64,
    pub arena_acquires: u64,
    pub arena_inline: u64,
    pub arena_allocs: u64,
    pub ctl_explore: u64,
    pub ctl_flips: u64,
    pub ctl_resizes: u64,
    pub stream_chunks: u64,
    pub stream_bytes: u64,
    pub stream_resizes: u64,
    pub stream_submitted: u64,
    pub stream_redeemed: u64,
}

macro_rules! host_since {
    ($a:expr, $b:expr, $($f:ident),*) => {
        Host { $($f: $a.$f - $b.$f),* }
    };
}

impl Host {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Host) -> Host {
        host_since!(
            self,
            earlier,
            env_calls,
            ring_calls,
            fallbacks,
            wakeups,
            idle_polls,
            busy_polls,
            fused_runs,
            parks,
            wakes,
            steals,
            steal_hits,
            arena_acquires,
            arena_inline,
            arena_allocs,
            ctl_explore,
            ctl_flips,
            ctl_resizes,
            stream_chunks,
            stream_bytes,
            stream_resizes,
            stream_submitted,
            stream_redeemed
        )
    }

    /// Plane counters from a ring snapshot.
    pub fn with_ring(mut self, rs: &RingStats) -> Host {
        self.ring_calls = rs.totals.calls;
        self.fallbacks = rs.totals.fallbacks;
        self.wakeups = rs.totals.wakeups;
        self.idle_polls = rs.totals.idle_polls;
        self.busy_polls = rs.totals.busy_polls;
        self.fused_runs = rs.totals.fused_runs;
        self.parks = rs.governor.parks;
        self.wakes = rs.governor.wakes;
        self.steals = rs.steals();
        self.steal_hits = rs.steal_hits();
        self
    }

    /// Arena counters.
    pub fn with_arena(mut self, a: &ArenaStats) -> Host {
        self.arena_acquires = a.acquires();
        self.arena_inline = a.inline_hits;
        self.arena_allocs = a.allocs;
        self
    }

    /// Control-loop decision counters.
    pub fn with_ctl(mut self, c: &CtlStats) -> Host {
        self.ctl_explore = c.explore_probes;
        self.ctl_flips = c.flips;
        self.ctl_resizes = c.grows + c.shrinks;
        self
    }

    /// A snapshot of an application environment's transport.
    pub fn of_env(env: &AppEnv) -> Host {
        let mut h = Host {
            env_calls: env.total_calls(),
            ..Host::default()
        };
        if let Some(rs) = env.rt_ring_stats() {
            h = h.with_ring(&rs);
        }
        if let Some(a) = env.arena_stats() {
            h = h.with_arena(&a);
        }
        if let Some(c) = env.ctl_stats() {
            h = h.with_ctl(&c);
        }
        h
    }
}
