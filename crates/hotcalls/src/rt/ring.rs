//! The ring engine: sharded submission rings, a responder pool that
//! drains and steals across them, pipelined completions, and call
//! bundling.
//!
//! The paper's single mailbox serializes requesters; §4.2 observes that
//! responder utilization "can potentially be improved by sharing the
//! responder thread with several requesters". [`RingServer`] realizes
//! that: each *shard* is a ring of request slots (its own head, tail and
//! doze line, all cache-padded) so several requesters can have calls in
//! flight at once, while one or more responders drain them in order. Each
//! slot is its own little mailbox (CLAIM → SUBMIT → DONE) on its own cache
//! lines, and payloads move through lock-free `UnsafeCell`s guarded by the
//! slot state machine (see [`super::slot`]).
//!
//! One engine covers every shape:
//!
//! * **One shard** ([`RingServer::spawn`], [`RingServer::spawn_pool`],
//!   [`RingServer::spawn_adaptive`]) is the paper's shared ring: every
//!   requester claims slots on the same head, every responder drains the
//!   same tail.
//! * **N shards** ([`RingServer::spawn_sharded`]) splits the plane so
//!   uncontended requesters never share a head CAS: the router pins each
//!   requester to a home shard, responder `i` homes on shard
//!   `i % shards`, drains it first and steals from siblings only when it
//!   is empty (see [`super::pool`]).
//!
//! Three mechanisms pipeline the plane beyond the paper's synchronous
//! protocol:
//!
//! * **Async completions** — [`RingRequester::submit`] returns a
//!   [`Ticket`] immediately; [`RingRequester::wait`],
//!   [`RingRequester::try_wait`] and [`RingRequester::wait_any`] reap
//!   completions in any order, so one requester keeps many slots in
//!   flight and a blocked handler no longer serializes the ring.
//! * **Call bundles** — a [`Bundle`] packs N small calls into *one* ring
//!   submission serviced by *one* responder dispatch: one slot claim, one
//!   head CAS, at most one doze wakeup for the whole bundle.
//! * **Adaptive governor** — a [`ResponderPolicy`]`{min, max,
//!   target_occupancy}` replaces the static pool size: requesters raise
//!   the active-responder target when their shard backs up (or their
//!   in-flight calls age), and the top active responder demotes itself
//!   and *parks* after a useful-work drought. Parked responders sleep on a
//!   doze that per-call wakeups never touch, and the router stops
//!   assigning requesters to a shard with no active home responder; a
//!   submission whose home responders are parked redirects its wakeup to
//!   a sibling (counted as `cross_shard_wakes`).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::{
    FusedMode, GovernorStats, HotCallConfig, HotCallStats, ResponderPolicy, RingStats, ShardStats,
};
use crate::error::{HotCallError, Result};
use crate::telemetry::{
    now_cycles, trace, AtomicHist, LaneTelemetry, PlaneProvider, PlaneTelemetry, TELEMETRY_ENABLED,
};
use sgx_sim::{Placement, Topology};

use super::pool::{self, GovernorState};
use super::slot::{
    AbandonBoard, Backoff, CachePadded, CallSlot, Doze, StatCell, DONE, EMPTY, SUBMITTED,
};
use super::CallTable;

/// Grace polls a waiter grants the shutdown sweep before giving up on a
/// slot that will never complete (its payload is freed by the slot Drop).
const SHUTDOWN_GRACE_POLLS: u32 = 100_000;

/// Poll interval at which a waiter treats its in-flight call as "aging"
/// and nudges the governor to raise the active-responder target.
const AGE_POLLS_PER_RAISE: u32 = 4_096;

/// Poll interval at which a deadline-bounded wait re-reads the clock.
/// `Instant::now` is a vDSO call — cheap, but not spin-loop cheap.
const DEADLINE_CHECK_POLLS: u32 = 64;

/// What one ring slot carries callee-bound: a single call's request (the
/// call id rides in the slot's id word) or a bundle of `(id, request)`
/// pairs submitted as one unit.
pub(super) enum ReqEnvelope<Req> {
    One(Req),
    Bundle(Vec<(u32, Req)>),
}

/// What comes back: the lone response, or one result per bundled call in
/// submission order. Per-call failures (unknown id, panicking handler)
/// stay inside the bundle; a slot-level `Err` means the transport itself
/// failed.
pub(super) enum RespEnvelope<Resp> {
    One(Resp),
    Bundle(Vec<Result<Resp>>),
}

pub(super) type RingSlot<Req, Resp> = CallSlot<ReqEnvelope<Req>, RespEnvelope<Resp>>;

/// One shard: a full ring with its own head, tail and doze line.
pub(super) struct Shard<Req, Resp> {
    /// Each slot is 64-byte aligned with its state word on its own line,
    /// so neighbouring slots never false-share.
    pub(super) slots: Box<[RingSlot<Req, Resp>]>,
    /// Next slot a requester of *this shard* claims. Padded: requesters
    /// hammer this line; responders must not.
    pub(super) head: CachePadded<AtomicUsize>,
    /// Next slot the responders service (home responder or a stealer).
    pub(super) tail: CachePadded<AtomicUsize>,
    /// Where this shard's home responders doze: per-call wakeups on one
    /// shard never disturb another shard's responders.
    pub(super) doze: Doze,
    /// Submissions to this shard whose wakeup was redirected to a sibling
    /// shard's responder (home responders parked or saturated).
    cross_shard_wakes: AtomicU64,
    /// Dropped-unredeemed tickets for this shard's slots (see
    /// [`AbandonBoard`]): tickets hold a clone, claimants lapping onto a
    /// marked slot reap it.
    abandon: Arc<AbandonBoard>,
}

impl<Req, Resp> Shard<Req, Resp> {
    fn new(capacity: usize) -> Self {
        Shard {
            slots: (0..capacity).map(|_| CallSlot::new()).collect(),
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            doze: Doze::new(),
            cross_shard_wakes: AtomicU64::new(0),
            abandon: AbandonBoard::new(capacity),
        }
    }

    /// The slot behind absolute sequence `index`.
    #[inline]
    fn slot(&self, index: usize) -> &RingSlot<Req, Resp> {
        &self.slots[index % self.slots.len()]
    }

    /// Slots currently between claim and service, from a tail-before-head
    /// snapshot. `head` and `tail` are monotonic with `head >= tail` at
    /// every instant, but two separate loads can still see them "out of
    /// order" — loading `tail` first makes the head snapshot newer, never
    /// older, and the subtraction wraps instead of panicking as a second
    /// line of defense.
    fn occupancy(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        RingShared::<Req, Resp>::occupancy(head, tail)
    }

    /// Is the slot at the ring front submitted (work a responder could
    /// claim right now)?
    pub(super) fn front_submitted(&self) -> bool {
        self.slot(self.tail.load(Ordering::Acquire)).state() == SUBMITTED
    }

    /// Reaps the slot a claimant at sequence `head` is lapping onto, if
    /// (and only if) its occupant is a completed call whose ticket was
    /// dropped unredeemed. The occupant of slot `head % cap` at claim
    /// sequence `head` is exactly `head - cap`, so the board's
    /// exact-sequence CAS can neither match a live call nor hand the reap
    /// to two racing claimants.
    fn try_reap_abandoned(&self, head: usize) {
        let slot = self.slot(head);
        if slot.state() != DONE {
            // Not completed yet (or still live mid-service): the mark, if
            // any, stays on the board for a later lap.
            return;
        }
        if self.abandon.try_take(head.wrapping_sub(self.slots.len())) {
            // SAFETY: winning the exact-sequence CAS transferred the
            // dropping submitter's redeem ownership to this thread, and
            // DONE was observed with Acquire above.
            drop(unsafe { slot.redeem() });
        }
    }
}

/// The engine's shared state: the shards, the handler table, the
/// governor, and the counters every handle reads.
pub(super) struct RingShared<Req, Resp> {
    pub(super) shards: Box<[Shard<Req, Resp>]>,
    /// The handler table. Keeping it here lets responders and a
    /// *requester* on the fused run-to-completion path dispatch alike.
    pub(super) table: CallTable<Req, Resp>,
    pub(super) shutdown: AtomicBool,
    pub(super) governor: GovernorState,
    /// Round-robin cursor of the router that picks requesters' home
    /// shards.
    next_home: AtomicUsize,
    /// Rotates the sibling a redirected wakeup lands on.
    wake_cursor: AtomicUsize,
    /// One padded statistics cell per responder; each responder writes
    /// only its own (plain stores, no shared RMW on the hot path).
    pub(super) responders: Box<[CachePadded<StatCell>]>,
    /// Completion → redeem latency (reap stage), recorded by whichever
    /// requester reaps — shared `fetch_add` cell, but strictly *after*
    /// the call completed, so it never touches the service critical path.
    reap_hist: CachePadded<AtomicHist>,
    // Requester-side event counters; rare, so shared RMWs are fine.
    fallbacks: AtomicU64,
    wakeups: AtomicU64,
    /// Calls executed inline by requesters (fused run-to-completion).
    /// Shared `fetch_add` cells: requesters have no single-writer stat
    /// cell of their own, and the fused path only runs when the home
    /// shard is quiet, so contention on these lines is structurally rare.
    fused_runs: AtomicU64,
    fused_fallbacks: AtomicU64,
    #[cfg(test)]
    pub(super) hold: pool::HoldPoint,
}

impl<Req, Resp> RingShared<Req, Resp> {
    /// Slots between claim and service for a tail-before-head snapshot;
    /// wraps instead of panicking on an out-of-order pair (see
    /// [`Shard::occupancy`]).
    pub(super) fn occupancy(head: usize, tail: usize) -> usize {
        head.wrapping_sub(tail)
    }

    /// Is any shard's ring front claimable right now? The sleep predicate
    /// of every responder: a stealer must not doze past work on a sibling
    /// shard it could reap.
    pub(super) fn any_front_submitted(&self) -> bool {
        self.shards.iter().any(Shard::front_submitted)
    }

    /// How many of `home`'s responders (`home`, `home + shards`, …) are
    /// inside the governor's active target.
    fn active_home_responders(&self, home: usize) -> usize {
        let active = self.governor.active().min(self.responders.len());
        if home < active {
            (active - 1 - home) / self.shards.len() + 1
        } else {
            0
        }
    }

    /// Is `home` unattended — every one of its active responders dozing
    /// (a shard with none active counts)? While this holds no responder
    /// core spins on the shard, so a requester executing inline steals
    /// nothing and saves the wake + cross-core transfer. The check is a
    /// heuristic: stealers may still visit, and the service-ownership CAS
    /// is what keeps the fused path correct when a responder wakes
    /// mid-decision.
    fn home_quiescent(&self, home: usize) -> bool {
        self.shards[home].doze.sleepers.load(Ordering::Relaxed) >= self.active_home_responders(home)
    }

    /// Picks a home shard for a new requester: round-robin over the shards
    /// that keep an active home responder (the router never assigns to a
    /// parked shard).
    fn assign_home(&self) -> usize {
        let eligible = self.governor.active().clamp(1, self.shards.len());
        self.next_home.fetch_add(1, Ordering::Relaxed) % eligible
    }

    /// Picks the *active* shard whose responder is cheapest to hand a
    /// cache line to from `from`, under the convention that shard `i`'s
    /// responder runs at `topology.place(i)`. Same-core beats same-node
    /// beats cross-node; cost ties rotate through the round-robin cursor
    /// so co-located requesters still spread over equivalent shards.
    fn assign_near(&self, from: Placement, topology: &Topology) -> usize {
        let eligible = self.governor.active().clamp(1, self.shards.len());
        let cost = |i: usize| topology.transfer_cost(from, topology.place(i));
        let best = (0..eligible).map(cost).min().expect("at least one shard");
        let ties = (0..eligible).filter(|&i| cost(i) == best).count();
        let pick = self.next_home.fetch_add(1, Ordering::Relaxed) % ties;
        (0..eligible)
            .filter(|&i| cost(i) == best)
            .nth(pick)
            .expect("a tie below `ties` always exists")
    }

    fn snapshot(&self) -> HotCallStats {
        let fused_runs = self.fused_runs.load(Ordering::Relaxed);
        let mut s = HotCallStats {
            // Fused calls never pass through a responder cell, so the
            // plane-wide call count starts from them.
            calls: fused_runs,
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            idle_polls: 0,
            busy_polls: 0,
            fused_runs,
            fused_fallbacks: self.fused_fallbacks.load(Ordering::Relaxed),
        };
        for cell in self.responders.iter() {
            s.calls += cell.calls.load(Ordering::Relaxed);
            s.idle_polls += cell.idle_polls.load(Ordering::Relaxed);
            s.busy_polls += cell.busy_polls.load(Ordering::Relaxed);
        }
        s
    }

    fn governor_snapshot(&self) -> GovernorStats {
        GovernorStats {
            active: self.governor.active_target.load(Ordering::Relaxed),
            parked: self.governor.parked_now.load(Ordering::Relaxed),
            parks: self.governor.parks.load(Ordering::Relaxed),
            wakes: self.governor.wakes.load(Ordering::Relaxed),
            min: self.governor.policy.min,
            max: self.governor.policy.max,
        }
    }

    /// Totals, governor, and one [`ShardStats`] row per shard summing the
    /// counters of the shard's home responders. A shard is `parked` when
    /// none of its home responders is active.
    fn ring_snapshot(&self) -> RingStats {
        let n = self.shards.len();
        let mut shards: Vec<ShardStats> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| ShardStats {
                shard: i,
                cross_shard_wakes: shard.cross_shard_wakes.load(Ordering::Relaxed),
                parked: self.active_home_responders(i) == 0,
                occupancy: shard.occupancy(),
                ..ShardStats::default()
            })
            .collect();
        for (index, cell) in self.responders.iter().enumerate() {
            let row = &mut shards[index % n];
            row.serviced += cell.calls.load(Ordering::Relaxed);
            row.home_polls += cell.home_polls.load(Ordering::Relaxed);
            row.steals += cell.steals.load(Ordering::Relaxed);
            row.steal_hits += cell.steal_hits.load(Ordering::Relaxed);
        }
        RingStats {
            totals: self.snapshot(),
            governor: self.governor_snapshot(),
            shards,
        }
    }

    /// Records the reap-stage latency for a call whose completion stamp
    /// was read before redeeming its slot.
    #[inline]
    fn record_reap(&self, completed_at: u64) {
        if TELEMETRY_ENABLED {
            self.reap_hist
                .record_shared(now_cycles().saturating_sub(completed_at));
        }
    }

    /// The plane's full telemetry view: counters plus one lane of stage
    /// histograms per responder (work a responder stole is attributed to
    /// the *stealing* responder's lane, keeping each cell single-writer)
    /// and the plane-wide reap histogram.
    fn plane_telemetry(&self, name: &str, kind: &'static str) -> PlaneTelemetry {
        PlaneTelemetry {
            name: name.to_string(),
            kind,
            stats: self.ring_snapshot(),
            lanes: self
                .responders
                .iter()
                .enumerate()
                .map(|(lane, cell)| LaneTelemetry {
                    lane,
                    queue: cell.stages.queue.snapshot(),
                    service: cell.stages.service.snapshot(),
                })
                .collect(),
            reap: self.reap_hist.snapshot(),
        }
    }

    /// Wakes a responder for a submission just published on `home`.
    ///
    /// Order of preference: a home responder's own doze (the common,
    /// contention-free case); failing that — the home responders are
    /// awake, busy, or parked — a sibling shard's doze, but only when the
    /// home shard actually needs help (it is parked, or backlog is
    /// building behind its busy responders). Redirected wakes are counted
    /// as `cross_shard_wakes` on the home shard.
    fn wake_for(&self, home: usize) {
        let n = self.shards.len();
        if n == 1 {
            if self.shards[home].doze.wake() {
                self.wakeups.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        // One coherent snapshot per submission, taken *before* the home
        // wake attempt. `active` is loaded SeqCst so it is ordered with
        // the governor's demote/raise CASes; re-reading it only after a
        // failed home wake raced `try_demote`: the last home responder
        // could park in between, and the redirect then concluded "active,
        // no backlog" for a shard that had just lost its responder.
        let parked_home = home >= self.governor.active_target.load(Ordering::SeqCst);
        // The caller has already published its own submission, so `> 1`
        // means work *beyond* this call is queued behind busy responders.
        let backlog = self.shards[home].occupancy() > 1;
        if self.shards[home].doze.wake() {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if !parked_home && !backlog {
            return;
        }
        let start = self.wake_cursor.fetch_add(1, Ordering::Relaxed);
        for i in 0..n {
            let sibling = (start + i) % n;
            if sibling != home && self.shards[sibling].doze.wake() {
                self.shards[home]
                    .cross_shard_wakes
                    .fetch_add(1, Ordering::Relaxed);
                self.wakeups.fetch_add(1, Ordering::Relaxed);
                trace("wake_redirect", home as u64, sibling as u64);
                return;
            }
        }
    }
}

impl<Req, Resp> core::fmt::Debug for RingShared<Req, Resp> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RingShared")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.shards[0].slots.len())
            .field("responders", &self.responders.len())
            .field("governor", &self.governor)
            .finish()
    }
}

/// A running ring engine: one or more shards drained in batches by a pool
/// of responder threads, optionally governed by a [`ResponderPolicy`].
///
/// # Examples
///
/// ```
/// use hotcalls::rt::{CallTable, RingServer};
/// use hotcalls::{HotCallConfig, ResponderPolicy};
///
/// let mut table: CallTable<u64, u64> = CallTable::new();
/// let inc = table.register(|x| x + 1);
/// let server = RingServer::spawn(table, 8, HotCallConfig::default());
/// let requester = server.requester();
/// assert_eq!(requester.call(inc, 9).unwrap(), 10);
///
/// // The same engine, sharded: two rings, one home responder each.
/// let mut table: CallTable<u64, u64> = CallTable::new();
/// let inc = table.register(|x| x + 1);
/// let sharded = RingServer::spawn_sharded(
///     table,
///     8,
///     2,
///     ResponderPolicy::fixed(2),
///     HotCallConfig::patient(),
/// )
/// .unwrap();
/// assert_eq!(sharded.requester().call(inc, 41).unwrap(), 42);
/// assert_eq!(sharded.shards(), 2);
/// ```
#[derive(Debug)]
pub struct RingServer<Req, Resp> {
    shared: Arc<RingShared<Req, Resp>>,
    config: HotCallConfig,
    joins: Vec<JoinHandle<()>>,
}

impl<Req, Resp> RingServer<Req, Resp>
where
    Req: Send + 'static,
    Resp: Send + 'static,
{
    /// Spawns a single responder over `table` with a ring of `capacity`
    /// slots (the original single-responder configuration).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn spawn(table: CallTable<Req, Resp>, capacity: usize, config: HotCallConfig) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self::spawn_pool(table, capacity, 1, config).expect("capacity and pool size validated")
    }

    /// Spawns a static pool of `n_responders` always-active threads
    /// draining one shared ring of `capacity` slots. Each responder
    /// claims up to [`HotCallConfig::drain_batch`] contiguous submissions
    /// per tail advance.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] if `capacity` or `n_responders` is
    /// zero.
    pub fn spawn_pool(
        table: CallTable<Req, Resp>,
        capacity: usize,
        n_responders: usize,
        config: HotCallConfig,
    ) -> Result<Self> {
        Self::spawn_adaptive(
            table,
            capacity,
            ResponderPolicy::fixed(n_responders),
            config,
        )
    }

    /// Spawns an adaptive pool over one shared ring: `policy.max`
    /// responder threads of which between `policy.min` and `policy.max`
    /// are active at any moment. Requesters raise the active target when
    /// ring occupancy exceeds `policy.target_occupancy` (or their
    /// in-flight calls age without completing); the top active responder
    /// demotes itself and parks after `policy.park_after_idle_polls` polls
    /// without useful work.
    ///
    /// # Errors
    ///
    /// As [`RingServer::spawn_sharded`].
    pub fn spawn_adaptive(
        table: CallTable<Req, Resp>,
        capacity: usize,
        policy: ResponderPolicy,
        config: HotCallConfig,
    ) -> Result<Self> {
        Self::spawn_sharded(table, capacity, 1, policy, config)
    }

    /// Spawns the engine over `shards` rings of `capacity_per_shard` slots
    /// each, with `policy.max` responders: responder `i` homes on shard
    /// `i % shards`, drains it first and steals from the siblings when it
    /// is empty. The router pins each requester to a home shard.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] if `capacity_per_shard` is zero,
    /// `shards` is zero or exceeds `policy.max` (every shard needs a home
    /// responder), or the policy or config fail their
    /// [`ResponderPolicy::validate`] / [`HotCallConfig::validate`] checks.
    pub fn spawn_sharded(
        table: CallTable<Req, Resp>,
        capacity_per_shard: usize,
        shards: usize,
        policy: ResponderPolicy,
        config: HotCallConfig,
    ) -> Result<Self> {
        if capacity_per_shard == 0 {
            return Err(HotCallError::InvalidConfig(
                "ring capacity must be positive",
            ));
        }
        policy.validate()?;
        config.validate()?;
        if shards == 0 || shards > policy.max {
            return Err(HotCallError::InvalidConfig(
                "a ring plane needs between one shard and one shard per responder",
            ));
        }
        let n_responders = policy.max;
        let shared = Arc::new(RingShared {
            shards: (0..shards)
                .map(|_| Shard::new(capacity_per_shard))
                .collect(),
            table,
            shutdown: AtomicBool::new(false),
            governor: GovernorState::new(policy),
            next_home: AtomicUsize::new(0),
            wake_cursor: AtomicUsize::new(0),
            responders: (0..n_responders)
                .map(|_| CachePadded::new(StatCell::default()))
                .collect(),
            reap_hist: CachePadded::new(AtomicHist::new()),
            fallbacks: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            fused_runs: AtomicU64::new(0),
            fused_fallbacks: AtomicU64::new(0),
            #[cfg(test)]
            hold: pool::HoldPoint::default(),
        });
        let joins = (0..n_responders)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hotcalls-ring-responder-{index}"))
                    .spawn(move || pool::responder_loop(shared, index, config))
                    .expect("spawn ring responder")
            })
            .collect();
        Ok(RingServer {
            shared,
            config,
            joins,
        })
    }

    /// Creates a requester pinned to a router-chosen home shard
    /// (round-robin over the shards that keep an active home responder).
    pub fn requester(&self) -> RingRequester<Req, Resp> {
        self.requester_at(self.shared.assign_home())
    }

    /// Creates a requester placed on logical core `core`: the home shard
    /// is the currently *active* shard whose responder costs the least to
    /// hand a cache line to under `topology`, with shard `i`'s responder
    /// modeled at `topology.place(i)` (responders are spawned in shard
    /// order, so pinning them to consecutive cores matches this
    /// convention). A requester sharing its responder's core gets the
    /// free same-core handoff — the placement the fused run-to-completion
    /// path turns into skipped handoffs outright; a requester on another
    /// socket at least stays on the near side of the interconnect when an
    /// on-node shard is active.
    pub fn requester_near(&self, core: usize, topology: &Topology) -> RingRequester<Req, Resp> {
        self.requester_at(self.shared.assign_near(topology.place(core), topology))
    }

    /// Creates a requester pinned to an explicit home shard — the
    /// affinity override for callers that partition work themselves.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] if `shard` is out of range.
    pub fn requester_on(&self, shard: usize) -> Result<RingRequester<Req, Resp>> {
        if shard >= self.shared.shards.len() {
            return Err(HotCallError::InvalidConfig(
                "shard affinity index out of range",
            ));
        }
        Ok(self.requester_at(shard))
    }

    fn requester_at(&self, home: usize) -> RingRequester<Req, Resp> {
        RingRequester {
            shared: Arc::clone(&self.shared),
            config: self.config,
            home,
        }
    }

    /// Number of responder threads in the pool (active and parked).
    pub fn responders(&self) -> usize {
        self.shared.responders.len()
    }

    /// Number of ring shards (1 for the shared-ring shapes).
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Statistics so far, aggregated over the responder pool.
    pub fn stats(&self) -> HotCallStats {
        self.shared.snapshot()
    }

    /// The governor's current shape and decision counters. For static
    /// pools `active == min == max` and the counters stay zero.
    pub fn governor_stats(&self) -> GovernorStats {
        self.shared.governor_snapshot()
    }

    /// The full per-shard snapshot: totals, governor, and one
    /// [`ShardStats`] row per shard (steals, steal hits, home polls,
    /// cross-shard wakes, occupancy).
    pub fn ring_stats(&self) -> RingStats {
        self.shared.ring_snapshot()
    }

    /// Sets the active responder target directly (the `ctl` sizer's
    /// control surface), clamped into the policy's `[min, max]`, and
    /// returns the value installed. Responders converge on their next
    /// poll: surplus ones park (residual work on a shard left without an
    /// active home responder drains via stealing), and a raise wakes the
    /// parked set. The requester-side backlog governor keeps running — it
    /// can still raise the target above what the sizer set if a shard
    /// backs up.
    pub fn set_active_responders(&self, n: usize) -> usize {
        self.shared.governor.set_target(n)
    }

    /// This plane's full telemetry view right now: counters plus per-lane
    /// queue/service histograms and the plane-wide reap histogram. The
    /// plane kind is `"sharded"` with more than one shard, otherwise
    /// `"single"` for a one-responder ring and `"pool"` for a shared ring
    /// with several responders.
    pub fn telemetry(&self, name: &str) -> PlaneTelemetry {
        self.shared.plane_telemetry(name, self.plane_kind())
    }

    /// A [`PlaneProvider`] for [`crate::telemetry::TelemetryRegistry`]:
    /// the registry polls it at snapshot time, so the snapshot is always
    /// current. The provider holds the plane's shared state alive.
    pub fn telemetry_provider(&self, name: impl Into<String>) -> PlaneProvider {
        self.telemetry_provider_as(name, self.plane_kind())
    }

    /// [`RingServer::telemetry_provider`] reporting under `kind` (the
    /// payload-specialized planes tag their own kinds).
    pub(super) fn telemetry_provider_as(
        &self,
        name: impl Into<String>,
        kind: &'static str,
    ) -> PlaneProvider {
        let shared = Arc::clone(&self.shared);
        let name = name.into();
        Box::new(move || shared.plane_telemetry(&name, kind))
    }

    fn plane_kind(&self) -> &'static str {
        if self.shards() > 1 {
            "sharded"
        } else if self.responders() == 1 {
            "single"
        } else {
            "pool"
        }
    }

    /// Stops the responders and joins them.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }
}

impl<Req, Resp> RingServer<Req, Resp> {
    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for shard in self.shared.shards.iter() {
            shard.doze.wake_all();
        }
        self.shared.governor.park_doze.wake_all();
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

impl<Req, Resp> Drop for RingServer<Req, Resp> {
    fn drop(&mut self) {
        if !self.joins.is_empty() {
            self.shutdown_inner();
        }
    }
}

/// A handle submitting calls into its home shard's ring, so requesters on
/// different shards never contend on a head CAS; completions may still be
/// produced by *any* responder (home or stealer).
#[derive(Debug)]
pub struct RingRequester<Req, Resp> {
    shared: Arc<RingShared<Req, Resp>>,
    config: HotCallConfig,
    home: usize,
}

impl<Req, Resp> Clone for RingRequester<Req, Resp> {
    fn clone(&self) -> Self {
        RingRequester {
            shared: Arc::clone(&self.shared),
            config: self.config,
            home: self.home,
        }
    }
}

/// An in-flight call: redeem with [`RingRequester::wait`],
/// [`RingRequester::try_wait`] or [`RingRequester::wait_any`] on the
/// requester that submitted it, or await the future minted by the async
/// submit path (`hotcalls::aio`).
///
/// Dropping a ticket unredeemed *abandons* the call: the drop marks the
/// slot on its shard's [`AbandonBoard`], and the next claimant that laps
/// onto the completed slot reaps the stale response. The response value
/// is discarded, but the slot is released — a dropped ticket no longer
/// wedges the ring.
#[derive(Debug)]
#[must_use = "redeem the response by waiting, or drop to abandon the call"]
pub struct Ticket {
    index: usize,
    /// The shard's abandonment registry; `None` once the ticket has been
    /// defused (redeemed through a wait path, so drop must not mark).
    board: Option<Arc<AbandonBoard>>,
}

impl Ticket {
    /// The submission sequence number (monotonic per shard): correlate a
    /// completion from [`RingRequester::wait_any`] back to its
    /// submission.
    pub fn seq(&self) -> u64 {
        self.index as u64
    }

    /// Takes over the redeem obligation from the drop guard: after this,
    /// dropping the ticket is inert. Every redeeming path calls it right
    /// before (or instead of) consuming the slot.
    fn defuse(&mut self) -> usize {
        self.board = None;
        self.index
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if let Some(board) = self.board.take() {
            board.mark(self.index);
        }
    }
}

/// An in-flight bundle: redeem with [`RingRequester::wait_bundle`].
/// Dropping it unredeemed abandons the bundle the same way dropping a
/// [`Ticket`] abandons a single call.
#[derive(Debug)]
#[must_use = "redeem the results by waiting, or drop to abandon the bundle"]
pub struct BundleTicket {
    ticket: Ticket,
    len: usize,
}

impl BundleTicket {
    /// Number of calls packed in the bundle.
    pub fn len(&self) -> usize {
        self.len
    }

    /// A bundle ticket never covers zero calls, but clippy likes the
    /// pair.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Builder packing many small calls into one ring submission.
///
/// The whole bundle costs one slot claim, one head CAS and at most one
/// responder wakeup, and is serviced by a single responder dispatch —
/// amortizing the per-call ring traffic the way HotCall bundling does for
/// IO-intensive enclave applications.
///
/// # Examples
///
/// ```
/// use hotcalls::rt::{Bundle, CallTable, RingServer};
/// use hotcalls::HotCallConfig;
///
/// let mut table: CallTable<u64, u64> = CallTable::new();
/// let inc = table.register(|x| x + 1);
/// let dbl = table.register(|x| x * 2);
/// let server = RingServer::spawn(table, 8, HotCallConfig::patient());
/// let r = server.requester();
///
/// let mut bundle = Bundle::new();
/// bundle.push(inc, 1).push(dbl, 21).push(inc, 99);
/// let results = r.call_bundle(bundle).unwrap();
/// let values: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
/// assert_eq!(values, [2, 42, 100]);
/// ```
#[derive(Debug)]
pub struct Bundle<Req> {
    calls: Vec<(u32, Req)>,
}

impl<Req> Default for Bundle<Req> {
    fn default() -> Self {
        Bundle::new()
    }
}

impl<Req> Bundle<Req> {
    /// An empty bundle.
    pub fn new() -> Self {
        Bundle { calls: Vec::new() }
    }

    /// An empty bundle with room for `n` calls.
    pub fn with_capacity(n: usize) -> Self {
        Bundle {
            calls: Vec::with_capacity(n),
        }
    }

    /// Appends a call to the bundle.
    pub fn push(&mut self, id: u32, req: Req) -> &mut Self {
        self.calls.push((id, req));
        self
    }

    /// Calls packed so far.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Nothing packed yet?
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }
}

impl<Req, Resp> RingRequester<Req, Resp> {
    /// The home shard this requester submits to.
    pub fn home(&self) -> usize {
        self.home
    }

    fn shard(&self) -> &Shard<Req, Resp> {
        &self.shared.shards[self.home]
    }

    /// Is the fused run-to-completion path worth attempting right now?
    /// `occupancy` is the requester's latest coherent tail-before-head
    /// snapshot of its home shard. Under `Auto` the backlog must be below
    /// the break-even threshold and the home shard must look unattended.
    fn fused_eligible(&self, occupancy: usize) -> bool {
        match self.config.fused_mode {
            FusedMode::Off => false,
            FusedMode::Always => true,
            FusedMode::Auto => {
                occupancy < self.config.fused_below_occupancy
                    && self.shared.home_quiescent(self.home)
            }
        }
    }

    /// Counts (and traces) a call that was fused-eligible in principle but
    /// rode the pooled path — the break-even gate said no, or the service
    /// race was lost to a responder.
    #[inline]
    fn note_fused_fallback(&self, seq: u64) {
        if self.config.fused_mode != FusedMode::Off {
            self.shared.fused_fallbacks.fetch_add(1, Ordering::Relaxed);
            trace("fused_fallback", seq, self.home as u64);
        }
    }

    /// Tries to service the just-published home-shard slot at `index` on
    /// *this* thread. Winning the tail CAS for exactly `[index, index + 1)`
    /// is the same service-ownership edge the responder drain uses, so the
    /// requester and any awake responder (home or stealer) can race for
    /// the slot and exactly one of them executes it. Returns `true` if the
    /// slot was serviced inline (it is DONE and awaits its normal redeem).
    fn try_self_service(&self, index: usize) -> bool {
        let shard = self.shard();
        if shard
            .tail
            .compare_exchange(
                index,
                index.wrapping_add(1),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_err()
        {
            // Older submissions sit ahead of ours (or a responder already
            // claimed a run covering this slot): pipelining wins, hand
            // off.
            return false;
        }
        // SAFETY: the tail CAS granted service ownership of exactly this
        // slot, and this requester published it SUBMITTED (with Release)
        // just above, so the Acquire side of the CAS sees the payload.
        let n = unsafe { pool::service_slot_inline(shard.slot(index), &self.shared.table) };
        self.shared.fused_runs.fetch_add(n, Ordering::Relaxed);
        trace("fused_run", index as u64, n);
        true
    }

    /// Claims a home-shard slot and publishes `env` into it, returning the
    /// absolute slot sequence. On failure the envelope is handed back so
    /// the caller can recover the request payloads (the fallback path).
    /// With `allow_fuse` (and [`FusedMode::Always`]), the requester
    /// services its own submission inline instead of waking a responder.
    /// With `arm`, the slot's waker cell is armed before publish so the
    /// completing side fires the future's waker (the async submit paths).
    fn submit_envelope(
        &self,
        id: u32,
        env: ReqEnvelope<Req>,
        allow_fuse: bool,
        arm: bool,
    ) -> core::result::Result<usize, (HotCallError, ReqEnvelope<Req>)> {
        let shard = self.shard();
        let cap = shard.slots.len();
        let gov = &self.shared.governor;
        let mut backoff = Backoff::new();
        for _retry in 0..self.config.timeout_retries {
            for _ in 0..self.config.spins_per_retry {
                if self.shared.shutdown.load(Ordering::Acquire) {
                    return Err((HotCallError::ResponderGone, env));
                }
                // Load `tail` before `head`: both only grow, so the head
                // snapshot cannot lag the tail snapshot and the occupancy
                // subtraction cannot go negative.
                let tail = shard.tail.load(Ordering::Acquire);
                let head = shard.head.load(Ordering::Acquire);
                let occupancy = RingShared::<Req, Resp>::occupancy(head, tail);
                // Backlog deeper than the policy threshold (or a full
                // ring) means the active responders are outpaced: admit
                // another before spinning on.
                if gov.adaptive() && occupancy > gov.policy.target_occupancy_clamped() {
                    gov.try_raise();
                }
                // Full ring: wait for the responders to drain.
                if occupancy >= cap {
                    core::hint::spin_loop();
                    continue;
                }
                // The target slot may still hold an un-redeemed DONE
                // response from the previous lap (a responder advanced
                // `tail` before that requester called `wait`); it only
                // becomes EMPTY when redeemed. Never claim a non-empty
                // slot — but if its occupant was *abandoned* (ticket
                // dropped unredeemed), reap it here so the lap can
                // proceed instead of wedging.
                if shard.slot(head).state() != EMPTY {
                    shard.try_reap_abandoned(head);
                    core::hint::spin_loop();
                    continue;
                }
                if shard
                    .head
                    .compare_exchange(head, head + 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                // Winning the CAS on `head` makes the (empty) slot ours:
                // any other claimant of this physical slot would need
                // `head` to advance a full lap first, which requires this
                // very submission to be serviced and redeemed.
                let slot = shard.slot(head);
                slot.mark_claimed();
                if arm {
                    // Before publish: the SUBMITTED Release store carries
                    // the armed flag to whichever thread completes the
                    // call, so its wake cannot be missed.
                    slot.arm_async();
                }
                // Async submissions fuse only under an explicit `Always`.
                // The caller chose the pipelined API to overlap work, and
                // under `Auto` an inline completion would collapse
                // occupancy back to zero before the next submission's gate
                // reads it — the plane would run whole bursts inline,
                // never wake a responder, and never hand the backlog to
                // the pool. `Auto`'s break-even gate lives on the
                // synchronous `call` path, where the requester would have
                // blocked anyway.
                let fuse = allow_fuse && self.config.fused_mode == FusedMode::Always;
                // SAFETY: the head CAS above granted exclusive claim
                // ownership of this slot (see comment); publish once.
                unsafe { slot.publish(id, env) };
                if fuse {
                    if self.try_self_service(head) {
                        // Serviced on this core: no handoff, no wake. The
                        // slot is DONE and redeems through the normal
                        // wait path.
                        return Ok(head);
                    }
                    // Lost the service race (a responder is active after
                    // all, or older submissions are queued ahead): fall
                    // through to the pooled wake so the submission cannot
                    // strand behind an unwoken doze.
                    self.note_fused_fallback(head as u64);
                }
                // Wake a sleeping responder (after the SUBMITTED store).
                // One wake per submission — a bundle of N calls pays this
                // at most once.
                self.shared.wake_for(self.home);
                return Ok(head);
            }
            backoff.snooze();
        }
        self.shared.fallbacks.fetch_add(1, Ordering::Relaxed);
        Err((
            HotCallError::ResponderTimeout {
                retries: self.config.timeout_retries,
            },
            env,
        ))
    }

    /// Mints the ticket for a home-shard submission at `index`.
    fn ticket(&self, index: usize) -> Ticket {
        Ticket {
            index,
            board: Some(Arc::clone(&self.shard().abandon)),
        }
    }

    /// Claims a slot and submits a request without waiting. Returns a
    /// [`Ticket`] to redeem the response on this same requester.
    ///
    /// An un-redeemed ticket keeps its ring slot occupied, so a
    /// submission that laps the ring onto such a slot blocks until the
    /// ticket is redeemed (or, if the ticket was dropped, reaps the
    /// abandoned response itself). Pipelined callers should keep fewer
    /// than `capacity` calls in flight and redeem a ticket whose sequence
    /// number is one full lap behind the submission count before
    /// submitting past it.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderTimeout`] if no slot frees up within the
    /// retry budget; [`HotCallError::ResponderGone`] after shutdown.
    pub fn submit(&self, id: u32, req: Req) -> Result<Ticket> {
        match self.submit_envelope(id, ReqEnvelope::One(req), true, false) {
            Ok(index) => Ok(self.ticket(index)),
            Err((e, _)) => Err(e),
        }
    }

    /// [`RingRequester::submit`] with the slot's waker cell armed: the
    /// completing side (responder, stealer, fused-inline service, or the
    /// shutdown sweep) fires a waker registered against the returned
    /// ticket, which is what gives the `hotcalls::aio` futures completion
    /// wakes without any busy polling.
    pub(crate) fn submit_async(&self, id: u32, req: Req) -> Result<Ticket> {
        match self.submit_envelope(id, ReqEnvelope::One(req), true, true) {
            Ok(index) => Ok(self.ticket(index)),
            Err((e, _)) => Err(e),
        }
    }

    /// The future-side poll: redeem if complete, otherwise register
    /// `cx`'s waker with the slot and stay pending. Takes the ticket out
    /// of `ticket` exactly when it returns `Ready`.
    pub(crate) fn poll_ticket(
        &self,
        ticket: &mut Option<Ticket>,
        cx: &mut Context<'_>,
    ) -> Poll<Result<Resp>> {
        let index = ticket
            .as_ref()
            .expect("future polled after completion")
            .index;
        let slot = self.shard().slot(index);
        if slot.state() == DONE || slot.register_waker(cx.waker()) {
            ticket.take().expect("present above").defuse();
            return Poll::Ready(self.redeem_one(index));
        }
        if self.shared.shutdown.load(Ordering::Acquire) {
            // The drain sweep may have completed the call between the
            // registration above and the flag load; deliver if so.
            if slot.state() == DONE {
                ticket.take().expect("present above").defuse();
                return Poll::Ready(self.redeem_one(index));
            }
            // A submission that raced the flag may never be serviced; a
            // future cannot grace-spin the way the sync waiters do, so
            // abandon the call (the drop marks the slot reapable) and
            // surface the shutdown.
            drop(ticket.take());
            return Poll::Ready(Err(HotCallError::ResponderGone));
        }
        Poll::Pending
    }

    /// Packs `bundle` into one ring submission: one slot claim, one
    /// responder dispatch, at most one wakeup for all of its calls.
    /// Returns a [`BundleTicket`] to redeem the per-call results.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] for an empty bundle, otherwise as
    /// [`RingRequester::submit`].
    pub fn submit_bundle(&self, bundle: Bundle<Req>) -> Result<BundleTicket> {
        if bundle.is_empty() {
            return Err(HotCallError::InvalidConfig(
                "a bundle must pack at least one call",
            ));
        }
        let len = bundle.len();
        trace("bundle_submit", len as u64, self.home as u64);
        match self.submit_envelope(0, ReqEnvelope::Bundle(bundle.calls), true, false) {
            Ok(index) => Ok(BundleTicket {
                ticket: self.ticket(index),
                len,
            }),
            Err((e, _)) => Err(e),
        }
    }

    /// Spins until the slot behind `index` is DONE. Returns `Err` only on
    /// shutdown-with-grace-expired.
    fn wait_done(&self, index: usize) -> Result<()> {
        let slot = self.shard().slot(index);
        let gov = &self.shared.governor;
        let mut backoff = Backoff::new();
        let mut grace: u32 = 0;
        let mut age_polls: u32 = 0;
        loop {
            if slot.state() == DONE {
                return Ok(());
            }
            // The pool drains submitted work before exiting, but a
            // submission that raced the shutdown flag (or sits behind a
            // neighbour stuck mid-publish) may never be serviced; give up
            // after a bounded grace. The slot stays occupied and its
            // payload is freed by Drop.
            if self.shared.shutdown.load(Ordering::Acquire) {
                grace += 1;
                if grace > SHUTDOWN_GRACE_POLLS {
                    return Err(HotCallError::ResponderGone);
                }
            }
            // In-flight age: a call that spins this long without
            // completing is stuck behind busy responders — ask the
            // governor for another.
            age_polls += 1;
            if gov.adaptive() && age_polls.is_multiple_of(AGE_POLLS_PER_RAISE) {
                gov.try_raise();
            }
            backoff.snooze();
        }
    }

    /// Redeems the envelope sitting DONE at `index` and records its reap
    /// latency. The caller must be (or act for) the submitter and must
    /// have observed `DONE` with Acquire.
    fn redeem(&self, index: usize) -> Result<RespEnvelope<Resp>> {
        let slot = self.shard().slot(index);
        // Read the completion stamp before redeeming: redeem frees the
        // slot for re-claim, after which the stamp belongs to a new call.
        let completed_at = slot.completed_at();
        // SAFETY: this requester submitted the call at `index` on its home
        // shard and observed DONE with Acquire; only the submitter redeems
        // a slot, and the previous lap's DONE was redeemed before this
        // slot could be claimed again, so this DONE is ours.
        let result = unsafe { slot.redeem() };
        self.shared.record_reap(completed_at);
        result
    }

    /// Redeems the single-call response sitting DONE at `index`.
    fn redeem_one(&self, index: usize) -> Result<Resp> {
        match self.redeem(index)? {
            RespEnvelope::One(resp) => Ok(resp),
            RespEnvelope::Bundle(_) => {
                unreachable!("a Ticket is only minted for single-call submissions")
            }
        }
    }

    /// Wait + redeem by raw slot sequence: the synchronous call paths use
    /// this directly so they never mint a ticket (and never touch the
    /// abandonment board) at all.
    fn wait_index(&self, index: usize) -> Result<Resp> {
        self.wait_done(index)?;
        self.redeem_one(index)
    }

    /// Waits for a submitted call to complete and returns its response.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderGone`] if the server shut down first, or
    /// the handler's own error.
    pub fn wait(&self, mut ticket: Ticket) -> Result<Resp> {
        self.wait_index(ticket.defuse())
    }

    /// Redeems the response if the call already completed, or hands the
    /// ticket back untouched — the non-blocking reap primitive for
    /// poll-style event loops.
    pub fn try_wait(&self, mut ticket: Ticket) -> core::result::Result<Result<Resp>, Ticket> {
        if self.shard().slot(ticket.index).state() != DONE {
            return Err(ticket);
        }
        Ok(self.redeem_one(ticket.defuse()))
    }

    /// Waits until *any* of `tickets` completes, removes it from the set,
    /// and returns its sequence number (see [`Ticket::seq`]) with the
    /// response. Completion order is whatever the responder pool produces
    /// — this is the batched-reap primitive that keeps a deep pipeline
    /// full.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] on an empty set;
    /// [`HotCallError::ResponderGone`] if the server shut down; a per-call
    /// failure (e.g. unknown id) is returned as-is (the offending ticket
    /// is consumed).
    pub fn wait_any(&self, tickets: &mut Vec<Ticket>) -> Result<(u64, Resp)> {
        if tickets.is_empty() {
            return Err(HotCallError::InvalidConfig(
                "wait_any needs at least one ticket",
            ));
        }
        let reaped = self.wait_any_inner(tickets, None)?;
        Ok(reaped.expect("a deadline-free wait_any only returns on a completion"))
    }

    /// [`RingRequester::wait_any`] bounded by a deadline: returns
    /// `Ok(None)` — with every ticket left in the set — if nothing
    /// completes by `deadline` (or the set is empty). The primitive that
    /// lets async reapers and graceful shutdown stop parking forever on
    /// an idle plane.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::wait_any`], except that an empty set is
    /// `Ok(None)` instead of an error.
    pub fn wait_any_until(
        &self,
        tickets: &mut Vec<Ticket>,
        deadline: Instant,
    ) -> Result<Option<(u64, Resp)>> {
        if tickets.is_empty() {
            return Ok(None);
        }
        self.wait_any_inner(tickets, Some(deadline))
    }

    /// [`RingRequester::wait_any_until`] with a relative timeout.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::wait_any_until`].
    pub fn wait_any_timeout(
        &self,
        tickets: &mut Vec<Ticket>,
        timeout: Duration,
    ) -> Result<Option<(u64, Resp)>> {
        self.wait_any_until(tickets, Instant::now() + timeout)
    }

    fn wait_any_inner(
        &self,
        tickets: &mut Vec<Ticket>,
        deadline: Option<Instant>,
    ) -> Result<Option<(u64, Resp)>> {
        let shard = self.shard();
        let gov = &self.shared.governor;
        let mut backoff = Backoff::new();
        let mut grace: u32 = 0;
        let mut polls: u32 = 0;
        loop {
            // Redeem the *oldest* completed ticket (ring indices are
            // monotonic), never just the first one found. With
            // instantly-completing submissions (the fused path), a
            // first-found scan keeps redeeming whichever ticket
            // `swap_remove` rotated to the front — always the youngest —
            // while older DONE slots sit un-redeemed until the head laps
            // onto one; `submit` then spins on a slot only this very
            // caller could free. Oldest-first bounds an un-redeemed
            // completion's age by the caller's in-flight window.
            let mut oldest: Option<usize> = None;
            for i in 0..tickets.len() {
                if shard.slot(tickets[i].index).state() == DONE
                    && oldest.is_none_or(|o| tickets[i].index < tickets[o].index)
                {
                    oldest = Some(i);
                }
            }
            if let Some(i) = oldest {
                let mut ticket = tickets.swap_remove(i);
                let seq = ticket.seq();
                let index = ticket.defuse();
                return self.redeem_one(index).map(|resp| Some((seq, resp)));
            }
            // Deadline check on a stride: `Instant::now` per spin would
            // dominate the wait loop. The first iteration checks too, so
            // an already-expired deadline still gets exactly one scan.
            // Once the backoff has escalated to yielding, every poll
            // already costs a scheduler quantum, so the stride no longer
            // buys anything — check every poll instead. On a quiescent
            // plane the old stride let up to 64 yields (milliseconds of
            // quanta) pass between deadline reads, overshooting small
            // timeouts and delaying streaming credit refills.
            if polls.is_multiple_of(DEADLINE_CHECK_POLLS) || backoff.yields() {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Ok(None);
                    }
                }
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                grace += 1;
                if grace > SHUTDOWN_GRACE_POLLS {
                    return Err(HotCallError::ResponderGone);
                }
            }
            polls = polls.wrapping_add(1);
            if gov.adaptive() && polls.is_multiple_of(AGE_POLLS_PER_RAISE) {
                gov.try_raise();
            }
            backoff.snooze();
        }
    }

    /// Waits for a bundle and returns one result per call, in submission
    /// order.
    ///
    /// # Errors
    ///
    /// [`HotCallError::ResponderGone`] if the server shut down before the
    /// bundle was serviced. Per-call failures stay *inside* the returned
    /// vector.
    pub fn wait_bundle(&self, mut ticket: BundleTicket) -> Result<Vec<Result<Resp>>> {
        let index = ticket.ticket.defuse();
        self.wait_done(index)?;
        match self.redeem(index)? {
            RespEnvelope::Bundle(results) => Ok(results),
            RespEnvelope::One(_) => {
                unreachable!("a BundleTicket is only minted for bundle submissions")
            }
        }
    }

    /// Submit + wait in one step.
    ///
    /// On a quiet home shard with fusing enabled (see
    /// [`FusedMode`](crate::FusedMode)) the handler runs *inline on this
    /// thread* — no slot publish, no doze wake, no cross-core cache-line
    /// transfer — and falls back to the pooled submit/wait the moment
    /// responders are active.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::submit`] and [`RingRequester::wait`].
    pub fn call(&self, id: u32, req: Req) -> Result<Resp> {
        // Synchronous calls can skip the ring entirely: nothing to
        // pipeline, no ticket to mint, so the fused path is a plain
        // dispatch on the requester's core.
        if self.config.fused_mode != FusedMode::Off && !self.shared.shutdown.load(Ordering::Acquire)
        {
            if self.fused_eligible(self.shard().occupancy()) {
                let result = self.shared.table.invoke(id, req);
                self.shared.fused_runs.fetch_add(1, Ordering::Relaxed);
                trace("fused_run", id as u64, 1);
                return result;
            }
            self.note_fused_fallback(id as u64);
        }
        // Fusing was declined here; don't re-attempt it inside submit.
        match self.submit_envelope(id, ReqEnvelope::One(req), false, false) {
            Ok(index) => self.wait_index(index),
            Err((e, _)) => Err(e),
        }
    }

    /// Submits a bundle and waits for all of its results.
    ///
    /// # Errors
    ///
    /// As [`RingRequester::submit_bundle`] and
    /// [`RingRequester::wait_bundle`].
    pub fn call_bundle(&self, bundle: Bundle<Req>) -> Result<Vec<Result<Resp>>> {
        let t = self.submit_bundle(bundle)?;
        self.wait_bundle(t)
    }

    /// Issues a call, running `fallback` locally if the fast path times
    /// out — the paper's SDK-call fallback, generalized to the ring.
    ///
    /// The request is moved into the ring only after the claim succeeds,
    /// so the hot path never clones: on timeout the original request
    /// comes back out of the envelope and goes to `fallback` as-is.
    pub fn call_with_fallback<F>(&self, id: u32, req: Req, fallback: F) -> Result<Resp>
    where
        F: FnOnce(Req) -> Resp,
    {
        match self.submit_envelope(id, ReqEnvelope::One(req), true, false) {
            Ok(index) => self.wait_index(index),
            Err((HotCallError::ResponderTimeout { .. }, ReqEnvelope::One(req))) => {
                Ok(fallback(req))
            }
            Err((e, _)) => Err(e),
        }
    }

    /// Statistics so far, aggregated over the responder pool.
    pub fn stats(&self) -> HotCallStats {
        self.shared.snapshot()
    }

    /// The governor's current shape and decision counters.
    pub fn governor_stats(&self) -> GovernorStats {
        self.shared.governor_snapshot()
    }

    /// The full per-shard snapshot (see [`RingServer::ring_stats`]).
    pub fn ring_stats(&self) -> RingStats {
        self.shared.ring_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::pool::Responder;

    /// The engine shapes every shape-agnostic test runs on, as
    /// `(shards, responders)`: the paper's shared ring with one responder
    /// and drained by a pool, and one ring per responder.
    const SHAPES: [(usize, usize); 3] = [(1, 1), (1, 2), (2, 2)];

    fn table() -> (CallTable<u64, u64>, u32) {
        let mut t = CallTable::new();
        let sq = t.register(|x| x * x);
        (t, sq)
    }

    fn generous() -> HotCallConfig {
        HotCallConfig::patient()
    }

    fn spawn_shape(
        t: CallTable<u64, u64>,
        capacity: usize,
        (shards, responders): (usize, usize),
        config: HotCallConfig,
    ) -> RingServer<u64, u64> {
        RingServer::spawn_sharded(
            t,
            capacity,
            shards,
            ResponderPolicy::fixed(responders),
            config,
        )
        .unwrap()
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn call_roundtrip() {
        for shape in SHAPES {
            let (t, sq) = table();
            let server = spawn_shape(t, 4, shape, generous());
            let r = server.requester();
            assert_eq!(r.call(sq, 7).unwrap(), 49);
            assert_eq!(server.stats().calls, 1);
            assert_eq!(server.shards(), shape.0);
        }
    }

    #[test]
    fn pipelined_submissions_complete_in_order() {
        let (t, sq) = table();
        let server = RingServer::spawn(t, 8, generous());
        let r = server.requester();
        let tickets: Vec<Ticket> = (0..8u64).map(|i| r.submit(sq, i).unwrap()).collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(r.wait(t).unwrap(), (i * i) as u64);
        }
    }

    #[test]
    fn wait_any_reaps_out_of_order() {
        for shape in SHAPES {
            let (t, sq) = table();
            let server = spawn_shape(t, 16, shape, generous());
            let r = server.requester();
            let mut tickets: Vec<Ticket> = (0..10u64).map(|i| r.submit(sq, i).unwrap()).collect();
            let mut seen = std::collections::BTreeMap::new();
            while !tickets.is_empty() {
                let (seq, resp) = r.wait_any(&mut tickets).unwrap();
                assert!(seen.insert(seq, resp).is_none(), "seq {seq} reaped twice");
            }
            // Sequence numbers are the ring indices 0..10 for a fresh
            // server, and each response is the square of its submission
            // payload.
            let mut got: Vec<u64> = seen.into_values().collect();
            got.sort_unstable();
            let want: Vec<u64> = (0..10u64).map(|i| i * i).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn try_wait_returns_ticket_until_done() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let slow = t.register(|x| {
            std::thread::sleep(Duration::from_millis(30));
            x + 1
        });
        let server = RingServer::spawn(t, 4, generous());
        let r = server.requester();
        let mut ticket = r.submit(slow, 1).unwrap();
        let mut polls = 0u32;
        let resp = loop {
            match r.try_wait(ticket) {
                Ok(resp) => break resp.unwrap(),
                Err(t) => {
                    ticket = t;
                    polls += 1;
                    std::thread::yield_now();
                }
            }
        };
        assert_eq!(resp, 2);
        assert!(polls > 0, "a 30ms handler cannot complete instantly");
    }

    #[test]
    fn wait_any_timeout_returns_promptly_on_quiescent_plane() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let slow = t.register(|x| {
            std::thread::sleep(Duration::from_millis(400));
            x
        });
        let server = RingServer::spawn(t, 4, generous());
        let r = server.requester();
        let mut tickets = vec![r.submit(slow, 7).unwrap()];
        let start = Instant::now();
        let timeout = Duration::from_millis(5);
        // The ticket cannot complete within the timeout, so this must
        // come back `Ok(None)` near the deadline — not after the old
        // 64-yield deadline stride let scheduler quanta pile up.
        let reaped = r.wait_any_timeout(&mut tickets, timeout).unwrap();
        let elapsed = start.elapsed();
        assert!(reaped.is_none(), "a 400ms handler beat a 5ms timeout");
        assert_eq!(tickets.len(), 1, "timeout must leave the ticket in place");
        assert!(
            elapsed < Duration::from_millis(200),
            "timeout overshot: {elapsed:?}"
        );
        // Drain the ticket so shutdown doesn't race the in-flight call.
        let (_, resp) = r.wait_any(&mut tickets).unwrap();
        assert_eq!(resp, 7);
    }

    #[test]
    fn bundle_roundtrip_preserves_order_and_ids() {
        for shape in SHAPES {
            let mut t: CallTable<u64, u64> = CallTable::new();
            let inc = t.register(|x| x + 1);
            let dbl = t.register(|x| x * 2);
            let server = spawn_shape(t, 8, shape, generous());
            let r = server.requester();
            let mut bundle = Bundle::with_capacity(5);
            bundle
                .push(inc, 10)
                .push(dbl, 10)
                .push(inc, 0)
                .push(dbl, 0)
                .push(inc, 41);
            assert_eq!(bundle.len(), 5);
            let results = r.call_bundle(bundle).unwrap();
            let values: Vec<u64> = results.into_iter().map(|x| x.unwrap()).collect();
            assert_eq!(values, [11, 20, 1, 0, 42]);
            // Each bundled call counts as a call; the bundle is one slot.
            assert_eq!(server.stats().calls, 5);
        }
    }

    #[test]
    fn bundle_unknown_id_fails_only_that_call() {
        let (t, sq) = table();
        let server = RingServer::spawn(t, 4, generous());
        let r = server.requester();
        let mut bundle = Bundle::new();
        bundle.push(sq, 3).push(999, 1).push(sq, 4);
        let results = r.call_bundle(bundle).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(*results[0].as_ref().unwrap(), 9);
        assert!(matches!(results[1], Err(HotCallError::UnknownCallId(999))));
        assert_eq!(*results[2].as_ref().unwrap(), 16);
    }

    #[test]
    fn empty_bundle_is_rejected() {
        let (t, _) = table();
        let server = RingServer::spawn(t, 4, generous());
        let r = server.requester();
        assert!(matches!(
            r.submit_bundle(Bundle::new()),
            Err(HotCallError::InvalidConfig(_))
        ));
    }

    #[test]
    fn bundles_interleave_with_single_calls() {
        let (t, sq) = table();
        let server = RingServer::spawn_pool(t, 8, 2, generous()).unwrap();
        let r = server.requester();
        for round in 0..50u64 {
            let single = r.submit(sq, round).unwrap();
            let mut bundle = Bundle::new();
            for i in 0..4u64 {
                bundle.push(sq, round * 10 + i);
            }
            let bt = r.submit_bundle(bundle).unwrap();
            let results = r.wait_bundle(bt).unwrap();
            for (i, got) in results.into_iter().enumerate() {
                let x = round * 10 + i as u64;
                assert_eq!(got.unwrap(), x * x);
            }
            assert_eq!(r.wait(single).unwrap(), round * round);
        }
        assert_eq!(server.stats().calls, 250);
    }

    #[test]
    fn wraps_many_times() {
        for shape in SHAPES {
            let (t, sq) = table();
            let server = spawn_shape(t, 2, shape, generous());
            let r = server.requester();
            for i in 0..5_000u64 {
                assert_eq!(r.call(sq, i).unwrap(), i * i);
            }
            assert_eq!(server.stats().calls, 5_000);
        }
    }

    #[test]
    fn concurrent_requesters_share_the_ring() {
        let (t, sq) = table();
        let server = RingServer::spawn(t, 4, generous());
        let mut handles = Vec::new();
        for th in 0..3u64 {
            let r = server.requester();
            handles.push(std::thread::spawn(move || {
                (0..500u64)
                    .map(|i| r.call(sq, th * 1_000 + i).unwrap())
                    .sum::<u64>()
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let want: u64 = (0..3u64)
            .flat_map(|th| (0..500u64).map(move |i| (th * 1_000 + i) * (th * 1_000 + i)))
            .sum();
        assert_eq!(total, want);
        assert_eq!(server.stats().calls, 1_500);
    }

    #[test]
    fn unknown_id_propagates() {
        let (t, _) = table();
        let server = RingServer::spawn(t, 2, generous());
        let r = server.requester();
        assert!(matches!(
            r.call(42, 1),
            Err(HotCallError::UnknownCallId(42))
        ));
    }

    #[test]
    fn fallback_runs_locally_on_timeout() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let slow = t.register(|x| {
            std::thread::sleep(Duration::from_millis(200));
            x
        });
        // Capacity-1 ring: while the slow call is in flight the ring is
        // full, so a second requester times out and falls back.
        let server = RingServer::spawn(
            t,
            1,
            HotCallConfig {
                timeout_retries: 2,
                spins_per_retry: 4,
                ..HotCallConfig::default()
            },
        );
        let r1 = server.requester();
        let r2 = server.requester();
        let blocker = std::thread::spawn(move || r1.call(slow, 7).unwrap());
        std::thread::sleep(Duration::from_millis(50));
        let v = r2.call_with_fallback(slow, 5, |x| x + 100).unwrap();
        assert_eq!(v, 105);
        assert!(r2.stats().fallbacks >= 1);
        assert_eq!(blocker.join().unwrap(), 7);
    }

    #[test]
    fn shutdown_fails_future_calls() {
        for shape in SHAPES {
            let (t, sq) = table();
            let server = spawn_shape(t, 2, shape, generous());
            let r = server.requester();
            assert_eq!(r.call(sq, 3).unwrap(), 9);
            server.shutdown();
            assert!(matches!(r.submit(sq, 1), Err(HotCallError::ResponderGone)));
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let (t, _) = table();
        let _ = RingServer::spawn(t, 0, generous());
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        let bad = |capacity, shards, policy| {
            let (t, _) = table();
            matches!(
                RingServer::spawn_sharded(t, capacity, shards, policy, generous()),
                Err(HotCallError::InvalidConfig(_))
            )
        };
        assert!(bad(0, 1, ResponderPolicy::fixed(2)));
        assert!(bad(8, 1, ResponderPolicy::fixed(0)));
        assert!(bad(8, 1, ResponderPolicy::elastic(2, 1)));
        assert!(bad(8, 2, ResponderPolicy::elastic(0, 2)));
        assert!(bad(8, 2, ResponderPolicy::elastic(3, 2)));
        assert!(bad(8, 0, ResponderPolicy::fixed(2)));
        // Every shard needs a home responder.
        assert!(bad(8, 3, ResponderPolicy::fixed(2)));
        let (t, _) = table();
        assert!(matches!(
            RingServer::spawn_pool(t, 8, 0, generous()),
            Err(HotCallError::InvalidConfig(_))
        ));
    }

    #[test]
    fn pool_services_concurrent_requesters() {
        let (t, sq) = table();
        let server = RingServer::spawn_pool(t, 16, 3, generous()).unwrap();
        assert_eq!(server.responders(), 3);
        let mut handles = Vec::new();
        for th in 0..4u64 {
            let r = server.requester();
            handles.push(std::thread::spawn(move || {
                (0..400u64)
                    .map(|i| r.call(sq, th * 1_000 + i).unwrap())
                    .sum::<u64>()
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let want: u64 = (0..4u64)
            .flat_map(|th| (0..400u64).map(move |i| (th * 1_000 + i) * (th * 1_000 + i)))
            .sum();
        assert_eq!(total, want);
        assert_eq!(server.stats().calls, 1_600);
    }

    #[test]
    fn pool_batched_drain_handles_bursts() {
        // A tiny drain batch and a large one must both preserve
        // exactly-once results over pipelined bursts.
        for batch in [1u32, 4, 64] {
            let (t, sq) = table();
            let config = HotCallConfig {
                drain_batch: batch,
                ..generous()
            };
            let server = RingServer::spawn_pool(t, 8, 2, config).unwrap();
            let r = server.requester();
            for _ in 0..50 {
                let tickets: Vec<Ticket> = (0..8u64).map(|i| r.submit(sq, i).unwrap()).collect();
                for (i, t) in tickets.into_iter().enumerate() {
                    assert_eq!(r.wait(t).unwrap(), (i * i) as u64, "batch={batch}");
                }
            }
            assert_eq!(server.stats().calls, 400);
        }
    }

    #[test]
    fn pool_idle_sleep_wakes_on_submit() {
        let (t, sq) = table();
        let config = HotCallConfig {
            idle_polls_before_sleep: Some(200),
            ..generous()
        };
        let server = RingServer::spawn_pool(t, 8, 2, config).unwrap();
        let r = server.requester();
        assert_eq!(r.call(sq, 5).unwrap(), 25);
        // Let both responders doze off, then prove a call still lands.
        wait_until("responders never slept", || {
            server.shared.shards[0].doze.sleepers.load(Ordering::SeqCst) >= 2
        });
        assert_eq!(r.call(sq, 6).unwrap(), 36);
        let stats = server.stats();
        assert!(stats.wakeups >= 1, "wakeups not accounted: {stats:?}");
    }

    #[test]
    fn bundle_submission_performs_at_most_one_wake() {
        let (t, sq) = table();
        let config = HotCallConfig {
            idle_polls_before_sleep: Some(100),
            ..generous()
        };
        let server = RingServer::spawn_pool(t, 32, 2, config).unwrap();
        let r = server.requester();
        assert_eq!(r.call(sq, 2).unwrap(), 4);
        // Let every responder doze so the next submission must wake.
        wait_until("responders never slept", || {
            server.shared.shards[0].doze.sleepers.load(Ordering::SeqCst) >= 2
        });
        let before = server.stats().wakeups;
        let mut bundle = Bundle::new();
        for i in 0..16u64 {
            bundle.push(sq, i);
        }
        let results = r.call_bundle(bundle).unwrap();
        assert!(results.into_iter().all(|x| x.is_ok()));
        let woke = server.stats().wakeups - before;
        assert!(woke <= 1, "a 16-call bundle paid {woke} wakes");
    }

    #[test]
    fn occupancy_is_underflow_proof() {
        // The regression this fixes: a stale head snapshot paired with a
        // fresher tail snapshot made `head - tail` underflow. The helper
        // must stay a plain difference for in-order snapshots and must not
        // panic for out-of-order ones.
        type R = RingShared<u64, u64>;
        assert_eq!(R::occupancy(5, 3), 2);
        assert_eq!(R::occupancy(7, 7), 0);
        // Out-of-order snapshot (tail "ahead" of head): wraps instead of
        // panicking, and the huge value safely reads as "full" upstream.
        assert!(R::occupancy(3, 5) >= usize::MAX - 1);
    }

    #[test]
    fn stale_head_stress_on_tiny_ring() {
        // Maximize head/tail snapshot races: capacity-1 ring, several
        // requesters, responders constantly advancing tail. With the old
        // head-then-tail load order this underflowed in debug builds.
        let (t, sq) = table();
        let server = RingServer::spawn_pool(t, 1, 2, generous()).unwrap();
        let mut handles = Vec::new();
        for th in 0..4u64 {
            let r = server.requester();
            handles.push(std::thread::spawn(move || {
                for i in 0..300u64 {
                    let x = th * 100 + i % 50;
                    assert_eq!(r.call(sq, x).unwrap(), x * x);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.stats().calls, 1_200);
    }

    #[test]
    fn drain_scan_never_wraps_onto_a_claimed_run() {
        // Regression for the double dispatch: responder A wins the tail
        // CAS for a run and, before it takes the requests out, responder
        // B scans from the advanced tail. A scan bounded only by the
        // capacity wrapped onto A's still-SUBMITTED slots (capacity 1
        // makes the wrap immediate), won its own CAS — moving `tail`
        // past `head` — and serviced the same slot a second time. The
        // hold point parks A (whichever pool responder claims first)
        // inside that window deterministically; this thread then runs
        // B's drain while the other pool responder keeps scanning too.
        let (t, sq) = table();
        let server = RingServer::spawn_pool(t, 1, 2, generous()).unwrap();
        let shared = &server.shared;
        shared.hold.arm();
        let r = server.requester();
        let ticket = r.submit(sq, 9).unwrap();
        shared.hold.wait_held();
        let shard = &shared.shards[0];
        let held = (shard.tail.load(Ordering::SeqCst), shard.slot(0).state());
        let cell = StatCell::default();
        let mut b = Responder::new(shared, 2, &cell, &generous());
        let won = b.drain(0);
        let tail = shard.tail.load(Ordering::SeqCst);
        // Let A go before asserting: a failure must not leave it parked
        // at the hold point, where shutdown would wait on it forever.
        shared.hold.release();
        assert_eq!(held, (1, SUBMITTED), "A owns the run and has not taken it");
        assert_eq!(won, 0, "B claimed a slot A already owns");
        assert_eq!(tail, 1, "tail passed head");
        assert_eq!(r.wait(ticket).unwrap(), 81);
        assert_eq!(server.stats().calls, 1);
    }

    #[test]
    fn panicking_handler_fails_its_call_and_keeps_the_responder() {
        // One responder, patient claims: before handlers were caught, the
        // panic killed the only responder and both this call and the
        // next one hung — the watchdog turns such a hang into a failure.
        // Under `FusedMode::Always` the handler runs on the caller's own
        // thread instead, and must fail the same way.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for config in [generous(), HotCallConfig::fused(FusedMode::Always)] {
                let mut t: CallTable<u64, u64> = CallTable::new();
                let boom = t.register(|x| {
                    assert!(x != 13, "unlucky request");
                    x
                });
                let server = RingServer::spawn_pool(t, 4, 1, config).unwrap();
                let r = server.requester();
                assert!(matches!(
                    r.call(boom, 13),
                    Err(HotCallError::HandlerPanicked)
                ));
                assert_eq!(r.call(boom, 12).unwrap(), 12, "{config:?}");
                // Submitted and bundled calls fail per call, too.
                let ticket = r.submit(boom, 13).unwrap();
                assert!(matches!(r.wait(ticket), Err(HotCallError::HandlerPanicked)));
                let mut bundle = Bundle::new();
                bundle.push(boom, 1).push(boom, 13).push(boom, 2);
                let results = r.call_bundle(bundle).unwrap();
                assert_eq!(*results[0].as_ref().unwrap(), 1);
                assert!(matches!(results[1], Err(HotCallError::HandlerPanicked)));
                assert_eq!(*results[2].as_ref().unwrap(), 2);
                assert_eq!(r.call(boom, 5).unwrap(), 5);
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("a panicking handler hung or failed the plane");
    }

    #[test]
    fn static_pool_governor_is_inert() {
        let (t, sq) = table();
        let server = RingServer::spawn_pool(t, 8, 3, generous()).unwrap();
        let r = server.requester();
        for i in 0..500u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
        }
        let g = server.governor_stats();
        assert_eq!((g.active, g.parked), (3, 0));
        assert_eq!((g.parks, g.wakes), (0, 0));
        assert_eq!((g.min, g.max), (3, 3));
    }

    #[test]
    fn governor_parks_surplus_responders_when_idle() {
        for shards in [1, 4] {
            let (t, sq) = table();
            let policy = ResponderPolicy {
                park_after_idle_polls: 64,
                ..ResponderPolicy::elastic(1, 4)
            };
            let config = HotCallConfig {
                idle_polls_before_sleep: Some(1_000_000),
                ..generous()
            };
            let server = RingServer::spawn_sharded(t, 16, shards, policy, config).unwrap();
            assert_eq!(server.responders(), 4);
            let r = server.requester();
            assert_eq!(r.call(sq, 3).unwrap(), 9);
            // With no work, the three governable responders demote
            // themselves top-down and park.
            wait_until("never parked", || {
                let g = server.governor_stats();
                g.active == 1 && g.parked == 3
            });
            assert!(server.governor_stats().parks >= 3);
            // The router only assigns to the surviving active shard, and
            // the remaining responder still serves calls.
            assert_eq!(server.requester().home(), 0);
            assert_eq!(r.call(sq, 5).unwrap(), 25);
        }
    }

    #[test]
    fn governor_wakes_parked_responders_on_backlog() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let slow = t.register(|x| {
            std::thread::sleep(Duration::from_millis(2));
            x + 1
        });
        let policy = ResponderPolicy {
            park_after_idle_polls: 64,
            target_occupancy: 1,
            ..ResponderPolicy::elastic(1, 4)
        };
        let server = RingServer::spawn_adaptive(t, 32, policy, generous()).unwrap();
        let r = server.requester();
        // Let the pool park down to the minimum first.
        wait_until("never parked", || server.governor_stats().active == 1);
        // Pipeline a burst of blocking calls: occupancy builds behind the
        // single active responder, requesters raise the target, parked
        // responders wake and help.
        let mut tickets: Vec<Ticket> = (0..24u64).map(|i| r.submit(slow, i).unwrap()).collect();
        while !tickets.is_empty() {
            let (_, resp) = r.wait_any(&mut tickets).unwrap();
            assert!(resp >= 1);
        }
        let g = server.governor_stats();
        assert!(g.wakes >= 1, "backlog never raised the target: {g:?}");
        assert_eq!(server.stats().calls, 24);
    }

    #[test]
    fn fused_always_runs_calls_inline() {
        for shape in SHAPES {
            let (t, sq) = table();
            let server = spawn_shape(t, 4, shape, HotCallConfig::fused(FusedMode::Always));
            let r = server.requester();
            for i in 0..100u64 {
                assert_eq!(r.call(sq, i).unwrap(), i * i);
            }
            let s = server.stats();
            assert_eq!(s.calls, 100);
            // `call` with Always never touches the ring at all.
            assert_eq!(s.fused_runs, 100, "{s:?}");
        }
    }

    #[test]
    fn fused_call_propagates_unknown_id() {
        let (t, _) = table();
        let server = RingServer::spawn(t, 4, HotCallConfig::fused(FusedMode::Always));
        let r = server.requester();
        assert!(matches!(
            r.call(42, 1),
            Err(HotCallError::UnknownCallId(42))
        ));
    }

    #[test]
    fn fused_submit_self_services_and_redeems() {
        for shape in SHAPES {
            let (t, sq) = table();
            let server = spawn_shape(t, 8, shape, HotCallConfig::fused(FusedMode::Always));
            let r = server.requester();
            let ticket = r.submit(sq, 6).unwrap();
            assert_eq!(r.wait(ticket).unwrap(), 36);
            let s = server.stats();
            // The submission either self-serviced or lost the race to a
            // responder (counted as a fallback) — never both, never
            // neither.
            assert_eq!(s.fused_runs + s.fused_fallbacks, 1, "{s:?}");
            assert_eq!(s.calls, 1);
            let mut bundle = Bundle::new();
            bundle.push(sq, 2).push(sq, 3);
            let results = r.call_bundle(bundle).unwrap();
            let values: Vec<u64> = results.into_iter().map(|x| x.unwrap()).collect();
            assert_eq!(values, [4, 9]);
            assert_eq!(server.stats().calls, 3);
        }
    }

    #[test]
    fn fused_pipelining_redeems_oldest_and_never_wedges_on_wrap() {
        // Regression: with instantly-completing fused submissions every
        // outstanding ticket is DONE at scan time, and a first-found
        // `wait_any` kept redeeming whichever ticket `swap_remove` had
        // rotated to the front — always the youngest — while older DONE
        // slots sat un-redeemed until the head lapped onto one and
        // `submit` spun forever on a slot only this very thread could
        // free. Oldest-first redemption keeps the lap ahead of the
        // in-flight window; this loop wraps the 8-slot ring dozens of
        // times.
        for shape in SHAPES {
            let (t, sq) = table();
            let server = spawn_shape(t, 8, shape, HotCallConfig::fused(FusedMode::Always));
            let r = server.requester_on(0).unwrap();
            let mut tickets: Vec<Ticket> = Vec::new();
            let mut submitted = 0u64;
            let mut redeemed = 0u64;
            while redeemed < 500 {
                while tickets.len() < 4 {
                    tickets.push(r.submit(sq, submitted).unwrap());
                    submitted += 1;
                }
                let (_, resp) = r.wait_any(&mut tickets).unwrap();
                assert!(resp <= (submitted - 1) * (submitted - 1));
                redeemed += 1;
            }
            while !tickets.is_empty() {
                r.wait_any(&mut tickets).unwrap();
                redeemed += 1;
            }
            assert_eq!(redeemed, submitted);
            assert_eq!(server.stats().calls, submitted);
        }
    }

    #[test]
    fn fused_auto_uses_the_pool_when_responders_are_hot() {
        // Auto fusing on a plane whose responders never doze: occupancy is
        // low but the home shard is attended, so the call must ride the
        // pool and count as a fused fallback.
        for shape in SHAPES {
            let (t, sq) = table();
            let config = HotCallConfig {
                fused_mode: FusedMode::Auto,
                idle_polls_before_sleep: None,
                ..HotCallConfig::patient()
            };
            let server = spawn_shape(t, 4, shape, config);
            let r = server.requester();
            assert_eq!(r.call(sq, 9).unwrap(), 81);
            let s = server.stats();
            assert_eq!(s.calls, 1);
            assert_eq!(s.fused_runs, 0, "{s:?}");
            assert_eq!(s.fused_fallbacks, 1, "{s:?}");
        }
    }

    #[test]
    fn fused_auto_fuses_once_the_home_responders_doze() {
        for shape in SHAPES {
            let (t, sq) = table();
            let config = HotCallConfig {
                fused_mode: FusedMode::Auto,
                idle_polls_before_sleep: Some(64),
                ..HotCallConfig::patient()
            };
            let server = spawn_shape(t, 8, shape, config);
            let r = server.requester_on(0).unwrap();
            let homed = shape.1 / shape.0;
            wait_until("home responders never dozed", || {
                server.shared.shards[0].doze.sleepers.load(Ordering::SeqCst) >= homed
            });
            let before_wakes = server.stats().wakeups;
            // Quiet plane, every home responder dozing: the call runs
            // inline and pays no wake.
            assert_eq!(r.call(sq, 12).unwrap(), 144);
            let s = server.stats();
            assert_eq!(s.fused_runs, 1, "{s:?}");
            assert_eq!(s.wakeups, before_wakes, "a fused call paid a wake");
        }
    }

    #[test]
    fn fused_and_pooled_paths_interleave_without_loss() {
        for shape in SHAPES {
            let (t, sq) = table();
            let config = HotCallConfig {
                fused_mode: FusedMode::Auto,
                idle_polls_before_sleep: Some(64),
                ..HotCallConfig::patient()
            };
            let server = spawn_shape(t, 8, shape, config);
            let r = server.requester();
            // Alternate quiet single calls (fuse once responders doze)
            // with pipelined bursts (occupancy pushes past break-even →
            // pooled). Exact conservation across the mixed paths is the
            // invariant.
            for round in 0..50u64 {
                assert_eq!(r.call(sq, round).unwrap(), round * round);
                let mut tickets: Vec<Ticket> = (0..4u64)
                    .map(|i| r.submit(sq, round * 10 + i).unwrap())
                    .collect();
                while !tickets.is_empty() {
                    r.wait_any(&mut tickets).unwrap();
                }
            }
            assert_eq!(server.stats().calls, 250);
        }
    }

    #[test]
    fn fused_auto_submissions_ride_the_pool() {
        // Pipelined submissions never fuse under `Auto`, even with the
        // break-even gate wide open (dozing responder, empty ring): the
        // async caller asked for overlap, and an inline completion would
        // keep occupancy at zero so the plane never hands a burst to the
        // pool at all.
        let (t, sq) = table();
        let config = HotCallConfig {
            fused_mode: FusedMode::Auto,
            idle_polls_before_sleep: Some(64),
            ..HotCallConfig::patient()
        };
        let server = spawn_shape(t, 8, (2, 2), config);
        let r = server.requester_on(0).unwrap();
        wait_until("responder never dozed", || {
            server.shared.shards[0].doze.sleepers.load(Ordering::SeqCst) > 0
        });
        let mut tickets: Vec<Ticket> = (0..4u64).map(|i| r.submit(sq, i).unwrap()).collect();
        while !tickets.is_empty() {
            r.wait_any(&mut tickets).unwrap();
        }
        let s = server.stats();
        assert_eq!(s.calls, 4);
        assert_eq!(s.fused_runs, 0, "{s:?}");
    }

    #[test]
    fn router_round_robins_over_active_shards() {
        let (t, _) = table();
        let server = spawn_shape(t, 4, (3, 3), generous());
        let homes: Vec<usize> = (0..6).map(|_| server.requester().home()).collect();
        assert_eq!(homes, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn affinity_override_pins_and_validates() {
        let (t, sq) = table();
        let server = spawn_shape(t, 4, (2, 2), generous());
        let r1 = server.requester_on(1).unwrap();
        assert_eq!(r1.home(), 1);
        assert_eq!(r1.call(sq, 6).unwrap(), 36);
        assert!(matches!(
            server.requester_on(2),
            Err(HotCallError::InvalidConfig(_))
        ));
        // The call landed on shard 1's ring.
        let rs = server.ring_stats();
        assert_eq!(rs.shards.len(), 2);
        let serviced: u64 = rs.shards.iter().map(|s| s.serviced).sum();
        assert_eq!(serviced, 1);
    }

    #[test]
    fn requesters_on_distinct_shards_never_share_a_ring() {
        let (t, sq) = table();
        let server = spawn_shape(t, 8, (2, 2), generous());
        let mut handles = Vec::new();
        for shard in 0..2usize {
            let r = server.requester_on(shard).unwrap();
            handles.push(std::thread::spawn(move || {
                (0..500u64)
                    .map(|i| r.call(sq, shard as u64 * 1_000 + i).unwrap())
                    .sum::<u64>()
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let want: u64 = (0..2u64)
            .flat_map(|s| (0..500u64).map(move |i| (s * 1_000 + i) * (s * 1_000 + i)))
            .sum();
        assert_eq!(total, want);
        assert_eq!(server.stats().calls, 1_000);
    }

    #[test]
    fn requester_near_prefers_the_same_core_shard() {
        let (t, sq) = table();
        let server = spawn_shape(t, 8, (4, 4), generous());
        let topo = Topology::default();
        // A requester sharing its core with shard 2's responder homes
        // there: the handoff is free.
        let r = server.requester_near(2, &topo);
        assert_eq!(r.home, 2);
        assert_eq!(r.call(sq, 6).unwrap(), 36);
        // Repeated placement on the same core is deterministic — no tie
        // to rotate through.
        assert_eq!(server.requester_near(2, &topo).home, 2);
    }

    #[test]
    fn requester_near_rotates_equidistant_shards() {
        let (t, _sq) = table();
        let server = spawn_shape(t, 8, (4, 4), generous());
        // Core 6 is on node 1; shards 0..4 all live on node 0, so every
        // active shard ties at the cross-node cost and the router spreads
        // the requesters round-robin instead of convoying on shard 0.
        let topo = Topology::default();
        let homes: std::collections::HashSet<usize> = (0..4)
            .map(|_| server.requester_near(6, &topo).home)
            .collect();
        assert_eq!(homes.len(), 4, "ties rotate over all equidistant shards");
    }

    #[test]
    fn requester_near_never_picks_a_parked_shard() {
        let (t, sq) = table();
        let server =
            RingServer::spawn_sharded(t, 8, 4, ResponderPolicy::elastic(1, 4), generous()).unwrap();
        let topo = Topology::default();
        // Force the governor down to one active shard: shard 3 may be the
        // requester's same-core neighbour, but it is parked, so the
        // router settles for the cheapest *active* shard.
        server
            .shared
            .governor
            .active_target
            .store(1, Ordering::SeqCst);
        let r = server.requester_near(3, &topo);
        assert_eq!(r.home, 0);
        assert_eq!(r.call(sq, 5).unwrap(), 25);
    }

    #[test]
    fn stealers_reap_a_skewed_shard() {
        // Every submission lands on shard 0 while shard 1's responder has
        // nothing of its own: the completions must still arrive, and the
        // plane must record sibling probes.
        let (t, sq) = table();
        let server = spawn_shape(t, 16, (2, 2), generous());
        let r = server.requester_on(0).unwrap();
        for round in 0..50u64 {
            let tickets: Vec<Ticket> = (0..8u64)
                .map(|i| r.submit(sq, round * 10 + i).unwrap())
                .collect();
            for (i, ticket) in tickets.into_iter().enumerate() {
                let x = round * 10 + i as u64;
                assert_eq!(r.wait(ticket).unwrap(), x * x);
            }
        }
        assert_eq!(server.stats().calls, 400);
        // Read the counters after the join: shard 1's responder probes
        // shard 0 on every pass over its empty home, and its exit pass
        // (a full empty pass) flushes them, so the witness below does not
        // depend on an idle flush landing before the snapshot.
        let provider = server.telemetry_provider("skew");
        server.shutdown();
        let rs = provider().stats;
        // Shard 1's responder had an empty home shard the whole run: its
        // probes of shard 0 are the steals.
        assert!(rs.shards[1].steals > 0, "{rs:?}");
        assert_eq!(rs.shards[0].shard, 0);
        assert_eq!(
            rs.shards.iter().map(|s| s.serviced).sum::<u64>(),
            400,
            "{rs:?}"
        );
    }

    #[test]
    fn parked_shard_residue_is_reaped_by_stealers() {
        let (t, sq) = table();
        let policy = ResponderPolicy {
            park_after_idle_polls: 64,
            ..ResponderPolicy::elastic(1, 3)
        };
        let config = HotCallConfig {
            idle_polls_before_sleep: Some(1_000_000),
            ..generous()
        };
        let server = RingServer::spawn_sharded(t, 8, 3, policy, config).unwrap();
        // Pin to the top shard, then let the governor park it down to one
        // active shard.
        let r = server.requester_on(2).unwrap();
        assert_eq!(r.call(sq, 3).unwrap(), 9);
        wait_until("never parked", || server.governor_stats().active == 1);
        // Shard 2 is parked; its home responder sleeps on the park doze.
        // A call submitted there must still complete — reaped by an
        // active stealer, woken through the cross-shard redirect.
        for i in 0..50u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
        }
        let rs = server.ring_stats();
        assert!(rs.shards[2].parked, "{rs:?}");
        assert!(
            rs.steal_hits() > 0 || rs.shards[2].serviced > 0,
            "residue never reaped: {rs:?}"
        );
    }

    #[test]
    fn auto_policy_resolves_and_serves() {
        let (t, sq) = table();
        let policy = ResponderPolicy::auto();
        let server = RingServer::spawn_sharded(t, 4, policy.max, policy, generous()).unwrap();
        assert!(server.shards() >= 1);
        let r = server.requester();
        for i in 0..100u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
        }
    }

    #[test]
    fn park_unpark_race_never_strands_a_submission() {
        // Regression for the wake_for park/unpark race: the redirect
        // decision must come from one coherent snapshot taken before the
        // home wake attempt, and a demoting responder must re-check its
        // shard front before going dark. Race a requester pinned to the
        // top shard against an aggressive governor; every call must
        // complete well inside the deadline.
        let (t, sq) = table();
        let policy = ResponderPolicy {
            park_after_idle_polls: 16,
            ..ResponderPolicy::elastic(1, 3)
        };
        let config = HotCallConfig {
            idle_polls_before_sleep: Some(32),
            ..generous()
        };
        let server = RingServer::spawn_sharded(t, 4, 3, policy, config).unwrap();
        let r = server.requester_on(2).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        for i in 0..3_000u64 {
            assert_eq!(r.call(sq, i).unwrap(), i * i);
            assert!(
                Instant::now() < deadline,
                "stranded after {i} calls: {:?}",
                server.ring_stats()
            );
            if i % 64 == 0 {
                // Let demotions ripen between bursts so the parked window
                // is actually exercised.
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        assert_eq!(server.stats().calls, 3_000);
    }
}
