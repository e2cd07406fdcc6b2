//! The responder pool of the ring engine: batched drain with one tail CAS
//! per batch, work stealing across shards, and the governor that parks
//! surplus responders.
//!
//! Responder `i` homes on shard `i % shards` and runs [`responder_loop`]:
//! [`Responder::drain`] its home shard, and only when that is empty probe
//! the sibling shards in an order rotated per pass (with one shard there
//! is nothing to probe — the paper's shared ring). A drain scans up to
//! `drain_batch` contiguous `SUBMITTED` slots starting at `tail`, claims
//! the whole run with a single CAS on `tail`, then services the claimed
//! slots privately. The CAS is the ownership transfer — winning it while
//! `tail` is unchanged proves no other responder (home or stealer) touched
//! those slots (`tail` is monotonic, so there is no ABA), and requesters
//! cannot recycle a slot until it is serviced *and* redeemed. A lost CAS
//! retries at once from the fresh tail and never counts as an idle pass,
//! so it does not move the governor's or the autosizer's poll ratios.
//! Batching amortizes both the CAS and the wake/schedule cost of the
//! drain, which is where switchless designs win under IO-heavy load.
//!
//! With an adaptive [`ResponderPolicy`] the loop grows two extra branches:
//!
//! * **Park** — a responder whose index is at or above the governor's
//!   active target sleeps on the *park* doze, which per-call wakeups never
//!   touch. This is what fixes the oversubscription regression: a parked
//!   responder costs nothing, whereas an idle-dozing one is woken on every
//!   submission, loses the tail race, spins a full idle streak, and
//!   re-dozes — stealing the requester's core the whole time. A shard
//!   whose home responders are all parked is left to the stealers, and
//!   the router stops assigning requesters to it.
//! * **Demote** — `polls_since_work` tracks this responder's useful-work
//!   ratio: every empty pass adds one, every slot won subtracts a bounded
//!   credit ([`WIN_CREDIT_POLLS`]). Unlike the doze `idle_streak`, it is
//!   NOT reset by waking from the doze, and deliberately NOT zeroed by a
//!   win either: in a saturated one-requester stream every churning
//!   responder wins scraps every few calls, and a plain drought counter
//!   never ripens — which is exactly how the 1×4 oversubscription
//!   regression survived idleness detection. Once the deficit passes
//!   `policy.park_after_idle_polls`, the top active responder lowers the
//!   target by one and parks itself on the next iteration. Lower indices
//!   inherit "top" status with their counters already ripe, so an
//!   overprovisioned pool cascades down to its demand point quickly (the
//!   occupancy- and age-triggered raises pull it back up).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::config::{HotCallConfig, ResponderPolicy};
use crate::telemetry::{now_cycles, trace, TELEMETRY_ENABLED};

use super::ring::{ReqEnvelope, RespEnvelope, RingShared, RingSlot};
use super::slot::{Backoff, CachePadded, Doze, LocalStats, StatCell, SUBMITTED};
use super::CallTable;

/// Poll credit earned per slot won: a responder that wins at least one
/// slot per this many polls is earning its keep; one that mostly loses
/// the tail race ripens toward demotion even though it never goes fully
/// dry.
const WIN_CREDIT_POLLS: u64 = 64;

/// The pool's control block. For static pools (`min == max`) the governor
/// is inert: no requester or responder ever branches into it.
pub(super) struct GovernorState {
    pub(super) policy: ResponderPolicy,
    /// Responders with index below this are active; the rest park. Only
    /// moves inside `[min, max]`. Shard `s` keeps an active home
    /// responder exactly while `s` is below it.
    pub(super) active_target: CachePadded<AtomicUsize>,
    /// Where parked responders sleep. Separate from the work dozes on
    /// purpose: per-call wakeups must never reach a parked responder —
    /// that churn is exactly the oversubscription regression the governor
    /// exists to fix.
    pub(super) park_doze: Doze,
    /// Responders currently parked (gauge).
    pub(super) parked_now: AtomicUsize,
    /// Park decisions taken (a responder left the active set).
    pub(super) parks: AtomicU64,
    /// Wake decisions taken (the target was raised on backlog).
    pub(super) wakes: AtomicU64,
}

impl GovernorState {
    pub(super) fn new(policy: ResponderPolicy) -> Self {
        // Start wide: all `max` responders active, and let idleness park
        // the surplus. Cold-start backlog never waits on a governor
        // decision this way; quiet periods converge to `min` within one
        // park threshold per surplus responder.
        GovernorState {
            policy,
            active_target: CachePadded::new(AtomicUsize::new(policy.max)),
            park_doze: Doze::new(),
            parked_now: AtomicUsize::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        }
    }

    /// Is there anything to govern?
    #[inline]
    pub(super) fn adaptive(&self) -> bool {
        self.policy.is_adaptive()
    }

    /// The current active target.
    #[inline]
    pub(super) fn active(&self) -> usize {
        self.active_target.load(Ordering::Acquire)
    }

    /// Raises the active target by one (up to `max`) and wakes the parked
    /// responders so the newly admitted one starts draining. Called by
    /// requesters when they observe backlog or in-flight age.
    pub(super) fn try_raise(&self) -> bool {
        let t = self.active_target.load(Ordering::Relaxed);
        if t >= self.policy.max {
            return false;
        }
        if self
            .active_target
            .compare_exchange(t, t + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        self.wakes.fetch_add(1, Ordering::Relaxed);
        trace("governor_raise", (t + 1) as u64, self.policy.max as u64);
        // Wake *all* parked responders: each re-checks its index against
        // the new target and the surplus re-parks. notify_one could hand
        // the wake to a responder that stays parked, stranding the one
        // the raise admitted.
        self.park_doze.wake_all();
        true
    }

    /// Lowers the active target by one. Only the *top* active responder
    /// (`index == target - 1`) may demote, so the active set stays the
    /// contiguous prefix `0..target` and parking is deterministic.
    fn try_demote(&self, index: usize) -> bool {
        if index < self.policy.min {
            return false;
        }
        let t = self.active_target.load(Ordering::Relaxed);
        if t <= self.policy.min || index != t - 1 {
            return false;
        }
        let demoted = self
            .active_target
            .compare_exchange(t, t - 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        if demoted {
            trace("governor_park", index as u64, (t - 1) as u64);
        }
        demoted
    }

    /// Sets the active target directly, clamped into `[min, max]`, and
    /// returns the value installed. The external control surface for the
    /// `ctl` sizer: responders notice the new target on their next poll —
    /// surplus ones park themselves, and a raise wakes the parked set so
    /// newly admitted responders start draining.
    pub(super) fn set_target(&self, n: usize) -> usize {
        let n = n.clamp(self.policy.min, self.policy.max);
        let prev = self.active_target.swap(n, Ordering::AcqRel);
        if n > prev {
            self.wakes.fetch_add(1, Ordering::Relaxed);
            trace("governor_raise", n as u64, self.policy.max as u64);
            self.park_doze.wake_all();
        } else if n < prev {
            trace("governor_park", prev as u64, n as u64);
        }
        n
    }
}

impl core::fmt::Debug for GovernorState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("GovernorState")
            .field("policy", &self.policy)
            .field("active", &self.active_target.load(Ordering::Relaxed))
            .field("parked", &self.parked_now.load(Ordering::Relaxed))
            .finish()
    }
}

/// Runs every call an envelope carries and returns the slot's result plus
/// the number of calls run (1, or the bundle length). A bad id or a
/// panicking handler fails only its own call: a bundle keeps per-call
/// errors inside its result vector.
fn run_envelope<Req, Resp>(
    table: &CallTable<Req, Resp>,
    id: u32,
    env: ReqEnvelope<Req>,
) -> (crate::Result<RespEnvelope<Resp>>, u64) {
    match env {
        ReqEnvelope::One(req) => (table.invoke(id, req).map(RespEnvelope::One), 1),
        ReqEnvelope::Bundle(calls) => {
            let n = calls.len() as u64;
            let results = calls
                .into_iter()
                .map(|(call_id, req)| table.invoke(call_id, req))
                .collect();
            (Ok(RespEnvelope::Bundle(results)), n)
        }
    }
}

/// Services one claimed slot on a responder: take the request envelope,
/// dispatch it, publish the response.
///
/// Stats are flushed to `cell` *before* the `DONE` hand-off so
/// `stats().calls` (and the steal counters of the pass that claimed the
/// slot) are exact the moment the waiting requester's Acquire sees the
/// completion.
///
/// # Safety
///
/// The caller must own servicing of `slot`: it observed `SUBMITTED` with
/// `Acquire` and won the tail CAS covering this slot, and calls this at
/// most once per claim.
unsafe fn service_slot<Req, Resp>(
    slot: &RingSlot<Req, Resp>,
    table: &CallTable<Req, Resp>,
    local: &mut LocalStats,
    cell: &StatCell,
) {
    // Dispatch-stage edge: the time between the requester's submit stamp
    // and this pickup is the call's queueing delay. Recorded into this
    // responder's single-writer cell — stolen slots are attributed to the
    // stealing responder, keeping the cell single-writer.
    let t_dispatch = if TELEMETRY_ENABLED {
        let t = now_cycles();
        cell.stages
            .queue
            .record(t.saturating_sub(slot.submitted_at()));
        t
    } else {
        0
    };
    // SAFETY: forwarded from the caller's contract — exclusive service
    // ownership of this slot, SUBMITTED observed with Acquire.
    let (id, env) = unsafe { slot.take_request() };
    let (result, n) = run_envelope(table, id, env);
    local.calls += n;
    local.busy_polls += 1;
    if TELEMETRY_ENABLED {
        // Complete-stage edge: dispatch → now is the service time.
        cell.stages
            .service
            .record(now_cycles().saturating_sub(t_dispatch));
    }
    local.flush(cell);
    // SAFETY: this thread took the request for this slot above.
    unsafe { slot.finish(result) };
}

/// Services one claimed slot on a *requester* thread — the fused
/// run-to-completion path. Mirrors [`service_slot`] minus the responder
/// bookkeeping: requesters own no single-writer stat cell or stage
/// histograms, so the caller accounts the returned call count into the
/// plane's shared `fused_runs` counter instead. Returns how many calls
/// the envelope carried (1, or the bundle length).
///
/// # Safety
///
/// As [`service_slot`]: the caller must hold exclusive service ownership
/// of `slot` (it won the tail CAS covering it after publishing
/// `SUBMITTED`), and calls this at most once per claim.
pub(super) unsafe fn service_slot_inline<Req, Resp>(
    slot: &RingSlot<Req, Resp>,
    table: &CallTable<Req, Resp>,
) -> u64 {
    // SAFETY: forwarded from the caller's contract — exclusive service
    // ownership of this slot.
    let (id, env) = unsafe { slot.take_request() };
    let (result, n) = run_envelope(table, id, env);
    // SAFETY: this thread took the request for this slot above.
    unsafe { slot.finish(result) };
    n
}

/// One responder's view of the plane: its index, home shard, and the
/// private counters it flushes into its own stat cell.
pub(super) struct Responder<'a, Req, Resp> {
    plane: &'a RingShared<Req, Resp>,
    index: usize,
    home: usize,
    batch: usize,
    cell: &'a StatCell,
    local: LocalStats,
}

impl<'a, Req, Resp> Responder<'a, Req, Resp> {
    pub(super) fn new(
        plane: &'a RingShared<Req, Resp>,
        index: usize,
        cell: &'a StatCell,
        config: &HotCallConfig,
    ) -> Self {
        Responder {
            plane,
            index,
            home: index % plane.shards.len(),
            batch: config.drain_batch_clamped(),
            cell,
            local: LocalStats::default(),
        }
    }

    /// Claims and services one batched run from the front of shard
    /// `shard_idx` (a steal when it is not the home shard). Returns the
    /// number of slots serviced, 0 only if the shard front is empty: a
    /// tail CAS lost to another claimant retries at once from the fresh
    /// tail, since the shard still had work, so a lost race never counts
    /// toward the idle, demote or doze thresholds.
    pub(super) fn drain(&mut self, shard_idx: usize) -> usize {
        let shard = &self.plane.shards[shard_idx];
        let cap = shard.slots.len();
        let (tail, run) = loop {
            let tail = shard.tail.load(Ordering::Acquire);
            if shard.slots[tail % cap].state() != SUBMITTED {
                // Idle poll: the requesters' head line stays untouched.
                return 0;
            }
            // Scan only slots claimed in this lap: `[tail, head)`, with
            // `head` loaded after `tail` (so `head - tail` cannot
            // underflow). A scan bounded by the capacity alone can wrap
            // onto slots a racing claimant (responder, stealer, or fusing
            // requester) already won with its tail CAS but has not taken
            // yet — still SUBMITTED — and service them a second time.
            let head = shard.head.load(Ordering::Acquire);
            let limit = head.wrapping_sub(tail).min(self.batch);
            let mut run = 0usize;
            while run < limit && shard.slots[tail.wrapping_add(run) % cap].state() == SUBMITTED {
                run += 1;
            }
            if run == 0 {
                return 0;
            }
            if shard
                .tail
                .compare_exchange(
                    tail,
                    tail.wrapping_add(run),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                break (tail, run);
            }
            // Another responder (home or stealer) or a fusing requester
            // claimed the front first; retry with a fresh tail.
            core::hint::spin_loop();
        };
        if shard_idx != self.home {
            // Counted before servicing: `service_slot` flushes before the
            // DONE hand-off, so whoever sees a stolen completion also sees
            // the steal that produced it.
            self.local.steal_hits += 1;
            trace("steal_hit", self.index as u64, shard_idx as u64);
        }
        #[cfg(test)]
        self.plane.hold.reach();
        for i in 0..run {
            let slot = &shard.slots[tail.wrapping_add(i) % cap];
            // SAFETY: the tail CAS above transferred exclusive service
            // ownership of slots [tail, tail+run) on this shard to this
            // thread: tail was unchanged between the SUBMITTED scan and the
            // CAS (tail is monotonic, so CAS success rules out any
            // concurrent claim), the scan stayed in this lap (below
            // `head`), and no requester can recycle these slots before
            // they are serviced here and then redeemed. SUBMITTED was
            // observed with Acquire, so the payload is visible.
            unsafe { service_slot(slot, &self.plane.table, &mut self.local, self.cell) };
        }
        run
    }

    fn flush(&self) {
        self.local.flush(self.cell);
    }
}

/// The loop of responder `index`: drain the home shard first; when it is
/// empty, probe the sibling shards in an order rotated per pass; doze
/// when idle; park when the governor shrinks the active set below this
/// responder.
pub(super) fn responder_loop<Req, Resp>(
    plane: Arc<RingShared<Req, Resp>>,
    index: usize,
    config: HotCallConfig,
) {
    let n = plane.shards.len();
    let gov = &plane.governor;
    let mut me = Responder::new(&plane, index, &plane.responders[index], &config);
    let home = me.home;
    let mut backoff = Backoff::new();
    let mut idle_streak: u64 = 0;
    // Useful-work deficit: +1 per empty pass, -WIN_CREDIT_POLLS per slot
    // won. Never reset by doze wakeups or wins — see the module docs.
    let mut polls_since_work: u64 = 0;
    let mut parked = false;
    // Rotates the sibling probe order so stealers don't convoy on the
    // same victim shard.
    let mut rotation: usize = 0;
    loop {
        if gov.adaptive() && index >= gov.active() {
            // Close the demote-after-publish window before going dark: if
            // this shard just lost its last active home responder, a
            // submission can land on it between the demote CAS and this
            // park (its `wake_for` redirect may have fired while the
            // lowered target was not yet visible to it). Pull the active
            // set back up so it is served, rather than strand the call
            // behind everyone's probe cadence.
            if home >= gov.active() && plane.shards[home].front_submitted() {
                gov.try_raise();
            }
            if !parked {
                parked = true;
                gov.parks.fetch_add(1, Ordering::Relaxed);
                gov.parked_now.fetch_add(1, Ordering::Relaxed);
                me.flush();
            }
            gov.park_doze
                .sleep_unless(|| plane.shutdown.load(Ordering::Acquire) || index < gov.active());
            if plane.shutdown.load(Ordering::Acquire) {
                // Parked responders exit directly; the active set performs
                // the drain-then-exit sweep below.
                gov.parked_now.fetch_sub(1, Ordering::Relaxed);
                me.flush();
                return;
            }
            if index >= gov.active() {
                // A raise woke everyone; we were not the one admitted.
                continue;
            }
            parked = false;
            gov.parked_now.fetch_sub(1, Ordering::Relaxed);
            idle_streak = 0;
            polls_since_work = 0;
            backoff.reset();
        }
        // Home shard first: a busy neighbour can never starve home calls,
        // because stealing only happens when the home shard is empty.
        me.local.home_polls += 1;
        let mut won = me.drain(home);
        if won == 0 && n > 1 {
            rotation = rotation.wrapping_add(1);
            for i in 0..n - 1 {
                let victim = (index + rotation + i) % n;
                if victim == home {
                    continue;
                }
                me.local.steals += 1;
                won = me.drain(victim);
                if won > 0 {
                    break;
                }
            }
        }
        if won > 0 {
            idle_streak = 0;
            polls_since_work = polls_since_work.saturating_sub(won as u64 * WIN_CREDIT_POLLS);
            backoff.reset();
            continue;
        }
        // A full pass (home + every sibling) found nothing.
        if plane.shutdown.load(Ordering::Acquire) {
            // Drain-then-exit: responders keep servicing submitted work
            // after the shutdown flag rises and leave only once every
            // shard front is quiet — the empty full pass doubles as the
            // final sweep (stragglers stuck mid-publish are failed by the
            // waiter's shutdown grace instead).
            me.flush();
            return;
        }
        idle_streak += 1;
        polls_since_work += 1;
        me.local.idle_polls += 1;
        if me.local.idle_polls.is_multiple_of(1024) {
            me.flush();
        }
        // Useful-work drought: the top active responder bows out. The park
        // branch above catches the lowered target next iteration.
        if gov.adaptive()
            && polls_since_work >= gov.policy.park_after_idle_polls
            && gov.try_demote(index)
        {
            continue;
        }
        if let Some(limit) = config.idle_polls_before_sleep {
            if idle_streak >= limit {
                me.flush();
                // Sleep on the *home* doze, but wake for work anywhere:
                // the predicate covers every shard so a stealable
                // submission published before we registered as a sleeper
                // is never slept past.
                plane.shards[home].doze.sleep_unless(|| {
                    plane.shutdown.load(Ordering::Acquire) || plane.any_front_submitted()
                });
                // `idle_streak` restarts (we just slept; spin a full
                // streak before sleeping again) but `polls_since_work`
                // deliberately does not: a responder that keeps being
                // woken without ever winning work must still ripen toward
                // demotion.
                idle_streak = 0;
                backoff.reset();
                continue;
            }
        }
        backoff.snooze();
    }
}

/// A test-only pause between a responder's winning tail CAS and its
/// `take_request`: the first responder to reach an armed hold point parks
/// there until released, so a test can drive a second drain into exactly
/// the window the double-dispatch race needed.
#[cfg(test)]
#[derive(Debug, Default)]
pub(super) struct HoldPoint {
    armed: std::sync::atomic::AtomicBool,
    /// 0 = open, 1 = a responder is held, 2 = released.
    phase: std::sync::Mutex<u8>,
    cv: std::sync::Condvar,
}

#[cfg(test)]
impl HoldPoint {
    pub(super) fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    fn reach(&self) {
        if !self.armed.swap(false, Ordering::SeqCst) {
            return;
        }
        let mut phase = self.phase.lock().unwrap();
        *phase = 1;
        self.cv.notify_all();
        while *phase != 2 {
            phase = self.cv.wait(phase).unwrap();
        }
    }

    /// Blocks until a responder is held at the point.
    pub(super) fn wait_held(&self) {
        let mut phase = self.phase.lock().unwrap();
        while *phase != 1 {
            phase = self.cv.wait(phase).unwrap();
        }
    }

    pub(super) fn release(&self) {
        *self.phase.lock().unwrap() = 2;
        self.cv.notify_all();
    }
}
