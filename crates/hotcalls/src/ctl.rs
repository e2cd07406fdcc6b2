//! The configless control plane: per-API break-even routing and online
//! responder/shard/bundle autosizing.
//!
//! After PRs 1–6 every lever that decides where a call's break-even point
//! falls — responder pool bounds, shard counts, bundle sizes,
//! `fused_below_occupancy`, hot-vs-SDK routing — is a hand-set constant.
//! This module closes the loop the way *SGX Switchless Calls Made
//! Configless* does: the telemetry the data plane already produces (per-API
//! cycles/call, useful-work poll ratios, steal rates, doze wake counts)
//! feeds two controllers that move those knobs online.
//!
//! * [`ApiRouter`] — measures each API's observed cycles/call under the
//!   transports it may ride ([`Transport::Sdk`], [`Transport::Hot`],
//!   [`Transport::Bundled`], [`Transport::Fused`]) and routes each call
//!   site to whichever side of its measured break-even it sits on. The
//!   paper's break-even argument is priced directly into the score: every
//!   switchless transport pays a *standby tax* proportional to the API's
//!   observed inter-arrival gap (a dedicated responder core burns cycles
//!   between calls), so a low-rate API demotes itself back to the SDK
//!   fallback exactly when `rate x (sdk - hot) cycles` stops covering the
//!   core it keeps busy.
//! * [`AutoSizer`] — resizes the active responder target and the bundle
//!   flush threshold from a worker-efficiency metric (the useful-work poll
//!   ratio the governor already exports), replacing the static
//!   `ResponderPolicy` numbers with
//!   [`crate::ResponderPolicy::auto`]-style bounds.
//!
//! Both halves are **hysteretic** — flips require a margin, a minimum
//! sample count, and a cooldown, so a stationary workload converges to a
//! stable routing table with a bounded number of flips — and **observable**:
//! every decision bumps a [`CtlStats`] counter, emits a `ctl_*` trace
//! event, and is exported as `hotcalls_ctl_*` Prometheus lines through the
//! telemetry snapshot's `ctl` section.
//!
//! Under the `telemetry-off` feature the cycle feeds the router needs are
//! compiled out; the controller still compiles and [`ApiRouter::route`]
//! falls back to each API's registered default transport while
//! [`Controller::tick`] stops issuing resize decisions — static policies,
//! zero overhead.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::config::RingStats;
use crate::error::{HotCallError, Result};
use crate::telemetry::{trace, TELEMETRY_ENABLED};

/// The transports a call site can ride, in break-even order of the
/// paper's Table 1: the SDK fallback costs thousands of cycles but keeps
/// no core busy; the switchless transports cost hundreds but stand a
/// responder up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Transport {
    /// The plain SDK ocall/ecall — no responder core on standby.
    Sdk = 0,
    /// A per-call switchless submission through the ring.
    Hot = 1,
    /// Calls packed into bundles of the sizer's flush threshold — one
    /// slot claim and one dispatch per bundle.
    Bundled = 2,
    /// Requester-inline run-to-completion (the fused fast path).
    Fused = 3,
}

impl Transport {
    /// Every transport, in enum order.
    pub const ALL: [Transport; 4] = [
        Transport::Sdk,
        Transport::Hot,
        Transport::Bundled,
        Transport::Fused,
    ];

    /// Census/Prometheus label.
    pub fn label(&self) -> &'static str {
        match self {
            Transport::Sdk => "sdk",
            Transport::Hot => "hot",
            Transport::Bundled => "bundled",
            Transport::Fused => "fused",
        }
    }

    fn from_u8(v: u8) -> Transport {
        Transport::ALL[v as usize & 3]
    }
}

/// Tuning of the per-API router's decision rule. [`CtlPolicy::auto`] is
/// the zero-config shape; every field exists so tests can compress the
/// controller's time constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CtlPolicy {
    /// Observations a transport needs before its estimate is trusted in a
    /// routing decision.
    pub min_samples: u64,
    /// A challenger transport must beat the incumbent's score by this
    /// factor to win a flip (hysteresis: 1.0 flips on any delta and
    /// oscillates on noise).
    pub flip_margin: f64,
    /// Routing decisions are evaluated every this many observations of an
    /// API (decisions off the hot path).
    pub decide_every: u64,
    /// Minimum observations between two flips of the same API — the
    /// bounded-flip-rate guarantee.
    pub cooldown: u64,
    /// Every this many calls, one call is routed over a non-current
    /// transport so estimates of the roads not taken stay fresh. Zero
    /// disables exploration (estimates freeze at their priors).
    pub explore_every: u64,
    /// EWMA smoothing factor for cycles/call and inter-arrival estimates,
    /// in `(0, 1]` (1.0 = last sample wins).
    pub ewma_alpha: f64,
    /// The standby tax: the fraction of an API's inter-arrival gap charged
    /// to every switchless transport's score, pricing the responder core
    /// the transport keeps on call. The break-even this induces is the
    /// paper's: switchless wins iff `sdk - hot > standby_fraction x
    /// inter-arrival`, i.e. iff the call rate is high enough to pay for
    /// the standing core.
    pub standby_fraction: f64,
}

impl Default for CtlPolicy {
    fn default() -> Self {
        CtlPolicy {
            min_samples: 8,
            flip_margin: 1.15,
            decide_every: 32,
            cooldown: 128,
            explore_every: 64,
            ewma_alpha: 0.125,
            standby_fraction: 0.05,
        }
    }
}

impl CtlPolicy {
    /// The zero-config policy (the defaults).
    pub fn auto() -> Self {
        Self::default()
    }

    /// Rejects contradictory knob combinations before a controller starts
    /// acting on them.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] on a non-positive margin or alpha,
    /// an alpha above 1, or a zero decision period.
    pub fn validate(&self) -> Result<()> {
        if self.flip_margin < 1.0 {
            return Err(HotCallError::InvalidConfig(
                "ctl flip margin below 1.0 would flip toward worse transports",
            ));
        }
        if !(self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0) {
            return Err(HotCallError::InvalidConfig(
                "ctl ewma alpha must be in (0, 1]",
            ));
        }
        if self.decide_every == 0 {
            return Err(HotCallError::InvalidConfig(
                "ctl decide_every must be positive",
            ));
        }
        if self.standby_fraction < 0.0 {
            return Err(HotCallError::InvalidConfig(
                "ctl standby fraction must not be negative",
            ));
        }
        Ok(())
    }
}

/// Tuning of the EPC-aware streaming chunk sizer. The rule is the
/// bandwidth analog of the router's break-even: a streamed chunk that
/// fits the resident EPC costs only its marshalling, while one that
/// pushes the enclave's working set past the paging cliff pays EWB/ELDU
/// per byte. The sizer watches *paging cycles per streamed byte* and
/// halves the chunk when the rate crosses [`ChunkPolicy::shrink_above`]
/// (smaller chunks keep the enclave-side working set resident), doubling
/// back once the rate falls under [`ChunkPolicy::grow_below`] (bigger
/// chunks amortize per-chunk call overhead).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkPolicy {
    /// Smallest chunk the sizer will issue — one EPC page, the paging
    /// granularity below which shrinking cannot help.
    pub min_chunk: usize,
    /// Largest chunk (per-chunk call overhead is fully amortized well
    /// before this).
    pub max_chunk: usize,
    /// Where a stream starts before any paging feedback exists.
    pub start_chunk: usize,
    /// Paging cycles per streamed byte above which the chunk halves.
    pub shrink_above: f64,
    /// Paging cycles per streamed byte below which the chunk doubles.
    pub grow_below: f64,
    /// Observations to hold still after a resize (the paging counters
    /// need a window at the new size before they mean anything).
    pub cooldown_ticks: u32,
}

impl Default for ChunkPolicy {
    fn default() -> Self {
        ChunkPolicy {
            min_chunk: 4 << 10,
            max_chunk: 4 << 20,
            start_chunk: 256 << 10,
            shrink_above: 1.0,
            grow_below: 0.125,
            cooldown_ticks: 1,
        }
    }
}

impl ChunkPolicy {
    /// The zero-config policy (the defaults).
    pub fn auto() -> Self {
        Self::default()
    }

    /// Rejects contradictory knob combinations.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] when the bounds are empty, the
    /// start chunk falls outside them, or the watermarks cross.
    pub fn validate(&self) -> Result<()> {
        if self.min_chunk == 0 || self.max_chunk < self.min_chunk {
            return Err(HotCallError::InvalidConfig(
                "chunk bounds must satisfy 1 <= min <= max",
            ));
        }
        if self.start_chunk < self.min_chunk || self.start_chunk > self.max_chunk {
            return Err(HotCallError::InvalidConfig(
                "chunk start must sit inside the bounds",
            ));
        }
        if self.grow_below >= self.shrink_above {
            return Err(HotCallError::InvalidConfig(
                "chunk grow watermark must sit below the shrink watermark",
            ));
        }
        Ok(())
    }
}

/// The online chunk sizer: fed each chunk's paging-cycle delta and byte
/// count, it moves the next chunk size by powers of two inside the
/// policy bounds. Single-owner by design; the [`Controller`] wraps it in
/// a mutex for shared use.
#[derive(Debug)]
pub struct ChunkSizer {
    policy: ChunkPolicy,
    chunk: usize,
    cooldown: u32,
    observes: u64,
    shrinks: u64,
    grows: u64,
}

impl ChunkSizer {
    /// A sizer under `policy`, starting at [`ChunkPolicy::start_chunk`].
    ///
    /// # Errors
    ///
    /// As [`ChunkPolicy::validate`].
    pub fn new(policy: ChunkPolicy) -> Result<Self> {
        policy.validate()?;
        Ok(ChunkSizer {
            policy,
            chunk: policy.start_chunk,
            cooldown: 0,
            observes: 0,
            shrinks: 0,
            grows: 0,
        })
    }

    /// The chunk size the next submission should use.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk
    }

    /// Reports one streamed window: `paging_cycles` charged by the EPC
    /// while `bytes` moved. Returns the new chunk size if the observation
    /// crossed a watermark, `None` on hold. Zero-byte windows are
    /// ignored (no rate to read).
    pub fn observe(&mut self, paging_cycles: u64, bytes: u64) -> Option<usize> {
        if bytes == 0 {
            return None;
        }
        self.observes += 1;
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        let rate = paging_cycles as f64 / bytes as f64;
        if rate > self.policy.shrink_above && self.chunk > self.policy.min_chunk {
            self.chunk = (self.chunk / 2).max(self.policy.min_chunk);
            self.shrinks += 1;
            self.cooldown = self.policy.cooldown_ticks;
            Some(self.chunk)
        } else if rate < self.policy.grow_below && self.chunk < self.policy.max_chunk {
            self.chunk = (self.chunk * 2).min(self.policy.max_chunk);
            self.grows += 1;
            self.cooldown = self.policy.cooldown_ticks;
            Some(self.chunk)
        } else {
            None
        }
    }
}

/// Handle to one registered API in the router's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApiId(usize);

/// Atomic f64 cell (bit-cast storage). Updates are plain load/store —
/// concurrent observers may lose an EWMA step, which only delays
/// convergence; the decision layer re-reads under its own cadence.
#[derive(Debug, Default)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }
}

/// One API's routing state: per-transport cycle estimates plus the flip
/// bookkeeping.
#[derive(Debug)]
struct ApiSlot {
    name: String,
    /// Where calls go before any measurement exists (and always, under
    /// `telemetry-off`).
    default: Transport,
    allowed: Vec<Transport>,
    current: AtomicU8,
    /// Observations so far (drives the decide/explore cadences).
    observes: AtomicU64,
    /// `observes` value at the last flip (cooldown baseline).
    last_flip_at: AtomicU64,
    flips: AtomicU64,
    /// EWMA cycles/call per transport, indexed by `Transport as u8`.
    ewma: [AtomicF64; 4],
    samples: [AtomicU64; 4],
    /// EWMA of the cycle gap between consecutive observations — the
    /// inverse call rate the standby tax prices.
    interarrival: AtomicF64,
    /// Stamp of the previous observation (0 = none yet).
    last_stamp: AtomicU64,
}

impl ApiSlot {
    fn current(&self) -> Transport {
        Transport::from_u8(self.current.load(Ordering::Relaxed))
    }
}

/// Counter snapshot of everything the controller has decided so far.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CtlStats {
    /// Routing decisions evaluated (most conclude "stay").
    pub decisions: u64,
    /// Transport flips taken across all APIs.
    pub flips: u64,
    /// Flips *to* [`Transport::Sdk`] — low-rate APIs priced off the
    /// switchless path.
    pub sdk_demotions: u64,
    /// Flips *from* [`Transport::Sdk`] back onto a switchless transport.
    pub promotions: u64,
    /// Calls deliberately routed off the current transport to refresh a
    /// stale estimate.
    pub explore_probes: u64,
    /// Sizer ticks evaluated.
    pub ticks: u64,
    /// Responder/shard target raises issued by the sizer.
    pub grows: u64,
    /// Responder/shard target cuts issued by the sizer.
    pub shrinks: u64,
    /// Bundle flush-threshold changes issued by the sizer.
    pub bundle_resizes: u64,
    /// Streaming-chunk halvings issued by the chunk sizer (paging cost
    /// per byte crossed the shrink watermark).
    #[serde(default)]
    pub chunk_shrinks: u64,
    /// Streaming-chunk doublings issued by the chunk sizer.
    #[serde(default)]
    pub chunk_grows: u64,
}

/// One API's row in the control plane's telemetry export.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CtlRoute {
    /// API name as registered.
    pub api: String,
    /// Transport currently routed to (label form).
    pub transport: String,
    /// EWMA cycles/call on the current transport (0 before any sample).
    pub ewma_cycles: f64,
    /// Observations of this API so far.
    pub observes: u64,
    /// Flips this API has taken.
    pub flips: u64,
}

/// The control plane's section of a telemetry snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CtlTelemetry {
    /// Registered controller name.
    pub name: String,
    /// Decision counters.
    pub stats: CtlStats,
    /// Current routing table, one row per API.
    pub routes: Vec<CtlRoute>,
    /// The sizer's current bundle flush threshold.
    pub bundle_flush: usize,
    /// The chunk sizer's current streaming chunk size, bytes.
    #[serde(default)]
    pub chunk_bytes: usize,
}

/// The per-API break-even router.
///
/// Register each API once with its default transport and the set it may
/// ride; on the hot path, ask [`ApiRouter::route`] where this call goes
/// and report what it cost with [`ApiRouter::observe`]. Decisions run
/// every [`CtlPolicy::decide_every`] observations, off the per-call path.
///
/// # Examples
///
/// ```
/// use hotcalls::ctl::{ApiRouter, CtlPolicy, Transport};
///
/// let mut router = ApiRouter::new(CtlPolicy::auto()).unwrap();
/// let read = router.register("read", Transport::Hot, &[Transport::Sdk, Transport::Hot]);
/// let t = router.route(read);
/// router.observe(read, t, 620, 1_000);
/// assert_eq!(router.current(read), Transport::Hot);
/// ```
#[derive(Debug)]
pub struct ApiRouter {
    policy: CtlPolicy,
    slots: Vec<ApiSlot>,
    decisions: AtomicU64,
    flips: AtomicU64,
    sdk_demotions: AtomicU64,
    promotions: AtomicU64,
    explore_probes: AtomicU64,
}

impl ApiRouter {
    /// An empty router under `policy`.
    ///
    /// # Errors
    ///
    /// As [`CtlPolicy::validate`].
    pub fn new(policy: CtlPolicy) -> Result<Self> {
        policy.validate()?;
        Ok(ApiRouter {
            policy,
            slots: Vec::new(),
            decisions: AtomicU64::new(0),
            flips: AtomicU64::new(0),
            sdk_demotions: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            explore_probes: AtomicU64::new(0),
        })
    }

    /// Registers an API with its starting transport and the transports the
    /// router may move it between. `default` is added to `allowed` if
    /// missing. Registration happens at setup time, before the router is
    /// shared.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        default: Transport,
        allowed: &[Transport],
    ) -> ApiId {
        let mut allowed = allowed.to_vec();
        if !allowed.contains(&default) {
            allowed.insert(0, default);
        }
        self.slots.push(ApiSlot {
            name: name.into(),
            default,
            allowed,
            current: AtomicU8::new(default as u8),
            observes: AtomicU64::new(0),
            last_flip_at: AtomicU64::new(0),
            flips: AtomicU64::new(0),
            ewma: Default::default(),
            samples: Default::default(),
            interarrival: AtomicF64::default(),
            last_stamp: AtomicU64::new(0),
        });
        ApiId(self.slots.len() - 1)
    }

    /// Number of registered APIs.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Where this call goes: the API's current transport, except for the
    /// periodic exploration probe that keeps the other transports'
    /// estimates fresh. Uninstrumented builds always answer the registered
    /// default — the static-policy fallback.
    pub fn route(&self, api: ApiId) -> Transport {
        let slot = &self.slots[api.0];
        if !TELEMETRY_ENABLED {
            return slot.default;
        }
        let cur = slot.current();
        if slot.allowed.len() > 1 && self.policy.explore_every > 0 {
            let n = slot.observes.load(Ordering::Relaxed);
            if n % self.policy.explore_every == self.policy.explore_every - 1 {
                let probe =
                    slot.allowed[(n / self.policy.explore_every) as usize % slot.allowed.len()];
                if probe != cur {
                    self.explore_probes.fetch_add(1, Ordering::Relaxed);
                    return probe;
                }
            }
        }
        cur
    }

    /// Reports one completed call: it rode `transport`, cost `cycles`, and
    /// finished at monotonic stamp `now` (any cycle base works — RDTSC or
    /// a simulator clock — as long as one caller is consistent). Every
    /// [`CtlPolicy::decide_every`]-th observation re-evaluates the API's
    /// route.
    pub fn observe(&self, api: ApiId, transport: Transport, cycles: u64, now: u64) {
        if !TELEMETRY_ENABLED {
            return;
        }
        let slot = &self.slots[api.0];
        let alpha = self.policy.ewma_alpha;
        let t = transport as usize;
        let prev = slot.ewma[t].get();
        let n = slot.samples[t].fetch_add(1, Ordering::Relaxed);
        slot.ewma[t].set(if n == 0 {
            cycles as f64
        } else {
            prev + alpha * (cycles as f64 - prev)
        });
        let last = slot.last_stamp.swap(now, Ordering::Relaxed);
        if last != 0 && now > last {
            let gap = (now - last) as f64;
            let prev_ia = slot.interarrival.get();
            slot.interarrival.set(if prev_ia == 0.0 {
                gap
            } else {
                prev_ia + alpha * (gap - prev_ia)
            });
        }
        let observes = slot.observes.fetch_add(1, Ordering::Relaxed) + 1;
        if observes.is_multiple_of(self.policy.decide_every) {
            self.decide(api.0, observes);
        }
    }

    /// A transport's routing score: EWMA cycles/call, plus the standby tax
    /// on switchless transports. Lower is better; `None` until the
    /// transport has enough samples to be trusted.
    fn score(&self, slot: &ApiSlot, t: Transport) -> Option<f64> {
        if slot.samples[t as usize].load(Ordering::Relaxed) < self.policy.min_samples {
            return None;
        }
        let standby = if t == Transport::Sdk {
            0.0
        } else {
            self.policy.standby_fraction * slot.interarrival.get()
        };
        Some(slot.ewma[t as usize].get() + standby)
    }

    fn decide(&self, index: usize, observes: u64) {
        let slot = &self.slots[index];
        self.decisions.fetch_add(1, Ordering::Relaxed);
        let cur = slot.current();
        let best = slot
            .allowed
            .iter()
            .filter_map(|&t| self.score(slot, t).map(|s| (t, s)))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        let Some((best, best_score)) = best else {
            return;
        };
        if best == cur {
            return;
        }
        if observes.saturating_sub(slot.last_flip_at.load(Ordering::Relaxed)) < self.policy.cooldown
        {
            return;
        }
        // An unmeasured incumbent loses to any measured challenger; a
        // measured one must be beaten by the margin.
        if let Some(cur_score) = self.score(slot, cur) {
            if cur_score <= best_score * self.policy.flip_margin {
                return;
            }
        }
        if slot
            .current
            .compare_exchange(cur as u8, best as u8, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        slot.last_flip_at.store(observes, Ordering::Relaxed);
        slot.flips.fetch_add(1, Ordering::Relaxed);
        self.flips.fetch_add(1, Ordering::Relaxed);
        if best == Transport::Sdk {
            self.sdk_demotions.fetch_add(1, Ordering::Relaxed);
        }
        if cur == Transport::Sdk {
            self.promotions.fetch_add(1, Ordering::Relaxed);
        }
        trace("ctl_flip", index as u64, best as u8 as u64);
    }

    /// The API's current transport (no exploration).
    pub fn current(&self, api: ApiId) -> Transport {
        if !TELEMETRY_ENABLED {
            return self.slots[api.0].default;
        }
        self.slots[api.0].current()
    }

    /// Total flips taken by one API (the convergence-test observable).
    pub fn flips_of(&self, api: ApiId) -> u64 {
        self.slots[api.0].flips.load(Ordering::Relaxed)
    }

    /// The current routing table, one row per registered API.
    pub fn routes(&self) -> Vec<CtlRoute> {
        self.slots
            .iter()
            .map(|slot| {
                let cur = if TELEMETRY_ENABLED {
                    slot.current()
                } else {
                    slot.default
                };
                CtlRoute {
                    api: slot.name.clone(),
                    transport: cur.label().to_string(),
                    ewma_cycles: slot.ewma[cur as usize].get(),
                    observes: slot.observes.load(Ordering::Relaxed),
                    flips: slot.flips.load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

/// Tuning of the online sizer's worker-efficiency rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SizerPolicy {
    /// Useful-work poll ratio above which the active set grows (the
    /// workers are all earning their keep and backlog is building).
    pub eff_high: f64,
    /// Ratio below which the active set shrinks (workers mostly poll
    /// empty — the Configless paper's "worker not efficient" rule).
    pub eff_low: f64,
    /// Ticks to hold still after a resize (hysteresis: the plane needs a
    /// window at the new size before its efficiency means anything).
    pub cooldown_ticks: u32,
    /// Bundle flush threshold floor (1 = unbundled).
    pub bundle_min: usize,
    /// Bundle flush threshold ceiling.
    pub bundle_max: usize,
}

impl Default for SizerPolicy {
    fn default() -> Self {
        SizerPolicy {
            eff_high: 0.75,
            eff_low: 0.20,
            cooldown_ticks: 2,
            bundle_min: 1,
            bundle_max: 32,
        }
    }
}

impl SizerPolicy {
    /// The zero-config policy (the defaults).
    pub fn auto() -> Self {
        Self::default()
    }

    /// Rejects contradictory knob combinations.
    ///
    /// # Errors
    ///
    /// [`HotCallError::InvalidConfig`] when the watermarks cross or the
    /// bundle bounds are empty.
    pub fn validate(&self) -> Result<()> {
        if self.eff_low >= self.eff_high {
            return Err(HotCallError::InvalidConfig(
                "sizer low watermark must sit below the high watermark",
            ));
        }
        if self.bundle_min == 0 || self.bundle_max < self.bundle_min {
            return Err(HotCallError::InvalidConfig(
                "sizer bundle bounds must satisfy 1 <= min <= max",
            ));
        }
        Ok(())
    }
}

/// What one sizer tick asks the plane to change. `None` means "hold".
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SizeDecision {
    /// New active responder/shard target to push into the governor.
    pub responders: Option<usize>,
    /// New bundle flush threshold for batching call sites.
    pub bundle_flush: Option<usize>,
}

/// Window counters one tick compares against the last.
#[derive(Debug, Default, Clone, Copy)]
struct SizerWindow {
    busy: u64,
    idle: u64,
    calls: u64,
}

/// The online sizer: periodically fed a [`RingStats`] snapshot, it
/// returns resize decisions derived from the delta since its previous
/// tick. Single-owner by design (the driver loop that ticks it); the
/// [`Controller`] wraps it in a mutex for shared use.
#[derive(Debug)]
pub struct AutoSizer {
    policy: SizerPolicy,
    prev: Option<SizerWindow>,
    cooldown: u32,
    bundle_flush: usize,
    ticks: u64,
    grows: u64,
    shrinks: u64,
    bundle_resizes: u64,
}

impl AutoSizer {
    /// A sizer under `policy`, starting unbundled.
    ///
    /// # Errors
    ///
    /// As [`SizerPolicy::validate`].
    pub fn new(policy: SizerPolicy) -> Result<Self> {
        policy.validate()?;
        Ok(AutoSizer {
            policy,
            prev: None,
            cooldown: 0,
            bundle_flush: policy.bundle_min,
            ticks: 0,
            grows: 0,
            shrinks: 0,
            bundle_resizes: 0,
        })
    }

    /// The current bundle flush threshold.
    pub fn bundle_flush(&self) -> usize {
        self.bundle_flush
    }

    /// One control tick over the plane's current [`RingStats`]. The first
    /// tick only establishes the baseline window.
    pub fn tick(&mut self, rs: &RingStats) -> SizeDecision {
        self.ticks += 1;
        let window = SizerWindow {
            busy: rs.totals.busy_polls,
            idle: rs.totals.idle_polls,
            calls: rs.totals.calls,
        };
        let Some(prev) = self.prev.replace(window) else {
            return SizeDecision::default();
        };
        let busy = window.busy.saturating_sub(prev.busy);
        let idle = window.idle.saturating_sub(prev.idle);
        let calls = window.calls.saturating_sub(prev.calls);
        let polls = busy + idle;
        let backlog: usize = rs.shards.iter().map(|s| s.occupancy).sum();
        let active = rs.governor.active;

        let mut decision = SizeDecision::default();
        if self.cooldown > 0 {
            self.cooldown -= 1;
        } else if polls > 0 {
            let efficiency = busy as f64 / polls as f64;
            if efficiency > self.policy.eff_high && backlog > active && active < rs.governor.max {
                decision.responders = Some(active + 1);
                self.grows += 1;
                self.cooldown = self.policy.cooldown_ticks;
            } else if efficiency < self.policy.eff_low && backlog == 0 && active > rs.governor.min {
                // Low poll efficiency alone is not idleness: responders
                // blocked inside io-bound handlers poll nothing while the
                // ring holds work, and shrinking then thrashes against the
                // governor's raise path. Only a drained plane shrinks.
                decision.responders = Some(active - 1);
                self.shrinks += 1;
                self.cooldown = self.policy.cooldown_ticks;
            }
        }

        // Bundle sizing follows backlog: a window that keeps more calls
        // queued than one flush carries amortizes better with bigger
        // bundles; a quiet window pays latency for nothing and halves
        // back toward unbundled.
        let flush = self.bundle_flush;
        let target = if calls > 0 && backlog > flush {
            (flush * 2).min(self.policy.bundle_max)
        } else if backlog == 0 && idle > busy {
            (flush / 2).max(self.policy.bundle_min)
        } else {
            flush
        };
        if target != flush {
            self.bundle_flush = target;
            self.bundle_resizes += 1;
            decision.bundle_flush = Some(target);
        }
        decision
    }
}

/// The control plane: one [`ApiRouter`] plus one [`AutoSizer`], sharable
/// across threads, exporting a [`CtlTelemetry`] section.
///
/// Build it at setup time ([`Controller::new`] + [`Controller::register`]),
/// then share it (`Arc`) with the call sites: `route`/`observe` per call,
/// [`Controller::tick`] periodically from whichever thread drives the
/// plane, with the returned [`SizeDecision`] pushed into the server's
/// `set_active_*` surface.
#[derive(Debug)]
pub struct Controller {
    router: ApiRouter,
    sizer: Mutex<AutoSizer>,
    chunker: Mutex<ChunkSizer>,
}

impl Controller {
    /// A controller under the given routing and pool-sizing policies,
    /// with the zero-config chunk policy (see
    /// [`Controller::with_chunker`] to override it).
    ///
    /// # Errors
    ///
    /// As [`CtlPolicy::validate`] / [`SizerPolicy::validate`].
    pub fn new(router: CtlPolicy, sizer: SizerPolicy) -> Result<Self> {
        Ok(Controller {
            router: ApiRouter::new(router)?,
            sizer: Mutex::new(AutoSizer::new(sizer)?),
            chunker: Mutex::new(ChunkSizer::new(ChunkPolicy::auto()).expect("auto chunks valid")),
        })
    }

    /// Replaces the chunk-sizing policy (builder style, setup time).
    ///
    /// # Errors
    ///
    /// As [`ChunkPolicy::validate`].
    pub fn with_chunker(mut self, policy: ChunkPolicy) -> Result<Self> {
        self.chunker = Mutex::new(ChunkSizer::new(policy)?);
        Ok(self)
    }

    /// A controller under the zero-config policies.
    pub fn auto() -> Self {
        Self::new(CtlPolicy::auto(), SizerPolicy::auto()).expect("auto policies are valid")
    }

    /// Registers an API (setup time — see [`ApiRouter::register`]).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        default: Transport,
        allowed: &[Transport],
    ) -> ApiId {
        self.router.register(name, default, allowed)
    }

    /// The router half, for per-call `route`/`observe`.
    pub fn router(&self) -> &ApiRouter {
        &self.router
    }

    /// Routes one call (see [`ApiRouter::route`]).
    pub fn route(&self, api: ApiId) -> Transport {
        self.router.route(api)
    }

    /// Reports one call's cost (see [`ApiRouter::observe`]).
    pub fn observe(&self, api: ApiId, transport: Transport, cycles: u64, now: u64) {
        self.router.observe(api, transport, cycles, now);
    }

    /// One sizer tick over the plane's stats. Uninstrumented builds hold
    /// every knob still — the static-policy fallback.
    pub fn tick(&self, rs: &RingStats) -> SizeDecision {
        if !TELEMETRY_ENABLED {
            return SizeDecision::default();
        }
        let decision = self.sizer.lock().expect("sizer lock").tick(rs);
        if let Some(n) = decision.responders {
            trace("ctl_resize", n as u64, rs.governor.active as u64);
        }
        if let Some(f) = decision.bundle_flush {
            trace("ctl_bundle_flush", f as u64, 0);
        }
        decision
    }

    /// The current bundle flush threshold for batching call sites.
    pub fn bundle_flush(&self) -> usize {
        self.sizer.lock().expect("sizer lock").bundle_flush()
    }

    /// The streaming chunk size the next submission should use.
    pub fn chunk_bytes(&self) -> usize {
        self.chunker.lock().expect("chunker lock").chunk_bytes()
    }

    /// Reports one streamed window's paging bill (see
    /// [`ChunkSizer::observe`]). Uninstrumented builds hold the chunk
    /// still — the static-policy fallback, same as [`Controller::tick`].
    pub fn observe_paging(&self, paging_cycles: u64, bytes: u64) -> Option<usize> {
        if !TELEMETRY_ENABLED {
            return None;
        }
        let resized = self
            .chunker
            .lock()
            .expect("chunker lock")
            .observe(paging_cycles, bytes);
        if let Some(n) = resized {
            trace("ctl_chunk_resize", n as u64, paging_cycles);
        }
        resized
    }

    /// Decision counters so far.
    pub fn stats(&self) -> CtlStats {
        let sizer = self.sizer.lock().expect("sizer lock");
        let chunker = self.chunker.lock().expect("chunker lock");
        CtlStats {
            decisions: self.router.decisions.load(Ordering::Relaxed),
            flips: self.router.flips.load(Ordering::Relaxed),
            sdk_demotions: self.router.sdk_demotions.load(Ordering::Relaxed),
            promotions: self.router.promotions.load(Ordering::Relaxed),
            explore_probes: self.router.explore_probes.load(Ordering::Relaxed),
            ticks: sizer.ticks,
            grows: sizer.grows,
            shrinks: sizer.shrinks,
            bundle_resizes: sizer.bundle_resizes,
            chunk_shrinks: chunker.shrinks,
            chunk_grows: chunker.grows,
        }
    }

    /// This controller's telemetry section right now.
    pub fn telemetry(&self, name: &str) -> CtlTelemetry {
        CtlTelemetry {
            name: name.to_string(),
            stats: self.stats(),
            routes: self.router.routes(),
            bundle_flush: self.bundle_flush(),
            chunk_bytes: self.chunk_bytes(),
        }
    }

    /// A provider for [`crate::TelemetryRegistry::register_ctl`], holding
    /// the controller alive.
    pub fn provider(self: &Arc<Self>, name: impl Into<String>) -> crate::telemetry::CtlProvider {
        let ctl = Arc::clone(self);
        let name = name.into();
        Box::new(move || ctl.telemetry(&name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_way_router(policy: CtlPolicy) -> (ApiRouter, ApiId) {
        let mut r = ApiRouter::new(policy).unwrap();
        let id = r.register("read", Transport::Hot, &[Transport::Sdk, Transport::Hot]);
        (r, id)
    }

    /// Feed `n` observations with fixed per-transport costs at a fixed
    /// inter-arrival gap, honoring the router's own routing choices.
    fn drive(r: &ApiRouter, id: ApiId, n: u64, gap: u64, cost: impl Fn(Transport) -> u64) {
        let mut now = 1;
        for _ in 0..n {
            let t = r.route(id);
            now += gap;
            r.observe(id, t, cost(t), now);
        }
    }

    #[test]
    fn policy_validation_rejects_contradictions() {
        assert!(CtlPolicy::auto().validate().is_ok());
        for bad in [
            CtlPolicy {
                flip_margin: 0.5,
                ..CtlPolicy::auto()
            },
            CtlPolicy {
                ewma_alpha: 0.0,
                ..CtlPolicy::auto()
            },
            CtlPolicy {
                ewma_alpha: 1.5,
                ..CtlPolicy::auto()
            },
            CtlPolicy {
                decide_every: 0,
                ..CtlPolicy::auto()
            },
            CtlPolicy {
                standby_fraction: -0.1,
                ..CtlPolicy::auto()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        assert!(SizerPolicy::auto().validate().is_ok());
        assert!(SizerPolicy {
            eff_low: 0.9,
            eff_high: 0.5,
            ..SizerPolicy::auto()
        }
        .validate()
        .is_err());
        assert!(SizerPolicy {
            bundle_min: 4,
            bundle_max: 2,
            ..SizerPolicy::auto()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn fast_transport_wins_and_stays() {
        if !TELEMETRY_ENABLED {
            return;
        }
        let (r, id) = two_way_router(CtlPolicy::auto());
        // Hot is 600 cycles, SDK 8_200, calls arrive every 2_000 cycles:
        // the standby tax (5% of 2_000 = 100) nowhere near closes the gap.
        drive(&r, id, 2_000, 2_000, |t| match t {
            Transport::Sdk => 8_200,
            _ => 600,
        });
        assert_eq!(r.current(id), Transport::Hot);
        assert_eq!(r.flips_of(id), 0, "stationary workload must not flip");
    }

    #[test]
    fn low_rate_api_demotes_to_sdk_and_promotes_back() {
        if !TELEMETRY_ENABLED {
            return;
        }
        let (r, id) = two_way_router(CtlPolicy::auto());
        // Sparse calls: one every 400_000 cycles. The standby tax is
        // 20_000 cycles/call — far more than the 7_600 the hot path saves,
        // so the router prices this API back onto the SDK. (Exploration
        // probes the SDK arm every ~2·explore_every calls, so it takes
        // ~min_samples·128 observations to trust the estimate.)
        drive(&r, id, 2_000, 400_000, |t| match t {
            Transport::Sdk => 8_200,
            _ => 600,
        });
        assert_eq!(r.current(id), Transport::Sdk);
        let stats_flips = r.flips_of(id);
        assert!(stats_flips >= 1);
        // The rate recovers: calls every 2_000 cycles again. Exploration
        // keeps refreshing the hot estimate, so the router promotes back.
        drive(&r, id, 4_000, 2_000, |t| match t {
            Transport::Sdk => 8_200,
            _ => 600,
        });
        assert_eq!(r.current(id), Transport::Hot);
    }

    #[test]
    fn flip_count_is_bounded_under_stationary_load() {
        if !TELEMETRY_ENABLED {
            return;
        }
        let (r, id) = two_way_router(CtlPolicy::auto());
        drive(&r, id, 50_000, 3_000, |t| match t {
            Transport::Sdk => 8_200,
            Transport::Hot => 620,
            _ => 620,
        });
        // Hysteresis (margin + cooldown) bounds flips to the initial
        // settling, never an oscillation.
        assert!(r.flips_of(id) <= 2, "flips: {}", r.flips_of(id));
    }

    #[test]
    fn exploration_probes_are_periodic_and_counted() {
        if !TELEMETRY_ENABLED {
            return;
        }
        let (r, id) = two_way_router(CtlPolicy::auto());
        drive(&r, id, 1_000, 2_000, |_| 600);
        let stats_probes = r.explore_probes.load(Ordering::Relaxed);
        assert!(stats_probes > 0, "exploration must sample the other road");
        // Both transports accumulated samples.
        assert!(r.slots[0].samples[Transport::Sdk as usize].load(Ordering::Relaxed) > 0);
        assert!(r.slots[0].samples[Transport::Hot as usize].load(Ordering::Relaxed) > 0);
    }

    fn stats_with(busy: u64, idle: u64, occupancy: usize, active: usize) -> RingStats {
        use crate::telemetry::{GovernorStats, HotCallStats, ShardStats};
        RingStats {
            totals: HotCallStats {
                calls: busy,
                busy_polls: busy,
                idle_polls: idle,
                ..HotCallStats::default()
            },
            governor: GovernorStats {
                active,
                min: 1,
                max: 4,
                ..GovernorStats::default()
            },
            shards: vec![ShardStats {
                occupancy,
                ..ShardStats::default()
            }],
        }
    }

    #[test]
    fn sizer_grows_on_saturation_and_shrinks_on_idle() {
        let mut sizer = AutoSizer::new(SizerPolicy::auto()).unwrap();
        // First tick is the baseline.
        assert_eq!(sizer.tick(&stats_with(0, 0, 0, 2)), SizeDecision::default());
        // Saturated window: all polls busy, backlog beyond the active set.
        let d = sizer.tick(&stats_with(10_000, 10, 8, 2));
        assert_eq!(d.responders, Some(3));
        // Cooldown holds the next two ticks still even under saturation.
        assert_eq!(sizer.tick(&stats_with(30_000, 20, 8, 3)).responders, None);
        assert_eq!(sizer.tick(&stats_with(60_000, 30, 8, 3)).responders, None);
        // Idle window: polls overwhelmingly empty -> shrink.
        let d = sizer.tick(&stats_with(60_010, 1_000_000, 0, 3));
        assert_eq!(d.responders, Some(2));
    }

    #[test]
    fn sizer_bundle_flush_tracks_backlog() {
        let mut sizer = AutoSizer::new(SizerPolicy::auto()).unwrap();
        sizer.tick(&stats_with(0, 0, 0, 1));
        // Backlog beyond the current flush doubles it...
        let d = sizer.tick(&stats_with(100, 0, 6, 1));
        assert_eq!(d.bundle_flush, Some(2));
        let d = sizer.tick(&stats_with(200, 0, 6, 1));
        assert_eq!(d.bundle_flush, Some(4));
        // ...and an idle, drained window halves it back.
        let d = sizer.tick(&stats_with(201, 10_000, 0, 1));
        assert_eq!(d.bundle_flush, Some(2));
        assert!(sizer.bundle_flush() == 2);
    }

    #[test]
    fn chunk_policy_validation_rejects_contradictions() {
        assert!(ChunkPolicy::auto().validate().is_ok());
        for bad in [
            ChunkPolicy {
                min_chunk: 0,
                ..ChunkPolicy::auto()
            },
            ChunkPolicy {
                min_chunk: 1 << 20,
                max_chunk: 1 << 16,
                start_chunk: 1 << 18,
                ..ChunkPolicy::auto()
            },
            ChunkPolicy {
                start_chunk: 1 << 30,
                ..ChunkPolicy::auto()
            },
            ChunkPolicy {
                grow_below: 2.0,
                shrink_above: 1.0,
                ..ChunkPolicy::auto()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn chunk_sizer_shrinks_past_cliff_and_grows_back() {
        let policy = ChunkPolicy {
            cooldown_ticks: 0,
            ..ChunkPolicy::auto()
        };
        let mut sizer = ChunkSizer::new(policy).unwrap();
        let start = sizer.chunk_bytes();
        // Thrashing: 5 paging cycles per byte, far over the watermark.
        let shrunk = sizer.observe(5 * 1_000_000, 1_000_000).unwrap();
        assert_eq!(shrunk, start / 2);
        // Keep thrashing: halves to the floor and then holds.
        for _ in 0..32 {
            sizer.observe(5 * 1_000_000, 1_000_000);
        }
        assert_eq!(sizer.chunk_bytes(), policy.min_chunk);
        assert!(sizer.observe(5 * 4096, 4096).is_none(), "floor holds");
        // Resident again: zero paging cycles per byte, grows to the cap.
        for _ in 0..32 {
            sizer.observe(0, 1_000_000);
        }
        assert_eq!(sizer.chunk_bytes(), policy.max_chunk);
        // Zero-byte windows are ignored entirely.
        assert!(sizer.observe(10_000, 0).is_none());
    }

    #[test]
    fn chunk_sizer_cooldown_bounds_resize_rate() {
        let mut sizer = ChunkSizer::new(ChunkPolicy {
            cooldown_ticks: 2,
            ..ChunkPolicy::auto()
        })
        .unwrap();
        assert!(sizer.observe(5_000_000, 1_000_000).is_some());
        assert!(sizer.observe(5_000_000, 1_000_000).is_none(), "cooldown 1");
        assert!(sizer.observe(5_000_000, 1_000_000).is_none(), "cooldown 2");
        assert!(sizer.observe(5_000_000, 1_000_000).is_some());
    }

    #[test]
    fn controller_exports_chunk_decisions() {
        let ctl = Controller::auto();
        let start = ctl.chunk_bytes();
        assert_eq!(start, ChunkPolicy::auto().start_chunk);
        let resized = ctl.observe_paging(10 * (1 << 20), 1 << 20);
        let tel = ctl.telemetry("unit");
        if TELEMETRY_ENABLED {
            assert_eq!(resized, Some(start / 2));
            assert_eq!(tel.stats.chunk_shrinks, 1);
            assert_eq!(tel.chunk_bytes, start / 2);
        } else {
            // Static fallback: the chunk never moves.
            assert_eq!(resized, None);
            assert_eq!(tel.chunk_bytes, start);
        }
    }

    #[test]
    fn controller_counts_decisions_and_exports_routes() {
        let mut ctl = Controller::auto();
        let id = ctl.register("read", Transport::Hot, &[Transport::Sdk, Transport::Hot]);
        let t = ctl.route(id);
        ctl.observe(id, t, 620, 1_000);
        ctl.tick(&stats_with(0, 0, 0, 1));
        let tel = ctl.telemetry("unit");
        assert_eq!(tel.name, "unit");
        assert_eq!(tel.routes.len(), 1);
        assert_eq!(tel.routes[0].api, "read");
        if TELEMETRY_ENABLED {
            assert_eq!(tel.stats.ticks, 1);
            assert_eq!(tel.routes[0].observes, 1);
        } else {
            // The static fallback: no ticks counted, default transport.
            assert_eq!(tel.stats.ticks, 0);
            assert_eq!(tel.routes[0].transport, "hot");
        }
    }
}
