//! End-to-end and per-layer benchmark of the HotCalls reproduction.
//!
//! One closed-loop client thread drives one of four workloads — `kv`
//! (memcached), `vpn` (openVPN), `ring` (raw `hotcalls::rt` byte calls)
//! and `store` (`SecureStore`) — and reports numbers on two clocks that
//! are never mixed:
//!
//! * **host** — this process's wall clock, around each operation;
//! * **virtual** — sgx-sim cycles, over a fixed window of the first
//!   operations, so they are bit-identical for a given seed.
//!
//! A plain run (`trace = false`) reports the end-to-end metrics. A traced
//! run splits the same loop into layers from outside: spans around each
//! call into a layer, counter snapshots of every layer's public stats, and
//! replays of the interface calls alone. See `NOTES.md`.

pub mod gen;
pub mod layers;
mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use run::{run, Config, Metric, Outcome};

use hotcalls::telemetry::PlaneTelemetry;
use layers::{Host, Virt};
use trace::Spans;

/// Which clock a number is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// This process's wall clock, or counters that depend on how the host
    /// schedules threads.
    Host,
    /// sgx-sim's virtual cycles, or counts fixed by the inputs alone.
    Virtual,
}

/// Interface calls replayed alone, for the traced run's layer split.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Mean host µs per replayed call, keyed by API.
    pub call_us: Vec<(&'static str, f64)>,
    /// Replayed interface host time per operation, µs.
    pub env_us_per_op: f64,
    /// Host ns per `Machine::read`/`write` cache line, timed from outside.
    pub host_ns_per_line: f64,
}

/// One benchmark workload: seeded input generation, the timed operation,
/// its off-clock output check, and read access to each layer's counters.
pub trait Workload: Sized {
    /// One operation's generated input.
    type Input;
    /// What the operation returned.
    type Output;

    /// Operations in the virtual-clock window (the first operations of
    /// every run). The loop always runs at least this many.
    const VIRTUAL_OPS: u64;
    /// Operations per input batch; rate windows and the end of the run
    /// fall on batch boundaries, so every window sees whole batches.
    const BATCH: u64 = 1;

    /// Builds the program under test: env or plane, responders, prefill.
    /// A traced run's set-up (`trace`) may also reserve room for its
    /// replays.
    ///
    /// # Errors
    ///
    /// Any construction failure.
    fn setup(seed: u64, trace: bool) -> Result<Self, String>;

    /// Generates operation `i`'s input (off the clock).
    fn gen(&mut self, i: u64) -> Self::Input;

    /// The timed operation.
    ///
    /// # Errors
    ///
    /// Any error the program returned; it counts as a failed op.
    fn op(&mut self, input: &Self::Input) -> Result<Self::Output, String>;

    /// Checks an operation's output (off the clock); `false` counts as a
    /// failed op. `in_window` marks the virtual window, over which `store`
    /// also reads its dedup counters.
    fn check(&mut self, in_window: bool, input: &Self::Input, out: &Self::Output) -> bool;

    /// Corrupts an output, for the self-test's failure witness.
    fn corrupt(&mut self, out: &mut Self::Output);

    /// Payload bytes that crossed the enclave boundary in this op.
    fn bytes(input: &Self::Input, out: &Self::Output) -> u64;

    /// Latency class of an input (the ring's size classes); 0 otherwise.
    fn class(_input: &Self::Input) -> usize {
        0
    }

    /// Names of the latency classes, indexed by [`Workload::class`].
    const CLASSES: &'static [&'static str] = &[];

    /// Whether application logic wraps the interface (false for raw ring
    /// calls, whose whole op is the `rt` layer).
    const APP_LAYER: bool = true;

    /// Virtual-clock counters now; none for a workload that never runs
    /// sgx-sim.
    fn virt(&self) -> Virt {
        Virt::default()
    }

    /// Host-side counters now.
    fn host(&self) -> Host;

    /// The plane's stage histograms (queue, service, reap), if any.
    fn plane(&self) -> Option<PlaneTelemetry>;

    /// Called when a timed phase starts.
    fn begin_phase(&mut self) {}

    /// Replays the interface calls alone (after the measured loop) and
    /// times `Machine` accesses from outside.
    /// `window` holds the virtual-window counters over `window_ops` ops.
    fn replay(&mut self, _window: &Virt, _window_ops: u64, _spans: &mut Spans) -> Replay {
        Replay::default()
    }

    /// Workload-only layer metrics of the traced phase.
    fn extra(&self) -> Vec<Metric> {
        Vec::new()
    }
}
