//! The four workloads and the helpers they share.

pub mod kv;
pub mod ring;
pub mod store;
pub mod vpn;

use std::time::Instant;

use sgx_sim::{Addr, Machine};

use crate::gen::Rng;
use crate::trace::Spans;

/// Calls per replayed API.
const REPLAY_CALLS: u32 = 2_000;
/// Cache lines per `Machine` probe direction.
const PROBE_LINES: u64 = 100_000;
/// Probe accesses per recorded child span.
const PROBE_SPAN_LINES: u64 = 1_000;

/// Times `REPLAY_CALLS` calls of `call` (a child span each, under a
/// `replay` root) and returns the mean host µs per call.
///
/// # Errors
///
/// The first failing call.
pub(crate) fn replay_calls<E: std::fmt::Display>(
    spans: &mut Spans,
    name: &'static str,
    mut call: impl FnMut() -> Result<(), E>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut children = Vec::with_capacity(REPLAY_CALLS as usize);
    let mut total_ns = 0u64;
    for _ in 0..REPLAY_CALLS {
        let t0 = Instant::now();
        call().map_err(|e| format!("replaying {name}: {e}"))?;
        let t1 = Instant::now();
        total_ns += (t1 - t0).as_nanos() as u64;
        children.push((t0, t1));
    }
    let root = spans.push("replay", 0, None, start, Instant::now());
    spans.annotate(root, name, u64::from(REPLAY_CALLS));
    if root.is_some() {
        for (t0, t1) in children {
            spans.push(name, 0, root, t0, t1);
        }
    }
    Ok(total_ns as f64 / f64::from(REPLAY_CALLS) / 1e3)
}

/// Times `Machine::read` and `Machine::write` of single cache lines at
/// seeded random offsets of `region` (`bytes` long) from outside, the
/// way the applications touch their scattered metadata. Returns host ns
/// per line.
///
/// # Errors
///
/// A failed access.
pub(crate) fn probe_machine(
    m: &mut Machine,
    region: Addr,
    bytes: u64,
    spans: &mut Spans,
) -> Result<f64, String> {
    let lines = (bytes / 64).max(1);
    let mut rng = Rng::new(lines, 0x9B0E);
    let start = Instant::now();
    let mut children = Vec::new();
    let mut total_ns = 0u64;
    for write in [false, true] {
        let mut done = 0;
        while done < PROBE_LINES {
            let t0 = Instant::now();
            for _ in 0..PROBE_SPAN_LINES {
                let at = region.offset(rng.below(lines) * 64);
                let r = if write { m.write(at, 8) } else { m.read(at, 8) };
                r.map_err(|e| format!("machine probe: {e}"))?;
                m.reset_stream_detector();
            }
            let t1 = Instant::now();
            total_ns += (t1 - t0).as_nanos() as u64;
            children.push((
                if write {
                    "machine.write"
                } else {
                    "machine.read"
                },
                t0,
                t1,
            ));
            done += PROBE_SPAN_LINES;
        }
    }
    let root = spans.push("machine.probe", 0, None, start, Instant::now());
    if root.is_some() {
        for (name, t0, t1) in children {
            let s = spans.push(name, 0, root, t0, t1);
            spans.annotate(s, "lines", PROBE_SPAN_LINES);
        }
    }
    Ok(total_ns as f64 / (2 * PROBE_LINES) as f64)
}
