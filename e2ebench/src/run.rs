//! The closed loop: set-up, the virtual-clock window, the timed phase(s),
//! and the metrics computed from them.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use hotcalls::telemetry::{now_cycles, CycleHist, PlaneTelemetry};

use crate::layers::{Host, Virt};
use crate::stats::{median, quantile_sorted, ratio, MIB};
use crate::trace::Spans;
use crate::workloads::{kv::Kv, ring::Ring, store::Store, vpn::Vpn};
use crate::{Clock, Workload};

/// Rate windows per timed phase; the rate metrics are their medians.
const WINDOWS: f64 = 20.0;
/// Spans kept by a traced run (the rest are counted as dropped).
const SPAN_CAP: usize = 60_000;
/// Of which the per-op spans may fill this many; the rest is kept for the
/// replayed interface calls and the `Machine` probe.
const OP_SPANS: usize = 42_000;
/// Untimed warm-up between the virtual window and the timed phase, s.
const WARMUP_S: f64 = 1.0;
/// Least set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Keep setting up (to [`MAX_SETUPS`]) until this many seconds have gone,
/// so the median spans the machine's short swings in speed.
const SETUP_SECONDS: f64 = 3.0;
/// Most set-ups a run makes; bounds the memory their times take.
const MAX_SETUPS: usize = 1_000_000;

/// Every API whose virtual cost per call the traced run reports.
const SIM_APIS: &[&str] = &[
    "RunEnclaveFunction",
    "read",
    "sendmsg",
    "recvfrom",
    "write",
    "sendto",
    "poll",
    "time",
    "getpid",
];
/// Every API whose replayed host time the traced run reports.
const REPLAY_APIS: &[&str] = &[
    "RunEnclaveFunction",
    "read",
    "sendmsg",
    "recvfrom",
    "write",
    "sendto",
    "aux_batch",
];
/// The ring workload's size classes.
const RING_CLASSES: &[&str] = &["inline", "slab", "out2k"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// `kv`, `vpn`, `ring` or `store`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed phase(s) measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the plain run.
    pub trace: bool,
    /// Corrupts this operation's output before its check (self-test).
    pub corrupt_op: Option<u64>,
    /// Where a traced run writes its spans.
    pub spans_out: Option<PathBuf>,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit; per-layer units carry their clock as a prefix.
    pub unit: &'static str,
    /// The clock it was read from.
    pub clock: Clock,
}

impl Metric {
    pub(crate) fn host(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            clock: Clock::Host,
        }
    }

    pub(crate) fn virt(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            clock: Clock::Virtual,
        }
    }
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (virtual window and timed phases).
    pub attempted: u64,
    /// Operations that returned an error or failed their check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Virtual-clock counters of the window (exact integers).
    pub window: Virt,
    /// Operations in the virtual window.
    pub window_ops: u64,
    /// Timed samples behind the latency quantiles.
    pub samples: u64,
}

impl Outcome {
    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Unknown workload or a failed set-up.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "kv" => run_with::<Kv>(cfg),
        "vpn" => run_with::<Vpn>(cfg),
        "ring" => run_with::<Ring>(cfg),
        "store" => run_with::<Store>(cfg),
        other => Err(format!("unknown workload {other:?} (kv, vpn, ring, store)")),
    }
}

#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    next: u64,
}

/// One timed phase's raw record.
#[derive(Debug, Default)]
struct Phase {
    /// Op span per timed op, ns.
    samples: Vec<u32>,
    /// Op spans per latency class, ns.
    class_samples: Vec<Vec<u32>>,
    /// `(ops, op-span ns, bytes)` per rate window.
    windows: Vec<(u64, u64, u64)>,
    ops: u64,
    bytes: u64,
    op_ns: u64,
    gen_ns: u64,
    check_ns: u64,
    snapshot_ns: u64,
    wall_ns: u64,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Checks op `i`'s result off the clock (corrupting it first when asked)
/// and tallies it. Returns the payload bytes of a successful op.
fn settle<W: Workload>(
    w: &mut W,
    tally: &mut Tally,
    i: u64,
    in_window: bool,
    corrupt: Option<u64>,
    input: &W::Input,
    result: Result<W::Output, String>,
) -> u64 {
    let (ok, bytes) = match result {
        Ok(mut out) => {
            if corrupt == Some(i) {
                w.corrupt(&mut out);
            }
            (w.check(in_window, input, &out), W::bytes(input, &out))
        }
        Err(e) => {
            eprintln!("op {i} failed: {e}");
            (false, 0)
        }
    };
    tally.attempted += 1;
    tally.failed += u64::from(!ok);
    bytes
}

/// Runs operations until `seconds` have passed (on batch boundaries). A
/// traced phase also snapshots the host counters around every op and
/// records spans.
fn timed<W: Workload>(
    w: &mut W,
    tally: &mut Tally,
    seconds: f64,
    corrupt: Option<u64>,
    mut spans: Option<&mut Spans>,
) -> Phase {
    let mut p = Phase {
        class_samples: vec![Vec::new(); W::CLASSES.len().max(1)],
        ..Phase::default()
    };
    w.begin_phase();
    let limit = Duration::from_secs_f64(seconds);
    let window_len = Duration::from_secs_f64((seconds / WINDOWS).max(0.01));
    let start = Instant::now();
    let mut win_start = start;
    let mut win = (0u64, 0u64, 0u64);
    loop {
        for _ in 0..W::BATCH {
            let i = tally.next;
            tally.next += 1;
            let t0 = Instant::now();
            let input = w.gen(i);
            let t1 = Instant::now();
            let before = spans.as_ref().map(|_| w.host());
            let t2 = Instant::now();
            let result = w.op(&input);
            let t3 = Instant::now();
            let after = spans.as_ref().map(|_| w.host());
            let t4 = Instant::now();
            let bytes = settle(w, tally, i, false, corrupt, &input, result);
            let t5 = Instant::now();
            let op_ns = ns(t3 - t2);
            p.samples.push(op_ns.min(u64::from(u32::MAX)) as u32);
            p.class_samples[W::class(&input)].push(op_ns.min(u64::from(u32::MAX)) as u32);
            p.ops += 1;
            p.bytes += bytes;
            p.op_ns += op_ns;
            p.gen_ns += ns(t1 - t0);
            p.snapshot_ns += ns(t2 - t1) + ns(t4 - t3);
            p.check_ns += ns(t5 - t4);
            win.0 += 1;
            win.1 += op_ns;
            win.2 += bytes;
            if let Some(s) = spans.as_deref_mut().filter(|s| s.len() < OP_SPANS) {
                let root = s.push("iter", i, None, t0, t5);
                if root.is_some() {
                    s.push("gen", i, root, t0, t1);
                    s.push("snapshot", i, root, t1, t2);
                    let op = s.push("op", i, root, t2, t3);
                    if let (Some(a), Some(b)) = (after, before) {
                        s.annotate(op, "ring_calls", a.since(&b).ring_calls);
                    }
                    s.push("snapshot", i, root, t3, t4);
                    s.push("check", i, root, t4, t5);
                }
            }
        }
        let now = Instant::now();
        if now - win_start >= window_len {
            p.windows.push(win);
            win = (0, 0, 0);
            win_start = now;
        }
        if now - start >= limit {
            break;
        }
    }
    if win.0 > 0 && p.windows.is_empty() {
        p.windows.push(win);
    }
    p.wall_ns = ns(start.elapsed());
    p
}

fn window_rates(p: &Phase, per_op: impl Fn(&(u64, u64, u64)) -> f64) -> f64 {
    let rates: Vec<f64> = p
        .windows
        .iter()
        .filter(|w| w.1 > 0)
        .map(|w| per_op(w) / (w.1 as f64 / 1e9))
        .collect();
    median(&rates)
}

/// Samples a window needs before its own latency quantiles are used.
const WINDOW_QUANTILE_SAMPLES: u64 = 1_000;

/// Op-time quantile `q` in µs: the median over rate windows of each
/// window's quantile when every window holds enough samples (so a slow
/// stretch of the run moves it no more than it moves the rates), else the
/// quantile over all samples.
fn latency_us(p: &Phase, q: f64) -> f64 {
    if p.windows.is_empty() || p.windows.iter().any(|w| w.0 < WINDOW_QUANTILE_SAMPLES) {
        let mut s = p.samples.clone();
        s.sort_unstable();
        return quantile_sorted(&s, q) / 1e3;
    }
    let mut at = 0usize;
    let per_window: Vec<f64> = p
        .windows
        .iter()
        .map(|w| {
            let mut s = p.samples[at..at + w.0 as usize].to_vec();
            at += w.0 as usize;
            s.sort_unstable();
            quantile_sorted(&s, q)
        })
        .collect();
    median(&per_window) / 1e3
}

fn run_with<W: Workload>(cfg: &Config) -> Result<Outcome, String> {
    // Set up several times; the last instance is the one measured.
    let mut setup_s = Vec::new();
    let mut inst: Option<W> = None;
    let started = Instant::now();
    while setup_s.len() < SETUPS
        || (started.elapsed().as_secs_f64() < SETUP_SECONDS && setup_s.len() < MAX_SETUPS)
    {
        drop(inst.take());
        let t = Instant::now();
        let w = W::setup(cfg.seed, cfg.trace)?;
        setup_s.push(t.elapsed().as_secs_f64());
        inst = Some(w);
    }
    let mut w = inst.expect("at least one set-up");
    let mut sorted = setup_s.clone();
    sorted.sort_by(f64::total_cmp);
    eprintln!(
        "{} set-ups: min {:.6} s, median {:.6} s, max {:.6} s",
        sorted.len(),
        sorted[0],
        median(&sorted),
        sorted[sorted.len() - 1]
    );
    let mut tally = Tally::default();

    // The virtual-clock window: the first K operations, before any timed
    // phase.
    let k = W::VIRTUAL_OPS;
    let v0 = w.virt();
    for _ in 0..k {
        let i = tally.next;
        tally.next += 1;
        let input = w.gen(i);
        let result = w.op(&input);
        settle(&mut w, &mut tally, i, true, cfg.corrupt_op, &input, result);
    }
    let window = w.virt().since(&v0);
    let kf = k as f64;
    // Untimed warm-up at full speed, so threads settle onto the vCPUs
    // before the clock starts.
    timed(
        &mut w,
        &mut tally,
        WARMUP_S.min(cfg.seconds),
        cfg.corrupt_op,
        None,
    );

    let mut metrics = Vec::new();
    let samples;
    if !cfg.trace {
        let h0 = w.host();
        let p = timed(&mut w, &mut tally, cfg.seconds, cfg.corrupt_op, None);
        let dh = w.host().since(&h0);
        let rates: Vec<String> = p
            .windows
            .iter()
            .map(|w| format!("{:.0}", w.0 as f64 / (w.1 as f64 / 1e9)))
            .collect();
        eprintln!("window ops/s: {}", rates.join(" "));
        eprintln!(
            "plane over the timed phase: fused share {:.3}, wakeups/kop {:.2}, \
             parks/kop {:.2}, ctl resizes {}, steal hits {}/{}",
            ratio(dh.fused_runs as f64, dh.ring_calls as f64),
            dh.wakeups as f64 * 1e3 / p.ops.max(1) as f64,
            dh.parks as f64 * 1e3 / p.ops.max(1) as f64,
            dh.ctl_resizes,
            dh.steal_hits,
            dh.steals
        );
        samples = p.ops;
        metrics.push(Metric::host(
            "host_ops_per_s",
            window_rates(&p, |w| w.0 as f64),
            "1/s",
        ));
        metrics.push(Metric::host("host_p50_us", latency_us(&p, 0.50), "us"));
        metrics.push(Metric::host("host_p90_us", latency_us(&p, 0.90), "us"));
        metrics.push(Metric::host(
            "host_mib_per_s",
            window_rates(&p, |w| w.2 as f64 / MIB),
            "MiB/s",
        ));
        metrics.push(Metric::host("setup_s", median(&setup_s), "s"));
        eprintln!(
            "host p99 {:.3} us (reported by the traced run)",
            latency_us(&p, 0.99)
        );
        if window.cycles > 0 {
            eprintln!(
                "virtual window: {:.4} sim cycles per op (reported by the traced run)",
                window.cycles as f64 / kf
            );
        }
    } else {
        // Untraced first, so the traced phase can report its own overhead.
        let plain = timed(&mut w, &mut tally, cfg.seconds / 2.0, cfg.corrupt_op, None);
        let mut spans = Spans::new(SPAN_CAP);
        let h0 = w.host();
        let tel0 = w.plane();
        let (c0, i0) = (now_cycles(), Instant::now());
        let traced = timed(
            &mut w,
            &mut tally,
            cfg.seconds / 2.0,
            cfg.corrupt_op,
            Some(&mut spans),
        );
        let (c1, i1) = (now_cycles(), Instant::now());
        let tel1 = w.plane();
        let dh = w.host().since(&h0);
        let cycles_per_ns = ratio((c1 - c0) as f64, ns(i1 - i0) as f64);
        let replay = w.replay(&window, k, &mut spans);
        samples = traced.ops;
        metrics = per_layer::<W>(&LayerInputs {
            window: &window,
            window_ops: kf,
            plain: &plain,
            traced: &traced,
            dh: &dh,
            tel: (tel0.as_ref(), tel1.as_ref()),
            cycles_per_ns,
            replay: &replay,
        });
        for e in w.extra() {
            if let Some(m) = metrics.iter_mut().find(|m| m.name == e.name) {
                *m = e;
            }
        }
        if let Some(path) = &cfg.spans_out {
            let header = format!(
                "\"workload\":\"{}\",\"seed\":{},\"traced_ops\":{}",
                cfg.workload, cfg.seed, traced.ops
            );
            if let Err(e) = spans.write(path, &header) {
                eprintln!("could not write spans to {}: {e}", path.display());
            }
        }
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        window,
        window_ops: k,
        samples,
    })
}

struct LayerInputs<'a> {
    window: &'a Virt,
    window_ops: f64,
    plain: &'a Phase,
    traced: &'a Phase,
    dh: &'a Host,
    tel: (Option<&'a PlaneTelemetry>, Option<&'a PlaneTelemetry>),
    cycles_per_ns: f64,
    replay: &'a crate::Replay,
}

fn queue_count(t: Option<&PlaneTelemetry>) -> u64 {
    t.map_or(0, |t| t.merged_queue().count())
}

fn per_layer<W: Workload>(x: &LayerInputs<'_>) -> Vec<Metric> {
    let v = x.window;
    let k = x.window_ops;
    let t = x.traced;
    let dh = x.dh;
    let ops = t.ops.max(1) as f64;
    let per_kop = |n: u64| n as f64 * 1e3 / ops;
    let op_us = t.op_ns as f64 / ops / 1e3;
    let mut m = Vec::new();

    // The virtual total that the apps and env layers split.
    m.push(Metric::virt(
        "sim_cycles_per_op",
        v.cycles as f64 / k,
        "virt_cycles",
    ));

    // apps
    let app_self = if x.replay.env_us_per_op > 0.0 {
        op_us - x.replay.env_us_per_op
    } else if W::APP_LAYER {
        op_us
    } else {
        0.0
    };
    m.push(Metric::host("apps.self_us_per_op", app_self, "host_us"));
    m.push(Metric::virt(
        "apps.sim_cycles_per_op",
        (v.cycles - v.iface) as f64 / k,
        "virt_cycles",
    ));

    // Store-only numbers; the store workload fills them in.
    m.push(Metric::host("apps.store.put_us_per_mib", 0.0, "host_us"));
    m.push(Metric::host("apps.store.get_us_per_mib", 0.0, "host_us"));
    m.push(Metric::virt(
        "apps.store.dedup_hit_share",
        0.0,
        "virt_share",
    ));

    // env
    m.push(Metric::virt(
        "env.calls_per_op",
        v.calls as f64 / k,
        "virt_count",
    ));
    for api in REPLAY_APIS {
        let us = x
            .replay
            .call_us
            .iter()
            .find(|(a, _)| a == api)
            .map_or(0.0, |(_, us)| *us);
        m.push(Metric::host(format!("env.call_us.{api}"), us, "host_us"));
    }
    m.push(Metric::host(
        "env.replayed_us_per_op",
        x.replay.env_us_per_op,
        "host_us",
    ));
    m.push(Metric::virt(
        "env.iface_cycles_per_op",
        v.iface as f64 / k,
        "virt_cycles",
    ));
    m.push(Metric::virt(
        "env.iface_share",
        ratio(v.iface as f64, v.cycles as f64),
        "virt_share",
    ));

    // rt
    let submits = queue_count(x.tel.1).saturating_sub(queue_count(x.tel.0)) + dh.fused_runs;
    m.push(Metric::host(
        "rt.submits_per_op",
        submits as f64 / ops,
        "host_count",
    ));
    let stage_ns = |h: Option<CycleHist>, q: f64| {
        h.map_or(0.0, |h| ratio(h.percentile(q) as f64, x.cycles_per_ns))
    };
    let tel = x.tel.1;
    m.push(Metric::host(
        "rt.queue_ns_p50",
        stage_ns(tel.map(PlaneTelemetry::merged_queue), 0.50),
        "host_ns",
    ));
    m.push(Metric::host(
        "rt.queue_ns_p99",
        stage_ns(tel.map(PlaneTelemetry::merged_queue), 0.99),
        "host_ns",
    ));
    m.push(Metric::host(
        "rt.service_ns_p50",
        stage_ns(tel.map(PlaneTelemetry::merged_service), 0.50),
        "host_ns",
    ));
    m.push(Metric::host(
        "rt.reap_ns_p50",
        stage_ns(tel.map(|t| t.reap.clone()), 0.50),
        "host_ns",
    ));
    for class in RING_CLASSES {
        let p50 = W::CLASSES.iter().position(|c| c == class).map_or(0.0, |i| {
            let mut s = t.class_samples[i].clone();
            s.sort_unstable();
            quantile_sorted(&s, 0.50)
        });
        m.push(Metric::host(
            format!("rt.call_ns_p50.{class}"),
            p50,
            "host_ns",
        ));
    }
    m.push(Metric::host(
        "rt.wakeups_per_kop",
        per_kop(dh.wakeups),
        "host_per_kop",
    ));
    m.push(Metric::host(
        "rt.governor_parks_per_kop",
        per_kop(dh.parks),
        "host_per_kop",
    ));
    m.push(Metric::host(
        "rt.governor_wakes_per_kop",
        per_kop(dh.wakes),
        "host_per_kop",
    ));
    m.push(Metric::host(
        "rt.useful_poll_share",
        ratio(dh.busy_polls as f64, (dh.busy_polls + dh.idle_polls) as f64),
        "host_share",
    ));
    m.push(Metric::host(
        "rt.fallbacks_per_kop",
        per_kop(dh.fallbacks),
        "host_per_kop",
    ));
    m.push(Metric::host(
        "rt.fused_share",
        ratio(dh.fused_runs as f64, dh.ring_calls as f64),
        "host_share",
    ));
    m.push(Metric::host(
        "rt.steal_hit_share",
        ratio(dh.steal_hits as f64, dh.steals as f64),
        "host_share",
    ));
    m.push(Metric::host(
        "rt.arena_inline_share",
        ratio(dh.arena_inline as f64, dh.arena_acquires as f64),
        "host_share",
    ));
    m.push(Metric::host(
        "rt.arena_allocs_per_op",
        dh.arena_allocs as f64 / ops,
        "host_count",
    ));
    m.push(Metric::host(
        "rt.stream_chunks_per_mib",
        ratio(dh.stream_chunks as f64, dh.stream_bytes as f64 / MIB),
        "host_count",
    ));
    m.push(Metric::host(
        "rt.stream_resizes",
        dh.stream_resizes as f64,
        "host_count",
    ));
    m.push(Metric::host(
        "rt.stream_tickets_conserved",
        f64::from(u8::from(dh.stream_submitted == dh.stream_redeemed)),
        "host_count",
    ));

    // ctl
    m.push(Metric::host(
        "ctl.sdk_route_share",
        ratio(
            dh.env_calls.saturating_sub(dh.ring_calls) as f64,
            dh.env_calls as f64,
        ),
        "host_share",
    ));
    m.push(Metric::host(
        "ctl.explore_probes_per_kop",
        per_kop(dh.ctl_explore),
        "host_per_kop",
    ));
    m.push(Metric::host("ctl.flips", dh.ctl_flips as f64, "host_count"));
    m.push(Metric::host(
        "ctl.resizes",
        dh.ctl_resizes as f64,
        "host_count",
    ));

    // sim / sdk
    for api in SIM_APIS {
        let cpc = v
            .per_api
            .get(*api)
            .map_or(0.0, |&(calls, cycles)| ratio(cycles as f64, calls as f64));
        m.push(Metric::virt(
            format!("sim.cycles_per_call.{api}"),
            cpc,
            "virt_cycles",
        ));
    }

    // machine
    m.push(Metric::virt(
        "machine.lines_per_op",
        v.lines as f64 / k,
        "virt_count",
    ));
    m.push(Metric::host(
        "machine.host_ns_per_line",
        x.replay.host_ns_per_line,
        "host_ns",
    ));
    m.push(Metric::virt(
        "machine.llc_miss_share",
        ratio(v.llc.1 as f64, (v.llc.0 + v.llc.1) as f64),
        "virt_share",
    ));
    m.push(Metric::virt(
        "machine.mee_miss_share",
        ratio(v.mee.1 as f64, (v.mee.0 + v.mee.1) as f64),
        "virt_share",
    ));
    m.push(Metric::virt(
        "machine.epc_evictions_per_op",
        v.epc_evictions as f64 / k,
        "virt_count",
    ));

    // gen and the trace itself
    m.push(Metric::host(
        "gen.us_per_op",
        t.gen_ns as f64 / ops / 1e3,
        "host_us",
    ));
    m.push(Metric::host("trace.op_us_per_op", op_us, "host_us"));
    let spans_ns = t.op_ns + t.gen_ns + t.check_ns + t.snapshot_ns;
    m.push(Metric::host(
        "trace.unexplained_us_per_op",
        (t.wall_ns as f64 - spans_ns as f64) / ops / 1e3,
        "host_us",
    ));
    let wall_per_op = |p: &Phase| p.wall_ns as f64 / p.ops.max(1) as f64;
    m.push(Metric::host(
        "trace.overhead_share",
        ratio(wall_per_op(t), wall_per_op(x.plain)) - 1.0,
        "host_share",
    ));
    m.push(Metric::host(
        "trace.latency_samples",
        t.ops as f64,
        "host_count",
    ));
    // The tail past the bounded p90, from the untraced half: on two
    // shared vCPUs it swings too far between runs to carry a bound.
    m.push(Metric::host(
        "host_p99_us",
        latency_us(x.plain, 0.99),
        "host_us",
    ));
    m
}
