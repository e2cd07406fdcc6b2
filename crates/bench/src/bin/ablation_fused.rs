//! `ablation_fused` — the run-to-completion fused fast path against the
//! pooled handoff, and the adaptive fused↔pooled flip under a
//! phase-shifting workload.
//!
//! The paper buys its ~620-cycle call by replacing the enclave crossing
//! with a shared-memory handoff to a polling responder — but the handoff
//! itself still costs a publish, a doze wake, and the cache-line transfers
//! between the two cores (the same motivation behind Nimble's direct
//! `enclu`-call: when there is nothing to overlap, the cheapest interface
//! is no interface). Fused mode applies that observation to the runtime:
//! when the responders are dozing and the ring is near-empty, the
//! requester executes the handler inline in `call`/`submit` and the
//! handoff disappears entirely. This harness witnesses the two claims the
//! mode makes:
//!
//! **Section A — single-requester fused vs pooled.** One requester, one
//! responder, trivial cpu handler (the best single-requester pooled row of
//! `BENCH_rt.json`, measured in-run so the comparison is same-host,
//! same-build). `FusedMode::Always` must beat the pooled path: the fused
//! call is a function call plus two counter bumps, the pooled call is a
//! full publish/wake/transfer round trip.
//!
//! **Section B — phase-shifting adaptive flip.** A 4-shard elastic plane
//! under a workload that alternates *quiet* phases (one caller, sparse
//! sync cpu calls with doze-length gaps — wake-dominated, fused
//! territory) and *burst* phases (2 threads × depth-8 pipelined
//! submissions of a blocking io handler — parallelism-dominated, pooled
//! territory). `FusedMode::Auto` must reach ≥ 0.95× the better of the
//! two static modes (`Off`, `Always`) on the same workload, flip both
//! ways (inline runs *and* responder-executed calls both nonzero), beat
//! `Always`'s forced-inline bursts (overlapped blocking handlers vs
//! serial inline sleeps), cut the sparse-call latency against `Off`
//! (the pooled path re-pays the doze wake on every isolated call), and
//! conserve tickets exactly (`stats.calls == calls completed` — nothing
//! lost, nothing run twice).
//!
//! Usage: `ablation_fused [OUT.json] [--smoke] [--trace-out T.json]
//! [--prom-out M.prom] [--baseline-json BASE.json]`. Output: tables on
//! stdout plus `BENCH_fused.json`; exits non-zero if a claim fails. The
//! JSON's top-level `check_point_calls_per_sec` (the fused Section-A rate)
//! is the telemetry-overhead reference for `--baseline-json`, and the
//! `fused_runs` / `fused_fallbacks` counters must show up in the
//! Prometheus exposition and (when tracing) the trace events — the run
//! self-checks both.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bench::artifact::ArtifactSink;
use bench::report::{banner, Json};
use bench::telemetry::append_snapshot;
use hotcalls::rt::{CallTable, RingServer, Ticket};
use hotcalls::{
    FusedMode, HotCallConfig, HotCallStats, ResponderPolicy, Snapshot, TelemetryRegistry,
};

/// Slots per ring (and per shard in Section B).
const RING_CAPACITY: usize = 64;
/// Shards in the phase-shifting plane.
const SHARDS: usize = 4;
/// Concurrent submitters in a burst phase — fewer than the shards, so the
/// pooled path can overlap more blocked handlers than inline execution
/// can (that is what makes pooling win the bursts).
const BURST_THREADS: usize = 2;
/// Pipelined submissions each burst thread keeps in flight.
const BURST_DEPTH: usize = 8;
/// The blocking io handler bursts submit (id 1 in the phase table).
const IO_HANDLER_SLEEP: Duration = Duration::from_micros(100);
/// Gap between the sparse calls of a quiet phase — long enough for the
/// responders (256 idle polls) to doze inside it, so each pooled call
/// pays a full doze wake and each fused call pays nothing.
const QUIET_GAP: Duration = Duration::from_micros(300);
/// The telemetry-overhead budget against `--baseline-json`.
const MIN_BASELINE_RATIO: f64 = 0.97;

fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Responders doze quickly when idle: fused eligibility requires a
/// quiescent pool, and a blocking burst handler lives off wakeups anyway.
fn pool_config(mode: FusedMode) -> HotCallConfig {
    HotCallConfig {
        idle_polls_before_sleep: Some(256),
        drain_batch: 1,
        fused_mode: mode,
        ..HotCallConfig::patient()
    }
}

/// Section A: calls/sec of one requester against a one-responder ring,
/// cpu handler, under the given fused mode.
fn single_requester_cps(
    mode: FusedMode,
    measure: Duration,
    register: Option<(&TelemetryRegistry, &str)>,
) -> (f64, HotCallStats) {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let id = table.register(|x| x + 1);
    let server = RingServer::spawn_adaptive(
        table,
        RING_CAPACITY,
        ResponderPolicy::fixed(1),
        pool_config(mode),
    )
    .expect("pool shape is valid");
    if let Some((registry, name)) = register {
        registry.register_plane(server.telemetry_provider(name));
    }
    let r = server.requester();
    for i in 0..1_000 {
        assert_eq!(r.call(id, i).unwrap(), i + 1);
    }
    let deadline = Instant::now() + measure;
    let start = Instant::now();
    let mut calls = 0u64;
    while Instant::now() < deadline {
        assert_eq!(r.call(id, calls).unwrap(), calls + 1);
        calls += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = server.stats();
    server.shutdown();
    (calls as f64 / secs, stats)
}

struct PhaseResult {
    mode: &'static str,
    quiet_cps: f64,
    /// Median in-call latency of the sparse quiet calls — where the fused
    /// path's saved wake shows up (throughput there is pacing-bound).
    quiet_ns_per_call: f64,
    burst_cps: f64,
    total_cps: f64,
    completed: u64,
    stats: HotCallStats,
}

/// Section B: the phase-shifting workload against a 4-shard elastic
/// plane. Quiet phases drive a sync cpu call tail from one caller; burst
/// phases drive pipelined blocking-io submissions from `BURST_THREADS`
/// callers. Returns the per-phase and overall rates plus the plane's
/// final counters, with every submission accounted (the conservation
/// check is the caller's).
fn phase_workload(
    mode: &'static str,
    fused: FusedMode,
    phases: usize,
    quiet: Duration,
    burst: Duration,
    register: Option<(&TelemetryRegistry, &str)>,
) -> PhaseResult {
    let mut table: CallTable<u64, u64> = CallTable::new();
    let cpu = table.register(|x| x + 1);
    let io = table.register(|x| {
        std::thread::sleep(IO_HANDLER_SLEEP);
        x + 1
    });
    let server = RingServer::spawn_sharded(
        table,
        RING_CAPACITY,
        SHARDS,
        ResponderPolicy::elastic(1, SHARDS),
        pool_config(fused),
    )
    .expect("plane shape is valid");
    if let Some((registry, name)) = register {
        registry.register_plane(server.telemetry_provider(name));
    }

    let (mut quiet_calls, mut quiet_secs) = (0u64, 0.0f64);
    let mut quiet_call_ns: Vec<u64> = Vec::new();
    let (mut burst_calls, mut burst_secs) = (0u64, 0.0f64);
    for _ in 0..phases {
        // Quiet: a lone caller's *sparse* synchronous call tail — one
        // call every QUIET_GAP, the gap wide enough for the responders to
        // doze inside it. A continuous tail would keep the responders'
        // idle streak from ever ripening, pinning the plane to the pooled
        // equilibrium; sparse traffic is where fusing pays, because the
        // pooled path re-pays the doze wake on every isolated call.
        // Throughput here is pacing-bound, so the fused win is measured
        // as in-call latency.
        let r = server.requester();
        let t0 = Instant::now();
        let deadline = t0 + quiet;
        let mut i = 0u64;
        while Instant::now() < deadline {
            let c0 = Instant::now();
            assert_eq!(r.call(cpu, i).unwrap(), i + 1);
            quiet_call_ns.push(c0.elapsed().as_nanos() as u64);
            i += 1;
            std::thread::sleep(QUIET_GAP);
        }
        quiet_calls += i;
        quiet_secs += t0.elapsed().as_secs_f64();

        // Burst: pipelined blocking submissions. Occupancy blows through
        // the break-even threshold, so an adaptive plane hands the work
        // to the pool, which overlaps the sleeps across shards.
        let t0 = Instant::now();
        let stop = AtomicBool::new(false);
        let done: u64 = std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(BURST_THREADS);
            for _ in 0..BURST_THREADS {
                let r = server.requester();
                let stop = &stop;
                handles.push(s.spawn(move || {
                    let mut done = 0u64;
                    let mut i = 0u64;
                    let mut tickets: Vec<Ticket> = Vec::with_capacity(BURST_DEPTH);
                    while !stop.load(Ordering::Relaxed) {
                        while tickets.len() < BURST_DEPTH {
                            tickets.push(r.submit(io, i).unwrap());
                            i += 1;
                        }
                        r.wait_any(&mut tickets).unwrap();
                        done += 1;
                    }
                    // Drain the tail so every submission is completed and
                    // counted — the conservation check depends on it.
                    while !tickets.is_empty() {
                        r.wait_any(&mut tickets).unwrap();
                        done += 1;
                    }
                    done
                }));
            }
            std::thread::sleep(burst);
            stop.store(true, Ordering::Relaxed);
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        burst_calls += done;
        burst_secs += t0.elapsed().as_secs_f64();
    }

    let stats = server.stats();
    server.shutdown();
    // Median, not mean: the quiet phases are paced, so only a few hundred
    // calls land per run and a single scheduler stall (hundreds of µs on
    // a busy CI host) would otherwise swing the whole figure.
    quiet_call_ns.sort_unstable();
    PhaseResult {
        mode,
        quiet_cps: quiet_calls as f64 / quiet_secs,
        quiet_ns_per_call: quiet_call_ns[quiet_call_ns.len() / 2].max(1) as f64,
        burst_cps: burst_calls as f64 / burst_secs,
        total_cps: (quiet_calls + burst_calls) as f64 / (quiet_secs + burst_secs),
        completed: quiet_calls + burst_calls,
        stats,
    }
}

fn main() {
    let args = ArtifactSink::parse("BENCH_fused.json");
    let registry = TelemetryRegistry::new();
    // Threshold discipline as everywhere in this repo: multiples, not
    // percents, and looser still in smoke mode (CI hosts are small noisy
    // single-core machines). The fused speedup floor survives one core
    // because the win is skipping the handoff, not adding parallelism.
    #[rustfmt::skip]
    let (measure, phases, phase_ms, min_fused_speedup, min_adaptive_ratio, min_burst_gain,
         min_quiet_gain) = if args.smoke {
        (Duration::from_millis(80), 2, 40u64, 1.2, 0.80, 1.05, 1.5)
    } else {
        (Duration::from_millis(400), 3, 150u64, 1.5, 0.95, 1.2, 2.0)
    };
    let phase_len = Duration::from_millis(phase_ms);

    banner("Ablation: fused run-to-completion fast path vs pooled handoff");
    println!(
        "ring {RING_CAPACITY} slots, {SHARDS} shards, burst {BURST_THREADS}x depth \
         {BURST_DEPTH} ({} us io), host threads {}",
        IO_HANDLER_SLEEP.as_micros(),
        host_threads()
    );
    println!();

    // Section A.
    let (pooled_cps, _) =
        single_requester_cps(FusedMode::Off, measure, Some((&registry, "single-pooled")));
    let (fused_cps, fused_stats) = single_requester_cps(
        FusedMode::Always,
        measure,
        Some((&registry, "single-fused")),
    );
    let speedup = fused_cps / pooled_cps;
    println!("single requester, cpu handler (calls/sec):");
    println!("  pooled (1 resp) : {pooled_cps:>12.0}");
    println!(
        "  fused           : {fused_cps:>12.0}  ({} inline runs, {} fallbacks)",
        fused_stats.fused_runs, fused_stats.fused_fallbacks
    );
    println!("  speedup         : {speedup:.2}x");
    println!();

    // Section B.
    let auto = phase_workload(
        "auto",
        FusedMode::Auto,
        phases,
        phase_len,
        phase_len,
        Some((&registry, "phase-auto")),
    );
    let off = phase_workload("off", FusedMode::Off, phases, phase_len, phase_len, None);
    let always = phase_workload(
        "always",
        FusedMode::Always,
        phases,
        phase_len,
        phase_len,
        None,
    );
    let best_static_cps = off.total_cps.max(always.total_cps);
    let adaptive_ratio = auto.total_cps / best_static_cps;
    let burst_gain = auto.burst_cps / always.burst_cps;
    println!("phase-shifting workload ({phases} quiet/burst pairs of {phase_ms} ms):");
    for r in [&auto, &off, &always] {
        println!(
            "  {:>6} | quiet {:>8.0} ns/call burst {:>8.0} total {:>10.0} calls/sec \
             (fused {} fallbacks {})",
            r.mode,
            r.quiet_ns_per_call,
            r.burst_cps,
            r.total_cps,
            r.stats.fused_runs,
            r.stats.fused_fallbacks
        );
    }
    let quiet_gain = off.quiet_ns_per_call / auto.quiet_ns_per_call;
    println!("  adaptive/best-static ratio: {adaptive_ratio:.2}");
    println!("  sparse-call latency gain (off/auto): {quiet_gain:.1}x");
    println!("  burst gain over forced-inline (auto/always): {burst_gain:.2}x");
    println!();

    let snap = registry.snapshot();
    let json = render_json(
        &args,
        pooled_cps,
        fused_cps,
        speedup,
        &[&auto, &off, &always],
        adaptive_ratio,
        burst_gain,
        quiet_gain,
        &snap,
    );
    args.write(&json, &snap);

    // Self-check the claims this artifact exists to witness.
    let mut ok = true;
    if speedup < min_fused_speedup {
        eprintln!(
            "FAIL: fused single-requester rate is only {speedup:.2}x the pooled rate \
             (need >= {min_fused_speedup:.1}x)"
        );
        ok = false;
    }
    if adaptive_ratio < min_adaptive_ratio {
        eprintln!(
            "FAIL: adaptive fused mode reaches only {adaptive_ratio:.2} of the best \
             static mode (need >= {min_adaptive_ratio:.2})"
        );
        ok = false;
    }
    // The flip actually happened, both ways.
    if auto.stats.fused_runs == 0 || auto.stats.calls <= auto.stats.fused_runs {
        eprintln!(
            "FAIL: adaptive plane did not flip both ways (fused {} of {} calls)",
            auto.stats.fused_runs, auto.stats.calls
        );
        ok = false;
    }
    // ... and paid off: the adaptive plane's pooled bursts must beat the
    // forced-inline bursts of `Always` (overlapped blocking handlers vs
    // serial inline sleeps) — the break-even decision, witnessed from the
    // burst side.
    if burst_gain < min_burst_gain {
        eprintln!(
            "FAIL: adaptive bursts gain only {burst_gain:.2}x over forced-inline bursts \
             (need >= {min_burst_gain:.2}x)"
        );
        ok = false;
    }
    // ... and from the quiet side: a sparse pooled call re-pays the doze
    // wake every time, a fused one pays a function call.
    if quiet_gain < min_quiet_gain {
        eprintln!(
            "FAIL: fusing cuts sparse-call latency only {quiet_gain:.2}x \
             (need >= {min_quiet_gain:.2}x)"
        );
        ok = false;
    }
    // Ticket conservation: every completed call was executed exactly once
    // (inline or by a responder), none lost, none duplicated.
    for r in [&auto, &off, &always] {
        if r.stats.calls != r.completed {
            eprintln!(
                "FAIL: mode `{}` executed {} calls for {} completions — tickets were \
                 lost or run twice across the fused/pooled flip",
                r.mode, r.stats.calls, r.completed
            );
            ok = false;
        }
    }
    // The counters are observable where operators look for them.
    let prom = snap.to_prometheus();
    if !prom.contains("hotcalls_fused_runs_total")
        || !prom.contains("hotcalls_fused_fallbacks_total")
    {
        eprintln!("FAIL: fused counters missing from the Prometheus exposition");
        ok = false;
    }
    if let Some(path) = &args.trace_out {
        let doc = std::fs::read_to_string(path).expect("read trace json");
        if !doc.contains("fused_run") {
            eprintln!("FAIL: no fused_run events in the trace at {path}");
            ok = false;
        }
    }
    ok &= args.baseline_gate("check_point_calls_per_sec", fused_cps, MIN_BASELINE_RATIO);

    if !ok {
        std::process::exit(1);
    }
    println!(
        "all fused claims hold: fused >= {min_fused_speedup:.1}x pooled single-requester, \
         adaptive >= {min_adaptive_ratio:.2}x best static across phases, tickets conserved, \
         counters exported"
    );
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    args: &ArtifactSink,
    pooled_cps: f64,
    fused_cps: f64,
    speedup: f64,
    phase_results: &[&PhaseResult],
    adaptive_ratio: f64,
    burst_gain: f64,
    quiet_gain: f64,
    snap: &Snapshot,
) -> String {
    let mut j = Json::bench("ablation_fused");
    j.field_bool("smoke", args.smoke)
        .field_u64("host_threads", host_threads() as u64)
        .field_u64("ring_capacity", RING_CAPACITY as u64)
        .field_u64("shards", SHARDS as u64)
        .field_u64("burst_threads", BURST_THREADS as u64)
        .field_u64("burst_depth", BURST_DEPTH as u64)
        .field_u64("io_handler_us", IO_HANDLER_SLEEP.as_micros() as u64)
        // The overhead-gate reference: the fused single-requester rate.
        // `--baseline-json` reads this field out of a telemetry-off run.
        .field_f64("check_point_calls_per_sec", fused_cps, 1);
    j.begin_object("single_requester");
    j.field_f64("pooled_calls_per_sec", pooled_cps, 1)
        .field_f64("fused_calls_per_sec", fused_cps, 1)
        .field_f64("speedup", speedup, 2);
    j.end_object();
    j.begin_array("phase_shift");
    for r in phase_results {
        j.begin_item();
        j.field_str("mode", r.mode)
            .field_f64("quiet_calls_per_sec", r.quiet_cps, 1)
            .field_f64("quiet_ns_per_call", r.quiet_ns_per_call, 1)
            .field_f64("burst_calls_per_sec", r.burst_cps, 1)
            .field_f64("total_calls_per_sec", r.total_cps, 1)
            .field_u64("completed", r.completed)
            .field_u64("executed", r.stats.calls)
            .field_u64("fused_runs", r.stats.fused_runs)
            .field_u64("fused_fallbacks", r.stats.fused_fallbacks);
        j.end_item();
    }
    j.end_array();
    j.begin_object("checks");
    j.field_f64("fused_speedup", speedup, 2)
        .field_f64("adaptive_ratio", adaptive_ratio, 3)
        .field_f64("burst_gain", burst_gain, 3)
        .field_f64("quiet_latency_gain", quiet_gain, 3);
    j.end_object();
    append_snapshot(&mut j, snap);
    j.finish()
}
