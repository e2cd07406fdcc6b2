//! The benchmark's own checks: the virtual clock repeats bit for bit, its
//! layers add up exactly, and a wrong answer is counted as a failure.

use e2ebench::{run, Clock, Config, Outcome};

fn cfg(workload: &str, seed: u64, trace: bool) -> Config {
    Config {
        workload: workload.into(),
        seed,
        seconds: 0.2,
        trace,
        corrupt_op: None,
        spans_out: None,
    }
}

fn go(c: &Config) -> Outcome {
    run(c).unwrap_or_else(|e| panic!("{}: {e}", c.workload))
}

/// Every virtual-clock metric (cycles and input-fixed counts), as bits.
fn virtual_bits(o: &Outcome) -> Vec<(String, u64)> {
    o.metrics
        .iter()
        .filter(|m| m.clock == Clock::Virtual)
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

#[test]
fn virtual_metrics_repeat_bit_for_bit_for_a_seed() {
    for w in ["kv", "vpn"] {
        let a = go(&cfg(w, 7, true));
        let b = go(&cfg(w, 7, true));
        assert_eq!(a.window, b.window, "{w}: window counters");
        let bits = virtual_bits(&a);
        assert!(bits.len() > 10, "{w}: {bits:?}");
        assert_eq!(bits, virtual_bits(&b), "{w}: traced runs");
        let p = go(&cfg(w, 7, false));
        let q = go(&cfg(w, 7, false));
        assert_eq!(p.window, q.window, "{w}: plain runs");
        assert_eq!(p.window, a.window, "{w}: plain and traced windows");
        // A different seed gives different inputs, hence other cycles.
        assert_ne!(go(&cfg(w, 8, false)).window, p.window, "{w}: seed 8");
    }
}

#[test]
fn interface_and_app_cycles_add_up_to_the_total() {
    for w in ["kv", "vpn"] {
        // The window is 4,096 ops, a power of two, so the per-op
        // quotients of the exact cycle totals are exact in floating point.
        let traced = go(&cfg(w, 11, true));
        let iface = traced.get("env.iface_cycles_per_op").unwrap();
        let app = traced.get("apps.sim_cycles_per_op").unwrap();
        let total = traced.get("sim_cycles_per_op").unwrap();
        assert!(iface > 0.0 && app > 0.0, "{w}: {iface} {app}");
        assert_eq!(iface + app, total, "{w}: {iface} + {app} != {total}");
    }
}

#[test]
fn a_corrupted_response_is_counted_as_failed() {
    for w in ["kv", "vpn", "ring", "store"] {
        let clean = go(&cfg(w, 3, false));
        assert_eq!(clean.failed, 0, "{w}: a clean run fails nothing");
        // One op inside the virtual window, one in the timed phase.
        for op in [5, clean.window_ops + 3] {
            let o = go(&Config {
                corrupt_op: Some(op),
                ..cfg(w, 3, false)
            });
            assert!(op < o.attempted, "{w}: op {op} never ran");
            assert_eq!(o.failed, 1, "{w}: op {op} corrupted");
        }
    }
}
