//! Command-line entry point: one run of one workload, result as the last
//! line of standard output.
//!
//! ```text
//! e2ebench --workload <kv|vpn|ring|store> --seed <n> --seconds <s> --trace <0|1>
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use e2ebench::{run, Config, Outcome};

/// Longest accepted `--seconds`.
const MAX_SECONDS: f64 = 3_600.0;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt_op: None,
        spans_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => cfg.trace = value()? == "1",
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 || cfg.seconds > MAX_SECONDS {
        return Err(format!("--seconds must be in (0, {MAX_SECONDS}]"));
    }
    if cfg.trace {
        cfg.spans_out = Some(PathBuf::from(format!(
            ".bench_out/spans-{}-seed{}.json",
            cfg.workload, cfg.seed
        )));
    }
    Ok(cfg)
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        eprintln!(
            "{:<34} {:>16.4} {} ({:?} clock)",
            m.name, m.value, m.unit, m.clock
        );
    }
    eprintln!(
        "{}: {} ops attempted, {} failed (fail_share {:.6}), {} timed samples, \
         virtual window {} ops, available parallelism {}",
        cfg.workload,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.samples,
        outcome.window_ops,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
