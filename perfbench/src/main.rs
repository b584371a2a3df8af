//! The repository benchmark. One run:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <poisson3d_pcg|circuit_transient|service_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It generates every input from the seed, measures for the given
//! seconds, checks every answer, and prints a JSON header line (machine
//! and run facts) followed by the result line: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. A traced run also
//! writes its spans to `.bench_out/`.

mod circuit;
mod common;
mod inputs;
mod machine;
mod poisson;
mod report;
mod service;
mod trace;

use common::RunCfg;
use inputs::Sizes;
use report::{num, quote, Outcome};
use trace::Tracer;

/// The workloads, by the names `BENCHMARK.json` gives them.
pub const WORKLOADS: [&str; 3] = ["poisson3d_pcg", "circuit_transient", "service_mixed"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload, untraced or traced.
pub fn run_workload(name: &str, cfg: &RunCfg, tracer: Option<&mut Tracer>) -> Outcome {
    match (name, tracer) {
        ("poisson3d_pcg", None) => poisson::run(cfg),
        ("poisson3d_pcg", Some(t)) => poisson::run_traced(cfg, t),
        ("circuit_transient", None) => circuit::run(cfg),
        ("circuit_transient", Some(t)) => circuit::run_traced(cfg, t),
        ("service_mixed", None) => service::run(cfg),
        ("service_mixed", Some(t)) => service::run_traced(cfg, t),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        sizes: Sizes::FULL,
    };
    let mut tracer = Tracer::new();
    let mut outcome = run_workload(&args.workload, &cfg, args.trace.then_some(&mut tracer));
    // Probed after the workload, so the STREAM arrays stay out of its
    // peak resident set.
    let machine = machine::Machine::probe();
    if args.trace {
        for kernel in ["trisolve", "spmv"] {
            let gbps = outcome.metrics.get(&format!("{kernel}.gbps_computed"));
            outcome.metrics.set(
                &format!("{kernel}.stream_ratio_computed"),
                gbps / machine.stream_triad_gbps,
            );
        }
    }
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    let header = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"machine\": {}, \"notes\": {{{}}}}}",
        quote(&args.workload),
        args.seed,
        num(args.seconds),
        args.trace,
        machine.json(),
        notes.join(", ")
    );
    if args.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        let body = format!("{{\"header\": {header}, \"spans\": {}}}\n", tracer.json());
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    println!("{header}");
    println!("{}", outcome.result_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn cli_accepts_the_contract_flags_only() {
        let a = args("--workload service_mixed --seed 4 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("service_mixed", 4, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload poisson3d_pcg --seconds 1 --trace 0").is_err());
        assert!(args("--workload poisson3d_pcg --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload poisson3d_pcg --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload poisson3d_pcg --seed 1 --seconds 1 --bogus 0").is_err());
    }

    /// A tiny-size run of every workload, untraced and traced, passes
    /// the oracle and prints every catalogue metric.
    #[test]
    fn tiny_smoke_run_of_every_workload() {
        for name in WORKLOADS {
            let cfg = RunCfg {
                seed: 3,
                seconds: 0.3,
                sizes: Sizes::TINY,
            };
            let o = run_workload(name, &cfg, None);
            assert!(
                o.attempted > 0 && o.failed == 0 && o.correct,
                "{name}: {o:?}"
            );
            let line = o.result_json();
            for (metric, _) in report::END_TO_END {
                assert!(
                    line.contains(&format!("\"{metric}\"")),
                    "{name} lacks {metric}"
                );
            }
            assert!(o.metrics.get("setup_s") > 0.0 && o.metrics.get("latency_s.p50") > 0.0);

            let mut tracer = Tracer::new();
            let o = run_workload(name, &cfg, Some(&mut tracer));
            assert!(
                o.attempted > 0 && o.failed == 0 && o.correct,
                "{name} traced: {o:?}"
            );
            let line = o.result_json();
            for (metric, _) in report::PER_LAYER {
                assert!(
                    line.contains(&format!("\"{metric}\"")),
                    "{name} lacks {metric}"
                );
            }
            assert!(o.metrics.get("krylov.iterations") > 0.0, "{name}");
            assert!(o.metrics.get("trace.overhead_ratio") > 0.0, "{name}");
            assert!(!tracer.spans().is_empty(), "{name}");
        }
    }
}
