//! Two-clock benchmark for the QueenBee reproduction.
//!
//! ```text
//! qb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! qb-perfbench knee --workload <name> --seed <n> --rates 10,20,40
//! ```
//!
//! A run builds the named workload's deployment from the seed, warms it up
//! with untimed open-loop slices, then replays the measured phase slice by
//! slice. With `--trace 0` it prints the end-to-end metrics (simulated
//! sojourn, completion, freshness, recall; host throughput, set-up time,
//! memory). With `--trace 1` it replays the same workload with the
//! simulated-clock tracer on, wraps every call it makes in a host span
//! (written to `<out>/spans-<workload>-<seed>.json` at exit), times direct
//! calls into each layer's public functions on the warmed state, and prints
//! the per-layer metrics. Either way the correctness gate runs, and the
//! last line of standard output is one JSON object.
//!
//! `--seconds` scales the measured phase: the number of one-second
//! simulated slices is fixed per workload at the reference length of 10
//! and scales linearly from there, so one seed and one `--seconds` always
//! replay the same simulated work.

mod deploy;
mod host;
mod probes;
mod report;
mod workload;

use std::process::ExitCode;

use report::Output;
use workload::Spec;

/// The reference `--seconds` the workloads' slice counts are sized for.
const REFERENCE_SECONDS: u64 = 10;

struct Args {
    knee: bool,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: String,
    rates: Vec<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let knee = raw.first().is_some_and(|a| a == "knee");
    if knee {
        raw.remove(0);
    }
    let mut args = Args {
        knee,
        workload: String::new(),
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: false,
        out: ".bench_build/perfbench".into(),
        rates: Vec::new(),
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("--seed"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("--seconds"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                }
            }
            "--out" => args.out = value.clone(),
            "--rates" => {
                args.rates = value
                    .split(',')
                    .map(|r| r.parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad("--rates"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qb-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(base) = Spec::named(&args.workload) else {
        eprintln!(
            "qb-perfbench: unknown workload '{}' (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    if args.knee {
        probes::knee_study(&base, args.seed, &args.rates);
        return ExitCode::SUCCESS;
    }
    let measured = (base.measured_slices * args.seconds).div_ceil(REFERENCE_SECONDS);
    let spec = Spec {
        measured_slices: measured.max(1),
        ..base
    };
    let output: Output = if args.trace {
        probes::traced_run(&spec, args.seed, &args.out)
    } else {
        report::end_to_end_run(&spec, args.seed)
    };
    output.print();
    if output.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sim-clock metrics of one end-to-end run, formatted exactly.
    fn sim_metrics(spec: &Spec, seed: u64) -> String {
        let out = report::end_to_end_run(spec, seed);
        assert!(
            out.correct,
            "{}: gate failed: {:?}",
            spec.name, out.violations
        );
        out.metrics
            .iter()
            .filter(|(name, _, _)| report::SIM_METRICS.contains(&name.as_str()))
            .map(|(name, value, _)| format!("{name}={value:?}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn sim_clock_metrics_repeat_exactly_at_one_seed() {
        for name in workload::NAMES {
            let spec = Spec::named(name).expect("listed workload").shortened(2, 4);
            let first = sim_metrics(&spec, 7);
            assert_eq!(first.split(' ').count(), report::SIM_METRICS.len());
            assert_eq!(first, sim_metrics(&spec, 7), "{name}");
        }
    }

    #[test]
    fn every_workload_is_named() {
        for name in workload::NAMES {
            assert_eq!(Spec::named(name).map(|s| s.name), Some(name));
        }
        assert!(Spec::named("no_such_workload").is_none());
    }
}
