//! End-to-end benchmark of the three paths a C-BMF user waits on.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fit_batch|fit_stream|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs derive only from `--seed`. The run measures for `--seconds`,
//! checks the program's outputs, and prints as its last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for every metric's definition.

mod fit_batch;
mod fit_stream;
mod inputs;
mod layers;
mod metrics;
mod os;
mod serve_mixed;

use std::process::ExitCode;
use std::time::Duration;

use metrics::{END_TO_END, PER_LAYER};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One line recording the host and every resolved knob the numbers depend
/// on. Runs use the defaults; a `CBMF_*` or `RAYON_NUM_THREADS` variable in
/// the environment shows up here.
fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let batch = cbmf_serve::BatchConfig::from_env();
    let block = cbmf_linalg::block::config::current();
    let mut env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("CBMF_") || k == "RAYON_NUM_THREADS")
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    env.sort();
    format!(
        "host nproc={nproc} threads={} simd_isa={} serve_batch={} serve_deadline_us={} \
         serve_depth={} block={block:?} env=[{}]",
        cbmf_parallel::max_threads(),
        cbmf_linalg::simd_isa_name(),
        batch.max_batch,
        batch.deadline.as_micros(),
        batch.queue_depth,
        env.join(" "),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The in-process switch, equivalent to CBMF_TRACE=1 / unset; the
    // traced workloads flip it off around their untraced baseline.
    cbmf_trace::set_enabled(args.trace);
    println!("{}", host_line());
    let outcome = match args.workload.as_str() {
        "fit_batch" => fit_batch::run(&args),
        "fit_stream" => fit_stream::run(&args),
        "serve_mixed" => serve_mixed::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", outcome.to_json(names).to_compact());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload fit_batch --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "fit_batch");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
    }

    #[test]
    fn rejects_malformed_arguments() {
        assert!(parse_args(&argv("--workload fit_batch --seed x --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload fit_batch --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload fit_batch --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1 --seconds 5")).is_err());
        assert!(parse_args(&argv("--workload fit_batch --seed")).is_err());
    }
}
