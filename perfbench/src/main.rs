//! Command line of the repository benchmark.
//!
//! ```text
//! mwllsc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric, then the result as one JSON object on the
//! last line of standard output. Exits 1 if any correctness gate failed
//! and 2 on a usage or set-up error.

use std::process::ExitCode;

use mwllsc_perfbench::{result_json, run, Config, Spec, NAMES};

const USAGE: &str =
    "usage: mwllsc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = Spec::named(&workload)
        .ok_or_else(|| format!("unknown workload {workload} (one of {})", NAMES.join(", ")))?;
    let mut cfg =
        Config::new(spec, seed.unwrap_or(1), seconds.unwrap_or(10.0), trace.unwrap_or(false));
    if cfg.trace {
        cfg.trace_dir = Some(".perfbench_trace".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("mwllsc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("mwllsc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# {} seed={} seconds={} trace={} cores={threads} attempted={} failed={} failed_frac={}",
        cfg.spec.name,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for m in &out.metrics {
        match m.samples {
            Some(n) => println!("{:<32} {:>16.3} {:<6} (n={n})", m.name, m.value, m.unit),
            None => println!("{:<32} {:>16.3} {}", m.name, m.value, m.unit),
        }
    }
    println!("{}", result_json(&out));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
