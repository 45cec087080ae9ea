//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--scratch DIR]`
//!
//! Prints one line per op with its simulated outputs, the host block, a
//! metric table, and as its last line the result object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use std::path::PathBuf;
use std::process::ExitCode;

use bft_simulator::prelude::SchedulerKind;
use perfbench::host::Host;
use perfbench::report::{result_line, table, END_TO_END, PER_LAYER};
use perfbench::workloads::{measure, Options, Size, Workload};

const USAGE: &str = "usage: perfbench --workload pbft-n1024|wan-partition|sweep \
                     --seed N --seconds S --trace 0|1 [--scratch DIR]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = PathBuf::from("perfbench/target/scratch");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--scratch" => scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
        scratch,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe(SchedulerKind::default().name(), opts.seed);
    let measured = match measure(&opts) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let metrics = measured
        .metrics
        .emit(if opts.trace { PER_LAYER } else { END_TO_END });
    for line in &measured.log {
        println!("{line}");
    }
    println!("host {}", host.to_json());
    print!(
        "{} ({}):\n{}",
        opts.workload.name(),
        if opts.trace { "traced" } else { "untraced" },
        table(&metrics)
    );
    println!(
        "{}",
        result_line(
            measured.correct(),
            measured.attempted,
            measured.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
