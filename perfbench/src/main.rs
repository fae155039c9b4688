//! Command-line entry point: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints human-readable figures, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
//! correctness gate fails or a transaction failed, 2 on bad arguments.

use perfbench::{Options, Scale, Workload};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <1-600> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        run: Duration::from_secs_f64(seconds.ok_or("missing --seconds")?),
        trace: trace.ok_or("missing --trace")?,
        scale: Scale::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = perfbench::run(&opts);
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
