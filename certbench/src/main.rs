//! Command line: `certbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints one line per metric, a stamp row, and — last —
//! the JSON result object. Exits 1 when a correctness check failed and
//! 2 on a usage or I/O error (without a result line).

use certbench::report::{json_object, json_str, result_line};
use certbench::workload::{Sizes, Workload};
use certbench::{default_out_dir, run, Options};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: certbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::HitLarge,
        seed: 1,
        seconds: 10.0,
        trace: false,
        sizes: Sizes::full(),
        corrupt: None,
        out_dir: default_out_dir().to_path_buf(),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("certbench: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics.0 {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let stamp: Vec<(String, String)> = report
        .stamp
        .iter()
        .map(|(k, v)| (k.clone(), json_str(v)))
        .collect();
    println!("# row {}", json_object(&stamp));
    println!(
        "{}",
        result_line(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
