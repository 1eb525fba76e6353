//! `perfbench --workload <powerlaw|road> --seed <n> --seconds <s> --trace <0|1> [--tiny]`
//! runs the benchmark: progress goes to stderr and the last line of
//! stdout is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.
//!
//! `perfbench --workload <powerlaw|road> --seed <n> --reference <reps>`
//! prints the README's reference figures instead.

use std::process::ExitCode;

use perfbench::workload::Spec;
use perfbench::{run, Options};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <powerlaw|road> --seed <n> --seconds <s> --trace <0|1> [--tiny]\n       \
         perfbench --workload <powerlaw|road> --seed <n> --reference <reps> [--tiny]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut reference = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--tiny", _) => {
                tiny = true;
                i += 1;
                continue;
            }
            ("--reference", Some(v)) => match v.parse::<usize>() {
                Ok(r) if r > 0 => reference = Some(r),
                _ => return usage(&format!("bad --reference {v}")),
            },
            ("--workload", Some(v)) => workload = Some(v.to_string()),
            ("--seed", Some(v)) => match v.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad --seed {v}")),
            },
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = Some(s),
                _ => return usage(&format!("bad --seconds {v}")),
            },
            ("--trace", Some("0")) => trace = false,
            ("--trace", Some("1")) => trace = true,
            (flag, _) => return usage(&format!("unexpected argument {flag}")),
        }
        i += 2;
    }
    let Some(spec) = workload.as_deref().and_then(|w| Spec::named(w, tiny)) else {
        return usage(&format!("unknown workload {workload:?}"));
    };
    let Some(seed) = seed else {
        return usage("--seed is required");
    };
    if let Some(reps) = reference {
        perfbench::reference::print(&spec, seed, reps);
        return ExitCode::SUCCESS;
    }
    let Some(seconds) = seconds else {
        return usage("--seconds is required");
    };
    let report = run(&Options {
        spec,
        seed,
        seconds,
        traced: trace,
    });
    println!("{}", report.json());
    ExitCode::SUCCESS
}
