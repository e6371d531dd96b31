//! `perfbench` — the measuring half of the benchmark. `run.py` starts and
//! stops the processes under test and calls this binary for the parts that
//! must be fast or must call the library in-process:
//!
//! ```text
//! perfbench load  --workload W --seed N --snapshot FILE --addr HOST:PORT
//!                 --open-secs S --closed-secs S [--serial]
//! perfbench trace --workload W --seed N --snapshot FILE --build-ref FILE
//!                 --build-out FILE --spans FILE
//! ```
//!
//! Each prints one flat JSON object on stdout and exits 1 if any output
//! check failed (the failures go to stderr).

mod json;
mod load;
mod stats;
mod trace;
mod workload;

use std::collections::HashMap;
use std::path::Path;
use ultra_serve::{ExpansionEngine, SnapshotRuntime};

fn flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let name = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{}`", args[i]))?;
        match args.get(i + 1).filter(|v| !v.starts_with("--")) {
            Some(v) => {
                out.insert(name.to_string(), v.clone());
                i += 2;
            }
            None => {
                out.insert(name.to_string(), String::new());
                i += 1;
            }
        }
    }
    Ok(out)
}

fn get<'a>(f: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    f.get(name)
        .map(String::as_str)
        .filter(|v| !v.is_empty())
        .ok_or_else(|| format!("missing --{name}"))
}

fn num<T: std::str::FromStr>(f: &HashMap<String, String>, name: &str) -> Result<T, String> {
    get(f, name)?
        .parse()
        .map_err(|_| format!("--{name} is not a number"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(errors) if errors.is_empty() => {}
        Ok(errors) => {
            for e in errors {
                eprintln!("check failed: {e}");
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &[String]) -> Result<Vec<String>, String> {
    let (cmd, rest) = args.split_first().ok_or("usage: perfbench load|trace …")?;
    let f = flags(rest)?;
    let w = workload::workload(get(&f, "workload")?)
        .ok_or_else(|| format!("unknown workload `{}`", get(&f, "workload").unwrap_or("")))?;
    let seed: u64 = num(&f, "seed")?;
    let snapshot = Path::new(get(&f, "snapshot")?);
    let (report, errors) = match cmd.as_str() {
        "load" => {
            let engine = ExpansionEngine::load_snapshot(snapshot, SnapshotRuntime::default())
                .map_err(|e| e.to_string())?;
            let addr = get(&f, "addr")?
                .parse()
                .map_err(|_| "--addr is not HOST:PORT".to_string())?;
            load::run(&load::LoadArgs {
                workload: w,
                seed,
                engine: &engine,
                addr,
                open_secs: num(&f, "open-secs")?,
                closed_secs: num(&f, "closed-secs")?,
                serial: f.contains_key("serial"),
            })
        }
        "trace" => trace::run(&trace::TraceArgs {
            workload: w,
            seed,
            snapshot,
            build_ref: Path::new(get(&f, "build-ref")?),
            build_out: Path::new(get(&f, "build-out")?),
            spans_out: Path::new(get(&f, "spans")?),
        }),
        other => return Err(format!("unknown command `{other}`")),
    };
    println!("{report}");
    Ok(errors)
}
