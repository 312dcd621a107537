//! The TReX benchmark: one workload per invocation.
//!
//! ```text
//! trex-perfbench --workload <paper_topk|serve_zipf|ingest_mixed> --seed <n>
//!                --seconds <s> --trace <0|1> [--rev <id>]
//! ```
//!
//! Run from the repository root (normally through `perfbench/run.py`). The
//! seed generates every input; the program under test only ever sees the
//! generated documents and queries. With `--trace 0` the last stdout line
//! carries the end-to-end metrics, with `--trace 1` the per-layer ones. The
//! lines before it (prefixed `#`) give the run stamp, every metric by name
//! and unit, `fail_frac`, and each failure cause with an example. Stores
//! live in `.perfbench/run-*` and are removed at exit; span files and a
//! result record per run go to `.perfbench/spans` and `.perfbench/results`.

mod common;
mod ingest_mixed;
mod layers;
mod paper_topk;
mod serve_zipf;
mod spans;
mod util;

use std::path::PathBuf;
use std::time::Instant;

use common::{Ctx, Outcome};

const WORKLOADS: [&str; 3] = ["paper_topk", "serve_zipf", "ingest_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rev = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--rev" => rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        rev,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: trex-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--rev <id>]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&out_dir).expect("create .perfbench");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: out_dir.clone(),
        cores,
        epoch: Instant::now(),
    };
    let started = Instant::now();
    let outcome: Outcome = match args.workload.as_str() {
        "paper_topk" => paper_topk::run(&ctx),
        "serve_zipf" => serve_zipf::run(&ctx),
        "ingest_mixed" => ingest_mixed::run(&ctx),
        _ => unreachable!("validated above"),
    };

    let mut stamp = vec![
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("git_rev".to_string(), args.rev.clone()),
        ("nproc".to_string(), cores.to_string()),
        ("run_seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        (
            "wall_s".to_string(),
            format!("{:.3}", started.elapsed().as_secs_f64()),
        ),
    ];
    stamp.extend(outcome.stamp.iter().cloned());
    let stamp_json = format!(
        "{{{}}}",
        stamp
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", trex::obs::json_escape(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("# stamp {stamp_json}");
    for (name, value, unit) in outcome.metrics.entries() {
        println!("# {name} {value} {unit}");
    }
    let f = &outcome.failures;
    println!(
        "# fail_frac {} ratio ({} failed of {} attempted)",
        f.frac(),
        f.failed,
        f.attempted
    );
    for (cause, (n, example)) in f.causes() {
        println!("# failure {cause}: {n}x, e.g. {example}");
    }
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        let path = out_dir.join("spans").join(format!("{tag}.jsonl"));
        if let Err(e) = outcome.spans.write(&path) {
            eprintln!("warning: could not write spans: {e}");
        }
        for (name, s) in outcome.spans.summary() {
            println!(
                "# span {name}: n={} total_p50_us={:.2} self_p50_us={:.2}",
                s.count, s.total_us_p50, s.self_us_p50
            );
        }
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        f.failed == 0,
        f.attempted,
        f.failed,
        outcome.metrics.to_json()
    );
    let record = format!("{{\"stamp\": {stamp_json}, \"result\": {result}}}\n");
    let results = out_dir.join("results");
    if std::fs::create_dir_all(&results).is_ok() {
        let _ = std::fs::write(results.join(format!("{tag}.json")), record);
    }
    println!("{result}");
}
