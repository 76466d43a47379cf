//! Runs one workload of the benchmark and prints its result.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <online_suite|offline_replay|serve_mix> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Scratch files go under `.bench_work/`
//! there. The next-to-last line of standard output is a report (host
//! block, seed, samples, per-layer tags, closure, overhead); the last
//! line is the result: `{"correct", "attempted", "failed", "metrics"}`,
//! with the end-to-end metrics when untraced and the per-layer metrics
//! when traced.

use clean_perfbench::json::Json;
use clean_perfbench::{catalog, host, offline, online, serve_mix, span, Ctx, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <online_suite|offline_replay|serve_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let runner: fn(&Ctx) -> Outcome = match args.workload.as_str() {
        "online_suite" => online::run,
        "offline_replay" => offline::run,
        "serve_mix" => serve_mix::run,
        other => {
            eprintln!("error: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        work: work.clone(),
        nproc: host::nproc(),
    };
    let mut out = runner(&ctx);
    let _ = std::fs::remove_dir_all(&work);
    if out.attempted == 0 {
        out.error("no operation was attempted");
    }
    out.layer(
        "fail_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if !args.trace {
        out.peak_memory();
    }

    // The metrics this run reports: every end-to-end metric when
    // untraced, every per-layer metric when traced (0 for a layer this
    // workload does not drive).
    let mut metrics = Vec::new();
    let mut layers = Vec::new();
    if args.trace {
        for d in catalog::per_layer() {
            let driven = out.layers.get(&d.name).copied();
            metrics.push((d.name.clone(), metric(driven.unwrap_or(0.0), d.unit)));
            layers.push(Json::obj([
                ("name", Json::from(d.name.as_str())),
                ("value", Json::from(driven.unwrap_or(0.0))),
                ("unit", Json::from(d.unit)),
                ("better", Json::from(d.better)),
                ("driven", Json::from(driven.is_some())),
                ("moves", Json::from(d.moves)),
            ]));
        }
        let spans_dir = root.join("spans");
        let path = spans_dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(&spans_dir)
            .and_then(|()| std::fs::write(&path, span::to_json_lines(&out.spans)));
        if let Err(e) = written {
            eprintln!("cannot write the spans: {e}");
        }
        let self_times = span::self_time_by_name(&out.spans);
        out.note(
            "self_time_s",
            Json::obj(self_times.into_iter().map(|(k, v)| (k, Json::from(v)))),
        );
        out.note("spans", out.spans.len());
        out.note("spans_file", path.display().to_string());
    } else {
        for d in catalog::end_to_end() {
            let Some(&value) = out.e2e.get(&d.name) else {
                // Only a run cut short by a failed set-up gets here.
                for e in &out.errors {
                    eprintln!("check failed: {e}");
                }
                eprintln!("error: {} did not measure {}", args.workload, d.name);
                return ExitCode::FAILURE;
            };
            metrics.push((d.name.clone(), metric(value, d.unit)));
        }
    }

    let mut report = vec![
        ("workload".to_string(), Json::from(args.workload.as_str())),
        ("seed".to_string(), Json::from(args.seed)),
        ("seconds".to_string(), Json::from(args.seconds)),
        ("trace".to_string(), Json::from(args.trace)),
        ("host".to_string(), host::host_block()),
        (
            "errors".to_string(),
            Json::Arr(out.errors.iter().map(|e| Json::from(e.as_str())).collect()),
        ),
    ];
    report.append(&mut out.notes);
    if args.trace {
        report.push(("layers".to_string(), Json::Arr(layers)));
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", Json::obj([("report", Json::Obj(report))]));
    let result = Json::obj([
        ("correct", Json::from(out.errors.is_empty())),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
