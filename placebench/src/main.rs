//! `placebench`: runs one workload and prints its result as the last line
//! of standard output, or compares two result files.
//!
//! ```text
//! placebench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! placebench --diff OLD NEW
//! ```
//!
//! Exit codes: 0 when every placement passed the gate, 1 when one failed
//! (the result line is still printed) or `--diff` found a changed exact
//! count, 2 on usage or set-up errors (no result line).

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use complx_obs::JsonValue;
use complx_placebench::diff;
use complx_placebench::metrics::{spec, END_TO_END, PER_LAYER};
use complx_placebench::run::{untraced, RunResult};
use complx_placebench::traced::traced;
use complx_placebench::workload::{Workload, DEFAULT_SEED, WORKLOADS};

// Installed so the traced run can arm allocation counting; disarmed, each
// allocation pays one relaxed atomic load.
#[global_allocator]
static ALLOC: complx_obs::CountingAlloc = complx_obs::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: placebench --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       placebench --diff OLD NEW",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn metrics_json(result: &RunResult) -> JsonValue {
    JsonValue::Obj(
        result
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = spec(name).map_or("", |s| s.unit);
                (
                    name.to_string(),
                    JsonValue::object(vec![
                        ("value", JsonValue::Num(value)),
                        ("unit", unit.into()),
                    ]),
                )
            })
            .collect(),
    )
}

fn run(args: &Args) -> Result<RunResult, String> {
    let workload = Workload::find(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}\n{}", args.workload, usage()))?;
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    let dir = work.join(format!(
        "{}-{}-{}",
        workload.name,
        args.seed,
        std::process::id()
    ));
    let result = if args.trace {
        traced(workload, args.seed, &dir)
    } else {
        untraced(workload, args.seed, args.seconds, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&work); // only when no other run is using it
    let result = result?;
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    if result.correct() {
        let names: Vec<&str> = result.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = expected.iter().map(|s| s.name).collect();
        if names != want {
            return Err(format!(
                "internal: metrics {names:?} do not match the catalogue"
            ));
        }
    }
    Ok(result)
}

fn main_diff(old: &str, new: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| diff::load(&t).map_err(|e| format!("{p}: {e}")))
    };
    match (load(old), load(new)) {
        (Ok(o), Ok(n)) => {
            let (table, changed) = diff::compare(&o, &n);
            print!("{table}");
            println!("exact values changed: {changed}");
            if changed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("placebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--diff") {
        return match argv.as_slice() {
            [_, old, new] => main_diff(old, new),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("placebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("placebench: {e}");
            return ExitCode::from(2);
        }
    };
    for failure in &result.failures {
        eprintln!("placebench: FAILED: {failure}");
    }
    for (name, value) in &result.metrics {
        let unit = spec(name).map_or("", |s| s.unit);
        eprintln!("{:<8} {:<32} {value:>16.6} {unit}", args.workload, name);
    }
    eprintln!(
        "{:<8} {:<32} {:>16} ({} of {} placements)",
        args.workload,
        "failed_ratio",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    let line = JsonValue::object(vec![
        ("correct", result.correct().into()),
        ("attempted", JsonValue::Int(result.attempted as i64)),
        ("failed", JsonValue::Int(result.failed as i64)),
        ("metrics", metrics_json(&result)),
    ]);
    if let Some(path) = &args.out {
        let record = JsonValue::object(vec![
            ("workload", args.workload.as_str().into()),
            ("seed", JsonValue::Int(args.seed as i64)),
            ("trace", JsonValue::Int(i64::from(args.trace))),
            ("correct", result.correct().into()),
            ("attempted", JsonValue::Int(result.attempted as i64)),
            ("failed", JsonValue::Int(result.failed as i64)),
            ("metrics", metrics_json(&result)),
            (
                "designs",
                JsonValue::Arr(
                    result
                        .designs
                        .iter()
                        .map(|d| {
                            JsonValue::object(vec![
                                ("seed", JsonValue::Int(d.seed as i64)),
                                ("iterations", JsonValue::Int(d.iterations as i64)),
                                ("scaled_hpwl", JsonValue::Num(d.scaled_hpwl)),
                                (
                                    "place_s",
                                    JsonValue::Arr(
                                        d.place_s.iter().map(|&t| JsonValue::Num(t)).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", record.to_json_string()));
        if let Err(e) = appended {
            eprintln!("placebench: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", line.to_json_string());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
