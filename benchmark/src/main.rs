//! The repo benchmark: one command that runs each workload in a fresh
//! child process, checks its outputs, and prints every metric by name
//! with its unit. See `benchmark/README.md`.

mod common;
mod direct;
mod httpc;
mod json;
mod probes;
mod registry;
mod report;
mod scrape;
mod service;
mod span;
mod stats;
mod sweeps;
mod sys;

use json::{arr, boolean, num, obj, text, uint, Json};
use report::{Compare, Report, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: benchmark/run.sh [options]
  --workload NAME     run one workload (default: all six)
  --seed N            input seed (default 42)
  --seconds S         measuring time per run (default: run_seconds of BENCHMARK.json)
  --trace [0|1|both]  traced run: per-layer metrics and benchmark/out/trace-<workload>.json;
                      `both` runs each workload untraced, then traced
  --out FILE          also write every report as JSON
  --repeat N          run N sets of the same seed; exit nonzero unless every end-to-end
                      metric agrees within its bound and fidelity repeats exactly
  --seeds N           run seeds SEED..SEED+N-1; exit nonzero unless every end-to-end metric's
                      quartile spread is within its bound (what the benchmark driver checks)
  --smoke             one round of every workload with a single set-up (under 20 s);
                      exits nonzero on a failed check
  --update-expected   rewrite benchmark/expected/seed42.json from a seed-42 run
  -h, --help          this text
";

/// Where the harness keeps its files.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    both: bool,
    out: Option<String>,
    repeat: usize,
    seeds: usize,
    smoke: bool,
    update_expected: bool,
    child: bool,
    unpinned: bool,
    setups: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        both: false,
        out: None,
        repeat: 1,
        seeds: 0,
        smoke: false,
        update_expected: false,
        child: false,
        unpinned: false,
        setups: 3,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |s: String, flag: &str| -> Result<f64, String> {
        s.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("{flag}: {s:?} is not a non-negative number"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => {
                let name = value(&mut i, flag)?;
                if !registry::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                a.workload = Some(name);
            }
            "--seed" => {
                let s = value(&mut i, flag)?;
                a.seed = s
                    .parse()
                    .map_err(|_| format!("--seed: {s:?} is not a u64"))?;
            }
            "--seconds" => a.seconds = Some(number(value(&mut i, flag)?, flag)?),
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    a.trace = false;
                    i += 1;
                }
                Some("1") => {
                    a.trace = true;
                    i += 1;
                }
                Some("both") => {
                    a.both = true;
                    i += 1;
                }
                _ => a.trace = true,
            },
            "--out" => a.out = Some(value(&mut i, flag)?),
            "--repeat" => a.repeat = number(value(&mut i, flag)?, flag)?.max(1.0) as usize,
            "--seeds" => a.seeds = number(value(&mut i, flag)?, flag)? as usize,
            "--setups" => a.setups = number(value(&mut i, flag)?, flag)?.max(1.0) as usize,
            "--smoke" => a.smoke = true,
            "--update-expected" => a.update_expected = true,
            "--child" => a.child = true,
            "--unpinned" => a.unpinned = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(a)
}

/// `run_seconds` of `BENCHMARK.json`, the default measuring time.
fn manifest() -> Result<Json, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };
    let outcome = if args.child {
        child(&args)
    } else {
        parent(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// Child: one workload, in this process
// ---------------------------------------------------------------------

fn child(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--child needs --workload")?;
    let seconds = args.seconds.ok_or("--child needs --seconds")?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let opts = common::RunOpts {
        seed: args.seed,
        seconds,
        trace: args.trace,
        threads: sys::nproc().min(4),
        setups: args.setups,
    };
    let expected = if args.seed == 42 && !args.unpinned {
        Some(report::load_expected(
            &bench_dir().join("expected/seed42.json"),
        )?)
    } else {
        None
    };
    let report = report::run_workload(name, &opts, &out_dir(), expected.as_ref());
    // The last line of the child's output is its report; everything the
    // libraries print (figure banners) stays above it.
    println!("{}", report.to_json().compact());
    Ok(true)
}

// ---------------------------------------------------------------------
// Parent: spawn children, print, compare
// ---------------------------------------------------------------------

/// Runs one workload in a fresh child process and parses its report.
fn spawn(args: &Args, workload: &str, seconds: f64, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--setups", &args.setups.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.update_expected {
        cmd.arg("--unpinned");
    }
    let output = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let log = out_dir().join(format!("{workload}.stdout.log"));
    let _ = std::fs::create_dir_all(out_dir());
    let _ = std::fs::write(&log, stdout.as_bytes());
    if !output.status.success() {
        return Err(format!(
            "workload {workload} exited with {} (its output is in {})",
            output.status,
            log.display()
        ));
    }
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("workload {workload} printed nothing"))?;
    Report::from_json(&Json::parse(last)?)
}

fn print_report(r: &Report) {
    println!(
        "== {} seed {} {} — {} rounds, {} operations, {} of {} checks failed",
        r.workload,
        r.seed,
        if r.trace { "traced" } else { "untraced" },
        r.rounds,
        r.samples,
        r.failed,
        r.attempted
    );
    for (name, v) in r.metrics.iter().chain(&r.extra) {
        println!("{:<16}{:<34}{:>18.6} {}", r.workload, name, v.value, v.unit);
    }
    for note in &r.notes {
        println!("{:<16}FAILED CHECK: {note}", r.workload);
    }
}

fn environment(seconds: f64) -> Json {
    obj([
        ("nproc", uint(sys::nproc() as u64)),
        ("cpu_model", text(sys::cpu_model())),
        ("sweep_threads", uint(sys::nproc().min(4) as u64)),
        ("server_workers", uint(sys::nproc().min(4) as u64)),
        ("client_threads", uint(common::CLIENTS as u64)),
        ("scale", text("tiny")),
        ("seconds", num(seconds)),
    ])
}

fn parent(args: &Args) -> Result<bool, String> {
    let manifest = manifest()?;
    let run_seconds = manifest
        .get("run_seconds")
        .and_then(|v| v.as_f64())
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let mut args = args.clone();
    if args.update_expected {
        args.seed = 42;
    }
    let seconds = match (args.seconds, args.smoke || args.update_expected) {
        (Some(s), _) => s,
        // One round: a round always completes, whatever the budget.
        (None, true) => 0.0,
        (None, false) => run_seconds,
    };
    if args.smoke {
        args.setups = 1;
    }
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => registry::WORKLOADS.to_vec(),
    };
    let both = args.both || args.update_expected;
    let mut sets: Vec<Vec<Report>> = Vec::new();
    let mut ok = true;
    let first_seed = args.seed;
    for k in 0..args.repeat.max(args.seeds) {
        if args.seeds > 0 {
            args.seed = first_seed + k as u64;
        }
        let mut set = Vec::new();
        for w in &workloads {
            for trace in [false, true] {
                if !both && trace != args.trace {
                    continue;
                }
                let r = spawn(&args, w, seconds, trace)?;
                print_report(&r);
                ok &= r.failed == 0;
                set.push(r);
            }
        }
        sets.push(set);
    }
    if args.update_expected {
        let mut pins = BTreeMap::new();
        for r in sets.iter().flatten() {
            pins.extend(r.pins.clone());
        }
        let path = bench_dir().join("expected/seed42.json");
        report::write_expected(&path, &pins)?;
        println!("wrote {} pinned values to {}", pins.len(), path.display());
    }
    if args.seeds > 1 {
        ok &= report::compare_sets(&sets, &manifest, Compare::Spread)?;
    } else if args.repeat > 1 {
        ok &= report::compare_sets(&sets, &manifest, Compare::Agreement)?;
    }
    if let Some(path) = &args.out {
        let doc = obj([
            ("environment", environment(seconds)),
            (
                "sets",
                arr(sets.iter().map(|set| arr(set.iter().map(Report::to_json)))),
            ),
        ]);
        std::fs::write(path, doc.pretty() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    // The contract's result line: the last report, with exactly the keys
    // the driver reads.
    if let Some(last) = sets.last().and_then(|s| s.last()) {
        let metrics = obj(last.metrics.iter().map(|(name, Value { value, unit })| {
            (
                name.as_str(),
                obj([("value", num(*value)), ("unit", text(unit))]),
            )
        }));
        println!(
            "{}",
            obj([
                ("correct", boolean(last.failed == 0)),
                ("attempted", uint(last.attempted.max(1))),
                ("failed", uint(last.failed)),
                ("metrics", metrics),
            ])
            .compact()
        );
    }
    // A driver run reports failed checks through `correct`; the modes a CI
    // job would call gate on them.
    Ok(ok || !(args.smoke || args.repeat > 1 || args.seeds > 1))
}
