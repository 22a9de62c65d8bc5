//! Pins what the shipped `gmap` binary does with each command line it
//! documents: per row, the process exit code and stdout (verbatim when
//! short, else its 128-bit content key), plus the content key of any file
//! the row writes. Rows run in order in one scratch working directory,
//! so later rows read what earlier ones wrote, and the `client` rows talk
//! to an in-process `gmap_serve::start`. A usage-error row also names the
//! flag its stderr must mention.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test cli_matrix
//! ```

use gmap::core::cachekey::content_key;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Stdout longer than this is pinned by its content key.
const VERBATIM_LIMIT: usize = 1024;

/// What one row did.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
struct Outcome {
    exit: Option<i32>,
    stdout: String,
    /// Content key of the file the row writes, when it writes one.
    file: Option<String>,
}

/// One invocation: `{addr}` and `{model}` in `args` stand for the live
/// server and the kmeans-tiny model id.
struct Row {
    name: &'static str,
    args: &'static [&'static str],
    /// A file the row writes, relative to the working directory.
    writes: Option<&'static str>,
    /// For a usage error: a token stderr must contain.
    names: Option<&'static str>,
}

const fn ok(name: &'static str, args: &'static [&'static str]) -> Row {
    Row {
        name,
        args,
        writes: None,
        names: None,
    }
}

const fn writes(name: &'static str, args: &'static [&'static str], file: &'static str) -> Row {
    Row {
        name,
        args,
        writes: Some(file),
        names: None,
    }
}

const fn usage(name: &'static str, args: &'static [&'static str], flag: &'static str) -> Row {
    Row {
        name,
        args,
        writes: None,
        names: Some(flag),
    }
}

#[rustfmt::skip]
const ROWS: &[Row] = &[
    ok("list", &["list"]),
    ok("help", &["help"]),
    ok("no-arguments", &[]),
    writes("profile/workload", &["profile", "--workload", "kmeans", "--scale", "tiny", "-o", "p.json"], "p.json"),
    ok("info", &["info", "-p", "p.json"]),
    writes("clone/text", &["clone", "-p", "p.json", "--factor", "2", "-o", "t.txt"], "t.txt"),
    writes("clone/binary", &["clone", "--profile", "p.json", "--seed", "7", "--format", "binary", "--output", "t.bin"], "t.bin"),
    writes("profile/trace", &["profile", "--trace", "t.txt", "--grid", "24", "--block", "128", "-o", "p2.json"], "p2.json"),
    writes("profile/trace-binary", &["profile", "--trace", "t.bin", "--grid", "24", "--block", "128", "--rebase", "0x1000", "-o", "p3.json"], "p3.json"),
    ok("info/trace", &["info", "--profile", "p2.json"]),
    ok("simulate/original", &["simulate", "--workload", "kmeans", "--scale", "tiny", "--l1", "32768:8:128", "--l2", "524288:8:128", "--policy", "gto", "--dram"]),
    ok("simulate/clone", &["simulate", "-p", "p.json", "--l1", "8192:2:128", "--policy", "self:0.5", "--seed", "7"]),
    ok("simulate/clone-defaults", &["simulate", "--profile", "p.json"]),
    writes("analyze/fixture-dump", &["analyze", "--fixture", "oob-affine", "--scale", "tiny", "--dump-spec", "spec.json"], "spec.json"),
    ok("analyze/workload", &["analyze", "--workload", "kmeans", "--scale", "tiny"]),
    ok("analyze/workload-json", &["analyze", "--workload", "kmeans", "--scale", "tiny", "--json"]),
    ok("analyze/spec", &["analyze", "--spec", "spec.json", "--scale", "tiny"]),
    ok("analyze/spec-json", &["analyze", "--spec", "spec.json", "--scale", "tiny", "--json"]),
    ok("analyze/fixture", &["analyze", "--fixture", "barrier-divergent", "--scale", "tiny"]),
    ok("analyze/fixture-json", &["analyze", "--fixture", "clean-streaming", "--scale", "tiny", "--json"]),
    ok("analyze/all", &["analyze", "--all", "--scale", "tiny"]),
    ok("analyze/all-json", &["analyze", "--all", "--scale", "tiny", "--json"]),
    ok("analyze/trace", &["analyze", "--trace", "t.txt", "--grid", "24", "--block", "128", "--scale", "tiny"]),
    ok("analyze/trace-json", &["analyze", "--trace", "t.bin", "--grid", "24", "--block", "128", "--scale", "tiny", "--json"]),
    ok("client/health", &["client", "health", "--addr", "{addr}"]),
    ok("client/profile", &["client", "profile", "--addr", "{addr}", "--workload", "kmeans", "--scale", "tiny"]),
    ok("client/profile-spec", &["client", "profile", "--addr", "{addr}", "--spec", "spec.json"]),
    ok("client/analyze", &["client", "analyze", "--addr", "{addr}", "--workload", "kmeans", "--scale", "tiny", "--retries", "1"]),
    ok("client/analyze-spec", &["client", "analyze", "--addr", "{addr}", "--spec", "spec.json"]),
    ok("client/clone", &["client", "clone", "--addr", "{addr}", "--model", "{model}", "--factor", "2", "--seed", "7"]),
    ok("client/evaluate", &["client", "evaluate", "--addr", "{addr}", "--model", "{model}", "--grid", "16:4,32:8:64:fifo", "--level", "l1", "--metric", "l1_miss_pct", "--seed", "3"]),
    ok("client/evaluate-stride", &["client", "evaluate", "--addr", "{addr}", "--model", "{model}", "--grid", "8:4,16:4", "--stride-prefetch", "64:2:1:2"]),
    ok("client/evaluate-stream", &["client", "evaluate", "--addr", "{addr}", "--model", "{model}", "--grid", "512:8", "--level", "l2", "--kernel", "0", "--stream-prefetch", "16:4"]),
    ok("client/ingest", &["client", "ingest", "--addr", "{addr}", "--trace", "wl.txt", "--grid", "1", "--block", "64", "--chunk", "97"]),
    ok("client/ingest-named", &["client", "ingest", "--addr", "{addr}", "--trace", "wl.txt", "--grid", "1", "--block", "64", "--name", "wl_2"]),
    ok("client/clone-unknown-model", &["client", "clone", "--addr", "{addr}", "--model", "feed"]),
    usage("error/unknown-subcommand", &["frobnicate"], "frobnicate"),
    usage("error/unknown-flag", &["simulate", "--workload", "kmeans", "--sedd", "7"], "--sedd"),
    usage("error/unknown-flag-list", &["list", "--verbose"], "--verbose"),
    usage("error/stray-argument", &["list", "extra"], "extra"),
    usage("error/missing-value", &["clone", "-p", "p.json", "-o", "y.txt", "--seed"], "--seed"),
    usage("error/missing-output", &["profile", "--workload", "kmeans"], "-o"),
    usage("error/missing-profile", &["info"], "-p"),
    usage("error/both-sources-simulate", &["simulate", "--workload", "kmeans", "-p", "p.json"], "--workload"),
    usage("error/both-sources-profile", &["profile", "--workload", "kmeans", "--trace", "t.txt", "-o", "x.json"], "--workload"),
    usage("error/both-sources-analyze", &["analyze", "--workload", "kmeans", "--all"], "--workload"),
    usage("error/both-sources-analyze-trace", &["analyze", "--trace", "t.txt", "--grid", "24", "--block", "128", "--all"], "--trace"),
    usage("error/no-source-analyze", &["analyze"], "--workload"),
    usage("error/races-unknown", &["analyze", "--all", "--scale", "tiny", "--races"], "--races"),
    usage("error/fidelity-unknown", &["fidelity", "--workload", "hotspot", "--scale", "tiny"], "fidelity"),
    usage("error/trace-without-block", &["analyze", "--trace", "t.txt", "--grid", "24"], "--block"),
    usage("error/bad-number-seed", &["clone", "-p", "p.json", "-o", "y.txt", "--seed", "x"], "--seed"),
    usage("error/bad-number-factor", &["clone", "-p", "p.json", "-o", "y.txt", "--factor", "half"], "--factor"),
    usage("error/bad-number-grid", &["profile", "--trace", "t.txt", "--grid", "many", "--block", "128", "-o", "x.json"], "--grid"),
    usage("error/bad-number-workers", &["serve", "--workers", "many"], "--workers"),
    usage("error/bad-number-deadline", &["serve", "--deadline-ms", "soon"], "--deadline-ms"),
    usage("error/bad-number-chunk", &["client", "ingest", "--addr", "{addr}", "--trace", "wl.txt", "--grid", "1", "--block", "64", "--chunk", "big"], "--chunk"),
    usage("error/bad-number-retries", &["client", "health", "--addr", "{addr}", "--retries", "often"], "--retries"),
    usage("error/bad-number-kernel", &["client", "evaluate", "--addr", "{addr}", "--model", "{model}", "--grid", "16:4", "--kernel", "first"], "--kernel"),
    usage("error/bad-scale", &["simulate", "--workload", "kmeans", "--scale", "tny"], "--scale"),
    usage("error/bad-rebase", &["profile", "--workload", "kmeans", "--scale", "tiny", "--rebase", "zz", "-o", "x.json"], "--rebase"),
    usage("error/repeated-flag", &["profile", "--workload", "kmeans", "--scale", "tiny", "--scale", "small", "-o", "p4.json"], "--scale"),
    usage("error/repeated-alias", &["clone", "-p", "p.json", "-o", "a.txt", "--output", "b.txt"], "--output"),
    usage("error/flag-as-value", &["analyze", "--dump-spec", "--json", "--workload", "kmeans", "--scale", "tiny"], "--dump-spec"),
    usage("error/alias-as-value", &["simulate", "--workload", "-p", "p.json"], "--workload"),
    usage("error/dump-spec-all", &["analyze", "--all", "--scale", "tiny", "--dump-spec", "all.json"], "--dump-spec"),
    usage("error/dump-spec-trace", &["analyze", "--trace", "t.txt", "--grid", "24", "--block", "128", "--dump-spec", "t.json"], "--dump-spec"),
    usage("error/unknown-workload", &["simulate", "--workload", "nope"], "nope"),
    usage("error/client-without-addr", &["client", "health"], "--addr"),
    usage("error/client-peers-unknown", &["client", "health", "--peers", "a:1"], "--peers"),
    usage("error/client-drain-unknown", &["client", "drain", "--addr", "a:1"], "drain"),
    usage("error/serve-route-to-self", &["serve", "--listen", "127.0.0.1:9101", "--route", "127.0.0.1:9100,127.0.0.1:9101"], "--route"),
    usage("error/serve-route-empty", &["serve", "--route", ","], "--route"),
    usage("error/serve-route-duplicate", &["serve", "--route", "a:1, a:1"], "--route"),
    usage("error/serve-fleet-duplicate", &["serve", "--fleet", "a:1,a:1"], "--fleet"),
    usage("error/serve-advertise-outside-fleet", &["serve", "--fleet", "127.0.0.1:9100,127.0.0.1:9101", "--advertise", "127.0.0.1:9102"], "--advertise"),
    usage("error/serve-unknown-flag", &["serve", "--port", "80"], "--port"),
];

/// A trace of one block of 64 threads, three steps each: small enough to
/// keep the ingest rows fast, large enough to form warps.
fn write_ingest_trace(dir: &Path) {
    let mut trace = String::new();
    for step in 0..3u64 {
        for tid in 0..64u64 {
            let addr = 0x1000 + tid * 4 + step * 0x800;
            trace.push_str(&format!("{tid} 0x40 R {addr:#x}\n"));
        }
    }
    std::fs::write(dir.join("wl.txt"), trace).expect("write ingest trace");
}

fn pinned(text: &str) -> String {
    if text.len() <= VERBATIM_LIMIT {
        text.to_owned()
    } else {
        format!("content_key:{}", content_key(text))
    }
}

fn run_row(row: &Row, dir: &Path, addr: &str, model: &str) -> Outcome {
    let args: Vec<String> = row
        .args
        .iter()
        .map(|a| a.replace("{addr}", addr).replace("{model}", model))
        .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_gmap"))
        .args(&args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .output()
        .expect("spawn gmap");
    let stderr = String::from_utf8_lossy(&out.stderr);
    if let Some(token) = row.names {
        assert!(
            stderr.contains(token),
            "{}: stderr must name {token}, got\n{stderr}",
            row.name
        );
    }
    let file = row.writes.map(|f| {
        let bytes = std::fs::read(dir.join(f)).expect("the row writes its file");
        content_key(&String::from_utf8_lossy(&bytes))
    });
    Outcome {
        exit: out.status.code(),
        stdout: pinned(&String::from_utf8_lossy(&out.stdout)),
        file,
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cli_matrix.json")
}

#[test]
fn cli_rows_match_golden() {
    let dir = std::env::temp_dir().join(format!("gmap-cli-matrix-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    write_ingest_trace(&dir);
    let server = gmap::serve::start(gmap::serve::ServeConfig::default()).expect("start server");
    let addr = server.addr().to_string();
    let model = gmap::serve::handlers::model_id_for("kmeans", "tiny");

    let mut got = BTreeMap::new();
    for row in ROWS {
        let outcome = run_row(row, &dir, &addr, &model);
        assert!(
            got.insert(row.name.to_owned(), outcome).is_none(),
            "row {} is listed twice",
            row.name
        );
    }
    server.shutdown();
    // A refused command line writes nothing.
    for unwritten in ["p4.json", "a.txt", "b.txt", "--json", "all.json", "t.json"] {
        assert!(!dir.join(unwritten).exists(), "{unwritten} was written");
    }
    std::fs::remove_dir_all(&dir).ok();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let json = serde_json::to_string_pretty(&got).expect("golden serializes");
        std::fs::write(golden_path(), json + "\n").expect("golden file is writable");
        return;
    }
    let raw = std::fs::read_to_string(golden_path()).expect("tests/golden/cli_matrix.json");
    let want: BTreeMap<String, Outcome> = serde_json::from_str(&raw).expect("golden parses");
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "the pinned row set changed"
    );
    for row in ROWS {
        assert_eq!(
            got[row.name],
            want[row.name],
            "{}: `gmap {}` drifted from golden (rerun with UPDATE_GOLDEN=1 if the change is \
             intentional)",
            row.name,
            row.args.join(" ")
        );
    }
}

/// Runs `gmap args` in `dir`; returns the exit code and stderr.
fn gmap(args: &[&str], dir: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gmap"))
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .output()
        .expect("spawn gmap");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn scratch_dir(what: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gmap-cli-{what}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// A command line `gmap` cannot read is answered with the usage text; a
/// failure while running a well-formed one — here a service refusing a
/// clone over its size bound — is answered with the error alone.
#[test]
fn only_command_line_errors_print_the_usage_text() {
    let dir = scratch_dir("usage");
    let (code, stderr) = gmap(&["simulate", "--workload", "kmeans", "--sedd", "7"], &dir);
    assert_eq!(code, Some(1));
    assert!(
        stderr.contains("--sedd") && stderr.contains("USAGE:"),
        "{stderr}"
    );

    let server = gmap::serve::start(gmap::serve::ServeConfig::default()).expect("start server");
    let addr = server.addr().to_string();
    let model = gmap::serve::handlers::model_id_for("kmeans", "tiny");
    let profile = [
        "client",
        "profile",
        "--addr",
        &addr,
        "--workload",
        "kmeans",
        "--scale",
        "tiny",
    ];
    assert_eq!(gmap(&profile, &dir).0, Some(0));
    let clone = [
        "client", "clone", "--addr", &addr, "--model", &model, "--factor", "0.002",
    ];
    let (code, stderr) = gmap(&clone, &dir);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(1));
    assert_eq!(stderr, "error: server answered 400\n");
}

/// A profile whose launch holds more warps than `u32` counts is refused
/// before a clone is generated or its trace file created.
#[test]
fn a_launch_past_u32_warps_is_refused_before_anything_is_written() {
    use gmap::core::GmapProfile;
    use gmap::gpu::hierarchy::LaunchConfig;
    let dir = scratch_dir("launch");
    let tiny = [
        "profile",
        "--workload",
        "kmeans",
        "--scale",
        "tiny",
        "-o",
        "p.json",
    ];
    assert_eq!(gmap(&tiny, &dir).0, Some(0));
    let raw = std::fs::read(dir.join("p.json")).expect("profile written");
    let mut profile = GmapProfile::load(&raw[..]).expect("profile parses");
    // 2^27 blocks of 1024 threads: 2^32 warps of 32.
    profile.launch = LaunchConfig::new(1u32 << 27, 1024u32);
    let mut edited = Vec::new();
    profile.save(&mut edited).expect("profile serializes");
    std::fs::write(dir.join("big.json"), edited).expect("write edited profile");

    let (code, stderr) = gmap(&["clone", "-p", "big.json", "-o", "t.txt"], &dir);
    let written = dir.join("t.txt").exists();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, Some(1), "{stderr}");
    assert!(!written, "a refused launch writes no trace");
    assert!(
        stderr
            .starts_with("error: big.json is inconsistent: launch has more than 4294967295 warps"),
        "{stderr}"
    );
}

/// A reader that closes its end mid-output (`gmap … | head -1`) ends
/// `gmap` quietly: no panic, and not the panic status 101. `serve` prints
/// its address, waits for stdin to close, then prints again, so the second
/// write deterministically finds the pipe closed.
#[test]
fn a_closed_stdout_ends_gmap_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gmap"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gmap serve");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("first line");
    assert!(first.starts_with("gmap-serve listening on"), "{first}");
    // The reader is dropped (its end closed); then stdin's EOF stops the
    // server, whose farewell line has nowhere to go.
    drop(child.stdin.take());
    let out = child.wait_with_output().expect("gmap exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.is_empty(),
        "a closed pipe is not an error to report: {stderr}"
    );
    assert!(
        out.status.code().is_some_and(|c| c != 101),
        "{:?}",
        out.status
    );
}
