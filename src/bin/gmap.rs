//! `gmap` — command-line front end to the G-MAP pipeline.
//!
//! ```text
//! gmap profile  --workload kmeans [--scale small] [--rebase 0x7f000000] -o profile.json
//! gmap info     -p profile.json
//! gmap clone    -p profile.json [--seed 7] [--factor 4] -o trace.bin
//! gmap simulate (--workload NAME | -p profile.json)
//!               [--l1 16384:4:128] [--l2 1048576:8:128] [--policy lrr|gto]
//!               [--seed 7] [--dram]
//! gmap fidelity (-p profile.json | --workload NAME)
//! gmap analyze  --trace trace.txt --grid 24 --block 128 [--json]
//! gmap list
//! gmap serve    [--listen 127.0.0.1:0] [--workers 4] [--queue 64]
//! gmap client   <health|metrics|profile|analyze|ingest|clone|evaluate|drain>
//!               --addr HOST:PORT ...
//! ```
//!
//! The binary wraps the library pipeline so a memory-system architect can
//! work with shipped profiles without writing Rust.

use gmap::core::{
    generate::generate_streams, miniaturize, profile_kernel, simulate_streams, GmapProfile,
    ProfilerConfig, SimtConfig,
};
use gmap::dram::DramConfig;
use gmap::gpu::schedule::Policy;
use gmap::gpu::workloads::{self, Scale};
use gmap::memsim::cache::{CacheConfig, ReplacementPolicy};
use gmap::memsim::hierarchy::TraceCapture;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprint!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("profile") => cmd_profile(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("clone") => cmd_clone(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("fidelity") => cmd_fidelity(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("list") => {
            check_flags(&args[1..], &[], &[])?;
            for n in workloads::NAMES {
                println!("{n}");
            }
            Ok(())
        }
        Some("help") | None => {
            print!("{}", usage());
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    }
}

fn usage() -> String {
    "gmap — GPU memory access proxies (G-MAP, DAC 2017)

USAGE:
  gmap list                                     list bundled workload models
  gmap profile (--workload NAME | --trace FILE --grid B --block T) [OPTS] -o FILE
  gmap analyze (--workload NAME | --spec FILE | --fixture NAME | --all
                | --trace FILE --grid B --block T)
                                                statically verify a kernel spec,
                                                or heat-map an external trace
  gmap info -p FILE                             summarize a profile
  gmap clone -p FILE [OPTS] -o FILE             regenerate a clone trace
  gmap simulate SOURCE [OPTS]                   run the memory hierarchy
  gmap fidelity (-p FILE | --workload NAME)     predict clone trustworthiness
  gmap serve [OPTS]                             run the model-cloning HTTP service
                                                (or a router with --route)
  gmap client ACTION --addr HOST:PORT [OPTS]    talk to a running service
                                                (or --peers P1,P2 for a fleet)

PROFILE OPTIONS:
  --scale tiny|small|default    workload size (default: small)
  --rebase HEX                  shift base addresses (obfuscation)
  External traces stream through gmap-ingest in bounded memory; the
  printed content key equals the model id POST /v1/ingest returns for
  the same trace and name.

ANALYZE OPTIONS (exactly one source: --workload, --spec, --fixture, --all,
or --trace):
  --workload NAME               analyze a bundled workload model
  --spec FILE                   analyze a kernel spec from a JSON file
  --fixture NAME                analyze a named fixture: defects (oob-affine,
                                uncoalesced, barrier-divergent,
                                overlapping-write, race-ww, race-rw,
                                race-interblock, race-ww-interblock) or
                                certified-clean ones (phased-stencil,
                                phased-reduction, clean-streaming)
  --all                         analyze every bundled workload; exit nonzero
                                if any has error findings
  --scale tiny|small|default    workload size (default: small)
  --dump-spec FILE              also write the resolved spec as JSON
  --races                       print only the race-verdict pair table
                                (per-scope verdicts plus witness schedules)
  --trace FILE                  stream an external trace (text or binary) and
                                print its per-array/per-PC heat-map report
                                instead of static analysis; needs --grid
                                BLOCKS and --block THREADS
  --json                        emit the full report as JSON (the static
                                report for spec sources, an array under
                                --all, or the heat-map for --trace)
  Exits nonzero when the analyzer reports error-severity findings,
  in every output mode (--races and --json included).

CLONE OPTIONS:
  --seed N                      generation seed (default: 42)
  --factor F                    miniaturization factor (default: 1)
  --format text|binary          trace output format (default: text)

SIMULATE SOURCE (exactly one):
  --workload NAME               execute a bundled workload model
  -p, --profile FILE            clone a shipped profile

SIMULATE OPTIONS:
  --l1 SIZE:ASSOC:LINE          L1 geometry in bytes (default 16384:4:128)
  --l2 SIZE:ASSOC:LINE          L2 geometry in bytes (default 1048576:8:128)
  --policy lrr|gto|self:P       warp scheduler (default lrr)
  --seed N                      scheduling/generation seed (default 42)
  --dram                        also replay memory traffic through DRAM

SERVE OPTIONS:
  --listen ADDR                 bind address (default 127.0.0.1:0, ephemeral
                                port; the bound address is printed on stdout)
  --workers N                   pipeline worker threads (default 2)
  --queue N                     pending-job capacity before 429 (default 64)
  --deadline-ms N               per-request deadline (default 60000)
  --cache-dir DIR               on-disk tier for the model cache
  --cache-capacity N            memory-tier LRU bound (default 256 models)
  --keepalive-max N             requests served per connection (default 100)
  --read-timeout-ms N           mid-request stall budget, then 408 (default 10000)
  --idle-timeout-ms N           keep-alive idle budget, then close (default 30000)
  --faults SEED:SPEC            deterministic fault injection, e.g.
                                7:disk_err=0.2,panic=0.1,slow_ms=50
  --route P1,P2,...             router mode: forward /v1/profile, /v1/clone,
                                /v1/evaluate, and /v1/ingest to the replica
                                owning each request's content key on a
                                consistent-hash ring, propagating the
                                remaining deadline budget and failing over
                                to ring successors on transport errors
                                (duplicate or self-referencing entries are
                                rejected)
  --fleet P1,P2,...             replica-fleet membership, enabling successor
                                replication (RF-1 ring successors receive an
                                async copy of every stored model) and hinted
                                handoff while a peer is down
  --advertise HOST:PORT         this server's own address inside --fleet
                                (default: the bound listen address)
  --replication-factor N        replica-set size per key (default 2:
                                the owner plus one successor)
  --probe-interval-ms N         cadence of active peer /healthz probes and
                                hint replay (default 500)
  The server runs until stdin reaches EOF, then drains and exits.

CLIENT ACTIONS (all need --addr HOST:PORT, or --peers P1,P2,... to shard
requests across a replica fleet by content key with failover; add
--retries N to retry transient failures with exponential backoff —
idempotent requests only; ingest is --addr-only):
  health                        GET /healthz
  metrics                       GET /metrics
  profile  (--workload NAME [--scale tiny|small|default] | --spec FILE)
  analyze  (--workload NAME [--scale tiny|small|default] | --spec FILE)
           (--scale defaults to small, as for `gmap profile`)
  ingest   --trace FILE --grid B --block T [--name N] [--chunk BYTES]
           stream a raw trace to POST /v1/ingest (chunked transfer
           encoding; the service profiles it as it arrives and answers
           with the model id, stats, and heat-map report; N defaults to
           the file stem and may hold letters, digits, '.', '_' and '-')
  clone    --model ID [--factor F] [--seed N]
  evaluate --model ID --grid KB:ASSOC[:LINE[:POLICY]][,...]
           [--level l1|l2] [--kernel N] [--metric l1_miss_pct|l2_miss_pct]
           [--seed N]
           [--stride-prefetch TABLE:DEGREE[:DISTANCE[:CONFIDENCE]]]  (l1 grids)
           [--stream-prefetch WINDOW:DEGREE[:STREAMS]]               (l2 grids)
  drain    POST /v1/admin/drain (--addr only): flip the replica to
           draining and stream its models to ring successors
"
    .to_owned()
}

/// Strict argument validation: every token must be a known flag (or the
/// value of one). Typos fail loudly instead of silently taking defaults.
fn check_flags(args: &[String], value_flags: &[&str], bool_flags: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if value_flags.contains(&a) {
            if i + 1 >= args.len() {
                return Err(format!("flag {a} needs a value"));
            }
            i += 2;
        } else if bool_flags.contains(&a) {
            i += 1;
        } else if a.starts_with('-') {
            return Err(format!("unknown flag {a:?}"));
        } else {
            return Err(format!("unexpected argument {a:?}"));
        }
    }
    Ok(())
}

/// Minimal flag parser: `--key value` pairs plus `-o`/`-p` aliases.
fn flag<'a>(args: &'a [String], names: &[&str]) -> Option<&'a str> {
    args.windows(2)
        .find(|w| names.contains(&w[0].as_str()))
        .map(|w| w[1].as_str())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// `--scale`, the CLI's documented default when the flag is absent.
fn parse_scale(args: &[String]) -> Result<Scale, String> {
    flag(args, &["--scale"]).map_or(Ok(Scale::Small), |name| {
        Scale::from_name(name)
            .ok_or_else(|| format!("bad --scale {name:?} (expected tiny, small or default)"))
    })
}

fn parse_seed(args: &[String]) -> Result<u64, String> {
    match flag(args, &["--seed"]) {
        None => Ok(42),
        Some(s) => s.parse().map_err(|e| format!("bad --seed {s:?}: {e}")),
    }
}

fn parse_cache(spec: &str) -> Result<CacheConfig, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 3 {
        return Err(format!(
            "bad cache spec {spec:?} (expected SIZE:ASSOC:LINE)"
        ));
    }
    let size: u64 = parts[0].parse().map_err(|e| format!("bad size: {e}"))?;
    let assoc: u32 = parts[1].parse().map_err(|e| format!("bad assoc: {e}"))?;
    let line: u64 = parts[2].parse().map_err(|e| format!("bad line: {e}"))?;
    CacheConfig::new(size, assoc, line, ReplacementPolicy::Lru).map_err(|e| e.to_string())
}

fn parse_policy(args: &[String]) -> Result<Policy, String> {
    match flag(args, &["--policy"]) {
        None | Some("lrr") => Ok(Policy::Lrr),
        Some("gto") => Ok(Policy::Gto),
        Some(s) if s.starts_with("self:") => s[5..]
            .parse()
            .map(Policy::SelfProb)
            .map_err(|e| format!("bad --policy {s:?}: {e}")),
        Some(other) => Err(format!("unknown policy {other:?}")),
    }
}

fn load_profile(path: &str) -> Result<GmapProfile, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let profile =
        GmapProfile::load(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))?;
    profile
        .validate()
        .map_err(|e| format!("{path} is inconsistent: {e}"))?;
    Ok(profile)
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[
            "-o",
            "--output",
            "--workload",
            "--trace",
            "--grid",
            "--block",
            "--scale",
            "--rebase",
        ],
        &[],
    )?;
    let out = flag(args, &["-o", "--output"]).ok_or("missing -o FILE")?;
    let mut profile = match (flag(args, &["--workload"]), flag(args, &["--trace"])) {
        (Some(name), None) => {
            let kernel = workloads::by_name(name, parse_scale(args)?)
                .ok_or_else(|| format!("unknown workload {name:?} (see `gmap list`)"))?;
            profile_kernel(&kernel, &ProfilerConfig::default())
        }
        (None, Some(path)) => {
            // External per-thread trace: needs the launch geometry.
            // Streamed through gmap-ingest, so arbitrarily large traces
            // profile in bounded memory (format is auto-detected).
            let (launch, name) = trace_geometry(args, path)?;
            let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            let outcome = gmap::ingest::ingest_reader(
                &name,
                BufReader::new(file),
                &launch,
                gmap::ingest::IngestConfig::default(),
            )
            .map_err(|e| format!("cannot profile {path}: {e}"))?;
            outcome.profile
        }
        _ => return Err("pass exactly one of --workload NAME or --trace FILE".into()),
    };
    let name = profile.name.clone();
    if let Some(shift) = flag(args, &["--rebase"]) {
        let hex = shift.strip_prefix("0x").unwrap_or(shift);
        let delta = i64::from_str_radix(hex, 16).map_err(|e| format!("bad --rebase: {e}"))?;
        profile.rebase(delta);
    }
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    profile
        .save(BufWriter::new(file))
        .map_err(|e| e.to_string())?;
    println!(
        "profiled {name}: {} PCs, {} pi profiles, {} warp accesses -> {out}",
        profile.num_slots(),
        profile.profiles.len(),
        profile.total_warp_accesses
    );
    // The content key matches the model id `POST /v1/ingest` returns for
    // the same trace, so local and served profiling can be diffed.
    let key = gmap::core::cachekey::key_of(&gmap::core::AppProfile::single(profile));
    println!("content key: {key}");
    // For bundled workloads, also print the spec-addressed model id the
    // service computes for the same profile request, so routed responses
    // can be checked against a locally computed key.
    if let Some(w) = flag(args, &["--workload"]) {
        let id = gmap::serve::handlers::model_id_for(w, parse_scale(args)?.name());
        println!("model id: {id}");
    }
    Ok(())
}

/// Launch geometry + workload name (the file stem) for an external trace.
fn trace_geometry(
    args: &[String],
    path: &str,
) -> Result<(gmap::gpu::hierarchy::LaunchConfig, String), String> {
    let grid: u32 = flag(args, &["--grid"])
        .ok_or("external traces need --grid BLOCKS")?
        .parse()
        .map_err(|e| format!("bad --grid: {e}"))?;
    let block: u32 = flag(args, &["--block"])
        .ok_or("external traces need --block THREADS")?
        .parse()
        .map_err(|e| format!("bad --block: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .map_or("trace", |s| s.to_str().unwrap_or("trace"))
        .to_owned();
    Ok((gmap::gpu::hierarchy::LaunchConfig::new(grid, block), name))
}

fn load_spec(path: &str) -> Result<gmap::gpu::kernel::KernelDesc, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&raw).map_err(|e| format!("cannot parse {path} as a kernel spec: {e}"))
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[
            "--workload",
            "--spec",
            "--fixture",
            "--scale",
            "--dump-spec",
            "--trace",
            "--grid",
            "--block",
        ],
        &["--all", "--json", "--races"],
    )?;
    if let Some(path) = flag(args, &["--trace"]) {
        if has_flag(args, "--races") {
            return Err("--races only applies to kernel specs, not --trace heat-maps".into());
        }
        return analyze_trace(args, path);
    }
    let kernels: Vec<gmap::gpu::kernel::KernelDesc> = match (
        flag(args, &["--workload"]),
        flag(args, &["--spec"]),
        flag(args, &["--fixture"]),
        has_flag(args, "--all"),
    ) {
        (Some(name), None, None, false) => {
            vec![workloads::by_name(name, parse_scale(args)?)
                .ok_or_else(|| format!("unknown workload {name:?} (see `gmap list`)"))?]
        }
        (None, Some(path), None, false) => vec![load_spec(path)?],
        (None, None, Some(name), false) => {
            vec![gmap::analyze::fixtures::by_name(name).ok_or_else(|| {
                format!(
                    "unknown fixture {name:?} (known: {}, phased-stencil, phased-reduction, clean-streaming)",
                    gmap::analyze::fixtures::NAMES.join(", ")
                )
            })?]
        }
        (None, None, None, true) => workloads::all(parse_scale(args)?),
        _ => return Err("pass exactly one of --workload, --spec, --fixture, or --all".into()),
    };
    if let Some(out) = flag(args, &["--dump-spec"]) {
        let spec = gmap::core::cachekey::canonical_json(&kernels[0]);
        std::fs::write(out, spec).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    let reports: Vec<gmap::analyze::StaticReport> =
        kernels.iter().map(gmap::analyze::analyze_kernel).collect();
    let total_errors: usize = reports.iter().map(|r| r.errors().count()).sum();
    if has_flag(args, "--json") {
        // One source -> one report object; --all -> an array. Error
        // findings still fail the process so the JSON mode can gate CI.
        let body = if reports.len() == 1 {
            serde_json::to_string_pretty(&reports[0])
        } else {
            serde_json::to_string_pretty(&reports)
        }
        .map_err(|e| format!("cannot serialize report: {e}"))?;
        println!("{body}");
    } else if has_flag(args, "--races") {
        for report in &reports {
            print!("{}", report.render_races());
        }
    } else {
        for report in &reports {
            print!("{}", report.render());
        }
    }
    if total_errors > 0 {
        Err(format!(
            "static analysis found {total_errors} error finding(s)"
        ))
    } else {
        Ok(())
    }
}

/// `gmap analyze --trace FILE --grid B --block T [--json]`: stream an
/// external trace and print its per-array/per-PC heat-map report.
fn analyze_trace(args: &[String], path: &str) -> Result<(), String> {
    if flag(args, &["--workload", "--spec", "--fixture"]).is_some() || has_flag(args, "--all") {
        return Err("pass exactly one of --workload, --spec, --fixture, --all, or --trace".into());
    }
    let (launch, name) = trace_geometry(args, path)?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let outcome = gmap::ingest::ingest_reader(
        &name,
        BufReader::new(file),
        &launch,
        gmap::ingest::IngestConfig::default(),
    )
    .map_err(|e| format!("cannot analyze {path}: {e}"))?;
    if has_flag(args, "--json") {
        println!("{}", outcome.report.to_json());
    } else {
        print!("{}", outcome.report.render_text());
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    check_flags(args, &["-p", "--profile"], &[])?;
    let path = flag(args, &["-p", "--profile"]).ok_or("missing -p FILE")?;
    let p = load_profile(path)?;
    println!("name            : {}", p.name);
    println!(
        "launch          : {} blocks x {} threads ({} warps)",
        p.launch.num_blocks(),
        p.launch.threads_per_block(),
        p.launch.total_warps(p.warp_size)
    );
    println!("warp accesses   : {}", p.total_warp_accesses);
    println!("pi profiles     : {}", p.profiles.len());
    println!("static PCs      : {}", p.num_slots());
    let freqs = p.slot_frequencies();
    let mut order: Vec<usize> = (0..p.num_slots()).collect();
    order.sort_by(|&a, &b| freqs[b].partial_cmp(&freqs[a]).expect("finite"));
    println!(
        "{:<10} {:>8} {:>6} {:>14} {:>14}",
        "PC", "freq%", "kind", "inter-warp", "intra-warp"
    );
    for &s in order.iter().take(10) {
        println!(
            "{:<10} {:>7.1}% {:>6} {:>14} {:>14}",
            p.pcs[s].to_string(),
            freqs[s] * 100.0,
            format!("{}", p.kinds[s]),
            p.inter_stride[s]
                .dominant()
                .map_or("-".into(), |(v, f)| format!("{v}B@{:.0}%", f * 100.0)),
            p.intra_stride[s]
                .dominant()
                .map_or("-".into(), |(v, f)| format!("{v}B@{:.0}%", f * 100.0)),
        );
    }
    for (i, prof) in p.profiles.iter().enumerate() {
        println!(
            "pi[{i}]: weight {:.1}%  {} accesses  reuse {}",
            p.profile_weights.freq_of(i) * 100.0,
            prof.num_accesses(),
            p.reuse[i].class()
        );
    }
    Ok(())
}

fn cmd_clone(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[
            "-p",
            "--profile",
            "-o",
            "--output",
            "--seed",
            "--factor",
            "--format",
        ],
        &[],
    )?;
    let path = flag(args, &["-p", "--profile"]).ok_or("missing -p FILE")?;
    let out = flag(args, &["-o", "--output"]).ok_or("missing -o FILE")?;
    let seed = parse_seed(args)?;
    let mut profile = load_profile(path)?;
    if let Some(f) = flag(args, &["--factor"]) {
        let factor: f64 = f.parse().map_err(|e| format!("bad --factor: {e}"))?;
        profile = miniaturize(&profile, factor).map_err(|e| e.to_string())?;
    }
    let streams = generate_streams(&profile, seed);
    let entries = gmap::ingest::lane0_entries(&streams, &profile.launch);
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut w = BufWriter::new(file);
    match flag(args, &["--format"]) {
        None | Some("text") => {
            gmap::trace::io::write_text(&mut w, &entries).map_err(|e| e.to_string())?
        }
        Some("binary") => {
            gmap::trace::io::write_binary(&mut w, &entries).map_err(|e| e.to_string())?
        }
        Some(other) => return Err(format!("unknown --format {other:?}")),
    }
    println!(
        "clone of '{}': {} transactions -> {out}",
        profile.name,
        entries.len()
    );
    Ok(())
}

fn cmd_fidelity(args: &[String]) -> Result<(), String> {
    check_flags(args, &["-p", "--profile", "--workload", "--scale"], &[])?;
    let profile = match (
        flag(args, &["-p", "--profile"]),
        flag(args, &["--workload"]),
    ) {
        (Some(path), None) => load_profile(path)?,
        (None, Some(name)) => {
            let kernel = workloads::by_name(name, parse_scale(args)?)
                .ok_or_else(|| format!("unknown workload {name:?}"))?;
            profile_kernel(&kernel, &ProfilerConfig::default())
        }
        _ => return Err("pass exactly one of -p FILE or --workload NAME".into()),
    };
    let report = gmap::core::fidelity::analyze(&profile);
    println!("{report}");
    println!(
        "\ninterpretation: {} fidelity — {}",
        report.class,
        match report.class {
            gmap::core::FidelityClass::High =>
                "dominant patterns; expect clone errors of a few percent or less",
            gmap::core::FidelityClass::Medium =>
                "mixed regularity; expect single-digit to low-teens errors",
            gmap::core::FidelityClass::Low =>
                "no dominant patterns (the hotspot regime); treat clone results as aggregate, not fine-grained",
        }
    );
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[
            "--workload",
            "-p",
            "--profile",
            "--l1",
            "--l2",
            "--policy",
            "--seed",
            "--scale",
        ],
        &["--dram"],
    )?;
    let mut cfg = SimtConfig {
        seed: parse_seed(args)?,
        policy: parse_policy(args)?,
        ..SimtConfig::default()
    };
    if let Some(spec) = flag(args, &["--l1"]) {
        cfg.hierarchy.l1 = parse_cache(spec)?;
    }
    if let Some(spec) = flag(args, &["--l2"]) {
        cfg.hierarchy.l2 = parse_cache(spec)?;
    }
    let with_dram = has_flag(args, "--dram");
    cfg.hierarchy.trace_capture = if with_dram {
        TraceCapture::Full
    } else {
        TraceCapture::Off
    };

    let (streams, launch, label) = match (
        flag(args, &["--workload"]),
        flag(args, &["-p", "--profile"]),
    ) {
        (Some(name), None) => {
            let kernel = workloads::by_name(name, parse_scale(args)?)
                .ok_or_else(|| format!("unknown workload {name:?}"))?;
            let streams = gmap::core::model::original_streams(&kernel);
            (streams, kernel.launch, format!("original {name}"))
        }
        (None, Some(path)) => {
            let profile = load_profile(path)?;
            let streams = generate_streams(&profile, cfg.seed);
            (
                streams,
                profile.launch,
                format!("clone of {}", profile.name),
            )
        }
        _ => return Err("pass exactly one of --workload NAME or -p FILE".into()),
    };

    let out = simulate_streams(&streams, &launch, &cfg).map_err(|e| e.to_string())?;
    println!("simulated {label}");
    println!("cycles          : {}", out.schedule.cycles);
    println!("warp accesses   : {}", out.schedule.issued_accesses);
    println!("transactions    : {}", out.schedule.issued_transactions);
    println!("SchedP_self     : {:.3}", out.schedule.sched_p_self);
    println!("L1 miss rate    : {:.2}%", out.l1_miss_pct());
    println!("L2 miss rate    : {:.2}%", out.l2_miss_pct());
    println!("memory reads    : {}", out.stats.mem_reads);
    println!("memory writes   : {}", out.stats.mem_writes);
    if with_dram {
        let m = out.dram_metrics(DramConfig::table2_baseline());
        println!("DRAM RBL        : {:.3}", m.rbl);
        println!("DRAM queue len  : {:.2}", m.avg_queue_len);
        println!("DRAM read lat   : {:.1} cycles", m.avg_read_latency);
        println!("DRAM write lat  : {:.1} cycles", m.avg_write_latency);
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[
            "--listen",
            "--workers",
            "--queue",
            "--deadline-ms",
            "--cache-dir",
            "--cache-capacity",
            "--keepalive-max",
            "--read-timeout-ms",
            "--idle-timeout-ms",
            "--faults",
            "--route",
            "--fleet",
            "--advertise",
            "--replication-factor",
            "--probe-interval-ms",
        ],
        &[],
    )?;
    let mut config = gmap::serve::ServeConfig::default();
    if let Some(peers) = flag(args, &["--route"]) {
        let route = parse_peer_list(peers, "--route")?;
        // A router forwarding to itself would loop until the deadline
        // burns out; reject the misconfiguration up front.
        if let Some(listen) = flag(args, &["--listen"]) {
            if route.iter().any(|p| p == listen) {
                return Err(format!(
                    "--route must not include the router's own --listen address {listen}"
                ));
            }
        }
        config.route = Some(route);
    }
    if let Some(peers) = flag(args, &["--fleet"]) {
        config.fleet = Some(parse_peer_list(peers, "--fleet")?);
    }
    if let Some(addr) = flag(args, &["--advertise"]) {
        if let Some(fleet) = &config.fleet {
            if !fleet.iter().any(|p| p == addr) {
                return Err(format!(
                    "--advertise {addr} is not a member of --fleet (replication targets \
                     are chosen by ring position, so the fleet must know this address)"
                ));
            }
        }
        config.advertise = Some(addr.to_owned());
    }
    if let Some(n) = flag(args, &["--replication-factor"]) {
        config.replication_factor = n
            .parse()
            .map_err(|e| format!("bad --replication-factor {n:?}: {e}"))?;
    }
    if let Some(n) = flag(args, &["--probe-interval-ms"]) {
        let ms: u64 = n
            .parse()
            .map_err(|e| format!("bad --probe-interval-ms {n:?}: {e}"))?;
        config.probe_interval = std::time::Duration::from_millis(ms);
    }
    if let Some(listen) = flag(args, &["--listen"]) {
        config.listen = listen.to_owned();
    }
    if let Some(n) = flag(args, &["--workers"]) {
        config.workers = n.parse().map_err(|e| format!("bad --workers {n:?}: {e}"))?;
    }
    if let Some(n) = flag(args, &["--queue"]) {
        config.queue_capacity = n.parse().map_err(|e| format!("bad --queue {n:?}: {e}"))?;
    }
    if let Some(n) = flag(args, &["--deadline-ms"]) {
        let ms: u64 = n
            .parse()
            .map_err(|e| format!("bad --deadline-ms {n:?}: {e}"))?;
        config.deadline = std::time::Duration::from_millis(ms);
    }
    if let Some(dir) = flag(args, &["--cache-dir"]) {
        config.cache_dir = Some(dir.into());
    }
    if let Some(n) = flag(args, &["--cache-capacity"]) {
        config.cache_capacity = n
            .parse()
            .map_err(|e| format!("bad --cache-capacity {n:?}: {e}"))?;
    }
    if let Some(n) = flag(args, &["--keepalive-max"]) {
        config.keepalive_max = n
            .parse()
            .map_err(|e| format!("bad --keepalive-max {n:?}: {e}"))?;
    }
    if let Some(n) = flag(args, &["--read-timeout-ms"]) {
        let ms: u64 = n
            .parse()
            .map_err(|e| format!("bad --read-timeout-ms {n:?}: {e}"))?;
        config.read_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(n) = flag(args, &["--idle-timeout-ms"]) {
        let ms: u64 = n
            .parse()
            .map_err(|e| format!("bad --idle-timeout-ms {n:?}: {e}"))?;
        config.idle_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(spec) = flag(args, &["--faults"]) {
        config.faults = Some(
            gmap::serve::faults::FaultSpec::parse(spec)
                .map_err(|e| format!("bad fault spec {spec:?}: {e}"))?,
        );
        eprintln!("gmap-serve: fault injection enabled ({spec})");
    }
    let handle = gmap::serve::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    println!("gmap-serve listening on {}", handle.addr());
    std::io::Write::flush(&mut std::io::stdout()).ok();
    // Run until the supervisor closes stdin, then drain. EOF as the stop
    // signal keeps graceful shutdown scriptable without signal handling.
    let stdin = std::io::stdin();
    let mut sink = String::new();
    loop {
        sink.clear();
        match std::io::BufRead::read_line(&mut stdin.lock(), &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    handle.shutdown();
    println!("gmap-serve: drained and stopped");
    Ok(())
}

fn client_addr(args: &[String]) -> Result<&str, String> {
    flag(args, &["--addr"]).ok_or_else(|| "missing --addr HOST:PORT".into())
}

/// Parses a comma-separated replica list (`--route` / `--fleet` /
/// `--peers`). A duplicate entry is a usage error: it would double the
/// duplicated replica's vnode share on the ring and silently skew
/// placement.
fn parse_peer_list(spec: &str, flag_name: &str) -> Result<Vec<String>, String> {
    let peers: Vec<String> = spec
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_owned)
        .collect();
    if peers.is_empty() {
        return Err(format!("{flag_name} needs at least one HOST:PORT"));
    }
    let mut seen = std::collections::BTreeSet::new();
    for peer in &peers {
        if !seen.insert(peer.as_str()) {
            return Err(format!("{flag_name} lists {peer:?} more than once"));
        }
    }
    Ok(peers)
}

fn client_seed(args: &[String]) -> Result<Option<u64>, String> {
    flag(args, &["--seed"])
        .map(|s| s.parse().map_err(|e| format!("bad --seed {s:?}: {e}")))
        .transpose()
}

/// Splits a colon-separated numeric spec into `lo..=hi` fields.
fn numeric_fields(spec: &str, lo: usize, hi: usize, shape: &str) -> Result<Vec<u32>, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if !(lo..=hi).contains(&parts.len()) {
        return Err(format!("bad spec {spec:?} (expected {shape})"));
    }
    parts
        .iter()
        .map(|p| {
            p.parse()
                .map_err(|e| format!("bad field {p:?} in {spec:?}: {e}"))
        })
        .collect()
}

/// Parses `--stride-prefetch TABLE:DEGREE[:DISTANCE[:CONFIDENCE]]`.
fn parse_stride_prefetch(spec: &str) -> Result<gmap::serve::api::StridePoint, String> {
    let f = numeric_fields(spec, 2, 4, "TABLE:DEGREE[:DISTANCE[:CONFIDENCE]]")?;
    Ok(gmap::serve::api::StridePoint {
        table: f[0],
        degree: f[1],
        distance: f.get(2).copied(),
        confidence: f.get(3).copied(),
    })
}

/// Parses `--stream-prefetch WINDOW:DEGREE[:STREAMS]`.
fn parse_stream_prefetch(spec: &str) -> Result<gmap::serve::api::StreamPoint, String> {
    let f = numeric_fields(spec, 2, 3, "WINDOW:DEGREE[:STREAMS]")?;
    Ok(gmap::serve::api::StreamPoint {
        window: f[0],
        degree: f[1],
        streams: f.get(2).copied(),
    })
}

/// Parses an evaluation grid: comma-separated `KB:ASSOC[:LINE[:POLICY]]`
/// points, all applied to `level`, each carrying the same optional
/// prefetcher attachment.
fn parse_grid(
    spec: &str,
    level: Option<&str>,
    stride: Option<&gmap::serve::api::StridePoint>,
    stream: Option<&gmap::serve::api::StreamPoint>,
) -> Result<Vec<gmap::serve::api::GridPoint>, String> {
    spec.split(',')
        .map(|point| {
            let parts: Vec<&str> = point.split(':').collect();
            if !(2..=4).contains(&parts.len()) {
                return Err(format!(
                    "bad grid point {point:?} (expected KB:ASSOC[:LINE[:POLICY]])"
                ));
            }
            Ok(gmap::serve::api::GridPoint {
                level: level.map(str::to_owned),
                size_kb: parts[0]
                    .parse()
                    .map_err(|e| format!("bad size in {point:?}: {e}"))?,
                assoc: parts[1]
                    .parse()
                    .map_err(|e| format!("bad assoc in {point:?}: {e}"))?,
                line: parts
                    .get(2)
                    .map(|l| l.parse().map_err(|e| format!("bad line in {point:?}: {e}")))
                    .transpose()?,
                policy: parts.get(3).map(|p| (*p).to_owned()),
                stride_prefetch: stride.cloned(),
                stream_prefetch: stream.cloned(),
            })
        })
        .collect()
}

/// What `gmap client profile` and `analyze` name (analyze sends the same
/// three fields). A workload carries the CLI's scale explicitly, default
/// included: a request without one means `default` to the service, and
/// `gmap profile` would name another model id for the same flags.
fn client_source(rest: &[String]) -> Result<gmap::serve::api::ProfileRequest, String> {
    check_flags(
        rest,
        &[
            "--addr",
            "--peers",
            "--workload",
            "--scale",
            "--spec",
            "--retries",
        ],
        &[],
    )?;
    let spec = flag(rest, &["--spec"]).map(load_spec).transpose()?;
    let workload = flag(rest, &["--workload"]).map(str::to_owned);
    if spec.is_none() && workload.is_none() {
        return Err("missing --workload NAME or --spec FILE".into());
    }
    let scale = match workload {
        Some(_) => Some(parse_scale(rest)?.name().to_owned()),
        None => None, // only a workload has a scale
    };
    Ok(gmap::serve::api::ProfileRequest {
        workload,
        scale,
        spec,
    })
}

/// An upload's model name goes into the request line unescaped.
fn ingest_name(name: &str) -> Result<&str, String> {
    let plain = |c: char| c.is_ascii_alphanumeric() || "._-".contains(c);
    if name.is_empty() || !name.chars().all(plain) {
        return Err(format!(
            "model name {name:?} cannot go in a request line (letters, digits, '.', '_' and \
             '-' only); pass --name NAME"
        ));
    }
    Ok(name)
}

/// `gmap client ingest`: stream a trace file to `POST /v1/ingest` with
/// chunked transfer encoding, so the service profiles it as it arrives.
/// Separate from the JSON actions because the body is a file, not a
/// materialized request.
fn client_ingest(rest: &[String]) -> Result<(), String> {
    check_flags(
        rest,
        &[
            "--addr", "--trace", "--grid", "--block", "--name", "--chunk",
        ],
        &[],
    )?;
    let path = flag(rest, &["--trace"]).ok_or("missing --trace FILE")?;
    let (launch, stem) = trace_geometry(rest, path)?;
    let name = ingest_name(flag(rest, &["--name"]).unwrap_or(&stem))?;
    let chunk: usize = flag(rest, &["--chunk"])
        .map(|n| n.parse().map_err(|e| format!("bad --chunk {n:?}: {e}")))
        .transpose()?
        .unwrap_or(gmap::ingest::DEFAULT_CHUNK_BYTES);
    if chunk == 0 {
        return Err("--chunk must be nonzero".into());
    }
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let url = format!(
        "/v1/ingest?grid={}&block={}&name={name}",
        launch.num_blocks(),
        launch.threads_per_block()
    );
    let mut reader = BufReader::new(file);
    let response = gmap::serve::client::post_chunked(client_addr(rest)?, &url, &mut reader, chunk)
        .map_err(|e| format!("request failed: {e}"))?;
    println!("{}", response.body.trim_end());
    if response.is_ok() {
        Ok(())
    } else {
        Err(format!("server answered {}", response.status))
    }
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    use gmap::core::cachekey::canonical_json;
    use gmap::serve::{api, client};

    let action = args.first().ok_or(
        "client needs an action: health, metrics, profile, analyze, ingest, clone, evaluate, \
         or drain",
    )?;
    let action = action.as_str();
    let rest = &args[1..];
    if action == "ingest" {
        return client_ingest(rest);
    }
    let (path, body): (&str, Option<String>) = match action {
        "health" => {
            check_flags(rest, &["--addr", "--peers", "--retries"], &[])?;
            ("/healthz", None)
        }
        "metrics" => {
            check_flags(rest, &["--addr", "--peers", "--retries"], &[])?;
            ("/metrics", None)
        }
        "drain" => {
            // Decommission targets one specific replica, so only --addr
            // makes sense (sharding the request would drain an
            // arbitrary fleet member).
            check_flags(rest, &["--addr", "--retries"], &[])?;
            ("/v1/admin/drain", Some(String::new()))
        }
        "profile" => ("/v1/profile", Some(canonical_json(&client_source(rest)?))),
        "analyze" => {
            let named = client_source(rest)?;
            let body = canonical_json(&api::AnalyzeRequest {
                workload: named.workload,
                scale: named.scale,
                spec: named.spec,
            });
            ("/v1/analyze", Some(body))
        }
        "clone" => {
            check_flags(
                rest,
                &[
                    "--addr",
                    "--peers",
                    "--model",
                    "--factor",
                    "--seed",
                    "--retries",
                ],
                &[],
            )?;
            let factor = flag(rest, &["--factor"])
                .map(|f| f.parse().map_err(|e| format!("bad --factor {f:?}: {e}")))
                .transpose()?;
            let body = canonical_json(&api::CloneRequest {
                model_id: flag(rest, &["--model"])
                    .ok_or("missing --model ID")?
                    .to_owned(),
                factor,
                seed: client_seed(rest)?,
            });
            ("/v1/clone", Some(body))
        }
        "evaluate" => {
            check_flags(
                rest,
                &[
                    "--addr",
                    "--peers",
                    "--model",
                    "--grid",
                    "--level",
                    "--kernel",
                    "--metric",
                    "--seed",
                    "--stride-prefetch",
                    "--stream-prefetch",
                    "--retries",
                ],
                &[],
            )?;
            let kernel = flag(rest, &["--kernel"])
                .map(|k| k.parse().map_err(|e| format!("bad --kernel {k:?}: {e}")))
                .transpose()?;
            let stride = flag(rest, &["--stride-prefetch"])
                .map(parse_stride_prefetch)
                .transpose()?;
            let stream = flag(rest, &["--stream-prefetch"])
                .map(parse_stream_prefetch)
                .transpose()?;
            let grid = parse_grid(
                flag(rest, &["--grid"]).ok_or("missing --grid SPEC")?,
                flag(rest, &["--level"]),
                stride.as_ref(),
                stream.as_ref(),
            )?;
            let body = canonical_json(&api::EvaluateRequest {
                model_id: flag(rest, &["--model"])
                    .ok_or("missing --model ID")?
                    .to_owned(),
                kernel,
                metric: flag(rest, &["--metric"]).map(str::to_owned),
                seed: client_seed(rest)?,
                grid,
            });
            ("/v1/evaluate", Some(body))
        }
        other => return Err(format!("unknown client action {other:?}")),
    };
    let retries: u32 = flag(rest, &["--retries"])
        .map(|n| n.parse().map_err(|e| format!("bad --retries {n:?}: {e}")))
        .transpose()?
        .unwrap_or(0);
    let policy = client::RetryPolicy {
        max_retries: retries,
        ..client::RetryPolicy::default()
    };
    let method = if body.is_some() { "POST" } else { "GET" };
    // --peers routes through the consistent-hash ring with failover to
    // ring successors; --addr talks to one server (or a router) directly.
    let response = match flag(rest, &["--peers"]) {
        Some(peers) => {
            let peers = parse_peer_list(peers, "--peers")?;
            client::PeerClient::new(&peers, policy).request(method, path, body.as_deref())
        }
        None => {
            client::request_with_retry(client_addr(rest)?, method, path, body.as_deref(), &policy)
        }
    };
    let response = response.map_err(|e| format!("request failed: {e}"))?;
    println!("{}", response.body.trim_end());
    if response.is_ok() {
        Ok(())
    } else {
        Err(format!("server answered {}", response.status))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let args = s(&["--seed", "7", "-o", "out.json"]);
        assert_eq!(flag(&args, &["--seed"]), Some("7"));
        assert_eq!(flag(&args, &["-o", "--output"]), Some("out.json"));
        assert_eq!(flag(&args, &["--missing"]), None);
        assert!(!has_flag(&args, "--dram"));
    }

    #[test]
    fn scale_parsing_rejects_what_it_does_not_know() {
        assert_eq!(parse_scale(&s(&[])), Ok(Scale::Small));
        assert_eq!(parse_scale(&s(&["--scale", "tiny"])), Ok(Scale::Tiny));
        assert_eq!(parse_scale(&s(&["--scale", "small"])), Ok(Scale::Small));
        assert_eq!(parse_scale(&s(&["--scale", "default"])), Ok(Scale::Default));
        let typo = parse_scale(&s(&["--scale", "tny"])).expect_err("a typo is not `small`");
        assert!(typo.contains("\"tny\"") && typo.contains("tiny, small or default"));
        let run = run(&s(&["fidelity", "--workload", "kmeans", "--scale", "tny"]));
        assert_eq!(run, Err(typo));
    }

    #[test]
    fn profile_and_client_name_the_same_model_id() {
        use gmap::serve::handlers::{model_id_for, request_model_id};
        for scale in [&[][..], &["--scale", "tiny"], &["--scale", "default"]] {
            let args = s(&[&["--addr", "x", "--workload", "kmeans"], scale].concat());
            // What `gmap profile` prints and what the service computes
            // for the body `gmap client profile|analyze` sends.
            let printed = model_id_for("kmeans", parse_scale(&args).expect("scale").name());
            let sent = client_source(&args).expect("request");
            assert_eq!(request_model_id(&sent), Ok(printed), "{scale:?}");
        }
        let sent = client_source(&s(&["--workload", "kmeans"])).expect("request");
        assert_eq!(sent.scale.as_deref(), Some("small"), "the default, said");
        assert!(client_source(&s(&["--workload", "kmeans", "--scale", "tny"])).is_err());
    }

    #[test]
    fn ingest_refuses_a_name_it_cannot_put_in_a_request_line() {
        let ingest = |trace: &str, name: Option<&str>| {
            let mut args = s(&[
                "ingest", "--addr", "x", "--trace", trace, "--grid", "1", "--block", "64",
            ]);
            args.extend(name.iter().flat_map(|n| s(&["--name", n])));
            cmd_client(&args).expect_err("no such file, at the latest")
        };
        // A space, a query separator, and CR LF (header injection) — from
        // the file stem or from --name — are refused before any I/O.
        for (trace, name) in [
            ("/nonexistent/my trace.txt", None),
            ("/nonexistent/a&b.txt", None),
            ("/nonexistent/t.txt", Some("x\r\nX-Injected: 1")),
        ] {
            let err = ingest(trace, name);
            assert!(
                err.contains("--name") && err.contains("request line"),
                "{err}"
            );
        }
        // A plain --name rescues a file whose stem is not.
        let err = ingest("/nonexistent/my trace.txt", Some("my_trace-1.v2"));
        assert!(err.starts_with("cannot open"), "{err}");
    }

    #[test]
    fn cache_spec_parsing() {
        let c = parse_cache("16384:4:128").expect("valid spec");
        assert_eq!((c.size_bytes, c.assoc, c.line_size), (16384, 4, 128));
        assert!(parse_cache("16384:4").is_err());
        assert!(parse_cache("a:b:c").is_err());
        assert!(parse_cache("100:3:100").is_err()); // invalid geometry
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(
            parse_policy(&s(&["--policy", "lrr"])).expect("valid"),
            Policy::Lrr
        );
        assert_eq!(
            parse_policy(&s(&["--policy", "gto"])).expect("valid"),
            Policy::Gto
        );
        assert!(matches!(
            parse_policy(&s(&["--policy", "self:0.7"])).expect("valid"),
            Policy::SelfProb(p) if (p - 0.7).abs() < 1e-9
        ));
        assert!(parse_policy(&s(&["--policy", "bogus"])).is_err());
        assert_eq!(parse_policy(&[]).expect("default"), Policy::Lrr);
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn unknown_flags_error() {
        // Typo'd flags must fail instead of silently taking defaults.
        assert!(run(&s(&["simulate", "--workload", "kmeans", "--sedd", "7"])).is_err());
        assert!(run(&s(&["list", "--verbose"])).is_err());
        assert!(run(&s(&["list", "extra"])).is_err());
        assert!(cmd_serve(&s(&["--port", "80"])).is_err());
        assert!(cmd_client(&s(&[
            "profile",
            "--addr",
            "x",
            "--workload",
            "k",
            "--bogus",
            "1"
        ]))
        .is_err());
        // A value flag at the end of the line is missing its value.
        assert!(cmd_clone(&s(&["-p", "x.json", "-o", "y", "--seed"])).is_err());
    }

    #[test]
    fn peer_list_parsing() {
        assert_eq!(
            parse_peer_list("a:1, b:2 ,c:3", "--peers").expect("valid"),
            vec!["a:1".to_string(), "b:2".to_string(), "c:3".to_string()]
        );
        assert!(parse_peer_list("", "--route").is_err());
        assert!(parse_peer_list(",,", "--peers").is_err());
        // An empty --route list must fail before any socket is bound.
        assert!(cmd_serve(&s(&["--route", ","])).is_err());
        // Duplicates would double a replica's vnode share: usage error.
        let err = parse_peer_list("a:1,b:2,a:1", "--peers").expect_err("duplicate rejected");
        assert!(err.contains("more than once"), "unexpected error: {err}");
        assert!(parse_peer_list("a:1, a:1", "--route").is_err());
    }

    #[test]
    fn serve_rejects_misconfigured_fleets_and_routes() {
        // A router that routes to itself would forward in a loop.
        assert!(cmd_serve(&s(&[
            "--listen",
            "127.0.0.1:9101",
            "--route",
            "127.0.0.1:9100,127.0.0.1:9101",
        ]))
        .is_err());
        // Duplicate fleet members are rejected before binding.
        assert!(cmd_serve(&s(&["--fleet", "a:1,a:1"])).is_err());
        // An advertised address outside the fleet can never own a key.
        assert!(cmd_serve(&s(&[
            "--fleet",
            "127.0.0.1:9100,127.0.0.1:9101",
            "--advertise",
            "127.0.0.1:9102",
        ]))
        .is_err());
        assert!(cmd_serve(&s(&["--replication-factor", "two"])).is_err());
        assert!(cmd_serve(&s(&["--probe-interval-ms", "fast"])).is_err());
    }

    #[test]
    fn client_drain_is_addr_only() {
        // Drain targets one replica; sharding it via --peers is a usage
        // error, and the flag set is validated before any connection.
        assert!(cmd_client(&s(&["drain", "--peers", "a:1,b:2"])).is_err());
        assert!(cmd_client(&s(&["drain"])).is_err());
    }

    #[test]
    fn client_peers_route_to_a_replica_fleet() {
        let replicas: Vec<_> = (0..2)
            .map(|_| gmap::serve::start(gmap::serve::ServeConfig::default()).expect("bind replica"))
            .collect();
        let peers = replicas
            .iter()
            .map(|h| h.addr().to_string())
            .collect::<Vec<_>>()
            .join(",");
        assert!(cmd_client(&s(&["health", "--peers", peers.as_str()])).is_ok());
        assert!(cmd_client(&s(&[
            "profile",
            "--peers",
            peers.as_str(),
            "--workload",
            "kmeans",
            "--scale",
            "tiny",
        ]))
        .is_ok());
        // Neither --peers nor --addr: a clear error, not a panic.
        assert!(cmd_client(&s(&["health"])).is_err());
        for handle in replicas {
            handle.shutdown();
        }
    }

    #[test]
    fn usage_lists_every_subcommand() {
        let text = usage();
        for sub in [
            "profile", "analyze", "info", "clone", "simulate", "fidelity", "list", "serve",
            "client",
        ] {
            assert!(text.contains(sub), "usage must mention {sub}");
        }
    }

    #[test]
    fn grid_specs_parse() {
        let grid = parse_grid("16:4,32:8:64:fifo", Some("l2"), None, None).expect("valid grid");
        assert_eq!(grid.len(), 2);
        assert_eq!((grid[0].size_kb, grid[0].assoc), (16, 4));
        assert_eq!(grid[0].line, None);
        assert_eq!(grid[1].line, Some(64));
        assert_eq!(grid[1].policy.as_deref(), Some("fifo"));
        assert_eq!(grid[1].level.as_deref(), Some("l2"));
        assert_eq!(grid[0].stride_prefetch, None);
        assert_eq!(grid[0].stream_prefetch, None);
        assert!(parse_grid("16", None, None, None).is_err());
        assert!(parse_grid("16:4:64:lru:extra", None, None, None).is_err());
        assert!(parse_grid("a:b", None, None, None).is_err());
    }

    #[test]
    fn prefetch_specs_parse_and_attach_to_every_point() {
        let stride = parse_stride_prefetch("64:2").expect("minimal stride");
        assert_eq!((stride.table, stride.degree), (64, 2));
        assert_eq!((stride.distance, stride.confidence), (None, None));
        let full = parse_stride_prefetch("256:4:2:3").expect("full stride");
        assert_eq!((full.distance, full.confidence), (Some(2), Some(3)));
        assert!(parse_stride_prefetch("64").is_err());
        assert!(parse_stride_prefetch("64:2:1:2:9").is_err());

        let stream = parse_stream_prefetch("16:4").expect("minimal stream");
        assert_eq!(
            (stream.window, stream.degree, stream.streams),
            (16, 4, None)
        );
        let full = parse_stream_prefetch("32:8:64").expect("full stream");
        assert_eq!(full.streams, Some(64));
        assert!(parse_stream_prefetch("x:y").is_err());

        let grid = parse_grid("8:4,16:4", None, Some(&stride), None).expect("stride grid");
        assert!(grid
            .iter()
            .all(|p| p.stride_prefetch == Some(stride.clone())));
        let grid = parse_grid("512:8", Some("l2"), None, Some(&stream)).expect("stream grid");
        assert_eq!(grid[0].stream_prefetch, Some(stream));
    }

    #[test]
    fn client_round_trip_against_live_server() {
        let handle = gmap::serve::start(gmap::serve::ServeConfig::default()).expect("start");
        let addr = handle.addr().to_string();
        run(&s(&["client", "health", "--addr", &addr])).expect("health");
        run(&s(&[
            "client",
            "profile",
            "--addr",
            &addr,
            "--workload",
            "kmeans",
            "--scale",
            "tiny",
        ]))
        .expect("profile");
        let model = gmap::serve::handlers::model_id_for("kmeans", "tiny");
        run(&s(&[
            "client", "clone", "--addr", &addr, "--model", &model, "--factor", "2",
        ]))
        .expect("clone");
        run(&s(&[
            "client",
            "evaluate",
            "--addr",
            &addr,
            "--model",
            &model,
            "--grid",
            "16:4,32:4",
        ]))
        .expect("evaluate");
        run(&s(&["client", "metrics", "--addr", &addr])).expect("metrics");
        // Unknown model ids surface the server's 404 as a CLI error.
        assert!(run(&s(&["client", "clone", "--addr", &addr, "--model", "feed"])).is_err());
        assert!(cmd_client(&s(&["health"])).is_err()); // missing --addr
        assert!(cmd_client(&s(&["reboot", "--addr", &addr])).is_err());
        assert!(cmd_client(&[]).is_err());
        handle.shutdown();
    }

    #[test]
    fn help_and_list_work() {
        assert!(run(&s(&["help"])).is_ok());
        assert!(run(&s(&["list"])).is_ok());
        assert!(run(&[]).is_ok());
    }

    #[test]
    fn profile_info_clone_simulate_round_trip() {
        let dir = std::env::temp_dir().join(format!("gmap-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let pfile = dir.join("p.json").to_string_lossy().into_owned();
        let tfile = dir.join("t.txt").to_string_lossy().into_owned();
        run(&s(&[
            "profile",
            "--workload",
            "kmeans",
            "--scale",
            "tiny",
            "-o",
            &pfile,
        ]))
        .expect("profile");
        run(&s(&["info", "-p", &pfile])).expect("info");
        run(&s(&["clone", "-p", &pfile, "--factor", "2", "-o", &tfile])).expect("clone");
        assert!(std::fs::metadata(&tfile).expect("trace written").len() > 0);
        run(&s(&["simulate", "-p", &pfile, "--l1", "32768:8:128"])).expect("simulate clone");
        run(&s(&[
            "simulate",
            "--workload",
            "kmeans",
            "--scale",
            "tiny",
            "--dram",
        ]))
        .expect("simulate original");
        run(&s(&["fidelity", "-p", &pfile])).expect("fidelity from profile");
        run(&s(&[
            "fidelity",
            "--workload",
            "hotspot",
            "--scale",
            "tiny",
        ]))
        .expect("fidelity from workload");
        // External-trace ingestion: clone the profile to a trace, then
        // re-profile that trace.
        let p2 = dir.join("p2.json").to_string_lossy().into_owned();
        run(&s(&[
            "profile", "--trace", &tfile, "--grid", "24", "--block", "128", "-o", &p2,
        ]))
        .expect("profile external trace");
        run(&s(&["info", "-p", &p2])).expect("info on ingested profile");
        // The same trace also heat-maps, in text and JSON.
        run(&s(&[
            "analyze", "--trace", &tfile, "--grid", "24", "--block", "128",
        ]))
        .expect("heat-map report");
        run(&s(&[
            "analyze", "--trace", &tfile, "--grid", "24", "--block", "128", "--json",
        ]))
        .expect("heat-map report as JSON");
        // The heat-map mode is a source like any other: exclusive, and
        // incomplete geometry fails loudly.
        assert!(run(&s(&[
            "analyze", "--trace", &tfile, "--grid", "24", "--block", "128", "--all"
        ]))
        .is_err());
        assert!(run(&s(&["analyze", "--trace", &tfile, "--grid", "24"])).is_err());
        // --races is a static-analysis view; heat-maps reject it.
        assert!(run(&s(&[
            "analyze", "--trace", &tfile, "--grid", "24", "--block", "128", "--races"
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn client_ingest_streams_a_trace_to_a_live_server() {
        let dir = std::env::temp_dir().join(format!("gmap-cli-ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let tfile = dir.join("wl.txt").to_string_lossy().into_owned();
        // One block of 64 threads, three steps each: enough to exercise
        // warp reconstruction without slowing the suite down.
        let mut trace = String::new();
        for step in 0..3u64 {
            for tid in 0..64u64 {
                trace.push_str(&format!(
                    "{tid} 0x40 R {:#x}\n",
                    0x1000 + tid * 4 + step * 0x800
                ));
            }
        }
        std::fs::write(&tfile, trace).expect("write trace");

        let handle = gmap::serve::start(gmap::serve::ServeConfig::default()).expect("start");
        let addr = handle.addr().to_string();
        run(&s(&[
            "client", "ingest", "--addr", &addr, "--trace", &tfile, "--grid", "1", "--block", "64",
            "--chunk", "97",
        ]))
        .expect("chunked ingest");
        // Bad invocations fail before touching the network.
        assert!(cmd_client(&s(&["ingest", "--addr", &addr, "--trace", &tfile])).is_err());
        assert!(cmd_client(&s(&[
            "ingest", "--trace", &tfile, "--grid", "1", "--block", "64"
        ]))
        .is_err());
        assert!(cmd_client(&s(&[
            "ingest", "--addr", &addr, "--trace", &tfile, "--grid", "1", "--block", "64",
            "--chunk", "0",
        ]))
        .is_err());
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_verifies_specs_and_gates_defects() {
        // Clean sources succeed.
        run(&s(&["analyze", "--workload", "kmeans", "--scale", "tiny"])).expect("kmeans clean");
        run(&s(&["analyze", "--all", "--scale", "tiny"])).expect("all bundled workloads clean");
        run(&s(&["analyze", "--fixture", "clean-streaming"])).expect("clean fixture");

        // Error-severity fixtures exit nonzero with error findings;
        // `uncoalesced` is a warning and does not fail the command.
        for fixture in ["oob-affine", "barrier-divergent", "overlapping-write"] {
            let err = run(&s(&["analyze", "--fixture", fixture])).expect_err("defect detected");
            assert!(err.contains("error finding"), "{fixture}: {err}");
        }
        run(&s(&["analyze", "--fixture", "uncoalesced"])).expect("warnings do not gate");

        // Bad invocations.
        assert!(run(&s(&["analyze"])).is_err());
        assert!(run(&s(&["analyze", "--workload", "kmeans", "--all"])).is_err());
        assert!(run(&s(&["analyze", "--workload", "nope"])).is_err());
        assert!(run(&s(&["analyze", "--fixture", "nope"])).is_err());

        // --dump-spec writes a spec that --spec round-trips.
        let dir = std::env::temp_dir().join(format!("gmap-analyze-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let spec = dir.join("oob.json").to_string_lossy().into_owned();
        let err = run(&s(&[
            "analyze",
            "--fixture",
            "oob-affine",
            "--dump-spec",
            &spec,
        ]))
        .expect_err("still reports the defect");
        assert!(err.contains("error finding"));
        let err = run(&s(&["analyze", "--spec", &spec])).expect_err("spec file re-analyzed");
        assert!(err.contains("error finding"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_race_views_gate_like_the_default_view() {
        // Racy fixtures fail in every output mode — the view never
        // weakens the exit-status contract.
        let err = run(&s(&["analyze", "--fixture", "race-ww", "--races"])).expect_err("gated");
        assert!(err.contains("error finding"), "{err}");
        let err = run(&s(&["analyze", "--fixture", "race-rw", "--json"])).expect_err("gated");
        assert!(err.contains("error finding"), "{err}");

        // Certified positives pass in both modes, and the whole bundled
        // set stays clean under --races and --json as well.
        run(&s(&["analyze", "--fixture", "phased-stencil", "--races"])).expect("certified");
        run(&s(&["analyze", "--fixture", "phased-reduction", "--json"])).expect("certified");
        run(&s(&["analyze", "--all", "--scale", "tiny", "--races"])).expect("all, races view");
        run(&s(&["analyze", "--all", "--scale", "tiny", "--json"])).expect("all, JSON view");
    }

    #[test]
    fn client_analyze_round_trip_against_live_server() {
        let handle = gmap::serve::start(gmap::serve::ServeConfig::default()).expect("start");
        let addr = handle.addr().to_string();
        run(&s(&[
            "client",
            "analyze",
            "--addr",
            &addr,
            "--workload",
            "kmeans",
            "--scale",
            "tiny",
        ]))
        .expect("analyze workload");

        // An inadmissible spec: `client analyze` succeeds (the report is
        // the answer), but `client profile` surfaces the 422 gate.
        let dir = std::env::temp_dir().join(format!("gmap-client-analyze-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let spec = dir.join("oob.json").to_string_lossy().into_owned();
        let _ = run(&s(&[
            "analyze",
            "--fixture",
            "oob-affine",
            "--dump-spec",
            &spec,
        ]));
        run(&s(&["client", "analyze", "--addr", &addr, "--spec", &spec]))
            .expect("report delivered");
        let err = run(&s(&["client", "profile", "--addr", &addr, "--spec", &spec]))
            .expect_err("gate rejects");
        assert!(err.contains("422"), "{err}");
        assert!(cmd_client(&s(&["analyze", "--addr", &addr])).is_err()); // no source
        std::fs::remove_dir_all(&dir).ok();
        handle.shutdown();
    }

    #[test]
    fn missing_arguments_error_cleanly() {
        assert!(cmd_profile(&s(&["--workload", "kmeans"])).is_err()); // no -o
        assert!(cmd_profile(&s(&["-o", "x.json"])).is_err()); // no workload
        assert!(cmd_info(&[]).is_err());
        assert!(cmd_simulate(&s(&["--workload", "kmeans", "-p", "x.json"])).is_err()); // both sources
        assert!(cmd_simulate(&[]).is_err()); // no source
    }
}
