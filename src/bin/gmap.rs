//! `gmap` — command-line front end to the G-MAP pipeline.
//!
//! ```text
//! gmap profile  --workload kmeans [--scale small] [--rebase 0x7f000000] -o profile.json
//! gmap info     -p profile.json
//! gmap clone    -p profile.json [--seed 7] [--factor 4] -o trace.bin
//! gmap simulate (--workload NAME | -p profile.json)
//!               [--l1 16384:4:128] [--l2 1048576:8:128] [--policy lrr|gto]
//!               [--seed 7] [--dram]
//! gmap analyze  --trace trace.txt --grid 24 --block 128 [--json]
//! gmap list
//! gmap serve    [--listen 127.0.0.1:0] [--workers 4] [--queue 64]
//! gmap client   <health|metrics|profile|analyze|ingest|clone|evaluate>
//!               --addr HOST:PORT ...
//! ```
//!
//! The binary wraps the library pipeline so a memory-system architect can
//! work with shipped profiles without writing Rust. Each subcommand reads
//! its command line once, with the grammar of the figure binaries
//! ([`FlagTable`]): `--flag value` pairs and switches, each flag at most
//! once, and a value is never a flag.

use gmap::bench::{FlagTable, Flags};
use gmap::core::{
    generate::generate_streams, miniaturize, profile_kernel, simulate_streams, GmapProfile,
    ProfilerConfig, SimtConfig,
};
use gmap::dram::DramConfig;
use gmap::gpu::kernel::KernelDesc;
use gmap::gpu::schedule::Policy;
use gmap::gpu::workloads::{self, Scale};
use gmap::memsim::cache::{CacheConfig, ReplacementPolicy};
use gmap::memsim::hierarchy::TraceCapture;
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::process::ExitCode;

/// Why a subcommand failed. A message (`String`) converts to a usage
/// error; an [`io::Error`] (from writing stdout) to a runtime failure.
#[derive(Debug)]
enum Failure {
    /// A command line the subcommand cannot read: reported with the
    /// usage text.
    Usage(String),
    /// A failure while running it — a file, a request, a refusing
    /// service, the analysis gate, stdout: reported alone.
    Run(Box<dyn Error>),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Usage(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Usage(msg.to_owned())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Run(Box::new(e))
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Usage(msg) => f.write_str(msg),
            Failure::Run(e) => e.fmt(f),
        }
    }
}

/// A runtime failure with `msg`.
fn failed(msg: String) -> Failure {
    Failure::Run(msg.into())
}

/// What a subcommand returns.
type Outcome = Result<(), Failure>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    match run(&args, &mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader closed its end (`gmap … | head`): stop, quietly.
        Err(Failure::Run(e))
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::FAILURE
        }
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprint!("{}", usage());
            ExitCode::FAILURE
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String], out: &mut dyn Write) -> Outcome {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("profile") => cmd_profile(rest, out),
        Some("analyze") => cmd_analyze(rest, out),
        Some("info") => cmd_info(rest, out),
        Some("clone") => cmd_clone(rest, out),
        Some("simulate") => cmd_simulate(rest, out),
        Some("serve") => cmd_serve(rest, out),
        Some("client") => cmd_client(rest, out),
        Some("list") => {
            read(rest, "", "")?;
            for n in workloads::NAMES {
                writeln!(out, "{n}")?;
            }
            Ok(())
        }
        Some("help") | None => Ok(write!(out, "{}", usage())?),
        Some(other) => Err(format!("unknown subcommand {other:?}").into()),
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
  gmap serve [OPTS]                             run the model-cloning HTTP service
                                                (or a router with --route)
  gmap client ACTION --addr HOST:PORT [OPTS]    talk to a running service
                                                (or to a --route router)

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
                                overlapping-write) or a clean one
                                (clean-streaming)
  --all                         analyze every bundled workload; exit nonzero
                                if any has error findings
  --scale tiny|small|default    workload size (default: small)
  --dump-spec FILE              also write the resolved spec as JSON
  --trace FILE                  stream an external trace (text or binary) and
                                print its per-array/per-PC heat-map report
                                instead of static analysis; needs --grid
                                BLOCKS and --block THREADS
  --json                        emit the full report as JSON (the static
                                report for spec sources, an array under
                                --all, or the heat-map for --trace)
  Exits nonzero when the analyzer reports error-severity findings,
  in every output mode (--json included).

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

CLIENT ACTIONS (all need --addr HOST:PORT — a replica, or a --route router
that shards requests across a fleet with failover; add --retries N to
retry transient failures with exponential backoff — idempotent requests
only, ingest excepted):
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
"
    .to_owned()
}

/// Reads a subcommand's command line against its flags; `-o` and `-p`
/// spell `--output` and `--profile`.
fn read<'a>(
    args: &'a [String],
    values: &'static str,
    switches: &'static str,
) -> Result<Flags<'a>, String> {
    let aliases = &[("-o", "--output"), ("-p", "--profile")];
    FlagTable {
        values,
        switches,
        aliases,
    }
    .parse_with(args, |_, _| Ok(false))
}

/// The one flag of `sources` the command line gives, with its value (the
/// empty string for a switch).
fn source<'a>(f: &Flags<'a>, sources: &[&'static str]) -> Result<(&'static str, &'a str), String> {
    match sources.iter().filter(|s| f.has(s)).collect::<Vec<_>>()[..] {
        [&one] => Ok((one, f.get(one).unwrap_or_default())),
        _ => Err(format!("pass exactly one of {}", sources.join(", "))),
    }
}

/// `--scale`, the CLI's documented default when the flag is absent.
fn scale(f: &Flags) -> Result<Scale, String> {
    Ok(f.value("--scale")?.unwrap_or(Scale::Small))
}

/// The bundled workload `name` at the command line's `--scale`.
fn workload(f: &Flags, name: &str) -> Result<KernelDesc, String> {
    workloads::by_name(name, scale(f)?)
        .ok_or_else(|| format!("unknown workload {name:?} (see `gmap list`)"))
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

/// Parses `--policy lrr|gto|self:P`.
fn parse_policy(spec: &str) -> Result<Policy, String> {
    match (spec, spec.strip_prefix("self:")) {
        ("lrr", _) => Ok(Policy::Lrr),
        ("gto", _) => Ok(Policy::Gto),
        (_, Some(p)) => p.parse().map(Policy::SelfProb).map_err(|e| e.to_string()),
        _ => Err("expected lrr, gto or self:P".into()),
    }
}

fn load_profile(path: &str) -> Result<GmapProfile, Failure> {
    let file = File::open(path).map_err(|e| failed(format!("cannot open {path}: {e}")))?;
    let profile = GmapProfile::load(BufReader::new(file))
        .map_err(|e| failed(format!("cannot parse {path}: {e}")))?;
    profile
        .validate()
        .map_err(|e| failed(format!("{path} is inconsistent: {e}")))?;
    Ok(profile)
}

fn cmd_profile(args: &[String], out: &mut dyn Write) -> Outcome {
    let f = read(
        args,
        "--output --workload --trace --grid --block --scale --rebase",
        "",
    )?;
    let path = f.get("--output").ok_or("missing -o FILE")?;
    let mut profile = match source(&f, &["--workload", "--trace"])? {
        ("--workload", name) => profile_kernel(&workload(&f, name)?, &ProfilerConfig::default()),
        (_, trace) => ingest_trace(&f, trace)?.profile,
    };
    let name = profile.name.clone();
    let rebase = |hex: &str| i64::from_str_radix(hex.strip_prefix("0x").unwrap_or(hex), 16);
    if let Some(delta) = f.value_with("--rebase", rebase)? {
        profile.rebase(delta);
    }
    let file = File::create(path).map_err(|e| failed(format!("cannot create {path}: {e}")))?;
    let mut w = BufWriter::new(file);
    profile.save(&mut w).map_err(|e| failed(e.to_string()))?;
    w.flush()
        .map_err(|e| failed(format!("cannot write {path}: {e}")))?;
    writeln!(
        out,
        "profiled {name}: {} PCs, {} pi profiles, {} warp accesses -> {path}",
        profile.num_slots(),
        profile.profiles.len(),
        profile.total_warp_accesses
    )?;
    // The content key matches the model id `POST /v1/ingest` returns for
    // the same trace, so local and served profiling can be diffed.
    let key = gmap::core::cachekey::key_of(&gmap::core::AppProfile::single(profile));
    writeln!(out, "content key: {key}")?;
    // For bundled workloads, also print the spec-addressed model id the
    // service computes for the same profile request, so routed responses
    // can be checked against a locally computed key.
    if let Some(w) = f.get("--workload") {
        let id = gmap::serve::handlers::model_id_for(w, scale(&f)?.name());
        writeln!(out, "model id: {id}")?;
    }
    Ok(())
}

/// Launch geometry + workload name (the file stem) for an external trace.
fn trace_geometry(
    f: &Flags,
    path: &str,
) -> Result<(gmap::gpu::hierarchy::LaunchConfig, String), String> {
    let grid: u32 = f
        .value("--grid")?
        .ok_or("external traces need --grid BLOCKS")?;
    let block: u32 = f
        .value("--block")?
        .ok_or("external traces need --block THREADS")?;
    let name = std::path::Path::new(path)
        .file_stem()
        .map_or("trace", |s| s.to_str().unwrap_or("trace"))
        .to_owned();
    Ok((gmap::gpu::hierarchy::LaunchConfig::new(grid, block), name))
}

/// Streams the external per-thread trace at `path` through gmap-ingest,
/// so arbitrarily large traces profile in bounded memory (the format is
/// auto-detected).
fn ingest_trace(f: &Flags, path: &str) -> Result<gmap::ingest::IngestOutcome, Failure> {
    let (launch, name) = trace_geometry(f, path)?;
    let file = File::open(path).map_err(|e| failed(format!("cannot open {path}: {e}")))?;
    gmap::ingest::ingest_reader(
        &name,
        BufReader::new(file),
        &launch,
        gmap::ingest::IngestConfig::default(),
    )
    .map_err(|e| failed(format!("cannot ingest {path}: {e}")))
}

fn load_spec(path: &str) -> Result<KernelDesc, Failure> {
    let raw =
        std::fs::read_to_string(path).map_err(|e| failed(format!("cannot read {path}: {e}")))?;
    serde_json::from_str(&raw)
        .map_err(|e| failed(format!("cannot parse {path} as a kernel spec: {e}")))
}

fn cmd_analyze(args: &[String], out: &mut dyn Write) -> Outcome {
    let f = read(
        args,
        "--workload --spec --fixture --scale --dump-spec --trace --grid --block",
        "--all --json",
    )?;
    let sources = ["--workload", "--spec", "--fixture", "--all", "--trace"];
    let kernels = match source(&f, &sources)? {
        ("--workload", name) => vec![workload(&f, name)?],
        ("--spec", path) => vec![load_spec(path)?],
        ("--fixture", name) => vec![gmap::analyze::fixtures::by_name(name).ok_or_else(|| {
            format!(
                "unknown fixture {name:?} (known: {}, clean-streaming)",
                gmap::analyze::fixtures::NAMES.join(", ")
            )
        })?],
        ("--all", _) => workloads::all(scale(&f)?),
        (_, path) => return analyze_trace(&f, path, out),
    };
    if let Some(path) = f.get("--dump-spec") {
        let [kernel] = &kernels[..] else {
            return Err(
                "--dump-spec needs exactly one kernel, and --all names every workload".into(),
            );
        };
        let spec = gmap::core::cachekey::canonical_json(kernel);
        std::fs::write(path, spec).map_err(|e| failed(format!("cannot write {path}: {e}")))?;
    }
    let reports: Vec<gmap::analyze::StaticReport> =
        kernels.iter().map(gmap::analyze::analyze_kernel).collect();
    let total_errors: usize = reports.iter().map(|r| r.errors().count()).sum();
    if f.has("--json") {
        // One source -> one report object; --all -> an array. Error
        // findings still fail the process so the JSON mode can gate CI.
        let body = if reports.len() == 1 {
            serde_json::to_string_pretty(&reports[0])
        } else {
            serde_json::to_string_pretty(&reports)
        }
        .map_err(|e| failed(format!("cannot serialize report: {e}")))?;
        writeln!(out, "{body}")?;
    } else {
        for report in &reports {
            write!(out, "{}", report.render())?;
        }
    }
    if total_errors > 0 {
        Err(failed(format!(
            "static analysis found {total_errors} error finding(s)"
        )))
    } else {
        Ok(())
    }
}

/// `gmap analyze --trace FILE --grid B --block T [--json]`: stream an
/// external trace and print its per-array/per-PC heat-map report.
fn analyze_trace(f: &Flags, path: &str, out: &mut dyn Write) -> Outcome {
    if f.has("--dump-spec") {
        return Err("--dump-spec only applies to kernel specs, not --trace heat-maps".into());
    }
    let report = ingest_trace(f, path)?.report;
    if f.has("--json") {
        writeln!(out, "{}", report.to_json())?;
    } else {
        write!(out, "{}", report.render_text())?;
    }
    Ok(())
}

fn cmd_info(args: &[String], out: &mut dyn Write) -> Outcome {
    let f = read(args, "--profile", "")?;
    let p = load_profile(f.get("--profile").ok_or("missing -p FILE")?)?;
    writeln!(out, "name            : {}", p.name)?;
    writeln!(
        out,
        "launch          : {} blocks x {} threads ({} warps)",
        p.launch.num_blocks(),
        p.launch.threads_per_block(),
        p.launch.total_warps(p.warp_size)
    )?;
    writeln!(out, "warp accesses   : {}", p.total_warp_accesses)?;
    writeln!(out, "pi profiles     : {}", p.profiles.len())?;
    writeln!(out, "static PCs      : {}", p.num_slots())?;
    let freqs = p.slot_frequencies();
    let mut order: Vec<usize> = (0..p.num_slots()).collect();
    order.sort_by(|&a, &b| freqs[b].partial_cmp(&freqs[a]).expect("finite"));
    writeln!(
        out,
        "{:<10} {:>8} {:>6} {:>14} {:>14}",
        "PC", "freq%", "kind", "inter-warp", "intra-warp"
    )?;
    for &s in order.iter().take(10) {
        writeln!(
            out,
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
        )?;
    }
    for (i, prof) in p.profiles.iter().enumerate() {
        writeln!(
            out,
            "pi[{i}]: weight {:.1}%  {} accesses  reuse {}",
            p.profile_weights.freq_of(i) * 100.0,
            prof.num_accesses(),
            p.reuse[i].class()
        )?;
    }
    Ok(())
}

fn cmd_clone(args: &[String], out: &mut dyn Write) -> Outcome {
    let f = read(args, "--profile --output --seed --factor --format", "")?;
    let path = f.get("--profile").ok_or("missing -p FILE")?;
    let trace = f.get("--output").ok_or("missing -o FILE")?;
    let seed = f.value("--seed")?.unwrap_or(42);
    let binary = f
        .value_with("--format", |format| match format {
            "text" => Ok(false),
            "binary" => Ok(true),
            _ => Err("expected text or binary"),
        })?
        .unwrap_or(false);
    let mut profile = load_profile(path)?;
    if let Some(factor) = f.value("--factor")? {
        profile = miniaturize(&profile, factor).map_err(|e| e.to_string())?;
    }
    let streams = generate_streams(&profile, seed);
    let entries = gmap::ingest::lane0_entries(&streams, &profile.launch);
    let file = File::create(trace).map_err(|e| failed(format!("cannot create {trace}: {e}")))?;
    let mut w = BufWriter::new(file);
    if binary {
        gmap::trace::io::write_binary(&mut w, &entries)
    } else {
        gmap::trace::io::write_text(&mut w, &entries)
    }
    .and_then(|()| w.flush())
    .map_err(|e| failed(e.to_string()))?;
    writeln!(
        out,
        "clone of '{}': {} transactions -> {trace}",
        profile.name,
        entries.len()
    )?;
    Ok(())
}

fn cmd_simulate(args: &[String], out: &mut dyn Write) -> Outcome {
    let f = read(
        args,
        "--workload --profile --l1 --l2 --policy --seed --scale",
        "--dram",
    )?;
    let mut cfg = SimtConfig {
        seed: f.value("--seed")?.unwrap_or(42),
        policy: f
            .value_with("--policy", parse_policy)?
            .unwrap_or(Policy::Lrr),
        ..SimtConfig::default()
    };
    if let Some(l1) = f.value_with("--l1", parse_cache)? {
        cfg.hierarchy.l1 = l1;
    }
    if let Some(l2) = f.value_with("--l2", parse_cache)? {
        cfg.hierarchy.l2 = l2;
    }
    let with_dram = f.has("--dram");
    cfg.hierarchy.trace_capture = if with_dram {
        TraceCapture::Full
    } else {
        TraceCapture::Off
    };

    let (streams, launch, label) = match source(&f, &["--workload", "--profile"])? {
        ("--workload", name) => {
            let kernel = workload(&f, name)?;
            let streams = gmap::core::model::original_streams(&kernel);
            (streams, kernel.launch, format!("original {name}"))
        }
        (_, path) => {
            let profile = load_profile(path)?;
            let streams = generate_streams(&profile, cfg.seed);
            (
                streams,
                profile.launch,
                format!("clone of {}", profile.name),
            )
        }
    };

    let sim = simulate_streams(&streams, &launch, &cfg).map_err(|e| e.to_string())?;
    writeln!(out, "simulated {label}")?;
    writeln!(out, "cycles          : {}", sim.schedule.cycles)?;
    writeln!(out, "warp accesses   : {}", sim.schedule.issued_accesses)?;
    writeln!(
        out,
        "transactions    : {}",
        sim.schedule.issued_transactions
    )?;
    writeln!(out, "SchedP_self     : {:.3}", sim.schedule.sched_p_self)?;
    writeln!(out, "L1 miss rate    : {:.2}%", sim.l1_miss_pct())?;
    writeln!(out, "L2 miss rate    : {:.2}%", sim.l2_miss_pct())?;
    writeln!(out, "memory reads    : {}", sim.stats.mem_reads)?;
    writeln!(out, "memory writes   : {}", sim.stats.mem_writes)?;
    if with_dram {
        let m = sim.dram_metrics(DramConfig::table2_baseline());
        writeln!(out, "DRAM RBL        : {:.3}", m.rbl)?;
        writeln!(out, "DRAM queue len  : {:.2}", m.avg_queue_len)?;
        writeln!(out, "DRAM read lat   : {:.1} cycles", m.avg_read_latency)?;
        writeln!(out, "DRAM write lat  : {:.1} cycles", m.avg_write_latency)?;
    }
    Ok(())
}

fn cmd_serve(args: &[String], out: &mut dyn Write) -> Outcome {
    let f = read(
        args,
        "--listen --workers --queue --deadline-ms --cache-dir --cache-capacity --keepalive-max \
         --read-timeout-ms --idle-timeout-ms --faults --route --fleet --advertise \
         --replication-factor --probe-interval-ms",
        "",
    )?;
    let peers = |flag| {
        f.get(flag)
            .map(|list| parse_peer_list(list, flag))
            .transpose()
    };
    let d = gmap::serve::ServeConfig::default();
    let config = gmap::serve::ServeConfig {
        listen: f.get("--listen").map_or(d.listen, str::to_owned),
        workers: f.value("--workers")?.unwrap_or(d.workers),
        queue_capacity: f.value("--queue")?.unwrap_or(d.queue_capacity),
        deadline: f.millis("--deadline-ms")?.unwrap_or(d.deadline),
        cache_dir: f.get("--cache-dir").map(Into::into),
        cache_capacity: f.value("--cache-capacity")?.unwrap_or(d.cache_capacity),
        keepalive_max: f.value("--keepalive-max")?.unwrap_or(d.keepalive_max),
        read_timeout: f.millis("--read-timeout-ms")?.unwrap_or(d.read_timeout),
        idle_timeout: f.millis("--idle-timeout-ms")?.unwrap_or(d.idle_timeout),
        faults: f.value_with("--faults", gmap::serve::faults::FaultSpec::parse)?,
        route: peers("--route")?,
        fleet: peers("--fleet")?,
        advertise: f.get("--advertise").map(str::to_owned),
        replication_factor: f
            .value("--replication-factor")?
            .unwrap_or(d.replication_factor),
        probe_interval: f.millis("--probe-interval-ms")?.unwrap_or(d.probe_interval),
    };
    // A router forwarding to itself would loop until the deadline burns
    // out; reject the misconfiguration up front.
    if let (Some(route), Some(listen)) = (&config.route, f.get("--listen")) {
        if route.iter().any(|p| p == listen) {
            return Err(format!(
                "--route must not include the router's own --listen address {listen}"
            )
            .into());
        }
    }
    if let (Some(fleet), Some(addr)) = (&config.fleet, &config.advertise) {
        if !fleet.contains(addr) {
            return Err(format!(
                "--advertise {addr} is not a member of --fleet (replication targets \
                 are chosen by ring position, so the fleet must know this address)"
            )
            .into());
        }
    }
    if let Some(spec) = f.get("--faults") {
        eprintln!("gmap-serve: fault injection enabled ({spec})");
    }
    let handle =
        gmap::serve::start(config).map_err(|e| failed(format!("cannot start server: {e}")))?;
    writeln!(out, "gmap-serve listening on {}", handle.addr())?;
    out.flush()?;
    // Run until the supervisor closes stdin, then drain. EOF as the stop
    // signal keeps graceful shutdown scriptable without signal handling.
    let stdin = io::stdin();
    let mut sink = String::new();
    loop {
        sink.clear();
        match io::BufRead::read_line(&mut stdin.lock(), &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    handle.shutdown();
    writeln!(out, "gmap-serve: drained and stopped")?;
    Ok(())
}

fn client_addr<'a>(f: &Flags<'a>) -> Result<&'a str, String> {
    f.get("--addr")
        .ok_or_else(|| "missing --addr HOST:PORT".into())
}

/// Parses a comma-separated replica list (`--route` / `--fleet`). A
/// duplicate entry is a usage error: it would double the
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
fn client_source(f: &Flags) -> Result<gmap::serve::api::ProfileRequest, Failure> {
    let spec = f.get("--spec").map(load_spec).transpose()?;
    let workload = f.get("--workload").map(str::to_owned);
    if spec.is_none() && workload.is_none() {
        return Err("missing --workload NAME or --spec FILE".into());
    }
    let scale = match workload {
        Some(_) => Some(scale(f)?.name().to_owned()),
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
fn client_ingest(f: &Flags, out: &mut dyn Write) -> Outcome {
    let path = f.get("--trace").ok_or("missing --trace FILE")?;
    let (launch, stem) = trace_geometry(f, path)?;
    let name = ingest_name(f.get("--name").unwrap_or(&stem))?;
    let chunk = f
        .value("--chunk")?
        .unwrap_or(gmap::ingest::DEFAULT_CHUNK_BYTES);
    if chunk == 0 {
        return Err("--chunk must be nonzero".into());
    }
    let file = File::open(path).map_err(|e| failed(format!("cannot open {path}: {e}")))?;
    let url = format!(
        "/v1/ingest?grid={}&block={}&name={name}",
        launch.num_blocks(),
        launch.threads_per_block()
    );
    let mut reader = BufReader::new(file);
    let response = gmap::serve::client::post_chunked(client_addr(f)?, &url, &mut reader, chunk);
    reply(response, out)
}

/// Prints a service response's body; a non-2xx status fails the command.
fn reply(response: io::Result<gmap::serve::client::Response>, out: &mut dyn Write) -> Outcome {
    let response = response.map_err(|e| failed(format!("request failed: {e}")))?;
    writeln!(out, "{}", response.body.trim_end())?;
    if response.is_ok() {
        Ok(())
    } else {
        Err(failed(format!("server answered {}", response.status)))
    }
}

fn cmd_client(args: &[String], out: &mut dyn Write) -> Outcome {
    use gmap::core::cachekey::canonical_json;
    use gmap::serve::{api, client};

    let action = args.first().map(String::as_str).ok_or(
        "client needs an action: health, metrics, profile, analyze, ingest, clone, or evaluate",
    )?;
    let values = match action {
        "health" | "metrics" => "--addr --retries",
        "profile" | "analyze" => "--addr --retries --workload --scale --spec",
        "clone" => "--addr --retries --model --factor --seed",
        "evaluate" => {
            "--addr --retries --model --grid --level --kernel --metric --seed \
             --stride-prefetch --stream-prefetch"
        }
        "ingest" => "--addr --trace --grid --block --name --chunk",
        other => return Err(format!("unknown client action {other:?}").into()),
    };
    let f = read(&args[1..], values, "")?;
    let model = || {
        f.get("--model")
            .map(str::to_owned)
            .ok_or("missing --model ID")
    };
    let (path, body) = match action {
        "ingest" => return client_ingest(&f, out),
        "health" => ("/healthz", None),
        "metrics" => ("/metrics", None),
        "profile" => ("/v1/profile", Some(canonical_json(&client_source(&f)?))),
        "analyze" => {
            let named = client_source(&f)?;
            let body = canonical_json(&api::AnalyzeRequest {
                workload: named.workload,
                scale: named.scale,
                spec: named.spec,
            });
            ("/v1/analyze", Some(body))
        }
        "clone" => {
            let body = canonical_json(&api::CloneRequest {
                factor: f.value("--factor")?,
                model_id: model()?,
                seed: f.value("--seed")?,
            });
            ("/v1/clone", Some(body))
        }
        _ => {
            let kernel = f.value("--kernel")?;
            let stride = f.value_with("--stride-prefetch", parse_stride_prefetch)?;
            let stream = f.value_with("--stream-prefetch", parse_stream_prefetch)?;
            let level = f.get("--level");
            let grid = f
                .value_with("--grid", |g| {
                    parse_grid(g, level, stride.as_ref(), stream.as_ref())
                })?
                .ok_or("missing --grid SPEC")?;
            let body = canonical_json(&api::EvaluateRequest {
                model_id: model()?,
                kernel,
                metric: f.get("--metric").map(str::to_owned),
                seed: f.value("--seed")?,
                grid,
            });
            ("/v1/evaluate", Some(body))
        }
    };
    let policy = client::RetryPolicy {
        max_retries: f.value("--retries")?.unwrap_or(0),
        ..client::RetryPolicy::default()
    };
    let method = if body.is_some() { "POST" } else { "GET" };
    let response =
        client::request_with_retry(client_addr(&f)?, method, path, body.as_deref(), &policy);
    reply(response, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// `gmap ARGS` with stdout discarded.
    fn run(args: &[String]) -> Result<(), String> {
        super::run(args, &mut io::sink()).map_err(|e| e.to_string())
    }

    fn parse_scale(args: &[String]) -> Result<Scale, String> {
        scale(&read(args, "--addr --workload --scale", "")?)
    }

    #[test]
    fn flag_parsing() {
        let args = s(&["--seed", "7", "-o", "out.json"]);
        let f = read(&args, "--seed --output", "--dram").expect("valid");
        assert_eq!(f.get("--seed"), Some("7"));
        assert_eq!(f.get("--output"), Some("out.json"));
        assert_eq!(f.get("--missing"), None);
        assert!(!f.has("--dram"));
        // A flag is never a value, and each flag comes at most once.
        for bad in [
            &["--seed", "--dram"][..],
            &["-o", "-p"],
            &["--seed", "7", "--seed", "8"],
        ] {
            assert!(read(&s(bad), "--seed --output --profile", "--dram").is_err());
        }
        assert!(read(&s(&["-o", "a", "--output", "b"]), "--output", "").is_err());
    }

    #[test]
    fn scale_parsing_rejects_what_it_does_not_know() {
        assert_eq!(parse_scale(&s(&[])), Ok(Scale::Small));
        assert_eq!(parse_scale(&s(&["--scale", "tiny"])), Ok(Scale::Tiny));
        assert_eq!(parse_scale(&s(&["--scale", "small"])), Ok(Scale::Small));
        assert_eq!(parse_scale(&s(&["--scale", "default"])), Ok(Scale::Default));
        let typo = parse_scale(&s(&["--scale", "tny"])).expect_err("a typo is not `small`");
        assert!(typo.contains("`tny`") && typo.contains("tiny, small or default"));
        let run = run(&s(&["simulate", "--workload", "kmeans", "--scale", "tny"]));
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
            let f = read(&args, "--addr --workload --scale", "").expect("flags");
            let sent = client_source(&f).expect("request");
            assert_eq!(request_model_id(&sent), Ok(printed), "{scale:?}");
        }
        let source = |args: &[&str]| {
            client_source(&read(&s(args), "--workload --scale", "").expect("flags"))
        };
        let sent = source(&["--workload", "kmeans"]).expect("request");
        assert_eq!(sent.scale.as_deref(), Some("small"), "the default, said");
        assert!(source(&["--workload", "kmeans", "--scale", "tny"]).is_err());
    }

    #[test]
    fn ingest_refuses_a_name_it_cannot_put_in_a_request_line() {
        let ingest = |trace: &str, name: Option<&str>| {
            let mut args = s(&[
                "client", "ingest", "--addr", "x", "--trace", trace, "--grid", "1", "--block", "64",
            ]);
            args.extend(name.iter().flat_map(|n| s(&["--name", n])));
            run(&args).expect_err("no such file, at the latest")
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
        assert_eq!(parse_policy("lrr").expect("valid"), Policy::Lrr);
        assert_eq!(parse_policy("gto").expect("valid"), Policy::Gto);
        assert!(matches!(
            parse_policy("self:0.7").expect("valid"),
            Policy::SelfProb(p) if (p - 0.7).abs() < 1e-9
        ));
        assert!(parse_policy("bogus").is_err());
        assert!(parse_policy("self:x").is_err());
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
        assert!(run(&s(&["serve", "--port", "80"])).is_err());
        assert!(run(&s(&[
            "client",
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
        assert!(run(&s(&["clone", "-p", "x.json", "-o", "y", "--seed"])).is_err());
    }

    #[test]
    fn peer_list_parsing() {
        assert_eq!(
            parse_peer_list("a:1, b:2 ,c:3", "--fleet").expect("valid"),
            vec!["a:1".to_string(), "b:2".to_string(), "c:3".to_string()]
        );
        assert!(parse_peer_list("", "--route").is_err());
        assert!(parse_peer_list(",,", "--fleet").is_err());
        // An empty --route list must fail before any socket is bound.
        assert!(run(&s(&["serve", "--route", ","])).is_err());
        // Duplicates would double a replica's vnode share: usage error.
        let err = parse_peer_list("a:1,b:2,a:1", "--fleet").expect_err("duplicate rejected");
        assert!(err.contains("more than once"), "unexpected error: {err}");
        assert!(parse_peer_list("a:1, a:1", "--route").is_err());
    }

    #[test]
    fn serve_rejects_misconfigured_fleets_and_routes() {
        // A router that routes to itself would forward in a loop.
        assert!(run(&s(&[
            "serve",
            "--listen",
            "127.0.0.1:9101",
            "--route",
            "127.0.0.1:9100,127.0.0.1:9101",
        ]))
        .is_err());
        // Duplicate fleet members are rejected before binding.
        assert!(run(&s(&["serve", "--fleet", "a:1,a:1"])).is_err());
        // An advertised address outside the fleet can never own a key.
        assert!(run(&s(&[
            "serve",
            "--fleet",
            "127.0.0.1:9100,127.0.0.1:9101",
            "--advertise",
            "127.0.0.1:9102",
        ]))
        .is_err());
        assert!(run(&s(&["serve", "--replication-factor", "two"])).is_err());
        assert!(run(&s(&["serve", "--probe-interval-ms", "fast"])).is_err());
    }

    #[test]
    fn client_drain_is_an_unknown_action() {
        let err = run(&s(&["client", "drain", "--addr", "a:1"])).expect_err("no drain action");
        assert_eq!(err, "unknown client action \"drain\"");
    }

    #[test]
    fn client_addr_reaches_a_fleet_through_a_router() {
        let replicas: Vec<_> = (0..2)
            .map(|_| gmap::serve::start(gmap::serve::ServeConfig::default()).expect("bind replica"))
            .collect();
        let router = gmap::serve::start(gmap::serve::ServeConfig {
            route: Some(replicas.iter().map(|h| h.addr().to_string()).collect()),
            ..gmap::serve::ServeConfig::default()
        })
        .expect("bind router");
        let addr = router.addr().to_string();
        assert!(run(&s(&["client", "health", "--addr", addr.as_str()])).is_ok());
        assert!(run(&s(&[
            "client",
            "profile",
            "--addr",
            addr.as_str(),
            "--workload",
            "kmeans",
            "--scale",
            "tiny",
        ]))
        .is_ok());
        // No --addr: a clear error, not a panic.
        assert!(run(&s(&["client", "health"])).is_err());
        router.shutdown();
        for handle in replicas {
            handle.shutdown();
        }
    }

    #[test]
    fn usage_lists_every_subcommand() {
        let text = usage();
        for sub in [
            "profile", "analyze", "info", "clone", "simulate", "list", "serve", "client",
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
        assert!(run(&s(&["client", "health"])).is_err()); // missing --addr
        assert!(run(&s(&["client", "reboot", "--addr", &addr])).is_err());
        assert!(run(&s(&["client"])).is_err());
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
        // --dump-spec writes a kernel spec; heat-maps reject it.
        let err = run(&s(&[
            "analyze",
            "--trace",
            &tfile,
            "--grid",
            "24",
            "--block",
            "128",
            "--dump-spec",
            "s.json",
        ]))
        .expect_err("spec-only flag");
        assert!(err.contains("--dump-spec"), "{err}");
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
        assert!(run(&s(&[
            "client", "ingest", "--addr", &addr, "--trace", &tfile
        ]))
        .is_err());
        assert!(run(&s(&[
            "client", "ingest", "--trace", &tfile, "--grid", "1", "--block", "64"
        ]))
        .is_err());
        assert!(run(&s(&[
            "client", "ingest", "--addr", &addr, "--trace", &tfile, "--grid", "1", "--block", "64",
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
    fn analyze_json_view_gates_like_the_default_view() {
        // Defects fail under --json too: the view never weakens the
        // exit-status contract.
        let err =
            run(&s(&["analyze", "--fixture", "barrier-divergent", "--json"])).expect_err("gated");
        assert!(err.contains("error finding"), "{err}");
        run(&s(&["analyze", "--fixture", "clean-streaming", "--json"])).expect("clean");
        run(&s(&["analyze", "--all", "--scale", "tiny", "--json"])).expect("all, JSON view");
        // The retired race table is an unknown flag.
        let err = run(&s(&["analyze", "--all", "--races"])).expect_err("unknown flag");
        assert!(err.contains("--races"), "{err}");
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
        assert!(run(&s(&["client", "analyze", "--addr", &addr])).is_err()); // no source
        std::fs::remove_dir_all(&dir).ok();
        handle.shutdown();
    }

    #[test]
    fn missing_arguments_error_cleanly() {
        assert!(run(&s(&["profile", "--workload", "kmeans"])).is_err()); // no -o
        assert!(run(&s(&["profile", "-o", "x.json"])).is_err()); // no workload
        assert!(run(&s(&["info"])).is_err());
        assert!(run(&s(&["simulate", "--workload", "kmeans", "-p", "x.json"])).is_err()); // both sources
        assert!(run(&s(&["simulate"])).is_err()); // no source
    }
}
