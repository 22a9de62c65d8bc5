//! Experiment harness for the G-MAP reproduction.
//!
//! One binary per table/figure of the paper (see `src/bin/`); this library
//! holds what they share: the configuration sweeps of §5, benchmark
//! preparation (execute → profile → clone, each done once per benchmark),
//! the one grid evaluator ([`evaluate_grid`]), multi-threaded sweep
//! execution, and result formatting.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table 1 — per-application access signatures |
//! | `fig5`   | Figure 5 — reuse distance worked example |
//! | `fig6`   | Figure 6a–6e — `--grid a` L1 sweep (30 configs/benchmark), `b` L2 sweep (30), `c` L1 + stride prefetcher (72), `d` L2 + stream prefetcher (96), `e` LRR vs GTO scheduling and LRU/FIFO replacement; `all` (default) runs the five back to back over one preparation and one capture pair per benchmark |
//! | `fig7`   | Figure 7 — DRAM metrics across 11 GDDR5 configs |
//! | `fig8`   | Figure 8 — miniaturization accuracy/speedup sweep |
//! | `ablation` | DESIGN.md §4 — design-choice ablations |

#![warn(missing_docs)]

use engine::SweepPlan;
use gmap_core::{
    compare_series, generate::generate_streams, profile_kernel_with_streams, simulate_streams,
    summarize, GmapProfile, ProfilerConfig, SimtConfig, SweepSummary,
};
use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::kernel::KernelDesc;
use gmap_gpu::schedule::WarpStream;
use gmap_gpu::workloads::{self, Scale};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod engine;
pub mod sweeps;

/// Options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct ExperimentOpts {
    /// Workload scale.
    pub scale: Scale,
    /// Clone-generation / scheduling seed.
    pub seed: u64,
    /// Worker threads. Preparation runs one benchmark per thread at a
    /// time, a sweep one stream (a benchmark's original or its clone);
    /// results do not depend on the count.
    pub threads: usize,
    /// Optional CSV output path for the raw per-config series.
    pub csv: Option<String>,
}

impl ExperimentOpts {
    /// Usage text printed for `--help`/`-h` and after a usage error.
    pub const HELP: &'static str = "\
G-MAP experiment options:
  --scale tiny|small|default   workload scale (default: default)
  --seed N                     clone-generation / scheduling seed (default: 42)
  --threads N                  worker threads (default: available parallelism)
  --csv PATH                   write the raw per-config series as CSV
  -h, --help                   print this help and exit
";

    /// Parses the experiment flags from the command line. `--help`/`-h`
    /// prints [`Self::HELP`] and exits 0; an unknown flag, a missing
    /// value or a value that does not parse prints the mistake and the
    /// help to stderr and exits 2.
    pub fn from_args() -> Self {
        Self::from_args_with("", |_, _| Ok(false))
    }

    /// [`Self::from_args`] for a binary with a flag of its own:
    /// `extra_help` is appended to [`Self::HELP`], and `extra` sees every
    /// `--flag value` pair that is not an experiment option (see
    /// [`Self::parse`]).
    pub fn from_args_with(
        extra_help: &str,
        extra: impl FnMut(&str, &str) -> Result<bool, String>,
    ) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}{extra_help}", Self::HELP);
            std::process::exit(0);
        }
        Self::parse(&args, extra).unwrap_or_else(|e| {
            eprint!("error: {e}\n\n{}{extra_help}", Self::HELP);
            std::process::exit(2);
        })
    }

    /// Parses an argument list (without the program name) with
    /// [`FlagTable::parse_with`]: `--flag value` pairs, each flag at most
    /// once. A flag that is not an experiment option goes to
    /// `extra(flag, value)`, which answers `Ok(true)` if it is the
    /// binary's own and the value is good.
    ///
    /// # Errors
    ///
    /// Names the offending token: an unknown or repeated flag, a flag
    /// without a value, or a value its flag cannot take.
    pub fn parse(
        args: &[String],
        extra: impl FnMut(&str, &str) -> Result<bool, String>,
    ) -> Result<Self, String> {
        const TABLE: FlagTable = FlagTable {
            values: "--scale --seed --threads --csv",
            switches: "",
            aliases: &[],
        };
        let flags = TABLE.parse_with(args, extra)?;
        Ok(ExperimentOpts {
            scale: flags.value("--scale")?.unwrap_or(Scale::Default),
            seed: flags.value("--seed")?.unwrap_or(42),
            threads: match flags.value("--threads")? {
                Some(n) => n,
                None => std::thread::available_parallelism().map_or(4, |n| n.get()),
            },
            csv: flags.get("--csv").map(str::to_owned),
        })
    }
}

/// The flags one command line may carry: what [`ExperimentOpts`] and each
/// `gmap` subcommand read their arguments with.
#[derive(Debug, Clone, Copy)]
pub struct FlagTable {
    /// Flags followed by a value, space-separated (`"--seed --csv"`).
    pub values: &'static str,
    /// Flags that stand alone, space-separated (`"--json"`).
    pub switches: &'static str,
    /// `(short, long)` spellings: `("-o", "--output")` reads `-o` as
    /// `--output`.
    pub aliases: &'static [(&'static str, &'static str)],
}

impl FlagTable {
    /// Reads a command line once. Every token is a flag of the table or
    /// the value of the flag before it, each flag comes at most once, and
    /// a value is never a flag (a token starting `--`, or an alias): `--csv
    /// --seed 7` is a missing value, not `csv = "--seed"`. A `--flag value`
    /// pair the table does not list goes to `extra(flag, value)`, which
    /// answers `Ok(true)` if it takes it.
    ///
    /// # Errors
    ///
    /// Names the offending token: a stray argument, an unknown or
    /// repeated flag, a value flag without its value, or whatever `extra`
    /// rejects.
    pub fn parse_with<'a>(
        &self,
        args: &'a [String],
        mut extra: impl FnMut(&str, &str) -> Result<bool, String>,
    ) -> Result<Flags<'a>, String> {
        let alias = |t: &str| self.aliases.iter().find(|&&(short, _)| short == t);
        let is_flag = |t: &str| t.starts_with("--") || alias(t).is_some();
        let mut flags = Flags(Vec::new());
        let mut rest = args;
        while let [token, tail @ ..] = rest {
            if !is_flag(token) || token.contains('=') {
                return Err(format!(
                    "unexpected argument `{token}` (options are written `--flag value`)"
                ));
            }
            let name = alias(token).map_or(token.as_str(), |&(_, long)| long);
            if flags.has(name) {
                return Err(format!("{token} is given more than once"));
            }
            if self.switches.split_whitespace().any(|s| s == name) {
                flags.0.push((name, None));
                rest = tail;
                continue;
            }
            let known = self.values.split_whitespace().any(|v| v == name);
            match tail.first().filter(|v| !is_flag(v)) {
                Some(value) if known || extra(name, value)? => flags.0.push((name, Some(value))),
                None if known => return Err(format!("{token} requires a value")),
                _ => return Err(format!("unknown option `{token}`")),
            }
            rest = &tail[1..];
        }
        Ok(flags)
    }
}

/// A command line read by a [`FlagTable`]: each flag under its long name,
/// at most once.
#[derive(Debug)]
pub struct Flags<'a>(Vec<(&'a str, Option<&'a str>)>);

impl<'a> Flags<'a> {
    /// Whether `flag` (a switch or a value flag) was given.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|&(name, _)| name == flag)
    }

    /// The value of `flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&'a str> {
        let given = self.0.iter().find(|&&(name, _)| name == flag);
        given.and_then(|&(_, value)| value)
    }

    /// The value of `flag` as `read` makes it, if given.
    ///
    /// # Errors
    ///
    /// ``invalid value `V` for FLAG: WHY`` when `read` rejects the value.
    pub fn value_with<T, E: std::fmt::Display>(
        &self,
        flag: &str,
        read: impl FnOnce(&'a str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| read(v).map_err(|e| format!("invalid value `{v}` for {flag}: {e}")))
            .transpose()
    }

    /// The value of `flag` parsed as a `T`, if given.
    ///
    /// # Errors
    ///
    /// As [`Self::value_with`].
    pub fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value_with(flag, str::parse)
    }

    /// The value of `flag`, a count of milliseconds, if given.
    ///
    /// # Errors
    ///
    /// As [`Self::value_with`].
    pub fn millis(&self, flag: &str) -> Result<Option<Duration>, String> {
        Ok(self.value(flag)?.map(Duration::from_millis))
    }
}

/// Everything derived once per benchmark: the executed original stream,
/// the statistical profile, and the clone stream.
#[derive(Debug)]
pub struct BenchData {
    /// The kernel description.
    pub kernel: KernelDesc,
    /// Original coalesced per-warp streams.
    pub orig_streams: Vec<WarpStream>,
    /// The statistical profile.
    pub profile: GmapProfile,
    /// Clone streams generated from the profile.
    pub proxy_streams: Vec<WarpStream>,
    /// Workload scale the bundle was prepared at.
    pub scale: Scale,
    /// Clone-generation seed the bundle was prepared with.
    pub seed: u64,
}

impl BenchData {
    /// Stable identity of one of this bundle's streams for the engine's
    /// cross-figure capture cache: `(name, scale, seed)` pin the stream
    /// content exactly — original streams depend on (name, scale), proxy
    /// streams additionally on the seed.
    pub fn capture_source(&self, proxy: bool) -> String {
        format!(
            "{}:{}",
            bundle_source(&self.kernel.name, self.scale, self.seed),
            if proxy { "proxy" } else { "orig" }
        )
    }

    /// The original (`proxy == false`) or clone stream with its launch.
    fn stream(&self, proxy: bool) -> (&[WarpStream], &LaunchConfig) {
        if proxy {
            (&self.proxy_streams, &self.profile.launch)
        } else {
            (&self.orig_streams, &self.kernel.launch)
        }
    }

    /// Warp-level accesses in the original or clone stream: what
    /// [`sweep_grid`] orders its jobs by.
    fn num_accesses(&self, proxy: bool) -> usize {
        self.stream(proxy).0.iter().map(|s| s.num_accesses()).sum()
    }

    /// [`evaluate_grid`] over this bundle's original (`proxy == false`)
    /// or clone stream.
    pub fn evaluate(
        &self,
        proxy: bool,
        configs: &[SimtConfig],
        metric: Metric,
        plan: Option<&SweepPlan>,
    ) -> Vec<f64> {
        let (streams, launch) = self.stream(proxy);
        let source = self.capture_source(proxy);
        evaluate_grid(&source, streams, launch, configs, metric, plan, None)
            .expect("no cancel token was given")
    }
}

/// Stable identity of a prepared bundle: its key in the process-wide
/// cache, and the stem of [`BenchData::capture_source`].
fn bundle_source(name: &str, scale: Scale, seed: u64) -> String {
    format!("bench:{name}:{scale:?}:{seed}")
}

/// Prepares one benchmark: execute, profile, clone. The kernel is
/// executed and coalesced once (at [`gmap_core::COALESCE_BYTES`], the
/// default profiler's line size); the same streams are profiled and kept
/// as the original.
pub fn prepare(name: &str, scale: Scale, seed: u64) -> BenchData {
    let kernel = workloads::by_name(name, scale).expect("known benchmark name");
    let (orig_streams, profile) = profile_kernel_with_streams(&kernel, &ProfilerConfig::default());
    let proxy_streams = generate_streams(&profile, seed);
    BenchData {
        kernel,
        orig_streams,
        profile,
        proxy_streams,
        scale,
        seed,
    }
}

/// All 18 benchmarks, prepared: each bundle the process-wide cache
/// holds is taken from it, the others are [`prepare`]d, one per worker
/// thread at a time (preparation's unit is the benchmark: the clone needs
/// the profile, the profile the executed streams), and kept there until
/// [`engine::capture_cache_clear`]. Prints how long that took and how
/// many bundles were reused.
pub fn prepare_all(opts: &ExperimentOpts) -> Vec<Arc<BenchData>> {
    let t0 = Instant::now();
    let found = parallel_map(&workloads::NAMES, opts.threads, |name| {
        engine::bundle_cached(name, opts.scale, opts.seed)
    });
    let reused = found.iter().filter(|(_, hit)| *hit).count();
    println!(
        "phase timings: prepare {:.2}s ({} benchmarks, {reused} reused)",
        t0.elapsed().as_secs_f64(),
        found.len()
    );
    found.into_iter().map(|(data, _)| data).collect()
}

/// Metric extracted from a simulation for figure comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// L1 miss rate, percent.
    L1MissPct,
    /// L2 miss rate, percent.
    L2MissPct,
}

impl Metric {
    fn extract(self, out: &gmap_core::SimOutcome) -> f64 {
        match self {
            Metric::L1MissPct => out.l1_miss_pct(),
            Metric::L2MissPct => out.l2_miss_pct(),
        }
    }
}

/// The one grid evaluator: `metric` in percent for every configuration
/// of `configs`, aligned with the slice, over one access stream.
///
/// With a `plan` (from [`engine::plan_single_pass`] over the same
/// `configs` and `metric`) the stream is captured once at the plan's
/// reference configuration — memoized process-wide under `source`, which
/// must identify the stream content (see
/// [`engine::capture_stream_cached`]) — and every configuration is
/// evaluated from the capture. Without one, each configuration is one
/// full simulation.
///
/// `cancel` is a cooperative cancellation token, checked on entry, after
/// the capture and before each full simulation; once it reads `true` the
/// function returns `None` without completing the grid.
pub fn evaluate_grid(
    source: &str,
    streams: &[WarpStream],
    launch: &LaunchConfig,
    configs: &[SimtConfig],
    metric: Metric,
    plan: Option<&SweepPlan>,
    cancel: Option<&AtomicBool>,
) -> Option<Vec<f64>> {
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    if cancelled() {
        return None;
    }
    if let Some(plan) = plan {
        let capture = engine::capture_stream_cached(source, streams, launch, &plan.capture_cfg);
        if cancelled() {
            return None;
        }
        return Some(engine::eval_captured(plan, &capture, configs).values);
    }
    configs
        .iter()
        .map(|cfg| {
            if cancelled() {
                return None;
            }
            let out =
                simulate_streams(streams, launch, cfg).expect("grid configurations are valid");
            Some(metric.extract(&out))
        })
        .collect()
}

/// Outcome of evaluating one profile's clone across a configuration grid
/// (see [`evaluate_profile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEvaluation {
    /// Metric value in percent per configuration, aligned with the input
    /// config slice.
    pub values: Vec<f64>,
    /// Whether the single-pass stack-distance engine evaluated the grid
    /// (`false` = one full simulation per configuration).
    pub single_pass: bool,
}

/// Evaluates a profile's clone across a configuration grid — the reusable
/// library entry point behind `gmap serve`'s `/v1/evaluate` endpoint and
/// any other caller that has a [`GmapProfile`] rather than a named
/// benchmark.
///
/// The grid is evaluated as [`evaluate_grid`] does on the clone stream
/// generated from `profile` with `seed`, planned when
/// [`engine::plan_single_pass`] proves the sweep eligible. The capture is
/// keyed by profile content + seed, so repeated evaluations of the same
/// model (the common service pattern — one clone, many grids) capture
/// once per process — and generate the clone only for that capture —
/// and a group evaluated on that capture before is answered from its
/// memo ([`engine::eval_captured`]).
///
/// `cancel` is checked before the stream is generated and then as
/// [`evaluate_grid`] does; `None` means the grid was not completed.
pub fn evaluate_profile(
    profile: &GmapProfile,
    configs: &[SimtConfig],
    metric: Metric,
    seed: u64,
    cancel: Option<&AtomicBool>,
) -> Option<ProfileEvaluation> {
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    if cancelled() {
        return None;
    }
    let Some(plan) = engine::plan_single_pass(configs, metric) else {
        let streams = generate_streams(profile, seed);
        let values = evaluate_grid("", &streams, &profile.launch, configs, metric, None, cancel)?;
        return Some(ProfileEvaluation {
            values,
            single_pass: false,
        });
    };
    let source = format!("profile:{}:{}", gmap_core::cachekey::key_of(profile), seed);
    let cfg = &plan.capture_cfg;
    let capture = engine::capture_cached_with(&source, cfg, || {
        engine::capture_stream(&generate_streams(profile, seed), &profile.launch, cfg)
    });
    if cancelled() {
        return None;
    }
    Some(ProfileEvaluation {
        values: engine::eval_captured(&plan, &capture, configs).values,
        single_pass: true,
    })
}

/// One unit of sweep work: one stream of one benchmark over the config
/// chunk starting at `lo`. A job is one [`BenchData::evaluate`] call.
#[derive(Debug)]
struct SweepJob {
    /// Index into the prepared benchmarks.
    bench: usize,
    /// First configuration of the chunk.
    lo: usize,
    /// Clone stream (`true`) or original (`false`).
    proxy: bool,
}

/// The job list of [`sweep_grid`]: every (benchmark, config-chunk,
/// original|clone) triple, longest stream first. Workers take jobs in
/// list order, so the order is longest-processing-time-first scheduling
/// with a stream's access count as the estimate of its cost: the streams
/// that bound the sweep start at t = 0 on different workers. The sort is
/// stable — equal streams keep (benchmark, chunk, original-then-clone)
/// order.
fn sweep_jobs(data: &[Arc<BenchData>], num_configs: usize, chunk: usize) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for bench in 0..data.len() {
        for lo in (0..num_configs).step_by(chunk) {
            for proxy in [false, true] {
                jobs.push(SweepJob { bench, lo, proxy });
            }
        }
    }
    let weights: Vec<[usize; 2]> = data
        .iter()
        .map(|d| [d.num_accesses(false), d.num_accesses(true)])
        .collect();
    jobs.sort_by_key(|j| std::cmp::Reverse(weights[j.bench][usize::from(j.proxy)]));
    jobs
}

/// Compares original and clone on every prepared benchmark across
/// `configs`, on up to `threads` worker threads.
///
/// The unit of work is one *stream*: the queue holds (benchmark,
/// config-chunk, original|clone) jobs, each one [`BenchData::evaluate`]
/// call, ordered longest stream first (see `sweep_jobs`), so a
/// benchmark's original and clone — independent replays of the same
/// experiment — run side by side instead of one behind the other. With a
/// `plan` the whole series of a stream is one job (one capture, every
/// config from it); without one the grid is cut in quarters so the queue
/// stays deeper than the thread pool even when a few benchmarks dominate.
///
/// Results are placed by (benchmark, chunk, stream) index, so the summary
/// is bit-identical for any thread count and any job order.
pub fn sweep_grid(
    data: &[Arc<BenchData>],
    configs: &[SimtConfig],
    metric: Metric,
    plan: Option<&SweepPlan>,
    threads: usize,
) -> SweepSummary {
    sweep_grid_timed(data, configs, metric, plan, threads).0
}

/// [`sweep_grid`] that also names its longest job (`kmeans/clone`) and
/// that job's seconds for the timing footer; `None` when there was
/// nothing to run.
fn sweep_grid_timed(
    data: &[Arc<BenchData>],
    configs: &[SimtConfig],
    metric: Metric,
    plan: Option<&SweepPlan>,
    threads: usize,
) -> (SweepSummary, Option<(String, f64)>) {
    let chunk = match plan {
        Some(_) => configs.len(),
        None => configs.len().div_ceil(4),
    }
    .max(1);
    let jobs = sweep_jobs(data, configs.len(), chunk);
    let results = parallel_map(&jobs, threads, |job| {
        let t0 = Instant::now();
        let part = &configs[job.lo..(job.lo + chunk).min(configs.len())];
        let values = data[job.bench].evaluate(job.proxy, part, metric, plan);
        (values, t0.elapsed().as_secs_f64())
    });
    let longest = jobs
        .iter()
        .zip(&results)
        .map(|(job, &(_, secs))| (job, secs))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    // series[benchmark][original|clone], each slot written by exactly
    // one job.
    let mut series = vec![[vec![0.0; configs.len()], vec![0.0; configs.len()]]; data.len()];
    for (job, (values, _)) in jobs.iter().zip(results) {
        series[job.bench][usize::from(job.proxy)][job.lo..job.lo + values.len()]
            .copy_from_slice(&values);
    }
    let summary = summarize(
        data.iter()
            .zip(series)
            .map(|(d, [orig, proxy])| compare_series(&d.kernel.name, orig, proxy))
            .collect(),
    );
    let longest = longest.map(|(job, secs)| {
        let stream = if job.proxy { "clone" } else { "original" };
        (format!("{}/{stream}", data[job.bench].kernel.name), secs)
    });
    (summary, longest)
}

/// Runs a whole figure: [`prepare_all`], then [`run_figure_on`] the
/// bundles.
pub fn run_figure(
    title: &str,
    configs: &[SimtConfig],
    metric: Metric,
    opts: ExperimentOpts,
) -> SweepSummary {
    run_figure_on(&prepare_all(&opts), title, configs, metric, &opts)
}

/// Runs one figure over already prepared benchmarks: banner, the sweep
/// ([`sweep_grid`], planned when [`engine::plan_single_pass`] accepts the
/// grid), the per-benchmark table, the CSV if `opts.csv` asks for one,
/// and a timing footer that says which path evaluated the grid.
pub fn run_figure_on(
    data: &[Arc<BenchData>],
    title: &str,
    configs: &[SimtConfig],
    metric: Metric,
    opts: &ExperimentOpts,
) -> SweepSummary {
    print_header(title, configs.len(), opts);
    let t0 = Instant::now();
    let plan = engine::plan_single_pass(configs, metric);
    let (summary, longest) = sweep_grid_timed(data, configs, metric, plan.as_ref(), opts.threads);
    let sweep_secs = t0.elapsed().as_secs_f64();

    println!("{summary}");
    if let Some(path) = &opts.csv {
        match write_summary_csv(&summary, path) {
            Ok(()) => println!("raw series written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    // The longest job bounds the sweep from below whatever the thread
    // count: a share near 100% says one stream is the critical path.
    let longest = longest.map_or(String::new(), |(job, secs)| {
        let share = 100.0 * secs / sweep_secs.max(1e-9);
        format!(", longest job {job} {secs:.2}s = {share:.0}%")
    });
    println!("phase timings: sweep {sweep_secs:.2}s{longest}");
    println!(
        "throughput: {:.0} configs/s over {} validation points ({})",
        summary.validation_points as f64 / sweep_secs.max(1e-9),
        summary.validation_points,
        if plan.is_some() {
            "single-pass engine"
        } else {
            "direct simulation"
        }
    );
    summary
}

/// Writes the raw per-config original/proxy series of a sweep as CSV
/// (`benchmark,config,original,proxy`), ready for external plotting.
///
/// # Errors
///
/// Propagates file I/O errors.
pub fn write_summary_csv(summary: &SweepSummary, path: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "benchmark,config,original,proxy")?;
    for b in &summary.per_benchmark {
        for (i, (o, p)) in b.original.iter().zip(&b.proxy).enumerate() {
            writeln!(f, "{},{},{},{}", b.name, i, o, p)?;
        }
    }
    Ok(())
}

/// Prints the experiment banner with the Table 2 baseline reminder.
pub fn print_header(title: &str, num_configs: usize, opts: &ExperimentOpts) {
    println!("=== {title} ===");
    println!(
        "benchmarks: {}  configs/benchmark: {num_configs}  validation points: {}",
        workloads::NAMES.len(),
        workloads::NAMES.len() * num_configs
    );
    println!(
        "scale: {:?}  seed: {}  baseline: 15 SMs, L1 16KB/4-way/128B, L2 1MB/8-way/8-bank (Table 2)\n",
        opts.scale, opts.seed
    );
}

/// Maps `f` over `items` using up to `threads` worker threads, preserving
/// input order in the output.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    // One cell per output slot: the atomic counter hands each index to
    // exactly one worker, so writes land in disjoint slots and there is
    // no shared result funnel to contend on.
    let cells: Vec<std::sync::Mutex<Option<R>>> = (0..items.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *cells[i].lock().expect("no poisoned workers") = Some(r);
            });
        }
    });
    cells
        .into_iter()
        .map(|c| {
            c.into_inner()
                .expect("no poisoned workers")
                .expect("every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmap_core::compare_series;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..50).collect();
        for threads in [1, 2, 8] {
            let out = parallel_map(&items, threads, |&x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
        let empty: Vec<u64> = vec![];
        assert!(parallel_map(&empty, 4, |&x: &u64| x).is_empty());
    }

    fn args(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    fn parse(tokens: &[&str]) -> Result<ExperimentOpts, String> {
        ExperimentOpts::parse(&args(tokens), |_, _| Ok(false))
    }

    #[test]
    fn arg_parsing_does_not_eat_flags_as_values() {
        // `--csv` has no value (the next token is a flag): an error, not
        // `csv = "--seed"` and not a silently unset option.
        let err = parse(&["--csv", "--seed", "7"]).expect_err("missing value");
        assert!(err.contains("--csv requires a value"), "{err}");
        let err = parse(&["--seed"]).expect_err("missing value at the end");
        assert!(err.contains("--seed requires a value"), "{err}");
    }

    #[test]
    fn arg_parsing_rejects_a_repeated_flag() {
        let err = parse(&["--seed", "1", "--seed", "2"]).expect_err("repeated");
        assert!(err.contains("--seed is given more than once"), "{err}");
        let err = ExperimentOpts::parse(&args(&["--grid", "a", "--grid", "b"]), |_, _| Ok(true))
            .expect_err("a binary's own flag, repeated");
        assert!(err.contains("--grid is given more than once"), "{err}");
    }

    #[test]
    fn arg_parsing_accepts_the_documented_flags() {
        let opts = parse(&[
            "--scale",
            "tiny",
            "--seed",
            "9",
            "--threads",
            "3",
            "--csv",
            "out.csv",
        ])
        .expect("documented flags parse");
        assert_eq!(opts.scale, Scale::Tiny);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.csv.as_deref(), Some("out.csv"));
        for flag in ["--scale", "--seed", "--threads", "--csv"] {
            assert!(ExperimentOpts::HELP.contains(flag), "help must list {flag}");
        }
        let defaults = parse(&[]).expect("no flags is fine");
        assert_eq!((defaults.scale, defaults.seed), (Scale::Default, 42));
        assert_eq!(
            parse(&["--scale", "default"]).map(|o| o.scale),
            Ok(Scale::Default)
        );

        // Mistakes are errors that name the token, never a silent default.
        for (tokens, needle) in [
            (&["--scale", "smal"][..], "`smal`"),
            (&["--scale=tiny"][..], "--scale=tiny"),
            (&["--seed", "x"][..], "`x`"),
            (&["--threads", "-1"][..], "`-1`"),
            (&["--sale", "tiny"][..], "unknown option `--sale`"),
            (&["tiny"][..], "unexpected argument `tiny`"),
        ] {
            let err = parse(tokens).expect_err("rejected");
            assert!(err.contains(needle), "{tokens:?}: {err}");
        }

        // A binary's own flag goes through `extra`, value checked there.
        let mut grid = String::new();
        let mut own = |flag: &str, value: &str| match (flag, value) {
            ("--grid", "a" | "all") => {
                grid = value.to_string();
                Ok(true)
            }
            ("--grid", _) => Err(format!("bad grid `{value}`")),
            _ => Ok(false),
        };
        let opts = ExperimentOpts::parse(&args(&["--grid", "a", "--seed", "3"]), &mut own)
            .expect("own flag accepted");
        assert_eq!(opts.seed, 3);
        let err = ExperimentOpts::parse(&args(&["--grid", "z"]), &mut own).expect_err("bad grid");
        assert!(err.contains("bad grid `z`"), "{err}");
        let err = ExperimentOpts::parse(&args(&["--gird", "a"]), &mut own).expect_err("typo");
        assert!(err.contains("unknown option `--gird`"), "{err}");
        assert_eq!(grid, "a");
    }

    #[test]
    fn prepare_produces_consistent_bundle() {
        let data = prepare("kmeans", Scale::Tiny, 7);
        assert_eq!(data.kernel.name, "kmeans");
        assert_eq!(data.orig_streams.len(), data.proxy_streams.len());
        assert_eq!(
            data.profile.launch.total_warps(data.profile.warp_size) as usize,
            data.proxy_streams.len()
        );
    }

    #[test]
    fn prepare_executes_once_and_changes_no_stream_or_model_id() {
        for name in workloads::NAMES {
            let data = prepare(name, Scale::Tiny, 7);
            assert_eq!(
                data.orig_streams,
                gmap_core::model::original_streams(&data.kernel),
                "{name}: original streams"
            );
            // The content key is what `gmap serve` derives model ids from.
            let reference = gmap_core::profile_kernel(&data.kernel, &ProfilerConfig::default());
            assert_eq!(
                gmap_core::cachekey::key_of(&data.profile),
                gmap_core::cachekey::key_of(&reference),
                "{name}: profile key"
            );
        }
    }

    #[test]
    fn csv_output_has_expected_shape() {
        let summary = gmap_core::summarize(vec![
            compare_series("a", vec![1.0, 2.0], vec![1.5, 2.5]),
            compare_series("b", vec![3.0], vec![3.0]),
        ]);
        let path = std::env::temp_dir().join(format!("gmap-csv-{}.csv", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        write_summary_csv(&summary, &path_str).expect("write");
        let body = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines[0], "benchmark,config,original,proxy");
        assert_eq!(lines.len(), 1 + 3);
        assert!(lines[1].starts_with("a,0,1,1.5"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn evaluate_grid_planned_is_exactly_capture_then_eval() {
        let _cache = engine::capture_cache_test_guard();
        let data = prepare("kmeans", Scale::Tiny, 7);
        let grid = sweeps::l1_sweep();
        let plan = engine::plan_single_pass(&grid, Metric::L1MissPct).expect("fig6a plans");
        for proxy in [false, true] {
            let (streams, launch) = data.stream(proxy);
            let capture = engine::capture_stream(streams, launch, &plan.capture_cfg);
            let want = engine::eval_captured(&plan, &capture, &grid).values;
            let got = data.evaluate(proxy, &grid, Metric::L1MissPct, Some(&plan));
            assert_eq!(got, want, "proxy={proxy}");
            assert_eq!(got.len(), grid.len());
            assert!(got.iter().all(|v| (0.0..=100.0).contains(v)));
            assert!(got.iter().any(|&v| v > 0.0), "a real workload misses");
        }
        // `evaluate_profile` regenerates the same clone and plans the
        // same grid.
        let eval = evaluate_profile(&data.profile, &grid, Metric::L1MissPct, 7, None)
            .expect("not cancelled");
        assert!(eval.single_pass);
        assert_eq!(
            eval.values,
            data.evaluate(true, &grid, Metric::L1MissPct, Some(&plan))
        );
    }

    #[test]
    fn evaluate_profile_returns_the_same_values_on_a_capture_miss_and_hit() {
        let _cache = engine::capture_cache_test_guard();
        engine::capture_cache_clear();
        let data = prepare("kmeans", Scale::Tiny, 7);
        let grid = sweeps::policy_l1_sweep();
        let run = || evaluate_profile(&data.profile, &grid, Metric::L1MissPct, 7, None);
        let miss = run().expect("not cancelled");
        let stats = engine::capture_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let hit = run().expect("not cancelled");
        let stats = engine::capture_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(miss.single_pass);
        assert_eq!(hit, miss);
        let plan = engine::plan_single_pass(&grid, Metric::L1MissPct).expect("fig6e plans");
        assert_eq!(
            miss.values,
            data.evaluate(true, &grid, Metric::L1MissPct, Some(&plan)),
            "the miss captured the clone `prepare` generated"
        );
    }

    /// What a process that runs figures back to back gets is what each
    /// figure gets alone, from a cold cache. The four share captures, and
    /// 6e's LRU half and `policy_l1_sweep` are 6a's 128 B half.
    #[test]
    fn figures_in_one_process_equal_figures_on_a_cold_cache() {
        let _cache = engine::capture_cache_test_guard();
        let opts = ExperimentOpts {
            scale: Scale::Tiny,
            seed: 42,
            threads: 2,
            csv: None,
        };
        let figures = [
            (sweeps::l1_sweep(), Metric::L1MissPct),
            (sweeps::replacement_policy_sweep(), Metric::L1MissPct),
            (sweeps::policy_l1_sweep(), Metric::L1MissPct),
            (sweeps::l2_sweep(), Metric::L2MissPct),
        ];
        let run = |(configs, metric): &(Vec<SimtConfig>, Metric)| {
            run_figure("figure", configs, *metric, opts.clone())
        };
        let cold: Vec<SweepSummary> = figures
            .iter()
            .map(|figure| {
                engine::capture_cache_clear();
                run(figure)
            })
            .collect();
        engine::capture_cache_clear();
        let (warm, stats): (Vec<SweepSummary>, Vec<engine::CaptureCacheStats>) = figures
            .iter()
            .map(|figure| (run(figure), engine::capture_cache_stats()))
            .unzip();
        assert_eq!(warm, cold);
        // Each benchmark is prepared once and each stream captured once,
        // however many figures run. 6e's LRU half and the policy grid are
        // answered from 6a's memo on every one of the 36 captures.
        let counts = |s: &engine::CaptureCacheStats| {
            (
                s.bundle_misses,
                s.bundle_hits,
                s.misses,
                s.hits,
                s.memo_groups,
            )
        };
        assert_eq!(counts(&stats[0]), (18, 0, 36, 0, 0));
        assert_eq!(counts(&stats[2]), (18, 36, 36, 72, 72));
        assert_eq!(counts(&stats[3]), (18, 54, 36, 108, 72));
        engine::capture_cache_clear();
    }

    #[test]
    fn evaluate_profile_repeated_equals_the_first_answer() {
        let _cache = engine::capture_cache_test_guard();
        engine::capture_cache_clear();
        let data = prepare("kmeans", Scale::Tiny, 7);
        let grids = [
            (sweeps::l1_sweep(), Metric::L1MissPct),
            (sweeps::policy_l1_sweep(), Metric::L1MissPct),
            (sweeps::replacement_policy_sweep(), Metric::L1MissPct),
            (sweeps::l1_prefetch_sweep()[..8].to_vec(), Metric::L1MissPct),
            (sweeps::l2_sweep(), Metric::L2MissPct),
        ];
        let eval = |(grid, metric): &(Vec<SimtConfig>, Metric)| {
            evaluate_profile(&data.profile, grid, *metric, 7, None).expect("not cancelled")
        };
        let first: Vec<ProfileEvaluation> = grids.iter().map(eval).collect();
        for ((grid, metric), got) in grids.iter().zip(&first) {
            let plan = engine::plan_single_pass(grid, *metric).expect("stock grids plan");
            let fresh = engine::capture_stream(
                &data.proxy_streams,
                &data.profile.launch,
                &plan.capture_cfg,
            );
            assert_eq!(
                got.values,
                engine::eval_captured(&plan, &fresh, grid).values
            );
        }
        // Of the 15 groups, the policy grid and the replacement grid's LRU
        // half repeat fig6a's 128 B group; a repeat is answered whole.
        assert_eq!(engine::capture_cache_stats().memo_groups, 2);
        for _ in 0..2 {
            let again: Vec<ProfileEvaluation> = grids.iter().map(eval).collect();
            assert_eq!(again, first);
        }
        assert_eq!(engine::capture_cache_stats().memo_groups, 2 + 2 * 15);
        engine::capture_cache_clear();
    }

    #[test]
    fn evaluate_grid_unplanned_is_exactly_one_simulation_per_config() {
        let data = prepare("scalarprod", Scale::Tiny, 7);
        // The two ways a grid falls off the planner: the metric is not
        // the swept level's, or a point uses PLRU.
        let mismatch: Vec<SimtConfig> = sweeps::l1_sweep()[..3].to_vec();
        let mut plru = vec![SimtConfig::default(); 3];
        plru[1].hierarchy.l1.policy = gmap_memsim::cache::ReplacementPolicy::PseudoLru;
        for (grid, metric) in [(mismatch, Metric::L2MissPct), (plru, Metric::L1MissPct)] {
            assert!(engine::plan_single_pass(&grid, metric).is_none());
            for proxy in [false, true] {
                let (streams, launch) = data.stream(proxy);
                let want: Vec<f64> = grid
                    .iter()
                    .map(|cfg| {
                        metric.extract(&simulate_streams(streams, launch, cfg).expect("valid"))
                    })
                    .collect();
                assert_eq!(data.evaluate(proxy, &grid, metric, None), want);
            }
            let eval = evaluate_profile(&data.profile, &grid, metric, 7, None).expect("runs");
            assert!(!eval.single_pass);
            assert_eq!(eval.values, data.evaluate(true, &grid, metric, None));
        }
        // Identical configs: identical values.
        let same = data.evaluate(false, &[SimtConfig::default(); 3], Metric::L1MissPct, None);
        assert_eq!(same.len(), 3);
        assert_eq!(same[0], same[2]);
    }

    #[test]
    fn sweep_grid_stitches_direct_chunks_in_config_order() {
        let data = vec![
            Arc::new(prepare("scalarprod", Scale::Tiny, 7)),
            Arc::new(prepare("aes", Scale::Tiny, 7)),
        ];
        // Five configs, no plan: chunks of 2, 2 and 1 per benchmark.
        let grid: Vec<SimtConfig> = sweeps::l1_sweep()[..5].to_vec();
        let summary = sweep_grid(&data, &grid, Metric::L1MissPct, None, 3);
        assert_eq!(summary.validation_points, 10);
        for (d, cmp) in data.iter().zip(&summary.per_benchmark) {
            assert_eq!(cmp.name, d.kernel.name);
            assert_eq!(
                cmp.original,
                d.evaluate(false, &grid, Metric::L1MissPct, None)
            );
            assert_eq!(cmp.proxy, d.evaluate(true, &grid, Metric::L1MissPct, None));
        }
    }

    #[test]
    fn sweep_grid_is_bit_identical_at_any_thread_count() {
        let _cache = engine::capture_cache_test_guard();
        let data: Vec<Arc<BenchData>> = ["kmeans", "scalarprod", "aes"]
            .iter()
            .map(|name| Arc::new(prepare(name, Scale::Tiny, 7)))
            .collect();
        let planned: Vec<SimtConfig> = sweeps::l1_prefetch_sweep()[..4].to_vec();
        let mut plru = vec![SimtConfig::default(); 3];
        plru[1].hierarchy.l1.policy = gmap_memsim::cache::ReplacementPolicy::PseudoLru;
        for grid in [planned, plru] {
            let plan = engine::plan_single_pass(&grid, Metric::L1MissPct);
            // What a sweep must return: every stream evaluated whole, one
            // call each.
            let whole =
                |d: &BenchData, proxy| d.evaluate(proxy, &grid, Metric::L1MissPct, plan.as_ref());
            let want = summarize(
                data.iter()
                    .map(|d| compare_series(&d.kernel.name, whole(d, false), whole(d, true)))
                    .collect(),
            );
            for threads in [1, 2, 8] {
                engine::capture_cache_clear();
                let got = sweep_grid(&data, &grid, Metric::L1MissPct, plan.as_ref(), threads);
                assert_eq!(got, want, "threads={threads} planned={}", plan.is_some());
                // One job per stream when planned: no capture is computed
                // twice, whatever the thread count. Direct grids capture
                // nothing.
                let stats = engine::capture_cache_stats();
                let captures = if plan.is_some() {
                    2 * data.len() as u64
                } else {
                    0
                };
                assert_eq!(
                    (stats.misses, stats.hits),
                    (captures, 0),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sweep_jobs_cover_every_stream_chunk_longest_first() {
        let data = vec![
            Arc::new(prepare("scalarprod", Scale::Tiny, 7)),
            Arc::new(prepare("kmeans", Scale::Tiny, 7)),
            Arc::new(prepare("aes", Scale::Tiny, 7)),
        ];
        let weight = |job: &SweepJob| data[job.bench].num_accesses(job.proxy);
        // Planned shape: one chunk. kmeans' two streams are the longest of
        // the six, so they lead the queue wherever kmeans sits in the data.
        let jobs = sweep_jobs(&data, 4, 4);
        assert_eq!(jobs.len(), 6);
        assert_eq!((jobs[0].bench, jobs[1].bench), (1, 1));
        assert_ne!(jobs[0].proxy, jobs[1].proxy);
        // Direct shape: five configs in chunks of 2, 2 and 1.
        let jobs = sweep_jobs(&data, 5, 2);
        assert!(jobs.windows(2).all(|w| weight(&w[0]) >= weight(&w[1])));
        assert!(jobs[..6].iter().all(|j| j.bench == 1));
        let mut triples: Vec<(usize, usize, bool)> =
            jobs.iter().map(|j| (j.bench, j.lo, j.proxy)).collect();
        triples.sort_unstable();
        let mut all = Vec::new();
        for bench in 0..3 {
            for lo in [0, 2, 4] {
                all.extend([(bench, lo, false), (bench, lo, true)]);
            }
        }
        assert_eq!(triples, all);
        assert!(sweep_jobs(&[], 4, 4).is_empty());
    }

    #[test]
    fn evaluation_honors_cancellation_on_both_branches() {
        let _cache = engine::capture_cache_test_guard();
        let data = prepare("scalarprod", Scale::Tiny, 7);
        let grid = &sweeps::l1_sweep()[..2];
        let plan = engine::plan_single_pass(grid, Metric::L1MissPct);
        assert!(plan.is_some());
        let (streams, launch) = data.stream(true);
        for plan in [plan.as_ref(), None] {
            let run = |cancel: &AtomicBool| {
                evaluate_grid(
                    "test:cancel",
                    streams,
                    launch,
                    grid,
                    Metric::L1MissPct,
                    plan,
                    Some(cancel),
                )
            };
            assert_eq!(run(&AtomicBool::new(true)), None);
            assert_eq!(run(&AtomicBool::new(false)).map(|v| v.len()), Some(2));
        }
        assert_eq!(
            evaluate_profile(
                &data.profile,
                grid,
                Metric::L1MissPct,
                7,
                Some(&AtomicBool::new(true))
            ),
            None
        );
    }

    #[test]
    fn metric_extraction_matches_outcome() {
        let data = prepare("aes", Scale::Tiny, 7);
        let cfg = SimtConfig::default();
        let out = simulate_streams(&data.orig_streams, &data.kernel.launch, &cfg)
            .expect("baseline is valid");
        assert_eq!(Metric::L1MissPct.extract(&out), out.l1_miss_pct());
        assert_eq!(Metric::L2MissPct.extract(&out), out.l2_miss_pct());
    }
}
