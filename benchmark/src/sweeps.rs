//! The sweep workloads: `sweep_lru` and `sweep_prefetch`, and the figure
//! runner `sim_direct` shares.
//!
//! Untraced, a figure is one call of the shipped entry point
//! [`gmap_bench::run_figure`]. Traced, [`run_figure_traced`] performs the
//! same steps through the same public functions `run_figure` is built
//! from — prepare (execute, profile, generate), plan, capture, evaluate,
//! summarize — with a span around each call into a layer.

use crate::common::{timed_round, Checks, Op, Round, RunOpts, Workload};
use crate::span::Tracer;
use gmap_bench::engine::{self, CapturedStream, SweepPlan};
use gmap_bench::{parallel_map, run_figure, sweeps, BenchData, ExperimentOpts, Metric};
use gmap_core::generate::generate_streams;
use gmap_core::{
    compare_series, profile_streams, simulate_streams, summarize, BenchmarkComparison,
    ProfilerConfig, SimtConfig, SweepSummary,
};
use gmap_gpu::coalesce::coalesce_app;
use gmap_gpu::exec::execute_kernel;
use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::schedule::WarpStream;
use gmap_gpu::workloads::{self, Scale};
use gmap_memsim::cache::ReplacementPolicy;
use gmap_trace::stats::mean;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// The scale every workload runs at. `Scale::Small` is where the issue
/// sized the sweeps (13–21 s a round); the driver's time cap for all runs
/// leaves about 20 s per run including set-up, so rounds must be a few
/// seconds. Tiny keeps the property that matters — kmeans alone is over
/// 90 % of every grid's single-pass time — at a fifth of the cost.
pub const SCALE: Scale = Scale::Tiny;

/// One figure-shaped unit of a sweep workload.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Stable identifier used in pins and span details.
    pub id: &'static str,
    /// Banner title handed to `run_figure`.
    pub title: &'static str,
    /// The configuration grid.
    pub configs: Vec<SimtConfig>,
    /// The compared metric.
    pub metric: Metric,
    /// Whether the single-pass planner must accept the grid.
    pub single_pass: bool,
}

/// `sweep_lru`: the pure LRU/FIFO grids — capture and the stack-distance
/// evaluators do the work; no prefetcher replay, no direct simulation.
pub fn sweep_lru_figures() -> Vec<Figure> {
    vec![
        Figure {
            id: "fig6a_l1",
            title: "Figure 6a: L1 cache sweep",
            configs: sweeps::l1_sweep(),
            metric: Metric::L1MissPct,
            single_pass: true,
        },
        Figure {
            id: "fig6b_l2",
            title: "Figure 6b: L2 cache sweep",
            configs: sweeps::l2_sweep(),
            metric: Metric::L2MissPct,
            single_pass: true,
        },
        Figure {
            id: "fig6e_replacement",
            title: "Figure 6e: LRU + FIFO replacement grid",
            configs: sweeps::replacement_policy_sweep(),
            metric: Metric::L1MissPct,
            single_pass: true,
        },
    ]
}

/// `sweep_prefetch`: stride-schedule expansion and stream-prefetcher
/// replay. Both grids are slices of the paper's (the issue asked for all
/// of fig6c and the whole window-16 third of fig6d, sized at 21 s a round
/// on `Scale::Small`): the `distance == 1` third of fig6c keeps both
/// training classes and every degree and size; the fig6d slice keeps both
/// line sizes and every degree at window 16 over two of the four sizes.
/// Every configuration of the stream grid replays the whole L2 stream, so
/// dropping sizes drops time and no code path.
pub fn sweep_prefetch_figures() -> Vec<Figure> {
    let stride: Vec<SimtConfig> = sweeps::l1_prefetch_sweep()
        .into_iter()
        .filter(|c| c.hierarchy.l1_prefetch.is_some_and(|p| p.distance == 1))
        .collect();
    let stream: Vec<SimtConfig> = sweeps::l2_prefetch_sweep()
        .into_iter()
        .filter(|c| c.hierarchy.l2_prefetch.is_some_and(|p| p.window == 16))
        .filter(|c| [256, 1024].contains(&(c.hierarchy.l2.size_bytes / 1024)))
        .collect();
    vec![
        Figure {
            id: "fig6c_l1_stride_d1",
            title: "Figure 6c (distance 1): L1 cache + stride prefetcher",
            configs: stride,
            metric: Metric::L1MissPct,
            single_pass: true,
        },
        Figure {
            id: "fig6d_l2_stream_w16",
            title: "Figure 6d (window 16, 256 KB and 1 MB): L2 cache + stream prefetcher",
            configs: stream,
            metric: Metric::L2MissPct,
            single_pass: true,
        },
    ]
}

/// `ExperimentOpts` for a run.
pub fn experiment_opts(opts: &RunOpts) -> ExperimentOpts {
    ExperimentOpts {
        scale: SCALE,
        seed: opts.seed,
        threads: opts.threads,
        csv: None,
    }
}

/// Which evaluator a configuration lands on inside `eval_captured`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EvalKind {
    Lru,
    Fifo,
    StridePf,
    StreamPf,
}

impl EvalKind {
    fn of(cfg: &SimtConfig, metric: Metric) -> EvalKind {
        let (policy, prefetch) = match metric {
            Metric::L1MissPct => (
                cfg.hierarchy.l1.policy,
                cfg.hierarchy.l1_prefetch.map(|_| EvalKind::StridePf),
            ),
            Metric::L2MissPct => (
                cfg.hierarchy.l2.policy,
                cfg.hierarchy.l2_prefetch.map(|_| EvalKind::StreamPf),
            ),
        };
        prefetch.unwrap_or(match policy {
            ReplacementPolicy::Fifo => EvalKind::Fifo,
            _ => EvalKind::Lru,
        })
    }

    fn span(self) -> &'static str {
        match self {
            EvalKind::Lru => "bench.eval_lru",
            EvalKind::Fifo => "bench.eval_fifo",
            EvalKind::StridePf => "bench.eval_stride_pf",
            EvalKind::StreamPf => "bench.eval_stream_pf",
        }
    }
}

/// The configurations of one evaluator kind, planned on their own so the
/// evaluator's time gets its own span. Every part of a grid masks to the
/// same reference configuration, so they share the captures.
struct Part {
    kind: EvalKind,
    indices: Vec<usize>,
    configs: Vec<SimtConfig>,
    plan: SweepPlan,
}

/// Counts a traced figure adds to the round's per-layer values.
#[derive(Debug, Default)]
pub struct SweepCounts {
    exec_accesses: u64,
    generate_accesses: u64,
    captures: BTreeSet<usize>,
    capture_accesses: u64,
    fell_back: u64,
    longest_job_s: f64,
    sweep_wall_s: f64,
}

impl SweepCounts {
    /// Writes the counts into a round's per-layer map.
    pub fn export(&self, layer: &mut BTreeMap<&'static str, f64>) {
        layer.insert("gpu.exec_accesses", self.exec_accesses as f64);
        layer.insert("core.generate_accesses", self.generate_accesses as f64);
        layer.insert("bench.capture_accesses", self.capture_accesses as f64);
        layer.insert("bench.eval_fell_back", self.fell_back as f64);
        if self.sweep_wall_s > 0.0 {
            layer.insert(
                "bench.critical_path_share",
                self.longest_job_s / self.sweep_wall_s,
            );
        }
    }
}

fn accesses(streams: &[WarpStream]) -> u64 {
    streams.iter().map(|s| s.num_accesses() as u64).sum()
}

/// `gmap_bench::prepare`, call by call: the original streams, then
/// `profile_kernel`'s own execute → coalesce → profile (it executes the
/// kernel a second time), then clone generation.
pub fn prepare_traced(t: &Tracer, name: &str, seed: u64) -> BenchData {
    let kernel = workloads::by_name(name, SCALE).expect("known benchmark name");
    let orig_streams = t.scope("gpu.exec", name, || {
        gmap_core::model::original_streams(&kernel)
    });
    let cfg = ProfilerConfig::default();
    let (app, streams) = t.scope("gpu.exec", name, || {
        let app = execute_kernel(&kernel);
        let streams = coalesce_app(&app, cfg.line_size);
        (app, streams)
    });
    let profile = t.scope("core.profile", name, || {
        profile_streams(&kernel.name, &streams, &app.launch, app.warp_size, &cfg)
            .expect("executed kernel has memory accesses")
    });
    let proxy_streams = t.scope("core.generate", name, || generate_streams(&profile, seed));
    BenchData {
        kernel,
        orig_streams,
        profile,
        proxy_streams,
        scale: SCALE,
        seed,
    }
}

/// What one sweep job hands back besides its values.
struct JobInfo {
    secs: f64,
    captures: Vec<(usize, u64)>,
    fell_back: u64,
}

/// The traced twin of [`gmap_bench::run_figure`].
pub fn run_figure_traced(
    t: &Tracer,
    fig: &Figure,
    opts: &RunOpts,
    counts: &mut SweepCounts,
) -> SweepSummary {
    t.scope("harness.figure", fig.id, || {
        let names: Vec<&str> = workloads::NAMES.to_vec();
        let data: Vec<Arc<BenchData>> = t.scope("harness.prepare", fig.id, || {
            let parent = Tracer::current();
            parallel_map(&names, opts.threads, |name| {
                t.scope_under(parent, "harness.prepare_one", name, || {
                    Arc::new(prepare_traced(t, name, opts.seed))
                })
            })
        });
        for d in &data {
            counts.exec_accesses += accesses(&d.orig_streams);
            counts.generate_accesses += accesses(&d.proxy_streams);
        }

        let configs = &fig.configs;
        let parts: Option<Vec<Part>> = t.scope("bench.plan", fig.id, || {
            engine::plan_single_pass(configs, fig.metric)?;
            let mut by_kind: BTreeMap<EvalKind, Vec<usize>> = BTreeMap::new();
            for (i, c) in configs.iter().enumerate() {
                by_kind
                    .entry(EvalKind::of(c, fig.metric))
                    .or_default()
                    .push(i);
            }
            Some(
                by_kind
                    .into_iter()
                    .map(|(kind, indices)| {
                        let sub: Vec<SimtConfig> = indices.iter().map(|&i| configs[i]).collect();
                        let plan = engine::plan_single_pass(&sub, fig.metric)
                            .expect("a subset of a single-pass grid is single-pass");
                        Part {
                            kind,
                            indices,
                            configs: sub,
                            plan,
                        }
                    })
                    .collect(),
            )
        });

        // (benchmark, lo, hi) jobs exactly as run_figure cuts them.
        let jobs: Vec<(usize, usize, usize)> = match &parts {
            Some(_) => (0..data.len()).map(|b| (b, 0, configs.len())).collect(),
            None => {
                let chunk = configs.len().div_ceil(4).max(1);
                let mut jobs = Vec::new();
                for b in 0..data.len() {
                    let mut lo = 0;
                    while lo < configs.len() {
                        let hi = (lo + chunk).min(configs.len());
                        jobs.push((b, lo, hi));
                        lo = hi;
                    }
                }
                jobs
            }
        };

        let sweep_t0 = Instant::now();
        let results: Vec<(Vec<(f64, f64)>, JobInfo)> = t.scope("harness.sweep", fig.id, || {
            let parent = Tracer::current();
            parallel_map(&jobs, opts.threads, |&(b, lo, hi)| {
                let d = &data[b];
                let job_t0 = Instant::now();
                let mut info = JobInfo {
                    secs: 0.0,
                    captures: Vec::new(),
                    fell_back: 0,
                };
                let values =
                    t.scope_under(parent, "harness.job", &d.kernel.name, || match &parts {
                        Some(parts) => {
                            let reference = &parts[0].plan.capture_cfg;
                            let mut capture = |proxy: bool| -> Arc<CapturedStream> {
                                let c = t.scope("bench.capture", &d.kernel.name, || {
                                    let (streams, launch) = if proxy {
                                        (&d.proxy_streams, &d.profile.launch)
                                    } else {
                                        (&d.orig_streams, &d.kernel.launch)
                                    };
                                    engine::capture_stream_cached(
                                        &d.capture_source(proxy),
                                        streams,
                                        launch,
                                        reference,
                                    )
                                });
                                info.captures
                                    .push((Arc::as_ptr(&c) as usize, c.accesses.len() as u64));
                                c
                            };
                            let orig = capture(false);
                            let proxy = capture(true);
                            let mut values = vec![(0.0, 0.0); configs.len()];
                            for part in parts {
                                let eval = |c: &CapturedStream| {
                                    t.scope(part.kind.span(), &d.kernel.name, || {
                                        engine::eval_captured(&part.plan, c, &part.configs)
                                    })
                                };
                                let o = eval(&orig);
                                let p = eval(&proxy);
                                info.fell_back += u64::from(o.fell_back) + u64::from(p.fell_back);
                                for (k, &i) in part.indices.iter().enumerate() {
                                    values[i] = (o.values[k], p.values[k]);
                                }
                            }
                            values
                        }
                        None => configs[lo..hi]
                            .iter()
                            .map(|cfg| {
                                let sim = |streams: &[WarpStream], launch: &LaunchConfig| {
                                    t.scope("core.simulate", &d.kernel.name, || {
                                        simulate_streams(streams, launch, cfg)
                                            .expect("sweep configurations are valid")
                                    })
                                };
                                let o = sim(&d.orig_streams, &d.kernel.launch);
                                let p = sim(&d.proxy_streams, &d.profile.launch);
                                (metric_of(fig.metric, &o), metric_of(fig.metric, &p))
                            })
                            .collect(),
                    });
                info.secs = job_t0.elapsed().as_secs_f64();
                (values, info)
            })
        });
        counts.sweep_wall_s += sweep_t0.elapsed().as_secs_f64();
        counts.longest_job_s += results
            .iter()
            .map(|(_, info)| info.secs)
            .fold(0.0, f64::max);

        let mut orig = vec![vec![0.0f64; configs.len()]; names.len()];
        let mut proxy = vec![vec![0.0f64; configs.len()]; names.len()];
        for (&(b, lo, _), (values, info)) in jobs.iter().zip(results) {
            for (k, (o, p)) in values.into_iter().enumerate() {
                orig[b][lo + k] = o;
                proxy[b][lo + k] = p;
            }
            counts.fell_back += info.fell_back;
            for (ptr, len) in info.captures {
                if counts.captures.insert(ptr) {
                    counts.capture_accesses += len;
                }
            }
        }
        let comparisons: Vec<BenchmarkComparison> = names
            .iter()
            .enumerate()
            .map(|(b, name)| {
                compare_series(
                    name,
                    std::mem::take(&mut orig[b]),
                    std::mem::take(&mut proxy[b]),
                )
            })
            .collect();
        summarize(comparisons)
    })
}

/// The compared metric of one simulation, in percent.
pub fn metric_of(metric: Metric, out: &gmap_core::SimOutcome) -> f64 {
    match metric {
        Metric::L1MissPct => out.l1_miss_pct(),
        Metric::L2MissPct => out.l2_miss_pct(),
    }
}

/// Runs one figure (untraced through `run_figure`, traced through its
/// twin), records it as one operation, and checks and pins its summary.
pub fn run_and_check(
    fig: &Figure,
    opts: &RunOpts,
    tracer: Option<&Tracer>,
    counts: &mut SweepCounts,
    round: &mut Round,
) -> SweepSummary {
    let t0 = Instant::now();
    let summary = match tracer {
        Some(t) => run_figure_traced(t, fig, opts, counts),
        None => run_figure(fig.title, &fig.configs, fig.metric, experiment_opts(opts)),
    };
    round.ops.push(Op {
        kind: "figure",
        ms: t0.elapsed().as_secs_f64() * 1e3,
    });
    check_summary(fig, &summary, &mut round.checks);
    round
        .pins
        .insert(format!("{}/avg_error", fig.id), summary.avg_error);
    round.pins.insert(
        format!("{}/avg_correlation", fig.id),
        summary.avg_correlation,
    );
    summary
}

/// Invariants that hold at every seed: the planner's verdict, the point
/// count, and every validation point a percentage.
pub fn check_summary(fig: &Figure, s: &SweepSummary, checks: &mut Checks) {
    let planned = engine::plan_single_pass(&fig.configs, fig.metric).is_some();
    checks.check(planned == fig.single_pass, || {
        format!(
            "{}: single-pass plan is {planned}, expected {}",
            fig.id, fig.single_pass
        )
    });
    let points = workloads::NAMES.len() * fig.configs.len();
    checks.check(s.validation_points == points, || {
        format!(
            "{}: {} validation points, expected {points}",
            fig.id, s.validation_points
        )
    });
    for b in &s.per_benchmark {
        for (o, p) in b.original.iter().zip(&b.proxy) {
            checks.check(
                (0.0..=100.0).contains(o) && (0.0..=100.0).contains(p),
                || format!("{}/{}: miss rate out of range ({o}, {p})", fig.id, b.name),
            );
        }
    }
    checks.check(
        s.avg_error.is_finite() && (-1.0..=1.0).contains(&s.avg_correlation),
        || {
            format!(
                "{}: avg_error {} / avg_correlation {} out of range",
                fig.id, s.avg_error, s.avg_correlation
            )
        },
    );
}

/// A workload that is a list of figures run back to back from a cold
/// capture cache.
pub struct SweepWorkload {
    opts: RunOpts,
    figures: Vec<Figure>,
}

impl SweepWorkload {
    /// `sweep_lru`.
    pub fn lru(opts: &RunOpts) -> SweepWorkload {
        SweepWorkload {
            opts: opts.clone(),
            figures: sweep_lru_figures(),
        }
    }

    /// `sweep_prefetch`.
    pub fn prefetch(opts: &RunOpts) -> SweepWorkload {
        SweepWorkload {
            opts: opts.clone(),
            figures: sweep_prefetch_figures(),
        }
    }
}

/// Set-up shared by the figure workloads: a warm-up pass of the first two
/// configurations of every grid, so lazy initialisation and first-touch
/// page faults are paid before the first timed round.
pub fn warm_up(figures: &[Figure], opts: &RunOpts) {
    for fig in figures {
        let head = &fig.configs[..fig.configs.len().min(2)];
        run_figure(fig.title, head, fig.metric, experiment_opts(opts));
    }
    engine::capture_cache_clear();
}

impl Workload for SweepWorkload {
    fn setup(&mut self) {
        warm_up(&self.figures, &self.opts);
    }

    fn round(&mut self, tracer: Option<&Tracer>) -> Round {
        // A sweep user starts a fresh process per figure set: every round
        // begins with an empty capture cache.
        engine::capture_cache_clear();
        let mut round = Round::default();
        let mut counts = SweepCounts::default();
        let (summaries, wall, cpu) = timed_round(tracer, || -> Vec<SweepSummary> {
            self.figures
                .iter()
                .map(|fig| run_and_check(fig, &self.opts, tracer, &mut counts, &mut round))
                .collect()
        });
        round.wall_s = wall;
        round.cpu_s = cpu;
        round.fidelity_err_pct = mean(&summaries.iter().map(|s| s.avg_error).collect::<Vec<_>>());
        round.fidelity_corr = mean(
            &summaries
                .iter()
                .map(|s| s.avg_correlation)
                .collect::<Vec<_>>(),
        );
        if tracer.is_some() {
            counts.export(&mut round.layer);
            let cache = engine::capture_cache_stats();
            round
                .layer
                .insert("bench.capture_cache_hits", cache.hits as f64);
            round
                .layer
                .insert("bench.capture_cache_misses", cache.misses as f64);
        }
        round
    }

    fn teardown(&mut self) {
        engine::capture_cache_clear();
    }
}
