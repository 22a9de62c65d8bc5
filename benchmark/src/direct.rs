//! `sim_direct`: the oracle path — full simulation per configuration,
//! DRAM replay, and miniaturized clones. `memsim::hierarchy/cache/mshr`,
//! `dram` and `core::miniaturize` do the work and `stackdist` does none,
//! so a stack-distance gain that costs `Cache` shows here.
//!
//! Part (i) is a figure through `run_figure` whose grid the planner must
//! refuse (PLRU and random replacement). Parts (ii) and (iii) follow the
//! `fig7` and `fig8` binaries, whose logic lives in their `main` and is
//! therefore repeated here over the same library calls.

use crate::common::{timed_round, Op, Round, RunOpts, Workload};
use crate::span::{traced, traced_under, Tracer};
use crate::sweeps::{self, prepare_traced, Figure, SweepCounts, SCALE};
use gmap_bench::{parallel_map, prepare, sweeps as grids, BenchData, Metric};
use gmap_core::generate::{expected_accesses, generate_streams};
use gmap_core::{miniaturize, simulate_streams, SimOutcome, SimtConfig};
use gmap_dram::{DramConfig, DramMetrics, DramRequest, DramSystem};
use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::schedule::WarpStream;
use gmap_gpu::workloads;
use gmap_memsim::cache::{CacheConfig, ReplacementPolicy};
use gmap_memsim::hierarchy::{MemRequest, TraceCapture};
use gmap_trace::stats::{self as tstats, mean};
use std::time::Instant;

/// L1 sizes of the direct grid, each at 4 ways and 128 B lines, crossed
/// with the two policies the single-pass planner cannot take. The issue
/// sized this at 12 points at `Scale::Small`; 4 keep the part under a
/// second at the scale the time cap allows.
const DIRECT_L1_KB: [u64; 2] = [16, 64];

/// The direct-simulation grid.
pub fn direct_grid() -> Figure {
    let mut configs = Vec::new();
    for policy in [ReplacementPolicy::PseudoLru, ReplacementPolicy::Random] {
        for size_kb in DIRECT_L1_KB {
            let mut cfg = SimtConfig::default();
            cfg.hierarchy.l1 = CacheConfig::new(size_kb * 1024, 4, 128, policy)
                .expect("direct grid geometry is valid");
            configs.push(cfg);
        }
    }
    Figure {
        id: "fig6x_plru_random",
        title: "L1 sweep under PLRU and random replacement (direct simulation)",
        configs,
        metric: Metric::L1MissPct,
        single_pass: false,
    }
}

fn prepare_maybe(tracer: Option<&Tracer>, name: &str, seed: u64) -> BenchData {
    match tracer {
        Some(t) => prepare_traced(t, name, seed),
        None => prepare(name, SCALE, seed),
    }
}

fn simulate(
    tracer: Option<&Tracer>,
    name: &str,
    streams: &[WarpStream],
    launch: &LaunchConfig,
    cfg: &SimtConfig,
) -> SimOutcome {
    traced(tracer, "core.simulate", name, || {
        simulate_streams(streams, launch, cfg).expect("baseline configuration is valid")
    })
}

/// Figure 7's three metrics of one DRAM run.
fn triplet(m: &DramMetrics) -> [f64; 3] {
    [m.rbl, m.avg_queue_len, m.avg_latency()]
}

/// What the fig7 part hands to the round.
struct DramPart {
    /// Mean relative error in percent of RBL, queue length and latency.
    err_pct: [f64; 3],
    /// Pearson correlation of each.
    corr: [f64; 3],
    requests: u64,
    rbl_mean: f64,
}

fn replay(
    tracer: Option<&Tracer>,
    name: &str,
    trace: &[MemRequest],
    cfg: &DramConfig,
) -> DramMetrics {
    let reqs: Vec<DramRequest> = trace
        .iter()
        .map(|m| DramRequest {
            cycle: m.cycle,
            addr: m.addr,
            kind: m.kind,
        })
        .collect();
    traced(tracer, "dram.run", name, || {
        DramSystem::new(*cfg).run(&reqs)
    })
}

/// Figure 7: baseline simulation with full trace capture, then the 11
/// GDDR5 configurations for original and clone, normalised per
/// configuration to the original AES as the paper does.
fn dram_part(opts: &RunOpts, tracer: Option<&Tracer>, round: &mut Round) -> DramPart {
    let dram_cfgs = grids::dram_sweep();
    let sim_cfg = SimtConfig {
        seed: opts.seed,
        ..SimtConfig::default()
    }
    .with_trace_capture(TraceCapture::Full);
    let names: Vec<&str> = workloads::NAMES.to_vec();
    let parent = Tracer::current();
    let results: Vec<Vec<(DramMetrics, DramMetrics, usize, usize)>> =
        parallel_map(&names, opts.threads.min(4), |name| {
            traced_under(tracer, parent, "harness.job", name, || {
                let data = prepare_maybe(tracer, name, opts.seed);
                let orig = simulate(
                    tracer,
                    name,
                    &data.orig_streams,
                    &data.kernel.launch,
                    &sim_cfg,
                );
                let proxy = simulate(
                    tracer,
                    name,
                    &data.proxy_streams,
                    &data.profile.launch,
                    &sim_cfg,
                );
                dram_cfgs
                    .iter()
                    .map(|(_, d)| {
                        (
                            replay(tracer, name, &orig.mem_trace, d),
                            replay(tracer, name, &proxy.mem_trace, d),
                            orig.mem_trace.len(),
                            proxy.mem_trace.len(),
                        )
                    })
                    .collect()
            })
        });

    let aes = names
        .iter()
        .position(|&n| n == "aes")
        .expect("aes is a benchmark");
    let aes_norm: Vec<[f64; 3]> = results[aes].iter().map(|(o, ..)| triplet(o)).collect();
    let norm = |m: &DramMetrics, ci: usize| -> [f64; 3] {
        let t = triplet(m);
        std::array::from_fn(|k| {
            let base = aes_norm[ci][k];
            if base.abs() < 1e-9 {
                t[k]
            } else {
                t[k] / base
            }
        })
    };
    let mut all_orig: [Vec<f64>; 3] = Default::default();
    let mut all_proxy: [Vec<f64>; 3] = Default::default();
    let mut part = DramPart {
        err_pct: [0.0; 3],
        corr: [0.0; 3],
        requests: 0,
        rbl_mean: 0.0,
    };
    let mut rbls = Vec::new();
    for (b, per_cfg) in results.iter().enumerate() {
        for (ci, (o, p, o_len, p_len)) in per_cfg.iter().enumerate() {
            round.checks.check(
                o.requests as usize == *o_len && p.requests as usize == *p_len,
                || {
                    format!(
                        "fig7/{}: DRAM served {} of {o_len} requests",
                        names[b], o.requests
                    )
                },
            );
            round.checks.check(
                triplet(o).iter().chain(&triplet(p)).all(|v| v.is_finite())
                    && (0.0..=1.0).contains(&o.rbl)
                    && (0.0..=1.0).contains(&p.rbl),
                || format!("fig7/{}: DRAM metric out of range", names[b]),
            );
            part.requests += o.requests + p.requests;
            rbls.push(o.rbl);
            let (no, np) = (norm(o, ci), norm(p, ci));
            for k in 0..3 {
                all_orig[k].push(no[k]);
                all_proxy[k].push(np[k]);
            }
        }
    }
    part.rbl_mean = mean(&rbls);
    for k in 0..3 {
        part.err_pct[k] = 100.0 * tstats::mean_rel_error(&all_orig[k], &all_proxy[k]);
        part.corr[k] = tstats::pearson(&all_orig[k], &all_proxy[k]);
    }
    for (k, what) in ["rbl", "queue", "latency"].iter().enumerate() {
        round
            .pins
            .insert(format!("fig7/err_pct_{what}"), part.err_pct[k]);
        round.pins.insert(format!("fig7/corr_{what}"), part.corr[k]);
    }
    part
}

/// Figure 8: the clone miniaturized 1×–16×; returns the mean absolute L1
/// miss-rate error in percentage points per factor.
fn mini_part(opts: &RunOpts, tracer: Option<&Tracer>, round: &mut Round) -> Vec<f64> {
    let factors = grids::miniaturization_factors();
    let cfg = SimtConfig {
        seed: opts.seed,
        ..SimtConfig::default()
    };
    let names: Vec<&str> = workloads::NAMES.to_vec();
    let parent = Tracer::current();
    // Per benchmark: original miss %, then (clone miss %, accesses) per factor.
    let rows: Vec<(f64, Vec<(f64, u64)>)> = parallel_map(&names, opts.threads, |name| {
        traced_under(tracer, parent, "harness.job", name, || {
            let data = prepare_maybe(tracer, name, opts.seed);
            let orig = simulate(tracer, name, &data.orig_streams, &data.kernel.launch, &cfg);
            let per_factor = factors
                .iter()
                .map(|&f| {
                    let mini = traced(tracer, "core.miniaturize", name, || {
                        miniaturize(&data.profile, f).expect("factor is valid")
                    });
                    let streams = traced(tracer, "core.generate", name, || {
                        generate_streams(&mini, opts.seed)
                    });
                    let out = simulate(tracer, name, &streams, &mini.launch, &cfg);
                    (out.l1_miss_pct(), expected_accesses(&mini))
                })
                .collect();
            (orig.l1_miss_pct(), per_factor)
        })
    });
    let mut errs = Vec::new();
    for (fi, factor) in factors.iter().enumerate() {
        let per_bench: Vec<f64> = rows
            .iter()
            .map(|(orig, per)| (orig - per[fi].0).abs())
            .collect();
        let err = mean(&per_bench);
        round.pins.insert(format!("fig8/err_pp_x{factor}"), err);
        errs.push(err);
    }
    for (b, (orig, per)) in rows.iter().enumerate() {
        round.checks.check(
            (0.0..=100.0).contains(orig) && per.iter().all(|(m, _)| (0.0..=100.0).contains(m)),
            || format!("fig8/{}: miss rate out of range", names[b]),
        );
        round
            .checks
            .check(per.windows(2).all(|w| w[1].1 <= w[0].1), || {
                format!("fig8/{}: clone does not shrink with the factor", names[b])
            });
    }
    errs
}

/// The `sim_direct` workload.
pub struct DirectWorkload {
    opts: RunOpts,
    grid: Figure,
}

impl DirectWorkload {
    /// The workload for one run.
    pub fn new(opts: &RunOpts) -> DirectWorkload {
        DirectWorkload {
            opts: opts.clone(),
            grid: direct_grid(),
        }
    }

    fn parts(
        &self,
        tracer: Option<&Tracer>,
        round: &mut Round,
        counts: &mut SweepCounts,
    ) -> (f64, f64) {
        let grid = sweeps::run_and_check(&self.grid, &self.opts, tracer, counts, round);
        let dram = figure_op(tracer, "fig7_dram", round, |r| {
            dram_part(&self.opts, tracer, r)
        });
        let mini = figure_op(tracer, "fig8_miniaturize", round, |r| {
            mini_part(&self.opts, tracer, r)
        });
        if tracer.is_some() {
            round.layer.insert("dram.requests", dram.requests as f64);
            round.layer.insert("dram.rbl_mean", dram.rbl_mean);
        }
        // Percentage points for the miss-rate parts, percent for fig7's
        // relative errors: the issue defines the workload's figure as the
        // mean over its parts as each reports itself.
        let err = mean(&[grid.avg_error, mean(&dram.err_pct), mean(&mini)]);
        let corr = mean(&[grid.avg_correlation, mean(&dram.corr)]);
        (err, corr)
    }
}

/// Runs one figure-shaped part as an operation of the round.
fn figure_op<R>(
    tracer: Option<&Tracer>,
    id: &str,
    round: &mut Round,
    f: impl FnOnce(&mut Round) -> R,
) -> R {
    let t0 = Instant::now();
    let out = traced(tracer, "harness.figure", id, || f(round));
    round.ops.push(Op {
        kind: "figure",
        ms: t0.elapsed().as_secs_f64() * 1e3,
    });
    out
}

impl Workload for DirectWorkload {
    fn setup(&mut self) {
        sweeps::warm_up(std::slice::from_ref(&self.grid), &self.opts);
    }

    fn round(&mut self, tracer: Option<&Tracer>) -> Round {
        let mut round = Round::default();
        let mut counts = SweepCounts::default();
        let ((err, corr), wall, cpu) =
            timed_round(tracer, || self.parts(tracer, &mut round, &mut counts));
        round.wall_s = wall;
        round.cpu_s = cpu;
        round.fidelity_err_pct = err;
        round.fidelity_corr = corr;
        if tracer.is_some() {
            counts.export(&mut round.layer);
        }
        round
    }

    fn teardown(&mut self) {}
}
