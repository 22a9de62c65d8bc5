//! Golden-fidelity harness: freezes the exact metric series every figure
//! grid produces through the single-pass sweep engine, so an engine
//! refactor that silently changes a number fails loudly.
//!
//! Each figure grid gets one JSON file under `tests/golden/` holding,
//! per benchmark, the original and proxy metric series at `Scale::Tiny`,
//! seed 42. The comparison tolerance is 1e-12 — far below any modeling
//! error, so only true behavioural drift trips it (the engine is
//! deterministic; the slack covers nothing but JSON number formatting).
//!
//! One more file, `fig7_dram.json`, freezes what happens *below* the
//! caches on the Figure 7 path: per benchmark and stream, the baseline
//! simulation's cycle count, memory-trace length and MSHR counters, and
//! the DRAM metrics of the recorded trace under each of the 11
//! [`sweeps::dram_sweep`] configurations — counters exactly, averages at
//! the same 1e-12.
//!
//! `direct_plru_random.json` freezes direct simulation where no
//! single-pass evaluator reaches: every `HierarchyStats` counter and the
//! schedule cycles of each benchmark, original and clone, with a 16 or
//! 64 KB L1 under PLRU or random replacement.
//!
//! And `ingest_models.json` freezes the ingest path: the model id, pass
//! counters and per-PC verdicts `gmap-ingest` produces for seven traces
//! (lane-0 flattened and full per-thread), identically from the binary
//! and the text encoding. `ingest_evaluate.json` follows the three
//! lane-0 models `ingest_stream` uploads further: the report's heat map
//! and every per-PC field, and for three clone seeds the 15 values
//! `evaluate_profile` returns on the figure 6e LRU grid with the
//! schedule of the capture run behind them.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_fidelity
//! ```
//!
//! and review the diff like any other code change.

use gmap::bench::{engine, parallel_map, prepare, sweeps, BenchData, Metric};
use gmap::core::generate::generate_streams;
use gmap::core::model::original_streams;
use gmap::core::{cachekey, simulate_streams};
use gmap::core::{SimOutcome, SimtConfig};
use gmap::dram::{DramConfig, DramMetrics, DramSystem};
use gmap::gpu::exec::execute_kernel;
use gmap::gpu::hierarchy::LaunchConfig;
use gmap::gpu::schedule::ScheduleOutcome;
use gmap::gpu::workloads::{self, Scale};
use gmap::ingest::{lane0_entries, ArraySummary, IngestConfig, Ingestor, PcSummary};
use gmap::memsim::cache::{CacheConfig, ReplacementPolicy};
use gmap::memsim::hierarchy::{HierarchyStats, TraceCapture};
use gmap::trace::io::{write_binary, write_text, TraceEntry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 42;
const TOLERANCE: f64 = 1e-12;

/// One benchmark's frozen series: the metric per grid config, original
/// and proxy streams separately.
#[derive(Debug, Serialize, Deserialize)]
struct SeriesPair {
    original: Vec<f64>,
    proxy: Vec<f64>,
}

/// One figure grid's golden file.
#[derive(Debug, Serialize, Deserialize)]
struct GoldenFigure {
    grid: String,
    metric: String,
    scale: String,
    seed: u64,
    configs: usize,
    /// BTreeMap so the serialized file is stable under regeneration.
    benchmarks: BTreeMap<String, SeriesPair>,
}

fn golden_path(grid: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{grid}.json"))
}

/// Rewrites a golden file (`UPDATE_GOLDEN=1`).
fn store_golden<T: Serialize>(grid: &str, value: &T) {
    let path = golden_path(grid);
    std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
    let json = serde_json::to_string_pretty(value).expect("golden serializes");
    std::fs::write(&path, json + "\n").expect("golden file is writable");
}

fn load_golden<T: Deserialize>(grid: &str) -> T {
    let path = golden_path(grid);
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test --test golden_fidelity",
            path.display()
        )
    });
    serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("golden {} is corrupt: {e}", path.display()))
}

fn metric_name(metric: Metric) -> &'static str {
    match metric {
        Metric::L1MissPct => "l1_miss_pct",
        Metric::L2MissPct => "l2_miss_pct",
    }
}

/// The figure grids under golden control: `fig6 --grid a`…`d` and 6e's
/// replacement grid.
fn grids() -> Vec<(&'static str, Vec<SimtConfig>, Metric)> {
    vec![
        ("fig6a_l1", sweeps::l1_sweep(), Metric::L1MissPct),
        ("fig6b_l2", sweeps::l2_sweep(), Metric::L2MissPct),
        (
            "fig6c_l1_prefetch",
            sweeps::l1_prefetch_sweep(),
            Metric::L1MissPct,
        ),
        (
            "fig6d_l2_prefetch",
            sweeps::l2_prefetch_sweep(),
            Metric::L2MissPct,
        ),
        (
            "fig6e_replacement",
            sweeps::replacement_policy_sweep(),
            Metric::L1MissPct,
        ),
    ]
}

fn compute_figure(
    data: &[Arc<BenchData>],
    threads: usize,
    grid: &str,
    configs: &[SimtConfig],
    metric: Metric,
) -> GoldenFigure {
    let plan = engine::plan_single_pass(configs, metric)
        .unwrap_or_else(|| panic!("{grid} must plan single-pass"));
    let rows = parallel_map(data, threads, |d| {
        (
            d.kernel.name.clone(),
            SeriesPair {
                original: d.evaluate(false, configs, metric, Some(&plan)),
                proxy: d.evaluate(true, configs, metric, Some(&plan)),
            },
        )
    });
    GoldenFigure {
        grid: grid.to_string(),
        metric: metric_name(metric).to_string(),
        scale: "tiny".to_string(),
        seed: SEED,
        configs: configs.len(),
        benchmarks: rows.into_iter().collect(),
    }
}

fn assert_matches_golden(grid: &str, got: &GoldenFigure, want: &GoldenFigure) {
    assert_eq!(got.metric, want.metric, "{grid}: metric changed");
    assert_eq!(got.configs, want.configs, "{grid}: grid size changed");
    assert_eq!(got.seed, want.seed, "{grid}: seed changed");
    let got_names: Vec<&String> = got.benchmarks.keys().collect();
    let want_names: Vec<&String> = want.benchmarks.keys().collect();
    assert_eq!(got_names, want_names, "{grid}: benchmark set changed");
    for (name, got_pair) in &got.benchmarks {
        let want_pair = &want.benchmarks[name];
        for (stream, got_series, want_series) in [
            ("original", &got_pair.original, &want_pair.original),
            ("proxy", &got_pair.proxy, &want_pair.proxy),
        ] {
            assert_eq!(
                got_series.len(),
                want_series.len(),
                "{grid}/{name}/{stream}: series length changed"
            );
            for (i, (g, w)) in got_series.iter().zip(want_series).enumerate() {
                assert!(
                    (g - w).abs() <= TOLERANCE,
                    "{grid}/{name}/{stream}[{i}]: {g} drifted from golden {w} \
                     (rerun with UPDATE_GOLDEN=1 if the change is intentional)"
                );
            }
        }
    }
}

/// The harness proper: every figure grid's single-pass series, for every
/// one of the 18 benchmarks, must match the checked-in goldens bit-close.
/// With `UPDATE_GOLDEN=1` the goldens are rewritten instead.
#[test]
fn figure_series_match_goldens() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);

    let names: Vec<&str> = workloads::NAMES.to_vec();
    let data = parallel_map(&names, threads, |name| {
        Arc::new(prepare(name, Scale::Tiny, SEED))
    });

    // One capture pair per benchmark serves all five grids; fresh counts
    // keep the cross-figure reuse claim itself under golden control.
    engine::capture_cache_clear();
    for (grid, configs, metric) in grids() {
        let got = compute_figure(&data, threads, grid, &configs, metric);
        if update {
            store_golden(grid, &got);
            continue;
        }
        let want: GoldenFigure = load_golden(grid);
        assert_matches_golden(grid, &got, &want);
    }
    let stats = engine::capture_cache_stats();
    assert_eq!(
        stats.misses,
        2 * names.len() as u64,
        "every grid shares one capture pair per benchmark"
    );
    engine::capture_cache_clear();
}

/// One stream's frozen Figure 7 path: the Table 2 baseline simulation
/// with full trace capture, then the trace replayed through every DRAM
/// configuration of the sweep.
#[derive(Debug, Serialize, Deserialize)]
struct DramStream {
    cycles: u64,
    mem_trace_len: usize,
    mem_reads: u64,
    mem_writes: u64,
    mshr_merges: u64,
    mshr_full_stalls: u64,
    /// Aligned with [`GoldenDram::configs`].
    dram: Vec<DramMetrics>,
}

#[derive(Debug, Serialize, Deserialize)]
struct DramPair {
    original: DramStream,
    proxy: DramStream,
}

/// The golden file below the caches.
#[derive(Debug, Serialize, Deserialize)]
struct GoldenDram {
    scale: String,
    seed: u64,
    /// Labels of [`sweeps::dram_sweep`], in order.
    configs: Vec<String>,
    benchmarks: BTreeMap<String, DramPair>,
}

fn dram_stream(out: &SimOutcome, dram_cfgs: &[(String, DramConfig)]) -> DramStream {
    DramStream {
        cycles: out.schedule.cycles,
        mem_trace_len: out.mem_trace.len(),
        mem_reads: out.stats.mem_reads,
        mem_writes: out.stats.mem_writes,
        mshr_merges: out.stats.mshr_merges,
        mshr_full_stalls: out.stats.mshr_full_stalls,
        dram: dram_cfgs
            .iter()
            .map(|(_, d)| DramSystem::new(*d).run(&out.mem_trace))
            .collect(),
    }
}

fn assert_dram_stream_matches(what: &str, got: &DramStream, want: &DramStream) {
    let counters = |s: &DramStream| {
        (
            s.cycles,
            s.mem_trace_len,
            s.mem_reads,
            s.mem_writes,
            s.mshr_merges,
            s.mshr_full_stalls,
        )
    };
    assert_eq!(
        counters(got),
        counters(want),
        "{what}: (cycles, mem_trace_len, mem_reads, mem_writes, mshr_merges, mshr_full_stalls) drifted"
    );
    assert_eq!(got.dram.len(), want.dram.len(), "{what}: DRAM sweep size");
    for (ci, (g, w)) in got.dram.iter().zip(&want.dram).enumerate() {
        let exact = |m: &DramMetrics| (m.requests, m.reads, m.writes, m.row_hits, m.finish_cycle);
        assert_eq!(
            exact(g),
            exact(w),
            "{what}/cfg {ci}: (requests, reads, writes, row_hits, finish_cycle) drifted"
        );
        for (field, g, w) in [
            ("rbl", g.rbl, w.rbl),
            ("avg_queue_len", g.avg_queue_len, w.avg_queue_len),
            ("avg_read_latency", g.avg_read_latency, w.avg_read_latency),
            (
                "avg_write_latency",
                g.avg_write_latency,
                w.avg_write_latency,
            ),
        ] {
            assert!(
                (g - w).abs() <= TOLERANCE,
                "{what}/cfg {ci}: {field} {g} drifted from golden {w} \
                 (rerun with UPDATE_GOLDEN=1 if the change is intentional)"
            );
        }
    }
}

/// Below the caches: the MSHR file, the recorded memory trace and the
/// DRAM controller on the Figure 7 path, for all 18 benchmarks, original
/// and clone, must match `fig7_dram.json`. With `UPDATE_GOLDEN=1` the
/// file is rewritten instead.
#[test]
fn dram_replay_matches_golden() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    let dram_cfgs = sweeps::dram_sweep();
    let sim_cfg = SimtConfig {
        seed: SEED,
        ..SimtConfig::default()
    }
    .with_trace_capture(TraceCapture::Full);

    let names: Vec<&str> = workloads::NAMES.to_vec();
    let rows = parallel_map(&names, threads, |name| {
        let data = prepare(name, Scale::Tiny, SEED);
        let orig = simulate_streams(&data.orig_streams, &data.kernel.launch, &sim_cfg)
            .expect("baseline config is valid");
        let proxy = simulate_streams(&data.proxy_streams, &data.profile.launch, &sim_cfg)
            .expect("baseline config is valid");
        (
            name.to_string(),
            DramPair {
                original: dram_stream(&orig, &dram_cfgs),
                proxy: dram_stream(&proxy, &dram_cfgs),
            },
        )
    });
    let got = GoldenDram {
        scale: "tiny".to_string(),
        seed: SEED,
        configs: dram_cfgs.iter().map(|(label, _)| label.clone()).collect(),
        benchmarks: rows.into_iter().collect(),
    };

    if update {
        store_golden("fig7_dram", &got);
        return;
    }
    let want: GoldenDram = load_golden("fig7_dram");
    assert_eq!(got.seed, want.seed, "fig7_dram: seed changed");
    assert_eq!(got.configs, want.configs, "fig7_dram: DRAM sweep changed");
    let got_names: Vec<&String> = got.benchmarks.keys().collect();
    let want_names: Vec<&String> = want.benchmarks.keys().collect();
    assert_eq!(got_names, want_names, "fig7_dram: benchmark set changed");
    for (name, got_pair) in &got.benchmarks {
        let want_pair = &want.benchmarks[name];
        assert_dram_stream_matches(
            &format!("fig7_dram/{name}/original"),
            &got_pair.original,
            &want_pair.original,
        );
        assert_dram_stream_matches(
            &format!("fig7_dram/{name}/proxy"),
            &got_pair.proxy,
            &want_pair.proxy,
        );
    }
}

/// One stream's direct simulation at one L1 configuration of the
/// PLRU/random grid: every hierarchy counter and the schedule's length.
#[derive(Debug, Serialize, Deserialize)]
struct DirectRun {
    cycles: u64,
    stats: HierarchyStats,
}

#[derive(Debug, Serialize, Deserialize)]
struct DirectPair {
    /// Aligned with [`GoldenDirect::configs`].
    original: Vec<DirectRun>,
    proxy: Vec<DirectRun>,
}

/// The golden file of direct simulation under the replacement policies
/// the single-pass planner refuses.
#[derive(Debug, Serialize, Deserialize)]
struct GoldenDirect {
    scale: String,
    seed: u64,
    /// `<L1 KB>KB/<policy>`, in grid order.
    configs: Vec<String>,
    benchmarks: BTreeMap<String, DirectPair>,
}

/// The Table 2 baseline with a 16 or 64 KB, 4-way, 128 B L1 under PLRU
/// or random replacement.
fn direct_grid() -> Vec<(String, SimtConfig)> {
    let mut grid = Vec::new();
    for policy in [ReplacementPolicy::PseudoLru, ReplacementPolicy::Random] {
        for kb in [16u64, 64] {
            let mut cfg = SimtConfig {
                seed: SEED,
                ..SimtConfig::default()
            };
            cfg.hierarchy.l1 =
                CacheConfig::new(kb * 1024, 4, 128, policy).expect("grid geometry is valid");
            grid.push((format!("{kb}KB/{policy}"), cfg));
        }
    }
    grid
}

fn direct_runs(
    streams: &[gmap::gpu::schedule::WarpStream],
    launch: &LaunchConfig,
    grid: &[(String, SimtConfig)],
) -> Vec<DirectRun> {
    grid.iter()
        .map(|(_, cfg)| {
            let out = simulate_streams(streams, launch, cfg).expect("grid config is valid");
            DirectRun {
                cycles: out.schedule.cycles,
                stats: out.stats,
            }
        })
        .collect()
}

/// Direct simulation under PLRU and random L1 replacement — the path no
/// single-pass evaluator covers — for all 18 benchmarks, original and
/// clone, must match `direct_plru_random.json`: every `HierarchyStats`
/// counter and the schedule cycles exactly. With `UPDATE_GOLDEN=1` the
/// file is rewritten instead.
#[test]
fn direct_plru_random_matches_golden() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    let grid = direct_grid();
    let names: Vec<&str> = workloads::NAMES.to_vec();
    let rows = parallel_map(&names, threads, |name| {
        let data = prepare(name, Scale::Tiny, SEED);
        (
            name.to_string(),
            DirectPair {
                original: direct_runs(&data.orig_streams, &data.kernel.launch, &grid),
                proxy: direct_runs(&data.proxy_streams, &data.profile.launch, &grid),
            },
        )
    });
    let got = GoldenDirect {
        scale: "tiny".to_string(),
        seed: SEED,
        configs: grid.iter().map(|(label, _)| label.clone()).collect(),
        benchmarks: rows.into_iter().collect(),
    };
    if update {
        store_golden("direct_plru_random", &got);
        return;
    }
    let want: GoldenDirect = load_golden("direct_plru_random");
    assert_eq!(got.seed, want.seed, "direct_plru_random: seed changed");
    assert_eq!(
        got.configs, want.configs,
        "direct_plru_random: grid changed"
    );
    let got_names: Vec<&String> = got.benchmarks.keys().collect();
    let want_names: Vec<&String> = want.benchmarks.keys().collect();
    assert_eq!(
        got_names, want_names,
        "direct_plru_random: benchmark set changed"
    );
    for (name, got_pair) in &got.benchmarks {
        let want_pair = &want.benchmarks[name];
        for (stream, g, w) in [
            ("original", &got_pair.original, &want_pair.original),
            ("proxy", &got_pair.proxy, &want_pair.proxy),
        ] {
            for (ci, (g, w)) in g.iter().zip(w).enumerate() {
                let what = format!("direct_plru_random/{name}/{stream}/{}", got.configs[ci]);
                assert_eq!(g.cycles, w.cycles, "{what}: schedule cycles drifted");
                assert_eq!(g.stats, w.stats, "{what}: hierarchy counters drifted");
            }
        }
    }
}

/// One static instruction of an ingested trace, as the online classifier
/// saw it.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct IngestedPc {
    pc: u64,
    class: String,
    conditional: bool,
    instructions: u64,
    transactions: u64,
}

/// Everything pinned about one ingested trace.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct IngestedModel {
    /// `cachekey::key_of(&outcome.profile)` — the id `gmap serve` files
    /// the model under.
    model_id: String,
    entries: u64,
    skipped: u64,
    forced_drains: u64,
    peak_buffered_entries: u64,
    instructions: u64,
    transactions: u64,
    warps: u64,
    /// Hottest first, as the report lists them.
    pcs: Vec<IngestedPc>,
}

/// The golden file of the ingest path.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenIngest {
    scale: String,
    /// Size of the pieces the trace bytes are pushed in.
    piece_bytes: usize,
    /// Keyed `<workload>/lane0` or `<workload>/threads`.
    traces: BTreeMap<String, IngestedModel>,
}

const INGEST_PIECE_BYTES: usize = 64 * 1024;

fn ingest_bytes(name: &str, launch: LaunchConfig, bytes: &[u8]) -> IngestedModel {
    let mut ing = Ingestor::new(name, launch, IngestConfig::default());
    for piece in bytes.chunks(INGEST_PIECE_BYTES) {
        ing.push_bytes(piece).expect("generated traces parse");
    }
    let outcome = ing.finish().expect("generated traces profile");
    IngestedModel {
        model_id: cachekey::key_of(&outcome.profile),
        entries: outcome.stats.entries,
        skipped: outcome.stats.skipped,
        forced_drains: outcome.stats.forced_drains,
        peak_buffered_entries: outcome.stats.peak_buffered_entries,
        instructions: outcome.report.instructions,
        transactions: outcome.report.transactions,
        warps: outcome.report.warps,
        pcs: outcome
            .report
            .pcs
            .iter()
            .map(|p| IngestedPc {
                pc: p.pc,
                class: p.class.label().to_string(),
                conditional: p.conditional,
                instructions: p.instructions,
                transactions: p.transactions,
            })
            .collect(),
    }
}

/// Ingests `entries` from both encodings; the two must agree on
/// everything pinned.
fn ingest_both_formats(name: &str, launch: LaunchConfig, entries: &[TraceEntry]) -> IngestedModel {
    let mut binary = Vec::new();
    write_binary(&mut binary, entries).expect("writing to memory cannot fail");
    let mut text = Vec::new();
    write_text(&mut text, entries).expect("writing to memory cannot fail");
    let from_binary = ingest_bytes(name, launch, &binary);
    let from_text = ingest_bytes(name, launch, &text);
    assert_eq!(
        from_binary, from_text,
        "{name}: the two encodings of one trace ingest differently"
    );
    from_binary
}

/// The ingest path — chunk parser, warp reconstruction, online
/// classifier, profiler — on the trace shape `gmap clone` writes (every
/// coalesced line on lane 0 of its warp) and on full 32-lane per-thread
/// traces (bfs and lu diverge and leave ragged tails), from both
/// encodings, must match `ingest_models.json`. With `UPDATE_GOLDEN=1` the
/// file is rewritten instead.
#[test]
fn ingested_models_match_golden() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut traces = BTreeMap::new();
    for name in ["kmeans", "hotspot", "bfs", "lu"] {
        let kernel = workloads::by_name(name, Scale::Tiny).expect("builtin workload");
        let launch = LaunchConfig::new(
            kernel.launch.num_blocks(),
            kernel.launch.threads_per_block(),
        );
        if name != "lu" {
            let entries = lane0_entries(&original_streams(&kernel), &launch);
            let model = ingest_both_formats(name, launch, &entries);
            traces.insert(format!("{name}/lane0"), model);
        }
        let entries = execute_kernel(&kernel).thread_entries();
        let model = ingest_both_formats(name, launch, &entries);
        traces.insert(format!("{name}/threads"), model);
    }
    let got = GoldenIngest {
        scale: "tiny".to_string(),
        piece_bytes: INGEST_PIECE_BYTES,
        traces,
    };
    if update {
        store_golden("ingest_models", &got);
        return;
    }
    let want: GoldenIngest = load_golden("ingest_models");
    let got_names: Vec<&String> = got.traces.keys().collect();
    let want_names: Vec<&String> = want.traces.keys().collect();
    assert_eq!(got_names, want_names, "ingest_models: trace set changed");
    for (what, got_model) in &got.traces {
        assert_eq!(
            got_model, &want.traces[what],
            "ingest_models/{what} drifted from golden \
             (rerun with UPDATE_GOLDEN=1 if the change is intentional)"
        );
    }
    assert_eq!(got.piece_bytes, want.piece_bytes);
}

/// One clone of an ingested model, evaluated as `/v1/evaluate` does.
#[derive(Debug, Serialize, Deserialize)]
struct CloneEvaluation {
    seed: u64,
    /// What `evaluate_profile` returns on [`sweeps::policy_l1_sweep`],
    /// L1 miss %.
    values: Vec<f64>,
    /// The schedule of the run the grid was captured from.
    schedule: ScheduleOutcome,
}

/// Everything pinned downstream of one ingested lane-0 trace.
#[derive(Debug, Serialize, Deserialize)]
struct IngestedEvaluation {
    page_bytes: u64,
    arrays: Vec<ArraySummary>,
    pcs: Vec<PcSummary>,
    clones: Vec<CloneEvaluation>,
}

/// The golden file of what follows an ingested model.
#[derive(Debug, Serialize, Deserialize)]
struct GoldenIngestEvaluate {
    scale: String,
    piece_bytes: usize,
    /// Keyed by workload.
    traces: BTreeMap<String, IngestedEvaluation>,
}

/// `ingest_stream`'s uploads — the kmeans, hotspot and bfs lane-0 traces
/// at Tiny, binary, pushed in 64 KiB pieces — must report the heat map
/// and per-PC summaries in `ingest_evaluate.json`, and their models'
/// clones (seeds 42, 43, 44) must evaluate and schedule as it records.
/// With `UPDATE_GOLDEN=1` the file is rewritten instead.
#[test]
fn ingested_models_evaluate_as_golden() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let configs = sweeps::policy_l1_sweep();
    let plan = engine::plan_single_pass(&configs, Metric::L1MissPct)
        .expect("the figure 6e LRU grid plans single-pass");
    let mut traces = BTreeMap::new();
    for name in ["kmeans", "hotspot", "bfs"] {
        let kernel = workloads::by_name(name, Scale::Tiny).expect("builtin workload");
        let launch = kernel.launch;
        let mut binary = Vec::new();
        write_binary(
            &mut binary,
            &lane0_entries(&original_streams(&kernel), &launch),
        )
        .expect("writing to memory cannot fail");
        let mut ing = Ingestor::new(name, launch, IngestConfig::default());
        for piece in binary.chunks(INGEST_PIECE_BYTES) {
            ing.push_bytes(piece).expect("generated traces parse");
        }
        let outcome = ing.finish().expect("generated traces profile");
        let profile = &outcome.profile;
        // `evaluate_profile`'s steps, bypassing its process-wide capture
        // cache: `figure_series_match_goldens` counts that cache's misses
        // and may run beside this test.
        let clones = (SEED..SEED + 3)
            .map(|seed| {
                let clone = generate_streams(profile, seed);
                let capture = engine::capture_stream(&clone, &profile.launch, &plan.capture_cfg);
                CloneEvaluation {
                    seed,
                    values: engine::eval_captured(&plan, &capture, &configs).values,
                    schedule: capture.schedule,
                }
            })
            .collect();
        traces.insert(
            name.to_string(),
            IngestedEvaluation {
                page_bytes: outcome.report.page_bytes,
                arrays: outcome.report.arrays,
                pcs: outcome.report.pcs,
                clones,
            },
        );
    }
    let got = GoldenIngestEvaluate {
        scale: "tiny".to_string(),
        piece_bytes: INGEST_PIECE_BYTES,
        traces,
    };
    if update {
        store_golden("ingest_evaluate", &got);
        return;
    }
    let want: GoldenIngestEvaluate = load_golden("ingest_evaluate");
    assert_eq!(got.piece_bytes, want.piece_bytes);
    let got_names: Vec<&String> = got.traces.keys().collect();
    let want_names: Vec<&String> = want.traces.keys().collect();
    assert_eq!(got_names, want_names, "ingest_evaluate: trace set changed");
    for (name, g) in &got.traces {
        let w = &want.traces[name];
        let what = format!("ingest_evaluate/{name}");
        assert_eq!(g.page_bytes, w.page_bytes, "{what}: heat page size drifted");
        assert_eq!(g.arrays, w.arrays, "{what}: heat map drifted");
        assert_eq!(g.pcs, w.pcs, "{what}: per-PC summaries drifted");
        assert_eq!(
            g.clones.len(),
            w.clones.len(),
            "{what}: clone seeds changed"
        );
        for (gc, wc) in g.clones.iter().zip(&w.clones) {
            let what = format!("{what}/seed {}", gc.seed);
            assert_eq!(gc.seed, wc.seed, "{what}: seed changed");
            assert_eq!(gc.values.len(), wc.values.len(), "{what}: grid changed");
            for (i, (a, b)) in gc.values.iter().zip(&wc.values).enumerate() {
                assert!(
                    (a - b).abs() <= TOLERANCE,
                    "{what}[{i}]: {a} drifted from golden {b} \
                     (rerun with UPDATE_GOLDEN=1 if the change is intentional)"
                );
            }
            let (gs, ws) = (&gc.schedule, &wc.schedule);
            assert_eq!(
                (gs.cycles, gs.issued_accesses, gs.issued_transactions),
                (ws.cycles, ws.issued_accesses, ws.issued_transactions),
                "{what}: capture schedule drifted"
            );
            assert_eq!(
                gs.per_core_issues, ws.per_core_issues,
                "{what}: per-core issues drifted"
            );
            assert!(
                (gs.sched_p_self - ws.sched_p_self).abs() <= TOLERANCE,
                "{what}: SchedP_self {} drifted from golden {}",
                gs.sched_p_self,
                ws.sched_p_self
            );
        }
    }
}
