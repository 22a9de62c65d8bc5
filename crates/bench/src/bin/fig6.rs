//! Regenerates Figure 6: error in cache miss rates between original
//! applications and G-MAP proxies across the paper's configuration grids.
//! `--grid` picks one; the default `all` runs the five back to back.
//!
//! * **a** — 30 L1 configurations per benchmark (size 8–128 KB,
//!   associativity 1–16, line size 32–128 B). Paper: average error 5.1 %,
//!   correlation 0.91.
//! * **b** — 30 L2 configurations (size 128 KB–4 MB, associativity 1–16,
//!   line size 64–128 B). Paper: 7.1 %, 0.91.
//! * **c** — 72 L1 + many-thread-aware per-PC stride prefetcher
//!   configurations (degree, distance, table size, L1 geometry). Paper:
//!   6.3 %, 0.90; scalarProd and srad stay insensitive to prefetching
//!   (large footprints, low temporal locality) while kmeans and nw
//!   benefit.
//! * **d** — 96 L2 + stream prefetcher configurations (window 8/16/32,
//!   degree 1/2/4/8, L2 geometry). Paper: 8.9 %, 0.88.
//! * **e** — warp scheduling policies, loose round-robin (LRR) and
//!   greedy-then-oldest (GTO), over a 15-config L1 grid, and that grid
//!   crossed with LRU/FIFO replacement. G-MAP does not model the core, so
//!   the proxy replays GTO through the `SchedP_self` statistic (§4.5):
//!   the measured probability of scheduling the same warp consecutively,
//!   replayed by the parametric `SelfProb` policy. LRR is replayed
//!   directly. Paper: average L1 miss-rate error 8 % (5.1 % for LRR,
//!   10.9 % for GTO).
//!
//! Every grid varies one cache level and that level's prefetcher, so the
//! single-pass sweep engine covers all of them, and all of them mask to
//! the same reference configuration (Table 2 baseline, LRR): the
//! benchmarks are prepared once and each stream is captured once for the
//! whole run. Only 6e's GTO section captures under a policy of its own.
//! 6e's LRR grid and its replacement grid's LRU half are 6a's 128 B
//! group, which each capture's memo answers after 6a.

use gmap_bench::{
    engine, parallel_map, prepare_all, print_header, run_figure_on, sweep_grid, sweeps, BenchData,
    ExperimentOpts, Metric,
};
use gmap_core::{compare_series, summarize, SimtConfig, SweepSummary};
use gmap_gpu::schedule::Policy;
use std::sync::Arc;

const GRID_HELP: &str = "  --grid a|b|c|d|e|all         which Figure 6 grid to run (default: all);
                               --csv PATH gets the grid letter before its
                               extension (fig6.csv -> fig6a.csv; 6e writes none)
";

/// Grids a–d: one `run_figure_on` each.
type Grid = (char, &'static str, fn() -> Vec<SimtConfig>, Metric);
const GRIDS: [Grid; 4] = [
    (
        'a',
        "Figure 6a: L1 cache configurations (paper: avg err 5.1%, corr 0.91)",
        sweeps::l1_sweep,
        Metric::L1MissPct,
    ),
    (
        'b',
        "Figure 6b: L2 cache configurations (paper: avg err 7.1%, corr 0.91)",
        sweeps::l2_sweep,
        Metric::L2MissPct,
    ),
    (
        'c',
        "Figure 6c: L1 cache + stride prefetcher (paper: avg err 6.3%, corr 0.90)",
        sweeps::l1_prefetch_sweep,
        Metric::L1MissPct,
    ),
    (
        'd',
        "Figure 6d: L2 cache + stream prefetcher (paper: avg err 8.9%, corr 0.88)",
        sweeps::l2_prefetch_sweep,
        Metric::L2MissPct,
    ),
];

/// The grid letters `--grid VALUE` selects, in figure order.
fn selected(value: &str) -> Result<Vec<char>, String> {
    match value {
        "all" => Ok("abcde".chars().collect()),
        "a" | "b" | "c" | "d" | "e" => Ok(value.chars().collect()),
        _ => Err(format!("--grid takes a, b, c, d, e or all, not `{value}`")),
    }
}

/// `path` with the grid letter before its extension.
fn lettered(path: &str, letter: char) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) if !ext.contains('/') => format!("{stem}{letter}.{ext}"),
        _ => format!("{path}{letter}"),
    }
}

/// Runs one grid over the prepared benchmarks and returns its summaries
/// (one for a–d; LRR, GTO and replacement for e).
fn run_grid(letter: char, data: &[Arc<BenchData>], opts: &ExperimentOpts) -> Vec<SweepSummary> {
    match GRIDS.iter().find(|g| g.0 == letter) {
        Some(&(_, title, configs, metric)) => {
            let opts = ExperimentOpts {
                csv: opts.csv.as_deref().map(|p| lettered(p, letter)),
                ..opts.clone()
            };
            vec![run_figure_on(data, title, &configs(), metric, &opts)]
        }
        None => fig6e(data, opts),
    }
}

fn fig6e(data: &[Arc<BenchData>], opts: &ExperimentOpts) -> Vec<SweepSummary> {
    let configs = sweeps::policy_l1_sweep();
    let plan = engine::plan_single_pass(&configs, Metric::L1MissPct)
        .expect("the policy sweep is pure-LRU and single-pass");
    print_header(
        "Figure 6e: scheduling policies (paper: avg err 8%; LRR 5.1%, GTO 10.9%)",
        configs.len() * 2,
        opts,
    );

    // LRR is the reference policy every stock plan captures under, so
    // this section is an ordinary planned grid over the shared captures.
    let lrr = sweep_grid(data, &configs, Metric::L1MissPct, Some(&plan), opts.threads);
    println!("--- policy {} ---", Policy::Lrr);
    println!("{lrr}\n");

    // GTO: the original runs under the true policy and its capture
    // measures SchedP_self at the reference configuration; the proxy
    // replays that probability. Both captures have this one user, so they
    // stay out of the capture cache.
    let gto = summarize(parallel_map(data, opts.threads, |d| {
        let mut ocfg = plan.capture_cfg;
        ocfg.policy = Policy::Gto;
        let orig = engine::capture_stream(&d.orig_streams, &d.kernel.launch, &ocfg);
        let mut pcfg = plan.capture_cfg;
        pcfg.policy = Policy::SelfProb(orig.schedule.sched_p_self);
        let proxy = engine::capture_stream(&d.proxy_streams, &d.profile.launch, &pcfg);
        compare_series(
            &d.kernel.name,
            engine::eval_captured(&plan, &orig, &configs).values,
            engine::eval_captured(&plan, &proxy, &configs).values,
        )
    }));
    println!("--- policy {} ---", Policy::Gto);
    println!("{gto}\n");

    // Replacement-policy grid: the same L1 geometries crossed with LRU
    // and FIFO, evaluated under the default (LRR) scheduler.
    let rp_configs = sweeps::replacement_policy_sweep();
    let rp_plan = engine::plan_single_pass(&rp_configs, Metric::L1MissPct)
        .expect("the replacement grid is LRU/FIFO and single-pass");
    let replacement = sweep_grid(
        data,
        &rp_configs,
        Metric::L1MissPct,
        Some(&rp_plan),
        opts.threads,
    );
    println!("--- replacement policies (LRU + FIFO, LRR scheduler) ---");
    println!("{replacement}");
    let cache = engine::capture_cache_stats();
    println!(
        "capture cache: {} hits / {} misses, bundles {} reused / {} prepared, \
         {} groups from memo in this process",
        cache.hits, cache.misses, cache.bundle_hits, cache.bundle_misses, cache.memo_groups
    );
    vec![lrr, gto, replacement]
}

fn main() {
    let mut letters = selected("all").expect("the default is valid");
    let opts = ExperimentOpts::from_args_with(GRID_HELP, |flag, value| {
        if flag != "--grid" {
            return Ok(false);
        }
        letters = selected(value)?;
        Ok(true)
    });
    let data = prepare_all(&opts);
    for (i, letter) in letters.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        run_grid(letter, &data, &opts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmap_bench::prepare;
    use gmap_gpu::workloads::Scale;

    #[test]
    fn grid_selection_and_csv_naming() {
        assert_eq!(selected("all"), Ok(vec!['a', 'b', 'c', 'd', 'e']));
        assert_eq!(selected("d"), Ok(vec!['d']));
        for bad in ["f", "ab", "A", ""] {
            assert!(selected(bad).is_err(), "{bad:?}");
        }
        assert_eq!(lettered("results/fig6.csv", 'a'), "results/fig6a.csv");
        assert_eq!(lettered("out.d/series", 'c'), "out.d/seriesc");
    }

    /// The whole point of one binary: grids share one capture pair per
    /// benchmark, and sharing changes no value.
    #[test]
    fn grids_share_the_reference_captures_and_sharing_changes_no_value() {
        let opts = ExperimentOpts {
            scale: Scale::Tiny,
            seed: 42,
            threads: 2,
            csv: None,
        };
        let data: Vec<Arc<BenchData>> = ["scalarprod", "bfs", "aes"]
            .iter()
            .map(|name| Arc::new(prepare(name, opts.scale, opts.seed)))
            .collect();
        let letters = selected("all").expect("valid");

        let alone: Vec<Vec<SweepSummary>> = letters
            .iter()
            .map(|&l| {
                engine::capture_cache_clear();
                run_grid(l, &data, &opts)
            })
            .collect();

        engine::capture_cache_clear();
        let together: Vec<Vec<SweepSummary>> =
            letters.iter().map(|&l| run_grid(l, &data, &opts)).collect();
        assert_eq!(alone, together);

        // 6a captures each stream once; 6b, 6c, 6d, 6e's LRR section and
        // its replacement section find those captures; 6e's GTO section
        // neither looks nor inserts. On each capture, 6e's LRR grid and
        // its replacement grid's LRU half are 6a's 128 B group, answered
        // from the capture's memo.
        let stats = engine::capture_cache_stats();
        let streams = 2 * data.len() as u64;
        assert_eq!((stats.misses, stats.hits), (streams, 5 * streams));
        assert_eq!(stats.entries as u64, streams);
        assert_eq!(stats.memo_groups, 2 * streams);
    }
}
