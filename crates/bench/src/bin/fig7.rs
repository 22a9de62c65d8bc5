//! Regenerates Figure 7: DRAM performance of clones vs originals across
//! 11 GDDR5 configurations per benchmark — row-buffer locality (RBL),
//! average memory-controller queue length, and average read/write latency,
//! each normalized to original AES's value as in the paper.
//!
//! Paper result: average error 9.95 % (RBL), 8.64 % (queue length),
//! 12.6 % (read-write latency); average correlation 0.85.

use gmap_bench::{parallel_map, prepare, sweeps, ExperimentOpts};
use gmap_core::SimtConfig;
use gmap_dram::{DramMetrics, DramSystem};
use gmap_gpu::workloads;
use gmap_memsim::hierarchy::TraceCapture;
use gmap_trace::stats;

fn main() {
    let opts = ExperimentOpts::from_args();
    let dram_cfgs = sweeps::dram_sweep();
    println!(
        "=== Figure 7: DRAM metrics across {} GDDR5 configs ===",
        dram_cfgs.len()
    );
    println!("(paper: avg err RBL 9.95%, queue 8.64%, latency 12.6%; corr 0.85)\n");

    // Capture memory traces on the Table 2 baseline hierarchy.
    let mut sim_cfg = SimtConfig::default();
    sim_cfg.hierarchy.trace_capture = TraceCapture::Full;
    sim_cfg.seed = opts.seed;

    let names: Vec<&str> = workloads::NAMES.to_vec();
    // Per benchmark, per config: (orig metrics, proxy metrics).
    let results = parallel_map(&names, opts.threads.min(4), |name| {
        let data = prepare(name, opts.scale, opts.seed);
        // The recorded memory requests of one stream; every configuration
        // replays them.
        let trace = |streams, launch| {
            gmap_core::simulate_streams(streams, launch, &sim_cfg)
                .expect("baseline config is valid")
                .mem_trace
        };
        let orig_reqs = trace(&data.orig_streams, &data.kernel.launch);
        let proxy_reqs = trace(&data.proxy_streams, &data.profile.launch);
        let per_cfg: Vec<(DramMetrics, DramMetrics)> = dram_cfgs
            .iter()
            .map(|(_, d)| {
                let dram = DramSystem::new(*d);
                (dram.run(&orig_reqs), dram.run(&proxy_reqs))
            })
            .collect();
        per_cfg
    });

    // Normalize by ORIGINAL AES per configuration, as the paper does.
    let aes_idx = names
        .iter()
        .position(|&n| n == "aes")
        .expect("aes is a benchmark");
    let aes_norm: Vec<DramMetrics> = results[aes_idx].iter().map(|(o, _)| *o).collect();
    let norm = |m: &DramMetrics, cfg_i: usize| -> [f64; 3] {
        let a = &aes_norm[cfg_i];
        let safe = |x: f64, base: f64| if base.abs() < 1e-9 { x } else { x / base };
        [
            safe(m.rbl, a.rbl),
            safe(m.avg_queue_len, a.avg_queue_len),
            safe(m.avg_latency(), a.avg_latency()),
        ]
    };

    println!(
        "{:<14} {:>10} {:>10} {:>10}   (mean rel. error per metric)",
        "Application", "RBL", "queue", "latency"
    );
    let metric_names = ["RBL", "queue length", "read-write latency"];
    let mut all_orig: [Vec<f64>; 3] = [vec![], vec![], vec![]];
    let mut all_proxy: [Vec<f64>; 3] = [vec![], vec![], vec![]];
    for (b, name) in names.iter().enumerate() {
        let mut errs = [0.0f64; 3];
        for (ci, (o, p)) in results[b].iter().enumerate() {
            let no = norm(o, ci);
            let np = norm(p, ci);
            for k in 0..3 {
                errs[k] += stats::rel_error(no[k], np[k]);
                all_orig[k].push(no[k]);
                all_proxy[k].push(np[k]);
            }
        }
        let n = results[b].len() as f64;
        println!(
            "{:<14} {:>9.2}% {:>9.2}% {:>9.2}%",
            name,
            100.0 * errs[0] / n,
            100.0 * errs[1] / n,
            100.0 * errs[2] / n
        );
    }
    println!();
    let mut corr_sum = 0.0;
    for k in 0..3 {
        let err = 100.0 * stats::mean_rel_error(&all_orig[k], &all_proxy[k]);
        let corr = stats::pearson(&all_orig[k], &all_proxy[k]);
        corr_sum += corr;
        println!(
            "average {:<20}: err {err:6.2}%  corr {corr:5.2}",
            metric_names[k]
        );
    }
    println!("average correlation over metrics: {:.2}", corr_sum / 3.0);
}
