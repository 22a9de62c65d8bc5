//! Multi-kernel applications (paper §2.2): profile a kernel *sequence*,
//! clone it, and check that inter-kernel cache warming is reproduced.
//!
//! ```text
//! cargo run --release --example multi_kernel
//! ```

use gmap::core::{
    profile_application, run_application_original, run_application_proxy, GmapError,
    ProfilerConfig, SimtConfig,
};
use gmap::gpu::app::apps;
use gmap::gpu::workloads::Scale;
use gmap::memsim::hierarchy::TraceCapture;

fn main() -> Result<(), GmapError> {
    let app = apps::kmeans_iterative(Scale::Small);
    println!("application : {} ({} kernels)", app.name, app.kernels.len());
    for k in &app.kernels {
        println!(
            "  kernel {:<16} {} blocks x {} threads",
            k.name,
            k.launch.num_blocks(),
            k.launch.threads_per_block()
        );
    }

    let mut cfg = SimtConfig::default();
    cfg.hierarchy.trace_capture = TraceCapture::Full;

    // Original: kernels share one hierarchy, so kernel 3 (kmeans again)
    // starts with whatever kernel 1 left in the L2.
    let orig = run_application_original(&app, &cfg)?;

    // Clone: per-kernel profiles, replayed in order on a shared hierarchy.
    let profile = profile_application(&app, &ProfilerConfig::default())?;
    let mut shipped = Vec::new();
    profile.save(&mut shipped)?;
    println!(
        "\nshipped app profile: {} bytes for {} kernels",
        shipped.len(),
        profile.kernels.len()
    );
    let proxy = run_application_proxy(&profile, &cfg)?;

    println!("\n--- per-kernel cycles (original vs clone) ---");
    for (i, (o, p)) in orig.per_kernel.iter().zip(&proxy.per_kernel).enumerate() {
        println!(
            "kernel {} : {:>9} vs {:>9} cycles   ({:>7} vs {:>7} accesses)",
            i, o.cycles, p.cycles, o.issued_accesses, p.issued_accesses
        );
    }
    println!("\n--- whole application ---");
    println!(
        "L1 miss rate : {:6.2}%  vs clone {:6.2}%",
        orig.total.stats.l1_miss_rate() * 100.0,
        proxy.total.stats.l1_miss_rate() * 100.0
    );
    println!(
        "L2 miss rate : {:6.2}%  vs clone {:6.2}%",
        orig.total.stats.l2_miss_rate() * 100.0,
        proxy.total.stats.l2_miss_rate() * 100.0
    );
    println!(
        "DRAM traffic : {:>8} vs clone {:>8} requests",
        orig.total.mem_trace.len(),
        proxy.total.mem_trace.len()
    );
    Ok(())
}
