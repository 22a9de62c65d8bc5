//! Fixed-input probes: each calls one layer's public functions on inputs
//! that do not depend on the workload, so the same number can be compared
//! across workloads and commits. They run at the end of every traced run.
//!
//! Times are the median of repeated calls; counts repeat exactly.

use crate::httpc;
use crate::service::{lru_grid, profile_request, trace_bytes};
use crate::stats;
use crate::sweeps::SCALE;
use gmap_bench::engine::{self, CapturedStream};
use gmap_bench::{evaluate_profile, sweeps as grids, Metric};
use gmap_core::application::AppProfile;
use gmap_core::cachekey::{canonical_json, content_key, key_of};
use gmap_core::{profile_kernel, simulate_streams, ProfilerConfig, SimtConfig};
use gmap_dram::mapping::MappingPlan;
use gmap_dram::{AddressMapping, DramGeometry};
use gmap_gpu::coalesce::coalesce_addrs_into;
use gmap_gpu::hierarchy::{GpuConfig, LaunchConfig};
use gmap_gpu::schedule::{run_schedule, FixedLatency, Policy};
use gmap_gpu::workloads;
use gmap_ingest::{ChunkParser, IngestConfig, Ingestor};
use gmap_memsim::cache::{CacheConfig, ReplacementPolicy};
use gmap_memsim::hierarchy::TraceCapture;
use gmap_memsim::prefetch::{
    StreamPrefetcher, StreamPrefetcherConfig, StridePrefetcher, StridePrefetcherConfig,
};
use gmap_memsim::stackdist::{
    evaluate_fifo_multi, evaluate_lru_multi, evaluate_lru_prefetch_multi, LineAccess,
    PrefetchSchedule, WriteMode,
};
use gmap_serve::api::{CloneRequest, EvaluateRequest};
use gmap_serve::cache::ModelStore;
use gmap_serve::metrics::Metrics;
use gmap_serve::shard::{self, Ring};
use gmap_serve::{client, handlers, http, ServeConfig};
use gmap_trace::{default_mode, ByteAddr, Histogram, ReuseComputer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Median seconds per call of `f`: at least five calls, more until 40 ms
/// have passed (at most a thousand).
fn seconds_per_call<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5
        || (started.elapsed() < Duration::from_millis(40) && samples.len() < 1000)
    {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    stats::median(&samples)
}

/// Median milliseconds of `n` calls of a fallible network operation;
/// failed calls are dropped from the sample and counted.
fn network_ms(n: usize, failures: &mut u64, mut f: impl FnMut() -> bool) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..n {
        let t0 = Instant::now();
        if f() {
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
        } else {
            *failures += 1;
        }
    }
    stats::median(&samples)
}

/// The stride prefetcher of figure 6c's first point.
const STRIDE: StridePrefetcherConfig = StridePrefetcherConfig {
    table_size: 64,
    degree: 2,
    distance: 1,
    min_confidence: 2,
};

/// The stream prefetcher of figure 6d's window-16 degree-2 point.
const STREAM: StreamPrefetcherConfig = StreamPrefetcherConfig {
    num_streams: 16,
    window: 16,
    degree: 2,
};

/// 128-byte-line L1 geometries of figure 6a, optionally under FIFO.
fn l1_geometries(policy: ReplacementPolicy) -> Vec<CacheConfig> {
    grids::l1_sweep()
        .iter()
        .map(|c| c.hierarchy.l1)
        .filter(|c| c.line_size == 128)
        .map(|c| CacheConfig { policy, ..c })
        .collect()
}

/// Result of the probe set: per-layer values, values to pin, and the
/// number of probe operations that failed.
#[derive(Debug, Default)]
pub struct Probed {
    /// Metric name → value.
    pub layer: BTreeMap<&'static str, f64>,
    /// Simulated statistics, which must repeat exactly.
    pub pins: BTreeMap<String, f64>,
    /// Failed network probes.
    pub failures: u64,
    /// Network probes attempted.
    pub attempted: u64,
}

/// Runs every probe. `out_dir` hosts the disk-tier probe's files.
pub fn run_all(seed: u64, threads: usize, out_dir: &Path) -> Probed {
    let mut p = Probed::default();
    simulator_probes(seed, &mut p);
    ingest_probes(&mut p);
    service_probes(seed, threads, out_dir, &mut p);
    p
}

/// gpu, core, bench, memsim, dram and trace probes over the kmeans and
/// bfs captures.
fn simulator_probes(seed: u64, p: &mut Probed) {
    let cfg = SimtConfig::default();
    let kmeans = workloads::by_name("kmeans", SCALE).expect("kmeans is a builtin");
    let bfs = workloads::by_name("bfs", SCALE).expect("bfs is a builtin");
    let kmeans_streams = gmap_core::model::original_streams(&kmeans);
    let bfs_streams = gmap_core::model::original_streams(&bfs);
    let captures: [CapturedStream; 2] = [
        engine::capture_stream(&kmeans_streams, &kmeans.launch, &cfg),
        engine::capture_stream(&bfs_streams, &bfs.launch, &cfg),
    ];

    // gpu: the scheduler alone, and the coalescer on a fixed batch of
    // 4096 warps × 32 lanes striding 4 bytes.
    let gpu = GpuConfig::fermi_baseline();
    let schedule_s = seconds_per_call(|| {
        run_schedule(
            &kmeans_streams,
            &kmeans.launch,
            &gpu,
            Policy::Lrr,
            &mut FixedLatency(100),
            1,
        )
    });
    p.layer.insert("gpu.schedule_s", schedule_s);
    let warps: Vec<Vec<ByteAddr>> = (0..4096u64)
        .map(|w| {
            (0..32u64)
                .map(|l| ByteAddr(w * 4096 + l * 4 * (1 + w % 5)))
                .collect()
        })
        .collect();
    let mut lines_out = Vec::new();
    p.layer.insert(
        "gpu.coalesce_s",
        seconds_per_call(|| {
            for w in &warps {
                coalesce_addrs_into(w, 128, default_mode(), &mut lines_out);
            }
            lines_out.len()
        }),
    );

    // memsim: the hierarchy's share of a full simulation.
    let simulate_s = seconds_per_call(|| {
        simulate_streams(&kmeans_streams, &kmeans.launch, &cfg).expect("valid")
    });
    p.layer.insert(
        "memsim.hierarchy_access_s",
        (simulate_s - schedule_s).max(0.0),
    );

    // trace + memsim kernels over the captured lines.
    let mut lines: Vec<u64> = Vec::new();
    let mut pcs: Vec<u64> = Vec::new();
    let mut stream: Vec<LineAccess> = Vec::new();
    for c in &captures {
        let mut part = Vec::new();
        c.accesses.lines_into(7, default_mode(), &mut part);
        stream.extend(
            part.iter()
                .zip(c.accesses.writes())
                .map(|(&l, &w)| LineAccess::new(l, w)),
        );
        lines.extend(part);
        pcs.extend_from_slice(c.accesses.pcs());
    }
    let mut shifted = Vec::new();
    p.layer.insert(
        "trace.lines_into_s",
        seconds_per_call(|| {
            for c in &captures {
                c.accesses.lines_into(7, default_mode(), &mut shifted);
            }
            shifted.len()
        }),
    );
    p.layer.insert(
        "trace.histogram_s",
        seconds_per_call(|| {
            let mut h: Histogram<u64> = Histogram::new();
            h.add_slice(&lines, default_mode());
            h.distinct()
        }),
    );
    p.layer.insert(
        "trace.reuse_s",
        seconds_per_call(|| {
            let mut r = ReuseComputer::new();
            lines.iter().filter_map(|&l| r.push(l)).sum::<u64>()
        }),
    );
    let lru = l1_geometries(ReplacementPolicy::Lru);
    let fifo = l1_geometries(ReplacementPolicy::Fifo);
    p.layer.insert(
        "memsim.stackdist_lru_s",
        seconds_per_call(|| {
            evaluate_lru_multi(&lru, &stream, WriteMode::NoAllocate).expect("uniform")
        }),
    );
    p.layer.insert(
        "memsim.stackdist_fifo_s",
        seconds_per_call(|| {
            evaluate_fifo_multi(&fifo, &stream, WriteMode::NoAllocate).expect("uniform")
        }),
    );
    let mut schedule = PrefetchSchedule::new();
    let mut candidates = Vec::new();
    p.layer.insert(
        "memsim.stride_observe_s",
        seconds_per_call(|| {
            let mut pf = StridePrefetcher::new(STRIDE);
            schedule.clear();
            for (acc, &pc) in stream.iter().zip(&pcs) {
                candidates.clear();
                if !acc.is_write {
                    pf.observe_into(pc, acc.line, &mut candidates);
                }
                schedule.push(&candidates);
            }
            pf.issued()
        }),
    );
    p.layer.insert(
        "memsim.stackdist_prefetch_s",
        seconds_per_call(|| {
            evaluate_lru_prefetch_multi(&lru, &stream, &schedule, WriteMode::NoAllocate)
                .expect("uniform")
        }),
    );
    p.layer.insert(
        "memsim.stream_observe_s",
        seconds_per_call(|| {
            let mut pf = StreamPrefetcher::new(STREAM);
            for &l in &lines {
                black_box(pf.observe(l));
            }
            pf.issued()
        }),
    );

    // core + bench: key, JSON, and one profile evaluated on a grid with
    // its capture already cached (the service's steady state).
    let profile = profile_kernel(&kmeans, &ProfilerConfig::default());
    let app = AppProfile {
        name: "kmeans".to_string(),
        kernels: vec![profile.clone()],
    };
    p.layer.insert(
        "core.cachekey_s",
        seconds_per_call(|| (content_key(&canonical_json(&app)), key_of(&profile))),
    );
    p.layer.insert(
        "core.json_roundtrip_s",
        seconds_per_call(|| AppProfile::from_json(&app.to_json()).expect("round trip")),
    );
    let grid = grids::policy_l1_sweep();
    p.layer.insert(
        "bench.evaluate_profile_s",
        seconds_per_call(|| {
            evaluate_profile(&profile, &grid, Metric::L1MissPct, seed, None).expect("not cancelled")
        }),
    );

    // Simulated statistics at the Table 2 baseline over the 18 originals,
    // and — for the prefetch count — the same with both prefetchers on.
    let full = cfg.with_trace_capture(TraceCapture::Full);
    let mut with_pf = cfg;
    with_pf.hierarchy.l1_prefetch = Some(STRIDE);
    with_pf.hierarchy.l2_prefetch = Some(STREAM);
    let mut sim = [0u64; 6];
    let mut dram_addrs: Vec<u64> = Vec::new();
    for name in workloads::NAMES {
        let k = workloads::by_name(name, SCALE).expect("builtin");
        let streams = gmap_core::model::original_streams(&k);
        let out = simulate_streams(&streams, &k.launch, &full).expect("valid");
        let pf = simulate_streams(&streams, &k.launch, &with_pf).expect("valid");
        sim[0] += out.stats.l1.accesses;
        sim[1] += out.stats.l1.misses;
        sim[2] += out.stats.l2.accesses;
        sim[3] += out.stats.l2.misses;
        sim[4] += pf.stats.l1_pf_issued + pf.stats.l2_pf_issued;
        sim[5] += out.mem_trace.len() as u64;
        if name == "kmeans" {
            dram_addrs = out.mem_trace.iter().map(|m| m.addr.0).collect();
        }
    }
    for (name, v) in [
        "memsim.l1_accesses",
        "memsim.l1_misses",
        "memsim.l2_accesses",
        "memsim.l2_misses",
        "memsim.prefetch_issued",
        "memsim.mem_trace_len",
    ]
    .into_iter()
    .zip(sim)
    {
        p.layer.insert(name, v as f64);
        p.pins.insert(format!("simulated/{name}"), v as f64);
    }

    // dram: address decomposition of the kmeans memory trace.
    let plan = MappingPlan::new(&DramGeometry::table2_baseline(), AddressMapping::RoBaRaCoCh);
    let mut locs = Vec::new();
    p.layer.insert(
        "dram.decompose_s",
        seconds_per_call(|| {
            plan.decompose_batch(&dram_addrs, default_mode(), &mut locs);
            locs.len()
        }),
    );
}

/// trace I/O and ingest probes over the bfs trace in both formats.
fn ingest_probes(p: &mut Probed) {
    let bfs = workloads::by_name("bfs", SCALE).expect("bfs is a builtin");
    let streams = gmap_core::model::original_streams(&bfs);
    let (binary, text) = trace_bytes(&streams, &bfs.launch);
    p.layer.insert(
        "trace.io_decode_s",
        seconds_per_call(|| {
            let b = gmap_trace::io::read_binary(&binary[..]).expect("valid binary trace");
            let t = gmap_trace::io::read_text(&text[..]).expect("valid text trace");
            b.len() + t.len()
        }),
    );
    let pieces = |bytes: &[u8], f: &mut dyn FnMut(&[u8])| {
        for piece in bytes.chunks(64 * 1024) {
            f(piece);
        }
    };
    p.layer.insert(
        "ingest.parse_s",
        seconds_per_call(|| {
            let mut entries = 0usize;
            for bytes in [&binary, &text] {
                let mut parser = ChunkParser::new();
                pieces(bytes, &mut |piece| {
                    parser.push(piece).expect("valid trace");
                    entries += parser.drain().count();
                });
                parser.finish().expect("complete trace");
                entries += parser.drain().count();
            }
            entries
        }),
    );
    let launch = LaunchConfig::new(bfs.launch.num_blocks(), bfs.launch.threads_per_block());
    let ingest = || {
        let mut ing = Ingestor::new("bfs", launch, IngestConfig::default());
        pieces(&binary, &mut |piece| {
            ing.push_bytes(piece).expect("valid trace")
        });
        ing.finish().expect("profilable trace")
    };
    p.layer
        .insert("ingest.ingestor_s", seconds_per_call(ingest));
    let outcome = ingest();
    p.layer.insert(
        "ingest.report_s",
        seconds_per_call(|| outcome.report.render_text().len() + outcome.report.to_json().len()),
    );
    for (name, v) in [
        ("ingest.bytes", outcome.stats.bytes),
        ("ingest.entries", outcome.stats.entries),
        ("ingest.forced_drains", outcome.stats.forced_drains),
        (
            "ingest.peak_buffered_entries",
            outcome.stats.peak_buffered_entries,
        ),
    ] {
        p.layer.insert(name, v as f64);
        p.pins.insert(format!("simulated/{name}"), v as f64);
    }
}

/// Fresh-connection requests per network probe.
const NETWORK_SAMPLES: usize = 40;

/// analyze and serve probes: in-process handler calls on a private store,
/// and fresh-connection, keep-alive and routed requests against an idle
/// in-process replica.
fn service_probes(seed: u64, threads: usize, out_dir: &Path, p: &mut Probed) {
    p.layer.insert(
        "analyze.builtins_s",
        seconds_per_call(|| {
            workloads::NAMES
                .iter()
                .map(|n| {
                    handlers::admission_report(&profile_request(n))
                        .expect("builtins analyze")
                        .findings
                        .len()
                })
                .sum::<usize>()
        }),
    );

    // Handlers on a private store.
    let store = ModelStore::new(None).expect("memory store");
    let metrics = Metrics::new();
    let cancel = AtomicBool::new(false);
    let kmeans = profile_request("kmeans");
    let first = handlers::profile(&store, &metrics, &kmeans, &cancel).expect("profiles");
    let hit_s =
        seconds_per_call(|| handlers::profile(&store, &metrics, &kmeans, &cancel).expect("hit"));
    p.layer.insert("serve.handler_profile_hit_us", hit_s * 1e6);
    let clone_req = CloneRequest {
        model_id: first.model_id.clone(),
        factor: Some(1.0),
        seed: Some(seed),
    };
    p.layer.insert(
        "serve.handler_clone_us",
        1e6 * seconds_per_call(|| {
            handlers::clone_model(&store, &clone_req, &cancel).expect("clones")
        }),
    );
    let eval_req = EvaluateRequest {
        model_id: first.model_id.clone(),
        kernel: None,
        metric: None,
        seed: Some(seed),
        grid: lru_grid(),
    };
    p.layer.insert(
        "serve.handler_evaluate_ms",
        1e3 * seconds_per_call(|| {
            handlers::evaluate(&store, &eval_req, &cancel).expect("evaluates")
        }),
    );

    // Store tiers: get, and insert under a fresh key every call.
    let model = store.get(&first.model_id).expect("stored").model.clone();
    p.layer.insert(
        "serve.store_get_us",
        1e6 * seconds_per_call(|| store.get(&first.model_id).is_some()),
    );
    let mut next_key = 0u128;
    let mut fresh_key = || {
        next_key += 1;
        format!("{next_key:032x}")
    };
    let mem = ModelStore::with_config(None, 4096, None).expect("memory store");
    p.layer.insert(
        "serve.store_insert_us",
        1e6 * seconds_per_call(|| mem.insert(&fresh_key(), model.clone()).json.len()),
    );
    let disk_dir = out_dir.join(format!("probe-store-{}", std::process::id()));
    let disk = ModelStore::with_config(Some(disk_dir.clone()), 4096, None).expect("disk store");
    p.layer.insert(
        "serve.store_disk_insert_us",
        1e6 * seconds_per_call(|| disk.insert(&fresh_key(), model.clone()).json.len()),
    );
    let _ = std::fs::remove_dir_all(&disk_dir);

    // HTTP framing and ring lookup.
    let body = canonical_json(&kmeans);
    let raw = format!(
        "POST /v1/profile HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    p.layer.insert(
        "serve.http_parse_us",
        1e6 * seconds_per_call(|| {
            http::read_request(&mut std::io::BufReader::new(raw.as_bytes())).is_ok()
        }),
    );
    let reply = canonical_json(&first);
    let mut wire = Vec::new();
    p.layer.insert(
        "serve.http_write_us",
        1e6 * seconds_per_call(|| {
            wire.clear();
            http::write_response(&mut wire, 200, "application/json", &reply).is_ok()
        }),
    );
    let peers: Vec<String> = (0..3).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect();
    let ring = Ring::new(&peers);
    p.layer.insert(
        "serve.ring_lookup_us",
        1e6 * seconds_per_call(|| {
            let key =
                shard::request_key("/v1/profile", &body).expect("profile requests have a key");
            ring.owner(&key).map(str::len)
        }),
    );

    // Network: an idle replica holding the model, and a router over it.
    let replica = gmap_serve::start(ServeConfig {
        workers: threads,
        keepalive_max: 4 * NETWORK_SAMPLES,
        ..ServeConfig::default()
    })
    .expect("bind the probe replica");
    let addr = replica.addr().to_string();
    let router = gmap_serve::start(ServeConfig {
        workers: threads,
        route: Some(vec![addr.clone()]),
        ..ServeConfig::default()
    })
    .expect("bind the probe router");
    let routed = router.addr().to_string();
    let ok = |r: std::io::Result<client::Response>| r.is_ok_and(|r| r.status == 200);
    let mut failures = 0u64;
    let warm = ok(client::post_json(&addr, "/v1/profile", &body));
    if !warm {
        failures += 1;
    }
    let healthz = network_ms(NETWORK_SAMPLES, &mut failures, || {
        ok(client::get(&addr, "/healthz"))
    });
    let direct = network_ms(NETWORK_SAMPLES, &mut failures, || {
        ok(client::post_json(&addr, "/v1/profile", &body))
    });
    let via_router = network_ms(NETWORK_SAMPLES, &mut failures, || {
        ok(client::post_json(&routed, "/v1/profile", &body))
    });
    let mut conn = httpc::Conn::connect(&addr).ok();
    let keepalive = network_ms(2 * NETWORK_SAMPLES, &mut failures, || {
        if !conn.as_ref().is_some_and(httpc::Conn::is_open) {
            conn = httpc::Conn::connect(&addr).ok();
        }
        conn.as_mut().is_some_and(|c| {
            c.request("POST", "/v1/profile", body.as_bytes(), false)
                .is_ok_and(|r| r.status == 200)
        })
    });
    drop(conn);
    router.shutdown();
    replica.shutdown();
    p.attempted += 1 + 5 * NETWORK_SAMPLES as u64;
    p.failures += failures;
    p.layer.insert("serve.healthz_ms", healthz);
    p.layer.insert("serve.queue_hop_ms", direct - healthz);
    p.layer.insert("serve.route_hop_ms", via_router - direct);
    p.layer.insert("serve.keepalive_req_ms", keepalive);
    if direct > 0.0 {
        p.layer
            .insert("serve.overhead_share", 1.0 - hit_s * 1e3 / direct);
    }
}
