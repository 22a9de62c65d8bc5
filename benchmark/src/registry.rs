//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` lists the same names (a unit test holds the
//! two together); bounds live only there.

/// A metric's name, unit and better direction.
pub type MetricSpec = (&'static str, &'static str, &'static str);

/// The six workloads; `BENCHMARK.json` and the README say why each exists.
pub const WORKLOADS: [&str; 6] = [
    "sweep_lru",
    "sweep_prefetch",
    "sim_direct",
    "serve_hot",
    "serve_fleet",
    "ingest_stream",
];

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [MetricSpec; 6] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("fidelity_err_pct", "pp", "lower"),
    ("fidelity_corr", "ratio", "higher"),
    ("req_p50_ms", "ms", "lower"),
];

/// Per-layer metrics, reported by every workload's traced run. A span
/// metric is the summed self time of the spans of that name in one traced
/// round (0 where the workload never calls the layer); the others are
/// fixed-input probes, counts, and request-level figures of the round.
pub const PER_LAYER: [MetricSpec; 87] = [
    // gpu
    ("gpu.exec_s", "s", "lower"),
    ("gpu.exec_accesses", "count", "lower"),
    ("gpu.schedule_s", "s", "lower"),
    ("gpu.coalesce_s", "s", "lower"),
    // core
    ("core.profile_s", "s", "lower"),
    ("core.generate_s", "s", "lower"),
    ("core.generate_accesses", "count", "lower"),
    ("core.miniaturize_s", "s", "lower"),
    ("core.simulate_s", "s", "lower"),
    ("core.cachekey_s", "s", "lower"),
    ("core.json_roundtrip_s", "s", "lower"),
    // bench
    ("bench.plan_s", "s", "lower"),
    ("bench.capture_s", "s", "lower"),
    ("bench.capture_accesses", "count", "lower"),
    ("bench.capture_cache_hits", "count", "higher"),
    ("bench.capture_cache_misses", "count", "lower"),
    ("bench.eval_lru_s", "s", "lower"),
    ("bench.eval_fifo_s", "s", "lower"),
    ("bench.eval_stride_pf_s", "s", "lower"),
    ("bench.eval_stream_pf_s", "s", "lower"),
    ("bench.eval_fell_back", "count", "lower"),
    ("bench.critical_path_share", "share", "lower"),
    ("bench.evaluate_profile_s", "s", "lower"),
    // memsim
    ("memsim.stackdist_lru_s", "s", "lower"),
    ("memsim.stackdist_fifo_s", "s", "lower"),
    ("memsim.stackdist_prefetch_s", "s", "lower"),
    ("memsim.stride_observe_s", "s", "lower"),
    ("memsim.stream_observe_s", "s", "lower"),
    ("memsim.hierarchy_access_s", "s", "lower"),
    ("memsim.l1_accesses", "count", "lower"),
    ("memsim.l1_misses", "count", "lower"),
    ("memsim.l2_accesses", "count", "lower"),
    ("memsim.l2_misses", "count", "lower"),
    ("memsim.prefetch_issued", "count", "lower"),
    ("memsim.mem_trace_len", "count", "lower"),
    // dram
    ("dram.run_s", "s", "lower"),
    ("dram.requests", "count", "lower"),
    ("dram.decompose_s", "s", "lower"),
    ("dram.rbl_mean", "ratio", "higher"),
    // trace
    ("trace.histogram_s", "s", "lower"),
    ("trace.reuse_s", "s", "lower"),
    ("trace.io_decode_s", "s", "lower"),
    ("trace.lines_into_s", "s", "lower"),
    // ingest
    ("ingest.parse_s", "s", "lower"),
    ("ingest.ingestor_s", "s", "lower"),
    ("ingest.report_s", "s", "lower"),
    ("ingest.bytes", "count", "lower"),
    ("ingest.entries", "count", "lower"),
    ("ingest.forced_drains", "count", "lower"),
    ("ingest.peak_buffered_entries", "count", "lower"),
    // analyze
    ("analyze.builtins_s", "s", "lower"),
    // serve: probes
    ("serve.healthz_ms", "ms", "lower"),
    ("serve.queue_hop_ms", "ms", "lower"),
    ("serve.route_hop_ms", "ms", "lower"),
    ("serve.keepalive_req_ms", "ms", "lower"),
    ("serve.handler_profile_hit_us", "us", "lower"),
    ("serve.handler_clone_us", "us", "lower"),
    ("serve.handler_evaluate_ms", "ms", "lower"),
    ("serve.overhead_share", "share", "lower"),
    ("serve.http_parse_us", "us", "lower"),
    ("serve.http_write_us", "us", "lower"),
    ("serve.store_get_us", "us", "lower"),
    ("serve.store_insert_us", "us", "lower"),
    ("serve.store_disk_insert_us", "us", "lower"),
    ("serve.ring_lookup_us", "us", "lower"),
    // serve: request-level figures of the traced round (the end-to-end
    // list carries only what every workload can report)
    ("serve.req_per_s", "1/s", "higher"),
    ("serve.req_p95_ms", "ms", "lower"),
    ("serve.req_p99_ms", "ms", "lower"),
    ("serve.evaluate_p50_ms", "ms", "lower"),
    ("serve.ingest_mb_per_s", "MB/s", "higher"),
    ("serve.request_s", "s", "lower"),
    // serve: /metrics deltas over the timed section
    ("serve.cache_hits", "count", "higher"),
    ("serve.cache_misses", "count", "lower"),
    ("serve.rejected_429", "count", "lower"),
    ("serve.jobs_shed", "count", "lower"),
    ("serve.worker_panics", "count", "lower"),
    ("serve.route_forwards", "count", "lower"),
    ("serve.route_failovers", "count", "lower"),
    ("serve.replication_sent", "count", "lower"),
    ("serve.replication_failed", "count", "lower"),
    ("serve.replication_dropped", "count", "lower"),
    ("serve.hints_queued", "count", "lower"),
    ("serve.read_repairs", "count", "lower"),
    ("serve.ingest_bytes", "count", "lower"),
    // the process (the issue's end-to-end memory metric; unbounded here
    // because identical runs differ by more than any bound may allow)
    ("peak_rss_mb", "MB", "lower"),
    // the tracing itself
    ("trace_overhead_share", "share", "lower"),
    ("trace_coverage_share", "share", "higher"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/"))
            .expect("BENCHMARK.json parses")
    }

    fn specs(list: Json, bounded: bool) -> Vec<(String, String, String)> {
        list.items()
            .iter()
            .map(|m| {
                assert_eq!(m.get("bound").is_some(), bounded, "bound key on {m:?}");
                let field = |k: &str| m.get(k).and_then(|v| v.as_str().map(str::to_string));
                (
                    field("name").expect("name"),
                    field("unit").expect("unit"),
                    field("better").expect("better"),
                )
            })
            .collect()
    }

    fn owned(list: &[MetricSpec]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let m = manifest();
        let workloads: Vec<String> = m
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .map(|w| {
                let why = w.get("why").expect("why");
                let why = why.as_str().expect("why is a string");
                assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
                w.get("name")
                    .and_then(|n| n.as_str().map(str::to_string))
                    .expect("name")
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            specs(m.get("end_to_end").expect("end_to_end"), true),
            owned(&END_TO_END)
        );
        assert_eq!(
            specs(m.get("per_layer").expect("per_layer"), false),
            owned(&PER_LAYER)
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, u, b) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(n) && ok_unit(u), "{n} [{u}]");
            assert!(*b == "lower" || *b == "higher");
            assert!(seen.insert(*n), "{n} listed twice");
        }
        for n in WORKLOADS {
            assert!(ok_name(n), "{n}");
            assert!(seen.insert(n), "{n} listed twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
    }
}
