//! End-to-end acceptance tests for `gmap serve`, driving a live server
//! over real TCP connections.
//!
//! Covers the contract from the service-layer design:
//! * ≥ 32 concurrent client connections whose payload statistics are
//!   byte-identical to direct library calls,
//! * repeat profile requests observed as cache hits in `/metrics`,
//! * queue overflow answered with 429 (no hang, no crash),
//! * graceful shutdown that drains every accepted request,
//! * the accept path ([`accept`]): no poll interval per connection, no
//!   sleeping thread between `shutdown()` and its return.

mod accept;

use gmap_core::cachekey::canonical_json;
use gmap_serve::api::{
    AnalyzeRequest, AnalyzeResponse, CloneRequest, CloneResponse, EvaluateRequest,
    EvaluateResponse, GridPoint, ProfileRequest, ProfileResponse, StridePoint,
};
use gmap_serve::cache::ModelStore;
use gmap_serve::faults::FaultSpec;
use gmap_serve::metrics::{scrape, Metrics};
use gmap_serve::{client, handlers, ServeConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::thread;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = ["kmeans", "hotspot", "bfs", "srad"];

fn start(config: ServeConfig) -> (gmap_serve::ServerHandle, String) {
    let handle = gmap_serve::start(config).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn profile_req(workload: &str, scale: &str) -> String {
    canonical_json(&ProfileRequest {
        workload: Some(workload.into()),
        scale: Some(scale.into()),
        spec: None,
    })
}

fn lru_grid() -> Vec<GridPoint> {
    [16u64, 32, 64]
        .iter()
        .map(|&size_kb| GridPoint {
            level: None,
            size_kb,
            assoc: 4,
            line: None,
            policy: None,
            stride_prefetch: None,
            stream_prefetch: None,
        })
        .collect()
}

/// A slow grid for queue-saturation tests: PLRU has no stack-distance
/// evaluator, so every point runs a full per-config simulation.
fn slow_grid(points: usize) -> Vec<GridPoint> {
    (0..points)
        .map(|i| GridPoint {
            level: None,
            size_kb: 16 << (i as u64 % 4),
            assoc: 4,
            line: None,
            policy: Some("plru".into()),
            stride_prefetch: None,
            stream_prefetch: None,
        })
        .collect()
}

/// A fig6c-shaped grid: three L1 sizes crossed with stride-prefetcher
/// degrees and distances, all single-pass eligible.
fn prefetch_grid() -> Vec<GridPoint> {
    let mut grid = Vec::new();
    for size_kb in [8u64, 16, 64] {
        for degree in [1u32, 2, 4] {
            for distance in [1u32, 2] {
                grid.push(GridPoint {
                    level: None,
                    size_kb,
                    assoc: 4,
                    line: None,
                    policy: None,
                    stride_prefetch: Some(StridePoint {
                        table: 64,
                        degree,
                        distance: Some(distance),
                        confidence: None,
                    }),
                    stream_prefetch: None,
                });
            }
        }
    }
    grid
}

/// Local "direct library call" oracle: the same handlers run in-process
/// against a private store, no HTTP involved.
struct Oracle {
    store: ModelStore,
    metrics: Metrics,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            store: ModelStore::new(None).expect("memory store"),
            metrics: Metrics::new(),
        }
    }

    fn profile(&self, workload: &str) -> ProfileResponse {
        let req = ProfileRequest {
            workload: Some(workload.into()),
            scale: Some("tiny".into()),
            spec: None,
        };
        handlers::profile(&self.store, &self.metrics, &req, &AtomicBool::new(false))
            .expect("direct profile succeeds")
    }

    fn clone_stats(&self, model_id: &str) -> CloneResponse {
        let req = CloneRequest {
            model_id: model_id.into(),
            factor: None,
            seed: None,
        };
        handlers::clone_model(&self.store, &req, &AtomicBool::new(false))
            .expect("direct clone succeeds")
    }

    fn evaluate(&self, model_id: &str, grid: Vec<GridPoint>) -> EvaluateResponse {
        let req = EvaluateRequest {
            model_id: model_id.into(),
            kernel: None,
            metric: None,
            seed: None,
            grid,
        };
        handlers::evaluate(&self.store, &req, &AtomicBool::new(false))
            .expect("direct evaluate succeeds")
    }
}

#[test]
fn concurrent_clients_get_payloads_byte_identical_to_direct_calls() {
    let (handle, addr) = start(ServeConfig {
        workers: 4,
        queue_capacity: 64,
        deadline: Duration::from_secs(120),
        ..ServeConfig::default()
    });

    // Direct-library expectations, computed once per workload.
    let oracle = Oracle::new();
    let expected: Vec<(String, ProfileResponse, CloneResponse, EvaluateResponse)> = WORKLOADS
        .iter()
        .map(|w| {
            let p = oracle.profile(w);
            let c = oracle.clone_stats(&p.model_id);
            let e = oracle.evaluate(&p.model_id, lru_grid());
            (w.to_string(), p, c, e)
        })
        .collect();

    // Warm the server cache so the 32 concurrent profile requests below
    // are all deterministic cache hits.
    for w in WORKLOADS {
        let resp = client::post_json(&addr, "/v1/profile", &profile_req(w, "tiny"))
            .expect("server reachable");
        assert_eq!(resp.status, 200, "warmup failed: {}", resp.body);
    }

    let threads: Vec<_> = (0..32)
        .map(|i| {
            let addr = addr.clone();
            let (workload, want_profile, want_clone, want_eval) =
                expected[i % WORKLOADS.len()].clone();
            thread::spawn(move || {
                // Profile: statistics block must be byte-identical; the
                // `cached` flag is the server's own business.
                let resp = client::post_json(&addr, "/v1/profile", &profile_req(&workload, "tiny"))
                    .expect("profile request");
                assert_eq!(resp.status, 200, "profile: {}", resp.body);
                let served: ProfileResponse =
                    serde_json::from_str(&resp.body).expect("profile body parses");
                assert!(served.cached, "cache was warmed");
                assert_eq!(served.model_id, want_profile.model_id);
                assert_eq!(
                    canonical_json(&served.stats),
                    canonical_json(&want_profile.stats),
                    "{workload}: served stats must be byte-identical to direct call"
                );

                // Clone: whole body is deterministic.
                let body = canonical_json(&CloneRequest {
                    model_id: want_profile.model_id.clone(),
                    factor: None,
                    seed: None,
                });
                let resp = client::post_json(&addr, "/v1/clone", &body).expect("clone request");
                assert_eq!(resp.status, 200, "clone: {}", resp.body);
                assert_eq!(
                    resp.body,
                    canonical_json(&want_clone),
                    "{workload}: clone body must be byte-identical to direct call"
                );

                // Evaluate: whole body is deterministic.
                let body = canonical_json(&EvaluateRequest {
                    model_id: want_profile.model_id.clone(),
                    kernel: None,
                    metric: None,
                    seed: None,
                    grid: lru_grid(),
                });
                let resp =
                    client::post_json(&addr, "/v1/evaluate", &body).expect("evaluate request");
                assert_eq!(resp.status, 200, "evaluate: {}", resp.body);
                assert_eq!(
                    resp.body,
                    canonical_json(&want_eval),
                    "{workload}: evaluate body must be byte-identical to direct call"
                );
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread succeeds");
    }

    // Repeat profile requests are visible as cache hits.
    let metrics = client::get(&addr, "/metrics").expect("metrics reachable");
    assert_eq!(metrics.status, 200);
    let hits = scrape(&metrics.body, "gmap_cache_hits_total").expect("hits exported");
    let misses = scrape(&metrics.body, "gmap_cache_misses_total").expect("misses exported");
    assert_eq!(misses, WORKLOADS.len() as f64, "one miss per warmup");
    assert_eq!(hits, 32.0, "every concurrent profile request hit the cache");
    assert_eq!(
        scrape(&metrics.body, "gmap_models_cached"),
        Some(WORKLOADS.len() as f64)
    );
    assert!(
        metrics
            .body
            .contains("gmap_request_latency_seconds{endpoint=\"evaluate\",quantile=\"0.5\"}"),
        "latency quantiles exported"
    );

    handle.shutdown();
}

#[test]
fn queue_overflow_returns_429_without_hanging() {
    let (handle, addr) = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        deadline: Duration::from_secs(120),
        ..ServeConfig::default()
    });

    // Warm one model so burst requests would be instant if ever executed.
    let resp = client::post_json(&addr, "/v1/profile", &profile_req("srad", "default"))
        .expect("server reachable");
    assert_eq!(resp.status, 200, "warmup failed: {}", resp.body);
    let model_id: ProfileResponse = serde_json::from_str(&resp.body).expect("parses");
    let model_id = model_id.model_id;

    // Occupy the single worker (and the single queue slot) with slow
    // PLRU-policy evaluations that bypass the single-pass engine (FIFO
    // no longer qualifies — it plans single-pass now).
    let eval_body = canonical_json(&EvaluateRequest {
        model_id: model_id.clone(),
        kernel: None,
        metric: None,
        seed: None,
        grid: slow_grid(64),
    });
    let spawn_occupier = || {
        let addr = addr.clone();
        let body = eval_body.clone();
        thread::spawn(move || {
            client::post_json(&addr, "/v1/evaluate", &body).expect("evaluate request")
        })
    };
    let wait_for = |metric: &str, value: f64| {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let m = client::get(&addr, "/metrics").expect("metrics reachable");
            if scrape(&m.body, metric) == Some(value) {
                break;
            }
            assert!(Instant::now() < deadline, "{metric} never reached {value}");
            thread::sleep(Duration::from_millis(2));
        }
    };
    // Occupy the worker first, then fill the single queue slot — in two
    // observed steps, so neither occupier can race the other into a 429.
    // The warm-up's reply can outrun its worker's bookkeeping, so let
    // that job retire first or its stale "in flight" is what step one sees.
    wait_for("gmap_jobs_in_flight", 0.0);
    let first = spawn_occupier();
    wait_for("gmap_jobs_in_flight", 1.0);
    let second = spawn_occupier();
    wait_for("gmap_queue_depth", 1.0);
    let occupiers = vec![first, second];

    let burst: Vec<_> = (0..32)
        .map(|_| {
            let addr = addr.clone();
            let body = profile_req("srad", "default");
            thread::spawn(move || {
                client::post_json(&addr, "/v1/profile", &body)
                    .expect("burst request gets a response")
            })
        })
        .collect();
    let mut rejected = 0;
    for t in burst {
        let resp = t.join().expect("burst thread returns");
        assert!(
            resp.status == 429 || resp.status == 200,
            "burst must be answered, got {}: {}",
            resp.status,
            resp.body
        );
        if resp.status == 429 {
            assert!(resp.body.contains("queue is full"), "structured 429 body");
            rejected += 1;
        }
    }
    assert!(
        rejected >= 25,
        "expected the saturated queue to reject most of the burst, got {rejected}/32"
    );

    // The occupiers were accepted before the burst and must complete.
    for t in occupiers {
        let resp = t.join().expect("occupier returns");
        assert_eq!(resp.status, 200, "occupier: {}", resp.body);
    }

    let m = client::get(&addr, "/metrics").expect("metrics reachable");
    let rejected_metric = scrape(&m.body, "gmap_queue_rejected_total").expect("exported");
    assert!(rejected_metric >= f64::from(rejected), "rejections counted");

    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_every_accepted_request() {
    let (handle, addr) = start(ServeConfig {
        workers: 2,
        queue_capacity: 32,
        deadline: Duration::from_secs(120),
        ..ServeConfig::default()
    });

    let resp = client::post_json(&addr, "/v1/profile", &profile_req("srad", "default"))
        .expect("server reachable");
    assert_eq!(resp.status, 200, "warmup failed: {}", resp.body);
    let profile: ProfileResponse = serde_json::from_str(&resp.body).expect("parses");

    // Six slow jobs: two run immediately, four queue behind them.
    let eval_body = canonical_json(&EvaluateRequest {
        model_id: profile.model_id,
        kernel: None,
        metric: None,
        seed: None,
        grid: slow_grid(32),
    });
    let clients: Vec<_> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            let body = eval_body.clone();
            thread::spawn(move || {
                client::post_json(&addr, "/v1/evaluate", &body).expect("evaluate answered")
            })
        })
        .collect();

    // Only shut down once the server has accepted all six connections.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let m = client::get(&addr, "/metrics").expect("metrics reachable");
        // The metrics connection itself is active too, hence >= 7.
        if scrape(&m.body, "gmap_active_connections").unwrap_or(0.0) >= 7.0 {
            break;
        }
        assert!(Instant::now() < deadline, "requests never became active");
        thread::sleep(Duration::from_millis(2));
    }

    handle.shutdown();

    // Every accepted request was answered with real results.
    let mut bodies = Vec::new();
    for t in clients {
        let resp = t.join().expect("client thread returns");
        assert_eq!(resp.status, 200, "drained request: {}", resp.body);
        bodies.push(resp.body);
    }
    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "identical requests produced identical drained responses"
    );

    // And the listener is really gone.
    assert!(
        client::get(&addr, "/healthz").is_err(),
        "server must be unreachable after shutdown"
    );
}

#[test]
fn connections_racing_shutdown_get_a_full_reply_or_none() {
    const PEERS: usize = 48;
    let (handle, addr) = start(ServeConfig::default());
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(PEERS + 1));
    let peers: Vec<_> = (0..PEERS)
        .map(|_| {
            let addr = addr.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                // Refused, reset or closed unanswered all end as "no
                // bytes"; what matters is which bytes arrived otherwise.
                let mut reply = Vec::new();
                if let Ok(mut stream) = TcpStream::connect(&addr) {
                    let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
                    let _ = stream.read_to_end(&mut reply);
                }
                reply
            })
        })
        .collect();
    barrier.wait();
    handle.shutdown();

    let expected = "{\"status\":\"ok\"}";
    for peer in peers {
        let reply = peer.join().expect("peer thread returns");
        if reply.is_empty() {
            continue;
        }
        let reply = String::from_utf8(reply).expect("utf8 reply");
        assert!(
            reply.starts_with("HTTP/1.1 200"),
            "partial reply: {reply:?}"
        );
        let lower = reply.to_ascii_lowercase();
        assert!(
            lower.contains(&format!("content-length: {}\r\n", expected.len())),
            "headers cut short: {reply:?}"
        );
        assert!(reply.ends_with(expected), "body cut short: {reply:?}");
    }
}

#[test]
fn inadmissible_specs_are_rejected_422_before_the_queue() {
    let (handle, addr) = start(ServeConfig::default());

    // An out-of-bounds inline spec: answered 422 by the gate, before the
    // profiler.
    let bad = canonical_json(&ProfileRequest {
        workload: None,
        scale: None,
        spec: Some(gmap_analyze::fixtures::oob_affine()),
    });
    let resp = client::post_json(&addr, "/v1/profile", &bad).expect("reachable");
    assert_eq!(resp.status, 422, "gate rejects: {}", resp.body);
    assert!(resp.body.contains("static analysis"), "{}", resp.body);

    // `/v1/analyze` explains the rejection with the full report.
    let areq = canonical_json(&AnalyzeRequest {
        workload: None,
        scale: None,
        spec: Some(gmap_analyze::fixtures::oob_affine()),
    });
    let resp = client::post_json(&addr, "/v1/analyze", &areq).expect("reachable");
    assert_eq!(resp.status, 200, "analyze answers: {}", resp.body);
    let report: AnalyzeResponse = serde_json::from_str(&resp.body).expect("parses");
    assert!(!report.admissible);
    assert!(report.errors >= 1);
    assert!(report.report.has_errors());

    // A clean inline spec sails through the gate and gets profiled.
    let good = canonical_json(&ProfileRequest {
        workload: None,
        scale: None,
        spec: Some(gmap_analyze::fixtures::clean_streaming()),
    });
    let resp = client::post_json(&addr, "/v1/profile", &good).expect("reachable");
    assert_eq!(resp.status, 200, "clean spec profiles: {}", resp.body);
    let profiled: ProfileResponse = serde_json::from_str(&resp.body).expect("parses");
    assert!(!profiled.cached);

    // The rejection is counted, and the rejected spec never reached the
    // profiler: exactly one cache miss (the clean spec).
    let m = client::get(&addr, "/metrics").expect("metrics reachable");
    assert_eq!(scrape(&m.body, "gmap_analyze_rejects_total"), Some(1.0));
    assert_eq!(scrape(&m.body, "gmap_cache_misses_total"), Some(1.0));

    handle.shutdown();
}

#[test]
fn racy_barrier_phased_specs_are_admitted_and_divergent_barriers_stay_422() {
    use gmap_gpu::kernel::{IndexExpr, KernelBuilder, Stmt};
    use gmap_trace::record::Pc;
    let (handle, addr) = start(ServeConfig::default());

    // Every thread of a block writes the block's `acc` slot in the same
    // barrier phase. No DSL statement loads a value, so the race changes
    // no stream: the gate admits the spec and it profiles.
    let racy = KernelBuilder::new("race-ww", 2u32, 64u32)
        .array("data", 128)
        .array("acc", 2)
        .write(Pc(0x10), 0, IndexExpr::tid_linear(0, 1))
        .stmt(Stmt::Sync)
        .write(
            Pc(0x18),
            1,
            IndexExpr::Affine {
                base: 0,
                tid_coef: 0,
                lane_coef: 0,
                warp_coef: 0,
                block_coef: 1,
                iter_coefs: vec![],
            },
        )
        .build()
        .expect("valid spec");
    let body = canonical_json(&ProfileRequest {
        workload: None,
        scale: None,
        spec: Some(racy.clone()),
    });
    let resp = client::post_json(&addr, "/v1/profile", &body).expect("reachable");
    assert_eq!(resp.status, 200, "racy spec profiles: {}", resp.body);
    let profiled: ProfileResponse = serde_json::from_str(&resp.body).expect("parses");
    assert!(!profiled.cached);

    // `/v1/analyze` finds nothing and serves no race fields.
    let areq = canonical_json(&AnalyzeRequest {
        workload: None,
        scale: None,
        spec: Some(racy),
    });
    let resp = client::post_json(&addr, "/v1/analyze", &areq).expect("reachable");
    assert_eq!(resp.status, 200, "analyze answers: {}", resp.body);
    for retired in ["\"races\"", "\"race_certified\""] {
        assert!(!resp.body.contains(retired), "{}", resp.body);
    }
    let report: AnalyzeResponse = serde_json::from_str(&resp.body).expect("parses");
    assert!(report.admissible);
    assert!(report.report.findings.is_empty(), "{:?}", report.report);

    // A barrier that block-divergent threads never reach deadlocks real
    // hardware: still refused.
    let divergent = canonical_json(&ProfileRequest {
        workload: None,
        scale: None,
        spec: Some(gmap_analyze::fixtures::barrier_divergent()),
    });
    let resp = client::post_json(&addr, "/v1/profile", &divergent).expect("reachable");
    assert_eq!(resp.status, 422, "gate rejects: {}", resp.body);
    assert!(resp.body.contains("deadlock"), "{}", resp.body);

    let m = client::get(&addr, "/metrics").expect("metrics reachable");
    assert_eq!(scrape(&m.body, "gmap_analyze_rejects_total"), Some(1.0));
    assert_eq!(scrape(&m.body, "gmap_cache_misses_total"), Some(1.0));
    assert!(!m.body.contains("gmap_analyze_races_total"), "{}", m.body);

    handle.shutdown();
}

#[test]
fn a_cached_profile_is_not_analyzed_again() {
    let (handle, addr) = start(ServeConfig::default());

    // A spec the gate refuses on a miss...
    let spec = gmap_analyze::fixtures::oob_affine();
    let body = canonical_json(&ProfileRequest {
        workload: None,
        scale: None,
        spec: Some(spec.clone()),
    });
    let resp = client::post_json(&addr, "/v1/profile", &body).expect("reachable");
    assert_eq!(resp.status, 422, "{}", resp.body);

    // ...is answered from the cache once its model is stored: the hit
    // path runs no analyzer, so nothing can refuse it.
    let model = gmap_core::profile_application(
        &gmap_gpu::app::Application::single(spec.clone()),
        &gmap_core::profiler::ProfilerConfig::default(),
    )
    .expect("the spec issues accesses");
    let model_id = gmap_core::cachekey::key_of(&spec);
    handle.state().store.insert(&model_id, model);
    let resp = client::post_json(&addr, "/v1/profile", &body).expect("reachable");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed: ProfileResponse = serde_json::from_str(&resp.body).expect("parses");
    assert!(parsed.cached);
    assert_eq!(parsed.model_id, model_id);

    let m = client::get(&addr, "/metrics").expect("metrics reachable");
    assert_eq!(scrape(&m.body, "gmap_analyze_rejects_total"), Some(1.0));
    assert_eq!(scrape(&m.body, "gmap_cache_misses_total"), Some(0.0));
    assert_eq!(scrape(&m.body, "gmap_cache_hits_total"), Some(1.0));

    handle.shutdown();
}

#[test]
fn prefetcher_grids_evaluate_single_pass_and_match_direct_calls() {
    let (handle, addr) = start(ServeConfig::default());

    // Profile over HTTP and directly; same model id both ways.
    let resp = client::post_json(&addr, "/v1/profile", &profile_req("kmeans", "tiny"))
        .expect("server reachable");
    assert_eq!(resp.status, 200, "profile failed: {}", resp.body);
    let profiled: ProfileResponse = serde_json::from_str(&resp.body).expect("parses");

    let oracle = Oracle::new();
    let direct_profile = oracle.profile("kmeans");
    assert_eq!(profiled.model_id, direct_profile.model_id);

    // A fig6c-shaped stride-prefetcher grid: the served body must be
    // byte-identical to the direct library call, and the metadata must
    // show the single-pass engine handled it.
    let want = oracle.evaluate(&direct_profile.model_id, prefetch_grid());
    assert!(
        want.single_pass,
        "fig6c-shaped grids take the single-pass engine"
    );
    let body = canonical_json(&EvaluateRequest {
        model_id: profiled.model_id.clone(),
        kernel: None,
        metric: None,
        seed: None,
        grid: prefetch_grid(),
    });
    let resp = client::post_json(&addr, "/v1/evaluate", &body).expect("evaluate request");
    assert_eq!(resp.status, 200, "evaluate: {}", resp.body);
    assert_eq!(
        resp.body,
        canonical_json(&want),
        "served prefetcher evaluation must be byte-identical to the direct call"
    );
    let served: EvaluateResponse = serde_json::from_str(&resp.body).expect("parses");
    assert!(served.single_pass, "single-pass flag survives the wire");
    assert_eq!(served.values.len(), prefetch_grid().len());

    // An out-of-envelope prefetcher is a 400, not a worker panic.
    let mut bad = prefetch_grid();
    bad[0].stride_prefetch.as_mut().expect("stride point").table = 3;
    let body = canonical_json(&EvaluateRequest {
        model_id: profiled.model_id,
        kernel: None,
        metric: None,
        seed: None,
        grid: bad,
    });
    let resp = client::post_json(&addr, "/v1/evaluate", &body).expect("evaluate request");
    assert_eq!(resp.status, 400, "unsupported prefetcher: {}", resp.body);
    assert!(resp.body.contains("power of two"), "{}", resp.body);

    handle.shutdown();
}

/// A grid point's cache is allocated whole, so its size is bounded: a
/// cache of exactly `MAX_GRID_LINES` lines is evaluated, one past it is a
/// 400 that names the limit.
#[test]
fn grid_points_past_the_line_limit_are_400s() {
    let (handle, addr) = start(ServeConfig::default());
    let resp = client::post_json(&addr, "/v1/profile", &profile_req("scalarprod", "tiny"))
        .expect("server reachable");
    assert_eq!(resp.status, 200, "profile failed: {}", resp.body);
    let profiled: ProfileResponse = serde_json::from_str(&resp.body).expect("parses");
    let evaluate = |size_kb: u64, assoc: u32, line: u64| {
        let body = canonical_json(&EvaluateRequest {
            model_id: profiled.model_id.clone(),
            kernel: None,
            metric: None,
            seed: None,
            grid: vec![GridPoint {
                level: None,
                size_kb,
                assoc,
                line: Some(line),
                policy: None,
                stride_prefetch: None,
                stream_prefetch: None,
            }],
        });
        client::post_json(&addr, "/v1/evaluate", &body).expect("evaluate request")
    };
    assert_eq!(handlers::MAX_GRID_LINES, 1 << 20);
    // 128 MiB of 128 B lines in 16 ways: exactly the limit.
    let resp = evaluate(128 * 1024, 16, 128);
    assert_eq!(resp.status, 200, "at the limit: {}", resp.body);
    let served: EvaluateResponse = serde_json::from_str(&resp.body).expect("parses");
    assert!(served.single_pass && served.values.len() == 1);
    // One set of 2^20 + 1 ways of 1 KiB: one line past it.
    let resp = evaluate((1 << 20) + 1, (1 << 20) + 1, 1024);
    assert_eq!(resp.status, 400, "past the limit: {}", resp.body);
    assert!(
        resp.body
            .contains("1048577 lines of 1024 B exceed the limit of 1048576 lines per cache"),
        "{}",
        resp.body
    );
    handle.shutdown();
}

#[test]
fn clones_past_the_access_limit_are_400s() {
    use gmap_serve::api::IngestResponse;

    let (handle, addr) = start(ServeConfig::default());
    // One access under 2^27 one-warp blocks: a clone of 2^27 warps.
    let resp = client::post_chunked(
        &addr,
        "/v1/ingest?grid=134217728&block=32&name=huge",
        &mut &b"0 0x40 R 0x1000\n"[..],
        64,
    )
    .expect("ingest");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let model_id = serde_json::from_str::<IngestResponse>(&resp.body)
        .expect("parses")
        .model_id;
    assert_eq!(handlers::MAX_CLONE_ACCESSES, 1 << 22);
    let limit = "the clone would have 134217728 accesses, over the limit of 4194304 accesses";
    let clone = canonical_json(&CloneRequest {
        model_id: model_id.clone(),
        factor: None,
        seed: None,
    });
    let resp = client::post_json(&addr, "/v1/clone", &clone).expect("clone request");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains(limit), "{}", resp.body);
    let evaluate = canonical_json(&EvaluateRequest {
        model_id,
        kernel: None,
        metric: None,
        seed: None,
        grid: lru_grid(),
    });
    let resp = client::post_json(&addr, "/v1/evaluate", &evaluate).expect("evaluate request");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains(limit), "{}", resp.body);
    handle.shutdown();
}

#[test]
fn malformed_and_unknown_requests_get_structured_errors() {
    let (handle, addr) = start(ServeConfig::default());

    let resp = client::get(&addr, "/nope").expect("reachable");
    assert_eq!(resp.status, 404);
    assert!(resp.body.contains("\"status\":404"));

    let resp = client::post_json(&addr, "/v1/profile", "{not json").expect("reachable");
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("invalid request body"));

    let resp = client::request(&addr, "DELETE", "/v1/profile", None).expect("reachable");
    assert_eq!(resp.status, 405);

    let resp =
        client::post_json(&addr, "/v1/clone", r#"{"model_id":"doesnotexist"}"#).expect("reachable");
    assert_eq!(resp.status, 404);
    assert!(resp.body.contains("unknown model id"));

    let resp = client::get(&addr, "/healthz").expect("reachable");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, "{\"status\":\"ok\"}");

    handle.shutdown();
}

fn wait_for_metric(addr: &str, metric: &str, pred: impl Fn(f64) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let m = client::get(addr, "/metrics").expect("metrics reachable");
        if pred(scrape(&m.body, metric).unwrap_or(f64::NAN)) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{metric} never satisfied the predicate; last exposition:\n{}",
            m.body
        );
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn panicking_handler_is_a_structured_500_and_the_worker_survives() {
    // panic=1: every queued job panics while the injector is armed.
    let (handle, addr) = start(ServeConfig {
        workers: 1,
        faults: Some(FaultSpec::parse("9:panic=1").expect("valid spec")),
        ..ServeConfig::default()
    });

    let resp = client::post_json(&addr, "/v1/profile", &profile_req("kmeans", "tiny"))
        .expect("panicked request still gets a response");
    assert_eq!(resp.status, 500, "structured 500: {}", resp.body);
    assert!(
        resp.body.contains("handler panicked"),
        "the body names the failure: {}",
        resp.body
    );

    // The 500 is sent as the panic unwinds past the reply channel; the
    // pool counts the panic just after, so the reply can win that race.
    wait_for_metric(&addr, "gmap_worker_panics_total", |v| v == 1.0);

    // Disarm and reuse the same single worker: it survived the panic.
    handle
        .state()
        .fault_injector()
        .expect("faults configured")
        .set_armed(false);
    let resp = client::post_json(&addr, "/v1/profile", &profile_req("kmeans", "tiny"))
        .expect("server reachable");
    assert_eq!(resp.status, 200, "worker still serves: {}", resp.body);

    handle.shutdown();
}

#[test]
fn deadline_expired_in_queue_is_shed_without_executing() {
    // One worker, every job slowed well past the deadline: the first job
    // occupies the worker while the rest expire in the queue. No job may
    // ever reach the profiler — `gmap_cache_misses_total` stays 0.
    let (handle, addr) = start(ServeConfig {
        workers: 1,
        deadline: Duration::from_millis(150),
        faults: Some(FaultSpec::parse("7:slow=1,slow_ms=400").expect("valid spec")),
        ..ServeConfig::default()
    });

    let clients: Vec<_> = ["kmeans", "bfs", "hotspot"]
        .iter()
        .map(|w| {
            let addr = addr.clone();
            let body = profile_req(w, "tiny");
            thread::spawn(move || {
                client::post_json(&addr, "/v1/profile", &body).expect("request answered")
            })
        })
        .collect();
    for t in clients {
        let resp = t.join().expect("client thread returns");
        assert_eq!(resp.status, 504, "expired request: {}", resp.body);
    }

    // Let the queue drain, then check what actually executed.
    wait_for_metric(&addr, "gmap_queue_depth", |v| v == 0.0);
    wait_for_metric(&addr, "gmap_jobs_in_flight", |v| v == 0.0);
    wait_for_metric(&addr, "gmap_jobs_shed_total", |v| v >= 1.0);
    let m = client::get(&addr, "/metrics").expect("metrics reachable");
    assert_eq!(
        scrape(&m.body, "gmap_cache_misses_total"),
        Some(0.0),
        "no shed or cancelled job may run a simulation"
    );
    assert_eq!(scrape(&m.body, "gmap_deadline_timeouts_total"), Some(3.0));

    handle.shutdown();
}

#[test]
fn routed_deadline_expires_in_peer_queue_without_executing() {
    // The replica's own deadline is a generous 30s and every job is
    // slowed 400ms — on its own it would happily serve 200s. Behind a
    // router with a 150ms deadline the propagated budget must take over:
    // the router answers 504 and the peer sheds the queued jobs without
    // ever reaching the profiler.
    let (peer, peer_addr) = start(ServeConfig {
        workers: 1,
        deadline: Duration::from_secs(30),
        faults: Some(FaultSpec::parse("7:slow=1,slow_ms=400").expect("valid spec")),
        ..ServeConfig::default()
    });
    let (router, router_addr) = start(ServeConfig {
        workers: 1,
        deadline: Duration::from_millis(150),
        route: Some(vec![peer_addr.clone()]),
        ..ServeConfig::default()
    });

    let clients: Vec<_> = ["kmeans", "bfs", "hotspot"]
        .iter()
        .map(|w| {
            let addr = router_addr.clone();
            let body = profile_req(w, "tiny");
            thread::spawn(move || {
                client::post_json(&addr, "/v1/profile", &body).expect("request answered")
            })
        })
        .collect();
    for t in clients {
        let resp = t.join().expect("client thread returns");
        assert_eq!(resp.status, 504, "routed expired request: {}", resp.body);
        assert!(
            resp.retry_after.is_some(),
            "routed 504 carries Retry-After: {}",
            resp.body
        );
    }

    // The peer enforced the router's budget, not its own 30s deadline,
    // and no shed or cancelled job ever ran a simulation.
    wait_for_metric(&peer_addr, "gmap_queue_depth", |v| v == 0.0);
    wait_for_metric(&peer_addr, "gmap_jobs_in_flight", |v| v == 0.0);
    wait_for_metric(&peer_addr, "gmap_jobs_shed_total", |v| v >= 1.0);
    let m = client::get(&peer_addr, "/metrics").expect("peer metrics reachable");
    assert_eq!(
        scrape(&m.body, "gmap_cache_misses_total"),
        Some(0.0),
        "propagated deadlines must shed work before it executes"
    );
    assert_eq!(scrape(&m.body, "gmap_deadline_timeouts_total"), Some(3.0));

    // Every request was genuinely forwarded (the 504s are the peer's
    // honest answers relayed by the router, not router-local failures).
    let m = client::get(&router_addr, "/metrics").expect("router metrics reachable");
    let series = format!("gmap_route_forwards_total{{peer=\"{peer_addr}\"}}");
    assert_eq!(scrape(&m.body, &series), Some(3.0), "all three forwarded");
    assert_eq!(scrape(&m.body, "gmap_route_failovers_total"), Some(0.0));

    router.shutdown();
    peer.shutdown();
}

#[test]
fn memory_tier_never_exceeds_its_configured_capacity() {
    let (handle, addr) = start(ServeConfig {
        cache_capacity: 2,
        ..ServeConfig::default()
    });

    for w in WORKLOADS {
        let resp = client::post_json(&addr, "/v1/profile", &profile_req(w, "tiny"))
            .expect("server reachable");
        assert_eq!(resp.status, 200, "profile {w}: {}", resp.body);
        let m = client::get(&addr, "/metrics").expect("metrics reachable");
        let cached = scrape(&m.body, "gmap_models_cached").expect("gauge exported");
        assert!(
            cached <= 2.0,
            "memory tier exceeded its bound after {w}: {cached}"
        );
    }

    let m = client::get(&addr, "/metrics").expect("metrics reachable");
    assert_eq!(scrape(&m.body, "gmap_cache_capacity"), Some(2.0));
    assert_eq!(
        scrape(&m.body, "gmap_cache_evictions_total"),
        Some((WORKLOADS.len() - 2) as f64),
        "evictions are visible in /metrics"
    );

    handle.shutdown();
}

/// One raw response off a keep-alive connection, with the headers the
/// tests assert on.
struct RawResponse {
    status: u16,
    content_type: String,
    connection: String,
    retry_after: Option<u64>,
    body: String,
}

/// Reads one full response from a keep-alive connection.
fn read_one_response(reader: &mut BufReader<TcpStream>) -> RawResponse {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("parseable status");
    let mut content_length = 0usize;
    let mut connection = String::new();
    let mut content_type = String::new();
    let mut retry_after = None;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((k, v)) = header.split_once(':') {
            match k.to_ascii_lowercase().as_str() {
                "content-length" => content_length = v.trim().parse().expect("length"),
                "connection" => connection = v.trim().to_string(),
                "content-type" => content_type = v.trim().to_string(),
                "retry-after" => retry_after = v.trim().parse().ok(),
                _ => {}
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    RawResponse {
        status,
        content_type,
        connection,
        retry_after,
        body: String::from_utf8(body).expect("utf8"),
    }
}

#[test]
fn keep_alive_serves_multiple_requests_then_caps_the_connection() {
    let (handle, addr) = start(ServeConfig {
        keepalive_max: 2,
        ..ServeConfig::default()
    });

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let request = format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n");

    // First request: served and kept alive.
    stream.write_all(request.as_bytes()).expect("write");
    let r = read_one_response(&mut reader);
    assert_eq!(r.status, 200);
    assert_eq!(r.connection, "keep-alive");
    assert_eq!(r.body, "{\"status\":\"ok\"}");

    // Second request on the same socket: served, then capped (the
    // per-connection request limit downgrades to `Connection: close`).
    stream.write_all(request.as_bytes()).expect("write");
    let r = read_one_response(&mut reader);
    assert_eq!(r.status, 200);
    assert_eq!(r.connection, "close");
    assert_eq!(r.body, "{\"status\":\"ok\"}");

    // And the server really closes: the next read sees EOF.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("EOF after cap");
    assert!(rest.is_empty(), "no bytes after the capped response");

    // A client that asks to close is honored immediately.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream
        .write_all(
            format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .expect("write");
    let r = read_one_response(&mut reader);
    assert_eq!(r.status, 200);
    assert_eq!(r.connection, "close");

    handle.shutdown();
}

#[test]
fn mid_request_stall_gets_408_and_oversized_body_gets_413() {
    let (handle, addr) = start(ServeConfig {
        read_timeout: Duration::from_millis(200),
        idle_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });

    // Truncated body: the head promises bytes that never arrive. After
    // `read_timeout` the server answers 408 and closes.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(b"POST /v1/profile HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"wor")
        .expect("write partial");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let r = read_one_response(&mut reader);
    assert_eq!(r.status, 408, "stalled mid-request: {}", r.body);
    assert_eq!(r.connection, "close");
    // A 408 is transient (the peer can simply resend): it must carry
    // the same Retry-After hint as the other transient statuses.
    assert_eq!(
        r.retry_after,
        Some(1),
        "408 responses must carry Retry-After"
    );

    // Oversized Content-Length: rejected up front with 413.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(b"POST /v1/profile HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
        .expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let r = read_one_response(&mut reader);
    assert_eq!(r.status, 413);
    assert_eq!(r.connection, "close");
    // 413 is *not* transient — resending the same oversized body can
    // never succeed, so no Retry-After is advertised.
    assert_eq!(r.retry_after, None, "413 must not invite a retry");

    // An idle peer is closed silently (no 408 spam for quiet sockets).
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "idle close sends nothing");

    handle.shutdown();
}

#[test]
fn backpressure_responses_carry_retry_after_and_the_client_honors_it() {
    let (handle, addr) = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        deadline: Duration::from_secs(120),
        ..ServeConfig::default()
    });

    // Saturate the single worker and the single queue slot.
    let resp = client::post_json(&addr, "/v1/profile", &profile_req("srad", "default"))
        .expect("server reachable");
    assert_eq!(resp.status, 200, "warmup failed: {}", resp.body);
    let profile: ProfileResponse = serde_json::from_str(&resp.body).expect("parses");
    let eval_body = canonical_json(&EvaluateRequest {
        model_id: profile.model_id,
        kernel: None,
        metric: None,
        seed: None,
        grid: slow_grid(64),
    });
    // An 8-deep concurrent burst against one worker and one queue slot:
    // most of it must bounce off the full queue with 429 + Retry-After.
    let occupiers: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let body = eval_body.clone();
            thread::spawn(move || {
                client::post_json(&addr, "/v1/evaluate", &body).expect("evaluate request")
            })
        })
        .collect();

    // Meanwhile a retrying client keeps knocking: it may eat 429s while
    // the burst drains (honoring Retry-After, clamped by the policy
    // cap) but must eventually land the request.
    let retrier = {
        let addr = addr.clone();
        thread::spawn(move || {
            client::request_with_retry(
                &addr,
                "POST",
                "/v1/profile",
                Some(&profile_req("kmeans", "tiny")),
                &client::RetryPolicy {
                    max_retries: 120,
                    base: Duration::from_millis(25),
                    cap: Duration::from_millis(500),
                    seed: 7,
                },
            )
            .expect("retries land")
        })
    };

    let mut saw_retry_after = 0;
    for t in occupiers {
        let resp = t.join().expect("occupier returns");
        match resp.status {
            200 => {}
            429 => {
                assert_eq!(resp.retry_after, Some(1), "429 carries Retry-After");
                saw_retry_after += 1;
            }
            other => panic!("occupier: unexpected status {other}: {}", resp.body),
        }
    }
    assert!(
        saw_retry_after >= 1,
        "the burst must overflow the single-slot queue at least once"
    );
    let retried = retrier.join().expect("retrier thread returns");
    assert_eq!(retried.status, 200, "{}", retried.body);

    handle.shutdown();
}

/// A deterministic multi-warp text trace: 2 blocks x 64 threads (4
/// warps), `steps` instructions per thread in step-major order, three
/// PCs with per-step strides.
fn ingest_trace(steps: u64) -> String {
    let mut trace = String::new();
    for step in 0..steps {
        for tid in 0..128u32 {
            let pc = 0x10 + (step % 3) * 0x10;
            let addr = 0x1_0000 + u64::from(tid) * 4 + step * 0x2000;
            let kind = if step % 3 == 2 { "W" } else { "R" };
            trace.push_str(&format!("{tid} {pc:#x} {kind} {addr:#x}\n"));
        }
    }
    trace
}

#[test]
fn streaming_ingest_is_byte_identical_to_materialized_profiling() {
    use gmap_core::application::AppProfile;
    use gmap_gpu::hierarchy::LaunchConfig;
    use gmap_serve::api::IngestResponse;

    let (handle, addr) = start(ServeConfig::default());
    let trace = ingest_trace(50);

    // Stream the trace with chunked transfer encoding in small pieces.
    let resp = client::post_chunked(
        &addr,
        "/v1/ingest?grid=2&block=64&name=wl",
        &mut trace.as_bytes(),
        777,
    )
    .expect("chunked ingest");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed: IngestResponse = serde_json::from_str(&resp.body).expect("response parses");

    // The served model must hash identically to the library call over
    // the same bytes, handed over whole.
    let launch = LaunchConfig::new(2u32, 64u32);
    let mut ing = gmap_ingest::Ingestor::new("wl", launch, gmap_ingest::IngestConfig::default());
    ing.push_bytes(trace.as_bytes()).expect("trace parses");
    let local = AppProfile::single(ing.finish().expect("non-empty trace").profile);
    let local_key = gmap_core::cachekey::key_of(&local);
    assert_eq!(parsed.model_id, local_key, "content-addressed by the model");
    assert_eq!(parsed.stats.content_key, local_key);
    assert_eq!(parsed.stats.kernels, 1);

    // The streaming pass's own report: every entry seen, all 4 warps,
    // and the affine access pattern classified per PC.
    assert_eq!(parsed.ingest.bytes, trace.len() as u64);
    assert_eq!(parsed.ingest.entries, 50 * 128);
    assert_eq!(parsed.report.warps, 4);
    assert!(!parsed.report.arrays.is_empty(), "arrays detected");
    assert_eq!(parsed.report.pcs.len(), 3, "three PCs classified");

    // A Content-Length upload of the same trace lands on the same model.
    let plain = client::request(
        &addr,
        "POST",
        "/v1/ingest?grid=2&block=64&name=wl",
        Some(&trace),
    )
    .expect("content-length ingest");
    assert_eq!(plain.status, 200, "{}", plain.body);
    let plain: IngestResponse = serde_json::from_str(&plain.body).expect("response parses");
    assert_eq!(plain.model_id, parsed.model_id, "framing does not matter");

    // The stored model is immediately usable by the rest of the API.
    let eval = client::post_json(
        &addr,
        "/v1/evaluate",
        &canonical_json(&EvaluateRequest {
            model_id: parsed.model_id.clone(),
            kernel: None,
            metric: None,
            seed: None,
            grid: lru_grid(),
        }),
    )
    .expect("evaluate ingested model");
    assert_eq!(eval.status, 200, "{}", eval.body);

    // Ingest metrics: two full streams, body bytes counted exactly.
    let metrics = client::get(&addr, "/metrics").expect("metrics").body;
    assert_eq!(scrape(&metrics, "gmap_ingest_streams_total"), Some(2.0));
    assert_eq!(
        scrape(&metrics, "gmap_ingest_bytes_total"),
        Some(2.0 * trace.len() as f64)
    );
    assert!(metrics.contains("gmap_requests_total{endpoint=\"ingest\"} 2"));

    handle.shutdown();
}

#[test]
fn ingest_rejects_bad_queries_and_malformed_traces() {
    let (handle, addr) = start(ServeConfig::default());

    // Missing launch geometry: rejected before any body is consumed.
    let resp = client::post_chunked(&addr, "/v1/ingest?grid=2", &mut &b"0 0x1 R 0x100\n"[..], 16)
        .expect("responds");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("block"), "names the missing parameter");

    // Malformed trace entry mid-stream: 400 with the 1-based position.
    let resp = client::post_chunked(
        &addr,
        "/v1/ingest?grid=1&block=32",
        &mut &b"0 0x1 R 0x100\n1 0x1 Z 0x104\n"[..],
        64,
    )
    .expect("responds");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(
        resp.body.contains("entry 2") && resp.body.contains("kind"),
        "carries position and field: {}",
        resp.body
    );

    // A line over the streaming parser's 64 KiB bound (here the last one,
    // so nothing is left unread behind the error): the same 400 whether
    // the body arrives under Content-Length or in 777-byte chunks.
    let long = format!("0 0x1 R 0x100\n#{}", "x".repeat(64 * 1024));
    let path = "/v1/ingest?grid=1&block=32";
    let plain = client::request(&addr, "POST", path, Some(&long)).expect("responds");
    let chunked = client::post_chunked(&addr, path, &mut long.as_bytes(), 777).expect("responds");
    assert_eq!(plain.status, 400, "{}", plain.body);
    assert!(
        plain.body.contains("entry 2") && plain.body.contains("line exceeds 65536 bytes"),
        "carries the physical line and the bound: {}",
        plain.body
    );
    assert_eq!(
        (chunked.status, &chunked.body),
        (400, &plain.body),
        "framing does not matter"
    );

    // An empty trace profiles to nothing: structured 400, not a panic.
    let resp = client::post_chunked(&addr, "/v1/ingest?grid=1&block=32", &mut &b""[..], 16)
        .expect("responds");
    assert_eq!(resp.status, 400, "{}", resp.body);

    // GET on the ingest route is not a thing.
    let resp = client::get(&addr, "/v1/ingest?grid=1&block=32").expect("responds");
    assert_eq!(resp.status, 404, "{}", resp.body);

    handle.shutdown();
}

/// `/v1/ingest` through a router: the stream is re-framed to the replica
/// owning the upload's path, and the client cannot tell the difference —
/// same bytes back for either framing, same 400 and close for a broken
/// chunk.
#[test]
fn routed_ingest_is_byte_identical_to_direct_and_lands_on_the_owner() {
    let (direct, direct_addr) = start(ServeConfig::default());
    let replicas: Vec<_> = (0..3).map(|_| start(ServeConfig::default())).collect();
    let peers: Vec<String> = replicas.iter().map(|(_, addr)| addr.clone()).collect();
    let (router, router_addr) = start(ServeConfig {
        route: Some(peers.clone()),
        ..ServeConfig::default()
    });
    let trace = ingest_trace(50);
    let path = "/v1/ingest?grid=2&block=64&name=routed";

    let upload = |addr: &str, chunked: bool| {
        let resp = if chunked {
            client::post_chunked(addr, path, &mut trace.as_bytes(), 777)
        } else {
            client::request(addr, "POST", path, Some(&trace))
        }
        .expect("ingest answers");
        assert_eq!(resp.status, 200, "{}", resp.body);
        resp.body
    };
    for chunked in [false, true] {
        assert_eq!(
            upload(&router_addr, chunked),
            upload(&direct_addr, chunked),
            "routed and direct uploads must answer the same bytes (chunked: {chunked})"
        );
    }

    // Both routed streams went to the owner of the path, nowhere else.
    let ring = router.state().router().expect("router mode").ring();
    let owner = ring
        .owner(&gmap_core::cachekey::content_key(path))
        .expect("nonempty ring");
    for peer in &peers {
        let metrics = client::get(peer, "/metrics").expect("metrics").body;
        let want = if peer == owner { 2.0 } else { 0.0 };
        assert_eq!(
            scrape(&metrics, "gmap_ingest_streams_total"),
            Some(want),
            "streams on {peer} (owner {owner})"
        );
    }
    let metrics = client::get(&router_addr, "/metrics").expect("metrics").body;
    let forwards = format!("gmap_route_forwards_total{{peer=\"{owner}\"}}");
    assert_eq!(scrape(&metrics, &forwards), Some(2.0));

    // A chunk-size line that is not hex: the router's own body reader
    // rejects it exactly as a replica's would, then closes.
    let broken = |addr: &str| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n\
             5\r\n0 0x1\r\nzz\r\n"
        );
        stream.write_all(head.as_bytes()).expect("send");
        let mut reader = BufReader::new(stream);
        let resp = read_one_response(&mut reader);
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("closed cleanly");
        assert!(rest.is_empty(), "nothing follows the error reply");
        resp
    };
    let (routed, plain) = (broken(&router_addr), broken(&direct_addr));
    assert_eq!(routed.status, 400, "{}", routed.body);
    assert_eq!(routed.body, plain.body);
    assert!(routed.body.contains("bad chunk size"), "{}", routed.body);
    assert_eq!(routed.connection, "close");
    assert_eq!(plain.connection, "close");

    router.shutdown();
    for (replica, _) in replicas {
        replica.shutdown();
    }
    direct.shutdown();
}

/// The summary a reply carries belongs to the stored model, not to the
/// path the model took: for the 18 builtins, a clean inline spec and an
/// ingested trace, the `stats` of the reply that computed the model, of
/// a repeat, of a fresh server over the same `cache_dir` (disk
/// promotion) and of a server handed the model through `/v1/replicate`
/// are the same bytes, and the content key is the key of the JSON the
/// store holds.
#[test]
fn profile_replies_are_a_function_of_the_stored_model() {
    use gmap_core::cachekey::{content_key, key_of};
    use gmap_serve::api::{IngestResponse, ReplicateRequest};

    let cache_dir =
        std::env::temp_dir().join(format!("gmap-serve-stored-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let on_disk = || ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    };

    let mut bodies: Vec<String> = gmap_gpu::workloads::NAMES
        .iter()
        .map(|w| profile_req(w, "tiny"))
        .collect();
    assert_eq!(bodies.len(), 18);
    bodies.push(canonical_json(&ProfileRequest {
        workload: None,
        scale: None,
        spec: Some(gmap_analyze::fixtures::clean_streaming()),
    }));
    let trace = ingest_trace(12);

    // One reply's `(model id, stats bytes)`; `cached` says which path a
    // profile reply must have taken (an ingest reply does not say).
    let profile = |addr: &str, body: &str, cached: bool| {
        let resp = client::post_json(addr, "/v1/profile", body).expect("reachable");
        assert_eq!(resp.status, 200, "{body}: {}", resp.body);
        let parsed: ProfileResponse = serde_json::from_str(&resp.body).expect("parses");
        assert_eq!(parsed.cached, cached, "{body}");
        (parsed.model_id, canonical_json(&parsed.stats))
    };
    let ingest = |addr: &str| {
        let target = "/v1/ingest?grid=2&block=64&name=stored";
        let resp = client::request(addr, "POST", target, Some(&trace)).expect("reachable");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let parsed: IngestResponse = serde_json::from_str(&resp.body).expect("parses");
        (parsed.model_id, canonical_json(&parsed.stats))
    };
    // The stored entry behind a reply: its key is the key of the JSON
    // the store holds, which is the model's own canonical rendering.
    let stored_model = |server: &gmap_serve::ServerHandle, id: &str, stats: &str| {
        let stored = server.state().store.get(id).expect("stored");
        let key = content_key(&stored.json);
        assert_eq!(key, key_of(&stored.model), "{id}");
        assert!(
            stats.contains(&format!("\"content_key\":\"{key}\"")),
            "{id}"
        );
        stored.model.clone()
    };

    // The server that computes every model: the miss, then the hit.
    let (first, addr) = start(on_disk());
    let mut want = Vec::new();
    for body in &bodies {
        let (id, stats) = profile(&addr, body, false);
        assert_eq!(profile(&addr, body, true), (id.clone(), stats.clone()));
        want.push((id, stats));
    }
    let ingested = ingest(&addr);
    assert_eq!(ingest(&addr), ingested, "a repeated upload");
    want.push(ingested);
    let models: Vec<_> = want
        .iter()
        .map(|(id, stats)| stored_model(&first, id, stats))
        .collect();
    first.shutdown();

    // A fresh server over the same directory serves every model from the
    // disk tier; a third is handed each model by `/v1/replicate`.
    let (reopened, reopened_addr) = start(on_disk());
    let (replica, replica_addr) = start(ServeConfig::default());
    for ((id, stats), model) in want.iter().zip(&models) {
        let push = canonical_json(&ReplicateRequest {
            model_id: id.clone(),
            model: model.clone(),
        });
        let resp = client::post_json(&replica_addr, "/v1/replicate", &push).expect("reachable");
        assert_eq!(resp.status, 200, "{}", resp.body);
        for server in [&reopened, &replica] {
            assert_eq!(&stored_model(server, id, stats), model, "{id}");
        }
    }
    for addr in [&reopened_addr, &replica_addr] {
        for (body, expected) in bodies.iter().zip(&want) {
            assert_eq!(&profile(addr, body, true), expected, "{body}");
        }
        assert_eq!(Some(&ingest(addr)), want.last());
    }
    reopened.shutdown();
    replica.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// What one row of [`request_matrix`] expects of the response body.
enum Body {
    Exact(String),
    Contains(&'static str),
}

/// One row of [`request_matrix`]: a raw request and everything the
/// server must answer and count for it.
struct MatrixRow {
    /// The request, byte for byte.
    raw: String,
    /// `GET /healthz` requests served on the same connection first.
    prelude: usize,
    status: u16,
    content_type: &'static str,
    /// The `Connection` header of the reply; `close` is also checked
    /// against the socket (EOF follows), `keep-alive` by serving one
    /// more `GET /healthz` on the same connection.
    connection: &'static str,
    retry_after: bool,
    body: Body,
    /// The `/metrics` endpoint label the request is counted under, or
    /// `None` when it is answered without being counted.
    label: Option<&'static str>,
}

const JSON: &str = "application/json";
const KEEP: &str = "keep-alive";
const MATRIX_LABELS: [&str; 6] = ["profile", "clone", "evaluate", "analyze", "ingest", "other"];

/// Which kind of server a matrix run addresses; the few rows whose
/// answer is the router's own say so.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Replica,
    Router,
}

fn raw_request(method: &str, target: &str, headers: &str, body: Option<&str>) -> String {
    let framing = body.map_or(String::new(), |b| {
        format!("Content-Length: {}\r\n", b.len())
    });
    format!(
        "{method} {target} HTTP/1.1\r\nHost: matrix\r\n{headers}{framing}\r\n{}",
        body.unwrap_or("")
    )
}

fn error_body(status: u16, message: &str) -> Body {
    Body::Exact(gmap_serve::api::ApiError::new(status, message).body())
}

/// The rows, in the order they are driven: every endpoint under its own
/// method, wrong methods, unknown routes, bad and oversized bodies, the
/// close and keep-alive-cap decisions on both reply tails, transient
/// statuses, and targets carrying a query string.
fn matrix_rows(kind: Kind) -> Vec<MatrixRow> {
    use gmap_core::application::AppProfile;
    use gmap_gpu::kernel::{dsl, IndexExpr, KernelBuilder};
    use gmap_serve::api::{ReplicateRequest, ReplicateResponse};

    let oracle = Oracle::new();
    let cancel = AtomicBool::new(false);
    let kmeans = oracle.profile("kmeans");
    let id = kmeans.model_id.clone();
    let analyze_req = AnalyzeRequest {
        workload: Some("kmeans".into()),
        scale: Some("tiny".into()),
        spec: None,
    };
    let clone_req = CloneRequest {
        model_id: id.clone(),
        factor: None,
        seed: None,
    };
    let evaluate_req = EvaluateRequest {
        model_id: id.clone(),
        kernel: None,
        metric: None,
        seed: None,
        grid: lru_grid(),
    };
    let trace = ingest_trace(6);
    let ingest_target = "/v1/ingest?grid=2&block=64&name=m";
    let mut ing = gmap_ingest::Ingestor::new(
        "m",
        gmap_gpu::hierarchy::LaunchConfig::new(2u32, 64u32),
        gmap_ingest::IngestConfig::default(),
    );
    ing.push_bytes(trace.as_bytes()).expect("trace parses");
    let ingested = handlers::ingest_finalize(&oracle.store, ing, &cancel).expect("finalizes");
    let hotspot = oracle.profile("hotspot").model_id;
    let pushed: AppProfile = oracle
        .store
        .get(&hotspot)
        .expect("just profiled")
        .model
        .clone();
    let replicate_req = ReplicateRequest {
        model_id: hotspot.clone(),
        model: pushed,
    };
    let oob_req = ProfileRequest {
        workload: None,
        scale: None,
        spec: Some(gmap_analyze::fixtures::oob_affine()),
    };
    let oob_report = gmap_analyze::analyze_kernel(&gmap_analyze::fixtures::oob_affine());
    let oob_errors: Vec<String> = oob_report.errors().map(|f| f.message.clone()).collect();
    // Valid and admitted by the analyzer, but its one read sits in a
    // loop of zero trips: there is nothing to profile.
    let empty_req = ProfileRequest {
        workload: None,
        scale: None,
        spec: Some(
            KernelBuilder::new("empty", 1u32, 32u32)
                .array("a", 64)
                .stmt(dsl::loop_n(
                    0,
                    vec![dsl::read(0x10, 0, IndexExpr::tid_linear(0, 1))],
                ))
                .build()
                .expect("valid"),
        ),
    };

    let row = |raw: String, status: u16, body: Body, label: &'static str| MatrixRow {
        raw,
        prelude: 0,
        status,
        content_type: JSON,
        connection: KEEP,
        retry_after: false,
        body,
        label: Some(label),
    };
    let get = |target: &str| raw_request("GET", target, "", None);
    let post = |target: &str, body: &str| raw_request("POST", target, "", Some(body));
    let healthy = || Body::Exact("{\"status\":\"ok\"}".into());
    let forwarding_504 = "deadline exceeded while forwarding";

    vec![
        // The nine endpoints, each under its own method.
        row(get("/healthz"), 200, healthy(), "other"),
        MatrixRow {
            content_type: "text/plain; version=0.0.4",
            ..row(
                get("/metrics"),
                200,
                Body::Contains("# TYPE gmap_requests_total counter\n"),
                "other",
            )
        },
        row(
            post("/v1/profile", &profile_req("kmeans", "tiny")),
            200,
            Body::Exact(canonical_json(&kmeans)),
            "profile",
        ),
        row(
            post("/v1/analyze", &canonical_json(&analyze_req)),
            200,
            Body::Exact(canonical_json(
                &handlers::analyze(&analyze_req).expect("analyzes"),
            )),
            "analyze",
        ),
        row(
            post("/v1/clone", &canonical_json(&clone_req)),
            200,
            Body::Exact(canonical_json(&oracle.clone_stats(&id))),
            "clone",
        ),
        row(
            post("/v1/evaluate", &canonical_json(&evaluate_req)),
            200,
            Body::Exact(canonical_json(&oracle.evaluate(&id, lru_grid()))),
            "evaluate",
        ),
        row(
            post(ingest_target, &trace),
            200,
            Body::Exact(canonical_json(&ingested)),
            "ingest",
        ),
        row(
            post("/v1/replicate", &canonical_json(&replicate_req)),
            200,
            Body::Exact(canonical_json(&ReplicateResponse {
                model_id: hotspot,
                stored: true,
            })),
            "other",
        ),
        // Wrong methods and unknown routes: 404 for GET and POST, 405
        // otherwise, counted under the path's label.
        row(
            get("/v1/profile"),
            404,
            error_body(404, "no such route /v1/profile"),
            "profile",
        ),
        row(
            raw_request("DELETE", "/v1/profile", "", None),
            405,
            error_body(405, "method DELETE not supported"),
            "profile",
        ),
        row(
            raw_request("PUT", "/healthz", "", None),
            405,
            error_body(405, "method PUT not supported"),
            "other",
        ),
        row(
            get("/nope"),
            404,
            error_body(404, "no such route /nope"),
            "other",
        ),
        // The body of an unknown route is read before the route is
        // refused (the keep-alive follow-up proves the socket is in
        // sync), and a body over the limit is refused before the route
        // is looked at — and is not counted.
        row(
            post("/nope", "{\"ignored\":true}"),
            404,
            error_body(404, "no such route /nope"),
            "other",
        ),
        MatrixRow {
            connection: "close",
            label: None,
            ..row(
                raw_request("POST", "/nope", "Content-Length: 99999999\r\n", None),
                413,
                error_body(413, "body of 99999999 bytes exceeds the 4194304-byte limit"),
                "other",
            )
        },
        row(
            post("/v1/profile", "{not json"),
            400,
            Body::Contains("invalid request body"),
            "profile",
        ),
        // A profile request that names nothing known, one whose spec the
        // static analyzer refuses and one that issues no access: the exact
        // 400, 422 and 400.
        row(
            post("/v1/profile", &profile_req("nope", "tiny")),
            400,
            error_body(
                400,
                &format!(
                    "unknown workload \"nope\" (known: {})",
                    gmap_gpu::workloads::NAMES.join(", ")
                ),
            ),
            "profile",
        ),
        row(
            post("/v1/profile", &canonical_json(&oob_req)),
            422,
            error_body(
                422,
                &format!(
                    "spec rejected by static analysis: {}",
                    oob_errors.join("; ")
                ),
            ),
            "profile",
        ),
        row(
            post("/v1/profile", &canonical_json(&empty_req)),
            400,
            error_body(
                400,
                "spec cannot be profiled: input contains no memory accesses",
            ),
            "profile",
        ),
        // Close decisions: asked for by the client, and forced by the
        // per-connection cap on the materialized and the streamed tail.
        MatrixRow {
            connection: "close",
            ..row(
                raw_request("GET", "/healthz", "Connection: close\r\n", None),
                200,
                healthy(),
                "other",
            )
        },
        MatrixRow {
            prelude: MATRIX_KEEPALIVE_MAX - 1,
            connection: "close",
            ..row(get("/healthz"), 200, healthy(), "other")
        },
        MatrixRow {
            prelude: MATRIX_KEEPALIVE_MAX - 1,
            connection: "close",
            ..row(
                post(ingest_target, &trace),
                200,
                Body::Exact(canonical_json(&ingested)),
                "ingest",
            )
        },
        // Transient statuses carry Retry-After; an ingest error abandons
        // the body, so it also closes (the row sends none of the bytes it
        // declares: the close is then a clean FIN, not a reset).
        MatrixRow {
            retry_after: true,
            ..row(
                raw_request(
                    "POST",
                    "/v1/profile",
                    "X-Gmap-Deadline-Ms: 0\r\n",
                    Some(&profile_req("kmeans", "tiny")),
                ),
                504,
                match kind {
                    Kind::Replica => Body::Contains("deadline ex"),
                    Kind::Router => error_body(504, forwarding_504),
                },
                "profile",
            )
        },
        MatrixRow {
            retry_after: true,
            connection: "close",
            ..row(
                raw_request(
                    "POST",
                    ingest_target,
                    "X-Gmap-Deadline-Ms: 0\r\nContent-Length: 64\r\n",
                    None,
                ),
                504,
                match kind {
                    Kind::Replica => error_body(504, "deadline exceeded while streaming trace"),
                    Kind::Router => error_body(504, forwarding_504),
                },
                "ingest",
            )
        },
        // Targets with a query string route on their path; a refusal
        // still names the whole target.
        row(get("/healthz?probe=1"), 200, healthy(), "other"),
        MatrixRow {
            content_type: "text/plain; version=0.0.4",
            ..row(
                get("/metrics?x=1"),
                200,
                Body::Contains("# TYPE gmap_requests_total counter\n"),
                "other",
            )
        },
        row(
            post("/v1/profile?x=1", &profile_req("kmeans", "tiny")),
            200,
            Body::Exact(canonical_json(&ProfileResponse {
                cached: true,
                ..kmeans.clone()
            })),
            "profile",
        ),
        row(
            get("/v1/ingest?grid=1&block=32"),
            404,
            error_body(404, "no such route /v1/ingest?grid=1&block=32"),
            "ingest",
        ),
        // The retired drain route is refused like any unknown one, and
        // `/healthz` still answers ok after it.
        row(
            post("/v1/admin/drain", ""),
            404,
            error_body(404, "no such route /v1/admin/drain"),
            "other",
        ),
        row(get("/healthz"), 200, healthy(), "other"),
    ]
}

const MATRIX_KEEPALIVE_MAX: usize = 3;

/// `(requests, errors)` per endpoint label, read from the registry the
/// way `/metrics` renders it (without serving a request to do so).
fn endpoint_counts(server: &gmap_serve::ServerHandle) -> Vec<(f64, f64)> {
    let text = server
        .state()
        .metrics
        .render(gmap_serve::metrics::RuntimeStats::default());
    MATRIX_LABELS
        .iter()
        .map(|label| {
            let series = |family: &str| {
                scrape(&text, &format!("{family}{{endpoint=\"{label}\"}}")).expect("rendered")
            };
            (
                series("gmap_requests_total"),
                series("gmap_request_errors_total"),
            )
        })
        .collect()
}

/// Drives every row over a raw socket against `addr` and checks the
/// reply and the per-label request/error deltas in `server`'s registry.
fn drive_matrix(server: &gmap_serve::ServerHandle, kind: Kind) {
    let addr = server.addr().to_string();
    let healthz = raw_request("GET", "/healthz", "", None);
    for row in matrix_rows(kind) {
        let what = row.raw.lines().next().unwrap_or("").to_string();
        let before = endpoint_counts(server);
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for _ in 0..row.prelude {
            stream.write_all(healthz.as_bytes()).expect("write prelude");
            let r = read_one_response(&mut reader);
            assert_eq!((r.status, r.connection.as_str()), (200, KEEP), "{what}");
        }
        stream.write_all(row.raw.as_bytes()).expect("write");
        let r = read_one_response(&mut reader);
        assert_eq!(r.status, row.status, "{what}: {}", r.body);
        assert_eq!(r.content_type, row.content_type, "{what}");
        assert_eq!(r.connection, row.connection, "{what}");
        assert_eq!(
            r.retry_after.is_some(),
            row.retry_after,
            "{what}: Retry-After"
        );
        match &row.body {
            Body::Exact(want) => assert_eq!(&r.body, want, "{what}"),
            Body::Contains(part) => assert!(r.body.contains(part), "{what}: {}", r.body),
        }
        let mut others = row.prelude;
        if row.connection == KEEP {
            // The connection is positioned at the next request.
            stream
                .write_all(healthz.as_bytes())
                .expect("write follow-up");
            let r = read_one_response(&mut reader);
            assert_eq!(r.status, 200, "{what}: follow-up on the same socket");
            others += 1;
        } else {
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).expect("closed cleanly");
            assert!(rest.is_empty(), "{what}: nothing follows a closing reply");
        }
        let after = endpoint_counts(server);
        for (i, label) in MATRIX_LABELS.iter().enumerate() {
            let counted = usize::from(row.label == Some(label));
            let failed = usize::from(counted == 1 && row.status >= 400);
            let extra = if *label == "other" { others } else { 0 };
            assert_eq!(
                (after[i].0 - before[i].0, after[i].1 - before[i].1),
                ((counted + extra) as f64, failed as f64),
                "{what}: requests/errors counted under {label}"
            );
        }
    }
}

/// One row per (method, target): status, `Content-Type`, `Connection`,
/// `Retry-After`, body and the `/metrics` endpoint a request is counted
/// under, for a replica and for a router in front of one.
#[test]
fn request_matrix() {
    let config = || ServeConfig {
        keepalive_max: MATRIX_KEEPALIVE_MAX,
        ..ServeConfig::default()
    };
    // Every refusal is a structured reply: no row panics a worker.
    let no_panics = |server: &gmap_serve::ServerHandle| {
        let m = client::get(&server.addr().to_string(), "/metrics").expect("metrics reachable");
        assert_eq!(scrape(&m.body, "gmap_worker_panics_total"), Some(0.0));
    };
    let (replica, _) = start(config());
    drive_matrix(&replica, Kind::Replica);
    no_panics(&replica);
    replica.shutdown();

    let (backend, backend_addr) = start(config());
    let (router, _) = start(ServeConfig {
        route: Some(vec![backend_addr]),
        ..config()
    });
    drive_matrix(&router, Kind::Router);
    no_panics(&router);
    no_panics(&backend);
    router.shutdown();
    backend.shutdown();
}
