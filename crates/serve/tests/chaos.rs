//! Chaos acceptance test: concurrent clients drive a live server while
//! the deterministic fault injector ([`gmap_serve::faults`]) breaks the
//! disk cache, panics handlers, slows workers, truncates request bodies,
//! and resets connections mid-response.
//!
//! Invariants asserted for every fault spec:
//! * no worker thread dies (shutdown joins the pool; a clean pass after
//!   disarming the injector proves the workers still function),
//! * no corrupted cache entry is ever served (every 200 body is
//!   byte-identical to a direct library call),
//! * every accepted request gets exactly one response (all client
//!   threads complete with a definite outcome, never a hang),
//! * post-chaos results are byte-identical to a fault-free run, even
//!   after reopening a cache directory that holds torn entries.
//!
//! The fault seed is pinned via `GMAP_CHAOS_SEED` (CI does this) so a
//! failing run can be replayed; without it a fixed default applies.

use gmap_core::cachekey::canonical_json;
use gmap_serve::api::{EvaluateRequest, GridPoint, ProfileRequest, ProfileResponse};
use gmap_serve::cache::ModelStore;
use gmap_serve::client::{self, RetryPolicy};
use gmap_serve::faults::{FaultInjector, FaultKind, FaultSpec};
use gmap_serve::handlers;
use gmap_serve::metrics::{scrape, Metrics};
use gmap_serve::shard::Ring;
use gmap_serve::{ServeConfig, ServerHandle};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const CHAOS_WORKLOADS: [&str; 3] = ["kmeans", "bfs", "hotspot"];

/// Statuses a client may legitimately observe while faults are armed.
const TRANSIENT: [u16; 5] = [408, 429, 500, 503, 504];

fn chaos_seed() -> u64 {
    std::env::var("GMAP_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_807)
}

fn profile_req(workload: &str) -> String {
    canonical_json(&ProfileRequest {
        workload: Some(workload.into()),
        scale: Some("tiny".into()),
        spec: None,
    })
}

fn eval_grid() -> Vec<GridPoint> {
    [16u64, 32]
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

fn eval_req(model_id: &str) -> String {
    canonical_json(&EvaluateRequest {
        model_id: model_id.into(),
        kernel: None,
        metric: None,
        seed: None,
        grid: eval_grid(),
    })
}

/// Per-workload fault-free expectations from direct library calls.
struct Expected {
    model_id: String,
    profile_stats: String,
    evaluate_body: String,
}

fn expectations() -> Vec<(String, Expected)> {
    expectations_for(&CHAOS_WORKLOADS)
}

fn expectations_for(workloads: &[&str]) -> Vec<(String, Expected)> {
    let store = ModelStore::new(None).expect("memory store");
    let metrics = Metrics::new();
    workloads
        .iter()
        .map(|w| {
            let req = ProfileRequest {
                workload: Some((*w).into()),
                scale: Some("tiny".into()),
                spec: None,
            };
            let p = handlers::profile(&store, &metrics, &req, &AtomicBool::new(false))
                .expect("direct profile");
            let e = handlers::evaluate(
                &store,
                &EvaluateRequest {
                    model_id: p.model_id.clone(),
                    kernel: None,
                    metric: None,
                    seed: None,
                    grid: eval_grid(),
                },
                &AtomicBool::new(false),
            )
            .expect("direct evaluate");
            (
                (*w).to_string(),
                Expected {
                    model_id: p.model_id.clone(),
                    profile_stats: canonical_json(&p.stats),
                    evaluate_body: canonical_json(&e),
                },
            )
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gmap-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 10,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(100),
        seed: chaos_seed(),
    }
}

/// Checks one served profile body against the oracle. Panics on any
/// divergence — a 200 carrying wrong bytes is the worst possible outcome.
fn verify_profile(body: &str, want: &Expected, ctx: &str) {
    let served: ProfileResponse = serde_json::from_str(body)
        .unwrap_or_else(|e| panic!("{ctx}: 200 body must parse: {e}: {body}"));
    assert_eq!(served.model_id, want.model_id, "{ctx}: model id diverged");
    assert_eq!(
        canonical_json(&served.stats),
        want.profile_stats,
        "{ctx}: served stats diverged from direct call"
    );
}

/// Drives one fault spec end to end and returns the total number of
/// injected faults (so callers can assert the spec actually fired).
fn run_chaos_round(tag: &str, spec: FaultSpec, expected: &[(String, Expected)]) -> u64 {
    let cache_dir = temp_dir(tag);
    let handle = gmap_serve::start(ServeConfig {
        workers: 2,
        queue_capacity: 64,
        deadline: Duration::from_secs(30),
        cache_dir: Some(cache_dir.clone()),
        faults: Some(spec),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    // Phase 1: concurrent clients under fire. Every request must end in
    // a definite outcome — a verified 200, a transient status, or a
    // transport error — never a hang or a wrong payload.
    let successes = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let addr = addr.clone();
            let successes = Arc::clone(&successes);
            let expected: Vec<(String, Expected)> = expected
                .iter()
                .map(|(w, e)| {
                    (
                        w.clone(),
                        Expected {
                            model_id: e.model_id.clone(),
                            profile_stats: e.profile_stats.clone(),
                            evaluate_body: e.evaluate_body.clone(),
                        },
                    )
                })
                .collect();
            thread::spawn(move || {
                let policy = RetryPolicy {
                    seed: retry_policy().seed ^ t,
                    ..retry_policy()
                };
                for round in 0..3 {
                    for (w, want) in &expected {
                        let ctx = format!("thread {t} round {round} workload {w}");
                        let profiled = client::request_with_retry(
                            &addr,
                            "POST",
                            "/v1/profile",
                            Some(&profile_req(w)),
                            &policy,
                        );
                        let profile_ok = match profiled {
                            Ok(r) if r.status == 200 => {
                                verify_profile(&r.body, want, &ctx);
                                successes.fetch_add(1, Ordering::Relaxed);
                                true
                            }
                            Ok(r) => {
                                assert!(
                                    TRANSIENT.contains(&r.status),
                                    "{ctx}: unexpected status {}: {}",
                                    r.status,
                                    r.body
                                );
                                false
                            }
                            // Injected resets/truncations surface as
                            // transport errors; a definite outcome.
                            Err(_) => false,
                        };
                        if !profile_ok {
                            continue;
                        }
                        match client::request_with_retry(
                            &addr,
                            "POST",
                            "/v1/evaluate",
                            Some(&eval_req(&want.model_id)),
                            &policy,
                        ) {
                            Ok(r) if r.status == 200 => {
                                assert_eq!(
                                    r.body, want.evaluate_body,
                                    "{ctx}: evaluate body diverged from direct call"
                                );
                                successes.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(r) => assert!(
                                TRANSIENT.contains(&r.status),
                                "{ctx}: unexpected evaluate status {}: {}",
                                r.status,
                                r.body
                            ),
                            Err(_) => {}
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("chaos client thread completes");
    }
    assert!(
        successes.load(Ordering::Relaxed) > 0,
        "{tag}: the service must make progress under faults"
    );

    // Phase 2: disarm and prove the service is fully intact — workers
    // alive, cache serving correct bytes, panics contained and counted.
    let injector = Arc::clone(
        handle
            .state()
            .fault_injector()
            .expect("fault spec configured"),
    );
    injector.set_armed(false);
    for (w, want) in expected {
        let r = client::post_json(&addr, "/v1/profile", &profile_req(w))
            .expect("clean profile reachable");
        assert_eq!(r.status, 200, "{tag}: clean profile: {}", r.body);
        verify_profile(&r.body, want, &format!("{tag} clean pass {w}"));
        let r = client::post_json(&addr, "/v1/evaluate", &eval_req(&want.model_id))
            .expect("clean evaluate reachable");
        assert_eq!(r.status, 200, "{tag}: clean evaluate: {}", r.body);
        assert_eq!(
            r.body, want.evaluate_body,
            "{tag}: post-chaos evaluate must be byte-identical to a fault-free run"
        );
    }
    let m = client::get(&addr, "/metrics").expect("metrics reachable");
    assert_eq!(
        scrape(&m.body, "gmap_worker_panics_total"),
        Some(injector.injected(FaultKind::Panic) as f64),
        "{tag}: every injected panic was contained and counted"
    );
    let injected_total = injector.injected_total();
    let injected_short_writes = injector.injected(FaultKind::ShortWrite);
    handle.shutdown();

    // Phase 3: reopen the cache directory with a fresh, fault-free
    // server. Torn disk entries from injected short writes must be
    // quarantined — never served — and results must still match.
    let handle = gmap_serve::start(ServeConfig {
        workers: 2,
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    })
    .expect("reopen cache dir");
    let addr = handle.addr().to_string();
    for (w, want) in expected {
        let r = client::post_json(&addr, "/v1/profile", &profile_req(w))
            .expect("reopened profile reachable");
        assert_eq!(r.status, 200, "{tag}: reopened profile: {}", r.body);
        verify_profile(&r.body, want, &format!("{tag} reopened {w}"));
    }
    if injected_short_writes > 0 {
        let m = client::get(&addr, "/metrics").expect("metrics reachable");
        let quarantined =
            scrape(&m.body, "gmap_cache_quarantined_total").expect("quarantine counter exported");
        assert!(
            quarantined >= 1.0,
            "{tag}: torn disk entries must be quarantined on reopen"
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
    injected_total
}

#[test]
fn service_survives_every_fault_kind() {
    let seed = chaos_seed();
    let expected = expectations();
    // One spec per fault kind, rates high enough that each kind provably
    // fires, plus a combined everything-at-once spec.
    let specs: Vec<(&str, String)> = vec![
        ("disk-err", format!("{seed}:disk_err=0.5")),
        ("short-write", format!("{seed}:short_write=0.8")),
        ("panic", format!("{seed}:panic=0.3")),
        ("slow", format!("{seed}:slow=0.5,slow_ms=15")),
        ("trunc-body", format!("{seed}:trunc_body=0.3")),
        ("reset", format!("{seed}:reset=0.3")),
        (
            "everything",
            format!(
                "{seed}:disk_err=0.2,short_write=0.3,panic=0.15,slow=0.2,slow_ms=10,\
                 trunc_body=0.15,reset=0.15"
            ),
        ),
    ];
    for (tag, spec) in specs {
        let parsed = FaultSpec::parse(&spec).expect("valid chaos spec");
        let injected = run_chaos_round(tag, parsed, &expected);
        assert!(
            injected > 0,
            "{tag}: spec {spec:?} never injected a fault — the round was vacuous"
        );
    }
}

// ------------------------------------------------------------------
// Sharded chaos: a router fronting a replica fleet. CI runs these with
// `--test chaos sharded`, so every test name below contains "sharded".

/// A router fronting `n` replicas. Each replica carries a *disarmed*
/// `reset=1` fault injector: arming it "kills" the replica (every
/// response is cut mid-write, so peers see pure transport failures) and
/// disarming it "restarts" the replica — no port rebinding, so the
/// kill/restart sequence is deterministic even under concurrent load.
struct Fleet {
    replicas: Vec<ServerHandle>,
    injectors: Vec<Arc<FaultInjector>>,
    peers: Vec<String>,
    router: ServerHandle,
}

fn start_fleet(n: usize) -> Fleet {
    let seed = chaos_seed();
    let mut replicas = Vec::new();
    let mut injectors = Vec::new();
    let mut peers = Vec::new();
    for i in 0..n {
        let spec =
            FaultSpec::parse(&format!("{}:reset=1", seed ^ i as u64)).expect("valid kill spec");
        let handle = gmap_serve::start(ServeConfig {
            workers: 2,
            queue_capacity: 64,
            deadline: Duration::from_secs(30),
            faults: Some(spec),
            ..ServeConfig::default()
        })
        .expect("bind replica");
        let injector = Arc::clone(
            handle
                .state()
                .fault_injector()
                .expect("fault spec configured"),
        );
        injector.set_armed(false); // healthy until the test kills it
        peers.push(handle.addr().to_string());
        injectors.push(injector);
        replicas.push(handle);
    }
    let router = gmap_serve::start(ServeConfig {
        workers: 1,
        deadline: Duration::from_secs(30),
        route: Some(peers.clone()),
        ..ServeConfig::default()
    })
    .expect("bind router");
    Fleet {
        replicas,
        injectors,
        peers,
        router,
    }
}

impl Fleet {
    fn router_addr(&self) -> String {
        self.router.addr().to_string()
    }

    fn kill(&self, i: usize) {
        self.injectors[i].set_armed(true);
    }

    fn restart(&self, i: usize) {
        self.injectors[i].set_armed(false);
    }

    fn shutdown(self) {
        self.router.shutdown();
        for replica in self.replicas {
            replica.shutdown();
        }
    }
}

/// Scrapes one counter off the router's `/metrics` (0 when absent).
fn route_metric(addr: &str, name: &str) -> f64 {
    let m = client::get(addr, "/metrics").expect("router metrics reachable");
    scrape(&m.body, name).unwrap_or(0.0)
}

fn note_latency(max_ms: &AtomicU64, begin: Instant) {
    let ms = begin.elapsed().as_millis() as u64;
    max_ms.fetch_max(ms, Ordering::Relaxed);
}

/// The headline sharding invariant: a storm of routed traffic survives a
/// replica being killed and restarted mid-sweep with every 200 response
/// byte-identical to a direct library call, every non-200 an honest
/// transient status carrying `Retry-After`, per-request latency bounded,
/// and the router's failover counter proving the kill was observed.
#[test]
fn sharded_fleet_survives_replica_kill_and_restart_mid_sweep() {
    let expected = expectations();
    let fleet = start_fleet(3);
    let addr = fleet.router_addr();

    // Pre-warm every replica with every model, replica-direct. Sharding
    // here is cache *locality*, not data placement: any replica computes
    // any request identically (content-addressed pipeline), which is
    // exactly what makes failover byte-identical instead of wrong.
    for peer in &fleet.peers {
        for (w, want) in &expected {
            let r = client::post_json(peer, "/v1/profile", &profile_req(w)).expect("prewarm");
            assert_eq!(r.status, 200, "prewarm {w} on {peer}: {}", r.body);
            verify_profile(&r.body, want, &format!("prewarm {w} on {peer}"));
        }
    }

    // Victim: the replica owning the kmeans model, so the kill is
    // guaranteed to sit on the routing path of live traffic.
    let kmeans_id = &expected
        .iter()
        .find(|(w, _)| w == "kmeans")
        .expect("kmeans expectation")
        .1
        .model_id;
    let owner = fleet
        .router
        .state()
        .router()
        .expect("router mode")
        .ring()
        .owner(kmeans_id)
        .expect("nonempty ring")
        .to_string();
    let victim = fleet
        .peers
        .iter()
        .position(|p| *p == owner)
        .expect("owner is a fleet peer");

    let stop = Arc::new(AtomicBool::new(false));
    let successes = Arc::new(AtomicUsize::new(0));
    let max_ms = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let successes = Arc::clone(&successes);
            let max_ms = Arc::clone(&max_ms);
            let expected: Vec<(String, Expected)> = expected
                .iter()
                .map(|(w, e)| {
                    (
                        w.clone(),
                        Expected {
                            model_id: e.model_id.clone(),
                            profile_stats: e.profile_stats.clone(),
                            evaluate_body: e.evaluate_body.clone(),
                        },
                    )
                })
                .collect();
            thread::spawn(move || {
                let policy = RetryPolicy {
                    seed: retry_policy().seed ^ (100 + t),
                    ..retry_policy()
                };
                let check = |r: &client::Response, ctx: &str| {
                    assert!(
                        TRANSIENT.contains(&r.status),
                        "{ctx}: unexpected status {}: {}",
                        r.status,
                        r.body
                    );
                    if matches!(r.status, 429 | 500 | 503 | 504) {
                        assert!(
                            r.retry_after.is_some(),
                            "{ctx}: honest {} must carry Retry-After",
                            r.status
                        );
                    }
                };
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for (w, want) in &expected {
                        let ctx = format!("sharded thread {t} round {round} workload {w}");
                        let begin = Instant::now();
                        let profiled = client::request_with_retry(
                            &addr,
                            "POST",
                            "/v1/profile",
                            Some(&profile_req(w)),
                            &policy,
                        );
                        note_latency(&max_ms, begin);
                        match profiled {
                            Ok(r) if r.status == 200 => {
                                verify_profile(&r.body, want, &ctx);
                                successes.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(r) => check(&r, &ctx),
                            Err(_) => {}
                        }
                        let begin = Instant::now();
                        let evaluated = client::request_with_retry(
                            &addr,
                            "POST",
                            "/v1/evaluate",
                            Some(&eval_req(&want.model_id)),
                            &policy,
                        );
                        note_latency(&max_ms, begin);
                        match evaluated {
                            Ok(r) if r.status == 200 => {
                                assert_eq!(
                                    r.body, want.evaluate_body,
                                    "{ctx}: routed evaluate diverged from direct call"
                                );
                                successes.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(r) => check(&r, &format!("{ctx} evaluate")),
                            Err(_) => {}
                        }
                    }
                    round += 1;
                }
            })
        })
        .collect();

    // Conductor: let traffic flow, kill the owner mid-sweep, wait until
    // the router provably failed over, then restart it.
    thread::sleep(Duration::from_millis(150));
    fleet.kill(victim);
    let kill_started = Instant::now();
    while route_metric(&addr, "gmap_route_failovers_total") < 1.0 {
        assert!(
            kill_started.elapsed() < Duration::from_secs(20),
            "router never recorded a failover after the kill"
        );
        thread::sleep(Duration::from_millis(25));
    }
    fleet.restart(victim);
    thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        t.join().expect("storm thread completes");
    }
    assert!(
        successes.load(Ordering::Relaxed) > 0,
        "the fleet must make progress through the kill window"
    );
    assert!(
        max_ms.load(Ordering::Relaxed) < 15_000,
        "tail latency must stay bounded (worst request {}ms)",
        max_ms.load(Ordering::Relaxed)
    );

    // Clean pass with the victim restored: routed results byte-identical.
    for (w, want) in &expected {
        let r = client::post_json(&addr, "/v1/profile", &profile_req(w))
            .expect("routed profile reachable");
        assert_eq!(r.status, 200, "clean routed profile {w}: {}", r.body);
        verify_profile(&r.body, want, &format!("clean routed {w}"));
        let r = client::post_json(&addr, "/v1/evaluate", &eval_req(&want.model_id))
            .expect("routed evaluate reachable");
        assert_eq!(r.status, 200, "clean routed evaluate {w}: {}", r.body);
        assert_eq!(
            r.body, want.evaluate_body,
            "clean routed evaluate {w} must be byte-identical to a direct call"
        );
    }

    // The per-shard counters moved: at least one forward somewhere, at
    // least one failover total, and every peer's labeled series exists.
    let m = client::get(&addr, "/metrics").expect("router metrics reachable");
    let mut forwards_total = 0.0;
    for peer in &fleet.peers {
        let series = format!("gmap_route_forwards_total{{peer=\"{peer}\"}}");
        let n = scrape(&m.body, &series).unwrap_or_else(|| panic!("router must export {series}"));
        forwards_total += n;
    }
    assert!(forwards_total >= 1.0, "router must have forwarded requests");
    let failovers =
        scrape(&m.body, "gmap_route_failovers_total").expect("failover counter exported");
    assert!(failovers >= 1.0, "the kill must have forced a failover");
    fleet.shutdown();
}

/// The router walks past a replica that refuses connections: the
/// builtins whose model the ring places on the dead peer are profiled
/// and evaluated on its successors, byte-identical to direct calls.
#[test]
fn sharded_router_fails_over_past_dead_replica() {
    let live: Vec<ServerHandle> = (0..2)
        .map(|_| {
            gmap_serve::start(ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            })
            .expect("bind replica")
        })
        .collect();
    // An ephemeral port that was bound and immediately released: connects
    // to it are refused — a permanently dead fleet member. A fresh one is
    // drawn until the ring gives it at least one builtin's model.
    let (peers, orphaned) = (0..16)
        .find_map(|_| {
            let throwaway = std::net::TcpListener::bind("127.0.0.1:0").expect("bind throwaway");
            let dead = throwaway.local_addr().expect("throwaway addr").to_string();
            let mut peers: Vec<String> = live.iter().map(|h| h.addr().to_string()).collect();
            peers.push(dead.clone());
            let ring = Ring::new(&peers);
            let orphaned: Vec<&str> = gmap_gpu::workloads::NAMES
                .iter()
                .copied()
                .filter(|w| ring.owner(&handlers::model_id_for(w, "tiny")) == Some(dead.as_str()))
                .collect();
            (!orphaned.is_empty()).then_some((peers, orphaned))
        })
        .expect("some builtin's model lands on the dead peer");
    let router = gmap_serve::start(ServeConfig {
        workers: 1,
        deadline: Duration::from_secs(30),
        route: Some(peers),
        ..ServeConfig::default()
    })
    .expect("bind router");
    let addr = router.addr().to_string();

    for (w, want) in &expectations_for(&orphaned) {
        let ctx = format!("router dead-owner workload {w}");
        let r = client::post_json(&addr, "/v1/profile", &profile_req(w))
            .expect("profile fails over to a live replica");
        assert_eq!(r.status, 200, "{ctx}: {}", r.body);
        verify_profile(&r.body, want, &ctx);
        // Same key ⇒ same successor order ⇒ the replica that profiled
        // also evaluates, so the model is present.
        let r = client::post_json(&addr, "/v1/evaluate", &eval_req(&want.model_id))
            .expect("evaluate fails over to a live replica");
        assert_eq!(r.status, 200, "{ctx}: evaluate: {}", r.body);
        assert_eq!(
            r.body, want.evaluate_body,
            "{ctx}: failover evaluate must be byte-identical to a direct call"
        );
    }
    assert!(
        route_metric(&addr, "gmap_route_failovers_total") >= 1.0,
        "the dead owner must have forced a failover"
    );
    router.shutdown();
    for handle in live {
        handle.shutdown();
    }
}

// ------------------------------------------------------------------
// Replicated-fleet chaos: `--fleet` replicas with successor
// replication and hinted handoff. CI runs these as a gated
// step with `--test chaos replicated`, so every test name below
// contains "replicated".

/// Pre-allocates `n` distinct loopback addresses by binding ephemeral
/// ports and immediately releasing them. Fleet members must know each
/// other's addresses *before* any server starts, so the usual
/// bind-then-read-the-port trick cannot work here.
fn reserve_addrs(n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
            l.local_addr().expect("reserved addr").to_string()
        })
        .collect()
}

/// A replica fleet with successor replication (RF=2) and fast health
/// probes. Same disarmed `reset=1` kill switch as [`Fleet`].
struct ReplFleet {
    replicas: Vec<ServerHandle>,
    injectors: Vec<Arc<FaultInjector>>,
    peers: Vec<String>,
}

/// Starts `n` fleet replicas on pre-reserved addresses. Another process
/// can steal a released port between reservation and bind, so the whole
/// fleet is retried on bind failure.
fn start_repl_fleet(n: usize) -> ReplFleet {
    let seed = chaos_seed();
    'attempt: for _ in 0..5 {
        let peers = reserve_addrs(n);
        let mut replicas = Vec::new();
        let mut injectors = Vec::new();
        for (i, addr) in peers.iter().enumerate() {
            let spec = FaultSpec::parse(&format!("{}:reset=1", seed ^ (40 + i as u64)))
                .expect("valid kill spec");
            let started = gmap_serve::start(ServeConfig {
                listen: addr.clone(),
                workers: 2,
                queue_capacity: 64,
                deadline: Duration::from_secs(30),
                faults: Some(spec),
                fleet: Some(peers.clone()),
                advertise: Some(addr.clone()),
                replication_factor: 2,
                probe_interval: Duration::from_millis(100),
                ..ServeConfig::default()
            });
            match started {
                Ok(handle) => {
                    let injector = Arc::clone(
                        handle
                            .state()
                            .fault_injector()
                            .expect("fault spec configured"),
                    );
                    injector.set_armed(false);
                    injectors.push(injector);
                    replicas.push(handle);
                }
                Err(_) => {
                    for handle in replicas {
                        handle.shutdown();
                    }
                    continue 'attempt;
                }
            }
        }
        return ReplFleet {
            replicas,
            injectors,
            peers,
        };
    }
    panic!("could not bind a reserved replica fleet in 5 attempts");
}

impl ReplFleet {
    fn kill(&self, i: usize) {
        self.injectors[i].set_armed(true);
    }

    fn restart(&self, i: usize) {
        self.injectors[i].set_armed(false);
    }

    fn shutdown(self) {
        for replica in self.replicas {
            replica.shutdown();
        }
    }
}

/// Polls `addr`'s metric `name` until `pred` holds (panics after 20s).
fn wait_for_metric(addr: &str, name: &str, pred: impl Fn(f64) -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if pred(route_metric(addr, name)) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what} ({name} on {addr} is {})",
            route_metric(addr, name)
        );
        thread::sleep(Duration::from_millis(25));
    }
}

/// The replication acceptance headline: after the owner of a model is
/// killed, its ring successor serves the key from its *replica copy* —
/// byte-identical, with zero recompute (the successor's cache-miss
/// counter does not move).
#[test]
fn replicated_fleet_serves_victim_keys_from_replica_without_recompute() {
    let expected = expectations();
    let fleet = start_repl_fleet(3);
    let router = gmap_serve::start(ServeConfig {
        workers: 1,
        deadline: Duration::from_secs(30),
        route: Some(fleet.peers.clone()),
        probe_interval: Duration::from_millis(100),
        ..ServeConfig::default()
    })
    .expect("bind router");
    let addr = router.addr().to_string();

    // One routed profile per workload: each lands on its owner, which
    // asynchronously write-through-replicates to its ring successor.
    for (w, want) in &expected {
        let r = client::post_json(&addr, "/v1/profile", &profile_req(w)).expect("routed profile");
        assert_eq!(r.status, 200, "routed profile {w}: {}", r.body);
        verify_profile(&r.body, want, &format!("routed profile {w}"));
    }

    let ring = gmap_serve::shard::Ring::new(&fleet.peers);
    let kmeans = &expected
        .iter()
        .find(|(w, _)| w == "kmeans")
        .expect("kmeans expectation")
        .1;
    let set = ring.replica_set(&kmeans.model_id, 2);
    let (owner, successor) = (set[0].to_string(), set[1].to_string());
    let victim = fleet
        .peers
        .iter()
        .position(|p| *p == owner)
        .expect("owner is a fleet member");

    // The successor can answer /v1/evaluate for the model only once the
    // replica copy has arrived — poll until replication lands.
    let eval_body = eval_req(&kmeans.model_id);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let r =
            client::post_json(&successor, "/v1/evaluate", &eval_body).expect("successor reachable");
        if r.status == 200 {
            assert_eq!(
                r.body, kmeans.evaluate_body,
                "replica copy must evaluate byte-identically"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replication to the successor never landed (last status {})",
            r.status
        );
        thread::sleep(Duration::from_millis(25));
    }
    // Every store's one push must have landed before the successor's
    // outbound counters are read below: a push still in flight would
    // count against the successor after the owner is killed.
    let sent_total = || -> f64 {
        fleet
            .peers
            .iter()
            .map(|p| route_metric(p, "gmap_replication_total"))
            .sum()
    };
    while sent_total() < expected.len() as f64 {
        assert!(
            Instant::now() < deadline,
            "replication never settled ({} of {} pushes)",
            sent_total(),
            expected.len()
        );
        thread::sleep(Duration::from_millis(25));
    }

    // Kill the owner; the router must take it down (passive failures
    // plus failed /healthz probes), and the successor must serve the
    // victim's keys from its replica copy with zero recompute: its miss
    // counter stays exactly where it was.
    let misses_before = route_metric(&successor, "gmap_cache_misses_total");
    // Nor does serving them make the successor push anything: the owner
    // is owed nothing it did not already hold.
    let outbound = |peer: &str| {
        route_metric(peer, "gmap_replication_total") + route_metric(peer, "gmap_hints_queued_total")
    };
    let outbound_before = outbound(&successor);
    fleet.kill(victim);
    wait_for_metric(
        &addr,
        "gmap_peer_ejections_total",
        |v| v >= 1.0,
        "the router to eject the killed owner",
    );
    let policy = retry_policy();
    let r = client::request_with_retry(
        &addr,
        "POST",
        "/v1/profile",
        Some(&profile_req("kmeans")),
        &policy,
    )
    .expect("routed profile with the owner dead");
    assert_eq!(r.status, 200, "owner-dead routed profile: {}", r.body);
    verify_profile(&r.body, kmeans, "owner-dead routed profile");
    let r = client::request_with_retry(&addr, "POST", "/v1/evaluate", Some(&eval_body), &policy)
        .expect("routed evaluate with the owner dead");
    assert_eq!(r.status, 200, "owner-dead routed evaluate: {}", r.body);
    assert_eq!(
        r.body, kmeans.evaluate_body,
        "owner-dead routed evaluate must be byte-identical"
    );
    let misses_after = route_metric(&successor, "gmap_cache_misses_total");
    assert!(
        misses_after <= misses_before,
        "the successor must serve the victim's keys from its replica copy, not recompute \
         (misses {misses_before} -> {misses_after})"
    );
    // Two probe intervals and a worker tick: anything enqueued by the
    // two reads above would have been pushed or hinted by now.
    thread::sleep(Duration::from_millis(300));
    assert_eq!(
        outbound(&successor),
        outbound_before,
        "a hit at a non-owner replica pushes nothing and owes nothing"
    );

    // Restart the victim: the router's next probe answer must bring it
    // back up, and a clean routed pass stays byte-identical.
    fleet.restart(victim);
    wait_for_metric(
        &addr,
        "gmap_peer_recoveries_total",
        |v| v >= 1.0,
        "the router to re-admit the restarted owner",
    );
    for (w, want) in &expected {
        let r = client::request_with_retry(
            &addr,
            "POST",
            "/v1/profile",
            Some(&profile_req(w)),
            &policy,
        )
        .expect("clean routed profile");
        assert_eq!(r.status, 200, "clean routed profile {w}: {}", r.body);
        verify_profile(&r.body, want, &format!("clean routed {w}"));
    }
    router.shutdown();
    fleet.shutdown();
}

/// One store costs RF−1 pushes: the originator aims at every other
/// member of the key's replica set and nobody pushes onward, so N
/// distinct profiles on a healthy RF=2 fleet settle at exactly N pushes
/// fleet-wide — with every model held by both members of its set.
#[test]
fn replicated_store_costs_one_push_per_extra_replica() {
    let expected = expectations();
    let fleet = start_repl_fleet(3);
    let ring = gmap_serve::shard::Ring::new(&fleet.peers);
    for (w, want) in &expected {
        let owner = ring.owner(&want.model_id).expect("nonempty ring");
        let r = client::post_json(owner, "/v1/profile", &profile_req(w)).expect("owner profile");
        assert_eq!(r.status, 200, "profile {w}: {}", r.body);
        verify_profile(&r.body, want, &format!("owner profile {w}"));
    }
    let sent = || -> f64 {
        fleet
            .peers
            .iter()
            .map(|p| route_metric(p, "gmap_replication_total"))
            .sum()
    };
    let stores = expected.len() as f64;
    let deadline = Instant::now() + Duration::from_secs(20);
    while sent() < stores {
        assert!(
            Instant::now() < deadline,
            "replication never settled ({} of {stores} pushes)",
            sent()
        );
        thread::sleep(Duration::from_millis(25));
    }
    // Several worker ticks of quiet: an echo would have landed by now.
    thread::sleep(Duration::from_millis(500));
    assert_eq!(sent(), stores, "RF=2: one push per store, no echo");
    for peer in &fleet.peers {
        for name in ["gmap_hints_queued_total", "gmap_replication_failed_total"] {
            assert_eq!(route_metric(peer, name), 0.0, "{name} on healthy {peer}");
        }
    }
    for (w, want) in &expected {
        for member in ring.replica_set(&want.model_id, 2) {
            let r = client::post_json(member, "/v1/evaluate", &eval_req(&want.model_id))
                .expect("replica-set member reachable");
            assert_eq!(r.status, 200, "{w} on {member}: {}", r.body);
            assert_eq!(r.body, want.evaluate_body, "{w} on {member}");
        }
    }
    fleet.shutdown();
}

/// Hinted handoff: models stored while a replica-set peer is ejected
/// are owed to it as hints and replayed once health probes see the
/// peer again — the restarted peer ends up holding the model.
#[test]
fn replicated_hinted_handoff_replays_after_victim_restart() {
    let expected = expectations();
    let fleet = start_repl_fleet(3);
    let ring = gmap_serve::shard::Ring::new(&fleet.peers);
    let kmeans = &expected
        .iter()
        .find(|(w, _)| w == "kmeans")
        .expect("kmeans expectation")
        .1;
    let set = ring.replica_set(&kmeans.model_id, 2);
    let (owner, successor) = (set[0].to_string(), set[1].to_string());
    let victim = fleet
        .peers
        .iter()
        .position(|p| *p == successor)
        .expect("successor is a fleet member");

    // Kill the successor and wait until the owner takes it down, so the
    // upcoming store is *hinted* rather than pushed.
    fleet.kill(victim);
    wait_for_metric(
        &owner,
        "gmap_peer_ejections_total",
        |v| v >= 1.0,
        "the owner to eject the killed successor",
    );

    // Store the model on its owner: replication toward the ejected
    // successor becomes a hint.
    let r = client::post_json(&owner, "/v1/profile", &profile_req("kmeans"))
        .expect("owner profile reachable");
    assert_eq!(r.status, 200, "owner profile: {}", r.body);
    verify_profile(&r.body, kmeans, "owner profile");
    wait_for_metric(
        &owner,
        "gmap_hints_queued_total",
        |v| v >= 1.0,
        "the owner to record a hint for the dead successor",
    );

    // Restart the victim: probes re-admit it, the hint replays, and the
    // model materializes on the successor without it ever recomputing.
    fleet.restart(victim);
    wait_for_metric(
        &owner,
        "gmap_hints_replayed_total",
        |v| v >= 1.0,
        "the owner to replay the hint after the restart",
    );
    wait_for_metric(
        &owner,
        "gmap_peer_recoveries_total",
        |v| v >= 1.0,
        "the owner to count the successor's recovery",
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let r = client::post_json(&successor, "/v1/evaluate", &eval_req(&kmeans.model_id))
            .expect("successor reachable after restart");
        if r.status == 200 {
            assert_eq!(
                r.body, kmeans.evaluate_body,
                "the replayed model must evaluate byte-identically"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the replayed hint never materialized on the successor (last status {})",
            r.status
        );
        thread::sleep(Duration::from_millis(25));
    }
    fleet.shutdown();
}

/// A replica that stops loses no key: every entry it stored — also one
/// whose key it does not own — was pushed to each other member of the
/// key's replica set when it was stored, so once those pushes land the
/// survivors serve every model byte-identically without recomputing.
#[test]
fn replicated_stopped_replica_loses_no_keys() {
    let expected = expectations();
    let mut fleet = start_repl_fleet(3);
    let ring = gmap_serve::shard::Ring::new(&fleet.peers);
    // With RF=2 of 3 members, each key's replica set leaves one member
    // out: the one left out of the first key's set stores them all.
    let first_set = ring.replica_set(&expected[0].1.model_id, 2);
    let victim = fleet
        .peers
        .iter()
        .position(|p| !first_set.contains(&p.as_str()))
        .expect("a member outside the first key's replica set");
    let stopped = fleet.peers[victim].clone();

    // Store every workload at that replica directly, whoever owns its
    // key: one push per other member of the key's replica set.
    let mut pushes = 0;
    for (w, want) in &expected {
        let r =
            client::post_json(&stopped, "/v1/profile", &profile_req(w)).expect("profile reachable");
        assert_eq!(r.status, 200, "profile {w}: {}", r.body);
        verify_profile(&r.body, want, &format!("store at {stopped} {w}"));
        let set = ring.replica_set(&want.model_id, 2);
        pushes += set.iter().filter(|p| **p != stopped).count();
    }
    assert!(
        pushes > expected.len(),
        "the stopped replica must hold a key it does not own"
    );
    wait_for_metric(
        &stopped,
        "gmap_replication_total",
        |v| v >= pushes as f64,
        "the stored entries' pushes to land",
    );

    let survivors: Vec<String> = fleet
        .peers
        .iter()
        .filter(|p| **p != stopped)
        .cloned()
        .collect();
    let misses = || -> Vec<f64> {
        survivors
            .iter()
            .map(|p| route_metric(p, "gmap_cache_misses_total"))
            .collect()
    };
    let misses_before = misses();
    fleet.replicas.remove(victim).shutdown();

    for (w, want) in &expected {
        let holders: Vec<&str> = ring
            .replica_set(&want.model_id, 2)
            .into_iter()
            .filter(|p| *p != stopped)
            .collect();
        assert!(!holders.is_empty(), "{w} has a surviving replica");
        for holder in holders {
            let r = client::post_json(holder, "/v1/evaluate", &eval_req(&want.model_id))
                .expect("survivor reachable");
            assert_eq!(r.status, 200, "{w} on {holder}: {}", r.body);
            assert_eq!(r.body, want.evaluate_body, "{w} on {holder}");
        }
    }
    assert_eq!(
        misses(),
        misses_before,
        "the survivors serve the stopped replica's keys without recomputing"
    );
    fleet.shutdown();
}
