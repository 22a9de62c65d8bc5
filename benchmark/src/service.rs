//! The service workloads: `serve_hot`, `serve_fleet`, `ingest_stream`.
//!
//! Servers run in-process through the shipped [`gmap_serve::start`]; load
//! comes from [`CLIENTS`] closed-loop client threads, one fresh connection
//! per request through the shipped [`gmap_serve::client`] — what
//! `gmap client`, the router, the replicator and the prober all do. Every
//! 200 is compared with the body the endpoint's handler produces
//! in-process on a private [`ModelStore`] (the oracle).

use crate::common::{timed_round, Checks, Op, Round, RunOpts, Workload, CLIENTS};
use crate::httpc;
use crate::scrape::Scrape;
use crate::span::{traced, traced_under, Tracer};
use crate::sweeps::SCALE;
use gmap_bench::engine;
use gmap_bench::{sweeps as grids, Metric};
use gmap_core::cachekey::canonical_json;
use gmap_core::{compare_series, summarize, BenchmarkComparison, SimtConfig};
use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::schedule::{WarpStream, WarpStreamEvent};
use gmap_gpu::workloads;
use gmap_ingest::{IngestConfig, Ingestor};
use gmap_serve::api::{
    self, AnalyzeRequest, CloneRequest, EvaluateRequest, EvaluateResponse, GridPoint,
    IngestResponse, ProfileRequest, StridePoint,
};
use gmap_serve::cache::ModelStore;
use gmap_serve::metrics::Metrics;
use gmap_serve::{client, handlers, ServeConfig, ServerHandle};
use gmap_trace::io::{write_binary, write_text, TraceEntry};
use gmap_trace::{MemAccess, Rng, ThreadId, WarpId};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One `serve_hot` round, all clients together: 55 % cached profile, 30 %
/// clone, 6 % evaluate (every builtin once, so the fidelity figure covers
/// the same models at every seed), 5 % analyze, 4 % healthz and metrics.
const HOT_MIX: Mix = Mix {
    profiles: 165,
    clones: 90,
    analyzes: 15,
    healths: 12,
};
/// One `serve_fleet` round after the 18 misses: 50 % cached profile, 30 %
/// clone, 20 % evaluate (every builtin once, alternating the two grids).
const FLEET_MIX: Mix = Mix {
    profiles: 45,
    clones: 27,
    analyzes: 0,
    healths: 0,
};
/// Probe cadence of the fleet's health registry (the chaos suite's value):
/// it also paces the replication worker, so the shipped default of 500 ms
/// would add up to half a second to every untimed fleet shutdown.
const FLEET_PROBE_INTERVAL: Duration = Duration::from_millis(100);
/// Replicas behind the router.
const FLEET_REPLICAS: usize = 3;
/// Workloads whose traces `ingest_stream` uploads.
const INGEST_WORKLOADS: [&str; 3] = ["kmeans", "hotspot", "bfs"];
/// Clone seeds each ingested model is evaluated under.
const INGEST_CLONE_SEEDS: u64 = 3;
/// Chunk size of the chunked uploads.
const UPLOAD_CHUNK: usize = 64 * 1024;

fn scale_name() -> &'static str {
    api::scale_name(SCALE)
}

/// The `/v1/profile` request of a builtin at the benchmark's scale.
pub fn profile_request(workload: &str) -> ProfileRequest {
    ProfileRequest {
        workload: Some(workload.to_string()),
        scale: Some(scale_name().to_string()),
        spec: None,
    }
}

// ---------------------------------------------------------------------
// Requests and their expected replies
// ---------------------------------------------------------------------

/// How a reply is judged.
#[derive(Debug, Clone)]
enum Expect {
    /// 200 with exactly this body.
    Body(String),
    /// 200 with any body (`/healthz`, `/metrics`).
    Ok,
    /// 200 with an ingest response equal to the oracle's in every field
    /// that does not depend on where the transport cut the body.
    Ingest(Box<IngestResponse>),
}

/// How a request travels.
#[derive(Debug, Clone)]
enum Transport {
    /// `gmap_serve::client::request` — fresh connection, `Connection: close`.
    Shipped,
    /// Raw bytes with a `Content-Length` on a fresh connection (binary
    /// trace uploads; the shipped client only takes `&str`).
    RawLength,
    /// `gmap_serve::client::post_chunked` in [`UPLOAD_CHUNK`] pieces.
    Chunked,
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Request {
    kind: &'static str,
    method: &'static str,
    path: String,
    /// Shared: an upload's bytes appear in several scheduled requests.
    body: Arc<[u8]>,
    transport: Transport,
    expect: Expect,
}

impl Request {
    fn post(kind: &'static str, path: &str, body: String, expect: String) -> Request {
        Request {
            kind,
            method: "POST",
            path: path.to_string(),
            body: body.into_bytes().into(),
            transport: Transport::Shipped,
            expect: Expect::Body(expect),
        }
    }

    fn get(kind: &'static str, path: &str) -> Request {
        Request {
            kind,
            method: "GET",
            path: path.to_string(),
            body: Vec::new().into(),
            transport: Transport::Shipped,
            expect: Expect::Ok,
        }
    }

    /// Sends the request to `addr` and judges the reply.
    fn send(&self, addr: &str, checks: &mut Checks) -> f64 {
        let t0 = Instant::now();
        let reply: std::io::Result<(u16, String)> = match self.transport {
            Transport::Shipped => {
                let body = std::str::from_utf8(&self.body).expect("JSON bodies are UTF-8");
                let body = (self.method == "POST").then_some(body);
                client::request(addr, self.method, &self.path, body).map(|r| (r.status, r.body))
            }
            Transport::RawLength => httpc::once(addr, self.method, &self.path, &self.body)
                .map(|r| (r.status, String::from_utf8_lossy(&r.body).into_owned())),
            Transport::Chunked => {
                client::post_chunked(addr, &self.path, &mut &self.body[..], UPLOAD_CHUNK)
                    .map(|r| (r.status, r.body))
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let verdict = match (&reply, &self.expect) {
            (Err(e), _) => Err(format!("transport error: {e}")),
            (Ok((status, _)), _) if *status != 200 => Err(format!("status {status}")),
            (Ok((_, body)), Expect::Body(want)) if body != want => {
                Err("body differs from the in-process handler".to_string())
            }
            (Ok((_, body)), Expect::Ingest(want)) => ingest_matches(body, want),
            _ => Ok(()),
        };
        checks.check(verdict.is_ok(), || {
            format!(
                "{} {} {}: {}",
                self.kind,
                self.method,
                self.path,
                verdict.as_ref().err().cloned().unwrap_or_default()
            )
        });
        ms
    }
}

/// Compares a served ingest response with the oracle's. The peak buffer
/// figure counts parser carry bytes, which depend on where the socket cut
/// the body, so it is only required to be positive.
fn ingest_matches(body: &str, want: &IngestResponse) -> Result<(), String> {
    let got: IngestResponse =
        serde_json::from_str(body).map_err(|e| format!("unparseable ingest response: {e}"))?;
    let mut got_stable = got.ingest.clone();
    got_stable.peak_buffered_entries = want.ingest.peak_buffered_entries;
    if got.model_id != want.model_id {
        return Err(format!(
            "model id {} is not the local content key {}",
            got.model_id, want.model_id
        ));
    }
    if got.stats != want.stats || got.report != want.report || got_stable != want.ingest {
        return Err("ingest response differs from the in-process Ingestor".to_string());
    }
    if got.ingest.peak_buffered_entries == 0 {
        return Err("ingest reported an empty peak buffer".to_string());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------

/// In-process handlers over a private store: the expected body of every
/// request, and the original-side reference of every evaluated grid.
struct Oracle {
    store: ModelStore,
    metrics: Metrics,
    cancel: AtomicBool,
    seed: u64,
    /// Per model id: (label, original streams, launch) for the fidelity
    /// reference.
    originals: BTreeMap<String, (String, Vec<WarpStream>, LaunchConfig)>,
    /// Clone-vs-original comparison of every distinct evaluate request.
    comparisons: BTreeMap<String, BenchmarkComparison>,
}

impl Oracle {
    fn new(seed: u64) -> Oracle {
        Oracle {
            store: ModelStore::new(None).expect("a memory-only store cannot fail"),
            metrics: Metrics::new(),
            cancel: AtomicBool::new(false),
            seed,
            originals: BTreeMap::new(),
            comparisons: BTreeMap::new(),
        }
    }

    /// `/v1/profile` of a builtin: the body of the next call (a miss the
    /// first time, a hit afterwards).
    fn profile(&mut self, workload: &str) -> Request {
        let req = profile_request(workload);
        let resp = handlers::profile(&self.store, &self.metrics, &req, &self.cancel)
            .expect("builtin workloads profile");
        if !resp.cached {
            let kernel = workloads::by_name(workload, SCALE).expect("known workload");
            let streams = gmap_core::model::original_streams(&kernel);
            self.originals.insert(
                resp.model_id.clone(),
                (workload.to_string(), streams, kernel.launch),
            );
        }
        let kind = if resp.cached {
            "profile_hit"
        } else {
            "profile_miss"
        };
        Request::post(
            kind,
            "/v1/profile",
            canonical_json(&req),
            canonical_json(&resp),
        )
    }

    fn clone_model(&self, model_id: &str, factor: f64) -> Request {
        let req = CloneRequest {
            model_id: model_id.to_string(),
            factor: Some(factor),
            seed: Some(self.seed),
        };
        let resp = handlers::clone_model(&self.store, &req, &self.cancel)
            .expect("cloning a stored model succeeds");
        Request::post(
            "clone",
            "/v1/clone",
            canonical_json(&req),
            canonical_json(&resp),
        )
    }

    fn analyze(workload: &str) -> Request {
        let req = AnalyzeRequest {
            workload: Some(workload.to_string()),
            scale: Some(scale_name().to_string()),
            spec: None,
        };
        let resp = handlers::analyze(&req).expect("builtin workloads analyze");
        Request::post(
            "analyze",
            "/v1/analyze",
            canonical_json(&req),
            canonical_json(&resp),
        )
    }

    /// `/v1/evaluate` of a stored model on a grid, plus — once per
    /// distinct request — the comparison of its values with the original
    /// streams evaluated on the same grid by the engine directly.
    fn evaluate(&mut self, model_id: &str, grid: &[GridPoint]) -> Request {
        self.evaluate_seeded(model_id, grid, self.seed)
    }

    /// [`Oracle::evaluate`] with an explicit clone seed.
    fn evaluate_seeded(&mut self, model_id: &str, grid: &[GridPoint], seed: u64) -> Request {
        let req = EvaluateRequest {
            model_id: model_id.to_string(),
            kernel: None,
            metric: None,
            seed: Some(seed),
            grid: grid.to_vec(),
        };
        let body = canonical_json(&req);
        let resp: EvaluateResponse = handlers::evaluate(&self.store, &req, &self.cancel)
            .expect("evaluating a stored model succeeds");
        if !self.comparisons.contains_key(&body) {
            let (label, streams, launch) = self
                .originals
                .get(model_id)
                .expect("every evaluated model has a registered original");
            let configs: Vec<SimtConfig> = grid
                .iter()
                .map(|p| handlers::grid_config(p, seed).expect("benchmark grids are valid"))
                .collect();
            let plan = engine::plan_single_pass(&configs, Metric::L1MissPct)
                .expect("benchmark grids are single-pass");
            // Both grids mask to one reference configuration, so a model's
            // original is captured once (the cache is cleared again before
            // every timed round).
            let capture = engine::capture_stream_cached(
                &format!("bench-original:{model_id}"),
                streams,
                launch,
                &plan.capture_cfg,
            );
            let original = engine::eval_captured(&plan, &capture, &configs).values;
            self.comparisons.insert(
                body.clone(),
                compare_series(label, original, resp.values.clone()),
            );
        }
        Request::post("evaluate", "/v1/evaluate", body, canonical_json(&resp))
    }

    /// Mean error and correlation over every evaluated (model, grid).
    fn fidelity(&self) -> (f64, f64) {
        let s = summarize(self.comparisons.values().cloned().collect());
        (s.avg_error, s.avg_correlation)
    }

    /// Registers an ingested model and returns the expected response.
    fn ingest(&mut self, trace: &IngestTrace, bytes: &[u8]) -> IngestResponse {
        let mut ing = Ingestor::new(
            trace.name,
            LaunchConfig::new(trace.grid, trace.block),
            IngestConfig::default(),
        );
        for piece in bytes.chunks(UPLOAD_CHUNK) {
            ing.push_bytes(piece).expect("generated traces parse");
        }
        let resp = handlers::ingest_finalize(&self.store, ing, &self.cancel)
            .expect("generated traces profile");
        self.originals
            .entry(resp.model_id.clone())
            .or_insert_with(|| (trace.name.to_string(), trace.streams.clone(), trace.launch));
        resp
    }
}

/// The 15-point LRU L1 grid of figure 6e as wire points.
pub fn lru_grid() -> Vec<GridPoint> {
    grids::policy_l1_sweep()
        .iter()
        .map(|c| GridPoint {
            level: None,
            size_kb: c.hierarchy.l1.size_bytes / 1024,
            assoc: c.hierarchy.l1.assoc,
            line: Some(c.hierarchy.l1.line_size),
            policy: None,
            stride_prefetch: None,
            stream_prefetch: None,
        })
        .collect()
}

/// An 18-point stride-prefetch grid: figure 6c's three L1 sizes × degree
/// 1/2/4 × both table sizes at distance 1.
fn stride_grid() -> Vec<GridPoint> {
    let mut out = Vec::new();
    for size_kb in [8u64, 16, 64] {
        for degree in [1u32, 2, 4] {
            for table in [64u32, 256] {
                out.push(GridPoint {
                    level: None,
                    size_kb,
                    assoc: 4,
                    line: Some(128),
                    policy: None,
                    stride_prefetch: Some(StridePoint {
                        table,
                        degree,
                        distance: Some(1),
                        confidence: Some(2),
                    }),
                    stream_prefetch: None,
                });
            }
        }
    }
    out
}

/// How many requests of each kind a round holds beside its evaluates.
struct Mix {
    profiles: usize,
    clones: usize,
    analyzes: usize,
    healths: usize,
}

impl Mix {
    /// The round's requests against models that are already stored: the
    /// counts are fixed, the seed draws each request's target and the
    /// order, and the clients take alternate requests.
    fn requests(
        &self,
        oracle: &mut Oracle,
        model_ids: &[String],
        evaluate_grids: &[Vec<GridPoint>],
        rng: &mut Rng,
    ) -> Vec<Vec<Request>> {
        let names = workloads::NAMES;
        let draw = |rng: &mut Rng| rng.gen_range(names.len() as u64) as usize;
        let mut all = Vec::new();
        for _ in 0..self.profiles {
            all.push(oracle.profile(names[draw(rng)]));
        }
        for _ in 0..self.clones {
            let factor = [1.0, 2.0, 4.0][rng.gen_range(3) as usize];
            all.push(oracle.clone_model(&model_ids[draw(rng)], factor));
        }
        for (w, id) in model_ids.iter().enumerate() {
            all.push(oracle.evaluate(id, &evaluate_grids[w % evaluate_grids.len()]));
        }
        for _ in 0..self.analyzes {
            all.push(Oracle::analyze(names[draw(rng)]));
        }
        for i in 0..self.healths {
            all.push(if i % 2 == 0 {
                Request::get("healthz", "/healthz")
            } else {
                Request::get("metrics", "/metrics")
            });
        }
        shuffle(&mut all, rng);
        deal(&all)
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(i as u64 + 1) as usize);
    }
}

/// Deals requests to the clients in turn.
fn deal(all: &[Request]) -> Vec<Vec<Request>> {
    (0..CLIENTS)
        .map(|c| all.iter().skip(c).step_by(CLIENTS).cloned().collect())
        .collect()
}

// ---------------------------------------------------------------------
// Running a schedule
// ---------------------------------------------------------------------

/// Per-client request lists, in phases separated by a barrier across
/// clients (so "profile everything, then read it back" cannot race).
type Schedule = Vec<Vec<Vec<Request>>>;

/// What a timed section produced.
struct Section {
    ops: Vec<Op>,
    checks: Checks,
    /// Wall time of each phase.
    phase_s: Vec<f64>,
}

/// Runs the schedule against `addr` from [`CLIENTS`] closed-loop threads.
fn run_schedule(addr: &str, schedule: &Schedule, tracer: Option<&Tracer>) -> Section {
    let phases = schedule.first().map_or(0, Vec::len);
    let barrier = Barrier::new(schedule.len());
    let parent = Tracer::current();
    let per_client: Vec<(Vec<Op>, Checks, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = schedule
            .iter()
            .enumerate()
            .map(|(c, phases_of_client)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let body = || {
                        let mut ops = Vec::new();
                        let mut checks = Checks::default();
                        let mut phase_s = Vec::new();
                        for requests in phases_of_client {
                            barrier.wait();
                            let t0 = Instant::now();
                            for r in requests {
                                let ms = traced(tracer, "serve.request", r.kind, || {
                                    r.send(addr, &mut checks)
                                });
                                ops.push(Op { kind: r.kind, ms });
                            }
                            barrier.wait();
                            phase_s.push(t0.elapsed().as_secs_f64());
                        }
                        (ops, checks, phase_s)
                    };
                    traced_under(tracer, parent, "harness.client", &c.to_string(), body)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut section = Section {
        ops: Vec::new(),
        checks: Checks::default(),
        phase_s: vec![0.0; phases],
    };
    for (ops, checks, phase_s) in per_client {
        section.ops.extend(ops);
        section.checks.absorb(checks);
        for (total, s) in section.phase_s.iter_mut().zip(phase_s) {
            *total = total.max(s);
        }
    }
    section
}

/// Scrapes `/metrics` of every server and sums them.
fn scrape_all(addrs: &[String]) -> Scrape {
    let mut total = Scrape::default();
    for addr in addrs {
        if let Ok(r) = client::get(addr, "/metrics") {
            total.merge(&Scrape::parse(&r.body));
        }
    }
    total
}

/// `/metrics` counter families reported per layer, with their metric name.
const COUNTERS: [(&str, &str); 13] = [
    ("serve.cache_hits", "gmap_cache_hits_total"),
    ("serve.cache_misses", "gmap_cache_misses_total"),
    ("serve.rejected_429", "gmap_queue_rejected_total"),
    ("serve.jobs_shed", "gmap_jobs_shed_total"),
    ("serve.worker_panics", "gmap_worker_panics_total"),
    ("serve.route_forwards", "gmap_route_forwards_total"),
    ("serve.route_failovers", "gmap_route_failovers_total"),
    ("serve.replication_sent", "gmap_replication_total"),
    ("serve.replication_failed", "gmap_replication_failed_total"),
    (
        "serve.replication_dropped",
        "gmap_replication_dropped_total",
    ),
    ("serve.hints_queued", "gmap_hints_queued_total"),
    ("serve.read_repairs", "gmap_read_repairs_total"),
    ("serve.ingest_bytes", "gmap_ingest_bytes_total"),
];

/// Fills a round from a timed section: operations, checks, and — traced —
/// the counter deltas and request-level figures of the service layer.
fn fill_round(round: &mut Round, section: Section, delta: Option<Scrape>, fidelity: (f64, f64)) {
    round.ops = section.ops;
    round.checks.absorb(section.checks);
    (round.fidelity_err_pct, round.fidelity_corr) = fidelity;
    if let Some(delta) = delta {
        for (metric, family) in COUNTERS {
            round.layer.insert(metric, delta.total(family));
        }
    }
}

fn server_config(opts: &RunOpts) -> ServeConfig {
    ServeConfig {
        workers: opts.threads,
        ..ServeConfig::default()
    }
}

// ---------------------------------------------------------------------
// serve_hot
// ---------------------------------------------------------------------

/// `serve_hot`: one replica, every model cached; per-request overhead
/// (accept, framing, queue hand-off, cache lookup, serialise) is nearly
/// all the time.
pub struct ServeHot {
    opts: RunOpts,
    server: Option<ServerHandle>,
    schedule: Schedule,
    fidelity: (f64, f64),
    setup_checks: Checks,
}

impl ServeHot {
    /// The workload for one run.
    pub fn new(opts: &RunOpts) -> ServeHot {
        ServeHot {
            opts: opts.clone(),
            server: None,
            schedule: Vec::new(),
            fidelity: (0.0, 0.0),
            setup_checks: Checks::default(),
        }
    }
}

impl Workload for ServeHot {
    fn setup(&mut self) {
        let server = gmap_serve::start(server_config(&self.opts)).expect("bind an ephemeral port");
        let addr = server.addr().to_string();
        let mut oracle = Oracle::new(self.opts.seed);
        self.setup_checks = Checks::default();
        // Profile every builtin on the server and in the oracle: the
        // misses are checked here, the timed rounds then only see hits.
        let mut model_ids = Vec::new();
        for name in workloads::NAMES {
            let miss = oracle.profile(name);
            miss.send(&addr, &mut self.setup_checks);
            model_ids.push(handlers::model_id_for(name, scale_name()));
        }
        let mut rng = Rng::seed_from(self.opts.seed);
        self.schedule = HOT_MIX
            .requests(&mut oracle, &model_ids, &[lru_grid()], &mut rng)
            .into_iter()
            .map(|requests| vec![requests])
            .collect();
        self.fidelity = oracle.fidelity();
        // Warm-up pass: a tenth of the schedule, unmeasured.
        let warm: Schedule = self
            .schedule
            .iter()
            .map(|phases| vec![phases[0][..phases[0].len() / 10].to_vec()])
            .collect();
        let section = run_schedule(&addr, &warm, None);
        self.setup_checks.absorb(section.checks);
        self.server = Some(server);
    }

    fn round(&mut self, tracer: Option<&Tracer>) -> Round {
        let server = self.server.as_ref().expect("set up before the first round");
        let addr = server.addr().to_string();
        let addrs = [addr.clone()];
        let mut round = Round::default();
        round.checks.absorb(std::mem::take(&mut self.setup_checks));
        let before = tracer.map(|_| scrape_all(&addrs));
        let (section, wall, cpu) =
            timed_round(tracer, || run_schedule(&addr, &self.schedule, tracer));
        let delta = before.map(|b| scrape_all(&addrs).since(&b));
        round.wall_s = wall;
        round.cpu_s = cpu;
        fill_round(&mut round, section, delta, self.fidelity);
        round
    }

    fn teardown(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

// ---------------------------------------------------------------------
// serve_fleet
// ---------------------------------------------------------------------

/// A router in front of fleet replicas, all in-process.
struct Fleet {
    router: ServerHandle,
    replicas: Vec<ServerHandle>,
}

impl Fleet {
    /// Starts the replicas on pre-reserved addresses (fleet members must
    /// know each other before any of them binds) and a router over them.
    /// A reserved port can be taken between release and bind, so the
    /// whole fleet is retried.
    fn start(opts: &RunOpts) -> Fleet {
        'attempt: for _ in 0..8 {
            let peers: Vec<String> = (0..FLEET_REPLICAS)
                .map(|_| {
                    let l = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve a port");
                    l.local_addr().expect("reserved address").to_string()
                })
                .collect();
            let mut replicas = Vec::new();
            for addr in &peers {
                match gmap_serve::start(ServeConfig {
                    listen: addr.clone(),
                    fleet: Some(peers.clone()),
                    advertise: Some(addr.clone()),
                    replication_factor: 2,
                    probe_interval: FLEET_PROBE_INTERVAL,
                    ..server_config(opts)
                }) {
                    Ok(handle) => replicas.push(handle),
                    Err(_) => {
                        for handle in replicas {
                            handle.shutdown();
                        }
                        continue 'attempt;
                    }
                }
            }
            let router = gmap_serve::start(ServeConfig {
                route: Some(peers),
                probe_interval: FLEET_PROBE_INTERVAL,
                ..server_config(opts)
            })
            .expect("bind the router");
            return Fleet { router, replicas };
        }
        panic!("could not bind a replica fleet in 8 attempts");
    }

    fn addrs(&self) -> Vec<String> {
        std::iter::once(&self.router)
            .chain(&self.replicas)
            .map(|h| h.addr().to_string())
            .collect()
    }

    /// Waits until replication has gone quiet: at least `expected` pushes
    /// sent and no further push for a few polls. Replication is
    /// asynchronous and a receiver re-announces what it stored, so the
    /// counters are only complete once the queues have drained.
    fn settle_replication(&self, expected: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let sent = || -> u64 {
            self.replicas
                .iter()
                .filter_map(|r| r.state().replication().map(|s| s.sent()))
                .sum()
        };
        let (mut last, mut quiet_polls) = (sent(), 0);
        while (last < expected || quiet_polls < 3) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            let now = sent();
            quiet_polls = if now == last { quiet_polls + 1 } else { 0 };
            last = now;
        }
    }

    /// Stops the router, then the replicas side by side (each waits out
    /// its replication worker's poll tick).
    fn shutdown(self) {
        self.router.shutdown();
        std::thread::scope(|s| {
            for r in self.replicas {
                s.spawn(move || r.shutdown());
            }
        });
    }
}

/// `serve_fleet`: the same endpoints through ring lookup, forward hop,
/// health registry and replication, with compute through the service.
pub struct ServeFleet {
    opts: RunOpts,
    schedule: Schedule,
    fidelity: (f64, f64),
}

impl ServeFleet {
    /// The workload for one run.
    pub fn new(opts: &RunOpts) -> ServeFleet {
        ServeFleet {
            opts: opts.clone(),
            schedule: Vec::new(),
            fidelity: (0.0, 0.0),
        }
    }
}

impl Workload for ServeFleet {
    fn setup(&mut self) {
        let mut oracle = Oracle::new(self.opts.seed);
        // Phase 1: the 18 profile misses, split across the clients.
        let mut misses: Vec<Vec<Request>> = vec![Vec::new(); CLIENTS];
        let mut model_ids = Vec::new();
        for (i, name) in workloads::NAMES.iter().enumerate() {
            misses[i % CLIENTS].push(oracle.profile(name));
            model_ids.push(handlers::model_id_for(name, scale_name()));
        }
        // Phase 2: reads, clones and evaluates of what phase 1 stored.
        let mut rng = Rng::seed_from(self.opts.seed);
        let mixed = FLEET_MIX.requests(
            &mut oracle,
            &model_ids,
            &[lru_grid(), stride_grid()],
            &mut rng,
        );
        self.schedule = misses
            .into_iter()
            .zip(mixed)
            .map(|(miss_list, mixed_list)| vec![miss_list, mixed_list])
            .collect();
        self.fidelity = oracle.fidelity();
        // Warm-up: a fleet started, probed once and stopped, so thread
        // spawn and socket paths are hot before the first timed round.
        let fleet = Fleet::start(&self.opts);
        let mut checks = Checks::default();
        Request::get("healthz", "/healthz").send(&fleet.addrs()[0], &mut checks);
        fleet.shutdown();
    }

    fn round(&mut self, tracer: Option<&Tracer>) -> Round {
        // Every round needs its misses to be misses: a fresh fleet, and an
        // empty capture cache (the replicas share the process-wide one
        // with each other and with the oracle).
        let fleet = Fleet::start(&self.opts);
        engine::capture_cache_clear();
        let addrs = fleet.addrs();
        let mut round = Round::default();
        let (section, wall, cpu) =
            timed_round(tracer, || run_schedule(&addrs[0], &self.schedule, tracer));
        fleet.settle_replication(workloads::NAMES.len() as u64);
        let delta = tracer.map(|_| scrape_all(&addrs));
        fleet.shutdown();
        round.wall_s = wall;
        round.cpu_s = cpu;
        fill_round(&mut round, section, delta, self.fidelity);
        round
    }

    fn teardown(&mut self) {}
}

// ---------------------------------------------------------------------
// ingest_stream
// ---------------------------------------------------------------------

/// One workload's trace in both formats.
struct IngestTrace {
    name: &'static str,
    grid: u32,
    block: u32,
    launch: LaunchConfig,
    streams: Vec<WarpStream>,
    binary: Vec<u8>,
    text: Vec<u8>,
}

/// Flattens coalesced streams lane-0 style, as `gmap clone` writes them
/// (`streams_to_entries` in `src/bin/gmap.rs`).
pub fn streams_to_entries(streams: &[WarpStream], launch: &LaunchConfig) -> Vec<TraceEntry> {
    let warp_size = 32;
    let mut out = Vec::new();
    for s in streams {
        let tid = launch
            .thread_of(WarpId(s.warp.0), 0, warp_size)
            .unwrap_or(ThreadId(s.warp.0 * warp_size));
        for e in &s.events {
            if let WarpStreamEvent::Access(a) = e {
                for l in &a.lines {
                    out.push((
                        tid,
                        MemAccess {
                            pc: a.pc,
                            addr: *l,
                            kind: a.kind,
                        },
                    ));
                }
            }
        }
    }
    out
}

/// Builds one builtin's trace bytes in both formats: `(binary, text)`.
pub fn trace_bytes(streams: &[WarpStream], launch: &LaunchConfig) -> (Vec<u8>, Vec<u8>) {
    let entries = streams_to_entries(streams, launch);
    let mut binary = Vec::new();
    write_binary(&mut binary, &entries).expect("writing to memory cannot fail");
    let mut text = Vec::new();
    write_text(&mut text, &entries).expect("writing to memory cannot fail");
    (binary, text)
}

fn build_trace(name: &'static str) -> IngestTrace {
    let kernel = workloads::by_name(name, SCALE).expect("known workload");
    let streams = gmap_core::model::original_streams(&kernel);
    let (binary, text) = trace_bytes(&streams, &kernel.launch);
    IngestTrace {
        name,
        grid: kernel.launch.num_blocks(),
        block: kernel.launch.threads_per_block(),
        launch: kernel.launch,
        streams,
        binary,
        text,
    }
}

/// `ingest_stream`: writes beside reads — large bodies streamed on the
/// connection thread through `http::BodyReader`, the `ingest` parser and
/// `Ingestor`, the `core` profiler step, and disk-tier writes.
pub struct IngestStream {
    opts: RunOpts,
    out_dir: PathBuf,
    schedule: Schedule,
    fidelity: (f64, f64),
    upload_bytes: u64,
    rounds: usize,
}

impl IngestStream {
    /// The workload for one run; the disk tier lives under `out_dir`.
    pub fn new(opts: &RunOpts, out_dir: PathBuf) -> IngestStream {
        IngestStream {
            opts: opts.clone(),
            out_dir,
            schedule: Vec::new(),
            fidelity: (0.0, 0.0),
            upload_bytes: 0,
            rounds: 0,
        }
    }

    fn start(&self, dir: &Path) -> ServerHandle {
        gmap_serve::start(ServeConfig {
            cache_dir: Some(dir.to_path_buf()),
            ..server_config(&self.opts)
        })
        .expect("bind an ephemeral port")
    }

    fn round_dir(&self) -> PathBuf {
        self.out_dir
            .join(format!("ingest-{}-{}", std::process::id(), self.rounds))
    }
}

impl Workload for IngestStream {
    fn setup(&mut self) {
        let mut oracle = Oracle::new(self.opts.seed);
        let traces: Vec<IngestTrace> = INGEST_WORKLOADS.iter().map(|n| build_trace(n)).collect();
        // Phase 1: every trace, binary and text, once with Content-Length
        // and once chunked.
        let mut uploads: Vec<Request> = Vec::new();
        self.upload_bytes = 0;
        for t in &traces {
            let path = format!(
                "/v1/ingest?grid={}&block={}&name={}",
                t.grid, t.block, t.name
            );
            for (kind, bytes) in [("ingest_binary", &t.binary), ("ingest_text", &t.text)] {
                let expect = oracle.ingest(t, bytes);
                let body: Arc<[u8]> = bytes.as_slice().into();
                for transport in [Transport::RawLength, Transport::Chunked] {
                    self.upload_bytes += bytes.len() as u64;
                    uploads.push(Request {
                        kind,
                        method: "POST",
                        path: path.clone(),
                        body: Arc::clone(&body),
                        transport,
                        expect: Expect::Ingest(Box::new(expect.clone())),
                    });
                }
            }
        }
        // The two transports of one body are adjacent: each client gets one
        // of them, so both clients always upload the same number of bytes
        // and the round's wall time does not depend on how the seed split
        // the big traces. The seed picks who sends which, and the order.
        let mut rng = Rng::seed_from(self.opts.seed);
        let mut per_client: Vec<Vec<Request>> = vec![Vec::new(); CLIENTS];
        for pair in uploads.chunks(CLIENTS) {
            let first = rng.gen_range(CLIENTS as u64) as usize;
            for (k, request) in pair.iter().enumerate() {
                per_client[(first + k) % CLIENTS].push(request.clone());
            }
        }
        for list in &mut per_client {
            shuffle(list, &mut rng);
        }
        // Phase 2: every resulting model evaluated under three clone seeds.
        // Three models are few: one clone each would leave the workload's
        // fidelity figure at the mercy of a single draw.
        let lru = lru_grid();
        let model_ids: Vec<String> = oracle.originals.keys().cloned().collect();
        let mut evaluates = Vec::new();
        for id in &model_ids {
            for k in 0..INGEST_CLONE_SEEDS {
                evaluates.push(oracle.evaluate_seeded(id, &lru, self.opts.seed + k));
            }
        }
        self.schedule = per_client
            .into_iter()
            .zip(deal(&evaluates))
            .map(|(up, ev)| vec![up, ev])
            .collect();
        self.fidelity = oracle.fidelity();
        // Warm-up: the smallest trace through a server that is then
        // dropped, disk tier included.
        let dir = self.round_dir().with_extension("warm");
        let server = self.start(&dir);
        let smallest = uploads
            .iter()
            .min_by_key(|r| r.body.len())
            .expect("there are uploads");
        smallest.send(&server.addr().to_string(), &mut Checks::default());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn round(&mut self, tracer: Option<&Tracer>) -> Round {
        self.rounds += 1;
        let dir = self.round_dir();
        let server = self.start(&dir);
        engine::capture_cache_clear();
        let addrs = [server.addr().to_string()];
        let mut round = Round::default();
        let (section, wall, cpu) =
            timed_round(tracer, || run_schedule(&addrs[0], &self.schedule, tracer));
        let delta = tracer.map(|_| scrape_all(&addrs));
        server.shutdown();
        // Each distinct model must be on disk, named by its key.
        let on_disk = std::fs::read_dir(&dir)
            .map(|d| d.filter_map(Result::ok).count())
            .unwrap_or(0);
        round.checks.check(on_disk == INGEST_WORKLOADS.len(), || {
            format!(
                "disk tier holds {on_disk} models, expected {}",
                INGEST_WORKLOADS.len()
            )
        });
        let _ = std::fs::remove_dir_all(&dir);
        round.wall_s = wall;
        round.cpu_s = cpu;
        let upload_s = section.phase_s.first().copied().unwrap_or(0.0);
        fill_round(&mut round, section, delta, self.fidelity);
        if tracer.is_some() && upload_s > 0.0 {
            round.layer.insert(
                "serve.ingest_mb_per_s",
                self.upload_bytes as f64 / 1e6 / upload_s,
            );
        }
        round
    }

    fn teardown(&mut self) {}
}
