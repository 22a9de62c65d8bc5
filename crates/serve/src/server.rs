//! The HTTP server: accept loop, keep-alive request routing, deadline
//! enforcement, load shedding, and drain-first graceful shutdown.
//!
//! Threading model: one accept thread blocks in `accept()`; each
//! accepted connection gets a connection thread that serves up to
//! [`ServeConfig::keepalive_max`] requests over one socket, and — for the
//! pipeline endpoints — submits a job to the bounded [`JobQueue`] and
//! waits on a channel with a deadline. A fixed worker pool executes the
//! jobs. `/healthz` and `/metrics` are answered directly on the
//! connection thread so the service stays observable even when every
//! worker is busy.
//!
//! Resilience properties (see DESIGN.md "Resilience"):
//! - idle peers are closed silently after `idle_timeout`; a peer that
//!   stalls *mid-request* gets a 408 and a close;
//! - malformed or oversized input downgrades the connection to
//!   `Connection: close` after the error response;
//! - jobs whose deadline expired while still queued are shed (504, the
//!   handler never runs);
//! - 429/503 responses carry `Retry-After`;
//! - a panicking handler is contained by the worker pool and mapped to a
//!   structured 500 for the requester;
//! - when a [`crate::faults`] spec is configured, the injector is armed
//!   here and threaded through the cache, the request reader, the worker
//!   path, and the response writer.
//!
//! Shutdown ordering guarantees that no *accepted* request is dropped:
//! wake the accept thread with one loopback connection → serve what the
//! kernel's backlog already holds → wait for connection threads (each
//! waits for its job) → stop the queue → drain remaining jobs → join
//! workers. No thread sleeps in order to notice any of these events.

use crate::api::{self, ApiError};
use crate::cache::{ModelStore, DEFAULT_MEM_CAPACITY};
use crate::client;
use crate::faults::{FaultInjector, FaultSpec, TruncatedReader};
use crate::handlers;
use crate::health::{self, Peers, ProbeHandle, DEFAULT_PROBE_INTERVAL};
use crate::http::{self, ReadError, Request, RequestHead, ResponseOpts};
use crate::jobs::{JobQueue, SubmitError};
use crate::metrics::{Endpoint, Metrics, RuntimeStats};
use crate::replicate::{self, ReplicationState, ReplicationWorker};
use crate::router::Router;
use gmap_core::cachekey::canonical_json;
use gmap_gpu::hierarchy::LaunchConfig;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Seconds advertised in `Retry-After` on transient-error responses.
const RETRY_AFTER_SECS: u64 = 1;

/// Pause after a failed `accept` (EMFILE, ENFILE, ECONNABORTED, …) so a
/// persistent error cannot hot-spin the blocking accept loop.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// Most connections the post-`stop` backlog drain serves: above any
/// kernel accept queue, yet finite under a connection flood.
const DRAIN_LIMIT: usize = 4096;

/// How long `shutdown` waits for its wake connection to the listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Default replication factor in fleet mode: the owner plus one ring
/// successor.
pub const DEFAULT_REPLICATION_FACTOR: usize = 2;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub listen: String,
    /// Worker threads executing pipeline jobs.
    pub workers: usize,
    /// Maximum number of *pending* jobs before submissions get 429.
    pub queue_capacity: usize,
    /// Per-request deadline; expired requests get 504 and their job is
    /// cooperatively cancelled (or shed before executing).
    pub deadline: Duration,
    /// Optional on-disk tier for the model cache.
    pub cache_dir: Option<PathBuf>,
    /// Memory-tier bound of the model cache (LRU beyond this).
    pub cache_capacity: usize,
    /// Requests served per connection before it is closed.
    pub keepalive_max: usize,
    /// How long a peer may stall *mid-request* before getting 408.
    pub read_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before being closed silently.
    pub idle_timeout: Duration,
    /// Deterministic fault-injection spec (`None` in production).
    pub faults: Option<FaultSpec>,
    /// Router mode: forward pipeline requests to these replica
    /// addresses by consistent-hash shard instead of serving them
    /// locally (`None` = normal replica).
    pub route: Option<Vec<String>>,
    /// Replica-fleet membership (including this server's own
    /// [`ServeConfig::advertise`] address): enables successor
    /// replication and hinted handoff (`None` = standalone replica).
    pub fleet: Option<Vec<String>>,
    /// The address this server is known by inside the fleet; defaults
    /// to the bound listen address. Must be a member of `fleet`.
    pub advertise: Option<String>,
    /// Replica-set size per key in fleet mode (owner + RF−1 ring
    /// successors).
    pub replication_factor: usize,
    /// Cadence of active `/healthz` probes toward peers (router or
    /// fleet mode); also paces hint replay.
    pub probe_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            deadline: Duration::from_secs(60),
            cache_dir: None,
            cache_capacity: DEFAULT_MEM_CAPACITY,
            keepalive_max: 100,
            read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            faults: None,
            route: None,
            fleet: None,
            advertise: None,
            replication_factor: DEFAULT_REPLICATION_FACTOR,
            probe_interval: DEFAULT_PROBE_INTERVAL,
        }
    }
}

/// Shared server state reachable from every thread.
pub struct ServerState {
    /// Bounded pipeline job queue.
    pub queue: JobQueue,
    /// Content-addressed model cache (shared with the replication
    /// worker in fleet mode).
    pub store: Arc<ModelStore>,
    /// Metrics registry behind `/metrics`.
    pub metrics: Metrics,
    deadline: Duration,
    keepalive_max: usize,
    read_timeout: Duration,
    idle_timeout: Duration,
    faults: Option<Arc<FaultInjector>>,
    router: Option<Router>,
    peers: Arc<Peers>,
    replication: Option<Arc<ReplicationState>>,
    draining: AtomicBool,
    connections: Connections,
}

/// Count of live connection threads; the last one out signals
/// [`ServerHandle::shutdown`], which waits on the condvar.
#[derive(Default)]
struct Connections {
    live: Mutex<usize>,
    idle: Condvar,
}

impl Connections {
    /// A bare counter is valid at every step, so a lock poisoned by a
    /// panicking connection thread is recovered, not propagated.
    fn live(&self) -> MutexGuard<'_, usize> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One counted connection, uncounted on drop — which also covers a task
/// dropped by a failed spawn and a handler that panics.
struct ConnGuard(Arc<ServerState>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut live = self.0.connections.live();
        *live -= 1;
        if *live == 0 {
            self.0.connections.idle.notify_all();
        }
    }
}

impl ServerState {
    /// The armed fault injector, when a fault spec is configured.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// The router, when this server runs in `--route` mode.
    pub fn router(&self) -> Option<&Router> {
        self.router.as_ref()
    }

    /// The replication state, when this server runs in `--fleet` mode.
    pub fn replication(&self) -> Option<&Arc<ReplicationState>> {
        self.replication.as_ref()
    }

    /// Whether `/v1/admin/drain` has flipped this server to draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Samples the point-in-time values rendered alongside the counters.
    fn runtime_stats(&self) -> RuntimeStats {
        let repl = self.replication.as_deref();
        let health = self.peers.health();
        RuntimeStats {
            queue_depth: self.queue.depth(),
            jobs_in_flight: self.queue.in_flight(),
            models_cached: self.store.len(),
            cache_capacity: self.store.capacity(),
            active_connections: *self.connections.live(),
            cache_evictions: self.store.evictions(),
            cache_quarantined: self.store.quarantined(),
            worker_panics: self.queue.panics(),
            faults_injected: self.faults.as_ref().map_or(0, |f| f.injected_total()),
            peer_ejections: health.ejections(),
            peer_recoveries: health.recoveries(),
            replication_sent: repl.map_or(0, ReplicationState::sent),
            replication_failed: repl.map_or(0, ReplicationState::failed),
            replication_dropped: repl.map_or(0, ReplicationState::dropped),
            hints_queued: repl.map_or(0, ReplicationState::hints_queued),
            hints_replayed: repl.map_or(0, ReplicationState::hints_replayed),
            draining: self.is_draining(),
            peer_states: health.snapshot(),
        }
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    listener: Arc<TcpListener>,
    stop: Arc<AtomicBool>,
    state: Arc<ServerState>,
    accept_thread: thread::JoinHandle<()>,
    worker_threads: Vec<thread::JoinHandle<()>>,
    prober: Option<ProbeHandle>,
    repl_worker: Option<ReplicationWorker>,
}

/// Binds the listener and starts the accept loop and worker pool.
///
/// # Errors
///
/// Fails if the listen address cannot be bound or the cache directory
/// cannot be created.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = Arc::new(TcpListener::bind(&config.listen)?);
    let addr = listener.local_addr()?;
    let faults = config.faults.clone().map(|spec| {
        let injector = Arc::new(FaultInjector::new(spec));
        injector.set_armed(true);
        injector
    });
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
    if config.route.is_some() && config.fleet.is_some() {
        return Err(invalid(
            "a server is either a router (--route) or a fleet replica (--fleet), not both".into(),
        ));
    }
    let probe_interval = config.probe_interval.max(Duration::from_millis(50));
    // The peer set is the route peers in router mode and the fleet
    // members in replica mode; otherwise it is empty and every lookup
    // degrades to "available".
    let peer_addrs: &[String] = config
        .route
        .as_deref()
        .or(config.fleet.as_deref())
        .unwrap_or(&[]);
    let peers = Arc::new(Peers::new(peer_addrs, probe_interval));
    let router = match &config.route {
        Some(peers) if peers.is_empty() => {
            return Err(invalid(
                "router mode needs at least one replica address".into(),
            ))
        }
        Some(_) => Some(Router::new(Arc::clone(&peers))),
        None => None,
    };
    let metrics = match &config.route {
        Some(peers) => Metrics::with_route(peers),
        None => Metrics::new(),
    };
    let store = Arc::new(ModelStore::with_config(
        config.cache_dir.clone(),
        config.cache_capacity,
        faults.clone(),
    )?);
    let advertise = config.advertise.clone().unwrap_or_else(|| addr.to_string());
    let (replication, repl_worker) = match &config.fleet {
        Some(fleet) if fleet.len() < 2 => {
            return Err(invalid(
                "fleet mode needs at least two replica addresses".into(),
            ))
        }
        Some(fleet) if !fleet.contains(&advertise) => {
            return Err(invalid(format!(
                "advertised address {advertise} is not a member of the fleet"
            )))
        }
        Some(_) => {
            let (state, worker) = replicate::spawn(
                Arc::clone(&peers),
                &advertise,
                config.replication_factor,
                Arc::clone(&store),
                faults.clone(),
                probe_interval,
            );
            (Some(state), Some(worker))
        }
        None => (None, None),
    };
    // Active probing: a router probes its replicas, a fleet member
    // probes every peer but itself.
    let prober = if peer_addrs.is_empty() {
        None
    } else {
        let skip_self = config.fleet.is_some().then(|| advertise.clone());
        Some(health::spawn_prober(
            Arc::clone(&peers),
            probe_interval,
            skip_self,
        ))
    };
    let state = Arc::new(ServerState {
        queue: JobQueue::new(config.queue_capacity),
        store,
        metrics,
        deadline: config.deadline,
        keepalive_max: config.keepalive_max.max(1),
        read_timeout: config.read_timeout,
        idle_timeout: config.idle_timeout,
        faults,
        router,
        peers,
        replication,
        draining: AtomicBool::new(false),
        connections: Connections::default(),
    });
    let worker_threads = (0..config.workers.max(1))
        .map(|i| {
            let state = Arc::clone(&state);
            thread::Builder::new()
                .name(format!("gmap-serve-worker-{i}"))
                .spawn(move || state.queue.worker_loop())
                .expect("spawn worker thread")
        })
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let accept_thread = {
        let listener = Arc::clone(&listener);
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        thread::Builder::new()
            .name("gmap-serve-accept".into())
            .spawn(move || accept_loop(&listener, &state, &stop))
            .expect("spawn accept thread")
    };
    Ok(ServerHandle {
        addr,
        listener,
        stop,
        state,
        accept_thread,
        worker_threads,
        prober,
        repl_worker,
    })
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state, for tests and the CLI.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Graceful shutdown: stop accepting, let in-flight connections
    /// finish (each waits on its job), drain the queue, join the pool.
    /// Every request whose connection the kernel completed before the
    /// call is answered.
    pub fn shutdown(self) {
        self.shutdown_with(|addr| TcpStream::connect_timeout(&wake_addr(addr), WAKE_TIMEOUT));
    }

    /// [`ServerHandle::shutdown`] with the wake connection injectable, so
    /// a test can make it fail.
    fn shutdown_with(self, wake: impl FnOnce(SocketAddr) -> std::io::Result<TcpStream>) {
        self.stop.store(true, Ordering::SeqCst);
        // One connection wakes the accept thread out of `accept()`; to
        // the server it is a peer that closes without sending.
        match wake(self.addr) {
            Ok(_) => self.accept_thread.join().expect("accept thread exits"),
            // Port unreachable from loopback: the thread stays parked
            // (until the next connection or process exit), so serve the
            // backlog from here rather than hang or drop what it holds.
            Err(_) => drain_backlog(&self.listener, &self.state),
        }
        // Close the listener before waiting on connections: a late peer
        // is refused at once, not parked in a backlog nobody serves.
        drop(self.listener);
        let live = self.state.connections.live();
        drop(self.state.connections.idle.wait_while(live, |n| *n > 0));
        // Background availability machinery stops only after the last
        // connection finished, so late stores still enqueue; remaining
        // queued replication work is best-effort by design.
        drop(self.prober);
        drop(self.repl_worker);
        self.state.queue.shutdown();
        self.state.queue.wait_drained();
        for w in self.worker_threads {
            w.join().expect("worker thread exits");
        }
    }
}

/// Where `shutdown` connects to wake the accept thread: the bound
/// address, a wildcard bind mapped to the loopback of its family.
fn wake_addr(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        bound.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    bound
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => dispatch(stream, state, connection_thread()),
            Err(_) => {
                state.metrics.accept_errors.fetch_add(1, Ordering::Relaxed);
                thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
    drain_backlog(listener, state);
}

/// Serves the connections the kernel completed before `stop` was
/// observed: the listener goes non-blocking and is accepted from until
/// it would block (or errors — a stopping server does not retry).
fn drain_backlog(listener: &TcpListener, state: &Arc<ServerState>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    for stream in listener.incoming().take(DRAIN_LIMIT).map_while(Result::ok) {
        // Some platforms hand the listener's non-blocking flag down.
        if stream.set_nonblocking(false).is_ok() {
            dispatch(stream, state, connection_thread());
        }
    }
}

fn connection_thread() -> thread::Builder {
    thread::Builder::new().name("gmap-serve-conn".into())
}

/// Hands one accepted connection to a thread of its own. When `thread`
/// cannot be spawned the peer gets a structured 503 with `Retry-After`
/// from the accept thread — an honest transient, not a bare reset.
fn dispatch(stream: TcpStream, state: &Arc<ServerState>, thread: thread::Builder) {
    let stream = Arc::new(stream);
    let conn = Arc::clone(&stream);
    *state.connections.live() += 1;
    let guard = ConnGuard(Arc::clone(state));
    if let Err(cause) = thread.spawn(move || handle_connection(&conn, &guard.0)) {
        state.metrics.accept_errors.fetch_add(1, Ordering::Relaxed);
        let e = ApiError::new(503, format!("cannot serve this connection now: {cause}"));
        write_reply(&stream, state, 503, "application/json", &e.body(), true);
    }
}

/// Serves one connection: up to `keepalive_max` requests over the same
/// socket. Connection threads do the cheap work (parse, route, wait) and
/// leave pipeline execution to the worker pool.
///
/// Timeout policy: between requests the socket runs under `idle_timeout`
/// and an expiry closes the connection silently (the peer simply went
/// quiet); once the request line has arrived the socket runs under
/// `read_timeout` and a stall is answered with 408 before closing.
/// Malformed or oversized input always downgrades to `Connection: close`.
fn handle_connection(stream: &TcpStream, state: &Arc<ServerState>) {
    // A `trunc_body` fault cuts the inbound byte stream for this whole
    // connection, simulating a peer that dies mid-send.
    let trunc_budget = state.faults.as_ref().and_then(|f| f.truncate_after());
    let mut reader = BufReader::new(TruncatedReader::new(stream, trunc_budget));
    let mut served = 0usize;
    while served < state.keepalive_max {
        // Idle phase: wait for the first byte of the next request.
        if stream.set_read_timeout(Some(state.idle_timeout)).is_err() {
            return;
        }
        match reader.fill_buf() {
            Ok([]) => return, // peer closed cleanly
            Ok(_) => {}
            Err(_) => return, // idle timeout or transport error
        }
        let _ = stream.set_read_timeout(Some(state.read_timeout));
        let head = match http::read_request_head(&mut reader) {
            Ok(h) => h,
            Err(e) => return reject_unreadable(stream, state, e),
        };
        served += 1;
        let started = Instant::now();
        let deadline = request_deadline(state, &head);

        // Streaming ingest: the body is consumed piece by piece *inside*
        // the endpoint (it may be far larger than any materialized-body
        // limit), so it bypasses the read-whole-body path below. In
        // router mode the stream is re-framed to the owning replica
        // instead of being profiled here.
        if head.method == "POST" && head.route_path() == "/v1/ingest" {
            let forwarded = match &state.router {
                Some(router) => router.forward_ingest(&state.metrics, &head, &mut reader, deadline),
                None => ingest_endpoint(&head, &mut reader, state, started, deadline),
            };
            let Some((status, body, consumed)) = forwarded else {
                return; // transport failed mid-body; nothing to answer
            };
            state
                .metrics
                .record_request(Endpoint::Ingest, started.elapsed(), status);
            // Keep-alive is only sound when the body was fully consumed —
            // otherwise unread trace bytes would be parsed as the next
            // request head.
            let close = !consumed || head.wants_close() || served >= state.keepalive_max;
            if !write_reply(stream, state, status, "application/json", &body, close) || close {
                return;
            }
            continue;
        }

        let request = match http::read_body(&mut reader, &head) {
            Ok(body) => Request { head, body },
            Err(e) => return reject_unreadable(stream, state, e),
        };
        let endpoint = classify(&request);
        let (status, body, content_type) = route(&request, state, started, deadline);
        state
            .metrics
            .record_request(endpoint, started.elapsed(), status);
        let close = request.head.wants_close() || served >= state.keepalive_max;
        if !write_reply(stream, state, status, content_type, &body, close) || close {
            return;
        }
    }
}

/// Ends a connection whose request could not be read: silently when the
/// peer went away or idled out, with a 408/400/413 and a close otherwise.
fn reject_unreadable(stream: &TcpStream, state: &Arc<ServerState>, err: ReadError) {
    if let Some(e) = err.reply("request") {
        write_reply(stream, state, e.status, "application/json", &e.body(), true);
    }
}

/// The effective deadline of one request: the server's configured
/// budget, tightened by a router-propagated [`client::DEADLINE_HEADER`]
/// — a replica must never keep working on a request whose router has
/// already answered 504 upstream. The header can only shrink the
/// budget, never extend it.
fn request_deadline(state: &ServerState, head: &RequestHead) -> Duration {
    head.header(client::DEADLINE_HEADER)
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_millis)
        .map_or(state.deadline, |propagated| propagated.min(state.deadline))
}

fn classify(request: &Request) -> Endpoint {
    match request.head.path.as_str() {
        "/v1/profile" => Endpoint::Profile,
        "/v1/clone" => Endpoint::Clone,
        "/v1/evaluate" => Endpoint::Evaluate,
        "/v1/analyze" => Endpoint::Analyze,
        _ => Endpoint::Other,
    }
}

/// `POST /v1/ingest`: stream the request body — the raw trace, text or
/// binary, usually chunked — into an [`gmap_ingest::Ingestor`] on the
/// connection thread, then finalize (drain, profile, report) on a worker
/// through the normal queue/deadline machinery.
///
/// Returns `(status, body, body_fully_consumed)`, or `None` when the
/// transport died mid-body and no response can be delivered. The third
/// element gates keep-alive: an error that abandons the body forces a
/// close.
fn ingest_endpoint<R: BufRead>(
    head: &RequestHead,
    reader: &mut R,
    state: &Arc<ServerState>,
    started: Instant,
    deadline: Duration,
) -> Option<(u16, String, bool)> {
    let err = |e: ApiError| Some((e.status, e.body(), false));
    let query = match api::parse_ingest_query(&head.path) {
        Ok(q) => q,
        Err(e) => return err(e),
    };
    let mut body = match http::BodyReader::open(reader, head, http::MAX_INGEST_BODY_BYTES) {
        Ok(b) => b,
        Err(e) => return e.reply("trace body").and_then(err),
    };
    let launch = LaunchConfig::new(query.grid, query.block);
    let mut ing =
        gmap_ingest::Ingestor::new(&query.name, launch, gmap_ingest::IngestConfig::default());
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        // The deadline covers the whole request, including a slow
        // uploader: a stream that cannot finish in time is cut off here
        // rather than occupying the connection thread indefinitely.
        if started.elapsed() >= deadline {
            state
                .metrics
                .deadline_timeouts
                .fetch_add(1, Ordering::Relaxed);
            return err(ApiError::new(
                504,
                "deadline exceeded while streaming trace",
            ));
        }
        let n = match body.next_piece(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) => return e.reply("trace body").and_then(err),
        };
        state
            .metrics
            .ingest_bytes
            .fetch_add(n as u64, Ordering::Relaxed);
        if let Err(e) = ing.push_bytes(&buf[..n]) {
            // Parse error: the rest of the body is abandoned, so the
            // connection must close after the error response.
            return err(ApiError::bad_request(format!("trace rejected: {e}")));
        }
    }
    state.metrics.ingest_streams.fetch_add(1, Ordering::Relaxed);
    // Whatever the upload consumed of the budget is gone; the finalize
    // job runs under the remainder.
    let remaining = deadline.saturating_sub(started.elapsed());
    let (status, response) = run_job(state, remaining, ing, |state, ing, cancel| {
        let resp = handlers::ingest_finalize(&state.store, ing, cancel)?;
        if let Some(repl) = state.replication() {
            // Ingested models are stored unconditionally (the id hashes
            // the model itself), so always fan out.
            repl.enqueue(&resp.model_id);
        }
        Ok(resp)
    });
    Some((status, response, true))
}

/// Renders and writes one response. Returns `false` when the connection
/// must not serve further requests (write failure or an injected reset).
/// Transient 408/429/500/503/504 responses carry a `Retry-After` hint
/// for well-behaved clients (every `/v1/*` endpoint is idempotent, and
/// a request the server timed out reading is safe to resend).
fn write_reply(
    mut stream: &TcpStream,
    state: &Arc<ServerState>,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
) -> bool {
    let opts = ResponseOpts {
        close,
        retry_after: client::RETRYABLE_STATUSES
            .contains(&status)
            .then_some(RETRY_AFTER_SECS),
    };
    let mut buf = Vec::with_capacity(body.len() + 128);
    if http::write_response_opts(&mut buf, status, content_type, body, opts).is_err() {
        return false;
    }
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // A `reset` fault drops the connection after a fault-chosen prefix of
    // the response, simulating a mid-response network reset.
    if let Some(f) = &state.faults {
        if let Some(n) = f.reset_after(buf.len()) {
            let _ = stream.write_all(&buf[..n]);
            let _ = stream.flush();
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return false;
        }
    }
    stream.write_all(&buf).is_ok() && stream.flush().is_ok()
}

/// Dispatches a parsed request to its endpoint and renders the response
/// body. Returns `(status, body, content_type)`. `deadline` is this
/// request's effective budget (possibly router-tightened), measured
/// from `started`.
fn route(
    request: &Request,
    state: &Arc<ServerState>,
    started: Instant,
    deadline: Duration,
) -> (u16, String, &'static str) {
    // Router mode: the pipeline endpoints are forwarded to the owning
    // replica right here on the connection thread, with the remaining
    // budget propagated. `/healthz`, `/metrics`, and `/v1/analyze`
    // (stateless) are still answered locally.
    if let Some(router) = &state.router {
        if request.head.method == "POST"
            && matches!(
                request.head.path.as_str(),
                "/v1/profile" | "/v1/clone" | "/v1/evaluate"
            )
        {
            let body = match request.body_utf8() {
                Ok(b) => b,
                Err(msg) => {
                    let e = ApiError::bad_request(msg);
                    return (e.status, e.body(), "application/json");
                }
            };
            let budget = deadline.saturating_sub(started.elapsed());
            let (status, reply) = router.forward(&state.metrics, &request.head.path, body, budget);
            return (status, reply, "application/json");
        }
    }
    match (request.head.method.as_str(), request.head.path.as_str()) {
        ("GET", "/healthz") => {
            // A draining replica is still *alive* (200) but advertises
            // the state so peers and routers deprioritize it.
            let body = if state.is_draining() {
                "{\"status\":\"draining\"}"
            } else {
                "{\"status\":\"ok\"}"
            };
            (200, body.to_string(), "application/json")
        }
        ("GET", "/metrics") => {
            let text = state.metrics.render(state.runtime_stats());
            (200, text, "text/plain; version=0.0.4")
        }
        ("POST", "/v1/profile") => profile_endpoint(request, state, started, deadline),
        ("POST", "/v1/analyze") => {
            // Pure static analysis: answered right here on the connection
            // thread — no queue slot, no worker, no deadline machinery.
            match parse_body::<api::AnalyzeRequest>(request).and_then(|req| handlers::analyze(&req))
            {
                Ok(resp) => {
                    let races = handlers::race_finding_count(&resp.report);
                    if races > 0 {
                        state
                            .metrics
                            .analyze_races
                            .fetch_add(races, Ordering::Relaxed);
                    }
                    (200, canonical_json(&resp), "application/json")
                }
                Err(e) => (e.status, e.body(), "application/json"),
            }
        }
        ("POST", "/v1/clone") => {
            json_endpoint(request, state, started, deadline, |state, req, cancel| {
                handlers::clone_model(&state.store, &req, cancel)
            })
        }
        ("POST", "/v1/evaluate") => {
            json_endpoint(request, state, started, deadline, |state, req, cancel| {
                handlers::evaluate(&state.store, &req, cancel)
            })
        }
        ("POST", "/v1/replicate") => {
            // Internal fleet endpoint: idempotent model push from a
            // peer. Runs through the worker pool like any store-touching
            // job, so injected faults apply. The receiver pushes nothing
            // onward: the originator aims at the whole replica set itself.
            json_endpoint(request, state, started, deadline, |state, req, cancel| {
                handlers::replicate_store(&state.store, &req, cancel)
            })
        }
        ("POST", "/v1/admin/drain") => {
            // Graceful decommission, answered on the connection thread:
            // flip to draining first (health probes now advertise it),
            // then synchronously stream every owned model to reachable
            // successors. Idempotent — a second call re-streams
            // whatever is still held.
            state.draining.store(true, Ordering::SeqCst);
            let (keys, pushed, failed) = state
                .replication
                .as_ref()
                .map_or((0, 0, 0), |repl| repl.drain_to_successors());
            let resp = api::DrainResponse {
                status: "draining".to_string(),
                keys,
                pushed,
                failed,
            };
            (200, canonical_json(&resp), "application/json")
        }
        ("GET", _) | ("POST", _) => {
            let e = ApiError::new(404, format!("no such route {}", request.head.path));
            (404, e.body(), "application/json")
        }
        (method, _) => {
            let e = ApiError::new(405, format!("method {method} not supported"));
            (405, e.body(), "application/json")
        }
    }
}

/// Parses a JSON request body into its wire type.
fn parse_body<Req: Deserialize>(request: &Request) -> Result<Req, ApiError> {
    let body = request.body_utf8().map_err(ApiError::bad_request)?;
    serde_json::from_str(body)
        .map_err(|e| ApiError::bad_request(format!("invalid request body: {e}")))
}

/// `POST /v1/profile`: the static-analysis admission gate runs here on
/// the connection thread, *before* the job queue — an inadmissible spec
/// is answered 422 without ever occupying a queue slot or a worker.
fn profile_endpoint(
    request: &Request,
    state: &Arc<ServerState>,
    started: Instant,
    deadline: Duration,
) -> (u16, String, &'static str) {
    let parsed: api::ProfileRequest = match parse_body(request) {
        Ok(r) => r,
        Err(e) => return (e.status, e.body(), "application/json"),
    };
    match handlers::admission_report(&parsed) {
        Ok(report) => {
            let races = handlers::race_finding_count(&report);
            if races > 0 {
                state
                    .metrics
                    .analyze_races
                    .fetch_add(races, Ordering::Relaxed);
            }
            if let Err(e) = handlers::gate_report(&report) {
                state
                    .metrics
                    .analyze_rejects
                    .fetch_add(1, Ordering::Relaxed);
                return (e.status, e.body(), "application/json");
            }
        }
        Err(e) => return (e.status, e.body(), "application/json"),
    }
    let budget = deadline.saturating_sub(started.elapsed());
    let (status, body) = run_job(state, budget, parsed, |state, req, cancel| {
        let resp = handlers::profile(&state.store, &state.metrics, &req, cancel)?;
        if let Some(repl) = state.replication().filter(|_| !resp.cached) {
            // Fresh store: fan it out to the key's replica set.
            repl.enqueue(&resp.model_id);
        }
        Ok(resp)
    });
    (status, body, "application/json")
}

/// Parses the body, runs `handler` on the worker pool with backpressure
/// and a deadline, and renders the outcome.
fn json_endpoint<Req, Resp, F>(
    request: &Request,
    state: &Arc<ServerState>,
    started: Instant,
    deadline: Duration,
    handler: F,
) -> (u16, String, &'static str)
where
    Req: Deserialize + Send + 'static,
    Resp: Serialize,
    F: FnOnce(&ServerState, Req, &AtomicBool) -> Result<Resp, ApiError> + Send + 'static,
{
    let parsed: Req = match parse_body(request) {
        Ok(r) => r,
        Err(e) => return (e.status, e.body(), "application/json"),
    };
    let budget = deadline.saturating_sub(started.elapsed());
    let (status, body) = run_job(state, budget, parsed, handler);
    (status, body, "application/json")
}

/// Submits one handler invocation to the queue and waits for its result
/// under `deadline` — the request's remaining budget, already clamped to
/// any router-propagated `X-Gmap-Deadline-Ms`.
fn run_job<Req, Resp, F>(
    state: &Arc<ServerState>,
    deadline: Duration,
    parsed: Req,
    handler: F,
) -> (u16, String)
where
    Req: Send + 'static,
    Resp: Serialize,
    F: FnOnce(&ServerState, Req, &AtomicBool) -> Result<Resp, ApiError> + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let cancel = Arc::new(AtomicBool::new(false));
    let job_cancel = Arc::clone(&cancel);
    let job_state = Arc::clone(state);
    let enqueued = Instant::now();
    let submitted = state.queue.submit(Box::new(move || {
        // Load shedding: if the deadline expired while this job sat in
        // the queue, the requester has already been answered 504 — do
        // not burn a worker executing a result nobody will read.
        if enqueued.elapsed() >= deadline {
            job_state.metrics.jobs_shed.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(Err(ApiError::new(504, "deadline expired in queue")));
            return;
        }
        if let Some(f) = &job_state.faults {
            // Injected slow handler: occupies this worker like real
            // heavy work would.
            if let Some(pause) = f.slow_for() {
                thread::sleep(pause);
            }
            // Injected handler panic: contained by the worker loop; the
            // requester sees the channel close and answers 500.
            f.maybe_panic();
        }
        let result = handler(&job_state, parsed, &job_cancel).map(|resp| canonical_json(&resp));
        // The requester may have timed out and gone away; that's fine.
        let _ = tx.send(result);
    }));
    match submitted {
        Err(SubmitError::Full) => {
            state.metrics.rejected_full.fetch_add(1, Ordering::Relaxed);
            let e = ApiError::new(429, "job queue is full, retry later");
            (e.status, e.body())
        }
        Err(SubmitError::ShuttingDown) => {
            state
                .metrics
                .rejected_shutdown
                .fetch_add(1, Ordering::Relaxed);
            let e = ApiError::new(503, "service is shutting down");
            (e.status, e.body())
        }
        Ok(()) => match rx.recv_timeout(deadline) {
            Ok(Ok(body)) => (200, body),
            Ok(Err(e)) => (e.status, e.body()),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                cancel.store(true, Ordering::Relaxed);
                state
                    .metrics
                    .deadline_timeouts
                    .fetch_add(1, Ordering::Relaxed);
                let e = ApiError::new(504, "deadline exceeded");
                (e.status, e.body())
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // The job dropped `tx` without sending: the handler
                // panicked and the worker pool contained it. Structured
                // 500 instead of a hung or reset connection.
                let e = ApiError::new(500, "internal error: handler panicked");
                (e.status, e.body())
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn failed_spawn_answers_503_and_releases_the_connection_count() {
        let server = start(ServeConfig::default()).expect("bind");
        // A socket pair of our own stands in for an accepted connection.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind pair");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");

        // No address space holds this stack, so the spawn must fail.
        let unspawnable = thread::Builder::new().stack_size(usize::MAX / 2);
        dispatch(accepted, server.state(), unspawnable);

        assert_eq!(*server.state().connections.live(), 0, "count released");
        let counted = server.state().metrics.accept_errors.load(Ordering::Relaxed);
        assert_eq!(counted, 1, "visible in /metrics");
        let mut reply = String::new();
        peer.read_to_string(&mut reply)
            .expect("replied, then closed");
        assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
        assert!(
            reply.to_ascii_lowercase().contains("retry-after: 1"),
            "{reply}"
        );
        assert!(reply.contains("\"status\":503"), "structured body: {reply}");
        server.shutdown();
    }

    #[test]
    fn shutdown_returns_when_the_wake_connection_fails() {
        let server = start(ServeConfig::default()).expect("bind");
        let addr = server.addr().to_string();
        // One served request: the accept thread is up and back in
        // `accept()` (or about to be) when shutdown starts.
        assert!(crate::client::get(&addr, "/healthz").is_ok());
        let began = Instant::now();
        server.shutdown_with(|_| Err(std::io::Error::other("port unreachable from loopback")));
        assert!(began.elapsed() < Duration::from_secs(1), "no hang");
        // A parked accept thread is woken by the next peer, answers it
        // honestly and exits; one that saw `stop` before parking has
        // already closed the listener.
        match crate::client::get(&addr, "/healthz") {
            Ok(late) => assert_eq!(late.status, 200),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionRefused),
        }
    }

    #[test]
    fn wake_address_maps_wildcard_binds_to_loopback() {
        for (bound, wake) in [
            ("0.0.0.0:8080", "127.0.0.1:8080"),
            ("[::]:8080", "[::1]:8080"),
            ("192.0.2.7:8080", "192.0.2.7:8080"),
        ] {
            let bound: SocketAddr = bound.parse().expect("addr");
            assert_eq!(wake_addr(bound).to_string(), wake);
        }
    }
}
