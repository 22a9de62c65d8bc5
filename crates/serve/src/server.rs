//! The HTTP server: accept loop, the one request spine, deadline
//! enforcement, load shedding, and drain-first graceful shutdown.
//!
//! Threading model: one accept thread blocks in `accept()`; each
//! accepted connection gets a connection thread that serves up to
//! [`ServeConfig::keepalive_max`] requests over one socket; a fixed
//! worker pool executes what those threads submit to the bounded
//! [`JobQueue`].
//!
//! Every request goes down one spine (`handle_connection`), which holds
//! no second copy of any step: read the head → mint its `Deadline` →
//! resolve its [`Endpoint`] in the one table → obtain one `Reply` → the
//! one tail (count under the row's label, fold `reply.close` into
//! keep-alive, `write_reply`). The reply comes from `route` once the
//! body is read — a router forwards the rows marked so; `/healthz`,
//! `/metrics` and analyze answer on the connection thread, so the
//! service stays observable when every worker is busy; the rest wait on
//! `run_job` — or from `ingest_endpoint` for the row that streams its
//! own body.
//!
//! Resilience (DESIGN.md "Resilience"): idle peers are closed silently;
//! a mid-request stall (408) and malformed or oversized input (400/413)
//! are answered and closed; jobs whose deadline passed in the queue are
//! shed (504, the handler never runs); transient statuses carry
//! `Retry-After`; a panicking handler is a structured 500; a configured
//! [`crate::faults`] spec is armed here and threaded through the cache,
//! the request reader, the worker path and the response writer.
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
use crate::http::{self, ReadError, Reply, Request, RequestHead, ResponseOpts};
use crate::jobs::{JobQueue, SubmitError};
use crate::metrics::{Endpoint, Metrics, RuntimeStats};
use crate::replicate::{self, ReplicationState, ReplicationWorker};
use crate::router::Router;
use gmap_core::cachekey::canonical_json;
use gmap_gpu::hierarchy::LaunchConfig;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// After a reply that left request bytes unread, the connection lingers
/// until the peer is this quiet, or has sent this much, before it closes.
const LINGER: Duration = Duration::from_millis(50);
const LINGER_BYTES: u64 = 64 * 1024;

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

    /// Samples the point-in-time values rendered alongside the counters.
    fn runtime_stats(&self) -> RuntimeStats {
        let repl = self.replication.as_deref();
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
            peer_ejections: self.peers.ejections(),
            peer_recoveries: self.peers.recoveries(),
            replication_sent: repl.map_or(0, ReplicationState::sent),
            replication_failed: repl.map_or(0, ReplicationState::failed),
            replication_dropped: repl.map_or(0, ReplicationState::dropped),
            hints_queued: repl.map_or(0, ReplicationState::hints_queued),
            hints_replayed: repl.map_or(0, ReplicationState::hints_replayed),
            peer_states: self.peers.snapshot(),
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
    let peers = Arc::new(Peers::new(peer_addrs));
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
                count(&state.metrics.accept_errors, 1);
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
        count(&state.metrics.accept_errors, 1);
        let e = ApiError::new(503, format!("cannot serve this connection now: {cause}"));
        write_reply(&stream, state, &e.into(), true);
    }
}

/// When the server gives up on a request: an absolute instant, minted
/// once per request and carried by value to every layer that waits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadline(Instant);

impl Deadline {
    /// What is left of the budget: zero once the request is given up on.
    pub(crate) fn remaining(self) -> Duration {
        self.0.saturating_duration_since(Instant::now())
    }
}

/// Serves one connection: up to `keepalive_max` requests over the same
/// socket, each down the spine the module doc walks. Connection threads
/// do the cheap work (parse, route, wait) and leave pipeline execution
/// to the worker pool.
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
        if !matches!(reader.fill_buf(), Ok([_, ..])) {
            return; // peer closed cleanly, idled out, or the transport failed
        }
        let _ = stream.set_read_timeout(Some(state.read_timeout));
        let head = match http::read_request_head(&mut reader) {
            Ok(h) => h,
            Err(e) => return reject_unreadable(stream, state, e),
        };
        served += 1;
        let started = Instant::now();
        let due = Deadline(started + request_deadline(state, &head));
        let endpoint = Endpoint::resolve(&head.method, &head.path);
        let counted = Endpoint::at(&head.path);
        let wants_close = head.wants_close();
        let reply = match endpoint {
            // The row consumes its own body, piece by piece (it may be
            // far larger than any materialized-body limit).
            Ok(endpoint) if endpoint.row().streams_body => {
                ingest_endpoint(&head, &mut reader, state, due)
            }
            // Everyone else — a route about to be refused included — is
            // handed the whole body.
            endpoint => match http::read_body(&mut reader, &head) {
                Ok(body) => Some(endpoint.map_or_else(Reply::from, |endpoint| {
                    route(endpoint, &Request { head, body }, state, due)
                })),
                Err(e) => return reject_unreadable(stream, state, e),
            },
        };
        let Some(reply) = reply else {
            return; // transport failed mid-body; nothing to answer
        };
        state
            .metrics
            .record_request(counted, started.elapsed(), reply.status);
        let close = reply.close || wants_close || served >= state.keepalive_max;
        if !write_reply(stream, state, &reply, close) || close {
            return;
        }
    }
}

/// Ends a connection whose request could not be read: silently when the
/// peer went away or idled out, with a 408/400/413 and a close otherwise.
fn reject_unreadable(stream: &TcpStream, state: &Arc<ServerState>, err: ReadError) {
    if let Some(e) = err.reply("request") {
        write_reply(stream, state, &Reply::closing(e), true);
    }
}

/// The budget of one request: the configured deadline, tightened by a
/// router-propagated [`client::DEADLINE_HEADER`] — a replica must never
/// keep working on a request whose router has already answered 504
/// upstream. The header can only shrink the budget, never extend it.
fn request_deadline(state: &ServerState, head: &RequestHead) -> Duration {
    head.header(client::DEADLINE_HEADER)
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_millis)
        .map_or(state.deadline, |propagated| propagated.min(state.deadline))
}

/// `POST /v1/ingest`: stream the request body — the raw trace, text or
/// binary, usually chunked — into an [`gmap_ingest::Ingestor`] on the
/// connection thread, then finalize (drain, profile, report) on a worker
/// through the normal queue/deadline machinery; a router re-frames the
/// stream to the owning replica instead. `None` when the transport died
/// mid-body and nothing can be answered. A reply that abandons the body
/// closes: unread trace bytes would be parsed as the next request head.
fn ingest_endpoint<R: BufRead>(
    head: &RequestHead,
    reader: &mut R,
    state: &Arc<ServerState>,
    due: Deadline,
) -> Option<Reply> {
    if let Some(router) = &state.router {
        return router.forward_ingest(&state.metrics, head, reader, due);
    }
    let query = match api::parse_ingest_query(&head.path) {
        Ok(q) => q,
        Err(e) => return Some(Reply::closing(e)),
    };
    let mut body = match http::BodyReader::open(reader, head, http::MAX_INGEST_BODY_BYTES) {
        Ok(b) => b,
        Err(e) => return e.reply("trace body").map(Reply::closing),
    };
    let launch = LaunchConfig::new(query.grid, query.block);
    let mut ing =
        gmap_ingest::Ingestor::new(&query.name, launch, gmap_ingest::IngestConfig::default());
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        // The deadline covers the whole request, including a slow
        // uploader: a stream that cannot finish in time is cut off here
        // rather than occupying the connection thread indefinitely.
        if due.remaining().is_zero() {
            count(&state.metrics.deadline_timeouts, 1);
            let e = ApiError::new(504, "deadline exceeded while streaming trace");
            return Some(Reply::closing(e));
        }
        let n = match body.next_piece(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) => return e.reply("trace body").map(Reply::closing),
        };
        count(&state.metrics.ingest_bytes, n as u64);
        if let Err(e) = ing.push_bytes(&buf[..n]) {
            // Parse error: the rest of the body is abandoned.
            let e = ApiError::bad_request(format!("trace rejected: {e}"));
            return Some(Reply::closing(e));
        }
    }
    count(&state.metrics.ingest_streams, 1);
    // Whatever the upload consumed of the budget is gone; the finalize
    // job runs under the remainder.
    Some(run_job(state, due, Ok(ing), |state, ing, cancel| {
        let resp = handlers::ingest_finalize(&state.store, ing, cancel)?;
        if let Some(repl) = state.replication() {
            // Stored unconditionally (the id hashes the model): always fan out.
            repl.enqueue(&resp.model_id);
        }
        Ok(resp)
    }))
}

/// Renders and writes one reply: the only writer. Returns `false` when
/// the connection must not serve further requests (write failure or an
/// injected reset). Transient 408/429/500/503/504 replies carry a
/// `Retry-After` hint (every endpoint is idempotent, and a request the
/// server timed out reading is safe to resend).
fn write_reply(mut stream: &TcpStream, state: &ServerState, reply: &Reply, close: bool) -> bool {
    let transient = client::RETRYABLE_STATUSES.contains(&reply.status);
    let retry_after = transient.then_some(RETRY_AFTER_SECS);
    let opts = ResponseOpts { close, retry_after };
    let mut buf = Vec::with_capacity(reply.body.len() + 128);
    let (status, body) = (reply.status, reply.body.as_str());
    if http::write_response_opts(&mut buf, status, reply.content_type, body, opts).is_err() {
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
    let written = stream.write_all(&buf).is_ok() && stream.flush().is_ok();
    if reply.close {
        // Closing on unread request bytes makes the kernel reset the
        // connection, and a reset can overtake the reply: end our side,
        // then take what the peer still sends, briefly.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let _ = stream.set_read_timeout(Some(LINGER));
        let _ = std::io::copy(&mut stream.take(LINGER_BYTES), &mut std::io::sink());
    }
    written
}

/// Answers a request whose body has been read: a router forwards the
/// rows marked so (from this connection thread, propagating what is left
/// before the deadline); everything else goes to its endpoint.
fn route(endpoint: Endpoint, request: &Request, state: &Arc<ServerState>, due: Deadline) -> Reply {
    if let Some(router) = state.router.as_ref().filter(|_| endpoint.row().forwarded) {
        return match request.body_utf8() {
            Ok(body) => router.forward(&state.metrics, &request.head.path, body, due),
            Err(msg) => ApiError::bad_request(msg).into(),
        };
    }
    match endpoint {
        Endpoint::Healthz => Reply::json(200, "{\"status\":\"ok\"}".to_string()),
        Endpoint::Metrics => Reply {
            content_type: "text/plain; version=0.0.4",
            ..Reply::json(200, state.metrics.render(state.runtime_stats()))
        },
        Endpoint::Profile => run_job(state, due, parse_body(request), |state, req, cancel| {
            let resp = handlers::profile(&state.store, &state.metrics, &req, cancel)?;
            if let Some(repl) = state.replication().filter(|_| !resp.cached) {
                // Fresh store: fan it out to the key's replica set.
                repl.enqueue(&resp.model_id);
            }
            Ok(resp)
        }),
        // Pure static analysis: answered right here on the connection
        // thread — no queue slot, no worker, no deadline machinery.
        Endpoint::Analyze => parse_body::<api::AnalyzeRequest>(request)
            .and_then(|req| handlers::analyze(&req))
            .map_or_else(Reply::from, |resp| Reply::json(200, canonical_json(&resp))),
        Endpoint::Clone => run_job(state, due, parse_body(request), |state, req, cancel| {
            handlers::clone_model(&state.store, &req, cancel)
        }),
        Endpoint::Evaluate => run_job(state, due, parse_body(request), |state, req, cancel| {
            handlers::evaluate(&state.store, &req, cancel)
        }),
        // Internal fleet endpoint: idempotent model push from a peer.
        // Runs through the worker pool like any store-touching job, so
        // injected faults apply. The receiver pushes nothing onward: the
        // originator aims at the whole replica set itself.
        Endpoint::Replicate => run_job(state, due, parse_body(request), |state, req, cancel| {
            handlers::replicate_store(&state.store, &req, cancel)
        }),
        Endpoint::Ingest => unreachable!("the row streams its own body: served before `route`"),
    }
}

/// Adds `n` to a registry counter (a statistic, hence `Relaxed`).
fn count(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Parses a JSON request body into its wire type.
fn parse_body<Req: Deserialize>(request: &Request) -> Result<Req, ApiError> {
    let body = request.body_utf8().map_err(ApiError::bad_request)?;
    serde_json::from_str(body)
        .map_err(|e| ApiError::bad_request(format!("invalid request body: {e}")))
}

/// Answers a request that did not parse with its error; otherwise
/// submits one `handler` invocation to the queue — full is a 429 — and
/// waits for its result until the request is `due`.
fn run_job<Req, Resp, F>(
    state: &Arc<ServerState>,
    due: Deadline,
    parsed: Result<Req, ApiError>,
    handler: F,
) -> Reply
where
    Req: Send + 'static,
    Resp: Serialize,
    F: FnOnce(&ServerState, Req, &AtomicBool) -> Result<Resp, ApiError> + Send + 'static,
{
    let parsed = match parsed {
        Ok(parsed) => parsed,
        Err(e) => return e.into(),
    };
    let (tx, rx) = mpsc::channel();
    let cancel = Arc::new(AtomicBool::new(false));
    let job_cancel = Arc::clone(&cancel);
    let job_state = Arc::clone(state);
    let submitted = state.queue.submit(Box::new(move || {
        // Load shedding: if the deadline expired while this job sat in
        // the queue, the requester has already been answered 504 — do
        // not burn a worker executing a result nobody will read.
        if due.remaining().is_zero() {
            count(&job_state.metrics.jobs_shed, 1);
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
    let outcome = match submitted {
        Err(SubmitError::Full) => {
            count(&state.metrics.rejected_full, 1);
            Err(ApiError::new(429, "job queue is full, retry later"))
        }
        Err(SubmitError::ShuttingDown) => {
            count(&state.metrics.rejected_shutdown, 1);
            Err(ApiError::new(503, "service is shutting down"))
        }
        Ok(()) => match rx.recv_timeout(due.remaining()) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                cancel.store(true, Ordering::Relaxed);
                count(&state.metrics.deadline_timeouts, 1);
                Err(ApiError::new(504, "deadline exceeded"))
            }
            // The job dropped `tx` without sending: the handler
            // panicked and the worker pool contained it. Structured
            // 500 instead of a hung or reset connection.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(ApiError::new(500, "internal error: handler panicked"))
            }
        },
    };
    outcome.map_or_else(Reply::from, |body| Reply::json(200, body))
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
