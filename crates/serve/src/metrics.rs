//! Service metrics registry and the `/metrics` text rendering — and,
//! because a request is counted under the endpoint that served it, the
//! endpoint table itself ([`Endpoint`]): the one place a method, a path
//! and what the layers do with them are written down.
//!
//! Counters are lock-free atomics; latency distributions reuse the
//! log-bucketed [`LatencyHistogram`] from `gmap-trace`, guarded by a
//! mutex (recording is one bucket increment — contention is negligible
//! next to the work being measured). The output format follows the
//! Prometheus text exposition conventions so the endpoint is scrapable,
//! but no client library is involved.

use crate::api::ApiError;
use crate::health::PeerStatus;
use gmap_trace::LatencyHistogram;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The service's endpoints: the one table every layer reads — routing,
/// the router's forward decision, shard keys, retry safety and the
/// `/metrics` label all come from an endpoint's row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`: liveness probe.
    Healthz,
    /// `GET /metrics`: this registry's text exposition.
    Metrics,
    /// `POST /v1/profile`: profile a workload or inline spec into a
    /// cached, content-addressed model.
    Profile,
    /// `POST /v1/analyze`: static analysis, on the connection thread.
    Analyze,
    /// `POST /v1/clone`: proxy-stream statistics of a cached model.
    Clone,
    /// `POST /v1/evaluate`: a hierarchy grid against a cached model.
    Evaluate,
    /// `POST /v1/ingest`: stream a raw trace into a profiled model.
    Ingest,
    /// `POST /v1/replicate`: internal, idempotent model push from a peer.
    Replicate,
}

/// `/metrics` endpoint labels, in rendering order; the last is shared by
/// the rows without one of their own and by requests no row matches.
const LABELS: [&str; 6] = ["profile", "clone", "evaluate", "analyze", "ingest", OTHER];
const OTHER: &str = "other";

/// What the table states, once, about an endpoint.
pub(crate) struct Row {
    endpoint: Endpoint,
    pub(crate) method: &'static str,
    pub(crate) path: &'static str,
    /// One of [`LABELS`].
    label: &'static str,
    /// A router forwards the request to the replica owning its shard key.
    pub(crate) forwarded: bool,
    /// The endpoint consumes its body itself, piece by piece, instead of
    /// being handed it whole.
    pub(crate) streams_body: bool,
}

/// The endpoint table, in [`Endpoint`] order.
#[rustfmt::skip]
pub(crate) const TABLE: [Row; 8] = {
    use Endpoint::*;
    const fn row(
        endpoint: Endpoint, method: &'static str, path: &'static str, label: &'static str,
        forwarded: bool, streams_body: bool,
    ) -> Row {
        Row { endpoint, method, path, label, forwarded, streams_body }
    }
    [
        //  endpoint   method  path             label       forwarded  streams_body
        row(Healthz,   "GET",  "/healthz",      OTHER,      false,     false),
        row(Metrics,   "GET",  "/metrics",      OTHER,      false,     false),
        row(Profile,   "POST", "/v1/profile",   "profile",  true,      false),
        row(Analyze,   "POST", "/v1/analyze",   "analyze",  false,     false),
        row(Clone,     "POST", "/v1/clone",     "clone",    true,      false),
        row(Evaluate,  "POST", "/v1/evaluate",  "evaluate", true,      false),
        row(Ingest,    "POST", "/v1/ingest",    "ingest",   true,      true),
        row(Replicate, "POST", "/v1/replicate", OTHER,      false,     false),
    ]
};

impl Endpoint {
    /// This endpoint's row of the table.
    pub(crate) fn row(self) -> &'static Row {
        &TABLE[self as usize]
    }

    /// The endpoint at `target`'s path (a query string is ignored),
    /// whatever the method: the row a request for it is counted under.
    pub(crate) fn at(target: &str) -> Option<Endpoint> {
        let path = target.split('?').next().unwrap_or(target);
        TABLE.iter().find(|r| r.path == path).map(|r| r.endpoint)
    }

    /// The endpoint serving `method` on `target`; allocates only to
    /// refuse.
    ///
    /// # Errors
    ///
    /// 404 naming the whole target for a `GET` or `POST` no row serves,
    /// 405 for any other method.
    pub(crate) fn resolve(method: &str, target: &str) -> Result<Endpoint, ApiError> {
        Endpoint::at(target)
            .filter(|e| e.row().method == method)
            .ok_or_else(|| match method {
                "GET" | "POST" => ApiError::new(404, format!("no such route {target}")),
                _ => ApiError::new(405, format!("method {method} not supported")),
            })
    }
}

/// Per-endpoint request counters and latency distribution.
#[derive(Debug, Default)]
pub struct EndpointStats {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: Mutex<LatencyHistogram>,
}

impl EndpointStats {
    fn record(&self, elapsed: Duration, status: u16) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency
            .lock()
            .expect("latency lock poisoned")
            .record(elapsed);
    }
}

/// Per-peer router counters, present only in router mode (see
/// [`Metrics::with_route`]).
#[derive(Debug)]
pub struct RouteMetrics {
    /// Requests forwarded to each peer, in ring listing order.
    forwards: Vec<(String, AtomicU64)>,
    /// Forward attempts moved to a successor replica after a transport
    /// failure (refused connection, reset, timeout).
    pub failovers: AtomicU64,
}

impl RouteMetrics {
    /// Creates zeroed counters for `peers`.
    pub fn new(peers: &[String]) -> RouteMetrics {
        RouteMetrics {
            forwards: peers
                .iter()
                .map(|p| (p.clone(), AtomicU64::new(0)))
                .collect(),
            failovers: AtomicU64::new(0),
        }
    }

    /// Counts one request forwarded to `peer` (a response was received,
    /// whatever its status). Unknown peers are ignored.
    pub fn record_forward(&self, peer: &str) {
        if let Some((_, counter)) = self.forwards.iter().find(|(p, _)| p == peer) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total forwards across all peers.
    pub fn forwards_total(&self) -> u64 {
        self.forwards
            .iter()
            .map(|(_, c)| c.load(Ordering::Relaxed))
            .sum()
    }
}

/// The service-wide metrics registry.
#[derive(Debug, Default)]
pub struct Metrics {
    /// One slot per entry of [`LABELS`].
    endpoints: [EndpointStats; LABELS.len()],
    /// Model-cache hits (`/v1/profile` served without re-profiling).
    pub cache_hits: AtomicU64,
    /// Model-cache misses (profile computed and stored).
    pub cache_misses: AtomicU64,
    /// Submissions refused with 429 because the queue was full.
    pub rejected_full: AtomicU64,
    /// Submissions refused with 503 during shutdown.
    pub rejected_shutdown: AtomicU64,
    /// Requests that hit their deadline and were answered 504.
    pub deadline_timeouts: AtomicU64,
    /// Specs rejected with 422 by the static-analysis admission gate
    /// (before anything is profiled).
    pub analyze_rejects: AtomicU64,
    /// Jobs whose deadline expired while still queued: answered 504
    /// without the handler ever executing.
    pub jobs_shed: AtomicU64,
    /// Trace bytes consumed by the streaming `/v1/ingest` endpoint
    /// (body bytes, excluding chunk framing).
    pub ingest_bytes: AtomicU64,
    /// Trace streams fully received by `/v1/ingest`.
    pub ingest_streams: AtomicU64,
    /// Connections lost on the accept thread: `accept()` failures
    /// (EMFILE, ENFILE, ECONNABORTED, …; each followed by a short
    /// back-off) and connection threads that could not be spawned (503).
    pub accept_errors: AtomicU64,
    /// Per-peer router counters; `None` outside router mode.
    pub route: Option<RouteMetrics>,
}

/// Point-in-time values that live outside the counter registry (queue
/// state, cache occupancy, fault-injection totals, peer health) and are
/// sampled by the caller at render time.
#[derive(Debug, Default, Clone)]
pub struct RuntimeStats {
    /// Jobs waiting in the queue.
    pub queue_depth: usize,
    /// Jobs currently executing on workers.
    pub jobs_in_flight: usize,
    /// Models resident in the memory tier.
    pub models_cached: usize,
    /// Configured memory-tier bound.
    pub cache_capacity: usize,
    /// Open client connections.
    pub active_connections: usize,
    /// Memory-tier evictions so far.
    pub cache_evictions: u64,
    /// Disk entries quarantined after integrity failures.
    pub cache_quarantined: u64,
    /// Worker-pool jobs that panicked (contained).
    pub worker_panics: u64,
    /// Faults injected by the fault-injection layer (0 when disabled).
    pub faults_injected: u64,
    /// Peers taken down by consecutive failed exchanges (up → down
    /// edges).
    pub peer_ejections: u64,
    /// Down peers brought back up by an answer (down → up edges).
    pub peer_recoveries: u64,
    /// Models successfully pushed to a replica-set peer.
    pub replication_sent: u64,
    /// Replication pushes that failed transport or were refused.
    pub replication_failed: u64,
    /// Replication work dropped because the bounded queue was full (or
    /// a `replicate_err` fault fired).
    pub replication_dropped: u64,
    /// Hints recorded for peers that were down at push time.
    pub hints_queued: u64,
    /// Hinted models successfully replayed to their recovered owner.
    pub hints_replayed: u64,
    /// Per-peer up/down view (`gmap_peer_up` gauges); empty outside
    /// router and fleet mode.
    pub peer_states: Vec<PeerStatus>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Creates a registry with router counters for `peers`.
    pub fn with_route(peers: &[String]) -> Self {
        Metrics {
            route: Some(RouteMetrics::new(peers)),
            ..Metrics::default()
        }
    }

    /// Records one finished request under the label of `which`, the
    /// endpoint at its path; `None` (no such path) counts as `other`.
    pub fn record_request(&self, which: Option<Endpoint>, elapsed: Duration, status: u16) {
        let label = which.map_or(OTHER, |e| e.row().label);
        let slot = LABELS.iter().position(|l| *l == label);
        self.endpoints[slot.expect("row labels are LABELS entries")].record(elapsed, status);
    }

    /// Renders the Prometheus-style text exposition. Gauges and
    /// externally-owned counters (queue state, cache occupancy, panic and
    /// fault totals) are sampled by the caller into [`RuntimeStats`].
    pub fn render(&self, rt: RuntimeStats) -> String {
        let mut out = String::with_capacity(2048);
        let endpoints = || LABELS.iter().zip(&self.endpoints);
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        out.push_str("# TYPE gmap_requests_total counter\n");
        for (label, stats) in endpoints() {
            let _ = writeln!(
                out,
                "gmap_requests_total{{endpoint=\"{label}\"}} {}",
                load(&stats.requests)
            );
        }
        out.push_str("# TYPE gmap_request_errors_total counter\n");
        for (label, stats) in endpoints() {
            let _ = writeln!(
                out,
                "gmap_request_errors_total{{endpoint=\"{label}\"}} {}",
                load(&stats.errors)
            );
        }
        out.push_str("# TYPE gmap_request_latency_seconds summary\n");
        for (label, stats) in endpoints() {
            let hist = stats.latency.lock().expect("latency lock poisoned");
            if hist.count() == 0 {
                continue;
            }
            for (q, latency) in [
                ("0.5", hist.p50()),
                ("0.95", hist.p95()),
                ("0.99", hist.p99()),
            ] {
                let _ = writeln!(
                    out,
                    "gmap_request_latency_seconds{{endpoint=\"{label}\",quantile=\"{q}\"}} {:.9}",
                    latency.as_secs_f64()
                );
            }
            let _ = writeln!(
                out,
                "gmap_request_latency_seconds_count{{endpoint=\"{label}\"}} {}",
                hist.count()
            );
        }
        for (name, value) in [
            ("gmap_cache_hits_total", load(&self.cache_hits)),
            ("gmap_cache_misses_total", load(&self.cache_misses)),
            ("gmap_queue_rejected_total", load(&self.rejected_full)),
            (
                "gmap_shutdown_rejected_total",
                load(&self.rejected_shutdown),
            ),
            (
                "gmap_deadline_timeouts_total",
                load(&self.deadline_timeouts),
            ),
            ("gmap_analyze_rejects_total", load(&self.analyze_rejects)),
            ("gmap_jobs_shed_total", load(&self.jobs_shed)),
            ("gmap_ingest_bytes_total", load(&self.ingest_bytes)),
            ("gmap_ingest_streams_total", load(&self.ingest_streams)),
            ("gmap_accept_errors_total", load(&self.accept_errors)),
            ("gmap_cache_evictions_total", rt.cache_evictions),
            ("gmap_cache_quarantined_total", rt.cache_quarantined),
            ("gmap_worker_panics_total", rt.worker_panics),
            ("gmap_faults_injected_total", rt.faults_injected),
            ("gmap_peer_ejections_total", rt.peer_ejections),
            ("gmap_peer_recoveries_total", rt.peer_recoveries),
            ("gmap_replication_total", rt.replication_sent),
            ("gmap_replication_failed_total", rt.replication_failed),
            ("gmap_replication_dropped_total", rt.replication_dropped),
            ("gmap_hints_queued_total", rt.hints_queued),
            ("gmap_hints_replayed_total", rt.hints_replayed),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
        }
        if let Some(route) = &self.route {
            out.push_str("# TYPE gmap_route_forwards_total counter\n");
            for (peer, counter) in &route.forwards {
                let _ = writeln!(
                    out,
                    "gmap_route_forwards_total{{peer=\"{peer}\"}} {}",
                    counter.load(Ordering::Relaxed)
                );
            }
            let _ = writeln!(
                out,
                "# TYPE gmap_route_failovers_total counter\ngmap_route_failovers_total {}",
                route.failovers.load(Ordering::Relaxed)
            );
        }
        for (name, value) in [
            ("gmap_queue_depth", rt.queue_depth),
            ("gmap_jobs_in_flight", rt.jobs_in_flight),
            ("gmap_models_cached", rt.models_cached),
            ("gmap_cache_capacity", rt.cache_capacity),
            ("gmap_active_connections", rt.active_connections),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
        }
        if !rt.peer_states.is_empty() {
            out.push_str("# TYPE gmap_peer_up gauge\n");
            for p in &rt.peer_states {
                let _ = writeln!(
                    out,
                    "gmap_peer_up{{peer=\"{}\"}} {}",
                    p.peer,
                    u8::from(p.up)
                );
            }
        }
        out
    }
}

/// Extracts the value of a metric line from a rendered exposition, for
/// tests and the CLI client.
pub fn scrape(rendered: &str, metric: &str) -> Option<f64> {
    rendered.lines().find_map(|line| {
        if line.starts_with('#') {
            return None;
        }
        line.strip_prefix(metric)?
            .strip_prefix(' ')?
            .trim()
            .parse()
            .ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_resolves_to_its_own_endpoint() {
        for (i, row) in TABLE.iter().enumerate() {
            assert_eq!(row.endpoint as usize, i, "table is in enum order");
            assert_eq!(row.endpoint.row().path, row.path);
            let with_query = format!("{}?probe=1", row.path);
            for target in [row.path, with_query.as_str()] {
                assert_eq!(Endpoint::resolve(row.method, target), Ok(row.endpoint));
                assert_eq!(Endpoint::at(target), Some(row.endpoint));
            }
            // The path under the other method is a 404 that names the
            // whole target; under any further method a 405.
            let other = if row.method == "GET" { "POST" } else { "GET" };
            let refused = Endpoint::resolve(other, &with_query).expect_err("wrong method");
            assert_eq!(
                refused,
                ApiError::new(404, format!("no such route {with_query}"))
            );
            let refused = Endpoint::resolve("DELETE", row.path).expect_err("wrong method");
            assert_eq!(refused, ApiError::new(405, "method DELETE not supported"));
        }
        assert_eq!(Endpoint::at("/nope"), None);
        assert_eq!(Endpoint::at("/v1/profile/x"), None);
        assert_eq!(
            Endpoint::resolve("GET", "/nope").map_err(|e| e.status),
            Err(404)
        );
        assert_eq!(
            Endpoint::resolve("PUT", "/nope").map_err(|e| e.status),
            Err(405)
        );
    }

    #[test]
    fn labels_render_in_a_fixed_order_and_every_row_has_one() {
        let m = Metrics::new();
        for row in &TABLE {
            m.record_request(Some(row.endpoint), Duration::from_millis(1), 200);
        }
        m.record_request(None, Duration::from_millis(1), 404);
        let text = m.render(RuntimeStats::default());
        let rendered: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("gmap_requests_total{"))
            .collect();
        // Five rows count under a label of their own; the other three
        // and the unmatched request share `other`.
        let want = [
            "gmap_requests_total{endpoint=\"profile\"} 1",
            "gmap_requests_total{endpoint=\"clone\"} 1",
            "gmap_requests_total{endpoint=\"evaluate\"} 1",
            "gmap_requests_total{endpoint=\"analyze\"} 1",
            "gmap_requests_total{endpoint=\"ingest\"} 1",
            "gmap_requests_total{endpoint=\"other\"} 4",
        ];
        assert_eq!(rendered, want);
        assert_eq!(
            scrape(&text, "gmap_request_errors_total{endpoint=\"other\"}"),
            Some(1.0)
        );
    }

    /// Endpoint paths are written down once: no `"/v1/…"`, `"/healthz"`
    /// or `"/metrics"` literal in the non-test code of this crate outside
    /// this file, and exactly one per row in it.
    #[test]
    fn endpoint_paths_are_spelled_only_in_the_table() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut spelled = Vec::new();
        for entry in std::fs::read_dir(&src).expect("src readable") {
            let path = entry.expect("entry").path();
            let text = std::fs::read_to_string(&path).expect("source readable");
            let code = text.split("#[cfg(test)]").next().unwrap_or("");
            for (n, line) in code.lines().enumerate() {
                let line = line.trim_start();
                let literals = ["\"/v1/", "\"/healthz", "\"/metrics"]
                    .iter()
                    .map(|lit| line.matches(lit).count())
                    .sum::<usize>();
                if !line.starts_with("//") && literals > 0 {
                    let file = path
                        .file_name()
                        .expect("file")
                        .to_string_lossy()
                        .into_owned();
                    spelled.extend(std::iter::repeat_n((file, n + 1), literals));
                }
            }
        }
        let elsewhere: Vec<_> = spelled.iter().filter(|(f, _)| f != "metrics.rs").collect();
        assert!(
            elsewhere.is_empty(),
            "path literals outside the table: {elsewhere:?}"
        );
        assert_eq!(
            spelled.len(),
            TABLE.len(),
            "one literal per row: {spelled:?}"
        );
    }

    #[test]
    fn renders_counters_and_gauges() {
        let m = Metrics::new();
        m.record_request(Some(Endpoint::Profile), Duration::from_millis(3), 200);
        m.record_request(Some(Endpoint::Profile), Duration::from_millis(5), 400);
        m.cache_hits.fetch_add(2, Ordering::Relaxed);
        m.rejected_full.fetch_add(7, Ordering::Relaxed);
        m.analyze_rejects.fetch_add(5, Ordering::Relaxed);
        m.jobs_shed.fetch_add(3, Ordering::Relaxed);
        m.ingest_bytes.fetch_add(4096, Ordering::Relaxed);
        m.ingest_streams.fetch_add(2, Ordering::Relaxed);
        m.accept_errors.fetch_add(13, Ordering::Relaxed);
        m.record_request(Some(Endpoint::Ingest), Duration::from_millis(2), 200);
        let text = m.render(RuntimeStats {
            queue_depth: 4,
            jobs_in_flight: 1,
            models_cached: 3,
            cache_capacity: 16,
            active_connections: 9,
            cache_evictions: 6,
            cache_quarantined: 2,
            worker_panics: 1,
            faults_injected: 8,
            peer_ejections: 11,
            replication_sent: 12,
            hints_replayed: 13,
            ..RuntimeStats::default()
        });
        assert!(text.contains("gmap_requests_total{endpoint=\"profile\"} 2"));
        assert!(text.contains("gmap_request_errors_total{endpoint=\"profile\"} 1"));
        assert!(text.contains("gmap_request_latency_seconds_count{endpoint=\"profile\"} 2"));
        assert_eq!(scrape(&text, "gmap_cache_hits_total"), Some(2.0));
        assert_eq!(scrape(&text, "gmap_queue_rejected_total"), Some(7.0));
        assert_eq!(scrape(&text, "gmap_analyze_rejects_total"), Some(5.0));
        assert_eq!(scrape(&text, "gmap_jobs_shed_total"), Some(3.0));
        assert!(text.contains("gmap_requests_total{endpoint=\"ingest\"} 1"));
        assert_eq!(scrape(&text, "gmap_ingest_bytes_total"), Some(4096.0));
        assert_eq!(scrape(&text, "gmap_ingest_streams_total"), Some(2.0));
        assert_eq!(scrape(&text, "gmap_accept_errors_total"), Some(13.0));
        assert_eq!(scrape(&text, "gmap_cache_evictions_total"), Some(6.0));
        assert_eq!(scrape(&text, "gmap_cache_quarantined_total"), Some(2.0));
        assert_eq!(scrape(&text, "gmap_worker_panics_total"), Some(1.0));
        assert_eq!(scrape(&text, "gmap_faults_injected_total"), Some(8.0));
        assert_eq!(scrape(&text, "gmap_queue_depth"), Some(4.0));
        assert_eq!(scrape(&text, "gmap_jobs_in_flight"), Some(1.0));
        assert_eq!(scrape(&text, "gmap_models_cached"), Some(3.0));
        assert_eq!(scrape(&text, "gmap_cache_capacity"), Some(16.0));
        assert_eq!(scrape(&text, "gmap_active_connections"), Some(9.0));
        assert_eq!(scrape(&text, "gmap_peer_ejections_total"), Some(11.0));
        assert_eq!(scrape(&text, "gmap_replication_total"), Some(12.0));
        assert_eq!(scrape(&text, "gmap_hints_replayed_total"), Some(13.0));
    }

    #[test]
    fn peer_gauges_render_when_a_fleet_is_tracked() {
        let m = Metrics::new();
        let rt = RuntimeStats {
            peer_states: vec![
                PeerStatus {
                    peer: "127.0.0.1:9001".into(),
                    up: true,
                },
                PeerStatus {
                    peer: "127.0.0.1:9002".into(),
                    up: false,
                },
            ],
            ..RuntimeStats::default()
        };
        let text = m.render(rt);
        assert!(!text.contains("draining"), "{text}");
        assert_eq!(
            scrape(&text, "gmap_peer_up{peer=\"127.0.0.1:9001\"}"),
            Some(1.0)
        );
        assert_eq!(
            scrape(&text, "gmap_peer_up{peer=\"127.0.0.1:9002\"}"),
            Some(0.0)
        );
        // Outside fleet mode the per-peer families are absent.
        let plain = Metrics::new().render(RuntimeStats::default());
        assert!(!plain.contains("gmap_peer_up"));
    }

    #[test]
    fn quantiles_appear_once_latency_is_recorded() {
        let m = Metrics::new();
        let empty = m.render(RuntimeStats::default());
        assert!(!empty.contains("quantile"));
        m.record_request(Some(Endpoint::Evaluate), Duration::from_micros(800), 200);
        let text = m.render(RuntimeStats::default());
        assert!(
            text.contains("gmap_request_latency_seconds{endpoint=\"evaluate\",quantile=\"0.5\"}")
        );
    }

    #[test]
    fn route_counters_render_per_peer() {
        let peers = vec!["127.0.0.1:9001".to_string(), "127.0.0.1:9002".to_string()];
        let m = Metrics::with_route(&peers);
        let route = m.route.as_ref().expect("router registry");
        route.record_forward("127.0.0.1:9001");
        route.record_forward("127.0.0.1:9001");
        route.record_forward("127.0.0.1:9002");
        route.record_forward("10.9.9.9:1"); // unknown peer: ignored
        route.failovers.fetch_add(1, Ordering::Relaxed);
        assert_eq!(route.forwards_total(), 3);
        let text = m.render(RuntimeStats::default());
        assert_eq!(
            scrape(&text, "gmap_route_forwards_total{peer=\"127.0.0.1:9001\"}"),
            Some(2.0)
        );
        assert_eq!(
            scrape(&text, "gmap_route_forwards_total{peer=\"127.0.0.1:9002\"}"),
            Some(1.0)
        );
        assert_eq!(scrape(&text, "gmap_route_failovers_total"), Some(1.0));
        // Outside router mode the family is absent entirely.
        let plain = Metrics::new().render(RuntimeStats::default());
        assert!(!plain.contains("gmap_route_"));
    }

    #[test]
    fn scrape_ignores_prefixed_names() {
        // `gmap_cache_hits_total` must not match `gmap_cache_hits_total_foo`.
        let text = "gmap_cache_hits_total_foo 9\ngmap_cache_hits_total 3\n";
        assert_eq!(scrape(text, "gmap_cache_hits_total"), Some(3.0));
    }
}
