//! Service metrics registry and the `/metrics` text rendering.
//!
//! Counters are lock-free atomics; latency distributions reuse the
//! log-bucketed [`LatencyHistogram`] from `gmap-trace`, guarded by a
//! mutex (recording is one bucket increment — contention is negligible
//! next to the work being measured). The output format follows the
//! Prometheus text exposition conventions so the endpoint is scrapable,
//! but no client library is involved.

use crate::health::PeerStatus;
use gmap_trace::LatencyHistogram;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The service endpoints that report per-endpoint metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/profile`.
    Profile,
    /// `POST /v1/clone`.
    Clone,
    /// `POST /v1/evaluate`.
    Evaluate,
    /// `POST /v1/analyze` (answered on the connection thread).
    Analyze,
    /// `POST /v1/ingest` (streaming trace ingestion).
    Ingest,
    /// Everything else (`/healthz`, `/metrics`, unknown routes).
    Other,
}

impl Endpoint {
    fn label(self) -> &'static str {
        match self {
            Endpoint::Profile => "profile",
            Endpoint::Clone => "clone",
            Endpoint::Evaluate => "evaluate",
            Endpoint::Analyze => "analyze",
            Endpoint::Ingest => "ingest",
            Endpoint::Other => "other",
        }
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

    /// The forward count for one peer (tests and assertions).
    pub fn forwards_to(&self, peer: &str) -> u64 {
        self.forwards
            .iter()
            .find(|(p, _)| p == peer)
            .map_or(0, |(_, c)| c.load(Ordering::Relaxed))
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
    profile: EndpointStats,
    clone_op: EndpointStats,
    evaluate: EndpointStats,
    analyze: EndpointStats,
    ingest: EndpointStats,
    other: EndpointStats,
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
    /// (before ever entering the job queue).
    pub analyze_rejects: AtomicU64,
    /// Race findings (proven or potential, any severity) surfaced by the
    /// barrier-phase detector at the analyze and profile gates.
    pub analyze_races: AtomicU64,
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
    /// Peer circuit breakers opened (Closed/HalfOpen → Open edges).
    pub peer_ejections: u64,
    /// Peer circuit breakers closed again after ejection.
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
    /// Whether this replica is draining (gauge `gmap_draining`).
    pub draining: bool,
    /// Per-peer breaker/drain view (`gmap_peer_up`,
    /// `gmap_peer_draining` gauges); empty outside fleet mode.
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

    fn endpoint(&self, which: Endpoint) -> &EndpointStats {
        match which {
            Endpoint::Profile => &self.profile,
            Endpoint::Clone => &self.clone_op,
            Endpoint::Evaluate => &self.evaluate,
            Endpoint::Analyze => &self.analyze,
            Endpoint::Ingest => &self.ingest,
            Endpoint::Other => &self.other,
        }
    }

    /// Records one finished request.
    pub fn record_request(&self, which: Endpoint, elapsed: Duration, status: u16) {
        self.endpoint(which).record(elapsed, status);
    }

    /// Renders the Prometheus-style text exposition. Gauges and
    /// externally-owned counters (queue state, cache occupancy, panic and
    /// fault totals) are sampled by the caller into [`RuntimeStats`].
    pub fn render(&self, rt: RuntimeStats) -> String {
        let mut out = String::with_capacity(2048);
        let endpoints = [
            Endpoint::Profile,
            Endpoint::Clone,
            Endpoint::Evaluate,
            Endpoint::Analyze,
            Endpoint::Ingest,
            Endpoint::Other,
        ];
        out.push_str("# TYPE gmap_requests_total counter\n");
        for e in endpoints {
            let _ = writeln!(
                out,
                "gmap_requests_total{{endpoint=\"{}\"}} {}",
                e.label(),
                self.endpoint(e).requests.load(Ordering::Relaxed)
            );
        }
        out.push_str("# TYPE gmap_request_errors_total counter\n");
        for e in endpoints {
            let _ = writeln!(
                out,
                "gmap_request_errors_total{{endpoint=\"{}\"}} {}",
                e.label(),
                self.endpoint(e).errors.load(Ordering::Relaxed)
            );
        }
        out.push_str("# TYPE gmap_request_latency_seconds summary\n");
        for e in endpoints {
            let hist = self
                .endpoint(e)
                .latency
                .lock()
                .expect("latency lock poisoned");
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
                    "gmap_request_latency_seconds{{endpoint=\"{}\",quantile=\"{}\"}} {:.9}",
                    e.label(),
                    q,
                    latency.as_secs_f64()
                );
            }
            let _ = writeln!(
                out,
                "gmap_request_latency_seconds_count{{endpoint=\"{}\"}} {}",
                e.label(),
                hist.count()
            );
        }
        for (name, value) in [
            (
                "gmap_cache_hits_total",
                self.cache_hits.load(Ordering::Relaxed),
            ),
            (
                "gmap_cache_misses_total",
                self.cache_misses.load(Ordering::Relaxed),
            ),
            (
                "gmap_queue_rejected_total",
                self.rejected_full.load(Ordering::Relaxed),
            ),
            (
                "gmap_shutdown_rejected_total",
                self.rejected_shutdown.load(Ordering::Relaxed),
            ),
            (
                "gmap_deadline_timeouts_total",
                self.deadline_timeouts.load(Ordering::Relaxed),
            ),
            (
                "gmap_analyze_rejects_total",
                self.analyze_rejects.load(Ordering::Relaxed),
            ),
            (
                "gmap_analyze_races_total",
                self.analyze_races.load(Ordering::Relaxed),
            ),
            (
                "gmap_jobs_shed_total",
                self.jobs_shed.load(Ordering::Relaxed),
            ),
            (
                "gmap_ingest_bytes_total",
                self.ingest_bytes.load(Ordering::Relaxed),
            ),
            (
                "gmap_ingest_streams_total",
                self.ingest_streams.load(Ordering::Relaxed),
            ),
            (
                "gmap_accept_errors_total",
                self.accept_errors.load(Ordering::Relaxed),
            ),
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
            ("gmap_draining", usize::from(rt.draining)),
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
            out.push_str("# TYPE gmap_peer_draining gauge\n");
            for p in &rt.peer_states {
                let _ = writeln!(
                    out,
                    "gmap_peer_draining{{peer=\"{}\"}} {}",
                    p.peer,
                    u8::from(p.draining)
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
    fn renders_counters_and_gauges() {
        let m = Metrics::new();
        m.record_request(Endpoint::Profile, Duration::from_millis(3), 200);
        m.record_request(Endpoint::Profile, Duration::from_millis(5), 400);
        m.cache_hits.fetch_add(2, Ordering::Relaxed);
        m.rejected_full.fetch_add(7, Ordering::Relaxed);
        m.analyze_rejects.fetch_add(5, Ordering::Relaxed);
        m.analyze_races.fetch_add(4, Ordering::Relaxed);
        m.jobs_shed.fetch_add(3, Ordering::Relaxed);
        m.ingest_bytes.fetch_add(4096, Ordering::Relaxed);
        m.ingest_streams.fetch_add(2, Ordering::Relaxed);
        m.accept_errors.fetch_add(13, Ordering::Relaxed);
        m.record_request(Endpoint::Ingest, Duration::from_millis(2), 200);
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
        assert_eq!(scrape(&text, "gmap_analyze_races_total"), Some(4.0));
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
        assert_eq!(scrape(&text, "gmap_draining"), Some(0.0));
    }

    #[test]
    fn peer_gauges_render_when_a_fleet_is_tracked() {
        let m = Metrics::new();
        let rt = RuntimeStats {
            draining: true,
            peer_states: vec![
                PeerStatus {
                    peer: "127.0.0.1:9001".into(),
                    up: true,
                    draining: false,
                },
                PeerStatus {
                    peer: "127.0.0.1:9002".into(),
                    up: false,
                    draining: true,
                },
            ],
            ..RuntimeStats::default()
        };
        let text = m.render(rt);
        assert_eq!(scrape(&text, "gmap_draining"), Some(1.0));
        assert_eq!(
            scrape(&text, "gmap_peer_up{peer=\"127.0.0.1:9001\"}"),
            Some(1.0)
        );
        assert_eq!(
            scrape(&text, "gmap_peer_up{peer=\"127.0.0.1:9002\"}"),
            Some(0.0)
        );
        assert_eq!(
            scrape(&text, "gmap_peer_draining{peer=\"127.0.0.1:9002\"}"),
            Some(1.0)
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
        m.record_request(Endpoint::Evaluate, Duration::from_micros(800), 200);
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
        assert_eq!(route.forwards_to("127.0.0.1:9001"), 2);
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
