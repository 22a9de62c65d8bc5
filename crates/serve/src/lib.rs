//! `gmap-serve` — a concurrent model-cloning service layer over the
//! G-MAP pipeline.
//!
//! This crate wraps the profile → clone → evaluate pipeline in a small,
//! dependency-free HTTP/1.1 JSON service built directly on [`std::net`].
//! Its endpoints — profile, analyze, clone, evaluate, streaming ingest,
//! the fleet's replicate, `/healthz` and `/metrics` — are the
//! rows of one table, [`metrics::Endpoint`].
//!
//! Architecture (one module each):
//!
//! * [`http`] — keep-alive HTTP/1.1 framing with size limits and
//!   fine-grained error classification (idle vs mid-request timeouts);
//!   the head/body phases are split so `/v1/ingest` can stream chunked
//!   bodies without materializing them.
//! * [`api`] — wire types; bodies are canonical compact JSON.
//! * [`jobs`] — bounded job queue: full ⇒ 429, shutdown drains fully,
//!   panics contained and counted.
//! * [`cache`] — content-addressed model store, keyed by the hash of
//!   the canonical workload spec: bounded LRU memory tier + optional
//!   checksummed disk tier with corruption quarantine.
//! * [`metrics`] — the endpoint table, and the atomics +
//!   [`gmap_trace::LatencyHistogram`] registry labelled by it.
//! * [`handlers`] — endpoint logic with cooperative cancellation.
//! * [`server`] — accept loop, the one request spine, worker pool,
//!   deadlines, load shedding, graceful shutdown.
//! * [`client`] — the one outbound exchange (connect within the
//!   deadline budget, one request framer, read to EOF) behind `gmap
//!   client`, the tests and every peer-facing module, plus the one
//!   idempotent-only retry loop (backoff + jitter).
//! * [`faults`] — deterministic seeded fault injection for chaos tests.
//! * [`shard`] — consistent-hash ring over the FNV-128 content-key
//!   space (128 virtual nodes per replica, minimal remapping on
//!   membership change).
//! * [`router`] — the `--route` mode: forwards pipeline requests (and
//!   re-frames `/v1/ingest` streams) to the owning replica on the
//!   connection thread, propagating the remaining deadline budget and
//!   failing over to ring successors.
//! * [`health`] — [`health::Peers`]: the ring plus one count of
//!   consecutive failed exchanges per peer (down at 3, up again on any
//!   answer), owner of the one health-ordered successor walk and of the
//!   exchange that feeds the counts, and the active `/healthz` prober.
//!   The router, the replication worker and the prober all talk to
//!   peers through it.
//! * [`replicate`] — RF-way successor replication over
//!   `POST /v1/replicate` (one round of RF−1 pushes per store) and
//!   hinted handoff as the one recovery mechanism. A replica leaves the
//!   fleet by stopping: every entry it stored was pushed to the rest of
//!   its key's replica set when it was stored.
//!
//! ```no_run
//! let handle = gmap_serve::start(gmap_serve::ServeConfig::default())
//!     .expect("bind ephemeral port");
//! let addr = handle.addr().to_string();
//! let resp = gmap_serve::client::post_json(
//!     &addr,
//!     "/v1/profile",
//!     r#"{"workload":"kmeans","scale":"tiny"}"#,
//! )
//! .expect("server reachable");
//! assert!(resp.is_ok());
//! handle.shutdown();
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
pub mod faults;
pub mod handlers;
pub mod health;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod replicate;
pub mod router;
pub mod server;
pub mod shard;

pub use server::{start, ServeConfig, ServerHandle, ServerState};
