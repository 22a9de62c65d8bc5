//! Wire types for the `gmap serve` JSON API.
//!
//! Every request/response body is a plain struct rendered through the
//! workspace serde stack, so the canonical compact encoding produced by
//! [`gmap_core::cachekey::canonical_json`] is also the exact byte
//! sequence the service emits. Response *statistics* are deterministic
//! functions of the request and the model — the integration tests compare
//! them byte-for-byte against direct library calls.

use gmap_analyze::StaticReport;
use gmap_core::application::AppProfile;
use gmap_gpu::kernel::KernelDesc;
use gmap_gpu::workloads::Scale;
use gmap_memsim::ReplacementPolicy;
use serde::{Deserialize, Serialize};

/// `POST /v1/profile` body: profile a named workload — or an inline
/// kernel spec — into an application model.
///
/// Exactly one of `workload` and `spec` must be present. A request the
/// cache cannot answer passes the static-analysis admission gate before
/// it is profiled: correctness errors are answered 422.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileRequest {
    /// Workload name from [`gmap_gpu::workloads::NAMES`].
    pub workload: Option<String>,
    /// Workload scale: `"tiny"`, `"small"`, or `"default"` (the default).
    /// Only meaningful with `workload`.
    pub scale: Option<String>,
    /// An inline kernel spec, profiled as a single-kernel application.
    pub spec: Option<KernelDesc>,
}

/// `POST /v1/analyze` body: statically analyze a named workload or an
/// inline kernel spec without profiling it. Answered on the connection
/// thread — the analyzer never executes the kernel, so it needs no
/// worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzeRequest {
    /// Workload name from [`gmap_gpu::workloads::NAMES`].
    pub workload: Option<String>,
    /// Workload scale (with `workload` only).
    pub scale: Option<String>,
    /// An inline kernel spec.
    pub spec: Option<KernelDesc>,
}

/// `POST /v1/analyze` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzeResponse {
    /// Kernel name.
    pub name: String,
    /// Whether the admission gate would accept this spec (no error
    /// findings; warnings do not block admission).
    pub admissible: bool,
    /// Number of error findings.
    pub errors: usize,
    /// Number of warning findings.
    pub warnings: usize,
    /// The full static report (sites + findings).
    pub report: StaticReport,
}

/// Deterministic summary statistics of a profiled application model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileStats {
    /// Application name.
    pub name: String,
    /// Number of profiled kernels.
    pub kernels: usize,
    /// Static memory-instruction slots per kernel.
    pub slots: Vec<usize>,
    /// Content hash of the model itself (not of the workload spec).
    pub content_key: String,
}

/// The summary of `model`, whose canonical JSON the caller already holds
/// as `json`: the content key is a hash of that string, not of a second
/// rendering.
pub fn profile_stats(model: &AppProfile, json: &str) -> ProfileStats {
    ProfileStats {
        name: model.name.clone(),
        kernels: model.kernels.len(),
        slots: model.kernels.iter().map(|k| k.num_slots()).collect(),
        content_key: gmap_core::cachekey::content_key(json),
    }
}

/// `POST /v1/profile` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileResponse {
    /// Content-addressed model id (hash of the canonical workload spec).
    pub model_id: String,
    /// Whether the model was served from the cache.
    pub cached: bool,
    /// Deterministic model statistics.
    pub stats: ProfileStats,
}

/// Parsed query parameters of `POST /v1/ingest`.
///
/// Ingest carries the launch geometry in the query string because the
/// body *is* the raw trace (text or binary), streamed and never
/// materialized — there is no JSON envelope to put parameters in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestQuery {
    /// Workload name for the resulting model (default `"ingest"`).
    pub name: String,
    /// Blocks per grid.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
}

/// Parses the query string of an ingest request path
/// (`/v1/ingest?grid=2&block=64&name=wl`).
///
/// # Errors
///
/// 400 for missing/zero `grid` or `block`, unparseable values, or
/// unknown parameters.
pub fn parse_ingest_query(path: &str) -> Result<IngestQuery, ApiError> {
    let query = path.split_once('?').map_or("", |(_, q)| q);
    let mut name = None;
    let mut grid = None;
    let mut block = None;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| ApiError::bad_request(format!("bad query parameter {pair:?}")))?;
        let parse_u32 = |key: &str| {
            value.parse::<u32>().map_err(|e| {
                ApiError::bad_request(format!("bad value for {key:?}: {value:?}: {e}"))
            })
        };
        match key {
            "name" => name = Some(value.to_string()),
            "grid" => grid = Some(parse_u32("grid")?),
            "block" => block = Some(parse_u32("block")?),
            other => {
                return Err(ApiError::bad_request(format!(
                    "unknown query parameter {other:?} (expected grid, block, name)"
                )))
            }
        }
    }
    let grid =
        grid.ok_or_else(|| ApiError::bad_request("missing required query parameter \"grid\""))?;
    let block =
        block.ok_or_else(|| ApiError::bad_request("missing required query parameter \"block\""))?;
    if grid == 0 || block == 0 {
        return Err(ApiError::bad_request("grid and block must be positive"));
    }
    Ok(IngestQuery {
        name: name.unwrap_or_else(|| "ingest".into()),
        grid,
        block,
    })
}

/// `POST /v1/ingest` response: the profiled model plus the streaming
/// pass's classification report and counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestResponse {
    /// Content-addressed model id (hash of the resulting model itself —
    /// two traces producing identical models share an id).
    pub model_id: String,
    /// Deterministic model statistics (same shape as `/v1/profile`).
    pub stats: ProfileStats,
    /// Heat-map + per-PC classification report from the streaming pass.
    pub report: gmap_ingest::TraceReport,
    /// Ingest counters (bytes, entries, peak buffered entries, ...).
    pub ingest: gmap_ingest::IngestStats,
}

/// `POST /v1/clone` body: synthesize proxy streams from a cached model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloneRequest {
    /// Model id returned by `/v1/profile`.
    pub model_id: String,
    /// Miniaturization factor (default `1.0`): a value above 1 shrinks
    /// the clone, one below 1 grows its grid.
    pub factor: Option<f64>,
    /// Clone-generator seed (default [`DEFAULT_SEED`]).
    pub seed: Option<u64>,
}

/// Synthetic-trace statistics for one cloned kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelCloneStats {
    /// Kernel name.
    pub kernel: String,
    /// Number of generated warp streams.
    pub warps: usize,
    /// Coalesced memory instructions across all warps.
    pub accesses: u64,
    /// Read instructions.
    pub reads: u64,
    /// Write instructions.
    pub writes: u64,
    /// Cacheline transactions (post-coalescing).
    pub lines: u64,
    /// Threadblock barrier events.
    pub syncs: u64,
}

/// `POST /v1/clone` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloneResponse {
    /// Model id the clone was generated from.
    pub model_id: String,
    /// Effective miniaturization factor.
    pub factor: f64,
    /// Effective generator seed.
    pub seed: u64,
    /// Per-kernel synthetic trace statistics.
    pub kernels: Vec<KernelCloneStats>,
}

/// An L1 stride-prefetcher attachment for a grid point (fig6c-shaped
/// sweeps). Only meaningful on `"l1"` points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StridePoint {
    /// PC-indexed table entries (power of two, at most 4096).
    pub table: u32,
    /// Lines fetched per trigger (1–32).
    pub degree: u32,
    /// Lines ahead of the demand stride (default 1).
    pub distance: Option<u32>,
    /// Consecutive same-stride observations before firing (default 2).
    pub confidence: Option<u32>,
}

/// An L2 stream-prefetcher attachment for a grid point (fig6d-shaped
/// sweeps). Only meaningful on `"l2"` points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamPoint {
    /// Concurrently tracked streams (1–256, default 16).
    pub streams: Option<u32>,
    /// Lines a miss may deviate and still extend a stream (1–1024).
    pub window: u32,
    /// Lines fetched per stream hit (1–32).
    pub degree: u32,
}

/// One point of an evaluation grid: a cache configuration applied to the
/// baseline hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridPoint {
    /// Which level to reconfigure: `"l1"` (default) or `"l2"`.
    pub level: Option<String>,
    /// Capacity in KiB.
    pub size_kb: u64,
    /// Associativity (ways).
    pub assoc: u32,
    /// Line size in bytes (default 128).
    pub line: Option<u64>,
    /// Replacement policy: `"lru"` (default), `"fifo"`, `"plru"`, or
    /// `"random"`.
    pub policy: Option<String>,
    /// Optional L1 stride prefetcher (requires `level` = `"l1"`).
    pub stride_prefetch: Option<StridePoint>,
    /// Optional L2 stream prefetcher (requires `level` = `"l2"`).
    pub stream_prefetch: Option<StreamPoint>,
}

/// `POST /v1/evaluate` body: run a hierarchy-config grid against a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluateRequest {
    /// Model id returned by `/v1/profile`.
    pub model_id: String,
    /// Kernel index within the model (default 0).
    pub kernel: Option<usize>,
    /// Metric: `"l1_miss_pct"` (default) or `"l2_miss_pct"`.
    pub metric: Option<String>,
    /// Simulation + clone seed (default [`DEFAULT_SEED`]).
    pub seed: Option<u64>,
    /// The configuration grid (must be non-empty).
    pub grid: Vec<GridPoint>,
}

/// `POST /v1/evaluate` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluateResponse {
    /// Model id that was evaluated.
    pub model_id: String,
    /// Kernel index that was evaluated.
    pub kernel: usize,
    /// Metric name echoed back.
    pub metric: String,
    /// Whether the single-pass stack-distance engine handled the grid.
    pub single_pass: bool,
    /// Metric value per grid point, in request order.
    pub values: Vec<f64>,
}

/// `POST /v1/replicate` body: an internal fleet endpoint carrying one
/// content-addressed model from a peer. The receiver validates the id's
/// shape (32 hex chars, the only keys this fleet mints) and stores the
/// entry idempotently — entries are immutable, so racing pushes
/// converge byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicateRequest {
    /// Content-addressed model id the sender stored this model under.
    pub model_id: String,
    /// The full application model.
    pub model: AppProfile,
}

/// `POST /v1/replicate` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicateResponse {
    /// The model id echoed back.
    pub model_id: String,
    /// `true` when the push created a new local entry; `false` when the
    /// entry already existed (replication is idempotent).
    pub stored: bool,
}

/// Structured error body attached to every non-200 response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// HTTP status code, duplicated in the body for log scraping.
    pub status: u16,
    /// Human-readable cause.
    pub error: String,
}

/// Default seed used when a request omits one.
pub const DEFAULT_SEED: u64 = 42;

/// An API-level failure: an HTTP status plus a message safe to return to
/// the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status to respond with.
    pub status: u16,
    /// Message placed in the [`ErrorBody`].
    pub message: String,
}

impl ApiError {
    /// Creates an error with the given status and message.
    pub fn new(status: u16, message: impl Into<String>) -> Self {
        ApiError {
            status,
            message: message.into(),
        }
    }

    /// A 400 Bad Request.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError::new(400, message)
    }

    /// Renders the canonical JSON error body for this error.
    pub fn body(&self) -> String {
        gmap_core::cachekey::canonical_json(&ErrorBody {
            status: self.status,
            error: self.message.clone(),
        })
    }
}

/// Parses an optional scale string (`None` means [`Scale::Default`]).
///
/// # Errors
///
/// Returns a 400 [`ApiError`] for unknown scale names.
pub fn parse_scale(scale: Option<&str>) -> Result<Scale, ApiError> {
    scale.map_or(Ok(Scale::Default), |name| {
        Scale::from_name(name).ok_or_else(|| {
            ApiError::bad_request(format!(
                "unknown scale {name:?} (expected tiny, small, or default)"
            ))
        })
    })
}

/// Canonical string for a scale, used to canonicalize workload specs
/// before hashing.
pub fn scale_name(scale: Scale) -> &'static str {
    scale.name()
}

/// Parses an optional replacement-policy string (`None` means LRU).
///
/// # Errors
///
/// Returns a 400 [`ApiError`] for unknown policy names.
pub fn parse_policy(policy: Option<&str>) -> Result<ReplacementPolicy, ApiError> {
    match policy {
        None | Some("lru") => Ok(ReplacementPolicy::Lru),
        Some("fifo") => Ok(ReplacementPolicy::Fifo),
        Some("plru") => Ok(ReplacementPolicy::PseudoLru),
        Some("random") => Ok(ReplacementPolicy::Random),
        Some(other) => Err(ApiError::bad_request(format!(
            "unknown replacement policy {other:?} (expected lru, fifo, plru, or random)"
        ))),
    }
}

/// Parses an optional metric string (`None` means L1 miss percent).
///
/// # Errors
///
/// Returns a 400 [`ApiError`] for unknown metric names.
pub fn parse_metric(metric: Option<&str>) -> Result<gmap_bench::Metric, ApiError> {
    match metric {
        None | Some("l1_miss_pct") => Ok(gmap_bench::Metric::L1MissPct),
        Some("l2_miss_pct") => Ok(gmap_bench::Metric::L2MissPct),
        Some(other) => Err(ApiError::bad_request(format!(
            "unknown metric {other:?} (expected l1_miss_pct or l2_miss_pct)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_with_optional_fields() {
        let full: EvaluateRequest = serde_json::from_str(
            r#"{"model_id":"abc","kernel":1,"metric":"l2_miss_pct","seed":7,
                "grid":[{"level":"l2","size_kb":256,"assoc":8,"line":64,"policy":"fifo"}]}"#,
        )
        .expect("full request parses");
        assert_eq!(full.kernel, Some(1));
        assert_eq!(full.grid[0].policy.as_deref(), Some("fifo"));

        let minimal: EvaluateRequest =
            serde_json::from_str(r#"{"model_id":"abc","grid":[{"size_kb":16,"assoc":4}]}"#)
                .expect("minimal request parses");
        assert_eq!(minimal.kernel, None);
        assert_eq!(minimal.grid[0].line, None);
        assert_eq!(minimal.grid[0].policy, None);
        assert_eq!(minimal.grid[0].stride_prefetch, None);
        assert_eq!(minimal.grid[0].stream_prefetch, None);

        let prefetched: EvaluateRequest = serde_json::from_str(
            r#"{"model_id":"abc","grid":[
                {"size_kb":16,"assoc":4,
                 "stride_prefetch":{"table":64,"degree":2}},
                {"level":"l2","size_kb":512,"assoc":8,
                 "stream_prefetch":{"window":16,"degree":4}}]}"#,
        )
        .expect("prefetcher points parse");
        let stride = prefetched.grid[0]
            .stride_prefetch
            .as_ref()
            .expect("stride point");
        assert_eq!((stride.table, stride.degree), (64, 2));
        assert_eq!(stride.distance, None, "distance defaults downstream");
        let stream = prefetched.grid[1]
            .stream_prefetch
            .as_ref()
            .expect("stream point");
        assert_eq!((stream.window, stream.degree), (16, 4));
        assert_eq!(stream.streams, None, "stream count defaults downstream");
    }

    #[test]
    fn parsers_accept_known_names_and_reject_unknown() {
        assert_eq!(parse_scale(None).expect("default"), Scale::Default);
        assert_eq!(parse_scale(Some("tiny")).expect("tiny"), Scale::Tiny);
        assert_eq!(parse_scale(Some("bogus")).expect_err("bad").status, 400);
        assert_eq!(
            parse_policy(Some("fifo")).expect("fifo"),
            ReplacementPolicy::Fifo
        );
        assert_eq!(parse_policy(Some("mru")).expect_err("bad").status, 400);
        assert_eq!(
            parse_metric(Some("l2_miss_pct")).expect("l2"),
            gmap_bench::Metric::L2MissPct
        );
        assert_eq!(parse_metric(Some("ipc")).expect_err("bad").status, 400);
    }

    #[test]
    fn ingest_query_parses_and_validates() {
        let q = parse_ingest_query("/v1/ingest?grid=2&block=64&name=wl").expect("full query");
        assert_eq!(
            q,
            IngestQuery {
                name: "wl".into(),
                grid: 2,
                block: 64
            }
        );
        let q = parse_ingest_query("/v1/ingest?grid=1&block=32").expect("name defaults");
        assert_eq!(q.name, "ingest");
        for bad in [
            "/v1/ingest",                         // no query at all
            "/v1/ingest?grid=2",                  // missing block
            "/v1/ingest?grid=0&block=32",         // zero grid
            "/v1/ingest?grid=two&block=32",       // unparseable
            "/v1/ingest?grid=1&block=32&foo=bar", // unknown parameter
            "/v1/ingest?grid",                    // no '='
        ] {
            assert_eq!(
                parse_ingest_query(bad).expect_err("rejected").status,
                400,
                "query {bad:?} must be a 400"
            );
        }
    }

    #[test]
    fn a_reply_with_the_retired_fidelity_member_still_parses() {
        let new = r#"{"model_id":"3bd6897190c15dd3fb6f5b7611457093","cached":false,"stats":{"name":"wl","kernels":1,"slots":[1],"content_key":"3bd6897190c15dd3fb6f5b7611457093"}}"#;
        let old = new.replace(r#""slots":[1],"#, r#""slots":[1],"fidelity":["High"],"#);
        let parsed: ProfileResponse = serde_json::from_str(&old).expect("an old reply parses");
        assert_eq!(
            parsed,
            serde_json::from_str::<ProfileResponse>(new).expect("new reply")
        );
        assert_eq!(gmap_core::cachekey::canonical_json(&parsed), new);
    }

    #[test]
    fn error_body_is_canonical_json() {
        let e = ApiError::bad_request("nope");
        assert_eq!(e.body(), r#"{"status":400,"error":"nope"}"#);
    }
}
