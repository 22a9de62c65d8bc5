//! Endpoint handlers: pure functions from a parsed request (plus server
//! state) to a canonical JSON response body.
//!
//! Handlers run on queue workers, never on connection threads. Each takes
//! a cooperative cancellation token — set when the requester's deadline
//! expires — and checks it between coarse units of work so an abandoned
//! request stops burning a worker.

use crate::api::{
    self, AnalyzeRequest, AnalyzeResponse, ApiError, CloneRequest, CloneResponse, EvaluateRequest,
    EvaluateResponse, GridPoint, IngestResponse, KernelCloneStats, ProfileRequest, ProfileResponse,
    ReplicateRequest, ReplicateResponse,
};
use crate::cache::{ModelStore, StoredModel};
use crate::metrics::Metrics;
use gmap_analyze::analyze_kernel;
use gmap_core::cachekey;
use gmap_core::generate::generate_streams;
use gmap_core::profiler::ProfilerConfig;
use gmap_core::{miniaturize, AppProfile, SimtConfig};
use gmap_gpu::app::Application;
use gmap_gpu::kernel::KernelDesc;
use gmap_gpu::schedule::{WarpStream, WarpStreamEvent};
use gmap_gpu::workloads::{self, Scale};
use gmap_memsim::prefetch::{StreamPrefetcherConfig, StridePrefetcherConfig};
use gmap_memsim::CacheConfig;
use gmap_trace::AccessKind;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The canonical workload spec whose content hash is the model id.
#[derive(Serialize)]
struct CanonicalSpec {
    workload: String,
    scale: String,
}

/// The model id for a (workload, scale) spec: the content hash of its
/// canonical JSON.
pub fn model_id_for(workload: &str, scale: &str) -> String {
    cachekey::key_of(&CanonicalSpec {
        workload: workload.to_string(),
        scale: scale.to_string(),
    })
}

/// What a request names, before anything is built: a built-in workload
/// at a scale, or an inline spec.
#[derive(Clone, Copy)]
enum Named<'a> {
    Builtin(&'a str, Scale),
    Inline(&'a KernelDesc),
}

impl<'a> Named<'a> {
    /// # Errors
    ///
    /// 400 when neither or both of `workload`/`spec` are given, or the
    /// scale or workload name is unknown.
    fn of(
        workload: Option<&'a str>,
        scale: Option<&str>,
        spec: Option<&'a KernelDesc>,
    ) -> Result<Self, ApiError> {
        match (workload, spec) {
            (Some(_), Some(_)) => Err(ApiError::bad_request(
                "give either \"workload\" or \"spec\", not both",
            )),
            (None, None) => Err(ApiError::bad_request(
                "missing \"workload\" (a built-in name) or \"spec\" (an inline kernel)",
            )),
            (Some(name), None) => {
                let scale = api::parse_scale(scale)?;
                if !workloads::NAMES.contains(&name) {
                    return Err(ApiError::bad_request(format!(
                        "unknown workload {name:?} (known: {})",
                        workloads::NAMES.join(", ")
                    )));
                }
                Ok(Named::Builtin(name, scale))
            }
            (None, Some(spec)) => Ok(Named::Inline(spec)),
        }
    }

    /// What a profile request names.
    ///
    /// # Errors
    ///
    /// 400 as [`Named::of`], or for a structurally invalid inline spec.
    fn of_profile(req: &'a ProfileRequest) -> Result<Self, ApiError> {
        let named = Named::of(
            req.workload.as_deref(),
            req.scale.as_deref(),
            req.spec.as_ref(),
        )?;
        if let Named::Inline(spec) = named {
            spec.validate()
                .map_err(|e| ApiError::bad_request(format!("invalid kernel spec: {e}")))?;
        }
        Ok(named)
    }

    /// The id the profile is cached under. A builtin's needs its names,
    /// not its kernel; an inline spec is content-addressed by its own
    /// canonical JSON, so identical specs share a cache entry.
    fn model_id(self) -> String {
        match self {
            Named::Builtin(name, scale) => model_id_for(name, scale.name()),
            Named::Inline(spec) => cachekey::key_of(spec),
        }
    }

    /// Builds the kernel (an inline spec is cloned as it came).
    fn kernel(self) -> KernelDesc {
        match self {
            Named::Builtin(name, scale) => {
                workloads::by_name(name, scale).expect("name checked against NAMES")
            }
            Named::Inline(spec) => spec.clone(),
        }
    }
}

/// The model id a profile request reads or creates, derived without
/// building anything — what a router shards on.
///
/// # Errors
///
/// 400, as [`profile`] would answer.
pub fn request_model_id(req: &ProfileRequest) -> Result<String, ApiError> {
    Ok(Named::of_profile(req)?.model_id())
}

/// The static report [`profile`] gates a miss on.
///
/// # Errors
///
/// 400 from kernel resolution only; [`profile`] turns findings into 422.
pub fn admission_report(req: &ProfileRequest) -> Result<gmap_analyze::StaticReport, ApiError> {
    Ok(analyze_kernel(&Named::of_profile(req)?.kernel()))
}

/// Race findings (proven or potential, any severity) in a report, for
/// the `gmap_analyze_races_total` counter.
pub fn race_finding_count(report: &gmap_analyze::StaticReport) -> u64 {
    use gmap_analyze::FindingKind;
    report
        .findings
        .iter()
        .filter(|f| {
            matches!(
                f.kind,
                FindingKind::RaceWriteWrite
                    | FindingKind::RaceReadWrite
                    | FindingKind::RacePotential
            )
        })
        .count() as u64
}

/// `POST /v1/analyze`: run the static analyzer and return the full
/// report. Pure computation over the spec — no execution, no queue.
/// Unlike profiling, a structurally invalid inline spec is *analyzed*
/// (yielding a `spec-error` finding), not rejected with 400 — the
/// endpoint exists to explain what is wrong with a spec.
///
/// # Errors
///
/// 400 for unresolvable requests (unknown workload, both or neither
/// source given).
pub fn analyze(req: &AnalyzeRequest) -> Result<AnalyzeResponse, ApiError> {
    let kernel = Named::of(
        req.workload.as_deref(),
        req.scale.as_deref(),
        req.spec.as_ref(),
    )?
    .kernel();
    let report = analyze_kernel(&kernel);
    Ok(AnalyzeResponse {
        name: kernel.name.clone(),
        admissible: !report.has_errors(),
        errors: report.errors().count(),
        warnings: report.warnings().count(),
        report,
    })
}

fn check_cancel(cancel: &AtomicBool) -> Result<(), ApiError> {
    if cancel.load(Ordering::Relaxed) {
        Err(ApiError::new(504, "request cancelled by deadline"))
    } else {
        Ok(())
    }
}

/// `POST /v1/profile`, the whole decision in one pass: the request's
/// identity, then the cache — a hit clones the stored summary and builds,
/// analyzes, serializes and hashes nothing. Only a miss builds the
/// kernel (once), analyzes it, counts its race findings, passes the
/// static-analysis gate, profiles and stores.
///
/// # Errors
///
/// 400 for unknown workloads or scales or invalid specs, 422 when the
/// analyzer finds correctness errors, 504 on cancellation.
pub fn profile(
    store: &ModelStore,
    metrics: &Metrics,
    req: &ProfileRequest,
    cancel: &AtomicBool,
) -> Result<ProfileResponse, ApiError> {
    let named = Named::of_profile(req)?;
    let model_id = named.model_id();
    if let Some(hit) = store.get(&model_id) {
        metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        return Ok(ProfileResponse {
            model_id,
            cached: true,
            stats: hit.stats.clone(),
        });
    }
    check_cancel(cancel)?;
    let kernel = named.kernel();
    let report = analyze_kernel(&kernel);
    let races = race_finding_count(&report);
    metrics.analyze_races.fetch_add(races, Ordering::Relaxed);
    if report.has_errors() {
        // The gate: correctness errors (proven races in barrier-phased
        // kernels included) are refused before anything executes.
        metrics.analyze_rejects.fetch_add(1, Ordering::Relaxed);
        let findings: Vec<&str> = report.errors().map(|f| f.message.as_str()).collect();
        let message = format!("spec rejected by static analysis: {}", findings.join("; "));
        return Err(ApiError::new(422, message));
    }
    // A miss is a profile that was computed.
    metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
    // (A builtin's kernel carries the workload's name.)
    let app = Application::single(kernel);
    let model = gmap_core::profile_application(&app, &ProfilerConfig::default());
    check_cancel(cancel)?;
    let stored = store.insert(&model_id, model);
    Ok(ProfileResponse {
        model_id,
        cached: false,
        stats: stored.stats.clone(),
    })
}

/// `POST /v1/ingest` finalization: the connection thread has already
/// streamed the whole trace body into `ing`; this runs on a worker and
/// does the heavy lifting — warp-tail drain, profile construction, and
/// report assembly — then stores the model content-addressed by the hash
/// of its one rendering (two traces producing identical models share a
/// cache entry).
///
/// # Errors
///
/// 400 when the trace yields no in-geometry accesses, 504 on
/// cancellation.
pub fn ingest_finalize(
    store: &ModelStore,
    ing: gmap_ingest::Ingestor,
    cancel: &AtomicBool,
) -> Result<IngestResponse, ApiError> {
    check_cancel(cancel)?;
    let outcome = ing
        .finish()
        .map_err(|e| ApiError::bad_request(format!("trace rejected: {e}")))?;
    check_cancel(cancel)?;
    let entry = StoredModel::new(AppProfile::single(outcome.profile));
    let model_id = entry.stats.content_key.clone();
    let stored = store.insert_stored(&model_id, entry);
    Ok(IngestResponse {
        model_id,
        stats: stored.stats.clone(),
        report: outcome.report,
        ingest: outcome.stats,
    })
}

/// `POST /v1/replicate`: internal fleet endpoint storing a model pushed
/// by a peer. Idempotent — an existing entry is acknowledged with
/// `stored: false` and never rewritten (entries are immutable). The
/// cache hit/miss counters are deliberately untouched: a replica copy
/// is warm-standby state, not served traffic, and the chaos suite
/// asserts `cache_misses` stays flat while replicas absorb a victim's
/// keys.
///
/// # Errors
///
/// 400 for a malformed model id (keys are 32 lower-hex chars — anything
/// else could not have been minted by this fleet), 504 on cancellation.
pub fn replicate_store(
    store: &ModelStore,
    req: &ReplicateRequest,
    cancel: &AtomicBool,
) -> Result<ReplicateResponse, ApiError> {
    let well_formed =
        req.model_id.len() == 32 && req.model_id.bytes().all(|b| b.is_ascii_hexdigit());
    if !well_formed {
        return Err(ApiError::bad_request(format!(
            "bad model id {:?} (expected 32 hex characters)",
            req.model_id
        )));
    }
    check_cancel(cancel)?;
    let stored = store.get(&req.model_id).is_none();
    if stored {
        store.insert(&req.model_id, req.model.clone());
    }
    Ok(ReplicateResponse {
        model_id: req.model_id.clone(),
        stored,
    })
}

fn lookup(store: &ModelStore, model_id: &str) -> Result<Arc<StoredModel>, ApiError> {
    store.get(model_id).ok_or_else(|| {
        ApiError::new(
            404,
            format!("unknown model id {model_id:?} (profile a workload first)"),
        )
    })
}

/// Statistics of one kernel's generated streams.
fn stream_stats(kernel: &str, streams: &[WarpStream]) -> KernelCloneStats {
    let mut stats = KernelCloneStats {
        kernel: kernel.to_string(),
        warps: streams.len(),
        accesses: 0,
        reads: 0,
        writes: 0,
        lines: 0,
        syncs: 0,
    };
    for stream in streams {
        for event in &stream.events {
            match event {
                WarpStreamEvent::Access(a) => {
                    stats.accesses += 1;
                    stats.lines += a.lines.len() as u64;
                    match a.kind {
                        AccessKind::Read => stats.reads += 1,
                        AccessKind::Write => stats.writes += 1,
                    }
                }
                WarpStreamEvent::Sync => stats.syncs += 1,
            }
        }
    }
    stats
}

/// `POST /v1/clone`: generate proxy streams (optionally miniaturized) and
/// report their statistics.
///
/// # Errors
///
/// 404 for unknown model ids, 400 for invalid factors, 504 on
/// cancellation.
pub fn clone_model(
    store: &ModelStore,
    req: &CloneRequest,
    cancel: &AtomicBool,
) -> Result<CloneResponse, ApiError> {
    let stored = lookup(store, &req.model_id)?;
    let factor = req.factor.unwrap_or(1.0);
    let seed = req.seed.unwrap_or(api::DEFAULT_SEED);
    let mut kernels = Vec::with_capacity(stored.model.kernels.len());
    for profile in &stored.model.kernels {
        check_cancel(cancel)?;
        let mini = miniaturize(profile, factor)
            .map_err(|e| ApiError::bad_request(format!("bad miniaturization factor: {e}")))?;
        let streams = generate_streams(&mini, seed);
        kernels.push(stream_stats(&profile.name, &streams));
    }
    Ok(CloneResponse {
        model_id: req.model_id.clone(),
        factor,
        seed,
        kernels,
    })
}

/// Most lines one grid point's cache may hold: every evaluator allocates
/// the whole cache up front (8 to 17 bytes a line, per core for an L1),
/// and this is 16× the largest stock point, 4 MiB of 64 B lines.
pub const MAX_GRID_LINES: u64 = 1 << 20;

/// Translates one grid point into a full simulation configuration over
/// the Fermi baseline.
///
/// Prefetcher attachments are validated here against the constructor
/// envelopes ([`StridePrefetcherConfig::is_supported`],
/// [`StreamPrefetcherConfig::is_supported`]) so an out-of-range request
/// is a 400, not a worker panic on the direct simulation path.
///
/// # Errors
///
/// 400 for invalid cache geometry, a cache of more than
/// [`MAX_GRID_LINES`] lines, unknown policy/level names, prefetchers on
/// the wrong level, or unsupported prefetcher parameters.
pub fn grid_config(point: &GridPoint, seed: u64) -> Result<SimtConfig, ApiError> {
    let policy = api::parse_policy(point.policy.as_deref())?;
    let line = point.line.unwrap_or(128);
    let size_bytes = point.size_kb.checked_mul(1024).ok_or_else(|| {
        ApiError::bad_request(format!(
            "invalid cache config: size_kb {} overflows a byte count",
            point.size_kb
        ))
    })?;
    let cache = CacheConfig::new(size_bytes, point.assoc, line, policy)
        .map_err(|e| ApiError::bad_request(format!("invalid cache config: {e}")))?;
    let lines = cache.size_bytes / cache.line_size;
    if lines > MAX_GRID_LINES {
        return Err(ApiError::bad_request(format!(
            "invalid cache config: {lines} lines of {line} B exceed the limit of \
             {MAX_GRID_LINES} lines per cache"
        )));
    }
    let mut cfg = SimtConfig {
        seed,
        ..SimtConfig::default()
    };
    let is_l1 = match point.level.as_deref() {
        None | Some("l1") => {
            cfg.hierarchy.l1 = cache;
            true
        }
        Some("l2") => {
            cfg.hierarchy.l2 = cache;
            false
        }
        Some(other) => {
            return Err(ApiError::bad_request(format!(
                "unknown level {other:?} (expected l1 or l2)"
            )))
        }
    };
    if let Some(stride) = &point.stride_prefetch {
        if !is_l1 {
            return Err(ApiError::bad_request(
                "stride_prefetch attaches to the L1 (level \"l1\")",
            ));
        }
        let pf = StridePrefetcherConfig {
            table_size: stride.table,
            degree: stride.degree,
            distance: stride.distance.unwrap_or(1),
            min_confidence: stride.confidence.unwrap_or(2),
        };
        if !pf.is_supported() {
            return Err(ApiError::bad_request(format!(
                "unsupported stride prefetcher (table {} degree {} distance {}): \
                 table must be a power of two <= 4096, degree 1-32, distance <= 64",
                pf.table_size, pf.degree, pf.distance
            )));
        }
        cfg.hierarchy.l1_prefetch = Some(pf);
    }
    if let Some(stream) = &point.stream_prefetch {
        if is_l1 {
            return Err(ApiError::bad_request(
                "stream_prefetch attaches to the L2 (level \"l2\")",
            ));
        }
        let pf = StreamPrefetcherConfig {
            num_streams: stream.streams.unwrap_or(16),
            window: stream.window,
            degree: stream.degree,
        };
        if !pf.is_supported() {
            return Err(ApiError::bad_request(format!(
                "unsupported stream prefetcher (streams {} window {} degree {}): \
                 streams 1-256, window 1-1024, degree 1-32",
                pf.num_streams, pf.window, pf.degree
            )));
        }
        cfg.hierarchy.l2_prefetch = Some(pf);
    }
    Ok(cfg)
}

/// `POST /v1/evaluate`: run a hierarchy grid against one kernel of a
/// cached model, through the single-pass sweep engine when eligible.
///
/// # Errors
///
/// 404 for unknown model ids, 400 for empty grids / bad indices / bad
/// configs, 504 on cancellation.
pub fn evaluate(
    store: &ModelStore,
    req: &EvaluateRequest,
    cancel: &AtomicBool,
) -> Result<EvaluateResponse, ApiError> {
    let stored = lookup(store, &req.model_id)?;
    if req.grid.is_empty() {
        return Err(ApiError::bad_request("grid must not be empty"));
    }
    let kernel = req.kernel.unwrap_or(0);
    let profile = stored.model.kernels.get(kernel).ok_or_else(|| {
        ApiError::bad_request(format!(
            "kernel index {kernel} out of range (model has {} kernels)",
            stored.model.kernels.len()
        ))
    })?;
    let metric = api::parse_metric(req.metric.as_deref())?;
    let seed = req.seed.unwrap_or(api::DEFAULT_SEED);
    let configs = req
        .grid
        .iter()
        .map(|p| grid_config(p, seed))
        .collect::<Result<Vec<_>, _>>()?;
    let eval = gmap_bench::evaluate_profile(profile, &configs, metric, seed, Some(cancel))
        .ok_or_else(|| ApiError::new(504, "request cancelled by deadline"))?;
    Ok(EvaluateResponse {
        model_id: req.model_id.clone(),
        kernel,
        metric: req.metric.clone().unwrap_or_else(|| "l1_miss_pct".into()),
        single_pass: eval.single_pass,
        values: eval.values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmap_bench::Metric;
    use gmap_core::simulate_streams;

    fn state() -> (ModelStore, Metrics) {
        (
            ModelStore::new(None).expect("memory-only store"),
            Metrics::new(),
        )
    }

    fn fresh_cancel() -> AtomicBool {
        AtomicBool::new(false)
    }

    /// A default L1 grid point at the given geometry.
    fn point(size_kb: u64, assoc: u32) -> GridPoint {
        GridPoint {
            level: None,
            size_kb,
            assoc,
            line: None,
            policy: None,
            stride_prefetch: None,
            stream_prefetch: None,
        }
    }

    #[test]
    fn profile_then_cache_hit() {
        let (store, metrics) = state();
        let req = ProfileRequest {
            workload: Some("kmeans".into()),
            scale: Some("tiny".into()),
            spec: None,
        };
        let first = profile(&store, &metrics, &req, &fresh_cancel()).expect("profiles");
        assert!(!first.cached);
        assert_eq!(first.stats.kernels, 1);
        let second = profile(&store, &metrics, &req, &fresh_cancel()).expect("cache hit");
        assert!(second.cached);
        assert_eq!(first.model_id, second.model_id);
        assert_eq!(first.stats, second.stats);
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn model_ids_are_spec_addressed() {
        assert_eq!(
            model_id_for("kmeans", "tiny"),
            model_id_for("kmeans", "tiny")
        );
        assert_ne!(
            model_id_for("kmeans", "tiny"),
            model_id_for("kmeans", "small")
        );
        assert_ne!(model_id_for("kmeans", "tiny"), model_id_for("bfs", "tiny"));
    }

    #[test]
    fn unknown_workload_is_a_400() {
        let (store, metrics) = state();
        let req = ProfileRequest {
            workload: Some("not-a-workload".into()),
            scale: None,
            spec: None,
        };
        let err = profile(&store, &metrics, &req, &fresh_cancel()).expect_err("rejected");
        assert_eq!(err.status, 400);
        assert!(err.message.contains("kmeans"), "lists known workloads");
    }

    #[test]
    fn clone_stats_match_direct_generation() {
        let (store, metrics) = state();
        let req = ProfileRequest {
            workload: Some("hotspot".into()),
            scale: Some("tiny".into()),
            spec: None,
        };
        let prof = profile(&store, &metrics, &req, &fresh_cancel()).expect("profiles");
        let resp = clone_model(
            &store,
            &CloneRequest {
                model_id: prof.model_id.clone(),
                factor: None,
                seed: None,
            },
            &fresh_cancel(),
        )
        .expect("clones");
        assert_eq!(resp.factor, 1.0);
        let stored = store.get(&prof.model_id).expect("cached");
        let direct = generate_streams(&stored.model.kernels[0], api::DEFAULT_SEED);
        assert_eq!(resp.kernels[0], stream_stats("hotspot", &direct));
        assert!(resp.kernels[0].accesses > 0);
        assert_eq!(
            resp.kernels[0].reads + resp.kernels[0].writes,
            resp.kernels[0].accesses
        );

        let err = clone_model(
            &store,
            &CloneRequest {
                model_id: prof.model_id,
                factor: Some(-2.0),
                seed: None,
            },
            &fresh_cancel(),
        )
        .expect_err("bad factor");
        assert_eq!(err.status, 400);
    }

    #[test]
    fn evaluate_matches_direct_simulation() {
        let (store, metrics) = state();
        let prof = profile(
            &store,
            &metrics,
            &ProfileRequest {
                workload: Some("kmeans".into()),
                scale: Some("tiny".into()),
                spec: None,
            },
            &fresh_cancel(),
        )
        .expect("profiles");
        let grid = vec![point(16, 4), point(64, 8)];
        let resp = evaluate(
            &store,
            &EvaluateRequest {
                model_id: prof.model_id.clone(),
                kernel: None,
                metric: None,
                seed: None,
                grid: grid.clone(),
            },
            &fresh_cancel(),
        )
        .expect("evaluates");
        assert!(resp.single_pass, "pure-LRU L1 grid takes the fast path");
        assert_eq!(resp.values.len(), 2);

        // Cross-check against direct simulation of the same streams.
        let stored = store.get(&prof.model_id).expect("cached");
        let profile_ref = &stored.model.kernels[0];
        let streams = generate_streams(profile_ref, api::DEFAULT_SEED);
        for (point, served) in grid.iter().zip(&resp.values) {
            let cfg = grid_config(point, api::DEFAULT_SEED).expect("valid point");
            let direct = simulate_streams(&streams, &profile_ref.launch, &cfg)
                .expect("valid config")
                .l1_miss_pct();
            assert!(
                (direct - served).abs() < 1e-9,
                "served {served} vs direct {direct}"
            );
        }
        assert!(
            resp.values[0] >= resp.values[1] - 1e-9,
            "bigger L1, fewer misses"
        );
    }

    #[test]
    fn evaluate_rejects_bad_requests() {
        let (store, metrics) = state();
        let prof = profile(
            &store,
            &metrics,
            &ProfileRequest {
                workload: Some("bfs".into()),
                scale: Some("tiny".into()),
                spec: None,
            },
            &fresh_cancel(),
        )
        .expect("profiles");
        let base = EvaluateRequest {
            model_id: prof.model_id.clone(),
            kernel: None,
            metric: None,
            seed: None,
            grid: vec![],
        };
        assert_eq!(
            evaluate(&store, &base, &fresh_cancel())
                .expect_err("empty grid")
                .status,
            400
        );
        let mut missing = base.clone();
        missing.model_id = "feedbeef".into();
        missing.grid = vec![point(16, 4)];
        assert_eq!(
            evaluate(&store, &missing, &fresh_cancel())
                .expect_err("unknown id")
                .status,
            404
        );
        let mut bad_kernel = missing.clone();
        bad_kernel.model_id = prof.model_id.clone();
        bad_kernel.kernel = Some(9);
        assert_eq!(
            evaluate(&store, &bad_kernel, &fresh_cancel())
                .expect_err("kernel out of range")
                .status,
            400
        );
    }

    #[test]
    fn cancellation_surfaces_as_504() {
        let (store, metrics) = state();
        let cancelled = AtomicBool::new(true);
        let err = profile(
            &store,
            &metrics,
            &ProfileRequest {
                workload: Some("kmeans".into()),
                scale: Some("tiny".into()),
                spec: None,
            },
            &cancelled,
        )
        .expect_err("cancelled");
        assert_eq!(err.status, 504);
    }

    #[test]
    fn resolve_kernel_requires_exactly_one_source() {
        let spec = gmap_analyze::fixtures::clean_streaming();
        let both = Named::of(Some("kmeans"), None, Some(&spec));
        assert_eq!(both.err().expect("both").status, 400);
        let neither = Named::of(None, None, None);
        assert_eq!(neither.err().expect("neither").status, 400);
        let named = Named::of(None, None, Some(&spec)).expect("inline spec");
        assert_eq!(named.kernel().name, spec.name);
        assert_eq!(
            named.model_id(),
            cachekey::key_of(&spec),
            "content-addressed"
        );
    }

    /// A profile request for an inline spec.
    fn inline(spec: KernelDesc) -> ProfileRequest {
        ProfileRequest {
            workload: None,
            scale: None,
            spec: Some(spec),
        }
    }

    #[test]
    fn admission_gate_rejects_error_specs_with_422() {
        let (store, metrics) = state();
        let bad = inline(gmap_analyze::fixtures::oob_affine());
        let err = profile(&store, &metrics, &bad, &fresh_cancel()).expect_err("oob spec rejected");
        assert_eq!(err.status, 422);
        assert!(
            err.message.contains("static analysis"),
            "names the gate: {}",
            err.message
        );
        assert_eq!(metrics.analyze_rejects.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 0);
        assert!(store.is_empty(), "nothing was profiled");

        // Warnings (uncoalesced) do not block admission; neither do the
        // built-in workloads.
        for req in [
            inline(gmap_analyze::fixtures::uncoalesced()),
            ProfileRequest {
                workload: Some("kmeans".into()),
                scale: Some("tiny".into()),
                spec: None,
            },
        ] {
            profile(&store, &metrics, &req, &fresh_cancel()).expect("admissible");
        }
        assert_eq!(metrics.analyze_rejects.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn admission_gate_rejects_racy_barrier_phased_specs_with_422() {
        let (store, metrics) = state();
        let racy = inline(gmap_analyze::fixtures::race_ww());
        let report = admission_report(&racy).expect("resolves and analyzes");
        assert!(race_finding_count(&report) >= 1, "{:?}", report.findings);
        let err =
            profile(&store, &metrics, &racy, &fresh_cancel()).expect_err("racy spec rejected");
        assert_eq!(err.status, 422);
        assert!(
            err.message.contains("race"),
            "names the race: {}",
            err.message
        );
        let counted = metrics.analyze_races.load(Ordering::Relaxed);
        assert_eq!(counted, race_finding_count(&report));

        // A certified phased kernel sails through, and its report counts
        // zero race findings.
        let clean = inline(gmap_analyze::fixtures::phased_stencil());
        let report = admission_report(&clean).expect("resolves and analyzes");
        assert!(report.race_certified);
        assert_eq!(race_finding_count(&report), 0);
        profile(&store, &metrics, &clean, &fresh_cancel()).expect("admissible");
        assert_eq!(metrics.analyze_races.load(Ordering::Relaxed), counted);
    }

    /// A stored model's summary is computed where the model is stored,
    /// and the gate is the handler's: the connection thread knows neither.
    #[test]
    fn the_summary_has_one_call_site_and_the_server_does_not_gate() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut calls = Vec::new();
        for entry in std::fs::read_dir(&src).expect("src readable") {
            let path = entry.expect("entry").path();
            let file = path
                .file_name()
                .expect("file")
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&path).expect("source readable");
            let code = text.split("#[cfg(test)]").next().unwrap_or("");
            for (n, line) in code.lines().enumerate() {
                let line = line.trim_start();
                if !line.starts_with("//") && !line.contains("fn profile_stats(") {
                    let count = line.matches("profile_stats(").count();
                    calls.extend(std::iter::repeat_n((file.clone(), n + 1), count));
                }
            }
            if file == "server.rs" {
                for name in ["admission_report", "gate_report", "analyze_kernel"] {
                    assert!(!code.contains(name), "server.rs names {name}");
                }
            }
        }
        assert_eq!(calls.len(), 1, "profile_stats( call sites: {calls:?}");
        assert_eq!(calls[0].0, "cache.rs", "the constructor: {calls:?}");
    }

    #[test]
    fn profile_accepts_inline_specs_and_content_addresses_them() {
        let (store, metrics) = state();
        let spec = gmap_analyze::fixtures::clean_streaming();
        let req = ProfileRequest {
            workload: None,
            scale: None,
            spec: Some(spec.clone()),
        };
        let first = profile(&store, &metrics, &req, &fresh_cancel()).expect("profiles spec");
        assert!(!first.cached);
        assert_eq!(first.model_id, cachekey::key_of(&spec));
        let second = profile(&store, &metrics, &req, &fresh_cancel()).expect("cache hit");
        assert!(second.cached);
        assert_eq!(first.stats, second.stats);
    }

    #[test]
    fn analyze_reports_findings_without_executing() {
        let resp = analyze(&AnalyzeRequest {
            workload: None,
            scale: None,
            spec: Some(gmap_analyze::fixtures::oob_affine()),
        })
        .expect("analyzes");
        assert!(!resp.admissible);
        assert!(resp.errors >= 1);
        assert!(resp.report.has_errors());

        let clean = analyze(&AnalyzeRequest {
            workload: Some("streamcluster".into()),
            scale: Some("tiny".into()),
            spec: None,
        })
        .expect("analyzes workload");
        assert!(clean.admissible);
        assert_eq!(clean.errors, 0);

        assert_eq!(
            analyze(&AnalyzeRequest {
                workload: Some("nope".into()),
                scale: None,
                spec: None,
            })
            .expect_err("unknown workload")
            .status,
            400
        );
    }

    #[test]
    fn fifo_grid_points_stay_on_the_single_pass_path() {
        // FIFO used to force the direct path; the insertion-order
        // stack-distance evaluator now plans it single-pass.
        let mut fifo = point(16, 4);
        fifo.policy = Some("fifo".into());
        let cfg = grid_config(&fifo, 1).expect("valid");
        let plan = gmap_bench::engine::plan_single_pass(&[cfg], Metric::L1MissPct)
            .expect("FIFO grids plan single-pass");
        assert_eq!(plan.groups.len(), 1);

        // PLRU has no stack-distance evaluator and still falls back.
        let mut plru = point(16, 4);
        plru.policy = Some("plru".into());
        let cfg = grid_config(&plru, 1).expect("valid");
        assert!(gmap_bench::engine::plan_single_pass(&[cfg], Metric::L1MissPct).is_none());
    }

    #[test]
    fn prefetcher_grid_points_map_and_plan_single_pass() {
        let mut stride = point(16, 4);
        stride.stride_prefetch = Some(crate::api::StridePoint {
            table: 64,
            degree: 2,
            distance: None,
            confidence: None,
        });
        let cfg = grid_config(&stride, 1).expect("valid stride point");
        let pf = cfg.hierarchy.l1_prefetch.expect("prefetcher attached");
        assert_eq!((pf.table_size, pf.degree), (64, 2));
        assert_eq!((pf.distance, pf.min_confidence), (1, 2), "defaults applied");
        let plan = gmap_bench::engine::plan_single_pass(&[cfg], Metric::L1MissPct)
            .expect("stride-prefetcher grids plan single-pass");
        assert_eq!(plan.groups[0].l1_prefetch, Some(pf));

        let mut stream = point(512, 8);
        stream.level = Some("l2".into());
        stream.stream_prefetch = Some(crate::api::StreamPoint {
            streams: None,
            window: 16,
            degree: 4,
        });
        let cfg = grid_config(&stream, 1).expect("valid stream point");
        let pf = cfg.hierarchy.l2_prefetch.expect("prefetcher attached");
        assert_eq!((pf.num_streams, pf.window, pf.degree), (16, 16, 4));
        let plan = gmap_bench::engine::plan_single_pass(&[cfg], Metric::L2MissPct)
            .expect("stream-prefetcher grids plan single-pass");
        assert_eq!(plan.groups[0].l2_prefetch, Some(pf));
    }

    #[test]
    fn one_byte_lines_are_400s() {
        let mut tiny_line = point(16, 4);
        tiny_line.line = Some(1);
        let err = grid_config(&tiny_line, 1).expect_err("rejected");
        assert_eq!(err.status, 400);
        assert!(err.message.contains("at least 2 bytes"), "{}", err.message);
    }

    #[test]
    fn cache_sizes_that_overflow_are_400s() {
        // 2^54 + 1 KiB is 1 KiB once multiplied out in a u64.
        let err = grid_config(&point((1 << 54) + 1, 4), 1).expect_err("rejected");
        assert_eq!(err.status, 400);
        assert!(err.message.contains("overflows"), "{}", err.message);
        // 2^63 bytes in 3 ways of 2^63-byte lines: the way's byte count
        // wraps to 2^63, which would leave one set.
        let mut huge_line = point(1 << 53, 3);
        huge_line.line = Some(1 << 63);
        let err = grid_config(&huge_line, 1).expect_err("rejected");
        assert_eq!(err.status, 400);
        assert!(err.message.contains("not divisible"), "{}", err.message);
    }

    #[test]
    fn caches_of_more_than_max_grid_lines_are_400s() {
        // 128 MiB of 128 B lines is exactly the limit, at either level.
        let mut at_limit = point(128 * 1024, 16);
        for level in ["l1", "l2"] {
            at_limit.level = Some(level.into());
            let cfg = grid_config(&at_limit, 1).expect("at the limit");
            let cache = if level == "l1" {
                cfg.hierarchy.l1
            } else {
                cfg.hierarchy.l2
            };
            assert_eq!(cache.size_bytes / cache.line_size, MAX_GRID_LINES);
        }
        // One line past it: one set of 2^20 + 1 ways of 1 KiB. Then the
        // next power-of-two size.
        let mut one_past = point(MAX_GRID_LINES + 1, 1 << 20 | 1);
        one_past.line = Some(1024);
        let mut doubled = point(256 * 1024, 16);
        doubled.level = Some("l2".into());
        for (past, why) in [
            (one_past, "1048577 lines of 1024 B"),
            (doubled, "2097152 lines of 128 B"),
        ] {
            let err = grid_config(&past, 1).expect_err("rejected");
            assert_eq!(err.status, 400);
            let want = format!("{why} exceed the limit of 1048576 lines per cache");
            assert!(err.message.contains(&want), "{}", err.message);
        }
    }

    #[test]
    fn unsupported_or_misplaced_prefetchers_are_400s() {
        // Out-of-envelope stride table (not a power of two).
        let mut bad_table = point(16, 4);
        bad_table.stride_prefetch = Some(crate::api::StridePoint {
            table: 3,
            degree: 2,
            distance: None,
            confidence: None,
        });
        let err = grid_config(&bad_table, 1).expect_err("rejected");
        assert_eq!(err.status, 400);
        assert!(err.message.contains("power of two"), "{}", err.message);

        // Stride prefetcher on an L2 point.
        let mut wrong_level = point(512, 8);
        wrong_level.level = Some("l2".into());
        wrong_level.stride_prefetch = Some(crate::api::StridePoint {
            table: 64,
            degree: 2,
            distance: None,
            confidence: None,
        });
        let err = grid_config(&wrong_level, 1).expect_err("rejected");
        assert_eq!(err.status, 400);
        assert!(err.message.contains("l1"), "{}", err.message);

        // Stream prefetcher on an L1 point.
        let mut wrong_level = point(16, 4);
        wrong_level.stream_prefetch = Some(crate::api::StreamPoint {
            streams: None,
            window: 16,
            degree: 4,
        });
        let err = grid_config(&wrong_level, 1).expect_err("rejected");
        assert_eq!(err.status, 400);
        assert!(err.message.contains("l2"), "{}", err.message);

        // Out-of-envelope stream degree.
        let mut bad_degree = point(512, 8);
        bad_degree.level = Some("l2".into());
        bad_degree.stream_prefetch = Some(crate::api::StreamPoint {
            streams: None,
            window: 16,
            degree: 99,
        });
        let err = grid_config(&bad_degree, 1).expect_err("rejected");
        assert_eq!(err.status, 400);
        assert!(err.message.contains("degree"), "{}", err.message);
    }
}
