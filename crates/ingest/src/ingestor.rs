//! The push-based streaming ingestor.
//!
//! [`Ingestor`] accepts raw trace bytes chunk by chunk and produces, in a
//! single pass, the [`GmapProfile`] of the trace — byte-identical to
//! reading every entry first and reconstructing warp by warp, which is the
//! reference `tests/streaming.rs` keeps — plus the online classifier
//! verdicts and the heat-map report, while keeping the resident *trace*
//! buffer bounded by the launch geometry:
//!
//! - the chunk parser holds at most one partial line/record;
//! - per-thread entries go straight into per-warp, per-lane queues; a run
//!   of one thread's entries looks its warp up once, and each warp keeps a
//!   mask of its non-empty lanes;
//! - a warp-level instruction is popped ([`pop_warp_instruction`], which
//!   walks the mask's set bits only) as soon as **every geometry-live lane
//!   of the warp has a queued access** — `nonempty & live_mask ==
//!   live_mask` — safe because the front of a non-empty queue can never
//!   change (arrivals only append), so the majority vote is exactly the
//!   one a whole-trace reconstruction would take at the same step. Lanes
//!   the trace never exercises stall this rule; those queues drain at
//!   [`Ingestor::finish`] with the identical loop, so the result is still
//!   exact.
//!
//! For lane-interleaved traces (the order lockstep tracers emit) the
//! queues stay O(1) deep. Thread-major traces (all of thread 0, then
//! thread 1, ...) would buffer a whole warp's worth of accesses, so each
//! lane queue is bounded by `max_lane_queue`: a queue at the bound
//! force-drains — a majority instruction is popped among the currently
//! non-empty lanes. For single-lane-per-warp traces (e.g. `gmap clone`
//! output, which attributes each warp transaction to lane 0) this is
//! still exact — majority-of-one pops entries in order. For genuinely
//! divergent thread-major traces it degrades gracefully, mirroring the
//! majority semantics of [`crate::ingest`]; `forced_drains` in
//! [`IngestStats`] reports when it happened.
//!
//! The bound is `max_lane_queue` entries per live lane of every warp the
//! trace touches — not a constant. A single-lane-per-warp trace never
//! completes an instruction before its queue fills (the warp's other live
//! lanes stay empty), so each warp holds `max_lane_queue` entries until
//! [`Ingestor::finish`]: a warp-major upload of such a trace buffers up
//! to warps × `max_lane_queue` entries (kmeans' Tiny lane-0 trace peaks at
//! 96 × 4096 = 393,216 of its 626,784 entries).
//!
//! What stays bounded is the *raw trace*: the reconstructed coalesced
//! warp streams (the profiler's input, typically 32× smaller than the
//! per-thread trace and independent of its interleaving) are still
//! materialized, because `profile_streams` needs every warp before it
//! can number the warps' π sequences and chain their strides.

use crate::classify::{ClassifierConfig, OnlineClassifier};
use crate::ingest::{live_lanes, pop_warp_instruction, warp_lane_of, WARP_SIZE};
use crate::reader::{ChunkParser, TraceFormat, DEFAULT_CHUNK_BYTES};
use crate::report::{build_arrays, AdaptiveHeat, TraceReport, HEAT_MAX_PAGES, HEAT_PAGE_SHIFT};
use gmap_core::profile::GmapProfile;
use gmap_core::profiler::{profile_streams, ProfilerConfig};
use gmap_core::{GmapError, COALESCE_BYTES};
use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::schedule::{WarpStream, WarpStreamEvent};
use gmap_trace::io::{ParseTraceError, TraceEntry};
use gmap_trace::record::{MemAccess, WarpId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Configuration for an ingest pass. The trace coalesces at
/// [`COALESCE_BYTES`] and profiles and classifies under the default
/// [`ProfilerConfig`] and [`ClassifierConfig`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Bound on each per-warp lane queue, in entries; a queue at the
    /// bound force-drains (see the module docs).
    pub max_lane_queue: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            max_lane_queue: 4096,
        }
    }
}

/// Errors an ingest pass can produce.
#[derive(Debug)]
pub enum IngestError {
    /// The byte stream failed to parse.
    Parse(ParseTraceError),
    /// Profiling failed (e.g. no entry fell inside the launch geometry).
    Profile(GmapError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Parse(e) => write!(f, "trace parse failed: {e}"),
            IngestError::Profile(e) => write!(f, "profiling failed: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Parse(e) => Some(e),
            IngestError::Profile(e) => Some(e),
        }
    }
}

impl From<ParseTraceError> for IngestError {
    fn from(e: ParseTraceError) -> Self {
        IngestError::Parse(e)
    }
}

impl From<GmapError> for IngestError {
    fn from(e: GmapError) -> Self {
        IngestError::Profile(e)
    }
}

/// Counters describing one ingest pass.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IngestStats {
    /// Raw bytes pushed.
    pub bytes: u64,
    /// Entries parsed.
    pub entries: u64,
    /// Entries outside the launch geometry.
    pub skipped: u64,
    /// Peak number of entries queued in the lane queues, taken after
    /// every entry. The parser's carry (at most one partial line or
    /// record) is not counted, so the value does not depend on where the
    /// pushed pieces are cut.
    pub peak_buffered_entries: u64,
    /// Instructions popped at the lane-queue bound before their warp was
    /// fully fed.
    pub forced_drains: u64,
}

/// Everything one streaming pass produces.
#[derive(Debug)]
pub struct IngestOutcome {
    /// The statistical profile — the same bytes wherever the pushed
    /// pieces were cut.
    pub profile: GmapProfile,
    /// Classifier verdicts + heat map.
    pub report: TraceReport,
    /// Pass counters.
    pub stats: IngestStats,
}

#[derive(Debug)]
struct WarpState {
    warp: u32,
    /// One queue per geometry-live lane: every in-geometry lane index is
    /// below `live`, so dead lanes of a partial warp are never allocated.
    lanes: Vec<VecDeque<MemAccess>>,
    /// Bit `l` set iff `lanes[l]` is non-empty: set on push, cleared by
    /// [`pop_warp_instruction`] when a pop empties the lane.
    nonempty: u64,
    /// The low `live` bits.
    live_mask: u64,
    events: Vec<WarpStreamEvent>,
    live: u32,
}

/// Everything a popped instruction is reported to, apart from its warp —
/// a struct of its own so that popping borrows it beside one
/// `&mut WarpState` out of the warp map.
#[derive(Debug)]
struct Sinks {
    classifier: OnlineClassifier,
    heat: AdaptiveHeat,
    /// Entries currently queued over all lanes of all warps.
    buffered: u64,
    instructions: u64,
    transactions: u64,
}

impl Sinks {
    /// Pops exactly one warp-level instruction of `warp` (which must have
    /// a non-empty lane) and feeds the classifier and heat map.
    fn pop_one(&mut self, warp: u32, st: &mut WarpState) {
        let (access, participants) =
            pop_warp_instruction(&mut st.lanes, &mut st.nonempty, COALESCE_BYTES)
                .expect("caller checked a lane is non-empty");
        self.buffered -= u64::from(participants);
        self.instructions += 1;
        self.transactions += access.lines.len() as u64;
        for l in &access.lines {
            self.heat.observe(l.0, 1);
        }
        self.classifier.observe(
            warp,
            access.pc.0,
            access.kind.is_write(),
            &access.lines,
            participants,
            st.live,
        );
        st.events.push(WarpStreamEvent::Access(access));
    }
}

/// Push-based streaming trace profiler. See the module docs.
#[derive(Debug)]
pub struct Ingestor {
    name: String,
    launch: LaunchConfig,
    cfg: IngestConfig,
    parser: ChunkParser,
    /// Parsed entries on their way from the parser to the lane queues;
    /// swapped with the parser's output buffer, so neither reallocates.
    parsed: Vec<TraceEntry>,
    /// Warps in first-seen order; `warp_slots` maps a warp id to its slot.
    warps: Vec<WarpState>,
    warp_slots: BTreeMap<u32, usize>,
    /// The last in-geometry thread routed, with its warp slot and lane:
    /// a run of one thread's entries (every entry of a lane-0 trace's
    /// instruction) pays the geometry division and the map lookup once.
    last_route: Option<(u32, usize, usize)>,
    sinks: Sinks,
    stats: IngestStats,
}

impl Ingestor {
    /// A fresh ingestor profiling under `launch`.
    pub fn new(name: impl Into<String>, launch: LaunchConfig, cfg: IngestConfig) -> Self {
        Ingestor {
            name: name.into(),
            launch,
            sinks: Sinks {
                classifier: OnlineClassifier::new(ClassifierConfig::default()),
                heat: AdaptiveHeat::new(HEAT_PAGE_SHIFT, HEAT_MAX_PAGES),
                buffered: 0,
                instructions: 0,
                transactions: 0,
            },
            cfg,
            parser: ChunkParser::new(),
            parsed: Vec::new(),
            warps: Vec::new(),
            warp_slots: BTreeMap::new(),
            last_route: None,
            stats: IngestStats::default(),
        }
    }

    /// Feeds one chunk of raw trace bytes (any size, any alignment).
    ///
    /// # Errors
    ///
    /// Parse failures. The ingestor is unusable after an error.
    pub fn push_bytes(&mut self, chunk: &[u8]) -> Result<(), IngestError> {
        self.stats.bytes += chunk.len() as u64;
        self.parser.push(chunk)?;
        self.push_parsed();
        Ok(())
    }

    /// Moves what the parser has decoded into the lane queues.
    fn push_parsed(&mut self) {
        let mut parsed = std::mem::take(&mut self.parsed);
        self.parser.swap_entries(&mut parsed);
        for &e in &parsed {
            self.push_entry(e);
        }
        self.parsed = parsed;
    }

    /// Feeds one already-parsed entry (for callers that do their own
    /// decoding).
    pub fn push_entry(&mut self, (tid, acc): TraceEntry) {
        self.stats.entries += 1;
        let (slot, lane) = match self.last_route {
            Some((last, slot, lane)) if last == tid.0 => (slot, lane),
            _ => {
                let Some((warp, lane)) = warp_lane_of(tid.0, &self.launch) else {
                    self.stats.skipped += 1;
                    return;
                };
                let fresh = self.warps.len();
                let slot = *self.warp_slots.entry(warp).or_insert(fresh);
                if slot == fresh {
                    // At least 1: `tid` is a thread of this warp.
                    let live = live_lanes(warp, &self.launch);
                    self.warps.push(WarpState {
                        warp,
                        lanes: vec![VecDeque::new(); live as usize],
                        nonempty: 0,
                        live_mask: u64::MAX >> (u64::BITS - live),
                        events: Vec::new(),
                        live,
                    });
                }
                self.last_route = Some((tid.0, slot, lane));
                (slot, lane)
            }
        };
        let st = &mut self.warps[slot];
        let warp = st.warp;
        st.lanes[lane].push_back(acc);
        st.nonempty |= 1 << lane;
        self.sinks.buffered += 1;
        while st.lanes[lane].len() > self.cfg.max_lane_queue {
            self.sinks.pop_one(warp, st);
            self.stats.forced_drains += 1;
        }
        // The exact-prefix rule from the module docs: pop while every
        // live lane of the warp has a queued access.
        while st.nonempty & st.live_mask == st.live_mask {
            self.sinks.pop_one(warp, st);
        }
        self.stats.peak_buffered_entries =
            self.stats.peak_buffered_entries.max(self.sinks.buffered);
    }

    /// Ends the stream: flushes the parser, drains every warp dry,
    /// profiles, and assembles the report.
    ///
    /// # Errors
    ///
    /// Parse errors from the final partial line/record, and
    /// [`GmapError::EmptyProfile`] when no entry fell inside the
    /// geometry.
    pub fn finish(mut self) -> Result<IngestOutcome, IngestError> {
        self.parser.finish()?;
        self.push_parsed();
        // Drain the tails: from here the queues hold exactly what a
        // whole-trace reconstruction would still have, so the same loop
        // finishes the job identically, in warp order.
        let mut warps = std::mem::take(&mut self.warps);
        warps.sort_unstable_by_key(|st| st.warp);
        for st in &mut warps {
            // Each instruction takes at most one entry from a lane, so the
            // longest queue is a lower bound on what is left to pop.
            let left = st.lanes.iter().map(VecDeque::len).max().unwrap_or(0);
            st.events.reserve(left);
            while st.nonempty != 0 {
                self.sinks.pop_one(st.warp, st);
            }
        }
        let wpb = self.launch.warps_per_block(WARP_SIZE);
        let streams: Vec<WarpStream> = warps
            .into_iter()
            .map(|st| WarpStream {
                warp: WarpId(st.warp),
                block: st.warp / wpb,
                events: st.events,
            })
            .collect();
        let profile = profile_streams(
            &self.name,
            &streams,
            &self.launch,
            WARP_SIZE,
            &ProfilerConfig::default(),
        )?;
        let pcs = self.sinks.classifier.finish();
        let untracked: u64 =
            self.sinks.instructions - pcs.iter().map(|p| p.instructions).sum::<u64>();
        let arrays = build_arrays(&self.sinks.heat, &pcs);
        let report = TraceReport {
            name: self.name.clone(),
            format: self
                .parser
                .format()
                .unwrap_or(TraceFormat::Text)
                .label()
                .to_string(),
            bytes: self.stats.bytes,
            entries: self.stats.entries,
            skipped: self.stats.skipped,
            warps: streams.len() as u64,
            instructions: self.sinks.instructions,
            transactions: self.sinks.transactions,
            page_bytes: self.sinks.heat.page_bytes(),
            arrays,
            pcs,
            untracked_instructions: untracked,
        };
        Ok(IngestOutcome {
            profile,
            report,
            stats: self.stats,
        })
    }
}

/// Streams a whole `Read` source through an [`Ingestor`] in
/// [`DEFAULT_CHUNK_BYTES`] pieces.
///
/// # Errors
///
/// I/O errors surface as [`IngestError::Parse`]; see
/// [`Ingestor::push_bytes`] and [`Ingestor::finish`] for the rest.
pub fn ingest_reader<R: std::io::Read>(
    name: &str,
    mut reader: R,
    launch: &LaunchConfig,
    cfg: IngestConfig,
) -> Result<IngestOutcome, IngestError> {
    let mut ing = Ingestor::new(name, *launch, cfg);
    let mut buf = vec![0u8; DEFAULT_CHUNK_BYTES];
    loop {
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => ing.push_bytes(&buf[..n])?,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(IngestError::Parse(ParseTraceError::Io(e))),
        }
    }
    ing.finish()
}
