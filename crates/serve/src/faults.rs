//! Deterministic fault injection for the service's resilience layer.
//!
//! A [`FaultInjector`] is a seeded source of *injection decisions*: each
//! layer that can fail in production (the disk cache, the worker pool,
//! the connection read/write paths) asks it whether to fail *now*, and
//! the chaos tests (`crates/serve/tests/chaos.rs`) drive the whole
//! service under those decisions. Decisions are drawn by hashing
//! `(seed, kind, draw-counter)` through [`mix64`], so a given seed
//! produces the same decision *sequence* per fault kind regardless of
//! wall-clock time — there is no entropy source anywhere in the module,
//! which keeps the chaos suite replayable from a pinned seed.
//!
//! Injection is configured with a spec string (`gmap serve --faults`,
//! [`crate::ServeConfig::faults`]):
//!
//! ```text
//! <seed>:<kind>=<rate>[,<kind>=<rate>...][,slow_ms=<millis>]
//! ```
//!
//! where `<rate>` is a probability in `[0, 1]` and `<kind>` is one of
//!
//! | kind          | injected failure                                        |
//! |---------------|---------------------------------------------------------|
//! | `disk_err`    | disk-cache read/write fails with an I/O error           |
//! | `short_write` | disk-cache write is torn: half the bytes, no rename     |
//! | `panic`       | the handler panics on the worker thread                 |
//! | `slow`        | the handler sleeps `slow_ms` (default 25) before running|
//! | `trunc_body`  | the connection read path truncates the request body     |
//! | `reset`       | the connection resets mid-response (partial write + FIN)|
//! | `replicate_err` | a queued replication push is dropped before sending   |
//!
//! Example: `--faults 42:panic=0.1,disk_err=0.3,slow=0.5,slow_ms=40`.

use gmap_trace::rng::mix64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// The failure sites the injector can trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Disk-cache read or write fails with an I/O error.
    DiskErr,
    /// Disk-cache write is torn after half the bytes (never renamed).
    ShortWrite,
    /// Handler panics on its worker thread.
    Panic,
    /// Handler sleeps before running.
    Slow,
    /// Connection read path truncates the request body.
    TruncBody,
    /// Connection resets mid-response.
    Reset,
    /// A queued replication push is dropped before it is sent — the
    /// availability layer's retry/hint machinery is the behaviour under
    /// test.
    ReplicateErr,
}

/// All kinds, in spec/display order.
pub const KINDS: [FaultKind; 7] = [
    FaultKind::DiskErr,
    FaultKind::ShortWrite,
    FaultKind::Panic,
    FaultKind::Slow,
    FaultKind::TruncBody,
    FaultKind::Reset,
    FaultKind::ReplicateErr,
];

impl FaultKind {
    /// The spec-grammar name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::DiskErr => "disk_err",
            FaultKind::ShortWrite => "short_write",
            FaultKind::Panic => "panic",
            FaultKind::Slow => "slow",
            FaultKind::TruncBody => "trunc_body",
            FaultKind::Reset => "reset",
            FaultKind::ReplicateErr => "replicate_err",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultKind::DiskErr => 0,
            FaultKind::ShortWrite => 1,
            FaultKind::Panic => 2,
            FaultKind::Slow => 3,
            FaultKind::TruncBody => 4,
            FaultKind::Reset => 5,
            FaultKind::ReplicateErr => 6,
        }
    }

    /// Per-kind salt so the decision streams of different kinds are
    /// independent even at equal rates.
    fn salt(self) -> u64 {
        0x6661_756c_7400_0000 | self.index() as u64
    }
}

/// A parsed fault-injection configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed of the decision stream.
    pub seed: u64,
    /// Injection probability per kind, indexed by `FaultKind::index`.
    pub rates: [f64; 7],
    /// Sleep injected by the `slow` kind.
    pub slow: Duration,
}

impl FaultSpec {
    /// A spec with every rate zero (useful as a builder base).
    pub fn quiet(seed: u64) -> Self {
        FaultSpec {
            seed,
            rates: [0.0; 7],
            slow: Duration::from_millis(25),
        }
    }

    /// Sets one kind's rate, builder-style.
    #[must_use]
    pub fn with(mut self, kind: FaultKind, rate: f64) -> Self {
        self.rates[kind.index()] = rate;
        self
    }

    /// Parses the `<seed>:<kind>=<rate>[,...]` grammar.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for a missing seed, an unknown
    /// kind, or a rate outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (seed, rest) = spec
            .split_once(':')
            .ok_or_else(|| format!("bad fault spec {spec:?} (expected SEED:KIND=RATE,...)"))?;
        let seed: u64 = seed
            .trim()
            .parse()
            .map_err(|e| format!("bad fault seed {seed:?}: {e}"))?;
        let mut out = FaultSpec::quiet(seed);
        for entry in rest.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("bad fault entry {entry:?} (expected KIND=RATE)"))?;
            if key == "slow_ms" {
                let ms: u64 = value
                    .parse()
                    .map_err(|e| format!("bad slow_ms {value:?}: {e}"))?;
                out.slow = Duration::from_millis(ms);
                continue;
            }
            let kind = KINDS
                .iter()
                .copied()
                .find(|k| k.name() == key)
                .ok_or_else(|| {
                    format!(
                        "unknown fault kind {key:?} (known: {}, slow_ms)",
                        KINDS.map(FaultKind::name).join(", ")
                    )
                })?;
            let rate: f64 = value
                .parse()
                .map_err(|e| format!("bad rate {value:?} for {key}: {e}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate {rate} for {key} outside [0, 1]"));
            }
            out.rates[kind.index()] = rate;
        }
        Ok(out)
    }
}

/// The live injector: a [`FaultSpec`] plus per-kind draw counters and an
/// arming switch. One instance is shared by every layer of a server.
#[derive(Debug)]
pub struct FaultInjector {
    spec: FaultSpec,
    armed: AtomicBool,
    draws: [AtomicU64; 7],
    injected: [AtomicU64; 7],
}

impl FaultInjector {
    /// Creates an armed injector from a spec.
    pub fn new(spec: FaultSpec) -> Self {
        FaultInjector {
            spec,
            armed: AtomicBool::new(true),
            draws: Default::default(),
            injected: Default::default(),
        }
    }

    /// Arms or disarms injection at runtime (a disarmed injector never
    /// fires). The chaos tests disarm after the storm to assert the
    /// service recovered.
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Ordering::SeqCst);
    }

    /// The configured spec.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Total faults injected across all kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Faults injected for one kind.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()].load(Ordering::Relaxed)
    }

    /// One deterministic decision draw for `kind`. The value of draw
    /// `n` depends only on `(seed, kind, n)`, never on time.
    fn draw(&self, kind: FaultKind) -> u64 {
        let n = self.draws[kind.index()].fetch_add(1, Ordering::Relaxed);
        mix64(self.spec.seed ^ kind.salt() ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Whether to inject `kind` at this call site, advancing the
    /// decision stream. Counts the injection when it fires.
    pub fn fires(&self, kind: FaultKind) -> bool {
        if !self.armed.load(Ordering::Relaxed) {
            return false;
        }
        let rate = self.spec.rates[kind.index()];
        if rate <= 0.0 {
            return false;
        }
        let x = self.draw(kind) as f64 / (u64::MAX as f64);
        if x < rate {
            self.injected[kind.index()].fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// If the `slow` fault fires, the duration to sleep.
    pub fn slow_for(&self) -> Option<Duration> {
        self.fires(FaultKind::Slow).then_some(self.spec.slow)
    }

    /// If the `trunc_body` fault fires, the number of connection bytes
    /// to pass through before the stream dies (small, so the truncation
    /// lands inside the request head or body).
    pub fn truncate_after(&self) -> Option<usize> {
        self.fires(FaultKind::TruncBody)
            .then(|| 8 + (self.draw(FaultKind::TruncBody) % 56) as usize)
    }

    /// If the `reset` fault fires, how many of the `total` response
    /// bytes to write before dropping the connection.
    pub fn reset_after(&self, total: usize) -> Option<usize> {
        self.fires(FaultKind::Reset)
            .then(|| (self.draw(FaultKind::Reset) % total.max(1) as u64) as usize)
    }

    /// Panics (on purpose) if the `panic` fault fires. Callers place
    /// this on the worker-pool execution path, where the job queue's
    /// panic containment is the behaviour under test.
    pub fn maybe_panic(&self) {
        if self.fires(FaultKind::Panic) {
            panic!("injected fault: handler panic");
        }
    }
}

/// A [`std::io::Read`] wrapper that truncates the stream after a fault-
/// chosen byte budget, simulating a peer that dies mid-request.
#[derive(Debug)]
pub struct TruncatedReader<R> {
    inner: R,
    /// Bytes still allowed through; `None` = no truncation this
    /// connection.
    remaining: Option<usize>,
}

impl<R: std::io::Read> TruncatedReader<R> {
    /// Wraps `inner`, passing at most `budget` bytes if truncation is
    /// active.
    pub fn new(inner: R, budget: Option<usize>) -> Self {
        TruncatedReader {
            inner,
            remaining: budget,
        }
    }
}

impl<R: std::io::Read> std::io::Read for TruncatedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.remaining {
            None => self.inner.read(buf),
            Some(0) => Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected fault: request truncated",
            )),
            Some(budget) => {
                let take = buf.len().min(budget);
                let n = self.inner.read(&mut buf[..take])?;
                self.remaining = Some(budget - n);
                Ok(n)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn spec_grammar_round_trips() {
        let s = FaultSpec::parse("42:panic=0.25,disk_err=1,slow=0.5,slow_ms=40,replicate_err=0.75")
            .expect("parses");
        assert_eq!(s.seed, 42);
        assert_eq!(s.rates[FaultKind::Panic.index()], 0.25);
        assert_eq!(s.rates[FaultKind::DiskErr.index()], 1.0);
        assert_eq!(s.rates[FaultKind::Slow.index()], 0.5);
        assert_eq!(s.slow, Duration::from_millis(40));
        assert_eq!(s.rates[FaultKind::ReplicateErr.index()], 0.75);
        assert_eq!(s.rates[FaultKind::Reset.index()], 0.0);

        assert!(FaultSpec::parse("no-seed").is_err());
        assert!(FaultSpec::parse("1:bogus=0.5").is_err());
        assert!(FaultSpec::parse("1:panic=1.5").is_err());
        assert!(FaultSpec::parse("1:panic").is_err());
        // A bare seed with no kinds is a valid (quiet) spec.
        assert_eq!(FaultSpec::parse("7:").expect("quiet"), FaultSpec::quiet(7));
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let make = || FaultInjector::new(FaultSpec::parse("9:panic=0.5,reset=0.5").expect("spec"));
        let (a, b) = (make(), make());
        let seq_a: Vec<bool> = (0..64).map(|_| a.fires(FaultKind::Panic)).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.fires(FaultKind::Panic)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same decision stream");
        assert!(seq_a.iter().any(|&f| f) && seq_a.iter().any(|&f| !f));
        assert_eq!(a.injected(FaultKind::Panic), b.injected(FaultKind::Panic));

        // Kinds draw independent streams.
        let c = make();
        let resets: Vec<bool> = (0..64).map(|_| c.fires(FaultKind::Reset)).collect();
        assert_ne!(seq_a, resets);
    }

    #[test]
    fn rate_extremes_and_disarming() {
        let never = FaultInjector::new(FaultSpec::quiet(1));
        let always = FaultInjector::new(FaultSpec::quiet(1).with(FaultKind::DiskErr, 1.0));
        for _ in 0..32 {
            assert!(!never.fires(FaultKind::DiskErr));
            assert!(always.fires(FaultKind::DiskErr));
        }
        assert_eq!(always.injected_total(), 32);
        always.set_armed(false);
        assert!(!always.fires(FaultKind::DiskErr), "disarmed never fires");
        assert_eq!(
            always.injected_total(),
            32,
            "disarmed draws are not counted"
        );
    }

    #[test]
    fn truncated_reader_cuts_the_stream() {
        let data = [7u8; 100];
        let mut r = TruncatedReader::new(&data[..], Some(10));
        let mut out = Vec::new();
        let err = r.read_to_end(&mut out).expect_err("stream dies");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        assert_eq!(out.len(), 10, "budgeted bytes pass through first");

        let mut clean = TruncatedReader::new(&data[..], None);
        let mut out = Vec::new();
        clean.read_to_end(&mut out).expect("no truncation");
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn helpers_expose_bounded_parameters() {
        let inj = FaultInjector::new(
            FaultSpec::quiet(3)
                .with(FaultKind::TruncBody, 1.0)
                .with(FaultKind::Reset, 1.0)
                .with(FaultKind::Slow, 1.0),
        );
        let budget = inj.truncate_after().expect("fires at rate 1");
        assert!((8..64).contains(&budget));
        let cut = inj.reset_after(100).expect("fires at rate 1");
        assert!(cut < 100);
        assert_eq!(inj.slow_for(), Some(Duration::from_millis(25)));
    }
}
