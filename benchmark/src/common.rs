//! What every workload shares: options, output checks, the round record,
//! and the loop that repeats fixed rounds of work for the measuring time.

use crate::span::{traced, Tracer};
use crate::stats;
use crate::sys;
use std::collections::BTreeMap;
use std::time::Instant;

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Input seed: clone-generation seed of the sweeps, request-schedule
    /// and clone seed of the service workloads.
    pub seed: u64,
    /// Measuring time; rounds repeat until it has passed.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Sweep threads and server workers: `min(nproc, 4)`.
    pub threads: usize,
    /// How many times set-up runs (the median is reported).
    pub setups: usize,
}

/// Client threads generating service load (closed loop).
pub const CLIENTS: usize = 2;

/// Output checks: every checked value is an attempt, every mismatch a
/// failure. The first few failure messages are kept for the report.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Values checked.
    pub attempted: u64,
    /// Values off.
    pub failed: u64,
    /// First failure messages.
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Folds another set of checks into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// One user-visible operation of a round: a figure call, an HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Operation kind (`figure`, `profile_hit`, `evaluate`, ...).
    pub kind: &'static str,
    /// Wall time in milliseconds.
    pub ms: f64,
}

/// What one round of a workload's fixed work produced.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall time of the timed section.
    pub wall_s: f64,
    /// Process CPU time over the timed section.
    pub cpu_s: f64,
    /// Every operation of the timed section.
    pub ops: Vec<Op>,
    /// Mean clone-vs-original error over the round's validation points.
    pub fidelity_err_pct: f64,
    /// Mean clone-vs-original correlation.
    pub fidelity_corr: f64,
    /// Output checks.
    pub checks: Checks,
    /// Per-layer counts and derived values of this round, by metric name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Deterministic outputs to compare with `expected/seed42.json` when
    /// the seed is 42 (figure summaries, simulated statistics).
    pub pins: BTreeMap<String, f64>,
}

/// Times a section: `(result, wall seconds, CPU seconds)`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, sys::cpu_seconds() - cpu0)
}

/// Times a round's timed section under its root span.
pub fn timed_round<R>(tracer: Option<&Tracer>, f: impl FnOnce() -> R) -> (R, f64, f64) {
    timed(|| traced(tracer, "harness.round", "", f))
}

/// A benchmark workload. `setup` may be called several times — each call
/// replaces whatever the previous one built — and `round` does the same
/// fixed work every time it is called.
pub trait Workload {
    /// Builds inputs, starts servers, computes oracles, warms up.
    fn setup(&mut self);
    /// One round. With a tracer, the work goes through span-wrapped calls
    /// into each layer's public functions.
    fn round(&mut self, tracer: Option<&Tracer>) -> Round;
    /// Stops servers and removes files.
    fn teardown(&mut self);
}

/// Everything measured in one run of one workload.
#[derive(Debug, Default)]
pub struct Measured {
    /// Median set-up time.
    pub setup_s: f64,
    /// `VmHWM` of the process when the rounds are done. Reported, not
    /// bounded: at identical inputs it moves by a third from run to run
    /// with which thread's malloc arena served the largest benchmark.
    pub peak_rss_mb: f64,
    /// Untraced rounds, in order.
    pub rounds: Vec<Round>,
    /// Traced rounds with the tracer of each (traced runs only).
    pub traced: Vec<(Round, Tracer)>,
}

/// Sets up `opts.setups` times, then repeats rounds until the measuring
/// time has passed. A traced run alternates untraced and traced rounds so
/// that both see the same machine state and their ratio is the tracing
/// overhead.
pub fn measure(name: &str, w: &mut dyn Workload, opts: &RunOpts) -> Measured {
    let mut setups = Vec::new();
    for i in 0..opts.setups.max(1) {
        if i > 0 {
            w.teardown();
        }
        let ((), wall, _) = timed(|| w.setup());
        setups.push(wall);
    }
    let mut m = Measured {
        setup_s: stats::median(&setups),
        ..Measured::default()
    };
    let t0 = Instant::now();
    loop {
        m.rounds.push(w.round(None));
        if opts.trace {
            let tracer = Tracer::new(name);
            let round = w.round(Some(&tracer));
            m.traced.push((round, tracer));
        }
        if t0.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    m.peak_rss_mb = sys::peak_rss_mb();
    w.teardown();
    m
}
