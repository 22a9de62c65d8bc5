//! Turning the rounds of one run into named metrics, checking pinned
//! outputs, and comparing repeated sets.

use crate::common::{self, Checks, Measured, Op, RunOpts, Workload};
use crate::direct::DirectWorkload;
use crate::json::{arr, boolean, num, obj, text, uint, Json};
use crate::probes;
use crate::registry::{END_TO_END, PER_LAYER};
use crate::service::{IngestStream, ServeFleet, ServeHot};
use crate::span::layer_of;
use crate::stats;
use crate::sweeps::SweepWorkload;
use std::collections::BTreeMap;
use std::path::Path;

/// A measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The number as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

fn value(v: f64, unit: &str) -> Value {
    Value {
        value: v,
        unit: unit.to_string(),
    }
}

/// The report of one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Traced run?
    pub trace: bool,
    /// Output checks attempted and failed, with the first messages.
    pub attempted: u64,
    /// Failed checks.
    pub failed: u64,
    /// First failure messages.
    pub notes: Vec<String>,
    /// The contract's metrics: end-to-end (untraced) or per-layer (traced).
    pub metrics: Vec<(String, Value)>,
    /// Further figures printed and written to `--out` only.
    pub extra: Vec<(String, Value)>,
    /// Deterministic outputs observed (compared with the pinned file at
    /// seed 42).
    pub pins: BTreeMap<String, f64>,
    /// Rounds measured.
    pub rounds: usize,
    /// Operations timed.
    pub samples: usize,
}

fn values_json(values: &[(String, Value)]) -> Json {
    obj(values.iter().map(|(k, v)| {
        (
            k.as_str(),
            obj([("value", num(v.value)), ("unit", text(&v.unit))]),
        )
    }))
}

fn values_from(j: Option<Json>) -> Vec<(String, Value)> {
    j.map(|j| j.members())
        .unwrap_or_default()
        .into_iter()
        .filter_map(|(k, v)| {
            Some((
                k,
                Value {
                    value: v.get("value")?.as_f64()?,
                    unit: v.get("unit")?.as_str()?.to_string(),
                },
            ))
        })
        .collect()
}

impl Report {
    /// The child-to-parent (and `--out`) rendering.
    pub fn to_json(&self) -> Json {
        obj([
            ("workload", text(&self.workload)),
            ("seed", uint(self.seed)),
            ("trace", boolean(self.trace)),
            ("correct", boolean(self.failed == 0)),
            ("attempted", uint(self.attempted)),
            ("failed", uint(self.failed)),
            ("notes", arr(self.notes.iter().map(text))),
            ("rounds", uint(self.rounds as u64)),
            ("samples", uint(self.samples as u64)),
            ("metrics", values_json(&self.metrics)),
            ("extra", values_json(&self.extra)),
            (
                "pins",
                obj(self.pins.iter().map(|(k, v)| (k.as_str(), num(*v)))),
            ),
        ])
    }

    /// Parses [`Report::to_json`].
    pub fn from_json(j: &Json) -> Result<Report, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("child report lacks {k:?}"));
        let count = |k: &str| -> Result<u64, String> {
            field(k)?
                .as_f64()
                .map(|v| v as u64)
                .ok_or_else(|| format!("child report: {k:?} is not a number"))
        };
        Ok(Report {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: count("seed")?,
            trace: field("trace")?.0 == serde::Value::Bool(true),
            attempted: count("attempted")?,
            failed: count("failed")?,
            notes: field("notes")?
                .items()
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
            metrics: values_from(j.get("metrics")),
            extra: values_from(j.get("extra")),
            pins: j
                .get("pins")
                .map(|p| p.members())
                .unwrap_or_default()
                .into_iter()
                .filter_map(|(k, v)| Some((k, v.as_f64()?)))
                .collect(),
            rounds: count("rounds")? as usize,
            samples: count("samples")? as usize,
        })
    }

    /// A metric or extra by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.value)
    }
}

// ---------------------------------------------------------------------
// Pinned outputs
// ---------------------------------------------------------------------

/// Loads `expected/seed42.json`: a flat object of pinned numbers.
pub fn load_expected(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    Ok(doc
        .get("pinned")
        .map(|p| p.members())
        .unwrap_or_default()
        .into_iter()
        .filter_map(|(k, v)| Some((k, v.as_f64()?)))
        .collect())
}

/// Writes `expected/seed42.json`.
pub fn write_expected(path: &Path, pins: &BTreeMap<String, f64>) -> Result<(), String> {
    let doc = obj([
        ("seed", uint(42)),
        ("scale", text("tiny")),
        (
            "note",
            text(
                "Outputs at seed 42 that must repeat to 1e-9: per-figure avg_error and \
                 avg_correlation, service fidelity, simulated statistics. Regenerate with \
                 benchmark/run.sh --update-expected and review the diff.",
            ),
        ),
        (
            "pinned",
            obj(pins.iter().map(|(k, v)| (k.as_str(), num(*v)))),
        ),
    ]);
    std::fs::write(path, doc.pretty() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Tolerance of a pinned value.
const PIN_TOLERANCE: f64 = 1e-9;

fn check_pins(
    observed: &BTreeMap<String, f64>,
    expected: Option<&BTreeMap<String, f64>>,
    checks: &mut Checks,
) {
    let Some(expected) = expected else { return };
    for (key, got) in observed {
        match expected.get(key) {
            Some(want) => checks.check((got - want).abs() <= PIN_TOLERANCE, || {
                format!("{key}: {got} is off its pinned value {want}")
            }),
            None => checks.check(false, || {
                format!("{key} is not pinned in expected/seed42.json")
            }),
        }
    }
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

fn workload(name: &str, opts: &RunOpts, out_dir: &Path) -> Box<dyn Workload> {
    match name {
        "sweep_lru" => Box::new(SweepWorkload::lru(opts)),
        "sweep_prefetch" => Box::new(SweepWorkload::prefetch(opts)),
        "sim_direct" => Box::new(DirectWorkload::new(opts)),
        "serve_hot" => Box::new(ServeHot::new(opts)),
        "serve_fleet" => Box::new(ServeFleet::new(opts)),
        "ingest_stream" => Box::new(IngestStream::new(opts, out_dir.to_path_buf())),
        other => unreachable!("workload {other} passed argument validation"),
    }
}

fn pooled(rounds: &[&common::Round], keep: impl Fn(&Op) -> bool) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| r.ops.iter())
        .filter(|op| keep(op))
        .map(|op| op.ms)
        .collect()
}

/// Runs `name` and reduces its rounds to a report.
pub fn run_workload(
    name: &str,
    opts: &RunOpts,
    out_dir: &Path,
    expected: Option<&BTreeMap<String, f64>>,
) -> Report {
    let mut w = workload(name, opts, out_dir);
    let m: Measured = common::measure(name, w.as_mut(), opts);
    let mut report = Report {
        workload: name.to_string(),
        seed: opts.seed,
        trace: opts.trace,
        rounds: m.rounds.len() + m.traced.len(),
        ..Report::default()
    };
    let mut checks = Checks::default();
    let first = &m.rounds[0];
    for r in m.rounds.iter().chain(m.traced.iter().map(|(r, _)| r)) {
        checks.absorb(r.checks.clone());
        report.samples += r.ops.len();
        // Every round does the same work on the same inputs, so its
        // outputs must not depend on which round it was.
        checks.check(
            r.pins == first.pins
                && r.fidelity_err_pct == first.fidelity_err_pct
                && r.fidelity_corr == first.fidelity_corr,
            || "a round's outputs differ from the first round's".to_string(),
        );
    }
    for (k, v) in &first.pins {
        report.pins.insert(format!("{name}/{k}"), *v);
    }
    report
        .pins
        .insert(format!("{name}/fidelity_err_pct"), first.fidelity_err_pct);
    report
        .pins
        .insert(format!("{name}/fidelity_corr"), first.fidelity_corr);
    checks.check(
        first.fidelity_err_pct.is_finite()
            && first.fidelity_err_pct >= 0.0
            && (-1.0..=1.0).contains(&first.fidelity_corr),
        || {
            format!(
                "fidelity out of range: err {} corr {}",
                first.fidelity_err_pct, first.fidelity_corr
            )
        },
    );

    let untraced: Vec<&common::Round> = m.rounds.iter().collect();
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    if opts.trace {
        let layer = traced_metrics(name, opts, &m, &walls, out_dir, &mut report, &mut checks);
        report.metrics = PER_LAYER
            .iter()
            .map(|(n, unit, _)| {
                (
                    n.to_string(),
                    value(layer.get(n).copied().unwrap_or(0.0), unit),
                )
            })
            .collect();
    } else {
        let cpus: Vec<f64> = untraced.iter().map(|r| r.cpu_s).collect();
        let ops = pooled(&untraced, |_| true);
        let e2e: BTreeMap<&str, f64> = [
            ("setup_s", m.setup_s),
            ("wall_s", stats::median(&walls)),
            ("cpu_s", stats::median(&cpus)),
            ("fidelity_err_pct", first.fidelity_err_pct),
            ("fidelity_corr", first.fidelity_corr),
            ("req_p50_ms", stats::median(&ops)),
        ]
        .into();
        report.metrics = END_TO_END
            .iter()
            .map(|(n, unit, _)| (n.to_string(), value(e2e[n], unit)))
            .collect();
        // Beside the contract's metrics: memory, the tail the sample
        // supports and the per-kind medians, for the reader of the run.
        report
            .extra
            .push(("peak_rss_mb".to_string(), value(m.peak_rss_mb, "MB")));
        if let Some((p, v)) = stats::tail(&ops) {
            report.extra.push((format!("req_p{p}_ms"), value(v, "ms")));
        }
        let wall: f64 = walls.iter().sum();
        report.extra.push((
            "req_per_s".to_string(),
            value(ops.len() as f64 / wall, "1/s"),
        ));
        let mut kinds: Vec<&str> = untraced
            .iter()
            .flat_map(|r| r.ops.iter().map(|o| o.kind))
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        for kind in kinds {
            let ms = pooled(&untraced, |o| o.kind == kind);
            report
                .extra
                .push((format!("{kind}_p50_ms"), value(stats::median(&ms), "ms")));
        }
    }
    check_pins(&report.pins, expected, &mut checks);
    report.attempted = checks.attempted;
    report.failed = checks.failed;
    report.notes = checks.notes;
    report
}

/// Per-layer values of a traced run: span self times (median over the
/// traced rounds), the last traced round's counts, request-level figures,
/// the probes, and the tracing overhead. Writes the trace file.
fn traced_metrics(
    name: &str,
    opts: &RunOpts,
    m: &Measured,
    untraced_walls: &[f64],
    out_dir: &Path,
    report: &mut Report,
    checks: &mut Checks,
) -> BTreeMap<&'static str, f64> {
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Span self time per name and round.
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (_, tracer) in &m.traced {
        let selfs = tracer.self_seconds();
        for (n, ..) in PER_LAYER.iter().filter(|(n, ..)| n.ends_with("_s")) {
            let span = &n[..n.len() - 2];
            per_name
                .entry(n)
                .or_default()
                .push(selfs.get(span).copied().unwrap_or(0.0));
        }
    }
    for (n, v) in per_name {
        if v.iter().any(|&s| s > 0.0) {
            layer.insert(n, stats::median(&v));
        }
    }
    let (last_round, last_tracer) = m.traced.last().expect("a traced run has traced rounds");
    layer.extend(last_round.layer.iter().map(|(k, v)| (*k, *v)));
    layer.insert("peak_rss_mb", m.peak_rss_mb);

    // Share of traced thread time inside a layer (not the harness).
    let selfs = last_tracer.self_seconds();
    let total: f64 = selfs.values().sum();
    let in_layers: f64 = selfs
        .iter()
        .filter(|(n, _)| layer_of(n) != "harness")
        .map(|(_, s)| s)
        .sum();
    if total > 0.0 {
        layer.insert("trace_coverage_share", in_layers / total);
    }
    let traced_walls: Vec<f64> = m.traced.iter().map(|(r, _)| r.wall_s).collect();
    layer.insert(
        "trace_overhead_share",
        stats::median(&traced_walls) / stats::median(untraced_walls) - 1.0,
    );

    // Request-level figures of the service workloads.
    let traced: Vec<&common::Round> = m.traced.iter().map(|(r, _)| r).collect();
    let requests = pooled(&traced, |o| o.kind != "figure");
    if !requests.is_empty() {
        layer.insert("serve.req_p95_ms", stats::percentile(&requests, 95.0));
        layer.insert("serve.req_p99_ms", stats::percentile(&requests, 99.0));
        layer.insert(
            "serve.req_per_s",
            requests.len() as f64 / traced_walls.iter().sum::<f64>(),
        );
        let evaluates = pooled(&traced, |o| o.kind == "evaluate");
        if !evaluates.is_empty() {
            layer.insert("serve.evaluate_p50_ms", stats::median(&evaluates));
        }
    }

    // Fixed-input probes.
    let probed = probes::run_all(opts.seed, opts.threads, out_dir);
    checks.attempted += probed.attempted;
    checks.failed += probed.failures;
    if probed.failures > 0 {
        checks
            .notes
            .push(format!("{} network probes failed", probed.failures));
    }
    report.pins.extend(probed.pins.clone());
    layer.extend(probed.layer);

    let path = out_dir.join(format!("trace-{name}.json"));
    if let Err(e) = std::fs::write(&path, last_tracer.to_json().compact() + "\n") {
        checks.check(false, || format!("{}: {e}", path.display()));
    }
    layer
}

// ---------------------------------------------------------------------
// Repeated sets
// ---------------------------------------------------------------------

/// How sets of runs are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compare {
    /// The same seed run again: the largest relative distance between two
    /// sets must stay within the metric's bound, and fidelity — a pure
    /// function of the seed — must repeat exactly.
    Agreement,
    /// One seed per set, as the benchmark driver judges steadiness: the
    /// distance between the first and third quartile as a share of the
    /// median must stay within the bound (`setup_s` is exempt there).
    Spread,
}

/// Compares every end-to-end metric of every workload across the sets and
/// prints what it saw; returns whether every metric is within its bound.
pub fn compare_sets(sets: &[Vec<Report>], manifest: &Json, how: Compare) -> Result<bool, String> {
    let bounds: BTreeMap<String, f64> = manifest
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .items()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let mut ok = true;
    println!("== {how:?} of {} sets", sets.len());
    for (i, first) in sets[0].iter().enumerate().filter(|(_, r)| !r.trace) {
        for (metric, _) in &first.metrics {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| set.get(i).and_then(|r| r.get(metric)))
                .collect();
            let bound = bounds.get(metric).copied().unwrap_or(0.0);
            let (distance, limit) = match how {
                Compare::Agreement => {
                    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let exact = metric.starts_with("fidelity_");
                    ((hi - lo) / lo.abs(), if exact { 0.0 } else { bound })
                }
                Compare::Spread => {
                    let exempt = metric == "setup_s";
                    (
                        stats::spread(&values).unwrap_or(0.0),
                        if exempt { f64::INFINITY } else { bound },
                    )
                }
            };
            let agrees = distance <= limit;
            ok &= agrees;
            println!(
                "{:<16}{:<20} median {:>14.6}  distance {:>7.4}  bound {:>5.2}  {}",
                first.workload,
                metric,
                stats::median(&values),
                distance,
                bound,
                match (agrees, distance <= bound / 3.0) {
                    (false, _) => "OUT OF BOUND",
                    (true, false) => "ok (over a third of the bound)",
                    (true, true) => "ok",
                }
            );
        }
    }
    Ok(ok)
}
