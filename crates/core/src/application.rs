//! Multi-kernel application support.
//!
//! Real GPGPU applications launch several kernels (paper §2.2); G-MAP
//! profiles each kernel separately — a kernel is the unit of execution
//! regularity — and the clone replays them in order. The cache hierarchy
//! is shared across the sequence, so inter-kernel locality (a later kernel
//! hitting data its predecessor left in the L2) is modeled on both the
//! original and the proxy side.

use crate::error::GmapError;
use crate::generate::generate_streams;
use crate::model::{original_streams, SimOutcome, SimtConfig};
use crate::profile::GmapProfile;
use crate::profiler::{profile_kernel_with_streams, ProfilerConfig};
use gmap_gpu::app::Application;
use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::schedule::{run_schedule, ScheduleOutcome, WarpStream};
use gmap_memsim::hierarchy::GpuHierarchy;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// The shippable profile of a multi-kernel application: one
/// [`GmapProfile`] per kernel, in launch order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppProfile {
    /// Application name.
    pub name: String,
    /// Per-kernel profiles, in launch order.
    pub kernels: Vec<GmapProfile>,
}

impl AppProfile {
    /// The profile of a single-kernel application, named after its kernel.
    pub fn single(kernel: GmapProfile) -> Self {
        AppProfile {
            name: kernel.name.clone(),
            kernels: vec![kernel],
        }
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O errors.
    pub fn save<W: Write>(&self, mut writer: W) -> Result<(), GmapError> {
        let json = serde_json::to_string_pretty(self)?;
        writer.write_all(json.as_bytes())?;
        Ok(())
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Propagates deserialization and I/O errors.
    pub fn load<R: Read>(mut reader: R) -> Result<Self, GmapError> {
        let mut buf = String::new();
        reader.read_to_string(&mut buf)?;
        Self::from_json(&buf)
    }

    /// Renders the application model as compact canonical JSON (see
    /// [`GmapProfile::to_json`]).
    pub fn to_json(&self) -> String {
        crate::cachekey::canonical_json(self)
    }

    /// Parses an application model from a JSON string (compact or pretty).
    ///
    /// # Errors
    ///
    /// Propagates deserialization errors as [`GmapError::Serde`].
    pub fn from_json(json: &str) -> Result<Self, GmapError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Validates every kernel profile.
    ///
    /// # Errors
    ///
    /// Returns [`GmapError::EmptyProfile`] for an empty or inconsistent
    /// application profile.
    pub fn validate(&self) -> Result<(), GmapError> {
        if self.kernels.is_empty() {
            return Err(GmapError::EmptyProfile);
        }
        for k in &self.kernels {
            k.validate()?;
        }
        Ok(())
    }

    /// Total warp-level accesses across kernels.
    pub fn total_warp_accesses(&self) -> u64 {
        self.kernels.iter().map(|k| k.total_warp_accesses).sum()
    }
}

/// Profiles every kernel of an application.
///
/// # Errors
///
/// [`GmapError::EmptyProfile`] if a kernel issues no memory access.
pub fn profile_application(
    app: &Application,
    cfg: &ProfilerConfig,
) -> Result<AppProfile, GmapError> {
    Ok(AppProfile {
        name: app.name.clone(),
        kernels: app
            .kernels
            .iter()
            .map(|k| profile_kernel_with_streams(k, cfg).map(|(_, p)| p))
            .collect::<Result<_, _>>()?,
    })
}

/// Result of simulating a kernel sequence on one shared hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSimOutcome {
    /// Per-kernel scheduling outcomes, in launch order.
    pub per_kernel: Vec<ScheduleOutcome>,
    /// Final (whole-application) simulation state.
    pub total: SimOutcome,
}

/// Simulates a sequence of per-kernel streams on one shared hierarchy.
fn simulate_sequence(
    sequence: &[(Vec<WarpStream>, LaunchConfig)],
    cfg: &SimtConfig,
) -> Result<AppSimOutcome, GmapError> {
    let mut hier = GpuHierarchy::new(cfg.hierarchy)?;
    let mut per_kernel = Vec::with_capacity(sequence.len());
    let mut cycle_base = 0u64;
    for (i, (streams, launch)) in sequence.iter().enumerate() {
        let trace_mark = hier.mem_trace_len();
        let outcome = run_schedule(
            streams,
            launch,
            &cfg.gpu,
            cfg.policy,
            &mut hier,
            cfg.seed.wrapping_add(i as u64),
        );
        // Each schedule counts cycles from zero: move this kernel's memory
        // requests past its predecessors' so the DRAM replay sees one
        // monotonic stream.
        hier.shift_mem_trace_cycles(trace_mark, cycle_base);
        cycle_base += outcome.cycles;
        per_kernel.push(outcome);
    }
    let stats = hier.stats();
    let schedule = per_kernel.last().expect("sequence is non-empty").clone();
    Ok(AppSimOutcome {
        per_kernel,
        total: SimOutcome {
            stats,
            schedule,
            mem_trace: hier.into_mem_trace(),
        },
    })
}

/// Runs the original application: every kernel executed, coalesced and
/// scheduled in order on one hierarchy.
///
/// # Errors
///
/// Returns [`GmapError::Config`] for invalid hierarchy geometry.
pub fn run_application_original(
    app: &Application,
    cfg: &SimtConfig,
) -> Result<AppSimOutcome, GmapError> {
    let sequence: Vec<(Vec<WarpStream>, LaunchConfig)> = app
        .kernels
        .iter()
        .map(|k| (original_streams(k), k.launch))
        .collect();
    simulate_sequence(&sequence, cfg)
}

/// Runs the application clone: every kernel profile regenerated and
/// scheduled in order on one hierarchy.
///
/// # Errors
///
/// Returns [`GmapError::Config`] for invalid hierarchy geometry, or
/// [`GmapError::EmptyProfile`] for an empty application profile.
pub fn run_application_proxy(
    profile: &AppProfile,
    cfg: &SimtConfig,
) -> Result<AppSimOutcome, GmapError> {
    profile.validate()?;
    let sequence: Vec<(Vec<WarpStream>, LaunchConfig)> = profile
        .kernels
        .iter()
        .enumerate()
        .map(|(i, p)| {
            (
                generate_streams(p, cfg.seed.wrapping_add(i as u64)),
                p.launch,
            )
        })
        .collect();
    simulate_sequence(&sequence, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmap_gpu::app::apps;
    use gmap_gpu::workloads::Scale;
    use gmap_memsim::hierarchy::TraceCapture;

    fn cfg() -> SimtConfig {
        let mut cfg = SimtConfig::default();
        cfg.hierarchy.trace_capture = TraceCapture::Full;
        cfg
    }

    #[test]
    fn application_profile_round_trips() {
        let app = apps::backprop_training(Scale::Tiny);
        let profile =
            profile_application(&app, &ProfilerConfig::default()).expect("kernels issue accesses");
        assert_eq!(profile.kernels.len(), 2);
        let mut buf = Vec::new();
        profile.save(&mut buf).expect("save");
        let back = AppProfile::load(&buf[..]).expect("load");
        assert_eq!(profile, back);
        back.validate().expect("valid");
    }

    #[test]
    fn original_runs_all_kernels() {
        let app = apps::kmeans_iterative(Scale::Tiny);
        let out = run_application_original(&app, &cfg()).expect("valid config");
        assert_eq!(out.per_kernel.len(), 3);
        assert!(out.per_kernel.iter().map(|k| k.cycles).sum::<u64>() > 0);
        for k in &out.per_kernel {
            assert!(k.issued_accesses > 0);
        }
        // Trace cycles are monotonically offset across kernels.
        let cycles: Vec<u64> = out.total.mem_trace.iter().map(|r| r.cycle).collect();
        let first_k1 = cycles.first().copied().expect("traffic exists");
        let last = cycles.last().copied().expect("traffic exists");
        assert!(last >= first_k1);
        assert!(
            last >= out.per_kernel[0].cycles,
            "later kernels shifted past kernel 0"
        );
    }

    #[test]
    fn proxy_tracks_original_across_kernels() {
        let app = apps::backprop_training(Scale::Tiny);
        let orig = run_application_original(&app, &cfg()).expect("valid config");
        let profile =
            profile_application(&app, &ProfilerConfig::default()).expect("kernels issue accesses");
        let proxy = run_application_proxy(&profile, &cfg()).expect("valid config");
        let o = orig.total.stats.l1_miss_rate() * 100.0;
        let p = proxy.total.stats.l1_miss_rate() * 100.0;
        assert!(
            (o - p).abs() < 10.0,
            "application-level L1 miss: orig {o:.2}% vs proxy {p:.2}%"
        );
        assert_eq!(proxy.per_kernel.len(), orig.per_kernel.len());
    }

    #[test]
    fn warm_l2_carries_between_kernels() {
        // Running the same kernel twice in one application must hit more
        // at L2 than the two kernels' demands run on cold hierarchies.
        let app = apps::backprop_training(Scale::Tiny);
        let warm = run_application_original(&app, &cfg()).expect("valid config");
        let single = Application::single(app.kernels[0].clone());
        let cold = run_application_original(&single, &cfg()).expect("valid config");
        let warm_rate = warm.total.stats.l2_miss_rate();
        let cold_rate = cold.total.stats.l2_miss_rate();
        assert!(
            warm_rate < cold_rate,
            "second pass should warm the L2: {warm_rate:.3} vs {cold_rate:.3}"
        );
    }

    #[test]
    fn empty_app_profile_rejected() {
        let empty = AppProfile {
            name: "x".into(),
            kernels: vec![],
        };
        assert!(matches!(empty.validate(), Err(GmapError::EmptyProfile)));
        assert!(run_application_proxy(&empty, &cfg()).is_err());
    }
}
