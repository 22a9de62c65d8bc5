//! Pins the preparation phase (paper §4: execute → coalesce → profile →
//! clone) for every builtin at `tiny` and `small`. Per benchmark,
//! `tests/golden/prepare_keys.json` holds four FNV-1a 128-bit keys:
//!
//! - `exec`: the executed trace, streamed warp by warp in order (warp,
//!   event, pc, kind, lane, address — barriers included);
//! - `streams`: the `coalesce_app` streams at 128 B, streamed the same way
//!   (warp, block, event, pc, kind, lines);
//! - `profile`: `cachekey::key_of` of the profile;
//! - `clone`: `generate_streams(profile, 42)`, streamed like `streams`.
//!
//! A whole-trace key is the key of its per-warp keys, and `warps` holds
//! eight hex digits per warp digesting that warp's exec, stream and
//! clone keys, so a mismatch names the first warp that differs. A rewrite
//! of the executor, the coalescer, the profiler or the reuse-distance
//! kernel that moves one address or one count fails here.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test prepare_keys
//! ```

use gmap::core::cachekey::key_of;
use gmap::core::generate::generate_streams;
use gmap::core::profiler::{profile_streams, ProfilerConfig};
use gmap::core::COALESCE_BYTES;
use gmap::gpu::coalesce::coalesce_app;
use gmap::gpu::exec::{execute_kernel, WarpEvent, WarpTrace};
use gmap::gpu::schedule::{WarpStream, WarpStreamEvent};
use gmap::gpu::workloads::{self, Scale};
use gmap::trace::record::AccessKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Streaming 128-bit FNV-1a.
#[derive(Clone, Copy)]
struct Fnv128(u128);

impl Fnv128 {
    const BASIS: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    fn new() -> Self {
        Fnv128(Self::BASIS)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn kind(&mut self, kind: AccessKind) -> &mut Self {
        self.bytes(&[u8::from(kind == AccessKind::Write)])
    }

    fn hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

/// Key of one executed warp: every event in order, every active lane's
/// `(lane, address)` in lane order.
fn exec_warp_key(wt: &WarpTrace) -> u128 {
    let mut h = Fnv128::new();
    h.u64(u64::from(wt.warp.0)).u64(u64::from(wt.block));
    for (e, ev) in wt.events.iter().enumerate() {
        h.u64(e as u64);
        match ev {
            WarpEvent::Access {
                pc,
                kind,
                lane_addrs,
            } => {
                h.u64(pc.0).kind(*kind).u64(lane_addrs.len() as u64);
                for &(lane, addr) in lane_addrs {
                    h.bytes(&[lane]).u64(addr.0);
                }
            }
            WarpEvent::Sync => {
                h.u64(u64::MAX);
            }
        }
    }
    h.0
}

/// Key of one coalesced (or generated) warp stream.
fn stream_warp_key(ws: &WarpStream) -> u128 {
    let mut h = Fnv128::new();
    h.u64(u64::from(ws.warp.0)).u64(u64::from(ws.block));
    for (e, ev) in ws.events.iter().enumerate() {
        h.u64(e as u64);
        match ev {
            WarpStreamEvent::Access(a) => {
                h.u64(a.pc.0).kind(a.kind).u64(a.lines.len() as u64);
                for l in &a.lines {
                    h.u64(l.0);
                }
            }
            WarpStreamEvent::Sync => {
                h.u64(u64::MAX);
            }
        }
    }
    h.0
}

/// The key of a sequence of per-warp keys.
fn key_of_keys(keys: &[u128]) -> String {
    let mut h = Fnv128::new();
    h.u64(keys.len() as u64);
    for k in keys {
        h.bytes(&k.to_le_bytes());
    }
    h.hex()
}

/// The pinned keys of one benchmark's preparation.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
struct PrepareKeys {
    exec: String,
    streams: String,
    profile: String,
    clone: String,
    /// Eight hex digits per warp: a digest of that warp's exec, stream
    /// and clone keys.
    warps: String,
}

impl PrepareKeys {
    /// Index of the first warp whose digest differs from `other`'s.
    fn first_differing_warp(&self, other: &PrepareKeys) -> Option<usize> {
        let (a, b) = (self.warps.as_bytes(), other.warps.as_bytes());
        let n = a.len().max(b.len()).div_ceil(8);
        (0..n).find(|&w| a.get(w * 8..w * 8 + 8) != b.get(w * 8..w * 8 + 8))
    }
}

fn prepare_keys(scale: Scale, name: &str) -> PrepareKeys {
    let kernel = workloads::by_name(name, scale).expect("known builtin");
    let app = execute_kernel(&kernel);
    let streams = coalesce_app(&app, COALESCE_BYTES);
    let profile = profile_streams(
        &kernel.name,
        &streams,
        &app.launch,
        app.warp_size,
        &ProfilerConfig::default(),
    )
    .expect("builtins have memory accesses");
    let clone = generate_streams(&profile, 42);
    let exec: Vec<u128> = app.warps.iter().map(exec_warp_key).collect();
    let orig: Vec<u128> = streams.iter().map(stream_warp_key).collect();
    let cloned: Vec<u128> = clone.iter().map(stream_warp_key).collect();
    let n = exec.len().max(orig.len()).max(cloned.len());
    let warps = (0..n)
        .map(|w| {
            let mut h = Fnv128::new();
            for k in [&exec, &orig, &cloned] {
                h.bytes(&k.get(w).copied().unwrap_or(0).to_le_bytes());
            }
            format!("{:08x}", h.0 as u32)
        })
        .collect();
    PrepareKeys {
        exec: key_of_keys(&exec),
        streams: key_of_keys(&orig),
        profile: key_of(&profile),
        clone: key_of_keys(&cloned),
        warps,
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/prepare_keys.json")
}

fn check_scale(scale: Scale) {
    let got: BTreeMap<String, PrepareKeys> = workloads::NAMES
        .iter()
        .map(|name| {
            (
                format!("{}/{name}", scale.name()),
                prepare_keys(scale, name),
            )
        })
        .collect();
    let raw = std::fs::read_to_string(golden_path()).unwrap_or_else(|_| "[]".into());
    let mut want: BTreeMap<String, PrepareKeys> =
        serde_json::from_str(&raw).expect("golden parses");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        // Both scales share one file; a test rewrites only its own rows.
        // Run with `--test-threads 1` so the two rewrites do not race.
        want.retain(|k, _| !k.starts_with(&format!("{}/", scale.name())));
        want.extend(got);
        let json = serde_json::to_string_pretty(&want).expect("golden serializes");
        std::fs::write(golden_path(), json + "\n").expect("golden file is writable");
        return;
    }
    for (what, keys) in &got {
        let pinned = want
            .get(what)
            .unwrap_or_else(|| panic!("{what}: not in tests/golden/prepare_keys.json"));
        if keys == pinned {
            continue;
        }
        let layers: Vec<&str> = [
            ("exec", keys.exec != pinned.exec),
            ("streams", keys.streams != pinned.streams),
            ("profile", keys.profile != pinned.profile),
            ("clone", keys.clone != pinned.clone),
        ]
        .into_iter()
        .filter_map(|(layer, differs)| differs.then_some(layer))
        .collect();
        panic!(
            "{what}: preparation drifted from golden in {layers:?}; first differing warp: {:?} \
             (rerun with UPDATE_GOLDEN=1 if the change is intentional)",
            keys.first_differing_warp(pinned)
        );
    }
}

#[test]
fn tiny_preparation_matches_golden() {
    check_scale(Scale::Tiny);
}

#[test]
fn small_preparation_matches_golden() {
    check_scale(Scale::Small);
}
