//! Workspace determinism lint, run as a tier-1 test (CI's `cargo test -q`).
//!
//! The simulation crates must produce bit-identical results across runs
//! and platforms, so iterating a `HashMap`/`HashSet` in them is a bug
//! unless the site provably derives an order-independent result — those
//! sites are recorded in `scripts/determinism_allowlist.txt` with a
//! justification. See `gmap_analyze::detlint` for the lint itself.

use gmap::analyze::detlint::{lint_dirs, parse_allowlist, stale_entries};
use std::path::Path;

/// The source roots whose outputs are part of the deterministic
/// contract: profiles, clone traces, simulation statistics, and the
/// service layer (responses must be byte-identical to direct library
/// calls). `trace` joined the list with the SoA capture columns and
/// batch kernels — the columns feed every downstream hit-rate count, so
/// ordering there is load-bearing too. `ingest` joined with the
/// streaming profiler: its output must be byte-identical to the
/// materialize-then-profile path, and its heat-map report is
/// content-keyed. `analyze` joined with the race detector (verdict and
/// witness selection must be reproducible — findings gate admission and
/// fail CI), `bench` with the sweep engine (figure data is diffed
/// against golden files), and the top-level `src` because the CLI
/// renders reports that scripts diff. The `serve` root also covers the
/// consistent-hash shard ring (`shard.rs`): replica placement must be
/// identical on every node, so the ring is a sorted point array scanned
/// in order — no hash-map iteration to allowlist.
const LINTED_DIRS: &[&str] = &[
    "crates/memsim/src",
    "crates/gpu/src",
    "crates/dram/src",
    "crates/core/src",
    "crates/serve/src",
    "crates/trace/src",
    "crates/ingest/src",
    "crates/analyze/src",
    "crates/bench/src",
    "src",
];

fn allowlist_text(root: &Path) -> String {
    std::fs::read_to_string(root.join("scripts/determinism_allowlist.txt"))
        .expect("allowlist readable")
}

#[test]
fn simulation_crates_do_not_iterate_hash_maps() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let allow = parse_allowlist(&allowlist_text(root));
    assert!(
        allow.iter().all(|e| !e.justification.is_empty()),
        "every allowlist entry needs a justification"
    );
    let findings = lint_dirs(root, LINTED_DIRS, &allow).expect("roots lintable");
    assert!(
        findings.is_empty(),
        "nondeterministic hash iteration in deterministic-contract code \
         (sort the keys, switch to BTreeMap, or justify the site in \
         scripts/determinism_allowlist.txt):\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn allowlist_entries_each_suppress_a_live_finding() {
    // Every allowlist entry must still match a finding the lint would
    // otherwise raise: lint with an *empty* allowlist for ground truth,
    // then demand each entry suppresses at least one of those findings.
    // An entry whose site was fixed, renamed, or moved rots into a
    // blanket permission for whatever next reuses the binding name.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let allow = parse_allowlist(&allowlist_text(root));
    let ground_truth = lint_dirs(root, LINTED_DIRS, &[]).expect("roots lintable");
    let stale = stale_entries(&ground_truth, &allow);
    assert!(
        stale.is_empty(),
        "stale determinism-allowlist entries (they no longer suppress any \
         finding — delete them from scripts/determinism_allowlist.txt):\n{}",
        stale
            .iter()
            .map(|e| format!("{}:{}  {}", e.file, e.binding, e.justification))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
