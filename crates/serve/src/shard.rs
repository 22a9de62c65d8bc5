//! Consistent-hash ring over the FNV-128 content-key space.
//!
//! The model cache is content-addressed: every pipeline request either
//! carries a model id outright (`/v1/clone`, `/v1/evaluate`) or fully
//! determines one before any work happens (`/v1/profile` hashes the
//! canonical workload spec). That 128-bit FNV key is therefore the
//! natural shard key — no second hash family, no coordination, and the
//! router can compute the owner of a request from nothing but its body.
//!
//! The ring places [`DEFAULT_VNODES`] virtual nodes per replica at
//! pseudo-random points on a `u64` circle (each vnode point is the high
//! half of `content_key("{peer}#{index}")` — the same FNV-128 family the
//! keys themselves use — spread through a bijective `mix64` finalizer,
//! because FNV's high bits disperse poorly on short labels). A key is
//! owned by the first vnode at or
//! clockwise after its own point. Virtual nodes smooth the load (the
//! balance proptest bounds the max/min ratio) and make membership
//! changes minimal: adding or removing one replica only moves the keys
//! that replica owns — everything else keeps its owner bit-for-bit
//! (the remapping proptest bounds the moved fraction by `2/N + ε`).
//!
//! Determinism: the ring is a sorted `Vec` scanned in point order —
//! construction and lookup never iterate a hash map, so the same peer
//! set always yields the same assignment regardless of the order the
//! peers were listed in.

use crate::api::{CloneRequest, EvaluateRequest, ProfileRequest};
use crate::handlers;
use crate::metrics::Endpoint;
use gmap_core::cachekey;
use gmap_trace::rng::mix64;

/// Virtual nodes per replica. 128 keeps the max/min load ratio low
/// (see the balance proptest) at a negligible memory cost.
pub const DEFAULT_VNODES: usize = 128;

/// A consistent-hash ring mapping content keys to replica addresses.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, peer index)` sorted by point (then index, for the
    /// astronomically unlikely collision) — a fully ordered scan.
    points: Vec<(u64, usize)>,
    peers: Vec<String>,
}

impl Ring {
    /// Builds a ring with [`DEFAULT_VNODES`] virtual nodes per peer.
    pub fn new(peers: &[String]) -> Ring {
        let mut points = Vec::with_capacity(peers.len() * DEFAULT_VNODES);
        for (index, peer) in peers.iter().enumerate() {
            for v in 0..DEFAULT_VNODES {
                points.push((ring_point(&format!("{peer}#{v}")), index));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            peers: peers.to_vec(),
        }
    }

    /// The replica addresses this ring was built over, in listing order.
    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    /// Whether the ring has no replicas at all.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// The replica owning `key`, or `None` on an empty ring.
    pub fn owner(&self, key: &str) -> Option<&str> {
        self.successors(key).into_iter().next()
    }

    /// Every distinct replica in ring order starting at `key`'s owner:
    /// the failover order. Any replica serves any request correctly
    /// (the cache is an accelerator over a content-addressed pipeline),
    /// so walking this list on transport failure preserves
    /// byte-identical results — it only costs cache locality.
    pub fn successors(&self, key: &str) -> Vec<&str> {
        let mut order = Vec::with_capacity(self.peers.len());
        if self.points.is_empty() {
            return order;
        }
        let mut seen = vec![false; self.peers.len()];
        let point = key_point(key);
        let start = self.points.partition_point(|&(p, _)| p < point);
        for offset in 0..self.points.len() {
            let (_, peer) = self.points[(start + offset) % self.points.len()];
            if !seen[peer] {
                seen[peer] = true;
                order.push(self.peers[peer].as_str());
                if order.len() == self.peers.len() {
                    break;
                }
            }
        }
        order
    }

    /// The replica set of `key` under replication factor `rf`: the
    /// owner plus its first `rf − 1` distinct ring successors. These
    /// are the peers that hold (or should hold) a replica of the
    /// model. With fewer than `rf` peers, every peer is in the set.
    ///
    /// Because the set is a prefix of the successor walk, replica sets
    /// inherit the ring's minimal-remapping property: removing a peer
    /// only changes the sets that contained it (the membership
    /// proptest below pins this down).
    pub fn replica_set(&self, key: &str, rf: usize) -> Vec<&str> {
        let mut order = self.successors(key);
        order.truncate(rf.max(1));
        order
    }
}

/// The ring point of a shard key. A well-formed content key is 32 lower
/// hex characters; its high half, finalized through [`mix64`], is the
/// point. Any other string (fallback keys for unroutable bodies) is
/// first digested through the same FNV-128.
///
/// The finalizer matters: FNV-1a folds each input byte into the low
/// end of the state and the prime multiplication moves entropy upward
/// only slowly, so for short inputs (vnode labels, ingest paths) the
/// digest's *high* 64 bits cluster badly. `mix64` is a bijection, so
/// no two distinct halves collide because of it — it only spreads
/// them uniformly around the circle (the balance proptest fails
/// without it).
fn key_point(key: &str) -> u64 {
    if key.len() == 32 && key.bytes().all(|b| b.is_ascii_hexdigit()) {
        mix64(u64::from_str_radix(&key[..16], 16).expect("checked hex"))
    } else {
        ring_point(key)
    }
}

/// The ring point of a vnode label (or non-hex fallback key): the high
/// half of its FNV-128 content key, finalized through [`mix64`] (see
/// [`key_point`] for why the finalizer is load-bearing).
fn ring_point(label: &str) -> u64 {
    let digest = cachekey::content_key(label);
    mix64(u64::from_str_radix(&digest[..16], 16).expect("content key is hex"))
}

/// The shard key of a request — the model id it will read or create —
/// when that id is derivable without executing anything:
///
/// * profile: resolved exactly as the replica would (named workload +
///   scale, or the inline spec's own content key);
/// * clone, evaluate: the `model_id` field verbatim;
/// * ingest: the resulting model id is the hash of a model that
///   does not exist yet, so the stream routes by the identity of its
///   query string (same trace name + launch geometry ⇒ same replica);
/// * anything else (including unparseable bodies): `None` — the caller
///   falls back to hashing the raw body, which keeps the choice
///   deterministic and lets the owning replica produce the exact 4xx
///   the request deserves.
pub fn request_key(path: &str, body: &str) -> Option<String> {
    match Endpoint::at(path)? {
        Endpoint::Profile => {
            let req: ProfileRequest = serde_json::from_str(body).ok()?;
            handlers::request_model_id(&req).ok()
        }
        Endpoint::Clone => serde_json::from_str::<CloneRequest>(body)
            .ok()
            .map(|r| r.model_id),
        Endpoint::Evaluate => serde_json::from_str::<EvaluateRequest>(body)
            .ok()
            .map(|r| r.model_id),
        Endpoint::Ingest => Some(cachekey::content_key(path)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmap_trace::rng::mix64;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn peer_list(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:80{i:02}")).collect()
    }

    /// A synthetic but well-formed 32-hex content key.
    fn synth_key(seed: u64, i: u64) -> String {
        format!(
            "{:016x}{:016x}",
            mix64(seed ^ i),
            mix64(seed ^ i ^ 0xdead_beef)
        )
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = Ring::new(&[]);
        assert!(ring.is_empty());
        assert_eq!(ring.owner("00112233445566778899aabbccddeeff"), None);
        assert!(ring.successors("anything").is_empty());
    }

    #[test]
    fn single_peer_owns_everything() {
        let ring = Ring::new(&peer_list(1));
        for i in 0..64 {
            assert_eq!(ring.owner(&synth_key(1, i)), Some("10.0.0.0:8000"));
        }
    }

    #[test]
    fn successors_cover_every_peer_exactly_once() {
        let peers = peer_list(5);
        let ring = Ring::new(&peers);
        for i in 0..32 {
            let order = ring.successors(&synth_key(2, i));
            assert_eq!(order.len(), peers.len());
            let mut sorted: Vec<_> = order.clone();
            sorted.sort_unstable();
            let mut want: Vec<_> = peers.iter().map(String::as_str).collect();
            want.sort_unstable();
            assert_eq!(sorted, want, "failover order visits each peer once");
            assert_eq!(order[0], ring.owner(&synth_key(2, i)).expect("non-empty"));
        }
    }

    #[test]
    fn assignment_is_independent_of_peer_listing_order() {
        let peers = peer_list(4);
        let mut reversed = peers.clone();
        reversed.reverse();
        let a = Ring::new(&peers);
        let b = Ring::new(&reversed);
        for i in 0..256 {
            let key = synth_key(3, i);
            assert_eq!(
                a.owner(&key),
                b.owner(&key),
                "listing order must not matter"
            );
        }
    }

    #[test]
    fn non_hex_keys_are_hashed_not_rejected() {
        let ring = Ring::new(&peer_list(3));
        // Same fallback key, same owner; different keys spread.
        assert_eq!(
            ring.owner("not a content key"),
            ring.owner("not a content key")
        );
        assert!(ring.owner("fallback-a").is_some());
    }

    #[test]
    fn request_key_extracts_the_model_id() {
        let profile = r#"{"workload":"kmeans","scale":"tiny"}"#;
        let id = request_key("/v1/profile", profile).expect("routable");
        assert_eq!(id, handlers::model_id_for("kmeans", "tiny"));
        let eval = format!("{{\"model_id\":\"{id}\",\"grid\":[]}}");
        assert_eq!(request_key("/v1/evaluate", &eval), Some(id.clone()));
        let clone = format!("{{\"model_id\":\"{id}\"}}");
        assert_eq!(request_key("/v1/clone", &clone), Some(id));
        // Ingest routes by query identity, deterministically.
        let a = request_key("/v1/ingest?grid=2&block=32&name=t", "");
        assert_eq!(a, request_key("/v1/ingest?grid=2&block=32&name=t", ""));
        assert!(a.is_some());
        assert_ne!(a, request_key("/v1/ingest?grid=4&block=32&name=t", ""));
        // Unroutable inputs are None, not a panic.
        assert_eq!(request_key("/v1/profile", "not json"), None);
        assert_eq!(request_key("/healthz", ""), None);
    }

    #[test]
    fn request_key_exists_exactly_for_the_rows_a_router_forwards() {
        let bodies = [
            r#"{"workload":"kmeans","scale":"tiny"}"#,
            r#"{"model_id":"00112233445566778899aabbccddeeff","grid":[]}"#,
        ];
        for row in &crate::metrics::TABLE {
            let keyed = bodies.iter().any(|b| request_key(row.path, b).is_some());
            assert_eq!(keyed, row.forwarded, "{}", row.path);
        }
    }

    fn load_per_peer(ring: &Ring, seed: u64, keys: u64) -> BTreeMap<String, u64> {
        let mut load = BTreeMap::new();
        for i in 0..keys {
            let owner = ring.owner(&synth_key(seed, i)).expect("non-empty ring");
            *load.entry(owner.to_string()).or_insert(0) += 1;
        }
        load
    }

    proptest! {
        /// Key-distribution balance: with 128 vnodes per replica the
        /// busiest replica carries at most 2× the quietest.
        #[test]
        fn ring_load_is_balanced(n in 2usize..7, seed in any::<u64>()) {
            let ring = Ring::new(&peer_list(n));
            let keys = 4096u64;
            let load = load_per_peer(&ring, seed, keys);
            prop_assert_eq!(load.len(), n, "every replica owns some keys");
            let max = *load.values().max().expect("non-empty");
            let min = *load.values().min().expect("non-empty");
            prop_assert!(
                max as f64 / min as f64 <= 2.0,
                "max/min load ratio {}/{} exceeds 2.0 across {} vnodes",
                max, min, DEFAULT_VNODES
            );
        }

        /// Minimal remapping on membership change: removing one of N
        /// replicas only moves the keys it owned (≤ 2/N + ε of all
        /// keys), and every surviving key keeps its owner bit-for-bit.
        /// The join direction is the same statement read backwards.
        #[test]
        fn membership_change_moves_few_keys(n in 3usize..8, seed in any::<u64>()) {
            let peers = peer_list(n);
            let full = Ring::new(&peers);
            let reduced = Ring::new(&peers[..n - 1]);
            let removed = peers[n - 1].as_str();
            let keys = 2048u64;
            let mut moved = 0u64;
            for i in 0..keys {
                let key = synth_key(seed, i);
                let before = full.owner(&key).expect("non-empty");
                let after = reduced.owner(&key).expect("non-empty");
                if before == removed {
                    moved += 1;
                    // Orphaned keys land on their failover successor.
                    let successor = full
                        .successors(&key)
                        .into_iter()
                        .find(|p| *p != removed)
                        .expect("another replica exists");
                    prop_assert_eq!(after, successor, "orphans move to the successor");
                } else {
                    prop_assert_eq!(before, after, "survivors never move");
                }
            }
            let bound = 2.0 / n as f64 + 0.05;
            prop_assert!(
                (moved as f64 / keys as f64) <= bound,
                "moved fraction {}/{} exceeds 2/N + ε = {}",
                moved, keys, bound
            );
        }

        /// RF=2 replica sets are genuinely redundant: for every key on
        /// a 2–7-replica fleet, the owner and its first successor are
        /// distinct peers, the set is exactly the first two entries of
        /// the failover order, and it is capped by the fleet size.
        #[test]
        fn owner_and_first_successor_are_distinct(n in 2usize..7, seed in any::<u64>()) {
            let ring = Ring::new(&peer_list(n));
            for i in 0..512u64 {
                let key = synth_key(seed, i);
                let set = ring.replica_set(&key, 2);
                prop_assert_eq!(set.len(), 2.min(n));
                prop_assert!(set[0] != set[1], "owner replicates to a different peer");
                prop_assert_eq!(set[0], ring.owner(&key).expect("non-empty"));
                let order = ring.successors(&key);
                prop_assert_eq!(&order[..set.len()], &set[..], "set is a walk prefix");
                // An oversized rf degrades to the whole fleet, never panics.
                prop_assert_eq!(ring.replica_set(&key, n + 3).len(), n);
            }
        }

        /// Replica-set membership moves minimally on leave (and, read
        /// backwards, on join): a set that did not contain the removed
        /// peer is unchanged bit-for-bit, and the fraction of keys
        /// whose set changes at all is bounded by the removed peer's
        /// expected share of set slots (≈ 2·(2/N)).
        #[test]
        fn replica_sets_move_minimally_on_membership_change(
            n in 3usize..8, seed in any::<u64>()
        ) {
            let peers = peer_list(n);
            let full = Ring::new(&peers);
            let reduced = Ring::new(&peers[..n - 1]);
            let removed = peers[n - 1].as_str();
            let keys = 1024u64;
            let mut changed = 0u64;
            for i in 0..keys {
                let key = synth_key(seed, i);
                let before = full.replica_set(&key, 2);
                let after = reduced.replica_set(&key, 2);
                if before.contains(&removed) {
                    changed += 1;
                    // The survivor of the old set is still in the new
                    // one: the replica copy stays useful after the
                    // membership change.
                    let survivor = before
                        .iter()
                        .find(|p| **p != removed)
                        .expect("rf=2 set has a survivor");
                    prop_assert!(
                        after.contains(survivor),
                        "survivor {} dropped from {:?}",
                        survivor, after
                    );
                } else {
                    prop_assert_eq!(
                        &before, &after,
                        "sets without the removed peer never change"
                    );
                }
            }
            // The removed peer appears in ~2/N of owner slots and
            // ~2/N of successor slots; double it and pad for variance.
            let bound = 2.0 * (2.0 / n as f64) + 0.08;
            prop_assert!(
                (changed as f64 / keys as f64) <= bound,
                "changed fraction {}/{} exceeds 2·(2/N) + ε = {}",
                changed, keys, bound
            );
        }
    }
}
