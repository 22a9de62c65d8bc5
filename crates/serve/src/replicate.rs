//! Successor replication with hinted handoff for the sharded tier.
//!
//! Every model the cache is an accelerator for is content-addressed and
//! deterministically recomputable, so replication here is
//! divergence-free by construction: a replica copy is a pure cache of a
//! value the key fully determines, racing pushes converge
//! byte-identically, and anti-entropy reduces to key-set exchange.
//! That lets the whole layer be write-through and asynchronous:
//!
//! * On a cache **store** (a profile miss, an ingest, or a replicate
//!   receive that created a new entry) the server enqueues the key on a
//!   bounded queue ([`ReplicationState::enqueue`]). Overflow drops the
//!   work and counts it — correctness is untouched, only warm-failover
//!   locality is lost.
//! * The **replication worker** drains the queue: for each key it
//!   pushes the model to every member of the key's replica set (owner +
//!   RF−1 ring successors) except itself, over the internal
//!   `POST /v1/replicate` endpoint.
//! * A push toward a peer whose circuit breaker is open is recorded as
//!   a **hint** instead of attempted — Dynamo-style hinted handoff,
//!   specialized to immutable entries (a hint is just a key). Each
//!   worker tick replays hints whose target the health registry admits
//!   again, so a restarted owner receives everything it missed.
//! * Serving a cache **hit** for a key this replica does not own
//!   triggers **read-repair** ([`ReplicationState::read_repair`]): the
//!   key is re-enqueued once, pushing the model back toward its owner.
//!
//! The `replicate_err` fault kind drops a queued push deterministically
//! (counted as dropped, recorded as a hint), exercising exactly the
//! retry path a flaky network would.

use crate::cache::ModelStore;
use crate::client;
use crate::faults::{FaultInjector, FaultKind};
use crate::health::PeerHealth;
use crate::shard::Ring;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Bound on the replication queue: enough for a storm of stores, small
/// enough that a wedged fleet cannot grow memory without bound.
pub const QUEUE_CAPACITY: usize = 256;

/// Per-push network timeout.
const PUSH_TIMEOUT: Duration = Duration::from_secs(5);

/// Shared replication state: the enqueue side lives on the request
/// path, the worker owns the drain side.
pub struct ReplicationState {
    ring: Ring,
    self_addr: String,
    rf: usize,
    store: Arc<ModelStore>,
    health: Arc<PeerHealth>,
    faults: Option<Arc<FaultInjector>>,
    /// `Some(key)` is work; `None` wakes the worker to observe `stop`.
    tx: SyncSender<Option<String>>,
    /// Hinted handoff records: peer → keys owed to it. BTree keeps
    /// replay order deterministic.
    hints: Mutex<BTreeMap<String, BTreeSet<String>>>,
    /// Keys already read-repaired once (the repair is idempotent; the
    /// dedup only bounds queue traffic).
    repaired: Mutex<BTreeSet<String>>,
    stop: AtomicBool,
    sent: AtomicU64,
    failed: AtomicU64,
    dropped: AtomicU64,
    hints_queued: AtomicU64,
    hints_replayed: AtomicU64,
    read_repairs: AtomicU64,
}

/// Outcome of one push attempt.
enum Push {
    /// The peer acknowledged the model.
    Sent,
    /// The model is no longer held locally — nothing to push.
    Gone,
    /// Transport failure or transient status; worth hinting.
    Failed,
}

impl ReplicationState {
    /// Whether this server is the ring owner of `key`.
    pub fn is_owner(&self, key: &str) -> bool {
        self.ring.owner(key) == Some(self.self_addr.as_str())
    }

    /// This server's advertised fleet address.
    pub fn self_addr(&self) -> &str {
        &self.self_addr
    }

    /// The configured replication factor.
    pub fn replication_factor(&self) -> usize {
        self.rf
    }

    /// Enqueues `key` for asynchronous replication to its replica set.
    /// A full queue drops the work (counted) instead of blocking the
    /// request path.
    pub fn enqueue(&self, key: &str) {
        match self.tx.try_send(Some(key.to_string())) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Read-repair: this replica served a hit for a key it does not
    /// own, so the owner is likely missing the entry — push it back.
    /// Deduplicated per key, so storm traffic enqueues each repair
    /// once.
    pub fn read_repair(&self, key: &str) {
        if self.is_owner(key) {
            return;
        }
        let fresh = self
            .repaired
            .lock()
            .expect("repair lock")
            .insert(key.to_string());
        if fresh {
            self.read_repairs.fetch_add(1, Ordering::Relaxed);
            self.enqueue(key);
        }
    }

    /// Models successfully pushed to a peer.
    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Pushes that failed (transport or refused).
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Work dropped by queue overflow or an injected `replicate_err`.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Hints recorded for unreachable peers.
    pub fn hints_queued(&self) -> u64 {
        self.hints_queued.load(Ordering::Relaxed)
    }

    /// Hints successfully replayed.
    pub fn hints_replayed(&self) -> u64 {
        self.hints_replayed.load(Ordering::Relaxed)
    }

    /// Read-repairs triggered.
    pub fn read_repairs(&self) -> u64 {
        self.read_repairs.load(Ordering::Relaxed)
    }

    /// Hints currently pending, across all peers (tests).
    pub fn hints_pending(&self) -> usize {
        self.hints
            .lock()
            .expect("hints lock")
            .values()
            .map(BTreeSet::len)
            .sum()
    }

    fn record_hint(&self, peer: &str, key: &str) {
        let fresh = self
            .hints
            .lock()
            .expect("hints lock")
            .entry(peer.to_string())
            .or_default()
            .insert(key.to_string());
        if fresh {
            self.hints_queued.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pushes the locally held model for `key` to `peer` once.
    fn push(&self, peer: &str, key: &str) -> Push {
        let Some(stored) = self.store.get(key) else {
            return Push::Gone;
        };
        // The stored JSON is already canonical, so the request body can
        // be framed without re-serializing the model.
        let body = format!("{{\"model_id\":\"{key}\",\"model\":{}}}", stored.json);
        match client::request_with_deadline(
            peer,
            "POST",
            "/v1/replicate",
            Some(&body),
            Some(PUSH_TIMEOUT),
        ) {
            Ok(resp) if resp.is_ok() => {
                self.health.record_success(peer);
                self.sent.fetch_add(1, Ordering::Relaxed);
                Push::Sent
            }
            Ok(resp) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                if client::RETRYABLE_STATUSES.contains(&resp.status) {
                    Push::Failed
                } else {
                    // Deterministic rejection (4xx): retrying cannot
                    // change the answer, so do not hint.
                    Push::Gone
                }
            }
            Err(_) => {
                self.health.record_failure(peer);
                self.failed.fetch_add(1, Ordering::Relaxed);
                Push::Failed
            }
        }
    }

    /// Replicates one dequeued key to its replica set (minus self).
    fn replicate_key(&self, key: &str) {
        let targets: Vec<String> = self
            .ring
            .replica_set(key, self.rf)
            .into_iter()
            .filter(|p| *p != self.self_addr)
            .map(str::to_string)
            .collect();
        for peer in targets {
            let fault_drop = self
                .faults
                .as_ref()
                .is_some_and(|f| f.fires(FaultKind::ReplicateErr));
            if fault_drop {
                // The injected network "ate" the push: count the drop
                // and leave a hint so the replay path recovers it.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                self.record_hint(&peer, key);
                continue;
            }
            if !self.health.available(&peer) {
                self.record_hint(&peer, key);
                continue;
            }
            if matches!(self.push(&peer, key), Push::Failed) {
                self.record_hint(&peer, key);
            }
        }
    }

    /// Replays pending hints whose target the health registry admits
    /// again. Network calls happen outside the hints lock.
    fn replay_hints(&self) {
        let snapshot: Vec<(String, Vec<String>)> = {
            let hints = self.hints.lock().expect("hints lock");
            hints
                .iter()
                .filter(|(peer, keys)| !keys.is_empty() && self.health.available(peer))
                .map(|(peer, keys)| (peer.clone(), keys.iter().cloned().collect()))
                .collect()
        };
        for (peer, keys) in snapshot {
            for key in keys {
                let outcome = self.push(&peer, &key);
                match outcome {
                    Push::Sent | Push::Gone => {
                        if let Some(owed) = self.hints.lock().expect("hints lock").get_mut(&peer) {
                            owed.remove(&key);
                        }
                        if matches!(outcome, Push::Sent) {
                            self.hints_replayed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Push::Failed => break, // peer still sick: next tick
                }
            }
        }
    }

    /// Synchronously streams every locally held model to a reachable
    /// member of its replica set (falling back to any ring successor),
    /// for graceful decommission. Returns `(keys, pushed, failed)`.
    pub fn drain_to_successors(&self) -> (usize, usize, usize) {
        let keys = self.store.keys();
        let total = keys.len();
        let mut pushed = 0usize;
        let mut failed = 0usize;
        for key in keys {
            // Preferred targets first (the key's replica set), then the
            // rest of the successor walk: drain must not lose a key
            // just because its first successor is down.
            let walk: Vec<String> = self
                .ring
                .successors(&key)
                .into_iter()
                .filter(|p| *p != self.self_addr)
                .map(str::to_string)
                .collect();
            let mut done = false;
            for peer in walk {
                if !self.health.available(&peer) {
                    continue;
                }
                match self.push(&peer, &key) {
                    Push::Sent | Push::Gone => {
                        done = true;
                        break;
                    }
                    Push::Failed => continue,
                }
            }
            if done {
                pushed += 1;
            } else {
                failed += 1;
            }
        }
        (total, pushed, failed)
    }
}

/// Handle over the background replication worker.
pub struct ReplicationWorker {
    state: Arc<ReplicationState>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ReplicationWorker {
    /// Signals the worker to stop and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // Wake a worker idling in `recv_timeout`; a full queue means it
        // is busy and meets the flag at its next dequeue anyway.
        let _ = self.state.tx.try_send(None);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ReplicationWorker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Builds the replication state and spawns its worker. `tick` bounds
/// both the queue poll latency and the hint-replay cadence (the server
/// passes its probe interval).
pub fn spawn(
    fleet: &[String],
    self_addr: &str,
    rf: usize,
    store: Arc<ModelStore>,
    health: Arc<PeerHealth>,
    faults: Option<Arc<FaultInjector>>,
    tick: Duration,
) -> (Arc<ReplicationState>, ReplicationWorker) {
    let (tx, rx) = std::sync::mpsc::sync_channel(QUEUE_CAPACITY);
    let state = Arc::new(ReplicationState {
        ring: Ring::new(fleet),
        self_addr: self_addr.to_string(),
        rf: rf.max(1),
        store,
        health,
        faults,
        tx,
        hints: Mutex::new(BTreeMap::new()),
        repaired: Mutex::new(BTreeSet::new()),
        stop: AtomicBool::new(false),
        sent: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
        hints_queued: AtomicU64::new(0),
        hints_replayed: AtomicU64::new(0),
        read_repairs: AtomicU64::new(0),
    });
    let worker_state = Arc::clone(&state);
    let tick = tick.max(Duration::from_millis(10));
    let thread = std::thread::Builder::new()
        .name("gmap-replicator".into())
        .spawn(move || worker_loop(&worker_state, &rx, tick))
        .expect("spawn replication worker");
    (
        Arc::clone(&state),
        ReplicationWorker {
            state,
            thread: Some(thread),
        },
    )
}

fn worker_loop(state: &ReplicationState, rx: &Receiver<Option<String>>, tick: Duration) {
    while !state.stop.load(Ordering::SeqCst) {
        match rx.recv_timeout(tick) {
            Ok(Some(key)) => state.replicate_key(&key),
            Err(RecvTimeoutError::Timeout) => {}
            Ok(None) | Err(RecvTimeoutError::Disconnected) => break,
        }
        state.replay_hints();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmap_core::profiler::ProfilerConfig;
    use gmap_gpu::app::Application;
    use gmap_gpu::workloads::{self, Scale};

    fn store_with(keys: &[&str]) -> Arc<ModelStore> {
        let store = Arc::new(ModelStore::new(None).expect("memory store"));
        let kernel = workloads::by_name("kmeans", Scale::Tiny).expect("workload");
        let model = gmap_core::profile_application(
            &Application::single(kernel),
            &ProfilerConfig::default(),
        );
        for key in keys {
            store.insert(key, model.clone());
        }
        store
    }

    /// A fleet whose peers are bound-then-dropped addresses: everything
    /// is unreachable, so pushes fail deterministically.
    fn dead_fleet(n: usize) -> Vec<String> {
        (0..n)
            .map(|_| {
                let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
                l.local_addr().expect("addr").to_string()
            })
            .collect()
    }

    #[test]
    fn unreachable_peers_accumulate_hints_not_blocking() {
        let fleet = dead_fleet(2);
        let store = store_with(&["00aa00aa00aa00aa00aa00aa00aa00aa"]);
        let health = Arc::new(PeerHealth::new(&fleet, Duration::from_secs(60)));
        let (state, worker) = spawn(
            &fleet,
            &fleet[0],
            2,
            store,
            health,
            None,
            Duration::from_millis(20),
        );
        state.enqueue("00aa00aa00aa00aa00aa00aa00aa00aa");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while state.hints_queued() + state.failed() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            state.hints_queued() + state.failed() > 0,
            "a dead peer yields a failed push or a hint"
        );
        assert_eq!(state.sent(), 0);
        worker.stop();
    }

    #[test]
    fn replicate_err_fault_drops_and_hints() {
        let fleet = dead_fleet(2);
        let store = store_with(&["00bb00bb00bb00bb00bb00bb00bb00bb"]);
        let health = Arc::new(PeerHealth::new(&fleet, Duration::from_secs(60)));
        let faults = Arc::new(FaultInjector::new(
            crate::faults::FaultSpec::quiet(5).with(FaultKind::ReplicateErr, 1.0),
        ));
        let (state, worker) = spawn(
            &fleet,
            &fleet[0],
            2,
            store,
            health,
            Some(faults.clone()),
            Duration::from_millis(20),
        );
        state.enqueue("00bb00bb00bb00bb00bb00bb00bb00bb");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while state.dropped() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            state.dropped() >= 1,
            "rate-1.0 replicate_err drops the push"
        );
        assert!(faults.injected(FaultKind::ReplicateErr) >= 1);
        assert!(
            state.hints_pending() >= 1,
            "the dropped push leaves a hint for replay"
        );
        worker.stop();
    }

    #[test]
    fn read_repair_is_owner_aware_and_deduplicated() {
        let fleet = dead_fleet(3);
        let store = store_with(&[]);
        let health = Arc::new(PeerHealth::new(&fleet, Duration::from_secs(60)));
        let (state, worker) = spawn(
            &fleet,
            &fleet[0],
            2,
            store,
            health,
            None,
            Duration::from_millis(20),
        );
        // Find keys this member does / does not own.
        let mut owned = None;
        let mut foreign = None;
        for i in 0..512u64 {
            // Vary the *high* half: 32-hex keys ring-hash their first
            // 16 hex digits (the content-key fast path).
            let key = format!("{:032x}", u128::from(i) << 96 | 0xabcd);
            if state.is_owner(&key) {
                owned.get_or_insert(key);
            } else {
                foreign.get_or_insert(key);
            }
            if owned.is_some() && foreign.is_some() {
                break;
            }
        }
        let owned = owned.expect("some key is owned");
        let foreign = foreign.expect("some key is foreign");
        state.read_repair(&owned);
        assert_eq!(state.read_repairs(), 0, "owned keys never read-repair");
        state.read_repair(&foreign);
        state.read_repair(&foreign);
        assert_eq!(state.read_repairs(), 1, "repairs deduplicate per key");
        worker.stop();
    }

    #[test]
    fn drain_with_no_reachable_peer_reports_failures() {
        let fleet = dead_fleet(2);
        let store = store_with(&[
            "00cc00cc00cc00cc00cc00cc00cc00cc",
            "00dd00dd00dd00dd00dd00dd00dd00dd",
        ]);
        let health = Arc::new(PeerHealth::new(&fleet, Duration::from_secs(60)));
        let (state, worker) = spawn(
            &fleet,
            &fleet[0],
            2,
            store,
            health,
            None,
            Duration::from_millis(20),
        );
        let (keys, pushed, failed) = state.drain_to_successors();
        assert_eq!(keys, 2);
        assert_eq!(pushed, 0);
        assert_eq!(failed, 2, "an unreachable fleet loses nothing silently");
        worker.stop();
    }
}
