//! Successor replication with hinted handoff for the sharded tier.
//!
//! Every model the cache is an accelerator for is content-addressed and
//! deterministically recomputable, so replication here is
//! divergence-free by construction: a replica copy is a pure cache of a
//! value the key fully determines, racing pushes converge
//! byte-identically, and anti-entropy reduces to key-set exchange.
//! That lets the whole layer be write-through and asynchronous:
//!
//! * On a cache **store** (a profile miss or an ingest) the server
//!   enqueues the key on a bounded queue
//!   ([`ReplicationState::enqueue`]). Overflow drops the work and counts
//!   it — correctness is untouched, only warm-failover locality is lost.
//! * The **replication worker** takes keys off the queue: for each it
//!   pushes the model to every member of the key's replica set (owner +
//!   RF−1 ring successors) except itself, over the internal
//!   `POST /v1/replicate` endpoint. That is the whole round: a store
//!   costs RF−1 pushes, and a receiver does not push onward — the
//!   originator already aimed at every member of the set.
//! * A push toward a down peer, or one that fails, is recorded as a
//!   **hint** — Dynamo-style hinted handoff, specialized to immutable
//!   entries (a hint is just a key). Each worker tick replays hints
//!   whose target is up again, so a restarted owner receives everything
//!   it missed. Hints are the one recovery mechanism: whatever a member
//!   of the set could not be given when the entry was stored, it is
//!   owed until it is back. At most [`MAX_HINTS_PER_PEER`] keys are
//!   owed to one peer; a hint dropped beyond that costs the recovered
//!   peer one recompute, never a wrong byte.
//!
//! The `replicate_err` fault kind drops a queued push deterministically
//! (counted as dropped, recorded as a hint), exercising exactly the
//! retry path a flaky network would.

use crate::cache::ModelStore;
use crate::client::{self, Payload};
use crate::faults::{FaultInjector, FaultKind};
use crate::health::Peers;
use crate::metrics::Endpoint;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Bound on the replication queue: enough for a storm of stores, small
/// enough that a wedged fleet cannot grow memory without bound.
pub const QUEUE_CAPACITY: usize = 256;

/// Most keys owed to one peer: a peer that stays down for long cannot
/// grow the hint table without bound.
pub const MAX_HINTS_PER_PEER: usize = 1024;

/// Per-push network timeout.
const PUSH_TIMEOUT: Duration = Duration::from_secs(5);

/// Shared replication state: the enqueue side lives on the request
/// path, the worker owns the receiving side.
pub struct ReplicationState {
    peers: Arc<Peers>,
    self_addr: String,
    rf: usize,
    store: Arc<ModelStore>,
    faults: Option<Arc<FaultInjector>>,
    /// `Some(key)` is work; `None` wakes the worker to observe `stop`.
    tx: SyncSender<Option<String>>,
    /// Hinted handoff records: peer → keys owed to it. BTree keeps
    /// replay order deterministic.
    hints: Mutex<BTreeMap<String, BTreeSet<String>>>,
    stop: AtomicBool,
    sent: AtomicU64,
    failed: AtomicU64,
    dropped: AtomicU64,
    hints_queued: AtomicU64,
    hints_replayed: AtomicU64,
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

    /// Models successfully pushed to a peer.
    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Pushes that failed (transport or refused).
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Work dropped by queue overflow, an injected `replicate_err`, or
    /// the per-peer hint cap.
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

    fn record_hint(&self, peer: &str, key: &str) {
        let mut hints = self.hints.lock().expect("hints lock");
        let owed = hints.entry(peer.to_string()).or_default();
        if owed.contains(key) {
            return;
        }
        if owed.len() >= MAX_HINTS_PER_PEER {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        owed.insert(key.to_string());
        self.hints_queued.fetch_add(1, Ordering::Relaxed);
    }

    /// Pushes the locally held model for `key` to `peer` once.
    fn push(&self, peer: &str, key: &str) -> Push {
        let Some(stored) = self.store.get(key) else {
            return Push::Gone;
        };
        // The stored JSON is already canonical, so the request body can
        // be framed without re-serializing the model.
        let body = format!("{{\"model_id\":\"{key}\",\"model\":{}}}", stored.json);
        let (row, payload) = (Endpoint::Replicate.row(), Payload::Json(&body));
        match self
            .peers
            .exchange(peer, row.method, row.path, payload, Some(PUSH_TIMEOUT))
        {
            Ok(resp) if resp.is_ok() => {
                self.sent.fetch_add(1, Ordering::Relaxed);
                Push::Sent
            }
            // Deterministic rejection (4xx): retrying cannot change the
            // answer, so do not hint.
            Ok(resp) if !client::RETRYABLE_STATUSES.contains(&resp.status) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                Push::Gone
            }
            _ => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                Push::Failed
            }
        }
    }

    /// Replicates one dequeued key to its replica set (minus self).
    fn replicate_key(&self, key: &str) {
        let targets = self.peers.ring().replica_set(key, self.rf);
        for peer in targets.into_iter().filter(|p| *p != self.self_addr) {
            let fault_drop = self
                .faults
                .as_ref()
                .is_some_and(|f| f.fires(FaultKind::ReplicateErr));
            if fault_drop {
                // The injected network "ate" the push: count the drop
                // and leave a hint so the replay path recovers it.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                self.record_hint(peer, key);
                continue;
            }
            // A down peer is not even tried: the store is owed to it.
            let reached =
                self.peers.available(peer) && !matches!(self.push(peer, key), Push::Failed);
            if !reached {
                self.record_hint(peer, key);
            }
        }
    }

    /// Replays pending hints whose target is up again. Network calls
    /// happen outside the hints lock.
    fn replay_hints(&self) {
        let snapshot: Vec<(String, Vec<String>)> = {
            let hints = self.hints.lock().expect("hints lock");
            hints
                .iter()
                .filter(|(peer, keys)| !keys.is_empty() && self.peers.available(peer))
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
}

/// Handle over the background replication worker; dropping it stops
/// and joins the worker.
pub struct ReplicationWorker {
    state: Arc<ReplicationState>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ReplicationWorker {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // Wake a worker idling in `recv_timeout`; a full queue means it
        // is busy and meets the flag at its next dequeue anyway.
        let _ = self.state.tx.try_send(None);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Builds the replication state over the fleet's `peers` (which include
/// `self_addr`) and spawns its worker. `tick` bounds
/// both the queue poll latency and the hint-replay cadence (the server
/// passes its probe interval).
pub fn spawn(
    peers: Arc<Peers>,
    self_addr: &str,
    rf: usize,
    store: Arc<ModelStore>,
    faults: Option<Arc<FaultInjector>>,
    tick: Duration,
) -> (Arc<ReplicationState>, ReplicationWorker) {
    let (tx, rx) = std::sync::mpsc::sync_channel(QUEUE_CAPACITY);
    let state = Arc::new(ReplicationState {
        peers,
        self_addr: self_addr.to_string(),
        rf: rf.max(1),
        store,
        faults,
        tx,
        hints: Mutex::new(BTreeMap::new()),
        stop: AtomicBool::new(false),
        sent: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
        hints_queued: AtomicU64::new(0),
        hints_replayed: AtomicU64::new(0),
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
        )
        .expect("kmeans issues accesses");
        for key in keys {
            store.insert(key, model.clone());
        }
        store
    }

    /// A fleet whose peers are bound-then-dropped addresses: everything
    /// is unreachable, so pushes fail deterministically.
    /// Hints currently pending, across all peers.
    fn hints_pending(state: &ReplicationState) -> usize {
        state
            .hints
            .lock()
            .expect("hints lock")
            .values()
            .map(BTreeSet::len)
            .sum()
    }

    fn dead_fleet(n: usize) -> (Vec<String>, Arc<Peers>) {
        let fleet: Vec<String> = (0..n)
            .map(|_| {
                let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
                l.local_addr().expect("addr").to_string()
            })
            .collect();
        let peers = Arc::new(Peers::new(&fleet));
        (fleet, peers)
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn unreachable_peers_accumulate_hints_not_blocking() {
        let (fleet, peers) = dead_fleet(2);
        let key = |i: usize| format!("{i:032x}");
        let store = store_with(&[&key(0), &key(1), &key(2)]);
        let (state, worker) = spawn(
            Arc::clone(&peers),
            &fleet[0],
            2,
            store,
            None,
            Duration::from_millis(20),
        );
        state.enqueue(&key(0));
        wait_until("a dead peer yields a failed push or a hint", || {
            state.hints_queued() + state.failed() > 0
        });

        // While the peer stays down every store is owed to it — up to
        // the cap, past which the hint is dropped and counted. The held
        // keys fail their pushes until the peer is down; from then on a
        // hint is recorded without touching the store.
        state.enqueue(&key(1));
        state.enqueue(&key(2));
        wait_until("the dead peer to be down", || {
            state.hints_queued() == 3 && !peers.available(&fleet[1])
        });
        let total = MAX_HINTS_PER_PEER + 10;
        let settled = || (state.hints_queued() + state.dropped()) as usize;
        for i in 3..total {
            // Stay under the queue's own bound: the only drops are the cap's.
            wait_until("the worker to keep up", || {
                i - settled() < QUEUE_CAPACITY / 2
            });
            state.enqueue(&key(i));
        }
        wait_until("every store to settle as a hint or a drop", || {
            settled() == total
        });
        assert_eq!(hints_pending(&state), MAX_HINTS_PER_PEER);
        assert_eq!(state.hints_queued(), MAX_HINTS_PER_PEER as u64);
        assert_eq!(state.dropped(), 10, "overflow is counted, not kept");
        assert_eq!(state.sent(), 0);
        drop(worker);
    }

    #[test]
    fn replicate_err_fault_drops_and_hints() {
        let (fleet, peers) = dead_fleet(2);
        let store = store_with(&["00bb00bb00bb00bb00bb00bb00bb00bb"]);
        let faults = Arc::new(FaultInjector::new(
            crate::faults::FaultSpec::quiet(5).with(FaultKind::ReplicateErr, 1.0),
        ));
        let (state, worker) = spawn(
            peers,
            &fleet[0],
            2,
            store,
            Some(faults.clone()),
            Duration::from_millis(20),
        );
        state.enqueue("00bb00bb00bb00bb00bb00bb00bb00bb");
        wait_until("rate-1.0 replicate_err drops the push", || {
            state.dropped() >= 1
        });
        assert!(faults.injected(FaultKind::ReplicateErr) >= 1);
        assert!(
            hints_pending(&state) >= 1,
            "the dropped push leaves a hint for replay"
        );
        drop(worker);
    }
}
