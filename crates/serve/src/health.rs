//! Peer health registry: a per-replica circuit breaker fed by passive
//! request outcomes and periodic active `/healthz` probes.
//!
//! Every component that talks to peers — the router's failover walk,
//! [`crate::client::PeerClient`], and the replication worker — shares
//! one [`PeerHealth`] registry. The breaker runs the classic three
//! states per peer:
//!
//! * **Closed** (healthy): requests flow; consecutive transport
//!   failures are counted.
//! * **Open** (ejected): after [`FAILURE_THRESHOLD`] consecutive
//!   failures the peer is skipped entirely — callers stop paying its
//!   connect timeout. Each Closed→Open transition increments
//!   `gmap_peer_ejections_total`.
//! * **Half-open**: once the cooldown elapses, the next caller (or the
//!   prober) is let through as a trial. Success closes the breaker
//!   (counted in `gmap_peer_recoveries_total`); failure re-opens it and
//!   restarts the cooldown.
//!
//! Orthogonally to the breaker, a peer can advertise **draining** via
//! its `/healthz` body: it is alive (it still answers, still serves its
//! cache) but asks not to receive new keyed traffic while it streams
//! its models to successors. Routing walks treat draining like
//! ejection — skip with fallback — but the breaker state is untouched.
//!
//! The active prober ([`spawn_prober`]) GETs `/healthz` from every peer
//! each probe interval with a short timeout, feeding the same
//! success/failure edges the passive path uses. This bounds
//! recovery-detection latency even when no client traffic touches the
//! dead peer, which is what makes hinted-handoff replay prompt.

use crate::client;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Consecutive transport failures that open a peer's breaker.
pub const FAILURE_THRESHOLD: u32 = 3;

/// Multiple of the probe interval an open breaker waits before
/// half-opening. Two intervals guarantees at least one full probe cycle
/// passes before the trial request.
pub const COOLDOWN_INTERVALS: u32 = 2;

/// Breaker state of one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    /// Healthy: requests flow.
    Closed,
    /// Ejected: skipped until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one trial in flight decides the next state.
    HalfOpen,
}

/// Mutable per-peer slot behind the registry lock.
#[derive(Debug)]
struct Slot {
    state: Breaker,
    consecutive_failures: u32,
    /// When the breaker last opened (drives the cooldown).
    opened_at: Option<Instant>,
    draining: bool,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            state: Breaker::Closed,
            consecutive_failures: 0,
            opened_at: None,
            draining: false,
        }
    }
}

/// A point-in-time view of one peer, for `/metrics` gauges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerStatus {
    /// The peer's `host:port` address.
    pub peer: String,
    /// Whether the breaker currently admits requests (closed or
    /// half-open).
    pub up: bool,
    /// Whether the peer advertises draining.
    pub draining: bool,
}

/// The shared health registry over a fixed peer list.
#[derive(Debug)]
pub struct PeerHealth {
    /// Peer addresses in listing order; slots are index-parallel.
    peers: Vec<String>,
    slots: Mutex<Vec<Slot>>,
    cooldown: Duration,
    ejections: AtomicU64,
    recoveries: AtomicU64,
}

impl PeerHealth {
    /// Builds a registry over `peers` with every breaker closed. The
    /// cooldown before half-opening is [`COOLDOWN_INTERVALS`] probe
    /// intervals.
    pub fn new(peers: &[String], probe_interval: Duration) -> PeerHealth {
        PeerHealth {
            peers: peers.to_vec(),
            slots: Mutex::new(peers.iter().map(|_| Slot::new()).collect()),
            cooldown: probe_interval * COOLDOWN_INTERVALS,
            ejections: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        }
    }

    /// The peer addresses this registry tracks, in listing order.
    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    fn index_of(&self, peer: &str) -> Option<usize> {
        self.peers.iter().position(|p| p == peer)
    }

    /// Whether `peer` should be attempted right now. Open breakers
    /// return `false` until their cooldown elapses, then flip to
    /// half-open and admit a trial. Unknown peers are always admitted
    /// (the registry never blocks traffic it was not configured for).
    pub fn available(&self, peer: &str) -> bool {
        let Some(i) = self.index_of(peer) else {
            return true;
        };
        let mut slots = self.slots.lock().expect("health lock");
        let slot = &mut slots[i];
        match slot.state {
            Breaker::Closed | Breaker::HalfOpen => true,
            Breaker::Open => {
                let elapsed = slot.opened_at.map_or(Duration::MAX, |t| t.elapsed());
                if elapsed >= self.cooldown {
                    slot.state = Breaker::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Whether `peer` currently advertises draining.
    pub fn is_draining(&self, peer: &str) -> bool {
        self.index_of(peer)
            .is_some_and(|i| self.slots.lock().expect("health lock")[i].draining)
    }

    /// Whether `peer` should receive new keyed traffic: admitted by the
    /// breaker and not draining.
    pub fn usable(&self, peer: &str) -> bool {
        self.available(peer) && !self.is_draining(peer)
    }

    /// Records a successful exchange with `peer`: resets the failure
    /// count and closes the breaker (counting a recovery if it was
    /// open or half-open).
    pub fn record_success(&self, peer: &str) {
        let Some(i) = self.index_of(peer) else {
            return;
        };
        let mut slots = self.slots.lock().expect("health lock");
        let slot = &mut slots[i];
        slot.consecutive_failures = 0;
        if slot.state != Breaker::Closed {
            slot.state = Breaker::Closed;
            slot.opened_at = None;
            self.recoveries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a transport failure against `peer`. A half-open trial
    /// failure re-opens immediately; a closed peer opens after
    /// [`FAILURE_THRESHOLD`] consecutive failures. Every Closed/
    /// HalfOpen → Open edge counts as an ejection.
    pub fn record_failure(&self, peer: &str) {
        let Some(i) = self.index_of(peer) else {
            return;
        };
        let mut slots = self.slots.lock().expect("health lock");
        let slot = &mut slots[i];
        slot.consecutive_failures = slot.consecutive_failures.saturating_add(1);
        let open_now = match slot.state {
            Breaker::HalfOpen => true,
            Breaker::Closed => slot.consecutive_failures >= FAILURE_THRESHOLD,
            Breaker::Open => false,
        };
        if open_now {
            slot.state = Breaker::Open;
            slot.opened_at = Some(Instant::now());
            self.ejections.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Marks `peer` as draining (or not) from a `/healthz` probe or a
    /// drain notification.
    pub fn set_draining(&self, peer: &str, draining: bool) {
        if let Some(i) = self.index_of(peer) {
            self.slots.lock().expect("health lock")[i].draining = draining;
        }
    }

    /// Total Closed/HalfOpen → Open transitions.
    pub fn ejections(&self) -> u64 {
        self.ejections.load(Ordering::Relaxed)
    }

    /// Total Open/HalfOpen → Closed transitions.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// A point-in-time snapshot of every peer, for `/metrics`.
    pub fn snapshot(&self) -> Vec<PeerStatus> {
        let slots = self.slots.lock().expect("health lock");
        self.peers
            .iter()
            .zip(slots.iter())
            .map(|(peer, slot)| PeerStatus {
                peer: peer.clone(),
                up: slot.state != Breaker::Open,
                draining: slot.draining,
            })
            .collect()
    }
}

/// Probes one peer's `/healthz` once and feeds the result into the
/// registry. Returns whether the peer answered at all.
pub fn probe_once(health: &PeerHealth, peer: &str, timeout: Duration) -> bool {
    match client::request_with_deadline(peer, "GET", "/healthz", None, Some(timeout)) {
        Ok(resp) if resp.is_ok() => {
            health.record_success(peer);
            health.set_draining(peer, resp.body.contains("\"draining\""));
            true
        }
        // A non-2xx /healthz means the process is up but unhealthy —
        // treat it like a transport failure for routing purposes.
        Ok(_) | Err(_) => {
            health.record_failure(peer);
            false
        }
    }
}

/// A handle over the background prober thread; stops and joins it on
/// [`ProbeHandle::stop`] (or drop).
#[derive(Debug)]
pub struct ProbeHandle {
    stop: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ProbeHandle {
    /// Signals the prober to stop and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // Dropping the sender disconnects the prober's receiver, which
        // ends its wait for the next round at once.
        self.stop = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ProbeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns the active prober: every `interval` it probes each peer's
/// `/healthz` (excluding `skip_self`, the server's own advertised
/// address) with a timeout of half the interval.
pub fn spawn_prober(
    health: Arc<PeerHealth>,
    interval: Duration,
    skip_self: Option<String>,
) -> ProbeHandle {
    let (stop, stop_rx) = mpsc::channel::<()>();
    // Every pause is a wait on the stop channel (which the handle
    // disconnects), so stop is prompt however long the probe interval.
    let stopped = move |pause| {
        !matches!(
            stop_rx.recv_timeout(pause),
            Err(mpsc::RecvTimeoutError::Timeout)
        )
    };
    let timeout = (interval / 2).max(Duration::from_millis(50));
    let thread = std::thread::Builder::new()
        .name("gmap-health-prober".into())
        .spawn(move || loop {
            for peer in health.peers() {
                if stopped(Duration::ZERO) {
                    return;
                }
                if skip_self.as_deref() == Some(peer.as_str()) {
                    continue;
                }
                probe_once(&health, peer, timeout);
            }
            if stopped(interval) {
                return;
            }
        })
        .expect("spawn prober thread");
    ProbeHandle {
        stop: Some(stop),
        thread: Some(thread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peers(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.9.0.{i}:9{i:03}")).collect()
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_after_cooldown() {
        let h = PeerHealth::new(&peers(2), Duration::from_millis(10));
        let p = "10.9.0.0:9000";
        for _ in 0..FAILURE_THRESHOLD - 1 {
            h.record_failure(p);
            assert!(h.available(p), "below threshold stays closed");
        }
        h.record_failure(p);
        assert!(!h.available(p), "threshold reached: ejected");
        assert_eq!(h.ejections(), 1);
        assert!(h.available("10.9.0.1:9001"), "other peers unaffected");

        // Cooldown (2 × 10ms) elapses: half-open admits a trial.
        std::thread::sleep(Duration::from_millis(25));
        assert!(h.available(p), "half-open admits a trial");

        // Trial failure re-opens immediately (no threshold).
        h.record_failure(p);
        assert!(!h.available(p), "failed trial re-ejects");
        assert_eq!(h.ejections(), 2);

        // Trial success closes and counts a recovery.
        std::thread::sleep(Duration::from_millis(25));
        assert!(h.available(p));
        h.record_success(p);
        assert!(h.available(p));
        assert_eq!(h.recoveries(), 1);
        // Failures must start counting from zero again.
        h.record_failure(p);
        assert!(h.available(p), "one failure after recovery stays closed");
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let h = PeerHealth::new(&peers(1), Duration::from_millis(10));
        let p = "10.9.0.0:9000";
        for _ in 0..100 {
            h.record_failure(p);
            h.record_success(p);
        }
        assert!(h.available(p), "interleaved successes never eject");
        assert_eq!(h.ejections(), 0);
    }

    #[test]
    fn draining_is_orthogonal_to_the_breaker() {
        let h = PeerHealth::new(&peers(2), Duration::from_millis(10));
        let p = "10.9.0.1:9001";
        assert!(h.usable(p));
        h.set_draining(p, true);
        assert!(h.available(p), "draining peer is still alive");
        assert!(!h.usable(p), "but not usable for new keyed traffic");
        assert!(h.is_draining(p));
        h.set_draining(p, false);
        assert!(h.usable(p));
    }

    #[test]
    fn unknown_peers_are_admitted_and_uncounted() {
        let h = PeerHealth::new(&peers(1), Duration::from_millis(10));
        for _ in 0..10 {
            h.record_failure("unknown:1");
        }
        assert!(h.available("unknown:1"));
        assert_eq!(h.ejections(), 0);
    }

    #[test]
    fn snapshot_reflects_state() {
        let h = PeerHealth::new(&peers(2), Duration::from_secs(10));
        for _ in 0..FAILURE_THRESHOLD {
            h.record_failure("10.9.0.0:9000");
        }
        h.set_draining("10.9.0.1:9001", true);
        let snap = h.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(!snap[0].up);
        assert!(!snap[0].draining);
        assert!(snap[1].up);
        assert!(snap[1].draining);
    }

    #[test]
    fn probe_once_marks_unreachable_peers_down() {
        // A bound-then-dropped listener yields an address nothing
        // listens on.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let fleet = vec![addr.clone()];
        let h = PeerHealth::new(&fleet, Duration::from_millis(50));
        for _ in 0..FAILURE_THRESHOLD {
            assert!(!probe_once(&h, &addr, Duration::from_millis(100)));
        }
        assert!(!h.available(&addr), "probes alone eject a dead peer");
        assert_eq!(h.ejections(), 1);
    }
}
