//! Peer health registry: a per-replica circuit breaker fed by passive
//! request outcomes and periodic active `/healthz` probes — and
//! [`Peers`], the ring plus that registry, which is the one place the
//! crate walks a key's successors and talks to a peer.
//!
//! Every component that talks to peers — the router, the replication
//! worker and the prober — does it through one [`Peers`], so every outcome lands in one
//! [`PeerHealth`] registry. The breaker runs the classic three states
//! per peer:
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
//! The active prober ([`spawn_prober`]) GETs `/healthz` from every peer
//! each probe interval with a short timeout, feeding the same
//! success/failure edges the passive path uses. This bounds
//! recovery-detection latency even when no client traffic touches the
//! dead peer, which is what makes hinted-handoff replay prompt.

use crate::client::{self, ExchangeError, Payload, Response};
use crate::metrics::Endpoint;
use crate::shard::Ring;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Consecutive transport failures that open a peer's breaker.
pub const FAILURE_THRESHOLD: u32 = 3;

/// Multiple of the probe interval an open breaker waits before
/// half-opening. Two intervals guarantees at least one full probe cycle
/// passes before the trial request.
pub const COOLDOWN_INTERVALS: u32 = 2;

/// Default cadence of the active health prober (also the replication
/// worker's hint-replay tick).
pub const DEFAULT_PROBE_INTERVAL: Duration = Duration::from_millis(500);

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
}

impl Slot {
    fn new() -> Slot {
        Slot {
            state: Breaker::Closed,
            consecutive_failures: 0,
            opened_at: None,
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

    /// Records a successful exchange with `peer`: resets the failure
    /// count and closes the breaker (counting a recovery if it was
    /// open or half-open).
    fn record_success(&self, peer: &str) {
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
    fn record_failure(&self, peer: &str) {
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
            })
            .collect()
    }
}

/// A peer set: the consistent-hash ring over it plus its health
/// registry. The one owner of the failover walk and of the exchange
/// that feeds the breaker.
#[derive(Debug)]
pub struct Peers {
    ring: Ring,
    health: PeerHealth,
}

impl Peers {
    /// Builds the ring and an all-closed registry over `peers`.
    pub fn new(peers: &[String], probe_interval: Duration) -> Peers {
        Peers {
            ring: Ring::new(peers),
            health: PeerHealth::new(peers, probe_interval),
        }
    }

    /// The consistent-hash ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The health registry.
    pub fn health(&self) -> &PeerHealth {
        &self.health
    }

    /// The failover walk for `key`: peers the breaker admits in ring
    /// order first, then ejected ones as the last resort. Skipping an
    /// ejected peer up front saves its connect timeout on the hot path;
    /// keeping it at the end means a key never becomes unservable just
    /// because the whole fleet looks down. Always as long as the ring's
    /// own successor list.
    pub fn walk(&self, key: &str) -> Vec<&str> {
        let (mut walk, last_resort): (Vec<&str>, Vec<&str>) = self
            .ring
            .successors(key)
            .into_iter()
            .partition(|peer| self.health.available(peer));
        walk.extend(last_resort);
        walk
    }

    /// One [`client::exchange`] with `peer`, its outcome fed to the
    /// breaker: any response proves the peer alive, a failed connect or
    /// transport counts against it, and a failed payload source (the
    /// streamed body's sender, not the peer) counts for nothing.
    pub(crate) fn exchange(
        &self,
        peer: &str,
        method: &str,
        path: &str,
        payload: Payload<'_>,
        budget: Option<Duration>,
    ) -> Result<Response, ExchangeError> {
        let outcome = client::exchange(peer, method, path, payload, budget);
        match &outcome {
            Ok(_) => self.health.record_success(peer),
            Err(ExchangeError::Connect(_) | ExchangeError::Peer(_)) => {
                self.health.record_failure(peer)
            }
            Err(ExchangeError::Source(_)) => {}
        }
        outcome
    }
}

/// Probes one peer's `/healthz` once, within `timeout`. Returns whether
/// the peer answered healthy.
pub fn probe_once(peers: &Peers, peer: &str, timeout: Duration) -> bool {
    let row = Endpoint::Healthz.row();
    match peers.exchange(peer, row.method, row.path, Payload::Json(""), Some(timeout)) {
        Ok(resp) if resp.is_ok() => true,
        // A non-2xx /healthz means the process is up but unhealthy —
        // count it against the peer like a transport failure.
        Ok(_) => {
            peers.health.record_failure(peer);
            false
        }
        Err(_) => false,
    }
}

/// A handle over the background prober thread; dropping it stops and
/// joins the prober.
#[derive(Debug)]
pub struct ProbeHandle {
    stop: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ProbeHandle {
    fn drop(&mut self) {
        // Dropping the sender disconnects the prober's receiver, which
        // ends its wait for the next round at once.
        self.stop = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Spawns the active prober: every `interval` it probes each peer's
/// `/healthz` (excluding `skip_self`, the server's own advertised
/// address) with a timeout of half the interval.
pub fn spawn_prober(
    peers: Arc<Peers>,
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
            for peer in peers.ring.peers() {
                if stopped(Duration::ZERO) {
                    return;
                }
                if skip_self.as_deref() == Some(peer.as_str()) {
                    continue;
                }
                probe_once(&peers, peer, timeout);
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
        let snap = h.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(!snap[0].up);
        assert!(snap[1].up);
    }

    #[test]
    fn probe_once_marks_unreachable_peers_down() {
        // A bound-then-dropped listener yields an address nothing
        // listens on.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let fleet = Peers::new(std::slice::from_ref(&addr), Duration::from_millis(50));
        for _ in 0..FAILURE_THRESHOLD {
            assert!(!probe_once(&fleet, &addr, Duration::from_millis(100)));
        }
        let h = fleet.health();
        assert!(!h.available(&addr), "probes alone eject a dead peer");
        assert_eq!(h.ejections(), 1);
    }

    #[test]
    fn walk_keeps_the_ring_set_and_puts_usable_peers_first() {
        let fleet = peers(4);
        let key = "00112233445566778899aabbccddeeff";
        let ring_order: Vec<String> = Ring::new(&fleet)
            .successors(key)
            .into_iter()
            .map(str::to_string)
            .collect();
        fn eject(p: &Peers, peer: &str) {
            for _ in 0..FAILURE_THRESHOLD {
                p.health.record_failure(peer);
            }
        }
        // (case, how the ring-ordered peers fall sick, how many do)
        type Sicken = fn(&Peers, &[String]);
        let cases: [(&str, Sicken, usize); 3] = [
            ("all healthy", |_, _| {}, 0),
            ("owner ejected", |p, order| eject(p, &order[0]), 1),
            (
                "all ejected",
                |p, order| order.iter().for_each(|peer| eject(p, peer)),
                4,
            ),
        ];
        for (what, sicken, sick) in cases {
            let p = Peers::new(&fleet, Duration::from_secs(60));
            sicken(&p, &ring_order);
            let walk = p.walk(key);
            let mut sorted = walk.clone();
            sorted.sort_unstable();
            let mut ring_set: Vec<&str> = fleet.iter().map(String::as_str).collect();
            ring_set.sort_unstable();
            assert_eq!(sorted, ring_set, "{what}: the walk never loses a peer");
            let (usable, last_resort) = walk.split_at(fleet.len() - sick);
            assert!(usable.iter().all(|peer| p.health.available(peer)), "{what}");
            assert!(
                !last_resort.iter().any(|peer| p.health.available(peer)),
                "{what}"
            );
            let in_ring_order = |group: &[&str]| {
                let at = |peer: &str| ring_order.iter().position(|o| o == peer);
                group.windows(2).all(|w| at(w[0]) < at(w[1]))
            };
            assert!(
                in_ring_order(usable) && in_ring_order(last_resort),
                "{what}: {walk:?} against ring order {ring_order:?}"
            );
        }
    }
}
