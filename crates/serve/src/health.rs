//! Peer health: one count of consecutive failed exchanges per ring
//! peer, kept on [`Peers`] — the ring plus those counts, which is the
//! one place the crate walks a key's successors and talks to a peer.
//!
//! Every component that talks to peers — the router, the replication
//! worker and the prober — does it through one `Peers::exchange`, so
//! every outcome lands on the same counts. One rule decides health: a
//! peer is **down** while its last [`FAILURE_THRESHOLD`] exchanges all
//! failed, and any answer, whatever its status, brings it back **up**.
//! A down peer is tried last in a walk instead of being paid a connect
//! timeout up front, and the replication worker owes it its pushes as
//! hints. Each up → down edge counts in `gmap_peer_ejections_total`,
//! each down → up edge in `gmap_peer_recoveries_total`.
//!
//! The active prober ([`spawn_prober`]) GETs `/healthz` from every peer
//! each probe interval with a short timeout. Its answers go through the
//! same exchange, so a down peer that is back is seen up within one
//! interval even when no client traffic touches it, which is what makes
//! hinted-handoff replay prompt.

use crate::client::{self, ExchangeError, Payload, Response};
use crate::metrics::Endpoint;
use crate::shard::Ring;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Consecutive failed exchanges that take a peer down.
pub const FAILURE_THRESHOLD: u32 = 3;

/// Default cadence of the active health prober (also the replication
/// worker's hint-replay tick).
pub const DEFAULT_PROBE_INTERVAL: Duration = Duration::from_millis(500);

/// A point-in-time view of one peer, for `/metrics` gauges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerStatus {
    /// The peer's `host:port` address.
    pub peer: String,
    /// Whether the peer is up.
    pub up: bool,
}

/// A peer set: the consistent-hash ring over it plus each peer's count
/// of consecutive failed exchanges. The one owner of the failover walk
/// and of the exchange that feeds the counts.
#[derive(Debug)]
pub struct Peers {
    ring: Ring,
    /// Consecutive failed exchanges, index-parallel with `ring.peers()`.
    failures: Vec<AtomicU32>,
    ejections: AtomicU64,
    recoveries: AtomicU64,
}

fn is_up(failures: &AtomicU32) -> bool {
    failures.load(Ordering::Relaxed) < FAILURE_THRESHOLD
}

impl Peers {
    /// Builds the ring over `peers`, every peer up.
    pub fn new(peers: &[String]) -> Peers {
        Peers {
            ring: Ring::new(peers),
            failures: peers.iter().map(|_| AtomicU32::new(0)).collect(),
            ejections: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        }
    }

    /// The consistent-hash ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    fn failures_of(&self, peer: &str) -> Option<&AtomicU32> {
        let i = self.ring.peers().iter().position(|p| p == peer)?;
        Some(&self.failures[i])
    }

    /// Whether `peer` is up. A peer outside the ring is always up (no
    /// traffic is blocked that the set was not built for).
    pub fn available(&self, peer: &str) -> bool {
        self.failures_of(peer).is_none_or(is_up)
    }

    /// Records an answer from `peer`: clears its count, counting a
    /// recovery if it was down.
    fn record_answer(&self, peer: &str) {
        if let Some(failures) = self.failures_of(peer) {
            if failures.swap(0, Ordering::Relaxed) >= FAILURE_THRESHOLD {
                self.recoveries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records a failed exchange with `peer`, counting an ejection on
    /// the one failure that reaches [`FAILURE_THRESHOLD`].
    fn record_failure(&self, peer: &str) {
        if let Some(failures) = self.failures_of(peer) {
            // Stops at `u32::MAX`: a peer down for good never wraps up.
            let before =
                failures.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_add(1));
            if before == Ok(FAILURE_THRESHOLD - 1) {
                self.ejections.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Total up → down edges.
    pub fn ejections(&self) -> u64 {
        self.ejections.load(Ordering::Relaxed)
    }

    /// Total down → up edges.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// A point-in-time snapshot of every peer, for `/metrics`.
    pub fn snapshot(&self) -> Vec<PeerStatus> {
        self.ring
            .peers()
            .iter()
            .zip(&self.failures)
            .map(|(peer, failures)| PeerStatus {
                peer: peer.clone(),
                up: is_up(failures),
            })
            .collect()
    }

    /// The failover walk for `key`: up peers in ring order first, then
    /// down ones as the last resort. Skipping a down peer up front
    /// saves its connect timeout on the hot path; keeping it at the end
    /// means a key never becomes unservable just because the whole
    /// fleet looks down. Always as long as the ring's own successor
    /// list.
    pub fn walk(&self, key: &str) -> Vec<&str> {
        let (mut walk, last_resort): (Vec<&str>, Vec<&str>) = self
            .ring
            .successors(key)
            .into_iter()
            .partition(|peer| self.available(peer));
        walk.extend(last_resort);
        walk
    }

    /// One [`client::exchange`] with `peer`, its outcome fed to the
    /// peer's count: any response proves the peer alive, a failed
    /// connect or transport counts against it, and a failed payload
    /// source (the streamed body's sender, not the peer) counts for
    /// nothing.
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
            Ok(_) => self.record_answer(peer),
            Err(ExchangeError::Connect(_) | ExchangeError::Peer(_)) => self.record_failure(peer),
            Err(ExchangeError::Source(_)) => {}
        }
        outcome
    }
}

/// Probes one peer's `/healthz` once, within `timeout`. Returns whether
/// the peer answered; an answer of any status brings a down peer up.
pub fn probe_once(peers: &Peers, peer: &str, timeout: Duration) -> bool {
    let row = Endpoint::Healthz.row();
    peers
        .exchange(peer, row.method, row.path, Payload::Json(""), Some(timeout))
        .is_ok()
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
    use std::io::{BufRead, BufReader, Write};

    fn peers(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.9.0.{i}:9{i:03}")).collect()
    }

    fn take_down(p: &Peers, peer: &str) {
        for _ in 0..FAILURE_THRESHOLD {
            p.record_failure(peer);
        }
    }

    /// A listener that answers one request with `status` and closes.
    fn answering(status: &'static str) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            // Read the whole head first, so closing resets nothing.
            while reader.read_line(&mut line).expect("read head") > 2 {
                line.clear();
            }
            let reply =
                format!("HTTP/1.1 {status}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
            reader.get_mut().write_all(reply.as_bytes()).expect("reply");
        });
        (addr, server)
    }

    #[test]
    fn a_peer_is_down_after_threshold_failures_until_it_answers() {
        let h = Peers::new(&peers(2));
        let p = "10.9.0.0:9000";
        for _ in 0..FAILURE_THRESHOLD - 1 {
            h.record_failure(p);
            assert!(h.available(p), "below threshold stays up");
        }
        h.record_failure(p);
        assert!(!h.available(p), "threshold reached: down");
        assert_eq!(h.ejections(), 1);
        assert!(h.available("10.9.0.1:9001"), "other peers unaffected");

        h.record_answer(p);
        assert!(h.available(p), "any answer brings it back up");
        assert_eq!(h.recoveries(), 1);
        // Failures must start counting from zero again.
        h.record_failure(p);
        assert!(h.available(p), "one failure after recovery stays up");
    }

    #[test]
    fn failures_past_the_threshold_eject_only_once() {
        let h = Peers::new(&peers(1));
        let p = "10.9.0.0:9000";
        for _ in 0..10 * FAILURE_THRESHOLD {
            h.record_failure(p);
        }
        assert_eq!(h.ejections(), 1);
        // The count saturates: a peer down for good stays down.
        h.failures[0].store(u32::MAX - 1, Ordering::Relaxed);
        for _ in 0..3 {
            h.record_failure(p);
        }
        assert!(!h.available(p));
        assert_eq!(h.ejections(), 1);
        assert_eq!(h.recoveries(), 0);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let h = Peers::new(&peers(1));
        let p = "10.9.0.0:9000";
        for _ in 0..100 {
            h.record_failure(p);
            h.record_answer(p);
        }
        assert!(h.available(p), "interleaved successes never eject");
        assert_eq!(h.ejections(), 0);
        assert_eq!(h.recoveries(), 0);
    }

    #[test]
    fn unknown_peers_are_admitted_and_uncounted() {
        let h = Peers::new(&peers(1));
        for _ in 0..10 {
            h.record_failure("unknown:1");
        }
        assert!(h.available("unknown:1"));
        assert_eq!(h.ejections(), 0);
    }

    #[test]
    fn snapshot_reflects_state() {
        let h = Peers::new(&peers(2));
        take_down(&h, "10.9.0.0:9000");
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
        let fleet = Peers::new(std::slice::from_ref(&addr));
        for _ in 0..FAILURE_THRESHOLD {
            assert!(!probe_once(&fleet, &addr, Duration::from_millis(100)));
        }
        assert!(!fleet.available(&addr), "probes alone eject a dead peer");
        assert_eq!(fleet.ejections(), 1);
    }

    #[test]
    fn one_probe_answered_with_any_status_brings_a_down_peer_up() {
        for status in ["200 OK", "503 Service Unavailable"] {
            let (addr, server) = answering(status);
            let fleet = Peers::new(std::slice::from_ref(&addr));
            take_down(&fleet, &addr);
            assert!(!fleet.available(&addr));
            assert!(
                probe_once(&fleet, &addr, Duration::from_secs(5)),
                "{status}"
            );
            server.join().expect("server thread");
            assert!(fleet.available(&addr), "{status}: back up");
            assert_eq!(fleet.recoveries(), 1, "{status}: one recovery");
            assert_eq!(fleet.ejections(), 1, "{status}");
        }
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
        // (case, how the ring-ordered peers fall sick, how many do)
        type Sicken = fn(&Peers, &[String]);
        let cases: [(&str, Sicken, usize); 3] = [
            ("all healthy", |_, _| {}, 0),
            ("owner ejected", |p, order| take_down(p, &order[0]), 1),
            (
                "all ejected",
                |p, order| order.iter().for_each(|peer| take_down(p, peer)),
                4,
            ),
        ];
        for (what, sicken, sick) in cases {
            let p = Peers::new(&fleet);
            sicken(&p, &ring_order);
            let walk = p.walk(key);
            let mut sorted = walk.clone();
            sorted.sort_unstable();
            let mut ring_set: Vec<&str> = fleet.iter().map(String::as_str).collect();
            ring_set.sort_unstable();
            assert_eq!(sorted, ring_set, "{what}: the walk never loses a peer");
            let (usable, last_resort) = walk.split_at(fleet.len() - sick);
            assert!(usable.iter().all(|peer| p.available(peer)), "{what}");
            assert!(!last_resort.iter().any(|peer| p.available(peer)), "{what}");
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
