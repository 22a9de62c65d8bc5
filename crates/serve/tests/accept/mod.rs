//! Accept-path checks: a fresh connection costs its handler, not a poll
//! interval, and no serve thread delays `shutdown()` by sleeping.
//!
//! Shared source: `service.rs` runs it with the rest of the service
//! suite, and the root-level `tests/serve_accept.rs` includes this same
//! file so the tier-1 gate (`cargo test -q` at the workspace root)
//! exercises the accept path too.

use gmap_serve::server::{start, ServeConfig};
use gmap_serve::{client, ServerHandle};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Idle-shutdown budget: far below any of the waits it pins (the old
/// replicator noticed stop only after a full probe interval).
const SHUTDOWN_BUDGET: Duration = Duration::from_millis(250);

fn timed_shutdown(server: ServerHandle, what: &str) {
    let began = Instant::now();
    server.shutdown();
    let took = began.elapsed();
    assert!(
        took < SHUTDOWN_BUDGET,
        "{what}: idle shutdown took {took:?}"
    );
}

#[test]
fn fresh_connections_cost_their_handler_not_a_poll_interval() {
    let server = start(ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    // A 5 ms accept poll makes every round take a second or more; the
    // best of three keeps a loaded test host from failing a sound build.
    let best = (0..3)
        .map(|_| {
            let began = Instant::now();
            for _ in 0..200 {
                let resp = client::get(&addr, "/healthz").expect("server reachable");
                assert_eq!(resp.status, 200);
            }
            began.elapsed()
        })
        .min()
        .expect("three rounds");
    assert!(
        best < Duration::from_millis(500),
        "200 sequential fresh-connection requests took {best:?}"
    );
    server.shutdown();
}

#[test]
fn idle_shutdown_is_prompt_on_every_bind_and_in_a_fleet() {
    for listen in ["127.0.0.1:0", "0.0.0.0:0", "[::]:0"] {
        let config = ServeConfig {
            listen: listen.into(),
            ..ServeConfig::default()
        };
        match start(config) {
            Ok(server) => timed_shutdown(server, listen),
            // A host without IPv6 cannot bind the last one.
            Err(e) => assert!(listen.starts_with('['), "cannot bind {listen}: {e}"),
        }
    }

    // A fleet replica with a 5 s probe interval: neither the prober's
    // pause nor the replicator's tick may delay stop by an interval.
    // The peer is a reserved-then-released port, so probes are refused
    // at once.
    let reserve = || {
        let l = TcpListener::bind("127.0.0.1:0").expect("reserve port");
        l.local_addr().expect("reserved addr").to_string()
    };
    let (me, peer) = (reserve(), reserve());
    let server = start(ServeConfig {
        listen: me.clone(),
        fleet: Some(vec![me.clone(), peer]),
        advertise: Some(me),
        probe_interval: Duration::from_secs(5),
        ..ServeConfig::default()
    })
    .expect("bind reserved port");
    timed_shutdown(server, "fleet replica");
}

#[test]
fn connection_opened_before_shutdown_is_answered_after_it() {
    let server = start(ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.addr();
    let mut early = TcpStream::connect(addr).expect("connect before shutdown");
    let stopper = thread::spawn(move || server.shutdown());

    // Shutdown closes the listener before it waits on connections, so a
    // refused connect proves it is past the accept phase.
    let deadline = Instant::now() + Duration::from_secs(10);
    while TcpStream::connect(addr).is_ok() {
        assert!(Instant::now() < deadline, "listener never closed");
        thread::sleep(Duration::from_millis(1));
    }

    early
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("send after shutdown began");
    let mut reply = String::new();
    early.read_to_string(&mut reply).expect("full reply");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.ends_with("{\"status\":\"ok\"}"), "{reply}");
    stopper
        .join()
        .expect("shutdown returns once the peer is done");
}
