//! Router mode: a thin `gmap serve --route peer1,peer2,...` process
//! that owns no model cache of its own and forwards every pipeline
//! request to the replica owning its shard key on the consistent-hash
//! [`Ring`].
//!
//! Design constraints, in order:
//!
//! * **Byte-identical or honest.** A forwarded response is relayed
//!   verbatim; when no replica can answer, the router emits its own
//!   structured 503/504 — always a definite outcome, never a silent
//!   drop. Router-originated and relayed 5xx responses carry
//!   `Retry-After` (every `/v1/*` endpoint is idempotent, so retrying
//!   is always safe).
//! * **Connection-thread forwarding.** The router has no job queue in
//!   the request path: parsing, key derivation, and the peer exchange
//!   all happen on the connection thread, mirroring how `/metrics` and
//!   `/v1/analyze` are served. Backpressure is the replicas' job —
//!   their 429/503 flows straight through.
//! * **Deadline budget propagation.** The remaining budget travels in
//!   [`crate::client::DEADLINE_HEADER`]; a replica clamps its own deadline to
//!   it, so a request that expires in a replica's queue is shed there
//!   (504, handler never runs) instead of being computed for a
//!   requester the router has already given up on.
//! * **Failover on transport failure only.** Refused connections,
//!   resets, and timeouts advance to the ring successor (counted in
//!   `gmap_route_failovers_total`); received statuses are final from
//!   the router's point of view — the client's retry policy owns that
//!   decision. Any replica computes any request correctly, so failover
//!   can't change bytes, only cache locality.
//! * **Health-aware walks.** The walk and every exchange are
//!   [`Peers`]': each attempt's outcome feeds the peer's shared failure
//!   count, and down peers are moved to the *end* of the walk instead
//!   of being paid a connect timeout up front. They are never dropped
//!   entirely — if every up peer fails, the down ones are still tried,
//!   so routing is never worse than plain ring failover.
//!
//! `/v1/ingest` streams: the same exchange pulls the inbound body piece
//! by piece and re-frames it chunked to the owning replica (never
//! materialized on the router). Failover happens only while connecting
//! — once body bytes have flowed they cannot be replayed, so a
//! mid-stream failure is an honest 503 with `Connection: close`.

use crate::api::ApiError;
use crate::client::{ExchangeError, Payload, Response};
use crate::health::Peers;
use crate::http::{self, Reply, RequestHead};
use crate::metrics::Metrics;
use crate::server::Deadline;
use crate::shard::{self, Ring};
use gmap_core::cachekey;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The routing state of a router-mode server: the replica set, shared
/// with the server's prober and metrics sampler — no model cache, so
/// any number of routers can front the same replica fleet.
#[derive(Debug)]
pub struct Router {
    peers: Arc<Peers>,
}

impl Router {
    /// Builds a router over the replica set.
    pub fn new(peers: Arc<Peers>) -> Router {
        Router { peers }
    }

    /// The consistent-hash ring (tests compute expected owners from it).
    pub fn ring(&self) -> &Ring {
        self.peers.ring()
    }

    /// Forwards one materialized JSON request to the owning replica and
    /// relays its response. What is left until the request is `due` is
    /// propagated to the peer and bounds the whole failover walk.
    pub(crate) fn forward(
        &self,
        metrics: &Metrics,
        path: &str,
        body: &str,
        due: Deadline,
    ) -> Reply {
        let key = shard::request_key(path, body)
            .unwrap_or_else(|| cachekey::content_key(if body.is_empty() { path } else { body }));
        match self.walk_until_answered(metrics, &key, path, Payload::Json(body), due) {
            Ok(resp) => Reply::json(resp.status, resp.body),
            Err(reply) => reply
                .expect("a materialized body has no source to fail")
                .into(),
        }
    }

    /// Forwards a streaming `/v1/ingest` request: decodes the inbound
    /// body with the normal [`http::BodyReader`] limits while the
    /// exchange re-frames it chunked to the owning replica. Answers like
    /// the local ingest endpoint — a reply that abandons the body closes
    /// the connection — or `None` when the *client* transport died
    /// mid-body and nothing can be answered.
    pub(crate) fn forward_ingest<R: io::BufRead>(
        &self,
        metrics: &Metrics,
        head: &RequestHead,
        reader: &mut R,
        due: Deadline,
    ) -> Option<Reply> {
        let key = cachekey::content_key(&head.path);
        let mut body = match http::BodyReader::open(reader, head, http::MAX_INGEST_BODY_BYTES) {
            Ok(b) => b,
            Err(e) => return e.reply("trace body").map(Reply::closing),
        };
        // Why the inbound body stopped is kept aside: the exchange only
        // learns that its source failed.
        let mut inbound = None;
        let mut next = |buf: &mut [u8]| {
            body.next_piece(buf).map_err(|e| {
                inbound = Some(e);
                io::Error::other("inbound body failed")
            })
        };
        let payload = Payload::Stream {
            piece: 64 * 1024,
            next: &mut next,
        };
        match self.walk_until_answered(metrics, &key, &head.path, payload, due) {
            Ok(resp) => Some(Reply::json(resp.status, resp.body)),
            // No reply from the walk means the client-side body failed
            // mid-stream: answer its error. Either way force a close (the
            // unread tail is unframed garbage).
            Err(reply) => reply
                .or_else(|| inbound?.reply("trace body"))
                .map(Reply::closing),
        }
    }

    /// Offers the request to `key`'s walk until a replica answers. A
    /// failed exchange advances to the successor while the payload can
    /// still be replayed: always for a materialized body, only until
    /// the connection stands for a streamed one. `Err` carries the
    /// honest reply when no replica answered, or `None` when the
    /// streamed payload's own source failed (its owner knows why).
    fn walk_until_answered(
        &self,
        metrics: &Metrics,
        key: &str,
        path: &str,
        mut payload: Payload<'_>,
        due: Deadline,
    ) -> Result<Response, Option<ApiError>> {
        let mut attempted = 0usize;
        for peer in self.peers.walk(key) {
            let remaining = due.remaining();
            if remaining.is_zero() {
                break;
            }
            if let Some(route) = metrics.route.as_ref().filter(|_| attempted > 0) {
                route.failovers.fetch_add(1, Ordering::Relaxed);
            }
            attempted += 1;
            let offer = payload.reborrow();
            match self
                .peers
                .exchange(peer, "POST", path, offer, Some(remaining))
            {
                Ok(resp) => {
                    if let Some(route) = &metrics.route {
                        route.record_forward(peer);
                    }
                    return Ok(resp);
                }
                // The peer died after body bytes flowed: the stream
                // cannot be replayed, so this is an honest transient 503.
                Err(ExchangeError::Peer(_)) if matches!(payload, Payload::Stream { .. }) => {
                    let reply = format!("replica {peer} failed mid-stream, retry");
                    return Err(Some(ApiError::new(503, reply)));
                }
                Err(ExchangeError::Connect(_) | ExchangeError::Peer(_)) => continue,
                Err(ExchangeError::Source(_)) => return Err(None),
            }
        }
        // Nobody answered: 504 when the budget ran out mid-walk, 503
        // otherwise — both transient, both carrying `Retry-After` (added
        // by the response writer).
        Err(Some(if due.remaining().is_zero() {
            ApiError::new(504, "deadline exceeded while forwarding")
        } else {
            let reply = format!("no replica reachable ({attempted} tried), retry");
            ApiError::new(503, reply)
        }))
    }
}
