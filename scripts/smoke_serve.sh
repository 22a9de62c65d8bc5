#!/usr/bin/env bash
# Smoke test for `gmap serve`: boots the service on an ephemeral port,
# exercises a profile -> clone round trip through `gmap client`, pokes
# the HTTP edge cases (keep-alive, truncated and oversized bodies) with
# raw sockets, and checks that closing the server's stdin drains it
# cleanly. A final section boots two replicas behind a `--route` router
# and checks that routed responses match locally computed model ids.
#
# Usage: scripts/smoke_serve.sh [path-to-gmap-binary]
set -euo pipefail

GMAP="${1:-target/release/gmap}"
if [[ ! -x "$GMAP" ]]; then
    echo "smoke: $GMAP is not an executable (build with: cargo build --release)" >&2
    exit 1
fi

WORK="$(mktemp -d)"
SERVER_OUT="$WORK/server.out"
mkfifo "$WORK/stdin"
cleanup() {
    # Closing the fifo writers ends the servers; kill as a fallback only.
    exec 9>&- 2>/dev/null || true
    exec 5>&- 2>/dev/null || true
    exec 6>&- 2>/dev/null || true
    exec 7>&- 2>/dev/null || true
    for pid in "${SERVER_PID:-}" "${R1_PID:-}" "${R2_PID:-}" "${ROUTER_PID:-}" \
        "${RES1_PID:-}" "${RES2_PID:-}" "${F1_PID:-}" "${F2_PID:-}"; do
        if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
            sleep 2
            kill "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

# Hold the fifo open on fd 9 so the server's stdin stays open until we
# deliberately close it for graceful shutdown.
# Short read/idle timeouts keep the truncated-body case fast.
"$GMAP" serve --listen 127.0.0.1:0 --workers 2 \
    --read-timeout-ms 1500 --idle-timeout-ms 1500 \
    <"$WORK/stdin" >"$SERVER_OUT" &
SERVER_PID=$!
exec 9>"$WORK/stdin"

# Wait for the bound address to appear on stdout.
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^gmap-serve listening on //p' "$SERVER_OUT" | head -n1)"
    [[ -n "$ADDR" ]] && break
    sleep 0.1
done
if [[ -z "$ADDR" ]]; then
    echo "smoke: server never reported its address" >&2
    cat "$SERVER_OUT" >&2
    exit 1
fi
echo "smoke: server up at $ADDR"

# Buffer a client command's stdout before grepping. Piping straight into
# `grep -q` still races under pipefail: grep exits at the first match,
# the client's remaining stdout write finds the pipe closed, and gmap
# ends quietly but with a nonzero status, which pipefail reports as the
# pipeline's and fails the script.
expect() { # expect <pattern> <cmd...>
    local pat="$1"; shift
    local out
    out="$("$@")"
    grep -q "$pat" <<<"$out"
}


expect '"status":"ok"' "$GMAP" client health --addr "$ADDR"
echo "smoke: health ok"

PROFILE="$("$GMAP" client profile --addr "$ADDR" --workload kmeans --scale tiny)"
echo "smoke: profile -> $PROFILE"
MODEL="$(printf '%s' "$PROFILE" | sed -n 's/.*"model_id":"\([0-9a-f]*\)".*/\1/p')"
if [[ -z "$MODEL" ]]; then
    echo "smoke: could not extract model_id" >&2
    exit 1
fi

expect '"kernels":' "$GMAP" client clone --addr "$ADDR" --model "$MODEL" --factor 2
echo "smoke: clone ok"

expect '"values":' "$GMAP" client evaluate --addr "$ADDR" --model "$MODEL" --grid 16:4,32:4
echo "smoke: evaluate ok"

# A fig6c-shaped stride-prefetcher grid must ride the single-pass engine.
expect '"single_pass":true' "$GMAP" client evaluate --addr "$ADDR" --model "$MODEL" \
    --grid 8:4,16:4,64:4 --stride-prefetch 64:2:1
echo "smoke: prefetcher evaluate single-pass ok"

# An out-of-envelope prefetcher table is a structured 400, not a crash.
if "$GMAP" client evaluate --addr "$ADDR" --model "$MODEL" --grid 16:4 \
    --stride-prefetch 3:2 >"$WORK/pf.out" 2>&1; then
    echo "smoke: unsupported prefetcher was not rejected" >&2
    exit 1
fi
grep -q 'power of two' "$WORK/pf.out"
echo "smoke: unsupported prefetcher rejected with 400"

# Repeat profile must be a cache hit, visible in /metrics.
expect '"cached":true' "$GMAP" client profile --addr "$ADDR" --workload kmeans --scale tiny
expect '^gmap_cache_hits_total 1' "$GMAP" client metrics --addr "$ADDR"
echo "smoke: cache hit observed in metrics"

# The CLI has one default scale: without --scale, `gmap profile` and
# `gmap client profile` name the same model id.
LOCAL_ID="$("$GMAP" profile --workload kmeans -o "$WORK/default.json" | sed -n 's/^model id: //p')"
SERVED_ID="$("$GMAP" client profile --addr "$ADDR" --workload kmeans \
    | sed -n 's/.*"model_id":"\([0-9a-f]*\)".*/\1/p')"
if [[ -z "$LOCAL_ID" || "$LOCAL_ID" != "$SERVED_ID" ]]; then
    echo "smoke: default-scale model ids differ: local '$LOCAL_ID', served '$SERVED_ID'" >&2
    exit 1
fi
echo "smoke: profile and client profile agree on the default scale ($LOCAL_ID)"

# Static analysis over the wire: a named workload is admissible...
expect '"admissible":true' "$GMAP" client analyze --addr "$ADDR" --workload kmeans --scale tiny
echo "smoke: analyze ok"

# ...while an out-of-bounds spec is explained by /v1/analyze and then
# rejected 422 by the admission gate before anything is profiled.
BAD_SPEC="$WORK/oob.json"
"$GMAP" analyze --fixture oob-affine --dump-spec "$BAD_SPEC" >/dev/null 2>&1 || true
[[ -s "$BAD_SPEC" ]] || { echo "smoke: --dump-spec wrote nothing" >&2; exit 1; }
expect '"admissible":false' "$GMAP" client analyze --addr "$ADDR" --spec "$BAD_SPEC"
if "$GMAP" client profile --addr "$ADDR" --spec "$BAD_SPEC" 2>"$WORK/gate.err"; then
    echo "smoke: inadmissible spec was not rejected" >&2
    exit 1
fi
grep -q '422' "$WORK/gate.err"
expect '^gmap_analyze_rejects_total 1' "$GMAP" client metrics --addr "$ADDR"
echo "smoke: admission gate rejected inadmissible spec with 422"

# Streaming ingest: clone a model into a trace file in each format,
# stream both chunked to /v1/ingest, and check that the two returned
# model ids and the two content keys the local (bounded-memory) profiler
# prints for the same traces are one value. Both files have the stem
# `clone`, which names the model on either side.
"$GMAP" profile --workload kmeans --scale tiny -o "$WORK/kmeans.json" >/dev/null
KEY=""
for FORMAT in text binary; do
    TRACE="$WORK/clone.$FORMAT"
    "$GMAP" clone -p "$WORK/kmeans.json" --factor 2 --format "$FORMAT" -o "$TRACE" >/dev/null
    LOCAL="$("$GMAP" profile --trace "$TRACE" --grid 24 --block 128 -o "$WORK/reprofiled.json")"
    LOCAL_KEY="$(sed -n 's/^content key: //p' <<<"$LOCAL")"
    if [[ -z "$LOCAL_KEY" ]]; then
        echo "smoke: local profile of the $FORMAT trace printed no content key" >&2
        exit 1
    fi
    INGEST="$("$GMAP" client ingest --addr "$ADDR" --trace "$TRACE" \
        --grid 24 --block 128 --chunk 4096)"
    INGEST_MODEL="$(printf '%s' "$INGEST" | sed -n 's/.*"model_id":"\([0-9a-f]*\)".*/\1/p')"
    KEY="${KEY:-$LOCAL_KEY}"
    if [[ "$LOCAL_KEY" != "$KEY" || "$INGEST_MODEL" != "$KEY" ]]; then
        echo "smoke: streamed ingest of the $FORMAT trace diverged" >&2
        echo "  content key of the text trace : $KEY" >&2
        echo "  local content key             : $LOCAL_KEY" >&2
        echo "  served model id               : $INGEST_MODEL" >&2
        exit 1
    fi
    grep -q "\"format\":\"$FORMAT\"" <<<"$INGEST" \
        || { echo "smoke: ingest reply does not report the $FORMAT format" >&2; exit 1; }
    grep -q '"pcs":' <<<"$INGEST" || { echo "smoke: ingest reply lacks a heat-map report" >&2; exit 1; }
done
expect '^gmap_ingest_streams_total 2' "$GMAP" client metrics --addr "$ADDR"
expect '^gmap_ingest_bytes_total [1-9]' "$GMAP" client metrics --addr "$ADDR"
echo "smoke: streamed ingest matches local profiling, text and binary ($KEY)"

# Raw-socket edge cases via bash's /dev/tcp.
HOST="${ADDR%:*}"
PORT="${ADDR##*:}"

# Keep-alive: two pipelined requests on one connection get two responses;
# the second asks for close, so the server then hangs up.
exec 8<>"/dev/tcp/$HOST/$PORT"
printf 'GET /healthz HTTP/1.1\r\nHost: %s\r\n\r\nGET /healthz HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n' \
    "$ADDR" "$ADDR" >&8
KEEPALIVE="$(cat <&8)"
exec 8<&- 8>&- 2>/dev/null || true
if [[ "$(grep -c 'HTTP/1.1 200' <<<"$KEEPALIVE")" -ne 2 ]]; then
    echo "smoke: keep-alive connection did not serve two responses" >&2
    printf '%s\n' "$KEEPALIVE" >&2
    exit 1
fi
echo "smoke: keep-alive serves two requests on one connection"

# An absurd Content-Length is refused up front with 413 and a close.
exec 8<>"/dev/tcp/$HOST/$PORT"
printf 'POST /v1/profile HTTP/1.1\r\nHost: %s\r\nContent-Length: 99999999\r\n\r\n' "$ADDR" >&8
head -n1 <&8 | grep -q '413'
exec 8<&- 8>&- 2>/dev/null || true
echo "smoke: oversized body rejected with 413"

# A body shorter than its Content-Length stalls mid-request: after the
# read timeout the server answers 408 instead of hanging forever.
exec 8<>"/dev/tcp/$HOST/$PORT"
printf 'POST /v1/profile HTTP/1.1\r\nHost: %s\r\nContent-Length: 50\r\n\r\n{"wor' "$ADDR" >&8
head -n1 <&8 | grep -q '408'
exec 8<&- 8>&- 2>/dev/null || true
echo "smoke: truncated body answered with 408"

# Graceful shutdown: close stdin and expect a clean exit with the drain
# message on stdout — within 2 s: the server is idle, and none of its
# threads sleeps between noticing the stop and acting on it.
exec 9>&-
for _ in $(seq 1 20); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "smoke: server did not exit within 2 s of stdin EOF" >&2
    exit 1
fi
wait "$SERVER_PID"
grep -q 'drained and stopped' "$SERVER_OUT"
echo "smoke: graceful shutdown ok"

# ------------------------------------------------------------------
# Router mode: two replicas behind a consistent-hash router. A routed
# profile must return exactly the model id `gmap profile` computes
# locally from the same spec, routed evaluate must work end to end, and
# the router's per-peer forward counters must move.

start_server() { # start_server <name> <fd> <listen-addr> [extra serve args...]
    local name="$1" fd="$2" listen="$3"; shift 3
    mkfifo "$WORK/$name.stdin"
    "$GMAP" serve --listen "$listen" --workers 2 "$@" \
        <"$WORK/$name.stdin" >"$WORK/$name.out" &
    START_PID=$!
    eval "exec $fd>\"$WORK/$name.stdin\""
    START_ADDR=""
    for _ in $(seq 1 100); do
        START_ADDR="$(sed -n 's/^gmap-serve listening on //p' "$WORK/$name.out" | head -n1)"
        [[ -n "$START_ADDR" ]] && break
        sleep 0.1
    done
    if [[ -z "$START_ADDR" ]]; then
        echo "smoke: $name never reported its address" >&2
        cat "$WORK/$name.out" >&2
        exit 1
    fi
}

start_server replica1 5 127.0.0.1:0
R1_PID=$START_PID; R1_ADDR=$START_ADDR
start_server replica2 6 127.0.0.1:0
R2_PID=$START_PID; R2_ADDR=$START_ADDR
start_server router 7 127.0.0.1:0 --route "$R1_ADDR,$R2_ADDR"
ROUTER_PID=$START_PID; ROUTER_ADDR=$START_ADDR
echo "smoke: router $ROUTER_ADDR fronting $R1_ADDR and $R2_ADDR"

# The model id a routed profile returns must equal the locally computed
# content key for the same workload+scale spec.
WANT_ID="$("$GMAP" profile --workload kmeans --scale tiny -o "$WORK/local.json" \
    | sed -n 's/^model id: //p')"
[[ -n "$WANT_ID" ]] || { echo "smoke: gmap profile printed no model id" >&2; exit 1; }
ROUTED="$("$GMAP" client profile --addr "$ROUTER_ADDR" --workload kmeans --scale tiny)"
ROUTED_ID="$(printf '%s' "$ROUTED" | sed -n 's/.*"model_id":"\([0-9a-f]*\)".*/\1/p')"
if [[ "$ROUTED_ID" != "$WANT_ID" ]]; then
    echo "smoke: routed profile diverged from the locally computed model id" >&2
    echo "  local model id : $WANT_ID" >&2
    echo "  routed model id: $ROUTED_ID" >&2
    exit 1
fi
expect '"values":' "$GMAP" client evaluate --addr "$ROUTER_ADDR" \
    --model "$ROUTED_ID" --grid 16:4,32:4
METRICS="$("$GMAP" client metrics --addr "$ROUTER_ADDR")"
grep -q 'gmap_route_forwards_total{peer="' <<<"$METRICS"
FORWARDS="$(sed -n 's/^gmap_route_forwards_total{[^}]*} //p' <<<"$METRICS" \
    | awk '{s+=$1} END {print s+0}')"
if [[ "$FORWARDS" -lt 2 ]]; then
    echo "smoke: router forward counters did not move ($FORWARDS)" >&2
    grep '^gmap_route' <<<"$METRICS" >&2 || true
    exit 1
fi
echo "smoke: routed profile matches local model id ($ROUTED_ID), $FORWARDS forwards"

# Close all three stdin fifos: replicas and router drain cleanly.
exec 7>&- 6>&- 5>&-
for pid in "$ROUTER_PID" "$R2_PID" "$R1_PID"; do
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "smoke: sharded server (pid $pid) did not exit after stdin EOF" >&2
        exit 1
    fi
done
grep -q 'drained and stopped' "$WORK/router.out"
echo "smoke: sharded fleet drained cleanly"

# ------------------------------------------------------------------
# Replicated fleet: two `--fleet` replicas with successor replication.
# A model stored on one member must replicate to the other; after the
# first member is killed outright (SIGKILL, no graceful drain), the
# survivor must serve the victim's model from its replica copy — a
# cache *hit*, proving zero recompute.

# Reserve two ports by booting throwaway servers on ephemeral ports and
# shutting them down again: fleet membership must be known before any
# member starts. The reserve servers never accept a connection, so the
# freed ports rebind immediately.
start_server reserve1 5 127.0.0.1:0
RES1_PID=$START_PID; FA1=$START_ADDR
start_server reserve2 6 127.0.0.1:0
RES2_PID=$START_PID; FA2=$START_ADDR
exec 5>&- 6>&-
for pid in "$RES1_PID" "$RES2_PID"; do
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
done

start_server fleet1 5 "$FA1" --fleet "$FA1,$FA2" --advertise "$FA1" --probe-interval-ms 100
F1_PID=$START_PID
start_server fleet2 6 "$FA2" --fleet "$FA1,$FA2" --advertise "$FA2" --probe-interval-ms 100
F2_PID=$START_PID
echo "smoke: replicated fleet up at $FA1 and $FA2"

FLEET_PROFILE="$("$GMAP" client profile --addr "$FA1" --workload kmeans --scale tiny)"
FLEET_MODEL="$(printf '%s' "$FLEET_PROFILE" | sed -n 's/.*"model_id":"\([0-9a-f]*\)".*/\1/p')"
[[ -n "$FLEET_MODEL" ]] || { echo "smoke: fleet profile returned no model id" >&2; exit 1; }

# Wait until the asynchronous push lands on the peer (it can answer
# /v1/evaluate for the model only once it holds a copy).
REPLICATED=""
for _ in $(seq 1 100); do
    if "$GMAP" client evaluate --addr "$FA2" --model "$FLEET_MODEL" --grid 16:4 \
        >/dev/null 2>&1; then
        REPLICATED=1
        break
    fi
    sleep 0.1
done
[[ -n "$REPLICATED" ]] || { echo "smoke: replication to the peer never landed" >&2; exit 1; }
expect '^gmap_replication_total [1-9]' "$GMAP" client metrics --addr "$FA1"
echo "smoke: model replicated to the fleet peer"

# Kill the member that stored the model — hard, no shutdown — and serve
# its model from the survivor's replica copy: a cache hit, not a
# recompute.
kill -9 "$F1_PID" 2>/dev/null || true
exec 5>&- 2>/dev/null || true
expect '"cached":true' "$GMAP" client profile --addr "$FA2" --workload kmeans --scale tiny
expect '"values":' "$GMAP" client evaluate --addr "$FA2" --model "$FLEET_MODEL" --grid 16:4,32:4
echo "smoke: survivor served the killed owner's model from its replica copy"

# The survivor's prober must take the killed member down: its gauge
# reads 0 and the survivor counts exactly one ejection.
DOWN=""
for _ in $(seq 1 100); do
    METRICS="$("$GMAP" client metrics --addr "$FA2")"
    if grep -qxF "gmap_peer_up{peer=\"$FA1\"} 0" <<<"$METRICS" \
        && grep -qx 'gmap_peer_ejections_total 1' <<<"$METRICS"; then
        DOWN=1
        break
    fi
    sleep 0.1
done
if [[ -z "$DOWN" ]]; then
    echo "smoke: the survivor never marked the killed member down" >&2
    grep '^gmap_peer' <<<"$METRICS" >&2 || true
    exit 1
fi
echo "smoke: survivor marks the killed member down (gmap_peer_up 0, one ejection)"

# A replica leaves the fleet by stopping: the client has no drain
# action, and the survivor's health stays ok.
if "$GMAP" client drain --addr "$FA2" >/dev/null 2>&1; then
    echo "smoke: gmap client drain must be refused" >&2
    exit 1
fi
expect '"status":"ok"' "$GMAP" client health --addr "$FA2"
echo "smoke: no drain action; the survivor reports ok"

exec 6>&-
for _ in $(seq 1 100); do
    kill -0 "$F2_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$F2_PID" 2>/dev/null; then
    echo "smoke: fleet survivor did not exit after stdin EOF" >&2
    exit 1
fi
grep -q 'drained and stopped' "$WORK/fleet2.out"
echo "smoke: replicated fleet shut down cleanly"
