#!/bin/sh
# e2e-smoke.sh — CI smoke test for the versioned wire API and the
# multi-node cluster layer.
#
# Part 1 (single daemon): builds the binaries under the race detector,
# boots iofleetd (with -semcache) on an ephemeral port, round-trips one
# TraceBench trace through `ioagent -server` (the internal/fleet/client
# SDK) on each priority lane, then submits a near-duplicate of the same
# trace (text rendering + one extra metadata line, so the content digest
# differs) and asserts it is served as a similarity hit citing the
# original's digest.
#
# Part 2 (cluster): boots TWO iofleetd nodes plus iofleet-router, routes
# both lanes through the router, restarts the router and checks a warm
# digest is still served from the owning node's cache, then kills one
# node mid-batch and asserts the batch still completes (ring-successor
# failover + digest-idempotent resubmit).
#
# Part 3 (streaming): streams a trace file through the router with
# `ioagent -stream` (digest asserted up front — zero router spool),
# streams the same trace from stdin (digest via trailer), checks the
# rendering-canonical cache hit, and drives a 64KB-chunk resumable
# upload session end to end.
#
# Part 4 (knowledge plane): boots a fresh two-daemon cluster with served,
# durable knowledge planes behind the router, broadcasts a corpus
# document and promotes it mid-batch (the in-flight batch must not fail),
# asserts the next fresh diagnosis cites the new document, kills one
# daemon with -9 and checks the promoted epoch survives the restart, then
# drives a one-sided swap and checks /v1/cluster reports the epoch skew.
#
# Part 5 (elastic fleet): boots two gossiping elastic daemons
# (-advertise/-peers, successor replication on) and a router that follows
# the live roster from a single seed; checks the router discovers the
# second member on its own, has a third daemon join mid-batch with zero
# client-visible errors, then kills a cache owner with -9 and asserts its
# previously-diagnosed digest is answered warm by the ring successor.
#
# Run from the repository root; exits non-zero on any failure.
set -eu

workdir=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

# start_daemon LOGFILE ARGS... — boots a binary on 127.0.0.1:0 and echoes
# its resolved address; the PID is appended to $pids via the global.
wait_addr() { # logfile pid
    _addr=""
    _i=0
    while [ "$_i" -lt 100 ]; do
        _addr=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$1" | head -1)
        [ -n "$_addr" ] && break
        kill -0 "$2" 2>/dev/null || { echo "process exited early:" >&2; cat "$1" >&2; exit 1; }
        _i=$((_i + 1))
        sleep 0.1
    done
    [ -n "$_addr" ] || { echo "process never reported its address:" >&2; cat "$1" >&2; exit 1; }
    echo "$_addr"
}

echo "== building binaries (-race)"
go build -race -o "$workdir/iofleetd" ./cmd/iofleetd
go build -race -o "$workdir/iofleet-router" ./cmd/iofleet-router
go build -race -o "$workdir/ioagent" ./cmd/ioagent
go build -o "$workdir/tracebench" ./cmd/tracebench
go build -o "$workdir/darshan-parser" ./cmd/darshan-parser

echo "== materializing traces"
"$workdir/tracebench" -out "$workdir/traces" >/dev/null

echo "== [1/2] single daemon: booting iofleetd (-semcache) on an ephemeral port"
"$workdir/iofleetd" -addr 127.0.0.1:0 -workers 2 -semcache 2>"$workdir/daemon.log" &
daemon_pid=$!
pids="$pids $daemon_pid"
addr=$(wait_addr "$workdir/daemon.log" "$daemon_pid")
echo "   daemon at $addr"

trace=$(ls "$workdir"/traces/*.darshan | head -1)
echo "== round-tripping $(basename "$trace") through ioagent -server"
"$workdir/ioagent" -server "http://$addr" -lane interactive "$trace" >"$workdir/interactive.out"
grep -q "I/O" "$workdir/interactive.out" || { echo "interactive diagnosis looks empty:"; cat "$workdir/interactive.out"; exit 1; }

# The same trace on the batch lane must be answered from the result
# cache — the digest-addressed store is shared across lanes.
"$workdir/ioagent" -server "http://$addr" -lane batch "$trace" >"$workdir/batch.out"
grep -q "cache hit" "$workdir/batch.out" || { echo "batch resubmit was not a cache hit:"; cat "$workdir/batch.out"; exit 1; }

echo "== semantic reuse: near-duplicate must be a similarity hit"
# A text rendering with one extra metadata line: new content digest,
# identical I/O profile — the shape the similarity cache exists for.
"$workdir/darshan-parser" "$trace" >"$workdir/neardup.txt"
printf '# metadata: smoke_variant = neardup\n' >>"$workdir/neardup.txt"
"$workdir/ioagent" -server "http://$addr" -lane interactive "$workdir/neardup.txt" >"$workdir/neardup.out"
grep -q "similarity hit" "$workdir/neardup.out" \
    || { echo "near-duplicate was not served as a similarity hit:"; cat "$workdir/neardup.out"; exit 1; }
if grep '^=== ' "$workdir/neardup.out" | grep -q ", cache hit"; then
    echo "similarity hit must not also claim an exact cache hit:"; cat "$workdir/neardup.out"; exit 1
fi
# The reused diagnosis must cite the ORIGINAL trace's digest: the jobs
# list holds exactly one source_digest, and it must equal the digest of
# one of the other (fresh) jobs.
jobs_json=$(curl -sf "http://$addr/v1/jobs")
src=$(printf '%s' "$jobs_json" | sed -n 's/.*"source_digest": *"\([0-9a-f]*\)".*/\1/p' | head -1)
[ -n "$src" ] || { echo "similarity-hit job carries no source_digest:"; printf '%s\n' "$jobs_json"; exit 1; }
printf '%s' "$jobs_json" | grep -q "\"digest\": *\"$src\"" \
    || { echo "source_digest $src does not match any diagnosed job's digest:"; printf '%s\n' "$jobs_json"; exit 1; }

echo "== checking Prometheus exposition"
curl -sf -H 'Accept: text/plain' "http://$addr/metrics" | grep -q '^fleet_jobs_done_total' \
    || { echo "/metrics text exposition missing fleet_jobs_done_total"; exit 1; }
curl -sf -H 'Accept: text/plain' "http://$addr/metrics" | grep -q '^fleet_semcache_hits_total 1' \
    || { echo "/metrics exposition missing fleet_semcache_hits_total 1"; exit 1; }

echo "== clean shutdown of the single daemon"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || true

echo "== [2/2] cluster: booting two iofleetd nodes"
# -api-latency stretches each diagnosis so the mid-batch kill below lands
# while work is genuinely in flight.
"$workdir/iofleetd" -addr 127.0.0.1:0 -node-id n1 -workers 2 -api-latency 300ms 2>"$workdir/n1.log" &
n1_pid=$!
pids="$pids $n1_pid"
"$workdir/iofleetd" -addr 127.0.0.1:0 -node-id n2 -workers 2 -api-latency 300ms 2>"$workdir/n2.log" &
n2_pid=$!
pids="$pids $n2_pid"
n1=$(wait_addr "$workdir/n1.log" "$n1_pid")
n2=$(wait_addr "$workdir/n2.log" "$n2_pid")
echo "   nodes at $n1 (n1) and $n2 (n2)"

echo "== booting iofleet-router over both nodes"
"$workdir/iofleet-router" -addr 127.0.0.1:0 -nodes "http://$n1,http://$n2" 2>"$workdir/router.log" &
router_pid=$!
pids="$pids $router_pid"
router=$(wait_addr "$workdir/router.log" "$router_pid")
echo "   router at $router"

echo "== round-tripping both lanes through the router"
"$workdir/ioagent" -server "http://$router" -lane interactive -tenant smoke "$trace" >"$workdir/r-interactive.out"
grep -q "I/O" "$workdir/r-interactive.out" || { echo "router interactive diagnosis looks empty:"; cat "$workdir/r-interactive.out"; exit 1; }
"$workdir/ioagent" -server "http://$router" -lane batch -tenant smoke "$trace" >"$workdir/r-batch.out"
grep -q "cache hit" "$workdir/r-batch.out" || { echo "router batch resubmit was not a cache hit:"; cat "$workdir/r-batch.out"; exit 1; }

echo "== checking aggregated metrics through the router"
curl -sf "http://$router/metrics" | grep -q '"tenant_jobs"' \
    || { echo "router metrics missing per-tenant counters"; exit 1; }
curl -sf -H 'Accept: text/plain' "http://$router/metrics" | grep -q '^fleet_owned_digests' \
    || { echo "router exposition missing fleet_owned_digests"; exit 1; }
curl -sf "http://$router/v1/cluster" | grep -q '"healthy": *true' \
    || { echo "cluster health reports no healthy node"; exit 1; }

echo "== restarting the router: warm digest must hit the owning node's cache"
kill -TERM "$router_pid"
wait "$router_pid" || true
"$workdir/iofleet-router" -addr 127.0.0.1:0 -nodes "http://$n1,http://$n2" 2>"$workdir/router2.log" &
router_pid=$!
pids="$pids $router_pid"
router=$(wait_addr "$workdir/router2.log" "$router_pid")
"$workdir/ioagent" -server "http://$router" -lane interactive "$trace" >"$workdir/r-warm.out"
grep -q "cache hit" "$workdir/r-warm.out" || { echo "warm digest missed after router restart:"; cat "$workdir/r-warm.out"; exit 1; }

echo "== killing node n2 mid-batch: the batch must still complete"
batch_traces=$(ls "$workdir"/traces/*.darshan | head -4)
# shellcheck disable=SC2086
"$workdir/ioagent" -server "http://$router" -lane batch $batch_traces >"$workdir/r-kill.out" 2>"$workdir/r-kill.err" &
batch_pid=$!
sleep 0.4
kill -KILL "$n2_pid" 2>/dev/null || true
if ! wait "$batch_pid"; then
    echo "batch failed after killing n2:"
    cat "$workdir/r-kill.out" "$workdir/r-kill.err"
    echo "--- router log ---"; tail -20 "$workdir/router.log" "$workdir/router2.log" 2>/dev/null
    exit 1
fi
done_count=$(grep -c "done" "$workdir/r-kill.out" || true)
[ "$done_count" -ge 4 ] || { echo "batch reported only $done_count done jobs of 4:"; cat "$workdir/r-kill.out"; exit 1; }
echo "   batch of 4 completed with n2 dead ($done_count reports)"

echo "== [3/3] streaming ingest through the router"
stream_trace=$(ls "$workdir"/traces/*.darshan | sed -n 5p)
echo "== streaming $(basename "$stream_trace") as a file (digest header, zero spool)"
"$workdir/ioagent" -server "http://$router" -stream "$stream_trace" >"$workdir/s-file.out"
grep -q "digest " "$workdir/s-file.out" || { echo "file stream did not assert a digest:"; cat "$workdir/s-file.out"; exit 1; }
grep -q "done" "$workdir/s-file.out" || { echo "file stream diagnosis missing:"; cat "$workdir/s-file.out"; exit 1; }

echo "== streaming the same trace from stdin (trailer digest): must cache-hit"
"$workdir/ioagent" -server "http://$router" -stream - <"$stream_trace" >"$workdir/s-stdin.out"
grep -q "cache hit" "$workdir/s-stdin.out" || { echo "stdin re-stream was not a cache hit:"; cat "$workdir/s-stdin.out"; exit 1; }

echo "== resumable upload session in 64KB chunks"
stream_trace2=$(ls "$workdir"/traces/*.darshan | sed -n 6p)
"$workdir/ioagent" -server "http://$router" -stream -chunk 65536 "$stream_trace2" >"$workdir/s-chunked.out"
grep -q "done" "$workdir/s-chunked.out" || { echo "chunked upload diagnosis missing:"; cat "$workdir/s-chunked.out"; exit 1; }

echo "== shutting down the part-2/3 cluster"
kill -TERM "$router_pid" "$n1_pid" 2>/dev/null || true
wait "$router_pid" 2>/dev/null || true
wait "$n1_pid" 2>/dev/null || true
pids=""

echo "== [4/4] knowledge plane: booting two knowledge-serving daemons"
# Durable planes (-state-dir carries the knowledge WAL) with the ANN
# index on; -api-latency stretches diagnoses so the epoch swap below
# lands while the batch is genuinely in flight.
"$workdir/iofleetd" -addr 127.0.0.1:0 -node-id k1 -workers 2 -api-latency 300ms \
    -knowledge -knowledge-members k1,k2 -ann -state-dir "$workdir/k1-state" 2>"$workdir/k1.log" &
k1_pid=$!
pids="$pids $k1_pid"
"$workdir/iofleetd" -addr 127.0.0.1:0 -node-id k2 -workers 2 -api-latency 300ms \
    -knowledge -knowledge-members k1,k2 -ann -state-dir "$workdir/k2-state" 2>"$workdir/k2.log" &
k2_pid=$!
pids="$pids $k2_pid"
k1=$(wait_addr "$workdir/k1.log" "$k1_pid")
k2=$(wait_addr "$workdir/k2.log" "$k2_pid")
"$workdir/iofleet-router" -addr 127.0.0.1:0 -nodes "http://$k1,http://$k2" 2>"$workdir/krouter.log" &
krouter_pid=$!
pids="$pids $krouter_pid"
krouter=$(wait_addr "$workdir/krouter.log" "$krouter_pid")
echo "   nodes at $k1 (k1) and $k2 (k2), router at $krouter"

echo "== baseline diagnosis from the compiled-in corpus (epoch 1)"
mdtrace="$workdir/traces/sb05-metadata-storm.darshan"
"$workdir/ioagent" -server "http://$krouter" "$mdtrace" >"$workdir/k-base.out"
grep -q "I/O" "$workdir/k-base.out" || { echo "baseline knowledge diagnosis looks empty:"; cat "$workdir/k-base.out"; exit 1; }
if grep -q "e2esync-advisory" "$workdir/k-base.out"; then
    echo "baseline diagnosis cites a document that does not exist yet:"; cat "$workdir/k-base.out"; exit 1
fi

echo "== upsert + swap mid-batch: in-flight diagnoses must not fail"
batch_traces=$(ls "$workdir"/traces/*.darshan | head -4)
# shellcheck disable=SC2086
"$workdir/ioagent" -server "http://$krouter" -lane batch $batch_traces >"$workdir/k-batch.out" 2>"$workdir/k-batch.err" &
kbatch_pid=$!
sleep 0.2
curl -sf -X POST "http://$krouter/v1/knowledge/docs" -d '{"docs":[{
  "key": "e2esync-advisory",
  "title": "Fleet advisory: metadata storm mitigation",
  "text": "When metadata operations such as open and stat account for most of the observed I/O time, the metadata server has become the bottleneck: every process that performed thousands of metadata operations (opens and stats) adds load on the mdt. Batch stat calls, cache open file handles, and spread directory entries across mdt targets to reduce metadata time."
}]}' >/dev/null || { echo "broadcast knowledge upsert failed"; exit 1; }
curl -sf -X POST "http://$krouter/v1/knowledge/swap" -d '{}' | grep -q '"epoch": *2' \
    || { echo "broadcast swap did not promote epoch 2"; exit 1; }
if ! wait "$kbatch_pid"; then
    echo "in-flight batch failed across the epoch swap:"
    cat "$workdir/k-batch.out" "$workdir/k-batch.err"; exit 1
fi
kdone=$(grep -c "done" "$workdir/k-batch.out" || true)
[ "$kdone" -ge 4 ] || { echo "batch across swap reported only $kdone done jobs of 4:"; cat "$workdir/k-batch.out"; exit 1; }
echo "   batch of 4 completed across the swap ($kdone reports)"

echo "== fresh diagnosis at epoch 2 must cite the new document"
# A text rendering with one extra metadata line: a new content digest, so
# the diagnosis is computed fresh against the promoted corpus.
"$workdir/darshan-parser" "$mdtrace" >"$workdir/k-variant.txt"
printf '# metadata: smoke_variant = knowledge\n' >>"$workdir/k-variant.txt"
"$workdir/ioagent" -server "http://$krouter" "$workdir/k-variant.txt" >"$workdir/k-post.out"
grep -q "e2esync-advisory" "$workdir/k-post.out" \
    || { echo "post-swap diagnosis does not cite the upserted document:"; cat "$workdir/k-post.out"; exit 1; }

echo "== kill -9 k2: the promoted epoch must survive the restart"
kill -KILL "$k2_pid" 2>/dev/null || true
wait "$k2_pid" 2>/dev/null || true
"$workdir/iofleetd" -addr "$k2" -node-id k2 -workers 2 -api-latency 300ms \
    -knowledge -knowledge-members k1,k2 -ann -state-dir "$workdir/k2-state" 2>"$workdir/k2b.log" &
k2_pid=$!
pids="$pids $k2_pid"
k2=$(wait_addr "$workdir/k2b.log" "$k2_pid")
curl -sf "http://$k2/v1/knowledge" | grep -q '"epoch": *2' \
    || { echo "knowledge epoch did not survive kill -9:"; curl -s "http://$k2/v1/knowledge"; exit 1; }
echo "   k2 recovered at epoch 2 from its knowledge WAL"

echo "== one-sided swap must surface as cluster epoch skew"
curl -sf -X POST "http://$k1/v1/knowledge/docs" -d '{"remove":["e2esync-advisory"]}' >/dev/null
curl -sf -X POST "http://$k1/v1/knowledge/swap" -d '{}' >/dev/null
curl -sf "http://$krouter/v1/cluster" | grep -q '"knowledge_epoch_skew": *true' \
    || { echo "one-sided swap not reported as knowledge_epoch_skew:"; curl -s "http://$krouter/v1/cluster"; exit 1; }
curl -sf -X POST "http://$k2/v1/knowledge/docs" -d '{"remove":["e2esync-advisory"]}' >/dev/null
curl -sf -X POST "http://$k2/v1/knowledge/swap" -d '{}' >/dev/null
if curl -sf "http://$krouter/v1/cluster" | grep -q '"knowledge_epoch_skew": *true'; then
    echo "converged fleet still reports knowledge_epoch_skew:"; curl -s "http://$krouter/v1/cluster"; exit 1
fi
echo "   skew raised on divergence, cleared on convergence"

echo "== shutting down the part-4 cluster"
kill -TERM "$krouter_pid" "$k1_pid" "$k2_pid" 2>/dev/null || true
wait "$krouter_pid" 2>/dev/null || true
wait "$k1_pid" 2>/dev/null || true
wait "$k2_pid" 2>/dev/null || true
pids=""

echo "== [5/5] elastic fleet: live join, roster-following router, kill -9 warm failover"
# Two elastic members joining by gossip (-advertise auto resolves the
# ephemeral port) with successor replication on, and a router seeded with
# ONLY the first member — ex2 must arrive via the roster protocol.
"$workdir/iofleetd" -addr 127.0.0.1:0 -node-id ex1 -workers 2 -api-latency 300ms \
    -advertise auto -replicate 2 -roster-interval 100ms 2>"$workdir/ex1.log" &
ex1_pid=$!
pids="$pids $ex1_pid"
ex1=$(wait_addr "$workdir/ex1.log" "$ex1_pid")
"$workdir/iofleetd" -addr 127.0.0.1:0 -node-id ex2 -workers 2 -api-latency 300ms \
    -advertise auto -peers "http://$ex1" -replicate 2 -roster-interval 100ms 2>"$workdir/ex2.log" &
ex2_pid=$!
pids="$pids $ex2_pid"
ex2=$(wait_addr "$workdir/ex2.log" "$ex2_pid")
"$workdir/iofleet-router" -addr 127.0.0.1:0 -nodes "http://$ex1" -roster-refresh 200ms 2>"$workdir/erouter.log" &
erouter_pid=$!
pids="$pids $erouter_pid"
erouter=$(wait_addr "$workdir/erouter.log" "$erouter_pid")
echo "   members at $ex1 (ex1) and $ex2 (ex2), roster-following router at $erouter"

wait_members() { # count
    _i=0
    while [ "$_i" -lt 100 ]; do
        _n=$(curl -s "http://$erouter/v1/cluster" | grep -o '"healthy": *true' | wc -l)
        [ "$_n" -ge "$1" ] && return 0
        _i=$((_i + 1))
        sleep 0.1
    done
    echo "router never saw $1 healthy members:" >&2
    curl -s "http://$erouter/v1/cluster" >&2
    exit 1
}
echo "== router must discover ex2 from the live roster (it was seeded with ex1 only)"
wait_members 2

echo "== ex3 joins mid-batch: zero client-visible errors"
batch_traces=$(ls "$workdir"/traces/*.darshan | head -4)
# shellcheck disable=SC2086
"$workdir/ioagent" -server "http://$erouter" -lane batch $batch_traces >"$workdir/e-soak.out" 2>"$workdir/e-soak.err" &
soak_pid=$!
sleep 0.4
"$workdir/iofleetd" -addr 127.0.0.1:0 -node-id ex3 -workers 2 -api-latency 300ms \
    -advertise auto -peers "http://$ex1" -replicate 2 -roster-interval 100ms 2>"$workdir/ex3.log" &
ex3_pid=$!
pids="$pids $ex3_pid"
ex3=$(wait_addr "$workdir/ex3.log" "$ex3_pid")
if ! wait "$soak_pid"; then
    echo "batch failed across the live join:"
    cat "$workdir/e-soak.out" "$workdir/e-soak.err"
    exit 1
fi
edone=$(grep -c "done" "$workdir/e-soak.out" || true)
[ "$edone" -ge 4 ] || { echo "batch across the join reported only $edone done jobs of 4:"; cat "$workdir/e-soak.out"; exit 1; }
wait_members 3
echo "   batch of 4 completed across the join; roster converged at 3 members"

echo "== kill -9 a cache owner: its digest must be answered warm by the successor"
# Sum of accepted replica copies across the fleet — the signal that a
# fresh diagnosis has landed on its successor as well as its owner.
replica_total() {
    _t=0
    for _a in "$@"; do
        _v=$(curl -s -H 'Accept: text/plain' "http://$_a/metrics" | sed -n 's/^fleet_handoff_replica_received_total //p')
        _t=$((_t + ${_v:-0}))
    done
    echo "$_t"
}
before=$(replica_total "$ex1" "$ex2" "$ex3")
fresh=$(ls "$workdir"/traces/*.darshan | sed -n 5p)
"$workdir/ioagent" -server "http://$erouter" -lane interactive "$fresh" >"$workdir/e-fresh.out"
grep -q "done" "$workdir/e-fresh.out" || { echo "fresh elastic diagnosis missing:"; cat "$workdir/e-fresh.out"; exit 1; }
owner=$(sed -n 's/.*(\(ex[0-9]\)-job-[0-9]*,.*/\1/p' "$workdir/e-fresh.out" | head -1)
[ -n "$owner" ] || { echo "could not extract the owning node from:"; cat "$workdir/e-fresh.out"; exit 1; }
_i=0
while [ "$_i" -lt 100 ]; do
    [ "$(replica_total "$ex1" "$ex2" "$ex3")" -gt "$before" ] && break
    _i=$((_i + 1))
    sleep 0.1
done
[ "$(replica_total "$ex1" "$ex2" "$ex3")" -gt "$before" ] || { echo "fresh diagnosis never replicated to a successor"; exit 1; }
curl -sf -H 'Accept: text/plain' "http://$erouter/metrics" | grep -q '^fleet_handoff_replica_received_total' \
    || { echo "router aggregate dropped the fleet_handoff_* series its nodes report"; exit 1; }
case "$owner" in
ex1) kill -KILL "$ex1_pid" 2>/dev/null || true ;;
ex2) kill -KILL "$ex2_pid" 2>/dev/null || true ;;
ex3) kill -KILL "$ex3_pid" 2>/dev/null || true ;;
esac
echo "   killed owner $owner; resubmitting its digest"
"$workdir/ioagent" -server "http://$erouter" -lane interactive "$fresh" >"$workdir/e-warm.out"
grep -q "cache hit" "$workdir/e-warm.out" || { echo "digest not served warm after killing its owner:"; cat "$workdir/e-warm.out"; exit 1; }
if grep -q "($owner-job-" "$workdir/e-warm.out"; then
    echo "warm answer claims the dead owner $owner:"
    cat "$workdir/e-warm.out"
    exit 1
fi
echo "   successor answered warm with $owner dead"

echo "== clean shutdown"
kill -TERM "$erouter_pid" "$ex1_pid" "$ex2_pid" "$ex3_pid" 2>/dev/null || true
wait "$erouter_pid" 2>/dev/null || true
wait "$ex1_pid" 2>/dev/null || true
wait "$ex2_pid" 2>/dev/null || true
wait "$ex3_pid" 2>/dev/null || true
pids=""
echo "e2e smoke OK"
