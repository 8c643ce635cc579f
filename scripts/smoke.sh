#!/usr/bin/env bash
# smoke.sh — end-to-end smoke test of the popprotod HTTP service, as run
# by CI: start the server with a durable result store, submit a PLL
# election at n=10^5 on the census engine, assert exactly one leader and
# a cache hit on the identical resubmission, repeat on the phase-adaptive
# hybrid engine asserting the resolved engine lands in the job record,
# run a replicated experiment
# through /v1/experiments, run a scaling sweep (PLL × n∈{1e3,1e4,1e5},
# engine auto) through /v1/sweeps and assert a fitted log-slope comes
# back, then kill the server, restart it on the same store, and assert
# the job, the experiment, the sweep and its per-cell results are still
# served, and scrape /metrics asserting the run and cache series moved
# and the Go runtime's memory series are there.
#
# Then the store-v2-specific legs: query the durable corpus through
# GET /v1/results (filters, scaling fit, and the results CLI); kill the
# server with SIGKILL in the middle of a write burst and assert every
# record the store had acknowledged (made visible in /v1/results — the
# store indexes a record only after its group commit is durable) is
# still served after restart; and boot a server on a v1 JSONL store
# file, asserting it is migrated to the segmented layout in place.
#
# Usage: scripts/smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

PORT=${1:-8099}
BASE="http://127.0.0.1:${PORT}"
SPEC='{"protocol": "pll", "n": 100000, "engine": "count", "seed": 42}'
EXP_SPEC='{"protocol": "pll", "n": 100000, "engine": "count", "seed": 42, "replicates": 8}'
SWEEP_SPEC='{"protocols": ["pll"], "ns": [1000, 10000, 100000], "replicates": 4}'

WORKDIR=$(mktemp -d)
BIN="$WORKDIR/popprotod"
RESULTS_BIN="$WORKDIR/results"
STORE="$WORKDIR/results.store"
go build -o "$BIN" ./cmd/popprotod
go build -o "$RESULTS_BIN" ./cmd/results

SERVER_PID=
start_server() {
  "$BIN" -addr "127.0.0.1:${PORT}" -store "$STORE" &
  SERVER_PID=$!
  for _ in $(seq 1 50); do
    curl -fs "$BASE/v1/health" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "server never came up" >&2
  exit 1
}
stop_server() {
  kill "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
}
trap 'stop_server' EXIT

wait_state() { # url
  local state=
  for _ in $(seq 1 300); do
    state=$(curl -fs "$1" | jq -r '.state')
    [ "$state" = done ] || [ "$state" = failed ] && break
    sleep 0.2
  done
  echo "$state"
}

start_server

echo "catalog:" >&2
curl -fs "$BASE/v1/protocols" | jq -r '.protocols[].key' >&2

ID=$(curl -fs -X POST -d "$SPEC" "$BASE/v1/jobs" | jq -r '.job.id')
echo "submitted job $ID" >&2

STATE=$(wait_state "$BASE/v1/jobs/$ID")
[ "$STATE" = done ] || { echo "job ended in state $STATE" >&2; exit 1; }

LEADERS=$(curl -fs "$BASE/v1/jobs/$ID" | jq -r '.result.leaders')
[ "$LEADERS" = 1 ] || { echo "expected 1 leader, got $LEADERS" >&2; exit 1; }
echo "election stabilized with exactly one leader" >&2

CACHED=$(curl -fs -X POST -d "$SPEC" "$BASE/v1/jobs" | jq -r '.cached')
[ "$CACHED" = true ] || { echo "identical resubmission not served from cache" >&2; exit 1; }
echo "identical resubmission served from cache" >&2

# The SSE trace must replay at least two census snapshots, each valid
# JSON with at most 32 census keys whose counts plus omittedAgents are n.
TRACE=$(curl -fs -N --max-time 10 "$BASE/v1/jobs/$ID/trace")
SNAPSHOTS=$(printf '%s\n' "$TRACE" | grep -c '^event: census' || true)
[ "$SNAPSHOTS" -ge 2 ] || { echo "trace replayed $SNAPSHOTS snapshots, want >= 2" >&2; exit 1; }
COHERENT=$(printf '%s\n' "$TRACE" | sed -n '/^event: census$/{n;s/^data: //p}' |
  jq -s '[.[] | select((.census | length) <= 32 and (.census | add) + (.omittedAgents // 0) == 100000)] | length') ||
  { echo "trace census events are not valid JSON" >&2; exit 1; }
[ "$COHERENT" = "$SNAPSHOTS" ] ||
  { echo "$COHERENT of $SNAPSHOTS census events have <= 32 keys covering all 100000 agents" >&2; exit 1; }
echo "trace replayed $SNAPSHOTS census snapshots, each a coherent census of n agents" >&2

# --- hybrid engine: the phase-adaptive engine elects through the service ---
HYBRID_SPEC='{"protocol": "pll", "n": 100000, "engine": "hybrid", "seed": 42}'
HID=$(curl -fs -X POST -d "$HYBRID_SPEC" "$BASE/v1/jobs" | jq -r '.job.id')
echo "submitted hybrid job $HID" >&2

HSTATE=$(wait_state "$BASE/v1/jobs/$HID")
[ "$HSTATE" = done ] || { echo "hybrid job ended in state $HSTATE" >&2; exit 1; }

HJOB=$(curl -fs "$BASE/v1/jobs/$HID")
HLEADERS=$(echo "$HJOB" | jq -r '.result.leaders')
HENGINE=$(echo "$HJOB" | jq -r '.spec.engine')
[ "$HLEADERS" = 1 ] || { echo "hybrid job expected 1 leader, got $HLEADERS" >&2; exit 1; }
[ "$HENGINE" = hybrid ] || { echo "hybrid job record names engine $HENGINE" >&2; exit 1; }
HPART=$(echo "$HJOB" | jq -r '.result | (.hybrid.roundSteps + .hybrid.interactSteps + .hybrid.skipSteps) == .steps')
[ "$HPART" = true ] || { echo "hybrid mode telemetry does not partition the run's steps" >&2; exit 1; }
echo "hybrid engine elected exactly one leader (engine recorded: $HENGINE)" >&2

# --- payoff-driven skip: a no-op-dominated endgame must report skip-mode
# interactions through the service. PLL stays reaction-dense to the end
# (its countdown timers tick on every interaction), so the duel protocol —
# whose two surviving leaders meet once every ~n²/2 interactions — is the
# workload that exercises geometric skipping end to end.
SKIP_SPEC='{"protocol": "angluin", "n": 20000, "engine": "hybrid", "seed": 42, "maxParallelTime": 100000}'
KID=$(curl -fs -X POST -d "$SKIP_SPEC" "$BASE/v1/jobs" | jq -r '.job.id')
echo "submitted skip-endgame job $KID" >&2

KSTATE=$(wait_state "$BASE/v1/jobs/$KID")
[ "$KSTATE" = done ] || { echo "skip-endgame job ended in state $KSTATE" >&2; exit 1; }

KJOB=$(curl -fs "$BASE/v1/jobs/$KID")
KSKIP=$(echo "$KJOB" | jq -r '.result.hybrid.skipSteps')
KENTRIES=$(echo "$KJOB" | jq -r '.result.hybrid.skipEntries')
[ "$KSKIP" -gt 0 ] 2>/dev/null || { echo "skip-endgame job reports skipSteps=$KSKIP, want > 0" >&2; exit 1; }
[ "$KENTRIES" -gt 0 ] 2>/dev/null || { echo "skip-endgame job reports skipEntries=$KENTRIES, want > 0" >&2; exit 1; }
echo "payoff controller skipped $KSKIP interactions across $KENTRIES skip phases" >&2

# --- experiments: replicated Monte-Carlo ensemble with aggregates ---
EID=$(curl -fs -X POST -d "$EXP_SPEC" "$BASE/v1/experiments" | jq -r '.experiment.id')
echo "submitted experiment $EID" >&2

ESTATE=$(wait_state "$BASE/v1/experiments/$EID")
[ "$ESTATE" = done ] || { echo "experiment ended in state $ESTATE" >&2; exit 1; }

AGG=$(curl -fs "$BASE/v1/experiments/$EID")
REPLICATES=$(echo "$AGG" | jq -r '.aggregates.replicates')
STABILIZED=$(echo "$AGG" | jq -r '.aggregates.stabilized')
MEAN=$(echo "$AGG" | jq -r '.aggregates.meanParallelTime')
[ "$REPLICATES" = 8 ] && [ "$STABILIZED" = 8 ] ||
  { echo "experiment aggregates $STABILIZED/$REPLICATES, want 8/8" >&2; exit 1; }
echo "experiment: 8/8 replicates elected, mean parallel time $MEAN" >&2

# The SSE stream of the finished experiment replays aggregates + done.
EVENTS=$(curl -fs -N --max-time 10 "$BASE/v1/experiments/$EID/stream" | grep -c '^event: ' || true)
[ "$EVENTS" -ge 2 ] || { echo "experiment stream emitted $EVENTS events, want >= 2" >&2; exit 1; }
echo "experiment stream replayed $EVENTS events" >&2

# --- sweeps: a scaling grid with a fitted a·lg n + b curve ---
SID=$(curl -fs -X POST -d "$SWEEP_SPEC" "$BASE/v1/sweeps" | jq -r '.sweep.id')
echo "submitted sweep $SID" >&2

SSTATE=$(wait_state "$BASE/v1/sweeps/$SID")
[ "$SSTATE" = done ] || { echo "sweep ended in state $SSTATE" >&2; exit 1; }

SWEEP=$(curl -fs "$BASE/v1/sweeps/$SID")
CELLS_DONE=$(echo "$SWEEP" | jq '[.cells[] | select(.state == "done")] | length')
[ "$CELLS_DONE" = 3 ] || { echo "sweep finished $CELLS_DONE/3 cells" >&2; exit 1; }
SLOPE=$(echo "$SWEEP" | jq -r '.summary.fits[0].a')
R2=$(echo "$SWEEP" | jq -r '.summary.fits[0].r2')
EXPONENT=$(echo "$SWEEP" | jq -r '.summary.fits[0].logLogExponent')
case "$SLOPE" in ""|null) echo "sweep returned no fitted log-slope" >&2; exit 1;; esac
echo "sweep: 3/3 cells done, fitted time = ${SLOPE}·lg n (R² $R2, log-log exponent $EXPONENT)" >&2

# engine=auto resolved per cell: agent at n=1e3, hybrid at n=1e5.
ENGINES=$(echo "$SWEEP" | jq -r '[.cells[].engine] | join(",")')
[ "$ENGINES" = "agent,agent,hybrid" ] ||
  { echo "auto resolution picked engines $ENGINES, want agent,agent,hybrid" >&2; exit 1; }
echo "engine auto resolved per cell: $ENGINES" >&2

# The sweep's SSE stream replays one cell event per cell plus done.
SWEEP_EVENTS=$(curl -fs -N --max-time 10 "$BASE/v1/sweeps/$SID/stream" | grep -c '^event: ' || true)
[ "$SWEEP_EVENTS" -ge 4 ] || { echo "sweep stream emitted $SWEEP_EVENTS events, want >= 4" >&2; exit 1; }
echo "sweep stream replayed $SWEEP_EVENTS events" >&2

# --- observability: the Prometheus exposition reflects the work above ---
METRICS=$(curl -fs "$BASE/metrics")
RUNS_DONE=$(echo "$METRICS" | awk '/^popprotod_runs_total\{/ && /state="done"/ { sum += $2 } END { print sum + 0 }')
[ "$RUNS_DONE" -ge 1 ] || { echo "/metrics: popprotod_runs_total done series is zero" >&2; exit 1; }
CACHE_SERVED=$(echo "$METRICS" | awk '/^popprotod_runcore_submissions_total\{/ && (/outcome="hit"/ || /outcome="restored"/) { sum += $2 } END { print sum + 0 }')
[ "$CACHE_SERVED" -ge 1 ] || { echo "/metrics: no cache hit/restored submissions recorded" >&2; exit 1; }
echo "$METRICS" | grep -q '^popprotod_store_fsync_seconds_count' ||
  { echo "/metrics: store fsync series missing" >&2; exit 1; }
echo "/metrics: $RUNS_DONE completed runs, $CACHE_SERVED cache-served submissions" >&2
# The process's memory, read from the Go runtime at scrape time, and the
# registry's pool of warm tables, which the sweep's agent-engine cells
# handed their tables to.
for SERIES in go_gc_heap_live_bytes go_gc_heap_allocs_bytes_total go_gc_cycles_total \
  popprotod_pool_tables popprotod_pool_bytes; do
  VALUE=$(echo "$METRICS" | awk -v s="$SERIES" '$1 == s { print $2 }')
  awk -v v="${VALUE:-0}" 'BEGIN { exit !(v + 0 > 0) }' ||
    { echo "/metrics: $SERIES missing or zero" >&2; exit 1; }
  echo "/metrics: $SERIES $VALUE" >&2
done

# --- durability: kill the server, restart on the same store ---
stop_server
echo "server stopped; restarting on the same store..." >&2
start_server

RESTORED=$(curl -fs "$BASE/v1/experiments/$EID")
RESTORED_STATE=$(echo "$RESTORED" | jq -r '.state')
RESTORED_MEAN=$(echo "$RESTORED" | jq -r '.aggregates.meanParallelTime')
[ "$RESTORED_STATE" = done ] || { echo "restored experiment state $RESTORED_STATE" >&2; exit 1; }
[ "$RESTORED_MEAN" = "$MEAN" ] ||
  { echo "restored mean $RESTORED_MEAN != original $MEAN" >&2; exit 1; }
echo "experiment aggregates served after restart (mean $RESTORED_MEAN)" >&2

JOB_CACHED=$(curl -fs -X POST -d "$SPEC" "$BASE/v1/jobs" | jq -r '.cached')
JOB_RESTORED=$(curl -fs "$BASE/v1/jobs/$ID" | jq -r '.restored')
[ "$JOB_CACHED" = true ] || { echo "job resubmission not served from store after restart" >&2; exit 1; }
[ "$JOB_RESTORED" = true ] || { echo "restored job not marked restored" >&2; exit 1; }
echo "job result served from the durable store after restart" >&2

# The sweep — and its per-cell results — survive the restart too.
RESTORED_SWEEP=$(curl -fs "$BASE/v1/sweeps/$SID")
RESTORED_SLOPE=$(echo "$RESTORED_SWEEP" | jq -r '.summary.fits[0].a')
[ "$(echo "$RESTORED_SWEEP" | jq -r '.state')" = done ] ||
  { echo "restored sweep not done" >&2; exit 1; }
[ "$RESTORED_SLOPE" = "$SLOPE" ] ||
  { echo "restored log-slope $RESTORED_SLOPE != original $SLOPE" >&2; exit 1; }
CELL_EID=$(echo "$RESTORED_SWEEP" | jq -r '.cells[0].experimentId')
CELL_STATE=$(curl -fs "$BASE/v1/experiments/$CELL_EID" | jq -r '.state')
[ "$CELL_STATE" = done ] || { echo "restored sweep cell experiment state $CELL_STATE" >&2; exit 1; }
echo "sweep summary and per-cell results served after restart (slope $RESTORED_SLOPE)" >&2

# The restarted process's exposition shows the store-restored submissions.
RESTORED_SUBS=$(curl -fs "$BASE/metrics" | awk '/^popprotod_runcore_submissions_total\{/ && /outcome="restored"/ { sum += $2 } END { print sum + 0 }')
[ "$RESTORED_SUBS" -ge 1 ] || { echo "/metrics: no restored submissions after restart" >&2; exit 1; }
echo "/metrics: $RESTORED_SUBS store-restored submissions after restart" >&2

# --- the corpus query layer: GET /v1/results and the results CLI ---
EXP_RECORDS=$(curl -fs "$BASE/v1/results?kind=experiment&limit=500" | jq '.results | length')
[ "$EXP_RECORDS" -ge 4 ] ||
  { echo "/v1/results: $EXP_RECORDS experiment records, want >= 4 (standalone + 3 sweep cells)" >&2; exit 1; }
SCALING=$(curl -fs "$BASE/v1/results?aggregate=scaling")
FIT_PROTO=$(echo "$SCALING" | jq -r '.fits[0].protocol')
FIT_EXPS=$(echo "$SCALING" | jq -r '.experiments')
[ "$FIT_PROTO" = pll ] || { echo "/v1/results scaling fit protocol $FIT_PROTO, want pll" >&2; exit 1; }
[ "$FIT_EXPS" -ge 4 ] || { echo "/v1/results scaling covered $FIT_EXPS experiments, want >= 4" >&2; exit 1; }
echo "/v1/results: $EXP_RECORDS experiment records, scaling fit over $FIT_EXPS (protocol $FIT_PROTO)" >&2

"$RESULTS_BIN" -addr "$BASE" -kind experiment | grep -q "$EID" ||
  { echo "results CLI did not list experiment $EID" >&2; exit 1; }
"$RESULTS_BIN" -addr "$BASE" -scaling | grep -q '^pll' ||
  { echo "results CLI -scaling did not print the pll fit" >&2; exit 1; }
echo "results CLI lists the corpus and renders the scaling fit" >&2

# --- crash safety: SIGKILL mid-write-burst; every acknowledged record
# survives. Burst jobs run at n=2022 so an n-range filter isolates them.
# A record showing up in /v1/results is the durability acknowledgment:
# the store indexes a record only after the fdatasync covering it
# returns, so everything visible here must be served after the crash.
BURST=24
for i in $(seq 1 "$BURST"); do
  curl -fs -X POST -d "{\"protocol\":\"pll\",\"n\":2022,\"engine\":\"count\",\"seed\":$i}" \
    "$BASE/v1/jobs" >/dev/null
done
ACKED=""
for _ in $(seq 1 200); do
  ACKED=$(curl -fs "$BASE/v1/results?kind=job&n_min=2022&n_max=2022&limit=500" | jq -r '.results[].id')
  [ "$(echo "$ACKED" | grep -c .)" -ge $((BURST / 2)) ] && break
  sleep 0.05
done
ACKED_N=$(echo "$ACKED" | grep -c .)
[ "$ACKED_N" -ge 1 ] || { echo "no burst records became visible before the kill" >&2; exit 1; }
kill -9 "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
echo "SIGKILL with $ACKED_N/$BURST burst records acknowledged; restarting..." >&2
start_server
SURVIVED=$(curl -fs "$BASE/v1/results?kind=job&n_min=2022&n_max=2022&limit=500" | jq -r '.results[].id')
for BID in $ACKED; do
  echo "$SURVIVED" | grep -qx "$BID" ||
    { echo "acknowledged record $BID lost after SIGKILL" >&2; exit 1; }
  BSTATE=$(curl -fs "$BASE/v1/jobs/$BID" | jq -r '.state')
  [ "$BSTATE" = done ] || { echo "acknowledged job $BID in state $BSTATE after SIGKILL" >&2; exit 1; }
done
echo "all $ACKED_N acknowledged burst records served after SIGKILL + restart" >&2

# --- v1 migration: a JSONL store file is upgraded in place at boot ---
# Build the v1 fixture out of the live corpus: a stored record fetched
# through /v1/results is exactly a v1 JSONL line.
V1STORE="$WORKDIR/v1-results.jsonl"
curl -fs "$BASE/v1/results?kind=job&limit=500" |
  jq -c --arg id "$ID" '.results[] | select(.id == $id) | {kind,key,id,spec,data,savedAt}' > "$V1STORE"
[ -s "$V1STORE" ] || { echo "failed to build v1 JSONL fixture" >&2; exit 1; }
stop_server
STORE="$V1STORE"
start_server
[ -d "$V1STORE" ] || { echo "v1 JSONL file was not migrated to a store directory" >&2; exit 1; }
[ -f "$V1STORE.v1.bak" ] || { echo "v1 migration left no .v1.bak of the original" >&2; exit 1; }
MIGRATED_STATE=$(curl -fs "$BASE/v1/jobs/$ID" | jq -r '.state')
MIGRATED_RESTORED=$(curl -fs "$BASE/v1/jobs/$ID" | jq -r '.restored')
[ "$MIGRATED_STATE" = done ] && [ "$MIGRATED_RESTORED" = true ] ||
  { echo "migrated job $ID: state=$MIGRATED_STATE restored=$MIGRATED_RESTORED" >&2; exit 1; }
MIGRATED_CACHED=$(curl -fs -X POST -d "$SPEC" "$BASE/v1/jobs" | jq -r '.cached')
[ "$MIGRATED_CACHED" = true ] || { echo "migrated record not served on resubmission" >&2; exit 1; }
echo "v1 JSONL store migrated in place; its record served by id and by key" >&2

echo "smoke test passed" >&2
