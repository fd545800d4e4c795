#!/usr/bin/env bash
# Chaos smoke: the failure-semantics counterpart to cluster_smoke.sh.
# Everything is built with -tags faultinject and driven by seeded
# fault plans, so each stage's failure is deterministic, and every
# stage demands the same invariant: the merged report stays
# byte-identical to the single-process run no matter what breaks.
#
#   1. Client-side loopback coordinator with injected dispatch and
#      response losses — retries recover, output byte-identical.
#   2. Server-side distributed run while the coordinator loses shard
#      responses (breaker trips + recovers) and one worker stalls on
#      an injected engine delay (straggler is hedged).
#   3. kill -9 a worker mid-run — the shard is retried on the
#      survivor and the run still completes byte-identically.
#   4. kill -9 the coordinator mid-run after at least one shard
#      checkpoint hit the journal; restart it with register/heartbeat
#      faults active. The run must RESUME from its checkpointed
#      shards (never land "interrupted") while the workers fight
#      through the injected 503s to re-register, and the final
#      report must byte-match the pre-crash submission's.
#   5. Post-chaos sanity: a clean distributed run over the rebuilt
#      fleet, byte-diffed against the single-process reference, then
#      a graceful SIGINT drain.
#
# Run via `make chaos-smoke`; CI runs the same script.
set -euo pipefail
cd "$(dirname "$0")/.."

CPORT=${CHAOS_SMOKE_COORD_PORT:-8290}
PORT1=${CHAOS_SMOKE_PORT1:-8291}
PORT2=${CHAOS_SMOKE_PORT2:-8292}
PORT3=${CHAOS_SMOKE_PORT3:-8293}
COORD_URL="http://127.0.0.1:$CPORT"

BIN=$(mktemp -d)
DATA="$BIN/data"
W1=""
W2=""
W3=""
COORD=""
cleanup() {
  [ -n "$W1" ] && kill "$W1" 2>/dev/null || true
  [ -n "$W2" ] && kill "$W2" 2>/dev/null || true
  [ -n "$W3" ] && kill "$W3" 2>/dev/null || true
  [ -n "$COORD" ] && kill "$COORD" 2>/dev/null || true
  rm -rf "$BIN"
}
trap cleanup EXIT

echo "chaos-smoke: building fvevald, fvevalctl (-tags faultinject)"
go build -tags faultinject -o "$BIN" ./cmd/fvevald ./cmd/fvevalctl

wait_ready() {
  local port=$1
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
      exec 3>&- 3<&-
      return 0
    fi
    sleep 0.1
  done
  echo "chaos-smoke: server on port $port never came up" >&2
  cat "$BIN"/*.log >&2
  exit 1
}

# wait_fleet N polls the coordinator's registry until N distinct
# workers are live.
wait_fleet() {
  local want=$1
  for _ in $(seq 1 100); do
    if [ "$("$BIN/fvevalctl" workers -to "$COORD_URL" 2>/dev/null | grep -c "127.0.0.1:$PORT1\|127.0.0.1:$PORT2\|127.0.0.1:$PORT3")" = "$want" ]; then
      return 0
    fi
    sleep 0.3
  done
  echo "chaos-smoke: fleet never reached $want live workers" >&2
  cat "$BIN"/*.log >&2
  exit 1
}

# wait_checkpoints N polls the coordinator's journal until at least N
# shard checkpoint records have been appended.
wait_checkpoints() {
  local want=$1
  for _ in $(seq 1 200); do
    if [ "$(grep -c '"op":"checkpoint"' "$DATA/journal.jsonl" 2>/dev/null || true)" -ge "$want" ]; then
      return 0
    fi
    sleep 0.05
  done
  echo "chaos-smoke: journal never reached $want checkpoint records" >&2
  cat "$BIN"/*.log >&2
  exit 1
}

# report_when_done RID OUT polls until the run is terminal with a
# payload, then writes its sorted report JSON to OUT.
report_when_done() {
  local rid=$1 out=$2
  for _ in $(seq 1 200); do
    if "$BIN/fvevalctl" report -to "$COORD_URL" "$rid" 2>"$BIN/report.err" >"$BIN/report.json"; then
      jq -S .report "$BIN/report.json" >"$out"
      return 0
    fi
    sleep 0.3
  done
  echo "chaos-smoke: run $rid never produced a report" >&2
  cat "$BIN/report.err" "$BIN"/*.log >&2
  exit 1
}

echo "chaos-smoke: single-process reference run (in-process, no fleet)"
"$BIN/fvevalctl" run -task table1 2>/dev/null >"$BIN/single.out"

echo "chaos-smoke: stage 1 — loopback coordinator with injected dispatch/response losses"
"$BIN/fvevalctl" run -task table1 -local 2 -shards 4 -seed 7 \
  -faults 'seed=7;dist.dispatch:count=1;dist.response:count=1' \
  2>"$BIN/stage1.err" >"$BIN/stage1.out"
diff "$BIN/single.out" "$BIN/stage1.out"
grep -q 'fault injection active' "$BIN/stage1.err"
# both injected losses must surface as retried shard attempts
grep -qE '\([1-9][0-9]* retried\)' "$BIN/stage1.err"

echo "chaos-smoke: stage 2 — cluster up (coordinator loses responses, one worker stalls)"
"$BIN/fvevald" -addr "127.0.0.1:$CPORT" -data-dir "$DATA" -worker-ttl 6s \
  -faults 'seed=11;dist.response:count=2' >"$BIN/coord.log" 2>&1 &
COORD=$!
"$BIN/fvevald" -addr "127.0.0.1:$PORT1" -join "$COORD_URL" \
  -advertise "http://127.0.0.1:$PORT1" >"$BIN/w1.log" 2>&1 &
W1=$!
"$BIN/fvevald" -addr "127.0.0.1:$PORT2" -join "$COORD_URL" \
  -advertise "http://127.0.0.1:$PORT2" \
  -faults 'seed=2;engine.job:count=1,delay=20s' >"$BIN/w2a.log" 2>&1 &
W2=$!
wait_ready "$CPORT"
wait_ready "$PORT1"
wait_ready "$PORT2"
wait_fleet 2

# Run A: the coordinator drops the first two shard responses (breaker
# trips, then the half-open probe recovers) and W2's shard stalls on
# the injected engine delay until the hedger re-dispatches it.
RID_A=$("$BIN/fvevalctl" submit -to "$COORD_URL" -task table1 -distributed -cache=false 2>/dev/null)
report_when_done "$RID_A" "$BIN/ref_report.json"

echo "chaos-smoke: stage 3 — kill -9 a worker mid-run"
kill -9 "$W2"
wait "$W2" 2>/dev/null || true
"$BIN/fvevald" -addr "127.0.0.1:$PORT2" -join "$COORD_URL" \
  -advertise "http://127.0.0.1:$PORT2" \
  -faults 'seed=2;engine.job:count=1,delay=20s' >"$BIN/w2b.log" 2>&1 &
W2=$!
wait_ready "$PORT2"
wait_fleet 2
RID_B=$("$BIN/fvevalctl" submit -to "$COORD_URL" -task table1 -distributed -cache=false 2>/dev/null)
# run A journaled one checkpoint per shard (2); once run B's first
# shard checkpoint lands, the stalled worker owns the other shard.
wait_checkpoints 3
kill -9 "$W2"
wait "$W2" 2>/dev/null || true
W2=""
report_when_done "$RID_B" "$BIN/runb_report.json"
diff "$BIN/ref_report.json" "$BIN/runb_report.json"

"$BIN/fvevalctl" metrics -to "$COORD_URL" >"$BIN/metrics1.out"
grep -qE '^fveval_shard_retries_total [1-9]' "$BIN/metrics1.out"
grep -qE '^fveval_shard_hedges_total [1-9]' "$BIN/metrics1.out"
grep -qE '^fveval_breaker_trips_total [1-9]' "$BIN/metrics1.out"
grep -qE '^fveval_breaker_recoveries_total [1-9]' "$BIN/metrics1.out"
grep -qE '^fveval_checkpoints_total [1-9]' "$BIN/metrics1.out"
grep -qE '^fveval_faults_injected_total [1-9]' "$BIN/metrics1.out"

echo "chaos-smoke: stage 4 — kill -9 the coordinator mid-run, resume from checkpoints"
# Two stalled workers hold two of the three shards, so the run cannot
# finish before the kill; the third (fast) shard's checkpoint is the
# kill trigger.
"$BIN/fvevald" -addr "127.0.0.1:$PORT2" -join "$COORD_URL" \
  -advertise "http://127.0.0.1:$PORT2" \
  -faults 'seed=2;engine.job:count=1,delay=20s' >"$BIN/w2c.log" 2>&1 &
W2=$!
"$BIN/fvevald" -addr "127.0.0.1:$PORT3" -join "$COORD_URL" \
  -advertise "http://127.0.0.1:$PORT3" \
  -faults 'seed=4;engine.job:count=1,delay=20s' >"$BIN/w3.log" 2>&1 &
W3=$!
wait_ready "$PORT2"
wait_ready "$PORT3"
wait_fleet 3
RID_C=$("$BIN/fvevalctl" submit -to "$COORD_URL" -task table1 -distributed -cache=false 2>/dev/null)
wait_checkpoints 5
kill -9 "$COORD"
wait "$COORD" 2>/dev/null || true
COORD=""
# Restart on the same journal with registration chaos still active:
# the first two heartbeats and the first re-registration get 503s,
# and the workers must fight through them for the resume to proceed.
"$BIN/fvevald" -addr "127.0.0.1:$CPORT" -data-dir "$DATA" -worker-ttl 6s \
  -faults 'seed=3;worker.heartbeat:count=2;worker.register:count=1' >"$BIN/coord2.log" 2>&1 &
COORD=$!
wait_ready "$CPORT"
report_when_done "$RID_C" "$BIN/runc_report.json"
diff "$BIN/ref_report.json" "$BIN/runc_report.json"

"$BIN/fvevalctl" metrics -to "$COORD_URL" >"$BIN/metrics2.out"
# the resumed run restored at least one checkpointed shard...
grep -qE '^fveval_checkpoint_restores_total [1-9]' "$BIN/metrics2.out"
# ...was never written off as interrupted...
if grep -qE 'fveval_runs_total\{status="interrupted"\} [1-9]' "$BIN/metrics2.out"; then
  echo "chaos-smoke: resumed run was reported interrupted" >&2
  cat "$BIN"/coord2.log >&2
  exit 1
fi
# ...and the registration faults actually fired on the new process.
grep -qE '^fveval_faults_injected_total [1-9]' "$BIN/metrics2.out"

echo "chaos-smoke: stage 5 — clean distributed run over the rebuilt fleet"
wait_fleet 3
"$BIN/fvevalctl" submit -to "$COORD_URL" -task table1 -distributed -follow -cache=false \
  2>/dev/null >"$BIN/final.out"
diff "$BIN/single.out" "$BIN/final.out"

echo "chaos-smoke: graceful shutdown (SIGINT drains, exit 0)"
kill -INT "$W1"
wait "$W1"
kill -INT "$W2"
wait "$W2"
kill -INT "$W3"
wait "$W3"
W1=""
W2=""
W3=""
kill -INT "$COORD"
wait "$COORD"
COORD=""
grep -q "drained" "$BIN/w1.log"
grep -q "drained" "$BIN/w2c.log"
grep -q "drained" "$BIN/w3.log"
grep -q "drained" "$BIN/coord2.log"

echo "chaos-smoke: OK — injected dispatch/response/engine faults recovered byte-identically; worker kill -9 survived; coordinator kill -9 resumed from shard checkpoints through registration chaos; fleet drained clean"
