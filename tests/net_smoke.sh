#!/usr/bin/env bash
# Network smoke test: start `speckv serve` on an ephemeral port, drive
# it with the open-loop specnet_bench, shut the server down with
# SIGTERM, then gate the server-side metrics exposition with several
# `specstat check --require` assertions at once. Also proves the
# multi-require semantics: adding one failing assertion to the same
# invocation must flip the exit status.
#
# Usage: net_smoke.sh SPECKV SPECNET_BENCH SPECSTAT WORK_DIR
set -u

SPECKV=$1
SPECNET_BENCH=$2
SPECSTAT=$3
WORK_DIR=$4

mkdir -p "$WORK_DIR"
rm -f "$WORK_DIR"/port.txt "$WORK_DIR"/serve-metrics.prom \
      "$WORK_DIR"/bench.json "$WORK_DIR"/serve.log

fail() {
    echo "net_smoke: FAIL: $*" >&2
    [ -f "$WORK_DIR/serve.log" ] && cat "$WORK_DIR/serve.log" >&2
    exit 1
}

"$SPECKV" serve --runtime=spec --shards=2 --keys=2048 \
    --port=0 --port-file="$WORK_DIR/port.txt" --seconds=60 \
    --metrics-out="$WORK_DIR/serve-metrics.prom" \
    >"$WORK_DIR/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill -9 $SERVE_PID 2>/dev/null' EXIT

for _ in $(seq 1 100); do
    [ -s "$WORK_DIR/port.txt" ] && break
    kill -0 $SERVE_PID 2>/dev/null || fail "server exited early"
    sleep 0.1
done
[ -s "$WORK_DIR/port.txt" ] || fail "server never wrote the port file"

"$SPECNET_BENCH" --port-file="$WORK_DIR/port.txt" \
    --qps=4000 --seconds=2 --keys=2048 --mix=A --load \
    --json="$WORK_DIR/bench.json" \
    || fail "specnet_bench reported failure"

kill -TERM $SERVE_PID
wait $SERVE_PID || fail "server did not exit cleanly on SIGTERM"
trap - EXIT

[ -s "$WORK_DIR/serve-metrics.prom" ] || fail "no metrics artifact"
grep -q '"p99_ns"' "$WORK_DIR/bench.json" || fail "no bench artifact"

# Sampling-off hygiene: without --trace-sample the wire protocol and
# the exposition must be byte-identical to the pre-tracing build — no
# traced frames sent, no exemplars rendered.
grep -q '"traced_sent": 0' "$WORK_DIR/bench.json" \
    || fail "bench sent traced frames with sampling off"
if grep -q '# {trace_id=' "$WORK_DIR/serve-metrics.prom"; then
    fail "exemplars leaked into the exposition with sampling off"
fi

# The real gate: several assertions in ONE check invocation.
"$SPECSTAT" check "$WORK_DIR/serve-metrics.prom" \
    --require='specpmt_net_protocol_errors_total==0' \
    --require='specpmt_net_frames_rx_total>=8000' \
    --require='specpmt_net_connections_total>=2' \
    --require='specpmt_net_batch_commits_total>=1' \
    || fail "specstat check rejected the serve metrics"

# Multi-require semantics: one failing assertion among passing ones
# must fail the whole invocation.
if "$SPECSTAT" check "$WORK_DIR/serve-metrics.prom" \
    --require='specpmt_net_protocol_errors_total==0' \
    --require='specpmt_net_frames_rx_total<1' \
    >/dev/null 2>&1; then
    fail "specstat check ignored a failing --require"
fi

# Second phase: the same serve/load pair with epoch group commit on
# and a strict minority in the traffic, plus the live telemetry
# plane. The epoch counters prove the relaxed path actually ran
# (commits joined epochs, epochs sealed) and that nothing was dropped
# on the floor at shutdown (the final seal leaves no pending
# transactions behind); the admin endpoint is scraped MID-LOAD to
# prove /metrics and /healthz answer while the shard loops are busy.
# The bench also samples 5% of requests into the wire trace
# extension, so this phase doubles as the end-to-end tracing gate:
# exemplars on the live scrape, PM cost metrics with real values,
# and a client+server waterfall merged by `specstat trace`.
rm -f "$WORK_DIR"/port.txt "$WORK_DIR"/admin.txt
"$SPECKV" serve --runtime=spec --shards=2 --keys=2048 \
    --port=0 --port-file="$WORK_DIR/port.txt" --seconds=60 \
    --group-commit --epoch-max-ops=16 --epoch-max-delay-us=300 \
    --admin-port=0 --admin-port-file="$WORK_DIR/admin.txt" \
    --slow-us=100000 \
    --metrics-out="$WORK_DIR/serve-epoch-metrics.prom" \
    --trace-out="$WORK_DIR/serve-epoch-trace.json" \
    >"$WORK_DIR/serve-epoch.log" 2>&1 &
SERVE_PID=$!
trap 'kill -9 $SERVE_PID 2>/dev/null' EXIT

for _ in $(seq 1 100); do
    [ -s "$WORK_DIR/port.txt" ] && [ -s "$WORK_DIR/admin.txt" ] && break
    kill -0 $SERVE_PID 2>/dev/null || fail "epoch server exited early"
    sleep 0.1
done
[ -s "$WORK_DIR/port.txt" ] || fail "epoch server never wrote port"
[ -s "$WORK_DIR/admin.txt" ] || fail "epoch server never wrote admin port"
ADMIN=$(cat "$WORK_DIR/admin.txt")

"$SPECNET_BENCH" --port-file="$WORK_DIR/port.txt" \
    --qps=4000 --seconds=4 --keys=2048 --mix=A --strict=0.1 --load \
    --trace-sample=0.05 \
    --trace-out="$WORK_DIR/bench-epoch-trace.json" \
    --json="$WORK_DIR/bench-epoch.json" \
    >"$WORK_DIR/bench-epoch.log" 2>&1 &
BENCH_PID=$!

# --- Mid-load telemetry gates (the bench is still driving load) ---
sleep 1

# /healthz must be 200 with every shard live, and the stage
# histograms must already carry samples.
"$SPECSTAT" check "http://127.0.0.1:$ADMIN/healthz" \
    "http://127.0.0.1:$ADMIN/metrics" \
    --require='specpmt_net_stage_exec_count>0' \
    --require='specpmt_net_stage_queue_count>0' \
    --require='specpmt_net_stage_write_count>0' \
    || fail "mid-load admin scrape gate failed"

# A sampled request's trace id must surface as an OpenMetrics
# exemplar on the live /metrics scrape while load is still running.
if command -v curl >/dev/null 2>&1; then
    curl -s "http://127.0.0.1:$ADMIN/metrics" \
        >"$WORK_DIR/live-metrics.prom"
    grep -q '# {trace_id=' "$WORK_DIR/live-metrics.prom" \
        || fail "no exemplar on the live /metrics scrape"
fi

# Epoch seal lag stays bounded on every shard while relaxed commits
# stream through (the per-shard gauges are labeled, so gate via dump).
"$SPECSTAT" dump "http://127.0.0.1:$ADMIN/metrics" \
    | awk '/^specpmt_epoch_seal_lag/ { if ($2 + 0 > 64) bad = 1 }
           END { exit bad ? 1 : 0 }' \
    || fail "epoch seal lag unbounded mid-load"

# Two /metrics scrapes rendered as one terminal frame: non-zero QPS
# and a real per-stage p99 for the exec stage.
"$SPECSTAT" top --port="$ADMIN" --interval=0.5 --once \
    >"$WORK_DIR/top.txt" || fail "specstat top --once failed"
awk '/^qps / { seen = 1; if ($2 + 0 <= 0) bad = 1 }
     /^exec / { if ($3 == "-") bad = 1 }
     END { exit (seen && !bad) ? 0 : 1 }' "$WORK_DIR/top.txt" \
    || { cat "$WORK_DIR/top.txt" >&2; fail "specstat top frame bogus"; }

# stats.json must flatten into the same series — through stdin when
# curl is around to pipe it, else fetched by specstat itself.
if command -v curl >/dev/null 2>&1; then
    curl -s "http://127.0.0.1:$ADMIN/stats.json" \
        >"$WORK_DIR/stats.json"
    "$SPECSTAT" dump - <"$WORK_DIR/stats.json" \
        | grep -q '^specpmt_net_frames_rx_total' \
        || fail "stats.json did not flatten through specstat dump -"
else
    "$SPECSTAT" dump "http://127.0.0.1:$ADMIN/stats.json" \
        | grep -q '^specpmt_net_frames_rx_total' \
        || fail "stats.json did not flatten through specstat dump"
fi

wait $BENCH_PID || fail "specnet_bench (epoch serve) reported failure"

kill -TERM $SERVE_PID
wait $SERVE_PID || fail "epoch server did not exit cleanly"
trap - EXIT

"$SPECSTAT" check "$WORK_DIR/serve-epoch-metrics.prom" \
    "$WORK_DIR/serve-epoch-trace.json" \
    --require='specpmt_net_protocol_errors_total==0' \
    --require='specpmt_epoch_relaxed_commits_total>=1000' \
    --require='specpmt_epoch_seals_total>=10' \
    --require='specpmt_epoch_pending_txs==0' \
    || fail "specstat check rejected the epoch serve metrics"

# PM cost accounting gates: every commit was charged (write
# amplification is log bytes over user bytes, so >= 1 whenever the
# log wrote anything, and <= 4 for speculative logging), and the
# flush/fence budget per transaction stays within the
# speculative-logging design envelope.
"$SPECSTAT" check "$WORK_DIR/serve-epoch-metrics.prom" \
    --require='specpmt_pm_txs_total>=1000' \
    --require='specpmt_pm_user_bytes_total>0' \
    --require='specpmt_pm_write_amp>=1' \
    --require='specpmt_pm_write_amp<=4' \
    --require='specpmt_pm_flushes_per_tx<=8' \
    --require='specpmt_pm_fences_per_tx<=4' \
    || fail "specstat check rejected the PM cost metrics"

# The metrics artifact carries the sampled exemplars even without a
# live scrape (same renderer as /metrics).
grep -q '# {trace_id=' "$WORK_DIR/serve-epoch-metrics.prom" \
    || fail "no exemplar in the serve metrics artifact"

# End-to-end waterfall: merge the client-side capture with the
# server-side one; `specstat trace` must correlate at least one
# sampled request across both (exit 1 = no correlated spans), and
# the slowest waterfall must span wire, server stages, and the PM
# cost vector attributed to its exec span.
"$SPECSTAT" trace --slowest=1 \
    "$WORK_DIR/bench-epoch-trace.json" \
    "$WORK_DIR/serve-epoch-trace.json" \
    >"$WORK_DIR/trace.txt" \
    || fail "specstat trace found no correlated spans"
for needle in client_rtt srv_exec 'pm: user'; do
    grep -q "$needle" "$WORK_DIR/trace.txt" \
        || { cat "$WORK_DIR/trace.txt" >&2
             fail "merged waterfall missing '$needle'"; }
done
echo "net_smoke: merged waterfall:"
cat "$WORK_DIR/trace.txt"

# Stage attribution sanity: the per-stage means must be positive and
# their sum bounded by the loadgen's end-to-end update mean — the
# server-side stages are a subset of what the open-loop client times
# (which also carries client-side work and intended-departure wait).
STAGE_SUM_NS=$("$SPECSTAT" dump "$WORK_DIR/serve-epoch-metrics.prom" \
    | awk '/^specpmt_net_stage_[a-z_]*_sum /   { s[$1] = $2 }
           /^specpmt_net_stage_[a-z_]*_count / { c[$1] = $2 }
           END {
               total = 0
               for (k in s) {
                   ck = k; sub(/_sum$/, "_count", ck)
                   if (c[ck] + 0 > 0) total += s[k] / c[ck]
               }
               print total
           }')
E2E_NS=$(tr ',' '\n' <"$WORK_DIR/bench-epoch.json" \
    | awk '/"update_latency"/ { inupd = 1 }
           inupd && /"mean_ns"/ { gsub(/[^0-9.]/, "", $0); print; exit }')
awk -v s="$STAGE_SUM_NS" -v e="$E2E_NS" \
    'BEGIN { exit (s + 0 > 0 && s <= e + 0) ? 0 : 1 }' \
    || fail "stage means ($STAGE_SUM_NS ns) not within loadgen e2e mean ($E2E_NS ns)"
echo "net_smoke: stage-mean sum ${STAGE_SUM_NS}ns <= e2e mean ${E2E_NS}ns"

echo "net_smoke: OK"
