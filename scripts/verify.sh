#!/usr/bin/env sh
# Repo verification gate: tier-1 tests plus the fault-tolerance suite
# under AddressSanitizer/UBSan.
#
# Usage: verify.sh [--quick]
#
#   1. Configure + build the default tree (build/) and run the full
#      ctest suite, then tanh_exhaustive: every host tier's vector tanh
#      against std::tanh and the scalar fdlibm port on all 2^32 inputs
#      (~1 min on 4 cores; not a ctest test for that reason).
#   2. Calibration smoke: run primepar_calibrate --quick against the
#      real runtime, gating on R^2 > 0.9 for every fitted pattern, and
#      check the written ProfiledModels JSON round-trips; then a traced
#      primepar_train run must produce a valid Chrome-trace JSON and a
#      parseable metrics snapshot.
#   3. Distributed smoke: run the dist-labelled scenarios
#      (ctest -L dist), then launch a real coordinator + 2 worker
#      processes on localhost (each owns a shard of the devices),
#      SIGKILL one mid-step and require the job to finish degraded
#      onto the survivor via replanForSurvivors + checkpoint restore.
#      Then the re-join smoke: a 3-worker job loses one to SIGKILL, a
#      fresh worker --connects into the degraded generation, and the
#      job must grow back to the full 2^n grid and finish every step.
#   4. Serve smoke: run the serve-labelled tests, then start a real
#      primepar_serve daemon with a fresh persistent store, plan the
#      same spec twice through primepar_plan_client, and require the
#      second answer to be a store hit with the same strategies and a
#      populated serve.request_us latency histogram (p50/p99).
#   5. Configure + build a sanitizer tree (build-asan/) with
#      -DPRIMEPAR_SANITIZE=ON (address+undefined) and run the fault-,
#      planner-, dist-, serve-, kernels- and boundary-labelled tests
#      there (ctest -L 'fault|planner|dist|serve|kernels|boundary') —
#      the op-boundary box copies run strided loops over slices read
#      through edge index maps, the elementwise
#      kernels run padded tails at misaligned offsets, the transport's
#      retry/rollback paths move buffers across emulated device
#      boundaries, the async executor posts transfers into recycled
#      pool buffers while compute runs, the TCP receive copies wire
#      bytes into a pre-sized destination behind its payload-size
#      check, the pruned planner indexes dense edge tables
#      through candidate-position indirection and prices them from
#      boxes read into per-thread scratch and source views built in
#      per-table lane arenas (test_cost and test_optimizer, both
#      labelled planner), and the plan store
#      decodes raw mmap'd bytes: exactly where lifetime and
#      out-of-bounds bugs would hide.
#   6. Configure + build a ThreadSanitizer tree (build-tsan/) with
#      -DPRIMEPAR_SANITIZE=thread and run the Parallel.*,
#      SpmdExecutor.*, Transport.*, Trainer.*, GraphExecutor.*,
#      Catalog.*, SegmentedDp.*, Pruning.*, CostModel.*, PlanService.*,
#      PlanServer.*, Observer.*, Guard.*, Coordinator.* and
#      TcpTransport.* suites there: the thread
#      pool's completion handshake, the executor's comm worker running
#      a step's shift batch while the compute pool accumulates, joined
#      before the commit, RuntimeHealth fanning spans out to observers
#      from compute-pool threads, the planner's edge tables built on
#      pool threads nested inside the per-edge parallel loop, each
#      table slot written by one iteration, the plan service's
#      flight table shared by concurrent requests (PlanStore.* stays
#      out: it forks a writer and SIGKILLs it), the coordinator's
#      reader threads and each client's heartbeat thread beside its
#      RPCs, and four in-process TcpTransports multicasting over
#      loopback. Any race report fails the gate.
#
# --quick skips a sanitizer reconfigure when its build tree is already
# configured. Exits non-zero on the first failure. Every temporary file
# and directory lives under one mktemp directory, removed on exit with
# any smoke process still running, whichever section failed.

set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
QUICK=0
[ "${1:-}" = "--quick" ] && QUICK=1

WORK="$(mktemp -d /tmp/verify.XXXXXX)"
cleanup() {
    # jobs -p in a command substitution would list the subshell's
    # (empty) job table: go through a file.
    jobs -p > "$WORK/jobs"
    while read -r pid; do
        kill -9 "$pid" 2> /dev/null || true
    done < "$WORK/jobs"
    rm -rf "$WORK"
}
trap cleanup EXIT
trap 'exit 1' HUP INT TERM

echo "== tier-1: configure + build =="
cmake -B "$ROOT/build" -S "$ROOT" > /dev/null
cmake --build "$ROOT/build" -j"$(nproc)"

echo "== tier-1: ctest =="
ctest --test-dir "$ROOT/build" --output-on-failure -j"$(nproc)"

echo "== tanh_exhaustive: all 2^32 inputs on every host tier =="
"$ROOT/build/tests/tanh_exhaustive"

echo "== calibration smoke: fit models on the real runtime =="
CAL_OUT="$WORK/calibration.json"
"$ROOT/build/examples/primepar_calibrate" --quick --min-r2 0.9 \
    --out "$CAL_OUT"
if command -v python3 > /dev/null 2>&1; then
    python3 - "$CAL_OUT" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
if doc.get("schema") != "primepar-profiled-models-v1":
    sys.exit(f"verify: unexpected calibration schema "
             f"{doc.get('schema')!r}")
for name in ("all_reduce", "ring_hop", "matmul_kernel",
             "memory_kernel", "redistribution"):
    if name not in doc:
        sys.exit(f"verify: calibration JSON lacks {name!r}")
if not doc["all_reduce"]:
    sys.exit("verify: no all-reduce pattern was fitted")
for name, r2 in doc.get("r2", {}).items():
    if r2 < 0.9:
        sys.exit(f"verify: fit {name} has R^2 {r2:.3f} < 0.9")
print(f"verify: calibration OK "
      f"({len(doc['all_reduce'])} all-reduce patterns, "
      f"min R^2 {min(doc.get('r2', {1: 1.0}).values()):.4f})")
EOF
fi
echo "== traced training run: chrome trace + metrics snapshot =="
TRACE_OUT="$WORK/train_trace.json"
METRICS_OUT="$WORK/train_metrics.json"
"$ROOT/build/examples/primepar_train" --steps 2 --devices 4 \
    --trace-out "$TRACE_OUT" --metrics-out "$METRICS_OUT" > /dev/null
if command -v python3 > /dev/null 2>&1; then
    python3 - "$TRACE_OUT" "$METRICS_OUT" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    spans = json.load(f)
if not isinstance(spans, list) or not spans:
    sys.exit("verify: trace output is not a non-empty span array")
for s in spans[:3]:
    for field in ("name", "cat", "ph", "ts", "dur", "pid", "tid"):
        if field not in s:
            sys.exit(f"verify: trace span lacks {field!r}")
with open(sys.argv[2]) as f:
    metrics = json.load(f)
if metrics.get("schema") != "primepar-metrics-v1":
    sys.exit(f"verify: unexpected metrics schema "
             f"{metrics.get('schema')!r}")
if metrics.get("counters", {}).get("steps") != 2:
    sys.exit("verify: metrics snapshot did not count 2 steps")
print(f"verify: traced run OK ({len(spans)} spans, "
      f"{len(metrics['counters'])} counters)")
EOF
fi
echo "== distributed smoke: coordinator + 2 workers, SIGKILL one =="
# The ctest-level dist scenarios (test_dist, -L dist, hard TIMEOUT so a
# protocol hang fails instead of wedging CI) cover bit-identity and the
# injected kill fault; on top of that, kill a worker from *outside*
# with a real SIGKILL mid-step and require the job to finish degraded
# via replanForSurvivors + checkpoint restore.
ctest --test-dir "$ROOT/build" --output-on-failure -L dist \
    -j"$(nproc)"
DIST_DIR="$WORK/dist_smoke"
mkdir "$DIST_DIR"
"$ROOT/build/examples/primepar_worker" --serve --workers 2 \
    --devices 4 --steps 60 --batch 2 --hidden 16 --heads 2 --ffn 32 \
    --seq 8 --plan dp --checkpoint-every 1 \
    --checkpoint-dir "$DIST_DIR" > "$DIST_DIR/coord.log" 2>&1 &
COORD_PID=$!
PORT=""
for _ in $(seq 1 50); do
    PORT="$(sed -n 's/^PRIMEPAR_COORD_PORT=//p' \
        "$DIST_DIR/coord.log" 2> /dev/null || true)"
    [ -n "$PORT" ] && break
    sleep 0.1
done
[ -n "$PORT" ] || { echo "verify: coordinator printed no port"; \
    cat "$DIST_DIR/coord.log"; exit 1; }
"$ROOT/build/examples/primepar_worker" --connect "127.0.0.1:$PORT" \
    > "$DIST_DIR/w0.log" 2>&1 &
W0_PID=$!
"$ROOT/build/examples/primepar_worker" --connect "127.0.0.1:$PORT" \
    > "$DIST_DIR/w1.log" 2>&1 &
W1_PID=$!
# Let it reach mid-run (checkpoints land every step), then kill one
# worker the hard way.
while ! grep -q "step 1 " "$DIST_DIR/w1.log" 2> /dev/null; do
    kill -0 "$W1_PID" 2> /dev/null || break
    sleep 0.1
done
kill -9 "$W1_PID" 2> /dev/null || true
if ! wait "$COORD_PID"; then
    echo "verify: distributed job failed after SIGKILL"
    cat "$DIST_DIR/coord.log" "$DIST_DIR/w0.log"
    exit 1
fi
wait "$W0_PID" || { echo "verify: surviving worker failed"; \
    cat "$DIST_DIR/w0.log"; exit 1; }
grep -q "1 worker(s) lost" "$DIST_DIR/coord.log" || {
    echo "verify: coordinator did not record the killed worker";
    cat "$DIST_DIR/coord.log"; exit 1; }
FINAL_STEPS="$(grep -c '^final step' "$DIST_DIR/coord.log" || true)"
[ "$FINAL_STEPS" -eq 60 ] || { echo "verify: expected 60 final \
losses, got $FINAL_STEPS"; cat "$DIST_DIR/coord.log"; exit 1; }
echo "verify: distributed smoke OK (degraded to survivors, \
$FINAL_STEPS losses)"

echo "== re-join smoke: SIGKILL one of 3 workers, grow back =="
# Elastic re-join, end to end with real signals: a sharded 3-worker
# job loses one to SIGKILL, a brand-new worker --connects into the
# degraded generation, the coordinator fences a barrier step and
# re-places the restored 2^n grid, and the job must finish every step
# at full size.
RJ_DIR="$WORK/rejoin_smoke"
mkdir "$RJ_DIR"
"$ROOT/build/examples/primepar_worker" --serve --workers 3 \
    --devices 4 --steps 40 --batch 2 --hidden 16 --heads 2 --ffn 32 \
    --seq 8 --heartbeat-ms 50 --checkpoint-every 1 \
    --checkpoint-dir "$RJ_DIR" > "$RJ_DIR/coord.log" 2>&1 &
RJ_COORD=$!
RJ_PORT=""
for _ in $(seq 1 50); do
    RJ_PORT="$(sed -n 's/^PRIMEPAR_COORD_PORT=//p' \
        "$RJ_DIR/coord.log" 2> /dev/null || true)"
    [ -n "$RJ_PORT" ] && break
    sleep 0.1
done
[ -n "$RJ_PORT" ] || { echo "verify: re-join coordinator printed no \
port"; cat "$RJ_DIR/coord.log"; exit 1; }
"$ROOT/build/examples/primepar_worker" \
    --connect "127.0.0.1:$RJ_PORT" > "$RJ_DIR/w0.log" 2>&1 &
RJ_W0=$!
"$ROOT/build/examples/primepar_worker" \
    --connect "127.0.0.1:$RJ_PORT" > "$RJ_DIR/w1.log" 2>&1 &
RJ_W1=$!
"$ROOT/build/examples/primepar_worker" \
    --connect "127.0.0.1:$RJ_PORT" > "$RJ_DIR/w2.log" 2>&1 &
RJ_W2=$!
# Let training reach mid-run, then SIGKILL the third worker.
while ! grep -q "step 1 " "$RJ_DIR/w2.log" 2> /dev/null; do
    kill -0 "$RJ_W2" 2> /dev/null || break
    sleep 0.1
done
kill -9 "$RJ_W2" 2> /dev/null || true
# The moment the coordinator records the loss, connect a fresh worker
# into the degraded generation.
while ! grep -q " lost (" "$RJ_DIR/coord.log" 2> /dev/null; do
    kill -0 "$RJ_COORD" 2> /dev/null || break
    sleep 0.1
done
"$ROOT/build/examples/primepar_worker" \
    --connect "127.0.0.1:$RJ_PORT" > "$RJ_DIR/w3.log" 2>&1 &
RJ_W3=$!
if ! wait "$RJ_COORD"; then
    echo "verify: re-join job failed"
    cat "$RJ_DIR/coord.log" "$RJ_DIR"/w*.log
    exit 1
fi
wait "$RJ_W0" || { echo "verify: survivor 0 failed"; \
    cat "$RJ_DIR/w0.log"; exit 1; }
wait "$RJ_W1" || { echo "verify: survivor 1 failed"; \
    cat "$RJ_DIR/w1.log"; exit 1; }
wait "$RJ_W3" || { echo "verify: re-joined worker failed"; \
    cat "$RJ_DIR/w3.log"; exit 1; }
grep -q "re-joined; generation now" "$RJ_DIR/coord.log" || {
    echo "verify: coordinator never re-admitted the new worker";
    cat "$RJ_DIR/coord.log"; exit 1; }
grep -q "re-joining at step" "$RJ_DIR/w3.log" || {
    echo "verify: new worker did not restore a donor checkpoint";
    cat "$RJ_DIR/w3.log"; exit 1; }
RJ_STEPS="$(grep -c '^final step' "$RJ_DIR/coord.log" || true)"
[ "$RJ_STEPS" -eq 40 ] || { echo "verify: expected 40 final losses \
after re-join, got $RJ_STEPS"; cat "$RJ_DIR/coord.log"; exit 1; }
echo "verify: re-join smoke OK (grew back to the full grid, \
$RJ_STEPS losses)"

echo "== serve smoke: daemon, store-hit repeat plan, stats =="
# The serve-labelled tests cover the store format, single-flight and
# crash safety; on top of that, run the real daemon + client binaries
# over loopback: the second identical plan request must be answered
# from the persistent store, and the stats verb must report the
# request latency histogram.
ctest --test-dir "$ROOT/build" --output-on-failure -L serve \
    -j"$(nproc)"
SERVE_DIR="$WORK/serve_smoke"
mkdir "$SERVE_DIR"
"$ROOT/build/examples/primepar_serve" --store "$SERVE_DIR/plans.pps" \
    > "$SERVE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
SPORT=""
for _ in $(seq 1 50); do
    SPORT="$(sed -n 's/^PRIMEPAR_SERVE_PORT=//p' \
        "$SERVE_DIR/serve.log" 2> /dev/null || true)"
    [ -n "$SPORT" ] && break
    sleep 0.1
done
[ -n "$SPORT" ] || { echo "verify: plan server printed no port"; \
    cat "$SERVE_DIR/serve.log"; exit 1; }
CLIENT="$ROOT/build/examples/primepar_plan_client"
"$CLIENT" --connect "127.0.0.1:$SPORT" --model "Llama2 7B" \
    --devices 8 --json > "$SERVE_DIR/first.json"
"$CLIENT" --connect "127.0.0.1:$SPORT" --model "Llama2 7B" \
    --devices 8 --json > "$SERVE_DIR/second.json"
"$CLIENT" --connect "127.0.0.1:$SPORT" --stats \
    > "$SERVE_DIR/stats.json"
"$CLIENT" --connect "127.0.0.1:$SPORT" --shutdown > /dev/null
wait "$SERVE_PID" || { echo "verify: plan server exited non-zero"; \
    cat "$SERVE_DIR/serve.log"; exit 1; }
if command -v python3 > /dev/null 2>&1; then
    python3 - "$SERVE_DIR/first.json" "$SERVE_DIR/second.json" \
        "$SERVE_DIR/stats.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    first = json.load(f)
with open(sys.argv[2]) as f:
    second = json.load(f)
with open(sys.argv[3]) as f:
    stats = json.load(f)
if not (first.get("ok") and second.get("ok")):
    sys.exit("verify: serve smoke plan request failed")
if first.get("source") != "dp":
    sys.exit(f"verify: first request expected a DP run, got "
             f"{first.get('source')!r}")
if second.get("source") != "store":
    sys.exit(f"verify: repeat request expected a store hit, got "
             f"{second.get('source')!r}")
if second["strategies"] != first["strategies"]:
    sys.exit("verify: store-served plan differs from the DP plan")
hist = stats.get("histograms", {}).get("serve.request_us")
if not hist or hist.get("count", 0) < 2:
    sys.exit("verify: stats lack the serve.request_us histogram")
print(f"verify: serve smoke OK (dp -> store hit, p50 "
      f"{hist['p50']:.0f} us / p99 {hist['p99']:.0f} us over "
      f"{hist['count']} requests)")
EOF
fi

echo "== sanitizer (ASan+UBSan): configure + build =="
if [ "$QUICK" -eq 0 ] || [ ! -f "$ROOT/build-asan/CMakeCache.txt" ]; then
    cmake -B "$ROOT/build-asan" -S "$ROOT" \
        -DPRIMEPAR_SANITIZE=ON > /dev/null
fi
cmake --build "$ROOT/build-asan" -j"$(nproc)" \
    --target test_fault test_cost test_optimizer test_dist \
    test_serve test_elementwise test_boundary primepar_worker

echo "== sanitizer: fault + planner + dist + serve + kernels + boundary tests =="
ctest --test-dir "$ROOT/build-asan" --output-on-failure \
    -L 'fault|planner|dist|serve|kernels|boundary' -j"$(nproc)"

echo "== sanitizer (TSan): configure + build =="
if [ "$QUICK" -eq 0 ] || [ ! -f "$ROOT/build-tsan/CMakeCache.txt" ]; then
    cmake -B "$ROOT/build-tsan" -S "$ROOT" \
        -DPRIMEPAR_SANITIZE=thread > /dev/null
fi
cmake --build "$ROOT/build-tsan" -j"$(nproc)" \
    --target test_support test_runtime test_fault test_graph_executor \
    test_optimizer test_cost test_serve test_observer test_dist

echo "== sanitizer (TSan): pool + executor + transport + trainer + observer + planner + serve + control-plane tests =="
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    ctest --test-dir "$ROOT/build-tsan" --output-on-failure \
    -R '^(Parallel|SpmdExecutor|Transport|Trainer|GraphExecutor|Catalog|SegmentedDp|Pruning|CostModel|PlanService|PlanServer|Observer|Guard|Coordinator|TcpTransport)\.' \
    -j"$(nproc)"

echo "verify.sh: all gates passed"
