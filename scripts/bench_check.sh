#!/usr/bin/env sh
# Validate the runtime microbench JSON emitted by `bench_micro --json`.
#
# Usage: bench_check.sh <bench_micro binary> [output.json]
#        bench_check.sh --planner <bench_table2_opttime> [output.json]
#        bench_check.sh --serve <primepar_serve> [output.json]
#
# Default mode runs the microbench in --quick mode, then checks that
# the output is valid JSON with the primepar-bench-runtime-v1 schema,
# that no timing is NaN/absent, that every kernel matched its naive
# reference exactly and names the GEMM tier it ran on, and that results were bit-identical across thread
# counts.
#
# --planner (the `planner_opttime` gate) runs the planner A/B sweep at
# 16 and 32 devices (OPT 6.7B, one thread; 32 is the largest cell
# where the exhaustive baseline is still tractable on a CI host), and
# fails unless dominance pruning is at least 5x faster than the
# exhaustive planner at 32 devices while producing a bit-identical
# plan, and unless the pruned search fits the paper's Table 2 times:
# 171 ms at 16 devices (median of 5 runs) and 5.4 s at 32. A separate
# single-thread 512-device beam run must finish within 5 s.
#
# --serve (the warm-path gate) runs `primepar_serve --bench`: a cold
# DP plan for OPT 6.7B on 32 devices is persisted to a fresh store, a
# brand-new service instance answers the same request from the mmap'd
# store, and the gate fails unless the warm answer came from the
# store, is bit-identical, and is >= 100x faster than the cold run.
# All are wired as optional ctests with the `bench` label
# (ctest -L bench).

set -eu

MODE=micro
if [ "${1:-}" = "--planner" ]; then
    MODE=planner
    shift
elif [ "${1:-}" = "--serve" ]; then
    MODE=serve
    shift
fi

if [ "$#" -lt 1 ]; then
    echo "usage: $0 [--planner] <bench binary> [output.json]" >&2
    exit 2
fi

BENCH="$1"
if [ "$#" -ge 2 ]; then
    OUT="$2"
else
    # No output path given: the record is scratch, removed on exit.
    OUT="$(mktemp /tmp/bench_runtime.XXXXXX.json)"
    trap 'rm -f "$OUT"' EXIT
    trap 'exit 1' HUP INT TERM
fi

if ! command -v python3 > /dev/null 2>&1; then
    echo "bench_check: python3 not available, skipping validation" >&2
    exit 0
fi

if [ "$MODE" = "serve" ]; then
    STORE="$(mktemp /tmp/serve_bench.XXXXXX.pps)"
    rm -f "$STORE" # the bench wants a cold (absent) store
    "$BENCH" --bench --store "$STORE" \
        --model "${SERVE_MODEL:-OPT 6.7B}" \
        --devices "${SERVE_DEVICES:-32}" --bench-out "$OUT"
    rm -f "$STORE"

    python3 - "$OUT" <<'EOF'
import json
import math
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def fail(msg):
    sys.exit(f"bench_check: {msg}")

if doc.get("schema") != "primepar-serve-bench-v1":
    fail(f"unexpected schema {doc.get('schema')!r}")
for field in ("cold_ms", "warm_ms", "speedup", "layer_cost_us",
              "total_cost_us"):
    v = doc.get(field)
    if not isinstance(v, (int, float)) or isinstance(v, bool) \
            or math.isnan(v) or math.isinf(v):
        fail(f"{field} is not finite: {v!r}")
if doc.get("warm_source") != "store":
    fail(f"warm request was served from {doc.get('warm_source')!r}, "
         f"not the persistent store")
if doc.get("bit_identical") is not True:
    fail("warm plan is not bit-identical to the cold DP plan")
if doc["cold_ms"] <= 0 or doc["warm_ms"] <= 0:
    fail("bench timings not positive")
if doc["speedup"] < 100.0:
    fail(f"warm-path speedup {doc['speedup']:.1f}x is below the 100x "
         f"budget (cold {doc['cold_ms']:.0f} ms, warm "
         f"{doc['warm_ms']:.2f} ms)")
print(f"bench_check: OK (serve warm path {doc['speedup']:.0f}x: cold "
      f"DP {doc['cold_ms']:.0f} ms -> mmap'd store "
      f"{doc['warm_ms']:.2f} ms at {doc['devices']} devices, "
      f"bit-identical)")
EOF
    exit 0
fi

if [ "$MODE" = "planner" ]; then
    # All three runs extend one record (same commit) in $OUT.
    "$BENCH" --sweep --devices 16,32 --threads 1 --models "OPT 6.7B" \
        --prune both --json "$OUT"
    "$BENCH" --sweep --devices 16 --threads 1 --models "OPT 6.7B" \
        --prune on --reps 5 --json "$OUT"
    "$BENCH" --sweep --devices 512 --threads 1 --models "OPT 6.7B" \
        --prune on --json "$OUT"

    python3 - "$OUT" <<'EOF'
import json
import math
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def fail(msg):
    sys.exit(f"bench_check: {msg}")

if doc.get("deterministic") is not True:
    fail("planner results diverged across prune modes / thread counts")
results = doc.get("results")
if not isinstance(results, list) or not results:
    fail("planner results missing or empty")
for r in results:
    for field in ("search_ms", "catalog_ms", "pilot_ms", "table_ms",
                  "dp_ms", "layer_cost_us", "total_cost_us", "gap_pct"):
        v = r.get(field)
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or math.isnan(v) or math.isinf(v):
            fail(f"results[].{field} is not finite: {v!r}")
    if r["search_ms"] <= 0:
        fail("results[].search_ms not positive")
    if not r.get("truncated") and r["gap_pct"] != 0:
        fail("untruncated run reported a nonzero optimality gap")

def cells(devices, prune):
    return [r for r in results
            if r["devices"] == devices and r["prune"] == prune]

# The A/B pair: 32 devices, the largest cell the exhaustive run can do.
devices = 32
off = cells(devices, False)
on = cells(devices, True)
if not off or not on:
    fail(f"missing prune on/off pair at {devices} devices")
speedup = off[0]["search_ms"] / on[0]["search_ms"]
if speedup < 5.0:
    fail(f"pruning speedup {speedup:.2f}x at {devices} devices is "
         f"below the 5x budget (exhaustive {off[0]['search_ms']:.0f} "
         f"ms, pruned {on[0]['search_ms']:.0f} ms)")
if on[0]["candidates_kept"] >= on[0]["candidates_total"]:
    fail("pruning kept the whole space — the fast path did nothing")
# Paper Table 2 reports 171 ms for the 16-device search and 5.36 s for
# the 32-device one; the 512-device beam run gets 5 s.
budgets_ms = {16: 171.0, 32: 5400.0, 512: 5000.0}
for d, budget_ms in budgets_ms.items():
    pruned = cells(d, True)
    if not pruned:
        fail(f"missing the pruned {d}-device run")
    if pruned[0]["search_ms"] > budget_ms:
        fail(f"pruned search took {pruned[0]['search_ms']:.0f} ms at {d} "
             f"devices, over the {budget_ms:.0f} ms budget")
print(f"bench_check: OK (planner {speedup:.1f}x at {devices} devices: "
      f"exhaustive {off[0]['search_ms']:.0f} ms -> pruned "
      f"{on[0]['search_ms']:.0f} ms, kept "
      f"{on[0]['candidates_kept']}/{on[0]['candidates_total']} "
      f"candidates, plans bit-identical; 16 devices "
      f"{cells(16, True)[0]['search_ms']:.0f} ms, 512 devices "
      f"{cells(512, True)[0]['search_ms']:.0f} ms)")
EOF
    exit 0
fi

"$BENCH" --json "$OUT" --quick

python3 - "$OUT" <<'EOF'
import json
import math
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def fail(msg):
    sys.exit(f"bench_check: {msg}")

def finite(x, where):
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        fail(f"{where} is not a number: {x!r}")
    if math.isnan(x) or math.isinf(x):
        fail(f"{where} is not finite: {x}")

if doc.get("schema") != "primepar-bench-runtime-v1":
    fail(f"unexpected schema {doc.get('schema')!r}")
finite(doc.get("hardware_threads"), "hardware_threads")
if not isinstance(doc.get("commit"), str) or not doc["commit"]:
    fail(f"commit stamp missing: {doc.get('commit')!r}")

kernels = doc.get("kernels")
if not isinstance(kernels, list) or not kernels:
    fail("kernels missing or empty")
for k in kernels:
    name = k.get("name", "<unnamed>")
    for field in ("blocked_ms", "naive_ms", "speedup", "gflops"):
        finite(k.get(field), f"kernels[{name}].{field}")
    if k["blocked_ms"] <= 0:
        fail(f"kernels[{name}].blocked_ms not positive")
    if k.get("isa") not in ("sse2", "avx2", "avx512f"):
        fail(f"kernels[{name}].isa is not a GEMM tier: {k.get('isa')!r}")
    if k.get("max_abs_diff") != 0:
        fail(f"kernels[{name}] diverged from the naive reference: "
             f"max_abs_diff={k.get('max_abs_diff')}")

step = doc.get("training_step")
if not isinstance(step, dict):
    fail("training_step missing")
threads = step.get("threads")
if not isinstance(threads, list) or not threads:
    fail("training_step.threads missing or empty")
for t in threads:
    for field in ("ms_per_step", "tokens_per_s", "speedup_vs_1t"):
        finite(t.get(field), f"threads[{t.get('num_threads')}].{field}")
if step.get("bit_identical_across_threads") is not True:
    fail("training step results were not bit-identical across threads")
for field in ("ring_bytes_per_step", "allreduce_bytes_per_step"):
    finite(step.get(field), f"training_step.{field}")

fo = doc.get("fault_overhead")
if not isinstance(fo, dict):
    fail("fault_overhead missing")
for field in ("base_ms_per_step", "transport_ms_per_step",
              "overhead_pct", "transfers_per_step",
              "bytes_moved_per_step"):
    finite(fo.get(field), f"fault_overhead.{field}")
if fo.get("bit_identical") is not True:
    fail("transport-routed step diverged from the direct path")
if fo.get("all_clear") is not True:
    fail("fault-free transport run reported faults")
if fo["transfers_per_step"] <= 0:
    fail("fault_overhead.transfers_per_step not positive")
# Budget is < 3% at full size; quick-mode steps are sub-millisecond
# so per-transfer fixed costs and timer noise dominate — only a loose
# sanity bound applies there.
bound = 50.0 if doc.get("quick") else 3.0
if fo["overhead_pct"] > bound:
    fail(f"transport overhead {fo['overhead_pct']:.2f}% exceeds "
         f"{bound}% budget")

oo = doc.get("observer_overhead")
if not isinstance(oo, dict):
    fail("observer_overhead missing")
for field in ("base_ms_per_step", "traced_ms_per_step",
              "overhead_pct", "spans_per_step", "transfers_per_step"):
    finite(oo.get(field), f"observer_overhead.{field}")
if oo.get("bit_identical") is not True:
    fail("observed step diverged from the unobserved one")
if oo["spans_per_step"] <= 0:
    fail("observer_overhead.spans_per_step not positive")
# Same shape as the transport budget: 3% at full size, loose sanity
# bound in quick mode where steps are sub-millisecond.
if oo["overhead_pct"] > bound:
    fail(f"observer overhead {oo['overhead_pct']:.2f}% exceeds "
         f"{bound}% budget")

ov = doc.get("overlap_efficiency")
if not isinstance(ov, dict):
    fail("overlap_efficiency missing")
for field in ("sync_ms_per_step", "async_ms_per_step", "speedup",
              "transfer_us_per_step", "hidden_us_per_step",
              "efficiency"):
    finite(ov.get(field), f"overlap_efficiency.{field}")
if ov.get("bit_identical") is not True:
    fail("async overlap diverged from the synchronous path")
# Budgets at full size: the async pipeline wins >= 1.15x on the
# communication-heavy config and hides >= 60% of the posted transfer
# time. Quick-mode steps are sub-millisecond, so scheduling noise
# drowns both — only loose sanity bounds apply there.
min_speedup = 0.3 if doc.get("quick") else 1.15
min_eff = 0.0 if doc.get("quick") else 0.60
if ov["speedup"] < min_speedup:
    fail(f"overlap speedup {ov['speedup']:.3f}x below the "
         f"{min_speedup}x budget")
if ov["efficiency"] < min_eff:
    fail(f"overlap efficiency {ov['efficiency']:.2%} below the "
         f"{min_eff:.0%} budget")

rss = doc.get("worker_rss")
if not isinstance(rss, dict):
    fail("worker_rss missing")
for field in ("workers", "devices", "sharded_peak_kb",
              "single_worker_peak_kb", "ratio", "budget"):
    finite(rss.get(field), f"worker_rss.{field}")
if rss["sharded_peak_kb"] <= 0 or rss["single_worker_peak_kb"] <= 0:
    fail("worker_rss peaks not positive — did the forked jobs run?")
# Sharded workers materialize tensor data only for owned device
# ranks: at full size each one's peak RSS must be <= 0.5x that of a
# single worker owning every device. The quick-mode model is tiny, so
# the fixed process baseline dominates and only a loose sanity bound
# applies.
if rss["ratio"] > rss["budget"]:
    fail(f"sharded/single-worker peak-RSS ratio {rss['ratio']:.3f} "
         f"exceeds the {rss['budget']} budget (sharded "
         f"{rss['sharded_peak_kb']} KiB, single worker "
         f"{rss['single_worker_peak_kb']} KiB)")

pool = doc.get("buffer_pool")
if not isinstance(pool, dict):
    fail("buffer_pool missing")
for field in ("acquires", "pool_hits", "fresh_allocs"):
    finite(pool.get(field), f"buffer_pool.{field}")

names = ", ".join(k["name"] for k in kernels)
print(f"bench_check: OK ({len(kernels)} kernels: {names}; "
      f"{len(threads)} thread settings; transport overhead "
      f"{fo['overhead_pct']:.2f}%; observer overhead "
      f"{oo['overhead_pct']:.2f}%; overlap {ov['speedup']:.2f}x at "
      f"{ov['efficiency']:.0%} hidden; "
      f"sharded RSS {rss['ratio']:.2f}x single worker)")
EOF
