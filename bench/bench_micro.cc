/**
 * @file
 * Micro-benchmarks of PrimePar's hot paths.
 *
 * Two modes:
 *  - default (google-benchmark): DSI table evaluation, comm-pattern
 *    derivation, partition space enumeration, edge-table boundary
 *    boxes, source views and traffic pricing, and the SPMD contraction
 *    kernel — guards the optimizer's O(P^3) inner loops against
 *    regressions.
 *  - `--json [FILE]` (add `--quick` for CI sizes): the runtime
 *    microbench. Reports blocked-vs-naive kernel timings (ms, GFLOP/s,
 *    bytes moved, the SIMD tier that ran them; gelu on every host
 *    tier), a partitioned training step across thread counts
 *    (tokens/s, ring/all-reduce bytes, scaling efficiency), the
 *    fault-free overhead of the checksummed transport (budget < 3%),
 *    the overhead of the full observability stack (tracing + metrics,
 *    same budget), the async comm/compute overlap win on a
 *    communication-heavy config over an emulated link (step speedup
 *    and fraction of transfer time hidden; budgets >= 1.15x and >=
 *    60% at full size), the per-worker peak RSS of a sharded TCP job
 *    and buffer pool statistics as a `primepar-bench-runtime-v1` JSON
 *    document, validated by scripts/bench_check.sh. The document
 *    stamps `commit` with the measured sources' identity (see
 *    bench::sourceCommit()). Written to FILE, an existing record of
 *    another commit moves into the new record's `history` list; one
 *    of the same commit is replaced.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "baselines/megatron.hh"
#include "common.hh"
#include "cost/cost_model.hh"
#include "partition/comm_pattern.hh"
#include "partition/space.hh"
#include "runtime/graph_executor.hh"
#include "runtime/metrics.hh"
#include "runtime/observer.hh"
#include "runtime/transformer_runtime.hh"
#include "runtime/transport.hh"
#include "tensor/einsum.hh"
#include "tensor/elementwise.hh"
#include "tensor/gemm.hh"
#include "tensor/ops.hh"

using namespace primepar;

namespace {

void
BM_DsiTableBuild(benchmark::State &state)
{
    const int bits = static_cast<int>(state.range(0));
    const OpSpec op = makeLinearOp("fc", 8, 2048, 4096, 4096);
    PartitionSeq seq;
    seq.push(PartitionStep::pSquare(bits / 2));
    for (int b = 2 * (bits / 2); b < bits; ++b)
        seq.push(PartitionStep::byDim(0));
    for (auto _ : state) {
        DsiTable dsi(op, seq, bits);
        benchmark::DoNotOptimize(dsi.steps());
    }
}
BENCHMARK(BM_DsiTableBuild)->Arg(2)->Arg(4)->Arg(6);

void
BM_DerivePassComm(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    const OpSpec op = makeLinearOp("fc", 8, 2048, 4096, 4096);
    const PartitionSeq seq({PartitionStep::pSquare(k)});
    const DsiTable dsi(op, seq, 2 * k);
    for (auto _ : state) {
        const PassComm comm = derivePassComm(op, seq, dsi, 2);
        benchmark::DoNotOptimize(comm.stepShifts.size());
    }
}
BENCHMARK(BM_DerivePassComm)->Arg(1)->Arg(2)->Arg(3);

void
BM_EnumerateSpace(benchmark::State &state)
{
    const int bits = static_cast<int>(state.range(0));
    const OpSpec op = makeLinearOp("fc", 64, 2048, 4096, 4096);
    for (auto _ : state) {
        const auto space = enumerateSequences(op, bits);
        benchmark::DoNotOptimize(space.size());
    }
    state.counters["sequences"] = static_cast<double>(
        enumerateSequences(op, bits).size());
}
BENCHMARK(BM_EnumerateSpace)->Arg(3)->Arg(4)->Arg(5);

/** The topology of a BM_TrafficSplit cell: @p bits device bits on
 *  paperCluster, or a square torus2d when @p torus. */
ClusterTopology
cellTopology(int bits, bool torus)
{
    return torus ? ClusterTopology::torus2d(1 << (bits / 2))
                 : ClusterTopology::paperCluster(1 << bits);
}

void
BM_TrafficSplit(benchmark::State &state)
{
    // Args: device bits, 0 for paperCluster or 1 for a square torus2d
    // (reach sets span several domains), then the pricing tier
    // (GemmIsa); a tier the host lacks is skipped.
    const auto isa = static_cast<GemmIsa>(state.range(2));
    if (!detail::hostSupportsGemmIsa(isa)) {
        state.SkipWithError("tier not supported on this host");
        return;
    }
    const OpSpec op = makeLinearOp("fc", 8, 2048, 4096, 4096);
    const int bits = static_cast<int>(state.range(0));
    const ClusterTopology topo = cellTopology(bits, state.range(1) != 0);
    const CostModel cm(topo, profileModels(topo));
    PartitionSeq a, b;
    for (int i = 0; i < bits; ++i) {
        a.push(PartitionStep::byDim(i % 2));
        b.push(PartitionStep::byDim(3 - i % 2));
    }
    const DsiTable da(op, a, bits), db(op, b, bits);
    const EdgeDimMap map{0, 1, 3};
    const auto have = layoutOf(op, da, {op.outputTensor, false},
                               Phase::Forward, 0, map, {8, 2048, 4096});
    const auto need = layoutOf(op, db, {op.outputTensor, false},
                               Phase::Forward, 0, map, {8, 2048, 4096});
    const auto source = cm.sourceView(flatBoxes(have).data(), have.dimSizes);
    std::vector<std::int32_t> need_lanes(cm.slotLanes(3));
    const std::int64_t need_volume =
        cm.needLanes(flatBoxes(need).data(), need.dimSizes, need_lanes.data());
    for (auto _ : state) {
        const auto split = detail::trafficSplitOn(isa, source,
                                                  need_lanes.data(),
                                                  need_volume);
        benchmark::DoNotOptimize(split.intraNode);
    }
    state.SetLabel(gemmIsaName(isa));
    state.counters["layers"] = source.layers;
}
BENCHMARK(BM_TrafficSplit)->Apply([](benchmark::internal::Benchmark *b) {
    const std::pair<int, int> cells[] = {{3, 0}, {4, 0}, {5, 0}, {4, 1}};
    for (const auto &cell : cells) {
        for (const GemmIsa isa :
             {GemmIsa::Sse2, GemmIsa::Avx2, GemmIsa::Avx512f})
            b->Args({cell.first, cell.second, static_cast<int>(isa)});
    }
});

/** Forward output boundary of every sequence of the BM_TrafficSplit
 *  op: the have side of an edge table with full catalogs. */
struct OutputBoundaries
{
    OpSpec op = makeLinearOp("fc", 8, 2048, 4096, 4096);
    EdgeDimMap map{0, 1, 3};
    std::vector<std::int64_t> sizes{8, 2048, 4096};
    std::vector<PartitionSeq> seqs;

    explicit OutputBoundaries(int bits) : seqs(enumerateSequences(op, bits))
    {
    }
};

void
BM_LayoutBoxes(benchmark::State &state)
{
    // Args as BM_TrafficSplit's cells: device bits, torus flag (the
    // boxes do not depend on the topology). One iteration reads the
    // boxes of every sequence's boundary.
    const int bits = static_cast<int>(state.range(0));
    const OutputBoundaries b(bits);
    const BoundaryBoxes reader(b.op, bits, {b.op.outputTensor, false},
                               Phase::Forward, b.map, b.sizes);
    std::vector<SliceRange> boxes((std::size_t{1} << bits) * b.sizes.size());
    for (auto _ : state) {
        for (const PartitionSeq &seq : b.seqs) {
            reader.read(seq, seq.temporalSteps() - 1, boxes.data());
            benchmark::DoNotOptimize(boxes.data());
        }
    }
    state.counters["per_boundary"] = benchmark::Counter(
        static_cast<double>(b.seqs.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_LayoutBoxes)->Args({3, 0})->Args({4, 0})->Args({5, 0})
    ->Args({4, 1});

void
BM_SourceView(benchmark::State &state)
{
    // Args as BM_LayoutBoxes. One iteration builds the view of every
    // sequence's boundary into one arena, as an edge table side does.
    const int bits = static_cast<int>(state.range(0));
    const ClusterTopology topo = cellTopology(bits, state.range(1) != 0);
    const CostModel cm(topo, profileModels(topo));
    const OutputBoundaries b(bits);
    const LaneDims dims(topo.numDevices(), b.sizes);
    std::vector<std::vector<SliceRange>> boxes;
    for (const PartitionSeq &seq : b.seqs) {
        boxes.push_back(flatBoxes(layoutOf(b.op, seq, bits,
                                           {b.op.outputTensor, false},
                                           Phase::Forward,
                                           seq.temporalSteps() - 1, b.map,
                                           b.sizes)));
    }
    for (auto _ : state) {
        LaneArena arena;
        for (const auto &layout : boxes) {
            const auto view = cm.sourceView(layout.data(), dims, arena);
            benchmark::DoNotOptimize(view.lanes);
        }
    }
    state.counters["per_view"] = benchmark::Counter(
        static_cast<double>(boxes.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_SourceView)->Args({3, 0})->Args({4, 0})->Args({5, 0})
    ->Args({4, 1});

void
BM_ContractProduct(benchmark::State &state)
{
    const std::int64_t n = state.range(0);
    Rng rng(1);
    const Tensor a = Tensor::random(Shape{n, n}, rng);
    const Tensor b = Tensor::random(Shape{n, n}, rng);
    Tensor out(Shape{n, n});
    for (auto _ : state) {
        out.zero();
        contractProduct(a, {0, 1}, b, {1, 2}, out, {0, 2});
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_ContractProduct)->Arg(32)->Arg(64);

// ---------------------------------------------------------------------
// Runtime microbench (--json mode)
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/** Best-of-@p iters wall time of @p fn in milliseconds. */
template <typename Fn>
double
timeMs(int iters, Fn &&fn)
{
    double best = 0.0;
    for (int i = 0; i < iters; ++i) {
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (i == 0 || ms < best)
            best = ms;
    }
    return best;
}

/** JSON float: bench_check.sh refuses NaN/Inf, so clamp them loudly. */
std::string
jnum(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os.precision(6);
    os << std::fixed << v;
    return os.str();
}

struct KernelReport
{
    std::string name;
    std::int64_t m, n, k;
    double blocked_ms, naive_ms, max_abs_diff;
    std::int64_t bytes_moved;
    double flops;
    GemmIsa isa = activeGemmIsa();
};

double
gemmFlops(std::int64_t m, std::int64_t n, std::int64_t k)
{
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k);
}

// Float operations per element of gelu / geluBackward on the fdlibm
// path the typical element takes (1 <= |inner| < 22, one expm1
// reconstruction branch): 37 for tanh (33 in expm1f) plus 8 and 18
// around it. The vector kernels evaluate every branch, so this is the
// algorithm's count, not the instructions retired.
constexpr double kGeluFlops = 45.0;
constexpr double kGeluBackwardFlops = 55.0;

void
emitKernel(std::ostream &os, const KernelReport &r, bool last)
{
    os << "    {\"name\": \"" << r.name << "\", \"m\": " << r.m
       << ", \"n\": " << r.n << ", \"k\": " << r.k
       << ", \"blocked_ms\": " << jnum(r.blocked_ms)
       << ", \"naive_ms\": " << jnum(r.naive_ms)
       << ", \"speedup\": " << jnum(r.naive_ms / r.blocked_ms)
       << ", \"gflops\": " << jnum(r.flops / (r.blocked_ms * 1e6))
       << ", \"bytes_moved\": " << r.bytes_moved
       << ", \"isa\": \"" << gemmIsaName(r.isa) << "\""
       << ", \"max_abs_diff\": " << jnum(r.max_abs_diff) << "}"
       << (last ? "" : ",") << "\n";
}

std::vector<KernelReport>
runKernelBenches(bool quick)
{
    std::vector<KernelReport> reports;
    Rng rng(1234);
    const int iters = quick ? 1 : 3;

    // The acceptance-criterion GEMM: 1024^3 linearForward.
    const std::int64_t G = quick ? 128 : 1024;
    const std::int64_t S = quick ? 96 : 512;

    {
        const Tensor in = Tensor::random({G, G}, rng);
        const Tensor w = Tensor::random({G, G}, rng);
        Tensor blocked, ref;
        const double bms =
            timeMs(iters, [&] { blocked = linearForward(in, w); });
        const double nms =
            timeMs(1, [&] { ref = naive::linearForward(in, w); });
        reports.push_back({"linearForward", G, G, G, bms, nms,
                           static_cast<double>(blocked.maxAbsDiff(ref)),
                           4 * (3 * G * G),
                           gemmFlops(G, G, G)});
    }
    {
        const Tensor go = Tensor::random({S, S}, rng);
        const Tensor w = Tensor::random({S, S}, rng);
        Tensor blocked, ref;
        const double bms =
            timeMs(iters, [&] { blocked = linearBackward(go, w); });
        const double nms =
            timeMs(1, [&] { ref = naive::linearBackward(go, w); });
        reports.push_back({"linearBackward", S, S, S, bms, nms,
                           static_cast<double>(blocked.maxAbsDiff(ref)),
                           4 * (3 * S * S),
                           gemmFlops(S, S, S)});
    }
    {
        const Tensor in = Tensor::random({S, S}, rng);
        const Tensor go = Tensor::random({S, S}, rng);
        Tensor blocked, ref;
        const double bms =
            timeMs(iters, [&] { blocked = linearGradient(in, go); });
        const double nms =
            timeMs(1, [&] { ref = naive::linearGradient(in, go); });
        reports.push_back({"linearGradient", S, S, S, bms, nms,
                           static_cast<double>(blocked.maxAbsDiff(ref)),
                           4 * (3 * S * S),
                           gemmFlops(S, S, S)});
    }
    {
        const std::int64_t B = 8, M = quick ? 64 : 256;
        const Tensor a = Tensor::random({B, M, M}, rng);
        const Tensor b = Tensor::random({B, M, M}, rng);
        Tensor blocked, ref;
        const double bms = timeMs(
            iters, [&] { blocked = batchedMatmul(a, b, false, true); });
        const double nms = timeMs(
            1, [&] { ref = naive::batchedMatmul(a, b, false, true); });
        reports.push_back({"batchedMatmulNT", B * M, M, M, bms, nms,
                           static_cast<double>(blocked.maxAbsDiff(ref)),
                           4 * (3 * B * M * M),
                           gemmFlops(B * M, M, M)});
    }
    {
        // The executor's generic contraction through the einsum GEMM
        // fast path, against the seed odometer.
        const std::int64_t M = quick ? 64 : 256;
        const Tensor a = Tensor::random({M, M}, rng);
        const Tensor b = Tensor::random({M, M}, rng);
        Tensor blocked(Shape{M, M});
        Tensor ref(Shape{M, M});
        const double bms = timeMs(iters, [&] {
            blocked.zero();
            contractProduct(a, {0, 1}, b, {1, 2}, blocked, {0, 2});
        });
        const double nms = timeMs(1, [&] {
            ref.zero();
            naive::contract(a, {0, 1}, b, {1, 2}, ref, {0, 2});
        });
        reports.push_back({"contractProduct", M, M, M, bms, nms,
                           static_cast<double>(blocked.maxAbsDiff(ref)),
                           4 * (3 * M * M),
                           gemmFlops(M, M, M)});
    }
    {
        // The activation around every FFN contraction, on every tier
        // the host supports ("gelu" is the active tier, "gelu.<isa>"
        // the others), against the seed loops over std::tanh. Inputs
        // span |inner| up to ~25, so every tanh branch is taken.
        const std::int64_t E = quick ? (1 << 14) : (1 << 22);
        Tensor x = Tensor::random({E}, rng);
        x.scale(8.0f);
        const Tensor dy = Tensor::random({E}, rng);
        Tensor ref;
        const double naive_fwd_ms =
            timeMs(1, [&] { ref = naive::gelu(x); });
        Tensor ref_bwd;
        const double naive_bwd_ms =
            timeMs(1, [&] { ref_bwd = naive::geluBackward(x, dy); });
        Tensor out(Shape{E});
        for (const GemmIsa isa :
             {GemmIsa::Avx512f, GemmIsa::Avx2, GemmIsa::Sse2}) {
            if (!detail::hostSupportsGemmIsa(isa))
                continue;
            const std::string suffix =
                isa == activeGemmIsa() ? ""
                                       : std::string(".") + gemmIsaName(isa);
            double bms = timeMs(iters, [&] {
                detail::geluOn(isa, x.data(), out.data(), E);
            });
            reports.push_back({"gelu" + suffix, E, 1, 1, bms, naive_fwd_ms,
                               static_cast<double>(out.maxAbsDiff(ref)),
                               4 * (2 * E), kGeluFlops * E, isa});
            bms = timeMs(iters, [&] {
                detail::geluBackwardOn(isa, x.data(), dy.data(),
                                       out.data(), E);
            });
            reports.push_back(
                {"geluBackward" + suffix, E, 1, 1, bms, naive_bwd_ms,
                 static_cast<double>(out.maxAbsDiff(ref_bwd)),
                 4 * (3 * E), kGeluBackwardFlops * E, isa});
        }
    }
    return reports;
}

/** PrimePar-style plan over 4 emulated devices: PSquare on each
 *  linear, batch/sequence splits elsewhere. */
std::vector<PartitionSeq>
benchBlockPlan(const CompGraph &graph)
{
    std::vector<PartitionSeq> plan(graph.numNodes());
    for (int n = 0; n < graph.numNodes(); ++n) {
        const OpSpec &op = graph.node(n);
        if (op.psquare.has_value()) {
            plan[n] = PartitionSeq({PartitionStep::pSquare(1)});
        } else if (op.kind == "matmul" || op.kind == "softmax") {
            plan[n] = PartitionSeq(
                {PartitionStep::byDim(0),
                 PartitionStep::byDim(op.dimIndex("Hd"))});
        } else {
            plan[n] = PartitionSeq(
                {PartitionStep::byDim(0),
                 PartitionStep::byDim(op.dimIndex("M"))});
        }
    }
    return plan;
}

/** One partitioned transformer-block training step, timed per thread
 *  count; outputs must be bit-identical across all of them. */
void
emitTrainingStep(std::ostream &os, bool quick)
{
    ModelConfig cfg;
    cfg.name = "bench";
    cfg.hiddenSize = quick ? 32 : 128;
    cfg.numHeads = 4;
    cfg.ffnSize = quick ? 64 : 512;
    cfg.seqLength = quick ? 16 : 32;
    cfg.numLayers = 1;
    const std::int64_t batch = 4;

    const CompGraph graph = buildTransformerBlock(cfg, batch);
    Rng rng(99);
    GraphIO io;
    io.input = Tensor::random(
        Shape{batch, cfg.seqLength, cfg.hiddenSize}, rng);
    io.params = randomBlockParams(graph, rng);
    io.d_output = Tensor::random(
        Shape{batch, cfg.seqLength, cfg.hiddenSize}, rng);

    const std::vector<PartitionSeq> plan = benchBlockPlan(graph);

    const std::int64_t tokens = batch * cfg.seqLength;
    const int iters = quick ? 1 : 3;
    const std::vector<int> thread_settings = {1, 2, 4, 0};

    double base_ms = 0.0;
    GraphResult ref_result;
    bool bit_identical = true;
    std::int64_t ring_bytes = 0, allreduce_bytes = 0;

    os << "  \"training_step\": {\n"
       << "    \"model\": {\"hidden\": " << cfg.hiddenSize
       << ", \"heads\": " << cfg.numHeads << ", \"ffn\": " << cfg.ffnSize
       << ", \"seq\": " << cfg.seqLength << ", \"batch\": " << batch
       << ", \"devices\": 4},\n"
       << "    \"tokens_per_step\": " << tokens << ",\n"
       << "    \"threads\": [\n";

    for (std::size_t i = 0; i < thread_settings.size(); ++i) {
        const int requested = thread_settings[i];
        RuntimeOptions rt;
        rt.numBits = 2;
        rt.execution.numThreads = requested;
        SpmdGraphExecutor exec(graph, plan, rt);

        GraphResult result;
        const double ms =
            timeMs(iters, [&] { result = exec.run(io); });
        if (i == 0) {
            base_ms = ms;
            ref_result = result;
            ring_bytes = exec.stats().ringElements * 4;
            allreduce_bytes = exec.stats().allReduceElements * 4;
        } else {
            if (result.output.maxAbsDiff(ref_result.output) != 0.0f ||
                result.d_input.maxAbsDiff(ref_result.d_input) != 0.0f)
                bit_identical = false;
            for (const auto &[name, grad] : ref_result.d_params) {
                if (result.d_params.at(name).maxAbsDiff(grad) != 0.0f)
                    bit_identical = false;
            }
        }
        os << "      {\"num_threads\": " << requested
           << ", \"resolved_threads\": " << resolveNumThreads(requested)
           << ", \"ms_per_step\": " << jnum(ms)
           << ", \"tokens_per_s\": "
           << jnum(static_cast<double>(tokens) / (ms / 1000.0))
           << ", \"speedup_vs_1t\": " << jnum(base_ms / ms) << "}"
           << (i + 1 < thread_settings.size() ? "," : "") << "\n";
    }

    os << "    ],\n"
       << "    \"ring_bytes_per_step\": " << ring_bytes << ",\n"
       << "    \"allreduce_bytes_per_step\": " << allreduce_bytes
       << ",\n"
       << "    \"bit_identical_across_threads\": "
       << (bit_identical ? "true" : "false") << "\n"
       << "  },\n";
}

/** Fault-free cost of routing every shift/all-reduce through the
 *  checksummed transport vs direct in-process copies. Budget: < 3%
 *  overhead per training step, with bit-identical outputs. */
void
emitFaultOverhead(std::ostream &os, bool quick)
{
    ModelConfig cfg;
    cfg.name = "bench";
    cfg.hiddenSize = quick ? 32 : 128;
    cfg.numHeads = 4;
    cfg.ffnSize = quick ? 64 : 512;
    cfg.seqLength = quick ? 16 : 32;
    cfg.numLayers = 1;
    const std::int64_t batch = 4;

    const CompGraph graph = buildTransformerBlock(cfg, batch);
    Rng rng(99);
    GraphIO io;
    io.input = Tensor::random(
        Shape{batch, cfg.seqLength, cfg.hiddenSize}, rng);
    io.params = randomBlockParams(graph, rng);
    io.d_output = Tensor::random(
        Shape{batch, cfg.seqLength, cfg.hiddenSize}, rng);

    const std::vector<PartitionSeq> plan = benchBlockPlan(graph);
    // Best-of over many interleaved rounds: the overhead budget is a
    // ~0.3ms signal on an ~11ms step, so the minima need to converge
    // further than the other sections' do.
    const int rounds = quick ? 4 : 48;

    // Serial pipeline on both sides: this section isolates the
    // transport's copy/checksum cost, and the async comm worker's
    // scheduling jitter on a shared core would drown the ~1% signal
    // (the overlap win has its own overlap_efficiency section).
    RuntimeOptions serial_comm;
    serial_comm.numBits = 2;
    serial_comm.execution.numThreads = 0;
    serial_comm.execution.overlapComm = false;
    SpmdGraphExecutor base_exec(graph, plan, serial_comm);

    // Same step, but every transfer goes through the transport with
    // payload checksum + header verification (no injector, no guard,
    // no observer): the cost a fault-free run pays for being
    // protectable.
    RuntimeHealth health;
    health.guard.enabled = false;
    InProcessTransport transport({}, nullptr, &health);
    SpmdGraphExecutor fault_exec(graph, plan, serial_comm, &transport);
    fault_exec.setHealth(&health);

    // Interleave the two variants round-by-round (alternating which
    // goes first) so machine-wide drift hits both alike;
    // best-of-rounds absorbs transient noise.
    GraphResult base_result, fault_result;
    double base_ms = 0.0, transport_ms = 0.0;
    for (int r = 0; r < rounds; ++r) {
        double b, t;
        if (r & 1) {
            t = timeMs(1, [&] { fault_result = fault_exec.run(io); });
            b = timeMs(1, [&] { base_result = base_exec.run(io); });
        } else {
            b = timeMs(1, [&] { base_result = base_exec.run(io); });
            t = timeMs(1, [&] { fault_result = fault_exec.run(io); });
        }
        base_ms = (r == 0) ? b : std::min(base_ms, b);
        transport_ms = (r == 0) ? t : std::min(transport_ms, t);
    }

    // One clean run for the per-step transfer counters.
    health.reset();
    fault_result = fault_exec.run(io);

    bool bit_identical =
        fault_result.output.maxAbsDiff(base_result.output) == 0.0f &&
        fault_result.d_input.maxAbsDiff(base_result.d_input) == 0.0f;
    for (const auto &[name, grad] : base_result.d_params) {
        if (fault_result.d_params.at(name).maxAbsDiff(grad) != 0.0f)
            bit_identical = false;
    }

    os << "  \"fault_overhead\": {\n"
       << "    \"base_ms_per_step\": " << jnum(base_ms) << ",\n"
       << "    \"transport_ms_per_step\": " << jnum(transport_ms)
       << ",\n"
       << "    \"overhead_pct\": "
       << jnum((transport_ms / base_ms - 1.0) * 100.0) << ",\n"
       << "    \"transfers_per_step\": " << health.transfers << ",\n"
       << "    \"bytes_moved_per_step\": " << health.bytesMoved
       << ",\n"
       << "    \"bit_identical\": "
       << (bit_identical ? "true" : "false") << ",\n"
       << "    \"all_clear\": "
       << (health.allClear() ? "true" : "false") << "\n"
       << "  },\n";
}

/** Cost of attaching the full observability stack (TracingObserver +
 *  MetricsObserver) to a transport-routed training step, vs the same
 *  step unobserved. Budget: < 3% per step at full size. */
void
emitObserverOverhead(std::ostream &os, bool quick)
{
    ModelConfig cfg;
    cfg.name = "bench";
    cfg.hiddenSize = quick ? 32 : 128;
    cfg.numHeads = 4;
    cfg.ffnSize = quick ? 64 : 512;
    cfg.seqLength = quick ? 16 : 32;
    cfg.numLayers = 1;
    const std::int64_t batch = 4;

    const CompGraph graph = buildTransformerBlock(cfg, batch);
    Rng rng(99);
    GraphIO io;
    io.input = Tensor::random(
        Shape{batch, cfg.seqLength, cfg.hiddenSize}, rng);
    io.params = randomBlockParams(graph, rng);
    io.d_output = Tensor::random(
        Shape{batch, cfg.seqLength, cfg.hiddenSize}, rng);

    const std::vector<PartitionSeq> plan = benchBlockPlan(graph);
    // Best-of over many interleaved rounds: the overhead budget is a
    // ~0.3ms signal on an ~11ms step, so the minima need to converge
    // further than the other sections' do.
    const int rounds = quick ? 4 : 48;

    // Serial pipeline on both sides, for the same reason as the
    // fault_overhead section: the observer cost is a small signal and
    // the async worker's scheduling jitter would swamp it.
    InProcessTransport base_transport;
    RuntimeOptions serial_comm;
    serial_comm.numBits = 2;
    serial_comm.execution.numThreads = 0;
    serial_comm.execution.overlapComm = false;
    SpmdGraphExecutor base_exec(graph, plan, serial_comm, &base_transport);

    TracingObserver tracer;
    MetricsRegistry registry;
    MetricsObserver metrics(&registry);
    // The guard stays off: this section prices the observers alone.
    RuntimeHealth traced_health;
    traced_health.guard.enabled = false;
    traced_health.addObserver(&tracer);
    traced_health.addObserver(&metrics);
    InProcessTransport traced_transport({}, nullptr, &traced_health);
    SpmdGraphExecutor traced_exec(graph, plan, serial_comm,
                                  &traced_transport);
    traced_exec.setHealth(&traced_health);

    GraphResult base_result, traced_result;
    double base_ms = 0.0, traced_ms = 0.0;
    for (int r = 0; r < rounds; ++r) {
        double b, t;
        if (r & 1) {
            t = timeMs(1, [&] { traced_result = traced_exec.run(io); });
            b = timeMs(1, [&] { base_result = base_exec.run(io); });
        } else {
            b = timeMs(1, [&] { base_result = base_exec.run(io); });
            t = timeMs(1, [&] { traced_result = traced_exec.run(io); });
        }
        base_ms = (r == 0) ? b : std::min(base_ms, b);
        traced_ms = (r == 0) ? t : std::min(traced_ms, t);
    }

    // One clean run for the per-step span/transfer counters.
    registry.reset();
    tracer.reset();
    traced_result = traced_exec.run(io);

    bool bit_identical =
        traced_result.output.maxAbsDiff(base_result.output) == 0.0f &&
        traced_result.d_input.maxAbsDiff(base_result.d_input) == 0.0f;
    for (const auto &[name, grad] : base_result.d_params) {
        if (traced_result.d_params.at(name).maxAbsDiff(grad) != 0.0f)
            bit_identical = false;
    }
    const std::int64_t spans = static_cast<std::int64_t>(
        tracer.snapshot().spans().size());

    os << "  \"observer_overhead\": {\n"
       << "    \"base_ms_per_step\": " << jnum(base_ms) << ",\n"
       << "    \"traced_ms_per_step\": " << jnum(traced_ms) << ",\n"
       << "    \"overhead_pct\": "
       << jnum((traced_ms / base_ms - 1.0) * 100.0) << ",\n"
       << "    \"spans_per_step\": " << spans << ",\n"
       << "    \"transfers_per_step\": "
       << registry.counter("transport.transfers") << ",\n"
       << "    \"bit_identical\": "
       << (bit_identical ? "true" : "false") << "\n"
       << "  },\n";
}

/** Async ring/compute overlap vs the strictly synchronous path on a
 *  communication-heavy block, plus the overlap efficiency (fraction
 *  of transfer time hidden under compute spans). Budgets at full
 *  size: >= 1.15x step speedup, >= 60% hidden. */
void
emitOverlapEfficiency(std::ostream &os, bool quick)
{
    // Communication-heavy on purpose: a wide model over an emulated
    // 1 GB/s link, so the ring traffic's in-flight wire time is a
    // large slice of the synchronous step — the async pipeline's
    // window to win back.
    ModelConfig cfg;
    cfg.name = "bench";
    cfg.hiddenSize = quick ? 32 : 192;
    cfg.numHeads = 4;
    cfg.ffnSize = quick ? 64 : 768;
    cfg.seqLength = quick ? 16 : 64;
    cfg.numLayers = 1;
    const std::int64_t batch = 4;

    const CompGraph graph = buildTransformerBlock(cfg, batch);
    Rng rng(99);
    GraphIO io;
    io.input = Tensor::random(
        Shape{batch, cfg.seqLength, cfg.hiddenSize}, rng);
    io.params = randomBlockParams(graph, rng);
    io.d_output = Tensor::random(
        Shape{batch, cfg.seqLength, cfg.hiddenSize}, rng);

    const std::vector<PartitionSeq> plan = benchBlockPlan(graph);
    const int rounds = quick ? 4 : 16;

    // The emulated interconnect: 20 us per-transfer latency, 1 GB/s.
    // In-flight wire time is a sleep, not CPU work, so the async
    // executor can genuinely hide it even on one hardware thread.
    TransportOptions topts;
    topts.linkLatencyUs = 20.0;
    topts.linkBytesPerUs = 1000.0;

    InProcessTransport sync_transport(topts, nullptr, nullptr);
    RuntimeOptions rt;
    rt.numBits = 2;
    rt.execution.numThreads = 0;
    rt.execution.overlapComm = false;
    SpmdGraphExecutor sync_exec(graph, plan, rt, &sync_transport);

    InProcessTransport async_transport(topts, nullptr, nullptr);
    rt.execution.overlapComm = true;
    SpmdGraphExecutor async_exec(graph, plan, rt, &async_transport);

    GraphResult sync_result, async_result;
    double sync_ms = 0.0, async_ms = 0.0;
    for (int r = 0; r < rounds; ++r) {
        double s, a;
        if (r & 1) {
            a = timeMs(1, [&] { async_result = async_exec.run(io); });
            s = timeMs(1, [&] { sync_result = sync_exec.run(io); });
        } else {
            s = timeMs(1, [&] { sync_result = sync_exec.run(io); });
            a = timeMs(1, [&] { async_result = async_exec.run(io); });
        }
        sync_ms = (r == 0) ? s : std::min(sync_ms, s);
        async_ms = (r == 0) ? a : std::min(async_ms, a);
    }

    bool bit_identical =
        async_result.output.maxAbsDiff(sync_result.output) == 0.0f &&
        async_result.d_input.maxAbsDiff(sync_result.d_input) == 0.0f;
    for (const auto &[name, grad] : sync_result.d_params) {
        if (async_result.d_params.at(name).maxAbsDiff(grad) != 0.0f)
            bit_identical = false;
    }

    // One traced async run for the overlap accounting: how much of
    // the summed Ring span time lies under a Compute span.
    TracingObserver tracer;
    RuntimeHealth traced_health;
    traced_health.guard.enabled = false;
    traced_health.addObserver(&tracer);
    async_exec.setHealth(&traced_health);
    async_exec.run(io);
    const OverlapStats ov = tracer.overlapStats();

    os << "  \"overlap_efficiency\": {\n"
       << "    \"link_latency_us\": " << jnum(topts.linkLatencyUs)
       << ",\n"
       << "    \"link_bytes_per_us\": " << jnum(topts.linkBytesPerUs)
       << ",\n"
       << "    \"sync_ms_per_step\": " << jnum(sync_ms) << ",\n"
       << "    \"async_ms_per_step\": " << jnum(async_ms) << ",\n"
       << "    \"speedup\": " << jnum(sync_ms / async_ms) << ",\n"
       << "    \"transfer_us_per_step\": " << jnum(ov.transferUs)
       << ",\n"
       << "    \"hidden_us_per_step\": " << jnum(ov.hiddenUs) << ",\n"
       << "    \"efficiency\": " << jnum(ov.efficiency()) << ",\n"
       << "    \"bit_identical\": "
       << (bit_identical ? "true" : "false") << "\n"
       << "  },\n";
}

/** Fork a real distributed job — `primepar_worker --serve` plus
 *  @p numWorkers workers on its ephemeral port — and return the
 *  largest per-worker peak RSS (KiB), or -1 on launch failure. Each
 *  worker reports its own post-exec `VmHWM` as a final
 *  `worker N peak_rss_kb K` stdout line, read here through a pipe:
 *  wait4's ru_maxrss would carry this process's RSS at fork time
 *  across exec and floor every worker at it. */
long
runWorkerJobPeakRss(const std::string &jobArgs, int numWorkers)
{
#ifdef PRIMEPAR_WORKER_BIN
    const std::string cmd = std::string(PRIMEPAR_WORKER_BIN) +
                            " --serve " + jobArgs + " 2>/dev/null";
    FILE *coord = popen(cmd.c_str(), "r");
    if (!coord)
        return -1;
    char line[512];
    int port = -1;
    while (std::fgets(line, sizeof line, coord)) {
        if (std::sscanf(line, "PRIMEPAR_COORD_PORT=%d", &port) == 1)
            break;
    }
    int out[2];
    if (port <= 0 || ::pipe2(out, O_CLOEXEC) != 0) {
        pclose(coord);
        return -1;
    }
    const std::string addr = "127.0.0.1:" + std::to_string(port);
    std::vector<pid_t> pids;
    for (int w = 0; w < numWorkers; ++w) {
        const pid_t pid = fork();
        if (pid == 0) {
            ::dup2(out[1], 1);
            const int null = ::open("/dev/null", O_WRONLY);
            if (null >= 0)
                ::dup2(null, 2);
            ::execl(PRIMEPAR_WORKER_BIN, "primepar_worker",
                    "--connect", addr.c_str(),
                    static_cast<char *>(nullptr));
            std::_Exit(127);
        }
        if (pid > 0)
            pids.push_back(pid);
    }
    ::close(out[1]);
    long peak = -1;
    FILE *workers = ::fdopen(out[0], "r");
    if (workers) {
        long kb = 0;
        while (std::fgets(line, sizeof line, workers)) {
            if (std::sscanf(line, "worker %*d peak_rss_kb %ld",
                            &kb) == 1)
                peak = std::max(peak, kb);
        }
        std::fclose(workers);
    } else {
        ::close(out[0]);
    }
    while (std::fgets(line, sizeof line, coord)) {
    }
    pclose(coord);
    for (const pid_t pid : pids)
        ::waitpid(pid, nullptr, 0);
    return peak;
#else
    (void)jobArgs;
    (void)numWorkers;
    return -1;
#endif
}

/** Per-worker resident memory of a 4-worker / 16-device TCP job
 *  against a one-worker job of the same model and device count. Each
 *  of the 4 workers materializes tensor data only for the device
 *  ranks it owns, so its peak RSS must sit well below that of the
 *  single worker that owns all 16. Budget: 4-worker <= 0.5x
 *  one-worker at full size (quick mode only sanity-checks <= 0.95x —
 *  the tiny CI model is dominated by the fixed process baseline). */
void
emitWorkerRss(std::ostream &os, bool quick)
{
    const int workers = 4, devices = 16;
    const int steps = quick ? 2 : 3;
    const std::string model =
        quick ? "--batch 2 --hidden 32 --heads 2 --ffn 64 --seq 16"
              : "--batch 8 --hidden 256 --heads 8 --ffn 1024"
                " --seq 128";
    const std::string job = " --devices " + std::to_string(devices) +
                            " --steps " + std::to_string(steps) +
                            " --seed 7 " + model;
    const long sharded = runWorkerJobPeakRss(
        "--workers " + std::to_string(workers) + job, workers);
    const long single = runWorkerJobPeakRss("--workers 1" + job, 1);
    const double ratio = (sharded > 0 && single > 0)
                             ? static_cast<double>(sharded) /
                                   static_cast<double>(single)
                             : 1.0;
    os << "  \"worker_rss\": {\n"
       << "    \"workers\": " << workers << ",\n"
       << "    \"devices\": " << devices << ",\n"
       << "    \"steps\": " << steps << ",\n"
       << "    \"sharded_peak_kb\": " << sharded << ",\n"
       << "    \"single_worker_peak_kb\": " << single << ",\n"
       << "    \"ratio\": " << jnum(ratio) << ",\n"
       << "    \"budget\": " << jnum(quick ? 0.95 : 0.5) << "\n"
       << "  },\n";
}

int
runRuntimeBench(const std::string &out_path, bool quick)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"schema\": \"primepar-bench-runtime-v1\",\n"
       << "  \"commit\": \""
       << bench::sourceCommit(PRIMEPAR_SOURCE_DIR) << "\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"hardware_threads\": " << hardwareConcurrency() << ",\n";

    BufferPool::global().resetStats();
    const auto kernels = runKernelBenches(quick);
    os << "  \"kernels\": [\n";
    for (std::size_t i = 0; i < kernels.size(); ++i)
        emitKernel(os, kernels[i], i + 1 == kernels.size());
    os << "  ],\n";

    emitTrainingStep(os, quick);
    emitFaultOverhead(os, quick);
    emitObserverOverhead(os, quick);
    emitOverlapEfficiency(os, quick);
    emitWorkerRss(os, quick);

    const BufferPoolStats ps = BufferPool::global().stats();
    os << "  \"buffer_pool\": {\"acquires\": " << ps.acquires
       << ", \"pool_hits\": " << ps.poolHits
       << ", \"fresh_allocs\": " << ps.freshAllocs
       << ", \"bytes_allocated\": " << ps.bytesAllocated
       << ", \"bytes_retained\": " << ps.bytesRetained << "}\n"
       << "}\n";

    if (out_path.empty()) {
        std::cout << os.str();
        return 0;
    }
    try {
        saveJsonFile(out_path,
                     bench::withPreviousRecord(out_path,
                                               parseJson(os.str())));
    } catch (const std::exception &e) {
        std::cerr << "cannot write " << out_path << ": " << e.what()
                  << "\n";
        return 1;
    }
    std::cerr << "wrote " << out_path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false, quick = false;
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                out_path = argv[++i];
        } else if (arg == "--quick") {
            quick = true;
        }
    }
    if (json || quick)
        return runRuntimeBench(out_path, quick);

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
