/**
 * @file
 * Graph-level functional equivalence: whole multi-operator graphs —
 * up to the complete Fig. 6 transformer block with QKV splits, head
 * reshapes and residual gradient accumulation — execute partitioned
 * and must match both a hand-composed reference and single-device
 * execution exactly.
 */

#include <gtest/gtest.h>

#include "baselines/megatron.hh"
#include "runtime/graph_executor.hh"
#include "runtime/transformer_runtime.hh"
#include "tensor/ops.hh"

namespace primepar {
namespace {

/** Tiny model shape for functional tests. */
ModelConfig
tinyModel()
{
    ModelConfig cfg;
    cfg.name = "tiny";
    cfg.hiddenSize = 8;
    cfg.numHeads = 2;
    cfg.ffnSize = 16;
    cfg.seqLength = 4;
    cfg.numLayers = 1;
    return cfg;
}

TEST(GraphExecutor, MlpChainMatchesHandReference)
{
    ModelConfig cfg = tinyModel();
    const std::int64_t b = 2;
    const CompGraph g = buildMlpBlock(cfg, b);

    Rng rng(31);
    GraphIO io;
    io.input = Tensor::random(Shape{b, cfg.seqLength, cfg.hiddenSize},
                              rng);
    io.params = randomBlockParams(g, rng);
    io.d_output = Tensor::random(
        Shape{b, cfg.seqLength, cfg.hiddenSize}, rng);

    // Hand reference. The MLP block uses relu.
    const Tensor &w1 = io.params.at("fc1.W");
    const Tensor &w2 = io.params.at("fc2.W");
    const Tensor h1 = linearForward(io.input, w1);
    const Tensor h2 = relu(h1);
    const Tensor y = linearForward(h2, w2);
    const Tensor dh2 = linearBackward(io.d_output, w2);
    const Tensor dw2 = linearGradient(h2, io.d_output);
    const Tensor dh1 = reluBackward(h1, dh2);
    const Tensor dx = linearBackward(dh1, w1);
    const Tensor dw1 = linearGradient(io.input, dh1);

    // Several partitioned executions over 4 devices.
    const std::vector<std::vector<PartitionSeq>> plans = {
        // Megatron column/row.
        {PartitionSeq({PartitionStep::byDim(0), PartitionStep::byDim(3)}),
         PartitionSeq({PartitionStep::byDim(0), PartitionStep::byDim(2)}),
         PartitionSeq({PartitionStep::byDim(0), PartitionStep::byDim(2)})},
        // Spatial-temporal on both linears.
        {PartitionSeq({PartitionStep::pSquare(1)}),
         PartitionSeq({PartitionStep::byDim(1), PartitionStep::byDim(2)}),
         PartitionSeq({PartitionStep::pSquare(1)})},
    };
    for (const auto &plan : plans) {
        SpmdGraphExecutor exec(g, plan, 2);
        const GraphResult got = exec.run(io);
        EXPECT_TRUE(got.output.allClose(y, 1e-3f, 1e-4f));
        EXPECT_TRUE(got.d_input.allClose(dx, 1e-3f, 1e-4f));
        EXPECT_TRUE(got.d_params.at("fc1.W").allClose(dw1, 1e-3f, 1e-4f));
        EXPECT_TRUE(got.d_params.at("fc2.W").allClose(dw2, 1e-3f, 1e-4f));
    }
}

/** Hand-composed forward pass of the full transformer block. */
Tensor
blockForwardReference(const ModelConfig &cfg, const GraphIO &io)
{
    const std::int64_t b = io.input.dim(0);
    const std::int64_t s = cfg.seqLength;
    const std::int64_t h = cfg.hiddenSize;
    const std::int64_t heads = cfg.numHeads;
    const std::int64_t e = cfg.headEmbed();

    const Tensor beta(Shape{h});
    const Tensor ln1 =
        layerNormForward(io.input, io.params.at("ln1.G"), beta).output;
    const Tensor qkv = linearForward(ln1, io.params.at("qkv.W"));
    auto split = [&](int third) {
        return qkv.narrow(2, third * h, h)
            .reshape({b, s, heads, e})
            .permute({0, 2, 1, 3});
    };
    const Tensor q = split(0), k = split(1), v = split(2);
    const Tensor scores = batchedMatmul(q, k, false, true);
    const Tensor probs = softmaxLastDim(scores);
    const Tensor ctx = batchedMatmul(probs, v);
    const Tensor merged =
        ctx.permute({0, 2, 1, 3}).reshape({b, s, h});
    const Tensor attn =
        linearForward(merged, io.params.at("out_proj.W"));
    const Tensor res1 = addTensors(attn, io.input);
    const Tensor ln2 =
        layerNormForward(res1, io.params.at("ln2.G"), beta).output;
    const Tensor f1 = linearForward(ln2, io.params.at("fc1.W"));
    const Tensor act = gelu(f1);
    const Tensor f2 = linearForward(act, io.params.at("fc2.W"));
    return addTensors(f2, res1);
}

struct BlockFixture
{
    BlockFixture() : cfg(tinyModel()), graph(buildTransformerBlock(cfg, 2))
    {
        Rng rng(47);
        io.input = Tensor::random(Shape{2, cfg.seqLength, cfg.hiddenSize},
                                  rng);
        io.params = randomBlockParams(graph, rng);
        io.d_output = Tensor::random(
            Shape{2, cfg.seqLength, cfg.hiddenSize}, rng);
    }

    SpmdGraphExecutor
    makeExec(const std::vector<PartitionSeq> &plan, int bits)
    {
        SpmdGraphExecutor exec(graph, plan, bits);
        installTransformerBlockTransforms(exec, cfg);
        return exec;
    }

    ModelConfig cfg;
    CompGraph graph;
    GraphIO io;
};

TEST(GraphExecutor, FullBlockForwardMatchesHandReference)
{
    BlockFixture f;
    // Single emulated device: checks the graph wiring itself.
    std::vector<PartitionSeq> trivial(f.graph.numNodes());
    SpmdGraphExecutor exec = f.makeExec(trivial, 0);
    const GraphResult got = exec.run(f.io);
    const Tensor expect = blockForwardReference(f.cfg, f.io);
    EXPECT_TRUE(got.output.allClose(expect, 1e-3f, 1e-4f))
        << "max diff " << got.output.maxAbsDiff(expect);
}

TEST(GraphExecutor, FullBlockPartitionedMatchesSingleDevice)
{
    BlockFixture f;

    // Reference: single device through the same machinery.
    std::vector<PartitionSeq> trivial(f.graph.numNodes());
    SpmdGraphExecutor ref_exec = f.makeExec(trivial, 0);
    const GraphResult ref = ref_exec.run(f.io);

    // Megatron (d=2, m=2) over 4 devices.
    const auto megatron = megatronStrategies(f.graph, {2, 2});
    ASSERT_TRUE(megatron.has_value());
    SpmdGraphExecutor exec = f.makeExec(*megatron, 2);
    const GraphResult got = exec.run(f.io);

    EXPECT_TRUE(got.output.allClose(ref.output, 1e-3f, 1e-4f))
        << "max diff " << got.output.maxAbsDiff(ref.output);
    EXPECT_TRUE(got.d_input.allClose(ref.d_input, 1e-3f, 1e-4f))
        << "max diff " << got.d_input.maxAbsDiff(ref.d_input);
    for (const auto &[name, grad] : ref.d_params) {
        ASSERT_TRUE(got.d_params.count(name)) << name;
        EXPECT_TRUE(got.d_params.at(name).allClose(grad, 1e-3f, 1e-4f))
            << name << " max diff "
            << got.d_params.at(name).maxAbsDiff(grad);
    }
}

TEST(GraphExecutor, FullBlockWithPSquareLinears)
{
    BlockFixture f;
    std::vector<PartitionSeq> trivial(f.graph.numNodes());
    SpmdGraphExecutor ref_exec = f.makeExec(trivial, 0);
    const GraphResult ref = ref_exec.run(f.io);

    // PrimePar-style plan: PSquare on every linear, B/M elsewhere.
    const TransformerBlockIndex idx;
    std::vector<PartitionSeq> plan(f.graph.numNodes());
    for (int n = 0; n < f.graph.numNodes(); ++n) {
        const OpSpec &op = f.graph.node(n);
        if (op.psquare.has_value()) {
            plan[n] = PartitionSeq({PartitionStep::pSquare(1)});
        } else if (op.kind == "matmul" || op.kind == "softmax") {
            plan[n] = PartitionSeq({PartitionStep::byDim(0),
                                    PartitionStep::byDim(
                                        op.dimIndex("Hd"))});
        } else {
            plan[n] = PartitionSeq({PartitionStep::byDim(0),
                                    PartitionStep::byDim(
                                        op.dimIndex("M"))});
        }
    }
    (void)idx;

    SpmdGraphExecutor exec = f.makeExec(plan, 2);
    const GraphResult got = exec.run(f.io);
    EXPECT_TRUE(got.output.allClose(ref.output, 1e-3f, 1e-4f))
        << "max diff " << got.output.maxAbsDiff(ref.output);
    EXPECT_TRUE(got.d_input.allClose(ref.d_input, 1e-3f, 1e-4f));
    for (const auto &[name, grad] : ref.d_params) {
        EXPECT_TRUE(got.d_params.at(name).allClose(grad, 1e-3f, 1e-4f))
            << name;
    }
    // The four linears used the temporal primitive: ring traffic
    // exists; all-reduces only where spatial contractions remain.
    EXPECT_GT(exec.stats().ringElements, 0);
}

TEST(GraphExecutor, BitIdenticalAcrossThreadCounts)
{
    // Per-device sub-operators run through the thread pool, but every
    // device writes only its own slots and reductions keep a fixed
    // order — so the whole GraphResult must be *exactly* equal (not
    // allClose) at any thread count, including hardware concurrency.
    BlockFixture f;
    const auto plan = megatronStrategies(f.graph, {2, 2});
    ASSERT_TRUE(plan.has_value());

    GraphResult ref;
    {
        SpmdGraphExecutor serial(f.graph, *plan, 2, 1);
        installTransformerBlockTransforms(serial, f.cfg);
        ref = serial.run(f.io);
    }
    for (const int threads : {2, 0}) {
        SpmdGraphExecutor exec(f.graph, *plan, 2, threads);
        installTransformerBlockTransforms(exec, f.cfg);
        const GraphResult got = exec.run(f.io);
        EXPECT_EQ(got.output.maxAbsDiff(ref.output), 0.0f)
            << "threads=" << threads;
        EXPECT_EQ(got.d_input.maxAbsDiff(ref.d_input), 0.0f)
            << "threads=" << threads;
        ASSERT_EQ(got.d_params.size(), ref.d_params.size());
        for (const auto &[name, grad] : ref.d_params) {
            EXPECT_EQ(got.d_params.at(name).maxAbsDiff(grad), 0.0f)
                << name << " threads=" << threads;
        }
    }
}

TEST(GraphExecutor, ResidualGradientsAccumulate)
{
    // d_input must include both the ln1 path and the residual path;
    // zeroing the residual edge's gradient contribution would break
    // equality with the reference, which this asserts indirectly by
    // comparing two strategies' d_input against each other.
    BlockFixture f;
    // Pure data parallelism (B split once, M once) ...
    std::vector<PartitionSeq> plan_a;
    for (int n = 0; n < f.graph.numNodes(); ++n) {
        const OpSpec &op = f.graph.node(n);
        plan_a.push_back(
            PartitionSeq({PartitionStep::byDim(op.dimIndex("B")),
                          PartitionStep::byDim(op.dimIndex("M"))}));
    }
    SpmdGraphExecutor a = f.makeExec(plan_a, 2);
    const GraphResult ra = a.run(f.io);

    // ... versus Megatron tensor parallelism.
    const auto dp = megatronStrategies(f.graph, {2, 2});
    ASSERT_TRUE(dp.has_value());
    SpmdGraphExecutor bexec = f.makeExec(*dp, 2);
    const GraphResult rb = bexec.run(f.io);

    EXPECT_TRUE(ra.d_input.allClose(rb.d_input, 1e-3f, 1e-4f));
    EXPECT_TRUE(ra.output.allClose(rb.output, 1e-3f, 1e-4f));
}

} // namespace
} // namespace primepar
