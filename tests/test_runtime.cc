/**
 * @file
 * Functional equivalence tests: partitioned SPMD execution must match
 * single-device training exactly for every sequence in the space —
 * the operational proof of the paper's Sec. 3.3 claims.
 */

#include <gtest/gtest.h>

#include "partition/space.hh"
#include "runtime/errors.hh"
#include "runtime/spmd_executor.hh"
#include "runtime/transport.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "tensor/buffer_pool.hh"
#include "tensor/ops.hh"

namespace primepar {
namespace {

std::map<std::string, Tensor>
linearInputs(const OpSpec &op, std::uint64_t seed)
{
    Rng rng(seed);
    std::map<std::string, Tensor> inputs;
    inputs["I"] = Tensor::random(
        Shape{op.dims[0].size, op.dims[1].size, op.dims[2].size}, rng);
    inputs["W"] = Tensor::random(
        Shape{op.dims[2].size, op.dims[3].size}, rng);
    inputs["dO"] = Tensor::random(
        Shape{op.dims[0].size, op.dims[1].size, op.dims[3].size}, rng);
    return inputs;
}

void
expectResultsMatch(const TrainStepResult &got, const TrainStepResult &ref,
                   const std::string &context)
{
    EXPECT_TRUE(got.output.allClose(ref.output, 1e-3f, 1e-4f))
        << context << ": forward output mismatch, max diff "
        << got.output.maxAbsDiff(ref.output);
    EXPECT_TRUE(got.d_input.allClose(ref.d_input, 1e-3f, 1e-4f))
        << context << ": dI mismatch, max diff "
        << got.d_input.maxAbsDiff(ref.d_input);
    if (ref.d_weight.numel() > 0) {
        EXPECT_TRUE(got.d_weight.allClose(ref.d_weight, 1e-3f, 1e-4f))
            << context << ": dW mismatch, max diff "
            << got.d_weight.maxAbsDiff(ref.d_weight);
    }
}

TEST(SpmdExecutor, ReferenceMatchesHandwrittenKernels)
{
    const OpSpec op = makeLinearOp("fc", 2, 4, 6, 8);
    const auto inputs = linearInputs(op, 1);
    const auto ref = referenceTrainStep(op, inputs);

    const Tensor o = linearForward(inputs.at("I"), inputs.at("W"));
    const Tensor di = linearBackward(inputs.at("dO"), inputs.at("W"));
    const Tensor dw = linearGradient(inputs.at("I"), inputs.at("dO"));
    EXPECT_TRUE(ref.output.allClose(o));
    EXPECT_TRUE(ref.d_input.allClose(di));
    EXPECT_TRUE(ref.d_weight.allClose(dw));
}

class LinearSpaceEquivalence : public ::testing::TestWithParam<int>
{};

TEST_P(LinearSpaceEquivalence, EverySequenceMatchesReference)
{
    const int num_bits = GetParam();
    const OpSpec op = makeLinearOp("fc", 4, 8, 8, 8);
    const auto inputs = linearInputs(op, 42);
    const auto ref = referenceTrainStep(op, inputs);

    for (const auto &seq : enumerateSequences(op, num_bits)) {
        SpmdOpExecutor exec(op, seq, num_bits);
        const auto got = exec.run(inputs);
        expectResultsMatch(got, ref, seq.toString(op));
    }
}

INSTANTIATE_TEST_SUITE_P(Bits, LinearSpaceEquivalence,
                         ::testing::Values(1, 2, 3, 4));

TEST(SpmdExecutor, PSquareK2On16Devices)
{
    const OpSpec op = makeLinearOp("fc", 2, 8, 8, 8);
    const auto inputs = linearInputs(op, 7);
    const auto ref = referenceTrainStep(op, inputs);

    PartitionSeq seq({PartitionStep::pSquare(2)});
    SpmdOpExecutor exec(op, seq, 4);
    const auto got = exec.run(inputs);
    expectResultsMatch(got, ref, "P4x4");

    // Feature 1 at runtime: not a single all-reduce was needed.
    EXPECT_EQ(exec.stats().allReduceCount, 0);
    EXPECT_EQ(exec.stats().allReduceElements, 0);
    EXPECT_GT(exec.stats().ringElements, 0);
}

TEST(SpmdExecutor, MegatronRowParallelNeedsAllReduce)
{
    const OpSpec op = makeLinearOp("fc", 4, 8, 8, 8);
    const auto inputs = linearInputs(op, 9);
    PartitionSeq seq({PartitionStep::byDim(2), PartitionStep::byDim(2)});
    SpmdOpExecutor exec(op, seq, 2);
    const auto got = exec.run(inputs);
    expectResultsMatch(got, referenceTrainStep(op, inputs), "N,N");
    EXPECT_GT(exec.stats().allReduceElements, 0);
    EXPECT_EQ(exec.stats().ringElements, 0);
}

TEST(SpmdExecutor, SgdUpdateIsLocalAndCorrect)
{
    const OpSpec op = makeLinearOp("fc", 4, 8, 8, 8);
    const auto inputs = linearInputs(op, 11);
    const auto ref = referenceTrainStep(op, inputs);

    for (const auto &seq : enumerateSequences(op, 3)) {
        SpmdOpExecutor exec(op, seq, 3);
        exec.run(inputs);
        const Tensor updated = exec.sgdUpdateAndGather(0.1);
        Tensor expect = inputs.at("W");
        Tensor delta = ref.d_weight;
        delta.scale(-0.1f);
        expect.add(delta);
        EXPECT_TRUE(updated.allClose(expect, 1e-3f, 1e-4f))
            << seq.toString(op);
    }
}

TEST(SpmdExecutor, BatchedMatmulByDimPartitions)
{
    // Attention-score-like matmul over 4 devices, head partitioned.
    const OpSpec op = makeBatchedMatmulOp(
        "qk", {"B", "Hd", "M", "M2", "E"}, {2, 4, 4, 4, 8},
        {0, 1, 2, 4}, {0, 1, 3, 4}, {0, 1, 2, 3}, 4);

    Rng rng(13);
    std::map<std::string, Tensor> inputs;
    inputs["A"] = Tensor::random(Shape{2, 4, 4, 8}, rng);
    inputs["Bm"] = Tensor::random(Shape{2, 4, 4, 8}, rng);
    inputs["dO"] = Tensor::random(Shape{2, 4, 4, 4}, rng);
    const auto ref = referenceTrainStep(op, inputs);

    for (const auto &seq : enumerateSequences(op, 2)) {
        SpmdOpExecutor exec(op, seq, 2);
        const auto got = exec.run(inputs);
        EXPECT_TRUE(got.output.allClose(ref.output, 1e-3f, 1e-4f))
            << seq.toString(op);
        EXPECT_TRUE(got.d_input.allClose(ref.d_input, 1e-3f, 1e-4f))
            << seq.toString(op);
    }
}

TEST(SpmdExecutor, MatmulContractedPartitionAllReduces)
{
    // Partitioning M2 (contracted in forward for the context matmul
    // A x V) must still give exact results via all-reduce.
    const OpSpec op = makeBatchedMatmulOp(
        "av", {"B", "Hd", "M", "M2", "E"}, {2, 2, 4, 8, 4},
        {0, 1, 2, 3}, {0, 1, 3, 4}, {0, 1, 2, 4}, 4);
    Rng rng(17);
    std::map<std::string, Tensor> inputs;
    inputs["A"] = Tensor::random(Shape{2, 2, 4, 8}, rng);
    inputs["Bm"] = Tensor::random(Shape{2, 2, 8, 4}, rng);
    inputs["dO"] = Tensor::random(Shape{2, 2, 4, 4}, rng);
    const auto ref = referenceTrainStep(op, inputs);

    PartitionSeq seq({PartitionStep::byDim(3)}); // M2
    SpmdOpExecutor exec(op, seq, 1);
    const auto got = exec.run(inputs);
    EXPECT_TRUE(got.output.allClose(ref.output, 1e-3f, 1e-4f));
    EXPECT_GT(exec.stats().allReduceElements, 0);
}

TEST(SpmdExecutor, SoftmaxPartitionedRows)
{
    const OpSpec op = makeSoftmaxOp("sm", {"B", "M", "S"}, {4, 8, 8});
    Rng rng(19);
    std::map<std::string, Tensor> inputs;
    inputs["I"] = Tensor::random(Shape{4, 8, 8}, rng);
    inputs["dO"] = Tensor::random(Shape{4, 8, 8}, rng);
    const auto ref = referenceTrainStep(op, inputs);

    for (const auto &seq : enumerateSequences(op, 2)) {
        SpmdOpExecutor exec(op, seq, 2);
        const auto got = exec.run(inputs);
        EXPECT_TRUE(got.output.allClose(ref.output, 1e-3f, 1e-4f))
            << seq.toString(op);
        EXPECT_TRUE(got.d_input.allClose(ref.d_input, 1e-3f, 1e-4f))
            << seq.toString(op);
        EXPECT_EQ(exec.stats().allReduceElements, 0);
    }
}

TEST(SpmdExecutor, GeluPartitioned)
{
    const OpSpec op =
        makeElementwiseOp("gelu", {"B", "M", "F"}, {4, 8, 8});
    Rng rng(23);
    std::map<std::string, Tensor> inputs;
    inputs["I"] = Tensor::random(Shape{4, 8, 8}, rng);
    inputs["dO"] = Tensor::random(Shape{4, 8, 8}, rng);
    const auto ref = referenceTrainStep(op, inputs);

    for (const auto &seq : enumerateSequences(op, 3)) {
        SpmdOpExecutor exec(op, seq, 3);
        const auto got = exec.run(inputs);
        EXPECT_TRUE(got.output.allClose(ref.output, 1e-3f, 1e-4f))
            << seq.toString(op);
        EXPECT_TRUE(got.d_input.allClose(ref.d_input, 1e-3f, 1e-4f))
            << seq.toString(op);
    }
}

TEST(SpmdExecutor, ResidualAddPartitioned)
{
    const OpSpec op = makeAddOp("res", {"B", "M", "H"}, {4, 8, 8});
    Rng rng(29);
    std::map<std::string, Tensor> inputs;
    inputs["A"] = Tensor::random(Shape{4, 8, 8}, rng);
    inputs["Bt"] = Tensor::random(Shape{4, 8, 8}, rng);
    inputs["dO"] = Tensor::random(Shape{4, 8, 8}, rng);
    const auto ref = referenceTrainStep(op, inputs);

    for (const auto &seq : enumerateSequences(op, 2)) {
        SpmdOpExecutor exec(op, seq, 2);
        const auto got = exec.run(inputs);
        EXPECT_TRUE(got.output.allClose(ref.output, 1e-4f, 1e-5f))
            << seq.toString(op);
        EXPECT_TRUE(got.d_input.allClose(ref.d_input, 1e-4f, 1e-5f))
            << seq.toString(op);
    }
}

TEST(SpmdExecutor, ChainedMlpTrainingMatchesReference)
{
    // End-to-end chain fc1 -> gelu -> fc2: forward activations and
    // backward gradients thread through three partitioned executors
    // with different strategies, and the whole chain must match the
    // single-device reference including the gelu nonlinearity.
    const OpSpec fc1 = makeLinearOp("fc1", 2, 4, 8, 16);
    const OpSpec act = makeElementwiseOp("gelu", {"B", "M", "F"},
                                         {2, 4, 16});
    const OpSpec fc2 = makeLinearOp("fc2", 2, 4, 16, 8);

    Rng rng(77);
    const Tensor x = Tensor::random(Shape{2, 4, 8}, rng);
    const Tensor w1 = Tensor::random(Shape{8, 16}, rng);
    const Tensor w2 = Tensor::random(Shape{16, 8}, rng);
    const Tensor dy = Tensor::random(Shape{2, 4, 8}, rng);

    // Reference chain.
    const Tensor h1 = linearForward(x, w1);
    const Tensor h2 = gelu(h1);
    const Tensor y = linearForward(h2, w2);
    const Tensor dh2 = linearBackward(dy, w2);
    const Tensor dw2 = linearGradient(h2, dy);
    const Tensor dh1 = geluBackward(h1, dh2);
    const Tensor dx = linearBackward(dh1, w1);
    const Tensor dw1 = linearGradient(x, dh1);

    // Partitioned chain over 4 devices, mixed strategies.
    const int bits = 2;
    SpmdOpExecutor e1(fc1, PartitionSeq({PartitionStep::pSquare(1)}),
                      bits);
    SpmdOpExecutor e2(act,
                      PartitionSeq({PartitionStep::byDim(0),
                                    PartitionStep::byDim(2)}),
                      bits);
    SpmdOpExecutor e3(fc2,
                      PartitionSeq({PartitionStep::byDim(2),
                                    PartitionStep::byDim(3)}),
                      bits);

    // Forward sweep (upstream gradients filled in on the backward
    // sweep; zero placeholders keep the forward outputs exact).
    std::map<std::string, Tensor> in1{
        {"I", x}, {"W", w1}, {"dO", Tensor(Shape{2, 4, 16})}};
    const Tensor h1_p = e1.run(in1).output;
    ASSERT_TRUE(h1_p.allClose(h1, 1e-4f, 1e-5f));

    std::map<std::string, Tensor> in2{
        {"I", h1_p}, {"dO", Tensor(Shape{2, 4, 16})}};
    const Tensor h2_p = e2.run(in2).output;
    ASSERT_TRUE(h2_p.allClose(h2, 1e-4f, 1e-5f));

    // fc2 sees the real upstream gradient; its dI feeds gelu, whose
    // dI feeds fc1.
    std::map<std::string, Tensor> in3{
        {"I", h2_p}, {"W", w2}, {"dO", dy}};
    const auto r3 = e3.run(in3);
    ASSERT_TRUE(r3.output.allClose(y, 1e-3f, 1e-4f));
    ASSERT_TRUE(r3.d_weight.allClose(dw2, 1e-3f, 1e-4f));
    ASSERT_TRUE(r3.d_input.allClose(dh2, 1e-3f, 1e-4f));

    in2["dO"] = r3.d_input;
    const auto r2 = e2.run(in2);
    ASSERT_TRUE(r2.d_input.allClose(dh1, 1e-3f, 1e-4f));

    in1["dO"] = r2.d_input;
    const auto r1 = e1.run(in1);
    EXPECT_TRUE(r1.d_input.allClose(dx, 1e-3f, 1e-4f));
    EXPECT_TRUE(r1.d_weight.allClose(dw1, 1e-3f, 1e-4f));
}

TEST(SpmdExecutor, EmbeddingVocabAndTemporalPartitions)
{
    // Embedding as one-hot contraction: vocab-parallel (Megatron) and
    // spatial-temporal partitions must reproduce the lookup and the
    // scatter-add table gradient exactly.
    const OpSpec op = makeEmbeddingOp("embed", 2, 4, 16, 8);
    Rng rng(41);
    Tensor onehot(Shape{2, 4, 16});
    for (std::int64_t b = 0; b < 2; ++b)
        for (std::int64_t m = 0; m < 4; ++m)
            onehot.at({b, m,
                       static_cast<std::int64_t>(rng.below(16))}) = 1.0f;
    std::map<std::string, Tensor> inputs;
    inputs["I"] = onehot;
    inputs["W"] = Tensor::random(Shape{16, 8}, rng);
    inputs["dO"] = Tensor::random(Shape{2, 4, 8}, rng);
    const auto ref = referenceTrainStep(op, inputs);

    for (const auto &seq : enumerateSequences(op, 2)) {
        SpmdOpExecutor exec(op, seq, 2);
        const auto got = exec.run(inputs);
        EXPECT_TRUE(got.output.allClose(ref.output, 1e-4f, 1e-5f))
            << seq.toString(op);
        EXPECT_TRUE(got.d_weight.allClose(ref.d_weight, 1e-4f, 1e-5f))
            << seq.toString(op);
    }

    // Vocab-parallel specifically: forward all-reduce, as Megatron's
    // VocabParallelEmbedding issues.
    PartitionSeq vocab_par(
        {PartitionStep::byDim(2), PartitionStep::byDim(2)});
    DsiTable dsi(op, vocab_par, 2);
    EXPECT_TRUE(derivePassComm(op, vocab_par, dsi, 0)
                    .allReduce.has_value());
}

TEST(SpmdExecutorErrors, MissingInputThrowsStructuredError)
{
    const OpSpec op = makeLinearOp("fc", 2, 4, 4, 4);
    SpmdOpExecutor exec(op, PartitionSeq({PartitionStep::byDim(0)}), 1);
    std::map<std::string, Tensor> inputs; // empty
    try {
        exec.run(inputs);
        FAIL() << "expected InputError";
    } catch (const InputError &err) {
        EXPECT_EQ(err.op, "fc");
        EXPECT_EQ(err.tensor, "I");
        EXPECT_TRUE(err.actualShape.empty());
        EXPECT_EQ(err.expectedShape, (std::vector<std::int64_t>{2, 4, 4}));
        EXPECT_NE(std::string(err.what()).find("missing input tensor"),
                  std::string::npos);
    }
}

TEST(SpmdExecutorErrors, ShapeMismatchThrowsStructuredError)
{
    const OpSpec op = makeLinearOp("fc", 2, 4, 4, 4);
    SpmdOpExecutor exec(op, PartitionSeq({PartitionStep::byDim(0)}), 1);
    std::map<std::string, Tensor> inputs;
    inputs["I"] = Tensor(Shape{2, 4, 8}); // wrong hidden size
    inputs["W"] = Tensor(Shape{4, 4});
    inputs["dO"] = Tensor(Shape{2, 4, 4});
    try {
        exec.run(inputs);
        FAIL() << "expected InputError";
    } catch (const InputError &err) {
        EXPECT_EQ(err.tensor, "I");
        EXPECT_EQ(err.actualShape, (std::vector<std::int64_t>{2, 4, 8}));
        EXPECT_EQ(err.expectedShape, (std::vector<std::int64_t>{2, 4, 4}));
    }
}

TEST(SpmdExecutorDeath, SgdBeforeRunPanics)
{
    const OpSpec op = makeLinearOp("fc", 2, 4, 4, 4);
    SpmdOpExecutor exec(op, PartitionSeq({PartitionStep::byDim(0)}), 1);
    EXPECT_DEATH(exec.sgdUpdateAndGather(0.1), "run\\(\\) must precede");
}

TEST(SpmdExecutorDeath, InvalidSequencePanics)
{
    const OpSpec op = makeSoftmaxOp("sm", {"B", "S"}, {4, 8});
    EXPECT_DEATH(
        SpmdOpExecutor(op, PartitionSeq({PartitionStep::pSquare(1)}), 2),
        "PSquare on incompatible operator");
}

TEST(SpmdExecutor, RingTrafficScalesWithTemporalSteps)
{
    // Larger k moves more, smaller slices more often; with fixed
    // device count the ring totals are exactly predictable.
    const OpSpec op = makeLinearOp("fc", 2, 16, 16, 16);
    const auto inputs = linearInputs(op, 31);

    PartitionSeq p2({PartitionStep::pSquare(1)});
    SpmdOpExecutor e2(op, p2, 2);
    e2.run(inputs);
    PartitionSeq p4({PartitionStep::pSquare(2)});
    SpmdOpExecutor e4(op, p4, 4);
    e4.run(inputs);

    EXPECT_GT(e2.stats().ringElements, 0);
    EXPECT_GT(e4.stats().ringElements, 0);
    // No all-reduce either way.
    EXPECT_EQ(e2.stats().allReduceElements, 0);
    EXPECT_EQ(e4.stats().allReduceElements, 0);
}

TEST(SpmdExecutor, AsyncOverlapIsBitIdenticalToSync)
{
    // The double-buffered pipeline (ring shifts for step t+1 posted
    // while step t computes) must not perturb a single bit relative
    // to the strictly step-synchronous path — with and without a
    // transport, serial and threaded.
    const OpSpec op = makeLinearOp("fc", 2, 8, 8, 8);
    const auto inputs = linearInputs(op, 91);
    const PartitionSeq seq({PartitionStep::pSquare(2)}); // ring-heavy

    for (const bool use_transport : {false, true}) {
        for (const int threads : {1, 2}) {
            ThreadPool pool(2);
            InProcessTransport transport({}, nullptr, nullptr);

            Transport *via = use_transport ? &transport : nullptr;
            SpmdOpExecutor sync_exec(op, seq, 4, via,
                                     /*overlap_comm=*/false);
            SpmdOpExecutor async_exec(op, seq, 4, via);
            if (threads > 1) {
                sync_exec.setThreadPool(&pool);
                async_exec.setThreadPool(&pool);
            }
            const auto want = sync_exec.run(inputs);
            const auto got = async_exec.run(inputs);

            const std::string ctx =
                std::string("transport=") +
                (use_transport ? "yes" : "no") +
                " threads=" + std::to_string(threads);
            EXPECT_EQ(got.output.maxAbsDiff(want.output), 0.0f) << ctx;
            EXPECT_EQ(got.d_input.maxAbsDiff(want.d_input), 0.0f)
                << ctx;
            EXPECT_EQ(got.d_weight.maxAbsDiff(want.d_weight), 0.0f)
                << ctx;
            // Same logical traffic either way.
            EXPECT_EQ(async_exec.stats().ringElements,
                      sync_exec.stats().ringElements)
                << ctx;
        }
    }
}

TEST(BufferPool, InFlightGenerationsNeverAlias)
{
    // The async executor holds two generations live at once: step t's
    // committed tensors and step t+1's staged receives. Same-size
    // acquires while both are outstanding must be distinct storage.
    BufferPool pool;
    const std::int64_t n = 256;
    float *a = pool.acquire(n);
    float *b = pool.acquire(n);
    ASSERT_NE(a, b);
    for (std::int64_t i = 0; i < n; ++i) {
        a[i] = 1.0f;
        b[i] = 2.0f;
    }
    for (std::int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(a[i], 1.0f);
        EXPECT_EQ(b[i], 2.0f);
    }
    pool.release(a, n);
    pool.release(b, n);
    // Recycled, the two generations still never share storage.
    float *c = pool.acquire(n);
    float *d = pool.acquire(n);
    EXPECT_NE(c, d);
    EXPECT_TRUE((c == a || c == b) && (d == a || d == b));
    pool.release(c, n);
    pool.release(d, n);
}

TEST(BufferPool, RecycledBuffersAreFullyOverwrittenByDecode)
{
    // A receive lands in a recycled pool buffer; the transport's
    // delivery writes every element, so stale contents of the
    // previous generation can never leak through.
    const std::int64_t n = 300; // straddles a block boundary
    Rng rng(92);
    const Tensor src = Tensor::random(Shape{n}, rng);
    const float *stale = nullptr;
    {
        Tensor previous = Tensor::uninitialized(Shape{n});
        for (std::int64_t i = 0; i < n; ++i)
            previous.data()[i] = -404.0f; // stale contents
        stale = previous.data();
    } // released to the global pool
    Tensor dst = Tensor::uninitialized(Shape{n});
    ASSERT_EQ(dst.data(), stale); // exact-size free list recycles it

    TransferTag tag;
    tag.tensor = "X";
    tag.channel = "ring";
    tag.sender = 0;
    tag.receiver = 1;
    InProcessTransport().transferInto(tag, src, dst);
    ASSERT_EQ(dst.data(), stale); // delivered in place
    for (std::int64_t i = 0; i < n; ++i)
        EXPECT_EQ(dst.data()[i], src.data()[i]) << "i=" << i;
}

} // namespace
} // namespace primepar
