/**
 * @file
 * Exactness of the blocked tensor kernels and the buffer pool.
 *
 * The blocked/SIMD GEMM promises *bit-identical* results to the naive
 * seed loops (gemm.hh's determinism contract) — not allClose, exact
 * float equality, across odd sizes that exercise every micro-kernel
 * edge case, on every SIMD tier the host supports. Also covers NaN/Inf
 * propagation (the seed's `v == 0` shortcut silently dropped them), the
 * einsum GEMM fast path against the odometer (operand swap included),
 * that every executor contraction takes that fast path,
 * slice/assignSlice fast paths, and BufferPool reuse.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <limits>
#include <string>

#include "graph/transformer.hh"
#include "tensor/einsum.hh"
#include "tensor/gemm.hh"
#include "tensor/ops.hh"

namespace primepar {
namespace {

// Sizes straddling the micro-kernel tile boundaries (rows 4/6/8,
// columns 8/16/32, KC=256): exact multiples, off-by-one edges, tiny and
// tall/skinny.
struct Dims
{
    std::int64_t m, n, k;
};
const Dims kGemmSizes[] = {
    {1, 1, 1},   {3, 5, 7},    {4, 8, 16},  {5, 9, 17},
    {8, 24, 33}, {13, 7, 300}, {32, 8, 257}, {17, 31, 64},
};

TEST(BlockedKernels, LinearForwardBitIdenticalToNaive)
{
    Rng rng(11);
    for (const Dims &d : kGemmSizes) {
        const Tensor in = Tensor::random({d.m, d.k}, rng);
        const Tensor w = Tensor::random({d.k, d.n}, rng);
        const Tensor blocked = linearForward(in, w);
        const Tensor ref = naive::linearForward(in, w);
        EXPECT_EQ(blocked.maxAbsDiff(ref), 0.0f)
            << d.m << "x" << d.n << "x" << d.k;
    }
    // Batched (rank-3) input path.
    const Tensor in = Tensor::random({3, 5, 19}, rng);
    const Tensor w = Tensor::random({19, 11}, rng);
    EXPECT_EQ(linearForward(in, w).maxAbsDiff(naive::linearForward(in, w)),
              0.0f);
}

TEST(BlockedKernels, LinearBackwardBitIdenticalToNaive)
{
    Rng rng(12);
    for (const Dims &d : kGemmSizes) {
        const Tensor go = Tensor::random({d.m, d.k}, rng);
        const Tensor w = Tensor::random({d.n, d.k}, rng);
        const Tensor blocked = linearBackward(go, w);
        const Tensor ref = naive::linearBackward(go, w);
        EXPECT_EQ(blocked.maxAbsDiff(ref), 0.0f)
            << d.m << "x" << d.n << "x" << d.k;
    }
}

TEST(BlockedKernels, LinearGradientBitIdenticalToNaive)
{
    Rng rng(13);
    for (const Dims &d : kGemmSizes) {
        const Tensor in = Tensor::random({d.m, d.n}, rng);
        const Tensor go = Tensor::random({d.m, d.k}, rng);
        const Tensor blocked = linearGradient(in, go);
        const Tensor ref = naive::linearGradient(in, go);
        EXPECT_EQ(blocked.maxAbsDiff(ref), 0.0f)
            << d.m << "x" << d.n << "x" << d.k;
    }
}

TEST(BlockedKernels, BatchedMatmulBitIdenticalAllTransCombos)
{
    Rng rng(14);
    for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
            // a is (m x k) or transposed, b is (k x n) or transposed.
            const std::int64_t m = 9, n = 13, k = 21;
            const Tensor a = ta ? Tensor::random({2, 3, k, m}, rng)
                                : Tensor::random({2, 3, m, k}, rng);
            const Tensor b = tb ? Tensor::random({2, 3, n, k}, rng)
                                : Tensor::random({2, 3, k, n}, rng);
            const Tensor blocked = batchedMatmul(a, b, ta, tb);
            const Tensor ref = naive::batchedMatmul(a, b, ta, tb);
            EXPECT_EQ(blocked.maxAbsDiff(ref), 0.0f)
                << "trans_a=" << ta << " trans_b=" << tb;
        }
    }
}

TEST(BlockedKernels, ZeroTimesNanPropagates)
{
    // The seed GEMMs skipped zero operand values entirely, silently
    // turning 0 * NaN into 0. The blocked kernels must propagate.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();

    Tensor in(Shape{1, 2}); // stays all zero
    Tensor w(Shape{2, 2});
    w.at({0, 0}) = nan;
    w.at({1, 1}) = inf;
    const Tensor out = linearForward(in, w);
    EXPECT_TRUE(std::isnan(out.at({0, 0}))); // 0 * NaN
    EXPECT_TRUE(std::isnan(out.at({0, 1}))); // 0 * inf
    // And the naive references match that behaviour bit-for-bit in
    // kind (NaN == NaN fails, so compare via isnan).
    const Tensor ref = naive::linearForward(in, w);
    EXPECT_TRUE(std::isnan(ref.at({0, 0})));
    EXPECT_TRUE(std::isnan(ref.at({0, 1})));

    Tensor go(Shape{1, 2});
    go.at({0, 0}) = nan;
    const Tensor dw = linearGradient(in, go); // dw = in^T x go, in = 0
    EXPECT_TRUE(std::isnan(dw.at({0, 0})));
    EXPECT_TRUE(std::isnan(dw.at({1, 0})));
}

/** C = A x B on one GEMM tier, from a zeroed C (A m x k or k x m, B
 *  k x n or n x k, as batchedMatmul lays them out). */
Tensor
gemmOnTier(GemmIsa isa, const Tensor &a, const Tensor &b, std::int64_t m,
           std::int64_t n, std::int64_t k, bool ta, bool tb)
{
    Tensor c(Shape{m, n});
    detail::gemmAccumulateOn(isa, a.data(), b.data(), c.data(), m, n, k,
                             ta, tb);
    return c;
}

TEST(BlockedKernels, EveryHostIsaBitIdenticalToNaive)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    Rng rng(17);
    std::string skipped;
    for (const GemmIsa isa :
         {GemmIsa::Sse2, GemmIsa::Avx2, GemmIsa::Avx512f}) {
        const std::string name = gemmIsaName(isa);
        if (!detail::hostSupportsGemmIsa(isa)) {
            skipped += (skipped.empty() ? "" : ",") + name;
            std::cout << "[  SKIPPED ] GEMM tier " << name
                      << ": not supported by this host\n";
            continue;
        }
        for (const std::int64_t m : {1, 7, 8, 9, 13})
            for (const std::int64_t n : {1, 8, 31, 32, 33, 47})
                for (const std::int64_t k : {1, 255, 256, 257})
                    for (const bool ta : {false, true})
                        for (const bool tb : {false, true}) {
                            const Tensor a =
                                ta ? Tensor::random({k, m}, rng)
                                   : Tensor::random({m, k}, rng);
                            const Tensor b =
                                tb ? Tensor::random({n, k}, rng)
                                   : Tensor::random({k, n}, rng);
                            EXPECT_EQ(
                                gemmOnTier(isa, a, b, m, n, k, ta, tb)
                                    .maxAbsDiff(naive::batchedMatmul(
                                        a, b, ta, tb)),
                                0.0f)
                                << name << " " << m << "x" << n << "x"
                                << k << " trans_a=" << ta
                                << " trans_b=" << tb;
                        }

        // 0 * NaN and 0 * inf stay NaN in the wide tiles and the
        // scalar edge alike: an all-zero A against NaN/inf in the
        // first and the last column of B.
        const std::int64_t m = 9, n = 33, k = 3;
        const Tensor a(Shape{m, k});
        Tensor b = Tensor::random({k, n}, rng);
        b.at({1, 0}) = nan;
        b.at({2, n - 1}) = inf;
        const Tensor c = gemmOnTier(isa, a, b, m, n, k, false, false);
        const Tensor ref = naive::batchedMatmul(a, b);
        for (std::int64_t i = 0; i < m; ++i)
            for (const std::int64_t j : {std::int64_t{0}, n - 1}) {
                EXPECT_TRUE(std::isnan(c.at({i, j}))) << name;
                EXPECT_TRUE(std::isnan(ref.at({i, j})));
            }
        EXPECT_EQ(c.at({0, 1}), 0.0f) << name;
    }
    RecordProperty("skipped_tiers", skipped);
}

TEST(Einsum, GemmFastPathBitIdenticalToOdometer)
{
    Rng rng(15);
    // Plain matmul: out[i,j] += a[i,l] * b[l,j].
    {
        const Tensor a = Tensor::random({17, 33}, rng);
        const Tensor b = Tensor::random({33, 9}, rng);
        Tensor fast(Shape{17, 9}), ref(Shape{17, 9});
        contractProduct(a, {0, 1}, b, {1, 2}, fast, {0, 2});
        naive::contract(a, {0, 1}, b, {1, 2}, ref, {0, 2});
        EXPECT_EQ(fast.maxAbsDiff(ref), 0.0f);
    }
    // Attention-score shape: batched with transposed B
    // (scores[b,h,m,m2] += q[b,h,m,d] * kT[b,h,m2,d]).
    {
        const Tensor q = Tensor::random({2, 3, 5, 7}, rng);
        const Tensor k = Tensor::random({2, 3, 11, 7}, rng);
        Tensor fast(Shape{2, 3, 5, 11}), ref(Shape{2, 3, 5, 11});
        contractProduct(q, {0, 1, 2, 3}, k, {0, 1, 4, 3}, fast,
                        {0, 1, 2, 4});
        naive::contract(q, {0, 1, 2, 3}, k, {0, 1, 4, 3}, ref,
                        {0, 1, 2, 4});
        EXPECT_EQ(fast.maxAbsDiff(ref), 0.0f);
    }
    // trans_a flavour (dW[n,k] += in[m,n] * go[m,k]).
    {
        const Tensor in = Tensor::random({13, 6}, rng);
        const Tensor go = Tensor::random({13, 10}, rng);
        Tensor fast(Shape{6, 10}), ref(Shape{6, 10});
        contractProduct(in, {2, 0}, go, {2, 1}, fast, {0, 1});
        naive::contract(in, {2, 0}, go, {2, 1}, ref, {0, 1});
        EXPECT_EQ(fast.maxAbsDiff(ref), 0.0f);
    }
    // Output labels in b-then-a order: the fast path takes it with
    // the operands swapped (out = b x a).
    {
        const Tensor a = Tensor::random({4, 6}, rng);
        const Tensor b = Tensor::random({6, 5}, rng);
        ASSERT_TRUE(contractionRunsAsGemm({0, 1}, {1, 2}, {2, 0}));
        Tensor fast(Shape{5, 4}), ref(Shape{5, 4});
        contractProduct(a, {0, 1}, b, {1, 2}, fast, {2, 0});
        naive::contract(a, {0, 1}, b, {1, 2}, ref, {2, 0});
        EXPECT_EQ(fast.maxAbsDiff(ref), 0.0f);
    }
    // The attention-context dV pass, batched and swapped:
    // dV[b,h,m2,e] += dO[b,h,m,e] * A[b,h,m,m2].
    {
        const Tensor d_o = Tensor::random({2, 3, 19, 9}, rng);
        const Tensor attn = Tensor::random({2, 3, 19, 35}, rng);
        ASSERT_TRUE(contractionRunsAsGemm({0, 1, 2, 4}, {0, 1, 2, 3},
                                          {0, 1, 3, 4}));
        Tensor fast(Shape{2, 3, 35, 9}), ref(Shape{2, 3, 35, 9});
        contractProduct(d_o, {0, 1, 2, 4}, attn, {0, 1, 2, 3}, fast,
                        {0, 1, 3, 4});
        naive::contract(d_o, {0, 1, 2, 4}, attn, {0, 1, 2, 3}, ref,
                        {0, 1, 3, 4});
        EXPECT_EQ(fast.maxAbsDiff(ref), 0.0f);
    }
    // Interleaved output labels (a, b, a) fit neither operand order:
    // the specialized-inner-loop fallback must still match.
    {
        const Tensor a = Tensor::random({4, 6, 3}, rng);
        const Tensor b = Tensor::random({6, 5}, rng);
        ASSERT_FALSE(contractionRunsAsGemm({0, 1, 3}, {1, 2}, {0, 2, 3}));
        Tensor fast(Shape{4, 5, 3}), ref(Shape{4, 5, 3});
        contractProduct(a, {0, 1, 3}, b, {1, 2}, fast, {0, 2, 3});
        naive::contract(a, {0, 1, 3}, b, {1, 2}, ref, {0, 2, 3});
        EXPECT_EQ(fast.maxAbsDiff(ref), 0.0f);
    }
    // Outer product (no contracted label) also falls back.
    {
        const Tensor a = Tensor::random({3}, rng);
        const Tensor b = Tensor::random({4}, rng);
        ASSERT_FALSE(contractionRunsAsGemm({0}, {1}, {0, 1}));
        Tensor fast(Shape{3, 4}), ref(Shape{3, 4});
        contractProduct(a, {0}, b, {1}, fast, {0, 1});
        naive::contract(a, {0}, b, {1}, ref, {0, 1});
        EXPECT_EQ(fast.maxAbsDiff(ref), 0.0f);
    }
}

TEST(Einsum, EveryExecutorContractionRunsAsGemm)
{
    // The SPMD executor hands each linear/matmul pass to
    // contractProduct with the op's tensor labels; every one of them
    // must take the blocked GEMM, not the scalar odometer.
    ModelConfig cfg;
    cfg.name = "coverage";
    cfg.hiddenSize = 64;
    cfg.numHeads = 4;
    cfg.ffnSize = 128;
    cfg.seqLength = 16;
    cfg.numLayers = 1;
    int passes = 0;
    for (const CompGraph &graph :
         {buildTransformerBlock(cfg, 2), buildMlpBlock(cfg, 2)}) {
        for (int node = 0; node < graph.numNodes(); ++node) {
            const OpSpec &op = graph.node(node);
            if (op.kind != "linear" && op.kind != "matmul")
                continue;
            for (const PassSpec &pass : op.passes) {
                ASSERT_EQ(pass.operands.size(), 2u);
                EXPECT_TRUE(contractionRunsAsGemm(
                    op.tensors[pass.operands[0].tensor].dims,
                    op.tensors[pass.operands[1].tensor].dims,
                    op.tensors[pass.output.tensor].dims))
                    << op.name << " " << op.refName(pass.output);
                ++passes;
            }
        }
    }
    // 6 contraction ops x 3 passes in the block, 2 x 3 in the MLP.
    EXPECT_EQ(passes, 24);
}

TEST(TensorSlice, FastPathsMatchElementwiseSemantics)
{
    Rng rng(16);
    const Tensor t = Tensor::random({4, 6, 8}, rng);

    // Whole-tensor slice: single memcpy path.
    const Tensor whole = t.slice({0, 0, 0}, {4, 6, 8});
    EXPECT_EQ(whole.maxAbsDiff(t), 0.0f);

    // Innermost dims complete: rows collapse into one run per outer
    // index. Verify against at() indexing.
    const Tensor mid = t.slice({1, 0, 0}, {2, 6, 8});
    for (std::int64_t i = 0; i < 2; ++i)
        for (std::int64_t j = 0; j < 6; ++j)
            for (std::int64_t l = 0; l < 8; ++l)
                EXPECT_EQ(mid.at({i, j, l}), t.at({i + 1, j, l}));

    // General strided slice.
    const Tensor gen = t.slice({1, 2, 3}, {2, 3, 4});
    for (std::int64_t i = 0; i < 2; ++i)
        for (std::int64_t j = 0; j < 3; ++j)
            for (std::int64_t l = 0; l < 4; ++l)
                EXPECT_EQ(gen.at({i, j, l}), t.at({i + 1, j + 2, l + 3}));

    // Round-trip through assignSlice (both run-collapsed and strided).
    Tensor dst(Shape{4, 6, 8});
    dst.assignSlice({1, 0, 0}, mid);
    dst.assignSlice({1, 2, 3}, gen);
    for (std::int64_t j = 0; j < 6; ++j)
        for (std::int64_t l = 0; l < 8; ++l)
            EXPECT_EQ(dst.at({2, j, l}), t.at({2, j, l}));
    EXPECT_EQ(dst.at({0, 0, 0}), 0.0f);
}

TEST(BufferPool, ReusesExactSizeBuffers)
{
    BufferPool &pool = BufferPool::global();
    pool.trim();
    pool.resetStats();

    { Tensor a(Shape{32, 32}); } // released to the pool
    { Tensor b(Shape{32, 32}); } // must be a pool hit
    const BufferPoolStats st = pool.stats();
    EXPECT_GE(st.acquires, 2);
    EXPECT_GE(st.poolHits, 1);
    EXPECT_GE(st.bytesRetained, 32 * 32 * 4);

    pool.trim();
    EXPECT_EQ(pool.stats().bytesRetained, 0);
}

TEST(BufferPool, RecycledTensorsAreZeroed)
{
    BufferPool::global().trim();
    {
        Tensor dirty = Tensor::full({64}, 3.5f);
    }
    // Reuses the buffer that held 3.5f everywhere; Tensor(Shape)
    // guarantees zero initialization regardless.
    Tensor clean(Shape{64});
    for (std::int64_t i = 0; i < 64; ++i)
        EXPECT_EQ(clean.data()[i], 0.0f);
}

TEST(BufferPool, UninitializedSkipsZeroFillButIsWritable)
{
    Tensor t = Tensor::uninitialized({8, 8});
    ASSERT_EQ(t.numel(), 64);
    t.zero();
    EXPECT_EQ(t.maxAbsDiff(Tensor(Shape{8, 8})), 0.0f);
}

TEST(BufferPool, WorkspaceDrawsFromPool)
{
    BufferPool &pool = BufferPool::global();
    pool.trim();
    pool.resetStats();
    {
        Workspace w(1024);
        ASSERT_NE(w.data(), nullptr);
        w.data()[0] = 1.0f;
        w.data()[1023] = 2.0f;
    }
    {
        Workspace w2(1024);
        (void)w2;
    }
    EXPECT_GE(pool.stats().poolHits, 1);
}

} // namespace
} // namespace primepar
