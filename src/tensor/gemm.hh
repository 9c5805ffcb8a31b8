/**
 * @file
 * Cache-blocked GEMM kernel shared by every contraction in the repo.
 *
 * One accumulate-into-C kernel covers linearForward / linearBackward /
 * linearGradient, batched attention matmuls and the executor's generic
 * contractions (via the einsum GEMM fast path). The blocking scheme
 * (DESIGN.md "Runtime performance") keeps B panels L1-resident and a
 * register tile of C live across the contraction block. The tile is
 * as wide as the host allows: SSE2 4x8, AVX2 6x16 or AVX-512F 8x32,
 * picked once per process (activeGemmIsa()).
 *
 * Determinism contract: for every output element C[i][j] the products
 * A(i,l)*B(l,j) are added in ascending l order, one term at a time —
 * exactly the order of the naive triple loop. Blocking, register
 * accumulation and SIMD over *distinct* output elements never
 * reassociate a single element's sum, so the result is bit-identical
 * to the naive reference kernels below at any block size and on every
 * tier. No tier uses FMA: the kernel TU is built with
 * -ffp-contract=off, so every term is a separate multiply and add.
 */

#ifndef PRIMEPAR_TENSOR_GEMM_HH
#define PRIMEPAR_TENSOR_GEMM_HH

#include "tensor.hh"

namespace primepar {

/** SIMD tiers of the GEMM micro-kernel, narrowest first. */
enum class GemmIsa
{
    Sse2,   ///< 4-lane vectors, 4x8 tile (the x86-64 baseline)
    Avx2,   ///< 8-lane vectors, 6x16 tile
    Avx512f ///< 16-lane vectors, 8x32 tile
};

/** "sse2", "avx2" or "avx512f". */
const char *gemmIsaName(GemmIsa isa);

/** The tier gemmAccumulate runs on: the widest one the host CPU
 *  supports, chosen once per process. */
GemmIsa activeGemmIsa();

/**
 * C[m,n] += A x B with ascending-l accumulation order per element.
 *
 * All matrices are dense row-major:
 *  - A is m x k (or k x m when @p trans_a; A(i,l) = a[l*m + i]),
 *  - B is k x n (or n x k when @p trans_b; B(l,j) = b[j*k + l]),
 *  - C is m x n and is accumulated into (not zeroed here).
 *
 * @p c must not alias @p a or @p b. A transposed B is repacked into a
 * pooled workspace once per call, so the inner kernel always streams
 * contiguous B rows.
 */
void gemmAccumulate(const float *a, const float *b, float *c,
                    std::int64_t m, std::int64_t n, std::int64_t k,
                    bool trans_a, bool trans_b);

/** Test seam: run one specific tier instead of the active one. */
namespace detail {

bool hostSupportsGemmIsa(GemmIsa isa);

/** gemmAccumulate on tier @p isa, which the host must support. */
void gemmAccumulateOn(GemmIsa isa, const float *a, const float *b,
                      float *c, std::int64_t m, std::int64_t n,
                      std::int64_t k, bool trans_a, bool trans_b);

} // namespace detail

/**
 * Naive reference kernels (seed-fidelity triple loops, compiled at
 * default optimization). They define the bit pattern the blocked
 * kernels must reproduce exactly, serve as the baseline that
 * bench_micro's speedup figures are measured against, and — unlike
 * the seed loops — propagate NaN/Inf from zero-valued operands
 * (no `v == 0` shortcut; 0 * NaN must stay NaN).
 */
namespace naive {

Tensor linearForward(const Tensor &input, const Tensor &weight);
Tensor linearBackward(const Tensor &d_output, const Tensor &weight);
Tensor linearGradient(const Tensor &input, const Tensor &d_output);
Tensor batchedMatmul(const Tensor &a, const Tensor &b,
                     bool trans_a = false, bool trans_b = false);

/** Seed odometer implementation of contractProduct (same signature,
 *  same term order) for einsum fast-path equivalence tests. */
void contract(const Tensor &a, const std::vector<int> &a_dims,
              const Tensor &b, const std::vector<int> &b_dims,
              Tensor &out, const std::vector<int> &out_dims);

} // namespace naive

} // namespace primepar

#endif // PRIMEPAR_TENSOR_GEMM_HH
