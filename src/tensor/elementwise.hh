/**
 * @file
 * Elementwise kernels on the GEMM's SIMD tiers: tanh, gelu and its
 * backward, the accumulate p += q, and the NaN/Inf/explosion count.
 * They run on activeGemmIsa(), the tier every GEMM runs on.
 *
 * Determinism contract: every kernel returns, lane for lane, the bits
 * of the scalar code it replaces. tanh is a branch-free vector port of
 * the single-precision fdlibm tanhf/expm1f (the algorithm glibc 2.36
 * ships): each lane runs the same operation sequence as the scalar
 * code, every reconstruction branch is evaluated and the lane's own
 * branch is selected by mask, division is true division and
 * float-to-int conversion truncates. The TU is built with
 * -ffp-contract=off, so no tier fuses a multiply and an add. gelu and
 * geluBackward mirror the expression trees of naive::gelu and
 * naive::geluBackward, which call std::tanh; on a glibc-2.36 host the
 * two agree bit for bit (tests/tanh_exhaustive.cc checks all 2^32
 * inputs on every tier).
 *
 * Tails shorter than one vector run through the same vector body on a
 * padded lane buffer; no kernel has a scalar fallback.
 */

#ifndef PRIMEPAR_TENSOR_ELEMENTWISE_HH
#define PRIMEPAR_TENSOR_ELEMENTWISE_HH

#include <cstdint>

#include "gemm.hh"

namespace primepar {

/** Counters of NaN/Inf/explosion detections. */
struct AnomalyCounts
{
    std::int64_t nan = 0;
    std::int64_t inf = 0;
    std::int64_t explosion = 0;

    std::int64_t total() const { return nan + inf + explosion; }
};

/** y[i] = gelu(x[i]) (tanh approximation), bit-identical to
 *  naive::gelu. @p y may equal @p x. */
void geluKernel(const float *x, float *y, std::int64_t n);

/** dx[i] = dy[i] * gelu'(x[i]), bit-identical to naive::geluBackward.
 *  @p dx may equal @p x or @p dy. */
void geluBackwardKernel(const float *x, const float *dy, float *dx,
                        std::int64_t n);

/** p[i] += q[i] for i < n. @p q may equal @p p. */
void addKernel(float *p, const float *q, std::int64_t n);

/**
 * Counts over p[0, n): NaNs, infinities, and finite values with
 * |v| > @p threshold (none when @p threshold is NaN or +inf; every
 * finite value when it is negative).
 */
AnomalyCounts anomalyCounts(const float *p, std::int64_t n,
                            float threshold);

/** Test seam: run one specific tier, which the host must support.
 *  tanhOn is the vector tanhf itself: y[i] = tanhf(x[i]). */
namespace detail {

void tanhOn(GemmIsa isa, const float *x, float *y, std::int64_t n);
void geluOn(GemmIsa isa, const float *x, float *y, std::int64_t n);
void geluBackwardOn(GemmIsa isa, const float *x, const float *dy,
                    float *dx, std::int64_t n);
void addOn(GemmIsa isa, float *p, const float *q, std::int64_t n);
AnomalyCounts anomalyCountsOn(GemmIsa isa, const float *p,
                              std::int64_t n, float threshold);

} // namespace detail

/** The seed scalar loops over std::tanh, kept in naive_kernels.cc
 *  with the GEMM seed loops: the vector kernels reproduce them bit
 *  for bit on a glibc-2.36 host, and bench_micro times against them. */
namespace naive {

Tensor gelu(const Tensor &input);
Tensor geluBackward(const Tensor &input, const Tensor &d_output);

} // namespace naive

} // namespace primepar

#endif // PRIMEPAR_TENSOR_ELEMENTWISE_HH
