/**
 * @file
 * Vector types and target macros shared by the SIMD kernel TUs
 * (tensor/gemm.cc, tensor/elementwise.cc, cost/cost_model.cc). Not
 * part of the public tensor API: every kernel built on these runs on
 * the tiers of GemmIsa, one out-of-line instance per tier compiled
 * with __attribute__((target(...))).
 */

#ifndef PRIMEPAR_TENSOR_SIMD_HH
#define PRIMEPAR_TENSOR_SIMD_HH

#if defined(__GNUC__) || defined(__clang__)
#define PRIMEPAR_RESTRICT __restrict__
#define PRIMEPAR_SIMD 1
#define PRIMEPAR_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define PRIMEPAR_RESTRICT
#define PRIMEPAR_ALWAYS_INLINE inline
#endif

#if PRIMEPAR_SIMD && (defined(__x86_64__) || defined(__i386__))
#define PRIMEPAR_SIMD_X86 1
#endif

#include <cstdint>

namespace primepar {

#if PRIMEPAR_SIMD
/** W-lane float vector: W = 4, 8, 16 fill an SSE, AVX, AVX-512 register. */
template <int W>
struct Lanes
{
    typedef float type __attribute__((vector_size(W * sizeof(float))));
    /** Same width in int32 lanes: comparison masks and signed ints. */
    typedef std::int32_t itype
        __attribute__((vector_size(W * sizeof(float))));
    /** Same width in uint32 lanes: bit patterns, wrapping arithmetic. */
    typedef std::uint32_t utype
        __attribute__((vector_size(W * sizeof(float))));
    /** W double lanes (twice the width): exact int32 products. */
    typedef double dtype __attribute__((vector_size(W * sizeof(double))));
};
#endif

} // namespace primepar

#endif // PRIMEPAR_TENSOR_SIMD_HH
