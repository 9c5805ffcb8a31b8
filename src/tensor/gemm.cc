#include "gemm.hh"

#include <algorithm>

#include "buffer_pool.hh"
#include "support/logging.hh"

#if defined(__GNUC__) || defined(__clang__)
#define PRIMEPAR_RESTRICT __restrict__
#define PRIMEPAR_GEMM_SIMD 1
#define PRIMEPAR_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define PRIMEPAR_RESTRICT
#define PRIMEPAR_ALWAYS_INLINE inline
#endif

#if PRIMEPAR_GEMM_SIMD && (defined(__x86_64__) || defined(__i386__))
#define PRIMEPAR_GEMM_X86 1
#endif

namespace primepar {

namespace {

// Contraction block: a register tile streams a KC-row B panel, sized
// to stay L1-resident across the i loop (32 KiB at the widest,
// 32-column tile).
constexpr std::int64_t KC = 256;

/** Scalar edge kernel, same ascending-l term order: C[i][j0..j1) over
 *  rows [i0, i1). Inlined into each tier, so the compiler may
 *  vectorize the j loop — still one mul and one add per element. */
PRIMEPAR_ALWAYS_INLINE void
edgeCols(const float *PRIMEPAR_RESTRICT a, std::int64_t ars,
         std::int64_t acs, const float *PRIMEPAR_RESTRICT b,
         std::int64_t ldb, float *PRIMEPAR_RESTRICT c, std::int64_t ldc,
         std::int64_t i0, std::int64_t i1, std::int64_t j0,
         std::int64_t j1, std::int64_t l0, std::int64_t l1)
{
    for (std::int64_t i = i0; i < i1; ++i) {
        float *PRIMEPAR_RESTRICT crow = c + i * ldc;
        for (std::int64_t l = l0; l < l1; ++l) {
            const float v = a[i * ars + l * acs];
            const float *PRIMEPAR_RESTRICT brow = b + l * ldb;
            for (std::int64_t j = j0; j < j1; ++j)
                crow[j] += v * brow[j];
        }
    }
}

#if PRIMEPAR_GEMM_SIMD
/** W-lane float vector: W = 4, 8, 16 fill an SSE, AVX, AVX-512 register. */
template <int W>
struct Lanes
{
    typedef float type __attribute__((vector_size(W * sizeof(float))));
};

/**
 * Register micro-kernel: C[R][NV*W] += A-rows x B-panel over l in
 * [l0, l1), with R*NV accumulator vectors live across the loop. @p a
 * points at the row block (element (r, l) at a[r*ars + l*acs]), @p b
 * at column j0 of the full B (row l at b + l*ldb), @p c at the tile
 * origin. Each lane is one output element and gets one separate
 * multiply and add per l, in ascending l.
 */
template <int R, int W, int NV>
PRIMEPAR_ALWAYS_INLINE void
microTile(const float *PRIMEPAR_RESTRICT a, std::int64_t ars,
          std::int64_t acs, const float *PRIMEPAR_RESTRICT b,
          std::int64_t ldb, float *PRIMEPAR_RESTRICT c, std::int64_t ldc,
          std::int64_t l0, std::int64_t l1)
{
    using V = typename Lanes<W>::type;
    V acc[R][NV];
    for (int r = 0; r < R; ++r)
        for (int v = 0; v < NV; ++v)
            __builtin_memcpy(&acc[r][v], c + r * ldc + v * W, sizeof(V));
    for (std::int64_t l = l0; l < l1; ++l) {
        const float *PRIMEPAR_RESTRICT brow = b + l * ldb;
        V bv[NV];
        for (int v = 0; v < NV; ++v)
            __builtin_memcpy(&bv[v], brow + v * W, sizeof(V));
        for (int r = 0; r < R; ++r) {
            // Scalar operand: GCC broadcasts it once per row, where a
            // lane-by-lane fill compiled to masked inserts.
            const float x = a[r * ars + l * acs];
            for (int v = 0; v < NV; ++v)
                acc[r][v] += x * bv[v];
        }
    }
    for (int r = 0; r < R; ++r)
        for (int v = 0; v < NV; ++v)
            __builtin_memcpy(c + r * ldc + v * W, &acc[r][v], sizeof(V));
}

/**
 * Cover the full NV*W-wide column panels from @p j0 on with R x (NV*W)
 * tiles (leftover rows take the single-row tile) and return the first
 * column left uncovered.
 */
template <int R, int W, int NV>
PRIMEPAR_ALWAYS_INLINE std::int64_t
columnPanels(const float *PRIMEPAR_RESTRICT a, std::int64_t ars,
             std::int64_t acs, const float *PRIMEPAR_RESTRICT b,
             float *PRIMEPAR_RESTRICT c, std::int64_t m, std::int64_t n,
             std::int64_t j0, std::int64_t l0, std::int64_t l1)
{
    constexpr std::int64_t cols = NV * W;
    for (; j0 + cols <= n; j0 += cols) {
        std::int64_t i0 = 0;
        for (; i0 + R <= m; i0 += R)
            microTile<R, W, NV>(a + i0 * ars, ars, acs, b + j0, n,
                                c + i0 * n + j0, n, l0, l1);
        for (; i0 < m; ++i0)
            microTile<1, W, NV>(a + i0 * ars, ars, acs, b + j0, n,
                                c + i0 * n + j0, n, l0, l1);
    }
    return j0;
}
#endif // PRIMEPAR_GEMM_SIMD

/**
 * Blocked C[m,n] += A x B with B dense row-major k x n. A is accessed
 * as A(i,l) = a[i*ars + l*acs], which covers both orientations. The
 * widest tile of @p Isa takes the full column panels; each narrower
 * tile, then the scalar edge, takes what is left.
 */
template <GemmIsa Isa>
PRIMEPAR_ALWAYS_INLINE void
gemmPanels(const float *PRIMEPAR_RESTRICT a, std::int64_t ars,
           std::int64_t acs, const float *PRIMEPAR_RESTRICT b,
           float *PRIMEPAR_RESTRICT c, std::int64_t m, std::int64_t n,
           std::int64_t k)
{
    for (std::int64_t l0 = 0; l0 < k; l0 += KC) {
        const std::int64_t l1 = std::min(k, l0 + KC);
        std::int64_t j0 = 0;
#if PRIMEPAR_GEMM_SIMD
        if constexpr (Isa == GemmIsa::Avx512f) {
            j0 = columnPanels<8, 16, 2>(a, ars, acs, b, c, m, n, j0, l0, l1);
            j0 = columnPanels<8, 16, 1>(a, ars, acs, b, c, m, n, j0, l0, l1);
            j0 = columnPanels<6, 8, 1>(a, ars, acs, b, c, m, n, j0, l0, l1);
        } else if constexpr (Isa == GemmIsa::Avx2) {
            j0 = columnPanels<6, 8, 2>(a, ars, acs, b, c, m, n, j0, l0, l1);
            j0 = columnPanels<6, 8, 1>(a, ars, acs, b, c, m, n, j0, l0, l1);
        } else {
            j0 = columnPanels<4, 4, 2>(a, ars, acs, b, c, m, n, j0, l0, l1);
        }
#endif
        if (j0 < n)
            edgeCols(a, ars, acs, b, n, c, n, 0, m, j0, n, l0, l1);
    }
}

using PanelsFn = void (*)(const float *, std::int64_t, std::int64_t,
                          const float *, float *, std::int64_t,
                          std::int64_t, std::int64_t);

// One out-of-line instance per tier, each compiled for its ISA: the
// templates above are always_inline so they take the caller's target.
// The kernel TU keeps -ffp-contract=off, so no tier fuses mul and add.
void
panelsSse2(const float *a, std::int64_t ars, std::int64_t acs,
           const float *b, float *c, std::int64_t m, std::int64_t n,
           std::int64_t k)
{
    gemmPanels<GemmIsa::Sse2>(a, ars, acs, b, c, m, n, k);
}

#if PRIMEPAR_GEMM_X86
__attribute__((target("avx2"))) void
panelsAvx2(const float *a, std::int64_t ars, std::int64_t acs,
           const float *b, float *c, std::int64_t m, std::int64_t n,
           std::int64_t k)
{
    gemmPanels<GemmIsa::Avx2>(a, ars, acs, b, c, m, n, k);
}

__attribute__((target("avx512f"))) void
panelsAvx512f(const float *a, std::int64_t ars, std::int64_t acs,
              const float *b, float *c, std::int64_t m, std::int64_t n,
              std::int64_t k)
{
    gemmPanels<GemmIsa::Avx512f>(a, ars, acs, b, c, m, n, k);
}
#endif

PanelsFn
panelsFor(GemmIsa isa)
{
    PRIMEPAR_ASSERT(detail::hostSupportsGemmIsa(isa), "GEMM tier ",
                    gemmIsaName(isa), " is not supported on this host");
    switch (isa) {
#if PRIMEPAR_GEMM_X86
    case GemmIsa::Avx512f:
        return panelsAvx512f;
    case GemmIsa::Avx2:
        return panelsAvx2;
#endif
    default:
        return panelsSse2;
    }
}

/** Cache-blocked transpose of an n x k matrix into a k x n buffer. */
void
packTranspose(const float *PRIMEPAR_RESTRICT src, float *PRIMEPAR_RESTRICT dst,
              std::int64_t n, std::int64_t k)
{
    constexpr std::int64_t TB = 32;
    for (std::int64_t l0 = 0; l0 < k; l0 += TB) {
        const std::int64_t l1 = std::min(k, l0 + TB);
        for (std::int64_t j0 = 0; j0 < n; j0 += TB) {
            const std::int64_t j1 = std::min(n, j0 + TB);
            for (std::int64_t l = l0; l < l1; ++l)
                for (std::int64_t j = j0; j < j1; ++j)
                    dst[l * n + j] = src[j * k + l];
        }
    }
}

void
gemmWith(PanelsFn panels, const float *a, const float *b, float *c,
         std::int64_t m, std::int64_t n, std::int64_t k, bool trans_a,
         bool trans_b)
{
    PRIMEPAR_ASSERT(m >= 0 && n >= 0 && k >= 0, "negative GEMM extent");
    if (m == 0 || n == 0 || k == 0)
        return;

    const std::int64_t ars = trans_a ? 1 : k;
    const std::int64_t acs = trans_a ? m : 1;

    if (!trans_b) {
        panels(a, ars, acs, b, c, m, n, k);
        return;
    }
    // Repack B^T so the inner kernel streams contiguous rows; the
    // pooled workspace makes this allocation-free in steady state.
    Workspace packed(k * n);
    packTranspose(b, packed.data(), n, k);
    panels(a, ars, acs, packed.data(), c, m, n, k);
}

} // namespace

const char *
gemmIsaName(GemmIsa isa)
{
    switch (isa) {
    case GemmIsa::Avx512f:
        return "avx512f";
    case GemmIsa::Avx2:
        return "avx2";
    case GemmIsa::Sse2:
        break;
    }
    return "sse2";
}

GemmIsa
activeGemmIsa()
{
    static const GemmIsa isa = [] {
        for (GemmIsa t : {GemmIsa::Avx512f, GemmIsa::Avx2})
            if (detail::hostSupportsGemmIsa(t))
                return t;
        return GemmIsa::Sse2;
    }();
    return isa;
}

void
gemmAccumulate(const float *a, const float *b, float *c, std::int64_t m,
               std::int64_t n, std::int64_t k, bool trans_a, bool trans_b)
{
    static const PanelsFn panels = panelsFor(activeGemmIsa());
    gemmWith(panels, a, b, c, m, n, k, trans_a, trans_b);
}

namespace detail {

bool
hostSupportsGemmIsa(GemmIsa isa)
{
#if PRIMEPAR_GEMM_X86
    // Needed when the first GEMM runs from a static initializer.
    __builtin_cpu_init();
#endif
    switch (isa) {
    case GemmIsa::Sse2:
        return true;
#if PRIMEPAR_GEMM_X86
    case GemmIsa::Avx2:
        return __builtin_cpu_supports("avx2");
    case GemmIsa::Avx512f:
        return __builtin_cpu_supports("avx512f");
#endif
    default:
        return false;
    }
}

void
gemmAccumulateOn(GemmIsa isa, const float *a, const float *b, float *c,
                 std::int64_t m, std::int64_t n, std::int64_t k,
                 bool trans_a, bool trans_b)
{
    gemmWith(panelsFor(isa), a, b, c, m, n, k, trans_a, trans_b);
}

} // namespace detail

} // namespace primepar
