#include "elementwise.hh"

#include <cstring>
#include <limits>

#include "simd.hh"
#include "support/logging.hh"

#if !PRIMEPAR_SIMD
#error "the elementwise kernels need GCC/Clang vector extensions"
#endif

namespace primepar {

namespace {

constexpr float kGeluC = 0.7978845608028654f; // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

template <int W>
using V = typename Lanes<W>::type;
template <int W>
using I = typename Lanes<W>::itype;
template <int W>
using U = typename Lanes<W>::utype;

template <typename T, typename S>
PRIMEPAR_ALWAYS_INLINE T
splat(S s)
{
    return T{} + s;
}

template <int W>
PRIMEPAR_ALWAYS_INLINE V<W>
load(const float *p)
{
    V<W> v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

template <int W>
PRIMEPAR_ALWAYS_INLINE void
store(float *p, V<W> v)
{
    std::memcpy(p, &v, sizeof(v));
}

/**
 * fdlibm expm1f, lane by lane, for finite x in (-27 ln2, 88.72) (the
 * range tanhLanes feeds it). Each lane runs the scalar code's
 * operations in the scalar code's order; the lane's reconstruction
 * branch (k = 0, -1, 1, far, below 23, 23..56) is picked by mask.
 * tanh never reaches k = 1 (its positive arguments are >= 2); the
 * branch stays so the port is the whole algorithm.
 */
template <int W>
PRIMEPAR_ALWAYS_INLINE V<W>
expm1Lanes(V<W> x)
{
    constexpr float ln2_hi = 6.9313812256e-01f; // 0x3f317180
    constexpr float ln2_lo = 9.0580006145e-06f; // 0x3717f7d1
    constexpr float invln2 = 1.4426950216e+00f; // 0x3fb8aa3b
    constexpr float Q1 = -3.3333335072e-02f;    // 0xbd088889
    constexpr float Q2 = 1.5873016091e-03f;     // 0x3ad00d01
    constexpr float Q3 = -7.9365076090e-05f;    // 0xb8a670cd
    constexpr float Q4 = 4.0082177293e-06f;     // 0x36867e54
    constexpr float Q5 = -2.0109921195e-07f;    // 0xb457edbb

    const U<W> hx = (U<W>)x & 0x7fffffffu;
    const I<W> xsb = (I<W>)x < 0;

    // Argument reduction: k = 0 up to 0.5 ln2, +-1 below 1.5 ln2,
    // else invln2*x +- 0.5 truncated. k = 0 leaves x as is and c = 0
    // (0 * ln2_hi and 0 * ln2_lo are exact zeros).
    const V<W> half = xsb ? splat<V<W>>(-0.5f) : splat<V<W>>(0.5f);
    const I<W> k_far = __builtin_convertvector(invln2 * x + half, I<W>);
    const I<W> k_one = xsb ? splat<I<W>>(-1) : splat<I<W>>(1);
    const I<W> k = hx > 0x3eb17218u
                       ? (hx < 0x3F851592u ? k_one : k_far)
                       : splat<I<W>>(0);
    const V<W> tk = __builtin_convertvector(k, V<W>);
    const V<W> hi = x - tk * ln2_hi; // tk*ln2_hi is exact here
    const V<W> lo = tk * ln2_lo;
    const V<W> xr = hi - lo;
    const V<W> c = (hi - xr) - lo;

    // x is now in the primary range.
    const V<W> hfx = 0.5f * xr;
    const V<W> hxs = xr * hfx;
    const V<W> r1 =
        1.0f + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    const V<W> t = 3.0f - r1 * hfx;
    V<W> e = hxs * ((r1 - t) / (6.0f - xr * t));
    const V<W> at_k0 = xr - (xr * e - hxs);
    e = (xr * (e - c) - c);
    e -= hxs;
    const V<W> at_km1 = 0.5f * (xr - e) - 0.5f;
    const V<W> at_k1 = xr < -0.25f ? -2.0f * (e - (xr + 0.5f))
                                   : 1.0f + 2.0f * (xr - e);

    // The remaining branches add k to y's exponent field; unsigned
    // lanes so the shifts and the add wrap for every k.
    const U<W> uk = (U<W>)k;
    const U<W> k_exp = uk << 23;
    const V<W> y_far = 1.0f - (e - xr);
    const V<W> at_far = (V<W>)((U<W>)y_far + k_exp) - 1.0f;
    // t = 1 - 2^-k; the shift count is masked so no lane shifts >= 32.
    const V<W> t_mid = (V<W>)(0x3f800000u - (0x1000000u >> (uk & 31u)));
    const V<W> y_mid = t_mid - (e - xr);
    const V<W> at_mid = (V<W>)((U<W>)y_mid + k_exp);
    const V<W> t_hi = (V<W>)((0x7fu - uk) << 23); // 2^-k
    V<W> y_hi = xr - (e + t_hi);
    y_hi += 1.0f;
    const V<W> at_hi = (V<W>)((U<W>)y_hi + k_exp);

    V<W> r = k < 23 ? at_mid : at_hi;
    // k <= -2 or k > 56, as one unsigned compare: GCC 12 scalarizes
    // the OR of two compares on the AVX-512F tier.
    r = uk + 1u > 57u ? at_far : r;
    r = k == 1 ? at_k1 : r;
    r = k == -1 ? at_km1 : r;
    r = k == 0 ? at_k0 : r;
    return hx < 0x33000000u ? x : r; // |x| < 2^-25: expm1(x) = x
}

/** fdlibm tanhf, lane by lane; bit-identical for every input. */
template <int W>
PRIMEPAR_ALWAYS_INLINE V<W>
tanhLanes(V<W> x)
{
    const I<W> jx = (I<W>)x;
    const I<W> ix = jx & 0x7fffffff;
    // |x| >= 22, inf and NaN get constant results below; park them at
    // 0 so expm1Lanes sees only its domain.
    const V<W> ax = (V<W>)(ix < 0x41b00000 ? ix : splat<I<W>>(0));
    const I<W> big = ix >= 0x3f800000; // |x| >= 1
    const V<W> t = expm1Lanes<W>(big ? 2.0f * ax : -2.0f * ax);
    // |x| >= 1: 1 - 2/(t+2); below: -t/(t+2). One division serves both.
    const V<W> q = (big ? splat<V<W>>(2.0f) : -t) / (t + 2.0f);
    V<W> z = big ? 1.0f - q : q;
    z = ix >= 0x41b00000 ? splat<V<W>>(1.0f) : z; // 1 - tiny rounds to 1
    V<W> r = jx < 0 ? -z : z;
    r = ix < 0x24000000 ? x * (1.0f + x) : r; // |x| < 2^-55, and +-0
    // NaN: the scalar 1/x +- 1 returns x's quiet NaN, as x + x does.
    return ix > 0x7f800000 ? x + x : r;
}

template <int W>
PRIMEPAR_ALWAYS_INLINE V<W>
geluInner(V<W> x)
{
    return kGeluC * (x + ((kGeluA * x) * x) * x);
}

struct TanhOp
{
    template <int W>
    static PRIMEPAR_ALWAYS_INLINE V<W>
    apply(V<W> x, V<W>)
    {
        return tanhLanes<W>(x);
    }
};

struct GeluOp
{
    template <int W>
    static PRIMEPAR_ALWAYS_INLINE V<W>
    apply(V<W> x, V<W>)
    {
        const V<W> t = tanhLanes<W>(geluInner<W>(x));
        return (0.5f * x) * (1.0f + t);
    }
};

struct GeluBackwardOp
{
    template <int W>
    static PRIMEPAR_ALWAYS_INLINE V<W>
    apply(V<W> x, V<W> dy)
    {
        constexpr float a3 = 3.0f * kGeluA;
        const V<W> t = tanhLanes<W>(geluInner<W>(x));
        const V<W> dinner = kGeluC * (1.0f + (a3 * x) * x);
        return dy * ((0.5f * (1.0f + t)) +
                     ((0.5f * x) * (1.0f - t * t)) * dinner);
    }
};

struct AddOp
{
    template <int W>
    static PRIMEPAR_ALWAYS_INLINE V<W>
    apply(V<W> p, V<W> q)
    {
        return p + q;
    }
};

/**
 * out[i] = Op(a[i], b[i]) for i < n. Each block is loaded before it
 * is stored, so @p out may equal @p a or @p b. The tail runs through
 * the same body on a zero-padded W-lane buffer.
 */
template <int W, typename Op>
PRIMEPAR_ALWAYS_INLINE void
mapLanes(const float *a, const float *b, float *out, std::int64_t n)
{
    std::int64_t i = 0;
    for (; i + W <= n; i += W)
        store<W>(out + i, Op::template apply<W>(load<W>(a + i),
                                                load<W>(b + i)));
    if (i == n)
        return;
    const std::size_t rest = static_cast<std::size_t>(n - i) * sizeof(float);
    float pa[W] = {}, pb[W] = {}, po[W] = {};
    std::memcpy(pa, a + i, rest);
    std::memcpy(pb, b + i, rest);
    store<W>(po, Op::template apply<W>(load<W>(pa), load<W>(pb)));
    std::memcpy(out + i, po, rest);
}

/**
 * Add this block's NaN, Inf and |v| > threshold lanes (where @p live)
 * to the per-lane counters; each mask lane is 0 or -1. A NaN lane
 * compares false against the threshold, an infinite one may not:
 * anomalyLanes takes infinities out of @p above. (Three independent
 * masks: ANDing two compares scalarizes on the AVX-512F tier.)
 */
template <int W>
PRIMEPAR_ALWAYS_INLINE void
countLanes(V<W> v, V<W> threshold, I<W> live, I<W> &nan, I<W> &inf,
           I<W> &above)
{
    const I<W> abs_bits = (I<W>)v & 0x7fffffff;
    nan += (abs_bits > 0x7f800000) & live;
    inf += (abs_bits == 0x7f800000) & live;
    above += ((V<W>)abs_bits > threshold) & live;
}

/** Move the (negated) per-lane counts of @p lanes into @p total. */
template <int W>
PRIMEPAR_ALWAYS_INLINE void
drainLanes(I<W> &lanes, std::int64_t &total)
{
    for (int l = 0; l < W; ++l)
        total -= lanes[l];
    lanes = I<W>{};
}

template <int W>
PRIMEPAR_ALWAYS_INLINE AnomalyCounts
anomalyLanes(const float *p, std::int64_t n, float threshold)
{
    const V<W> thr = splat<V<W>>(threshold);
    const I<W> all = splat<I<W>>(-1);
    AnomalyCounts counts;
    std::int64_t above_total = 0;
    I<W> nan{}, inf{}, above{};
    // Lane counters drain before they could reach 2^31 blocks.
    constexpr std::int64_t kDrain = std::int64_t(1) << 30;
    std::int64_t i = 0;
    for (std::int64_t blocks = 0; i + W <= n; i += W) {
        countLanes<W>(load<W>(p + i), thr, all, nan, inf, above);
        if (++blocks == kDrain) {
            drainLanes<W>(nan, counts.nan);
            drainLanes<W>(inf, counts.inf);
            drainLanes<W>(above, above_total);
            blocks = 0;
        }
    }
    if (i < n) {
        I<W> lane{};
        for (int l = 0; l < W; ++l)
            lane[l] = l;
        float pad[W] = {};
        std::memcpy(pad, p + i, static_cast<std::size_t>(n - i) *
                                    sizeof(float));
        countLanes<W>(load<W>(pad), thr,
                      lane < static_cast<std::int32_t>(n - i), nan, inf,
                      above);
    }
    drainLanes<W>(nan, counts.nan);
    drainLanes<W>(inf, counts.inf);
    drainLanes<W>(above, above_total);
    const bool inf_above =
        std::numeric_limits<float>::infinity() > threshold;
    counts.explosion = above_total - (inf_above ? counts.inf : 0);
    return counts;
}

/** One tier's instances of every kernel. */
struct Kernels
{
    void (*tanh)(const float *, float *, std::int64_t);
    void (*gelu)(const float *, float *, std::int64_t);
    void (*geluBackward)(const float *, const float *, float *,
                         std::int64_t);
    void (*add)(float *, const float *, std::int64_t);
    AnomalyCounts (*anomalies)(const float *, std::int64_t, float);
};

// One out-of-line instance per tier and kernel, each compiled for its
// ISA: the templates above are always_inline so they take the
// caller's target. The TU keeps -ffp-contract=off, so no tier fuses
// mul and add.
#define PRIMEPAR_ELEMENTWISE_TIER(NAME, TARGET, W)                        \
    TARGET void NAME##Tanh(const float *x, float *y, std::int64_t n)       \
    {                                                                      \
        mapLanes<W, TanhOp>(x, x, y, n);                                   \
    }                                                                      \
    TARGET void NAME##Gelu(const float *x, float *y, std::int64_t n)       \
    {                                                                      \
        mapLanes<W, GeluOp>(x, x, y, n);                                   \
    }                                                                      \
    TARGET void NAME##GeluBackward(const float *x, const float *dy,        \
                                   float *dx, std::int64_t n)              \
    {                                                                      \
        mapLanes<W, GeluBackwardOp>(x, dy, dx, n);                         \
    }                                                                      \
    TARGET void NAME##Add(float *p, const float *q, std::int64_t n)        \
    {                                                                      \
        mapLanes<W, AddOp>(p, q, p, n);                                    \
    }                                                                      \
    TARGET AnomalyCounts NAME##Anomalies(const float *p, std::int64_t n,   \
                                         float threshold)                  \
    {                                                                      \
        return anomalyLanes<W>(p, n, threshold);                           \
    }                                                                      \
    constexpr Kernels NAME##Kernels = {NAME##Tanh, NAME##Gelu,             \
                                       NAME##GeluBackward, NAME##Add,      \
                                       NAME##Anomalies};

PRIMEPAR_ELEMENTWISE_TIER(sse2, , 4)
#if PRIMEPAR_SIMD_X86
PRIMEPAR_ELEMENTWISE_TIER(avx2, __attribute__((target("avx2"))), 8)
PRIMEPAR_ELEMENTWISE_TIER(avx512f, __attribute__((target("avx512f"))), 16)
#endif

#undef PRIMEPAR_ELEMENTWISE_TIER

const Kernels &
kernelsFor(GemmIsa isa)
{
    PRIMEPAR_ASSERT(detail::hostSupportsGemmIsa(isa), "elementwise tier ",
                    gemmIsaName(isa), " is not supported on this host");
    switch (isa) {
#if PRIMEPAR_SIMD_X86
    case GemmIsa::Avx512f:
        return avx512fKernels;
    case GemmIsa::Avx2:
        return avx2Kernels;
#endif
    default:
        return sse2Kernels;
    }
}

const Kernels &
active()
{
    static const Kernels &k = kernelsFor(activeGemmIsa());
    return k;
}

} // namespace

void
geluKernel(const float *x, float *y, std::int64_t n)
{
    active().gelu(x, y, n);
}

void
geluBackwardKernel(const float *x, const float *dy, float *dx,
                   std::int64_t n)
{
    active().geluBackward(x, dy, dx, n);
}

void
addKernel(float *p, const float *q, std::int64_t n)
{
    active().add(p, q, n);
}

AnomalyCounts
anomalyCounts(const float *p, std::int64_t n, float threshold)
{
    return active().anomalies(p, n, threshold);
}

namespace detail {

void
tanhOn(GemmIsa isa, const float *x, float *y, std::int64_t n)
{
    kernelsFor(isa).tanh(x, y, n);
}

void
geluOn(GemmIsa isa, const float *x, float *y, std::int64_t n)
{
    kernelsFor(isa).gelu(x, y, n);
}

void
geluBackwardOn(GemmIsa isa, const float *x, const float *dy, float *dx,
               std::int64_t n)
{
    kernelsFor(isa).geluBackward(x, dy, dx, n);
}

void
addOn(GemmIsa isa, float *p, const float *q, std::int64_t n)
{
    kernelsFor(isa).add(p, q, n);
}

AnomalyCounts
anomalyCountsOn(GemmIsa isa, const float *p, std::int64_t n,
                float threshold)
{
    return kernelsFor(isa).anomalies(p, n, threshold);
}

} // namespace detail

} // namespace primepar
