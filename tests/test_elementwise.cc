/**
 * Elementwise kernels on every SIMD tier the host supports, against an
 * in-test scalar fdlibm port (tests/fdlibm_tanhf.hh) and the scalar
 * loops the kernels replaced, so nothing here depends on the host
 * libm. tests/tanh_exhaustive.cc covers all 2^32 tanh inputs.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "fdlibm_tanhf.hh"
#include "tensor/elementwise.hh"

using namespace primepar;
using primepar::testing::bitsFloat;
using primepar::testing::fdlibmTanhf;
using primepar::testing::floatBits;

namespace {

constexpr float kGeluC = 0.7978845608028654f;

// The seed gelu loops with the fdlibm port in place of std::tanh.
float
geluOracle(float x)
{
    const float inner = kGeluC * (x + 0.044715f * x * x * x);
    return 0.5f * x * (1.0f + fdlibmTanhf(inner));
}

float
geluGradOracle(float x, float dy)
{
    const float inner = kGeluC * (x + 0.044715f * x * x * x);
    const float t = fdlibmTanhf(inner);
    const float dinner = kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
    return dy * (0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner);
}

// The seed RuntimeHealth::scan loop.
AnomalyCounts
scanOracle(const std::vector<float> &v, float threshold)
{
    AnomalyCounts c;
    for (const float x : v) {
        if (std::isnan(x))
            ++c.nan;
        else if (std::isinf(x))
            ++c.inf;
        else if (std::fabs(x) > threshold)
            ++c.explosion;
    }
    return c;
}

/** Same bits, or both NaN. */
bool
sameFloat(float a, float b)
{
    return floatBits(a) == floatBits(b) || (std::isnan(a) && std::isnan(b));
}

int
lanesOf(GemmIsa isa)
{
    switch (isa) {
    case GemmIsa::Avx512f:
        return 16;
    case GemmIsa::Avx2:
        return 8;
    case GemmIsa::Sse2:
        break;
    }
    return 4;
}

/** The tiers this host runs; reports the others as skipped. */
std::vector<GemmIsa>
hostTiers()
{
    std::vector<GemmIsa> tiers;
    for (const GemmIsa isa :
         {GemmIsa::Sse2, GemmIsa::Avx2, GemmIsa::Avx512f}) {
        if (detail::hostSupportsGemmIsa(isa))
            tiers.push_back(isa);
        else
            std::cout << "[  SKIPPED ] elementwise tier "
                      << gemmIsaName(isa)
                      << ": not supported by this host\n";
    }
    return tiers;
}

/** Every float within +-256 ulps of each branch threshold of tanhf
 *  and of the expm1f it calls, both signs. */
std::vector<float>
thresholdInputs()
{
    std::vector<std::int32_t> centers = {
        0x24000000, // |x| < 2^-55: x * (1 + x)
        0x3f800000, // |x| >= 1: expm1(2|x|), else expm1(-2|x|)
        0x41b00000, // |x| >= 22: +-1
    };
    // expm1f thresholds on its argument -2|x|: 0.5 ln2 and 1.5 ln2
    // (reduction to k = 0 / +-1 / general k) and 2^-25 (returns x).
    // Halving the argument moves its exponent down by one.
    for (const std::int32_t arg : {0x3eb17218, 0x3F851592, 0x33000000})
        centers.push_back(arg - 0x00800000);
    // Where the truncated invln2*arg +- 0.5 steps: k = -2/-3 on the
    // negative side, k = 22/23 and 56/57 (the reconstruction branch
    // changes) on the positive side.
    const double ln2 = std::log(2.0);
    for (const double k : {2.0, 3.0, 23.0, 57.0})
        centers.push_back(
            floatBits(static_cast<float>((k - 0.5) * ln2 / 2.0)));

    std::vector<float> xs;
    for (const std::int32_t c : centers)
        for (std::int32_t d = -256; d <= 256; ++d)
            for (const std::int32_t sign : {0, static_cast<std::int32_t>(
                                                   0x80000000u)})
                xs.push_back(bitsFloat((c + d) | sign));
    return xs;
}

std::vector<float>
specialInputs()
{
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> xs = {0.0f,     -0.0f,    FLT_MAX,  -FLT_MAX,
                             inf,      -inf,     FLT_MIN,  -FLT_MIN,
                             1.0f,     -1.0f,    22.0f,    -22.0f};
    for (const std::int32_t bits :
         {0x00000001, 0x00000002, 0x00400000, 0x007fffff, // denormals
          0x7fc00000, 0x7fc00001, 0x7fffffff, 0x7f800001, // NaNs
          0x7fa00000})
        for (const std::uint32_t sign : {0u, 0x80000000u})
            xs.push_back(bitsFloat(static_cast<std::int32_t>(
                static_cast<std::uint32_t>(bits) | sign)));
    return xs;
}

/** About 2^22 bit patterns at a prime stride across all 2^32. */
std::vector<float>
sweepInputs()
{
    constexpr std::uint64_t stride = 1031;
    std::vector<float> xs;
    xs.reserve((std::uint64_t(1) << 32) / stride + 1);
    for (std::uint64_t b = 0; b < (std::uint64_t(1) << 32); b += stride)
        xs.push_back(bitsFloat(
            static_cast<std::int32_t>(static_cast<std::uint32_t>(b))));
    return xs;
}

/** A gradient per input, varied in sign and magnitude. */
std::vector<float>
gradientsFor(const std::vector<float> &xs)
{
    std::vector<float> dy(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        dy[i] = static_cast<float>(static_cast<int>(i % 97) - 48) * 0.37f;
    return dy;
}

/** Run every kernel on @p xs on @p isa and compare with the oracles;
 *  returns the number of mismatching elements. */
std::int64_t
mismatches(GemmIsa isa, const std::vector<float> &xs, const char *set)
{
    const std::int64_t n = static_cast<std::int64_t>(xs.size());
    const std::vector<float> dy = gradientsFor(xs);
    std::vector<float> out(xs.size());
    std::int64_t bad = 0;
    auto check = [&](const char *kernel, std::size_t i, float got,
                     float want) {
        if (sameFloat(got, want))
            return;
        if (++bad <= 10)
            ADD_FAILURE() << gemmIsaName(isa) << " " << kernel << " on "
                          << set << " x=0x" << std::hex
                          << floatBits(xs[i]) << ": got 0x"
                          << floatBits(got) << " want 0x"
                          << floatBits(want) << std::dec;
    };

    detail::tanhOn(isa, xs.data(), out.data(), n);
    for (std::size_t i = 0; i < xs.size(); ++i)
        check("tanh", i, out[i], fdlibmTanhf(xs[i]));
    detail::geluOn(isa, xs.data(), out.data(), n);
    for (std::size_t i = 0; i < xs.size(); ++i)
        check("gelu", i, out[i], geluOracle(xs[i]));
    detail::geluBackwardOn(isa, xs.data(), dy.data(), out.data(), n);
    for (std::size_t i = 0; i < xs.size(); ++i)
        check("geluBackward", i, out[i], geluGradOracle(xs[i], dy[i]));
    out = dy;
    detail::addOn(isa, out.data(), xs.data(), n);
    for (std::size_t i = 0; i < xs.size(); ++i)
        check("add", i, out[i], dy[i] + xs[i]);
    for (const float threshold : {1e6f, 0.0f, -1.0f})
        EXPECT_EQ(detail::anomalyCountsOn(isa, xs.data(), n, threshold)
                      .total(),
                  scanOracle(xs, threshold).total())
            << gemmIsaName(isa) << " anomaly count on " << set;
    return bad;
}

} // namespace

TEST(Elementwise, EveryHostTierMatchesScalarOracles)
{
    const std::vector<float> thresholds = thresholdInputs();
    const std::vector<float> specials = specialInputs();
    const std::vector<float> sweep = sweepInputs();
    for (const GemmIsa isa : hostTiers()) {
        EXPECT_EQ(mismatches(isa, thresholds, "branch thresholds"), 0);
        EXPECT_EQ(mismatches(isa, specials, "special values"), 0);
        EXPECT_EQ(mismatches(isa, sweep, "prime-stride sweep"), 0);
    }
}

TEST(Elementwise, TanhOfSpecialValues)
{
    const float inf = std::numeric_limits<float>::infinity();
    const std::vector<float> xs = {0.0f, -0.0f, inf, -inf, 30.0f,
                                   -30.0f, FLT_MAX, -FLT_MAX,
                                   std::numeric_limits<float>::quiet_NaN()};
    for (const GemmIsa isa : hostTiers()) {
        std::vector<float> y(xs.size());
        detail::tanhOn(isa, xs.data(), y.data(),
                       static_cast<std::int64_t>(xs.size()));
        EXPECT_EQ(floatBits(y[0]), floatBits(0.0f));
        EXPECT_EQ(floatBits(y[1]), floatBits(-0.0f));
        for (std::size_t i = 2; i + 1 < xs.size(); ++i)
            EXPECT_EQ(y[i], xs[i] > 0 ? 1.0f : -1.0f)
                << gemmIsaName(isa) << " x=" << xs[i];
        EXPECT_TRUE(std::isnan(y.back())) << gemmIsaName(isa);
    }
}

TEST(Elementwise, EveryLengthAtMisalignedOffsets)
{
    for (const GemmIsa isa : hostTiers()) {
        const int w = lanesOf(isa);
        for (std::int64_t n = 0; n <= 3 * w + 1; ++n) {
            for (std::int64_t off = 0; off < 4; ++off) {
                // Exactly sized: under ASan a read or write past the
                // last element of a padded tail is reported.
                const std::size_t len = static_cast<std::size_t>(off + n);
                std::vector<float> x(len), dy(len);
                for (std::size_t i = 0; i < len; ++i) {
                    x[i] = static_cast<float>(i) * 0.73f - 4.1f;
                    dy[i] = 1.5f - static_cast<float>(i) * 0.2f;
                }
                const float sentinel = 12345.0f;
                const std::string at = std::string(gemmIsaName(isa)) +
                                       " n=" + std::to_string(n) +
                                       " offset=" + std::to_string(off);

                std::vector<float> y(len, sentinel);
                detail::tanhOn(isa, x.data() + off, y.data() + off, n);
                for (std::size_t i = 0; i < len; ++i)
                    EXPECT_TRUE(sameFloat(
                        y[i], i < static_cast<std::size_t>(off)
                                  ? sentinel
                                  : fdlibmTanhf(x[i])))
                        << at << " tanh i=" << i;

                y.assign(len, sentinel);
                detail::geluOn(isa, x.data() + off, y.data() + off, n);
                for (std::size_t i = static_cast<std::size_t>(off);
                     i < len; ++i)
                    EXPECT_TRUE(sameFloat(y[i], geluOracle(x[i])))
                        << at << " gelu i=" << i;

                y.assign(len, sentinel);
                detail::geluBackwardOn(isa, x.data() + off,
                                       dy.data() + off, y.data() + off,
                                       n);
                for (std::size_t i = static_cast<std::size_t>(off);
                     i < len; ++i)
                    EXPECT_TRUE(
                        sameFloat(y[i], geluGradOracle(x[i], dy[i])))
                        << at << " geluBackward i=" << i;
                if (off > 0) {
                    EXPECT_EQ(y[0], sentinel) << at;
                }

                // In place: y = gelu(y).
                y = x;
                detail::geluOn(isa, y.data() + off, y.data() + off, n);
                for (std::size_t i = static_cast<std::size_t>(off);
                     i < len; ++i)
                    EXPECT_TRUE(sameFloat(y[i], geluOracle(x[i])))
                        << at << " in-place gelu i=" << i;

                y = x;
                detail::addOn(isa, y.data() + off, dy.data() + off, n);
                for (std::size_t i = 0; i < len; ++i)
                    EXPECT_EQ(y[i], i < static_cast<std::size_t>(off)
                                        ? x[i]
                                        : x[i] + dy[i])
                        << at << " add i=" << i;

                // p == q doubles every element.
                y = x;
                detail::addOn(isa, y.data() + off, y.data() + off, n);
                for (std::size_t i = static_cast<std::size_t>(off);
                     i < len; ++i)
                    EXPECT_EQ(y[i], x[i] + x[i]) << at << " self-add i=" << i;

                std::vector<float> tail(x.begin() + off, x.end());
                const AnomalyCounts got = detail::anomalyCountsOn(
                    isa, x.data() + off, n, 3.0f);
                const AnomalyCounts want = scanOracle(tail, 3.0f);
                EXPECT_EQ(got.explosion, want.explosion) << at;
                EXPECT_EQ(got.total(), want.total()) << at;
            }
        }
    }
}

TEST(Elementwise, AnomalyCountsAtEveryLaneUnderEveryThreshold)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    // Default guard threshold, 0, negative, +inf and NaN.
    const std::vector<float> thresholds = {1e6f, 0.0f, -1.0f, inf, nan};
    const std::vector<float> anomalies = {nan, -nan, inf, -inf, 2e6f,
                                          -2e6f, FLT_MAX};
    for (const GemmIsa isa : hostTiers()) {
        const int w = lanesOf(isa);
        // Two full blocks and a tail; zeros and ordinary values around
        // the anomaly (a negative threshold counts the zeros too).
        const std::size_t len = static_cast<std::size_t>(2 * w + 3);
        std::vector<float> base(len);
        for (std::size_t i = 0; i < len; ++i)
            base[i] = i % 3 == 0 ? 0.0f : static_cast<float>(i) - 7.5f;
        for (const float threshold : thresholds) {
            for (const float a : anomalies) {
                for (std::size_t pos = 0; pos < len; ++pos) {
                    std::vector<float> v = base;
                    v[pos] = a;
                    const AnomalyCounts got = detail::anomalyCountsOn(
                        isa, v.data(), static_cast<std::int64_t>(len),
                        threshold);
                    const AnomalyCounts want = scanOracle(v, threshold);
                    EXPECT_EQ(got.nan, want.nan);
                    EXPECT_EQ(got.inf, want.inf);
                    EXPECT_EQ(got.explosion, want.explosion)
                        << gemmIsaName(isa) << " threshold=" << threshold
                        << " value=" << a << " at " << pos;
                }
            }
            // All three at once, in the last full block and the tail.
            std::vector<float> v = base;
            v[static_cast<std::size_t>(w) + 1] = nan;
            v[len - 2] = -inf;
            v[len - 1] = 5e6f;
            const AnomalyCounts got = detail::anomalyCountsOn(
                isa, v.data(), static_cast<std::int64_t>(len), threshold);
            const AnomalyCounts want = scanOracle(v, threshold);
            EXPECT_EQ(got.nan, want.nan);
            EXPECT_EQ(got.inf, want.inf);
            EXPECT_EQ(got.explosion, want.explosion)
                << gemmIsaName(isa) << " threshold=" << threshold;
        }
    }
}

TEST(Elementwise, ActiveKernelsMatchTheActiveTier)
{
    const std::vector<float> xs = thresholdInputs();
    const std::int64_t n = static_cast<std::int64_t>(xs.size());
    std::vector<float> got(xs.size()), want(xs.size());
    geluKernel(xs.data(), got.data(), n);
    detail::geluOn(activeGemmIsa(), xs.data(), want.data(), n);
    for (std::size_t i = 0; i < xs.size(); ++i)
        ASSERT_EQ(floatBits(got[i]), floatBits(want[i])) << i;
    const AnomalyCounts counts = anomalyCounts(xs.data(), n, 10.0f);
    EXPECT_EQ(counts.total(), scanOracle(xs, 10.0f).total());
}
