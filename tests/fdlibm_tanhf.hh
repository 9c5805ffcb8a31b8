/**
 * @file
 * Scalar single-precision fdlibm tanhf/expm1f (the algorithm glibc
 * 2.36 ships), written out here so the elementwise-kernel tests have
 * an oracle that does not depend on the host libm. Include only from
 * TUs built with -ffp-contract=off: a fused multiply-add would change
 * the bits this port exists to pin.
 */

#ifndef PRIMEPAR_TESTS_FDLIBM_TANHF_HH
#define PRIMEPAR_TESTS_FDLIBM_TANHF_HH

#include <cstdint>
#include <cstring>
#include <limits>

namespace primepar::testing {

inline std::int32_t
floatBits(float x)
{
    std::int32_t i;
    std::memcpy(&i, &x, sizeof(i));
    return i;
}

inline float
bitsFloat(std::int32_t i)
{
    float x;
    std::memcpy(&x, &i, sizeof(x));
    return x;
}

inline float
fdlibmExpm1f(float x)
{
    const float one = 1.0f, tiny = 1.0e-30f;
    const float o_threshold = 8.8721679688e+01f;
    const float ln2_hi = 6.9313812256e-01f, ln2_lo = 9.0580006145e-06f;
    const float invln2 = 1.4426950216e+00f;
    const float Q1 = -3.3333335072e-02f, Q2 = 1.5873016091e-03f,
                Q3 = -7.9365076090e-05f, Q4 = 4.0082177293e-06f,
                Q5 = -2.0109921195e-07f;

    float y, hi, lo, c = 0.0f, t, e, hxs, hfx, r1;
    std::int32_t k;
    std::uint32_t hx = static_cast<std::uint32_t>(floatBits(x));
    const std::uint32_t xsb = hx & 0x80000000u;
    hx &= 0x7fffffffu;

    if (hx >= 0x4195b844u) { // |x| >= 27 ln2
        if (hx >= 0x42b17218u) {
            if (hx > 0x7f800000u)
                return x + x; // NaN
            if (hx == 0x7f800000u)
                return xsb == 0 ? x : -1.0f;
            if (x > o_threshold)
                return std::numeric_limits<float>::infinity();
        }
        if (xsb != 0)
            return tiny - one;
    }

    if (hx > 0x3eb17218u) { // |x| > 0.5 ln2
        if (hx < 0x3F851592u) { // and |x| < 1.5 ln2
            if (xsb == 0) {
                hi = x - ln2_hi;
                lo = ln2_lo;
                k = 1;
            } else {
                hi = x + ln2_hi;
                lo = -ln2_lo;
                k = -1;
            }
        } else {
            k = static_cast<std::int32_t>(invln2 * x +
                                          (xsb == 0 ? 0.5f : -0.5f));
            t = static_cast<float>(k);
            hi = x - t * ln2_hi;
            lo = t * ln2_lo;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if (hx < 0x33000000u) { // |x| < 2^-25
        return x;
    } else {
        k = 0;
    }

    hfx = 0.5f * x;
    hxs = x * hfx;
    r1 = one + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    t = 3.0f - r1 * hfx;
    e = hxs * ((r1 - t) / (6.0f - x * t));
    if (k == 0)
        return x - (x * e - hxs);
    e = (x * (e - c) - c);
    e -= hxs;
    if (k == -1)
        return 0.5f * (x - e) - 0.5f;
    if (k == 1) {
        if (x < -0.25f)
            return -2.0f * (e - (x + 0.5f));
        return one + 2.0f * (x - e);
    }
    // Exponent adds go through uint32_t: k may be negative.
    const std::uint32_t k_exp = static_cast<std::uint32_t>(k) << 23;
    if (k <= -2 || k > 56) {
        y = one - (e - x);
        return bitsFloat(static_cast<std::int32_t>(
                   static_cast<std::uint32_t>(floatBits(y)) + k_exp)) -
               one;
    }
    if (k < 23) {
        t = bitsFloat(0x3f800000 - (0x1000000 >> k)); // 1 - 2^-k
        y = t - (e - x);
    } else {
        t = bitsFloat((0x7f - k) << 23); // 2^-k
        y = x - (e + t);
        y += one;
    }
    return bitsFloat(static_cast<std::int32_t>(
        static_cast<std::uint32_t>(floatBits(y)) + k_exp));
}

inline float
fdlibmTanhf(float x)
{
    const float one = 1.0f, two = 2.0f, tiny = 1.0e-30f;
    const std::int32_t jx = floatBits(x);
    const std::int32_t ix = jx & 0x7fffffff;
    float t, z;

    if (ix >= 0x7f800000) // inf or NaN
        return jx >= 0 ? one / x + one : one / x - one;

    if (ix < 0x41b00000) { // |x| < 22
        if (ix == 0)
            return x;
        if (ix < 0x24000000) // |x| < 2^-55
            return x * (one + x);
        if (ix >= 0x3f800000) { // |x| >= 1
            t = fdlibmExpm1f(two * (x < 0 ? -x : x));
            z = one - two / (t + two);
        } else {
            t = fdlibmExpm1f(-two * (x < 0 ? -x : x));
            z = -t / (t + two);
        }
    } else {
        z = one - tiny;
    }
    return jx >= 0 ? z : -z;
}

} // namespace primepar::testing

#endif // PRIMEPAR_TESTS_FDLIBM_TANHF_HH
