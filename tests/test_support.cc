/**
 * @file
 * Unit tests for the support library (bits, regression, table,
 * parallel).
 */

#include <atomic>
#include <clocale>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "support/bits.hh"
#include "support/json.hh"
#include "support/parallel.hh"
#include "support/regression.hh"
#include "support/rng.hh"
#include "support/table.hh"

namespace primepar {
namespace {

TEST(Bits, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(-4));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(Bits, Log2Exact)
{
    EXPECT_EQ(log2Exact(1), 0);
    EXPECT_EQ(log2Exact(2), 1);
    EXPECT_EQ(log2Exact(32), 5);
    EXPECT_EQ(log2Exact(1 << 20), 20);
}

TEST(Bits, PositiveMod)
{
    EXPECT_EQ(positiveMod(5, 4), 1);
    EXPECT_EQ(positiveMod(-1, 4), 3);
    EXPECT_EQ(positiveMod(-4, 4), 0);
    EXPECT_EQ(positiveMod(-5, 4), 3);
    EXPECT_EQ(positiveMod(0, 7), 0);
}

TEST(Bits, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(0, 5), 0);
}

TEST(Regression, ExactLine)
{
    // y = 3 + 2x must be recovered exactly.
    std::vector<double> xs{1, 2, 3, 4, 5};
    std::vector<double> ys{5, 7, 9, 11, 13};
    const LinearModel m = fitLinear(xs, ys);
    EXPECT_NEAR(m.intercept, 3.0, 1e-9);
    EXPECT_NEAR(m.slope, 2.0, 1e-9);
    EXPECT_NEAR(rSquared(m, xs, ys), 1.0, 1e-12);
}

TEST(Regression, NoisyLineHighR2)
{
    Rng rng(7);
    std::vector<double> xs, ys;
    for (int i = 1; i <= 50; ++i) {
        xs.push_back(i * 100.0);
        ys.push_back(10.0 + 0.5 * i * 100.0 + rng.uniform(-1.0f, 1.0f));
    }
    const LinearModel m = fitLinear(xs, ys);
    EXPECT_NEAR(m.slope, 0.5, 1e-2);
    EXPECT_GT(rSquared(m, xs, ys), 0.999);
}

TEST(Regression, DegenerateSingleX)
{
    std::vector<double> xs{4, 4, 4};
    std::vector<double> ys{1, 2, 3};
    const LinearModel m = fitLinear(xs, ys);
    EXPECT_NEAR(m.slope, 0.0, 1e-12);
    EXPECT_NEAR(m.intercept, 2.0, 1e-12);
}

TEST(Regression, ClampsNegativePredictions)
{
    LinearModel m{-5.0, 1.0};
    EXPECT_EQ(m(1.0), 0.0);
    EXPECT_NEAR(m(10.0), 5.0, 1e-12);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const float v = rng.uniform(-2.0f, 3.0f);
        EXPECT_GE(v, -2.0f);
        EXPECT_LT(v, 3.0f);
    }
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t;
    t.header({"model", "gpus", "speedup"});
    t.row({"OPT 175B", "32", "1.68"});
    t.row({"Llama2 7B", "4", "1.16"});
    const std::string s = t.render();
    EXPECT_NE(s.find("model"), std::string::npos);
    EXPECT_NE(s.find("OPT 175B"), std::string::npos);
    EXPECT_NE(s.find("1.68"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, FmtDouble)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtDouble(2.0, 0), "2");
}

TEST(Parallel, ResolveNumThreads)
{
    EXPECT_GE(resolveNumThreads(0), 1);
    EXPECT_EQ(resolveNumThreads(0), hardwareConcurrency());
    EXPECT_EQ(resolveNumThreads(3), 3);
    EXPECT_EQ(resolveNumThreads(-2), hardwareConcurrency());
}

TEST(Parallel, ParallelForCoversEveryIndexOnce)
{
    for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.numThreads(), threads);
        std::vector<std::atomic<int>> counts(1000);
        pool.parallelFor(counts.size(),
                         [&](std::size_t i) { counts[i]++; });
        for (const auto &c : counts)
            EXPECT_EQ(c.load(), 1);
    }
}

TEST(Parallel, ResultsIdenticalAcrossThreadCounts)
{
    // One output slot per index: any thread count computes the same
    // values (the planner's determinism contract).
    const auto run = [](int threads) {
        ThreadPool pool(threads);
        std::vector<double> out(257);
        pool.parallelFor(out.size(), [&](std::size_t i) {
            double v = 0.0;
            for (std::size_t j = 0; j <= i; ++j)
                v += 1.0 / (1.0 + static_cast<double>(j));
            out[i] = v;
        });
        return out;
    };
    const auto serial = run(1);
    EXPECT_EQ(serial, run(4));
    EXPECT_EQ(serial, run(16));
}

TEST(Parallel, EmptyAndSingleRanges)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(Parallel, NestedCallsRunInline)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> counts(64);
    pool.parallelFor(8, [&](std::size_t outer) {
        pool.parallelFor(8, [&](std::size_t inner) {
            counts[outer * 8 + inner]++;
        });
    });
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(Parallel, PropagatesExceptions)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
    // The pool survives a throwing loop.
    std::atomic<int> ok{0};
    pool.parallelFor(10, [&](std::size_t) { ok++; });
    EXPECT_EQ(ok.load(), 10);
}

TEST(Parallel, BackToBackTinyLoopsFinishBeforeReturning)
{
    // Each call's completion state lives on the caller's stack. A
    // worker must be done with it before the call returns, or the next
    // call reuses that stack under the still-notifying worker.
    ThreadPool pool(4);
    std::atomic<long> sum{0};
    constexpr long kCalls = 20000;
    for (long call = 0; call < kCalls; ++call)
        pool.parallelFor(4, [&](std::size_t i) {
            sum += static_cast<long>(i) + 1;
        });
    EXPECT_EQ(sum.load(), 10 * kCalls);
}

TEST(Parallel, NullPoolHelperRunsSerially)
{
    std::vector<int> order;
    parallelFor(nullptr, 5, [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
    });
    std::vector<int> expect(5);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
}

// ---------------------------------------------------------------------------
// JSON numbers

namespace {

const double kTrickyDoubles[] = {
    0.0,     1.5,        -2.75,         3.14159265358979312,
    0.1,     1.0 / 3.0,  40766.2,       -6.02214076e23,
    1e-300,  9.3e9,      1234567890.5,  5e-324 /* min subnormal */,
};

/** Serialize and reparse every tricky double, requiring bit-exact
 *  round trips and a '.' (never a locale ',') decimal separator. */
void
expectExactNumberRoundTrip()
{
    for (const double v : kTrickyDoubles) {
        const std::string text = JsonValue(v).toString(0);
        EXPECT_EQ(text.find(','), std::string::npos)
            << "locale-dependent separator in " << text;
        const double back = parseJson(text).asNumber();
        EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
            << text << " reparsed as a different double";
    }
}

/**
 * Activate a ',' decimal-separator locale, compiling one into a
 * scratch directory via localedef (LOCPATH) when the host image has
 * none installed; @p scratch then names that directory, which the
 * caller removes. Returns the empty string when no such locale can be
 * produced.
 */
std::string
activateCommaLocale(std::string &scratch)
{
    const char *candidates[] = {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8",
                                "it_IT.UTF-8"};
    for (const char *name : candidates) {
        if (std::setlocale(LC_ALL, name) &&
            *std::localeconv()->decimal_point == ',')
            return name;
    }
    char dir[] = "/tmp/primepar_locale_XXXXXX";
    if (!::mkdtemp(dir))
        return "";
    scratch = dir;
    const std::string cmd =
        std::string("localedef --no-archive -i de_DE -f UTF-8 ") + dir +
        "/de_DE.UTF-8 > /dev/null 2>&1";
    if (std::system(cmd.c_str()) != 0)
        return "";
    ::setenv("LOCPATH", dir, 1);
    if (std::setlocale(LC_ALL, "de_DE.UTF-8") &&
        *std::localeconv()->decimal_point == ',')
        return "de_DE.UTF-8";
    return "";
}

} // namespace

TEST(Json, NumberRoundTripIsExact)
{
    expectExactNumberRoundTrip();
    // Integral doubles print as integers.
    EXPECT_EQ(JsonValue(32.0).toString(0), "32");
    // A comma is never a number separator on the way in either.
    EXPECT_THROW(parseJson("1,5"), JsonError);
}

TEST(Json, NumbersSurviveCommaDecimalLocale)
{
    // Regression: number I/O used snprintf("%.17g") and std::stod,
    // both locale-sensitive — under de_DE the writer emitted "3,14"
    // (corrupting metrics snapshots, calibration files, and the plan
    // store) and the parser silently truncated "1.5" at the '.'.
    // Back to "C", and any compiled locale's directory removed, when
    // the test ends, skipped or not.
    struct LocaleGuard
    {
        std::string scratch;
        ~LocaleGuard()
        {
            std::setlocale(LC_ALL, "C");
            if (scratch.empty())
                return;
            ::unsetenv("LOCPATH");
            std::error_code ec;
            std::filesystem::remove_all(scratch, ec);
        }
    } guard;
    const std::string loc = activateCommaLocale(guard.scratch);
    if (loc.empty())
        GTEST_SKIP() << "no comma-decimal locale available and "
                        "localedef could not build one";

    ASSERT_EQ(*std::localeconv()->decimal_point, ',')
        << loc << " did not take effect";
    expectExactNumberRoundTrip();
    // The exact de_DE failure modes, spelled out:
    EXPECT_EQ(JsonValue(3.14).toString(0).find(','),
              std::string::npos);
    EXPECT_DOUBLE_EQ(parseJson("1.5").asNumber(), 1.5);
    const JsonValue arr = parseJson("[1.5, -0.25e2]");
    EXPECT_DOUBLE_EQ(arr.items()[0].asNumber(), 1.5);
    EXPECT_DOUBLE_EQ(arr.items()[1].asNumber(), -25.0);
}

} // namespace
} // namespace primepar
