/**
 * Exhaustive tanh check: every tier's vector tanh against std::tanh
 * and against the scalar fdlibm port, on all 2^32 float bit patterns.
 * Results must match bit for bit (NaN payloads included).
 *
 * Takes about a minute on 4 cores, so it is built but not registered
 * with ctest; scripts/verify.sh runs it. Uses one thread per hardware
 * thread. Exits 1 on any mismatch.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "fdlibm_tanhf.hh"
#include "tensor/elementwise.hh"

using namespace primepar;
using primepar::testing::bitsFloat;
using primepar::testing::fdlibmTanhf;
using primepar::testing::floatBits;

namespace {

constexpr std::uint64_t kPatterns = std::uint64_t(1) << 32;
constexpr std::uint32_t kChunk = 1u << 16;

struct Tally
{
    std::atomic<std::uint64_t> vsLibm{0};
    std::atomic<std::uint64_t> vsPort{0};
};

std::mutex print_mutex;
std::atomic<int> printed{0};

void
report(const char *tier, const char *oracle, std::int32_t x_bits,
       float got, float want)
{
    if (printed.fetch_add(1) >= 20)
        return;
    std::lock_guard<std::mutex> lock(print_mutex);
    std::fprintf(stderr,
                 "tanh_exhaustive: %s vs %s at x=0x%08x (%.9g): got "
                 "0x%08x want 0x%08x\n",
                 tier, oracle, static_cast<unsigned>(x_bits),
                 static_cast<double>(bitsFloat(x_bits)),
                 static_cast<unsigned>(floatBits(got)),
                 static_cast<unsigned>(floatBits(want)));
}

} // namespace

int
main()
{
    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());

    std::vector<GemmIsa> tiers;
    for (const GemmIsa isa :
         {GemmIsa::Sse2, GemmIsa::Avx2, GemmIsa::Avx512f}) {
        if (detail::hostSupportsGemmIsa(isa))
            tiers.push_back(isa);
        else
            std::printf("tanh_exhaustive: tier %s skipped (not supported "
                        "by this host)\n",
                        gemmIsaName(isa));
    }
    std::vector<Tally> tally(tiers.size());
    std::atomic<std::uint64_t> port_vs_libm{0};
    std::atomic<std::uint64_t> next{0};

    auto worker = [&] {
        std::vector<float> x(kChunk), want(kChunk), port(kChunk),
            got(kChunk);
        for (;;) {
            const std::uint64_t base = next.fetch_add(kChunk);
            if (base >= kPatterns)
                return;
            for (std::uint32_t i = 0; i < kChunk; ++i) {
                const auto bits = static_cast<std::int32_t>(
                    static_cast<std::uint32_t>(base + i));
                x[i] = bitsFloat(bits);
                want[i] = std::tanh(x[i]);
                port[i] = fdlibmTanhf(x[i]);
                if (floatBits(port[i]) != floatBits(want[i])) {
                    port_vs_libm.fetch_add(1);
                    report("scalar port", "std::tanh", bits, port[i],
                           want[i]);
                }
            }
            for (std::size_t t = 0; t < tiers.size(); ++t) {
                detail::tanhOn(tiers[t], x.data(), got.data(), kChunk);
                for (std::uint32_t i = 0; i < kChunk; ++i) {
                    const std::int32_t g = floatBits(got[i]);
                    if (g != floatBits(want[i])) {
                        tally[t].vsLibm.fetch_add(1);
                        report(gemmIsaName(tiers[t]), "std::tanh",
                               floatBits(x[i]), got[i], want[i]);
                    }
                    if (g != floatBits(port[i])) {
                        tally[t].vsPort.fetch_add(1);
                        report(gemmIsaName(tiers[t]), "scalar port",
                               floatBits(x[i]), got[i], port[i]);
                    }
                }
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();

    bool ok = port_vs_libm.load() == 0;
    std::printf("tanh_exhaustive: %u threads, 2^32 inputs\n", threads);
    std::printf("tanh_exhaustive: scalar port vs std::tanh: %llu "
                "mismatches\n",
                static_cast<unsigned long long>(port_vs_libm.load()));
    for (std::size_t t = 0; t < tiers.size(); ++t) {
        const auto libm = tally[t].vsLibm.load();
        const auto port = tally[t].vsPort.load();
        ok = ok && libm == 0 && port == 0;
        std::printf("tanh_exhaustive: %s: %llu mismatches vs std::tanh, "
                    "%llu vs scalar port\n",
                    gemmIsaName(tiers[t]),
                    static_cast<unsigned long long>(libm),
                    static_cast<unsigned long long>(port));
    }
    std::printf("tanh_exhaustive: %s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
