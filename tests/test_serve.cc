/**
 * @file
 * Serving-layer tests: the PPS1 persistent plan store (round-trip,
 * corruption detection, kill -9 crash safety), the PlanService
 * request flow (store hits, single-flight coalescing, admission), and
 * the daemon + client loopback protocol.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/plan_client.hh"
#include "serve/plan_server.hh"
#include "serve/plan_service.hh"
#include "serve/plan_store.hh"
#include "serve/serve_protocol.hh"

#include "runtime/errors.hh"
#include "runtime/metrics.hh"

using namespace primepar;

namespace {

/** Fresh scratch directory per test, removed with its contents when
 *  the test ends (a forked child that is killed never removes it). */
struct ScratchDir
{
    ScratchDir()
    {
        char tmpl[] = "/tmp/primepar_serve_test.XXXXXX";
        const char *dir = mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        if (dir)
            path = dir;
    }
    ~ScratchDir()
    {
        std::error_code ec;
        if (!path.empty())
            std::filesystem::remove_all(path, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    std::string path;
};

PlanCacheEntry
sampleEntry(double seed)
{
    PlanCacheEntry entry;
    PartitionSeq a;
    a.push(PartitionStep::byDim(0));
    a.push(PartitionStep::byDim(2));
    PartitionSeq b;
    b.push(PartitionStep::pSquare(1));
    b.push(PartitionStep::byDim(1));
    entry.strategies = {a, b};
    // Deliberately awkward doubles: the store must round-trip bits,
    // not decimal renderings.
    entry.layerCost = seed + 0.1;
    entry.totalCost = seed * 3.0 + 1e-7;
    entry.lowerBoundUs = seed / 3.0;
    entry.gapPct = 1.0 / 81.0;
    entry.candidatesTotal = 123456789012345;
    entry.candidatesKept = 42;
    entry.truncated = true;
    return entry;
}

void
expectSameEntry(const PlanCacheEntry &x, const PlanCacheEntry &y)
{
    EXPECT_EQ(x.strategies, y.strategies);
    EXPECT_EQ(0, std::memcmp(&x.layerCost, &y.layerCost,
                             sizeof(double)));
    EXPECT_EQ(0, std::memcmp(&x.totalCost, &y.totalCost,
                             sizeof(double)));
    EXPECT_EQ(0, std::memcmp(&x.lowerBoundUs, &y.lowerBoundUs,
                             sizeof(double)));
    EXPECT_EQ(0, std::memcmp(&x.gapPct, &y.gapPct, sizeof(double)));
    EXPECT_EQ(x.candidatesTotal, y.candidatesTotal);
    EXPECT_EQ(x.candidatesKept, y.candidatesKept);
    EXPECT_EQ(x.truncated, y.truncated);
}

} // namespace

TEST(PlanStore, RoundTripsEntriesBitExactly)
{
    const ScratchDir scratch;
    const std::string path = scratch.path + "/plans.pps";
    PlanStoreBuilder builder;
    builder.put("key-a", sampleEntry(1.0));
    builder.put("key-b", sampleEntry(2.5));
    PlanCacheEntry empty; // no strategies at all must also survive
    builder.put("key-empty", empty);
    std::string error;
    ASSERT_TRUE(builder.save(path, 7, &error)) << error;

    const PlanStore store = PlanStore::load(path, &error);
    ASSERT_TRUE(store.valid()) << error;
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(store.generation(), 7u);

    const auto a = store.find("key-a");
    ASSERT_NE(a, nullptr);
    expectSameEntry(*a, sampleEntry(1.0));
    const auto b = store.find("key-b");
    ASSERT_NE(b, nullptr);
    expectSameEntry(*b, sampleEntry(2.5));
    const auto e = store.find("key-empty");
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->strategies.empty());
    EXPECT_EQ(store.find("key-missing"), nullptr);

    // entries() must reproduce everything (the merge-rewrite path).
    EXPECT_EQ(store.entries().size(), 3u);
}

TEST(PlanStore, IdenticalContentsSerializeToIdenticalBytes)
{
    PlanStoreBuilder one, two;
    // Insertion order must not matter: keys are sorted on write.
    one.put("alpha", sampleEntry(1.0));
    one.put("beta", sampleEntry(2.0));
    two.put("beta", sampleEntry(2.0));
    two.put("alpha", sampleEntry(1.0));
    EXPECT_EQ(one.serialize(3), two.serialize(3));
}

TEST(PlanStore, MissingFileLoadsAsEmptyFirstBootStore)
{
    const ScratchDir scratch;
    std::string error;
    const PlanStore store =
        PlanStore::load(scratch.path + "/never-written.pps", &error);
    EXPECT_TRUE(store.valid()) << error;
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.generation(), 0u);
}

TEST(PlanStore, DetectsCorruptionTruncationAndBadMagic)
{
    const ScratchDir scratch;
    const std::string &dir = scratch.path;
    const std::string path = dir + "/plans.pps";
    PlanStoreBuilder builder;
    builder.put("key-a", sampleEntry(1.0));
    std::string error;
    ASSERT_TRUE(builder.save(path, 1, &error)) << error;
    std::ifstream in(path, std::ios::binary);
    std::vector<char> image((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();

    auto writeVariant = [&](const std::vector<char> &bytes) {
        const std::string p = dir + "/variant.pps";
        std::ofstream out(p, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        out.close();
        return p;
    };

    // One flipped payload byte: the checksum must catch it.
    std::vector<char> corrupt = image;
    corrupt[corrupt.size() - 9] ^= 0x40;
    EXPECT_FALSE(PlanStore::load(writeVariant(corrupt), &error)
                     .valid());
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;

    // A file cut mid-record must be rejected, not misread.
    std::vector<char> truncated(image.begin(),
                                image.begin() + image.size() / 2);
    EXPECT_FALSE(PlanStore::load(writeVariant(truncated), &error)
                     .valid());
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;

    // Wrong magic: not a PPS1 file at all.
    std::vector<char> badMagic = image;
    badMagic[0] = 'X';
    EXPECT_FALSE(PlanStore::load(writeVariant(badMagic), &error)
                     .valid());
    EXPECT_NE(error.find("magic"), std::string::npos) << error;

    // Future format version: refuse, name both versions.
    std::vector<char> badVersion = image;
    badVersion[4] = 99;
    EXPECT_FALSE(PlanStore::load(writeVariant(badVersion), &error)
                     .valid());
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

// kill -9 at an arbitrary point of a rewrite must leave a loadable
// store: either the previous generation or a complete new one —
// never a torn file. The child rewrites the store as fast as it can;
// the parent kills it mid-flight and then loads whatever survived.
TEST(PlanStore, SigkillMidSaveLeavesLoadableStore)
{
    const ScratchDir scratch;
    const std::string path = scratch.path + "/plans.pps";
    PlanStoreBuilder builder;
    for (int i = 0; i < 64; ++i)
        builder.put("key-" + std::to_string(i),
                    sampleEntry(static_cast<double>(i)));
    std::string error;
    ASSERT_TRUE(builder.save(path, 1, &error)) << error;

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: rewrite the store in a hot loop until killed.
        for (std::uint64_t gen = 2;; ++gen)
            builder.save(path, gen, nullptr);
    }
    usleep(20 * 1000); // let several rewrites (and one mid-write) run
    ASSERT_EQ(kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));

    const PlanStore store = PlanStore::load(path, &error);
    ASSERT_TRUE(store.valid()) << error;
    EXPECT_EQ(store.size(), 64u);
    EXPECT_GE(store.generation(), 1u);
    const auto entry = store.find("key-13");
    ASSERT_NE(entry, nullptr);
    expectSameEntry(*entry, sampleEntry(13.0));
}

TEST(ServeProtocol, RequestAndResponseRoundTripThroughJson)
{
    PlanRequest req;
    req.model = "OPT 6.7B";
    req.devices = 64;
    req.batch = 16;
    req.layers = 3;
    req.alpha = 0.25;
    req.psquare = false;
    req.batchDim = false;
    req.beamWidth = 12;
    req.maxTemporalSteps = 4;
    const PlanRequest back = PlanRequest::fromJson(req.toJson());
    EXPECT_EQ(back.model, req.model);
    EXPECT_EQ(back.devices, req.devices);
    EXPECT_EQ(back.batch, req.batch);
    EXPECT_EQ(back.layers, req.layers);
    EXPECT_EQ(back.alpha, req.alpha);
    EXPECT_EQ(back.psquare, req.psquare);
    EXPECT_EQ(back.batchDim, req.batchDim);
    EXPECT_EQ(back.beamWidth, req.beamWidth);
    EXPECT_EQ(back.maxTemporalSteps, req.maxTemporalSteps);

    PlanResponse resp;
    resp.ok = true;
    resp.source = "store";
    PartitionSeq seq;
    seq.push(PartitionStep::byDim(1));
    seq.push(PartitionStep::pSquare(2));
    resp.strategies = {seq};
    resp.strategyText = {"M,P4x4"};
    resp.layerCostUs = 1234.5;
    resp.totalCostUs = 98765.4321;
    resp.gapPct = 0.5;
    resp.truncated = true;
    resp.serverUs = 42.0;
    const PlanResponse rback = PlanResponse::fromJson(resp.toJson());
    EXPECT_TRUE(rback.ok);
    EXPECT_EQ(rback.source, "store");
    EXPECT_EQ(rback.strategies, resp.strategies);
    EXPECT_EQ(rback.strategyText, resp.strategyText);
    EXPECT_EQ(rback.layerCostUs, resp.layerCostUs);
    EXPECT_EQ(rback.totalCostUs, resp.totalCostUs);
    EXPECT_TRUE(rback.truncated);
}

TEST(ServeProtocol, ValidateRejectsMalformedRequests)
{
    PlanRequest req;
    req.devices = 3;
    EXPECT_THROW(req.validate(), InputError);
    req.devices = 8;
    req.model = "No Such Model 1T";
    EXPECT_THROW(req.validate(), InputError);
    req.model = "OPT 6.7B";
    req.maxTemporalSteps = 3;
    EXPECT_THROW(req.validate(), InputError);
    req.maxTemporalSteps = 4;
    EXPECT_NO_THROW(req.validate());
}

TEST(ServeProtocol, ValidateRejectsBatchesPastThePricingLanes)
{
    // Every edge tensor's batch dim passes INT32_MAX.
    PlanRequest wide;
    wide.model = "OPT 6.7B";
    wide.devices = 2;
    wide.batch = std::int64_t{1} << 31;
    try {
        wide.validate();
        ADD_FAILURE() << "batch 2^31 accepted";
    } catch (const InputError &e) {
        EXPECT_NE(std::string(e.what()).find("past the int32 lanes"),
                  std::string::npos)
            << e.what();
    }

    // The attention scores [b, 64, 4096, 4096] on 512 devices reach
    // 2^53 elements at batch 16384.
    PlanRequest deep;
    deep.model = "Llama2 70B";
    deep.devices = 512;
    deep.batch = 16384;
    try {
        deep.validate();
        ADD_FAILURE() << "2^53 device elements accepted";
    } catch (const InputError &e) {
        EXPECT_NE(std::string(e.what()).find("reach 2^53"),
                  std::string::npos)
            << e.what();
    }
    deep.batch = 16383;
    EXPECT_NO_THROW(deep.validate());
}

namespace {

PlanRequest
tinyRequest()
{
    PlanRequest req;
    req.model = "Llama2 7B";
    req.devices = 2;
    req.batch = 2;
    req.layers = 2;
    return req;
}

} // namespace

TEST(PlanService, PersistsPlansAcrossServiceInstances)
{
    const ScratchDir scratch;
    const std::string path = scratch.path + "/plans.pps";
    PlanServiceOptions opts;
    opts.storePath = path;

    PlanResponse cold;
    {
        PlanService service(opts);
        cold = service.plan(tinyRequest());
        ASSERT_TRUE(cold.ok) << cold.error;
        EXPECT_EQ(cold.source, "dp");
        // Same instance, same key: the in-process layers answer now.
        const PlanResponse again = service.plan(tinyRequest());
        ASSERT_TRUE(again.ok);
        EXPECT_EQ(again.source, "store");
    }

    // A brand-new service knows the plan only through the mmap'd file.
    PlanService fresh(opts);
    EXPECT_EQ(fresh.storeSize(), 1u);
    const PlanResponse warm = fresh.plan(tinyRequest());
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.source, "store");
    EXPECT_EQ(warm.strategies, cold.strategies);
    EXPECT_EQ(0, std::memcmp(&warm.layerCostUs, &cold.layerCostUs,
                             sizeof(double)));
    EXPECT_EQ(0, std::memcmp(&warm.totalCostUs, &cold.totalCostUs,
                             sizeof(double)));
}

// Without a store (or with one that cannot be written) a repeat is
// answered by the finished flight kept in memory, not by a second DP.
TEST(PlanService, AnswersRepeatsFromMemory)
{
    {
        PlanService service(PlanServiceOptions{});
        const PlanResponse cold = service.plan(tinyRequest());
        ASSERT_TRUE(cold.ok) << cold.error;
        EXPECT_EQ(cold.source, "dp");
        const PlanResponse again = service.plan(tinyRequest());
        ASSERT_TRUE(again.ok) << again.error;
        EXPECT_EQ(again.source, "cache");
        EXPECT_EQ(again.strategies, cold.strategies);
        EXPECT_EQ(0, std::memcmp(&again.layerCostUs, &cold.layerCostUs,
                                 sizeof(double)));
        MetricsRegistry &metrics = service.metricsRegistry();
        EXPECT_EQ(metrics.counter("serve.dp_runs"), 1);
        EXPECT_EQ(metrics.counter("serve.cache_hits"), 1);
    }

    // A store in a directory that does not exist: the publish fails,
    // and the plan is still served from memory.
    const ScratchDir scratch;
    PlanServiceOptions opts;
    opts.storePath = scratch.path + "/missing/plans.pps";
    PlanService service(opts);
    const PlanResponse cold = service.plan(tinyRequest());
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.source, "dp");
    MetricsRegistry &metrics = service.metricsRegistry();
    EXPECT_EQ(metrics.counter("serve.store_write_failures"), 1);
    const PlanResponse again = service.plan(tinyRequest());
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.source, "cache");
    EXPECT_EQ(again.strategies, cold.strategies);
    EXPECT_EQ(metrics.counter("serve.dp_runs"), 1);
}

// The single-flight core: many threads asking for the same key must
// cost exactly one DP run, and every waiter must get the identical
// plan. Distinct keys each get their own run, throttled through the
// admission slots.
TEST(PlanService, SingleFlightCoalescesIdenticalConcurrentRequests)
{
    const ScratchDir scratch;
    const std::string path = scratch.path + "/plans.pps";
    PlanServiceOptions opts;
    opts.storePath = path;
    opts.dpSlots = 1; // also exercises admission under contention
    PlanService service(opts);

    constexpr int kSameKey = 6;
    constexpr int kDistinct = 2;
    std::vector<PlanResponse> same(kSameKey);
    std::vector<PlanResponse> distinct(kDistinct);
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int i = 0; i < kSameKey; ++i) {
        threads.emplace_back([&, i] {
            ++ready;
            while (!go.load())
                std::this_thread::yield();
            same[i] = service.plan(tinyRequest());
        });
    }
    for (int i = 0; i < kDistinct; ++i) {
        threads.emplace_back([&, i] {
            ++ready;
            while (!go.load())
                std::this_thread::yield();
            PlanRequest req = tinyRequest();
            req.batch = 4 << i; // a different cache key per thread
            distinct[i] = service.plan(req);
        });
    }
    while (ready.load() < kSameKey + kDistinct)
        std::this_thread::yield();
    go = true;
    for (std::thread &t : threads)
        t.join();

    for (const PlanResponse &r : same) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.strategies, same[0].strategies);
        EXPECT_EQ(0,
                  std::memcmp(&r.layerCostUs, &same[0].layerCostUs,
                              sizeof(double)));
    }
    for (const PlanResponse &r : distinct)
        ASSERT_TRUE(r.ok) << r.error;

    // Exactly one DP per unique key: 1 shared + kDistinct.
    MetricsRegistry &metrics = service.metricsRegistry();
    EXPECT_EQ(metrics.counter("serve.dp_runs"), 1 + kDistinct);
    EXPECT_EQ(metrics.counter("serve.requests"),
              kSameKey + kDistinct);
    EXPECT_EQ(metrics.counter("serve.errors"), 0);
    // The store now holds every unique plan.
    EXPECT_EQ(service.storeSize(),
              static_cast<std::size_t>(1 + kDistinct));
}

TEST(PlanService, InvalidRequestsFailCleanlyWithoutTakingTheService)
{
    PlanServiceOptions opts; // no store: in-memory only
    PlanService service(opts);
    PlanRequest bad = tinyRequest();
    bad.devices = 6;
    const PlanResponse resp = service.plan(bad);
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.error.find("power of two"), std::string::npos)
        << resp.error;
    EXPECT_EQ(service.metricsRegistry().counter("serve.errors"), 1);
    // The service still answers good requests afterwards.
    const PlanResponse good = service.plan(tinyRequest());
    EXPECT_TRUE(good.ok) << good.error;
}

TEST(PlanServer, RefusesUnpriceableBatchesAndKeepsServing)
{
    PlanServerOptions opts; // no store: in-memory only
    PlanServer server(opts);
    ASSERT_GT(server.port(), 0);
    PlanClient client("127.0.0.1", server.port());

    PlanRequest huge;
    huge.model = "OPT 6.7B";
    huge.devices = 2;
    huge.batch = std::int64_t{1} << 31;
    const PlanResponse refused = client.plan(huge);
    EXPECT_FALSE(refused.ok);
    EXPECT_NE(refused.error.find("past the int32 lanes"), std::string::npos)
        << refused.error;

    // The daemon is still up and plans the next request.
    EXPECT_TRUE(client.ping());
    const PlanResponse good = client.plan(tinyRequest());
    EXPECT_TRUE(good.ok) << good.error;
    EXPECT_TRUE(client.shutdown());
    EXPECT_TRUE(server.waitForShutdown(5000));
    server.stop();
}

TEST(PlanServer, ServesPlansStatsAndShutdownOverLoopback)
{
    const ScratchDir scratch;
    const std::string path = scratch.path + "/plans.pps";
    PlanServerOptions opts;
    opts.service.storePath = path;
    PlanServer server(opts);
    ASSERT_GT(server.port(), 0);

    PlanClient client("127.0.0.1", server.port());
    EXPECT_TRUE(client.ping());

    const PlanResponse cold = client.plan(tinyRequest());
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.source, "dp");

    // Second identical request: answered from the persistent store,
    // bit-identical to the cold plan.
    const PlanResponse warm = client.plan(tinyRequest());
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.source, "store");
    EXPECT_EQ(warm.strategies, cold.strategies);

    // A malformed request comes back as a clean refusal.
    PlanRequest bad = tinyRequest();
    bad.devices = 5;
    const PlanResponse refused = client.plan(bad);
    EXPECT_FALSE(refused.ok);
    EXPECT_FALSE(refused.error.empty());

    // Stats carry the serve counters and the latency histogram.
    const JsonValue stats = client.stats();
    const JsonValue &counters = stats.at("counters");
    EXPECT_EQ(counters.at("serve.requests").asNumber(), 3);
    EXPECT_EQ(counters.at("serve.store_hits").asNumber(), 1);
    EXPECT_EQ(counters.at("serve.dp_runs").asNumber(), 1);
    EXPECT_NE(stats.at("histograms").find("serve.request_us"),
              nullptr);
    EXPECT_EQ(stats.at("plan_store").at("entries").asNumber(), 1);

    // A second client sees the same daemon (and shuts it down).
    PlanClient other("127.0.0.1", server.port());
    EXPECT_TRUE(other.shutdown());
    EXPECT_TRUE(server.waitForShutdown(5000));
    server.stop();
}
