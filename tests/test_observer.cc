/**
 * @file
 * Tests of the runtime event path: span emission from the real
 * executor, RuntimeHealth's fan-out to its observers, metrics
 * determinism across thread counts, the NaN/Inf guard, trainer-level
 * milestones, health and metrics counting each event once,
 * calibration JSON round-trips, and the nested runtime options.
 */

#include <atomic>
#include <cmath>

#include <gtest/gtest.h>

#include "cost/calibration.hh"
#include "cost/profiler.hh"
#include "graph/transformer.hh"
#include "runtime/metrics.hh"
#include "runtime/observer.hh"
#include "runtime/spmd_executor.hh"
#include "runtime/trainer.hh"
#include "runtime/transport.hh"
#include "support/json.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "topology/cluster.hh"

namespace primepar {
namespace {

std::map<std::string, Tensor>
linearInputs(Rng &rng)
{
    return {
        {"I", Tensor::random(Shape{2, 8, 8}, rng)},
        {"W", Tensor::random(Shape{8, 8}, rng)},
        {"dO", Tensor::random(Shape{2, 8, 8}, rng)},
    };
}

/** Counts every callback; used to test fan-out and coverage. */
struct CountingObserver : RuntimeObserver
{
    int stepBegins = 0, stepEnds = 0, transfers = 0;
    int faults = 0, rollbacks = 0, tensors = 0, checkpoints = 0;
    /** onSpan may arrive concurrently (compute pool, comm worker). */
    std::atomic<int> spans{0};

    void onStepBegin(std::int64_t) override { ++stepBegins; }
    void onStepEnd(std::int64_t, double) override { ++stepEnds; }
    void
    onSpan(std::int64_t, SpanKind, const std::string &, double,
           double) override
    {
        ++spans;
    }
    void
    onTransfer(const TransferTag &, std::int64_t, std::int64_t, int,
               double) override
    {
        ++transfers;
    }
    void onFault(const FaultEvent &) override { ++faults; }
    void onRollback(std::int64_t) override { ++rollbacks; }
    void
    onTensorProduced(const std::string &, std::int64_t,
                     const Tensor &) override
    {
        ++tensors;
    }
    void onCheckpoint(bool, std::int64_t, double) override
    {
        ++checkpoints;
    }
};

TEST(Observer, ExecutorEmitsSpansOfEveryRuntimeKind)
{
    const OpSpec op = makeLinearOp("fc", 2, 8, 8, 8);
    Rng rng(7);
    const auto inputs = linearInputs(rng);

    TracingObserver tracer;
    RuntimeHealth health;
    health.addObserver(&tracer);
    InProcessTransport transport;
    SpmdOpExecutor exec(op, parseSequence(op, "P2x2"), 2);
    exec.setTransport(&transport);
    exec.setHealth(&health);
    (void)exec.run(inputs);
    // A contracted split all-reduces the partial outputs (PSquare
    // instead migrates accumulators, so it emits no AllReduce span).
    SpmdOpExecutor split(op, parseSequence(op, "N,N"), 2);
    split.setTransport(&transport);
    split.setHealth(&health);
    (void)split.run(inputs);

    const Trace trace = tracer.snapshot();
    bool compute = false, ring = false, allreduce = false,
         redist = false;
    for (const auto &s : trace.spans()) {
        EXPECT_GE(s.endUs, s.startUs);
        EXPECT_GE(s.startUs, 0.0); // normalized to the observer base
        compute |= s.kind == SpanKind::Compute;
        ring |= s.kind == SpanKind::Ring;
        allreduce |= s.kind == SpanKind::AllReduce;
        redist |= s.kind == SpanKind::Redist;
    }
    EXPECT_TRUE(compute);
    EXPECT_TRUE(ring);      // PSquare shifts I and W each step
    EXPECT_TRUE(allreduce); // contracted split merges partial sums
    EXPECT_TRUE(redist);    // input scatter

    // The recording exports as valid Chrome-trace JSON and as the
    // per-kind summary.
    const JsonValue doc = parseJson(trace.toChromeJson());
    EXPECT_TRUE(doc.isArray());
    EXPECT_GT(doc.items().size(), 0u);
    const std::string summary = trace.summary();
    EXPECT_NE(summary.find("compute"), std::string::npos);
}

TEST(Observer, ChainFansOutToEveryMember)
{
    // RuntimeHealth is the one fan-out: each event method forwards its
    // callback to every attached observer.
    CountingObserver a, b;
    RuntimeHealth health;
    EXPECT_FALSE(health.observed());
    health.addObserver(&a);
    health.addObserver(&b);
    health.addObserver(nullptr); // ignored
    EXPECT_TRUE(health.observed());

    health.stepBegan(0);
    health.stepEnded(0, health.clockUs());
    health.span(0, SpanKind::Compute, "x", 0.0, 1.0);
    health.transferred(TransferTag{}, 64, 64, 1, health.clockUs());
    health.faultDetected(&RuntimeHealth::dropsDetected, FaultEvent{});
    health.rolledBack(FaultEvent{});
    Tensor t(Shape{1});
    health.tensorProduced("x", 0, t);
    health.checkpointed(true, 0, health.clockUs());

    for (const CountingObserver *o : {&a, &b}) {
        EXPECT_EQ(o->stepBegins, 1);
        EXPECT_EQ(o->stepEnds, 1);
        EXPECT_EQ(o->spans.load(), 1);
        EXPECT_EQ(o->transfers, 1);
        EXPECT_EQ(o->faults, 1);
        EXPECT_EQ(o->rollbacks, 1);
        EXPECT_EQ(o->tensors, 1);
        EXPECT_EQ(o->checkpoints, 1);
    }

    // Each event is counted once; reset() clears the counters and the
    // log but keeps the observers and the guard.
    EXPECT_EQ(health.transfers, 1);
    EXPECT_EQ(health.bytesMoved, 64);
    EXPECT_EQ(health.dropsDetected, 1);
    EXPECT_EQ(health.stepRollbacks, 1);
    EXPECT_EQ(health.events().size(), 2u);
    health.guard.enabled = false;
    health.reset();
    EXPECT_EQ(health.transfers, 0);
    EXPECT_EQ(health.stepRollbacks, 0);
    EXPECT_TRUE(health.events().empty());
    EXPECT_TRUE(health.observed());
    EXPECT_FALSE(health.guard.enabled);
}

TEST(Observer, MetricsCountersAreThreadCountInvariant)
{
    const OpSpec op = makeLinearOp("fc", 2, 8, 8, 8);
    const PartitionSeq seq = parseSequence(op, "P2x2");

    auto countersAt = [&](int threads) {
        Rng rng(11);
        const auto inputs = linearInputs(rng);
        MetricsRegistry registry;
        MetricsObserver metrics(&registry);
        RuntimeHealth health;
        health.addObserver(&metrics);
        InProcessTransport transport({}, nullptr, &health);
        ThreadPool pool(threads);
        SpmdOpExecutor exec(op, seq, 2);
        exec.setTransport(&transport);
        if (threads > 1)
            exec.setThreadPool(&pool);
        exec.setHealth(&health);
        (void)exec.run(inputs);
        return registry.counters();
    };

    const auto serial = countersAt(1);
    const auto parallel = countersAt(4);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel); // exact map equality, value by value
    EXPECT_GT(serial.at("spans.compute"), 0);
    EXPECT_GT(serial.at("transport.transfers"), 0);
    EXPECT_GT(serial.at("transport.bytes"), 0);
    EXPECT_GT(serial.at("anomalies.scans"), 0);
}

TEST(Observer, GuardStillFeedsRuntimeHealthThroughSetHealth)
{
    const OpSpec op = makeLinearOp("fc", 2, 8, 8, 8);
    Rng rng(13);
    auto inputs = linearInputs(rng);
    inputs.at("I").data()[0] = std::nanf("");

    RuntimeHealth health;
    SpmdOpExecutor exec(op, parseSequence(op, "P2x2"), 2);
    exec.setHealth(&health);
    (void)exec.run(inputs);

    EXPECT_GT(health.anomalies.nan, 0);
    EXPECT_FALSE(health.allClear());
}

TEST(Observer, MetricsSnapshotIsValidVersionedJson)
{
    MetricsRegistry registry;
    registry.add("steps", 3);
    registry.observe("step.latency_us", 1500.0);
    registry.observe("step.latency_us", 2500.0);

    const JsonValue doc = parseJson(registry.snapshotJson().toString());
    EXPECT_EQ(doc.at("schema").asString(), "primepar-metrics-v1");
    EXPECT_EQ(doc.at("counters").at("steps").asNumber(), 3.0);
    const JsonValue &hist =
        doc.at("histograms").at("step.latency_us");
    EXPECT_EQ(hist.at("count").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(hist.at("sum").asNumber(), 4000.0);
    EXPECT_TRUE(doc.at("buffer_pool").isObject());
}

TEST(Observer, HistogramPercentilesAreOrdered)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));
    EXPECT_EQ(h.count(), 1000);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    const double p50 = h.percentile(50.0);
    const double p90 = h.percentile(90.0);
    const double p99 = h.percentile(99.0);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_LE(p99, 1000.0 + 1e-9);
    EXPECT_GT(p50, 0.0);
}

TEST(Observer, TrainerReportsStepsAndCheckpoints)
{
    ModelConfig cfg;
    cfg.name = "tiny";
    cfg.hiddenSize = 8;
    cfg.numHeads = 2;
    cfg.ffnSize = 16;
    cfg.seqLength = 4;
    cfg.numLayers = 1;

    TrainerOptions opts;
    opts.model = cfg;
    opts.batch = 2;
    opts.runtime.numBits = 2;
    opts.runtime.checkpoint.path =
        testing::TempDir() + "observer_ck.ppck";
    opts.runtime.checkpoint.every = 2;

    MetricsRegistry registry;
    MetricsObserver metrics(&registry);
    CountingObserver counting;
    BlockTrainer trainer(opts);
    trainer.addObserver(&metrics);
    trainer.addObserver(&counting);
    for (int s = 0; s < 2; ++s)
        (void)trainer.trainStep();

    EXPECT_EQ(registry.counter("steps"), 2);
    EXPECT_EQ(registry.counter("checkpoint.saves"), 1);
    EXPECT_EQ(counting.stepBegins, 2);
    EXPECT_EQ(counting.stepEnds, 2);
    EXPECT_EQ(counting.checkpoints, 1);
    EXPECT_GT(counting.spans.load(), 0); // executor spans reach it
    EXPECT_GT(counting.transfers, 0); // transport events reach it too
    const Histogram *lat = registry.histogram("step.latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count(), 2);
}

TEST(Observer, HealthAndMetricsCountEveryEventOnce)
{
    // RuntimeHealth counts each event and forwards it to the metrics
    // observer, so the two sinks must agree counter by counter — also
    // under retries and a step rollback.
    TrainerOptions opts;
    opts.model.name = "tiny";
    opts.model.hiddenSize = 8;
    opts.model.numHeads = 2;
    opts.model.ffnSize = 16;
    opts.model.seqLength = 4;
    opts.model.numLayers = 1;
    opts.batch = 2;
    opts.runtime.numBits = 2;
    // corrupt fires == maxAttempts: one transfer exhausts its budget.
    opts.runtime.faults =
        FaultSpec::parse("drop=0.05,corrupt@step=1:dev=1:fires=4");

    MetricsRegistry registry;
    MetricsObserver metrics(&registry);
    BlockTrainer trainer(opts);
    trainer.addObserver(&metrics);
    for (int s = 0; s < 3; ++s)
        (void)trainer.trainStep();

    const RuntimeHealth &h = trainer.health();
    EXPECT_EQ(h.transfers, registry.counter("transport.transfers"));
    EXPECT_EQ(h.bytesMoved, registry.counter("transport.bytes"));
    EXPECT_EQ(h.bytesOnWire, registry.counter("transport.wire_bytes"));
    EXPECT_EQ(h.stepRollbacks, registry.counter("executor.rollbacks"));
    EXPECT_EQ(h.dropsDetected + h.corruptionsDetected +
                  h.headerMismatches + h.stragglers + h.deviceFailures,
              registry.counter("faults.detected"));
    EXPECT_GE(h.stepRollbacks, 1);
    EXPECT_GE(h.retries, 1);
    EXPECT_GE(registry.counter("faults.detected"), 1);
    EXPECT_GT(h.transfers, 0);
}

TEST(Observer, CalibrationJsonRoundTripsExactly)
{
    const auto topo = ClusterTopology::paperCluster(8);
    const ProfiledModels models = profileModels(topo);
    CalibrationInfo info;
    info.source = "simulator";
    info.r2["matmul_kernel"] = 0.998;

    CalibrationInfo back_info;
    const ProfiledModels back = profiledModelsFromJson(
        parseJson(profiledModelsToJson(models, &info).toString()),
        &back_info);

    EXPECT_EQ(back.matmulKernel.intercept, models.matmulKernel.intercept);
    EXPECT_EQ(back.matmulKernel.slope, models.matmulKernel.slope);
    EXPECT_EQ(back.memoryKernel.slope, models.memoryKernel.slope);
    EXPECT_EQ(back.ringHop[0].slope, models.ringHop[0].slope);
    EXPECT_EQ(back.ringHop[1].slope, models.ringHop[1].slope);
    EXPECT_EQ(back.redistribution[1].slope,
              models.redistribution[1].slope);
    ASSERT_EQ(back.allReduce.size(), models.allReduce.size());
    for (const auto &[key, model] : models.allReduce) {
        const auto it = back.allReduce.find(key);
        ASSERT_NE(it, back.allReduce.end());
        EXPECT_EQ(it->second.intercept, model.intercept);
        EXPECT_EQ(it->second.slope, model.slope);
    }
    EXPECT_EQ(back_info.source, "simulator");
    EXPECT_DOUBLE_EQ(back_info.r2.at("matmul_kernel"), 0.998);
}

TEST(Observer, CalibrationRejectsForeignSchemas)
{
    EXPECT_THROW(profiledModelsFromJson(
                     parseJson("{\"schema\": \"other-v9\"}")),
                 CalibrationError);
    EXPECT_THROW(profiledModelsFromJson(parseJson("{}")),
                 CalibrationError);
    EXPECT_THROW(profiledModelsFromJson(parseJson("[1, 2]")),
                 CalibrationError);
}

TEST(Observer, NestedRuntimeOptionsCarryEverySection)
{
    TrainerOptions opts;
    opts.runtime.numBits = 3;
    opts.runtime.execution.numThreads = 4;
    opts.runtime.execution.overlapComm = false;
    opts.runtime.checkpoint.path = "ck.ppck";
    opts.runtime.checkpoint.every = 5;
    opts.runtime.checkpoint.maxReplans = 1;
    opts.runtime.checkpoint.keepHistory = true;
    opts.runtime.transport.maxAttempts = 9;
    opts.runtime.guard.explosionThreshold = 123.0f;

    EXPECT_EQ(opts.runtime.numBits, 3);
    EXPECT_EQ(opts.runtime.execution.numThreads, 4);
    EXPECT_FALSE(opts.runtime.execution.overlapComm);
    EXPECT_TRUE(opts.runtime.execution.ownedDevices.all());
    EXPECT_EQ(opts.runtime.checkpoint.path, "ck.ppck");
    EXPECT_EQ(opts.runtime.checkpoint.every, 5);
    EXPECT_EQ(opts.runtime.checkpoint.maxReplans, 1);
    EXPECT_TRUE(opts.runtime.checkpoint.keepHistory);
    EXPECT_EQ(opts.runtime.transport.maxAttempts, 9);
    EXPECT_FLOAT_EQ(opts.runtime.guard.explosionThreshold, 123.0f);
}

} // namespace
} // namespace primepar
