/**
 * @file
 * Fault-tolerance tests: every injected fault kind — drop, corrupt
 * (payload and header), straggler, permanent device failure — must be
 * detected by the transport and recovered bit-identically; checkpoints
 * round-trip exactly and reject corruption; the trainer resumes with
 * the exact loss trajectory and survives losing a device by degrading
 * the grid, re-planning and restoring from the last checkpoint.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/megatron.hh"
#include "runtime/checkpoint.hh"
#include "runtime/errors.hh"
#include "runtime/trainer.hh"
#include "runtime/transformer_runtime.hh"

namespace primepar {
namespace {

ModelConfig
tinyModel()
{
    ModelConfig cfg;
    cfg.name = "tiny";
    cfg.hiddenSize = 8;
    cfg.numHeads = 2;
    cfg.ffnSize = 16;
    cfg.seqLength = 4;
    cfg.numLayers = 1;
    return cfg;
}

/** Transformer block, inputs, and the fault-free reference result. */
struct BlockCase
{
    BlockCase() : cfg(tinyModel()), graph(buildTransformerBlock(cfg, 2))
    {
        Rng rng(47);
        io.input = Tensor::random(
            Shape{2, cfg.seqLength, cfg.hiddenSize}, rng);
        io.params = randomBlockParams(graph, rng);
        io.d_output = Tensor::random(
            Shape{2, cfg.seqLength, cfg.hiddenSize}, rng);
    }

    GraphResult
    run(const std::vector<PartitionSeq> &plan, Transport *transport,
        RuntimeHealth *health, int threads = 1, bool overlap = true,
        CommVolume *volume = nullptr)
    {
        RuntimeOptions rt;
        rt.numBits = 2;
        rt.execution.numThreads = threads;
        rt.execution.overlapComm = overlap;
        SpmdGraphExecutor exec(graph, plan, rt, transport);
        if (health)
            exec.setHealth(health);
        exec.beginStep(0);
        GraphResult result = exec.run(io);
        if (volume)
            *volume = exec.stats();
        return result;
    }

    ModelConfig cfg;
    CompGraph graph;
    GraphIO io;
};

void
expectIdentical(const GraphResult &got, const GraphResult &ref)
{
    EXPECT_EQ(got.output.maxAbsDiff(ref.output), 0.0f);
    EXPECT_EQ(got.d_input.maxAbsDiff(ref.d_input), 0.0f);
    ASSERT_EQ(got.d_params.size(), ref.d_params.size());
    for (const auto &[name, grad] : ref.d_params)
        EXPECT_EQ(got.d_params.at(name).maxAbsDiff(grad), 0.0f) << name;
}

TEST(FaultSpec, ParsesProbabilitiesSeedAndSchedule)
{
    const FaultSpec spec = FaultSpec::parse(
        "drop=0.25,corrupt=0.1,delay=0.05,seed=9,"
        "fail@step=3:dev=2,corrupt@step=5:dev=1:fires=4");
    EXPECT_DOUBLE_EQ(spec.dropProb, 0.25);
    EXPECT_DOUBLE_EQ(spec.corruptProb, 0.1);
    EXPECT_DOUBLE_EQ(spec.delayProb, 0.05);
    EXPECT_EQ(spec.seed, 9u);
    ASSERT_EQ(spec.schedule.size(), 2u);
    EXPECT_EQ(spec.schedule[0].kind, FaultKind::DeviceFail);
    EXPECT_EQ(spec.schedule[0].step, 3);
    EXPECT_EQ(spec.schedule[0].device, 2);
    EXPECT_EQ(spec.schedule[1].fires, 4);
    EXPECT_TRUE(spec.enabled());
    EXPECT_FALSE(FaultSpec{}.enabled());
}

TEST(FaultSpec, RejectsMalformedInput)
{
    EXPECT_THROW(FaultSpec::parse("drop=2.0"), RuntimeError);
    EXPECT_THROW(FaultSpec::parse("drop=abc"), RuntimeError);
    EXPECT_THROW(FaultSpec::parse("explode@step=1"), RuntimeError);
    EXPECT_THROW(FaultSpec::parse("drop"), RuntimeError);
}

TEST(Transport, FusedChecksumCopyMatchesPlainChecksum)
{
    Rng rng(11);
    // Odd sizes exercise the 32-byte, 8-byte and tail loops.
    for (std::int64_t n : {0, 1, 3, 8, 31, 257, 4096}) {
        const Tensor src = Tensor::random(Shape{n}, rng);
        Tensor dst = Tensor::uninitialized(Shape{n});
        const std::size_t bytes =
            static_cast<std::size_t>(n) * sizeof(float);
        const std::uint64_t fused =
            checksumCopyBytes(dst.data(), src.data(), bytes);
        EXPECT_EQ(fused, checksumBytes(src.data(), bytes));
        EXPECT_EQ(fused, checksumBytes(dst.data(), bytes));
        EXPECT_EQ(dst.maxAbsDiff(src), 0.0f);
    }
    // One corrupted byte must change the checksum.
    Tensor t = Tensor::random(Shape{64}, rng);
    const std::uint64_t clean = checksumBytes(t.data(), 256);
    t.data()[17] += 1.0f;
    EXPECT_NE(clean, checksumBytes(t.data(), 256));
}

TEST(Transport, FaultFreePathIsBitIdentical)
{
    BlockCase c;
    const auto plan = defaultBlockPlan(c.graph, 2);
    const GraphResult ref = c.run(plan, nullptr, nullptr);

    for (const int threads : {1, 0}) {
        RuntimeHealth health;
        InProcessTransport transport({}, nullptr, &health);
        const GraphResult got =
            c.run(plan, &transport, &health, threads);
        expectIdentical(got, ref);
        EXPECT_GT(health.transfers, 0);
        EXPECT_GT(health.bytesMoved, 0);
        EXPECT_TRUE(health.allClear()) << health.report();
    }
}

TEST(Transport, ExhaustedRetriesThrowTransientFault)
{
    FaultSpec spec;
    spec.dropProb = 1.0;
    RuntimeHealth health;
    InProcessTransport transport(
        {}, std::make_shared<FaultInjector>(spec), &health);
    TransferTag tag;
    tag.tensor = "X";
    tag.channel = "ring";
    tag.sender = 0;
    tag.receiver = 1;
    Rng rng(3);
    const Tensor payload = Tensor::random(Shape{4, 4}, rng);
    EXPECT_THROW(transport.transfer(tag, payload), TransientFaultError);
    EXPECT_GT(health.dropsDetected, 0);
    EXPECT_GT(health.retries, 0);
}

TEST(Transport, CorruptionIsAlwaysDetectedNeverDelivered)
{
    FaultSpec spec;
    spec.corruptProb = 1.0;
    TransferTag tag;
    tag.tensor = "X";
    tag.channel = "ring";
    tag.sender = 0;
    tag.receiver = 1;
    Rng rng(5);
    // Random values, plus values that x + 1 leaves unchanged: a
    // corruption must change the payload's bits whatever it holds.
    std::vector<Tensor> payloads{Tensor::random(Shape{8}, rng)};
    for (const float v : {33554432.0f,
                          std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
        Tensor t(Shape{8});
        for (std::int64_t i = 0; i < t.numel(); ++i)
            t.data()[i] = v;
        payloads.push_back(std::move(t));
    }
    for (const Tensor &payload : payloads) {
        SCOPED_TRACE(payload.data()[0]);
        RuntimeHealth health;
        InProcessTransport transport(
            {}, std::make_shared<FaultInjector>(spec), &health);
        // Every attempt is corrupted; detection must reject them all
        // rather than deliver a perturbed payload.
        EXPECT_THROW(transport.transfer(tag, payload),
                     TransientFaultError);
        EXPECT_GT(health.corruptionsDetected, 0);
        EXPECT_GT(health.headerMismatches, 0);
        EXPECT_EQ(health.transfers, 0);
    }
}

struct NamedPlan
{
    const char *name;
    std::vector<PartitionSeq> plan;
};

std::vector<NamedPlan>
plansUnderTest(const CompGraph &graph)
{
    std::vector<NamedPlan> plans;
    // PSquare on the linears: ring, accumulator and transition shifts.
    plans.push_back({"psquare", defaultBlockPlan(graph, 2)});
    // Megatron tensor parallelism: grouped all-reduces.
    const auto megatron = megatronStrategies(graph, {2, 2});
    if (megatron.has_value())
        plans.push_back({"megatron", *megatron});
    return plans;
}

TEST(Transport, RecoversBitIdenticallyFromEachFaultKind)
{
    BlockCase c;
    struct Probe
    {
        const char *name;
        FaultSpec spec;
    };
    std::vector<Probe> probes(3);
    probes[0] = {"drop", {}};
    probes[0].spec.dropProb = 0.05;
    probes[1] = {"corrupt", {}};
    probes[1].spec.corruptProb = 0.05;
    probes[2] = {"delay", {}};
    probes[2].spec.delayProb = 0.1;

    for (const NamedPlan &np : plansUnderTest(c.graph)) {
        const GraphResult ref = c.run(np.plan, nullptr, nullptr);
        for (const Probe &probe : probes) {
            RuntimeHealth health;
            InProcessTransport transport(
                {}, std::make_shared<FaultInjector>(probe.spec),
                &health);
            const GraphResult got =
                c.run(np.plan, &transport, &health);
            expectIdentical(got, ref);
            const std::int64_t detections =
                health.dropsDetected + health.corruptionsDetected +
                health.headerMismatches + health.stragglers;
            EXPECT_GT(detections, 0)
                << np.name << "/" << probe.name
                << ": fault never fired — probe too weak";
            EXPECT_FALSE(health.allClear());
        }
    }
}

TEST(Transport, FaultPatternIsDeterministicAcrossThreadCounts)
{
    BlockCase c;
    const auto plan = defaultBlockPlan(c.graph, 2);
    FaultSpec spec;
    spec.dropProb = 0.05;
    spec.corruptProb = 0.02;
    spec.seed = 1717;

    GraphResult first;
    RuntimeHealth first_health;
    {
        InProcessTransport transport(
            {}, std::make_shared<FaultInjector>(spec), &first_health);
        first = c.run(plan, &transport, &first_health, 1);
    }
    for (const int threads : {2, 0}) {
        RuntimeHealth health;
        InProcessTransport transport(
            {}, std::make_shared<FaultInjector>(spec), &health);
        const GraphResult got =
            c.run(plan, &transport, &health, threads);
        expectIdentical(got, first);
        EXPECT_EQ(health.dropsDetected, first_health.dropsDetected);
        EXPECT_EQ(health.corruptionsDetected,
                  first_health.corruptionsDetected);
        EXPECT_EQ(health.retries, first_health.retries);
    }
}

TEST(Transport, ScheduledFaultForcesStepRollback)
{
    BlockCase c;
    const auto plan = defaultBlockPlan(c.graph, 2);
    const GraphResult ref = c.run(plan, nullptr, nullptr);

    // fires == maxAttempts exhausts one transfer's whole retry budget:
    // the executor must roll the temporal step back, and the re-run
    // (budget consumed) succeeds.
    TransportOptions topts;
    FaultSpec spec;
    ScheduledFault fault;
    fault.kind = FaultKind::Corrupt;
    fault.fires = topts.maxAttempts;
    spec.schedule.push_back(fault);

    RuntimeHealth health;
    InProcessTransport transport(
        topts, std::make_shared<FaultInjector>(spec), &health);
    const GraphResult got = c.run(plan, &transport, &health);
    expectIdentical(got, ref);
    EXPECT_GE(health.stepRollbacks, 1);
}

TEST(Transport, PostedAheadFaultRollsBackOneStepLikeSync)
{
    // With overlap on, ring transfers for step t+1 are posted while
    // step t computes. A fault that exhausts the retry budget of such
    // a posted-ahead transfer surfaces at the step join — inside the
    // same journal frame — so exactly one temporal step rolls back,
    // the re-run recovers bit-identically, and the whole fault /
    // retry / rollback trajectory matches the synchronous path.
    BlockCase c;
    const auto plan = defaultBlockPlan(c.graph, 2);
    const GraphResult ref = c.run(plan, nullptr, nullptr);

    TransportOptions topts;
    FaultSpec spec;
    ScheduledFault fault;
    fault.kind = FaultKind::Corrupt;
    fault.fires = topts.maxAttempts;
    spec.schedule.push_back(fault);

    RuntimeHealth sync_health;
    {
        InProcessTransport transport(
            topts, std::make_shared<FaultInjector>(spec),
            &sync_health);
        const GraphResult got = c.run(plan, &transport, &sync_health,
                                      /*threads=*/1,
                                      /*overlap=*/false);
        expectIdentical(got, ref);
    }
    EXPECT_GE(sync_health.stepRollbacks, 1);

    for (const int threads : {1, 0}) {
        RuntimeHealth health;
        InProcessTransport transport(
            topts, std::make_shared<FaultInjector>(spec), &health);
        const GraphResult got =
            c.run(plan, &transport, &health, threads,
                  /*overlap=*/true);
        expectIdentical(got, ref);
        // The async pipeline keeps the synchronous transfer order, so
        // the scheduled fault hits the same transfer and triggers the
        // same single-step rollback.
        EXPECT_EQ(health.stepRollbacks, sync_health.stepRollbacks);
        EXPECT_EQ(health.corruptionsDetected +
                      health.headerMismatches,
                  sync_health.corruptionsDetected +
                      sync_health.headerMismatches);
        EXPECT_EQ(health.retries, sync_health.retries);
    }
}

/**
 * Fault-tolerant wrapper over the in-process transport: counts
 * transfers per channel and throws TransientFaultError exactly once,
 * on transfer number @p at of channel @p channel (-1 = never).
 */
class ChannelFaultTransport : public Transport
{
  public:
    ChannelFaultTransport(std::string channel_in, std::int64_t at_in)
        : channel(std::move(channel_in)), at(at_in)
    {}

    void
    transferInto(const TransferTag &tag, const Tensor &payload,
                 Tensor &dst) override
    {
        const std::int64_t n = counts[tag.channel]++;
        if (!hit && tag.channel == channel && n == at) {
            hit = true;
            throw TransientFaultError("injected " + channel + " fault",
                                      tag.tensor, tag.sender,
                                      tag.receiver, tag.trainStep);
        }
        inner.transferInto(tag, payload, dst);
    }

    void beginStep(std::int64_t step) override { inner.beginStep(step); }

    bool faultTolerant() const override { return true; }

    std::map<std::string, std::int64_t> counts; ///< transfers by channel
    bool hit = false;

  private:
    std::string channel;
    std::int64_t at;
    InProcessTransport inner;
};

TEST(Transport, RollbackOnEachChannelRestoresExactState)
{
    // A rollback mid-ring, mid-acc or mid-all-reduce must restore all
    // the state its step changed in place — pass output slots,
    // layernorm aux slots, traffic counters — at the first and the
    // last transfer of each channel, with overlap on and off.
    BlockCase c;
    std::set<std::string> covered;
    for (const NamedPlan &np : plansUnderTest(c.graph)) {
        for (const bool overlap : {false, true}) {
            ChannelFaultTransport clean("", -1);
            CommVolume ref_volume;
            const GraphResult ref = c.run(np.plan, &clean, nullptr, 1,
                                          overlap, &ref_volume);
            for (const char *channel : {"ring", "acc", "allreduce"}) {
                const auto it = clean.counts.find(channel);
                if (it == clean.counts.end())
                    continue;
                covered.insert(channel);
                for (const std::int64_t at :
                     {std::int64_t{0}, it->second - 1}) {
                    SCOPED_TRACE(std::string(np.name) + " " + channel +
                                 " #" + std::to_string(at) +
                                 (overlap ? " overlap" : " inline"));
                    ChannelFaultTransport transport(channel, at);
                    RuntimeHealth health;
                    CommVolume volume;
                    const GraphResult got = c.run(
                        np.plan, &transport, &health, 1, overlap,
                        &volume);
                    EXPECT_TRUE(transport.hit);
                    expectIdentical(got, ref);
                    EXPECT_EQ(health.stepRollbacks, 1);
                    EXPECT_EQ(volume.ringElements,
                              ref_volume.ringElements);
                    EXPECT_EQ(volume.allReduceElements,
                              ref_volume.allReduceElements);
                    EXPECT_EQ(volume.allReduceCount,
                              ref_volume.allReduceCount);
                }
            }
        }
    }
    EXPECT_EQ(covered,
              (std::set<std::string>{"acc", "allreduce", "ring"}));
}

TEST(Transport, PermanentDeviceFailureRaises)
{
    BlockCase c;
    const auto plan = defaultBlockPlan(c.graph, 2);
    FaultSpec spec;
    ScheduledFault fault;
    fault.kind = FaultKind::DeviceFail;
    fault.device = 1;
    spec.schedule.push_back(fault);

    RuntimeHealth health;
    InProcessTransport transport(
        {}, std::make_shared<FaultInjector>(spec), &health);
    try {
        c.run(plan, &transport, &health);
        FAIL() << "expected DeviceFailedError";
    } catch (const DeviceFailedError &err) {
        EXPECT_EQ(err.device, 1);
        EXPECT_EQ(health.deviceFailures, 1);
        EXPECT_TRUE(transport.deadDevices().count(1));
    }
}

TEST(Guard, DetectsNaNInfAndExplosions)
{
    const OpSpec op = makeLinearOp("fc", 2, 4, 4, 4);
    SpmdOpExecutor exec(op, PartitionSeq({PartitionStep::byDim(0)}), 1);
    RuntimeHealth health;
    exec.setHealth(&health);

    Rng rng(11);
    std::map<std::string, Tensor> inputs;
    inputs["I"] = Tensor::random(Shape{2, 4, 4}, rng);
    inputs["W"] = Tensor::random(Shape{4, 4}, rng);
    inputs["dO"] = Tensor::random(Shape{2, 4, 4}, rng);
    inputs["I"].data()[0] = std::nanf("");
    inputs["I"].data()[1] = 1e30f; // explodes through the matmul
    exec.run(inputs);

    EXPECT_GT(health.anomalies.nan, 0);
    EXPECT_GT(health.anomalies.explosion, 0);
    EXPECT_FALSE(health.allClear());
    EXPECT_NE(health.report().find("anomal"), std::string::npos);
}

TEST(Checkpoint, RoundTripsExactly)
{
    Rng rng(77);
    Checkpoint ck;
    ck.step = 42;
    ck.params["a.W"] = Tensor::random(Shape{4, 8}, rng);
    ck.params["b.W"] = Tensor::random(Shape{3}, rng);
    ck.optState["a.W"] = Tensor::random(Shape{4, 8}, rng);

    const std::string path = testing::TempDir() + "ck_roundtrip.ppck";
    saveCheckpoint(path, ck);
    const Checkpoint got = loadCheckpoint(path);
    EXPECT_EQ(got.step, 42u);
    ASSERT_EQ(got.params.size(), 2u);
    EXPECT_EQ(got.params.at("a.W").maxAbsDiff(ck.params.at("a.W")),
              0.0f);
    EXPECT_EQ(got.params.at("b.W").maxAbsDiff(ck.params.at("b.W")),
              0.0f);
    ASSERT_EQ(got.optState.size(), 1u);
    EXPECT_EQ(got.optState.at("a.W").maxAbsDiff(ck.optState.at("a.W")),
              0.0f);
    std::remove(path.c_str());
}

TEST(Checkpoint, RejectsCorruptionTruncationAndBadMagic)
{
    Rng rng(78);
    Checkpoint ck;
    ck.step = 7;
    ck.params["w"] = Tensor::random(Shape{16}, rng);
    const std::string path = testing::TempDir() + "ck_damage.ppck";
    saveCheckpoint(path, ck);

    auto readAll = [&]() {
        std::ifstream in(path, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };
    auto writeAll = [&](const std::string &bytes) {
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };
    const std::string pristine = readAll();

    // Bit-flip in the payload -> checksum mismatch.
    std::string flipped = pristine;
    flipped[flipped.size() / 2] ^= 0x20;
    writeAll(flipped);
    try {
        loadCheckpoint(path);
        FAIL() << "expected CheckpointError";
    } catch (const CheckpointError &err) {
        EXPECT_NE(std::string(err.what()).find("checksum"),
                  std::string::npos);
    }

    // Truncation -> size mismatch.
    writeAll(pristine.substr(0, pristine.size() - 9));
    EXPECT_THROW(loadCheckpoint(path), CheckpointError);

    // Bad magic -> not a checkpoint.
    std::string not_ours = pristine;
    not_ours[0] = 'X';
    writeAll(not_ours);
    try {
        loadCheckpoint(path);
        FAIL() << "expected CheckpointError";
    } catch (const CheckpointError &err) {
        EXPECT_NE(std::string(err.what()).find("magic"),
                  std::string::npos);
    }

    // Missing file.
    std::remove(path.c_str());
    EXPECT_THROW(loadCheckpoint(path), CheckpointError);
}

TrainerOptions
tinyTrainer()
{
    TrainerOptions opts;
    opts.model = tinyModel();
    opts.batch = 2;
    opts.runtime.numBits = 2;
    opts.lr = 0.05;
    opts.seed = 2024;
    return opts;
}

TEST(Trainer, ResumeReproducesExactLossTrajectory)
{
    const int total_steps = 8;
    const int resume_at = 4;

    // Uninterrupted reference run.
    std::vector<double> ref_losses;
    {
        BlockTrainer trainer(tinyTrainer());
        for (int s = 0; s < total_steps; ++s)
            ref_losses.push_back(trainer.trainStep().loss);
    }

    // Run half, checkpoint, throw the trainer away.
    const std::string path = testing::TempDir() + "ck_resume.ppck";
    TrainerOptions opts = tinyTrainer();
    opts.runtime.checkpoint.path = path;
    {
        BlockTrainer trainer(opts);
        for (int s = 0; s < resume_at; ++s) {
            EXPECT_EQ(trainer.trainStep().loss, ref_losses[s])
                << "pre-checkpoint divergence at step " << s;
        }
        trainer.saveCheckpointNow();
    }

    // Resume in a fresh trainer: the tail must match bit-for-bit.
    {
        BlockTrainer trainer(opts);
        trainer.resumeFromCheckpointFile();
        EXPECT_EQ(trainer.step(), resume_at);
        for (int s = resume_at; s < total_steps; ++s) {
            const StepStats stats = trainer.trainStep();
            EXPECT_EQ(stats.step, s);
            EXPECT_EQ(stats.loss, ref_losses[s])
                << "post-resume divergence at step " << s;
        }
    }
    std::remove(path.c_str());
}

TEST(Trainer, SurvivesPermanentDeviceFailure)
{
    const int total_steps = 8;

    // Fault-free trajectory for comparison.
    std::vector<double> ref_losses;
    {
        BlockTrainer trainer(tinyTrainer());
        for (int s = 0; s < total_steps; ++s)
            ref_losses.push_back(trainer.trainStep().loss);
    }

    const std::string path = testing::TempDir() + "ck_failover.ppck";
    TrainerOptions opts = tinyTrainer();
    opts.runtime.checkpoint.path = path;
    opts.runtime.checkpoint.every = 2;
    opts.runtime.checkpoint.maxReplans = 1;
    opts.runtime.faults = FaultSpec::parse("fail@step=4:dev=2");

    BlockTrainer trainer(opts);
    std::vector<double> losses;
    for (int s = 0; s < total_steps; ++s)
        losses.push_back(trainer.trainStep().loss);

    // The grid degraded 4 -> 2 devices, restored the step-4 checkpoint
    // and completed every step.
    EXPECT_EQ(trainer.deviceBits(), 1);
    EXPECT_EQ(trainer.step(), total_steps);
    EXPECT_EQ(trainer.health().deviceFailures, 1);
    EXPECT_EQ(trainer.health().replans, 1);
    EXPECT_EQ(trainer.health().checkpointRestores, 1);

    // The degraded grid sums in a different order, so the trajectory
    // is near-equal, not bitwise: before the failure it must be exact.
    for (int s = 0; s < 4; ++s)
        EXPECT_EQ(losses[s], ref_losses[s]) << "step " << s;
    for (int s = 4; s < total_steps; ++s)
        EXPECT_NEAR(losses[s], ref_losses[s], 1e-3) << "step " << s;
    std::remove(path.c_str());
}

TEST(Trainer, TransientFaultsLeaveTrajectoryExact)
{
    const int total_steps = 6;
    std::vector<double> ref_losses;
    {
        BlockTrainer trainer(tinyTrainer());
        for (int s = 0; s < total_steps; ++s)
            ref_losses.push_back(trainer.trainStep().loss);
    }

    TrainerOptions opts = tinyTrainer();
    opts.runtime.faults =
        FaultSpec::parse("drop=0.02,corrupt=0.02,seed=99");
    BlockTrainer trainer(opts);
    for (int s = 0; s < total_steps; ++s) {
        EXPECT_EQ(trainer.trainStep().loss, ref_losses[s])
            << "step " << s;
    }
    const RuntimeHealth &health = trainer.health();
    EXPECT_GT(health.dropsDetected + health.corruptionsDetected +
                  health.headerMismatches,
              0)
        << "probabilities too low to exercise recovery";
    EXPECT_GT(health.retries, 0);
}

// ---------------------------------------------------------------------------
// PR 8 additions: typed parse errors, net faults, jittered backoff,
// checkpoint damage messages.

TEST(FaultSpec, MalformedSpecsThrowInputError)
{
    // Every malformed spec is a *typed*, catchable InputError (the
    // CLIs map it to the documented usage exit code) — never an
    // assertion or abort.
    EXPECT_THROW(FaultSpec::parse("explode@step=1"), InputError);
    EXPECT_THROW(FaultSpec::parse("warp=0.1"), InputError);
    EXPECT_THROW(FaultSpec::parse("drop=-0.25"), InputError);
    EXPECT_THROW(FaultSpec::parse("netdrop=1.5"), InputError);
    EXPECT_THROW(FaultSpec::parse("drop=0.1junk"), InputError);
    EXPECT_THROW(FaultSpec::parse("drop"), InputError);
    EXPECT_THROW(FaultSpec::parse("kill@step=two:dev=1"), InputError);
    EXPECT_THROW(FaultSpec::parse("fail@step=1:when=now"), InputError);
    try {
        FaultSpec::parse("explode@step=1");
        FAIL() << "expected InputError";
    } catch (const InputError &err) {
        EXPECT_NE(std::string(err.what()).find("explode"),
                  std::string::npos)
            << err.what();
    }
}

TEST(FaultSpec, ParsesNetFaultsAndWorkerKill)
{
    const FaultSpec spec = FaultSpec::parse(
        "netdrop=0.1,netdelay=0.05,nettrunc=0.02,kill@step=4:dev=1");
    EXPECT_DOUBLE_EQ(spec.netDropProb, 0.1);
    EXPECT_DOUBLE_EQ(spec.netDelayProb, 0.05);
    EXPECT_DOUBLE_EQ(spec.netTruncateProb, 0.02);
    ASSERT_EQ(spec.schedule.size(), 1u);
    EXPECT_EQ(spec.schedule[0].kind, FaultKind::WorkerKill);
    EXPECT_TRUE(spec.enabled());

    // toString round-trips the new kinds.
    const FaultSpec again = FaultSpec::parse(spec.toString());
    EXPECT_DOUBLE_EQ(again.netDropProb, spec.netDropProb);
    EXPECT_DOUBLE_EQ(again.netTruncateProb, spec.netTruncateProb);
    ASSERT_EQ(again.schedule.size(), 1u);
    EXPECT_EQ(again.schedule[0].kind, FaultKind::WorkerKill);

    // The kill budget is consumed exactly once, by the right worker
    // at the right step.
    FaultInjector inj(spec);
    EXPECT_FALSE(inj.consumeWorkerKill(3, 1));
    EXPECT_FALSE(inj.consumeWorkerKill(4, 0));
    EXPECT_TRUE(inj.consumeWorkerKill(4, 1));
    EXPECT_FALSE(inj.consumeWorkerKill(4, 1));
}

TEST(Transport, NetFaultsAreNoOpsInProcess)
{
    // Socket faults are enacted by the wire *sender* only; the
    // in-process transport (also the one a TcpTransport hands
    // worker-local transfers to) must ignore them completely —
    // otherwise a one-worker run would diverge from a multi-worker
    // run under the same fault spec.
    BlockCase c;
    const auto plan = defaultBlockPlan(c.graph, 2);
    const GraphResult ref = c.run(plan, nullptr, nullptr);

    const FaultSpec spec =
        FaultSpec::parse("netdrop=1.0,netdelay=1.0,nettrunc=1.0");
    RuntimeHealth health;
    InProcessTransport transport(
        {}, std::make_shared<FaultInjector>(spec), &health);
    const GraphResult got = c.run(plan, &transport, &health);
    expectIdentical(got, ref);
    EXPECT_EQ(health.retries, 0);
    EXPECT_TRUE(health.allClear()) << health.report();
}

TEST(Transport, RetryBackoffIsJitteredDeterministicAndCapped)
{
    TransportOptions opts;
    opts.backoffUs = 10.0;
    opts.backoffCapUs = 500.0;

    // Deterministic for a (stream, attempt) pair; decorrelated across
    // streams and seeds.
    EXPECT_DOUBLE_EQ(retryBackoffUs(opts, 7, 3),
                     retryBackoffUs(opts, 7, 3));
    EXPECT_NE(retryBackoffUs(opts, 7, 3), retryBackoffUs(opts, 8, 3));
    TransportOptions reseeded = opts;
    reseeded.backoffJitterSeed ^= 0x5555;
    EXPECT_NE(retryBackoffUs(opts, 7, 2),
              retryBackoffUs(reseeded, 7, 2));

    // Exponential envelope: attempt k waits base * 2^k scaled by a
    // jitter in [0.5, 1.0), everything capped.
    for (int attempt = 0; attempt < 5; ++attempt) {
        const double full = 10.0 * static_cast<double>(1 << attempt);
        const double w = retryBackoffUs(opts, 1, attempt);
        EXPECT_GE(w, 0.5 * full);
        EXPECT_LT(w, full + 1e-9);
        EXPECT_LE(w, 500.0);
    }
    EXPECT_DOUBLE_EQ(retryBackoffUs(opts, 1, 10), 500.0);
    // Far past the cap the shift must not overflow.
    EXPECT_DOUBLE_EQ(retryBackoffUs(opts, 1, 1000), 500.0);

    TransportOptions off;
    off.backoffUs = 0.0;
    EXPECT_DOUBLE_EQ(retryBackoffUs(off, 1, 3), 0.0);
}

TEST(Checkpoint, DamageMessagesNameFileAndCause)
{
    Rng rng(79);
    Checkpoint ck;
    ck.step = 3;
    ck.params["w"] = Tensor::random(Shape{32}, rng);
    const std::string path = testing::TempDir() + "ck_messages.ppck";
    saveCheckpoint(path, ck);

    std::ifstream in(path, std::ios::binary);
    std::string pristine((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    in.close();
    auto writeAll = [&](const std::string &bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };

    // Truncated mid-payload: the message names the file and says
    // "truncated" with the promised vs actual sizes.
    writeAll(pristine.substr(0, pristine.size() / 2));
    try {
        loadCheckpoint(path);
        FAIL() << "expected CheckpointError";
    } catch (const CheckpointError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    }

    // A single flipped bit in the payload: checksum mismatch, again
    // naming the file.
    std::string flipped = pristine;
    flipped[flipped.size() - 16] ^= 0x01;
    writeAll(flipped);
    try {
        loadCheckpoint(path);
        FAIL() << "expected CheckpointError";
    } catch (const CheckpointError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        EXPECT_NE(msg.find("checksum"), std::string::npos) << msg;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace primepar
