/**
 * @file
 * Public-API smoke test: the umbrella header must compile standalone
 * and the documented end-to-end flow (profile -> build graph ->
 * search -> simulate -> execute) must work through it.
 */

#include "primepar.hh"

#include <gtest/gtest.h>

namespace primepar {
namespace {

TEST(PublicApi, EndToEndFlowThroughUmbrellaHeader)
{
    // Small cluster and model.
    const ClusterTopology topo = ClusterTopology::paperCluster(4);
    const CostModel cost(topo, profileModels(topo));
    ModelConfig model = opt6p7b();
    model.seqLength = 256;
    const CompGraph graph = buildMlpBlock(model, 8);

    // Search.
    DpOptions opts;
    const DpResult plan = SegmentedDpOptimizer(graph, cost, opts).optimize();
    ASSERT_EQ(plan.strategies.size(), 3u);

    // Simulate.
    const ModelSimulator sim(topo, graph, plan.strategies);
    const ModelSimResult r = sim.simulate();
    EXPECT_GT(r.latencyUs, 0.0);

    // Execute functionally (tiny shapes).
    const OpSpec op = makeLinearOp("fc", 2, 4, 4, 4);
    Rng rng(1);
    std::map<std::string, Tensor> inputs{
        {"I", Tensor::random(Shape{2, 4, 4}, rng)},
        {"W", Tensor::random(Shape{4, 4}, rng)},
        {"dO", Tensor::random(Shape{2, 4, 4}, rng)},
    };
    SpmdOpExecutor exec(op, parseSequence(op, "P2x2"), 2);
    const TrainStepResult out = exec.run(inputs);
    const TrainStepResult ref = referenceTrainStep(op, inputs);
    EXPECT_TRUE(out.output.allClose(ref.output, 1e-4f, 1e-5f));
}

TEST(PublicApi, ObservabilitySurfaceThroughUmbrellaHeader)
{
    // The observability + calibration API must be reachable from the
    // single supported include: observe a real executor run, snapshot
    // metrics as JSON, and round-trip ProfiledModels.
    const OpSpec op = makeLinearOp("fc", 2, 4, 4, 4);
    Rng rng(3);
    std::map<std::string, Tensor> inputs{
        {"I", Tensor::random(Shape{2, 4, 4}, rng)},
        {"W", Tensor::random(Shape{4, 4}, rng)},
        {"dO", Tensor::random(Shape{2, 4, 4}, rng)},
    };

    TracingObserver tracer;
    MetricsRegistry registry;
    MetricsObserver metrics(&registry);
    RuntimeHealth health;
    health.addObserver(&tracer);
    health.addObserver(&metrics);
    SpmdOpExecutor exec(op, parseSequence(op, "P2x2"), 2);
    exec.setHealth(&health);
    (void)exec.run(inputs);

    EXPECT_FALSE(tracer.snapshot().empty());
    const JsonValue snapshot =
        parseJson(registry.snapshotJson().toString());
    EXPECT_TRUE(snapshot.isObject());

    const ClusterTopology topo = ClusterTopology::paperCluster(4);
    const ProfiledModels models = profileModels(topo);
    const ProfiledModels back =
        profiledModelsFromJson(profiledModelsToJson(models));
    EXPECT_EQ(back.matmulKernel.intercept, models.matmulKernel.intercept);
    EXPECT_EQ(back.matmulKernel.slope, models.matmulKernel.slope);
    EXPECT_EQ(back.allReduce.size(), models.allReduce.size());

    // RuntimeOptions is the one knob struct for the whole stack.
    RuntimeOptions opts;
    opts.numBits = 2;
    opts.execution.numThreads = 2;
    EXPECT_EQ(opts.checkpoint.maxReplans, 2);
}

TEST(PublicApi, TensorPermute)
{
    Rng rng(2);
    const Tensor t = Tensor::random(Shape{2, 3, 4}, rng);
    const Tensor p = t.permute({2, 0, 1});
    EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
    for (std::int64_t a = 0; a < 2; ++a)
        for (std::int64_t b = 0; b < 3; ++b)
            for (std::int64_t c = 0; c < 4; ++c)
                EXPECT_EQ(p.at({c, a, b}), t.at({a, b, c}));
    // Permute twice with the inverse recovers the original.
    const Tensor back = p.permute({1, 2, 0});
    EXPECT_EQ(back.maxAbsDiff(t), 0.0f);
}

} // namespace
} // namespace primepar
