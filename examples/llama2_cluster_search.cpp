/**
 * @file
 * Scenario: choosing a tensor-parallel training strategy for a full
 * Llama2 7B transformer layer on a 16-GPU cluster (4 nodes x 4 V100).
 *
 * Runs the complete PrimePar pipeline: profile the cluster, build the
 * layer graph, search the spatial-temporal space with the segmented
 * DP, and report strategy, throughput and memory against the
 * Megatron-LM baseline — including the effect of the memory weight
 * alpha of Eq. 7.
 */

#include <cstdio>

#include "baselines/megatron.hh"
#include "graph/transformer.hh"
#include "optimizer/segmented_dp.hh"
#include "sim/model_sim.hh"
#include "support/table.hh"

using namespace primepar;

int
main()
{
    const ModelConfig model = llama2_7b();
    const int devices = 16;
    const std::int64_t batch = 8;

    const ClusterTopology topo = ClusterTopology::paperCluster(devices);
    std::printf("cluster: %d nodes x %d GPUs, NVLink %.0f GB/s, "
                "inter-node %.1f GB/s\n",
                topo.numNodes(), topo.gpusPerNode(),
                topo.intraBandwidth() / 1e3,
                topo.interBandwidth() / 1e3);

    std::printf("profiling communication patterns...\n");
    const ProfiledModels models = profileModels(topo);
    const CompGraph graph = buildTransformerBlock(model, batch);

    TextTable table;
    table.header({"plan", "tok/s", "iteration ms", "collective ms",
                  "peak mem GiB", "search ms"});

    auto add_row = [&](const char *name,
                       const std::vector<PartitionSeq> &strategies,
                       double search_ms) {
        const ModelSimulator sim(topo, graph, strategies);
        const ModelSimResult r = sim.simulate(model.numLayers);
        table.row({name,
                   fmtDouble(batch * model.seqLength /
                                 (r.latencyUs * 1e-6),
                             0),
                   fmtDouble(r.latencyUs / 1e3, 1),
                   fmtDouble(r.allReduceUs / 1e3, 1),
                   fmtDouble(r.peakMemoryBytes / (1 << 30), 2),
                   fmtDouble(search_ms, 1)});
    };

    {
        const CostModel cost(topo, models);
        const MegatronPlan plan = bestMegatronPlan(graph, cost);
        std::printf("Megatron best config: d=%d, m=%d\n",
                    plan.config.dataParallel, plan.config.modelParallel);
        add_row("Megatron", plan.strategies, 0.0);
    }
    for (double alpha : {0.0, 20.0}) {
        const CostModel cost(topo, models, alpha);
        DpOptions opts;
        opts.numLayers = model.numLayers;
        opts.numThreads = 0; // all hardware threads; plan unchanged
        const DpResult pp =
            SegmentedDpOptimizer(graph, cost, opts).optimize();
        const std::string name =
            "PrimePar alpha=" + fmtDouble(alpha, 0);
        add_row(name.c_str(), pp.strategies, pp.optimizationMs);
        if (alpha == 0.0) {
            std::printf("\nPrimePar strategies (alpha=0):\n");
            for (int n = 0; n < graph.numNodes(); ++n) {
                std::printf("  %-10s %s\n", graph.node(n).name.c_str(),
                            pp.strategies[n]
                                .toString(graph.node(n))
                                .c_str());
            }
            std::printf("\n");
        }
    }
    std::printf("%s", table.render().c_str());
    return 0;
}
