/**
 * @file
 * Ablation studies for DESIGN.md's design-choice questions:
 *
 *  A. Cost-model fidelity: R^2 of the fitted latency models and the
 *     agreement between cost-model ranking and simulator ranking over
 *     a full operator space.
 *  B. Space ablation: the value of the spatial-temporal primitive —
 *     optimal plan cost with and without PSquare in the search space.
 *  C. Overlap ablation: how much of the ring traffic of PSquare plans
 *     hides behind compute (exposed stall vs total ring time).
 *  D. Memory-weight (alpha) sweep: the latency/memory trade-off knob
 *     of Eq. 7.
 */

#include <algorithm>
#include <cstdio>

#include "common.hh"
#include "partition/space.hh"
#include "sim/op_sim.hh"

using namespace primepar;
using namespace primepar::bench;

namespace {

void
ablationFidelity()
{
    std::printf("A. Cost-model fidelity\n");
    const ClusterTopology topo = ClusterTopology::paperCluster(8);
    const auto models = profileModels(topo);
    const auto quality = profileQuality(topo, models);
    std::printf("  fit R^2: all-reduce(worst)=%.6f ring-hop=%.6f "
                "matmul=%.6f\n",
                quality.worstAllReduceR2, quality.ringHopR2,
                quality.matmulR2);

    const CostModel cm(topo, models);
    const OpSpec op = makeLinearOp("fc", 8, 2048, 12288, 49152);
    const auto space = enumerateSequences(op, 3);
    std::vector<double> model_cost, sim_cost;
    for (const auto &seq : space) {
        const OpPlan plan(op, seq, 3);
        model_cost.push_back(cm.intraCost(op, seq).latencyUs);
        SimContext ctx(topo);
        for (Phase ph :
             {Phase::Forward, Phase::Backward, Phase::Gradient})
            simulateOpPhase(ctx, plan, ph);
        sim_cost.push_back(ctx.makespan());
    }
    const std::size_t best_model =
        std::min_element(model_cost.begin(), model_cost.end()) -
        model_cost.begin();
    const double best_sim =
        *std::min_element(sim_cost.begin(), sim_cost.end());
    std::printf("  %zu sequences; cost-model optimum is within %.1f%% "
                "of the simulator optimum\n\n",
                space.size(),
                100.0 * (sim_cost[best_model] / best_sim - 1.0));
}

void
ablationSpace()
{
    std::printf("B. Search-space ablation (OPT 175B MLP block, "
                "simulated iteration latency)\n");
    TextTable table;
    table.header({"gpus", "spatial-only us", "with PSquare us",
                  "improvement"});
    const ModelConfig model = opt175b();
    for (int devices : {4, 8, 16}) {
        const ClusterTopology topo =
            ClusterTopology::paperCluster(devices);
        const CostModel cost(topo, profileModels(topo));
        const CompGraph graph = buildMlpBlock(model, 8);

        DpOptions with;
        DpOptions without;
        without.space.allowPSquare = false;
        const DpResult a =
            SegmentedDpOptimizer(graph, cost, without).optimize();
        const DpResult b =
            SegmentedDpOptimizer(graph, cost, with).optimize();
        const double la =
            measure("spatial", model, topo, graph, a.strategies)
                .latencyUs;
        const double lb =
            measure("primepar", model, topo, graph, b.strategies)
                .latencyUs;
        table.row({std::to_string(devices), fmtDouble(la, 0),
                   fmtDouble(lb, 0), fmtDouble(la / lb, 2) + "x"});
    }
    std::printf("%s\n", table.render().c_str());
}

void
ablationOverlap()
{
    std::printf("C. Overlap ablation (P2x2 on one node, large linear)\n");
    const ClusterTopology topo = ClusterTopology::paperCluster(4);
    const OpSpec op = makeLinearOp("fc", 8, 2048, 12288, 49152);
    const OpPlan plan(op, PartitionSeq({PartitionStep::pSquare(1)}), 2);
    SimContext ctx(topo);
    SimBreakdown total;
    for (Phase ph : {Phase::Forward, Phase::Backward, Phase::Gradient})
        total.accumulate(simulateOpPhase(ctx, plan, ph));
    std::printf("  compute=%.0fus ring(wire)=%.0fus exposed stall="
                "%.0fus -> %.1f%% of ring traffic is hidden\n\n",
                total.computeUs, total.ringUs, total.stallUs,
                100.0 * (1.0 - total.stallUs /
                                   std::max(1.0, total.ringUs)));
}

void
ablationAlpha()
{
    std::printf("D. Memory-weight (alpha) sweep, Llama2 7B block on 8 "
                "GPUs\n");
    TextTable table;
    table.header({"alpha us/MiB", "latency us", "peak mem GiB"});
    const ModelConfig model = llama2_7b();
    const ClusterTopology topo = ClusterTopology::paperCluster(8);
    const auto models = profileModels(topo);
    const CompGraph graph = buildTransformerBlock(model, 8);
    const double gib = 1024.0 * 1024.0 * 1024.0;
    for (double alpha : {0.0, 2.0, 10.0, 50.0}) {
        const CostModel cost(topo, models, alpha);
        DpOptions opts;
        const DpResult r =
            SegmentedDpOptimizer(graph, cost, opts).optimize();
        const auto m =
            measure("pp", model, topo, graph, r.strategies);
        table.row({fmtDouble(alpha, 1), fmtDouble(m.latencyUs, 0),
                   fmtDouble(m.peakMemoryBytes / gib, 3)});
    }
    std::printf("%s", table.render().c_str());
}

} // namespace

int
main()
{
    std::printf("=== PrimePar ablations ===\n\n");
    ablationFidelity();
    ablationSpace();
    ablationOverlap();
    ablationAlpha();
    return 0;
}
