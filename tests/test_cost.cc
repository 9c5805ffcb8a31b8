/**
 * @file
 * Tests of the profiler and the analytic cost model, including the
 * key fidelity property: the cost model's strategy ranking agrees
 * with the event simulator's measurements.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "cost/cost_model.hh"
#include "cost/profiler.hh"
#include "partition/space.hh"
#include "sim/model_sim.hh"

namespace primepar {
namespace {

TEST(Profiler, FitsAreNearPerfectOnLinearSimulator)
{
    const auto topo = ClusterTopology::paperCluster(8);
    const auto models = profileModels(topo);
    const auto q = profileQuality(topo, models);
    EXPECT_GT(q.worstAllReduceR2, 0.999);
    EXPECT_GT(q.ringHopR2, 0.999);
    EXPECT_GT(q.matmulR2, 0.999);
}

TEST(Profiler, AllReduceModelsCoverAllPatterns)
{
    const auto topo = ClusterTopology::paperCluster(32);
    const auto models = profileModels(topo);
    // 8 nodes x 4 GPUs: inter bits 0..3, intra bits 0..2, minus empty.
    EXPECT_EQ(models.allReduce.size(), 4u * 3u - 1u);
    // Cross-node patterns are slower per byte.
    const auto intra = models.allReduce.at({0, 2});
    const auto inter = models.allReduce.at({2, 0});
    const double bytes = 64.0 * 1024 * 1024;
    EXPECT_GT(inter(bytes), intra(bytes));
}

TEST(CostModel, PSquareBeatsRowColumnOnBigLinear)
{
    // The core motivation: for a large linear over 4 intra-node
    // devices, P2x2 should cost less than any all-reduce strategy.
    const auto topo = ClusterTopology::paperCluster(4);
    const CostModel cm(topo, profileModels(topo));
    const OpSpec op = makeLinearOp("fc", 8, 2048, 12288, 49152);

    const PartitionSeq psq({PartitionStep::pSquare(1)});
    const PartitionSeq row(
        {PartitionStep::byDim(2), PartitionStep::byDim(2)});
    const IntraCost c_psq = cm.intraCost(op, psq);
    const IntraCost c_row = cm.intraCost(op, row);
    EXPECT_EQ(c_psq.allReduceUs, 0.0);
    EXPECT_GT(c_row.allReduceUs, 0.0);
    EXPECT_LT(c_psq.latencyUs, c_row.latencyUs);
    EXPECT_LT(c_psq.memoryBytes, c_row.memoryBytes);
}

TEST(CostModel, AlphaWeightsMemory)
{
    const auto topo = ClusterTopology::paperCluster(4);
    const auto models = profileModels(topo);
    const CostModel no_alpha(topo, models, 0.0);
    const CostModel with_alpha(topo, models, 10.0);
    const OpSpec op = makeLinearOp("fc", 8, 1024, 1024, 1024);
    const PartitionSeq seq(
        {PartitionStep::byDim(1), PartitionStep::byDim(1)});
    EXPECT_EQ(no_alpha.intraCost(op, seq).weighted,
              no_alpha.intraCost(op, seq).latencyUs);
    EXPECT_GT(with_alpha.intraCost(op, seq).weighted,
              with_alpha.intraCost(op, seq).latencyUs);
}

TEST(CostModel, TrafficElementsMatchesEq9)
{
    // The evaluator's total traffic (both link classes) must equal
    // Eq. 9, sum_D (V - prod_X |S1 ^ S2|), as realised by the full
    // redistribution planner, over every pair of the 2-bit space.
    const OpSpec op = makeLinearOp("fc", 4, 8, 8, 8);
    const ClusterTopology topo = ClusterTopology::paperCluster(4);
    const CostModel cm(topo, profileModels(topo));
    const EdgeDimMap map{0, 1, 3};
    const auto space = enumerateSequences(op, 2);
    for (const auto &a : space) {
        DsiTable da(op, a, 2);
        const auto have = layoutOf(op, da, {op.outputTensor, false},
                                   Phase::Forward, da.steps() - 1, map,
                                   {4, 8, 8});
        for (const auto &b : space) {
            DsiTable db(op, b, 2);
            const auto need =
                layoutOf(op, db, {0, false}, Phase::Forward, 0,
                         EdgeDimMap{0, 1, 2}, {4, 8, 8});
            const auto plan = planRedistribution(have, need);
            const auto split = cm.trafficSplit(have, need);
            EXPECT_EQ(split.intraNode + split.interNode,
                      plan.totalElements)
                << a.toString(op) << " -> " << b.toString(op);
        }
    }
}

/** Distinct layouts of tensor @p ref over the whole sequence space
 *  of @p op, read at the first (@p last = false) or last step of
 *  @p phase. */
std::vector<TensorLayout>
distinctLayouts(const OpSpec &op, int bits, TensorRef ref, Phase phase,
                bool last, const EdgeDimMap &map,
                const std::vector<std::int64_t> &sizes)
{
    std::vector<TensorLayout> out;
    std::set<std::vector<std::vector<SliceRange>>> seen;
    for (const auto &seq : enumerateSequences(op, bits)) {
        const DsiTable dsi(op, seq, bits);
        auto layout = layoutOf(op, dsi, ref, phase,
                               last ? dsi.steps() - 1 : 0, map, sizes);
        if (seen.insert(layout.deviceBox).second)
            out.push_back(std::move(layout));
    }
    return out;
}

TEST(CostModel, TrafficSplitMatchesFullPlan)
{
    // The traffic evaluator must agree exactly with the full
    // redistribution planner on both link classes, for every pair of
    // realizable boundary layouts (replicated producers included), in
    // both phases, on hierarchical clusters and on a torus — where
    // the fast link class is "torus neighbour", not "same row".
    const OpSpec op = makeLinearOp("fc", 16, 16, 16, 16);
    const std::vector<std::int64_t> sizes{16, 16, 16};
    const EdgeDimMap out_map{0, 1, 3}, in_map{0, 1, 2};
    for (const ClusterTopology &topo :
         {ClusterTopology::paperCluster(8),
          ClusterTopology::paperCluster(16),
          ClusterTopology::torus2d(4)}) {
        const CostModel cm(topo, profileModels(topo));
        const int bits = topo.numBits();
        const TensorRef out{op.outputTensor, false};
        const TensorRef in{0, false};
        const TensorRef d_out{op.outputTensor, true};
        const TensorRef d_in{0, true};
        const std::vector<std::pair<std::vector<TensorLayout>,
                                    std::vector<TensorLayout>>>
            phases{
                {distinctLayouts(op, bits, out, Phase::Forward, true,
                                 out_map, sizes),
                 distinctLayouts(op, bits, in, Phase::Forward, false,
                                 in_map, sizes)},
                {distinctLayouts(op, bits, d_in, Phase::Backward, true,
                                 in_map, sizes),
                 distinctLayouts(op, bits, d_out, Phase::Backward,
                                 false, out_map, sizes)},
            };
        std::int64_t checked = 0, fast_bytes = 0;
        for (const auto &[haves, needs] : phases) {
            std::vector<CostModel::PreparedNeed> prepared_needs;
            for (const auto &need : needs)
                prepared_needs.push_back(cm.prepareNeed(need));
            for (const auto &have : haves) {
                const auto source = cm.prepareSource(have);
                for (std::size_t n = 0; n < needs.size(); ++n) {
                    const auto split =
                        cm.trafficSplit(source, prepared_needs[n]);
                    const RedistPlan plan =
                        planRedistribution(have, needs[n], &topo);
                    std::int64_t intra = 0, inter = 0;
                    for (const auto &tr : plan.transfers) {
                        if (topo.sameNode(tr.src, tr.dst))
                            intra += tr.elements;
                        else
                            inter += tr.elements;
                    }
                    ASSERT_EQ(split.intraNode, intra)
                        << topo.numDevices() << " devices, pair "
                        << checked;
                    ASSERT_EQ(split.interNode, inter)
                        << topo.numDevices() << " devices, pair "
                        << checked;
                    fast_bytes += intra;
                    ++checked;
                }
            }
        }
        EXPECT_GT(checked, 100);
        EXPECT_GT(fast_bytes, 0); // the fast link class is exercised
    }
}

TEST(CostModelDeath, PrepareSourceRejectsOverlappingIntervals)
{
    // A source whose per-dim intervals overlap is no product grid;
    // the range query would double-count, so preparation refuses it.
    const ClusterTopology topo = ClusterTopology::paperCluster(2);
    const CostModel cm(topo, profileModels(topo));
    TensorLayout have;
    have.dimSizes = {6};
    have.deviceBox = {{SliceRange{0, 4}}, {SliceRange{2, 6}}};
    EXPECT_DEATH(cm.prepareSource(have), "not a product grid");
}

TEST(CostModelDeath, PrepareSourceRejectsUncoveredTensor)
{
    // Disjoint boxes that leave a hole do not tile the tensor: the
    // slow-link share (need volume minus the fast share) would charge
    // elements nobody holds, so preparation refuses it.
    const ClusterTopology topo = ClusterTopology::paperCluster(2);
    const CostModel cm(topo, profileModels(topo));
    TensorLayout have;
    have.dimSizes = {6};
    have.deviceBox = {{SliceRange{0, 2}}, {SliceRange{4, 6}}};
    EXPECT_DEATH(cm.prepareSource(have), "not a tiling");
}

TEST(CostModel, IntraCheaperThanInterRedistribution)
{
    const ClusterTopology topo = ClusterTopology::paperCluster(8);
    const CostModel cm(topo, profileModels(topo));
    const double bytes = 64.0 * 1024 * 1024;
    EXPECT_LT(cm.redistLatencyUs(bytes, 0.0),
              cm.redistLatencyUs(0.0, bytes));
    EXPECT_EQ(cm.redistLatencyUs(0.0, 0.0), 0.0);
}

TEST(CostModel, RankingAgreesWithSimulator)
{
    // Fidelity: over the whole space of a realistic linear operator,
    // the analytic cost and the simulated latency must correlate —
    // in particular the cost-optimal strategy must be near-optimal
    // under simulation.
    const auto topo = ClusterTopology::paperCluster(8);
    const CostModel cm(topo, profileModels(topo));
    const OpSpec op = makeLinearOp("fc", 8, 2048, 4096, 16384);

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
    // The strategy the model picks is within 20% of the simulator's
    // optimum.
    EXPECT_LT(sim_cost[best_model], 1.2 * best_sim)
        << "model picked " << space[best_model].toString(op);

    // Rank correlation (Spearman-lite): top-10% by model overlaps
    // top-25% by simulator.
    std::vector<std::size_t> by_model(space.size()), by_sim(space.size());
    for (std::size_t i = 0; i < space.size(); ++i)
        by_model[i] = by_sim[i] = i;
    std::sort(by_model.begin(), by_model.end(), [&](auto x, auto y) {
        return model_cost[x] < model_cost[y];
    });
    std::sort(by_sim.begin(), by_sim.end(), [&](auto x, auto y) {
        return sim_cost[x] < sim_cost[y];
    });
    const std::size_t k = std::max<std::size_t>(1, space.size() / 10);
    const std::size_t k4 = std::max<std::size_t>(k, space.size() / 4);
    int hits = 0;
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k4; ++j) {
            if (by_model[i] == by_sim[j]) {
                ++hits;
                break;
            }
        }
    }
    EXPECT_GE(hits, static_cast<int>(k / 2));
}

TEST(CostModel, LayerNormSplitFeatureCostsExpectationExchange)
{
    const auto topo = ClusterTopology::paperCluster(4);
    const CostModel cm(topo, profileModels(topo));
    const OpSpec op = makeLayerNormOp("ln", 8, 2048, 4096);

    const PartitionSeq row_split(
        {PartitionStep::byDim(1), PartitionStep::byDim(1)});
    const PartitionSeq feat_split(
        {PartitionStep::byDim(2), PartitionStep::byDim(2)});
    // Splitting rows: gradient all-reduce of gamma only. Splitting the
    // normalized dim additionally pays the expectation exchange.
    const IntraCost c_row = cm.intraCost(op, row_split);
    const IntraCost c_feat = cm.intraCost(op, feat_split);
    EXPECT_GT(c_feat.allReduceUs, 0.0);
    EXPECT_GT(c_row.allReduceUs, 0.0);
}

} // namespace
} // namespace primepar
