/**
 * @file
 * Tests of the segmented DP optimizer: optimality against brute force
 * on small graphs (the paper's Sec. 5.2 claim), segmentation handling
 * of skip edges, catalog/edge-table construction, and end-to-end
 * search behaviour on the transformer block.
 */

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/megatron.hh"
#include "brute_force_oracle.hh"
#include "graph/transformer.hh"
#include "intra_cost_oracle.hh"
#include "optimizer/catalog.hh"
#include "optimizer/catalog_cache.hh"
#include "optimizer/segmented_dp.hh"
#include "runtime/metrics.hh"

namespace primepar {
namespace {

/** Small MLP-block fixture over a 4-device node. */
struct SmallFixture
{
    SmallFixture()
        : topo(ClusterTopology::paperCluster(4)),
          models(profileModels(topo)), cost(topo, models)
    {
        ModelConfig cfg = opt6p7b();
        cfg.seqLength = 512;
        graph = buildMlpBlock(cfg, 8);
    }

    ClusterTopology topo;
    ProfiledModels models;
    CostModel cost;
    CompGraph graph;
};

TEST(Catalog, BuildsAllSequencesWithCosts)
{
    SmallFixture f;
    const auto catalogs = buildAllNodeCatalogs(f.graph, f.cost, {});
    const NodeCatalog &cat = *catalogs[0];
    EXPECT_GT(cat.size(), 16); // 4^2 ByDim + PSquare variants
    EXPECT_EQ(cat.seqs.size(), cat.intraCost.size());
    for (double c : cat.intraCost)
        EXPECT_GT(c, 0.0);
}

TEST(Catalog, EdgeTableSymmetryForAlignedPairs)
{
    SmallFixture f;
    const auto catalogs = buildAllNodeCatalogs(f.graph, f.cost, {});
    const NodeCatalog &src = *catalogs[0];
    const NodeCatalog &dst = *catalogs[1];
    const auto table = buildEdgeCostTable(
        f.graph, f.graph.edges()[0], src, dst, f.cost);
    EXPECT_EQ(table.srcSize, src.size());
    EXPECT_EQ(table.dstSize, dst.size());

    // fc1 partitioned B,K feeding relu partitioned B,F is perfectly
    // aligned: zero redistribution cost.
    int fc1_bk = -1, relu_bf = -1;
    const PartitionSeq bk({PartitionStep::byDim(0),
                           PartitionStep::byDim(3)});
    const PartitionSeq bf({PartitionStep::byDim(0),
                           PartitionStep::byDim(2)});
    for (int i = 0; i < src.size(); ++i)
        if (src.seqs[i] == bk)
            fc1_bk = i;
    for (int i = 0; i < dst.size(); ++i)
        if (dst.seqs[i] == bf)
            relu_bf = i;
    ASSERT_GE(fc1_bk, 0);
    ASSERT_GE(relu_bf, 0);
    EXPECT_EQ(table.at(fc1_bk, relu_bf), 0.0);

    // Misaligned pair costs something: fc1 split B,K feeding relu
    // split M,M.
    const PartitionSeq mm({PartitionStep::byDim(1),
                           PartitionStep::byDim(1)});
    int relu_mm = -1;
    for (int i = 0; i < dst.size(); ++i)
        if (dst.seqs[i] == mm)
            relu_mm = i;
    ASSERT_GE(relu_mm, 0);
    EXPECT_GT(table.at(fc1_bk, relu_mm), 0.0);
}

/**
 * The symbolic catalog against the per-device OpPlan oracle, for the
 * first @p per_node sequences of every node's catalog: the Eq. 7 cost
 * (every IntraCost field, byte for byte, and the catalog's stored
 * weighted cost) and the four boundary layouts each edge classifies —
 * forward end/start and backward end/start — device by device.
 */
void
expectSymbolicMatchesOracle(const CompGraph &g, const CostModel &cost,
                            const SpaceOptions &space, int per_node)
{
    const int bits = cost.topology().numBits();
    const auto catalogs = buildAllNodeCatalogs(g, cost, space);
    std::set<const NodeCatalog *> priced;
    for (int node = 0; node < g.numNodes(); ++node) {
        const OpSpec &op = g.node(node);
        const NodeCatalog &cat = *catalogs[node];
        // Nodes sharing a catalog are structurally identical.
        const bool fresh = priced.insert(&cat).second;
        for (int s = 0; s < std::min(cat.size(), per_node); ++s) {
            const PartitionSeq &seq = cat.seqs[s];
            const std::string where =
                std::to_string(cost.topology().numDevices()) +
                " devices, " + op.name + " " + seq.toString(op);
            if (fresh) {
                const IntraCost want =
                    oracleIntraCost(cost, OpPlan(op, seq, bits));
                const IntraCost got = cost.intraCost(op, seq);
                EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
                    << where << ": latency " << got.latencyUs << " vs "
                    << want.latencyUs << ", ring " << got.ringUs << " vs "
                    << want.ringUs << ", all-reduce " << got.allReduceUs
                    << " vs " << want.allReduceUs << ", memory "
                    << got.memoryBytes << " vs " << want.memoryBytes;
                EXPECT_EQ(std::memcmp(&cat.intraCost[s], &want.weighted,
                                      sizeof want.weighted),
                          0)
                    << where;
            }
            const DsiTable dsi(op, seq, bits);
            const int last = dsi.steps() - 1;
            for (const GraphEdge &e : g.edges()) {
                if (e.src != node && e.dst != node)
                    continue;
                const auto sizes = g.transferSizes(e);
                EdgeDimMap consumer_map;
                for (int d : g.node(e.dst).tensors[e.dstTensor].dims)
                    consumer_map.push_back(d);
                const auto check = [&](const TensorRef &ref, Phase phase,
                                       int t, const EdgeDimMap &map) {
                    const TensorLayout want =
                        layoutOf(op, dsi, ref, phase, t, map, sizes);
                    const TensorLayout got = layoutOf(
                        op, seq, bits, ref, phase, t, map, sizes);
                    EXPECT_EQ(got.dimSizes, want.dimSizes) << where;
                    ASSERT_EQ(got.numDevices(), want.numDevices());
                    for (std::int64_t dev = 0; dev < got.numDevices();
                         ++dev) {
                        EXPECT_TRUE(got.deviceBox[dev] ==
                                    want.deviceBox[dev])
                            << where << ", edge " << e.src << " -> "
                            << e.dst << ", " << phaseName(phase)
                            << " t=" << t << ", device " << dev;
                    }
                };
                if (e.src == node) {
                    check({op.outputTensor, false}, Phase::Forward, last,
                          e.dimMap);
                    check({op.outputTensor, true}, Phase::Backward, 0,
                          e.dimMap);
                }
                if (e.dst == node) {
                    check({e.dstTensor, false}, Phase::Forward, 0,
                          consumer_map);
                    check({e.dstTensor, true}, Phase::Backward, last,
                          consumer_map);
                }
            }
        }
    }
}

TEST(Catalog, SymbolicCostMatchesOpPlanOracle)
{
    const ModelConfig cfg = opt6p7b();
    const CompGraph block = buildTransformerBlock(cfg, 8);
    const CompGraph mlp = buildMlpBlock(cfg, 8);
    const auto all = std::numeric_limits<int>::max();
    for (const ClusterTopology &topo :
         {ClusterTopology::paperCluster(4), ClusterTopology::paperCluster(8),
          ClusterTopology::paperCluster(16),
          ClusterTopology::paperCluster(32), ClusterTopology::torus2d(4)}) {
        const CostModel cost(topo, profileModels(topo));
        expectSymbolicMatchesOracle(block, cost, {}, all);
        expectSymbolicMatchesOracle(mlp, cost, {}, all);
    }

    // The big-topology beam: the first 16 sequences per node, under
    // the 512-device bounds bench_table2_opttime plans with.
    const ClusterTopology big = ClusterTopology::paperCluster(512);
    const CostModel cost(big, profileModels(big));
    SpaceOptions beam;
    beam.maxTemporalSteps = 8;
    beam.candidateBudget = 16;
    expectSymbolicMatchesOracle(block, cost, beam, 16);
}

TEST(Catalog, EdgeTableMatchesFullPlanPerPair)
{
    // Every priced entry of an edge table is the forward plus backward
    // link split of the full redistribution planner, through the
    // fitted latency model: checked on a hierarchical cluster and on a
    // torus (reach sets spanning several domains), on every edge, over
    // a fixed stride of (producer, consumer) sequence pairs.
    constexpr std::size_t kStride = 101;
    for (const ClusterTopology &topo : {ClusterTopology::paperCluster(16),
                                        ClusterTopology::torus2d(4)}) {
        const CostModel cost(topo, profileModels(topo));
        const int bits = topo.numBits();
        const CompGraph g = buildTransformerBlock(opt6p7b(), 8);
        const auto catalogs = buildAllNodeCatalogs(g, cost, {});
        std::int64_t intra = 0, inter = 0;
        const auto add_split = [&](const TensorLayout &have,
                                   const TensorLayout &need) {
            const RedistPlan plan = planRedistribution(have, need, &topo);
            for (const BlockTransfer &tr : plan.transfers)
                (topo.sameNode(tr.src, tr.dst) ? intra : inter) +=
                    tr.elements;
        };
        std::size_t checked = 0;
        for (const GraphEdge &edge : g.edges()) {
            const OpSpec &producer = g.node(edge.src);
            const OpSpec &consumer = g.node(edge.dst);
            const NodeCatalog &src = *catalogs[edge.src];
            const NodeCatalog &dst = *catalogs[edge.dst];
            const auto table = buildEdgeCostTable(g, edge, src, dst, cost);
            const auto sizes = g.transferSizes(edge);
            EdgeDimMap consumer_map;
            for (int d : consumer.tensors[edge.dstTensor].dims)
                consumer_map.push_back(d);
            const TensorRef out{producer.outputTensor, false};
            const TensorRef d_out{producer.outputTensor, true};
            const TensorRef in{edge.dstTensor, false};
            const TensorRef d_in{edge.dstTensor, true};
            for (std::size_t idx = 0; idx < table.cost.size();
                 idx += kStride) {
                const PartitionSeq &a = src.seqs[idx / dst.size()];
                const PartitionSeq &b = dst.seqs[idx % dst.size()];
                intra = inter = 0;
                add_split(layoutOf(producer, a, bits, out, Phase::Forward,
                                   a.temporalSteps() - 1, edge.dimMap,
                                   sizes),
                          layoutOf(consumer, b, bits, in, Phase::Forward, 0,
                                   consumer_map, sizes));
                add_split(layoutOf(consumer, b, bits, d_in,
                                   Phase::Backward, b.temporalSteps() - 1,
                                   consumer_map, sizes),
                          layoutOf(producer, a, bits, d_out,
                                   Phase::Backward, 0, edge.dimMap,
                                   sizes));
                const double bpe = consumer.bytesPerElement;
                const float want = static_cast<float>(cost.redistLatencyUs(
                    static_cast<double>(intra) * bpe,
                    static_cast<double>(inter) * bpe));
                EXPECT_EQ(table.cost[idx], want)
                    << topo.numDevices() << " devices, edge " << edge.src
                    << " -> " << edge.dst << ", " << a.toString(producer)
                    << " -> " << b.toString(consumer);
                ++checked;
            }
        }
        EXPECT_GT(checked, 500u);
    }
}

TEST(Catalog, BudgetedTableMatchesFullTable)
{
    // A table over candidate subsets under a finite pair budget prices
    // every in-budget (ps, pd) exactly as the full table prices
    // (cand[ps], cand[pd]) and sets every other entry to +inf, so a
    // position with no pair under the budget (one that builds no
    // source view) has an all-+inf row or column.
    SmallFixture f;
    const auto catalogs = buildAllNodeCatalogs(f.graph, f.cost, {});
    for (const GraphEdge &edge : f.graph.edges()) {
        const NodeCatalog &src = *catalogs[edge.src];
        const NodeCatalog &dst = *catalogs[edge.dst];
        const auto full = buildEdgeCostTable(f.graph, edge, src, dst, f.cost);
        std::vector<std::int32_t> src_cand, dst_cand;
        for (int s = 0; s < src.size(); s += 2)
            src_cand.push_back(s);
        for (int d = 1; d < dst.size(); d += 3)
            dst_cand.push_back(d);
        // Budget: the median summed intra cost of the candidate pairs.
        std::vector<double> sums;
        for (const std::int32_t s : src_cand)
            for (const std::int32_t d : dst_cand)
                sums.push_back(src.intraCost[s] + dst.intraCost[d]);
        std::nth_element(sums.begin(), sums.begin() + sums.size() / 2,
                         sums.end());
        EdgeTableOptions topts;
        topts.srcCandidates = &src_cand;
        topts.dstCandidates = &dst_cand;
        topts.pairBudget = sums[sums.size() / 2];
        const auto table = buildEdgeCostTable(f.graph, edge, src, dst,
                                              f.cost, nullptr, topts);
        ASSERT_EQ(table.srcSize, static_cast<int>(src_cand.size()));
        ASSERT_EQ(table.dstSize, static_cast<int>(dst_cand.size()));

        std::size_t in_budget = 0;
        std::vector<char> src_live(src_cand.size(), 0);
        std::vector<char> dst_live(dst_cand.size(), 0);
        for (std::size_t ps = 0; ps < src_cand.size(); ++ps) {
            for (std::size_t pd = 0; pd < dst_cand.size(); ++pd) {
                const int s = src_cand[ps], d = dst_cand[pd];
                const double got = table.at(static_cast<int>(ps),
                                            static_cast<int>(pd));
                if (src.intraCost[s] + dst.intraCost[d] > topts.pairBudget) {
                    EXPECT_EQ(got, std::numeric_limits<double>::infinity())
                        << "pair " << ps << ", " << pd;
                    continue;
                }
                EXPECT_EQ(got, full.at(s, d)) << "pair " << ps << ", " << pd;
                src_live[ps] = dst_live[pd] = 1;
                ++in_budget;
            }
        }
        EXPECT_GT(in_budget, 0u);
        const auto dead = std::count(src_live.begin(), src_live.end(), 0) +
                          std::count(dst_live.begin(), dst_live.end(), 0);
        EXPECT_GT(dead, 0) << "every position has a pair under the budget";
        const double inf = std::numeric_limits<double>::infinity();
        for (std::size_t ps = 0; ps < src_cand.size(); ++ps) {
            for (std::size_t pd = 0; pd < dst_cand.size(); ++pd) {
                if (src_live[ps] && dst_live[pd])
                    continue;
                EXPECT_EQ(table.at(static_cast<int>(ps),
                                   static_cast<int>(pd)),
                          inf)
                    << "pair " << ps << ", " << pd;
            }
        }
    }
}

TEST(SegmentedDp, MatchesBruteForceOnChain)
{
    SmallFixture f;
    DpOptions opts;
    const DpResult dp =
        SegmentedDpOptimizer(f.graph, f.cost, opts).optimize();
    const DpResult bf =
        bruteForceOptimize(f.graph, f.cost, opts.space);
    EXPECT_NEAR(dp.layerCost, bf.layerCost,
                1e-6 * std::max(1.0, bf.layerCost));
    // The DP's chosen strategies evaluate to its reported cost.
    EXPECT_EQ(dp.strategies.size(), 3u);
}

TEST(SegmentedDp, MatchesBruteForceOnGraphWithSkipEdge)
{
    // Tiny residual graph: n0 -> n1 -> n2(add), skip n0 -> n2.
    const auto topo = ClusterTopology::paperCluster(4);
    const CostModel cost(topo, profileModels(topo));

    CompGraph g;
    g.addNode(makeElementwiseOp("input", {"B", "M", "H"},
                                {8, 256, 1024}, 0.0));
    g.addNode(makeElementwiseOp("gelu", {"B", "M", "H"},
                                {8, 256, 1024}));
    g.addNode(makeAddOp("res", {"B", "M", "H"}, {8, 256, 1024}));
    g.addEdge(0, 1, 0, {0, 1, 2});
    g.addEdge(1, 2, 0, {0, 1, 2});
    g.addEdge(0, 2, 1, {0, 1, 2});

    DpOptions opts;
    const DpResult dp = SegmentedDpOptimizer(g, cost, opts).optimize();
    const DpResult bf = bruteForceOptimize(g, cost, opts.space);
    EXPECT_NEAR(dp.layerCost, bf.layerCost,
                1e-6 * std::max(1.0, bf.layerCost));
}

TEST(SegmentedDp, PrimeParNoWorseThanConventionalSpace)
{
    SmallFixture f;
    DpOptions with;
    DpOptions without;
    without.space.allowPSquare = false;
    const DpResult pp =
        SegmentedDpOptimizer(f.graph, f.cost, with).optimize();
    const DpResult conv =
        SegmentedDpOptimizer(f.graph, f.cost, without).optimize();
    EXPECT_LE(pp.layerCost, conv.layerCost + 1e-9);
}

TEST(SegmentedDp, PicksPSquareForBigLinearsOnOneNode)
{
    // Large MLP on 4 NVLink devices: the optimum should use the
    // temporal primitive on at least one linear (the paper's headline
    // behaviour).
    const auto topo = ClusterTopology::paperCluster(4);
    const CostModel cost(topo, profileModels(topo));
    const CompGraph g = buildMlpBlock(opt175b(), 8);

    DpOptions opts;
    opts.space.excludedDims = {0}; // isolate tensor parallelism
    const DpResult dp = SegmentedDpOptimizer(g, cost, opts).optimize();
    const bool uses_psquare = dp.strategies[0].hasPSquare() ||
                              dp.strategies[2].hasPSquare();
    EXPECT_TRUE(uses_psquare)
        << "fc1: " << dp.strategies[0].toString(g.node(0)) << ", fc2: "
        << dp.strategies[2].toString(g.node(2));
}

TEST(SegmentedDp, TransformerBlockFullSearch)
{
    const auto topo = ClusterTopology::paperCluster(8);
    const CostModel cost(topo, profileModels(topo));
    ModelConfig cfg = opt6p7b();
    const CompGraph g = buildTransformerBlock(cfg, 8);

    DpOptions opts;
    opts.numLayers = cfg.numLayers;
    const DpResult dp = SegmentedDpOptimizer(g, cost, opts).optimize();
    EXPECT_EQ(dp.strategies.size(), 13u);
    EXPECT_GT(dp.layerCost, 0.0);
    // Stacked cost ~ layers x layer cost (minus shared boundaries).
    EXPECT_GT(dp.totalCost, dp.layerCost * (cfg.numLayers - 1));
    EXPECT_GT(dp.optimizationMs, 0.0);

    // Every chosen strategy is valid for its node.
    for (int n = 0; n < g.numNodes(); ++n)
        EXPECT_TRUE(dp.strategies[n].validate(g.node(n)).empty());
}

TEST(SegmentedDp, StackedLayersPreferAlignedBoundaries)
{
    SmallFixture f;
    DpOptions opts;
    opts.numLayers = 8;
    const DpResult dp =
        SegmentedDpOptimizer(f.graph, f.cost, opts).optimize();
    EXPECT_GE(dp.totalCost, dp.layerCost);
    EXPECT_LE(dp.totalCost, 8.0 * dp.layerCost + 1e-6);
}

TEST(SegmentedDp, BitIdenticalAcrossThreadCounts)
{
    // The determinism contract of support/parallel.hh: every thread
    // count yields the same strategies and the exact same costs.
    const auto topo = ClusterTopology::paperCluster(8);
    const CostModel cost(topo, profileModels(topo));
    ModelConfig cfg = opt6p7b();
    const CompGraph g = buildTransformerBlock(cfg, 8);

    const auto run = [&](int threads) {
        DpOptions opts;
        opts.numLayers = cfg.numLayers;
        opts.numThreads = threads;
        return SegmentedDpOptimizer(g, cost, opts).optimize();
    };
    const DpResult serial = run(1);
    for (int threads : {2, 8, 0}) {
        const DpResult r = run(threads);
        EXPECT_EQ(r.strategies, serial.strategies)
            << "threads = " << threads;
        EXPECT_EQ(r.layerCost, serial.layerCost)
            << "threads = " << threads;
        EXPECT_EQ(r.totalCost, serial.totalCost)
            << "threads = " << threads;
    }
}

TEST(SegmentedDp, IdenticalNodesShareOneCatalog)
{
    // The transformer block repeats structures (two layernorms, two
    // residual adds): fewer catalogs are built than nodes exist, with
    // the rest reported as cache hits — even without an external
    // cache.
    const auto topo = ClusterTopology::paperCluster(8);
    const CostModel cost(topo, profileModels(topo));
    const CompGraph g = buildTransformerBlock(opt6p7b(), 8);

    DpOptions opts;
    const DpResult r = SegmentedDpOptimizer(g, cost, opts).optimize();
    EXPECT_LT(r.catalogsBuilt, g.numNodes());
    EXPECT_GE(r.catalogCacheHits, 2);
    EXPECT_EQ(r.catalogsBuilt + r.catalogCacheHits, g.numNodes());
}

TEST(SegmentedDp, CatalogCachePersistsAcrossRuns)
{
    SmallFixture f;
    const auto cache = std::make_shared<CatalogCache>();
    DpOptions opts;
    opts.catalogCache = cache;

    const DpResult first =
        SegmentedDpOptimizer(f.graph, f.cost, opts).optimize();
    EXPECT_GT(first.catalogsBuilt, 0);
    const std::size_t resident = cache->size();
    EXPECT_EQ(resident, static_cast<std::size_t>(first.catalogsBuilt));

    // Second run: every node is served from the cache...
    const DpResult second =
        SegmentedDpOptimizer(f.graph, f.cost, opts).optimize();
    EXPECT_EQ(second.catalogsBuilt, 0);
    EXPECT_EQ(second.catalogCacheHits, f.graph.numNodes());
    EXPECT_EQ(cache->size(), resident);
    EXPECT_EQ(second.strategies, first.strategies);
    EXPECT_EQ(second.layerCost, first.layerCost);

    // ...and bruteForceOptimize shares the same store.
    const std::size_t hits_before = cache->hits();
    const DpResult bf = bruteForceOptimize(f.graph, f.cost, opts.space,
                                           cache.get(), 2);
    EXPECT_EQ(bf.catalogsBuilt, 0);
    EXPECT_GT(cache->hits(), hits_before);
    EXPECT_NEAR(bf.layerCost, first.layerCost,
                1e-6 * std::max(1.0, first.layerCost));

    // A different space is a different key: nothing aliases.
    DpOptions conv = opts;
    conv.space.allowPSquare = false;
    const DpResult spatial =
        SegmentedDpOptimizer(f.graph, f.cost, conv).optimize();
    EXPECT_GT(spatial.catalogsBuilt, 0);
    EXPECT_GT(cache->size(), resident);
}

TEST(SegmentedDp, ParallelEdgesSummedViaEdgeIndex)
{
    // Two edges between the same node pair (both add inputs fed by
    // node 0) exercise the multi-table accumulation behind the
    // (src, dst) edge index; the DP must still match brute force.
    const auto topo = ClusterTopology::paperCluster(4);
    const CostModel cost(topo, profileModels(topo));

    CompGraph g;
    g.addNode(makeElementwiseOp("input", {"B", "M", "H"},
                                {8, 256, 1024}, 0.0));
    g.addNode(makeAddOp("sum", {"B", "M", "H"}, {8, 256, 1024}));
    g.addEdge(0, 1, 0, {0, 1, 2});
    g.addEdge(0, 1, 1, {0, 1, 2});

    DpOptions opts;
    const DpResult dp = SegmentedDpOptimizer(g, cost, opts).optimize();
    const DpResult bf = bruteForceOptimize(g, cost, opts.space);
    EXPECT_NEAR(dp.layerCost, bf.layerCost,
                1e-6 * std::max(1.0, bf.layerCost));
    EXPECT_EQ(dp.strategies.size(), 2u);
}

TEST(SegmentedDp, ReportsPhaseTimings)
{
    SmallFixture f;
    DpOptions opts;
    const DpResult r =
        SegmentedDpOptimizer(f.graph, f.cost, opts).optimize();
    EXPECT_GT(r.catalogMs, 0.0);
    EXPECT_GT(r.edgeTableMs, 0.0);
    EXPECT_GT(r.dpMs, 0.0);
    EXPECT_LE(r.catalogMs + r.edgeTableMs + r.dpMs,
              r.optimizationMs + 1e-6);
}

TEST(Baselines, MegatronStrategiesMatchHandRules)
{
    const CompGraph g = buildTransformerBlock(opt6p7b(), 8);
    const auto strat = megatronStrategies(g, {2, 4});
    ASSERT_TRUE(strat.has_value());
    ASSERT_EQ(strat->size(), 13u);

    const TransformerBlockIndex idx;
    // QKV: batch then column (K twice).
    EXPECT_EQ((*strat)[idx.qkv].toString(g.node(idx.qkv)), "B,K,K");
    // Out-proj: row.
    EXPECT_EQ((*strat)[idx.outProj].toString(g.node(idx.outProj)),
              "B,N,N");
    // Attention matmuls: heads.
    EXPECT_EQ((*strat)[idx.qk].toString(g.node(idx.qk)), "B,Hd,Hd");
    // fc1 column, fc2 row.
    EXPECT_EQ((*strat)[idx.fc1].toString(g.node(idx.fc1)), "B,K,K");
    EXPECT_EQ((*strat)[idx.fc2].toString(g.node(idx.fc2)), "B,N,N");
    // gelu aligns with fc1's column split.
    EXPECT_EQ((*strat)[idx.activation].toString(
                  g.node(idx.activation)),
              "B,F,F");
}

TEST(Baselines, InfeasibleConfigRejected)
{
    // d = 16 > batch 8 cannot split the batch dimension.
    const CompGraph g = buildTransformerBlock(opt6p7b(), 8);
    EXPECT_FALSE(megatronStrategies(g, {16, 2}).has_value());
}

TEST(Baselines, BestMegatronPlanPicksFeasibleOptimum)
{
    const auto topo = ClusterTopology::paperCluster(8);
    const CostModel cost(topo, profileModels(topo));
    const CompGraph g = buildTransformerBlock(opt6p7b(), 8);
    const MegatronPlan plan = bestMegatronPlan(g, cost);
    EXPECT_EQ(plan.config.dataParallel * plan.config.modelParallel, 8);
    EXPECT_GT(plan.cost, 0.0);
}

TEST(Baselines, AlpaNeverUsesPSquareAndPrimeParWins)
{
    const auto topo = ClusterTopology::paperCluster(4);
    const CostModel cost(topo, profileModels(topo));
    const CompGraph g = buildMlpBlock(opt175b(), 8);

    const DpResult alpa = alpaOptimize(g, cost);
    for (const auto &seq : alpa.strategies)
        EXPECT_FALSE(seq.hasPSquare());

    DpOptions opts;
    const DpResult pp = SegmentedDpOptimizer(g, cost, opts).optimize();
    EXPECT_LE(pp.layerCost, alpa.layerCost + 1e-9);
}

TEST(SegmentedDp, ReplanForSurvivorsShrinksTheGrid)
{
    ModelConfig cfg = opt6p7b();
    cfg.seqLength = 512;
    const CompGraph g = buildMlpBlock(cfg, 8);

    // The recovery entry: plan for 4 devices, then for the 2 survivors
    // of a failure. Both must be complete, valid plans for their grid.
    for (const int devices : {4, 2}) {
        const DpResult res = replanForSurvivors(g, devices);
        ASSERT_EQ(static_cast<int>(res.strategies.size()),
                  g.numNodes());
        for (int n = 0; n < g.numNodes(); ++n) {
            EXPECT_EQ(res.strategies[n].numBits(),
                      devices == 4 ? 2 : 1);
            EXPECT_EQ(res.strategies[n].validate(g.node(n)), "");
        }
        EXPECT_GT(res.layerCost, 0.0);
    }

    // Matches planning directly on the equivalent cluster.
    const auto topo = ClusterTopology::paperCluster(2);
    const CostModel cost(topo, profileModels(topo));
    DpOptions opts;
    const DpResult direct = SegmentedDpOptimizer(g, cost, opts).optimize();
    const DpResult via = replanForSurvivors(g, 2);
    EXPECT_EQ(via.strategies, direct.strategies);
    EXPECT_DOUBLE_EQ(via.layerCost, direct.layerCost);
}

// ---------------------------------------------------------------------
// Dominance pruning (DESIGN.md Sec. 11): the pruned planner must be an
// exact drop-in for the exhaustive one wherever the latter is
// tractable — same strategies, bit-identical costs.

/** Run one graph with pruning on and off and demand byte identity.
 *  @p expect_drops: demand the filter actually discarded sequences
 *  (false for configs whose stacked upper bound keeps the whole
 *  space — still exact, just not faster). */
void
expectPrunedParity(const CompGraph &g, const CostModel &cost,
                   DpOptions opts, bool expect_drops = true)
{
    opts.pruneDominated = true;
    const DpResult pruned = SegmentedDpOptimizer(g, cost, opts).optimize();
    opts.pruneDominated = false;
    const DpResult full = SegmentedDpOptimizer(g, cost, opts).optimize();

    EXPECT_EQ(pruned.strategies, full.strategies);
    EXPECT_EQ(pruned.layerCost, full.layerCost); // bitwise, not NEAR
    EXPECT_EQ(pruned.totalCost, full.totalCost);
    EXPECT_FALSE(pruned.truncated);
    EXPECT_EQ(pruned.gapPct, 0.0);
    EXPECT_EQ(pruned.lowerBoundUs, pruned.layerCost);
    // The speed must come from actually dropping something.
    if (expect_drops) {
        EXPECT_LT(pruned.candidatesKept, pruned.candidatesTotal);
    }
}

TEST(Pruning, ParityOnMlpChain)
{
    SmallFixture f;
    DpOptions opts;
    expectPrunedParity(f.graph, f.cost, opts);
}

TEST(Pruning, ParityOnTransformerBlockWithSkipEdges)
{
    const auto topo = ClusterTopology::paperCluster(4);
    const CostModel cost(topo, profileModels(topo));
    ModelConfig cfg = opt6p7b();
    cfg.seqLength = 512;
    const CompGraph g = buildTransformerBlock(cfg, 8);
    DpOptions opts;
    expectPrunedParity(g, cost, opts);
}

TEST(Pruning, ParityOnStackedLayersAndEightDevices)
{
    const auto topo = ClusterTopology::paperCluster(8);
    const CostModel cost(topo, profileModels(topo));
    ModelConfig cfg = opt6p7b();
    cfg.seqLength = 512;
    const CompGraph g = buildMlpBlock(cfg, 8);
    DpOptions opts;
    opts.numLayers = 24; // stacked merge path
    // The stacked bound (totalCost + (L-1) * hmax) / L is loose on a
    // graph this small — everything survives, and that is the point:
    // exactness never depends on the filter biting.
    expectPrunedParity(g, cost, opts, /*expect_drops=*/false);
}

TEST(Pruning, ParityOnTorus)
{
    // On a torus the fast link class is "neighbour", which no node
    // index captures: both prune modes must price it identically.
    const auto topo = ClusterTopology::torus2d(4);
    const CostModel cost(topo, profileModels(topo));
    ModelConfig cfg = opt6p7b();
    cfg.seqLength = 512;
    const CompGraph g = buildTransformerBlock(cfg, 8);
    DpOptions opts;
    expectPrunedParity(g, cost, opts);
}

TEST(Pruning, ParityOnConventionalSpace)
{
    // A space whose optimum has zero inter-operator cost: the pilot
    // upper bound equals the sum of per-node minima exactly, so the
    // slack filter runs at its floating-point boundary (regression
    // guard for over-pruning the optimum itself).
    SmallFixture f;
    DpOptions opts;
    opts.space.allowPSquare = false;
    expectPrunedParity(f.graph, f.cost, opts);
}

TEST(Pruning, DeterministicAcrossThreadCounts)
{
    SmallFixture f;
    DpOptions opts;
    opts.numLayers = 12;
    opts.numThreads = 1;
    const DpResult one =
        SegmentedDpOptimizer(f.graph, f.cost, opts).optimize();
    for (const int threads : {2, 4}) {
        opts.numThreads = threads;
        const DpResult many =
            SegmentedDpOptimizer(f.graph, f.cost, opts).optimize();
        EXPECT_EQ(many.strategies, one.strategies);
        EXPECT_EQ(many.layerCost, one.layerCost);
        EXPECT_EQ(many.totalCost, one.totalCost);
    }
}

TEST(Pruning, BeamReportsGapOnlyWhenTruncating)
{
    SmallFixture f;
    DpOptions exact;
    const DpResult full =
        SegmentedDpOptimizer(f.graph, f.cost, exact).optimize();

    // A beam wide enough to hold the whole space truncates nothing
    // and must certify optimality.
    DpOptions wide = exact;
    wide.beamWidth = 100000;
    const DpResult w =
        SegmentedDpOptimizer(f.graph, f.cost, wide).optimize();
    EXPECT_FALSE(w.truncated);
    EXPECT_EQ(w.gapPct, 0.0);
    EXPECT_EQ(w.layerCost, full.layerCost);
    EXPECT_EQ(w.strategies, full.strategies);

    // A tiny beam truncates; the result carries a certified bound
    // that really contains the exhaustive optimum.
    DpOptions narrow = exact;
    narrow.beamWidth = 2;
    const DpResult n =
        SegmentedDpOptimizer(f.graph, f.cost, narrow).optimize();
    ASSERT_TRUE(n.truncated);
    EXPECT_GE(n.layerCost, full.layerCost);
    EXPECT_LE(n.lowerBoundUs, full.layerCost + 1e-9);
    EXPECT_GE(n.gapPct, 0.0);
    if (n.layerCost > full.layerCost) {
        EXPECT_GT(n.gapPct, 0.0);
    }
}

TEST(Pruning, RepeatRunsReturnBitEqualPlans)
{
    // 8-device MLP with stacked layers: the stacked upper bound keeps
    // every candidate, so runs with different layer counts solve the
    // same segments over identical survivor lists.
    const auto topo = ClusterTopology::paperCluster(8);
    const CostModel cost(topo, profileModels(topo));
    ModelConfig cfg = opt6p7b();
    cfg.seqLength = 512;
    const CompGraph g = buildMlpBlock(cfg, 8);

    DpOptions opts;
    opts.numLayers = 24;
    const DpResult first =
        SegmentedDpOptimizer(g, cost, opts).optimize();

    // An identical run reproduces the plan bit for bit.
    const DpResult again =
        SegmentedDpOptimizer(g, cost, opts).optimize();
    EXPECT_EQ(again.strategies, first.strategies);
    EXPECT_EQ(0, std::memcmp(&again.layerCost, &first.layerCost,
                             sizeof(double)));
    EXPECT_EQ(0, std::memcmp(&again.totalCost, &first.totalCost,
                             sizeof(double)));

    // A different layer count changes only the stacking: the same
    // strategies and a bit-equal single-layer cost.
    DpOptions other = opts;
    other.numLayers = 12;
    const DpResult restacked =
        SegmentedDpOptimizer(g, cost, other).optimize();
    EXPECT_EQ(restacked.strategies, first.strategies);
    EXPECT_EQ(0, std::memcmp(&restacked.layerCost, &first.layerCost,
                             sizeof(double)));
}

TEST(Pruning, MetricsRegistryReceivesPlannerCounters)
{
    SmallFixture f;
    MetricsRegistry metrics;
    DpOptions opts;
    opts.metrics = &metrics;
    const DpResult r =
        SegmentedDpOptimizer(f.graph, f.cost, opts).optimize();
    EXPECT_EQ(metrics.counter("planner.candidates_total"),
              r.candidatesTotal);
    EXPECT_EQ(metrics.counter("planner.candidates_kept"),
              r.candidatesKept);
    EXPECT_EQ(metrics.counter("planner.states_pruned"), r.statesPruned);
}

TEST(Pruning, PinnedOpt6p7bSixteenDevicePlan)
{
    // The 16-device OPT 6.7B cell of BENCH_planner.json, one thread:
    // any change to the DP's arithmetic, tie-breaks or state pruning
    // shows up here as a different plan, cost bit or prune count.
    const ModelConfig model = opt6p7b();
    const auto topo = ClusterTopology::paperCluster(16);
    const CostModel cost(topo, profileModels(topo));
    const CompGraph g = buildTransformerBlock(model, 8);
    const std::vector<std::string> expected = {
        "B,B,M,H",  "B,B,M,H",  "B,B,P2x2", "B,B,B,Hd", "B,B,B,Hd",
        "B,B,B,Hd", "B,B,P2x2", "B,B,M,H",  "B,B,M,H",  "B,K,P2x2",
        "B,F,M,F",  "B,N,P2x2", "B,B,M,H"};
    ASSERT_EQ(g.numNodes(), static_cast<int>(expected.size()));
    for (const bool pruned : {true, false}) {
        SCOPED_TRACE(pruned ? "pruned" : "exhaustive");
        DpOptions opts;
        opts.numLayers = model.numLayers;
        opts.numThreads = 1;
        opts.pruneDominated = pruned;
        const DpResult r = SegmentedDpOptimizer(g, cost, opts).optimize();
        ASSERT_EQ(r.strategies.size(), expected.size());
        for (int n = 0; n < g.numNodes(); ++n)
            EXPECT_EQ(r.strategies[n].toString(g.node(n)), expected[n])
                << g.node(n).name;
        EXPECT_EQ(r.layerCost, 40766.157228076969);
        EXPECT_EQ(r.totalCost, 1302762.326587352);
        EXPECT_EQ(r.statesPruned, pruned ? 33743 : 0);
    }
}

} // namespace
} // namespace primepar
