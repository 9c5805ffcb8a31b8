/**
 * @file
 * Tests of the profiler and the analytic cost model, including the
 * key fidelity property: the cost model's strategy ranking agrees
 * with the event simulator's measurements.
 */

#include <algorithm>
#include <iostream>
#include <limits>
#include <numeric>
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

/** The pricing tiers this host runs; reports the others as skipped. */
std::vector<GemmIsa>
hostTiers()
{
    std::vector<GemmIsa> tiers;
    for (const GemmIsa isa :
         {GemmIsa::Sse2, GemmIsa::Avx2, GemmIsa::Avx512f}) {
        if (detail::hostSupportsGemmIsa(isa))
            tiers.push_back(isa);
        else
            std::cout << "[  SKIPPED ] pricing tier " << gemmIsaName(isa)
                      << ": not supported by this host\n";
    }
    return tiers;
}

/** @p need as CostModel::needLanes() writes it, with its volume. */
struct NeedSlot
{
    std::vector<std::int32_t> lanes;
    std::int64_t volume = 0;
};

NeedSlot
needSlot(const CostModel &cm, const TensorLayout &need)
{
    NeedSlot slot;
    slot.lanes.resize(
        cm.slotLanes(static_cast<int>(need.dimSizes.size())));
    slot.volume = cm.needLanes(flatBoxes(need).data(), need.dimSizes,
                               slot.lanes.data());
    return slot;
}

/** The link split of planRedistribution(have, need, &topo). */
CostModel::TrafficSplit
planSplit(const TensorLayout &have, const TensorLayout &need,
          const ClusterTopology &topo)
{
    CostModel::TrafficSplit split;
    for (const auto &tr : planRedistribution(have, need, &topo).transfers) {
        if (topo.sameNode(tr.src, tr.dst))
            split.intraNode += tr.elements;
        else
            split.interNode += tr.elements;
    }
    return split;
}

TEST(CostModel, TrafficSplitMatchesFullPlan)
{
    // The traffic evaluator must agree exactly with the full
    // redistribution planner on both link classes, for every pair of
    // realizable boundary layouts (replicated producers included), in
    // both phases, on hierarchical clusters and on a torus — where
    // the fast link class is "torus neighbour", not "same row" — on
    // every pricing tier the host runs. 2 and 4 devices fill less
    // than one vector of any tier, 32 spans several; there, a fixed
    // stride of the pairs is checked (all of them plan for ~100 s).
    const OpSpec op = makeLinearOp("fc", 16, 16, 16, 16);
    const std::vector<std::int64_t> sizes{16, 16, 16};
    const EdgeDimMap out_map{0, 1, 3}, in_map{0, 1, 2};
    const std::vector<GemmIsa> tiers = hostTiers();
    for (const ClusterTopology &topo :
         {ClusterTopology::paperCluster(2),
          ClusterTopology::paperCluster(4),
          ClusterTopology::paperCluster(8),
          ClusterTopology::paperCluster(16),
          ClusterTopology::paperCluster(32),
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
        const std::int64_t stride = topo.numDevices() > 16 ? 61 : 1;
        std::int64_t pair = 0, checked = 0, fast_bytes = 0;
        for (const auto &[haves, needs] : phases) {
            std::vector<NeedSlot> need_slots;
            for (const auto &need : needs)
                need_slots.push_back(needSlot(cm, need));
            for (const auto &have : haves) {
                const auto source =
                    cm.sourceView(flatBoxes(have).data(), have.dimSizes);
                for (std::size_t n = 0; n < needs.size(); ++n) {
                    if (pair++ % stride != 0)
                        continue;
                    const auto want = planSplit(have, needs[n], topo);
                    for (const GemmIsa isa : tiers) {
                        const auto split = detail::trafficSplitOn(
                            isa, source, need_slots[n].lanes.data(),
                            need_slots[n].volume);
                        ASSERT_EQ(split.intraNode, want.intraNode)
                            << topo.numDevices() << " devices, "
                            << gemmIsaName(isa) << ", pair " << checked;
                        ASSERT_EQ(split.interNode, want.interNode)
                            << topo.numDevices() << " devices, "
                            << gemmIsaName(isa) << ", pair " << checked;
                    }
                    fast_bytes += want.intraNode;
                    ++checked;
                }
            }
        }
        EXPECT_GT(checked, topo.numDevices() < 8 ? 10 : 100);
        EXPECT_GT(fast_bytes, 0); // the fast link class is exercised
    }
}

TEST(CostModel, TrafficSplitMatchesFullPlanOnOtherRanks)
{
    // Transfer tensors of rank other than 3 use the same lanes, one
    // slot row per dim, and must agree with the full planner just the
    // same on every tier. Rank 2 drops the batch dim (its split
    // becomes replication), rank 5 adds two dims no device splits.
    const OpSpec op = makeLinearOp("fc", 16, 16, 16, 16);
    struct Case
    {
        EdgeDimMap outMap, inMap;
        std::vector<std::int64_t> sizes;
    };
    const std::vector<Case> cases{
        {{1, 3}, {1, 2}, {16, 16}},
        {{0, 1, 3, -1, -1}, {0, 1, 2, -1, -1}, {16, 16, 16, 2, 3}},
    };
    const std::vector<GemmIsa> tiers = hostTiers();
    for (const ClusterTopology &topo :
         {ClusterTopology::paperCluster(8), ClusterTopology::torus2d(4)}) {
        const CostModel cm(topo, profileModels(topo));
        const int bits = topo.numBits();
        for (const Case &c : cases) {
            const auto haves =
                distinctLayouts(op, bits, {op.outputTensor, false},
                                Phase::Forward, true, c.outMap, c.sizes);
            const auto needs = distinctLayouts(
                op, bits, {0, false}, Phase::Forward, false, c.inMap,
                c.sizes);
            std::int64_t checked = 0;
            for (const auto &have : haves) {
                const auto source =
                    cm.sourceView(flatBoxes(have).data(), have.dimSizes);
                for (const auto &need : needs) {
                    const auto want = planSplit(have, need, topo);
                    const NeedSlot slot = needSlot(cm, need);
                    for (const GemmIsa isa : tiers) {
                        const auto split = detail::trafficSplitOn(
                            isa, source, slot.lanes.data(), slot.volume);
                        ASSERT_EQ(split.intraNode, want.intraNode)
                            << c.sizes.size() << " dims, "
                            << gemmIsaName(isa) << ", pair " << checked;
                        ASSERT_EQ(split.interNode, want.interNode)
                            << c.sizes.size() << " dims, "
                            << gemmIsaName(isa) << ", pair " << checked;
                    }
                    // The layout overload prices on the active tier.
                    const auto split = cm.trafficSplit(have, need);
                    ASSERT_EQ(split.intraNode, want.intraNode);
                    ASSERT_EQ(split.interNode, want.interNode);
                    ++checked;
                }
            }
            EXPECT_GT(checked, 10);
        }
    }
}

/**
 * The sort-based source view builder the edge tables used before
 * views were built through hash tables and stamp arrays: sort the
 * devices by box to number the distinct boxes, sort the (domain, box)
 * holdings, and per receiver's reach set take the bounding box when
 * the distinct boxes it reaches fill it, else those boxes. Same lane
 * layout as CostModel::SourceView; the reference for the builder.
 */
struct ReferenceView
{
    CostModel::SourceView view;
    std::vector<std::int32_t> lanes;
};

ReferenceView
sortedReferenceView(const CostModel &cm, const TensorLayout &layout)
{
    const ClusterTopology &topo = cm.topology();
    const bool torus = topo.kind() == ClusterTopology::Kind::Torus2D;
    const int devices = topo.numDevices();
    const int dims = static_cast<int>(layout.dimSizes.size());
    const auto &box_of = layout.deviceBox;
    const auto volume = [](const std::vector<SliceRange> &box) {
        std::int64_t vol = 1;
        for (const SliceRange &r : box)
            vol *= r.length();
        return vol;
    };
    const auto domain_of = [&](int dev) {
        return torus ? dev : static_cast<int>(topo.nodeOf(dev));
    };

    std::vector<int> order(devices);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return box_of[a] < box_of[b]; });
    std::vector<int> box_id(devices), holder;
    for (int i = 0; i < devices; ++i) {
        if (i == 0 || box_of[order[i]] != box_of[order[i - 1]])
            holder.push_back(order[i]);
        box_id[order[i]] = static_cast<int>(holder.size()) - 1;
    }
    std::vector<std::pair<int, int>> held(devices);
    for (int dev = 0; dev < devices; ++dev)
        held[dev] = {domain_of(dev), box_id[dev]};
    std::sort(held.begin(), held.end());
    held.erase(std::unique(held.begin(), held.end()), held.end());

    // Per receiver: the domains it reaches, then their distinct boxes.
    std::vector<std::vector<std::vector<SliceRange>>> unions(devices);
    for (int dev = 0; dev < devices; ++dev) {
        std::vector<int> reach;
        for (int peer = 0; peer < devices; ++peer) {
            if (topo.sameNode(dev, peer))
                reach.push_back(domain_of(peer));
        }
        std::sort(reach.begin(), reach.end());
        reach.erase(std::unique(reach.begin(), reach.end()), reach.end());
        std::vector<int> members;
        for (const auto &[dom, box] : held) {
            if (std::binary_search(reach.begin(), reach.end(), dom))
                members.push_back(box);
        }
        std::sort(members.begin(), members.end());
        members.erase(std::unique(members.begin(), members.end()),
                      members.end());
        std::vector<SliceRange> bound = box_of[holder[members[0]]];
        std::int64_t filled = 0;
        for (const int m : members) {
            filled += volume(box_of[holder[m]]);
            for (int d = 0; d < dims; ++d) {
                bound[d].start =
                    std::min(bound[d].start, box_of[holder[m]][d].start);
                bound[d].end = std::max(bound[d].end, box_of[holder[m]][d].end);
            }
        }
        if (filled == volume(bound)) {
            unions[dev].push_back(bound);
        } else {
            for (const int m : members)
                unions[dev].push_back(box_of[holder[m]]);
        }
    }

    ReferenceView ref;
    ref.view.dims = dims;
    ref.view.devices = devices;
    ref.view.width = static_cast<int>(cm.slotLanes(dims) / (2 * dims));
    for (const auto &u : unions)
        ref.view.layers =
            std::max(ref.view.layers, static_cast<int>(u.size()));
    const std::size_t slot = cm.slotLanes(dims);
    ref.lanes.assign((1 + ref.view.layers) * slot, 0);
    const int width = ref.view.width;
    const auto put = [&](int k, int dev, const std::vector<SliceRange> &box) {
        std::int32_t *lane = ref.lanes.data() + k * slot + dev;
        for (int d = 0; d < dims; ++d) {
            lane[2 * d * width] = static_cast<std::int32_t>(box[d].start);
            lane[(2 * d + 1) * width] = static_cast<std::int32_t>(box[d].end);
        }
    };
    for (int dev = 0; dev < devices; ++dev) {
        put(0, dev, box_of[dev]);
        for (std::size_t k = 0; k < unions[dev].size(); ++k)
            put(static_cast<int>(k) + 1, dev, unions[dev][k]);
    }
    ref.view.lanes = ref.lanes.data();
    return ref;
}

/** Box slot @p k of receiver @p dev in @p view. */
std::vector<SliceRange>
slotBox(const CostModel::SourceView &view, int k, int dev)
{
    const std::size_t slot =
        static_cast<std::size_t>(2 * view.dims) * view.width;
    std::vector<SliceRange> box(view.dims);
    for (int d = 0; d < view.dims; ++d) {
        const std::int32_t *row = view.lanes + k * slot + 2 * d * view.width;
        box[d] = {row[dev], row[view.width + dev]};
    }
    return box;
}

/** Check the view of every layout in @p haves against the sorted
 *  reference: each receiver's own box, its node-union boxes in any
 *  order, and the traffic split against every layout in @p needs.
 *  The views share one lane arena, as an edge-table side's do, and
 *  each must equal the view that owns its lanes. */
void
expectViewsMatchReference(const CostModel &cm,
                          const std::vector<TensorLayout> &haves,
                          const std::vector<TensorLayout> &needs)
{
    std::vector<NeedSlot> slots;
    for (const TensorLayout &need : needs)
        slots.push_back(needSlot(cm, need));
    const int devices = cm.topology().numDevices();
    LaneArena arena;
    std::vector<CostModel::SourceView> views;
    for (const TensorLayout &have : haves) {
        views.push_back(cm.sourceView(flatBoxes(have).data(),
                                      LaneDims(devices, have.dimSizes),
                                      arena));
    }
    for (std::size_t h = 0; h < haves.size(); ++h) {
        const TensorLayout &have = haves[h];
        const CostModel::SourceView &view = views[h];
        const auto owned =
            cm.sourceView(flatBoxes(have).data(), have.dimSizes);
        ASSERT_EQ(view.layers, owned.layers) << "layout " << h;
        ASSERT_TRUE(std::equal(
            view.lanes,
            view.lanes + (1 + view.layers) * cm.slotLanes(view.dims),
            owned.lanes))
            << "layout " << h;
        const ReferenceView ref = sortedReferenceView(cm, have);
        ASSERT_EQ(view.layers, ref.view.layers) << "layout " << h;
        for (int dev = 0; dev < devices; ++dev) {
            ASSERT_EQ(slotBox(view, 0, dev), slotBox(ref.view, 0, dev))
                << "layout " << h << ", device " << dev;
            std::multiset<std::vector<SliceRange>> got, want;
            for (int k = 1; k <= view.layers; ++k) {
                got.insert(slotBox(view, k, dev));
                want.insert(slotBox(ref.view, k, dev));
            }
            ASSERT_EQ(got, want) << "layout " << h << ", device " << dev;
        }
        for (std::size_t n = 0; n < slots.size(); ++n) {
            const auto split = cm.trafficSplit(view, slots[n].lanes.data(),
                                               slots[n].volume);
            const auto want = cm.trafficSplit(
                ref.view, slots[n].lanes.data(), slots[n].volume);
            ASSERT_EQ(split.intraNode, want.intraNode)
                << "layout " << h << ", need " << n;
            ASSERT_EQ(split.interNode, want.interNode)
                << "layout " << h << ", need " << n;
        }
    }
}

TEST(CostModel, SourceViewMatchesSortedReference)
{
    // The hash-and-stamp view builder against the sort-based one, over
    // every realizable boundary layout (replicated producers included)
    // of both phases, on hierarchical clusters and on a torus (reach
    // sets spanning several domains); then transfer dims smaller than
    // their slice counts (empty slices), and a 512-device beam.
    const OpSpec op = makeLinearOp("fc", 16, 16, 16, 16);
    const EdgeDimMap out_map{0, 1, 3}, in_map{0, 1, 2};
    const TensorRef out{op.outputTensor, false}, in{0, false};
    const TensorRef d_out{op.outputTensor, true}, d_in{0, true};
    for (const ClusterTopology &topo :
         {ClusterTopology::paperCluster(2),
          ClusterTopology::paperCluster(4),
          ClusterTopology::paperCluster(8),
          ClusterTopology::paperCluster(16),
          ClusterTopology::paperCluster(32),
          ClusterTopology::torus2d(4)}) {
        const CostModel cm(topo, profileModels(topo));
        const int bits = topo.numBits();
        // {16, 16, 16} slices evenly; {2, 3, 16} leaves the batch and
        // row dims split past their sizes at 8 devices and more.
        for (const std::vector<std::int64_t> &sizes :
             {std::vector<std::int64_t>{16, 16, 16},
              std::vector<std::int64_t>{2, 3, 16}}) {
            SCOPED_TRACE(::testing::Message()
                         << topo.numDevices() << " devices, batch "
                         << sizes[0]);
            expectViewsMatchReference(
                cm,
                distinctLayouts(op, bits, out, Phase::Forward, true,
                                out_map, sizes),
                distinctLayouts(op, bits, in, Phase::Forward, false,
                                in_map, sizes));
            expectViewsMatchReference(
                cm,
                distinctLayouts(op, bits, d_in, Phase::Backward, true,
                                in_map, sizes),
                distinctLayouts(op, bits, d_out, Phase::Backward, false,
                                out_map, sizes));
        }
    }

    const ClusterTopology big = ClusterTopology::paperCluster(512);
    const CostModel cm(big, profileModels(big));
    const OpSpec wide = makeLinearOp("fc", 64, 64, 64, 64);
    SpaceOptions beam;
    beam.maxTemporalSteps = 8;
    beam.candidateBudget = 12;
    std::vector<TensorLayout> haves, needs;
    for (const PartitionSeq &seq : enumerateSequences(wide, 9, beam)) {
        haves.push_back(layoutOf(wide, seq, 9, out, Phase::Forward,
                                 seq.temporalSteps() - 1, out_map,
                                 {64, 64, 64}));
        needs.push_back(layoutOf(wide, seq, 9, in, Phase::Forward, 0,
                                 in_map, {64, 64, 64}));
    }
    ASSERT_GE(haves.size(), 8u);
    SCOPED_TRACE("512 devices");
    expectViewsMatchReference(cm, haves, needs);
}

TEST(CostModel, LaneArenaServesLargeTakesApart)
{
    // Small takes are cut from one chunk in order; a take past an
    // eighth of a chunk gets its own block and leaves the chunk being
    // filled, so the next small take follows the last one.
    LaneArena arena;
    const std::size_t large = LaneArena::kChunk / 8 + 1;
    std::int32_t *a = arena.take(100);
    std::int32_t *big = arena.take(large);
    std::int32_t *b = arena.take(100);
    EXPECT_EQ(b, a + 100);
    EXPECT_TRUE(big + large <= a || big >= b + 100);
    std::fill(big, big + large, 7);
    std::fill(a, a + 200, 1);
    EXPECT_EQ(std::count(big, big + large, 7),
              static_cast<std::ptrdiff_t>(large));
    // Takes of an eighth of a chunk still share it; one that does not
    // fit the chunk's rest opens a new one.
    std::int32_t *end = b + 100;
    for (int i = 0; i < 7; ++i) {
        std::int32_t *part = arena.take(LaneArena::kChunk / 8);
        EXPECT_EQ(part, end);
        end = part + LaneArena::kChunk / 8;
    }
    std::int32_t *next = arena.take(LaneArena::kChunk / 8);
    EXPECT_TRUE(next < a || next >= a + LaneArena::kChunk);
}

TEST(CostModelDeath, PrepareSourceRejectsOverlappingIntervals)
{
    // A source whose per-dim intervals overlap is no product grid;
    // the node union would double-count, so the view refuses it.
    const ClusterTopology topo = ClusterTopology::paperCluster(2);
    const CostModel cm(topo, profileModels(topo));
    TensorLayout have;
    have.dimSizes = {6};
    have.deviceBox = {{SliceRange{0, 4}}, {SliceRange{2, 6}}};
    EXPECT_DEATH(cm.sourceView(flatBoxes(have).data(), have.dimSizes),
                 "not a product grid");
}

TEST(CostModelDeath, PrepareSourceRejectsUncoveredTensor)
{
    // Disjoint boxes that leave a hole do not tile the tensor: the
    // slow-link share (need volume minus the fast share) would charge
    // elements nobody holds, so the view refuses it.
    const ClusterTopology topo = ClusterTopology::paperCluster(2);
    const CostModel cm(topo, profileModels(topo));
    TensorLayout have;
    have.dimSizes = {6};
    have.deviceBox = {{SliceRange{0, 2}}, {SliceRange{4, 6}}};
    EXPECT_DEATH(cm.sourceView(flatBoxes(have).data(), have.dimSizes),
                 "not a tiling");
}

TEST(CostModelDeath, LanesRejectDimPastInt32)
{
    // Box bounds travel as int32 lanes: a dim of 2^31 elements would
    // wrap, so both the source view and the need lanes refuse it.
    const ClusterTopology topo = ClusterTopology::paperCluster(2);
    const CostModel cm(topo, profileModels(topo));
    const std::int64_t big =
        std::int64_t{std::numeric_limits<std::int32_t>::max()} + 1;
    TensorLayout layout;
    layout.dimSizes = {big};
    layout.deviceBox = {{SliceRange{0, big}}, {SliceRange{0, big}}};
    const auto boxes = flatBoxes(layout);
    EXPECT_DEATH(cm.sourceView(boxes.data(), layout.dimSizes),
                 "past the int32 lanes");
    std::vector<std::int32_t> lanes(cm.slotLanes(1));
    EXPECT_DEATH(cm.needLanes(boxes.data(), layout.dimSizes, lanes.data()),
                 "past the int32 lanes");
}

TEST(CostModelDeath, LanesRejectSumsPast2To53)
{
    // Overlap volumes are multiplied and summed in double, exact only
    // below 2^53: 2 devices x 2^26 x 2^26 elements reach it.
    const ClusterTopology topo = ClusterTopology::paperCluster(2);
    const CostModel cm(topo, profileModels(topo));
    const std::int64_t side = std::int64_t{1} << 26;
    TensorLayout layout;
    layout.dimSizes = {side, side};
    layout.deviceBox = {{SliceRange{0, side / 2}, SliceRange{0, side}},
                        {SliceRange{side / 2, side}, SliceRange{0, side}}};
    const auto boxes = flatBoxes(layout);
    EXPECT_DEATH(cm.sourceView(boxes.data(), layout.dimSizes),
                 "reach 2\\^53");
    std::vector<std::int32_t> lanes(cm.slotLanes(2));
    EXPECT_DEATH(cm.needLanes(boxes.data(), layout.dimSizes, lanes.data()),
                 "reach 2\\^53");
    // One element fewer per device stays exact.
    layout.dimSizes = {side, side - 1};
    layout.deviceBox = {{SliceRange{0, side / 2}, SliceRange{0, side - 1}},
                        {SliceRange{side / 2, side},
                         SliceRange{0, side - 1}}};
    const auto split = cm.trafficSplit(layout, layout);
    EXPECT_EQ(split.intraNode + split.interNode, 0);
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
