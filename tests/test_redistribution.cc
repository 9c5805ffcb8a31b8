/**
 * @file
 * Tests of inter-operator redistribution planning (Eqs. 8-9),
 * including a functional check that executing the plan's transfers
 * reconstructs every device's needed slice exactly.
 */

#include <gtest/gtest.h>

#include "comm/redistribution.hh"
#include "partition/space.hh"
#include "support/rng.hh"
#include "tensor/tensor.hh"

namespace primepar {
namespace {

/** Identity edge map for an op whose tensor dims mirror transfer dims. */
EdgeDimMap
identityMap(const OpSpec &op, int tensor)
{
    EdgeDimMap map;
    for (int d : op.tensors[tensor].dims)
        map.push_back(d);
    return map;
}

TEST(Redistribution, SameLayoutMovesNothing)
{
    const OpSpec op = makeLinearOp("fc", 4, 8, 8, 8);
    PartitionSeq seq({PartitionStep::byDim(1), PartitionStep::byDim(3)});
    DsiTable dsi(op, seq, 2);
    const auto layout =
        layoutOf(op, dsi, {op.outputTensor, false}, Phase::Forward, 0,
                 identityMap(op, op.outputTensor), {4, 8, 8});
    const auto plan = planRedistribution(layout, layout);
    EXPECT_TRUE(plan.transfers.empty());
    EXPECT_EQ(plan.totalElements, 0);
    // Everything needed is local.
    EXPECT_EQ(plan.localElements, 4 * (4 * 8 / 2 * 8 / 2));
}

TEST(Redistribution, DisjointRepartitionMovesEverythingMissing)
{
    // Producer splits M; consumer splits K: each device keeps exactly
    // the quadrant intersection and fetches the rest.
    const OpSpec op = makeLinearOp("fc", 4, 8, 8, 8);
    PartitionSeq prod({PartitionStep::byDim(1)});
    PartitionSeq cons({PartitionStep::byDim(3)});
    DsiTable pd(op, prod, 1), cd(op, cons, 1);
    const EdgeDimMap map = identityMap(op, op.outputTensor);
    const auto have = layoutOf(op, pd, {op.outputTensor, false},
                               Phase::Forward, 0, map, {4, 8, 8});
    const auto need = layoutOf(op, cd, {op.outputTensor, false},
                               Phase::Forward, 0, map, {4, 8, 8});
    const auto plan = planRedistribution(have, need);

    // Each device holds a half-row block (4*4*8 elems? producer splits
    // M: holds [4, 4, 8]); consumer needs [4, 8, 4]. Overlap: [4,4,4].
    const std::int64_t overlap = 4 * 4 * 4;
    EXPECT_EQ(plan.localElements, 2 * overlap);
    EXPECT_EQ(plan.totalElements, 2 * (4 * 8 * 4 - overlap));
}

TEST(Redistribution, ReplicatedProducerPrefersSameNode)
{
    // Producer replicates across the first bit (partition M only with
    // bit 2); build an 8-device case and check same-node sourcing.
    const OpSpec op = makeLinearOp("fc", 8, 8, 8, 8);
    PartitionSeq prod({PartitionStep::byDim(1), PartitionStep::byDim(1),
                       PartitionStep::byDim(1)});
    PartitionSeq cons({PartitionStep::byDim(3), PartitionStep::byDim(3),
                       PartitionStep::byDim(3)});
    DsiTable pd(op, prod, 3), cd(op, cons, 3);
    const EdgeDimMap map = identityMap(op, op.outputTensor);
    const auto have = layoutOf(op, pd, {op.outputTensor, false},
                               Phase::Forward, 0, map, {8, 8, 8});
    const auto need = layoutOf(op, cd, {op.outputTensor, false},
                               Phase::Forward, 0, map, {8, 8, 8});
    const ClusterTopology topo(2, 4);
    const auto plan = planRedistribution(have, need, &topo);
    for (const auto &tr : plan.transfers) {
        // Producer boxes are unreplicated here (M split 8 ways by 3
        // bits), so sourcing is fixed; just sanity-check legality.
        EXPECT_NE(tr.src, tr.dst);
        EXPECT_GT(tr.elements, 0);
    }
}

TEST(Redistribution, PlanReconstructsNeededSlices)
{
    // Functional check: move real data according to the plan and
    // verify every consumer holds exactly its needed slice.
    const OpSpec op = makeLinearOp("fc", 4, 8, 8, 8);
    Rng rng(3);
    const Tensor full = Tensor::random(Shape{4, 8, 8}, rng);
    const EdgeDimMap map = identityMap(op, op.outputTensor);

    const auto space = enumerateSequences(op, 2);
    for (const auto &prod : space) {
        DsiTable pd(op, prod, 2);
        const auto have = layoutOf(op, pd, {op.outputTensor, false},
                                   Phase::Forward, pd.steps() - 1, map,
                                   {4, 8, 8});
        for (const auto &cons : space) {
            DsiTable cd(op, cons, 2);
            const auto need =
                layoutOf(op, cd, {op.outputTensor, false},
                         Phase::Forward, 0, map, {4, 8, 8});
            const auto plan = planRedistribution(have, need);

            // Each device assembles its needed box from local overlap
            // plus received transfers; compare against ground truth.
            for (std::int64_t dev = 0; dev < 4; ++dev) {
                const auto &box = need.deviceBox[dev];
                std::vector<std::int64_t> starts, extents;
                for (const auto &r : box) {
                    starts.push_back(r.start);
                    extents.push_back(r.length());
                }
                Tensor assembled(Shape(extents.begin(), extents.end()));
                // Local part.
                {
                    const auto &hbox = have.deviceBox[dev];
                    std::vector<std::int64_t> s, e, off;
                    bool empty = false;
                    for (std::size_t d = 0; d < box.size(); ++d) {
                        const std::int64_t lo =
                            std::max(box[d].start, hbox[d].start);
                        const std::int64_t hi =
                            std::min(box[d].end, hbox[d].end);
                        if (hi <= lo) {
                            empty = true;
                            break;
                        }
                        s.push_back(lo);
                        e.push_back(hi - lo);
                        off.push_back(lo - box[d].start);
                    }
                    if (!empty)
                        assembled.assignSlice(off, full.slice(s, e));
                }
                // Received parts.
                for (const auto &tr : plan.transfers) {
                    if (tr.dst != dev)
                        continue;
                    std::vector<std::int64_t> s, e, off;
                    for (std::size_t d = 0; d < tr.region.size(); ++d) {
                        s.push_back(tr.region[d].start);
                        e.push_back(tr.region[d].length());
                        off.push_back(tr.region[d].start - box[d].start);
                    }
                    assembled.assignSlice(off, full.slice(s, e));
                }
                const Tensor expect = full.slice(starts, extents);
                ASSERT_EQ(assembled.maxAbsDiff(expect), 0.0f)
                    << prod.toString(op) << " -> " << cons.toString(op)
                    << " device " << dev;
            }
        }
    }
}

TEST(Redistribution, RescaledDimMapping)
{
    // Producer dim of size 16 mapped onto a transfer dim of size 4
    // (e.g. fused QKV -> heads): slice boundaries rescale exactly.
    const OpSpec op = makeLinearOp("fc", 4, 8, 8, 16);
    PartitionSeq seq({PartitionStep::byDim(3), PartitionStep::byDim(3)});
    DsiTable dsi(op, seq, 2);
    // Transfer tensor [B=4, M=8, Hd=4]: K (16) maps onto Hd (4).
    const EdgeDimMap map{0, 1, 3};
    const auto layout = layoutOf(op, dsi, {op.outputTensor, false},
                                 Phase::Forward, 0, map, {4, 8, 4});
    // Device 0 holds K slice 0 of 4 -> Hd range [0, 1).
    EXPECT_EQ(layout.deviceBox[0][2], (SliceRange{0, 1}));
    EXPECT_EQ(layout.deviceBox[3][2], (SliceRange{3, 4}));
}

TEST(Redistribution, TotalMatchesEq9)
{
    // Eq. 9: traffic = sum_D (V - prod_X |S1 ^ S2|).
    const auto eq9 = [](const TensorLayout &have,
                        const TensorLayout &need) {
        std::int64_t traffic = 0;
        for (std::int64_t dev = 0; dev < need.numDevices(); ++dev) {
            std::int64_t overlap = 1;
            for (std::size_t d = 0; d < need.dimSizes.size(); ++d) {
                overlap *= need.deviceBox[dev][d].intersect(
                    have.deviceBox[dev][d]);
            }
            traffic += need.boxVolume(dev) - overlap;
        }
        return traffic;
    };
    const OpSpec op = makeLinearOp("fc", 4, 8, 8, 8);
    PartitionSeq prod({PartitionStep::byDim(0), PartitionStep::byDim(1)});
    PartitionSeq cons({PartitionStep::byDim(1), PartitionStep::byDim(3)});
    DsiTable pd(op, prod, 2), cd(op, cons, 2);
    const EdgeDimMap map = identityMap(op, op.outputTensor);
    const auto have = layoutOf(op, pd, {op.outputTensor, false},
                               Phase::Forward, 0, map, {4, 8, 8});
    const auto need = layoutOf(op, cd, {op.outputTensor, false},
                               Phase::Forward, 0, map, {4, 8, 8});
    EXPECT_EQ(planRedistribution(have, need).totalElements,
              eq9(have, need));

    // Every producer-output / consumer-input pair of the 2-bit space.
    const auto space = enumerateSequences(op, 2);
    for (const auto &a : space) {
        DsiTable da(op, a, 2);
        const auto out = layoutOf(op, da, {op.outputTensor, false},
                                  Phase::Forward, da.steps() - 1,
                                  EdgeDimMap{0, 1, 3}, {4, 8, 8});
        for (const auto &b : space) {
            DsiTable db(op, b, 2);
            const auto in = layoutOf(op, db, {0, false}, Phase::Forward,
                                     0, EdgeDimMap{0, 1, 2}, {4, 8, 8});
            EXPECT_EQ(planRedistribution(out, in).totalElements,
                      eq9(out, in))
                << a.toString(op) << " -> " << b.toString(op);
        }
    }
}

} // namespace
} // namespace primepar
