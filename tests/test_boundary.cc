/**
 * @file
 * Slice-to-slice boundary movement: every consumer device's operand
 * slot and every producer device's output-gradient slot, filled by box
 * copies through the block's edge index maps, must equal the slices of
 * the whole tensor rearranged by the full-tensor oracle
 * (edge_transform_oracle.hh), bit for bit; and the elements a real
 * step's copies take from other devices must be what
 * planRedistribution() prices for the same two layouts.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>

#include <gtest/gtest.h>

#include "comm/redistribution.hh"
#include "edge_transform_oracle.hh"
#include "runtime/boundary.hh"
#include "runtime/graph_executor.hh"
#include "runtime/trainer.hh"
#include "runtime/transformer_runtime.hh"

namespace primepar {
namespace {

ModelConfig
smallModel(std::int64_t hidden, std::int64_t heads)
{
    ModelConfig cfg;
    cfg.name = "small";
    cfg.hiddenSize = hidden;
    cfg.numHeads = heads;
    cfg.ffnSize = 2 * hidden;
    cfg.seqLength = 8;
    cfg.numLayers = 1;
    return cfg;
}

/** Phase of the pass that writes (tensor, grad) of @p op. */
Phase
producingPhase(const OpSpec &op, const TensorRef &ref)
{
    for (const PassSpec &pass : op.passes)
        if (pass.output == ref)
            return pass.phase;
    ADD_FAILURE() << op.name << " writes no " << op.refName(ref);
    return Phase::Forward;
}

/** Phase of the first pass (forward, backward, gradient) reading
 *  @p ref: where the executor positions an operand. */
Phase
firstUsePhase(const OpSpec &op, const TensorRef &ref)
{
    for (Phase phase : {Phase::Forward, Phase::Backward, Phase::Gradient})
        for (const PassSpec &pass : op.passes)
            for (const TensorRef &r : pass.operands)
                if (pass.phase == phase && r == ref)
                    return phase;
    ADD_FAILURE() << op.name << " reads no " << op.refName(ref);
    return Phase::Forward;
}

/** Every device's box of tensor @p ref of @p op at (phase, t). */
std::vector<std::vector<SliceRange>>
boxesAt(const OpSpec &op, const DsiTable &dsi, const TensorRef &ref,
        Phase phase, int t)
{
    std::vector<std::vector<SliceRange>> boxes(dsi.numDevices());
    for (std::int64_t dev = 0; dev < dsi.numDevices(); ++dev)
        for (int d : op.tensors[ref.tensor].dims)
            boxes[dev].push_back(dsi.sliceRange(phase, dev, t, d));
    return boxes;
}

Tensor
sliceOf(const Tensor &full, const std::vector<SliceRange> &box)
{
    std::vector<std::int64_t> starts, extents;
    for (const SliceRange &r : box) {
        starts.push_back(r.start);
        extents.push_back(r.length());
    }
    return full.slice(starts, extents);
}

/** @p full cut into @p boxes, as a process holding every slice sees
 *  it. */
SliceSet
sliceSetOf(const Tensor &full,
           const std::vector<std::vector<SliceRange>> &boxes)
{
    SliceSet set;
    set.shape = full.shape();
    set.boxes = boxes;
    set.held.assign(boxes.size(), nullptr);
    for (const auto &box : boxes)
        set.received.push_back(sliceOf(full, box));
    return set;
}

Shape
shapeOf(const std::vector<SliceRange> &box)
{
    Shape shape;
    for (const SliceRange &r : box)
        shape.push_back(r.length());
    return shape;
}

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::equal(a.data(), a.data() + a.numel(), b.data(),
                      [](float x, float y) {
                          return std::memcmp(&x, &y, sizeof x) == 0;
                      });
}

Tensor
applyOr(const std::function<Tensor(const Tensor &)> &f, const Tensor &x)
{
    return f ? f(x) : x;
}

/**
 * Check every edge of @p graph under @p plan: forward, each consumer
 * device's operand slot against the oracle's transformed producer
 * output; backward, each producer device's output-gradient slot
 * (zeroed, then every consumer's contribution in out-edge order)
 * against the oracle's summed contributions.
 */
void
checkBlockAgainstOracle(const ModelConfig &cfg, const CompGraph &graph,
                        const std::vector<PartitionSeq> &plan, int bits)
{
    Rng rng(91);
    std::vector<DsiTable> dsi;
    for (int n = 0; n < graph.numNodes(); ++n)
        dsi.emplace_back(graph.node(n), plan[n], bits);

    for (const GraphEdge &e : graph.edges()) {
        const OpSpec &producer = graph.node(e.src);
        const OpSpec &consumer = graph.node(e.dst);
        const TensorRef out{producer.outputTensor, false};
        const TensorRef in{e.dstTensor, false};
        Shape out_shape;
        for (int d : producer.tensors[producer.outputTensor].dims)
            out_shape.push_back(producer.dims[d].size);
        const Tensor x = Tensor::random(out_shape, rng);
        const SliceSet src = sliceSetOf(
            x, boxesAt(producer, dsi[e.src], out, Phase::Forward,
                       dsi[e.src].steps() - 1));
        const Tensor want = applyOr(
            oracle::blockEdgeTransform(cfg, e.src, e.dst, e.dstTensor)
                .forward,
            x);
        const BoundaryCopy copy(e.indexMap, true, src);
        const auto need = boxesAt(consumer, dsi[e.dst], in,
                                  firstUsePhase(consumer, in), 0);
        for (std::int64_t dev = 0; dev < dsi[e.dst].numDevices();
             ++dev) {
            Tensor slot = Tensor::uninitialized(shapeOf(need[dev]));
            copy.into(dev, need[dev], slot, false);
            EXPECT_TRUE(bitEqual(slot, sliceOf(want, need[dev])))
                << producer.name << " -> " << consumer.name << " tensor "
                << e.dstTensor << " device " << dev;
        }
    }

    for (int n = 0; n + 1 < graph.numNodes(); ++n) {
        const OpSpec &producer = graph.node(n);
        const TensorRef d_out{producer.outputTensor, true};
        Shape out_shape;
        for (int d : producer.tensors[producer.outputTensor].dims)
            out_shape.push_back(producer.dims[d].size);
        Tensor want(out_shape);
        std::vector<SliceSet> grads;
        const auto out_edges = graph.outEdges(n);
        grads.reserve(out_edges.size());
        for (const GraphEdge *e : out_edges) {
            const OpSpec &consumer = graph.node(e->dst);
            const TensorRef d_in{e->dstTensor, true};
            Shape in_shape;
            for (int d : consumer.tensors[e->dstTensor].dims)
                in_shape.push_back(consumer.dims[d].size);
            const Tensor g = Tensor::random(in_shape, rng);
            grads.push_back(sliceSetOf(
                g, boxesAt(consumer, dsi[e->dst], d_in,
                           producingPhase(consumer, d_in),
                           dsi[e->dst].steps() - 1)));
            want.add(applyOr(oracle::blockEdgeTransform(
                                 cfg, e->src, e->dst, e->dstTensor)
                                 .backward,
                             g));
        }
        const auto need = boxesAt(producer, dsi[n], d_out,
                                  firstUsePhase(producer, d_out), 0);
        for (std::int64_t dev = 0; dev < dsi[n].numDevices(); ++dev) {
            Tensor slot(shapeOf(need[dev]));
            for (std::size_t i = 0; i < out_edges.size(); ++i)
                BoundaryCopy(out_edges[i]->indexMap, false, grads[i])
                    .into(dev, need[dev], slot, true);
            EXPECT_TRUE(bitEqual(slot, sliceOf(want, need[dev])))
                << "d" << producer.name << " device " << dev;
        }
    }
}

TEST(Boundary, DefaultPlanSlotsMatchTransformOracle)
{
    const ModelConfig cfg = smallModel(32, 4);
    const CompGraph graph = buildTransformerBlock(cfg, 4);
    for (int bits : {2, 4}) {
        SCOPED_TRACE(bits);
        checkBlockAgainstOracle(cfg, graph, defaultBlockPlan(graph, bits),
                                bits);
    }
}

TEST(Boundary, PSquarePlanSlotsMatchTransformOracle)
{
    const ModelConfig cfg = smallModel(32, 4);
    const CompGraph graph = buildTransformerBlock(cfg, 4);
    std::vector<PartitionSeq> plan;
    for (int n = 0; n < graph.numNodes(); ++n) {
        const OpSpec &op = graph.node(n);
        if (op.psquare.has_value())
            plan.push_back(PartitionSeq({PartitionStep::pSquare(1)}));
        else if (op.kind == "matmul" || op.kind == "softmax")
            plan.push_back(PartitionSeq(
                {PartitionStep::byDim(op.dimIndex("Hd")),
                 PartitionStep::byDim(op.dimIndex("M"))}));
        else
            plan.push_back(PartitionSeq(
                {PartitionStep::byDim(op.dimIndex("B")),
                 PartitionStep::byDim(op.dimIndex("M"))}));
    }
    checkBlockAgainstOracle(cfg, graph, plan, 2);
}

TEST(Boundary, SlicesCuttingHeadsMatchTransformOracle)
{
    // Three heads of E = 8: halving the fused K = 72 or the merged
    // N = 24 cuts a head in two, so a box splits over the (Hd, E) axes
    // into whole heads and a partial one.
    const ModelConfig cfg = smallModel(24, 3);
    const CompGraph graph = buildTransformerBlock(cfg, 2);
    const TransformerBlockIndex idx;
    std::vector<PartitionSeq> plan;
    for (int n = 0; n < graph.numNodes(); ++n) {
        const OpSpec &op = graph.node(n);
        int dim = op.dimIndex("M");
        if (n == idx.qkv)
            dim = op.dimIndex("K");
        else if (n == idx.outProj)
            dim = op.dimIndex("N");
        plan.push_back(PartitionSeq({PartitionStep::byDim(dim)}));
    }
    checkBlockAgainstOracle(cfg, graph, plan, 1);
}

/** The Eq. 8-9 plan of edge @p e under @p plan, forward or backward,
 *  built the way the simulator builds it. */
RedistPlan
pricedRedistribution(const CompGraph &graph,
                     const std::vector<PartitionSeq> &plan, int bits,
                     const GraphEdge &e, bool forward)
{
    const OpSpec &producer = graph.node(e.src);
    const OpSpec &consumer = graph.node(e.dst);
    const DsiTable pdsi(producer, plan[e.src], bits);
    const DsiTable cdsi(consumer, plan[e.dst], bits);
    const auto sizes = graph.transferSizes(e);
    EdgeDimMap consumer_map;
    for (int d : consumer.tensors[e.dstTensor].dims)
        consumer_map.push_back(d);
    if (forward)
        return planRedistribution(
            layoutOf(producer, pdsi, {producer.outputTensor, false},
                     Phase::Forward, pdsi.steps() - 1, e.dimMap, sizes),
            layoutOf(consumer, cdsi, {e.dstTensor, false}, Phase::Forward,
                     0, consumer_map, sizes));
    return planRedistribution(
        layoutOf(consumer, cdsi, {e.dstTensor, true}, Phase::Backward,
                 cdsi.steps() - 1, consumer_map, sizes),
        layoutOf(producer, pdsi, {producer.outputTensor, true},
                 Phase::Backward, 0, e.dimMap, sizes));
}

TEST(Boundary, CopiesMoveWhatPlanRedistributionPrices)
{
    const ModelConfig cfg = smallModel(32, 4);
    const CompGraph graph = buildTransformerBlock(cfg, 4);
    Rng rng(5);
    GraphIO io;
    const Shape act{4, cfg.seqLength, cfg.hiddenSize};
    io.input = Tensor::random(act, rng);
    io.params = randomBlockParams(graph, rng);
    io.d_output = Tensor::random(act, rng);

    for (int bits : {2, 4}) {
        SCOPED_TRACE(bits);
        const auto plan = defaultBlockPlan(graph, bits);
        RuntimeOptions rt;
        rt.numBits = bits;
        SpmdGraphExecutor exec(graph, plan, rt);
        (void)exec.run(io);
        const std::vector<EdgeVolume> &volume = exec.boundaryVolume();
        ASSERT_EQ(volume.size(), graph.edges().size());
        int plain = 0;
        for (std::size_t i = 0; i < graph.edges().size(); ++i) {
            const GraphEdge &e = graph.edges()[i];
            const std::int64_t fwd =
                pricedRedistribution(graph, plan, bits, e, true)
                    .totalElements;
            const std::int64_t bwd =
                pricedRedistribution(graph, plan, bits, e, false)
                    .totalElements;
            if (!e.indexMap.identity()) {
                // layoutOf rescales these edges' fused dims
                // proportionally, so the model's numbers may differ
                // from the exact copies: reported, not compared.
                std::printf("[ index map ] %d devices, %s -> %s tensor "
                            "%d: copied %lld / %lld, priced %lld / %lld "
                            "(forward / backward)\n",
                            1 << bits, graph.node(e.src).name.c_str(),
                            graph.node(e.dst).name.c_str(), e.dstTensor,
                            static_cast<long long>(volume[i].forward),
                            static_cast<long long>(volume[i].backward),
                            static_cast<long long>(fwd),
                            static_cast<long long>(bwd));
                continue;
            }
            ++plain;
            EXPECT_EQ(volume[i].forward, fwd)
                << graph.node(e.src).name << " -> "
                << graph.node(e.dst).name;
            EXPECT_EQ(volume[i].backward, bwd)
                << graph.node(e.src).name << " -> "
                << graph.node(e.dst).name;
        }
        EXPECT_EQ(plain, 12);
    }
}

} // namespace
} // namespace primepar
