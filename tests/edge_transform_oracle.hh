/**
 * @file
 * Full-tensor oracle for the transformer block's attention edges.
 *
 * These closures are how the runtime once moved the fused-dimension
 * boundaries: assemble the producer output, rearrange it whole, and
 * slice the result into the consumer (and the reverse for gradients).
 * The graph executor now moves slices through each edge's
 * EdgeIndexMap instead; the tests check it against these.
 */

#ifndef PRIMEPAR_TESTS_EDGE_TRANSFORM_ORACLE_HH
#define PRIMEPAR_TESTS_EDGE_TRANSFORM_ORACLE_HH

#include <functional>

#include "graph/transformer.hh"
#include "tensor/tensor.hh"

namespace primepar::oracle {

/** Value-level transforms of one edge. */
struct EdgeTransform
{
    /** Producer-output -> consumer-input coordinates. */
    std::function<Tensor(const Tensor &)> forward;
    /** Consumer-input gradient -> its contribution to the producer's
     *  output gradient (zero outside what the consumer reads). */
    std::function<Tensor(const Tensor &)> backward;
};

/** Slice one third of the fused QKV output and lay it out per head. */
inline EdgeTransform
qkvSplit(std::int64_t h, std::int64_t heads, std::int64_t embed, int third)
{
    EdgeTransform t;
    t.forward = [=](const Tensor &x) {
        const std::int64_t b = x.dim(0), m = x.dim(1);
        return x.narrow(2, third * h, h)
            .reshape({b, m, heads, embed})
            .permute({0, 2, 1, 3});
    };
    t.backward = [=](const Tensor &g) {
        const std::int64_t b = g.dim(0), m = g.dim(2);
        Tensor full(Shape{b, m, 3 * h});
        const Tensor merged = g.permute({0, 2, 1, 3}).reshape({b, m, h});
        full.assignSlice({0, 0, third * h}, merged);
        return full;
    };
    return t;
}

/** Merge the per-head attention context back into the hidden dim. */
inline EdgeTransform
headMerge(std::int64_t h, std::int64_t heads, std::int64_t embed)
{
    EdgeTransform t;
    t.forward = [=](const Tensor &x) {
        const std::int64_t b = x.dim(0), m = x.dim(2);
        return x.permute({0, 2, 1, 3}).reshape({b, m, h});
    };
    t.backward = [=](const Tensor &g) {
        const std::int64_t b = g.dim(0), m = g.dim(1);
        return g.reshape({b, m, heads, embed}).permute({0, 2, 1, 3});
    };
    return t;
}

/** The transform of block edge src -> (dst, dst_tensor) of a graph
 *  built by buildTransformerBlock(cfg, batch); identity (empty
 *  closures) on every edge but the four attention ones. */
inline EdgeTransform
blockEdgeTransform(const ModelConfig &cfg, int src, int dst, int dst_tensor)
{
    const std::int64_t h = cfg.hiddenSize;
    const std::int64_t heads = cfg.numHeads;
    const std::int64_t e = cfg.headEmbed();
    const TransformerBlockIndex idx;
    if (src == idx.qkv && dst == idx.qk)
        return qkvSplit(h, heads, e, dst_tensor);
    if (src == idx.qkv && dst == idx.av)
        return qkvSplit(h, heads, e, 2);
    if (src == idx.av && dst == idx.outProj)
        return headMerge(h, heads, e);
    return {};
}

} // namespace primepar::oracle

#endif // PRIMEPAR_TESTS_EDGE_TRANSFORM_ORACLE_HH
