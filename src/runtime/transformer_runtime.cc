#include "transformer_runtime.hh"

namespace primepar {

namespace {

/** Slice one third of the fused QKV output and lay it out per head. */
EdgeTransform
qkvSplit(std::int64_t h, std::int64_t heads, std::int64_t embed,
         int third)
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
        const Tensor merged =
            g.permute({0, 2, 1, 3}).reshape({b, m, h});
        full.assignSlice({0, 0, third * h}, merged);
        return full;
    };
    return t;
}

/** Merge the per-head attention context back into the hidden dim. */
EdgeTransform
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

} // namespace

void
installTransformerBlockTransforms(SpmdGraphExecutor &exec,
                                  const ModelConfig &cfg)
{
    const std::int64_t h = cfg.hiddenSize;
    const std::int64_t heads = cfg.numHeads;
    const std::int64_t e = cfg.headEmbed();
    const TransformerBlockIndex idx;

    exec.setEdgeTransform(idx.qkv, idx.qk, 0, qkvSplit(h, heads, e, 0));
    exec.setEdgeTransform(idx.qkv, idx.qk, 1, qkvSplit(h, heads, e, 1));
    exec.setEdgeTransform(idx.qkv, idx.av, 1, qkvSplit(h, heads, e, 2));
    exec.setEdgeTransform(idx.av, idx.outProj, 0, headMerge(h, heads, e));
}

std::map<std::string, Tensor>
randomBlockParams(const CompGraph &graph, Rng &rng)
{
    std::map<std::string, Tensor> params;
    for (int n = 0; n < graph.numNodes(); ++n) {
        const OpSpec &op = graph.node(n);
        for (std::size_t t = 0; t < op.tensors.size(); ++t) {
            if (!op.tensors[t].isParameter)
                continue;
            Shape shape;
            for (int d : op.tensors[t].dims)
                shape.push_back(op.dims[d].size);
            Tensor w = Tensor::random(shape, rng);
            // Keep activations tame through the deep block.
            w.scale(0.2f);
            params[op.name + "." + op.tensors[t].name] = std::move(w);
        }
    }
    return params;
}

} // namespace primepar
