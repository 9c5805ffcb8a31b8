#include "transformer.hh"

#include "support/logging.hh"

namespace primepar {

double
ModelConfig::layerParams() const
{
    // QKV (h x 3h) + out-proj (h x h) + fc1 (h x f) + fc2 (f x h)
    // + layernorm affine params (negligible).
    return static_cast<double>(hiddenSize) * 3 * hiddenSize +
           static_cast<double>(hiddenSize) * hiddenSize +
           2.0 * static_cast<double>(hiddenSize) * ffnSize;
}

ModelConfig
opt6p7b()
{
    return {"OPT 6.7B", 4096, 32, 16384, 2048, 32};
}

ModelConfig
opt175b()
{
    return {"OPT 175B", 12288, 96, 49152, 2048, 96};
}

ModelConfig
llama2_7b()
{
    return {"Llama2 7B", 4096, 32, 11008, 4096, 32};
}

ModelConfig
llama2_70b()
{
    return {"Llama2 70B", 8192, 64, 28672, 4096, 80};
}

ModelConfig
bloom7b1()
{
    return {"BLOOM 7B1", 4096, 32, 16384, 2048, 30};
}

ModelConfig
bloom176b()
{
    return {"BLOOM 176B", 14336, 112, 57344, 2048, 70};
}

std::vector<ModelConfig>
evaluationModels()
{
    return {opt6p7b(),   llama2_7b(),  bloom7b1(),
            opt175b(),   llama2_70b(), bloom176b()};
}

ModelConfig
modelByName(const std::string &name)
{
    for (const auto &m : evaluationModels()) {
        if (m.name == name)
            return m;
    }
    PRIMEPAR_FATAL("unknown model ", name);
}

namespace {

/**
 * Third @p third (0 = Q, 1 = K, 2 = V) of the fused QKV output
 * [B, M, 3h] read per head as [B, Hd, M, E]: axes (B, Hd, M, E), the
 * producer's K = third * h + hd * E + e.
 */
EdgeIndexMap
qkvSplitMap(std::int64_t b, std::int64_t s, std::int64_t heads,
            std::int64_t embed, int third)
{
    EdgeIndexMap map;
    map.axisSizes = {b, heads, s, embed};
    map.consumer = {{{0}, 0}, {{1}, 0}, {{2}, 0}, {{3}, 0}};
    map.producer = {{{0}, 0}, {{2}, 0}, {{1, 3}, third * heads * embed}};
    return map;
}

/**
 * The per-head attention context [B, Hd, M, E] read as the
 * out-projection input [B, M, h]: axes (B, Hd, M, E), the consumer's
 * hidden index = hd * E + e.
 */
EdgeIndexMap
headMergeMap(std::int64_t b, std::int64_t s, std::int64_t heads,
             std::int64_t embed)
{
    EdgeIndexMap map;
    map.axisSizes = {b, heads, s, embed};
    map.producer = {{{0}, 0}, {{1}, 0}, {{2}, 0}, {{3}, 0}};
    map.consumer = {{{0}, 0}, {{2}, 0}, {{1, 3}, 0}};
    return map;
}

} // namespace

CompGraph
buildTransformerBlock(const ModelConfig &cfg, std::int64_t batch)
{
    const std::int64_t b = batch;
    const std::int64_t s = cfg.seqLength;
    const std::int64_t h = cfg.hiddenSize;
    const std::int64_t nh = cfg.numHeads;
    const std::int64_t e = cfg.headEmbed();
    const std::int64_t f = cfg.ffnSize;

    CompGraph g;
    // n0: output of the previous layer (identity placeholder).
    g.addNode(makeElementwiseOp("input", {"B", "M", "H"}, {b, s, h}, 0.0));
    g.addNode(makeLayerNormOp("ln1", b, s, h));
    g.addNode(makeLinearOp("qkv", b, s, h, 3 * h));
    // QK^T: Q[B,Hd,M,E] x K[B,Hd,M2,E]^T -> scores[B,Hd,M,M2].
    g.addNode(makeBatchedMatmulOp("qk", {"B", "Hd", "M", "M2", "E"},
                                  {b, nh, s, s, e}, {0, 1, 2, 4},
                                  {0, 1, 3, 4}, {0, 1, 2, 3}, 4));
    g.addNode(makeSoftmaxOp("softmax", {"B", "Hd", "M", "M2"},
                            {b, nh, s, s}));
    // AV: scores[B,Hd,M,M2] x V[B,Hd,M2,E] -> ctx[B,Hd,M,E].
    g.addNode(makeBatchedMatmulOp("av", {"B", "Hd", "M", "M2", "E"},
                                  {b, nh, s, s, e}, {0, 1, 2, 3},
                                  {0, 1, 3, 4}, {0, 1, 2, 4}, 4));
    g.addNode(makeLinearOp("out_proj", b, s, h, h));
    g.addNode(makeAddOp("residual1", {"B", "M", "H"}, {b, s, h}));
    g.addNode(makeLayerNormOp("ln2", b, s, h));
    g.addNode(makeLinearOp("fc1", b, s, h, f));
    g.addNode(makeElementwiseOp("gelu", {"B", "M", "F"}, {b, s, f}));
    g.addNode(makeLinearOp("fc2", b, s, f, h));
    g.addNode(makeAddOp("residual2", {"B", "M", "H"}, {b, s, h}));

    // Chain edges. Dim maps list, per consumer-tensor dim, the
    // producer op dim it corresponds to.
    g.addEdge(0, 1, 0, {0, 1, 2});
    g.addEdge(1, 2, 0, {0, 1, 2});
    // QKV output [B,M,K=3h] -> Q[B,Hd,M,E] and K[B,Hd,M2,E]: Hd maps
    // onto K (head partitioning), E is never split by the producer.
    // The index maps pick each operand's third of K.
    g.addEdge(2, 3, 0, {0, 3, 1, -1}, qkvSplitMap(b, s, nh, e, 0));
    g.addEdge(2, 3, 1, {0, 3, 1, -1}, qkvSplitMap(b, s, nh, e, 1));
    g.addEdge(3, 4, 0, {0, 1, 2, 3});
    g.addEdge(4, 5, 0, {0, 1, 2, 3});
    // V flows from QKV as well: consumer Bm[B,Hd,M2,E].
    g.addEdge(2, 5, 1, {0, 3, 1, -1}, qkvSplitMap(b, s, nh, e, 2));
    // Context [B,Hd,M,E] -> out-proj I[B,M,N]: N maps onto Hd, and
    // the heads merge into N.
    g.addEdge(5, 6, 0, {0, 2, 1}, headMergeMap(b, s, nh, e));
    // Residual 1: main path and skip path.
    g.addEdge(6, 7, 0, {0, 1, 3});
    g.addEdge(0, 7, 1, {0, 1, 2});
    g.addEdge(7, 8, 0, {0, 1, 2});
    g.addEdge(8, 9, 0, {0, 1, 2});
    g.addEdge(9, 10, 0, {0, 1, 3});
    g.addEdge(10, 11, 0, {0, 1, 2});
    g.addEdge(11, 12, 0, {0, 1, 3});
    g.addEdge(7, 12, 1, {0, 1, 2});
    return g;
}

CompGraph
buildMlpBlock(const ModelConfig &cfg, std::int64_t batch)
{
    const std::int64_t b = batch;
    const std::int64_t s = cfg.seqLength;
    const std::int64_t h = cfg.hiddenSize;
    const std::int64_t f = cfg.ffnSize;

    CompGraph g;
    g.addNode(makeLinearOp("fc1", b, s, h, f));
    g.addNode(makeElementwiseOp("relu", {"B", "M", "F"}, {b, s, f}));
    g.addNode(makeLinearOp("fc2", b, s, f, h));
    g.addEdge(0, 1, 0, {0, 1, 3});
    g.addEdge(1, 2, 0, {0, 1, 2});
    return g;
}

} // namespace primepar
