#include "megatron.hh"

#include "support/bits.hh"
#include "support/logging.hh"

namespace primepar {

namespace {

/** The dimension Megatron shards for the model-parallel bits. */
int
modelParallelDim(const OpSpec &op)
{
    if (op.kind == "linear") {
        // Column-parallel first linear of each pair, row-parallel
        // second (Megatron's f/g operator pairing).
        if (op.name == "qkv" || op.name == "fc1")
            return op.dimIndex("K");
        return op.dimIndex("N");
    }
    if (op.kind == "matmul" || op.kind == "softmax")
        return op.dimIndex("Hd");
    // layernorm / add / elementwise: sequence sharding. The gelu/relu
    // between fc1 and fc2 shards the ffn dim to stay aligned with the
    // column-parallel fc1 output.
    for (const char *ffn_dim : {"F"}) {
        for (std::size_t d = 0; d < op.dims.size(); ++d) {
            if (op.dims[d].name == ffn_dim)
                return static_cast<int>(d);
        }
    }
    return op.dimIndex("M");
}

} // namespace

std::optional<std::vector<PartitionSeq>>
megatronStrategies(const CompGraph &graph, const MegatronConfig &cfg)
{
    const int d_bits = log2Exact(cfg.dataParallel);
    const int m_bits = log2Exact(cfg.modelParallel);

    std::vector<PartitionSeq> strategies;
    for (int n = 0; n < graph.numNodes(); ++n) {
        const OpSpec &op = graph.node(n);
        PartitionSeq seq;
        const int batch = op.dimIndex("B");
        for (int b = 0; b < d_bits; ++b)
            seq.push(PartitionStep::byDim(batch));
        const int mp_dim = modelParallelDim(op);
        for (int b = 0; b < m_bits; ++b)
            seq.push(PartitionStep::byDim(mp_dim));
        if (!seq.validate(op).empty())
            return std::nullopt;
        strategies.push_back(std::move(seq));
    }
    return strategies;
}

std::vector<MegatronConfig>
megatronConfigs(int num_devices)
{
    std::vector<MegatronConfig> configs;
    for (int d = 1; d <= num_devices; d *= 2)
        configs.push_back({d, num_devices / d});
    return configs;
}

MegatronPlan
bestMegatronPlan(const CompGraph &graph, const CostModel &cost_model)
{
    const int devices = cost_model.topology().numDevices();
    MegatronPlan best;
    bool found = false;
    for (const MegatronConfig &cfg : megatronConfigs(devices)) {
        const auto strategies = megatronStrategies(graph, cfg);
        if (!strategies.has_value())
            continue;

        double total = 0.0;
        const auto &seqs = *strategies;
        const int bits = cost_model.topology().numBits();
        for (int n = 0; n < graph.numNodes(); ++n)
            total += cost_model.intraCost(graph.node(n), seqs[n]).weighted;
        for (const GraphEdge &e : graph.edges()) {
            const OpSpec &producer = graph.node(e.src);
            const OpSpec &consumer = graph.node(e.dst);
            const auto sizes = graph.transferSizes(e);
            EdgeDimMap consumer_map;
            for (int dim : consumer.tensors[e.dstTensor].dims)
                consumer_map.push_back(dim);
            const int src_last = seqs[e.src].temporalSteps() - 1;
            const int dst_last = seqs[e.dst].temporalSteps() - 1;
            const auto have = layoutOf(
                producer, seqs[e.src], bits,
                {producer.outputTensor, false}, Phase::Forward,
                src_last, e.dimMap, sizes);
            const auto need = layoutOf(
                consumer, seqs[e.dst], bits, {e.dstTensor, false},
                Phase::Forward, 0, consumer_map, sizes);
            const auto have_b = layoutOf(
                consumer, seqs[e.dst], bits, {e.dstTensor, true},
                Phase::Backward, dst_last, consumer_map, sizes);
            const auto need_b = layoutOf(
                producer, seqs[e.src], bits,
                {producer.outputTensor, true}, Phase::Backward, 0,
                e.dimMap, sizes);
            const auto f = cost_model.trafficSplit(have, need);
            const auto b = cost_model.trafficSplit(have_b, need_b);
            const double bpe = consumer.bytesPerElement;
            total += cost_model.redistLatencyUs(
                static_cast<double>(f.intraNode + b.intraNode) * bpe,
                static_cast<double>(f.interNode + b.interNode) * bpe);
        }

        if (!found || total < best.cost) {
            found = true;
            best.config = cfg;
            best.strategies = *strategies;
            best.cost = total;
        }
    }
    PRIMEPAR_ASSERT(found, "no feasible Megatron configuration");
    return best;
}

DpResult
alpaOptimize(const CompGraph &graph, const CostModel &cost,
             int num_layers)
{
    DpOptions opts;
    opts.numLayers = num_layers;
    return alpaOptimize(graph, cost, std::move(opts));
}

DpResult
alpaOptimize(const CompGraph &graph, const CostModel &cost,
             DpOptions opts)
{
    opts.space.allowPSquare = false;
    return SegmentedDpOptimizer(graph, cost, std::move(opts)).optimize();
}

} // namespace primepar
