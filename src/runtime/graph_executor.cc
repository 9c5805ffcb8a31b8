#include "graph_executor.hh"

#include "errors.hh"
#include "support/logging.hh"

namespace primepar {

SpmdGraphExecutor::SpmdGraphExecutor(const CompGraph &graph_in,
                                     std::vector<PartitionSeq> strategies,
                                     const RuntimeOptions &options,
                                     Transport *transport)
    : graph(graph_in)
{
    PRIMEPAR_ASSERT(static_cast<int>(strategies.size()) ==
                        graph.numNodes(),
                    "one strategy per node required");
    const int threads = resolveNumThreads(options.execution.numThreads);
    if (threads > 1)
        pool = std::make_unique<ThreadPool>(threads);
    execs.reserve(graph.numNodes());
    for (int n = 0; n < graph.numNodes(); ++n) {
        execs.push_back(std::make_unique<SpmdOpExecutor>(
            graph.node(n), strategies[n], options.numBits, transport,
            options.execution.overlapComm));
        execs.back()->setThreadPool(pool.get());
    }
    // An edge without an index map copies boxes as they are: the
    // consumer tensor must be the producer output, dim for dim.
    for (const GraphEdge &e : graph.edges()) {
        if (!e.indexMap.identity())
            continue;
        PRIMEPAR_ASSERT(graph.outputSizes(e) == graph.transferSizes(e),
                        "edge ", graph.node(e.src).name, " -> ",
                        graph.node(e.dst).name,
                        " changes the tensor's shape but has no index "
                        "map");
    }
    edgeVolumes.resize(graph.edges().size());
}

void
SpmdGraphExecutor::setHealth(RuntimeHealth *h)
{
    for (auto &e : execs)
        e->setHealth(h);
}

void
SpmdGraphExecutor::beginStep(std::int64_t s)
{
    for (auto &e : execs)
        e->beginStep(s);
}

GraphResult
SpmdGraphExecutor::run(const GraphIO &io)
{
    return run(io.input, io.params, io.d_output);
}

GraphResult
SpmdGraphExecutor::run(const Tensor &input,
                       const std::map<std::string, Tensor> &params,
                       const Tensor &d_output)
{
    const int nodes = graph.numNodes();
    const std::vector<GraphEdge> &edges = graph.edges();
    const auto devices =
        static_cast<std::size_t>(execs[0]->dsi().numDevices());
    for (auto &e : execs)
        e->reset();
    // Cross-device elements per (edge, device), each written only by
    // the device filling its slot.
    std::vector<std::int64_t> fwd_moved(edges.size() * devices, 0);
    std::vector<std::int64_t> bwd_moved(edges.size() * devices, 0);
    const auto moved_at = [&](std::vector<std::int64_t> &moved,
                              const GraphEdge *e) {
        return moved.data() +
               static_cast<std::size_t>(e - edges.data()) * devices;
    };

    // Forward outputs as slices, until their last consumer has copied
    // from them. Owned slices point into the producer's store; a
    // sharded worker also holds the slices it received from the other
    // workers here, and releasing them as soon as possible keeps its
    // peak memory tracking owned slices.
    std::vector<SliceSet> outputs(nodes);
    std::vector<int> pending_consumers(nodes);
    for (int n = 0; n < nodes; ++n)
        pending_consumers[n] =
            static_cast<int>(graph.outEdges(n).size());

    GraphResult result;

    // Forward sweep.
    for (int n = 0; n < nodes; ++n) {
        const OpSpec &op = graph.node(n);

        for (const GraphEdge *e : graph.inEdges(n)) {
            const BoundaryCopy copy(e->indexMap, true, outputs[e->src]);
            std::int64_t *moved = moved_at(fwd_moved, e);
            execs[n]->place(op.tensors[e->dstTensor].name, false,
                            [&](std::int64_t dev,
                                const std::vector<SliceRange> &box,
                                Tensor &slot) {
                                moved[dev] +=
                                    copy.into(dev, box, slot, false);
                            });
        }
        if (graph.inEdges(n).empty())
            execs[n]->placeWhole(op.tensors[op.inputTensor].name, input);
        for (std::size_t t = 0; t < op.tensors.size(); ++t) {
            if (!op.tensors[t].isParameter)
                continue;
            const std::string pkey =
                op.name + "." + op.tensors[t].name;
            const auto it = params.find(pkey);
            if (it == params.end()) {
                Shape expected;
                for (int d : op.tensors[t].dims)
                    expected.push_back(op.dims[d].size);
                throw InputError(op.name, "Forward", pkey, expected,
                                 {});
            }
            execs[n]->placeWhole(op.tensors[t].name, it->second);
        }

        execs[n]->runPhase(Phase::Forward);
        const std::string &out = op.tensors[op.outputTensor].name;
        if (n == nodes - 1)
            result.output = execs[n]->gatherByName(out);
        else
            outputs[n] = execs[n]->slices(out);
        for (const GraphEdge *e : graph.inEdges(n)) {
            if (--pending_consumers[e->src] == 0)
                outputs[e->src] = SliceSet();
        }
    }

    // Backward + gradient sweep; gradients accumulate per producer.
    for (int n = nodes - 1; n >= 0; --n) {
        const OpSpec &op = graph.node(n);
        const std::string d_out = "d" + op.tensors[op.outputTensor].name;

        if (n == nodes - 1) {
            execs[n]->placeWhole(d_out, d_output);
        } else {
            // dO_n: zeroed slots, then each consumer's contribution in
            // out-edge order, so every element sums as (0 + g1) + g2.
            const std::vector<const GraphEdge *> out_edges =
                graph.outEdges(n);
            PRIMEPAR_ASSERT(!out_edges.empty(), "node ", op.name,
                            " has no gradient consumers");
            std::vector<SliceSet> grads;
            grads.reserve(out_edges.size());
            for (const GraphEdge *e : out_edges) {
                const OpSpec &consumer = graph.node(e->dst);
                const std::string gname =
                    "d" + consumer.tensors[e->dstTensor].name;
                PRIMEPAR_ASSERT(execs[e->dst]->hasTensor(gname),
                                "consumer ", consumer.name,
                                " produced no gradient ", gname);
                grads.push_back(execs[e->dst]->slices(gname));
            }
            std::vector<BoundaryCopy> copies;
            copies.reserve(out_edges.size());
            for (std::size_t i = 0; i < out_edges.size(); ++i)
                copies.emplace_back(out_edges[i]->indexMap, false,
                                    grads[i]);
            execs[n]->place(
                d_out, true,
                [&](std::int64_t dev, const std::vector<SliceRange> &box,
                    Tensor &slot) {
                    for (std::size_t i = 0; i < copies.size(); ++i)
                        moved_at(bwd_moved, out_edges[i])[dev] +=
                            copies[i].into(dev, box, slot, true);
                });
        }
        execs[n]->runPhase(Phase::Backward);
        execs[n]->runPhase(Phase::Gradient);

        for (std::size_t t = 0; t < op.tensors.size(); ++t) {
            if (!op.tensors[t].isParameter)
                continue;
            const std::string gname = "d" + op.tensors[t].name;
            if (execs[n]->hasTensor(gname)) {
                result.d_params[op.name + "." + op.tensors[t].name] =
                    execs[n]->gatherByName(gname);
            }
        }
    }

    const OpSpec &first = graph.node(0);
    const std::string din = "d" + first.tensors[first.inputTensor].name;
    if (execs[0]->hasTensor(din))
        result.d_input = execs[0]->gatherByName(din);

    for (std::size_t e = 0; e < edges.size(); ++e) {
        edgeVolumes[e] = EdgeVolume{};
        for (std::size_t dev = 0; dev < devices; ++dev) {
            edgeVolumes[e].forward += fwd_moved[e * devices + dev];
            edgeVolumes[e].backward += bwd_moved[e * devices + dev];
        }
    }
    return result;
}

CommVolume
SpmdGraphExecutor::stats() const
{
    CommVolume total;
    for (const auto &e : execs) {
        total.ringElements += e->stats().ringElements;
        total.allReduceElements += e->stats().allReduceElements;
        total.allReduceCount += e->stats().allReduceCount;
    }
    return total;
}

} // namespace primepar
