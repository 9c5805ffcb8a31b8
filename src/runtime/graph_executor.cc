#include "graph_executor.hh"

#include "errors.hh"
#include "support/logging.hh"

namespace primepar {

SpmdGraphExecutor::SpmdGraphExecutor(const CompGraph &graph_in,
                                     std::vector<PartitionSeq> strategies,
                                     int num_bits, int num_threads,
                                     bool overlap_comm, DeviceSpan owned)
    : graph(graph_in)
{
    PRIMEPAR_ASSERT(static_cast<int>(strategies.size()) ==
                        graph.numNodes(),
                    "one strategy per node required");
    const int threads = resolveNumThreads(num_threads);
    if (threads > 1)
        pool = std::make_unique<ThreadPool>(threads);
    execs.reserve(graph.numNodes());
    for (int n = 0; n < graph.numNodes(); ++n) {
        execs.push_back(std::make_unique<SpmdOpExecutor>(
            graph.node(n), strategies[n], num_bits, overlap_comm,
            owned));
        execs.back()->setThreadPool(pool.get());
    }
}

SpmdGraphExecutor::SpmdGraphExecutor(const CompGraph &graph_in,
                                     std::vector<PartitionSeq> strategies,
                                     const RuntimeOptions &options)
    : SpmdGraphExecutor(graph_in, std::move(strategies),
                        options.numBits, options.execution.numThreads,
                        options.execution.overlapComm,
                        options.execution.ownedDevices)
{
}

void
SpmdGraphExecutor::setTransport(Transport *t)
{
    for (auto &e : execs)
        e->setTransport(t);
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

std::string
SpmdGraphExecutor::edgeKey(const GraphEdge &e) const
{
    return std::to_string(e.src) + ">" + std::to_string(e.dst) + ":" +
           std::to_string(e.dstTensor);
}

void
SpmdGraphExecutor::setEdgeTransform(int src, int dst, int dst_tensor,
                                    EdgeTransform transform)
{
    for (const GraphEdge &e : graph.edges()) {
        if (e.src == src && e.dst == dst && e.dstTensor == dst_tensor) {
            transforms[edgeKey(e)] = std::move(transform);
            return;
        }
    }
    PRIMEPAR_PANIC("no edge ", src, " -> ", dst, " tensor ", dst_tensor);
}

GraphResult
SpmdGraphExecutor::run(const GraphIO &io)
{
    const int nodes = graph.numNodes();
    for (auto &e : execs)
        e->reset();

    // Gathered forward outputs live only until their last consumer
    // has scattered them (the op executors stash every operand as
    // device slices on first use, so the backward sweep never needs
    // the full copies again). Keeping full-size boundary tensors for
    // the whole step would defeat sharding: every worker — not just
    // the slices' owners — would hold them at peak.
    std::vector<Tensor> outputs(nodes);
    std::vector<Shape> out_shapes(nodes);
    std::vector<int> pending_consumers(nodes);
    for (int n = 0; n < nodes; ++n)
        pending_consumers[n] =
            static_cast<int>(graph.outEdges(n).size());

    // Forward sweep.
    for (int n = 0; n < nodes; ++n) {
        const OpSpec &op = graph.node(n);
        std::map<std::string, Tensor> inputs;

        for (const GraphEdge *e : graph.inEdges(n)) {
            const std::string key = op.tensors[e->dstTensor].name;
            const auto it = transforms.find(edgeKey(*e));
            if (it != transforms.end() && it->second.forward) {
                inputs[key] = it->second.forward(outputs[e->src]);
            } else {
                inputs[key] = outputs[e->src];
            }
        }
        if (graph.inEdges(n).empty()) {
            inputs[op.tensors[op.inputTensor].name] = io.input;
        }
        for (std::size_t t = 0; t < op.tensors.size(); ++t) {
            if (!op.tensors[t].isParameter)
                continue;
            const std::string pkey =
                op.name + "." + op.tensors[t].name;
            const auto it = io.params.find(pkey);
            if (it == io.params.end()) {
                Shape expected;
                for (int d : op.tensors[t].dims)
                    expected.push_back(op.dims[d].size);
                throw InputError(op.name, "Forward", pkey, expected,
                                 {});
            }
            inputs[op.tensors[t].name] = it->second;
        }

        execs[n]->runPhase(Phase::Forward, inputs);
        outputs[n] = execs[n]->gatherByName(
            op.tensors[op.outputTensor].name);
        out_shapes[n] = outputs[n].shape();
        // The operands are stashed as device slices now; release the
        // full copies (and any producer output every consumer has
        // scattered) so per-worker peak memory tracks owned slices.
        inputs.clear();
        for (const GraphEdge *e : graph.inEdges(n)) {
            if (--pending_consumers[e->src] == 0 &&
                e->src != nodes - 1)
                outputs[e->src] = Tensor();
        }
    }

    // Backward + gradient sweep; gradients accumulate per producer.
    GraphResult result;
    result.output = outputs[nodes - 1];

    for (int n = nodes - 1; n >= 0; --n) {
        const OpSpec &op = graph.node(n);

        // Assemble dO_n.
        Tensor grad;
        if (n == nodes - 1) {
            grad = io.d_output;
        } else {
            grad = Tensor(out_shapes[n]);
            bool any = false;
            for (const GraphEdge *e : graph.outEdges(n)) {
                const OpSpec &consumer = graph.node(e->dst);
                const std::string gname =
                    "d" + consumer.tensors[e->dstTensor].name;
                PRIMEPAR_ASSERT(execs[e->dst]->hasTensor(gname),
                                "consumer ", consumer.name,
                                " produced no gradient ", gname);
                Tensor g = execs[e->dst]->gatherByName(gname);
                const auto it = transforms.find(edgeKey(*e));
                if (it != transforms.end() && it->second.backward)
                    g = it->second.backward(g);
                grad.add(g);
                any = true;
            }
            PRIMEPAR_ASSERT(any, "node ", op.name,
                            " has no gradient consumers");
        }
        // Every forward operand is already stashed as device slices;
        // only the incoming gradient is new.
        std::map<std::string, Tensor> inputs;
        inputs["d" + op.tensors[op.outputTensor].name] =
            std::move(grad);
        execs[n]->runPhase(Phase::Backward, inputs);
        execs[n]->runPhase(Phase::Gradient, inputs);

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
        total.wireBytes += e->stats().wireBytes;
    }
    return total;
}

} // namespace primepar
