#include "transformer_runtime.hh"

namespace primepar {

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
