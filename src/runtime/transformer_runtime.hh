/**
 * @file
 * Inputs for functionally executing the transformer block.
 *
 * The block's fused-dimension boundaries (the QKV output split into
 * per-head Q / K / V, the heads merged back into the hidden dim) need
 * nothing here: buildTransformerBlock() describes them as edge index
 * maps, which SpmdGraphExecutor moves slices through.
 */

#ifndef PRIMEPAR_RUNTIME_TRANSFORMER_RUNTIME_HH
#define PRIMEPAR_RUNTIME_TRANSFORMER_RUNTIME_HH

#include "graph/transformer.hh"
#include "graph_executor.hh"

namespace primepar {

/**
 * Random parameters for every node of a transformer block, keyed as
 * GraphIO::params expects ("qkv.W", "ln1.G", ...).
 */
std::map<std::string, Tensor>
randomBlockParams(const CompGraph &graph, Rng &rng);

} // namespace primepar

#endif // PRIMEPAR_RUNTIME_TRANSFORMER_RUNTIME_HH
