/**
 * @file
 * Edge transforms for functionally executing the transformer block.
 *
 * The Fig. 6 block graph carries two kinds of fused-dimension
 * boundaries that need real tensor rearrangement at execution time:
 * the fused QKV output splits into per-head Q / K / V operands, and
 * the attention context merges heads back into the hidden dimension.
 * This module installs those transforms on a SpmdGraphExecutor.
 */

#ifndef PRIMEPAR_RUNTIME_TRANSFORMER_RUNTIME_HH
#define PRIMEPAR_RUNTIME_TRANSFORMER_RUNTIME_HH

#include "graph/transformer.hh"
#include "graph_executor.hh"

namespace primepar {

/** Install the QKV-split and head-merge transforms for a block built
 *  by buildTransformerBlock(cfg, batch) at any batch. */
void installTransformerBlockTransforms(SpmdGraphExecutor &exec,
                                       const ModelConfig &cfg);

/**
 * Random parameters for every node of a transformer block, keyed as
 * GraphIO::params expects ("qkv.W", "ln1.G", ...).
 */
std::map<std::string, Tensor>
randomBlockParams(const CompGraph &graph, Rng &rng);

} // namespace primepar

#endif // PRIMEPAR_RUNTIME_TRANSFORMER_RUNTIME_HH
