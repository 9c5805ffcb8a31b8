/**
 * @file
 * Computation-graph IR.
 *
 * A model is a DAG of operators connected by edges carrying activation
 * tensors. Each edge records how the dims of the tensor *as consumed*
 * map onto the dims of the producing operator (fused dimensions like
 * QKV-output <-> heads are handled by proportional rescaling in the
 * redistribution planner). The optimizer and the simulator both walk
 * this graph.
 */

#ifndef PRIMEPAR_GRAPH_GRAPH_HH
#define PRIMEPAR_GRAPH_GRAPH_HH

#include <string>
#include <vector>

#include "comm/redistribution.hh"
#include "partition/op_spec.hh"

namespace primepar {

/**
 * Exact element correspondence between an edge's producer output and
 * its consumer tensor when the two differ in layout (the fused QKV
 * output feeding per-head Q, K and V; the per-head attention context
 * feeding the out-projection). Both sides index one set of common
 * axes: each dim of either side is a mixed-radix group of axes, most
 * significant first, plus an offset. Example, the Q/K/V third `third`
 * of a [B, M, 3h] QKV output read as [B, Hd, M, E]: axes (B, Hd, M, E),
 * consumer dims {B}, {Hd}, {M}, {E}, producer dims {B}, {M} and
 * {Hd, E} + third * h, i.e. k = third * h + hd * E + e.
 *
 * Empty (no axes) is the identity: the consumer tensor is the producer
 * output, dim for dim.
 */
struct EdgeIndexMap
{
    /** A dim as a mixed-radix group of axes plus an offset. */
    struct Group
    {
        std::vector<int> axes;   ///< most significant first
        std::int64_t offset = 0; ///< added to the group's value
    };

    std::vector<std::int64_t> axisSizes; ///< extent of each axis
    std::vector<Group> producer;         ///< per producer-output dim
    std::vector<Group> consumer;         ///< per consumer-tensor dim

    bool identity() const { return axisSizes.empty(); }
};

/** One edge: the output of @p src feeds tensor @p dstTensor of @p dst. */
struct GraphEdge
{
    int src = -1;
    int dst = -1;
    /** Index of the consumer tensor receiving the data (an operand of
     *  the consumer's forward pass). */
    int dstTensor = 0;
    /** For each dim of that consumer tensor: the matching producer op
     *  dim, or -1 when the producer does not split it. */
    EdgeDimMap dimMap;
    /** How the runtime reads the consumer tensor's elements off the
     *  producer output (identity unless set). The cost model reads
     *  dimMap only. */
    EdgeIndexMap indexMap;
};

/** A computation graph (nodes in topological order). */
class CompGraph
{
  public:
    /** Append a node; returns its index. */
    int addNode(OpSpec op);

    /** Connect src's output to (dst, dst_tensor); @p index_map, when
     *  not the identity, must cover both sides' dims and sizes. */
    void addEdge(int src, int dst, int dst_tensor, EdgeDimMap dim_map,
                 EdgeIndexMap index_map = {});

    int numNodes() const { return static_cast<int>(nodesVec.size()); }
    const OpSpec &node(int i) const { return nodesVec[i]; }
    OpSpec &node(int i) { return nodesVec[i]; }
    const std::vector<GraphEdge> &edges() const { return edgesVec; }

    /** Edges entering / leaving a node. */
    std::vector<const GraphEdge *> inEdges(int node) const;
    std::vector<const GraphEdge *> outEdges(int node) const;

    /** Transfer-tensor dim sizes of an edge (consumer tensor dims). */
    std::vector<std::int64_t> transferSizes(const GraphEdge &e) const;

    /** Producer-output dim sizes of an edge. */
    std::vector<std::int64_t> outputSizes(const GraphEdge &e) const;

    /** Element size in bytes of the tensor carried by an edge. */
    double transferBytes(const GraphEdge &e) const;

  private:
    std::vector<OpSpec> nodesVec;
    std::vector<GraphEdge> edgesVec;
};

} // namespace primepar

#endif // PRIMEPAR_GRAPH_GRAPH_HH
