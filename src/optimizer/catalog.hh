/**
 * @file
 * Per-node strategy catalogs and per-edge cost tables.
 *
 * The segmented DP works over, for every node, the enumerated
 * partition space with precomputed intra-operator costs, and for every
 * edge, a dense (producer-seq x consumer-seq) table of inter-operator
 * costs. An edge table writes the need boxes of every candidate
 * sequence once per side as int32 lanes, builds one node-union source
 * view per producing position, and prices each sequence pair in one
 * vector pass over all receivers (CostModel::trafficSplit()).
 *
 * Construction is embarrassingly parallel (one output slot per
 * sequence / position / sequence pair) and accepts an optional
 * ThreadPool; results are identical at any thread count. Catalogs of
 * structurally identical nodes are shared via CatalogCache (see
 * catalog_cache.hh).
 */

#ifndef PRIMEPAR_OPTIMIZER_CATALOG_HH
#define PRIMEPAR_OPTIMIZER_CATALOG_HH

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.hh"
#include "graph/graph.hh"
#include "partition/space.hh"
#include "support/parallel.hh"

namespace primepar {

class CatalogCache;

/** The strategy space of one node with cached evaluation artifacts. */
struct NodeCatalog
{
    /** The node this catalog was built for. When the catalog is shared
     *  through a CatalogCache this is the *first* node that needed it
     *  (all sharers are structurally identical). */
    int node = -1;
    std::vector<PartitionSeq> seqs;
    /** Eq. 7 weighted intra cost per sequence
     *  (CostModel::intraCost(), priced from the sequence alone: the
     *  catalog holds no per-device plan). */
    std::vector<double> intraCost;
    /** Leaves of the full partition space (>= seqs.size()). */
    std::size_t spaceSize = 0;
    /** True iff SpaceOptions::candidateBudget dropped sequences: the
     *  catalog is an approximate cover of the space and downstream
     *  results must report a cost gap. */
    bool truncated = false;

    int size() const { return static_cast<int>(seqs.size()); }
};

/** Outcome counters of a buildAllNodeCatalogs call. */
struct CatalogBuildStats
{
    /** Catalogs actually constructed. */
    int built = 0;
    /** Nodes served by an existing catalog (same-graph duplicate or
     *  CatalogCache entry from an earlier run). */
    int cacheHits = 0;
};

/**
 * Build (or fetch) the catalogs of every node of @p graph. Nodes with
 * identical structural keys share one catalog; @p cache (optional)
 * extends the sharing across optimizer invocations. Cost evaluation
 * is flattened over all (node, sequence) pairs and run on @p pool
 * (optional).
 */
std::vector<std::shared_ptr<const NodeCatalog>>
buildAllNodeCatalogs(const CompGraph &graph, const CostModel &cost,
                     const SpaceOptions &opts, ThreadPool *pool = nullptr,
                     CatalogCache *cache = nullptr,
                     CatalogBuildStats *stats = nullptr);

/** Dense inter-operator cost table of one edge. */
struct EdgeCostTable
{
    const GraphEdge *edge = nullptr;
    int srcSize = 0;
    int dstSize = 0;
    std::vector<float> cost; ///< [srcSeq * dstSize + dstSeq], us

    double
    at(int src_seq, int dst_seq) const
    {
        return cost[static_cast<std::size_t>(src_seq) * dstSize +
                    dst_seq];
    }
};

/** Table-construction knobs (defaults: every pair). */
struct EdgeTableOptions
{
    /**
     * Restrict the table to these sequence indices of the endpoint
     * catalogs (ascending; nullptr = all). Rows/columns are *candidate
     * positions*: at(p_s, p_d) prices srcCandidates[p_s] against
     * dstCandidates[p_d]. The segmented DP passes its dominance-pruned
     * survivor lists here, shrinking table work quadratically.
     */
    const std::vector<std::int32_t> *srcCandidates = nullptr;
    const std::vector<std::int32_t> *dstCandidates = nullptr;
    /**
     * Joint dominance bound: a sequence pair whose summed intra cost
     * exceeds this is on no optimal plan (the planner passes its pilot
     * upper bound minus the best completion of the remaining nodes),
     * so its traffic is never evaluated and its entry is set to +inf.
     * +inf (the default) evaluates every pair.
     */
    double pairBudget = std::numeric_limits<double>::infinity();
};

/**
 * Build the cost table of @p edge: forward + backward redistribution
 * traffic (Eq. 9) through the fitted redistribution latency model.
 */
EdgeCostTable buildEdgeCostTable(const CompGraph &graph,
                                 const GraphEdge &edge,
                                 const NodeCatalog &src,
                                 const NodeCatalog &dst,
                                 const CostModel &cost,
                                 ThreadPool *pool = nullptr,
                                 const EdgeTableOptions &topts = {});

/**
 * Why buildEdgeCostTable() cannot price some edge of @p graph on
 * @p devices devices (laneBoundsError() of its transfer tensor), or
 * "" when it can price every edge. Check it before planning a graph
 * built from outside input.
 */
std::string edgeLaneBoundsError(const CompGraph &graph, int devices);

} // namespace primepar

#endif // PRIMEPAR_OPTIMIZER_CATALOG_HH
