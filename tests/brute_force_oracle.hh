/**
 * @file
 * Test oracle of the segmented DP: minimize Eq. 10 by enumerating
 * every strategy combination over the full catalogs and edge tables,
 * built with the public buildAllNodeCatalogs() / buildEdgeCostTable().
 * Exponential — for validating the DP on small graphs.
 */

#ifndef PRIMEPAR_TESTS_BRUTE_FORCE_ORACLE_HH
#define PRIMEPAR_TESTS_BRUTE_FORCE_ORACLE_HH

#include <limits>
#include <vector>

#include "optimizer/catalog.hh"
#include "optimizer/segmented_dp.hh"

namespace primepar {

/**
 * The cheapest plan of one layer of @p graph. @p cache may share
 * catalogs with SegmentedDpOptimizer runs; @p num_threads parallelizes
 * catalog and table construction (the enumeration stays serial). Sets
 * strategies, layerCost (= totalCost), catalogsBuilt and
 * catalogCacheHits.
 */
inline DpResult
bruteForceOptimize(const CompGraph &graph, const CostModel &cost,
                   const SpaceOptions &space, CatalogCache *cache = nullptr,
                   int num_threads = 1)
{
    ThreadPool pool(num_threads);
    CatalogBuildStats stats;
    const auto catalogs =
        buildAllNodeCatalogs(graph, cost, space, &pool, cache, &stats);
    std::vector<EdgeCostTable> tables;
    for (const GraphEdge &e : graph.edges()) {
        tables.push_back(buildEdgeCostTable(graph, e, *catalogs[e.src],
                                            *catalogs[e.dst], cost,
                                            &pool));
    }

    const int nodes = graph.numNodes();
    std::vector<int> idx(nodes, 0), best;
    double best_cost = std::numeric_limits<double>::infinity();
    while (true) {
        double c = 0.0;
        for (int n = 0; n < nodes; ++n)
            c += catalogs[n]->intraCost[idx[n]];
        for (std::size_t e = 0; e < tables.size(); ++e) {
            c += tables[e].at(idx[graph.edges()[e].src],
                              idx[graph.edges()[e].dst]);
        }
        if (c < best_cost) {
            best_cost = c;
            best = idx;
        }
        int n = nodes - 1;
        for (; n >= 0; --n) {
            if (++idx[n] < catalogs[n]->size())
                break;
            idx[n] = 0;
        }
        if (n < 0)
            break;
    }

    DpResult result;
    for (int n = 0; n < nodes; ++n)
        result.strategies.push_back(catalogs[n]->seqs[best[n]]);
    result.layerCost = best_cost;
    result.totalCost = best_cost;
    result.catalogsBuilt = stats.built;
    result.catalogCacheHits = stats.cacheHits;
    return result;
}

} // namespace primepar

#endif // PRIMEPAR_TESTS_BRUTE_FORCE_ORACLE_HH
