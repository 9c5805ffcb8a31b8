/**
 * @file
 * Segmented dynamic programming optimizer (paper Sec. 5).
 *
 * The transformer computation graph is not a chain: residual and V
 * edges skip nodes, which breaks plain left-to-right DP (Assumptions
 * 1-2 of the paper). The graph is therefore cut into *segments* at the
 * source nodes of extended (skip) edges; within each segment the
 * Bellman recurrences of Eqs. 11-12 apply, and segments are merged via
 * Eqs. 13-14 (subtracting the shared boundary node's intra cost and
 * adding the skip edge spanning the merge). Identical stacked layers
 * are combined by recursive doubling in log(#layers) merges.
 *
 * The planner itself is parallel: catalog construction, edge-table
 * evaluation and the one (min, +) argmin behind every Bellman step and
 * merge run on a ThreadPool with one output slot per index, so results are bit-identical at any
 * thread count (see support/parallel.hh). Catalogs of structurally
 * identical nodes are shared, optionally across invocations through a
 * caller-supplied CatalogCache.
 *
 * Large topologies are handled by two composable layers (DESIGN.md
 * Sec. 11): exact dominance pruning driven by a pilot upper bound
 * (DpOptions::pruneDominated — byte-identical results, order-of-
 * magnitude faster) and an explicitly approximate beam over each
 * operator's space with a certified cost gap (DpOptions::beamWidth).
 * Every run solves every segment; whole plans are memoized outside
 * the optimizer, by the plan service (serve/plan_service.hh) under
 * planCacheKey.
 */

#ifndef PRIMEPAR_OPTIMIZER_SEGMENTED_DP_HH
#define PRIMEPAR_OPTIMIZER_SEGMENTED_DP_HH

#include <memory>
#include <vector>

#include "catalog.hh"
#include "catalog_cache.hh"

namespace primepar {

class MetricsRegistry;

/** Options of one optimization run. */
struct DpOptions
{
    /** Per-operator space options (PSquare on/off, excluded dims). */
    SpaceOptions space;
    /** Stacked identical layers to optimize for. */
    int numLayers = 1;
    /** Planner threads; 0 = hardware concurrency. Any value yields
     *  bit-identical strategies and costs. */
    int numThreads = 0;
    /** Optional catalog store shared across runs. nullptr still
     *  deduplicates identical nodes within the run. */
    std::shared_ptr<CatalogCache> catalogCache;

    /**
     * Exact dominance pruning. A cheap pilot DP over each node's
     * best-intra candidates yields an upper bound; sequences and
     * Bellman states provably unable to beat it are dropped, and edge
     * tables are built over the survivors only. The result —
     * strategies and all costs — is byte-identical to the exhaustive
     * planner at any thread count (see DESIGN.md for the proof).
     * false selects the exhaustive planner: a reference path for the
     * parity tests and the bench_planner_speedup A/B gate, not a
     * product option. Both modes price traffic with the same
     * CostModel::trafficSplit.
     */
    bool pruneDominated = true;

    /**
     * 0 = exact over the full space. > 0 enables the explicitly
     * approximate big-topology mode: each operator keeps only this
     * many candidate sequences (the best by evaluated intra cost among
     * a structurally preselected 4x pool), and the result reports a
     * certified optimality gap (DpResult::gapPct). This is what makes
     * 512-4096-device planning tractable — the full per-operator space
     * there has 10^5-10^8 sequences.
     */
    int beamWidth = 0;

    /** Candidates per node in the pruning pilot pass. Any value >= 1
     *  is exact; larger finds tighter bounds sooner, smaller is
     *  cheaper. */
    int pilotWidth = 24;

    /** Optional sink for planner counters and phase timings
     *  ("planner.*" names); may be nullptr. */
    MetricsRegistry *metrics = nullptr;
};

/** Result of an optimization run. */
struct DpResult
{
    /** Chosen partition sequence per graph node (one layer). */
    std::vector<PartitionSeq> strategies;
    /** Optimal single-layer cost C_{0,last} (Eq. 10), us. */
    double layerCost = 0.0;
    /** Stacked-model cost over numLayers (recursive merging), us. */
    double totalCost = 0.0;
    /** Wall-clock optimization time, ms. */
    double optimizationMs = 0.0;

    /** Per-phase planner timings (sum <= optimizationMs), ms. */
    double catalogMs = 0.0;   ///< catalog construction / cache lookup
    double pilotMs = 0.0;     ///< pruning pilot (upper-bound) pass
    double edgeTableMs = 0.0; ///< edge cost tables
    double dpMs = 0.0;        ///< Bellman + merge + reconstruction

    /** Catalogs built vs nodes served from a shared catalog. */
    int catalogsBuilt = 0;
    int catalogCacheHits = 0;

    /** Materialized sequences summed over nodes, before and after
     *  dominance pruning (equal when pruning is off). */
    std::int64_t candidatesTotal = 0;
    std::int64_t candidatesKept = 0;
    /** Bellman/merge states proven unable to reach a plan within the
     *  pilot upper bound and skipped. */
    std::int64_t statesPruned = 0;

    /** True iff beamWidth truncated at least one operator's space —
     *  only then can the result be suboptimal. */
    bool truncated = false;
    /** Certified lower bound on the achievable layer cost, us. Equals
     *  layerCost when the result is provably optimal. */
    double lowerBoundUs = 0.0;
    /** Certified relative suboptimality bound of layerCost, percent.
     *  Exactly 0 when the result is provably optimal. */
    double gapPct = 0.0;
};

/** The optimizer: builds catalogs and tables, runs the segmented DP. */
class SegmentedDpOptimizer
{
  public:
    SegmentedDpOptimizer(const CompGraph &graph, const CostModel &cost,
                         DpOptions opts);

    /** Run the full optimization. */
    DpResult optimize();

  private:
    const CompGraph &graph;
    const CostModel &cost;
    DpOptions opts;
};

/**
 * Cache key of a whole optimization run — the key of the persistent
 * plan store and the plan service's in-memory flights. Covers
 * every input the resulting plan depends on: the structural operator
 * signatures (via catalogKey, which folds in the device-bit count,
 * the space options, and CostModel::fingerprint()), the edge
 * structure, and the planner options that change the search
 * (numLayers, pruning, beam, pilot width).
 */
std::string planCacheKey(const CompGraph &graph, const CostModel &cost,
                         const DpOptions &opts);

/**
 * Re-plan after permanent device failures: build the paper cluster of
 * @p surviving_devices (a power of two), profile its latency models,
 * and run the segmented DP for the shrunken grid. This is the recovery
 * entry the fault-tolerant runtime calls when a 2^n grid degrades to
 * 2^(n-1) survivors.
 */
DpResult replanForSurvivors(const CompGraph &graph, int surviving_devices,
                            DpOptions opts = {});

} // namespace primepar

#endif // PRIMEPAR_OPTIMIZER_SEGMENTED_DP_HH
