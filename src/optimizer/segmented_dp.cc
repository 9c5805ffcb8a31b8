#include "segmented_dp.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "cost/profiler.hh"
#include "dp_core.hh"
#include "runtime/metrics.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "topology/cluster.hh"

namespace primepar {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** One merge record: [a,b] + [b,c] -> [a,c]. */
struct Merge
{
    int a = 0, b = 0, c = 0;
    ArgMat argB; ///< best p_b per (p_a, p_c)
};

struct DpContext
{
    DpContext(const CompGraph &graph_in, const CostModel &cost_in,
              ThreadPool *pool_in)
        : graph(graph_in), cost(cost_in), pool(pool_in)
    {}

    const CompGraph &graph;
    const CostModel &cost;
    ThreadPool *pool = nullptr;
    std::vector<std::shared_ptr<const NodeCatalog>> catalogs;

    /**
     * Surviving sequence indices per node, ascending. Bellman
     * matrices, edge tables and argmins all work in *positions* into
     * these lists; because positions preserve the original sequence
     * order, every first-index tie-break resolves exactly as in the
     * exhaustive planner and the final plans stay byte-identical.
     */
    std::vector<std::vector<std::int32_t>> cand;
    /** Gathered intra cost per candidate position. */
    std::vector<std::vector<double>> intra;

    std::vector<EdgeCostTable> tables; // parallel to graph.edges()
    /** (src, dst) -> indices into tables, built once; edgeCost() is
     *  an O(log V) lookup instead of a full edge-list rescan. */
    std::map<std::pair<int, int>, std::vector<std::size_t>> edgeIndex;

    /** Layer-space pruning threshold: states whose partial cost plus
     *  the admissible completion bound exceed it are provably off
     *  every optimal plan. kInf = no pruning (exhaustive mode). */
    double ubLayer = kInf;
    /** Prefix sums of per-node minimum candidate intra cost, for the
     *  completion bound. */
    std::vector<double> minPrefix;
    /** Bellman/merge entries proven out and set to kInf. */
    std::int64_t statesPruned = 0;

    const NodeCatalog &
    cat(int node) const
    {
        return *catalogs[node];
    }
    int
    candSize(int node) const
    {
        return static_cast<int>(cand[node].size());
    }
    double
    intraOf(int node, int p) const
    {
        return intra[node][p];
    }

    /** Candidate lists = the full catalogs (exhaustive mode). */
    void
    initAllCandidates()
    {
        cand.resize(catalogs.size());
        for (std::size_t n = 0; n < catalogs.size(); ++n) {
            cand[n].resize(catalogs[n]->size());
            for (int s = 0; s < catalogs[n]->size(); ++s)
                cand[n][s] = s;
        }
    }

    /** Gather per-position intra costs and the min-prefix sums. Call
     *  after the candidate lists are final. */
    void
    finishCandidates()
    {
        const std::size_t num_nodes = catalogs.size();
        intra.resize(num_nodes);
        minPrefix.assign(num_nodes + 1, 0.0);
        for (std::size_t n = 0; n < num_nodes; ++n) {
            PRIMEPAR_ASSERT(!cand[n].empty(), "node ", n,
                            " lost every candidate");
            intra[n].resize(cand[n].size());
            double mn = kInf;
            for (std::size_t p = 0; p < cand[n].size(); ++p) {
                intra[n][p] = catalogs[n]->intraCost[cand[n][p]];
                mn = std::min(mn, intra[n][p]);
            }
            minPrefix[n + 1] = minPrefix[n] + mn;
        }
    }

    /** Admissible completion bound: minimum candidate intra cost
     *  summed over every node outside [a, j]. */
    double
    outsideMin(int a, int j) const
    {
        return minPrefix.back() - (minPrefix[j + 1] - minPrefix[a]);
    }

    /** Build every edge's table (parallel) and the (src, dst)
     *  adjacency index. */
    void
    buildTables()
    {
        const auto &edges = graph.edges();
        tables.resize(edges.size());
        parallelFor(pool, edges.size(), [&](std::size_t e) {
            EdgeTableOptions topts;
            topts.srcCandidates = &cand[edges[e].src];
            topts.dstCandidates = &cand[edges[e].dst];
            if (ubLayer < kInf) {
                // Same admissible bound as the per-node slack filter,
                // with both endpoints fixed: a pair costing more than
                // this is on no optimal plan, so its traffic need not
                // be priced at all.
                const int s = edges[e].src, d = edges[e].dst;
                topts.pairBudget =
                    ubLayer -
                    (minPrefix.back() -
                     (minPrefix[s + 1] - minPrefix[s]) -
                     (minPrefix[d + 1] - minPrefix[d]));
            }
            tables[e] = buildEdgeCostTable(graph, edges[e],
                                           cat(edges[e].src),
                                           cat(edges[e].dst), cost, pool,
                                           topts);
        });
        for (std::size_t e = 0; e < edges.size(); ++e)
            edgeIndex[{edges[e].src, edges[e].dst}].push_back(e);
    }

    /** Sum of the cost tables of all edges src -> dst (inf-free). */
    bool
    edgeCost(int src, int dst, Mat &out) const
    {
        const auto it = edgeIndex.find({src, dst});
        if (it == edgeIndex.end())
            return false;
        bool found = false;
        for (const std::size_t e : it->second) {
            const EdgeCostTable &table = tables[e];
            if (!found) {
                out = Mat(table.srcSize, table.dstSize);
                found = true;
            } else {
                PRIMEPAR_ASSERT(
                    table.srcSize == out.rows &&
                        table.dstSize == out.cols,
                    "parallel edges ", src, " -> ", dst,
                    " have mismatched cost tables: ", table.srcSize,
                    "x", table.dstSize, " vs ", out.rows, "x",
                    out.cols);
            }
            for (int i = 0; i < out.rows; ++i)
                for (int j = 0; j < out.cols; ++j)
                    out.at(i, j) += table.at(i, j);
        }
        return found;
    }
};

/**
 * Mark every entry above @p threshold as unreachable. Such an entry's
 * partial cost plus the admissible completion bound already exceeds
 * the pilot upper bound, so no plan through it can be optimal — and
 * since every state on an optimal plan keeps its exact value and its
 * first-index argmin, the surviving computation is byte-identical to
 * the unpruned one (DESIGN.md Sec. 11).
 */
void
pruneStates(DpContext &ctx, Mat &m, double threshold)
{
    if (!(threshold < kInf))
        return;
    std::vector<std::int64_t> per_row(m.rows, 0);
    parallelFor(ctx.pool, static_cast<std::size_t>(m.rows),
                [&](std::size_t row) {
        const int r = static_cast<int>(row);
        std::int64_t n = 0;
        for (int c = 0; c < m.cols; ++c) {
            double &v = m.at(r, c);
            if (v > threshold && v < kInf) {
                v = kInf;
                ++n;
            }
        }
        per_row[row] = n;
    });
    for (const std::int64_t n : per_row)
        ctx.statesPruned += n;
}

/** Run the Bellman recurrences within segment [a, c] (Eqs. 11-12). */
DpSegment
solveSegment(DpContext &ctx, int a, int c)
{
    DpSegment seg;
    seg.a = a;
    seg.c = c;

    PRIMEPAR_ASSERT(c > a, "degenerate segment");

    // Init over [a, a+1].
    Mat e01;
    const bool has01 = ctx.edgeCost(a, a + 1, e01);
    seg.C = Mat(ctx.candSize(a), ctx.candSize(a + 1));
    parallelFor(ctx.pool, static_cast<std::size_t>(seg.C.rows),
                [&](std::size_t i) {
        const int row = static_cast<int>(i);
        for (int j = 0; j < seg.C.cols; ++j) {
            seg.C.at(row, j) = ctx.intraOf(a, row) +
                               ctx.intraOf(a + 1, j) +
                               (has01 ? e01.at(row, j) : 0.0);
        }
    });
    pruneStates(ctx, seg.C, ctx.ubLayer - ctx.outsideMin(a, a + 1));

    for (int next = a + 2; next <= c; ++next) {
        const int j = next - 1;
        // Assumptions 1-2: every in-edge of `next` originating inside
        // this segment comes from j or a (edges from before the
        // segment are accounted for at merge time, Eq. 13).
        for (const GraphEdge *e : ctx.graph.inEdges(next)) {
            PRIMEPAR_ASSERT(e->src < a || e->src == j || e->src == a,
                            "segment assumption violated: edge ",
                            e->src, " -> ", e->dst,
                            " inside segment [", a, ", ", c, "]");
        }
        Mat e_chain, e_skip;
        const bool has_chain = ctx.edgeCost(j, next, e_chain);
        const bool has_skip = a != j && ctx.edgeCost(a, next, e_skip);

        const int next_size = ctx.candSize(next);
        Mat next_c(seg.C.rows, next_size, kInf);
        ArgMat arg(seg.C.rows, next_size);
        // Rows are independent (row pa reads row pa of seg.C, writes
        // row pa of next_c/arg); the argmin over pj stays a serial
        // loop inside one row, so ties break identically at any
        // thread count. Pruned predecessor states (kInf) can never
        // win the strict < and are skipped outright.
        parallelFor(ctx.pool, static_cast<std::size_t>(seg.C.rows),
                    [&](std::size_t row) {
            const int pa = static_cast<int>(row);
            for (int pj = 0; pj < seg.C.cols; ++pj) {
                const double base = seg.C.at(pa, pj);
                if (base == kInf)
                    continue;
                for (int pn = 0; pn < next_size; ++pn) {
                    const double val =
                        base +
                        (has_chain ? e_chain.at(pj, pn) : 0.0);
                    if (val < next_c.at(pa, pn)) {
                        next_c.at(pa, pn) = val;
                        arg.at(pa, pn) = pj;
                    }
                }
            }
            // Terms independent of p_j (Eq. 12's n_{j+1} and e').
            for (int pn = 0; pn < next_size; ++pn) {
                next_c.at(pa, pn) +=
                    ctx.intraOf(next, pn) +
                    (has_skip ? e_skip.at(pa, pn) : 0.0);
            }
        });
        seg.C = std::move(next_c);
        seg.args.push_back(std::move(arg));
        pruneStates(ctx, seg.C, ctx.ubLayer - ctx.outsideMin(a, next));
    }
    return seg;
}

/** Segment boundaries: sources of extended edges plus both ends. */
std::vector<int>
segmentBoundaries(const CompGraph &graph)
{
    std::set<int> boundary_set{0, graph.numNodes() - 1};
    for (const GraphEdge &e : graph.edges()) {
        if (e.dst > e.src + 1)
            boundary_set.insert(e.src);
    }
    return {boundary_set.begin(), boundary_set.end()};
}

/** Outcome of the Bellman + merge + selection core (positions). */
struct CoreOutcome
{
    std::vector<int> choice; ///< candidate position per node
    double layerCost = kInf;
    double totalCost = kInf;
};

/**
 * Solve all segments, fold the merges, select the boundary state,
 * reconstruct. The candidate lists, edge tables, and pruning threshold
 * all live in @p ctx.
 */
CoreOutcome
runCore(DpContext &ctx, const DpOptions &opts,
        const std::vector<int> &boundaries)
{
    CoreOutcome out;
    const CompGraph &graph = ctx.graph;

    std::vector<DpSegment> segments;
    for (std::size_t b = 0; b + 1 < boundaries.size(); ++b)
        segments.push_back(
            solveSegment(ctx, boundaries[b], boundaries[b + 1]));

    Mat total = segments[0].C;
    const int total_a = segments[0].a;
    std::vector<Merge> merges;
    for (std::size_t s = 1; s < segments.size(); ++s) {
        const DpSegment &right = segments[s];
        const int b = right.a;
        // Edges crossing the merge point must span the merged range.
        for (const GraphEdge &e : graph.edges()) {
            if (e.src < b && e.dst > b) {
                PRIMEPAR_ASSERT(e.src == total_a && e.dst == right.c,
                                "crossing edge ", e.src, " -> ", e.dst,
                                " not alignable with merge at ", b);
            }
        }
        Mat e_cross;
        const bool has_cross = ctx.edgeCost(total_a, right.c, e_cross);

        Mat merged(total.rows, right.C.cols, kInf);
        Merge rec;
        rec.a = total_a;
        rec.b = b;
        rec.c = right.c;
        rec.argB = ArgMat(total.rows, right.C.cols);
        // Same row-independence argument as in solveSegment.
        parallelFor(ctx.pool, static_cast<std::size_t>(total.rows),
                    [&](std::size_t row) {
            const int i = static_cast<int>(row);
            for (int pb = 0; pb < total.cols; ++pb) {
                if (total.at(i, pb) == kInf)
                    continue;
                const double left =
                    total.at(i, pb) - ctx.intraOf(b, pb);
                for (int k = 0; k < right.C.cols; ++k) {
                    const double val = left + right.C.at(pb, k);
                    if (val < merged.at(i, k)) {
                        merged.at(i, k) = val;
                        rec.argB.at(i, k) = pb;
                    }
                }
            }
            if (has_cross) {
                for (int k = 0; k < right.C.cols; ++k)
                    merged.at(i, k) += e_cross.at(i, k);
            }
        });
        total = std::move(merged);
        merges.push_back(std::move(rec));
        pruneStates(ctx, total,
                    ctx.ubLayer - ctx.outsideMin(total_a, right.c));
    }

    // Boundary selection. For stacked layers the tail node's state
    // must tile onto the head node's state of the next layer; head and
    // tail have structurally aligned spaces (same dims), so restrict
    // the choice to aligned pairs and combine layer costs exactly.
    const int last = graph.numNodes() - 1;

    int best_p0 = 0, best_pl = 0;
    double best_layer = kInf, best_total = kInf;
    if (opts.numLayers <= 1 || graph.numNodes() == 1) {
        for (int i = 0; i < total.rows; ++i) {
            for (int k = 0; k < total.cols; ++k) {
                if (total.at(i, k) < best_layer) {
                    best_layer = total.at(i, k);
                    best_p0 = i;
                    best_pl = k;
                }
            }
        }
        best_total = best_layer;
    } else {
        // Alignment map: tail position -> head position.
        std::map<std::vector<PartitionStep>, int> head_by_steps;
        for (int i = 0; i < ctx.candSize(0); ++i)
            head_by_steps[ctx.cat(0).seqs[ctx.cand[0][i]].steps()] = i;
        for (int k = 0; k < ctx.candSize(last); ++k) {
            const auto it = head_by_steps.find(
                ctx.cat(last).seqs[ctx.cand[last][k]].steps());
            if (it == head_by_steps.end())
                continue;
            const int i = it->second;
            const double layer = total.at(i, k);
            const double stacked =
                opts.numLayers * layer -
                (opts.numLayers - 1) * ctx.intraOf(0, i);
            if (stacked < best_total) {
                best_total = stacked;
                best_layer = layer;
                best_p0 = i;
                best_pl = k;
            }
        }
        PRIMEPAR_ASSERT(best_total < kInf,
                        "no aligned head/tail boundary state found",
                        " (with beamWidth > 0, increase the beam)");
    }

    // Reconstruction: walk merges right-to-left, then each segment.
    std::vector<int> choice(graph.numNodes(), -1);
    choice[0] = best_p0;
    choice[last] = best_pl;
    {
        int right_state = best_pl;
        for (int m = static_cast<int>(merges.size()) - 1; m >= 0; --m) {
            const int pb = merges[m].argB.at(best_p0, right_state);
            choice[merges[m].b] = pb;
            right_state = pb;
        }
    }
    for (const DpSegment &seg : segments) {
        const int pa = choice[seg.a];
        int pnext = choice[seg.c];
        PRIMEPAR_ASSERT(pa >= 0 && pnext >= 0,
                        "segment boundary unresolved");
        for (int j = seg.c - 1; j > seg.a; --j) {
            pnext = seg.args[j - seg.a - 1].at(pa, pnext);
            choice[j] = pnext;
        }
    }
    for (int n = 0; n < graph.numNodes(); ++n)
        PRIMEPAR_ASSERT(choice[n] >= 0, "node ", n, " unresolved");

    out.choice = std::move(choice);
    out.layerCost = best_layer;
    out.totalCost = best_total;
    return out;
}

/** Top-@p k catalog positions by intra cost (ties: lower index),
 *  returned ascending so first-index tie-breaks are preserved. */
std::vector<std::int32_t>
topKByIntra(const NodeCatalog &cat, int k)
{
    std::vector<std::int32_t> idx(cat.seqs.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = static_cast<std::int32_t>(i);
    if (k <= 0 || cat.size() <= k)
        return idx;
    std::sort(idx.begin(), idx.end(),
              [&](std::int32_t a, std::int32_t b) {
                  return cat.intraCost[a] < cat.intraCost[b] ||
                         (cat.intraCost[a] == cat.intraCost[b] &&
                          a < b);
              });
    idx.resize(k);
    std::sort(idx.begin(), idx.end());
    return idx;
}

/**
 * Pilot candidate lists: the top pilotWidth positions per node. For
 * stacked layers the head/tail lists are drawn from *aligned pairs*
 * (cheapest combined intra first) so the pilot's boundary selection
 * always finds a feasible stacked state when the full space has one.
 */
void
pilotCandidates(DpContext &pilot, const DpOptions &opts)
{
    const int num_nodes = pilot.graph.numNodes();
    const int width = std::max(1, opts.pilotWidth);
    pilot.cand.resize(num_nodes);
    for (int n = 0; n < num_nodes; ++n)
        pilot.cand[n] = topKByIntra(pilot.cat(n), width);

    if (opts.numLayers > 1 && num_nodes > 1) {
        const NodeCatalog &head = pilot.cat(0);
        const NodeCatalog &tail = pilot.cat(num_nodes - 1);
        std::map<std::vector<PartitionStep>, int> head_by_steps;
        for (int i = 0; i < head.size(); ++i)
            head_by_steps[head.seqs[i].steps()] = i;
        struct Pair
        {
            double score;
            std::int32_t k, i;
        };
        std::vector<Pair> pairs;
        for (int k = 0; k < tail.size(); ++k) {
            const auto it = head_by_steps.find(tail.seqs[k].steps());
            if (it == head_by_steps.end())
                continue;
            pairs.push_back(
                Pair{head.intraCost[it->second] + tail.intraCost[k],
                     static_cast<std::int32_t>(k),
                     static_cast<std::int32_t>(it->second)});
        }
        if (!pairs.empty()) {
            std::sort(pairs.begin(), pairs.end(),
                      [](const Pair &a, const Pair &b) {
                          return a.score < b.score ||
                                 (a.score == b.score && a.k < b.k);
                      });
            if (static_cast<int>(pairs.size()) > width)
                pairs.resize(width);
            std::vector<std::int32_t> heads, tails;
            for (const Pair &p : pairs) {
                heads.push_back(p.i);
                tails.push_back(p.k);
            }
            std::sort(heads.begin(), heads.end());
            heads.erase(std::unique(heads.begin(), heads.end()),
                        heads.end());
            std::sort(tails.begin(), tails.end());
            tails.erase(std::unique(tails.begin(), tails.end()),
                        tails.end());
            pilot.cand[0] = std::move(heads);
            pilot.cand[num_nodes - 1] = std::move(tails);
        }
        // No aligned pairs: keep the top-K lists; runCore raises the
        // same no-aligned-state error the exhaustive planner would.
    }
}

void
appendEdgeStructure(std::ostringstream &os, const CompGraph &graph,
                    const GraphEdge &e)
{
    os << 'e' << e.src << ',' << e.dst << ',' << e.dstTensor << ':';
    for (const int d : e.dimMap)
        os << d << '.';
    os << ':';
    for (const std::int64_t s : graph.transferSizes(e))
        os << s << ',';
    os << ';';
}

void
recordMetrics(MetricsRegistry *m, const DpResult &r)
{
    if (!m)
        return;
    m->add("planner.catalogs_built", r.catalogsBuilt);
    m->add("planner.catalog_cache_hits", r.catalogCacheHits);
    m->add("planner.candidates_total", r.candidatesTotal);
    m->add("planner.candidates_kept", r.candidatesKept);
    m->add("planner.states_pruned", r.statesPruned);
    m->add("planner.truncated", r.truncated ? 1 : 0);
    m->observe("planner.catalog_ms", r.catalogMs);
    m->observe("planner.pilot_ms", r.pilotMs);
    m->observe("planner.edge_table_ms", r.edgeTableMs);
    m->observe("planner.dp_ms", r.dpMs);
    m->observe("planner.optimization_ms", r.optimizationMs);
    m->observe("planner.gap_pct", r.gapPct);
    m->observe("planner.lower_bound_us", r.lowerBoundUs);
}

} // namespace

std::string
planCacheKey(const CompGraph &graph, const CostModel &cost,
             const DpOptions &opts)
{
    SpaceOptions space = opts.space;
    if (opts.beamWidth > 0)
        space.candidateBudget = opts.beamWidth;
    const int num_bits = cost.topology().numBits();
    std::ostringstream os;
    os << "plan;" << opts.numLayers << ';'
       << (opts.pruneDominated ? 1 : 0) << ';' << opts.beamWidth << ';'
       << opts.pilotWidth << ';';
    for (int n = 0; n < graph.numNodes(); ++n) {
        os << catalogKey(graph.node(n), num_bits, space,
                         cost.fingerprint())
           << '#';
    }
    for (const GraphEdge &e : graph.edges())
        appendEdgeStructure(os, graph, e);
    return os.str();
}

SegmentedDpOptimizer::SegmentedDpOptimizer(const CompGraph &graph_in,
                                           const CostModel &cost_in,
                                           DpOptions opts_in)
    : graph(graph_in), cost(cost_in), opts(std::move(opts_in))
{}

DpResult
SegmentedDpOptimizer::optimize()
{
    const auto t0 = Clock::now();
    DpResult result;

    ThreadPool pool(opts.numThreads);

    SpaceOptions space = opts.space;
    if (opts.beamWidth > 0)
        space.candidateBudget = opts.beamWidth;

    DpContext ctx(graph, cost, &pool);
    CatalogBuildStats cat_stats;
    ctx.catalogs = buildAllNodeCatalogs(graph, cost, space, &pool,
                                        opts.catalogCache.get(),
                                        &cat_stats);
    result.catalogsBuilt = cat_stats.built;
    result.catalogCacheHits = cat_stats.cacheHits;
    result.catalogMs = msSince(t0);

    const int num_nodes = graph.numNodes();
    for (int n = 0; n < num_nodes; ++n) {
        result.candidatesTotal += ctx.cat(n).size();
        result.truncated = result.truncated || ctx.cat(n).truncated;
    }

    const std::vector<int> boundaries = segmentBoundaries(graph);

    // Pilot pass: a fast DP over each node's best-intra candidates.
    // Its (feasible, hence valid) cost upper-bounds the optimum and
    // drives both the sequence slack filter and the Bellman state
    // bound below.
    const auto t_pilot = Clock::now();
    double ub_layer = kInf;
    if (opts.pruneDominated && num_nodes > 1) {
        DpContext pilot(graph, cost, &pool);
        pilot.catalogs = ctx.catalogs;
        pilotCandidates(pilot, opts);
        pilot.finishCandidates();
        pilot.buildTables();
        const CoreOutcome po = runCore(pilot, opts, boundaries);
        // Layer-space threshold. For stacked layers, a layer cost L_c
        // participates in a better-than-UB plan only if
        // numLayers*L_c - (numLayers-1)*headIntra <= UB for some
        // feasible head intra, so relax with the maximum head intra.
        double hmax = 0.0;
        if (opts.numLayers > 1) {
            hmax = *std::max_element(ctx.cat(0).intraCost.begin(),
                                     ctx.cat(0).intraCost.end());
        }
        ub_layer = (po.totalCost + (opts.numLayers - 1) * hmax) /
                   opts.numLayers;
        // Rounding guard: the slack/bound tests below recompute sums
        // in a different association order than the DP that produced
        // the bound, so exact ties can land 1 ulp on the wrong side
        // and prune the optimum itself. A small relative inflation
        // keeps pruning strictly conservative (it can only retain
        // extra candidates, never drop one the exhaustive planner
        // would pick).
        ub_layer += 1e-9 * std::max(1.0, std::abs(ub_layer));
    }
    result.pilotMs = msSince(t_pilot);

    // Candidate lists: slack-filter each node's sequences against the
    // upper bound (a sequence whose intra cost alone pushes the best
    // completable plan past the UB can appear in no optimal plan).
    ctx.cand.resize(num_nodes);
    if (ub_layer < kInf) {
        std::vector<double> min_full(num_nodes, kInf);
        double total_min = 0.0;
        for (int n = 0; n < num_nodes; ++n) {
            min_full[n] =
                *std::min_element(ctx.cat(n).intraCost.begin(),
                                  ctx.cat(n).intraCost.end());
            total_min += min_full[n];
        }
        for (int n = 0; n < num_nodes; ++n) {
            const double slack =
                ub_layer - (total_min - min_full[n]);
            const NodeCatalog &cat = ctx.cat(n);
            for (int s = 0; s < cat.size(); ++s) {
                if (cat.intraCost[s] <= slack)
                    ctx.cand[n].push_back(s);
            }
        }
        // Stacked layers only ever select aligned head/tail pairs, so
        // unaligned boundary candidates are dead weight: drop them
        // (plans are unaffected; tables shrink).
        if (opts.numLayers > 1 && num_nodes > 1) {
            const int last = num_nodes - 1;
            std::set<std::vector<PartitionStep>> head_steps,
                tail_steps;
            for (const std::int32_t s : ctx.cand[0])
                head_steps.insert(ctx.cat(0).seqs[s].steps());
            for (const std::int32_t s : ctx.cand[last])
                tail_steps.insert(ctx.cat(last).seqs[s].steps());
            const auto aligned_only =
                [&](std::vector<std::int32_t> &cl, int node,
                    const std::set<std::vector<PartitionStep>> &other) {
                    std::vector<std::int32_t> kept;
                    for (const std::int32_t s : cl) {
                        if (other.count(ctx.cat(node).seqs[s].steps()))
                            kept.push_back(s);
                    }
                    if (!kept.empty())
                        cl = std::move(kept);
                };
            aligned_only(ctx.cand[0], 0, tail_steps);
            aligned_only(ctx.cand[last], last, head_steps);
        }
    } else {
        ctx.initAllCandidates();
    }
    ctx.finishCandidates();
    ctx.ubLayer = ub_layer;
    for (int n = 0; n < num_nodes; ++n)
        result.candidatesKept += ctx.candSize(n);

    const auto t1 = Clock::now();
    ctx.buildTables();
    result.edgeTableMs = msSince(t1);

    const auto t2 = Clock::now();
    const CoreOutcome core = runCore(ctx, opts, boundaries);
    result.statesPruned = ctx.statesPruned;
    for (int n = 0; n < num_nodes; ++n) {
        result.strategies.push_back(
            ctx.cat(n).seqs[ctx.cand[n][core.choice[n]]]);
    }
    result.layerCost = core.layerCost;
    result.totalCost = core.totalCost;
    result.dpMs = msSince(t2);

    // Gap certification. Untruncated runs are provably optimal over
    // the materialized (= full) space: gap exactly 0. Truncated runs
    // are bounded below by summing, per node, the compute floor (for
    // truncated spaces) or the exact catalog minimum.
    if (!result.truncated) {
        result.lowerBoundUs = result.layerCost;
        result.gapPct = 0.0;
    } else {
        double lb = 0.0;
        for (int n = 0; n < num_nodes; ++n) {
            const NodeCatalog &cat = ctx.cat(n);
            const double mn =
                *std::min_element(cat.intraCost.begin(),
                                  cat.intraCost.end());
            lb += cat.truncated
                      ? std::min(mn, cost.computeFloorUs(graph.node(n)))
                      : mn;
        }
        result.lowerBoundUs = lb;
        result.gapPct =
            result.layerCost > 0.0
                ? std::max(0.0, (result.layerCost - lb) /
                                    result.layerCost * 100.0)
                : 0.0;
    }

    result.optimizationMs = msSince(t0);
    recordMetrics(opts.metrics, result);
    return result;
}

DpResult
bruteForceOptimize(const CompGraph &graph, const CostModel &cost,
                   const SpaceOptions &space, CatalogCache *cache,
                   int num_threads)
{
    const auto t0 = Clock::now();
    DpResult result;

    ThreadPool pool(num_threads);
    DpContext ctx(graph, cost, &pool);
    CatalogBuildStats cat_stats;
    ctx.catalogs = buildAllNodeCatalogs(graph, cost, space, &pool, cache,
                                        &cat_stats);
    result.catalogsBuilt = cat_stats.built;
    result.catalogCacheHits = cat_stats.cacheHits;
    result.catalogMs = msSince(t0);
    const auto t1 = Clock::now();
    ctx.initAllCandidates();
    ctx.finishCandidates();
    ctx.buildTables();
    result.edgeTableMs = msSince(t1);

    const auto t2 = Clock::now();
    std::vector<int> idx(graph.numNodes(), 0), best;
    double best_cost = kInf;
    while (true) {
        double c = 0.0;
        for (int n = 0; n < graph.numNodes(); ++n)
            c += ctx.cat(n).intraCost[idx[n]];
        for (std::size_t e = 0; e < ctx.tables.size(); ++e) {
            c += ctx.tables[e].at(idx[graph.edges()[e].src],
                                  idx[graph.edges()[e].dst]);
        }
        if (c < best_cost) {
            best_cost = c;
            best = idx;
        }
        int n = graph.numNodes() - 1;
        for (; n >= 0; --n) {
            if (++idx[n] < ctx.cat(n).size())
                break;
            idx[n] = 0;
        }
        if (n < 0)
            break;
    }

    for (int n = 0; n < graph.numNodes(); ++n) {
        result.strategies.push_back(ctx.cat(n).seqs[best[n]]);
        result.candidatesTotal += ctx.cat(n).size();
    }
    result.candidatesKept = result.candidatesTotal;
    result.layerCost = best_cost;
    result.totalCost = best_cost;
    result.lowerBoundUs = best_cost;
    result.dpMs = msSince(t2);
    result.optimizationMs = msSince(t0);
    return result;
}

DpResult
replanForSurvivors(const CompGraph &graph, int surviving_devices,
                   DpOptions opts)
{
    PRIMEPAR_ASSERT(surviving_devices >= 1,
                    "cannot re-plan for an empty device grid");
    const ClusterTopology topo =
        ClusterTopology::paperCluster(surviving_devices);
    const CostModel cost(topo, profileModels(topo));
    SegmentedDpOptimizer dp(graph, cost, std::move(opts));
    return dp.optimize();
}

} // namespace primepar
