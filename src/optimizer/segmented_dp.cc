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

/** A dense table read by rows: row r starts at data + r * stride. A
 *  zero stride reads one row for every r. */
template <typename T>
struct TableView
{
    const T *data = nullptr;
    std::size_t stride = 0;

    const T *
    row(int r) const
    {
        return data + static_cast<std::size_t>(r) * stride;
    }
};

/**
 * The cost of every edge src -> dst as the DP reads it. One edge's
 * float table is read in place: base + double(float) is the same
 * operation as adding a widened copy. Parallel edges are summed into a
 * double matrix for the one step that reads them, as
 * base + (t1 + t2) is not (base + t1) + t2. No edge prices 0: one row
 * of zeros, read at stride 0.
 */
struct EdgeTerm
{
    const float *table = nullptr; ///< the single edge's table
    Mat sum;                      ///< else the sum, or one zero row
    std::size_t stride = 0;

    /** Call @p f with the term as a TableView of its element type. */
    template <typename F>
    void
    visit(F &&f) const
    {
        if (table)
            f(TableView<float>{table, stride});
        else
            f(TableView<double>{sum.v.data(), stride});
    }
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
    /** As many zeros as the largest candidate list: the kernel's
     *  absent adjustment or column term. */
    std::vector<double> zeros;

    std::vector<EdgeCostTable> tables; // parallel to graph.edges()
    /** (src, dst) -> indices into tables, built once with them. */
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
        std::size_t widest = 0;
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
            widest = std::max(widest, cand[n].size());
        }
        zeros.assign(widest, 0.0);
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

    /** The cost of all edges src -> dst, [candSize(src)][candSize(dst)]. */
    EdgeTerm
    edgeTerm(int src, int dst) const
    {
        EdgeTerm term;
        const int rows = candSize(src), cols = candSize(dst);
        const auto it = edgeIndex.find({src, dst});
        if (it == edgeIndex.end()) {
            term.sum = Mat(1, cols);
            return term;
        }
        term.stride = static_cast<std::size_t>(cols);
        for (const std::size_t e : it->second) {
            PRIMEPAR_ASSERT(tables[e].srcSize == rows &&
                                tables[e].dstSize == cols,
                            "edge ", src, " -> ", dst, " has a ",
                            tables[e].srcSize, "x", tables[e].dstSize,
                            " cost table over ", rows, "x", cols,
                            " candidates");
        }
        if (it->second.size() == 1) {
            term.table = tables[it->second.front()].cost.data();
            return term;
        }
        term.sum = Mat(rows, cols);
        for (const std::size_t e : it->second) {
            const std::vector<float> &t = tables[e].cost;
            for (std::size_t i = 0; i < t.size(); ++i)
                term.sum.v[i] += t[i];
        }
        return term;
    }
};

/**
 * Fill the rows of @p m on the pool, @p fill(row, out) writing row
 * `row` into `out`, then mark every entry of the row above
 * @p threshold as unreachable (kInf), counting it in statesPruned.
 * Such an entry's partial cost plus the admissible completion bound
 * already exceeds the pilot upper bound, so no plan through it can be
 * optimal — and since every state on an optimal plan keeps its exact
 * value and its first-index argmin, the surviving computation is
 * byte-identical to the unpruned one (DESIGN.md Sec. 11).
 */
template <typename F>
void
fillRows(DpContext &ctx, Mat &m, double threshold, const F &fill)
{
    std::vector<std::int64_t> pruned(m.rows, 0);
    parallelFor(ctx.pool, static_cast<std::size_t>(m.rows),
                [&](std::size_t row) {
        double *out = m.v.data() + row * m.cols;
        fill(static_cast<int>(row), out);
        std::int64_t n = 0;
        for (int k = 0; k < m.cols; ++k) {
            if (out[k] > threshold && out[k] < kInf) {
                out[k] = kInf;
                ++n;
            }
        }
        pruned[row] = n;
    });
    for (const std::int64_t n : pruned)
        ctx.statesPruned += n;
}

/**
 * The (min, +) argmin of Eq. 12 (a Bellman step) and Eq. 13 (a segment
 * merge), one row per task:
 *
 *   out[i][k] = min_p ((L[i][p] - adj[p]) + R[p][k]) + (col[k] + M[i][k])
 *
 * and arg[i][k] = the first p attaining the minimum (-1 if none is
 * finite); @p n columns, entries above @p threshold pruned (fillRows).
 * p ascends and the select is a strict <, so ties resolve to the
 * lowest index at any thread count; pruned states (L[i][p] == kInf)
 * are skipped. The select is branch free, as a data-dependent branch
 * there mispredicts on most updates.
 */
template <typename RT, typename MT>
void
minPlusArgmin(DpContext &ctx, const Mat &L, const double *adj,
              TableView<RT> R, int n, const double *col, TableView<MT> M,
              double threshold, Mat &out, ArgMat &arg)
{
    out = Mat(L.rows, n, kInf);
    arg = ArgMat(L.rows, n);
    fillRows(ctx, out, threshold, [&](int i, double *o) {
        std::int32_t *a = arg.v.data() + static_cast<std::size_t>(i) * n;
        for (int p = 0; p < L.cols; ++p) {
            if (L.at(i, p) == kInf)
                continue;
            const double base = L.at(i, p) - adj[p];
            const RT *r = R.row(p);
            for (int k = 0; k < n; ++k) {
                const double val = base + static_cast<double>(r[k]);
                const bool better = val < o[k];
                o[k] = better ? val : o[k];
                a[k] = better ? p : a[k];
            }
        }
        const MT *m = M.row(i);
        for (int k = 0; k < n; ++k)
            o[k] += col[k] + static_cast<double>(m[k]);
    });
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
    seg.C = Mat(ctx.candSize(a), ctx.candSize(a + 1));
    ctx.edgeTerm(a, a + 1).visit([&](auto e01) {
        fillRows(ctx, seg.C, ctx.ubLayer - ctx.outsideMin(a, a + 1),
                 [&](int row, double *out) {
            const auto *e = e01.row(row);
            for (int j = 0; j < seg.C.cols; ++j) {
                out[j] = ctx.intraOf(a, row) + ctx.intraOf(a + 1, j) +
                         static_cast<double>(e[j]);
            }
        });
    });

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
        // Eq. 12: the chain edge j -> next inside the min; the terms
        // independent of p_j (n_{j+1} and the skip edge e') after it.
        Mat next_c;
        ArgMat arg;
        const EdgeTerm skip = ctx.edgeTerm(a, next);
        ctx.edgeTerm(j, next).visit([&](auto chain) {
            skip.visit([&](auto m) {
                minPlusArgmin(ctx, seg.C, ctx.zeros.data(), chain,
                              ctx.candSize(next), ctx.intra[next].data(),
                              m, ctx.ubLayer - ctx.outsideMin(a, next),
                              next_c, arg);
            });
        });
        seg.C = std::move(next_c);
        seg.args.push_back(std::move(arg));
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

    Mat total = std::move(segments[0].C);
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
        // Eq. 13: right's [b, c] states after the shared node b's
        // intra cost is taken out of the left's; the crossing edge
        // after the min.
        Merge rec;
        rec.a = total_a;
        rec.b = b;
        rec.c = right.c;
        Mat merged;
        ctx.edgeTerm(total_a, right.c).visit([&](auto cross) {
            minPlusArgmin(ctx, total, ctx.intra[b].data(),
                          TableView<double>{right.C.v.data(),
                                            static_cast<std::size_t>(
                                                right.C.cols)},
                          right.C.cols, ctx.zeros.data(), cross,
                          ctx.ubLayer - ctx.outsideMin(total_a, right.c),
                          merged, rec.argB);
        });
        total = std::move(merged);
        merges.push_back(std::move(rec));
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
