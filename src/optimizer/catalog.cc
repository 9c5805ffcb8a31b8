#include "catalog.hh"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "catalog_cache.hh"
#include "support/logging.hh"

namespace primepar {

namespace {

/** Enumeration over-collects this factor past the budget, so the
 *  final keep-best cut runs on *evaluated* intra costs rather than the
 *  structural surrogate score alone. */
constexpr int kBeamOvercollect = 4;

SpaceOptions
enumerationOptions(const SpaceOptions &opts)
{
    SpaceOptions e = opts;
    if (e.candidateBudget > 0)
        e.candidateBudget *= kBeamOvercollect;
    return e;
}

/** Keep the @p budget cheapest sequences by evaluated intra cost
 *  (ties: lower index), preserving the original sequence order. */
void
trimToBudget(NodeCatalog &catalog, int budget)
{
    if (budget <= 0 || catalog.size() <= budget)
        return;
    std::vector<int> idx(catalog.seqs.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = static_cast<int>(i);
    std::sort(idx.begin(), idx.end(), [&](int a, int b) {
        return catalog.intraCost[a] < catalog.intraCost[b] ||
               (catalog.intraCost[a] == catalog.intraCost[b] && a < b);
    });
    idx.resize(budget);
    std::sort(idx.begin(), idx.end());

    std::vector<PartitionSeq> seqs;
    std::vector<double> intra;
    seqs.reserve(idx.size());
    intra.reserve(idx.size());
    for (int i : idx) {
        seqs.push_back(std::move(catalog.seqs[i]));
        intra.push_back(catalog.intraCost[i]);
    }
    catalog.seqs = std::move(seqs);
    catalog.intraCost = std::move(intra);
    catalog.truncated = true;
}

} // namespace

std::vector<std::shared_ptr<const NodeCatalog>>
buildAllNodeCatalogs(const CompGraph &graph, const CostModel &cost,
                     const SpaceOptions &opts, ThreadPool *pool,
                     CatalogCache *cache, CatalogBuildStats *stats)
{
    const int num_bits = cost.topology().numBits();
    const int num_nodes = graph.numNodes();

    // Group nodes by structural key (first-appearance order, so the
    // result is independent of threading).
    std::vector<std::string> keys(num_nodes);
    for (int i = 0; i < num_nodes; ++i) {
        keys[i] = catalogKey(graph.node(i), num_bits, opts,
                             cost.fingerprint());
    }
    std::vector<int> representative;
    std::unordered_map<std::string, int> unique_of;
    std::vector<int> unique_idx(num_nodes);
    for (int i = 0; i < num_nodes; ++i) {
        const auto [it, inserted] = unique_of.emplace(
            keys[i], static_cast<int>(representative.size()));
        if (inserted)
            representative.push_back(i);
        unique_idx[i] = it->second;
    }

    // Resolve against the cache; list what must be built.
    const int num_unique = static_cast<int>(representative.size());
    std::vector<std::shared_ptr<const NodeCatalog>> unique(num_unique);
    std::vector<int> to_build;
    for (int u = 0; u < num_unique; ++u) {
        if (cache) {
            if (auto hit = cache->find(keys[representative[u]])) {
                unique[u] = std::move(hit);
                continue;
            }
        }
        to_build.push_back(u);
    }

    // Enumerate sequences serially (cheap), then evaluate every
    // (catalog, sequence) pair through one flat parallel loop so even
    // a graph with few distinct nodes saturates the pool.
    std::vector<std::shared_ptr<NodeCatalog>> fresh(to_build.size());
    std::vector<std::size_t> offset(to_build.size() + 1, 0);
    const SpaceOptions enum_opts = enumerationOptions(opts);
    for (std::size_t b = 0; b < to_build.size(); ++b) {
        const int node = representative[to_build[b]];
        auto catalog = std::make_shared<NodeCatalog>();
        catalog->node = node;
        EnumerationInfo info;
        catalog->seqs = enumerateSequences(graph.node(node), num_bits,
                                           enum_opts, &info);
        catalog->spaceSize = info.totalSequences;
        catalog->truncated = info.truncated;
        catalog->intraCost.resize(catalog->seqs.size());
        offset[b + 1] = offset[b] + catalog->seqs.size();
        fresh[b] = std::move(catalog);
    }
    parallelFor(pool, offset.back(), [&](std::size_t w) {
        const std::size_t b =
            static_cast<std::size_t>(
                std::upper_bound(offset.begin(), offset.end(), w) -
                offset.begin()) -
            1;
        NodeCatalog &catalog = *fresh[b];
        const std::size_t s = w - offset[b];
        catalog.intraCost[s] =
            cost.intraCost(graph.node(catalog.node), catalog.seqs[s])
                .weighted;
    });

    for (std::size_t b = 0; b < to_build.size(); ++b) {
        trimToBudget(*fresh[b], opts.candidateBudget);
        std::shared_ptr<const NodeCatalog> catalog = std::move(fresh[b]);
        if (cache) {
            catalog = cache->insert(keys[representative[to_build[b]]],
                                    std::move(catalog));
        }
        unique[to_build[b]] = std::move(catalog);
    }

    std::vector<std::shared_ptr<const NodeCatalog>> result(num_nodes);
    for (int i = 0; i < num_nodes; ++i)
        result[i] = unique[unique_idx[i]];
    if (stats) {
        stats->built = static_cast<int>(to_build.size());
        stats->cacheHits = num_nodes - stats->built;
    }
    return result;
}

EdgeCostTable
buildEdgeCostTable(const CompGraph &graph, const GraphEdge &edge,
                   const NodeCatalog &src, const NodeCatalog &dst,
                   const CostModel &cost, ThreadPool *pool,
                   const EdgeTableOptions &topts)
{
    const OpSpec &producer = graph.node(edge.src);
    const OpSpec &consumer = graph.node(edge.dst);
    const auto sizes = graph.transferSizes(edge);
    const int num_bits = cost.topology().numBits();
    const std::size_t box_count = (std::size_t{1} << num_bits) * sizes.size();
    const LaneDims lane_dims(cost.topology().numDevices(), sizes);
    const std::size_t slot_size = cost.slotLanes(lane_dims.count());

    EdgeDimMap consumer_map;
    for (int d : consumer.tensors[edge.dstTensor].dims)
        consumer_map.push_back(d);

    const int src_count = topts.srcCandidates
                              ? static_cast<int>(topts.srcCandidates->size())
                              : src.size();
    const int dst_count = topts.dstCandidates
                              ? static_cast<int>(topts.dstCandidates->size())
                              : dst.size();
    const auto seq_index = [](const std::vector<std::int32_t> *cand,
                              std::size_t p) {
        return cand ? static_cast<std::size_t>((*cand)[p]) : p;
    };

    // One boundary of the edge: a tensor of one endpoint at the last
    // (have) or first (need) step of a phase.
    struct Boundary
    {
        const NodeCatalog &cat;
        const std::vector<std::int32_t> *cand;
        bool atEnd;
        BoundaryBoxes boxes;
    };
    const Boundary have_fwd{src, topts.srcCandidates, true,
                            {producer, num_bits,
                             {producer.outputTensor, false}, Phase::Forward,
                             edge.dimMap, sizes}};
    const Boundary need_fwd{dst, topts.dstCandidates, false,
                            {consumer, num_bits, {edge.dstTensor, false},
                             Phase::Forward, consumer_map, sizes}};
    const Boundary have_bwd{dst, topts.dstCandidates, true,
                            {consumer, num_bits, {edge.dstTensor, true},
                             Phase::Backward, consumer_map, sizes}};
    const Boundary need_bwd{src, topts.srcCandidates, false,
                            {producer, num_bits,
                             {producer.outputTensor, true}, Phase::Backward,
                             edge.dimMap, sizes}};
    // The device boxes of candidate position @p p at @p b, flat, in
    // this thread's scratch (valid until its next call).
    const auto boxes_of = [&](const Boundary &b, std::size_t p) {
        thread_local std::vector<SliceRange> scratch;
        scratch.resize(box_count);
        const PartitionSeq &seq = b.cat.seqs[seq_index(b.cand, p)];
        b.boxes.read(seq, b.atEnd ? seq.temporalSteps() - 1 : 0,
                     scratch.data());
        return scratch.data();
    };

    // Need boxes of every candidate position, one lane slot per
    // position ([position * slot_size]), with their total volumes.
    struct NeedSide
    {
        std::vector<std::int32_t> lanes;
        std::vector<std::int64_t> volume;
    };
    const auto needs = [&](const Boundary &b, int count) {
        NeedSide side{std::vector<std::int32_t>(count * slot_size),
                      std::vector<std::int64_t>(count)};
        parallelFor(pool, static_cast<std::size_t>(count),
                    [&](std::size_t p) {
            side.volume[p] = cost.needLanes(
                boxes_of(b, p), lane_dims, side.lanes.data() + p * slot_size);
        });
        return side;
    };
    const NeedSide fwd_need = needs(need_fwd, dst_count);
    const NeedSide bwd_need = needs(need_bwd, src_count);

    // Joint dominance bound (see EdgeTableOptions::pairBudget): a pair
    // whose summed intra cost exceeds it is priced +inf without ever
    // computing its traffic, and a source view is built only for a
    // position with at least one pair under it. The views of a side
    // share one lane arena.
    std::vector<double> intra_src(src_count), intra_dst(dst_count);
    for (int p = 0; p < src_count; ++p)
        intra_src[p] = src.intraCost[seq_index(topts.srcCandidates, p)];
    for (int p = 0; p < dst_count; ++p)
        intra_dst[p] = dst.intraCost[seq_index(topts.dstCandidates, p)];
    const auto views = [&](const Boundary &b,
                           const std::vector<double> &intra,
                           const std::vector<double> &other,
                           LaneArena &arena) {
        double other_min = std::numeric_limits<double>::infinity();
        for (const double v : other)
            other_min = std::min(other_min, v);
        std::vector<CostModel::SourceView> out(intra.size());
        parallelFor(pool, out.size(), [&](std::size_t p) {
            if (intra[p] + other_min > topts.pairBudget)
                return;
            out[p] = cost.sourceView(boxes_of(b, p), lane_dims, arena);
        });
        return out;
    };
    LaneArena fwd_arena, bwd_arena;
    const auto fwd_views = views(have_fwd, intra_src, intra_dst, fwd_arena);
    const auto bwd_views = views(have_bwd, intra_dst, intra_src, bwd_arena);

    EdgeCostTable table;
    table.edge = &edge;
    table.srcSize = src_count;
    table.dstSize = dst_count;
    table.cost.resize(static_cast<std::size_t>(src_count) * dst_count);

    const double bpe = consumer.bytesPerElement;
    parallelFor(pool, static_cast<std::size_t>(src_count),
                [&](std::size_t ps) {
        for (int pd = 0; pd < dst_count; ++pd) {
            float &slot = table.cost[ps * dst_count + pd];
            if (intra_src[ps] + intra_dst[pd] > topts.pairBudget) {
                slot = std::numeric_limits<float>::infinity();
                continue;
            }
            const auto f = cost.trafficSplit(
                fwd_views[ps], fwd_need.lanes.data() + pd * slot_size,
                fwd_need.volume[pd]);
            const auto b = cost.trafficSplit(
                bwd_views[pd], bwd_need.lanes.data() + ps * slot_size,
                bwd_need.volume[ps]);
            slot = static_cast<float>(cost.redistLatencyUs(
                static_cast<double>(f.intraNode + b.intraNode) * bpe,
                static_cast<double>(f.interNode + b.interNode) * bpe));
        }
    });
    return table;
}

std::string
edgeLaneBoundsError(const CompGraph &graph, int devices)
{
    for (const GraphEdge &edge : graph.edges()) {
        const std::string error =
            laneBoundsError(devices, graph.transferSizes(edge));
        if (!error.empty())
            return error;
    }
    return "";
}

} // namespace primepar
