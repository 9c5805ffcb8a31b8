#include "catalog.hh"

#include <algorithm>
#include <cstring>
#include <type_traits>
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

namespace {

/** Layout-class assignment: unique boundary layouts and per-seq ids. */
struct LayoutClasses
{
    std::vector<TensorLayout> classes;
    std::vector<std::string> keys; ///< boxKey() per class
    std::vector<int> classOf;      ///< per sequence
};

/** Byte-serialize the flat device boxes of a layout (layoutBoxes())
 * for hashed class lookup and memo interning: the device count, then
 * every range. Every box of a layout has one range per transfer dim,
 * so the leading device count and the stream length fix the shape:
 * the flat stream is unambiguous across edges too. */
std::string
boxKey(std::int64_t devices, const std::vector<SliceRange> &boxes)
{
    std::string key;
    key.reserve(sizeof(std::int64_t) * (2 * boxes.size() + 1));
    const auto append = [&key](std::int64_t v) {
        key.append(reinterpret_cast<const char *>(&v), sizeof(v));
    };
    append(devices);
    for (const SliceRange &r : boxes) {
        append(r.start);
        append(r.end);
    }
    return key;
}

/** The layout whose boxKey() is @p key: its ranges are the flat
 * layoutBoxes() of the layout, byte for byte. */
TensorLayout
layoutOfKey(const std::string &key, const std::vector<std::int64_t> &sizes)
{
    static_assert(std::is_trivially_copyable_v<SliceRange> &&
                  sizeof(SliceRange) == 2 * sizeof(std::int64_t));
    std::int64_t devices = 0;
    std::memcpy(&devices, key.data(), sizeof devices);
    std::vector<SliceRange> boxes((key.size() - sizeof devices) /
                                  sizeof(SliceRange));
    std::memcpy(boxes.data(), key.data() + sizeof devices,
                boxes.size() * sizeof(SliceRange));
    return layoutFromBoxes(boxes.data(), devices, sizes);
}

LayoutClasses
classify(const OpSpec &op, const NodeCatalog &catalog,
         const std::vector<std::int32_t> *cand, const TensorRef &ref,
         Phase phase, bool at_end, const EdgeDimMap &map,
         const std::vector<std::int64_t> &sizes, int num_bits,
         ThreadPool *pool)
{
    // Boundary box keys of all candidate positions (parallel, one
    // slot each), then a serial hashed dedup in position order; only
    // a new class materializes its TensorLayout, decoded from its key.
    const std::size_t count =
        cand ? cand->size() : static_cast<std::size_t>(catalog.size());
    const auto seq_of = [&](std::size_t p) -> const PartitionSeq & {
        return catalog.seqs[cand ? static_cast<std::size_t>((*cand)[p])
                                 : p];
    };
    const auto step_of = [&](const PartitionSeq &seq) {
        return at_end ? seq.temporalSteps() - 1 : 0;
    };
    std::vector<std::string> keys(count);
    parallelFor(pool, count, [&](std::size_t p) {
        std::vector<SliceRange> boxes;
        const PartitionSeq &seq = seq_of(p);
        layoutBoxes(op, seq, num_bits, ref, phase, step_of(seq), map,
                    sizes, boxes);
        keys[p] = boxKey(std::int64_t{1} << num_bits, boxes);
    });

    LayoutClasses result;
    std::unordered_map<std::string, int> seen;
    seen.reserve(count);
    result.classOf.reserve(count);
    for (std::size_t p = 0; p < count; ++p) {
        auto [it, inserted] = seen.emplace(
            std::move(keys[p]), static_cast<int>(result.classes.size()));
        if (inserted) {
            result.classes.push_back(layoutOfKey(it->first, sizes));
            result.keys.push_back(it->first);
        }
        result.classOf.push_back(it->second);
    }
    return result;
}

} // namespace

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

    EdgeDimMap producer_map = edge.dimMap;
    EdgeDimMap consumer_map;
    for (int d : consumer.tensors[edge.dstTensor].dims)
        consumer_map.push_back(d);

    // Boundary layouts, per class, over the candidate positions.
    const auto have_fwd = classify(producer, src, topts.srcCandidates,
                                   {producer.outputTensor, false},
                                   Phase::Forward, true, producer_map,
                                   sizes, num_bits, pool);
    const auto need_fwd = classify(consumer, dst, topts.dstCandidates,
                                   {edge.dstTensor, false},
                                   Phase::Forward, false, consumer_map,
                                   sizes, num_bits, pool);
    const auto have_bwd = classify(consumer, dst, topts.dstCandidates,
                                   {edge.dstTensor, true},
                                   Phase::Backward, true, consumer_map,
                                   sizes, num_bits, pool);
    const auto need_bwd = classify(producer, src, topts.srcCandidates,
                                   {producer.outputTensor, true},
                                   Phase::Backward, false, producer_map,
                                   sizes, num_bits, pool);

    const int src_count = topts.srcCandidates
                              ? static_cast<int>(topts.srcCandidates->size())
                              : src.size();
    const int dst_count = topts.dstCandidates
                              ? static_cast<int>(topts.dstCandidates->size())
                              : dst.size();

    // Joint dominance bound (see EdgeTableOptions::pairBudget): a
    // class pair is evaluated iff at least one of its sequence pairs
    // can still be on an optimal plan — i.e. the per-class intra
    // minima fit the budget. Per-sequence entries over the budget are
    // priced +inf below without ever computing their traffic.
    const bool budgeted =
        topts.pairBudget < std::numeric_limits<double>::infinity();
    std::vector<double> intra_src(src_count), intra_dst(dst_count);
    if (budgeted) {
        for (int p = 0; p < src_count; ++p)
            intra_src[p] = src.intraCost[topts.srcCandidates
                                             ? (*topts.srcCandidates)[p]
                                             : p];
        for (int p = 0; p < dst_count; ++p)
            intra_dst[p] = dst.intraCost[topts.dstCandidates
                                             ? (*topts.dstCandidates)[p]
                                             : p];
    }
    const auto class_min = [&](const LayoutClasses &lc,
                               const std::vector<double> &intra) {
        std::vector<double> mins(
            lc.classes.size(), std::numeric_limits<double>::infinity());
        for (std::size_t p = 0; p < lc.classOf.size(); ++p)
            mins[lc.classOf[p]] = std::min(mins[lc.classOf[p]], intra[p]);
        return mins;
    };

    // Link-class-aware traffic per class pair. Sources (boxes per
    // fast-link domain) and needs (device groups) are prepared once
    // per class, so each pair evaluation sums a few box overlaps per
    // need group. Pairs are independent slots, run in parallel over
    // the flattened (have, need) index.
    auto traffic_table = [&](const LayoutClasses &have,
                             const LayoutClasses &need,
                             const std::vector<double> &have_intra,
                             const std::vector<double> &need_intra) {
        std::vector<CostModel::TrafficSplit> table(
            have.classes.size() * need.classes.size());
        std::vector<double> have_min, need_min;
        if (budgeted) {
            have_min = class_min(have, have_intra);
            need_min = class_min(need, need_intra);
        }
        const auto hopeless = [&](std::size_t idx) {
            if (!budgeted)
                return false;
            const std::size_t h = idx / need.classes.size();
            const std::size_t n = idx % need.classes.size();
            return have_min[h] + need_min[n] > topts.pairBudget;
        };

        // Cross-edge memo: resolve already-priced geometry pairs up
        // front; only the leftovers hit the traffic evaluator.
        std::vector<std::uint64_t> have_ids, need_ids;
        const auto pair_key = [&](std::size_t idx) {
            return have_ids[idx / need.classes.size()] << 32 |
                   need_ids[idx % need.classes.size()];
        };
        std::vector<char> memoized(table.size(), 0);
        if (topts.memo) {
            TrafficMemo &memo = *topts.memo;
            std::lock_guard<std::mutex> lock(memo.mutex);
            const auto intern = [&memo](const std::string &key) {
                const auto id = static_cast<std::uint32_t>(memo.ids.size());
                return std::uint64_t{memo.ids.emplace(key, id).first->second};
            };
            for (const std::string &key : have.keys)
                have_ids.push_back(intern(key));
            for (const std::string &key : need.keys)
                need_ids.push_back(intern(key));
            for (std::size_t idx = 0; idx < table.size(); ++idx) {
                if (hopeless(idx))
                    continue;
                const auto it = memo.map.find(pair_key(idx));
                if (it != memo.map.end()) {
                    table[idx] = it->second;
                    memoized[idx] = 1;
                    ++memo.hits;
                }
            }
        }
        const auto resolved = [&](std::size_t idx) {
            return hopeless(idx) || memoized[idx];
        };
        // Classes whose every pair is already resolved need no
        // prepared source/need structures at all.
        std::vector<char> have_used(have.classes.size(), 0);
        std::vector<char> need_used(need.classes.size(), 0);
        for (std::size_t idx = 0; idx < table.size(); ++idx) {
            if (resolved(idx))
                continue;
            have_used[idx / need.classes.size()] = 1;
            need_used[idx % need.classes.size()] = 1;
        }
        const auto publish = [&]() {
            if (!topts.memo)
                return;
            std::lock_guard<std::mutex> lock(topts.memo->mutex);
            for (std::size_t idx = 0; idx < table.size(); ++idx) {
                if (!resolved(idx))
                    topts.memo->map.emplace(pair_key(idx), table[idx]);
            }
        };
        std::vector<CostModel::PreparedSource> sources(
            have.classes.size());
        parallelFor(pool, sources.size(), [&](std::size_t h) {
            if (have_used[h])
                sources[h] = cost.prepareSource(have.classes[h]);
        });
        std::vector<CostModel::PreparedNeed> needs(need.classes.size());
        parallelFor(pool, needs.size(), [&](std::size_t n) {
            if (need_used[n])
                needs[n] = cost.prepareNeed(need.classes[n]);
        });
        parallelFor(pool, table.size(), [&](std::size_t idx) {
            if (resolved(idx))
                return;
            const std::size_t h = idx / need.classes.size();
            const std::size_t n = idx % need.classes.size();
            table[idx] = cost.trafficSplit(sources[h], needs[n]);
        });
        publish();
        return table;
    };
    const auto fwd_traffic =
        traffic_table(have_fwd, need_fwd, intra_src, intra_dst);
    const auto bwd_traffic =
        traffic_table(have_bwd, need_bwd, intra_dst, intra_src);

    EdgeCostTable table;
    table.edge = &edge;
    table.srcSize = src_count;
    table.dstSize = dst_count;
    table.cost.resize(static_cast<std::size_t>(src_count) * dst_count);

    const double bpe = consumer.bytesPerElement;
    parallelFor(pool, static_cast<std::size_t>(src_count),
                [&](std::size_t ps) {
        const int hf = have_fwd.classOf[ps];
        const int nb = need_bwd.classOf[ps];
        for (int pd = 0; pd < dst_count; ++pd) {
            if (budgeted &&
                intra_src[ps] + intra_dst[pd] > topts.pairBudget) {
                table.cost[ps * dst_count + pd] =
                    std::numeric_limits<float>::infinity();
                continue;
            }
            const int nf = need_fwd.classOf[pd];
            const int hb = have_bwd.classOf[pd];
            const auto &f =
                fwd_traffic[hf * need_fwd.classes.size() + nf];
            const auto &b =
                bwd_traffic[hb * need_bwd.classes.size() + nb];
            table.cost[ps * dst_count + pd] =
                static_cast<float>(cost.redistLatencyUs(
                    static_cast<double>(f.intraNode + b.intraNode) *
                        bpe,
                    static_cast<double>(f.interNode + b.interNode) *
                        bpe));
        }
    });
    return table;
}

} // namespace primepar
