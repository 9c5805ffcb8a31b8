#include "cost_model.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "support/logging.hh"
#include "tensor/simd.hh"

#if !PRIMEPAR_SIMD
#error "the traffic kernel needs GCC/Clang vector extensions"
#endif

namespace primepar {

namespace {

void
appendDouble(std::ostringstream &os, double v)
{
    os << std::bit_cast<std::uint64_t>(v) << ';';
}

void
appendModel(std::ostringstream &os, const LinearModel &m)
{
    appendDouble(os, m.intercept);
    appendDouble(os, m.slope);
}

std::string
costFingerprint(const ClusterTopology &topo, const ProfiledModels &models,
                double alpha, const MemoryModelParams &mem)
{
    std::ostringstream os;
    os << static_cast<int>(topo.kind()) << ';' << topo.numNodes() << ';'
       << topo.gpusPerNode() << ';';
    appendDouble(os, topo.intraBandwidth());
    appendDouble(os, topo.interBandwidth());
    appendDouble(os, topo.linkLatency(0, 0));
    if (topo.numNodes() > 1)
        appendDouble(os, topo.linkLatency(0, topo.gpusPerNode()));
    appendDouble(os, topo.deviceSpec().flops_per_us);
    appendDouble(os, topo.deviceSpec().mem_bytes_per_us);
    appendDouble(os, topo.deviceSpec().kernel_overhead_us);
    for (const auto &[key, model] : models.allReduce) {
        os << key.interNodeBits << ',' << key.intraNodeBits << ':';
        appendModel(os, model);
    }
    appendModel(os, models.ringHop[0]);
    appendModel(os, models.ringHop[1]);
    appendModel(os, models.matmulKernel);
    appendModel(os, models.memoryKernel);
    appendModel(os, models.redistribution[0]);
    appendModel(os, models.redistribution[1]);
    appendDouble(os, alpha);
    appendDouble(os, mem.paramStateFactor);
    os << (mem.doubleBuffers ? 1 : 0) << ';';
    return os.str();
}

/** Receivers per block of the widest pricing tier (AVX-512F: 16
 *  int32 lanes): lane widths are padded to a multiple of this, so
 *  every tier's blocks divide them. */
constexpr int kMaxBlock = 16;

/** Group indicator of a device-id bit mask (bit 0 = d_1). */
GroupIndicator
indicatorOf(std::int64_t mask, int num_bits)
{
    GroupIndicator bits;
    for (int b = 0; b < num_bits; ++b) {
        if ((mask >> (num_bits - 1 - b)) & 1)
            bits.push_back(b);
    }
    return bits;
}

} // namespace

CostModel::CostModel(const ClusterTopology &topo_in,
                     ProfiledModels models_in, double alpha_memory)
    : topo(topo_in), models(std::move(models_in)), alpha(alpha_memory),
      fp(costFingerprint(topo, models, alpha, memParams)),
      width((topo.numDevices() + kMaxBlock - 1) / kMaxBlock * kMaxBlock)
{
    const bool torus = topo.kind() == ClusterTopology::Kind::Torus2D;
    const int devices = topo.numDevices();
    numDomains = torus ? devices : topo.numNodes();
    domainOf.resize(devices);
    std::vector<int> domain_size(numDomains, 0);
    for (int dev = 0; dev < devices; ++dev) {
        domainOf[dev] = torus ? dev : topo.nodeOf(dev);
        ++domain_size[domainOf[dev]];
    }

    // Reach sets come from sameNode itself; the size check proves
    // that every device of a reached domain is a fast-link peer, so a
    // box held in a reached domain is exactly "some holder has
    // sameNode()".
    std::map<std::vector<std::int32_t>, std::int32_t> ids;
    reachOf.resize(devices);
    std::vector<std::int32_t> reach;
    for (int a = 0; a < devices; ++a) {
        reach.clear();
        for (int b = 0; b < devices; ++b) {
            if (topo.sameNode(a, b))
                reach.push_back(domainOf[b]);
        }
        const int peers = static_cast<int>(reach.size());
        std::sort(reach.begin(), reach.end());
        reach.erase(std::unique(reach.begin(), reach.end()),
                    reach.end());
        int covered = 0;
        for (const std::int32_t d : reach)
            covered += domain_size[d];
        PRIMEPAR_ASSERT(covered == peers,
                        "fast-link domains disagree with sameNode");
        // trafficSplit() relies on this to discount a receiver's own
        // box.
        PRIMEPAR_ASSERT(topo.sameNode(a, a),
                        "a device must reach itself over a fast link");
        const auto [it, inserted] = ids.emplace(
            reach, static_cast<std::int32_t>(reachSets.size()));
        if (inserted)
            reachSets.push_back(reach);
        reachOf[a] = it->second;
    }

    domainStart.assign(numDomains + 1, 0);
    for (int dom = 0; dom < numDomains; ++dom)
        domainStart[dom + 1] = domainStart[dom] + domain_size[dom];
    domainDevices.resize(devices);
    std::vector<std::int32_t> next(domainStart.begin(), domainStart.end() - 1);
    for (int dev = 0; dev < devices; ++dev)
        domainDevices[next[domainOf[dev]]++] = dev;
}

bool
CostModel::crossesNode(const std::vector<Transfer> &moves,
                       std::int64_t group_mask) const
{
    if (topo.kind() == ClusterTopology::Kind::Hierarchical) {
        // Node = high device-id bits: a move crosses nodes iff it
        // flips one, in every ring group alike.
        const std::int64_t node_bits =
            (std::int64_t{topo.numDevices()} - 1) & ~(topo.gpusPerNode() - 1);
        for (const Transfer &tr : moves) {
            if ((tr.receiver ^ tr.sender) & node_bits)
                return true;
        }
        return false;
    }
    // No bitwise node test (torus neighbours): check every group.
    for (std::int64_t base = 0; base < topo.numDevices(); ++base) {
        if (base & group_mask)
            continue;
        for (const Transfer &tr : moves) {
            if (!topo.sameNode(base | tr.sender, base | tr.receiver))
                return true;
        }
    }
    return false;
}

IntraCost
CostModel::intraCost(const OpSpec &op, const PartitionSeq &seq) const
{
    SymbolicComm comm(op, seq, topo.numBits());
    const int steps = comm.steps();
    const double devices = static_cast<double>(topo.numDevices());
    std::vector<char> shifted(op.tensors.size(), 0);
    std::vector<double> ring(steps);
    IntraCost cost;

    for (std::size_t p = 0; p < op.passes.size(); ++p) {
        const PassSpec &pass = op.passes[p];

        // Per-step sub-operator kernel latency.
        const double flops = op.passFlops(pass) / (devices * steps);
        double bytes = 0.0;
        for (const TensorRef &ref : pass.operands)
            bytes += static_cast<double>(comm.sliceNumel(ref.tensor)) *
                     op.bytesPerElement;
        bytes += static_cast<double>(comm.sliceNumel(pass.output.tensor)) *
                 op.bytesPerElement;
        const bool math_bound =
            op.kind == "linear" || op.kind == "matmul";
        const double kernel = math_bound
                                  ? models.matmulKernel(flops)
                                  : models.memoryKernel(bytes);

        // Ring latency per step: every shift hops once, over a slow
        // link if any of its transfers crosses nodes.
        std::fill(ring.begin(), ring.end(), 0.0);
        comm.forEachShift(static_cast<int>(p),
                          [&](int t, const TensorRef &ref,
                              const std::vector<Transfer> &moves) {
            shifted[ref.tensor] = 1;
            const double payload =
                static_cast<double>(comm.sliceNumel(ref.tensor)) *
                op.bytesPerElement;
            const bool cross = crossesNode(moves, comm.groupMask());
            ring[t] += models.ringHop[cross ? 1 : 0](payload);
        });

        // Eq. 7: sum over steps of max(compute, ring).
        for (int t = 0; t < steps; ++t) {
            cost.latencyUs += std::max(kernel, ring[t]);
            cost.computeUs += kernel;
            cost.ringUs += ring[t];
        }

        // Grouped all-reduce of partial sums through the fitted
        // pattern model.
        const std::int64_t shared =
            comm.sharedBits(pass.output, pass.phase, steps - 1);
        if (shared != 0) {
            const double payload =
                static_cast<double>(comm.sliceNumel(pass.output.tensor)) *
                op.bytesPerElement;
            const GroupPatternKey key =
                groupPatternKey(topo, indicatorOf(shared, topo.numBits()));
            const auto it = models.allReduce.find(key);
            PRIMEPAR_ASSERT(it != models.allReduce.end(),
                            "no profiled all-reduce model for pattern");
            const double dur = it->second(payload);
            cost.latencyUs += dur;
            cost.allReduceUs += dur;
        }
    }

    // Layernorm expectation exchange when the normalized dimension is
    // split spatially (paper Sec. 3.2, "potential all-reduce of
    // expectations") over the bits that slice it.
    if (op.normalizedDim >= 0 &&
        comm.sliceCounts()[op.normalizedDim] > 1) {
        const std::int64_t split =
            comm.dimBits(op.normalizedDim, Phase::Forward, 0);
        if (split != 0) {
            const std::int64_t rows =
                comm.sliceNumel(op.outputTensor) /
                comm.sliceExtent(op.normalizedDim);
            const double payload = static_cast<double>(rows) * 2 * 4;
            const GroupPatternKey key =
                groupPatternKey(topo, indicatorOf(split, topo.numBits()));
            const auto it = models.allReduce.find(key);
            if (it != models.allReduce.end()) {
                const double dur = it->second(payload);
                cost.latencyUs += dur;
                cost.allReduceUs += dur;
            }
        }
    }

    cost.memoryBytes =
        opMemory(op, comm.sliceCounts(), shifted, memParams).total();
    cost.weighted =
        cost.latencyUs + alpha * cost.memoryBytes / (1024.0 * 1024.0);
    return cost;
}

std::string
laneBoundsError(int devices, const std::vector<std::int64_t> &dim_sizes)
{
    // Rounding is monotone and 2^53 is a double, so the double product
    // is below 2^53 exactly when the integer one is.
    double elements = devices;
    for (std::size_t d = 0; d < dim_sizes.size(); ++d) {
        if (dim_sizes[d] > std::numeric_limits<std::int32_t>::max()) {
            return "dim " + std::to_string(d) + " has " +
                   std::to_string(dim_sizes[d]) +
                   " elements: past the int32 lanes";
        }
        elements *= static_cast<double>(dim_sizes[d]);
    }
    if (elements >= 0x1p53) {
        return std::to_string(devices) +
               " devices x tensor elements reach 2^53: lane sums would "
               "not be exact";
    }
    return "";
}

LaneDims::LaneDims(int devices, std::vector<std::int64_t> sizes)
    : dimSizes(std::move(sizes))
{
    const std::string error = laneBoundsError(devices, dimSizes);
    PRIMEPAR_ASSERT(error.empty(), error);
}

std::int32_t *
LaneArena::take(std::size_t count)
{
    const std::lock_guard<std::mutex> lock(mu);
    if (count > kChunk / 8) {
        blocks.emplace_back(new std::int32_t[count]);
        return blocks.back().get();
    }
    if (used + count > kChunk) {
        blocks.emplace_back(new std::int32_t[kChunk]);
        chunk = blocks.back().get();
        used = 0;
    }
    used += count;
    return chunk + used - count;
}

namespace {

/** Per-thread scratch of sourceView(), grown to the largest view the
 *  thread built and reused by every view after it. */
struct ViewScratch
{
    /** Open-addressing hash slots: (generation, number). A slot of an
     *  older generation is empty, so a new numbering clears nothing. */
    std::vector<std::pair<std::uint32_t, std::int32_t>> table;
    std::uint32_t generation = 0;
    std::vector<std::int32_t> first; ///< number -> first index with it
    /** [device * dims + d]: the number of the device's interval among
     *  dim d's distinct intervals. */
    std::vector<std::int32_t> interval;
    std::vector<SliceRange> intervals; ///< one dim's distinct intervals
    /** Dim -> mixed-radix weight of its interval numbers. */
    std::vector<std::uint64_t> stride;
    std::vector<std::int32_t> boxId;   ///< device -> distinct box
    std::vector<std::int32_t> holder;  ///< distinct box -> a device
    std::vector<std::int64_t> volume;  ///< distinct box -> volume
    /** Distinct box -> the last reach set that took it. */
    std::vector<std::int32_t> stamp;
    std::vector<std::int32_t> members; ///< one reach set's boxes
    std::vector<SliceRange> unions; ///< union boxes, dims ranges each
    std::vector<std::int32_t> unionStart; ///< reach set -> first box
    /** Per device, its reach set's union box of the slot being
     *  written, or null past the set's count. */
    std::vector<const SliceRange *> slotBox;
};

thread_local ViewScratch viewScratch;

/** Fibonacci hashing step: the top bits of the running hash depend on
 *  every value folded in. */
std::uint64_t
mixHash(std::uint64_t h, std::int64_t v)
{
    return (h ^ static_cast<std::uint64_t>(v)) * 0x9E3779B97F4A7C15ull;
}

/**
 * Number the values 0 .. @p count - 1 by equality (@p same) in
 * first-seen order: id_of[i * stride] gets i's number, s.first[n] the
 * first i numbered n. Linear probing over at least twice as many slots
 * as values keeps a lookup O(1); a value equal to its predecessor, the
 * common case in device order, skips the table.
 */
template <typename Hash, typename Same>
void
numberDistinct(ViewScratch &s, int count, Hash hash_of, Same same,
               std::int32_t *id_of, int stride)
{
    const std::size_t slots =
        std::bit_ceil(static_cast<std::size_t>(2 * count));
    if (s.table.size() < slots)
        s.table.resize(slots);
    if (++s.generation == 0) {
        std::fill(s.table.begin(), s.table.end(),
                  std::pair<std::uint32_t, std::int32_t>{});
        s.generation = 1;
    }
    const int shift = 64 - std::countr_zero(slots);
    s.first.clear();
    for (int i = 0; i < count; ++i) {
        if (i > 0 && same(i, i - 1)) {
            id_of[i * stride] = id_of[(i - 1) * stride];
            continue;
        }
        std::size_t at = hash_of(i) >> shift;
        while (true) {
            auto &[gen, id] = s.table[at];
            if (gen != s.generation) {
                gen = s.generation;
                id = static_cast<std::int32_t>(s.first.size());
                s.first.push_back(i);
                id_of[i * stride] = id;
                break;
            }
            if (same(i, s.first[id])) {
                id_of[i * stride] = id;
                break;
            }
            at = (at + 1) & (slots - 1);
        }
    }
}

} // namespace

template <typename Take>
CostModel::SourceView
CostModel::buildView(const SliceRange *boxes, const LaneDims &lane_dims,
                     Take take) const
{
    const int devices = topo.numDevices();
    const int dims = lane_dims.count();
    const auto box_of = [&](std::int32_t dev) {
        return boxes + static_cast<std::size_t>(dev) * dims;
    };
    const auto volume = [dims](const SliceRange *box) {
        std::int64_t vol = 1;
        for (int d = 0; d < dims; ++d)
            vol *= box[d].length();
        return vol;
    };
    ViewScratch &s = viewScratch;

    // Per dim, number the distinct realized intervals. They must be
    // pairwise disjoint (layoutOf() gives each dim one slice
    // partition), so distinct boxes are disjoint; with the volume
    // check below they tile the tensor. Only the dim's distinct
    // intervals are sorted.
    s.interval.resize(static_cast<std::size_t>(devices) * dims);
    s.stride.resize(dims);
    std::uint64_t radix = 1; // distinct interval tuples so far
    for (int d = 0; d < dims; ++d) {
        const auto range = [&](int dev) { return box_of(dev)[d]; };
        numberDistinct(
            s, devices,
            [&](int dev) {
                return mixHash(mixHash(0, range(dev).start), range(dev).end);
            },
            [&](int a, int b) { return range(a) == range(b); },
            s.interval.data() + d, dims);
        s.intervals.clear();
        for (const std::int32_t dev : s.first)
            s.intervals.push_back(range(dev));
        std::sort(s.intervals.begin(), s.intervals.end());
        for (std::size_t i = 1; i < s.intervals.size(); ++i) {
            PRIMEPAR_ASSERT(s.intervals[i - 1].end <= s.intervals[i].start,
                            "source boxes overlap in dim ", d,
                            ": not a product grid");
        }
        s.stride[d] = radix;
        radix *= s.first.size();
    }

    // Distinct boxes: a box is its tuple of interval numbers, keyed in
    // mixed radix (the key only hashes; equality compares the tuples).
    const auto tuple_of = [&](int dev) {
        return s.interval.data() + static_cast<std::size_t>(dev) * dims;
    };
    s.boxId.resize(devices);
    numberDistinct(
        s, devices,
        [&](int dev) {
            std::uint64_t key = 0;
            for (int d = 0; d < dims; ++d)
                key += static_cast<std::uint64_t>(tuple_of(dev)[d]) *
                       s.stride[d];
            return mixHash(0, static_cast<std::int64_t>(key));
        },
        [&](int a, int b) {
            return std::equal(tuple_of(a), tuple_of(a) + dims, tuple_of(b));
        },
        s.boxId.data(), 1);
    s.holder.assign(s.first.begin(), s.first.end());
    const int distinct = static_cast<int>(s.holder.size());
    s.volume.resize(distinct);
    std::int64_t covered = 0;
    for (int b = 0; b < distinct; ++b) {
        s.volume[b] = volume(box_of(s.holder[b]));
        covered += s.volume[b];
    }
    std::int64_t tensor = 1;
    for (const std::int64_t size : lane_dims.sizes())
        tensor *= size;
    PRIMEPAR_ASSERT(covered == tensor, "source boxes cover ", covered,
                    " of ", tensor, " elements: not a tiling");

    // Node union per reach set: walk the devices of its domains and
    // take each distinct box once (a box may sit in several domains of
    // a torus reach set).
    s.stamp.assign(distinct, -1);
    s.unions.clear();
    s.unionStart.assign(1, 0);
    int layers = 0;
    for (std::size_t r = 0; r < reachSets.size(); ++r) {
        const auto reach = static_cast<std::int32_t>(r);
        s.members.clear();
        for (const std::int32_t dom : reachSets[r]) {
            for (std::int32_t i = domainStart[dom]; i < domainStart[dom + 1];
                 ++i) {
                const std::int32_t b = s.boxId[domainDevices[i]];
                if (s.stamp[b] != reach) {
                    s.stamp[b] = reach;
                    s.members.push_back(b);
                }
            }
        }
        const std::size_t at = s.unions.size();
        const SliceRange *first = box_of(s.holder[s.members[0]]);
        s.unions.insert(s.unions.end(), first, first + dims);
        SliceRange *bound = s.unions.data() + at;
        std::int64_t filled = 0;
        for (const std::int32_t m : s.members) {
            const SliceRange *box = box_of(s.holder[m]);
            filled += s.volume[m];
            for (int d = 0; d < dims; ++d) {
                bound[d].start = std::min(bound[d].start, box[d].start);
                bound[d].end = std::max(bound[d].end, box[d].end);
            }
        }
        if (filled != volume(bound)) {
            s.unions.resize(at);
            for (const std::int32_t m : s.members) {
                const SliceRange *box = box_of(s.holder[m]);
                s.unions.insert(s.unions.end(), box, box + dims);
            }
        }
        s.unionStart.push_back(static_cast<std::int32_t>(s.unions.size()));
        layers = std::max(
            layers, (s.unionStart[r + 1] - s.unionStart[r]) / dims);
    }

    // Lanes: slot 0 the own boxes, slot 1 + k the k-th union box of
    // each receiver's reach set, one dim row at a time. Padding lanes
    // and slots past a reach set's count are empty ([0, 0) meets
    // nothing).
    const std::size_t slot = slotLanes(dims);
    std::int32_t *lanes = take((1 + layers) * slot);
    s.slotBox.resize(devices);
    for (int k = 0; k <= layers; ++k) {
        for (int dev = 0; dev < devices; ++dev) {
            if (k == 0) {
                s.slotBox[dev] = box_of(dev);
                continue;
            }
            const std::int32_t r = reachOf[dev];
            const std::int32_t i = s.unionStart[r] + (k - 1) * dims;
            s.slotBox[dev] = i < s.unionStart[r + 1] ? s.unions.data() + i
                                                     : nullptr;
        }
        for (int d = 0; d < dims; ++d) {
            std::int32_t *starts = lanes + k * slot + 2 * d * width;
            std::int32_t *ends = starts + width;
            for (int dev = 0; dev < devices; ++dev) {
                const SliceRange *box = s.slotBox[dev];
                starts[dev] = box ? static_cast<std::int32_t>(box[d].start) : 0;
                ends[dev] = box ? static_cast<std::int32_t>(box[d].end) : 0;
            }
            std::fill(starts + devices, starts + width, 0);
            std::fill(ends + devices, ends + width, 0);
        }
    }

    SourceView view;
    view.dims = dims;
    view.devices = devices;
    view.width = width;
    view.layers = layers;
    view.lanes = lanes;
    return view;
}

CostModel::SourceView
CostModel::sourceView(const SliceRange *boxes, const LaneDims &dims,
                      LaneArena &arena) const
{
    return buildView(boxes, dims,
                     [&arena](std::size_t count) { return arena.take(count); });
}

CostModel::OwnedSourceView
CostModel::sourceView(const SliceRange *boxes,
                      const std::vector<std::int64_t> &dim_sizes) const
{
    const LaneDims dims(topo.numDevices(), dim_sizes);
    OwnedSourceView view;
    static_cast<SourceView &>(view) =
        buildView(boxes, dims, [&view](std::size_t count) {
            view.storage.reset(new std::int32_t[count]);
            return view.storage.get();
        });
    return view;
}

std::size_t
CostModel::slotLanes(int dims) const
{
    return static_cast<std::size_t>(2 * dims) * width;
}

std::int64_t
CostModel::needLanes(const SliceRange *boxes, const LaneDims &lane_dims,
                     std::int32_t *out) const
{
    const int devices = topo.numDevices();
    const int dims = lane_dims.count();
    std::int64_t total = 0;
    for (int dev = 0; dev < devices; ++dev) {
        const SliceRange *box = boxes + static_cast<std::size_t>(dev) * dims;
        std::int64_t volume = 1;
        for (int d = 0; d < dims; ++d) {
            out[2 * d * width + dev] = static_cast<std::int32_t>(box[d].start);
            out[(2 * d + 1) * width + dev] =
                static_cast<std::int32_t>(box[d].end);
            volume *= box[d].length();
        }
        total += volume;
    }
    for (int row = 0; row < 2 * dims; ++row)
        std::fill(out + row * width + devices, out + (row + 1) * width, 0);
    return total;
}

std::int64_t
CostModel::needLanes(const SliceRange *boxes,
                     const std::vector<std::int64_t> &dim_sizes,
                     std::int32_t *out) const
{
    return needLanes(boxes, LaneDims(topo.numDevices(), dim_sizes), out);
}

namespace {

/** Overlap sums of one pricing pass: with the node unions and with
 *  the receivers' own boxes. */
struct LaneSums
{
    double fast = 0.0;
    double self = 0.0;
};

// A tier's kernel works in blocks of 2H receivers, H the doubles one
// of its registers holds: the int32 bounds of a block fill one
// register, and its lengths widen into two registers of doubles.
template <int H>
using I = typename Lanes<2 * H>::itype;
template <int H>
using D = typename Lanes<H>::dtype;
template <int H>
using DD = typename Lanes<2 * H>::dtype;

template <int H>
PRIMEPAR_ALWAYS_INLINE I<H>
load(const std::int32_t *p)
{
    I<H> v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Lanes [Off, Off + H) of @p v. */
template <int H, std::size_t Off, std::size_t... K>
PRIMEPAR_ALWAYS_INLINE D<H>
half(DD<H> v, std::index_sequence<K...>)
{
    return __builtin_shufflevector(v, v, (K + Off)...);
}

/** Overlap volumes of need box slot @p need with box slot @p box at
 *  one block, low and high half. Every length is in [0, INT32_MAX]
 *  and every product at most a need box's volume, below 2^53: the
 *  double math is exact. */
template <int H>
PRIMEPAR_ALWAYS_INLINE void
overlapLanes(const std::int32_t *need, const std::int32_t *box, int dims,
             int width, D<H> &lo_volume, D<H> &hi_volume)
{
    lo_volume = D<H>{} + 1.0;
    hi_volume = lo_volume;
#pragma GCC unroll 8
    for (int d = 0; d < dims; ++d) {
        const std::size_t lo = static_cast<std::size_t>(2 * d) * width;
        const std::size_t hi = lo + width;
        const I<H> nlo = load<H>(need + lo), blo = load<H>(box + lo);
        const I<H> nhi = load<H>(need + hi), bhi = load<H>(box + hi);
        const I<H> len =
            (nhi < bhi ? nhi : bhi) - (nlo > blo ? nlo : blo);
        const DD<H> wide = __builtin_convertvector(len > 0 ? len : 0, DD<H>);
        lo_volume *= half<H, 0>(wide, std::make_index_sequence<H>{});
        hi_volume *= half<H, H>(wide, std::make_index_sequence<H>{});
    }
}

template <int H, std::size_t... K>
PRIMEPAR_ALWAYS_INLINE D<H / 2>
foldHalves(D<H> v, std::index_sequence<K...>)
{
    return __builtin_shufflevector(v, v, K...) +
           __builtin_shufflevector(v, v, (K + H / 2)...);
}

/** Sum of the lanes of @p v as a tree: the lanes hold integers below
 *  2^53, whose sums are exact in any order. */
template <int H>
PRIMEPAR_ALWAYS_INLINE double
laneSum(D<H> v)
{
    if constexpr (H == 1)
        return v[0];
    else
        return laneSum<H / 2>(
            foldHalves<H>(v, std::make_index_sequence<H / 2>{}));
}

/** One pricing pass over every receiver, 2H lanes at a time. */
template <int H>
PRIMEPAR_ALWAYS_INLINE LaneSums
priceLanes(const CostModel::SourceView &have, const std::int32_t *need)
{
    const int dims = have.dims;
    const int width = have.width;
    const std::size_t slot = static_cast<std::size_t>(2 * dims) * width;
    const std::int32_t *own = have.lanes;
    D<H> fast{}, self{}, lo, hi;
    // A narrower tier's blocks past the last device hold padding
    // only, which would add zeros: stop before them.
    for (int j = 0; j < have.devices; j += 2 * H) {
        overlapLanes<H>(need + j, own + j, dims, width, lo, hi);
        self += lo + hi;
        for (int k = 1; k <= have.layers; ++k) {
            overlapLanes<H>(need + j, own + k * slot + j, dims, width, lo,
                            hi);
            fast += lo + hi;
        }
    }
    return {laneSum<H>(fast), laneSum<H>(self)};
}

using PriceFn = LaneSums (*)(const CostModel::SourceView &,
                             const std::int32_t *);

// One out-of-line instance per tier, each compiled for its ISA: the
// templates above are always_inline so they take the caller's target.
LaneSums
priceSse2(const CostModel::SourceView &have, const std::int32_t *need)
{
    return priceLanes<2>(have, need);
}

#if PRIMEPAR_SIMD_X86
__attribute__((target("avx2"))) LaneSums
priceAvx2(const CostModel::SourceView &have, const std::int32_t *need)
{
    return priceLanes<4>(have, need);
}

__attribute__((target("avx512f"))) LaneSums
priceAvx512f(const CostModel::SourceView &have, const std::int32_t *need)
{
    return priceLanes<8>(have, need);
}
#endif

PriceFn
priceFor(GemmIsa isa)
{
    PRIMEPAR_ASSERT(detail::hostSupportsGemmIsa(isa), "pricing tier ",
                    gemmIsaName(isa), " is not supported on this host");
    switch (isa) {
#if PRIMEPAR_SIMD_X86
    case GemmIsa::Avx512f:
        return priceAvx512f;
    case GemmIsa::Avx2:
        return priceAvx2;
#endif
    default:
        return priceSse2;
    }
}

CostModel::TrafficSplit
splitOf(LaneSums sums, std::int64_t need_volume)
{
    // The own box was counted fast (a device reaches itself) but moves
    // nothing; the source boxes tile the tensor, so the rest of the
    // need comes over slow links.
    const auto fast = static_cast<std::int64_t>(sums.fast);
    CostModel::TrafficSplit split;
    split.intraNode = fast - static_cast<std::int64_t>(sums.self);
    split.interNode = need_volume - fast;
    return split;
}

} // namespace

CostModel::TrafficSplit
CostModel::trafficSplit(const SourceView &have, const std::int32_t *need,
                        std::int64_t need_volume) const
{
    static const PriceFn price = priceFor(activeGemmIsa());
    return splitOf(price(have, need), need_volume);
}

CostModel::TrafficSplit
CostModel::trafficSplit(const TensorLayout &have,
                        const TensorLayout &need) const
{
    PRIMEPAR_ASSERT(have.numDevices() == topo.numDevices() &&
                        need.numDevices() == topo.numDevices(),
                    "layout device mismatch");
    PRIMEPAR_ASSERT(have.dimSizes == need.dimSizes,
                    "layouts of different tensors");
    const std::vector<SliceRange> have_boxes = flatBoxes(have);
    const std::vector<SliceRange> need_boxes = flatBoxes(need);
    std::vector<std::int32_t> need_lanes(
        slotLanes(static_cast<int>(need.dimSizes.size())));
    const std::int64_t volume =
        needLanes(need_boxes.data(), need.dimSizes, need_lanes.data());
    return trafficSplit(sourceView(have_boxes.data(), have.dimSizes),
                        need_lanes.data(), volume);
}

double
CostModel::computeFloorUs(const OpSpec &op) const
{
    const double devices =
        static_cast<double>(std::int64_t{1} << topo.numBits());
    // Temporal steps divide the per-step kernel size; with 2k of n
    // bits spent on a PSquare the step count is at most 2^(n/2).
    const double max_steps = static_cast<double>(
        std::int64_t{1} << (topo.numBits() / 2));
    double floor_us = 0.0;
    for (const PassSpec &pass : op.passes) {
        const double flops = op.passFlops(pass) / devices;
        double bytes = 0.0;
        for (const TensorRef &ref : pass.operands)
            bytes += op.tensorNumel(ref.tensor) * op.bytesPerElement;
        bytes += op.tensorNumel(pass.output.tensor) * op.bytesPerElement;
        bytes /= devices;
        const bool math_bound =
            op.kind == "linear" || op.kind == "matmul";
        const LinearModel &m =
            math_bound ? models.matmulKernel : models.memoryKernel;
        const double x = math_bound ? flops : bytes;
        // sum_t kernel(x / steps) = steps * intercept + slope * x is
        // monotone in steps for nonneg intercepts; guard against a
        // fitted negative intercept by evaluating both extremes.
        const double at_one = m(x);
        const double at_max = max_steps * m.intercept + m.slope * x;
        floor_us += std::max(0.0, std::min(at_one, at_max));
    }
    return floor_us;
}

double
CostModel::redistLatencyUs(double intra_bytes, double inter_bytes) const
{
    double lat = 0.0;
    if (intra_bytes > 0.0)
        lat += models.redistribution[0](intra_bytes);
    if (inter_bytes > 0.0)
        lat += models.redistribution[1](inter_bytes);
    return lat;
}

namespace detail {

CostModel::TrafficSplit
trafficSplitOn(GemmIsa isa, const CostModel::SourceView &have,
               const std::int32_t *need, std::int64_t need_volume)
{
    return splitOf(priceFor(isa)(have, need), need_volume);
}

} // namespace detail

} // namespace primepar
