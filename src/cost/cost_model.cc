#include "cost_model.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
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

namespace {

void
checkLaneBounds(int devices, const std::vector<std::int64_t> &dim_sizes)
{
    const std::string error = laneBoundsError(devices, dim_sizes);
    PRIMEPAR_ASSERT(error.empty(), error);
}

} // namespace

CostModel::SourceView
CostModel::sourceView(const SliceRange *boxes,
                      const std::vector<std::int64_t> &dim_sizes) const
{
    checkLaneBounds(topo.numDevices(), dim_sizes);
    const int devices = topo.numDevices();
    const int dims = static_cast<int>(dim_sizes.size());
    const auto box_of = [&](std::int32_t dev) {
        return boxes + static_cast<std::size_t>(dev) * dims;
    };
    const auto volume = [dims](const SliceRange *box) {
        std::int64_t vol = 1;
        for (int d = 0; d < dims; ++d)
            vol *= box[d].length();
        return vol;
    };

    // Distinct boxes: sort the devices by box, then number the runs.
    std::vector<std::int32_t> order(devices);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::int32_t a, std::int32_t b) {
        return std::lexicographical_compare(box_of(a), box_of(a) + dims,
                                            box_of(b), box_of(b) + dims);
    });
    std::vector<std::int32_t> box_id(devices);
    std::vector<std::int32_t> holder; // one device per distinct box
    std::int64_t covered = 0;
    for (int i = 0; i < devices; ++i) {
        const std::int32_t dev = order[i];
        if (i == 0 ||
            !std::equal(box_of(dev), box_of(dev) + dims,
                        box_of(order[i - 1]))) {
            holder.push_back(dev);
            covered += volume(box_of(dev));
        }
        box_id[dev] = static_cast<std::int32_t>(holder.size()) - 1;
    }

    // Per dim, distinct realized intervals must be pairwise disjoint
    // (layoutOf() gives each dim one slice partition), so distinct
    // boxes are disjoint; with the volume check they tile the tensor.
    std::vector<SliceRange> ivs;
    for (int d = 0; d < dims; ++d) {
        ivs.clear();
        for (const std::int32_t dev : holder)
            ivs.push_back(box_of(dev)[d]);
        std::sort(ivs.begin(), ivs.end());
        ivs.erase(std::unique(ivs.begin(), ivs.end()), ivs.end());
        for (std::size_t i = 1; i < ivs.size(); ++i) {
            PRIMEPAR_ASSERT(ivs[i - 1].end <= ivs[i].start,
                            "source boxes overlap in dim ", d,
                            ": not a product grid");
        }
    }
    std::int64_t tensor = 1;
    for (const std::int64_t size : dim_sizes)
        tensor *= size;
    PRIMEPAR_ASSERT(covered == tensor, "source boxes cover ", covered,
                    " of ", tensor, " elements: not a tiling");

    // Distinct (domain, box) holdings, grouped by domain.
    std::vector<std::pair<std::int32_t, std::int32_t>> held(devices);
    for (int dev = 0; dev < devices; ++dev)
        held[dev] = {domainOf[dev], box_id[dev]};
    std::sort(held.begin(), held.end());
    held.erase(std::unique(held.begin(), held.end()), held.end());
    std::vector<std::int32_t> domain_start(numDomains + 1, 0);
    for (const auto &h : held)
        ++domain_start[h.first + 1];
    std::partial_sum(domain_start.begin(), domain_start.end(),
                     domain_start.begin());

    // Node union per reach set. One domain's boxes are distinct
    // already; across several (torus neighbours) they are
    // deduplicated.
    std::vector<std::int32_t> union_start{0};
    std::vector<const SliceRange *> union_boxes;
    std::vector<std::int32_t> members;
    std::vector<SliceRange> bounds(reachSets.size() * dims);
    for (std::size_t r = 0; r < reachSets.size(); ++r) {
        const std::vector<std::int32_t> &reach = reachSets[r];
        members.clear();
        for (const std::int32_t dom : reach) {
            for (std::int32_t i = domain_start[dom];
                 i < domain_start[dom + 1]; ++i)
                members.push_back(held[i].second);
        }
        if (reach.size() > 1) {
            std::sort(members.begin(), members.end());
            members.erase(std::unique(members.begin(), members.end()),
                          members.end());
        }
        SliceRange *bound = bounds.data() + r * dims;
        std::int64_t filled = 0;
        std::copy(box_of(holder[members[0]]),
                  box_of(holder[members[0]]) + dims, bound);
        for (const std::int32_t m : members) {
            const SliceRange *box = box_of(holder[m]);
            filled += volume(box);
            for (int d = 0; d < dims; ++d) {
                bound[d].start = std::min(bound[d].start, box[d].start);
                bound[d].end = std::max(bound[d].end, box[d].end);
            }
        }
        if (filled == volume(bound)) {
            union_boxes.push_back(bound);
        } else {
            for (const std::int32_t m : members)
                union_boxes.push_back(box_of(holder[m]));
        }
        union_start.push_back(
            static_cast<std::int32_t>(union_boxes.size()));
    }

    // Lanes: slot 0 the own boxes, slot 1 + k the k-th union box of
    // each receiver's reach set. Padding lanes and slots past a reach
    // set's count stay empty ([0, 0) meets nothing).
    SourceView view;
    view.dims = dims;
    view.devices = devices;
    view.width = width;
    for (std::size_t r = 0; r < reachSets.size(); ++r)
        view.layers = std::max(view.layers,
                               union_start[r + 1] - union_start[r]);
    const std::size_t slot = slotLanes(dims);
    view.lanes.assign((1 + view.layers) * slot, 0);
    const auto put = [&](int s, int dev, const SliceRange *box) {
        std::int32_t *lane = view.lanes.data() + s * slot + dev;
        for (int d = 0; d < dims; ++d) {
            lane[2 * d * width] = static_cast<std::int32_t>(box[d].start);
            lane[(2 * d + 1) * width] =
                static_cast<std::int32_t>(box[d].end);
        }
    };
    for (int dev = 0; dev < devices; ++dev) {
        put(0, dev, box_of(dev));
        const std::int32_t r = reachOf[dev];
        for (std::int32_t i = union_start[r]; i < union_start[r + 1]; ++i)
            put(1 + i - union_start[r], dev, union_boxes[i]);
    }
    return view;
}

std::size_t
CostModel::slotLanes(int dims) const
{
    return static_cast<std::size_t>(2 * dims) * width;
}

std::int64_t
CostModel::needLanes(const SliceRange *boxes,
                     const std::vector<std::int64_t> &dim_sizes,
                     std::int32_t *out) const
{
    checkLaneBounds(topo.numDevices(), dim_sizes);
    const int dims = static_cast<int>(dim_sizes.size());
    std::fill(out, out + slotLanes(dims), 0);
    std::int64_t total = 0;
    for (int dev = 0; dev < topo.numDevices(); ++dev) {
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
    return total;
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
    const std::int32_t *own = have.lanes.data();
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
