#include "cost_model.hh"

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <sstream>

#include "support/logging.hh"

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
      fp(costFingerprint(topo, models, alpha, memParams))
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

CostModel::SourceView
CostModel::sourceView(const SliceRange *boxes,
                      const std::vector<std::int64_t> &dim_sizes) const
{
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
    SourceView view;
    view.dims = dims;
    view.own = boxes;
    view.unionStart.reserve(reachSets.size() + 1);
    view.unionStart.push_back(0);
    std::vector<std::int32_t> members;
    std::vector<SliceRange> bound(dims);
    for (const std::vector<std::int32_t> &reach : reachSets) {
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
        std::int64_t filled = 0;
        std::copy(box_of(holder[members[0]]),
                  box_of(holder[members[0]]) + dims, bound.begin());
        for (const std::int32_t m : members) {
            const SliceRange *box = box_of(holder[m]);
            filled += volume(box);
            for (int d = 0; d < dims; ++d) {
                bound[d].start = std::min(bound[d].start, box[d].start);
                bound[d].end = std::max(bound[d].end, box[d].end);
            }
        }
        if (filled == volume(bound.data())) {
            view.unionBoxes.insert(view.unionBoxes.end(), bound.begin(),
                                   bound.end());
        } else {
            for (const std::int32_t m : members) {
                view.unionBoxes.insert(view.unionBoxes.end(),
                                       box_of(holder[m]),
                                       box_of(holder[m]) + dims);
            }
        }
        view.unionStart.push_back(
            static_cast<std::int32_t>(view.unionBoxes.size() / dims));
    }
    return view;
}

namespace {

/** CostModel::trafficSplit() over @p devices receivers with reach set
 *  ids @p reach_of. @p Dims fixes the box rank at compile time so the
 *  per-box overlap unrolls; 0 reads it from the view. */
template <int Dims>
CostModel::TrafficSplit
splitOverDevices(const CostModel::SourceView &have, const SliceRange *need,
                 const std::int32_t *reach_of, int devices)
{
    const int dims = Dims > 0 ? Dims : have.dims;
    const auto overlap = [dims](const SliceRange *a, const SliceRange *b) {
        std::int64_t vol = 1;
        // Branch-free intersection: whether boxes meet is data
        // dependent and mispredicts often.
        for (int d = 0; d < dims; ++d)
            vol *= std::max<std::int64_t>(
                0, std::min(a[d].end, b[d].end) -
                       std::max(a[d].start, b[d].start));
        return vol;
    };

    CostModel::TrafficSplit split;
    for (int dev = 0; dev < devices; ++dev) {
        const SliceRange *box = need + static_cast<std::size_t>(dev) * dims;
        const std::int32_t r = reach_of[dev];
        std::int64_t fast = 0;
        for (std::int32_t i = have.unionStart[r];
             i < have.unionStart[r + 1]; ++i)
            fast += overlap(box, have.unionBoxes.data() +
                                     static_cast<std::size_t>(i) * dims);
        std::int64_t volume = 1;
        for (int d = 0; d < dims; ++d)
            volume *= box[d].length();
        // The device's own box was counted fast (a device reaches
        // itself) but moves nothing; the source boxes tile the
        // tensor, so the rest of the need box comes over slow links.
        split.intraNode +=
            fast - overlap(box, have.own +
                                    static_cast<std::size_t>(dev) * dims);
        split.interNode += volume - fast;
    }
    return split;
}

} // namespace

CostModel::TrafficSplit
CostModel::trafficSplit(const SourceView &have, const SliceRange *need) const
{
    const int devices = topo.numDevices();
    switch (have.dims) {
    case 3:
        return splitOverDevices<3>(have, need, reachOf.data(), devices);
    case 4:
        return splitOverDevices<4>(have, need, reachOf.data(), devices);
    default:
        return splitOverDevices<0>(have, need, reachOf.data(), devices);
    }
}

CostModel::TrafficSplit
CostModel::trafficSplit(const TensorLayout &have,
                        const TensorLayout &need) const
{
    PRIMEPAR_ASSERT(have.numDevices() == topo.numDevices() &&
                        need.numDevices() == topo.numDevices(),
                    "layout device mismatch");
    const std::vector<SliceRange> have_boxes = flatBoxes(have);
    const std::vector<SliceRange> need_boxes = flatBoxes(need);
    return trafficSplit(sourceView(have_boxes.data(), have.dimSizes),
                        need_boxes.data());
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

} // namespace primepar
