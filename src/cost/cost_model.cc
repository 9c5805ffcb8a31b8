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

CostModel::PreparedSource
CostModel::prepareSource(const TensorLayout &have) const
{
    PRIMEPAR_ASSERT(have.numDevices() == topo.numDevices(),
                    "layout device mismatch");
    PreparedSource src;
    src.dims = static_cast<int>(have.deviceBox[0].size());
    std::map<std::vector<SliceRange>, std::int32_t> index;
    src.boxOfDevice.resize(static_cast<std::size_t>(have.numDevices()));
    std::int64_t covered = 0;
    for (std::int64_t dev = 0; dev < have.numDevices(); ++dev) {
        const auto &box = have.deviceBox[dev];
        const auto [it, inserted] =
            index.emplace(box, static_cast<std::int32_t>(index.size()));
        if (inserted) {
            src.boxes.insert(src.boxes.end(), box.begin(), box.end());
            covered += have.boxVolume(dev);
        }
        src.boxOfDevice[dev] = it->second;
    }

    // Per dim, distinct realized intervals must be pairwise disjoint
    // (layoutOf() gives each dim one slice partition), so distinct
    // boxes are disjoint; with the volume check they tile the tensor.
    std::vector<SliceRange> ivs;
    for (int d = 0; d < src.dims; ++d) {
        ivs.clear();
        for (const auto &entry : index)
            ivs.push_back(entry.first[d]);
        std::sort(ivs.begin(), ivs.end());
        ivs.erase(std::unique(ivs.begin(), ivs.end()), ivs.end());
        for (std::size_t i = 1; i < ivs.size(); ++i) {
            PRIMEPAR_ASSERT(ivs[i - 1].end <= ivs[i].start,
                            "source boxes overlap in dim ", d,
                            ": not a product grid");
        }
    }
    std::int64_t tensor = 1;
    for (const std::int64_t size : have.dimSizes)
        tensor *= size;
    PRIMEPAR_ASSERT(covered == tensor, "source boxes cover ", covered,
                    " of ", tensor, " elements: not a tiling");

    // Distinct (domain, box) holdings, grouped by domain.
    std::vector<std::pair<std::int32_t, std::int32_t>> held;
    held.reserve(src.boxOfDevice.size());
    for (std::size_t dev = 0; dev < src.boxOfDevice.size(); ++dev)
        held.emplace_back(domainOf[dev], src.boxOfDevice[dev]);
    std::sort(held.begin(), held.end());
    held.erase(std::unique(held.begin(), held.end()), held.end());
    src.domainStart.assign(static_cast<std::size_t>(numDomains) + 1, 0);
    src.domainBoxes.reserve(held.size());
    for (const auto &[dom, box] : held) {
        ++src.domainStart[dom + 1];
        src.domainBoxes.push_back(box);
    }
    std::partial_sum(src.domainStart.begin(), src.domainStart.end(),
                     src.domainStart.begin());
    return src;
}

CostModel::PreparedNeed
CostModel::prepareNeed(const TensorLayout &need) const
{
    PRIMEPAR_ASSERT(need.numDevices() == topo.numDevices(),
                    "layout device mismatch");
    PreparedNeed out;
    std::map<std::vector<SliceRange>, std::int32_t> box_ids;
    std::map<std::pair<std::int32_t, std::int32_t>, std::int32_t>
        group_ids;
    for (std::int64_t dev = 0; dev < need.numDevices(); ++dev) {
        const auto [bit, binserted] = box_ids.emplace(
            need.deviceBox[dev],
            static_cast<std::int32_t>(out.boxes.size()));
        if (binserted)
            out.boxes.push_back(need.deviceBox[dev]);
        const std::int32_t reach = reachOf[dev];
        const auto [git, ginserted] = group_ids.emplace(
            std::make_pair(bit->second, reach),
            static_cast<std::int32_t>(out.groups.size()));
        if (ginserted) {
            PreparedNeed::Group g;
            g.box = bit->second;
            g.reach = reach;
            out.groups.push_back(std::move(g));
        }
        out.groups[git->second].devices.push_back(
            static_cast<std::int32_t>(dev));
    }
    return out;
}

CostModel::TrafficSplit
CostModel::trafficSplit(const PreparedSource &have,
                        const PreparedNeed &need) const
{
    const int dims = have.dims;
    const auto overlap = [&](const std::vector<SliceRange> &need_box,
                             std::int32_t box) {
        const SliceRange *b =
            have.boxes.data() + static_cast<std::size_t>(box) * dims;
        std::int64_t vol = 1;
        for (int d = 0; d < dims && vol != 0; ++d)
            vol *= need_box[d].intersect(b[d]);
        return vol;
    };

    TrafficSplit split;
    std::vector<std::int32_t> seen;
    for (const PreparedNeed::Group &g : need.groups) {
        const auto &need_box = need.boxes[g.box];
        const std::vector<std::int32_t> &reach = reachSets[g.reach];

        // Fast share: the overlap with every distinct box held in a
        // reached domain. One domain's boxes are distinct already;
        // across several (torus neighbours) they are deduplicated.
        std::int64_t fast = 0;
        seen.clear();
        for (const std::int32_t dom : reach) {
            for (std::int32_t i = have.domainStart[dom];
                 i < have.domainStart[dom + 1]; ++i) {
                const std::int32_t box = have.domainBoxes[i];
                if (reach.size() > 1) {
                    if (std::find(seen.begin(), seen.end(), box) !=
                        seen.end())
                        continue;
                    seen.push_back(box);
                }
                fast += overlap(need_box, box);
            }
        }
        // The source boxes tile the tensor: the rest of the need box
        // comes over slow links.
        std::int64_t slow = 1;
        for (const SliceRange &r : need_box)
            slow *= r.length();
        slow -= fast;

        // Each member device's own box was counted fast (a device
        // reaches itself) but moves nothing: subtract its overlap.
        for (const std::int32_t dev : g.devices) {
            split.intraNode +=
                fast - overlap(need_box, have.boxOfDevice[dev]);
            split.interNode += slow;
        }
    }
    return split;
}

CostModel::TrafficSplit
CostModel::trafficSplit(const TensorLayout &have,
                        const TensorLayout &need) const
{
    return trafficSplit(prepareSource(have), prepareNeed(need));
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
