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

double
CostModel::ringSetLatency(const OpSpec &op, const ShiftSet &set) const
{
    if (set.transfers.empty())
        return 0.0;
    const double bytes =
        static_cast<double>(set.elementsPerTransfer) * op.bytesPerElement;
    bool cross_node = false;
    for (const Transfer &tr : set.transfers) {
        if (!topo.sameNode(tr.sender, tr.receiver)) {
            cross_node = true;
            break;
        }
    }
    return models.ringHop[cross_node ? 1 : 0](bytes);
}

IntraCost
CostModel::intraCost(const OpPlan &plan) const
{
    const OpSpec &op = *plan.op;
    const DsiTable &dsi = plan.dsi;
    IntraCost cost;

    for (std::size_t p = 0; p < op.passes.size(); ++p) {
        const PassSpec &pass = op.passes[p];
        const PassComm &comm = plan.passComms[p];
        const int steps = dsi.steps();

        // Per-step sub-operator kernel latency.
        const double flops =
            op.passFlops(pass) /
            (static_cast<double>(dsi.numDevices()) * steps);
        double bytes = 0.0;
        for (const TensorRef &ref : pass.operands)
            bytes += static_cast<double>(
                         dsi.tensorSliceNumel(op, ref.tensor)) *
                     op.bytesPerElement;
        bytes += static_cast<double>(
                     dsi.tensorSliceNumel(op, pass.output.tensor)) *
                 op.bytesPerElement;
        const bool math_bound =
            op.kind == "linear" || op.kind == "matmul";
        const double kernel = math_bound
                                  ? models.matmulKernel(flops)
                                  : models.memoryKernel(bytes);

        // Eq. 7: sum over steps of max(compute, ring).
        for (int t = 0; t < steps; ++t) {
            double ring = 0.0;
            for (const ShiftSet &set : comm.stepShifts[t])
                ring += ringSetLatency(op, set);
            for (const ShiftSet &set : comm.accShifts[t])
                ring += ringSetLatency(op, set);
            cost.latencyUs += std::max(kernel, ring);
            cost.computeUs += kernel;
            cost.ringUs += ring;
        }

        // Grouped all-reduce through the fitted pattern model.
        if (comm.allReduce.has_value()) {
            const AllReduceSpec &spec = *comm.allReduce;
            const double payload =
                static_cast<double>(spec.elementsPerDevice) *
                op.bytesPerElement;
            const GroupPatternKey key =
                groupPatternKey(topo, spec.indicator);
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
    // expectations").
    if (op.normalizedDim >= 0 &&
        dsi.sliceCount(op.normalizedDim) > 1) {
        const TensorRef out{op.outputTensor, false};
        GroupIndicator bits;
        // Bits that slice the normalized dim: probe via footprint of a
        // pseudo-tensor — reuse the full footprint of the output and
        // intersect with the dim's variation.
        const int n = dsi.numBits();
        for (int b = 0; b < n; ++b) {
            const std::int64_t mask = std::int64_t{1} << (n - 1 - b);
            bool affects = false;
            for (std::int64_t dev = 0;
                 dev < dsi.numDevices() && !affects; ++dev) {
                if (dsi.value(Phase::Forward, dev, 0,
                              op.normalizedDim) !=
                    dsi.value(Phase::Forward, dev ^ mask, 0,
                              op.normalizedDim))
                    affects = true;
            }
            if (affects)
                bits.push_back(b);
        }
        if (!bits.empty()) {
            const std::int64_t rows =
                dsi.tensorSliceNumel(op, out.tensor) /
                dsi.sliceExtent(op.normalizedDim);
            const double payload = static_cast<double>(rows) * 2 * 4;
            const GroupPatternKey key = groupPatternKey(topo, bits);
            const auto it = models.allReduce.find(key);
            if (it != models.allReduce.end()) {
                const double dur = it->second(payload);
                cost.latencyUs += dur;
                cost.allReduceUs += dur;
            }
        }
    }

    cost.memoryBytes =
        opMemory(op, plan.seq, dsi, plan.passComms, memParams).total();
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
