#include "cost_model.hh"

#include <algorithm>
#include <bit>
#include <map>
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
    // holder-mask hit is exactly "some holder has sameNode()".
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
        if (inserted) {
            std::vector<MaskWord> words;
            for (const std::int32_t d : reach) {
                if (words.empty() || words.back().word != d / 64)
                    words.push_back({d / 64, 0});
                words.back().bits |= std::uint64_t{1} << (d % 64);
            }
            reachSets.push_back(std::move(words));
        }
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
    std::map<std::vector<SliceRange>, std::int32_t> index;
    src.boxOfDevice.resize(static_cast<std::size_t>(have.numDevices()));
    for (std::int64_t dev = 0; dev < have.numDevices(); ++dev) {
        const auto [it, inserted] = index.emplace(
            have.deviceBox[dev],
            static_cast<std::int32_t>(src.boxes.size()));
        if (inserted)
            src.boxes.push_back(have.deviceBox[dev]);
        src.boxOfDevice[dev] = it->second;
    }
    const int num_boxes = static_cast<int>(src.boxes.size());
    src.dims = num_boxes > 0 ? static_cast<int>(src.boxes[0].size()) : 0;

    src.maskWords = (numDomains + 63) / 64;
    src.holderMask.assign(
        static_cast<std::size_t>(num_boxes) * src.maskWords, 0);
    for (std::int64_t dev = 0; dev < have.numDevices(); ++dev) {
        const std::int32_t dom = domainOf[dev];
        src.holderMask[static_cast<std::size_t>(src.boxOfDevice[dev]) *
                           src.maskWords +
                       dom / 64] |= std::uint64_t{1} << (dom % 64);
    }

    // Per-dim realized intervals: layoutOf() gives each dim one slice
    // partition, so they are pairwise disjoint.
    src.intervals.resize(src.dims);
    src.tuple.assign(static_cast<std::size_t>(num_boxes) * src.dims, 0);
    for (int d = 0; d < src.dims; ++d) {
        std::map<SliceRange, std::int32_t> ids;
        for (int b = 0; b < num_boxes; ++b)
            ids.emplace(src.boxes[b][d], 0);
        auto &ivs = src.intervals[d];
        ivs.reserve(ids.size());
        std::int32_t id = 0;
        for (auto &[range, assigned] : ids) {
            PRIMEPAR_ASSERT(ivs.empty() || ivs.back().end <= range.start,
                            "source boxes overlap in dim ", d,
                            ": not a product grid");
            assigned = id++;
            ivs.push_back(range);
        }
        for (int b = 0; b < num_boxes; ++b) {
            src.tuple[static_cast<std::size_t>(b) * src.dims + d] =
                ids[src.boxes[b][d]];
        }
    }
    src.order.resize(num_boxes);
    for (int b = 0; b < num_boxes; ++b)
        src.order[b] = b;
    const std::int32_t *tuple = src.tuple.data();
    const int dims = src.dims;
    std::sort(src.order.begin(), src.order.end(),
              [tuple, dims](std::int32_t a, std::int32_t b) {
                  for (int d = 0; d < dims; ++d) {
                      const std::int32_t ta = tuple[a * dims + d];
                      const std::int32_t tb = tuple[b * dims + d];
                      if (ta != tb)
                          return ta < tb;
                  }
                  return a < b;
              });
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
    TrafficSplit split;
    const int dims = have.dims;
    std::vector<std::int32_t> lo(dims), hi(dims);
    std::vector<std::vector<std::int64_t>> ovl(dims);

    for (const PreparedNeed::Group &g : need.groups) {
        const auto &need_box = need.boxes[g.box];
        const std::vector<MaskWord> &reach = reachSets[g.reach];

        // Per-dim overlapping interval-id ranges and overlap lengths.
        bool empty = false;
        for (int d = 0; d < dims; ++d) {
            const auto &ivs = have.intervals[d];
            const SliceRange &nr = need_box[d];
            // First interval with end > nr.start.
            const auto first = std::upper_bound(
                ivs.begin(), ivs.end(), nr.start,
                [](std::int64_t s, const SliceRange &r) {
                    return s < r.end;
                });
            // First interval with start >= nr.end.
            const auto last = std::lower_bound(
                first, ivs.end(), nr.end,
                [](const SliceRange &r, std::int64_t e) {
                    return r.start < e;
                });
            lo[d] = static_cast<std::int32_t>(first - ivs.begin());
            hi[d] = static_cast<std::int32_t>(last - ivs.begin());
            if (lo[d] >= hi[d]) {
                empty = true;
                break;
            }
            ovl[d].assign(hi[d] - lo[d], 0);
            for (std::int32_t id = lo[d]; id < hi[d]; ++id)
                ovl[d][id - lo[d]] = nr.intersect(ivs[id]);
        }

        std::int64_t group_intra = 0, group_inter = 0;
        if (!empty) {
            // Walk the lex-sorted boxes, narrowing to the tuple
            // rectangle one dim at a time.
            const std::int32_t *tuple = have.tuple.data();
            const auto descend = [&](auto &&self, int level,
                                     std::int32_t b0, std::int32_t b1,
                                     std::int64_t vol) -> void {
                if (level == dims) {
                    for (std::int32_t i = b0; i < b1; ++i) {
                        const std::uint64_t *mask =
                            have.holderMask.data() +
                            static_cast<std::size_t>(have.order[i]) *
                                have.maskWords;
                        const bool fast = std::any_of(
                            reach.begin(), reach.end(),
                            [mask](const MaskWord &m) {
                                return (mask[m.word] & m.bits) != 0;
                            });
                        (fast ? group_intra : group_inter) += vol;
                    }
                    return;
                }
                for (std::int32_t id = lo[level]; id < hi[level];
                     ++id) {
                    const auto cmp = [&](std::int32_t box,
                                         std::int32_t v) {
                        return tuple[box * dims + level] < v;
                    };
                    const auto s0 = std::lower_bound(
                        have.order.begin() + b0,
                        have.order.begin() + b1, id, cmp);
                    const auto s1 = std::lower_bound(
                        s0, have.order.begin() + b1, id + 1, cmp);
                    if (s0 != s1) {
                        self(self, level + 1,
                             static_cast<std::int32_t>(
                                 s0 - have.order.begin()),
                             static_cast<std::int32_t>(
                                 s1 - have.order.begin()),
                             vol * ovl[level][id - lo[level]]);
                    }
                }
            };
            descend(descend, 0, 0,
                    static_cast<std::int32_t>(have.order.size()), 1);
        }

        // Each member device's own box was classified fast above (a
        // device reaches itself) but moves nothing: subtract its
        // overlap.
        for (const std::int32_t dev : g.devices) {
            const auto &own_box = have.boxes[have.boxOfDevice[dev]];
            std::int64_t own_vol = 1;
            for (int d = 0; d < dims && own_vol != 0; ++d)
                own_vol *= need_box[d].intersect(own_box[d]);
            split.intraNode += group_intra - own_vol;
            split.interNode += group_inter;
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
