#include "redistribution.hh"

#include <algorithm>
#include <bit>
#include <map>

#include "support/logging.hh"

namespace primepar {

std::int64_t
TensorLayout::boxVolume(std::int64_t device) const
{
    std::int64_t v = 1;
    for (const auto &r : deviceBox[device])
        v *= r.length();
    return v;
}

namespace {

void
checkDimMap(const OpSpec &op, const TensorRef &ref,
            const EdgeDimMap &dim_map,
            const std::vector<std::int64_t> &transfer_sizes)
{
    PRIMEPAR_ASSERT(dim_map.size() == transfer_sizes.size(),
                    "edge dim map size mismatch");
    for (int op_dim : dim_map) {
        if (op_dim < 0)
            continue;
        const auto &dims = op.tensors[ref.tensor].dims;
        PRIMEPAR_ASSERT(std::find(dims.begin(), dims.end(), op_dim) !=
                            dims.end(),
                        "edge maps transfer dim onto dim ", op_dim,
                        " absent from tensor ", op.refName(ref), " of ",
                        op.name);
    }
}

/**
 * Slice @p idx of @p slices of an op dim, rescaled into transfer-dim
 * units: slice j of s covers [j/s, (j+1)/s) of the dimension.
 * Floor-based boundaries tile the dim exactly even when the transfer
 * size is not divisible by the slice count (e.g. 112 heads over 32
 * ways). Slice counts are powers of two, so the floor is a shift.
 */
SliceRange
rescaledSlice(std::int64_t idx, std::int64_t slices, std::int64_t size)
{
    const int shift = std::countr_zero(static_cast<std::uint64_t>(slices));
    return {(idx * size) >> shift, ((idx + 1) * size) >> shift};
}

} // namespace

TensorLayout
layoutOf(const OpSpec &op, const DsiTable &dsi, const TensorRef &ref,
         Phase phase, int t, const EdgeDimMap &dim_map,
         const std::vector<std::int64_t> &transfer_sizes)
{
    checkDimMap(op, ref, dim_map, transfer_sizes);
    TensorLayout layout;
    layout.dimSizes = transfer_sizes;
    layout.deviceBox.resize(dsi.numDevices());

    for (std::int64_t dev = 0; dev < dsi.numDevices(); ++dev) {
        auto &box = layout.deviceBox[dev];
        box.reserve(dim_map.size());
        for (std::size_t i = 0; i < dim_map.size(); ++i) {
            const int op_dim = dim_map[i];
            box.push_back(op_dim < 0
                              ? SliceRange{0, transfer_sizes[i]}
                              : rescaledSlice(
                                    dsi.value(phase, dev, t, op_dim),
                                    dsi.sliceCount(op_dim),
                                    transfer_sizes[i]));
        }
    }
    return layout;
}

void
layoutBoxes(const OpSpec &op, const PartitionSeq &seq, int num_bits,
            const TensorRef &ref, Phase phase, int t,
            const EdgeDimMap &dim_map,
            const std::vector<std::int64_t> &transfer_sizes,
            std::vector<SliceRange> &boxes)
{
    checkDimMap(op, ref, dim_map, transfer_sizes);
    PRIMEPAR_ASSERT(seq.numBits() == num_bits, "sequence consumes ",
                    seq.numBits(), " bits, expected ", num_bits);
    const std::vector<std::int64_t> slices = seq.sliceCounts(op);
    const std::int64_t devices = std::int64_t{1} << num_bits;
    const std::size_t dims = dim_map.size();
    boxes.resize(static_cast<std::size_t>(devices) * dims);
    std::vector<std::int64_t> idx(op.dims.size());
    for (std::int64_t dev = 0; dev < devices; ++dev) {
        evaluateDsi(op, seq, num_bits, phase, dev, t, idx.data());
        SliceRange *box = boxes.data() + dev * dims;
        for (std::size_t i = 0; i < dims; ++i) {
            const int op_dim = dim_map[i];
            box[i] = op_dim < 0 ? SliceRange{0, transfer_sizes[i]}
                                : rescaledSlice(idx[op_dim],
                                                slices[op_dim],
                                                transfer_sizes[i]);
        }
    }
}

TensorLayout
layoutFromBoxes(const SliceRange *boxes, std::int64_t devices,
                const std::vector<std::int64_t> &transfer_sizes)
{
    TensorLayout layout;
    layout.dimSizes = transfer_sizes;
    layout.deviceBox.resize(static_cast<std::size_t>(devices));
    const std::size_t dims = transfer_sizes.size();
    for (std::size_t dev = 0; dev < layout.deviceBox.size(); ++dev) {
        layout.deviceBox[dev].assign(boxes + dev * dims,
                                     boxes + (dev + 1) * dims);
    }
    return layout;
}

TensorLayout
layoutOf(const OpSpec &op, const PartitionSeq &seq, int num_bits,
         const TensorRef &ref, Phase phase, int t,
         const EdgeDimMap &dim_map,
         const std::vector<std::int64_t> &transfer_sizes)
{
    std::vector<SliceRange> boxes;
    layoutBoxes(op, seq, num_bits, ref, phase, t, dim_map, transfer_sizes,
                boxes);
    return layoutFromBoxes(boxes.data(), std::int64_t{1} << num_bits,
                           transfer_sizes);
}

RedistPlan
planRedistribution(const TensorLayout &have, const TensorLayout &need,
                   const ClusterTopology *topo)
{
    PRIMEPAR_ASSERT(have.numDevices() == need.numDevices(),
                    "layout device count mismatch");
    PRIMEPAR_ASSERT(have.dimSizes == need.dimSizes,
                    "layout dim size mismatch");

    // Group source devices by identical box (replicas).
    std::map<std::vector<SliceRange>, std::vector<std::int64_t>> classes;
    for (std::int64_t dev = 0; dev < have.numDevices(); ++dev)
        classes[have.deviceBox[dev]].push_back(dev);

    RedistPlan plan;
    for (std::int64_t dst = 0; dst < need.numDevices(); ++dst) {
        const auto &need_box = need.deviceBox[dst];
        for (const auto &[src_box, holders] : classes) {
            std::vector<SliceRange> region;
            std::int64_t volume = 1;
            bool empty = false;
            region.reserve(need_box.size());
            for (std::size_t d = 0; d < need_box.size(); ++d) {
                const std::int64_t s =
                    std::max(need_box[d].start, src_box[d].start);
                const std::int64_t e =
                    std::min(need_box[d].end, src_box[d].end);
                if (e <= s) {
                    empty = true;
                    break;
                }
                region.push_back({s, e});
                volume *= e - s;
            }
            if (empty)
                continue;

            // Local if this device holds the source box itself.
            bool local = false;
            for (std::int64_t h : holders) {
                if (h == dst) {
                    local = true;
                    break;
                }
            }
            if (local) {
                plan.localElements += volume;
                continue;
            }

            // Prefer a same-node replica when topology is known.
            std::int64_t src = holders.front();
            if (topo) {
                for (std::int64_t h : holders) {
                    if (topo->sameNode(h, dst)) {
                        src = h;
                        break;
                    }
                }
            }
            plan.transfers.push_back(
                {src, dst, std::move(region), volume});
            plan.totalElements += volume;
        }
    }
    return plan;
}

} // namespace primepar
