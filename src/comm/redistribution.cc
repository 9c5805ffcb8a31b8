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

BoundaryBoxes::BoundaryBoxes(const OpSpec &op_in, int num_bits,
                             const TensorRef &ref, Phase phase_in,
                             const EdgeDimMap &dim_map,
                             const std::vector<std::int64_t> &transfer_sizes)
    : op(op_in), numBits(num_bits), phase(phase_in), dimMap(dim_map),
      sizes(transfer_sizes)
{
    checkDimMap(op, ref, dim_map, transfer_sizes);
}

void
BoundaryBoxes::read(const PartitionSeq &seq, int t, SliceRange *boxes) const
{
    PRIMEPAR_ASSERT(seq.numBits() == numBits, "sequence consumes ",
                    seq.numBits(), " bits, expected ", numBits);
    // Per-thread scratch: the slice count of every op dim, then one
    // device's DSI values (Algorithm 1 via evaluateDsi()).
    const std::size_t op_dims = op.dims.size();
    thread_local std::vector<std::int64_t> scratch;
    scratch.resize(2 * op_dims);
    std::int64_t *slices = scratch.data();
    std::int64_t *idx = slices + op_dims;
    seq.sliceCounts(op, slices);
    const std::int64_t devices = std::int64_t{1} << numBits;
    const std::size_t dims = dimMap.size();
    for (std::int64_t dev = 0; dev < devices; ++dev) {
        evaluateDsi(op, seq, numBits, phase, dev, t, idx);
        SliceRange *box = boxes + dev * dims;
        for (std::size_t i = 0; i < dims; ++i) {
            const int op_dim = dimMap[i];
            box[i] = op_dim < 0 ? SliceRange{0, sizes[i]}
                                : rescaledSlice(idx[op_dim],
                                                slices[op_dim], sizes[i]);
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

std::vector<SliceRange>
flatBoxes(const TensorLayout &layout)
{
    std::vector<SliceRange> boxes;
    boxes.reserve(static_cast<std::size_t>(layout.numDevices()) *
                  layout.dimSizes.size());
    for (const auto &box : layout.deviceBox)
        boxes.insert(boxes.end(), box.begin(), box.end());
    return boxes;
}

TensorLayout
layoutOf(const OpSpec &op, const PartitionSeq &seq, int num_bits,
         const TensorRef &ref, Phase phase, int t,
         const EdgeDimMap &dim_map,
         const std::vector<std::int64_t> &transfer_sizes)
{
    std::vector<SliceRange> boxes((std::size_t{1} << num_bits) *
                                  dim_map.size());
    BoundaryBoxes(op, num_bits, ref, phase, dim_map, transfer_sizes)
        .read(seq, t, boxes.data());
    return layoutFromBoxes(boxes.data(), std::int64_t{1} << num_bits,
                           transfer_sizes);
}

bool
ReplicaClass::heldBy(std::int64_t dev) const
{
    return std::binary_search(holders.begin(), holders.end(), dev);
}

std::vector<ReplicaClass>
replicaClasses(const std::vector<std::vector<SliceRange>> &boxes)
{
    std::map<std::vector<SliceRange>, std::vector<std::int64_t>> by_box;
    for (std::size_t dev = 0; dev < boxes.size(); ++dev)
        by_box[boxes[dev]].push_back(static_cast<std::int64_t>(dev));
    std::vector<ReplicaClass> classes;
    classes.reserve(by_box.size());
    for (auto &[box, holders] : by_box)
        classes.push_back({box, std::move(holders)});
    return classes;
}

RedistPlan
planRedistribution(const TensorLayout &have, const TensorLayout &need,
                   const ClusterTopology *topo)
{
    PRIMEPAR_ASSERT(have.numDevices() == need.numDevices(),
                    "layout device count mismatch");
    PRIMEPAR_ASSERT(have.dimSizes == need.dimSizes,
                    "layout dim size mismatch");

    const std::vector<ReplicaClass> classes =
        replicaClasses(have.deviceBox);

    RedistPlan plan;
    for (std::int64_t dst = 0; dst < need.numDevices(); ++dst) {
        const auto &need_box = need.deviceBox[dst];
        for (const ReplicaClass &rc : classes) {
            std::vector<SliceRange> region;
            std::int64_t volume = 1;
            bool empty = false;
            region.reserve(need_box.size());
            for (std::size_t d = 0; d < need_box.size(); ++d) {
                const std::int64_t s =
                    std::max(need_box[d].start, rc.box[d].start);
                const std::int64_t e =
                    std::min(need_box[d].end, rc.box[d].end);
                if (e <= s) {
                    empty = true;
                    break;
                }
                region.push_back({s, e});
                volume *= e - s;
            }
            if (empty)
                continue;

            if (rc.heldBy(dst)) {
                plan.localElements += volume;
                continue;
            }

            // Prefer a same-node replica when topology is known.
            std::int64_t src = rc.holders.front();
            if (topo) {
                for (std::int64_t h : rc.holders) {
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
