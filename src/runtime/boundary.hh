/**
 * @file
 * Slice-to-slice movement of a tensor across an operator boundary
 * (paper Sec. 4.2, Eqs. 8-9).
 *
 * A producer's output stays as the per-device slices its executor
 * holds. Each consumer device's operand slot is filled straight from
 * the source slices that intersect it, by box copies; gradients flow
 * back the same way, by box accumulates. An edge's EdgeIndexMap
 * relates the two sides' coordinates: on the identity map a copy is a
 * producer box cut by a consumer box, on the attention edges the boxes
 * meet over the map's common axes (a fused dim such as the QKV
 * output's K = third * h + hd * E + e splits into its (Hd, E) axes).
 *
 * Source boxes group into replica classes as planRedistribution()
 * groups them (replicaClasses()). A class is read from the destination
 * device itself when it holds one, else from the first holder with
 * data, so the elements a copy takes from other devices are exactly
 * planRedistribution()'s transfers for the same two layouts.
 */

#ifndef PRIMEPAR_RUNTIME_BOUNDARY_HH
#define PRIMEPAR_RUNTIME_BOUNDARY_HH

#include <cstdint>
#include <vector>

#include "comm/redistribution.hh"
#include "graph/graph.hh"
#include "partition/dsi.hh"
#include "tensor/tensor.hh"

namespace primepar {

/** Every device's slice of one tensor, as this process sees it. */
struct SliceSet
{
    /** Full (unpartitioned) shape of the tensor. */
    Shape shape;
    /** Per device: the box its slice covers, in tensor coordinates. */
    std::vector<std::vector<SliceRange>> boxes;
    /** Per device: its slice in the owning executor's store (not
     *  owned), or null when another process owns the device. */
    std::vector<const Tensor *> held;
    /** Per device: a slice received from the owning process (empty
     *  where `held` is set). */
    std::vector<Tensor> received;

    /** @p full as the one slice of a one-device set; @p full must
     *  outlive the set. */
    static SliceSet whole(const Tensor &full);

    std::int64_t
    numDevices() const
    {
        return static_cast<std::int64_t>(boxes.size());
    }

    /** Device @p dev's slice data, or null when this process has
     *  none. */
    const Tensor *
    data(std::int64_t dev) const
    {
        if (held[dev])
            return held[dev];
        return received[dev].numel() > 0 ? &received[dev] : nullptr;
    }
};

/**
 * One edge's tensor moved from a source slice set into destination
 * slots by box intersection. Built once per edge and direction from
 * the source slices; into() then serves every destination device and
 * may run concurrently for distinct slots.
 */
class BoundaryCopy
{
  public:
    /**
     * @param map the edge's index map (identity = same layout)
     * @param forward true: @p src is the producer output, destinations
     *        are consumer operand slots; false: @p src is the consumer
     *        tensor's gradient, destinations are the producer's
     *        output-gradient slots
     * @param src source slices; must outlive this object
     */
    BoundaryCopy(const EdgeIndexMap &map, bool forward,
                 const SliceSet &src);

    /**
     * Write into @p slot — device @p dev's dense slice covering @p box
     * on the destination side — every element the sources hold there:
     * copied, or with @p accumulate added (slot += source, one add per
     * element). A copy must cover the whole slot. Returns the elements
     * read from another device's slice.
     */
    std::int64_t into(std::int64_t dev,
                      const std::vector<SliceRange> &box, Tensor &slot,
                      bool accumulate) const;

  private:
    /** One range per common axis. */
    using AxisBox = std::vector<SliceRange>;

    /** One side's view of the common axes. */
    struct Side
    {
        std::vector<EdgeIndexMap::Group> groups; ///< per dim
        std::vector<int> dimOf;                  ///< per axis
        std::vector<std::int64_t> weight;        ///< per axis, in its group
    };

    /** A distinct source box and the devices holding it. */
    struct Source
    {
        ReplicaClass replicas;
        std::vector<AxisBox> pieces;
        std::vector<std::int64_t> stride; ///< per axis, in the slice
        std::int64_t base = 0;            ///< offset of axis origin 0
    };

    Side makeSide(const std::vector<EdgeIndexMap::Group> &groups) const;
    /** @p box of @p side as disjoint boxes over the common axes. */
    std::vector<AxisBox> pieces(const Side &side,
                                const std::vector<SliceRange> &box) const;
    /** Per-axis element strides of a dense slice covering @p box on
     *  @p side, and the offset of axis origin 0 (returned). */
    std::int64_t strides(const Side &side,
                         const std::vector<SliceRange> &box,
                         std::vector<std::int64_t> &stride) const;

    EdgeIndexMap map;
    const SliceSet &src;
    Side srcSide;
    Side dstSide;
    /** The axes in the destination's row-major order (outermost
     *  first): the loop order of every box move. */
    std::vector<int> dstOrder;
    std::vector<Source> sources;
};

} // namespace primepar

#endif // PRIMEPAR_RUNTIME_BOUNDARY_HH
