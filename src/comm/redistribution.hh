/**
 * @file
 * Inter-operator tensor redistribution (paper Sec. 4.2, Eqs. 8-9).
 *
 * When the output of operator n1 feeds operator n2 and the two are
 * partitioned differently, every device must fetch the part of its
 * n2-input that its local n1-output does not cover. Distributions are
 * axis-aligned boxes derived from the boundary DSIs (last temporal
 * step of n1, first temporal step of n2); distinct producer boxes are
 * pairwise disjoint and tile the tensor, so the fetch decomposes
 * exactly into box intersections.
 */

#ifndef PRIMEPAR_COMM_REDISTRIBUTION_HH
#define PRIMEPAR_COMM_REDISTRIBUTION_HH

#include <cstdint>
#include <vector>

#include "partition/dsi.hh"
#include "partition/op_spec.hh"
#include "partition/partition_step.hh"
#include "topology/cluster.hh"

namespace primepar {

/**
 * Placement of a logical (transfer) tensor across devices: one box per
 * device, in transfer-tensor coordinates.
 */
struct TensorLayout
{
    std::vector<std::int64_t> dimSizes;           ///< transfer dims
    std::vector<std::vector<SliceRange>> deviceBox; ///< per device

    std::int64_t numDevices() const
    {
        return static_cast<std::int64_t>(deviceBox.size());
    }

    /** Element volume of one device's box. */
    std::int64_t boxVolume(std::int64_t device) const;
};

/**
 * Mapping from the dims of the transfer tensor onto the dims of the
 * holding operator. Entry i gives the op-dim index corresponding to
 * transfer dim i, or -1 if the op does not split that dim (the device
 * then holds the full range of it). Dimension *sizes* may differ
 * between the two operators (e.g. the fused QKV output dim maps onto
 * the head dim); slice boundaries are rescaled proportionally, which
 * is exact for the power-of-two slice counts PrimePar produces.
 */
using EdgeDimMap = std::vector<int>;

/**
 * Build the layout of a transfer tensor with dims @p transfer_sizes as
 * held by operator @p op under @p dsi, reading tensor @p ref at
 * (@p phase, @p t). @p dim_map maps transfer dims to op dims.
 */
TensorLayout layoutOf(const OpSpec &op, const DsiTable &dsi,
                      const TensorRef &ref, Phase phase, int t,
                      const EdgeDimMap &dim_map,
                      const std::vector<std::int64_t> &transfer_sizes);

/**
 * The boxes of layoutOf() read straight off a sequence, for one
 * boundary (tensor @p ref of @p op in @p phase) and many sequences, as
 * an edge table reads every candidate of an endpoint: Algorithm 1 at
 * each device (evaluateDsi()) instead of a DsiTable, written flat as
 * [device * dim_map.size() + i], 2^num_bits devices. The dim map is
 * checked once, here, and reading a sequence builds no per-sequence
 * table and allocates nothing (its scratch is per thread). Holds
 * references: @p op, @p dim_map and @p transfer_sizes must outlive it.
 */
class BoundaryBoxes
{
  public:
    BoundaryBoxes(const OpSpec &op, int num_bits, const TensorRef &ref,
                  Phase phase, const EdgeDimMap &dim_map,
                  const std::vector<std::int64_t> &transfer_sizes);

    /** The boxes of @p seq at step @p t. */
    void read(const PartitionSeq &seq, int t, SliceRange *boxes) const;

  private:
    const OpSpec &op;
    int numBits;
    Phase phase;
    const EdgeDimMap &dimMap;
    const std::vector<std::int64_t> &sizes;
};

/** The layout of @p devices flat @p boxes, laid out as
 * BoundaryBoxes::read() writes them: transfer_sizes.size() ranges per
 * device. */
TensorLayout layoutFromBoxes(const SliceRange *boxes, std::int64_t devices,
                             const std::vector<std::int64_t> &transfer_sizes);

/** The inverse of layoutFromBoxes(): @p layout's device boxes, flat. */
std::vector<SliceRange> flatBoxes(const TensorLayout &layout);

/** layoutOf() of @p seq over @p num_bits bits, via BoundaryBoxes. */
TensorLayout layoutOf(const OpSpec &op, const PartitionSeq &seq,
                      int num_bits, const TensorRef &ref, Phase phase,
                      int t, const EdgeDimMap &dim_map,
                      const std::vector<std::int64_t> &transfer_sizes);

/** The devices holding one distinct source box (its replicas). */
struct ReplicaClass
{
    std::vector<SliceRange> box;
    std::vector<std::int64_t> holders; ///< ascending

    /** True if @p dev holds the box itself: it reads it locally. */
    bool heldBy(std::int64_t dev) const;
};

/**
 * Group per-device boxes @p boxes into replica classes: one per
 * distinct box, in box order, with its holders ascending. The one
 * replica policy of planRedistribution() and the runtime's
 * BoundaryCopy: a destination holding a class reads it locally; which
 * other holder serves it is each caller's choice.
 */
std::vector<ReplicaClass>
replicaClasses(const std::vector<std::vector<SliceRange>> &boxes);

/** One box moved from one device to another. */
struct BlockTransfer
{
    std::int64_t src = -1;
    std::int64_t dst = -1;
    std::vector<SliceRange> region;
    std::int64_t elements = 0;
};

/** A complete redistribution plan between two layouts. */
struct RedistPlan
{
    std::vector<BlockTransfer> transfers;
    /** Total elements moved across all devices (Eq. 9 numerator). */
    std::int64_t totalElements = 0;
    /** Elements that stayed local (the intersection term of Eq. 9). */
    std::int64_t localElements = 0;
};

/**
 * Plan the redistribution turning layout @p have into layout @p need.
 *
 * For each destination device the needed box is intersected with the
 * distinct source boxes; intersections held locally cost nothing,
 * others become transfers. When @p topo is given, replicated source
 * boxes are fetched from a same-node holder when possible.
 */
RedistPlan planRedistribution(const TensorLayout &have,
                              const TensorLayout &need,
                              const ClusterTopology *topo = nullptr);

} // namespace primepar

#endif // PRIMEPAR_COMM_REDISTRIBUTION_HH
