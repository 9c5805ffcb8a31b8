/**
 * @file
 * Communication pattern derivation.
 *
 * All communication in PrimePar follows mechanically from the DSIs:
 *
 *  - *Ring shifts*: when an operand's DSI changes between temporal
 *    steps, each device receives the slice it needs next from the
 *    (unique) peer that currently holds it. For P_{2^k x 2^k} these
 *    are exactly the neighbour rings of the paper's Table 1, but this
 *    module derives them generically from the DSI table, so composed
 *    sequences are handled uniformly.
 *  - *Accumulator shifts*: when the output block a device accumulates
 *    changes between steps (dW at the last Gradient step), the partial
 *    accumulator migrates the same way.
 *  - *Transition shifts*: parameter tensors must return to their
 *    Forward-start distribution by the end of the last phase using
 *    them (feature 3); any residual mismatch becomes a shift that is
 *    overlapped with the last step (W in Backward, Table 1).
 *  - *All-reduces*: devices that compute the same output block but
 *    different slices of a contracted dimension form grouped
 *    all-reduces (conventional partition-by-dimension, Sec. 3.2).
 */

#ifndef PRIMEPAR_PARTITION_COMM_PATTERN_HH
#define PRIMEPAR_PARTITION_COMM_PATTERN_HH

#include <optional>
#include <vector>

#include "dsi.hh"
#include "op_spec.hh"
#include "topology/groups.hh"

namespace primepar {

/** One point-to-point transfer: @p receiver pulls from @p sender. */
struct Transfer
{
    std::int64_t receiver = -1;
    std::int64_t sender = -1;
};

/** All transfers of one tensor between two consecutive steps. */
struct ShiftSet
{
    TensorRef tensor;
    /** One entry per device that receives; devices whose slice does
     *  not change are absent. */
    std::vector<Transfer> transfers;
    /** Element count of the moved slice (per transfer). */
    std::int64_t elementsPerTransfer = 0;
};

/** Grouped all-reduce of a pass output. */
struct AllReduceSpec
{
    TensorRef tensor;
    std::vector<DeviceGroup> groups;
    /** Device-id bit positions varying within each group. */
    GroupIndicator indicator;
    /** Per-device element count of the reduced slice. */
    std::int64_t elementsPerDevice = 0;
};

/** Complete communication schedule of one pass. */
struct PassComm
{
    int passIndex = -1;
    /**
     * stepShifts[t] holds the shifts executed concurrently with
     * compute step t, delivering operands for step t+1
     * (t in [0, steps-1)). Entry steps-1, when present, is the
     * phase-transition shift of parameter tensors overlapping the
     * last step.
     */
    std::vector<std::vector<ShiftSet>> stepShifts;
    /** Accumulator migrations, indexed like stepShifts. */
    std::vector<std::vector<ShiftSet>> accShifts;
    /** All-reduce at pass end if any device holds partial sums. */
    std::optional<AllReduceSpec> allReduce;
};

/**
 * Derive the communication schedule of pass @p pass_index.
 *
 * Ring senders are searched within the PSquare group of the receiver
 * (devices agreeing on all non-PSquare bits); the derivation panics if
 * a needed slice has no holder, which would indicate an invalid
 * primitive.
 */
PassComm derivePassComm(const OpSpec &op, const PartitionSeq &seq,
                        const DsiTable &dsi, int pass_index);

/**
 * Transition shift of parameter tensor @p tensor from its distribution
 * at the end of @p from_phase back to the start of @p to_phase
 * (typically Backward -> Forward for W). Empty transfers if already
 * aligned.
 */
ShiftSet deriveTransitionShift(const OpSpec &op, const PartitionSeq &seq,
                               const DsiTable &dsi, const TensorRef &tensor,
                               Phase from_phase, Phase to_phase);

/**
 * Maximum replication factor of @p tensor at (phase, t): the largest
 * number of devices holding an identical slice tuple. 1 means the
 * tensor is never replicated (feature 2).
 */
int replicationFactor(const OpSpec &op, const DsiTable &dsi,
                      const TensorRef &tensor, Phase phase, int t);

/**
 * Bits of the device id whose flip changes the DSI tuple of @p tensor
 * in @p phase at step 0 — the spatial footprint of the tensor. The
 * complement of this set is the replication indicator.
 */
GroupIndicator tensorFootprintBits(const OpSpec &op, const DsiTable &dsi,
                                   const TensorRef &tensor, Phase phase);

/** Index of the first pass whose operands include @p ref, or -1. */
int firstPassUsing(const OpSpec &op, const TensorRef &ref);

/** Index of the last pass whose operands include @p ref, or -1. */
int lastPassUsing(const OpSpec &op, const TensorRef &ref);

/**
 * The communication of a sequence read off its device-id bit
 * structure, without a per-device DsiTable. Slice sizes are uniform
 * across devices, and devices that differ only in non-PSquare bits see
 * the same ring moves: a ByDim bit shifts every DSI of its ring group
 * by the same offset. So one ring group — the devices whose
 * non-PSquare bits are all zero, "group 0" — answers for all of them,
 * through the PSquare index formulas (pSquareIndex()). Every query
 * equals what derivePassComm() / deriveTransitionShift() derive from
 * the full table. The cost model prices Eq. 7 from this view.
 */
class SymbolicComm
{
  public:
    /** @p seq must be valid for @p op and consume @p num_bits bits. */
    SymbolicComm(const OpSpec &op, const PartitionSeq &seq, int num_bits);

    /** Temporal steps per phase (1 without a PSquare). */
    int steps() const { return side; }

    /** Slices of every dim (PartitionSeq::sliceCounts()). */
    const std::vector<std::int64_t> &sliceCounts() const
    {
        return slices;
    }

    /** Element length of one slice of @p dim. */
    std::int64_t sliceExtent(int dim) const
    {
        return op.dims[dim].size / slices[dim];
    }

    /** Per-device element count of a slice of @p tensor. */
    std::int64_t sliceNumel(int tensor) const;

    /** Device-id mask of the PSquare bits (0 without a PSquare): a
     *  ring group is a coset of this mask. */
    std::int64_t groupMask() const { return gridMask << low; }

    /**
     * Visit every non-empty shift of pass @p pass_index in the order
     * derivePassComm() lists them: for each step t, the operand ring
     * shifts (at the last step instead the transition shifts of
     * parameters), then the accumulator shift. Calls
     * visit(t, ref, moves): moves restricts the shift to group 0, one
     * (receiver, sender) per device that moves, receivers ascending;
     * group G (a device id with no PSquare bit set) moves
     * (G | receiver, G | sender).
     */
    template <class Visit>
    void forEachShift(int pass_index, Visit &&visit);

    /**
     * Device-id bits that vary among devices holding the same block of
     * @p ref at (@p phase, @p t) — the all-reduce group indicator of a
     * pass output, as a mask. 0 iff every block has one holder.
     */
    std::int64_t sharedBits(const TensorRef &ref, Phase phase, int t);

    /** Device-id bits whose flip changes I_dim(phase, device, t). */
    std::int64_t dimBits(int dim, Phase phase, int t) const;

  private:
    /** Group 0 of the shift of @p ref from each device's slice at
     *  (@p from_phase, @p from_t) to its slice at (@p to_phase,
     *  @p to_t); empty iff nothing moves. Valid until the next call. */
    const std::vector<Transfer> &shift(const TensorRef &ref,
                                       Phase from_phase, int from_t,
                                       Phase to_phase, int to_t);
    /** Key of @p ref's PSquare slice indices at grid index @p x:
     *  radix side per PSquare dim of the tensor, so two group-0
     *  devices hold the same slice iff their keys match. */
    std::int64_t gridKey(const TensorRef &ref, Phase phase, int t,
                         std::size_t x) const;
    /** Number of distinct gridKey() values of @p ref. */
    std::int64_t keySpace(const TensorRef &ref) const;
    /** The entry of @p at for @p dim, or -1 when @p dim is not a
     *  PSquare dim. */
    std::int64_t component(const PSquareIndex &at, int dim) const;

    const OpSpec &op;
    std::vector<std::int64_t> slices;
    /** Device-id mask of the ByDim bits of each dim. */
    std::vector<std::int64_t> byDimBits;
    int k = 0;
    int side = 1;
    /** Group-0 device id of grid index x is x << low. */
    int low = 0;
    std::int64_t gridMask = 0;
    std::vector<PSquareCoord> coords; ///< per grid index
    std::vector<std::int64_t> fromKey, toKey;
    std::vector<std::int32_t> holder;
    std::vector<Transfer> moves;
};

template <class Visit>
void
SymbolicComm::forEachShift(int pass_index, Visit &&visit)
{
    const PassSpec &pass = op.passes[pass_index];
    for (int t = 0; t + 1 < side; ++t) {
        for (const TensorRef &ref : pass.operands) {
            const auto &m = shift(ref, pass.phase, t, pass.phase, t + 1);
            if (!m.empty())
                visit(t, ref, m);
        }
        const auto &acc =
            shift(pass.output, pass.phase, t, pass.phase, t + 1);
        if (!acc.empty())
            visit(t, pass.output, acc);
    }
    for (const TensorRef &ref : pass.operands) {
        if (ref.grad || !op.tensors[ref.tensor].isParameter ||
            lastPassUsing(op, ref) != pass_index)
            continue;
        const Phase to = op.passes[firstPassUsing(op, ref)].phase;
        const auto &m = shift(ref, pass.phase, side - 1, to, 0);
        if (!m.empty())
            visit(side - 1, ref, m);
    }
}

} // namespace primepar

#endif // PRIMEPAR_PARTITION_COMM_PATTERN_HH
