/**
 * @file
 * Partition primitives and partition sequences (paper Sec. 3).
 *
 * A partition strategy for an operator over 2^n devices is a *sequence*
 * of basic partitions that together consume the n device-id bits:
 *  - ByDim(X): conventional partition-by-dimension, halving dimension X
 *    across one device-id bit (Sec. 3.2, Eqs. 2-3);
 *  - PSquare(k): the novel spatial-temporal primitive P_{2^k x 2^k},
 *    consuming 2k consecutive bits and introducing 2^k temporal steps
 *    (Sec. 3.3, Eqs. 4-6).
 */

#ifndef PRIMEPAR_PARTITION_PARTITION_STEP_HH
#define PRIMEPAR_PARTITION_PARTITION_STEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "op_spec.hh"

namespace primepar {

/** One basic partition in a sequence. */
struct PartitionStep
{
    enum class Kind { ByDim, PSquare };

    Kind kind = Kind::ByDim;
    int dim = -1; ///< ByDim: dimension index partitioned
    int k = 0;    ///< PSquare: the k of P_{2^k x 2^k}

    /** Number of device-id bits this step consumes. */
    int bits() const { return kind == Kind::ByDim ? 1 : 2 * k; }

    static PartitionStep
    byDim(int dim)
    {
        PartitionStep s;
        s.kind = Kind::ByDim;
        s.dim = dim;
        return s;
    }

    static PartitionStep
    pSquare(int k)
    {
        PartitionStep s;
        s.kind = Kind::PSquare;
        s.k = k;
        return s;
    }

    auto operator<=>(const PartitionStep &) const = default;
};

/**
 * Parse the paper's sequence notation, e.g. "B,N,P2x2" (dimension
 * names of @p op, and PSxS for the spatial-temporal primitive).
 * Fatal on unknown tokens; the result is validated against @p op.
 */
class PartitionSeq;
PartitionSeq parseSequence(const OpSpec &op, const std::string &text);

/** A full partition sequence for one operator. */
class PartitionSeq
{
  public:
    PartitionSeq() = default;
    explicit PartitionSeq(std::vector<PartitionStep> steps)
        : stepsVec(std::move(steps))
    {}

    const std::vector<PartitionStep> &steps() const { return stepsVec; }

    /** Append a step. */
    void push(PartitionStep step) { stepsVec.push_back(step); }

    /** Total device-id bits consumed: must equal n for 2^n devices. */
    int numBits() const;

    /** Temporal steps 2^k of the contained PSquare, or 1 if none. */
    int temporalSteps() const;

    /** True iff the sequence contains a PSquare primitive. */
    bool hasPSquare() const;

    /** Index of the PSquare step or -1. */
    int pSquareIndex() const;

    /** Number of slices each dim is cut into under this sequence. */
    std::vector<std::int64_t> sliceCounts(const OpSpec &op) const;

    /** sliceCounts() written to slices[0 .. op.dims.size()). */
    void sliceCounts(const OpSpec &op, std::int64_t *slices) const;

    /**
     * Validate against an operator: partitioned dims must be
     * partitionable and divisible into the required slice counts, at
     * most one PSquare may appear and only on PSquare-capable ops.
     * @return empty string if valid, else a diagnostic.
     */
    std::string validate(const OpSpec &op) const;

    /** e.g. "M,P2x2,N" (paper Fig. 9 notation). */
    std::string toString(const OpSpec &op) const;

    bool operator==(const PartitionSeq &o) const = default;

  private:
    std::vector<PartitionStep> stepsVec;
};

} // namespace primepar

#endif // PRIMEPAR_PARTITION_PARTITION_STEP_HH
