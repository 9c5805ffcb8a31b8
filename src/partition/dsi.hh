/**
 * @file
 * Dimension Slice Index (DSI) evaluation — Algorithm 1 of the paper.
 *
 * A DSI records, for every (phase, device, temporal step, dimension),
 * which slice of that dimension the sub-operator executed there holds.
 * Every partition plan in PrimePar's space is uniquely represented by
 * its DSIs (Sec. 3.1); all downstream analyses — replication, ring
 * communication patterns, all-reduce groups, phase alignment,
 * inter-operator redistribution, and the functional executor — are
 * derived from this table.
 *
 * ByDim steps update the partitioned dimension identically in all
 * phases (Eqs. 2-3); the PSquare primitive applies Eqs. 4-6:
 *
 *   Forward:  I_M = r,      I_N = (r+c+t),            I_K = c
 *   Backward: I_M = r,      I_N = (r+c-1),            I_K = (c+t)
 *   Gradient: I_M = (r+t),  I_N = (r+c-1+delta),      I_K = (c-1+delta)
 *
 * all mod 2^k, with delta = [t == 2^k - 1].
 */

#ifndef PRIMEPAR_PARTITION_DSI_HH
#define PRIMEPAR_PARTITION_DSI_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "op_spec.hh"
#include "partition_step.hh"
#include "topology/device.hh"

namespace primepar {

/** Half-open slice of one dimension, in element units. */
struct SliceRange
{
    std::int64_t start = 0;
    std::int64_t end = 0;

    std::int64_t length() const { return end - start; }

    /** Length of the intersection with another range. */
    std::int64_t
    intersect(const SliceRange &o) const
    {
        const std::int64_t s = start > o.start ? start : o.start;
        const std::int64_t e = end < o.end ? end : o.end;
        return e > s ? e - s : 0;
    }

    auto operator<=>(const SliceRange &) const = default;
};

/** Grid coordinates (r, c) of a device in a PSquare group. */
struct PSquareCoord
{
    std::int64_t r = 0;
    std::int64_t c = 0;
};

/**
 * Alg. 1 lines 8-13: the (r, c) of @p device in the PSquare step
 * P_{2^k x 2^k} whose 2k consecutive device-id bits start at bit
 * @p cursor (bit 0 = d_1): r reads the even bits, c the odd ones.
 */
inline PSquareCoord
pSquareCoord(std::int64_t device, int num_bits, int cursor, int k)
{
    PSquareCoord at;
    for (int j = 0; j < k; ++j) {
        const int shift = num_bits - 1 - (cursor + 2 * j);
        at.r = 2 * at.r + ((device >> shift) & 1);
        at.c = 2 * at.c + ((device >> (shift - 1)) & 1);
    }
    return at;
}

/** Slice indices (I_M, I_N, I_K) of one PSquare grid point. */
struct PSquareIndex
{
    std::int64_t m = 0;
    std::int64_t n = 0;
    std::int64_t k = 0;
};

/** Eqs. 4-6 for grid point @p at of P_{2^k x 2^k} at step @p t. */
inline PSquareIndex
pSquareIndex(Phase phase, PSquareCoord at, int t, int k)
{
    const std::int64_t side = std::int64_t{1} << k;
    // mod 2^k: in two's complement the mask is the non-negative
    // modulus, negative arguments included.
    const auto mod = [side](std::int64_t x) { return x & (side - 1); };
    const std::int64_t r = at.r;
    const std::int64_t c = at.c;
    const std::int64_t delta = t == side - 1 ? 1 : 0;
    switch (phase) {
      case Phase::Forward:
        return {mod(r), mod(r + c + t), mod(c)};
      case Phase::Backward:
        return {mod(r), mod(r + c - 1), mod(c + t)};
      case Phase::Gradient:
        break;
    }
    return {mod(r + t), mod(r + c - 1 + delta), mod(c - 1 + delta)};
}

/**
 * Algorithm 1 at one point: write I_dim(phase, device, t) of every dim
 * of @p op under @p seq to idx[0 .. op.dims.size()). The sequence is
 * not validated here (DsiTable does that).
 */
inline void
evaluateDsi(const OpSpec &op, const PartitionSeq &seq, int num_bits,
            Phase phase, std::int64_t device, int t, std::int64_t *idx)
{
    std::fill(idx, idx + op.dims.size(), 0);
    int cursor = 0;
    for (const PartitionStep &step : seq.steps()) {
        if (step.kind == PartitionStep::Kind::ByDim) {
            // Eqs. 2-3: identical update in every phase.
            idx[step.dim] = 2 * idx[step.dim] +
                            ((device >> (num_bits - 1 - cursor)) & 1);
            cursor += 1;
            continue;
        }
        // PSquare: Alg. 1 lines 8-21.
        const std::int64_t side = std::int64_t{1} << step.k;
        const PSquareIndex at = pSquareIndex(
            phase, pSquareCoord(device, num_bits, cursor, step.k), t,
            step.k);
        const PSquareDims &psq = *op.psquare;
        idx[psq.m] = side * idx[psq.m] + at.m;
        idx[psq.n] = side * idx[psq.n] + at.n;
        idx[psq.k] = side * idx[psq.k] + at.k;
        cursor += step.bits();
    }
}

/** Fully evaluated DSI table for one (operator, sequence) pair. */
class DsiTable
{
  public:
    /**
     * Evaluate Algorithm 1.
     *
     * @param op operator description
     * @param seq partition sequence (must consume exactly @p num_bits)
     * @param num_bits device-id bit count n
     */
    DsiTable(const OpSpec &op, const PartitionSeq &seq, int num_bits);

    /** Device-id bit count. */
    int numBits() const { return bits; }

    /** Number of devices 2^n. */
    std::int64_t numDevices() const { return std::int64_t{1} << bits; }

    /** Temporal steps per phase (1 without a PSquare). */
    int steps() const { return nSteps; }

    /** Number of slices of dimension @p dim. */
    std::int64_t sliceCount(int dim) const { return slices[dim]; }

    /** Element length of one slice of @p dim. */
    std::int64_t
    sliceExtent(int dim) const
    {
        return dimSizes[dim] / slices[dim];
    }

    /** DSI value I_dim(phase, device, t). */
    std::int64_t
    value(Phase phase, std::int64_t device, int t, int dim) const
    {
        return table[flat(phase, device, t, dim)];
    }

    /** Element range of @p dim held by @p device at (phase, t). */
    SliceRange
    sliceRange(Phase phase, std::int64_t device, int t, int dim) const
    {
        const std::int64_t extent = sliceExtent(dim);
        const std::int64_t idx = value(phase, device, t, dim);
        return {idx * extent, (idx + 1) * extent};
    }

    /**
     * Per-device element count of a tensor slice (replication-agnostic:
     * a device always stores full-size / prod(slices of its dims)).
     */
    std::int64_t tensorSliceNumel(const OpSpec &op, int tensor) const;

    /** Number of dims. */
    int numDims() const { return static_cast<int>(slices.size()); }

  private:
    std::size_t
    flat(Phase phase, std::int64_t device, int t, int dim) const
    {
        const auto p = static_cast<std::size_t>(phase);
        return ((p * static_cast<std::size_t>(numDevices()) + device) *
                    nSteps +
                t) *
                   slices.size() +
               dim;
    }

    int bits;
    int nSteps;
    std::vector<std::int64_t> slices;
    std::vector<std::int64_t> dimSizes;
    std::vector<std::int64_t> table;
};

} // namespace primepar

#endif // PRIMEPAR_PARTITION_DSI_HH
