/**
 * @file
 * Shared dense-matrix and result types of the segmented DP.
 *
 * The Bellman matrices of one solved segment (DpSegment) and the final
 * outcome of one optimization run (PlanCacheEntry) are plain data.
 * PlanCacheEntry is the record the persistent plan store (PPS1,
 * serve/plan_store.hh) and the plan service's in-memory flight table
 * keep under planCacheKey.
 */

#ifndef PRIMEPAR_OPTIMIZER_DP_CORE_HH
#define PRIMEPAR_OPTIMIZER_DP_CORE_HH

#include <cstdint>
#include <vector>

#include "partition/partition_step.hh"

namespace primepar {

/** Dense row-major double matrix. */
struct Mat
{
    int rows = 0, cols = 0;
    std::vector<double> v;

    Mat() = default;
    Mat(int r, int c, double fill = 0.0)
        : rows(r), cols(c), v(static_cast<std::size_t>(r) * c, fill)
    {}

    double &
    at(int r, int c)
    {
        return v[static_cast<std::size_t>(r) * cols + c];
    }
    double
    at(int r, int c) const
    {
        return v[static_cast<std::size_t>(r) * cols + c];
    }
};

/** Row-major int32 argmin matrix. */
struct ArgMat
{
    int rows = 0, cols = 0;
    std::vector<std::int32_t> v;

    ArgMat() = default;
    ArgMat(int r, int c)
        : rows(r), cols(c), v(static_cast<std::size_t>(r) * c, -1)
    {}

    std::int32_t &
    at(int r, int c)
    {
        return v[static_cast<std::size_t>(r) * cols + c];
    }
    std::int32_t
    at(int r, int c) const
    {
        return v[static_cast<std::size_t>(r) * cols + c];
    }
};

/**
 * Bellman state of one solved segment [a, c]. Matrix rows/columns are
 * *candidate positions* (indices into the candidate lists the segment
 * was solved over).
 */
struct DpSegment
{
    int a = 0, c = 0;
    Mat C; ///< [P_a][P_c]
    /** args[j - a - 1].at(pa, p_{j+1}) = best p_j, for j+1 in
     *  (a+1, c]. */
    std::vector<ArgMat> args;
};

/** Final result of one optimization run, as stored and served. */
struct PlanCacheEntry
{
    std::vector<PartitionSeq> strategies;
    double layerCost = 0.0;
    double totalCost = 0.0;
    std::int64_t candidatesTotal = 0;
    std::int64_t candidatesKept = 0;
    bool truncated = false;
    double lowerBoundUs = 0.0;
    double gapPct = 0.0;
};

} // namespace primepar

#endif // PRIMEPAR_OPTIMIZER_DP_CORE_HH
