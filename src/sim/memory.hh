/**
 * @file
 * Per-device memory model (paper Sec. 4.1, "Peak Memory Occupancy").
 *
 * The peak per-device memory of a partitioned operator is the resident
 * parameter state (weights, gradients, optimizer moments), the tensors
 * stashed between phases, the working set of the largest pass, and —
 * for spatial-temporal sequences — the double buffers that let ring
 * transfers overlap compute. Replication by conventional partitions is
 * captured automatically because a device's slice of a tensor shrinks
 * only along dimensions the sequence actually cuts.
 */

#ifndef PRIMEPAR_SIM_MEMORY_HH
#define PRIMEPAR_SIM_MEMORY_HH

#include "partition/comm_pattern.hh"
#include "partition/dsi.hh"
#include "partition/op_spec.hh"
#include "partition/partition_step.hh"

namespace primepar {

/** Accounting knobs of the memory model. */
struct MemoryModelParams
{
    /** Bytes of resident state per parameter byte. The default (2.0)
     *  accounts for weight + gradient in fp16; the paper's 175B-scale
     *  runs on 32 GB V100s are only feasible with optimizer state
     *  kept out of this budget (offloaded / sharded), so that is the
     *  apples-to-apples setting for all systems compared here. Set
     *  4.0 to additionally count two Adam moments. */
    double paramStateFactor = 2.0;
    /** Model the double buffers used to overlap ring shifts. */
    bool doubleBuffers = true;
};

/** Breakdown of one operator's per-device memory in bytes. */
struct OpMemory
{
    double paramBytes = 0.0;
    double stashBytes = 0.0;
    double workingBytes = 0.0;
    double doubleBufferBytes = 0.0;

    double
    total() const
    {
        return paramBytes + stashBytes + workingBytes +
               doubleBufferBytes;
    }
};

/**
 * Per-device memory of @p op whose dims are cut into @p slice_counts
 * slices, where @p ring_shifted flags (per tensor) the tensors a ring
 * shift moves: each needs a double buffer. The DSI overloads below
 * reduce to this.
 */
OpMemory opMemory(const OpSpec &op,
                  const std::vector<std::int64_t> &slice_counts,
                  const std::vector<char> &ring_shifted,
                  const MemoryModelParams &params = {});

/** Per-device memory of @p op under the partition described by @p dsi. */
OpMemory opMemory(const OpSpec &op, const PartitionSeq &seq,
                  const DsiTable &dsi,
                  const MemoryModelParams &params = {});

/**
 * Same, reusing already-derived pass communication schedules (avoids
 * re-deriving them for the double-buffer accounting).
 */
OpMemory opMemory(const OpSpec &op, const PartitionSeq &seq,
                  const DsiTable &dsi,
                  const std::vector<PassComm> &pass_comms,
                  const MemoryModelParams &params = {});

/**
 * The ideal per-device memory of the same operator: total state
 * divided evenly over the devices with no replication — the baseline
 * of the paper's Fig. 2b.
 */
double opIdealMemoryBytes(const OpSpec &op, std::int64_t num_devices,
                          const MemoryModelParams &params = {});

} // namespace primepar

#endif // PRIMEPAR_SIM_MEMORY_HH
