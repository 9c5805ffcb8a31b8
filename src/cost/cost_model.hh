/**
 * @file
 * The PrimePar cost model (paper Sec. 4).
 *
 * Intra-operator cost (Eq. 7):
 *
 *   intraC(n, P) = sum_t max(compute(n,P,t), ring(n,P,t))
 *                  + allreduce(n, P) + alpha * memory(n, P)
 *
 * using latency models fitted by profiling (ProfiledModels).
 * Inter-operator cost (Eqs. 8-9): the redistribution traffic between
 * boundary distributions, run through a fitted linear model. The
 * optimizer minimizes the whole-model sum (Eq. 10).
 */

#ifndef PRIMEPAR_COST_COST_MODEL_HH
#define PRIMEPAR_COST_COST_MODEL_HH

#include <string>

#include "comm/redistribution.hh"
#include "partition/comm_pattern.hh"
#include "profiler.hh"
#include "sim/memory.hh"

namespace primepar {

/** Cost-model evaluation of one (operator, sequence) pair. */
struct IntraCost
{
    double latencyUs = 0.0;   ///< sum_t max(compute, ring) + allreduce
    double computeUs = 0.0;
    double ringUs = 0.0;
    double allReduceUs = 0.0;
    double memoryBytes = 0.0;
    double weighted = 0.0;    ///< Eq. 7 with the alpha memory term
};

/** Analytic cost model backed by profiled linear latency models. */
class CostModel
{
  public:
    /**
     * @param topo cluster topology
     * @param models profiled latency models for that topology
     * @param alpha_memory Eq. 7 coefficient, in us per MiB of
     *        per-device peak memory
     */
    CostModel(const ClusterTopology &topo, ProfiledModels models,
              double alpha_memory = 0.0);

    /**
     * Evaluate Eq. 7 for @p seq on @p op. Every term is read off the
     * sequence's bit structure (SymbolicComm), so no per-device DSI
     * table or communication schedule is built: this is what lets a
     * catalog price every enumerated sequence cheaply.
     */
    IntraCost intraCost(const OpSpec &op, const PartitionSeq &seq) const;

    /** Redistribution traffic split by link class, in elements. */
    struct TrafficSplit
    {
        std::int64_t intraNode = 0;
        std::int64_t interNode = 0;
    };

    /**
     * Node-union view of a source layout. The distinct boxes of a
     * layoutOf() layout tile the tensor: per dimension their intervals
     * are pairwise disjoint, and their volumes sum to the tensor's
     * (prepareSource() asserts both). So the part of a need box a
     * receiver can fetch over fast links is its overlap with the
     * distinct boxes held in the fast-link domains it reaches, and
     * the rest crosses slow links. Prepare once per source layout,
     * then evaluate trafficSplit() against many destinations.
     */
    struct PreparedSource
    {
        int dims = 0;
        /** Distinct boxes in first-holder order ([box * dims + d]). */
        std::vector<SliceRange> boxes;
        /** Each device's own box index. */
        std::vector<std::int32_t> boxOfDevice;
        /** Distinct boxes held per fast-link domain, CSR:
         *  domainBoxes[domainStart[dom] .. domainStart[dom + 1]). */
        std::vector<std::int32_t> domainStart;
        std::vector<std::int32_t> domainBoxes;
    };

    /** Build the source view. */
    PreparedSource prepareSource(const TensorLayout &have) const;

    /**
     * Destination view: devices grouped by (need box, fast-link reach)
     * — all members see identical remote traffic, so the fast-link
     * union is summed once per group.
     */
    struct PreparedNeed
    {
        std::vector<std::vector<SliceRange>> boxes; ///< distinct
        struct Group
        {
            std::int32_t box = 0;
            std::int32_t reach = 0; ///< index into the reach sets
            std::vector<std::int32_t> devices;
        };
        std::vector<Group> groups;
    };

    /** Build the destination view. */
    PreparedNeed prepareNeed(const TensorLayout &need) const;

    /**
     * Plan-accurate traffic split of a redistribution: the elements
     * each device lacks, per source box, charged to the fast link
     * class when a holder of that box shares a fast link
     * (ClusterTopology::sameNode) with the receiver. Equals the link
     * split of planRedistribution() with a topology.
     */
    TrafficSplit trafficSplit(const PreparedSource &have,
                              const PreparedNeed &need) const;

    /** Convenience overload preparing both sides on the fly. */
    TrafficSplit trafficSplit(const TensorLayout &have,
                              const TensorLayout &need) const;

    /**
     * Admissible lower bound on the weighted intra cost of *any*
     * partition sequence of @p op on this topology: the summed
     * per-pass kernel latency at maximal parallelism, with every
     * communication and memory term dropped. Used to certify the
     * reported cost gap of the planner's approximate beam mode.
     */
    double computeFloorUs(const OpSpec &op) const;

    /** Fitted redistribution latency for the given traffic. */
    double redistLatencyUs(double intra_bytes, double inter_bytes) const;

    const ClusterTopology &topology() const { return topo; }
    const ProfiledModels &profiledModels() const { return models; }
    const MemoryModelParams &memoryParams() const { return memParams; }
    double alphaMemory() const { return alpha; }

    /**
     * Stable identity of every parameter feeding intra-cost
     * evaluation (topology shape and link parameters, fitted model
     * coefficients, alpha, memory-model knobs). Catalogs built under
     * equal fingerprints are interchangeable — the key property the
     * planner's CatalogCache relies on.
     */
    const std::string &fingerprint() const { return fp; }

  private:
    /** True iff some ring group moves a slice of a shift over a slow
     *  link; @p moves is group 0 of the shift (SymbolicComm::shift()),
     *  @p group_mask the PSquare bits. */
    bool crossesNode(const std::vector<Transfer> &moves,
                     std::int64_t group_mask) const;

    const ClusterTopology &topo;
    ProfiledModels models;
    double alpha;
    MemoryModelParams memParams;
    std::string fp;
    /**
     * Fast-link structure derived from ClusterTopology::sameNode. A
     * domain groups source holders: the node on a hierarchical
     * cluster, the device itself on a torus. A device's reach set
     * lists the domains it shares a fast link with (its node, or
     * itself plus its torus neighbours), ascending.
     */
    std::vector<std::int32_t> domainOf;
    int numDomains = 0;
    std::vector<std::int32_t> reachOf; ///< device -> reach set id
    std::vector<std::vector<std::int32_t>> reachSets;
};

} // namespace primepar

#endif // PRIMEPAR_COST_COST_MODEL_HH
