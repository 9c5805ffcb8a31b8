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

#include <memory>
#include <mutex>
#include <string>

#include "comm/redistribution.hh"
#include "partition/comm_pattern.hh"
#include "profiler.hh"
#include "sim/memory.hh"
#include "tensor/gemm.hh"

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

/**
 * Why trafficSplit() cannot price a tensor of dims @p dim_sizes on
 * @p devices devices exactly, or "" when it can: every dim size must
 * fit the int32 lanes, and devices x elements must stay below 2^53
 * (the kernel multiplies and sums in double). CostModel asserts it;
 * code planning for outside requests checks it first.
 */
std::string laneBoundsError(int devices,
                            const std::vector<std::int64_t> &dim_sizes);

/**
 * The dims of a tensor whose layouts trafficSplit() prices, checked
 * against the lane bounds (laneBoundsError()) once: an edge table
 * builds every source view and need slot of its tensor from one.
 */
class LaneDims
{
  public:
    /** Asserts that @p devices devices price @p sizes exactly. */
    LaneDims(int devices, std::vector<std::int64_t> sizes);

    const std::vector<std::int64_t> &sizes() const { return dimSizes; }
    int count() const { return static_cast<int>(dimSizes.size()); }

  private:
    std::vector<std::int64_t> dimSizes;
};

/**
 * Lane storage of the source views of one edge-table side, freed with
 * it. A take() of more than kChunk / 8 lanes gets an allocation of its
 * own size; smaller ones are cut from shared chunks of kChunk lanes,
 * and a chunk is retired when the next take() does not fit, so each
 * retired chunk leaves less than kChunk / 8 lanes unused. take() may
 * be called from several threads at once.
 */
class LaneArena
{
  public:
    static constexpr std::size_t kChunk = std::size_t{1} << 14;

    /** @p count lanes, uninitialized. */
    std::int32_t *take(std::size_t count);

  private:
    std::mutex mu;
    std::vector<std::unique_ptr<std::int32_t[]>> blocks;
    std::int32_t *chunk = nullptr; ///< the shared chunk being filled
    std::size_t used = kChunk;     ///< lanes taken from it
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
     * Node-union view of a source layout, in the int32 lane layout
     * trafficSplit() prices. The distinct boxes of a layoutOf() layout
     * tile the tensor: per dimension their intervals are pairwise
     * disjoint, and their volumes sum to the tensor's (sourceView()
     * asserts both). So the part of a need box a receiver can fetch
     * over fast links is its overlap with the union of the distinct
     * boxes held in the fast-link domains it reaches, and the rest
     * crosses slow links. Build once per source layout, then evaluate
     * trafficSplit() against many destinations.
     *
     * The view holds box slots of width lanes per bound (see
     * slotLanes()), one lane per receiving device (padding lanes hold
     * empty boxes).
     * Slot 0 is each device's own box; slots 1..layers the node union
     * of its reach set: one bounding box when the distinct boxes fill
     * it (disjoint boxes whose volumes sum to it tile it), else the
     * distinct boxes themselves, then empty boxes. Slot s, dim d: the
     * starts at lanes[(s * dims + d) * 2 * width], the ends next. The
     * lanes live in a LaneArena (or an OwnedSourceView).
     */
    struct SourceView
    {
        int dims = 0;
        int devices = 0; ///< receivers: lanes past them are padding
        int width = 0;   ///< lanes per bound, padding included
        int layers = 0;  ///< union slots per receiver
        const std::int32_t *lanes = nullptr; ///< (1 + layers) slots
    };

    /** A SourceView that owns its lanes, sized exactly: one layout
     *  priced on its own. Move-only; moving keeps the lanes in place. */
    struct OwnedSourceView : SourceView
    {
        std::unique_ptr<std::int32_t[]> storage;
    };

    /** int32 lanes of one box slot of @p dims dims: 2 * dims *
     *  width, the device count padded to a multiple of 16 (the
     *  receivers the widest tier prices per block). */
    std::size_t slotLanes(int dims) const;

    /**
     * Build the view of the flat device boxes @p boxes of a layout of
     * a tensor of dims @p dims (BoundaryBoxes order), its lanes taken
     * from @p arena. Distinct boxes are found through hash tables and
     * node unions through a stamp array, in per-thread scratch: no
     * sort of the devices and no allocation. Views of one arena may be
     * built concurrently.
     */
    SourceView sourceView(const SliceRange *boxes, const LaneDims &dims,
                          LaneArena &arena) const;

    /** sourceView() with its own lanes, checking @p dim_sizes. */
    OwnedSourceView sourceView(
        const SliceRange *boxes,
        const std::vector<std::int64_t> &dim_sizes) const;

    /**
     * Write the flat device boxes @p boxes of a need layout of a
     * tensor of dims @p dims as one box slot (slotLanes() int32s at
     * @p lanes, the SourceView slot layout) and return their total
     * volume.
     */
    std::int64_t needLanes(const SliceRange *boxes, const LaneDims &dims,
                           std::int32_t *lanes) const;

    /** needLanes(), checking @p dim_sizes. */
    std::int64_t needLanes(const SliceRange *boxes,
                           const std::vector<std::int64_t> &dim_sizes,
                           std::int32_t *lanes) const;

    /**
     * Plan-accurate traffic split of a redistribution into the need
     * slot @p need of total volume @p need_volume (needLanes()): the
     * elements each device lacks, per source box, charged to the fast
     * link class when a holder of that box shares a fast link
     * (ClusterTopology::sameNode) with the receiver. Equals the link
     * split of planRedistribution() with a topology. One branch-free
     * pass prices every receiver at once as vector lanes, on the
     * GEMM's tier (activeGemmIsa()).
     */
    TrafficSplit trafficSplit(const SourceView &have,
                              const std::int32_t *need,
                              std::int64_t need_volume) const;

    /** Convenience overload flattening both layouts. */
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

    /** sourceView(), its lanes from @p take(count). */
    template <typename Take>
    SourceView buildView(const SliceRange *boxes, const LaneDims &dims,
                         Take take) const;

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
    /** The devices of domain i: domainDevices[domainStart[i] ..
     *  domainStart[i + 1]). */
    std::vector<std::int32_t> domainStart, domainDevices;
    std::vector<std::int32_t> reachOf; ///< device -> reach set id
    std::vector<std::vector<std::int32_t>> reachSets;
    int width = 0; ///< lanes per box bound (slotLanes())
};

/** Test seam: price on one specific tier, which the host must
 *  support. */
namespace detail {

CostModel::TrafficSplit trafficSplitOn(GemmIsa isa,
                                       const CostModel::SourceView &have,
                                       const std::int32_t *need,
                                       std::int64_t need_volume);

} // namespace detail

} // namespace primepar

#endif // PRIMEPAR_COST_COST_MODEL_HH
