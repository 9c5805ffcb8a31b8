/**
 * @file
 * Shared helpers for the benchmark harnesses.
 *
 * Every bench binary regenerates one table or figure of the paper
 * (see DESIGN.md's experiment index): it searches strategies with the
 * optimizer / baselines, *measures* them on the event simulator, and
 * prints the same rows or series the paper reports, with the paper's
 * reference numbers alongside where the paper states them.
 */

#ifndef PRIMEPAR_BENCH_COMMON_HH
#define PRIMEPAR_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "baselines/megatron.hh"
#include "cost/cost_model.hh"
#include "graph/transformer.hh"
#include "optimizer/segmented_dp.hh"
#include "sim/model_sim.hh"
#include "support/table.hh"

namespace primepar {
namespace bench {

/** Measured outcome of one (system, model, scale) cell. */
struct SystemResult
{
    std::string system;
    double tokensPerSec = 0.0;
    double latencyUs = 0.0;
    double computeUs = 0.0;
    double allReduceUs = 0.0;
    double ringUs = 0.0;
    double redistUs = 0.0;
    double peakMemoryBytes = 0.0;
    std::vector<PartitionSeq> strategies;
};

/** Simulate a strategy assignment for the full model. */
SystemResult measure(const std::string &system, const ModelConfig &model,
                     const ClusterTopology &topo, const CompGraph &graph,
                     std::vector<PartitionSeq> strategies);

/**
 * Run the three systems of the paper's Figs. 7/8 on one (model,
 * device-count) cell: best Megatron (d, m), Alpa-like (optimal
 * spatial-only plan), PrimePar (full spatial-temporal plan).
 *
 * @param num_threads planner threads (0 = hardware concurrency); the
 *        chosen plans are identical at any value. The Alpa and
 *        PrimePar searches share one catalog cache.
 */
std::vector<SystemResult> compareSystems(const ModelConfig &model,
                                         int devices,
                                         std::int64_t batch,
                                         int num_threads = 0);

/** Tokens/s given a whole-model iteration latency. */
double tokensPerSecond(const ModelConfig &model, std::int64_t batch,
                       double iteration_us);

/**
 * Identity of the sources under @p root that a record measures:
 * `git rev-parse HEAD`, suffixed "-dirty" when src/ has an uncommitted
 * change; outside git, the "src-sha256:" digest of src/ that
 * perfbench/run.py stamps (via python3).
 */
std::string sourceCommit(const std::string &root);

} // namespace bench
} // namespace primepar

#endif // PRIMEPAR_BENCH_COMMON_HH
