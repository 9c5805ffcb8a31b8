/**
 * @file
 * Functional SPMD execution of whole computation graphs.
 *
 * Drives one training iteration of a multi-operator graph — forward
 * in topological order, backward and gradient in reverse — with every
 * operator partitioned by its own sequence on the same emulated
 * device set. Activations and gradients flow along the graph edges
 * (with optional per-edge tensor transforms for fused-dimension
 * boundaries like QKV-split and head reshapes), gradients of
 * multi-consumer tensors accumulate, and the final results must match
 * single-device training — the graph-level completion of the per-op
 * equivalence proof. Every node's executor reports to the one
 * RuntimeHealth given to setHealth().
 */

#ifndef PRIMEPAR_RUNTIME_GRAPH_EXECUTOR_HH
#define PRIMEPAR_RUNTIME_GRAPH_EXECUTOR_HH

#include <functional>
#include <map>
#include <memory>

#include "graph/graph.hh"
#include "options.hh"
#include "spmd_executor.hh"

namespace primepar {

/** Value-level transforms applied on an edge (both default identity). */
struct EdgeTransform
{
    /** Producer-output -> consumer-input coordinates (e.g. slice the
     *  Q third of the fused QKV output and reshape to heads). */
    std::function<Tensor(const Tensor &)> forward;
    /** Consumer-input-gradient -> producer-output-gradient
     *  *contribution* (summed with other consumers' contributions). */
    std::function<Tensor(const Tensor &)> backward;
};

/** External inputs of one training iteration. */
struct GraphIO
{
    /** Data fed to the graph's first node (its input tensor). */
    Tensor input;
    /** Parameters keyed "<node name>.<tensor name>" (e.g. "qkv.W"). */
    std::map<std::string, Tensor> params;
    /** Upstream gradient of the final node's output. */
    Tensor d_output;
};

/** Gathered results of one training iteration. */
struct GraphResult
{
    Tensor output;
    Tensor d_input;
    /** Parameter gradients keyed like GraphIO::params. */
    std::map<std::string, Tensor> d_params;
};

/** The graph-level SPMD executor. */
class SpmdGraphExecutor
{
  public:
    /**
     * @param graph computation graph (chain plus skip edges)
     * @param strategies one partition sequence per node
     * @param num_bits device-id bit count (2^n emulated devices)
     * @param num_threads worker threads for per-device sub-operator
     *        execution: 0 = all hardware threads, 1 = serial. Results
     *        are bit-identical at every setting (see
     *        SpmdOpExecutor::setThreadPool).
     * @param overlap_comm overlap ring communication with compute on
     *        every node's executor (construction-time; see
     *        ExecutionOptions::overlapComm).
     * @param owned device ranks this process materializes data for
     *        (default: all — single-owner execution; see
     *        ExecutionOptions::ownedDevices).
     */
    SpmdGraphExecutor(const CompGraph &graph,
                      std::vector<PartitionSeq> strategies,
                      int num_bits, int num_threads = 1,
                      bool overlap_comm = true, DeviceSpan owned = {});

    /** Same, configured by the unified RuntimeOptions (numBits and
     *  the execution section are consumed here; transport / fault /
     *  checkpoint sections are the caller's to wire). */
    SpmdGraphExecutor(const CompGraph &graph,
                      std::vector<PartitionSeq> strategies,
                      const RuntimeOptions &options);

    /** Install a transform on the edge @p src -> @p dst (tensor
     *  @p dst_tensor of the consumer). */
    void setEdgeTransform(int src, int dst, int dst_tensor,
                          EdgeTransform transform);

    /** Run one full training iteration. */
    GraphResult run(const GraphIO &io);

    /** Sum of per-op communication counters of the last run. */
    CommVolume stats() const;

    /** Route every node's inter-device transfers through @p t (not
     *  owned; nullptr restores direct in-process copies). */
    void setTransport(Transport *t);

    /** Report every node's events — rollbacks, pass outputs for the
     *  guard, spans for attached observers — to @p h (not owned). */
    void setHealth(RuntimeHealth *h);

    /** Stamp subsequent transfers with train step @p s. */
    void beginStep(std::int64_t s);

  private:
    std::string edgeKey(const GraphEdge &e) const;

    const CompGraph &graph;
    /** Shared worker pool for every node's executor (null = serial). */
    std::unique_ptr<ThreadPool> pool;
    std::vector<std::unique_ptr<SpmdOpExecutor>> execs;
    std::map<std::string, EdgeTransform> transforms;
};

} // namespace primepar

#endif // PRIMEPAR_RUNTIME_GRAPH_EXECUTOR_HH
