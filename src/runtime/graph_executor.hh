/**
 * @file
 * Functional SPMD execution of whole computation graphs.
 *
 * Drives one training iteration of a multi-operator graph — forward
 * in topological order, backward and gradient in reverse — with every
 * operator partitioned by its own sequence on the same emulated
 * device set. Activations and gradients cross each graph edge slice to
 * slice (boundary.hh): every consumer device's operand slot is filled
 * by box copies from the producer's intersecting output slices, every
 * producer device's output-gradient slot by box accumulates from the
 * consumers' gradient slices, in out-edge order — through the edge's
 * index map where the two sides differ in layout (QKV split, head
 * merge). Only the block input, the final output, the parameter
 * gradients and the input gradient exist as full tensors. The final
 * results must match single-device training — the graph-level
 * completion of the per-op equivalence proof. Every node's executor
 * reports to the one RuntimeHealth given to setHealth().
 */

#ifndef PRIMEPAR_RUNTIME_GRAPH_EXECUTOR_HH
#define PRIMEPAR_RUNTIME_GRAPH_EXECUTOR_HH

#include <map>
#include <memory>

#include "graph/graph.hh"
#include "options.hh"
#include "spmd_executor.hh"

namespace primepar {

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

/** Elements one edge's boundary copies read from another device's
 *  slice in one run. */
struct EdgeVolume
{
    std::int64_t forward = 0;  ///< producer output -> consumer operand
    std::int64_t backward = 0; ///< consumer gradient -> producer
};

/** The graph-level SPMD executor. */
class SpmdGraphExecutor
{
  public:
    /**
     * @param graph computation graph (chain plus skip edges)
     * @param strategies one partition sequence per node
     * @param options numBits (2^n emulated devices) and the execution
     *        section are consumed here: every node's executor runs its
     *        per-device sub-operators on execution.numThreads worker
     *        threads (bit-identical at every setting, see
     *        SpmdOpExecutor::setThreadPool) and overlaps its ring
     *        shifts with compute per execution.overlapComm. The
     *        transport / fault / checkpoint sections are the caller's
     *        to wire.
     * @param transport every node's inter-device transfers and owned
     *        device span (not owned; nullptr = direct in-process
     *        copies over all devices; see SpmdOpExecutor).
     */
    SpmdGraphExecutor(const CompGraph &graph,
                      std::vector<PartitionSeq> strategies,
                      const RuntimeOptions &options,
                      Transport *transport = nullptr);

    /** Run one full training iteration. */
    GraphResult run(const GraphIO &io);

    /**
     * The same from its parts: the block input, the parameters (keyed
     * like GraphIO::params) and the output's upstream gradient. Each
     * is sliced straight into the owned devices' slots (a trainer
     * passes the parameters it keeps, uncopied); a missing or
     * misshapen one raises InputError.
     */
    GraphResult run(const Tensor &input,
                    const std::map<std::string, Tensor> &params,
                    const Tensor &d_output);

    /** Sum of per-op communication counters of the last run. */
    CommVolume stats() const;

    /** Per edge (indexed like graph.edges()), the elements the last
     *  run's boundary copies took from other devices' slices on the
     *  owned devices. */
    const std::vector<EdgeVolume> &boundaryVolume() const
    {
        return edgeVolumes;
    }

    /** Report every node's events — rollbacks, pass outputs for the
     *  guard, spans for attached observers — to @p h (not owned). */
    void setHealth(RuntimeHealth *h);

    /** Stamp subsequent transfers with train step @p s. */
    void beginStep(std::int64_t s);

  private:
    const CompGraph &graph;
    /** Shared worker pool for every node's executor (null = serial). */
    std::unique_ptr<ThreadPool> pool;
    std::vector<std::unique_ptr<SpmdOpExecutor>> execs;
    std::vector<EdgeVolume> edgeVolumes;
};

} // namespace primepar

#endif // PRIMEPAR_RUNTIME_GRAPH_EXECUTOR_HH
