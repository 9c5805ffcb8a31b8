/**
 * @file
 * Fault-tolerant training driver over the SPMD graph executor.
 *
 * BlockTrainer runs transformer-block training steps end to end:
 * per-step seeded batches, a probe loss, SGD with momentum, periodic
 * checkpoints, and — the point of this module — recovery. Transient
 * transport faults are absorbed below it (retries, step rollbacks); a
 * *permanent* device failure surfaces as DeviceFailedError, which the
 * trainer answers by degrading the device grid from 2^n to 2^(n-1),
 * re-planning the partition strategies for the survivors, and
 * restoring from the last checkpoint. Batches are a pure function of
 * (seed, step), so a resumed or degraded run replays the exact loss
 * trajectory of the uninterrupted one.
 *
 * The trainer, its executors and its transport all report their
 * events once to the trainer's RuntimeHealth (health()), which counts
 * them and fans them out to the observers attached with addObserver().
 */

#ifndef PRIMEPAR_RUNTIME_TRAINER_HH
#define PRIMEPAR_RUNTIME_TRAINER_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint.hh"
#include "errors.hh"
#include "fault.hh"
#include "graph/transformer.hh"
#include "graph_executor.hh"
#include "observer.hh"
#include "options.hh"
#include "transport.hh"

namespace primepar {

/** Everything configuring a BlockTrainer: the training hyperparameters
 *  here, every runtime knob in the nested RuntimeOptions. */
struct TrainerOptions
{
    ModelConfig model;
    std::int64_t batch = 2;
    double lr = 1e-2;
    double momentum = 0.9;
    /** Seeds parameter init and the per-step batches. */
    std::uint64_t seed = 1234;

    /** Devices, threading, transport, faults, guard, checkpointing —
     *  the unified runtime configuration (options.hh). */
    RuntimeOptions runtime;

    /**
     * Strategy provider for (re-)planning on a given grid size; null
     * uses defaultBlockPlan(). The example wires the segmented-DP
     * optimizer in here — the runtime library itself stays independent
     * of the optimizer layer.
     */
    std::function<std::vector<PartitionSeq>(const CompGraph &, int)>
        replanner;

    /**
     * Transport provider for (re-)building the executor. Every
     * transport the trainer ever uses comes through here — the
     * constructor installs an InProcessTransport factory over
     * runtime.transport when this is null, so BlockTrainer itself
     * never special-cases transport kinds. The multi-process worker
     * wires a TcpTransport factory in here: it is called with the
     * grid size being built and, on a rebuild after a permanent
     * device failure, the error that caused it (null on the first
     * build) — which lets the factory consult the coordinator about
     * the failed device's owner and return a transport for the new
     * world. The injector and health sink passed in are the trainer's
     * own, so fault accounting stays unified across rebuilds. The
     * executors take the returned transport at construction and read
     * their device span from it, so a sharded transport automatically
     * narrows what this process materializes.
     */
    std::function<std::unique_ptr<Transport>(
        int bits, const DeviceFailedError *cause,
        std::shared_ptr<FaultInjector> injector,
        RuntimeHealth *health)>
        transportFactory;
};

/** Outcome of one completed training step. */
struct StepStats
{
    std::int64_t step = 0;
    double loss = 0.0;
};

/** Per-node default strategies: PSquare(1) on spatial-temporal-capable
 *  ops when bits allow, conventional by-dim splits elsewhere. */
std::vector<PartitionSeq> defaultBlockPlan(const CompGraph &graph,
                                           int bits);

/** Fault-tolerant training loop over one transformer block. */
class BlockTrainer
{
  public:
    explicit BlockTrainer(TrainerOptions opts);
    ~BlockTrainer();

    /**
     * Run (and, on permanent device failure, recover and re-run) one
     * training step. Throws DeviceFailedError only once the replan
     * budget is exhausted.
     */
    StepStats trainStep();

    /** Snapshot the current parameters / optimizer state / step. */
    Checkpoint checkpoint() const;

    /** Write checkpoint() to options().checkpointPath. */
    void saveCheckpointNow();

    /** Adopt @p ck as the current training state. */
    void restoreFrom(const Checkpoint &ck);

    /** Load options().runtime.checkpoint.path and restoreFrom() it. */
    void resumeFromCheckpointFile();

    /**
     * Re-plan for a 2^(newBits) grid and rebuild the executor and
     * transport at the *current* training state — the elastic-re-join
     * counterpart of the degrade path: where degradeAndRestore shrinks
     * the grid and rolls back to a checkpoint, resyncTo adopts a new
     * (typically restored) world without touching parameters or the
     * step counter. The transport factory is invoked with a null
     * cause.
     */
    void resyncTo(int newBits);

    /**
     * Attach an observer (not owned) to health(), the sink of the
     * whole training stack: it receives step begin/end and checkpoint
     * events from the trainer, spans / tensor-produced / rollback
     * events from the executors, and transfer / fault events from the
     * transport — surviving executor rebuilds after grid degradation.
     */
    void addObserver(RuntimeObserver *o);

    RuntimeHealth &health() { return health_; }
    const TrainerOptions &options() const { return opts; }
    std::int64_t step() const { return step_; }
    /** Communication volume of the most recent training step: ring
     *  and all-reduce elements and the all-reduce count. */
    CommVolume lastStepComm() const { return exec->stats(); }
    /** Current grid size in bits (shrinks after a device failure). */
    int deviceBits() const { return bits_; }

  private:
    /** Step @p step's input and output gradient; the parameters
     *  stay in `params`, which the executor reads in place. */
    GraphIO makeBatch(std::int64_t step) const;
    /** @p cause is the device failure that forced this rebuild (null
     *  on the first build) — forwarded to the transport factory. */
    void buildExecutor(const DeviceFailedError *cause = nullptr);
    void applyUpdate(const std::map<std::string, Tensor> &d_params);
    void degradeAndRestore(const DeviceFailedError &err);

    TrainerOptions opts;
    CompGraph graph;
    std::vector<PartitionSeq> strategies;
    int bits_ = 0;
    std::int64_t step_ = 0;
    int replansDone = 0;
    bool checkpointOnDisk = false;

    std::map<std::string, Tensor> params;
    std::map<std::string, Tensor> velocity;

    /** The sink every layer reports to: the transport factory and
     *  the executor get its address on every (re)build, and
     *  addObserver() attaches to it. */
    RuntimeHealth health_;
    std::shared_ptr<FaultInjector> injector;
    std::unique_ptr<Transport> transport;
    std::unique_ptr<SpmdGraphExecutor> exec;
};

} // namespace primepar

#endif // PRIMEPAR_RUNTIME_TRAINER_HH
