/**
 * @file
 * Functional SPMD execution of partitioned operators.
 *
 * This executor emulates the 2^n devices of a PrimePar deployment and
 * *really runs* the partitioned training step on dense tensors: it
 * scatters tensors according to the DSIs, executes each device's
 * sub-operators over the temporal steps, performs the derived ring
 * shifts, accumulator migrations, transition shifts and grouped
 * all-reduces, and gathers the results.
 *
 * Its purpose is to prove — not assume — that every partition sequence
 * in PrimePar's space (including the novel P_{2^k x 2^k}) computes
 * bit-identical results to single-device training, and that phase
 * alignment holds operationally (a stashed tensor is reused without
 * any repositioning; the executor asserts this at phase entry).
 *
 * Substitution note (DESIGN.md): this replaces the paper's CUDA/MPI
 * runtime. Transfers move tensor values between emulated device
 * stores; byte counters record exactly the traffic a real deployment
 * would issue.
 *
 * The executor reports its events — spans, pass outputs, step
 * rollbacks — once each to the RuntimeHealth given to setHealth()
 * (observer.hh), which counts them, runs the numeric-anomaly guard
 * and forwards them to its observers.
 */

#ifndef PRIMEPAR_RUNTIME_SPMD_EXECUTOR_HH
#define PRIMEPAR_RUNTIME_SPMD_EXECUTOR_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "observer.hh"
#include "transport.hh"

#include "partition/alignment.hh"
#include "partition/comm_pattern.hh"
#include "partition/dsi.hh"
#include "partition/op_spec.hh"
#include "partition/partition_step.hh"
#include "support/parallel.hh"
#include "tensor/tensor.hh"

namespace primepar {

/** Gathered results of one partitioned training step. */
struct TrainStepResult
{
    Tensor output;   ///< forward output O
    Tensor d_input;  ///< input gradient dI
    Tensor d_weight; ///< parameter gradient dW (empty if no parameter)
};

/** Communication volume observed during execution. */
struct CommVolume
{
    std::int64_t ringElements = 0;      ///< ring shift traffic
    std::int64_t allReduceElements = 0; ///< summed all-reduce payloads
    int allReduceCount = 0;             ///< number of grouped all-reduces
    /** Post-codec bytes that actually crossed the transport (all
     *  channels). 4 bytes per element when no codec is configured;
     *  0 when transfers are direct in-process copies (no transport —
     *  there is no wire). */
    std::int64_t wireBytes = 0;

    /** Raw fp32 bytes of the counted communication volume. Note the
     *  all-reduce convention: allReduceElements counts each reduce's
     *  payload once, while the wire carries gather + broadcast hops,
     *  so with all-reduce traffic this undercounts the per-transfer
     *  raw sum (RuntimeHealth::bytesMoved is that exact sum). */
    std::int64_t
    rawBytes() const
    {
        return 4 * (ringElements + allReduceElements);
    }
};

/**
 * Executes the full Forward / Backward / Gradient cycle of one
 * operator under a partition sequence on emulated devices.
 */
class SpmdOpExecutor
{
  public:
    /**
     * @param op operator (kinds: linear, matmul, add, elementwise,
     *           softmax)
     * @param seq partition sequence over 2^num_bits devices
     * @param num_bits device-id bit count
     * @param overlap_comm where a step's operand shifts run
     *        (construction-time; see ExecutionOptions::overlapComm).
     *        Every shift is staged and committed the same way; on, the
     *        shifts toward step t+1 run on a dedicated comm worker
     *        while step t's sub-operators compute, off, they run
     *        inline after compute. Same transfers, same order, same
     *        bits either way, and a transfer fault rolls back exactly
     *        the step it belongs to.
     * @param owned device ranks this process materializes tensor data
     *        for. The default span owns every rank (single owner); a
     *        narrowed span (multi-process execution) keeps the
     *        partition tuples of all 2^n devices but allocates data,
     *        undo-log copies and staging buffers only inside the
     *        span — non-local transfer endpoints then require a
     *        Transport (setTransport) that can reach their owners.
     */
    SpmdOpExecutor(OpSpec op, PartitionSeq seq, int num_bits,
                   bool overlap_comm = true, DeviceSpan owned = {});

    /**
     * Run one training step.
     *
     * @param inputs full (unpartitioned) tensors keyed by name: every
     *        forward operand (e.g. "I", "W") plus "dO", the upstream
     *        gradient of the output.
     */
    TrainStepResult run(const std::map<std::string, Tensor> &inputs);

    /**
     * Run only the passes of one phase (graph-level training
     * interleaves phases across operators). Inputs are scattered on
     * first use; stashed tensors persist across calls until reset().
     */
    void runPhase(Phase phase,
                  const std::map<std::string, Tensor> &inputs);

    /** Drop all device state (stashes, outputs) and counters. */
    void reset();

    /** True if tensor @p name (e.g. "O", "dI") is materialized. */
    bool hasTensor(const std::string &name) const;

    /** Gather a materialized tensor (by refName, e.g. "dW"). */
    Tensor gatherByName(const std::string &name) const;

    /** Apply W <- W - lr * dW locally on every device (no comm), then
     *  gather the updated parameter. Valid after run(). */
    Tensor sgdUpdateAndGather(double lr);

    /** Traffic counters of the last run(). */
    const CommVolume &stats() const { return commStats; }

    const DsiTable &dsi() const { return dsiTable; }

    /**
     * Execute per-device sub-operators on @p pool (nullptr = serial;
     * not owned). Every device writes only its own slots and ring
     * shifts / all-reduces remain serial barriers with a fixed
     * reduction order, so results are bit-identical at any thread
     * count.
     */
    void setThreadPool(ThreadPool *pool_in) { pool = pool_in; }

    /**
     * Route all inter-device transfers (ring shifts, accumulator
     * migrations, transition shifts, all-reduce gathers/broadcasts)
     * through @p t (not owned; nullptr = direct in-process copies).
     * When the transport is fault tolerant, each temporal step keeps
     * an undo log of the state it changes in place (the pass output's
     * slots, the layernorm aux slots, the traffic counters), so an
     * exhausted transfer retry rolls the step back and re-executes it
     * instead of aborting.
     */
    void setTransport(Transport *t) { transport = t; }

    /**
     * Report this executor's events to @p h (not owned; nullptr =
     * none): every pass output — activation, input gradient, weight
     * gradient — at its phase boundary (h's guard scans it for
     * NaN/Inf/explosions), step rollbacks, and, while an observer is
     * attached to @p h, per-device Compute spans and Ring / RingJoin /
     * AllReduce / Redist transfer spans. Without observers the span
     * points reduce to one branch each.
     */
    void setHealth(RuntimeHealth *h) { health = h; }

    /** Stamp subsequent transfers / guard findings with train step
     *  @p s (forwards to the transport when one is attached). */
    void
    beginStep(std::int64_t s)
    {
        trainStep = s;
        if (transport)
            transport->beginStep(s);
    }

  private:
    struct DeviceSlot
    {
        Tensor data;
        std::vector<std::int64_t> tuple; ///< slice indices per op dim
    };

    /** Per-device storage of one logical tensor (empty = absent). */
    using TensorStore = std::vector<DeviceSlot>;

    /** Stashed layernorm auxiliaries per device. Pre-sized serially
     *  in runPass() before any parallel region, so computeLocal() only
     *  touches its own device's slot. */
    struct LayerNormAux
    {
        TensorStore mean;
        TensorStore invStd;
        TensorStore dGamma;
    };

    /** One staged receive: the payload lands in its own tensor and
     *  reaches the store only at commitShifts(). */
    struct PendingRecv
    {
        int id = 0;                  ///< tensor id of the moved store
        const Tensor *src = nullptr; ///< live sender slot (read-only)
        std::int64_t sender = 0;
        std::int64_t receiver = 0;
        Tensor staged;
        std::vector<std::int64_t> tuple; ///< the sender's pre-shift tuple
        /** Issue a transport call for this transfer (false when the
         *  sharded span owns neither endpoint: tuple-only update). */
        bool doTransfer = true;
        /** Swap staged data into the receiver slot at the commit
         *  (false when the receiver is not owned: the staged tensor
         *  was only the send-side scratch). */
        bool commitData = true;
    };

    /** One step's shifts on one channel ("ring" or "acc"). wireBytes
     *  is written by whichever thread runs the batch and read after
     *  the join (synchronized by SerialWorker's wait()). */
    struct ShiftBatch
    {
        const char *channel = "";
        Phase phase = Phase::Forward;
        int toT = 0;
        bool traced = false;
        std::vector<PendingRecv> recvs;
        std::int64_t elements = 0;
        std::int64_t wireBytes = 0;
    };

    /** Index of @p ref into stores / names: 2 * tensor + grad. */
    static int
    tensorId(const TensorRef &ref)
    {
        return 2 * ref.tensor + (ref.grad ? 1 : 0);
    }
    /** Id of the tensor named @p name, or -1. */
    int idByName(const std::string &name) const;
    void scatter(const TensorRef &ref, const Tensor &full, Phase phase,
                 int t);
    Tensor gather(const TensorRef &ref) const;
    std::vector<std::int64_t> tupleAt(const TensorRef &ref, Phase phase,
                                      std::int64_t dev, int t) const;
    Tensor sliceFor(const TensorRef &ref, const Tensor &full,
                    Phase phase, std::int64_t dev, int t) const;
    /** Stage @p shifts toward step @p to_t on @p channel: capture each
     *  transfer's live sender slot and pre-shift tuple. The stores
     *  stay untouched until commitShifts(). */
    ShiftBatch stageShifts(const std::vector<ShiftSet> &shifts,
                           const char *channel, Phase phase, int to_t);
    /** Issue the batch's transfers in order into the staging tensors
     *  — on the comm worker when posted ahead of compute, inline
     *  otherwise. Sends read the live stores, which is legal because
     *  nothing writes a moved tensor until the commit. */
    void runShifts(ShiftBatch &batch);
    /** Swap the staged receives and tuples into the stores and count
     *  the batch's traffic. Never throws. */
    void commitShifts(ShiftBatch &batch);
    void runPass(int pass_index,
                 const std::map<std::string, Tensor> &inputs);
    Tensor computeLocal(const PassSpec &pass, std::int64_t dev);
    /** Full (unpartitioned) shape of the tensor behind @p ref. */
    Shape fullShape(const TensorRef &ref) const;
    /**
     * Run @p body once, or — when the transport is fault tolerant —
     * under an undo log of what a step changes in place: the slots of
     * output store @p out_id, the layernorm aux slots and the traffic
     * counters. Operand stores need no log: their receives are staged
     * and committed after the step's last transfer. The log is
     * restored and the step retried when a transfer's retry budget is
     * exhausted mid-step.
     */
    void runJournaled(int out_id, const std::function<void()> &body);
    /** True when spans are wanted (an observer is attached). */
    bool observed() const { return health && health->observed(); }

    /** Owned-span helpers. The default span owns every rank, so
     *  these collapse to [0, numDevices). */
    bool ownsDev(std::int64_t dev) const { return ownedSpan.owns(dev); }
    std::int64_t
    ownedFirst() const
    {
        return ownedSpan.all() ? 0 : ownedSpan.first;
    }
    std::int64_t
    ownedCount() const
    {
        return ownedSpan.all() ? dsiTable.numDevices() : ownedSpan.count;
    }

    OpSpec op;
    PartitionSeq seq;
    DsiTable dsiTable;
    std::vector<PassComm> passComms;
    /** Tensor names by id (refName), for tags, spans and lookups. */
    std::vector<std::string> names;
    /** Device stores by tensor id. Sized once at construction, so a
     *  posted receive's sender pointer stays valid. */
    std::vector<TensorStore> stores;
    CommVolume commStats;
    LayerNormAux aux;
    ThreadPool *pool = nullptr;
    Transport *transport = nullptr;
    const bool overlapComm;
    /** Ranks whose tensor data this process materializes; default =
     *  all (single owner). Partition tuples stay global either way. */
    const DeviceSpan ownedSpan;
    /** The dedicated communication thread (lazily started). Only one
     *  batch is ever in flight and every other transfer runs strictly
     *  after its join, so the transport sees a serial, deterministic
     *  transfer order. */
    SerialWorker commWorker;
    /** The one sink of this executor's events (not owned). */
    RuntimeHealth *health = nullptr;
    std::int64_t trainStep = 0;
};

/**
 * Reference single-device training step for the same operator; the
 * executor's results must match this exactly (up to float summation
 * order tolerance).
 */
TrainStepResult referenceTrainStep(const OpSpec &op,
                                   const std::map<std::string, Tensor>
                                       &inputs);

} // namespace primepar

#endif // PRIMEPAR_RUNTIME_SPMD_EXECUTOR_HH
