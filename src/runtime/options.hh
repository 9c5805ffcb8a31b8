/**
 * @file
 * The single runtime configuration struct.
 *
 * PRs 2-3 grew knobs in three places: executor threading on the
 * SpmdGraphExecutor constructor, transport fault/retry settings in
 * TransportOptions, and checkpoint/recovery settings spread over
 * TrainerOptions. RuntimeOptions collapses them into one documented
 * struct with nested sections, consumed by SpmdGraphExecutor,
 * InProcessTransport and BlockTrainer alike:
 *
 *   RuntimeOptions rt;
 *   rt.numBits = 3;                  // 2^3 emulated devices
 *   rt.execution.numThreads = 0;     // all hardware threads
 *   rt.transport.maxAttempts = 6;    // retry budget
 *   rt.faults = FaultSpec::parse("drop=0.01");
 *   rt.guard.explosionThreshold = 1e5f;
 *   rt.checkpoint.path = "run.ppck";
 *   rt.checkpoint.every = 10;
 *
 * All knobs are construction-time: an executor built from a
 * RuntimeOptions cannot be reconfigured mid-run into a state that
 * disagrees with how its buffers and comm pipeline were laid out.
 */

#ifndef PRIMEPAR_RUNTIME_OPTIONS_HH
#define PRIMEPAR_RUNTIME_OPTIONS_HH

#include <string>

#include "fault.hh"
#include "transport.hh"

namespace primepar {

/** Executor threading (per-device sub-operator parallelism). */
struct ExecutionOptions
{
    /** Worker threads: 0 = all hardware threads, 1 = serial. Results
     *  are bit-identical at every setting. */
    int numThreads = 1;
    /** Run each step's operand shifts on a dedicated comm worker
     *  while the step computes; off runs the same staged batch inline
     *  after compute (the A/B baseline of the overlap benchmarks).
     *  Construction-time only. Bit-identical either way. */
    bool overlapComm = true;
    /** Device ranks this process materializes tensor data for. The
     *  default span covers every rank (one process owns every device);
     *  multi-process runs narrow it to the local worker's DistWorld
     *  slice. BlockTrainer fills it from Transport::ownedDevices(),
     *  so only hand-built executors set it directly. */
    DeviceSpan ownedDevices;
};

/** Multi-process (coordinator + workers) runtime settings. */
struct DistOptions
{
    /** Heartbeat period each worker beacons to the coordinator. */
    int heartbeatMs = 100;
    /** Consecutive missed heartbeats before a worker is declared
     *  dead and the survivors re-plan. */
    int heartbeatMissLimit = 5;
    /** Deadline of one wire transfer (send + ack) per attempt. */
    int transferDeadlineMs = 2000;
    /** Deadline of one connect / handshake. */
    int connectTimeoutMs = 2000;
    /** Re-dial attempts per peer before the peer's devices are
     *  declared failed (each waits the jittered exponential backoff,
     *  see retryBackoffUs). */
    int reconnectAttempts = 3;
};

/** Checkpointing and permanent-failure recovery. */
struct CheckpointOptions
{
    /** Checkpoint file; empty disables checkpointing. */
    std::string path;
    /** Save every N completed steps (0 = only on explicit request). */
    int every = 0;
    /** Permanent device failures survivable before giving up. */
    int maxReplans = 2;
    /** Additionally keep one immutable snapshot per save as
     *  "<path>.s<step>". Elastic re-join restores a late joiner from
     *  a survivor's step-tagged snapshot, so both sides must be able
     *  to name the same historical step after further saves have
     *  overwritten <path>. */
    bool keepHistory = false;
};

/** Everything configuring the SPMD runtime (executor + transport +
 *  fault handling + checkpointing), in one place. */
struct RuntimeOptions
{
    /** Device-id bits: 2^n emulated devices. */
    int numBits = 2;
    ExecutionOptions execution;
    /** Transport framing: retry budget, backoff, codecs, link. */
    TransportOptions transport;
    /** Fault injection (disabled by default). */
    FaultSpec faults;
    /** Numeric-anomaly guard applied at phase boundaries. */
    GuardOptions guard;
    CheckpointOptions checkpoint;
    /** Multi-process runtime (heartbeats, deadlines, reconnects). */
    DistOptions dist;
};

} // namespace primepar

#endif // PRIMEPAR_RUNTIME_OPTIONS_HH
