/**
 * @file
 * The distributed job's control plane: coordinator and worker client.
 *
 * One Coordinator process accepts a fixed number of worker
 * registrations, assigns worker ids, places the 2^n emulated devices
 * contiguously onto the workers (DistWorld), and broadcasts the
 * resulting world plus an opaque job document in a "welcome" response.
 * From then on every worker keeps one persistent control connection:
 *
 *   Heartbeat ........ liveness beacon every DistOptions::heartbeatMs
 *   Ctrl "step" ...... per-step loss report; the ack carries the
 *                      pause barrier during a pending re-join
 *   Ctrl "suspect" ... "my transfer to worker W keeps failing" —
 *                      blocks until the coordinator has decided W's
 *                      fate, answers with the current world
 *   Ctrl "resync" .... survivor parked at the re-join barrier; blocks
 *                      until the restored world is fenced
 *   Ctrl "world" ..... plain world fetch (re-sync after fencing)
 *   Ctrl "done" ...... this worker finished its steps
 *
 * Death is detected two ways: the worker's control connection closes
 * (immediate), or heartbeatMissLimit consecutive beacon periods pass
 * without one (timeout). Either way the coordinator bumps the
 * generation, drops one device bit (mirroring BlockTrainer's
 * 2^n -> 2^(n-1) degradation), re-places the surviving devices over
 * the surviving workers, and lets survivors pick the new world up
 * through their next "suspect" call. Frames from older generations are
 * fenced at the data plane (tcp_transport.hh), so a zombie declared
 * dead by mistake cannot corrupt the resumed run.
 *
 * ## Elastic re-join
 *
 * With CoordinatorOptions::allowRejoin, a degraded job grows back: a
 * fresh `primepar_worker --connect` registering after a loss becomes a
 * *pending* rejoiner. The coordinator picks the resume barrier
 * R = (highest reported step) + 2 — every survivor is guaranteed to
 * still report some step s <= R-1 and therefore sees `pause_at: R` in
 * a step ack before executing step R. Each survivor then checkpoints
 * at exactly step R and parks in a blocking "resync" RPC; when the
 * last one arrives the coordinator flips: generation++, the grid grows
 * back one bit (capped at the original), devices are re-placed over
 * survivors + rejoiner, the rejoiner's deferred welcome ships with
 * `resume_step` and `restore_from` (a survivor id whose step-R
 * checkpoint snapshot it loads), and the parked survivors wake into
 * the restored world. Training resumes at step R on the full grid,
 * bit-identical to a never-degraded run restored from the same
 * checkpoint.
 *
 * Loss reports are recorded from the lowest-id reporting worker per
 * step; a differing loss from another worker in the same generation is
 * counted as a divergence (the SPMD workers must agree bit-for-bit).
 */

#ifndef PRIMEPAR_RUNTIME_COORDINATOR_HH
#define PRIMEPAR_RUNTIME_COORDINATOR_HH

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net.hh"
#include "options.hh"
#include "support/json.hh"
#include "tcp_transport.hh"

namespace primepar {

class RuntimeObserver;

/** Coordinator configuration. */
struct CoordinatorOptions
{
    int numWorkers = 2;
    /** Initial grid: 2^numBits devices over the workers. */
    int numBits = 2;
    /** Control-plane listen port (0 = ephemeral). */
    int port = 0;
    DistOptions dist;
    /** Accept late registrations into a degraded generation and grow
     *  the grid back (see file comment). Requires the workers to keep
     *  checkpoint history so the rejoiner has state to restore. */
    bool allowRejoin = false;
    /** Opaque job document broadcast verbatim in every welcome (the
     *  example puts the model/optimizer/fault configuration here, so
     *  workers need nothing but the coordinator's address). */
    JsonValue job;
};

/** Coordinator's answer to a per-step loss report. */
struct StepAck
{
    std::uint64_t generation = 0;
    /** Step the worker must pause at for a pending re-join (checkpoint
     *  + "resync" before executing it); -1 = keep going. */
    std::int64_t pauseAt = -1;
};

/** The control-plane server. start() binds; run() drives the job. */
class Coordinator
{
  public:
    explicit Coordinator(CoordinatorOptions opts);
    ~Coordinator();

    /** Bind the control listener; port() is valid afterwards. */
    void start();
    int port() const;

    /**
     * Accept registrations, broadcast welcomes, then serve the
     * control plane until every live worker reported done (returns 0)
     * or every worker died (returns 1).
     */
    int run();

    /** Per-step losses recorded so far (authoritative reporter). */
    std::map<std::int64_t, double> losses() const;
    std::uint64_t generation() const;
    int workersLost() const;
    /** Same-generation loss mismatches between workers. */
    int divergences() const;

    /** Receives onWorkerUp / onWorkerLost (not owned). */
    void setObserver(RuntimeObserver *o) { observer = o; }

  private:
    struct WorkerState;

    void readerLoop(WorkerState &w);
    void markDead(std::int64_t worker, const std::string &reason);
    JsonValue handleSuspect(WorkerState &from, std::int64_t suspected);
    /** Park @p from at the re-join barrier; the last survivor to park
     *  performs the flip (see file comment). Returns the world to
     *  answer with. */
    JsonValue handleResync(WorkerState &from);
    /** Poll the listener for a late registration (allowRejoin only). */
    void tryAcceptRejoin();
    JsonValue currentWorldJson();
    bool finished();

    CoordinatorOptions opts;
    RuntimeObserver *observer = nullptr;
    NetListener listener;

    mutable std::mutex mu;
    std::condition_variable cv;
    std::uint64_t generation_ = 0;
    int bits_ = 0;
    int origBits_ = 0;
    /** Highest step any worker reported so far (-1 = none). */
    std::int64_t maxStep_ = -1;
    /** Worker id of the pending rejoiner (-1 = none). */
    std::int64_t pendingRejoin_ = -1;
    /** Resume barrier R of the pending re-join (-1 = none). */
    std::int64_t resumeStep_ = -1;
    std::vector<WorkerInfo> placed; ///< live workers' placement
    std::vector<std::unique_ptr<WorkerState>> workers;
    std::map<std::int64_t, double> lossByStep;
    std::map<std::int64_t, std::int64_t> lossReporter;
    /** Generation each loss was reported under: replays after a
     *  degrade overwrite instead of counting as divergence. */
    std::map<std::int64_t, std::uint64_t> lossGen;
    int lost = 0;
    int diverged = 0;
    std::atomic<bool> stopping{false};
};

/**
 * The worker side of the control plane: one persistent connection,
 * a background heartbeat thread, and blocking RPCs. Not thread-safe
 * except for the internal heartbeat thread (writes are serialized by
 * a send mutex; only RPC calls ever read the socket).
 */
class CoordinatorClient
{
  public:
    explicit CoordinatorClient(DistOptions dist = {});
    ~CoordinatorClient();

    /** Dial the coordinator; throws RuntimeError on failure. */
    void connect(const std::string &host, int port);

    /**
     * Register this worker's data-plane listener port; blocks until
     * every worker registered and returns the welcome document
     * ({"worker": id, "world": {...}, "job": {...}}).
     */
    JsonValue registerWorker(int dataPort);

    void startHeartbeats(int periodMs);
    void stopHeartbeats();

    /** Per-step loss report; the ack carries the pause barrier of a
     *  pending re-join (StepAck::pauseAt). */
    StepAck reportStep(std::int64_t step, double loss);

    /**
     * Park at the re-join barrier after checkpointing at @p step;
     * blocks until the coordinator fenced the restored world (or gave
     * up on the rejoiner) and returns it.
     */
    DistWorld resync(std::int64_t step);

    /**
     * Report that transfers to @p suspected keep failing; blocks
     * until the coordinator decided its fate and returns the current
     * world (generation tells whether a re-plan happened).
     */
    DistWorld suspect(std::int64_t suspected);

    /** Fetch the current world without accusing anyone. */
    DistWorld fetchWorld();

    /** This worker finished training. */
    void done(std::int64_t finalStep, double finalLoss);

    std::int64_t workerId() const { return myId; }
    std::uint64_t generation() const { return generation_; }

  private:
    void send(const WireFrame &f);
    /** Send Ctrl @p verb, await CtrlResp @p respVerb (null: same). */
    JsonValue rpc(const char *verb, const JsonValue &body,
                  int deadline_ms, const char *respVerb = nullptr);

    DistOptions dist;
    NetSocket sock;
    std::mutex sendMu;
    std::thread heartbeatThread;
    std::atomic<bool> stopHb{false};
    std::int64_t myId = -1;
    std::uint64_t generation_ = 0;
};

} // namespace primepar

#endif // PRIMEPAR_RUNTIME_COORDINATOR_HH
