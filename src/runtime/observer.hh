/**
 * @file
 * The runtime's one event path: RuntimeObserver callbacks and the
 * RuntimeHealth sink that counts every event and fans it out.
 *
 * SpmdOpExecutor, the transports (InProcessTransport, TcpTransport)
 * and BlockTrainer each hold one RuntimeHealth pointer and report each
 * event once, through the RuntimeHealth method named after it. That
 * method counts the event (the health counters `report()` renders),
 * keeps noteworthy ones in a bounded log, and then forwards the
 * matching RuntimeObserver callback to every attached observer:
 *
 *  - onSpan: per-device wall-clock execution spans (compute, ring
 *    send-recv, all-reduce, redistribution, checkpoint) — the real
 *    runtime's analogue of the simulator's Fig. 9 timeline;
 *  - onTransfer / onFault / onRollback: transport-level delivery,
 *    detection and recovery events;
 *  - onTensorProduced: every pass output at its phase boundary, after
 *    RuntimeHealth's numeric-anomaly guard has scanned it;
 *  - onStepBegin / onStepEnd / onCheckpoint: training-loop milestones.
 *
 * Concrete observers: TracingObserver (fills a Trace for Chrome-trace
 * or ASCII export) and MetricsObserver (metrics.hh).
 *
 * Threading contract: onSpan may be invoked concurrently from
 * per-device worker threads; implementations must be thread-safe for
 * it. All other callbacks arrive from the runtime's serial sections.
 * Spans, their labels and every timestamp are produced only while an
 * observer is attached (RuntimeHealth::observed()), so the tracing-off
 * cost is one empty check at each instrumentation point (budgeted
 * < 3% in bench_micro's observer_overhead section).
 */

#ifndef PRIMEPAR_RUNTIME_OBSERVER_HH
#define PRIMEPAR_RUNTIME_OBSERVER_HH

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "fault.hh"
#include "sim/trace.hh"
#include "tensor/elementwise.hh"
#include "tensor/tensor.hh"

namespace primepar {

/** Monotonic wall clock in microseconds (process-wide epoch). */
double observerNowUs();

/** The observability callback interface (all hooks default no-op). */
class RuntimeObserver
{
  public:
    virtual ~RuntimeObserver() = default;

    /** A training step is starting. */
    virtual void
    onStepBegin(std::int64_t step)
    {
        (void)step;
    }

    /** A training step completed in @p wall_us. */
    virtual void
    onStepEnd(std::int64_t step, double wall_us)
    {
        (void)step;
        (void)wall_us;
    }

    /**
     * One per-device execution span, in observerNowUs() time. May be
     * called concurrently from worker threads.
     */
    virtual void
    onSpan(std::int64_t device, SpanKind kind, const std::string &label,
           double start_us, double end_us)
    {
        (void)device;
        (void)kind;
        (void)label;
        (void)start_us;
        (void)end_us;
    }

    /** One successfully delivered transfer of @p bytes raw fp32
     *  payload bytes after @p attempts attempts, taking @p wall_us.
     *  Payloads cross the wire as those raw bytes, so the runtime
     *  passes @p wire_bytes equal to @p bytes. */
    virtual void
    onTransfer(const TransferTag &tag, std::int64_t bytes,
               std::int64_t wire_bytes, int attempts, double wall_us)
    {
        (void)tag;
        (void)bytes;
        (void)wire_bytes;
        (void)attempts;
        (void)wall_us;
    }

    /** A detected fault / retry / device failure (transport level). */
    virtual void
    onFault(const FaultEvent &event)
    {
        (void)event;
    }

    /** A temporal step was rolled back and will be re-executed. */
    virtual void
    onRollback(std::int64_t step)
    {
        (void)step;
    }

    /**
     * A pass output (activation / gradient) materialized on a device
     * at a phase boundary. May be called concurrently from worker
     * threads. This is where the numeric-anomaly guard hooks in.
     */
    virtual void
    onTensorProduced(const std::string &name, std::int64_t step,
                     const Tensor &t)
    {
        (void)name;
        (void)step;
        (void)t;
    }

    /** A checkpoint was saved (@p save) or restored in @p wall_us. */
    virtual void
    onCheckpoint(bool save, std::int64_t step, double wall_us)
    {
        (void)save;
        (void)step;
        (void)wall_us;
    }

    /** A worker process joined the job at @p generation (distributed
     *  runs; emitted by the coordinator / TcpTransport). */
    virtual void
    onWorkerUp(std::int64_t worker, std::uint64_t generation)
    {
        (void)worker;
        (void)generation;
    }

    /** A worker was declared dead at @p generation; @p reason is a
     *  short human-readable cause ("heartbeat timeout", ...). */
    virtual void
    onWorkerLost(std::int64_t worker, std::uint64_t generation,
                 const std::string &reason)
    {
        (void)worker;
        (void)generation;
        (void)reason;
    }
};

/**
 * Structured health report of one runtime instance, and the single
 * entry point of its events. Each event method counts exactly what
 * the event means for the health counters, logs noteworthy events,
 * then forwards the unchanged RuntimeObserver callback to the attached
 * observers in attach order. `report()` renders the summary.
 *
 * Methods taking @p start_us pair with clockUs(): the caller stamps
 * the event's start with it, and the wall time is computed only when
 * an observer will read it. span() may be called concurrently from
 * worker threads (it counts nothing); every other method is called
 * from the runtime's serial sections. Attach observers and set the
 * guard before running.
 */
class RuntimeHealth
{
  public:
    // Transport counters.
    std::int64_t transfers = 0;
    std::int64_t bytesMoved = 0;
    std::int64_t dropsDetected = 0;
    std::int64_t corruptionsDetected = 0;  ///< payload checksum mismatch
    std::int64_t headerMismatches = 0;     ///< seq/step tag mismatch
    std::int64_t stragglers = 0;
    std::int64_t retries = 0;
    double simulatedDelayUs = 0.0;

    // Distributed-transport counters.
    std::int64_t reconnects = 0;     ///< successful re-dials
    std::int64_t fencedFrames = 0;   ///< frames rejected as stale-gen

    // Recovery counters.
    std::int64_t stepRollbacks = 0;
    std::int64_t deviceFailures = 0;
    std::int64_t replans = 0;
    std::int64_t checkpointRestores = 0;
    std::int64_t workersLost = 0;

    AnomalyCounts anomalies;

    /** The numeric-anomaly guard tensorProduced() applies. */
    GuardOptions guard;

    /** Attach @p o (not owned; nullptr is ignored). */
    void addObserver(RuntimeObserver *o);

    /** True when an observer is attached: only then are spans and
     *  timestamps produced. */
    bool observed() const { return !observers.empty(); }

    /** True when produced tensors are wanted: by the guard or by an
     *  observer. */
    bool watchesTensors() const { return guard.enabled || observed(); }

    /** Start stamp of a timed event: observerNowUs() when observed,
     *  else 0 (no clock read). */
    double clockUs() const { return observed() ? observerNowUs() : 0.0; }

    // ---- Events ----

    /** A transfer of @p bytes payload bytes was delivered after
     *  @p attempts attempts. */
    void transferred(const TransferTag &tag, std::int64_t bytes,
                     int attempts, double start_us);

    /** A detected fault: bumps @p counter (a detection counter or
     *  deviceFailures), adds @p delay_us of simulated delay, logs
     *  @p event; onFault. */
    void faultDetected(std::int64_t RuntimeHealth::*counter,
                       const FaultEvent &event, double delay_us = 0.0);

    /** A failed attempt is retried; @p backoff_us of simulated wait
     *  (0 when the transport really sleeps). */
    void retried(double backoff_us = 0.0);

    /** A lost peer connection was re-dialed. */
    void reconnected() { ++reconnects; }

    /** A frame or handshake of a superseded generation was rejected;
     *  logged, no callback. */
    void fenced(const FaultEvent &event);

    /** Worker @p worker joined the job at @p generation;
     *  onWorkerUp. */
    void workerUp(std::int64_t worker, std::uint64_t generation);

    /** Worker @p worker was declared dead at @p generation;
     *  onWorkerLost. A transport that finds a worker unreachable
     *  reports the device failure (faultDetected) first. */
    void workerLost(std::int64_t worker, std::uint64_t generation,
                    const std::string &reason);

    /** The temporal step of @p event was rolled back; onRollback. */
    void rolledBack(const FaultEvent &event);

    /** A pass output materialized: the guard scans it;
     *  onTensorProduced. */
    void tensorProduced(const std::string &name, std::int64_t step,
                        const Tensor &t);

    /** One execution span; onSpan. Callers check observed() before
     *  building the label or reading the clock. */
    void span(std::int64_t device, SpanKind kind, const std::string &label,
              double start_us, double end_us);

    void stepBegan(std::int64_t step);
    void stepEnded(std::int64_t step, double start_us);
    /** A checkpoint was saved (@p save) or restored. */
    void checkpointed(bool save, std::int64_t step, double start_us);

    /** Append to the bounded event log (oldest entries evicted). */
    void recordEvent(FaultEvent event);

    const std::deque<FaultEvent> &events() const { return log; }

    /** True if nothing bad — detected fault, anomaly, failure — ever
     *  happened. Detected-and-recovered faults clear this too: the
     *  caller distinguishes "survived faults" from "saw none". */
    bool allClear() const;

    /** Human-readable multi-line summary. */
    std::string report() const;

    /** Zero the counters and the event log; the observers and the
     *  guard stay. */
    void reset();

  private:
    /** The guard: count NaN/Inf/explosions of @p t, log a finding. */
    void scan(const std::string &name, std::int64_t step,
              const Tensor &t);

    std::vector<RuntimeObserver *> observers;
    std::deque<FaultEvent> log;
    std::size_t maxEvents = 256;
};

/**
 * Records every span (and checkpoint event) into a Trace, normalized
 * to the observer's construction time, for Chrome-trace / ASCII
 * export. Thread-safe.
 */
class TracingObserver : public RuntimeObserver
{
  public:
    TracingObserver();

    void onSpan(std::int64_t device, SpanKind kind,
                const std::string &label, double start_us,
                double end_us) override;
    void onCheckpoint(bool save, std::int64_t step,
                      double wall_us) override;

    /** The recording (copy: the live trace may keep growing). */
    Trace snapshot() const;

    /** Ring-vs-Compute overlap of the recording so far: how much of
     *  the transfer time the async executor hid behind compute (see
     *  overlapStats() in sim/trace.hh). */
    OverlapStats overlapStats() const;

    /** Drop all recorded spans and re-anchor the time base. */
    void reset();

  private:
    mutable std::mutex mu;
    Trace trace;
    double baseUs;
};

} // namespace primepar

#endif // PRIMEPAR_RUNTIME_OBSERVER_HH
