/**
 * @file
 * Execution-timeline recording and Chrome-trace export.
 *
 * The paper's Fig. 9 shows per-device kernel execution timelines of
 * the compared plans. Both the simulator and the real SPMD runtime
 * (via TracingObserver) record every compute kernel, ring transfer,
 * collective, redistribution and checkpoint as a span; this module
 * renders the recording either as chrome://tracing JSON (load the
 * file in a trace viewer), as a compact ASCII timeline for terminals,
 * or as a per-kind ASCII summary.
 *
 * Span kinds are a closed enum (SpanKind) rather than free-form
 * strings, so runtime traces and simulator traces merge into one
 * viewer file without label skew.
 */

#ifndef PRIMEPAR_SIM_TRACE_HH
#define PRIMEPAR_SIM_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace primepar {

/** The closed vocabulary of execution span kinds. */
enum class SpanKind
{
    Compute,    ///< a per-device sub-operator kernel
    Ring,       ///< ring shift / accumulator migration send-recv
    RingJoin,   ///< time the step join blocked on posted transfers
    AllReduce,  ///< grouped all-reduce participation
    Redist,     ///< redistribution (scatter/gather) traffic
    Checkpoint, ///< checkpoint save or restore
    Journal,    ///< a temporal step's undo-log snapshot copy
};

/** Stable lowercase name, also the Chrome-trace category. */
const char *toString(SpanKind kind);

/** One recorded execution span. */
struct TraceSpan
{
    std::int64_t device = 0;
    SpanKind kind = SpanKind::Compute;
    std::string label;
    double startUs = 0.0;
    double endUs = 0.0;
};

/** A recording of one simulated or real run. */
class Trace
{
  public:
    /** Append a span. */
    void add(std::int64_t device, SpanKind kind, std::string label,
             double start_us, double end_us);

    const std::vector<TraceSpan> &spans() const { return spansVec; }
    bool empty() const { return spansVec.empty(); }
    void clear() { spansVec.clear(); }

    /** Latest span end. */
    double endUs() const;

    /** chrome://tracing "trace event" JSON. */
    std::string toChromeJson() const;

    /**
     * ASCII rendering: one row per device, @p width columns; compute
     * spans print '#', ring '~', all-reduce 'A', redistribution 'r',
     * checkpoint 'C'.
     */
    std::string toAscii(int width = 72) const;

    /**
     * ASCII summary: per span kind, the span count and the total and
     * maximum-per-device busy time — the terminal-friendly digest of
     * a recorded run.
     */
    std::string summary() const;

  private:
    std::vector<TraceSpan> spansVec;
};

/**
 * Compute/communication overlap digest of a recorded run: how much of
 * the ring-transfer time was hidden from the step's critical path.
 * This is the runtime measurement of the paper's Fig. 9 claim — ring
 * traffic that the blocked GEMMs hide costs no wall-clock time.
 *
 * Hidden time is the larger of two views, so the digest is meaningful
 * on any host:
 *  - wall-interval overlap: Ring span time lying under the union of
 *    Compute span intervals (true concurrency on multi-core hosts);
 *  - join exposure: posted transfer time minus the RingJoin stalls —
 *    on a single hardware thread the comm worker timeshares with
 *    compute, so a transfer is "hidden" exactly when the step's join
 *    did not have to wait for it.
 * A trace with no RingJoin spans (strictly synchronous execution)
 * only gets the first view.
 */
struct OverlapStats
{
    double transferUs = 0.0; ///< summed ring-shift span durations
    double hiddenUs = 0.0;   ///< portion off the critical path

    /** Fraction of transfer time hidden behind compute (1.0 when the
     *  run had no ring traffic at all). */
    double
    efficiency() const
    {
        return transferUs > 0.0 ? hiddenUs / transferUs : 1.0;
    }
};

/** Measure @p trace's ring/compute overlap (any device's compute
 *  hides any device's transfer — the emulated devices share the
 *  machine's execution resources). */
OverlapStats overlapStats(const Trace &trace);

} // namespace primepar

#endif // PRIMEPAR_SIM_TRACE_HH
