/**
 * @file
 * Shared pieces of the benchmark driver: command-line arguments, the
 * run outcome every workload fills in, the metric catalogue, summary
 * statistics, and the span probe that aggregates the runtime's
 * observer callbacks in traced runs.
 *
 * The driver reaches the library only through its public entry points
 * (SegmentedDpOptimizer, ModelSimulator, profileModels, BlockTrainer,
 * Coordinator / CoordinatorClient, TcpTransport, planRedistribution,
 * BufferPool::stats) and the RuntimeObserver / DpOptions::metrics
 * hooks; all timing is taken around those calls.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runtime/observer.hh"
#include "runtime/transport.hh"
#include "support/json.hh"

namespace perfbench {

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Stored reference outputs (reference.json). */
    std::string reference;
    /** Scratch directory inside the checkout (checkpoints, worker
     *  result files). */
    std::string workdir;
};

/** One metric the run reports. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Reported with tracing off; each applies to every workload. */
const std::vector<MetricDef> &endToEndMetrics();
/** Reported with tracing on; a layer a workload does not exercise
 *  reports 0. */
const std::vector<MetricDef> &perLayerMetrics();

/** What one run produced: the result line plus a run record. */
struct Outcome
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::map<std::string, double> metrics;
    /** Workload facts printed before the result line (tail
     *  percentile, exact counts, top spans). */
    primepar::JsonValue record = primepar::JsonValue::object();

    /** Note why an operation failed its check (first few kept). */
    void mismatch(const std::string &why);
    std::vector<std::string> mismatches;
};

/** Steady-clock seconds (CLOCK_MONOTONIC: comparable across the
 *  processes of one host). */
double nowS();

double median(std::vector<double> v);
/** Linear-interpolated percentile, @p p in [0, 100]. */
double percentile(std::vector<double> v, double p);

/** The highest percentile with at least ten samples beyond it: the
 *  11th-largest sample, at nearest-rank percentile 100 (n - 10) / n;
 *  with 20 samples or fewer (where that is not above the median), the
 *  maximum. */
struct Tail
{
    double pct = 100.0;
    double value = 0.0;
};
Tail tailOf(const std::vector<double> &v);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Wall time of one pass of a fixed kernel of the benchmark's own (a
 *  small float matrix product, a 4 MiB copy, a sort and ordered-map
 *  inserts), none of the program's code: how fast the host runs now. */
double probeHostS();

/** Probe time the end-to-end times are scaled to: a round figure near
 *  the fastest mean probe times seen on a 4-vCPU Xeon host. */
constexpr double kProbeNominalS = 4e-3;

/**
 * Operation times scaled to the host's speed. The host is shared: its
 * speed switched between two levels a third apart every few seconds
 * while the program stayed the same, and the probe switched with it.
 * A run calls probe() before every timed operation, add() after it and
 * probe() once more at the end; scaledS() is then an operation's time
 * times kProbeNominalS over the mean of the probes either side of it:
 * its time on a host that runs the probe in kProbeNominalS. On one
 * 60-second plan_cold run this cut the spread of a request's latency
 * from 15% to 6%. Runs report the raw times in their record.
 */
class HostSpeed
{
  public:
    void probe();
    /** Record the raw seconds of an operation timed since the last
     *  probe(); returns its index. */
    std::size_t add(double raw_s);
    double rawS(std::size_t op) const { return ops.at(op).first; }
    /** Mean of the probes either side of an operation. */
    double aroundS(std::size_t op) const;
    double scaledS(std::size_t op) const
    {
        return rawS(op) * kProbeNominalS / aroundS(op);
    }
    double meanProbeS() const;
    std::size_t probes() const { return probeS.size(); }

  private:
    std::vector<double> probeS;
    /** Raw seconds and the index of the probe before. */
    std::vector<std::pair<double, std::size_t>> ops;
};

/** The times behind the end-to-end metrics, raw or scaled. */
struct RunTimes
{
    std::vector<double> setupS;
    std::vector<double> opMs;
    /** Operations per second of each group of operations (a pass of
     *  plan requests, a training job). */
    std::vector<double> groupOps;
};

/** Fill setup_s, ops_per_s, op_ms_p50 and op_ms_tail from @p scaled,
 *  and the record's "unscaled" block from @p raw; note the run's mean
 *  probe time. */
void timeMetrics(Outcome &out, const RunTimes &scaled, const RunTimes &raw,
                 double mean_probe_s);

/** Hardware threads of the host. */
int hostThreads();

/**
 * Threads of every planner and executor the runs time. With more than
 * one, ThreadPool::parallelFor can let its caller destroy a loop's
 * stack-held completion state while the last worker still locks it; on
 * a 4-core host, at four threads, that aborted or crashed about one
 * train_block run in five and one plan_cold run in ten. One thread never
 * splits a loop. The stored references are made on all host threads, so
 * the checks still compare thread counts.
 */
constexpr int kTimedThreads = 1;

/** Exact text form of a double, for bit-for-bit reference checks. */
std::string exactDouble(double v);

/** Fill the ops_ok_pct / peak_rss_mb metrics common to every run. */
void finishOutcome(Outcome &out, double peak_rss_mb);

/**
 * Totals a SpanProbe accumulates. Plain data so worker processes can
 * ship theirs to the benchmark process as JSON and the benchmark can
 * add them up.
 */
struct ProbeTotals
{
    double steps = 0.0;
    double stepWallUs = 0.0;
    /** Step wall time during which at least one span was open. */
    double coveredUs = 0.0;
    /** Summed span durations per SpanKind (device-time). */
    std::map<std::string, double> kindUs;
    /** Ring transfer time and the part of it hidden behind compute
     *  (primepar::overlapStats per step). */
    double overlapTransferUs = 0.0;
    double overlapHiddenUs = 0.0;
    std::map<std::string, double> transfers; ///< per channel
    std::map<std::string, double> bytes;     ///< per channel
    double transferUs = 0.0;
    double faults = 0.0;
    double rollbacks = 0.0;
    double checkpointSaves = 0.0;
    double checkpointSaveUs = 0.0;
    /** Self time per span kind x graph node x phase. */
    std::map<std::string, double> byLabel;

    primepar::JsonValue toJson() const;
    static ProbeTotals fromJson(const primepar::JsonValue &v);
    void add(const ProbeTotals &other);
};

/**
 * The benchmark's RuntimeObserver: aggregates spans, transfers,
 * faults, rollbacks and checkpoint saves into ProbeTotals. Transfers
 * are counted once, at their receiver: only receivers inside
 * @p receivers are counted (the default span is every device).
 */
class SpanProbe : public primepar::RuntimeObserver
{
  public:
    explicit SpanProbe(primepar::DeviceSpan receivers = {})
        : receivers(receivers)
    {}
    SpanProbe(const SpanProbe &) = delete;
    SpanProbe &operator=(const SpanProbe &) = delete;

    void onStepBegin(std::int64_t step) override;
    void onStepEnd(std::int64_t step, double wall_us) override;
    void onSpan(std::int64_t device, primepar::SpanKind kind,
                const std::string &label, double start_us,
                double end_us) override;
    void onTransfer(const primepar::TransferTag &tag, std::int64_t bytes,
                    std::int64_t wire_bytes, int attempts,
                    double wall_us) override;
    void onFault(const primepar::FaultEvent &event) override;
    void onRollback(std::int64_t step) override;
    void onCheckpoint(bool save, std::int64_t step,
                      double wall_us) override;

    ProbeTotals totals() const;

  private:
    primepar::DeviceSpan receivers;
    mutable std::mutex mu;
    ProbeTotals acc;
    double stepBeginUs = 0.0;
    /** The current step's spans, for coverage and overlap. */
    primepar::Trace stepTrace;
};

/** Per-layer metrics derived from a probe over @p steps steps and
 *  @p flops_per_step analytic FLOPs. */
void probeMetrics(const ProbeTotals &t, double flops_per_step,
                  Outcome &out);

// Workloads (plan_workload.cc, train_workload.cc).
void runPlanCold(const Args &args, const primepar::JsonValue &ref,
                 Outcome &out);
void runTrainBlock(const Args &args, const primepar::JsonValue &ref,
                   Outcome &out);
void runTrainTcp(const Args &args, const primepar::JsonValue &ref,
                 Outcome &out);

/** Worker process of train_tcp: connect, train, write @p result. */
int tcpWorkerMain(const std::string &connect, const std::string &result);

/** Regenerate the stored references (reference.json). */
primepar::JsonValue makePlanReference();
primepar::JsonValue makeTrainReference(const std::string &workdir);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
