/**
 * @file
 * Runtime metrics: named counters and latency histograms.
 *
 * MetricsRegistry is the quantitative side of the observability layer:
 * counters for deterministic facts (bytes moved per channel, transfer
 * counts, retries, rollbacks, anomalies, checkpoint saves) and
 * histograms for wall-clock measurements (per-channel transfer time,
 * span durations, step latency percentiles). Counters are exact and
 * thread-count-invariant — the same plan produces identical totals at
 * any executor thread count (tested); histograms record timings, which
 * legitimately vary.
 *
 * snapshotJson() renders the whole registry (plus the global buffer
 * pool's hit-rate counters) as a `primepar-metrics-v1` document,
 * which `primepar_train --metrics-out` writes per run.
 */

#ifndef PRIMEPAR_RUNTIME_METRICS_HH
#define PRIMEPAR_RUNTIME_METRICS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "observer.hh"
#include "support/json.hh"

namespace primepar {

/**
 * Log2-bucketed histogram of non-negative values (microseconds by
 * convention): bucket i holds values in [2^(i-1), 2^i).
 */
class Histogram
{
  public:
    void record(double value);

    std::int64_t count() const { return n; }
    double sum() const { return total; }
    double min() const { return n ? lo : 0.0; }
    double max() const { return hi; }
    double mean() const { return n ? total / n : 0.0; }

    /** Approximate percentile (0..100) by within-bucket
     *  interpolation. */
    double percentile(double p) const;

    JsonValue toJson() const;

  private:
    static constexpr int kBuckets = 64;
    std::int64_t buckets[kBuckets] = {};
    std::int64_t n = 0;
    double total = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

/** Thread-safe registry of named counters and histograms. */
class MetricsRegistry
{
  public:
    /** Add @p delta to counter @p name (creating it at zero). */
    void add(const std::string &name, std::int64_t delta = 1);

    /** Record @p value into histogram @p name (creating it). */
    void observe(const std::string &name, double value);

    /** Current counter value (0 when absent). */
    std::int64_t counter(const std::string &name) const;

    /** Copy of the counter map (for tests / reports). */
    std::map<std::string, std::int64_t> counters() const;

    /** Histogram lookup; nullptr when absent. Pointer stays valid for
     *  the registry's lifetime (histograms are never removed). */
    const Histogram *histogram(const std::string &name) const;

    /**
     * The full registry as a `primepar-metrics-v1` JSON document,
     * including the global BufferPool counters and derived hit rate.
     */
    JsonValue snapshotJson() const;

    void reset();

  private:
    mutable std::mutex mu;
    std::map<std::string, std::int64_t> counterMap;
    std::map<std::string, Histogram> histogramMap;
};

/**
 * Routes observer callbacks into a MetricsRegistry (not owned).
 *
 * Counter schema (all deterministic):
 *   steps
 *   transport.transfers[.<channel>]   transport.bytes[.<channel>]
 *   faults.detected  faults.<kind>    executor.rollbacks
 *   anomalies.scans                   checkpoint.saves / .restores
 *   spans.<kind>
 *   dist.workers_up  dist.workers_lost  (multi-process runs)
 * Histograms (timing, thread-count-dependent):
 *   step.latency_us   transport.transfer_us.<channel>   span_us.<kind>
 */
class MetricsObserver : public RuntimeObserver
{
  public:
    explicit MetricsObserver(MetricsRegistry *registry)
        : reg(registry)
    {}

    void onStepEnd(std::int64_t step, double wall_us) override;
    void onSpan(std::int64_t device, SpanKind kind,
                const std::string &label, double start_us,
                double end_us) override;
    void onTransfer(const TransferTag &tag, std::int64_t bytes,
                    std::int64_t wire_bytes, int attempts,
                    double wall_us) override;
    void onFault(const FaultEvent &event) override;
    void onRollback(std::int64_t step) override;
    void onTensorProduced(const std::string &name, std::int64_t step,
                          const Tensor &t) override;
    void onCheckpoint(bool save, std::int64_t step,
                      double wall_us) override;
    void onWorkerUp(std::int64_t worker,
                    std::uint64_t generation) override;
    void onWorkerLost(std::int64_t worker, std::uint64_t generation,
                      const std::string &reason) override;

  private:
    MetricsRegistry *reg;
};

} // namespace primepar

#endif // PRIMEPAR_RUNTIME_METRICS_HH
