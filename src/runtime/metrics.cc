#include "metrics.hh"

#include <algorithm>
#include <cmath>

#include "tensor/buffer_pool.hh"

namespace primepar {

namespace {

int
bucketOf(double value)
{
    if (value <= 1.0)
        return 0;
    const int b = static_cast<int>(std::ceil(std::log2(value)));
    return std::clamp(b, 0, 63);
}

} // namespace

void
Histogram::record(double value)
{
    if (!(value >= 0.0)) // negative or NaN: clamp into bucket 0
        value = 0.0;
    ++buckets[bucketOf(value)];
    ++n;
    total += value;
    lo = (n == 1) ? value : std::min(lo, value);
    hi = std::max(hi, value);
}

double
Histogram::percentile(double p) const
{
    if (n == 0)
        return 0.0;
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n);
    std::int64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
        if (buckets[b] == 0)
            continue;
        const std::int64_t next = seen + buckets[b];
        if (static_cast<double>(next) >= rank) {
            // Interpolate within the bucket's value range.
            const double bucket_lo = b == 0 ? 0.0 : std::exp2(b - 1);
            const double bucket_hi = std::exp2(b);
            const double frac =
                (rank - static_cast<double>(seen)) /
                static_cast<double>(buckets[b]);
            const double v =
                bucket_lo + frac * (bucket_hi - bucket_lo);
            return std::clamp(v, min(), max());
        }
        seen = next;
    }
    return hi;
}

JsonValue
Histogram::toJson() const
{
    JsonValue v = JsonValue::object();
    v.set("count", JsonValue(n));
    v.set("sum", JsonValue(total));
    v.set("min", JsonValue(min()));
    v.set("max", JsonValue(max()));
    v.set("mean", JsonValue(mean()));
    v.set("p50", JsonValue(percentile(50)));
    v.set("p90", JsonValue(percentile(90)));
    v.set("p99", JsonValue(percentile(99)));
    return v;
}

void
MetricsRegistry::add(const std::string &name, std::int64_t delta)
{
    std::lock_guard<std::mutex> lock(mu);
    counterMap[name] += delta;
}

void
MetricsRegistry::observe(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mu);
    histogramMap[name].record(value);
}

std::int64_t
MetricsRegistry::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = counterMap.find(name);
    return it == counterMap.end() ? 0 : it->second;
}

std::map<std::string, std::int64_t>
MetricsRegistry::counters() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counterMap;
}

const Histogram *
MetricsRegistry::histogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = histogramMap.find(name);
    return it == histogramMap.end() ? nullptr : &it->second;
}

JsonValue
MetricsRegistry::snapshotJson() const
{
    std::lock_guard<std::mutex> lock(mu);
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue("primepar-metrics-v1"));

    JsonValue counters_json = JsonValue::object();
    for (const auto &[name, value] : counterMap)
        counters_json.set(name, JsonValue(value));
    doc.set("counters", std::move(counters_json));

    JsonValue hist_json = JsonValue::object();
    for (const auto &[name, hist] : histogramMap)
        hist_json.set(name, hist.toJson());
    doc.set("histograms", std::move(hist_json));

    const BufferPoolStats ps = BufferPool::global().stats();
    JsonValue pool = JsonValue::object();
    pool.set("acquires", JsonValue(ps.acquires));
    pool.set("pool_hits", JsonValue(ps.poolHits));
    pool.set("fresh_allocs", JsonValue(ps.freshAllocs));
    pool.set("bytes_allocated", JsonValue(ps.bytesAllocated));
    pool.set("bytes_retained", JsonValue(ps.bytesRetained));
    pool.set("hit_rate",
             JsonValue(ps.acquires
                           ? static_cast<double>(ps.poolHits) /
                                 static_cast<double>(ps.acquires)
                           : 0.0));
    doc.set("buffer_pool", std::move(pool));
    return doc;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    counterMap.clear();
    histogramMap.clear();
}

void
MetricsObserver::onStepEnd(std::int64_t step, double wall_us)
{
    (void)step;
    reg->add("steps");
    reg->observe("step.latency_us", wall_us);
}

void
MetricsObserver::onSpan(std::int64_t device, SpanKind kind,
                        const std::string &label, double start_us,
                        double end_us)
{
    (void)device;
    (void)label;
    const std::string k = toString(kind);
    reg->add("spans." + k);
    reg->observe("span_us." + k, end_us - start_us);
}

void
MetricsObserver::onTransfer(const TransferTag &tag, std::int64_t bytes,
                            std::int64_t wire_bytes, int attempts,
                            double wall_us)
{
    (void)wire_bytes;
    (void)attempts;
    reg->add("transport.transfers");
    reg->add("transport.bytes", bytes);
    const std::string channel = tag.channel;
    reg->add("transport.transfers." + channel);
    reg->add("transport.bytes." + channel, bytes);
    reg->observe("transport.transfer_us." + channel, wall_us);
}

void
MetricsObserver::onFault(const FaultEvent &event)
{
    reg->add("faults.detected");
    reg->add(std::string("faults.") + faultKindName(event.kind));
}

void
MetricsObserver::onRollback(std::int64_t step)
{
    (void)step;
    reg->add("executor.rollbacks");
}

void
MetricsObserver::onTensorProduced(const std::string &name,
                                  std::int64_t step, const Tensor &t)
{
    (void)name;
    (void)step;
    (void)t;
    reg->add("anomalies.scans");
}

void
MetricsObserver::onCheckpoint(bool save, std::int64_t step,
                              double wall_us)
{
    (void)step;
    reg->add(save ? "checkpoint.saves" : "checkpoint.restores");
    reg->observe("checkpoint.wall_us", wall_us);
}

void
MetricsObserver::onWorkerUp(std::int64_t worker,
                            std::uint64_t generation)
{
    (void)worker;
    (void)generation;
    reg->add("dist.workers_up");
}

void
MetricsObserver::onWorkerLost(std::int64_t worker,
                              std::uint64_t generation,
                              const std::string &reason)
{
    (void)worker;
    (void)generation;
    (void)reason;
    reg->add("dist.workers_lost");
}

} // namespace primepar
