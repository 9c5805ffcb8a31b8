/**
 * @file
 * Metric catalogue, summary statistics and the span probe.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "sim/trace.hh"

namespace perfbench {

using primepar::JsonValue;

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},        {"ops_per_s", "1/s"},
        {"op_ms_p50", "ms"},     {"op_ms_tail", "ms"},
        {"peak_rss_mb", "MB"},   {"ops_ok_pct", "%"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"optimizer.catalog_ms", "ms"},
        {"optimizer.pilot_ms", "ms"},
        {"optimizer.edge_table_ms", "ms"},
        {"optimizer.edge_table_ms.d8", "ms"},
        {"optimizer.edge_table_ms.d16", "ms"},
        {"optimizer.edge_table_ms.d32", "ms"},
        {"optimizer.dp_ms", "ms"},
        {"optimizer.unattributed_ms", "ms"},
        {"optimizer.candidates_kept_pct", "%"},
        {"optimizer.states_pruned", "count"},
        {"cost.profile_ms", "ms"},
        {"sim.simulate_ms", "ms"},
        {"sim.predicted_step_ms", "ms"},
        {"exec.compute_ms", "ms"},
        {"exec.ring_ms", "ms"},
        {"exec.ring_join_ms", "ms"},
        {"exec.allreduce_ms", "ms"},
        {"exec.redist_ms", "ms"},
        {"exec.compute_gflops", "GFLOP/s"},
        {"exec.overlap_hidden_pct", "%"},
        {"exec.span_coverage_pct", "%"},
        {"transport.transfers", "count"},
        {"transport.bytes.ring", "B"},
        {"transport.bytes.acc", "B"},
        {"transport.bytes.allreduce", "B"},
        {"transport.bytes.gather", "B"},
        {"transport.transfer_ms", "ms"},
        {"transport.retries", "count"},
        {"transport.rollbacks", "count"},
        {"comm.redist_model_bytes", "B"},
        {"tensor.pool_hit_pct", "%"},
        {"tensor.pool_retained_mb", "MB"},
        {"coordinator.register_ms", "ms"},
        {"coordinator.report_step_ms", "ms"},
        {"net.worker_cpu_pct", "%"},
        {"checkpoint.save_ms", "ms"},
        {"trace.overhead_pct", "%"},
    };
    return defs;
}

void
Outcome::mismatch(const std::string &why)
{
    if (mismatches.size() < 8)
        mismatches.push_back(why);
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

Tail
tailOf(const std::vector<double> &v)
{
    if (v.size() <= 20)
        return {100.0, percentile(v, 100.0)};
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    const double n = static_cast<double>(sorted.size());
    return {100.0 * (n - 10.0) / n, sorted[sorted.size() - 11]};
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

/** Where the probe kernel leaves its results, so they are computed. */
volatile float gFloatSink;
volatile std::size_t gSizeSink;

} // namespace

double
probeHostS()
{
    constexpr int kN = 64;
    constexpr std::size_t kCopyBytes = 4u << 20;
    static std::vector<float> a(kN * kN, 0.5f), b(kN * kN, 0.25f),
        c(kN * kN);
    static std::vector<char> src(kCopyBytes, 1), dst(kCopyBytes);
    static std::vector<std::uint32_t> keys(1u << 15), work;
    if (keys[1] == 0)
        for (std::size_t i = 0; i < keys.size(); ++i)
            keys[i] = static_cast<std::uint32_t>(i * 2654435761u);
    // A float matrix product (the trainers' kind of work), a copy (their
    // slicing and journaling) and a sort plus ordered-map inserts (the
    // planner's kind of work).
    auto kernel = [&] {
        for (int rep = 0; rep < 6; ++rep) {
            std::fill(c.begin(), c.end(), 0.0f);
            for (int i = 0; i < kN; ++i)
                for (int k = 0; k < kN; ++k) {
                    const float aik = a[i * kN + k];
                    for (int j = 0; j < kN; ++j)
                        c[i * kN + j] += aik * b[k * kN + j];
                }
            a[rep] = c[rep] * 1e-3f;
        }
        gFloatSink = c[kN * kN - 1];
        std::memcpy(dst.data(), src.data(), kCopyBytes);
        src[0] = static_cast<char>(dst[kCopyBytes - 1] + 1);
        work = keys;
        std::sort(work.begin(), work.end());
        std::map<std::uint32_t, int> m;
        for (std::size_t i = 0; i < 4096; ++i)
            m[work[(i * 7919) % work.size()] >> 7] += 1;
        gSizeSink = m.size();
    };
    // The first pass pulls the probe's data back into cache, so the
    // timed one does not depend on what the program left there.
    kernel();
    const double t0 = nowS();
    kernel();
    return nowS() - t0;
}

void
HostSpeed::probe()
{
    probeS.push_back(probeHostS());
}

std::size_t
HostSpeed::add(double raw_s)
{
    if (probeS.empty())
        throw std::logic_error("HostSpeed::add before any probe");
    ops.emplace_back(raw_s, probeS.size() - 1);
    return ops.size() - 1;
}

double
HostSpeed::aroundS(std::size_t op) const
{
    const std::size_t before = ops.at(op).second;
    return before + 1 < probeS.size()
               ? 0.5 * (probeS[before] + probeS[before + 1])
               : probeS[before];
}

double
HostSpeed::meanProbeS() const
{
    double sum = 0.0;
    for (double p : probeS)
        sum += p;
    return probeS.empty() ? 0.0 : sum / static_cast<double>(probeS.size());
}

int
hostThreads()
{
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

std::string
exactDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

void
timeMetrics(Outcome &out, const RunTimes &scaled, const RunTimes &raw,
            double mean_probe_s)
{
    auto fill = [](const RunTimes &t, auto &&set) {
        set("setup_s", median(t.setupS));
        set("ops_per_s", median(t.groupOps));
        set("op_ms_p50", median(t.opMs));
        set("op_ms_tail", tailOf(t.opMs).value);
    };
    fill(scaled, [&](const char *name, double v) { out.metrics[name] = v; });
    JsonValue unscaled = JsonValue::object();
    fill(raw, [&](const char *name, double v) {
        unscaled.set(name, JsonValue(v));
    });
    out.record.set("unscaled", std::move(unscaled));
    const Tail tail = tailOf(scaled.opMs);
    out.record.set("tail_percentile", JsonValue(tail.pct));
    out.record.set("samples", JsonValue(static_cast<std::int64_t>(
                                  scaled.opMs.size())));
    out.record.set("host_probe_ms", JsonValue(mean_probe_s * 1e3));
}

void
finishOutcome(Outcome &out, double peak_rss_mb)
{
    out.metrics["peak_rss_mb"] = peak_rss_mb;
    out.metrics["ops_ok_pct"] =
        out.attempted > 0
            ? 100.0 * static_cast<double>(out.attempted - out.failed) /
                  static_cast<double>(out.attempted)
            : 0.0;
}

// ---------------------------------------------------------------------------
// ProbeTotals

namespace {

JsonValue
mapJson(const std::map<std::string, double> &m)
{
    JsonValue o = JsonValue::object();
    for (const auto &[k, v] : m)
        o.set(k, JsonValue(v));
    return o;
}

std::map<std::string, double>
jsonMap(const JsonValue &o)
{
    std::map<std::string, double> m;
    for (const auto &[k, v] : o.members())
        m[k] = v.asNumber();
    return m;
}

void
addMap(std::map<std::string, double> &into,
       const std::map<std::string, double> &from)
{
    for (const auto &[k, v] : from)
        into[k] += v;
}

/** Span label with its temporal-step suffix (" t3") removed, so
 *  compute spans aggregate per graph node x phase. */
std::string
labelKey(primepar::SpanKind kind, const std::string &label)
{
    std::string key = label;
    const std::size_t sp = key.rfind(" t");
    if (sp != std::string::npos && sp + 2 < key.size() &&
        std::all_of(key.begin() + static_cast<std::ptrdiff_t>(sp + 2),
                    key.end(), [](char c) { return c >= '0' && c <= '9'; }))
        key.resize(sp);
    return std::string(primepar::toString(kind)) + " | " + key;
}

} // namespace

JsonValue
ProbeTotals::toJson() const
{
    JsonValue o = JsonValue::object();
    o.set("steps", JsonValue(steps));
    o.set("step_wall_us", JsonValue(stepWallUs));
    o.set("covered_us", JsonValue(coveredUs));
    o.set("kind_us", mapJson(kindUs));
    o.set("overlap_transfer_us", JsonValue(overlapTransferUs));
    o.set("overlap_hidden_us", JsonValue(overlapHiddenUs));
    o.set("transfers", mapJson(transfers));
    o.set("bytes", mapJson(bytes));
    o.set("transfer_us", JsonValue(transferUs));
    o.set("faults", JsonValue(faults));
    o.set("rollbacks", JsonValue(rollbacks));
    o.set("checkpoint_saves", JsonValue(checkpointSaves));
    o.set("checkpoint_save_us", JsonValue(checkpointSaveUs));
    o.set("by_label", mapJson(byLabel));
    return o;
}

ProbeTotals
ProbeTotals::fromJson(const JsonValue &o)
{
    ProbeTotals t;
    t.steps = o.at("steps").asNumber();
    t.stepWallUs = o.at("step_wall_us").asNumber();
    t.coveredUs = o.at("covered_us").asNumber();
    t.kindUs = jsonMap(o.at("kind_us"));
    t.overlapTransferUs = o.at("overlap_transfer_us").asNumber();
    t.overlapHiddenUs = o.at("overlap_hidden_us").asNumber();
    t.transfers = jsonMap(o.at("transfers"));
    t.bytes = jsonMap(o.at("bytes"));
    t.transferUs = o.at("transfer_us").asNumber();
    t.faults = o.at("faults").asNumber();
    t.rollbacks = o.at("rollbacks").asNumber();
    t.checkpointSaves = o.at("checkpoint_saves").asNumber();
    t.checkpointSaveUs = o.at("checkpoint_save_us").asNumber();
    t.byLabel = jsonMap(o.at("by_label"));
    return t;
}

void
ProbeTotals::add(const ProbeTotals &o)
{
    steps += o.steps;
    stepWallUs += o.stepWallUs;
    coveredUs += o.coveredUs;
    addMap(kindUs, o.kindUs);
    overlapTransferUs += o.overlapTransferUs;
    overlapHiddenUs += o.overlapHiddenUs;
    addMap(transfers, o.transfers);
    addMap(bytes, o.bytes);
    transferUs += o.transferUs;
    faults += o.faults;
    rollbacks += o.rollbacks;
    checkpointSaves += o.checkpointSaves;
    checkpointSaveUs += o.checkpointSaveUs;
    addMap(byLabel, o.byLabel);
}

// ---------------------------------------------------------------------------
// SpanProbe

void
SpanProbe::onStepBegin(std::int64_t)
{
    std::lock_guard<std::mutex> lock(mu);
    stepBeginUs = primepar::observerNowUs();
    stepTrace.clear();
}

void
SpanProbe::onStepEnd(std::int64_t, double)
{
    std::lock_guard<std::mutex> lock(mu);
    const double end = primepar::observerNowUs();
    // Union of all span intervals clipped to the step window.
    std::vector<std::pair<double, double>> iv;
    iv.reserve(stepTrace.spans().size());
    for (const primepar::TraceSpan &s : stepTrace.spans()) {
        const double a = std::max(s.startUs, stepBeginUs);
        const double b = std::min(s.endUs, end);
        if (b > a)
            iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, reach = stepBeginUs;
    for (const auto &[a, b] : iv) {
        if (b <= reach)
            continue;
        covered += b - std::max(a, reach);
        reach = b;
    }
    const primepar::OverlapStats ov = primepar::overlapStats(stepTrace);
    acc.steps += 1.0;
    acc.stepWallUs += end - stepBeginUs;
    acc.coveredUs += covered;
    acc.overlapTransferUs += ov.transferUs;
    acc.overlapHiddenUs += ov.hiddenUs;
    stepTrace.clear();
}

void
SpanProbe::onSpan(std::int64_t device, primepar::SpanKind kind,
                  const std::string &label, double start_us,
                  double end_us)
{
    std::lock_guard<std::mutex> lock(mu);
    const double d = end_us - start_us;
    acc.kindUs[primepar::toString(kind)] += d;
    acc.byLabel[labelKey(kind, label)] += d;
    // overlapStats tells step shifts ("ring ...") from accumulator
    // migrations by the label; no other kind needs one.
    stepTrace.add(device, kind,
                  kind == primepar::SpanKind::Ring ? label : std::string(),
                  start_us, end_us);
}

void
SpanProbe::onTransfer(const primepar::TransferTag &tag, std::int64_t bytes,
                      std::int64_t, int, double wall_us)
{
    if (!receivers.owns(tag.receiver))
        return;
    std::lock_guard<std::mutex> lock(mu);
    acc.transfers[tag.channel] += 1.0;
    acc.bytes[tag.channel] += static_cast<double>(bytes);
    acc.transferUs += wall_us;
}

void
SpanProbe::onFault(const primepar::FaultEvent &)
{
    std::lock_guard<std::mutex> lock(mu);
    acc.faults += 1.0;
}

void
SpanProbe::onRollback(std::int64_t)
{
    std::lock_guard<std::mutex> lock(mu);
    acc.rollbacks += 1.0;
}

void
SpanProbe::onCheckpoint(bool save, std::int64_t, double wall_us)
{
    if (!save)
        return;
    std::lock_guard<std::mutex> lock(mu);
    acc.checkpointSaves += 1.0;
    acc.checkpointSaveUs += wall_us;
}

ProbeTotals
SpanProbe::totals() const
{
    std::lock_guard<std::mutex> lock(mu);
    return acc;
}

void
probeMetrics(const ProbeTotals &t, double flops_per_step, Outcome &out)
{
    const double steps = std::max(t.steps, 1.0);
    auto kindMs = [&](const char *kind) {
        const auto it = t.kindUs.find(kind);
        return it == t.kindUs.end() ? 0.0 : it->second / 1e3 / steps;
    };
    auto perStep = [&](const std::map<std::string, double> &m,
                       const char *channel) {
        const auto it = m.find(channel);
        return it == m.end() ? 0.0 : it->second / steps;
    };
    const double compute_ms = kindMs("compute");
    out.metrics["exec.compute_ms"] = compute_ms;
    out.metrics["exec.ring_ms"] = kindMs("ring");
    out.metrics["exec.ring_join_ms"] = kindMs("ring-join");
    out.metrics["exec.allreduce_ms"] = kindMs("allreduce");
    out.metrics["exec.redist_ms"] = kindMs("redist");
    out.metrics["exec.compute_gflops"] =
        compute_ms > 0.0 ? flops_per_step / (compute_ms * 1e6) : 0.0;
    out.metrics["exec.overlap_hidden_pct"] =
        t.overlapTransferUs > 0.0
            ? 100.0 * t.overlapHiddenUs / t.overlapTransferUs
            : 0.0;
    out.metrics["exec.span_coverage_pct"] =
        t.stepWallUs > 0.0 ? 100.0 * t.coveredUs / t.stepWallUs : 0.0;
    double transfers = 0.0;
    for (const auto &[ch, n] : t.transfers)
        transfers += n;
    out.metrics["transport.transfers"] = transfers / steps;
    for (const char *ch : {"ring", "acc", "allreduce", "gather"})
        out.metrics[std::string("transport.bytes.") + ch] =
            perStep(t.bytes, ch);
    out.metrics["transport.transfer_ms"] = t.transferUs / 1e3 / steps;
    out.metrics["checkpoint.save_ms"] =
        t.checkpointSaves > 0.0
            ? t.checkpointSaveUs / 1e3 / t.checkpointSaves
            : 0.0;

    // The ten largest span groups, for the record.
    std::vector<std::pair<double, std::string>> top;
    for (const auto &[k, us] : t.byLabel)
        top.emplace_back(us, k);
    std::sort(top.rbegin(), top.rend());
    JsonValue spans = JsonValue::object();
    for (std::size_t i = 0; i < top.size() && i < 10; ++i)
        spans.set(top[i].second, JsonValue(top[i].first / 1e3 / steps));
    out.record.set("top_spans_ms_per_step", std::move(spans));
}

} // namespace perfbench
