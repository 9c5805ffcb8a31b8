#include "observer.hh"

#include <chrono>
#include <sstream>

namespace primepar {

double
observerNowUs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     epoch)
        .count();
}

TracingObserver::TracingObserver() : baseUs(observerNowUs()) {}

void
TracingObserver::onSpan(std::int64_t device, SpanKind kind,
                        const std::string &label, double start_us,
                        double end_us)
{
    std::lock_guard<std::mutex> lock(mu);
    trace.add(device, kind, label, start_us - baseUs,
              end_us - baseUs);
}

void
TracingObserver::onCheckpoint(bool save, std::int64_t step,
                              double wall_us)
{
    const double now = observerNowUs();
    std::lock_guard<std::mutex> lock(mu);
    // Checkpoints are whole-grid operations; device -1 is the
    // conventional "runtime" row in the exported timeline.
    trace.add(-1, SpanKind::Checkpoint,
              std::string(save ? "checkpoint save" : "checkpoint "
                                                     "restore") +
                  "@step" + std::to_string(step),
              now - wall_us - baseUs, now - baseUs);
}

Trace
TracingObserver::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    return trace;
}

OverlapStats
TracingObserver::overlapStats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return primepar::overlapStats(trace);
}

void
TracingObserver::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    trace.clear();
    baseUs = observerNowUs();
}

void
RuntimeHealth::addObserver(RuntimeObserver *o)
{
    if (o)
        observers.push_back(o);
}

void
RuntimeHealth::transferred(const TransferTag &tag, std::int64_t bytes,
                           int attempts, double start_us)
{
    ++transfers;
    bytesMoved += bytes;
    if (observers.empty())
        return;
    const double wall_us = observerNowUs() - start_us;
    for (RuntimeObserver *o : observers)
        o->onTransfer(tag, bytes, bytes, attempts, wall_us);
}

void
RuntimeHealth::faultDetected(std::int64_t RuntimeHealth::*counter,
                             const FaultEvent &event, double delay_us)
{
    ++(this->*counter);
    simulatedDelayUs += delay_us;
    recordEvent(event);
    for (RuntimeObserver *o : observers)
        o->onFault(event);
}

void
RuntimeHealth::retried(double backoff_us)
{
    ++retries;
    simulatedDelayUs += backoff_us;
}

void
RuntimeHealth::fenced(const FaultEvent &event)
{
    ++fencedFrames;
    recordEvent(event);
}

void
RuntimeHealth::workerUp(std::int64_t worker, std::uint64_t generation)
{
    for (RuntimeObserver *o : observers)
        o->onWorkerUp(worker, generation);
}

void
RuntimeHealth::workerLost(std::int64_t worker, std::uint64_t generation,
                          const std::string &reason)
{
    ++workersLost;
    for (RuntimeObserver *o : observers)
        o->onWorkerLost(worker, generation, reason);
}

void
RuntimeHealth::rolledBack(const FaultEvent &event)
{
    ++stepRollbacks;
    recordEvent(event);
    for (RuntimeObserver *o : observers)
        o->onRollback(event.step);
}

void
RuntimeHealth::tensorProduced(const std::string &name, std::int64_t step,
                              const Tensor &t)
{
    if (guard.enabled)
        scan(name, step, t);
    for (RuntimeObserver *o : observers)
        o->onTensorProduced(name, step, t);
}

void
RuntimeHealth::span(std::int64_t device, SpanKind kind,
                    const std::string &label, double start_us,
                    double end_us)
{
    for (RuntimeObserver *o : observers)
        o->onSpan(device, kind, label, start_us, end_us);
}

void
RuntimeHealth::stepBegan(std::int64_t step)
{
    for (RuntimeObserver *o : observers)
        o->onStepBegin(step);
}

void
RuntimeHealth::stepEnded(std::int64_t step, double start_us)
{
    if (observers.empty())
        return;
    const double wall_us = observerNowUs() - start_us;
    for (RuntimeObserver *o : observers)
        o->onStepEnd(step, wall_us);
}

void
RuntimeHealth::checkpointed(bool save, std::int64_t step,
                            double start_us)
{
    if (observers.empty())
        return;
    const double wall_us = observerNowUs() - start_us;
    for (RuntimeObserver *o : observers)
        o->onCheckpoint(save, step, wall_us);
}

void
RuntimeHealth::recordEvent(FaultEvent event)
{
    log.push_back(std::move(event));
    while (log.size() > maxEvents)
        log.pop_front();
}

bool
RuntimeHealth::allClear() const
{
    return dropsDetected == 0 && corruptionsDetected == 0 &&
           headerMismatches == 0 && stragglers == 0 &&
           reconnects == 0 && fencedFrames == 0 &&
           stepRollbacks == 0 && deviceFailures == 0 &&
           workersLost == 0 && anomalies.total() == 0;
}

std::string
RuntimeHealth::report() const
{
    std::ostringstream os;
    os << "RuntimeHealth:\n"
       << "  transfers          " << transfers << " (" << bytesMoved
       << " bytes)\n"
       << "  drops detected     " << dropsDetected << "\n"
       << "  corrupt payloads   " << corruptionsDetected << "\n"
       << "  header mismatches  " << headerMismatches << "\n"
       << "  stragglers         " << stragglers << " ("
       << simulatedDelayUs << " us simulated delay)\n"
       << "  retries            " << retries << "\n"
       << "  reconnects         " << reconnects << "\n"
       << "  fenced frames      " << fencedFrames << "\n"
       << "  step rollbacks     " << stepRollbacks << "\n"
       << "  device failures    " << deviceFailures << "\n"
       << "  workers lost       " << workersLost << "\n"
       << "  replans            " << replans << "\n"
       << "  ckpt restores      " << checkpointRestores << "\n"
       << "  anomalies          nan=" << anomalies.nan
       << " inf=" << anomalies.inf
       << " explosion=" << anomalies.explosion << "\n";
    if (!log.empty()) {
        os << "  last events (" << log.size() << "):\n";
        for (const FaultEvent &e : log) {
            os << "    step " << e.step << " "
               << faultKindName(e.kind) << " " << e.tensor;
            if (e.sender >= 0)
                os << " " << e.sender << "->" << e.receiver;
            os << " attempt " << e.attempt << ": " << e.detail << "\n";
        }
    }
    return os.str();
}

void
RuntimeHealth::reset()
{
    RuntimeHealth fresh;
    fresh.guard = guard;
    fresh.observers = std::move(observers);
    *this = std::move(fresh);
}

void
RuntimeHealth::scan(const std::string &name, std::int64_t step,
                    const Tensor &t)
{
    const std::int64_t n = t.numel();
    const AnomalyCounts found =
        anomalyCounts(t.data(), n, guard.explosionThreshold);
    if (found.total() == 0)
        return;
    anomalies.nan += found.nan;
    anomalies.inf += found.inf;
    anomalies.explosion += found.explosion;
    std::ostringstream detail;
    detail << "numeric anomaly in " << name << ": " << found.nan
           << " NaN, " << found.inf << " Inf, " << found.explosion << " >|"
           << guard.explosionThreshold << "| of " << n << " elements";
    recordEvent({FaultKind::None, detail.str(), name, step, -1, -1, 0});
}

} // namespace primepar
