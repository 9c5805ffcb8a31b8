#include "trace.hh"

#include <algorithm>
#include <map>
#include <sstream>

namespace primepar {

const char *
toString(SpanKind kind)
{
    switch (kind) {
    case SpanKind::Compute: return "compute";
    case SpanKind::Ring: return "ring";
    case SpanKind::RingJoin: return "ring-join";
    case SpanKind::AllReduce: return "allreduce";
    case SpanKind::Redist: return "redist";
    case SpanKind::Checkpoint: return "checkpoint";
    case SpanKind::Journal: return "journal";
    }
    return "unknown";
}

void
Trace::add(std::int64_t device, SpanKind kind, std::string label,
           double start_us, double end_us)
{
    spansVec.push_back(
        {device, kind, std::move(label), start_us, end_us});
}

double
Trace::endUs() const
{
    double end = 0.0;
    for (const auto &s : spansVec)
        end = std::max(end, s.endUs);
    return end;
}

std::string
Trace::toChromeJson() const
{
    std::ostringstream os;
    os << "[\n";
    bool first = true;
    for (const auto &s : spansVec) {
        if (!first)
            os << ",\n";
        first = false;
        os << "  {\"name\": \"" << s.label << "\", \"cat\": \""
           << toString(s.kind) << "\", \"ph\": \"X\", \"ts\": "
           << s.startUs << ", \"dur\": " << (s.endUs - s.startUs)
           << ", \"pid\": 0, \"tid\": " << s.device << "}";
    }
    os << "\n]\n";
    return os.str();
}

std::string
Trace::toAscii(int width) const
{
    if (spansVec.empty())
        return "(empty trace)\n";
    const double total = endUs();
    if (total <= 0.0)
        return "(empty trace)\n";

    std::map<std::int64_t, std::string> rows;
    for (const auto &s : spansVec) {
        auto [it, inserted] =
            rows.emplace(s.device, std::string(width, '.'));
        std::string &row = it->second;
        int a = static_cast<int>(s.startUs / total * width);
        int b = static_cast<int>(s.endUs / total * width);
        a = std::clamp(a, 0, width - 1);
        b = std::clamp(b, a + 1, width);
        char c = '?';
        switch (s.kind) {
        case SpanKind::Compute: c = '#'; break;
        case SpanKind::Ring: c = '~'; break;
        case SpanKind::RingJoin: c = 'j'; break;
        case SpanKind::AllReduce: c = 'A'; break;
        case SpanKind::Redist: c = 'r'; break;
        case SpanKind::Checkpoint: c = 'C'; break;
        case SpanKind::Journal: c = 'J'; break;
        }
        for (int i = a; i < b; ++i) {
            // Compute dominates the glyph; comm shows in gaps.
            if (row[i] == '.' || c == '#')
                row[i] = c;
        }
    }

    std::ostringstream os;
    for (const auto &[device, row] : rows)
        os << "dev " << device << " |" << row << "|\n";
    os << "        (" << "#=compute, ~=ring, A=all-reduce, r=redist, "
       << "C=checkpoint, J=journal; span " << total << " us)\n";
    return os.str();
}

std::string
Trace::summary() const
{
    if (spansVec.empty())
        return "(empty trace)\n";

    struct KindTotals
    {
        std::int64_t count = 0;
        double totalUs = 0.0;
        std::map<std::int64_t, double> perDevice;
    };
    std::map<SpanKind, KindTotals> kinds;
    for (const auto &s : spansVec) {
        KindTotals &k = kinds[s.kind];
        ++k.count;
        const double dur = s.endUs - s.startUs;
        k.totalUs += dur;
        k.perDevice[s.device] += dur;
    }

    std::ostringstream os;
    os << "span summary (" << spansVec.size() << " spans, "
       << endUs() << " us wall):\n";
    for (const auto &[kind, k] : kinds) {
        double worst = 0.0;
        for (const auto &[dev, us] : k.perDevice)
            worst = std::max(worst, us);
        os << "  " << toString(kind) << ": " << k.count
           << " spans, total " << k.totalUs << " us, busiest device "
           << worst << " us\n";
    }
    return os.str();
}

OverlapStats
overlapStats(const Trace &trace)
{
    // Merge all compute spans into a sorted union of disjoint
    // intervals, then clip each ring span against it.
    std::vector<std::pair<double, double>> compute;
    for (const TraceSpan &s : trace.spans()) {
        if (s.kind == SpanKind::Compute && s.endUs > s.startUs)
            compute.emplace_back(s.startUs, s.endUs);
    }
    std::sort(compute.begin(), compute.end());
    std::vector<std::pair<double, double>> merged;
    for (const auto &iv : compute) {
        if (!merged.empty() && iv.first <= merged.back().second)
            merged.back().second =
                std::max(merged.back().second, iv.second);
        else
            merged.push_back(iv);
    }

    OverlapStats stats;
    double concurrent = 0.0, exposed = 0.0;
    bool any_join = false;
    for (const TraceSpan &s : trace.spans()) {
        if (s.kind == SpanKind::RingJoin) {
            // The join stall is the transfer time the step could not
            // hide (zero-length joins still mark the trace as posted).
            exposed += std::max(0.0, s.endUs - s.startUs);
            any_join = true;
            continue;
        }
        if (s.kind != SpanKind::Ring || s.endUs <= s.startUs)
            continue;
        // Step-shift transfers only — accumulator migrations ("acc
        // <tensor>") stay synchronous by design and are not part of
        // the overlap budget.
        if (s.label.rfind("ring ", 0) != 0)
            continue;
        stats.transferUs += s.endUs - s.startUs;
        // First merged interval ending after the span starts.
        auto it = std::lower_bound(
            merged.begin(), merged.end(), s.startUs,
            [](const std::pair<double, double> &iv, double t) {
                return iv.second <= t;
            });
        for (; it != merged.end() && it->first < s.endUs; ++it) {
            concurrent += std::min(s.endUs, it->second) -
                          std::max(s.startUs, it->first);
        }
    }
    // Two views of "hidden" (see OverlapStats): genuine wall-clock
    // concurrency, and — when transfers were posted ahead — the part
    // the join never had to wait for. Take the stronger claim.
    stats.hiddenUs = concurrent;
    if (any_join) {
        stats.hiddenUs = std::max(
            stats.hiddenUs,
            std::max(0.0, stats.transferUs - exposed));
    }
    return stats;
}

} // namespace primepar
