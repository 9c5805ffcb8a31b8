/**
 * @file
 * `perfbench_driver` — runs one benchmark workload and prints its
 * result (run.py builds this binary and calls it).
 *
 *   perfbench_driver --workload plan_cold|train_block|train_tcp
 *                    --seed N --seconds S --trace 0|1
 *                    --reference FILE --workdir DIR [--commit ID]
 *   perfbench_driver --make-reference FILE --workdir DIR
 *   perfbench_driver --tcp-worker HOST:PORT --result FILE   (internal)
 *
 * The last stdout line is the result object: {"correct", "attempted",
 * "failed", "metrics"}. The line before it is the run record (commit,
 * host threads, compiler, build type, and the workload's exact counts
 * and tail percentile).
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.hh"

using namespace perfbench;
using primepar::JsonValue;

namespace {

/** A run that has not finished by then is killed: the benchmark
 *  contract allows 180 s per run. */
constexpr unsigned kRunDeadlineS = 175;

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite metric value");
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int
runWorkload(const Args &args, const std::string &commit)
{
    const JsonValue refs = primepar::loadJsonFile(args.reference);
    Outcome out;
    const bool known = args.workload == "plan_cold" ||
                       args.workload == "train_block" ||
                       args.workload == "train_tcp";
    if (!known)
        throw std::runtime_error("unknown workload " + args.workload);
    const JsonValue &ref = refs.at(args.workload);
    std::filesystem::create_directories(args.workdir);
    if (args.workload == "plan_cold")
        runPlanCold(args, ref, out);
    else if (args.workload == "train_block")
        runTrainBlock(args, ref, out);
    else
        runTrainTcp(args, ref, out);

    JsonValue record = out.record;
    record.set("workload", JsonValue(args.workload));
    record.set("seed", JsonValue(static_cast<std::int64_t>(args.seed)));
    record.set("trace", JsonValue(args.trace));
    record.set("commit", JsonValue(commit));
    record.set("nproc", JsonValue(hostThreads()));
    record.set("compiler", JsonValue(PERFBENCH_COMPILER));
    record.set("build_type", JsonValue(PERFBENCH_BUILD_TYPE));
    JsonValue why = JsonValue::array();
    for (const std::string &m : out.mismatches)
        why.push(JsonValue(m));
    record.set("mismatches", std::move(why));
    JsonValue wrapped = JsonValue::object();
    wrapped.set("record", std::move(record));
    std::printf("%s\n", wrapped.toString(0).c_str());

    const bool correct = out.failed == 0 && out.mismatches.empty();
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(out.attempted);
    line += ", \"failed\": " + std::to_string(out.failed);
    line += ", \"metrics\": {";
    const auto &defs = args.trace ? perLayerMetrics() : endToEndMetrics();
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = out.metrics.find(defs[i].name);
        if (it == out.metrics.end() && !args.trace)
            throw std::runtime_error(std::string("metric ") +
                                     defs[i].name + " was not measured");
        const double v = it == out.metrics.end() ? 0.0 : it->second;
        line += std::string(i ? ", " : "") + "\"" + defs[i].name +
                "\": {\"value\": " + jsonNumber(v) + ", \"unit\": \"" +
                defs[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string commit = "unknown", makeReference, tcpWorker, result;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", arg.c_str());
            return 2;
        }
        const std::string val = argv[++i];
        if (arg == "--workload")
            args.workload = val;
        else if (arg == "--seed")
            args.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            args.seconds = std::atof(val.c_str());
        else if (arg == "--trace")
            args.trace = val == "1";
        else if (arg == "--reference")
            args.reference = val;
        else if (arg == "--workdir")
            args.workdir = val;
        else if (arg == "--commit")
            commit = val;
        else if (arg == "--make-reference")
            makeReference = val;
        else if (arg == "--tcp-worker")
            tcpWorker = val;
        else if (arg == "--result")
            result = val;
        else {
            std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
            return 2;
        }
    }
    try {
        if (!tcpWorker.empty())
            return tcpWorkerMain(tcpWorker, result);
        if (!makeReference.empty()) {
            JsonValue refs = makeTrainReference(args.workdir);
            refs.set("plan_cold", makePlanReference());
            primepar::saveJsonFile(makeReference, refs);
            return 0;
        }
        alarm(kRunDeadlineS);
        return runWorkload(args, commit);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
