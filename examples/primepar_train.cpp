/**
 * @file
 * `primepar_train` — fault-tolerant training loop demo.
 *
 * Trains a transformer block on emulated devices through the
 * fault-injecting transport: per-step losses, periodic checkpoints,
 * resume, and graceful degradation when a device permanently fails
 * (re-plan on the surviving grid + restore of the last checkpoint).
 *
 * Usage:
 *   primepar_train [--steps N] [--devices D] [--threads T] [--batch B]
 *                  [--hidden H] [--heads A] [--ffn F] [--seq S]
 *                  [--lr LR] [--momentum M] [--seed SEED]
 *                  [--checkpoint FILE] [--checkpoint-every N]
 *                  [--resume] [--fault-spec SPEC] [--plan dp|heuristic]
 *                  [--no-overlap]
 *                  [--trace-out FILE] [--metrics-out FILE]
 *
 * Observability: --trace-out records every runtime span through a
 * TracingObserver and writes Chrome-trace JSON (open in a trace
 * viewer) plus an ASCII per-kind summary on stdout; --metrics-out
 * snapshots the MetricsRegistry (counters, histograms, buffer-pool
 * hit rate) to a primepar-metrics-v1 JSON file.
 *
 * Communication: ring shifts overlap with compute by default
 * (--no-overlap runs each step's shifts inline after compute instead
 * of on the comm thread — useful for A/B timing; both move the same
 * transfers in the same order and produce bit-identical results).
 *
 * Fault specs (see FaultSpec::parse), e.g.:
 *   --fault-spec "drop=0.01,corrupt=0.005,seed=7"
 *   --fault-spec "fail@step=5:dev=2"
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <fstream>

#include "optimizer/segmented_dp.hh"
#include "runtime/metrics.hh"
#include "runtime/observer.hh"
#include "runtime/trainer.hh"
#include "support/bits.hh"
#include "support/json.hh"

using namespace primepar;

namespace {

struct Options
{
    int steps = 10;
    int devices = 4;
    int threads = 1;
    std::int64_t batch = 4;
    std::int64_t hidden = 32;
    std::int64_t heads = 4;
    std::int64_t ffn = 64;
    std::int64_t seq = 16;
    double lr = 0.01;
    double momentum = 0.9;
    std::uint64_t seed = 1234;
    std::string checkpoint;
    int checkpointEvery = 0;
    bool resume = false;
    std::string faultSpec;
    std::string plan = "heuristic";
    bool overlap = true;
    std::string traceOut;
    std::string metricsOut;
};

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--steps") {
            opts.steps = std::atoi(next());
        } else if (arg == "--devices") {
            opts.devices = std::atoi(next());
        } else if (arg == "--threads") {
            opts.threads = std::atoi(next());
        } else if (arg == "--batch") {
            opts.batch = std::atoll(next());
        } else if (arg == "--hidden") {
            opts.hidden = std::atoll(next());
        } else if (arg == "--heads") {
            opts.heads = std::atoll(next());
        } else if (arg == "--ffn") {
            opts.ffn = std::atoll(next());
        } else if (arg == "--seq") {
            opts.seq = std::atoll(next());
        } else if (arg == "--lr") {
            opts.lr = std::atof(next());
        } else if (arg == "--momentum") {
            opts.momentum = std::atof(next());
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--checkpoint") {
            opts.checkpoint = next();
        } else if (arg == "--checkpoint-every") {
            opts.checkpointEvery = std::atoi(next());
        } else if (arg == "--resume") {
            opts.resume = true;
        } else if (arg == "--fault-spec") {
            opts.faultSpec = next();
        } else if (arg == "--plan") {
            opts.plan = next();
        } else if (arg == "--no-overlap") {
            opts.overlap = false;
        } else if (arg == "--trace-out") {
            opts.traceOut = next();
        } else if (arg == "--metrics-out") {
            opts.metricsOut = next();
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: primepar_train [--steps N] [--devices D]"
                " [--threads T] [--batch B]\n"
                "            [--hidden H] [--heads A] [--ffn F]"
                " [--seq S] [--lr LR]\n"
                "            [--momentum M] [--seed SEED]"
                " [--checkpoint FILE]\n"
                "            [--checkpoint-every N] [--resume]"
                " [--fault-spec SPEC]\n"
                "            [--plan dp|heuristic] [--no-overlap]\n"
                "            [--trace-out FILE]"
                " [--metrics-out FILE]\n"
                "--no-overlap runs ring shifts inline after compute"
                " instead of on the comm\n"
                "            thread (same transfers, same bits)\n"
                "exit codes: 0 ok, 1 internal, 2 usage, 3 transient"
                " fault,\n"
                "            4 device lost, 5 checkpoint, 6 fenced\n");
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown argument %s (try --help)\n",
                         arg.c_str());
            std::exit(2);
        }
    }
    if (!isPowerOfTwo(opts.devices)) {
        std::fprintf(stderr, "--devices must be a power of two\n");
        std::exit(2);
    }
    if (opts.plan != "dp" && opts.plan != "heuristic") {
        std::fprintf(stderr, "--plan must be dp or heuristic\n");
        std::exit(2);
    }
    if (opts.resume && opts.checkpoint.empty()) {
        std::fprintf(stderr, "--resume requires --checkpoint FILE\n");
        std::exit(2);
    }
    return opts;
}

int
log2i(int v)
{
    int bits = 0;
    while ((1 << bits) < v)
        ++bits;
    return bits;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);

    TrainerOptions topts;
    topts.model.name = "custom";
    topts.model.hiddenSize = opts.hidden;
    topts.model.numHeads = opts.heads;
    topts.model.ffnSize = opts.ffn;
    topts.model.seqLength = opts.seq;
    topts.model.numLayers = 1;
    topts.batch = opts.batch;
    topts.runtime.numBits = log2i(opts.devices);
    topts.runtime.execution.numThreads = opts.threads;
    topts.runtime.execution.overlapComm = opts.overlap;
    topts.lr = opts.lr;
    topts.momentum = opts.momentum;
    topts.seed = opts.seed;
    topts.runtime.checkpoint.path = opts.checkpoint;
    topts.runtime.checkpoint.every = opts.checkpointEvery;
    if (opts.plan == "dp") {
        // Re-planning (initial and after a device failure) through the
        // segmented-DP optimizer on the current grid size. The DP may
        // partition a layernorm's normalized dim (cost-model-only
        // execution); the functional executor cannot run that, so such
        // nodes fall back to the heuristic strategy.
        topts.replanner = [](const CompGraph &g, int bits) {
            DpOptions dp;
            dp.numThreads = 0;
            std::vector<PartitionSeq> plan =
                replanForSurvivors(g, 1 << bits, dp).strategies;
            const auto fallback = defaultBlockPlan(g, bits);
            for (int n = 0; n < g.numNodes(); ++n) {
                const OpSpec &op = g.node(n);
                if (op.normalizedDim >= 0 &&
                    plan[n].sliceCounts(op)[op.normalizedDim] > 1)
                    plan[n] = fallback[n];
            }
            return plan;
        };
    }

    try {
        if (!opts.faultSpec.empty())
            topts.runtime.faults = FaultSpec::parse(opts.faultSpec);

        std::printf("training %lldx%lldx%lld block on %d devices"
                    " (plan: %s%s)\n",
                    static_cast<long long>(opts.hidden),
                    static_cast<long long>(opts.ffn),
                    static_cast<long long>(opts.seq), opts.devices,
                    opts.plan.c_str(),
                    topts.runtime.faults.enabled() ? ", faults on" : "");

        BlockTrainer trainer(topts);
        TracingObserver tracer;
        MetricsRegistry registry;
        MetricsObserver metrics(&registry);
        if (!opts.traceOut.empty())
            trainer.addObserver(&tracer);
        if (!opts.metricsOut.empty())
            trainer.addObserver(&metrics);
        if (opts.resume) {
            trainer.resumeFromCheckpointFile();
            std::printf("resumed from '%s' at step %lld\n",
                        opts.checkpoint.c_str(),
                        static_cast<long long>(trainer.step()));
        }

        while (trainer.step() < opts.steps) {
            const StepStats stats = trainer.trainStep();
            std::printf("step %4lld  loss % .6f  (2^%d devices)\n",
                        static_cast<long long>(stats.step), stats.loss,
                        trainer.deviceBits());
        }
        if (!opts.checkpoint.empty())
            trainer.saveCheckpointNow();

        if (!opts.traceOut.empty()) {
            const Trace trace = tracer.snapshot();
            std::ofstream out(opts.traceOut);
            out << trace.toChromeJson();
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             opts.traceOut.c_str());
                return 1;
            }
            std::printf("\n%s", trace.summary().c_str());
            std::printf("trace written to %s\n", opts.traceOut.c_str());
        }
        if (!opts.metricsOut.empty()) {
            saveJsonFile(opts.metricsOut, registry.snapshotJson());
            std::printf("metrics written to %s\n",
                        opts.metricsOut.c_str());
        }

        // Communication volume of the last step's logical payloads.
        // The health report below holds the run's exact per-transfer
        // byte total, which differs from CommVolume::rawBytes() when
        // all-reduces ran (the wire carries gather + broadcast hops).
        const CommVolume comm = trainer.lastStepComm();
        std::printf("\nlast step comm: %lld ring elements, "
                    "%lld all-reduce elements (%d reduces), "
                    "%lld raw bytes\n",
                    static_cast<long long>(comm.ringElements),
                    static_cast<long long>(comm.allReduceElements),
                    comm.allReduceCount,
                    static_cast<long long>(comm.rawBytes()));

        std::printf("\n%s\n", trainer.health().report().c_str());
        return 0;
    } catch (const DeviceFailedError &err) {
        std::fprintf(stderr,
                     "unrecoverable: %s (replan budget exhausted)\n",
                     err.what());
        return exitcode::DeviceLost;
    } catch (const std::exception &err) {
        // Distinct, documented exit codes per failure class (see
        // --help and runtime/errors.hh): scripts branch on *why* a
        // run failed, not just that it did.
        std::fprintf(stderr, "error: %s\n", err.what());
        return exitcode::forCurrentException();
    }
}
