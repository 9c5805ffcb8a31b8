/**
 * @file
 * `primepar_plan` — command-line strategy planner.
 *
 * Plans a tensor-parallel training strategy for one of the evaluation
 * models on a chosen cluster size, prints the per-operator partition
 * sequences and the predicted iteration latency / memory, and can
 * optionally emit a chrome://tracing timeline of the simulated step.
 *
 * Usage:
 *   primepar_plan [--model "<name>"] [--devices N] [--batch B]
 *                 [--alpha A] [--layers L] [--threads T] [--no-psquare]
 *                 [--no-batch-dim] [--trace FILE.json] [--compare]
 *                 [--beam-width N] [--max-temporal-steps K]
 *                 [--metrics-out F.json]
 *
 * Model names: "OPT 6.7B", "OPT 175B", "Llama2 7B", "Llama2 70B",
 * "BLOOM 7B1", "BLOOM 176B".
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "primepar.hh"
#include "support/table.hh"

using namespace primepar;

namespace {

struct Options
{
    std::string model = "Llama2 7B";
    int devices = 8;
    std::int64_t batch = 8;
    double alpha = 0.0;
    int layers = 0;  // 0 = model default
    int threads = 0; // planner threads, 0 = hardware concurrency
    bool psquare = true;
    bool batchDim = true;
    bool compare = false;
    int beamWidth = 0;  // 0 = exact; > 0 = certified-gap beam
    int maxTemporalSteps = 0; // 0 = unbounded per-operator space
    std::string traceFile;
    std::string metricsFile;
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
        if (arg == "--model") {
            opts.model = next();
        } else if (arg == "--devices") {
            opts.devices = std::atoi(next());
        } else if (arg == "--batch") {
            opts.batch = std::atoll(next());
        } else if (arg == "--alpha") {
            opts.alpha = std::atof(next());
        } else if (arg == "--layers") {
            opts.layers = std::atoi(next());
        } else if (arg == "--threads") {
            opts.threads = std::atoi(next());
        } else if (arg == "--no-psquare") {
            opts.psquare = false;
        } else if (arg == "--no-batch-dim") {
            opts.batchDim = false;
        } else if (arg == "--compare") {
            opts.compare = true;
        } else if (arg == "--trace") {
            opts.traceFile = next();
        } else if (arg == "--beam-width") {
            opts.beamWidth = std::atoi(next());
        } else if (arg == "--max-temporal-steps") {
            opts.maxTemporalSteps = std::atoi(next());
        } else if (arg == "--metrics-out") {
            opts.metricsFile = next();
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: primepar_plan [--model NAME] [--devices N] "
                "[--batch B]\n"
                "                     [--alpha US_PER_MIB] [--layers L]"
                " [--threads T]\n"
                "                     [--no-psquare] [--no-batch-dim]"
                " [--trace F.json]\n"
                "                     [--compare] [--beam-width N]\n"
                "                     [--max-temporal-steps K]"
                " [--metrics-out F.json]\n");
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown argument %s (try --help)\n",
                         arg.c_str());
            std::exit(2);
        }
    }
    if (opts.devices < 1 || !isPowerOfTwo(opts.devices)) {
        throw InputError("--devices must be a positive power of two "
                         "(got " +
                         std::to_string(opts.devices) +
                         "); the paper cluster tiles 2^k devices");
    }
    if (opts.beamWidth < 0) {
        throw InputError("--beam-width must be >= 0 (got " +
                         std::to_string(opts.beamWidth) + ")");
    }
    if (opts.maxTemporalSteps < 0 ||
        (opts.maxTemporalSteps != 0 &&
         !isPowerOfTwo(opts.maxTemporalSteps))) {
        throw InputError(
            "--max-temporal-steps must be 0 (unbounded) or a power of "
            "two (got " +
            std::to_string(opts.maxTemporalSteps) + ")");
    }
    return opts;
}

} // namespace

int
run(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    ModelConfig model = modelByName(opts.model);
    if (opts.layers > 0)
        model.numLayers = opts.layers;

    const ClusterTopology topo =
        ClusterTopology::paperCluster(opts.devices);
    std::printf("model %s (%.1fB params, %d layers), %d devices "
                "(%d nodes x %d), batch %lld\n\n",
                model.name.c_str(), model.totalParams() / 1e9,
                model.numLayers, opts.devices, topo.numNodes(),
                topo.gpusPerNode(),
                static_cast<long long>(opts.batch));

    const CostModel cost(topo, profileModels(topo), opts.alpha);
    const CompGraph graph = buildTransformerBlock(model, opts.batch);
    const std::string lanes = edgeLaneBoundsError(graph, opts.devices);
    if (!lanes.empty()) {
        throw InputError("--batch " + std::to_string(opts.batch) +
                         " on " + std::to_string(opts.devices) +
                         " devices: " + lanes);
    }

    MetricsRegistry metrics;
    DpOptions dp;
    dp.numLayers = model.numLayers;
    dp.numThreads = opts.threads;
    dp.space.allowPSquare = opts.psquare;
    if (!opts.batchDim)
        dp.space.excludedDims = {0};
    dp.beamWidth = opts.beamWidth;
    if (opts.maxTemporalSteps > 0)
        dp.space.maxTemporalSteps = opts.maxTemporalSteps;
    dp.metrics = &metrics;
    const DpResult plan = SegmentedDpOptimizer(graph, cost, dp).optimize();

    std::printf("strategy (search took %.1f ms: catalogs %.1f, "
                "pilot %.1f, edge tables %.1f, DP %.1f):\n",
                plan.optimizationMs, plan.catalogMs, plan.pilotMs,
                plan.edgeTableMs, plan.dpMs);
    if (plan.truncated) {
        std::printf("  beam width %d truncated the space: cost is "
                    "within %.2f%% of optimal (certified)\n",
                    opts.beamWidth, plan.gapPct);
    }
    for (int n = 0; n < graph.numNodes(); ++n) {
        std::printf("  %-10s %s\n", graph.node(n).name.c_str(),
                    plan.strategies[n].toString(graph.node(n)).c_str());
    }

    const ModelSimulator sim(topo, graph, plan.strategies);
    Trace trace;
    const ModelSimResult r = sim.simulate(
        model.numLayers, opts.traceFile.empty() ? nullptr : &trace);
    const double gib = 1024.0 * 1024.0 * 1024.0;
    std::printf("\npredicted iteration: %.1f ms (compute %.1f, "
                "collective %.1f, ring %.1f, redist %.1f)\n",
                r.latencyUs / 1e3, r.computeUs / 1e3,
                r.allReduceUs / 1e3, r.ringUs / 1e3, r.redistUs / 1e3);
    std::printf("throughput: %.0f tokens/s; peak memory %.2f GiB "
                "per device\n",
                opts.batch * model.seqLength / (r.latencyUs * 1e-6),
                r.peakMemoryBytes / gib);

    if (!opts.traceFile.empty()) {
        std::ofstream out(opts.traceFile);
        out << trace.toChromeJson();
        std::printf("timeline written to %s (open in a Chrome trace "
                    "viewer)\n",
                    opts.traceFile.c_str());
    }

    if (opts.compare) {
        std::printf("\nbaselines:\n");
        TextTable table;
        table.header(
            {"system", "iteration ms", "tok/s", "peak mem GiB"});
        auto add = [&](const char *name,
                       const std::vector<PartitionSeq> &strategies) {
            const ModelSimulator s(topo, graph, strategies);
            const ModelSimResult m = s.simulate(model.numLayers);
            table.row({name, fmtDouble(m.latencyUs / 1e3, 1),
                       fmtDouble(opts.batch * model.seqLength /
                                     (m.latencyUs * 1e-6),
                                 0),
                       fmtDouble(m.peakMemoryBytes / gib, 2)});
        };
        add("PrimePar", plan.strategies);
        const MegatronPlan mg = bestMegatronPlan(graph, cost);
        add("Megatron", mg.strategies);
        const DpResult alpa = alpaOptimize(graph, cost, model.numLayers);
        add("Alpa-like", alpa.strategies);
        std::printf("%s", table.render().c_str());
    }

    if (!opts.metricsFile.empty()) {
        saveJsonFile(opts.metricsFile, metrics.snapshotJson());
        std::printf("planner metrics written to %s\n",
                    opts.metricsFile.c_str());
    }
    return 0;
}

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const InputError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
