/**
 * @file
 * Reproduces the paper's Table 2: wall-clock time of the segmented
 * dynamic programming optimizer for the OPT / Llama2 / BLOOM model
 * structures at parallelism sizes 4 / 8 / 16 / 32.
 *
 * Expected shape (paper, on a Xeon Gold 5218): ~85 ms at 4-8
 * devices, ~170 ms at 16, a few seconds at 32 — the jump at 32 comes
 * from the cubic dependence on the per-operator space size.
 *
 * Two modes:
 *  - default: google-benchmark timings at numThreads = 1 (the paper's
 *    single-thread setting);
 *  - sweep (`--json out.json` and/or `--sweep`): runs every
 *    (model, devices) cell at a sweep of planner thread counts,
 *    verifies the chosen plans and costs are bit-identical across
 *    thread counts, prints a table with per-phase timings and
 *    speedups, and emits machine-readable JSON so planner-latency
 *    trajectories can be tracked across commits.
 *
 *    bench_table2_opttime --sweep [--json FILE] [--devices 4,8,16]
 *                         [--threads 1,2,4] \
 *                         [--models "OPT 6.7B,Llama2 7B"] \
 *                         [--prune on|off|both] [--beam N] [--reps N]
 *
 *    --reps N runs every cell N times (plans must agree bit for bit)
 *    and reports the run of median search time. --json stamps the
 *    record with the measured sources' commit (see
 *    bench::sourceCommit()). An existing record of the same commit is
 *    extended cell by cell; one of another commit moves to the new
 *    record's `history` list.
 *
 *    The sweep scales to big topologies (--devices 512,1024,...,4096):
 *    above 64 devices it bounds the per-operator space
 *    (maxTemporalSteps = 8, then 4 above 1024 devices), narrows the
 *    pruning pilot to 8 candidates, and defaults to the certified-gap
 *    beam (16 wide up to 1024 devices, 8 above), since the exhaustive
 *    space there holds 10^5-10^8 sequences per operator. `--prune
 *    both` runs each cell with and without dominance pruning — the
 *    A/B column behind BENCH_planner.json — and verifies that the
 *    two agree bit-identically whenever no beam truncation occurred.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "runtime/errors.hh"
#include "support/bits.hh"
#include "support/json.hh"
#include "support/parallel.hh"

using namespace primepar;
using namespace primepar::bench;

namespace {

void
optimizeOnce(benchmark::State &state, const ModelConfig &model)
{
    const int devices = static_cast<int>(state.range(0));
    const ClusterTopology topo = ClusterTopology::paperCluster(devices);
    const CostModel cost(topo, profileModels(topo));
    const CompGraph graph = buildTransformerBlock(model, 8);

    DpOptions opts;
    opts.numLayers = model.numLayers;
    opts.numThreads = 1; // the paper's single-thread setting
    for (auto _ : state) {
        const DpResult r =
            SegmentedDpOptimizer(graph, cost, opts).optimize();
        benchmark::DoNotOptimize(r.layerCost);
        state.counters["search_ms"] = r.optimizationMs;
    }
}

void
BM_Optimize_OPT(benchmark::State &state)
{
    optimizeOnce(state, opt6p7b());
}

void
BM_Optimize_Llama2(benchmark::State &state)
{
    optimizeOnce(state, llama2_7b());
}

void
BM_Optimize_Bloom(benchmark::State &state)
{
    optimizeOnce(state, bloom7b1());
}

// ---------------------------------------------------------------------
// Thread-sweep mode.

struct SweepOptions
{
    std::string jsonPath;
    std::vector<int> devices{4, 8, 16};
    std::vector<int> threads;
    std::vector<ModelConfig> models;
    int pruneMode = 1;  // 0 = off, 1 = on, 2 = both (A/B)
    int beamWidth = -1; // -1 = auto by device count
    /** Runs per cell; the cell reports its median-time run. */
    int reps = 1;
};

/** Beam default: exact up to 64 devices, then narrow with scale so
 *  the 4096-device cell stays under a minute. Catalog evaluation cost
 *  per candidate and traffic cost per class pair both grow with the
 *  device count, so the beam must *shrink* as the topology grows. */
int
autoBeamWidth(int devices)
{
    if (devices <= 64)
        return 0;
    return devices <= 1024 ? 16 : 8;
}

std::vector<int>
parseIntList(const char *text)
{
    std::vector<int> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(std::atoi(item.c_str()));
    return out;
}

/** Default thread sweep: 1, powers of two up to, and including, the
 *  hardware concurrency. */
std::vector<int>
defaultThreadSweep()
{
    const int hw = hardwareConcurrency();
    std::vector<int> sweep;
    for (int t = 1; t < hw; t *= 2)
        sweep.push_back(t);
    sweep.push_back(hw);
    return sweep;
}

struct SweepCell
{
    std::string model;
    int devices = 0;
    int numThreads = 0; // resolved
    bool pruned = true;
    int beamWidth = 0;
    DpResult result;
};

/** Bit-identical plan and costs. */
bool
samePlan(const DpResult &a, const DpResult &b)
{
    return a.layerCost == b.layerCost && a.totalCost == b.totalCost &&
           a.strategies == b.strategies;
}

/** Cells of one sweep record that measure the same configuration. */
bool
sameCell(const JsonValue &a, const JsonValue &b)
{
    for (const char *key :
         {"model", "devices", "num_threads", "prune", "beam_width"}) {
        if (a.at(key).toString(0) != b.at(key).toString(0))
            return false;
    }
    return true;
}

/**
 * Fold the record already at @p path into @p record. A record of the
 * same commit is extended: its cells are replaced by re-measured ones
 * or kept, and its other members stay, so several sweeps build up one
 * commit's record. A record of another commit moves, whole, to the end
 * of the new record's `history` list (after its own history).
 */
JsonValue
withPreviousRecord(const std::string &path, JsonValue record)
{
    // An empty file (e.g. fresh from mktemp) holds no record.
    if (!std::filesystem::exists(path) ||
        std::filesystem::file_size(path) == 0)
        return record;
    const JsonValue prev = loadJsonFile(path);
    const JsonValue *prev_commit = prev.find("commit");
    if (prev_commit &&
        prev_commit->toString(0) == record.at("commit").toString(0)) {
        JsonValue merged = prev;
        JsonValue results = JsonValue::array();
        const auto &fresh = record.at("results").items();
        for (const JsonValue &old_cell : prev.at("results").items()) {
            if (std::none_of(fresh.begin(), fresh.end(),
                             [&](const JsonValue &c) {
                                 return sameCell(c, old_cell);
                             }))
                results.push(old_cell);
        }
        for (const JsonValue &cell : fresh)
            results.push(cell);
        merged.set("host_threads", record.at("host_threads"));
        merged.set("deterministic",
                   prev.at("deterministic").asBool() &&
                       record.at("deterministic").asBool());
        merged.set("results", std::move(results));
        return merged;
    }
    JsonValue history = JsonValue::array();
    JsonValue archived = JsonValue::object();
    for (const auto &[key, value] : prev.members()) {
        if (key != "history")
            archived.set(key, value);
    }
    if (const JsonValue *older = prev.find("history")) {
        for (const JsonValue &entry : older->items())
            history.push(entry);
    }
    history.push(std::move(archived));
    record.set("history", std::move(history));
    return record;
}

int
runSweep(const SweepOptions &opts)
{
    std::vector<SweepCell> cells;
    bool consistent = true;

    TextTable table;
    table.header({"model", "devices", "threads", "prune", "search ms",
                  "catalog ms", "pilot ms", "tables ms", "dp ms",
                  "gap %", "speedup"});

    // Exhaustive (prune off) first so the speedup column reads as the
    // pruning gain; within a mode, later thread counts read as thread
    // scaling.
    std::vector<bool> prune_modes;
    if (opts.pruneMode != 1)
        prune_modes.push_back(false);
    if (opts.pruneMode != 0)
        prune_modes.push_back(true);

    for (const ModelConfig &model : opts.models) {
        for (const int devices : opts.devices) {
            const ClusterTopology topo =
                ClusterTopology::paperCluster(devices);
            const CostModel cost(topo, profileModels(topo));
            const CompGraph graph = buildTransformerBlock(model, 8);
            const int beam = opts.beamWidth >= 0
                                 ? opts.beamWidth
                                 : autoBeamWidth(devices);

            DpResult baseline; // first run of this (model, devices)
            bool have_baseline = false;
            double baseline_ms = 0.0;
            for (const bool pruned : prune_modes) {
                if (!pruned && devices > 64) {
                    std::fprintf(stderr,
                                 "warning: exhaustive planning at %d "
                                 "devices may take hours\n",
                                 devices);
                }
                for (const int threads : opts.threads) {
                    DpOptions dp;
                    dp.numLayers = model.numLayers;
                    dp.numThreads = threads;
                    dp.pruneDominated = pruned;
                    dp.beamWidth = beam;
                    if (devices > 64) {
                        // Big-topology bounds: cap the per-operator
                        // temporal depth and narrow the pilot (any
                        // pilotWidth >= 1 keeps pruning exact; a
                        // pilot as wide as the beam would redo the
                        // full table work a second time).
                        dp.space.maxTemporalSteps =
                            devices > 1024 ? 4 : 8;
                        dp.pilotWidth = 8;
                    }
                    // Repeats must plan bit-identically; the cell
                    // reports the run of median search time.
                    std::vector<DpResult> runs;
                    for (int rep = 0; rep < opts.reps; ++rep) {
                        runs.push_back(
                            SegmentedDpOptimizer(graph, cost, dp)
                                .optimize());
                        if (!samePlan(runs.back(), runs.front())) {
                            consistent = false;
                            std::fprintf(stderr,
                                         "CONSISTENCY VIOLATION: %s @ "
                                         "%d devices: repeat %d "
                                         "diverges\n",
                                         model.name.c_str(), devices,
                                         rep);
                        }
                    }
                    std::sort(runs.begin(), runs.end(),
                              [](const DpResult &a, const DpResult &b) {
                                  return a.optimizationMs <
                                         b.optimizationMs;
                              });
                    const DpResult r = runs[runs.size() / 2];

                    SweepCell cell;
                    cell.model = model.name;
                    cell.devices = devices;
                    cell.numThreads = resolveNumThreads(threads);
                    cell.pruned = pruned;
                    cell.beamWidth = beam;
                    cell.result = r;

                    if (!have_baseline) {
                        baseline_ms = r.optimizationMs;
                    } else if (!r.truncated && !baseline.truncated &&
                               !samePlan(r, baseline)) {
                        // Exact runs must agree bit-identically across
                        // thread counts AND across prune on/off.
                        consistent = false;
                        std::fprintf(
                            stderr,
                            "CONSISTENCY VIOLATION: %s @ %d devices, "
                            "%d threads, prune %s diverges from the "
                            "first exact plan\n",
                            model.name.c_str(), devices,
                            cell.numThreads, pruned ? "on" : "off");
                    }
                    table.row({model.name, std::to_string(devices),
                               std::to_string(cell.numThreads),
                               pruned ? "on" : "off",
                               fmtDouble(r.optimizationMs, 1),
                               fmtDouble(r.catalogMs, 1),
                               fmtDouble(r.pilotMs, 1),
                               fmtDouble(r.edgeTableMs, 1),
                               fmtDouble(r.dpMs, 1),
                               fmtDouble(r.gapPct, 2),
                               fmtDouble(baseline_ms /
                                             r.optimizationMs,
                                         2)});
                    cells.push_back(std::move(cell));
                    if (!have_baseline) {
                        baseline = r;
                        have_baseline = true;
                    }
                }
            }
        }
    }
    std::printf("%s", table.render().c_str());

    if (!opts.jsonPath.empty()) {
        JsonValue record = JsonValue::object();
        record.set("bench", "planner_opttime");
        record.set("commit", sourceCommit(PRIMEPAR_SOURCE_DIR));
        record.set("host_threads", hardwareConcurrency());
        record.set("deterministic", consistent);
        JsonValue results = JsonValue::array();
        for (const SweepCell &c : cells) {
            const DpResult &r = c.result;
            JsonValue cell = JsonValue::object();
            cell.set("model", c.model);
            cell.set("devices", c.devices);
            cell.set("num_threads", c.numThreads);
            cell.set("prune", c.pruned);
            cell.set("beam_width", c.beamWidth);
            cell.set("reps", opts.reps);
            cell.set("search_ms", r.optimizationMs);
            cell.set("catalog_ms", r.catalogMs);
            cell.set("pilot_ms", r.pilotMs);
            cell.set("table_ms", r.edgeTableMs);
            cell.set("dp_ms", r.dpMs);
            cell.set("candidates_total", r.candidatesTotal);
            cell.set("candidates_kept", r.candidatesKept);
            cell.set("states_pruned", r.statesPruned);
            cell.set("truncated", r.truncated);
            cell.set("gap_pct", r.gapPct);
            cell.set("layer_cost_us", r.layerCost);
            cell.set("total_cost_us", r.totalCost);
            results.push(std::move(cell));
        }
        record.set("results", std::move(results));
        try {
            saveJsonFile(opts.jsonPath,
                         withPreviousRecord(opts.jsonPath,
                                            std::move(record)));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "cannot write %s: %s\n",
                         opts.jsonPath.c_str(), e.what());
            return 1;
        }
        std::printf("wrote %s\n", opts.jsonPath.c_str());
    }
    return consistent ? 0 : 1;
}

} // namespace

BENCHMARK(BM_Optimize_OPT)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_Optimize_Llama2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_Optimize_Bloom)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

int
run(int argc, char **argv)
{
    SweepOptions sweep;
    bool sweep_mode = false;
    std::vector<std::string> model_names{"OPT 6.7B", "Llama2 7B",
                                         "BLOOM 7B1"};
    for (int i = 1; i < argc; ++i) {
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", argv[i]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--sweep") == 0) {
            sweep_mode = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            sweep_mode = true;
            sweep.jsonPath = next();
        } else if (std::strcmp(argv[i], "--devices") == 0) {
            sweep.devices = parseIntList(next());
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            sweep.threads = parseIntList(next());
        } else if (std::strcmp(argv[i], "--prune") == 0) {
            const std::string mode = next();
            if (mode == "off")
                sweep.pruneMode = 0;
            else if (mode == "on")
                sweep.pruneMode = 1;
            else if (mode == "both")
                sweep.pruneMode = 2;
            else
                throw InputError("--prune must be on, off or both "
                                 "(got '" +
                                 mode + "')");
        } else if (std::strcmp(argv[i], "--beam") == 0) {
            sweep.beamWidth = std::atoi(next());
        } else if (std::strcmp(argv[i], "--reps") == 0) {
            sweep.reps = std::atoi(next());
        } else if (std::strcmp(argv[i], "--models") == 0) {
            model_names.clear();
            std::stringstream ss(next());
            std::string item;
            while (std::getline(ss, item, ','))
                model_names.push_back(item);
        }
    }
    if (sweep_mode) {
        for (const int d : sweep.devices) {
            if (d < 1 || !isPowerOfTwo(d)) {
                throw InputError(
                    "--devices entries must be positive powers of two "
                    "(got " +
                    std::to_string(d) +
                    "); the paper cluster tiles 2^k devices");
            }
        }
        if (sweep.beamWidth > 0 && sweep.beamWidth < 2)
            throw InputError("--beam must be 0 (exact) or >= 2");
        if (sweep.reps < 1)
            throw InputError("--reps must be >= 1");
        if (sweep.threads.empty())
            sweep.threads = defaultThreadSweep();
        for (const std::string &name : model_names)
            sweep.models.push_back(modelByName(name));
        return runSweep(sweep);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
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
