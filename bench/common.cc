#include "common.hh"

#include <cstdio>

namespace primepar {
namespace bench {

double
tokensPerSecond(const ModelConfig &model, std::int64_t batch,
                double iteration_us)
{
    return static_cast<double>(batch) * model.seqLength /
           (iteration_us * 1e-6);
}

SystemResult
measure(const std::string &system, const ModelConfig &model,
        const ClusterTopology &topo, const CompGraph &graph,
        std::vector<PartitionSeq> strategies)
{
    SystemResult r;
    r.system = system;
    r.strategies = strategies;
    const ModelSimulator sim(topo, graph, std::move(strategies));
    const ModelSimResult m = sim.simulate(model.numLayers);
    r.latencyUs = m.latencyUs;
    r.computeUs = m.computeUs;
    r.allReduceUs = m.allReduceUs;
    r.ringUs = m.ringUs;
    r.redistUs = m.redistUs;
    r.peakMemoryBytes = m.peakMemoryBytes;
    r.tokensPerSec = tokensPerSecond(
        model, graph.node(0).dims[graph.node(0).dimIndex("B")].size,
        m.latencyUs);
    return r;
}

std::vector<SystemResult>
compareSystems(const ModelConfig &model, int devices, std::int64_t batch,
               int num_threads)
{
    const ClusterTopology topo = ClusterTopology::paperCluster(devices);
    const CostModel cost(topo, profileModels(topo));
    const CompGraph graph = buildTransformerBlock(model, batch);

    std::vector<SystemResult> results;

    const MegatronPlan megatron = bestMegatronPlan(graph, cost);
    results.push_back(
        measure("Megatron", model, topo, graph, megatron.strategies));

    DpOptions alpa_opts;
    alpa_opts.numLayers = model.numLayers;
    alpa_opts.numThreads = num_threads;
    const DpResult alpa = alpaOptimize(graph, cost, alpa_opts);
    results.push_back(
        measure("Alpa", model, topo, graph, alpa.strategies));

    DpOptions opts;
    opts.numLayers = model.numLayers;
    opts.numThreads = num_threads;
    const DpResult pp =
        SegmentedDpOptimizer(graph, cost, opts).optimize();
    results.push_back(
        measure("PrimePar", model, topo, graph, pp.strategies));

    return results;
}

namespace {

/** First line of @p cmd's stdout, or "" when it fails. */
std::string
commandLine(const std::string &cmd)
{
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return "";
    char buf[256] = {};
    const bool got = std::fgets(buf, sizeof buf, pipe) != nullptr;
    const int status = pclose(pipe);
    if (!got || status != 0)
        return "";
    std::string line(buf);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
    return line;
}

} // namespace

std::string
sourceCommit(const std::string &root)
{
    const std::string git = "git -C '" + root + "' ";
    const std::string head =
        commandLine(git + "rev-parse HEAD 2>/dev/null");
    if (!head.empty()) {
        // Any porcelain line for src/ means the sources are not HEAD's.
        const bool dirty =
            !commandLine(git + "status --porcelain -- src 2>/dev/null")
                 .empty();
        return dirty ? head + "-dirty" : head;
    }
    // perfbench/run.py's commit_id() digest, computed the same way.
    return commandLine(R"(python3 -c "
import hashlib, os, sys
root = sys.argv[1]
digest = hashlib.sha256()
for dirpath, dirnames, filenames in os.walk(os.path.join(root, 'src')):
    dirnames.sort()
    for name in sorted(filenames):
        path = os.path.join(dirpath, name)
        digest.update(os.path.relpath(path, root).encode())
        with open(path, 'rb') as f:
            digest.update(f.read())
print('src-sha256:' + digest.hexdigest()[:16])
" ')" + root + "'");
}

} // namespace bench
} // namespace primepar
