/**
 * @file
 * plan_cold: a closed loop with one client sending cold plan requests.
 *
 * Every request builds the model graph, runs SegmentedDpOptimizer with
 * a fresh CatalogCache (kTimedThreads threads), and simulates the chosen
 * plan — the work `primepar_plan` does per invocation. The cost model
 * of each device count is built during set-up. The request list is
 * fixed in shape so every seed loads the planner alike: one 32-device
 * cell, where edge tables dominate, sent first, then passes over the
 * nine small cells (three models at 8 devices, three models x two
 * batches at 16), as many as fit --seconds on a 4-core host. The seed
 * picks each request's layer count and the order within every pass.
 * The median request is then a 16-device one from the middle of its
 * group, not one on the edge between two groups.
 */

#include <cmath>
#include <memory>

#include "bench.hh"
#include "cost/cost_model.hh"
#include "cost/profiler.hh"
#include "graph/transformer.hh"
#include "optimizer/segmented_dp.hh"
#include "runtime/metrics.hh"
#include "sim/model_sim.hh"
#include "support/rng.hh"

namespace perfbench {

using namespace primepar;

namespace {

/** One plan request. */
struct PlanCell
{
    std::string model;
    int devices = 8;
    std::int64_t batch = 8;
    int layers = 0;

    std::string
    key() const
    {
        return model + "/d" + std::to_string(devices) + "/b" +
               std::to_string(batch) + "/L" + std::to_string(layers);
    }
};

const char *const kModels[] = {"OPT 6.7B", "Llama2 7B", "BLOOM 7B1"};
const int kLayerDeltas[] = {-2, 0, 2};

/** Batches planned at @p devices (8 or 16). */
std::vector<std::int64_t>
batchesAt(int devices)
{
    return devices == 8 ? std::vector<std::int64_t>{8}
                        : std::vector<std::int64_t>{8, 16};
}
const int kDeviceCounts[] = {8, 16, 32};
/** Wall time of the 32-device request and of one pass over the small
 *  cells on one thread of a loaded 4-core host: a run of --seconds
 *  makes (seconds - kNominalBigS) / kNominalPassS passes, the same
 *  number on every host, so the median and the tail percentile fall at
 *  the same place among the requests. */
constexpr double kNominalBigS = 12.0;
constexpr double kNominalPassS = 3.5;
/** Building the three cost models takes well under a millisecond; the
 *  set-up time is the median of many builds. */
constexpr int kSetupReps = 25;

/** The requests of one seed: the 32-device cell, then the small cells
 *  that every pass sends again in a fresh order. */
struct PlanList
{
    PlanCell big;
    std::vector<PlanCell> small;
};

PlanList
planList(Rng &rng)
{
    auto layers = [&](const char *model) {
        return modelByName(model).numLayers +
               kLayerDeltas[rng.below(3)];
    };
    PlanList list;
    for (int devices : {8, 16})
        for (const char *m : kModels)
            for (std::int64_t batch : batchesAt(devices))
                list.small.push_back({m, devices, batch, layers(m)});
    list.big = {"OPT 6.7B", 32, 8, layers("OPT 6.7B")};
    return list;
}

void
shuffle(std::vector<PlanCell> &cells, Rng &rng)
{
    for (std::size_t i = cells.size() - 1; i > 0; --i)
        std::swap(cells[i], cells[rng.below(i + 1)]);
}

/** Every cell any seed can request. */
std::vector<PlanCell>
allCells()
{
    std::vector<PlanCell> cells;
    for (int devices : {8, 16})
        for (const char *m : kModels)
            for (std::int64_t batch : batchesAt(devices))
                for (int d : kLayerDeltas)
                    cells.push_back({m, devices, batch,
                                     modelByName(m).numLayers + d});
    for (int d : kLayerDeltas)
        cells.push_back(
            {"OPT 6.7B", 32, 8, modelByName("OPT 6.7B").numLayers + d});
    return cells;
}

/** Cost model per device count, built once per set-up. */
struct CostModels
{
    std::map<int, std::unique_ptr<ClusterTopology>> topo;
    std::map<int, std::unique_ptr<CostModel>> cost;
    double profileMs = 0.0;
};

CostModels
buildCostModels()
{
    CostModels cm;
    for (int devices : kDeviceCounts) {
        auto topo = std::make_unique<ClusterTopology>(
            ClusterTopology::paperCluster(devices));
        const double t0 = nowS();
        ProfiledModels models = profileModels(*topo);
        cm.profileMs += (nowS() - t0) * 1e3;
        cm.cost[devices] =
            std::make_unique<CostModel>(*topo, std::move(models), 0.0);
        cm.topo[devices] = std::move(topo);
    }
    return cm;
}

/** What one request produced and what it cost. */
struct PlanReply
{
    double latencyS = 0.0;
    double optimizeS = 0.0;
    double simulateS = 0.0;
    DpResult result;
    ModelSimResult sim;
    std::vector<std::string> strategies;
};

PlanReply
plan(const PlanCell &cell, const CostModels &cm, int threads,
     MetricsRegistry *metrics)
{
    PlanReply r;
    const double t0 = nowS();
    ModelConfig model = modelByName(cell.model);
    model.numLayers = cell.layers;
    const CompGraph graph = buildTransformerBlock(model, cell.batch);
    DpOptions dp;
    dp.numLayers = model.numLayers;
    dp.numThreads = threads;
    dp.catalogCache = std::make_shared<CatalogCache>();
    dp.metrics = metrics;
    const double t1 = nowS();
    r.result = SegmentedDpOptimizer(graph, *cm.cost.at(cell.devices), dp)
                   .optimize();
    const double t2 = nowS();
    const ModelSimulator sim(*cm.topo.at(cell.devices), graph,
                             r.result.strategies);
    r.sim = sim.simulate(model.numLayers);
    const double t3 = nowS();
    r.latencyS = t3 - t0;
    r.optimizeS = t2 - t1;
    r.simulateS = t3 - t2;
    for (int n = 0; n < graph.numNodes(); ++n)
        r.strategies.push_back(r.result.strategies[n].toString(graph.node(n)));
    return r;
}

/** The reference entry of one reply: everything that must repeat. */
JsonValue
replyJson(const PlanReply &r)
{
    JsonValue o = JsonValue::object();
    JsonValue strategies = JsonValue::array();
    for (const std::string &s : r.strategies)
        strategies.push(JsonValue(s));
    o.set("strategies", std::move(strategies));
    o.set("layer_cost", JsonValue(exactDouble(r.result.layerCost)));
    o.set("total_cost", JsonValue(exactDouble(r.result.totalCost)));
    o.set("predicted_us", JsonValue(exactDouble(r.sim.latencyUs)));
    o.set("candidates_total", JsonValue(r.result.candidatesTotal));
    o.set("candidates_kept", JsonValue(r.result.candidatesKept));
    o.set("states_pruned", JsonValue(r.result.statesPruned));
    return o;
}

} // namespace

JsonValue
makePlanReference()
{
    // All host threads: runs plan on one, so the reference also pins
    // thread-count invariance.
    const CostModels cm = buildCostModels();
    JsonValue refs = JsonValue::object();
    for (const PlanCell &cell : allCells())
        refs.set(cell.key(),
                 replyJson(plan(cell, cm, hostThreads(), nullptr)));
    return refs;
}

/** Per-layer totals of a set of requests. */
struct LayerTotals
{
    double optimize = 0.0, simulate = 0.0, predicted = 0.0;
    double catalog = 0.0, pilot = 0.0, edge = 0.0, dp = 0.0;
    std::map<int, double> edgeByDevices;
    /** Fed by the DpOptions::metrics sink. */
    MetricsRegistry registry;

    void
    add(const PlanReply &r, int devices)
    {
        optimize += r.optimizeS * 1e3;
        simulate += r.simulateS * 1e3;
        predicted += r.sim.latencyUs / 1e3;
        catalog += r.result.catalogMs;
        pilot += r.result.pilotMs;
        edge += r.result.edgeTableMs;
        dp += r.result.dpMs;
        edgeByDevices[devices] += r.result.edgeTableMs;
    }

    double
    count(const char *name) const
    {
        return static_cast<double>(registry.counter(name));
    }
};

void
runPlanCold(const Args &args, const JsonValue &ref, Outcome &out)
{
    HostSpeed speed;
    std::vector<std::size_t> setupOps;
    std::vector<double> profile;
    CostModels cm;
    for (int i = 0; i < kSetupReps; ++i) {
        speed.probe();
        const double t0 = nowS();
        cm = buildCostModels();
        setupOps.push_back(speed.add(nowS() - t0));
        profile.push_back(cm.profileMs);
    }

    Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 0x51a7);
    PlanList list = planList(rng);
    // The 32-device request, and the small ones of every pass.
    LayerTotals big, small;
    auto request = [&](const PlanCell &cell, LayerTotals &totals) {
        speed.probe();
        const PlanReply r =
            plan(cell, cm, kTimedThreads,
                 args.trace ? &totals.registry : nullptr);
        ++out.attempted;
        totals.add(r, cell.devices);
        const JsonValue *want = ref.find(cell.key());
        if (!want || want->toString(0) != replyJson(r).toString(0)) {
            ++out.failed;
            out.mismatch("plan " + cell.key() +
                         (want ? " differs from its reference"
                               : " has no reference"));
        }
        return speed.add(r.latencyS);
    };

    const double start = nowS();
    const std::size_t bigOp = request(list.big, big);
    const int passes = std::max(
        1, static_cast<int>(std::lround((args.seconds - kNominalBigS) /
                                        kNominalPassS)));
    std::vector<std::vector<std::size_t>> passOps;
    for (int pass = 0; pass < passes; ++pass) {
        if (pass > 0 && nowS() - start > 2.0 * args.seconds)
            break;
        shuffle(list.small, rng);
        passOps.emplace_back();
        for (const PlanCell &cell : list.small)
            passOps.back().push_back(request(cell, small));
    }
    speed.probe();

    RunTimes scaled, raw;
    for (std::size_t op : setupOps) {
        scaled.setupS.push_back(speed.scaledS(op));
        raw.setupS.push_back(speed.rawS(op));
    }
    auto latency = [&](std::size_t op) {
        scaled.opMs.push_back(speed.scaledS(op) * 1e3);
        raw.opMs.push_back(speed.rawS(op) * 1e3);
    };
    latency(bigOp);
    for (const auto &ops : passOps) {
        double scaledS = 0.0, rawS = 0.0;
        for (std::size_t op : ops) {
            latency(op);
            scaledS += speed.scaledS(op);
            rawS += speed.rawS(op);
        }
        const auto n = static_cast<double>(ops.size());
        scaled.groupOps.push_back(n / scaledS);
        raw.groupOps.push_back(n / rawS);
    }
    timeMetrics(out, scaled, raw, speed.meanProbeS());
    out.record.set("op", JsonValue("plan request"));
    out.record.set("passes",
                   JsonValue(static_cast<std::int64_t>(passOps.size())));
    out.record.set("passes_planned", JsonValue(passes));
    out.record.set("d32_request_ms", JsonValue(speed.rawS(bigOp) * 1e3));
    out.record.set("planner_threads", JsonValue(kTimedThreads));
    finishOutcome(out, peakRssMb());

    if (args.trace) {
        // Per request list: the 32-device request plus one pass.
        const double n = static_cast<double>(passOps.size());
        auto perList = [&](double b, double s) { return b + s / n; };
        out.metrics["optimizer.catalog_ms"] =
            perList(big.catalog, small.catalog);
        out.metrics["optimizer.pilot_ms"] = perList(big.pilot, small.pilot);
        out.metrics["optimizer.edge_table_ms"] =
            perList(big.edge, small.edge);
        for (int d : kDeviceCounts)
            out.metrics["optimizer.edge_table_ms.d" + std::to_string(d)] =
                perList(big.edgeByDevices[d], small.edgeByDevices[d]);
        out.metrics["optimizer.dp_ms"] = perList(big.dp, small.dp);
        auto unattributed = [](const LayerTotals &t) {
            return t.optimize - t.catalog - t.pilot - t.edge - t.dp;
        };
        out.metrics["optimizer.unattributed_ms"] =
            perList(unattributed(big), unattributed(small));
        auto counter = [&](const char *name) {
            return perList(big.count(name), small.count(name));
        };
        const double total = counter("planner.candidates_total");
        out.metrics["optimizer.candidates_kept_pct"] =
            total > 0.0 ? 100.0 * counter("planner.candidates_kept") / total
                        : 0.0;
        out.metrics["optimizer.states_pruned"] =
            counter("planner.states_pruned");
        out.metrics["cost.profile_ms"] = median(profile);
        out.metrics["sim.simulate_ms"] =
            perList(big.simulate, small.simulate);
        out.metrics["sim.predicted_step_ms"] =
            perList(big.predicted, small.predicted);
        out.record.set("candidates_total", JsonValue(total));
    }
}

} // namespace perfbench
