#include "plan_service.hh"

#include <chrono>
#include <utility>

#include "cost/cost_model.hh"
#include "cost/profiler.hh"
#include "graph/graph.hh"
#include "graph/transformer.hh"
#include "optimizer/segmented_dp.hh"
#include "runtime/errors.hh"
#include "runtime/metrics.hh"
#include "topology/cluster.hh"

namespace primepar {

namespace {

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Everything plan() derives from one request. */
struct RequestContext
{
    ModelConfig model;
    ClusterTopology topo;
    CostModel cost;
    CompGraph graph;
    DpOptions dp;
    std::string key;

    static ModelConfig
    makeModel(const PlanRequest &req)
    {
        ModelConfig m = modelByName(req.model);
        if (req.layers > 0)
            m.numLayers = req.layers;
        return m;
    }

    RequestContext(const PlanRequest &req, int dp_threads,
                   std::shared_ptr<CatalogCache> shared_cache)
        : model(makeModel(req)),
          topo(ClusterTopology::paperCluster(req.devices)),
          cost(topo, profileModels(topo), req.alpha),
          graph(buildTransformerBlock(model, req.batch))
    {
        dp.numLayers = model.numLayers;
        dp.numThreads = dp_threads;
        dp.space.allowPSquare = req.psquare;
        if (!req.batchDim)
            dp.space.excludedDims = {0};
        dp.beamWidth = req.beamWidth;
        if (req.maxTemporalSteps > 0)
            dp.space.maxTemporalSteps = req.maxTemporalSteps;
        dp.catalogCache = std::move(shared_cache);
        key = planCacheKey(graph, cost, dp);
    }
};

/** Render a stored entry into a full response. */
void
fillResponse(PlanResponse &resp, const PlanCacheEntry &entry,
             const CompGraph &graph)
{
    resp.ok = true;
    resp.strategies = entry.strategies;
    resp.strategyText.reserve(entry.strategies.size());
    for (int n = 0; n < graph.numNodes(); ++n)
        resp.strategyText.push_back(
            entry.strategies[n].toString(graph.node(n)));
    resp.layerCostUs = entry.layerCost;
    resp.totalCostUs = entry.totalCost;
    resp.gapPct = entry.gapPct;
    resp.truncated = entry.truncated;
}

PlanCacheEntry
entryFromResult(const DpResult &result)
{
    PlanCacheEntry entry;
    entry.strategies = result.strategies;
    entry.layerCost = result.layerCost;
    entry.totalCost = result.totalCost;
    entry.candidatesTotal = result.candidatesTotal;
    entry.candidatesKept = result.candidatesKept;
    entry.truncated = result.truncated;
    entry.lowerBoundUs = result.lowerBoundUs;
    entry.gapPct = result.gapPct;
    return entry;
}

} // namespace

PlanService::PlanService(PlanServiceOptions options)
    : opts(std::move(options)),
      catalogs(std::make_shared<CatalogCache>())
{
    if (opts.metrics) {
        metrics = opts.metrics;
    } else {
        ownedMetrics = std::make_unique<MetricsRegistry>();
        metrics = ownedMetrics.get();
    }
    if (opts.dpSlots < 1)
        opts.dpSlots = 1;

    auto snapshot = std::make_shared<PlanStore>();
    if (!opts.storePath.empty()) {
        std::string error;
        *snapshot = PlanStore::load(opts.storePath, &error);
        if (!snapshot->valid()) {
            // A corrupted store must not take the service down — plans
            // are recomputable. Start cold and overwrite on the next
            // publish.
            metrics->add("serve.store_load_failures");
            *snapshot = PlanStore();
        }
    }
    store = std::move(snapshot);
}

std::shared_ptr<const PlanStore>
PlanService::storeSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    return store;
}

std::size_t
PlanService::storeSize() const
{
    return storeSnapshot()->size();
}

void
PlanService::persist(const std::string &key,
                     const PlanCacheEntry &entry)
{
    if (opts.storePath.empty())
        return;
    // One publisher at a time: merge the latest published image with
    // the new plan and republish. Concurrent leaders for *different*
    // keys serialize here, so no plan is ever lost to a racing write.
    std::lock_guard<std::mutex> publish(storeMu);
    const std::shared_ptr<const PlanStore> snapshot = storeSnapshot();
    PlanStoreBuilder builder;
    for (auto &[k, e] : snapshot->entries())
        builder.put(k, e);
    builder.put(key, entry);
    std::string error;
    if (!builder.save(opts.storePath, snapshot->generation() + 1,
                      &error)) {
        metrics->add("serve.store_write_failures");
        return;
    }
    metrics->add("serve.store_writes");
    auto reloaded = std::make_shared<PlanStore>(
        PlanStore::load(opts.storePath, &error));
    if (reloaded->valid()) {
        std::lock_guard<std::mutex> lock(mu);
        store = std::move(reloaded);
    }
}

PlanResponse
PlanService::plan(const PlanRequest &req)
{
    const double start = nowUs();
    metrics->add("serve.requests");
    PlanResponse resp;
    try {
        req.validate();
        RequestContext ctx(req, opts.dpThreads, catalogs);

        // Layer 1: the persistent store snapshot.
        if (auto entry = storeSnapshot()->find(ctx.key)) {
            metrics->add("serve.store_hits");
            fillResponse(resp, *entry, ctx.graph);
            resp.source = "store";
        } else {
            // Layers 2-4: the flight table. A finished flight is the
            // in-process memo, a running one is joined, and a missing
            // one makes this request the leader of an admitted DP run.
            std::shared_ptr<Flight> flight;
            bool leader = false;
            {
                std::lock_guard<std::mutex> lock(mu);
                auto it = flights.find(ctx.key);
                if (it != flights.end()) {
                    flight = it->second;
                } else {
                    flight = std::make_shared<Flight>();
                    flights.emplace(ctx.key, flight);
                    leader = true;
                }
            }
            if (!leader) {
                std::shared_ptr<const PlanCacheEntry> entry;
                std::string error;
                bool waited = false;
                {
                    std::unique_lock<std::mutex> wait(flight->mu);
                    waited = !flight->done;
                    flight->cv.wait(wait, [&] { return flight->done; });
                    entry = flight->entry;
                    error = flight->error;
                }
                if (waited)
                    metrics->add("serve.coalesced");
                if (!entry)
                    throw RuntimeError(error);
                if (!waited)
                    metrics->add("serve.cache_hits");
                fillResponse(resp, *entry, ctx.graph);
                resp.source = waited ? "flight" : "cache";
            } else {
                std::shared_ptr<const PlanCacheEntry> produced;
                std::string failure;
                try {
                    // Admission: at most dpSlots concurrent DP runs.
                    {
                        std::unique_lock<std::mutex> lock(mu);
                        slotCv.wait(lock, [&] {
                            return slotsInUse < opts.dpSlots;
                        });
                        ++slotsInUse;
                    }
                    metrics->add("serve.dp_runs");
                    DpResult result;
                    try {
                        ctx.dp.metrics = metrics;
                        result = SegmentedDpOptimizer(ctx.graph,
                                                      ctx.cost, ctx.dp)
                                     .optimize();
                    } catch (...) {
                        std::lock_guard<std::mutex> lock(mu);
                        --slotsInUse;
                        slotCv.notify_one();
                        throw;
                    }
                    {
                        std::lock_guard<std::mutex> lock(mu);
                        --slotsInUse;
                        slotCv.notify_one();
                    }
                    produced = std::make_shared<PlanCacheEntry>(
                        entryFromResult(result));
                    persist(ctx.key, *produced);
                } catch (const std::exception &e) {
                    failure = e.what();
                }
                // Publish to waiters — even on failure, or they would
                // block forever. A finished flight stays as the memo of
                // its key; a failed one is retired, so the next
                // identical request runs the DP again.
                if (!produced) {
                    std::lock_guard<std::mutex> lock(mu);
                    flights.erase(ctx.key);
                }
                {
                    std::lock_guard<std::mutex> publish(flight->mu);
                    flight->done = true;
                    flight->entry = produced;
                    flight->error = failure;
                }
                flight->cv.notify_all();
                if (!produced)
                    throw RuntimeError(failure);
                fillResponse(resp, *produced, ctx.graph);
                resp.source = "dp";
            }
        }
    } catch (const std::exception &e) {
        metrics->add("serve.errors");
        resp = PlanResponse();
        resp.ok = false;
        resp.error = e.what();
    }
    resp.serverUs = nowUs() - start;
    metrics->observe("serve.request_us", resp.serverUs);
    return resp;
}

JsonValue
PlanService::statsJson() const
{
    JsonValue doc = metrics->snapshotJson();
    const std::shared_ptr<const PlanStore> snapshot = storeSnapshot();
    JsonValue st = JsonValue::object();
    st.set("path", opts.storePath);
    st.set("entries", static_cast<std::int64_t>(snapshot->size()));
    st.set("generation",
           static_cast<std::int64_t>(snapshot->generation()));
    doc.set("plan_store", std::move(st));
    return doc;
}

} // namespace primepar
