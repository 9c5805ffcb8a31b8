/**
 * @file
 * The plan service: request admission, single-flight coalescing, and
 * the persistent store behind the daemon.
 *
 * One PlanService instance is shared by every server connection. A
 * request flows through four layers, cheapest first:
 *
 *   1. the mmap'd persistent store snapshot ("store") — survives
 *      restarts, shared read-only by all threads, microseconds;
 *   2. a finished flight of the same key ("cache") — the in-process
 *      memo, which answers when there is no store or its write failed;
 *   3. single-flight coalescing ("flight") — concurrent identical
 *      requests block on the one DP already computing their key, so
 *      a thundering herd costs exactly one DP run;
 *   4. a fresh multithreaded DP run ("dp"), admitted through a
 *      bounded slot count so a burst of *distinct* requests cannot
 *      fork an unbounded number of planner thread pools.
 *
 * After a DP run the leader merges the new plan into the store image
 * and republishes it atomically (tmp + rename), then remaps — so the
 * next restart, and every other process watching the same path,
 * starts warm. The flight stays in the table as the memo of its key;
 * a failed flight is erased, so its key is planned again next time.
 * Catalogs are shared across DP runs through one CatalogCache.
 *
 * Metrics (serve.* namespace, primepar-metrics-v1 schema):
 *   serve.requests, serve.store_hits, serve.cache_hits,
 *   serve.coalesced, serve.dp_runs, serve.errors,
 *   serve.store_writes  — counters;
 *   serve.request_us    — end-to-end service latency histogram
 *                         (p50/p90/p99 in snapshots).
 */

#ifndef PRIMEPAR_SERVE_PLAN_SERVICE_HH
#define PRIMEPAR_SERVE_PLAN_SERVICE_HH

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "optimizer/catalog_cache.hh"
#include "plan_store.hh"
#include "serve_protocol.hh"

namespace primepar {

class MetricsRegistry;

struct PlanServiceOptions
{
    /** Persistent store path; empty disables persistence (finished
     *  flights still answer repeats from memory). */
    std::string storePath;
    /** Concurrent DP runs admitted; further distinct requests queue. */
    int dpSlots = 2;
    /** Planner threads per DP run; 0 = hardware concurrency. */
    int dpThreads = 0;
    /** Metrics sink; nullptr = service-owned registry. */
    MetricsRegistry *metrics = nullptr;
};

/** Thread-safe planning engine; see the file comment for the flow. */
class PlanService
{
  public:
    explicit PlanService(PlanServiceOptions opts);

    /** Serve one request. Never throws: failures come back as
     *  !ok responses with a diagnostic. */
    PlanResponse plan(const PlanRequest &req);

    /** Metrics snapshot plus store state (entries, generation). */
    JsonValue statsJson() const;

    MetricsRegistry &metricsRegistry() { return *metrics; }

    /** Resident persistent-store snapshot size (for tests). */
    std::size_t storeSize() const;

  private:
    /** One DP computation of a key; waiters block on cv until done.
     *  A finished flight with an entry is the key's in-process memo. */
    struct Flight
    {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        std::shared_ptr<const PlanCacheEntry> entry;
        std::string error;
    };

    std::shared_ptr<const PlanStore> storeSnapshot() const;
    void persist(const std::string &key, const PlanCacheEntry &entry);

    PlanServiceOptions opts;
    std::unique_ptr<MetricsRegistry> ownedMetrics;
    MetricsRegistry *metrics = nullptr;

    /** Node catalogs, shared across DP runs. */
    std::shared_ptr<CatalogCache> catalogs;

    mutable std::mutex mu;
    std::condition_variable slotCv;
    int slotsInUse = 0;
    /** Running and finished flights by planCacheKey. */
    std::unordered_map<std::string, std::shared_ptr<Flight>> flights;
    std::shared_ptr<const PlanStore> store;

    /** Serializes merge-and-republish of the store file. */
    std::mutex storeMu;
};

} // namespace primepar

#endif // PRIMEPAR_SERVE_PLAN_SERVICE_HH
