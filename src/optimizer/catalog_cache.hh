/**
 * @file
 * Memoization of node catalogs across structurally identical operators.
 *
 * Transformer models repeat the same operator structures many times:
 * the two layernorms and the two residual adds of one block are
 * already identical. A catalog depends only on the *structure* of the
 * operator (dims, tensors, passes — not its name), the device-id bit
 * count, the space options, and the cost model's parameter
 * fingerprint, so catalogs are shared through a thread-safe cache
 * keyed by exactly those inputs. Every run deduplicates its own nodes;
 * a caller-supplied cache also carries catalogs across runs whose keys
 * match (the plan service shares one across requests). Whole plans are
 * memoized by the plan service, not here (serve/plan_service.hh).
 */

#ifndef PRIMEPAR_OPTIMIZER_CATALOG_CACHE_HH
#define PRIMEPAR_OPTIMIZER_CATALOG_CACHE_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "catalog.hh"

namespace primepar {

/**
 * Serialize everything a catalog's contents depend on: the structural
 * fields of @p op (names excluded — "ln1" and "ln2" share), the bit
 * count, the space options, and @p cost_fingerprint
 * (CostModel::fingerprint()).
 */
std::string catalogKey(const OpSpec &op, int num_bits,
                       const SpaceOptions &opts,
                       const std::string &cost_fingerprint);

/**
 * Thread-safe shared-ownership store of node catalogs (catalogKey).
 * Entries are immutable once inserted; concurrent inserts under the
 * same key keep the first entry (later callers adopt it), so all
 * holders share one object.
 */
class CatalogCache
{
  public:
    /** Look up a catalog; nullptr when absent. Counts hit/miss. */
    std::shared_ptr<const NodeCatalog> find(const std::string &key);

    /** Insert under @p key; returns the resident entry (the existing
     *  one if another thread won the race). */
    std::shared_ptr<const NodeCatalog>
    insert(const std::string &key,
           std::shared_ptr<const NodeCatalog> catalog);

    /** Number of distinct catalogs stored. */
    std::size_t size() const;
    /** find() calls that returned an entry. */
    std::size_t hits() const;
    /** find() calls that returned nullptr. */
    std::size_t misses() const;

  private:
    mutable std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const NodeCatalog>>
        entries;
    std::size_t hitCount = 0;
    std::size_t missCount = 0;
};

} // namespace primepar

#endif // PRIMEPAR_OPTIMIZER_CATALOG_CACHE_HH
