#include "catalog_cache.hh"

#include <bit>
#include <sstream>

namespace primepar {

namespace {

void
appendI64(std::ostringstream &os, std::int64_t v)
{
    os << v << ',';
}

void
appendDoubleBits(std::ostringstream &os, double v)
{
    os << std::bit_cast<std::uint64_t>(v) << ',';
}

void
appendRef(std::ostringstream &os, const TensorRef &ref)
{
    os << ref.tensor << (ref.grad ? 'g' : 'v');
}

} // namespace

std::string
catalogKey(const OpSpec &op, int num_bits, const SpaceOptions &opts,
           const std::string &cost_fingerprint)
{
    std::ostringstream os;
    os << num_bits << ';' << (opts.allowPSquare ? 1 : 0) << ';'
       << opts.maxTemporalSteps << ';' << opts.candidateBudget << ';';
    for (int d : opts.excludedDims)
        os << d << ',';
    os << ';';

    os << op.kind << ';';
    for (const DimSpec &d : op.dims) {
        appendI64(os, d.size);
        os << (d.partitionable ? 1 : 0);
    }
    os << ';';
    for (const TensorSpec &t : op.tensors) {
        for (int d : t.dims)
            os << d << '.';
        os << (t.isParameter ? 'p' : 'a') << ',';
    }
    os << ';';
    for (const PassSpec &p : op.passes) {
        os << static_cast<int>(p.phase) << ':';
        for (const TensorRef &r : p.operands)
            appendRef(os, r);
        os << ':';
        appendRef(os, p.output);
        os << ':';
        for (int d : p.contracted)
            os << d << '.';
        appendDoubleBits(os, p.flopFactor);
    }
    os << ';';
    if (op.psquare) {
        os << op.psquare->m << '.' << op.psquare->n << '.'
           << op.psquare->k;
    }
    os << ';' << op.inputTensor << ';' << op.outputTensor << ';';
    for (const TensorRef &r : op.stashed)
        appendRef(os, r);
    os << ';' << op.normalizedDim << ';';
    appendDoubleBits(os, op.bytesPerElement);
    os << '|' << cost_fingerprint;
    return os.str();
}

std::shared_ptr<const NodeCatalog>
CatalogCache::find(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = entries.find(key);
    if (it == entries.end()) {
        ++missCount;
        return nullptr;
    }
    ++hitCount;
    return it->second;
}

std::shared_ptr<const NodeCatalog>
CatalogCache::insert(const std::string &key,
                     std::shared_ptr<const NodeCatalog> catalog)
{
    std::lock_guard<std::mutex> lock(mu);
    const auto [it, inserted] = entries.emplace(key, std::move(catalog));
    return it->second;
}

std::size_t
CatalogCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return entries.size();
}

std::size_t
CatalogCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu);
    return hitCount;
}

std::size_t
CatalogCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu);
    return missCount;
}

} // namespace primepar
