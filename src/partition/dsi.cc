#include "dsi.hh"

#include "support/logging.hh"

namespace primepar {

DsiTable::DsiTable(const OpSpec &op, const PartitionSeq &seq, int num_bits)
    : bits(num_bits), nSteps(seq.temporalSteps()),
      slices(seq.sliceCounts(op))
{
    PRIMEPAR_ASSERT(seq.numBits() == num_bits,
                    "sequence consumes ", seq.numBits(), " bits, expected ",
                    num_bits, " for op ", op.name);
    const std::string err = seq.validate(op);
    PRIMEPAR_ASSERT(err.empty(), "invalid sequence for ", op.name, ": ",
                    err);

    dimSizes.reserve(op.dims.size());
    for (const auto &d : op.dims)
        dimSizes.push_back(d.size);

    const std::int64_t devices = numDevices();
    const std::size_t dims = op.dims.size();
    table.assign(3 * devices * nSteps * dims, 0);

    constexpr Phase kPhases[] = {Phase::Forward, Phase::Backward,
                                 Phase::Gradient};
    for (Phase phase : kPhases) {
        for (std::int64_t dev = 0; dev < devices; ++dev) {
            for (int t = 0; t < nSteps; ++t)
                evaluateDsi(op, seq, num_bits, phase, dev, t,
                            &table[flat(phase, dev, t, 0)]);
        }
    }
}

std::int64_t
DsiTable::tensorSliceNumel(const OpSpec &op, int tensor) const
{
    std::int64_t n = 1;
    for (int d : op.tensors[tensor].dims)
        n *= sliceExtent(d);
    return n;
}

} // namespace primepar
