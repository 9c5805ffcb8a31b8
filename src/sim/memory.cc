#include "memory.hh"

#include <algorithm>

namespace primepar {

OpMemory
opMemory(const OpSpec &op, const PartitionSeq &seq, const DsiTable &dsi,
         const MemoryModelParams &params)
{
    std::vector<PassComm> comms;
    if (params.doubleBuffers && seq.hasPSquare()) {
        for (std::size_t p = 0; p < op.passes.size(); ++p)
            comms.push_back(
                derivePassComm(op, seq, dsi, static_cast<int>(p)));
    }
    return opMemory(op, seq, dsi, comms, params);
}

OpMemory
opMemory(const OpSpec &op, const PartitionSeq &seq, const DsiTable &dsi,
         const std::vector<PassComm> &pass_comms,
         const MemoryModelParams &params)
{
    std::vector<std::int64_t> slices(op.dims.size());
    for (std::size_t d = 0; d < slices.size(); ++d)
        slices[d] = dsi.sliceCount(static_cast<int>(d));
    std::vector<char> shifted(op.tensors.size(), 0);
    if (params.doubleBuffers && seq.hasPSquare()) {
        for (const PassComm &comm : pass_comms) {
            for (const auto &step : comm.stepShifts)
                for (const ShiftSet &set : step)
                    shifted[set.tensor.tensor] = 1;
            for (const auto &step : comm.accShifts)
                for (const ShiftSet &set : step)
                    shifted[set.tensor.tensor] = 1;
        }
    }
    return opMemory(op, slices, shifted, params);
}

OpMemory
opMemory(const OpSpec &op, const std::vector<std::int64_t> &slice_counts,
         const std::vector<char> &ring_shifted,
         const MemoryModelParams &params)
{
    OpMemory mem;

    auto slice_bytes = [&](int tensor) {
        std::int64_t numel = 1;
        for (int d : op.tensors[tensor].dims)
            numel *= op.dims[d].size / slice_counts[d];
        return static_cast<double>(numel) * op.bytesPerElement;
    };

    for (std::size_t t = 0; t < op.tensors.size(); ++t) {
        if (op.tensors[t].isParameter) {
            mem.paramBytes +=
                slice_bytes(static_cast<int>(t)) * params.paramStateFactor;
        }
    }

    for (const TensorRef &ref : op.stashed)
        mem.stashBytes += slice_bytes(ref.tensor);

    for (const PassSpec &pass : op.passes) {
        double working = slice_bytes(pass.output.tensor);
        for (const TensorRef &ref : pass.operands) {
            // Parameters and stashes are already counted as resident.
            if (op.tensors[ref.tensor].isParameter && !ref.grad)
                continue;
            working += slice_bytes(ref.tensor);
        }
        mem.workingBytes = std::max(mem.workingBytes, working);
    }

    if (params.doubleBuffers) {
        // One extra buffer per distinct tensor moved by ring shifts.
        for (std::size_t t = 0; t < op.tensors.size(); ++t) {
            if (ring_shifted[t])
                mem.doubleBufferBytes += slice_bytes(static_cast<int>(t));
        }
    }
    return mem;
}

double
opIdealMemoryBytes(const OpSpec &op, std::int64_t num_devices,
                   const MemoryModelParams &params)
{
    double total = 0.0;
    for (std::size_t t = 0; t < op.tensors.size(); ++t) {
        if (op.tensors[t].isParameter) {
            total += op.tensorBytes(static_cast<int>(t)) *
                     params.paramStateFactor;
        }
    }
    for (const TensorRef &ref : op.stashed)
        total += op.tensorBytes(ref.tensor);
    return total / static_cast<double>(num_devices);
}

} // namespace primepar
