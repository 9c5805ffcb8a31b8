#include "comm_pattern.hh"

#include <algorithm>
#include <map>

#include "support/logging.hh"

namespace primepar {

namespace {

/** DSI tuple of a tensor's dims at (phase, device, t). */
std::vector<std::int64_t>
tensorTuple(const OpSpec &op, const DsiTable &dsi, const TensorRef &ref,
            Phase phase, std::int64_t dev, int t)
{
    std::vector<std::int64_t> tuple;
    tuple.reserve(op.tensors[ref.tensor].dims.size());
    for (int d : op.tensors[ref.tensor].dims)
        tuple.push_back(dsi.value(phase, dev, t, d));
    return tuple;
}

/** Bit positions (0-based from d_1) consumed by the PSquare step. */
GroupIndicator
pSquareBits(const PartitionSeq &seq)
{
    GroupIndicator bits;
    int cursor = 0;
    for (const auto &s : seq.steps()) {
        if (s.kind == PartitionStep::Kind::PSquare) {
            for (int b = 0; b < s.bits(); ++b)
                bits.push_back(cursor + b);
            return bits;
        }
        cursor += s.bits();
    }
    return bits;
}

/** Per-device list of ring-group peers (the PSquare group). */
std::vector<DeviceGroup>
ringPeers(const PartitionSeq &seq, int num_bits)
{
    const GroupIndicator psq_bits = pSquareBits(seq);
    const std::int64_t devices = std::int64_t{1} << num_bits;
    std::vector<DeviceGroup> peers(devices);
    if (psq_bits.empty()) {
        for (std::int64_t d = 0; d < devices; ++d)
            peers[d] = {d};
        return peers;
    }
    for (const auto &group : enumerateGroups(num_bits, psq_bits)) {
        for (std::int64_t member : group)
            peers[member] = group;
    }
    return peers;
}

/**
 * Shift of tensor @p ref needed so that each device's slice changes
 * from its tuple at (from_phase, from_t) to (to_phase, to_t). Senders
 * are searched within @p peers.
 */
ShiftSet
deriveShift(const OpSpec &op, const DsiTable &dsi, const TensorRef &ref,
            Phase from_phase, int from_t, Phase to_phase, int to_t,
            const std::vector<DeviceGroup> &peers)
{
    ShiftSet shift;
    shift.tensor = ref;
    shift.elementsPerTransfer = dsi.tensorSliceNumel(op, ref.tensor);

    for (std::int64_t dev = 0; dev < dsi.numDevices(); ++dev) {
        const auto need =
            tensorTuple(op, dsi, ref, to_phase, dev, to_t);
        const auto have =
            tensorTuple(op, dsi, ref, from_phase, dev, from_t);
        if (need == have)
            continue;

        std::int64_t sender = -1;
        for (std::int64_t peer : peers[dev]) {
            if (tensorTuple(op, dsi, ref, from_phase, peer, from_t) ==
                need) {
                PRIMEPAR_ASSERT(sender == -1,
                                "ambiguous ring sender for ",
                                op.refName(ref), " of ", op.name);
                sender = peer;
            }
        }
        PRIMEPAR_ASSERT(sender >= 0, "no holder of needed slice of ",
                        op.refName(ref), " for device ", dev, " of op ",
                        op.name);
        shift.transfers.push_back({dev, sender});
    }
    return shift;
}

} // namespace

int
firstPassUsing(const OpSpec &op, const TensorRef &ref)
{
    for (std::size_t p = 0; p < op.passes.size(); ++p) {
        const auto &ops = op.passes[p].operands;
        if (std::find(ops.begin(), ops.end(), ref) != ops.end())
            return static_cast<int>(p);
    }
    return -1;
}

int
lastPassUsing(const OpSpec &op, const TensorRef &ref)
{
    for (int p = static_cast<int>(op.passes.size()) - 1; p >= 0; --p) {
        const auto &ops = op.passes[p].operands;
        if (std::find(ops.begin(), ops.end(), ref) != ops.end())
            return p;
    }
    return -1;
}

PassComm
derivePassComm(const OpSpec &op, const PartitionSeq &seq,
               const DsiTable &dsi, int pass_index)
{
    PRIMEPAR_ASSERT(pass_index >= 0 &&
                        pass_index < static_cast<int>(op.passes.size()),
                    "pass index out of range");
    const PassSpec &pass = op.passes[pass_index];
    const int steps = dsi.steps();
    const auto peers = ringPeers(seq, dsi.numBits());

    PassComm comm;
    comm.passIndex = pass_index;
    comm.stepShifts.resize(steps);
    comm.accShifts.resize(steps);

    // Operand ring shifts between consecutive temporal steps.
    for (int t = 0; t + 1 < steps; ++t) {
        for (const TensorRef &ref : pass.operands) {
            ShiftSet shift = deriveShift(op, dsi, ref, pass.phase, t,
                                         pass.phase, t + 1, peers);
            if (!shift.transfers.empty())
                comm.stepShifts[t].push_back(std::move(shift));
        }
        // Accumulator migration when the output block changes.
        ShiftSet acc = deriveShift(op, dsi, pass.output, pass.phase, t,
                                   pass.phase, t + 1, peers);
        if (!acc.transfers.empty())
            comm.accShifts[t].push_back(std::move(acc));
    }

    // Transition shift: parameter operands whose last use is this pass
    // must return to their distribution at the start of their first
    // use (W realigns for the next Forward, Table 1 Backward row 2).
    for (const TensorRef &ref : pass.operands) {
        if (ref.grad || !op.tensors[ref.tensor].isParameter)
            continue;
        if (lastPassUsing(op, ref) != pass_index)
            continue;
        const int first = firstPassUsing(op, ref);
        ShiftSet shift = deriveTransitionShift(
            op, seq, dsi, ref, pass.phase, op.passes[first].phase);
        if (!shift.transfers.empty())
            comm.stepShifts[steps - 1].push_back(std::move(shift));
    }

    // All-reduce: group devices by their output block at the final
    // step; groups larger than one hold partial sums.
    std::map<std::vector<std::int64_t>, DeviceGroup> by_block;
    for (std::int64_t dev = 0; dev < dsi.numDevices(); ++dev) {
        by_block[tensorTuple(op, dsi, pass.output, pass.phase, dev,
                             steps - 1)]
            .push_back(dev);
    }
    bool needs_reduce = false;
    for (const auto &[block, devs] : by_block) {
        if (devs.size() > 1) {
            needs_reduce = true;
            break;
        }
    }
    if (needs_reduce) {
        AllReduceSpec spec;
        spec.tensor = pass.output;
        spec.elementsPerDevice =
            dsi.tensorSliceNumel(op, pass.output.tensor);
        std::int64_t varying = 0;
        for (auto &[block, devs] : by_block) {
            for (std::int64_t member : devs)
                varying |= member ^ devs.front();
            spec.groups.push_back(std::move(devs));
        }
        const int n = dsi.numBits();
        for (int b = 0; b < n; ++b) {
            if ((varying >> (n - 1 - b)) & 1)
                spec.indicator.push_back(b);
        }
        comm.allReduce = std::move(spec);
    }
    return comm;
}

ShiftSet
deriveTransitionShift(const OpSpec &op, const PartitionSeq &seq,
                      const DsiTable &dsi, const TensorRef &tensor,
                      Phase from_phase, Phase to_phase)
{
    const auto peers = ringPeers(seq, dsi.numBits());
    return deriveShift(op, dsi, tensor, from_phase, dsi.steps() - 1,
                       to_phase, 0, peers);
}

int
replicationFactor(const OpSpec &op, const DsiTable &dsi,
                  const TensorRef &tensor, Phase phase, int t)
{
    std::map<std::vector<std::int64_t>, int> counts;
    int max_count = 0;
    for (std::int64_t dev = 0; dev < dsi.numDevices(); ++dev) {
        std::vector<std::int64_t> tuple;
        for (int d : op.tensors[tensor.tensor].dims)
            tuple.push_back(dsi.value(phase, dev, t, d));
        max_count = std::max(max_count, ++counts[tuple]);
    }
    return max_count;
}

GroupIndicator
tensorFootprintBits(const OpSpec &op, const DsiTable &dsi,
                    const TensorRef &tensor, Phase phase)
{
    const int n = dsi.numBits();
    GroupIndicator bits;
    for (int b = 0; b < n; ++b) {
        const std::int64_t mask = std::int64_t{1} << (n - 1 - b);
        bool affects = false;
        for (std::int64_t dev = 0; dev < dsi.numDevices() && !affects;
             ++dev) {
            for (int t = 0; t < dsi.steps() && !affects; ++t) {
                for (int d : op.tensors[tensor.tensor].dims) {
                    if (dsi.value(phase, dev, t, d) !=
                        dsi.value(phase, dev ^ mask, t, d)) {
                        affects = true;
                        break;
                    }
                }
            }
        }
        if (affects)
            bits.push_back(b);
    }
    return bits;
}

SymbolicComm::SymbolicComm(const OpSpec &op_in, const PartitionSeq &seq,
                           int num_bits)
    : op(op_in), slices(seq.sliceCounts(op_in)),
      byDimBits(op_in.dims.size(), 0)
{
    PRIMEPAR_ASSERT(seq.numBits() == num_bits,
                    "sequence consumes ", seq.numBits(), " bits, expected ",
                    num_bits, " for op ", op.name);
    const std::string err = seq.validate(op);
    PRIMEPAR_ASSERT(err.empty(), "invalid sequence for ", op.name, ": ",
                    err);
    int cursor = 0;
    for (const PartitionStep &step : seq.steps()) {
        if (step.kind == PartitionStep::Kind::ByDim) {
            byDimBits[step.dim] |= std::int64_t{1}
                                   << (num_bits - 1 - cursor);
        } else {
            k = step.k;
            side = 1 << k;
            low = num_bits - cursor - 2 * k;
            gridMask = (std::int64_t{1} << (2 * k)) - 1;
            coords.resize(static_cast<std::size_t>(gridMask) + 1);
            for (std::size_t x = 0; x < coords.size(); ++x) {
                coords[x] = pSquareCoord(static_cast<std::int64_t>(x)
                                             << low,
                                         num_bits, cursor, k);
            }
        }
        cursor += step.bits();
    }
}

std::int64_t
SymbolicComm::sliceNumel(int tensor) const
{
    std::int64_t n = 1;
    for (int d : op.tensors[tensor].dims)
        n *= sliceExtent(d);
    return n;
}

std::int64_t
SymbolicComm::component(const PSquareIndex &at, int dim) const
{
    const PSquareDims &psq = *op.psquare;
    if (dim == psq.m)
        return at.m;
    if (dim == psq.n)
        return at.n;
    return dim == psq.k ? at.k : -1;
}

std::int64_t
SymbolicComm::gridKey(const TensorRef &ref, Phase phase, int t,
                      std::size_t x) const
{
    const PSquareIndex at = pSquareIndex(phase, coords[x], t, k);
    std::int64_t key = 0;
    for (int d : op.tensors[ref.tensor].dims) {
        const std::int64_t c = component(at, d);
        if (c >= 0)
            key = key * side + c;
    }
    return key;
}

std::int64_t
SymbolicComm::keySpace(const TensorRef &ref) const
{
    std::int64_t space = 1;
    for (int d : op.tensors[ref.tensor].dims) {
        if (component(PSquareIndex{}, d) >= 0)
            space *= side;
    }
    return space;
}

const std::vector<Transfer> &
SymbolicComm::shift(const TensorRef &ref, Phase from_phase, int from_t,
                    Phase to_phase, int to_t)
{
    moves.clear();
    if (k == 0)
        return moves; // DSIs are identical in every phase and step
    const std::size_t cells = coords.size();
    fromKey.resize(cells);
    toKey.resize(cells);
    bool any = false;
    for (std::size_t x = 0; x < cells; ++x) {
        fromKey[x] = gridKey(ref, from_phase, from_t, x);
        toKey[x] = gridKey(ref, to_phase, to_t, x);
        any |= fromKey[x] != toKey[x];
    }
    if (!any)
        return moves;

    // The unique group peer holding each slice (-2: several do).
    holder.assign(static_cast<std::size_t>(keySpace(ref)), -1);
    for (std::size_t x = 0; x < cells; ++x) {
        std::int32_t &h = holder[fromKey[x]];
        h = h == -1 ? static_cast<std::int32_t>(x) : -2;
    }
    for (std::size_t x = 0; x < cells; ++x) {
        if (toKey[x] == fromKey[x])
            continue;
        const std::int32_t sender = holder[toKey[x]];
        PRIMEPAR_ASSERT(sender != -2, "ambiguous ring sender for ",
                        op.refName(ref), " of ", op.name);
        PRIMEPAR_ASSERT(sender >= 0, "no holder of needed slice of ",
                        op.refName(ref), " for device ",
                        static_cast<std::int64_t>(x) << low, " of op ",
                        op.name);
        moves.push_back({static_cast<std::int64_t>(x) << low,
                         std::int64_t{sender} << low});
    }
    return moves;
}

std::int64_t
SymbolicComm::sharedBits(const TensorRef &ref, Phase phase, int t)
{
    const auto &dims = op.tensors[ref.tensor].dims;
    std::int64_t mask = 0;
    for (std::size_t d = 0; d < slices.size(); ++d) {
        if (std::find(dims.begin(), dims.end(), static_cast<int>(d)) ==
            dims.end())
            mask |= byDimBits[d];
    }
    if (k == 0)
        return mask;
    // Within a group, devices share a block iff their keys match; the
    // bits they differ in vary within an all-reduce group.
    holder.assign(static_cast<std::size_t>(keySpace(ref)), -1);
    std::int64_t varying = 0;
    for (std::size_t x = 0; x < coords.size(); ++x) {
        std::int32_t &h = holder[gridKey(ref, phase, t, x)];
        if (h < 0)
            h = static_cast<std::int32_t>(x);
        else
            varying |= static_cast<std::int64_t>(x) ^ h;
    }
    return mask | varying << low;
}

std::int64_t
SymbolicComm::dimBits(int dim, Phase phase, int t) const
{
    std::int64_t mask = byDimBits[dim];
    if (k == 0 || component(PSquareIndex{}, dim) < 0)
        return mask;
    for (int bit = 0; bit < 2 * k; ++bit) {
        const std::size_t flip = std::size_t{1} << bit;
        for (std::size_t x = 0; x < coords.size(); ++x) {
            if (component(pSquareIndex(phase, coords[x], t, k), dim) !=
                component(pSquareIndex(phase, coords[x ^ flip], t, k),
                          dim)) {
                mask |= static_cast<std::int64_t>(flip) << low;
                break;
            }
        }
    }
    return mask;
}

} // namespace primepar
