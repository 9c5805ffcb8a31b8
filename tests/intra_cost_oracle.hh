/**
 * @file
 * Test oracle of Eq. 7: the intra-operator cost summed over a full
 * OpPlan — per-device DSI table and derivePassComm() schedules — the
 * way the planner priced every sequence before CostModel::intraCost()
 * read the terms off the sequence's bit structure. The two must agree
 * bit for bit: same doubles, summed in the same order.
 */

#ifndef PRIMEPAR_TESTS_INTRA_COST_ORACLE_HH
#define PRIMEPAR_TESTS_INTRA_COST_ORACLE_HH

#include <algorithm>

#include "cost/cost_model.hh"
#include "sim/op_sim.hh"
#include "support/logging.hh"

namespace primepar {

inline double
oracleRingSetLatency(const CostModel &cm, const OpSpec &op,
                     const ShiftSet &set)
{
    if (set.transfers.empty())
        return 0.0;
    const double bytes =
        static_cast<double>(set.elementsPerTransfer) * op.bytesPerElement;
    bool cross_node = false;
    for (const Transfer &tr : set.transfers) {
        if (!cm.topology().sameNode(tr.sender, tr.receiver)) {
            cross_node = true;
            break;
        }
    }
    return cm.profiledModels().ringHop[cross_node ? 1 : 0](bytes);
}

/** Eq. 7 of @p plan under @p cm, from the per-device plan. */
inline IntraCost
oracleIntraCost(const CostModel &cm, const OpPlan &plan)
{
    const OpSpec &op = *plan.op;
    const DsiTable &dsi = plan.dsi;
    const ProfiledModels &models = cm.profiledModels();
    const ClusterTopology &topo = cm.topology();
    IntraCost cost;

    for (std::size_t p = 0; p < op.passes.size(); ++p) {
        const PassSpec &pass = op.passes[p];
        const PassComm &comm = plan.passComms[p];
        const int steps = dsi.steps();

        const double flops =
            op.passFlops(pass) /
            (static_cast<double>(dsi.numDevices()) * steps);
        double bytes = 0.0;
        for (const TensorRef &ref : pass.operands)
            bytes += static_cast<double>(
                         dsi.tensorSliceNumel(op, ref.tensor)) *
                     op.bytesPerElement;
        bytes += static_cast<double>(
                     dsi.tensorSliceNumel(op, pass.output.tensor)) *
                 op.bytesPerElement;
        const bool math_bound =
            op.kind == "linear" || op.kind == "matmul";
        const double kernel = math_bound
                                  ? models.matmulKernel(flops)
                                  : models.memoryKernel(bytes);

        for (int t = 0; t < steps; ++t) {
            double ring = 0.0;
            for (const ShiftSet &set : comm.stepShifts[t])
                ring += oracleRingSetLatency(cm, op, set);
            for (const ShiftSet &set : comm.accShifts[t])
                ring += oracleRingSetLatency(cm, op, set);
            cost.latencyUs += std::max(kernel, ring);
            cost.computeUs += kernel;
            cost.ringUs += ring;
        }

        if (comm.allReduce.has_value()) {
            const AllReduceSpec &spec = *comm.allReduce;
            const double payload =
                static_cast<double>(spec.elementsPerDevice) *
                op.bytesPerElement;
            const auto it = models.allReduce.find(
                groupPatternKey(topo, spec.indicator));
            PRIMEPAR_ASSERT(it != models.allReduce.end(),
                            "no profiled all-reduce model for pattern");
            const double dur = it->second(payload);
            cost.latencyUs += dur;
            cost.allReduceUs += dur;
        }
    }

    if (op.normalizedDim >= 0 &&
        dsi.sliceCount(op.normalizedDim) > 1) {
        GroupIndicator bits;
        const int n = dsi.numBits();
        for (int b = 0; b < n; ++b) {
            const std::int64_t mask = std::int64_t{1} << (n - 1 - b);
            bool affects = false;
            for (std::int64_t dev = 0;
                 dev < dsi.numDevices() && !affects; ++dev) {
                if (dsi.value(Phase::Forward, dev, 0,
                              op.normalizedDim) !=
                    dsi.value(Phase::Forward, dev ^ mask, 0,
                              op.normalizedDim))
                    affects = true;
            }
            if (affects)
                bits.push_back(b);
        }
        if (!bits.empty()) {
            const std::int64_t rows =
                dsi.tensorSliceNumel(op, op.outputTensor) /
                dsi.sliceExtent(op.normalizedDim);
            const double payload = static_cast<double>(rows) * 2 * 4;
            const auto it =
                models.allReduce.find(groupPatternKey(topo, bits));
            if (it != models.allReduce.end()) {
                const double dur = it->second(payload);
                cost.latencyUs += dur;
                cost.allReduceUs += dur;
            }
        }
    }

    cost.memoryBytes = opMemory(op, plan.seq, dsi, plan.passComms,
                                cm.memoryParams())
                           .total();
    cost.weighted = cost.latencyUs +
                    cm.alphaMemory() * cost.memoryBytes / (1024.0 * 1024.0);
    return cost;
}

} // namespace primepar

#endif // PRIMEPAR_TESTS_INTRA_COST_ORACLE_HH
