#include "spmd_executor.hh"

#include <algorithm>
#include <set>

#include "errors.hh"
#include "support/logging.hh"
#include "tensor/einsum.hh"
#include "tensor/ops.hh"

namespace primepar {

SpmdOpExecutor::SpmdOpExecutor(OpSpec op_in, PartitionSeq seq_in,
                               int num_bits, bool overlap_comm,
                               DeviceSpan owned)
    : op(std::move(op_in)), seq(std::move(seq_in)),
      dsiTable(op, seq, num_bits), overlapComm(overlap_comm),
      ownedSpan(owned)
{
    PRIMEPAR_ASSERT(ownedSpan.all() ||
                        (ownedSpan.first >= 0 && ownedSpan.count > 0 &&
                         ownedSpan.first + ownedSpan.count <=
                             dsiTable.numDevices()),
                    "owned device span [", ownedSpan.first, ", ",
                    ownedSpan.first + ownedSpan.count,
                    ") out of range for ", dsiTable.numDevices(),
                    " devices");
    for (std::size_t p = 0; p < op.passes.size(); ++p)
        passComms.push_back(
            derivePassComm(op, seq, dsiTable, static_cast<int>(p)));
    for (std::size_t t = 0; t < op.tensors.size(); ++t)
        for (bool grad : {false, true})
            names.push_back(op.refName({static_cast<int>(t), grad}));
    stores.resize(names.size());
}

int
SpmdOpExecutor::idByName(const std::string &name) const
{
    const auto it = std::find(names.begin(), names.end(), name);
    return it == names.end() ? -1
                             : static_cast<int>(it - names.begin());
}

std::vector<std::int64_t>
SpmdOpExecutor::tupleAt(const TensorRef &ref, Phase phase,
                        std::int64_t dev, int t) const
{
    std::vector<std::int64_t> tuple;
    for (int d : op.tensors[ref.tensor].dims)
        tuple.push_back(dsiTable.value(phase, dev, t, d));
    return tuple;
}

SliceSet
SpmdOpExecutor::slicesOf(const TensorRef &ref) const
{
    const std::string &name = names[tensorId(ref)];
    const TensorStore &store = stores[tensorId(ref)];
    PRIMEPAR_ASSERT(!store.empty(), "gather of absent tensor ", name);
    const std::int64_t devices = dsiTable.numDevices();
    SliceSet set;
    set.shape = fullShape(ref);
    set.boxes.resize(devices);
    set.held.assign(devices, nullptr);
    set.received.resize(devices);
    for (std::int64_t dev = 0; dev < devices; ++dev)
        set.boxes[dev] = boxOf(ref, store[dev].tuple);
    Shape slice_shape;
    for (const SliceRange &r : set.boxes[0])
        slice_shape.push_back(r.length());

    // Non-owned ranks have no local data: their slices arrive over
    // the transport's "gather" channel in one exchange. Every
    // participant lists the ranks in the same ascending order — an
    // owned slice goes to one representative rank per peer span, a
    // non-owned one is received exactly once from its owner — so the
    // pairwise order matches on both ends of every socket. Slices
    // travel as raw bytes, so the received values equal the owner's,
    // i.e. a one-worker run's. A received replica of a box already
    // held is bitwise the same slice (an all-reduce broadcast), so it
    // lands in a discarded scratch slot: the set then holds at most
    // one tensor's worth.
    const bool tracing = observed();
    const double t0 = tracing ? observerNowUs() : 0.0;
    const std::vector<DeviceSpan> peers =
        (!ownedSpan.all() && transport) ? transport->peerSpans()
                                        : std::vector<DeviceSpan>{};
    std::set<std::vector<SliceRange>> kept;
    if (!ownedSpan.all())
        for (std::int64_t dev = ownedFirst();
             dev < ownedFirst() + ownedCount(); ++dev)
            kept.insert(set.boxes[dev]);
    Tensor replica;
    std::vector<ExchangeOp> ops;
    for (std::int64_t dev = 0; dev < devices; ++dev) {
        ExchangeOp op;
        op.tag.tensor = name;
        op.tag.channel = "gather";
        op.tag.phase = Phase::Forward;
        op.tag.temporalStep = 0;
        op.tag.sender = dev;
        if (ownsDev(dev)) {
            set.held[dev] = &store[dev].data;
            op.payload = &store[dev].data;
            for (const DeviceSpan &peer : peers)
                if (!peer.owns(dev) && peer.count > 0) {
                    op.tag.receiver = peer.first;
                    ops.push_back(op);
                }
            continue;
        }
        PRIMEPAR_ASSERT(transport, "gather of non-owned device ", dev,
                        " without a transport");
        op.tag.receiver = ownedFirst();
        if (kept.insert(set.boxes[dev]).second) {
            set.received[dev] = Tensor(slice_shape);
            op.dst = &set.received[dev];
        } else {
            if (replica.shape() != slice_shape)
                replica = Tensor(slice_shape);
            op.dst = &replica;
        }
        ops.push_back(op);
    }
    if (ops.empty())
        return set;

    // A transfer whose retry budget runs out rolls the exchange back to
    // that transfer: both of its ends call again, and each re-issues
    // only the transfers it has not seen delivered, so the wire
    // sequences realign.
    for (int tries = 0;; ++tries) {
        try {
            transport->exchange(ops);
            break;
        } catch (const TransientFaultError &err) {
            rollBack(err, tries, "gather re-issued after: ");
        }
    }
    if (tracing)
        health->span(ownedFirst(), SpanKind::Redist,
                     op.name + " gather " + name, t0, observerNowUs());
    return set;
}

Tensor
SpmdOpExecutor::gather(const TensorRef &ref) const
{
    const SliceSet set = slicesOf(ref);
    Tensor full(set.shape);
    const bool tracing = observed();
    const std::string label =
        tracing ? op.name + " assemble " + names[tensorId(ref)]
                : std::string();
    std::vector<std::int64_t> starts;
    for (std::int64_t dev = 0; dev < set.numDevices(); ++dev) {
        const double t0 = tracing ? observerNowUs() : 0.0;
        starts.clear();
        for (const SliceRange &r : set.boxes[dev])
            starts.push_back(r.start);
        // A dropped replica's box is written by the kept copy.
        if (const Tensor *data = set.data(dev))
            full.assignSlice(starts, *data);
        if (tracing)
            health->span(dev, SpanKind::Redist, label, t0,
                         observerNowUs());
    }
    return full;
}

Phase
SpmdOpExecutor::firstUse(const TensorRef &ref) const
{
    for (Phase phase : {Phase::Forward, Phase::Backward, Phase::Gradient})
        for (const PassSpec &pass : op.passes)
            if (pass.phase == phase &&
                std::find(pass.operands.begin(), pass.operands.end(),
                          ref) != pass.operands.end())
                return phase;
    PRIMEPAR_PANIC("tensor ", names[tensorId(ref)], " of ", op.name,
                   " is no pass operand");
}

void
SpmdOpExecutor::place(const std::string &name, bool zeroed,
                      const PlaceFill &fill)
{
    const TensorRef ref = refByName(name);
    placeAt(ref, firstUse(ref), zeroed, fill);
}

void
SpmdOpExecutor::placeWhole(const std::string &name, const Tensor &full)
{
    const TensorRef ref = refByName(name);
    placeFull(ref, firstUse(ref), &full);
}

void
SpmdOpExecutor::placeFull(const TensorRef &ref, Phase phase,
                          const Tensor *full)
{
    const std::string &key = names[tensorId(ref)];
    if (!full)
        throw InputError(op.name, phaseName(phase), key, fullShape(ref),
                         {});
    if (full->shape() != fullShape(ref))
        throw InputError(op.name, phaseName(phase), key, fullShape(ref),
                         full->shape());
    const SliceSet whole = SliceSet::whole(*full);
    const BoundaryCopy copy(EdgeIndexMap{}, true, whole);
    placeAt(ref, phase, false,
            [&](std::int64_t dev, const std::vector<SliceRange> &box,
                Tensor &slot) { copy.into(dev, box, slot, false); });
}

void
SpmdOpExecutor::placeAt(const TensorRef &ref, Phase phase, bool zeroed,
                        const PlaceFill &fill)
{
    TensorStore store(dsiTable.numDevices());
    const bool tracing = observed();
    const std::string label =
        tracing ? op.name + " place " + names[tensorId(ref)]
                : std::string();
    // Each device fills only its own slot from read-only sources;
    // tupleAt is a pure read of the DSI table and onSpan is declared
    // concurrency-safe. Every rank gets its partition tuple; only
    // owned ranks pay for the data (the sharded span skips the rest).
    parallelFor(pool, static_cast<std::size_t>(dsiTable.numDevices()),
                [&](std::size_t dev) {
                    const auto d = static_cast<std::int64_t>(dev);
                    store[dev].tuple = tupleAt(ref, phase, d, 0);
                    if (!ownsDev(d))
                        return;
                    const double t0 = tracing ? observerNowUs() : 0.0;
                    const std::vector<SliceRange> box =
                        boxOf(ref, store[dev].tuple);
                    Shape shape;
                    for (const SliceRange &r : box)
                        shape.push_back(r.length());
                    store[dev].data =
                        zeroed ? Tensor(std::move(shape))
                               : Tensor::uninitialized(std::move(shape));
                    fill(d, box, store[dev].data);
                    if (tracing)
                        health->span(d, SpanKind::Redist, label, t0,
                                     observerNowUs());
                });
    stores[tensorId(ref)] = std::move(store);
}

std::vector<SliceRange>
SpmdOpExecutor::boxOf(const TensorRef &ref,
                      const std::vector<std::int64_t> &tuple) const
{
    const auto &dims = op.tensors[ref.tensor].dims;
    std::vector<SliceRange> box;
    for (std::size_t i = 0; i < dims.size(); ++i) {
        const std::int64_t extent = dsiTable.sliceExtent(dims[i]);
        box.push_back({tuple[i] * extent, (tuple[i] + 1) * extent});
    }
    return box;
}

Shape
SpmdOpExecutor::fullShape(const TensorRef &ref) const
{
    Shape shape;
    for (int d : op.tensors[ref.tensor].dims)
        shape.push_back(op.dims[d].size);
    return shape;
}

SpmdOpExecutor::ShiftBatch
SpmdOpExecutor::stageShifts(const std::vector<ShiftSet> &shifts,
                            const char *channel, Phase phase, int to_t)
{
    ShiftBatch batch;
    batch.channel = channel;
    batch.phase = phase;
    batch.toT = to_t;
    batch.traced = observed();
    for (const ShiftSet &set : shifts) {
        const int id = tensorId(set.tensor);
        TensorStore &store = stores[id];
        PRIMEPAR_ASSERT(!store.empty(), "shift of absent tensor ",
                        names[id]);
        for (const Transfer &tr : set.transfers) {
            PendingRecv recv;
            recv.id = id;
            recv.src = &store[tr.sender].data;
            recv.sender = tr.sender;
            recv.receiver = tr.receiver;
            // The pre-shift tuple: no slot is rewritten before the
            // commit, so every send reads the pre-shift state without
            // a snapshot copy of the store.
            recv.tuple = store[tr.sender].tuple;
            const bool send_local = ownsDev(tr.sender);
            const bool recv_local = ownsDev(tr.receiver);
            // Sharded span: a transfer touching no owned endpoint is
            // a tuple-only update; a send-only transfer keeps its
            // staged tensor as wire scratch and never commits it.
            recv.doTransfer = send_local || recv_local;
            recv.commitData = recv_local;
            if (recv_local && !send_local)
                // Pre-size the staging buffer: the wire receive takes
                // its expected byte count from the destination, and
                // shifted slices share the receiver slot's extents.
                recv.staged = Tensor(store[tr.receiver].data.shape());
            batch.recvs.push_back(std::move(recv));
        }
        batch.elements +=
            set.elementsPerTransfer *
            static_cast<std::int64_t>(set.transfers.size());
    }
    return batch;
}

void
SpmdOpExecutor::runShifts(ShiftBatch &batch)
{
    // A transfer fault escapes to the step journal: directly when the
    // batch runs inline, at the join's wait() when it was posted.
    for (PendingRecv &recv : batch.recvs) {
        const double t0 = batch.traced ? observerNowUs() : 0.0;
        if (transport && recv.doTransfer) {
            TransferTag tag;
            tag.tensor = names[recv.id];
            tag.channel = batch.channel;
            tag.phase = batch.phase;
            tag.temporalStep = batch.toT;
            tag.sender = recv.sender;
            tag.receiver = recv.receiver;
            transport->transferInto(tag, *recv.src, recv.staged);
        } else if (!transport) {
            recv.staged = *recv.src;
        }
        if (batch.traced)
            health->span(recv.receiver, SpanKind::Ring,
                         std::string(batch.channel) + " " + names[recv.id],
                         t0, observerNowUs());
    }
}

void
SpmdOpExecutor::commitShifts(ShiftBatch &batch)
{
    for (PendingRecv &recv : batch.recvs) {
        DeviceSlot &slot = stores[recv.id][recv.receiver];
        if (recv.commitData)
            slot.data = std::move(recv.staged);
        slot.tuple = std::move(recv.tuple);
    }
    commStats.ringElements += batch.elements;
}

void
SpmdOpExecutor::runJournaled(int out_id,
                             const std::function<void()> &body)
{
    if (!(transport && transport->faultTolerant())) {
        body();
        return;
    }
    // Bounded undo log: one step's in-place writes. A transfer whose
    // retry budget is exhausted unwinds here; the step is rolled back
    // and re-executed from the log.
    for (int tries = 0;; ++tries) {
        const double j0 = observed() ? observerNowUs() : 0.0;
        TensorStore out_log = stores[out_id];
        LayerNormAux aux_log = aux;
        const CommVolume volume_log = commStats;
        // The snapshot covers every device's slot: the runtime row.
        if (observed())
            health->span(-1, SpanKind::Journal, op.name + " journal " +
                                                    names[out_id],
                         j0, observerNowUs());
        try {
            body();
            return;
        } catch (const TransientFaultError &err) {
            rollBack(err, tries, "temporal step rolled back after: ");
            stores[out_id] = std::move(out_log);
            aux = std::move(aux_log);
            commStats = volume_log;
        }
    }
}

void
SpmdOpExecutor::rollBack(const TransientFaultError &err, int tries,
                         const char *what) const
{
    constexpr int kMaxStepRetries = 3;
    if (tries >= kMaxStepRetries)
        throw;
    if (health)
        health->rolledBack({FaultKind::None, what + std::string(err.what()),
                            err.tensor, err.step, err.sender, err.receiver,
                            tries});
}

Tensor
SpmdOpExecutor::computeLocal(const PassSpec &pass, std::int64_t dev)
{
    auto slot = [&](const TensorRef &ref) -> const Tensor & {
        const TensorStore &store = stores[tensorId(ref)];
        PRIMEPAR_ASSERT(!store.empty(), "operand ",
                        names[tensorId(ref)], " missing on device ", dev);
        return store[dev].data;
    };
    auto operand_by_grad = [&](bool grad) -> const TensorRef & {
        for (const TensorRef &ref : pass.operands) {
            if (ref.grad == grad)
                return ref;
        }
        PRIMEPAR_PANIC("pass has no operand with grad=", grad, " in op ",
                       op.name);
    };

    Shape out_shape;
    for (int d : op.tensors[pass.output.tensor].dims)
        out_shape.push_back(dsiTable.sliceExtent(d));
    Tensor partial(out_shape);

    if (op.kind == "linear" || op.kind == "matmul") {
        PRIMEPAR_ASSERT(pass.operands.size() == 2,
                        "contraction pass needs two operands");
        const TensorRef &a = pass.operands[0];
        const TensorRef &b = pass.operands[1];
        contractProduct(slot(a), op.tensors[a.tensor].dims, slot(b),
                        op.tensors[b.tensor].dims, partial,
                        op.tensors[pass.output.tensor].dims);
        return partial;
    }
    if (op.kind == "add") {
        if (pass.phase == Phase::Forward) {
            partial = slot(pass.operands[0]);
            partial.add(slot(pass.operands[1]));
        } else {
            partial = slot(pass.operands[0]); // gradient pass-through
        }
        return partial;
    }
    if (op.kind == "elementwise") {
        const bool is_gelu = op.name.find("gelu") != std::string::npos;
        const bool is_relu = op.name.find("relu") != std::string::npos;
        if (pass.phase == Phase::Forward) {
            const Tensor &x = slot(pass.operands[0]);
            partial = is_gelu ? gelu(x) : is_relu ? relu(x) : x;
        } else {
            const Tensor &dy = slot(operand_by_grad(true));
            const Tensor &x = slot(operand_by_grad(false));
            partial = is_gelu   ? geluBackward(x, dy)
                      : is_relu ? reluBackward(x, dy)
                                : dy;
        }
        return partial;
    }
    if (op.kind == "softmax") {
        if (pass.phase == Phase::Forward) {
            partial = softmaxLastDim(slot(pass.operands[0]));
        } else {
            partial = softmaxBackward(slot(operand_by_grad(false)),
                                      slot(operand_by_grad(true)));
        }
        return partial;
    }
    if (op.kind == "layernorm") {
        // The normalized dimension must be whole on each device (its
        // partitioned execution is cost-model-only).
        PRIMEPAR_ASSERT(dsiTable.sliceCount(op.normalizedDim) == 1,
                        "SpmdOpExecutor requires the normalized dim "
                        "of ",
                        op.name, " to be unpartitioned");
        const TensorRef input_ref{0, false};
        const TensorRef gamma_ref{1, false};
        if (pass.phase == Phase::Forward) {
            const Tensor &x = slot(input_ref);
            const Tensor &gamma = slot(gamma_ref);
            const Tensor beta(gamma.shape());
            const LayerNormResult res =
                layerNormForward(x, gamma, beta);
            // Stores were pre-sized serially in runPass(); only this
            // device's slot is written here (parallel-safe).
            aux.mean[dev].data = res.mean;
            aux.invStd[dev].data = res.inv_std;
            return res.output;
        }
        if (pass.phase == Phase::Backward) {
            const Tensor &x = slot(input_ref);
            const Tensor &gamma = slot(gamma_ref);
            const Tensor &dy = slot(operand_by_grad(true));
            LayerNormResult fwd;
            PRIMEPAR_ASSERT(aux.mean[dev].data.numel() > 0,
                            "layernorm backward before forward");
            fwd.mean = aux.mean[dev].data;
            fwd.inv_std = aux.invStd[dev].data;
            LayerNormGrads grads =
                layerNormBackward(x, fwd, gamma, dy);
            aux.dGamma[dev].data = std::move(grads.d_gamma);
            return grads.d_input;
        }
        // Gradient: the gamma gradient cached during backward.
        PRIMEPAR_ASSERT(aux.dGamma[dev].data.numel() > 0,
                        "layernorm gradient before backward");
        return aux.dGamma[dev].data;
    }
    PRIMEPAR_PANIC("SpmdOpExecutor does not execute kind ", op.kind);
}

void
SpmdOpExecutor::runPass(int pass_index,
                        const std::map<std::string, Tensor> &inputs)
{
    const PassSpec &pass = op.passes[pass_index];
    const PassComm &comm = passComms[pass_index];
    const int steps = dsiTable.steps();
    const bool tracing = observed();
    const int out_id = tensorId(pass.output);

    // Pre-size auxiliary stores before any parallel region: a lazy
    // resize inside computeLocal would be a structural data race once
    // devices run concurrently.
    if (op.kind == "layernorm" && aux.mean.empty()) {
        aux.mean.resize(dsiTable.numDevices());
        aux.invStd.resize(dsiTable.numDevices());
        aux.dGamma.resize(dsiTable.numDevices());
    }

    // Position operands: slice a full input on first use; otherwise
    // the stashed distribution must already align (operational
    // feature 3).
    for (const TensorRef &ref : pass.operands) {
        const std::string &key = names[tensorId(ref)];
        const TensorStore &store = stores[tensorId(ref)];
        if (store.empty()) {
            const auto it = inputs.find(key);
            placeFull(ref, pass.phase,
                      it == inputs.end() ? nullptr : &it->second);
            continue;
        }
        for (std::int64_t dev = 0; dev < dsiTable.numDevices(); ++dev) {
            PRIMEPAR_ASSERT(
                store[dev].tuple == tupleAt(ref, pass.phase, dev, 0),
                "stashed tensor ", key, " misaligned entering ",
                phaseName(pass.phase), " on device ", dev,
                " (feature 3 violated)");
        }
    }
    // The step shifts never move the pass output (accumulator moves
    // are accShifts). That is what keeps operand receives out of the
    // undo log and makes running them alongside compute legal.
    for (const auto &sets : comm.stepShifts)
        for (const ShiftSet &set : sets)
            PRIMEPAR_ASSERT(tensorId(set.tensor) != out_id,
                            "step shift of the pass output");

    // Fresh zero accumulators tagged with the step-0 output block.
    Shape acc_shape;
    for (int d : op.tensors[pass.output.tensor].dims)
        acc_shape.push_back(dsiTable.sliceExtent(d));
    TensorStore acc(dsiTable.numDevices());
    parallelFor(pool, static_cast<std::size_t>(dsiTable.numDevices()),
                [&](std::size_t dev) {
                    const auto d = static_cast<std::int64_t>(dev);
                    if (ownsDev(d))
                        acc[dev].data = Tensor(acc_shape);
                    acc[dev].tuple =
                        tupleAt(pass.output, pass.phase, d, 0);
                });
    stores[out_id] = std::move(acc);

    for (int t = 0; t < steps; ++t) {
        runJournaled(out_id, [&] {
            // Accumulator migrations run inline at step start: they
            // move the very store this step accumulates into.
            if (t > 0) {
                ShiftBatch acc_batch = stageShifts(
                    comm.accShifts[t - 1], "acc", pass.phase, t);
                runShifts(acc_batch);
                commitShifts(acc_batch);
            }
            TensorStore &out_store = stores[out_id];
            // After any migration the accumulator must sit on the
            // block this device owns at step t.
            for (std::int64_t dev = 0; dev < dsiTable.numDevices();
                 ++dev) {
                PRIMEPAR_ASSERT(
                    out_store[dev].tuple ==
                        tupleAt(pass.output, pass.phase, dev, t),
                    "accumulator misplaced at step ", t);
            }
            // Operand shifts toward step t+1 (and the transition shift
            // at the last step). With overlap on they run on the comm
            // worker while this step computes — compute only reads the
            // operands, and the receives stay staged until the commit.
            ShiftBatch ring = stageShifts(comm.stepShifts[t], "ring",
                                          pass.phase, t + 1);
            const bool posted = overlapComm && !ring.recvs.empty();
            if (posted)
                commWorker.post([this, &ring] { runShifts(ring); });
            // The per-device sub-operators of this temporal step are
            // independent: each device reads only already-positioned
            // operand slots and accumulates into its own accumulator.
            const std::string compute_label =
                tracing ? op.name + " " + phaseName(pass.phase) + " t" +
                              std::to_string(t)
                        : std::string();
            try {
                // Only owned ranks compute: a sharded span's other
                // ranks run on their owning workers.
                parallelFor(
                    pool, static_cast<std::size_t>(ownedCount()),
                    [&](std::size_t idx) {
                        const std::int64_t d =
                            ownedFirst() +
                            static_cast<std::int64_t>(idx);
                        const double t0 =
                            tracing ? observerNowUs() : 0.0;
                        const Tensor partial = computeLocal(pass, d);
                        out_store[d].data.add(partial);
                        if (tracing)
                            health->span(d, SpanKind::Compute,
                                         compute_label, t0,
                                         observerNowUs());
                    });
            } catch (...) {
                // Never unwind past an in-flight batch — the batch
                // storage dies with this frame. The compute error
                // outranks whatever the comm worker ran into.
                if (posted) {
                    try {
                        commWorker.wait();
                    } catch (...) {
                    }
                }
                throw;
            }
            if (posted) {
                // The join rethrows a posted transfer's fault into this
                // step's journal. Its span is the exposed part of the
                // posted transfer time, and marks the trace as posted
                // for overlapStats().
                const double t0 = tracing ? observerNowUs() : 0.0;
                commWorker.wait();
                if (tracing)
                    health->span(0, SpanKind::RingJoin, "ring join",
                                 t0, observerNowUs());
            } else {
                runShifts(ring);
            }
            commitShifts(ring);
        });
    }

    // Grouped all-reduce of partial sums (conventional partitions).
    if (comm.allReduce.has_value()) {
        const AllReduceSpec &spec = *comm.allReduce;
        const std::string &out_key = names[out_id];
        runJournaled(out_id, [&] {
            TensorStore &out_store = stores[out_id];
            for (const DeviceGroup &group : spec.groups) {
                if (group.size() < 2)
                    continue;
                const double g0 = tracing ? observerNowUs() : 0.0;
                const std::int64_t leader = group[0];
                const bool leader_local = ownsDev(leader);
                for (std::size_t i = 1; i < group.size(); ++i)
                    PRIMEPAR_ASSERT(out_store[group[i]].tuple ==
                                        out_store[leader].tuple,
                                    "all-reduce group block mismatch");
                // Reduce to the group leader with a fixed order, then
                // broadcast — each hop is a tracked transfer. A
                // sharded span takes part only in the hops that touch
                // an owned rank; the members are still walked in the
                // same ascending order on every worker, so the
                // leader's owner adds the partials in exactly the
                // order a one-worker run would.
                Tensor sum;
                if (leader_local)
                    sum = out_store[leader].data;
                for (std::size_t i = 1; i < group.size(); ++i) {
                    const std::int64_t member = group[i];
                    const bool member_local = ownsDev(member);
                    if (!transport) {
                        sum.add(out_store[member].data);
                        continue;
                    }
                    if (!leader_local && !member_local)
                        continue;
                    TransferTag tag;
                    tag.tensor = out_key;
                    tag.channel = "allreduce";
                    tag.phase = pass.phase;
                    tag.temporalStep = steps;
                    tag.sender = member;
                    tag.receiver = leader;
                    if (leader_local) {
                        Tensor recv;
                        if (!member_local)
                            recv = Tensor(
                                out_store[leader].data.shape());
                        const Tensor empty;
                        const Tensor &payload =
                            member_local ? out_store[member].data
                                         : empty;
                        transport->transferInto(tag, payload, recv);
                        sum.add(recv);
                    } else {
                        // Only the member is owned here: wire-send
                        // its partial to the leader's owner.
                        Tensor scratch;
                        transport->transferInto(
                            tag, out_store[member].data, scratch);
                    }
                }
                for (std::size_t i = 0; i < group.size(); ++i) {
                    const std::int64_t member = group[i];
                    const bool member_local = ownsDev(member);
                    if (!transport) {
                        out_store[member].data = sum;
                        continue;
                    }
                    if (i == 0) {
                        if (leader_local)
                            out_store[leader].data = sum;
                        continue;
                    }
                    if (!leader_local && !member_local)
                        continue;
                    TransferTag tag;
                    tag.tensor = out_key;
                    tag.channel = "allreduce";
                    tag.phase = pass.phase;
                    tag.temporalStep = steps;
                    tag.sender = leader;
                    tag.receiver = member;
                    if (leader_local && member_local) {
                        transport->transferInto(
                            tag, sum, out_store[member].data);
                    } else if (leader_local) {
                        Tensor scratch;
                        transport->transferInto(tag, sum, scratch);
                    } else {
                        // Only the member is owned: receive the
                        // reduced sum into its slot.
                        const Tensor empty;
                        transport->transferInto(
                            tag, empty, out_store[member].data);
                    }
                }
                commStats.allReduceElements +=
                    spec.elementsPerDevice *
                    static_cast<std::int64_t>(group.size() - 1);
                if (tracing)
                    health->span(group[0], SpanKind::AllReduce,
                                 out_key + " allreduce", g0,
                                 observerNowUs());
            }
            ++commStats.allReduceCount;
        });
    }

    // Phase boundary: every pass output — an activation (Forward), an
    // input gradient (Backward), or a weight gradient (Gradient) — is
    // reported to the health sink, whose numeric anomaly guard scans
    // it before the observers see it; emitted from this serial
    // section, so event order is deterministic.
    if (health && health->watchesTensors()) {
        const TensorStore &out_store = stores[out_id];
        for (std::int64_t dev = ownedFirst();
             dev < ownedFirst() + ownedCount(); ++dev) {
            health->tensorProduced(op.name + "." + names[out_id] +
                                       "@dev" + std::to_string(dev),
                                   trainStep, out_store[dev].data);
        }
    }
}

void
SpmdOpExecutor::reset()
{
    for (TensorStore &store : stores)
        store.clear();
    aux = LayerNormAux{};
    commStats = CommVolume{};
}

void
SpmdOpExecutor::runPhase(Phase phase)
{
    const std::map<std::string, Tensor> none;
    for (std::size_t p = 0; p < op.passes.size(); ++p) {
        if (op.passes[p].phase == phase)
            runPass(static_cast<int>(p), none);
    }
}

bool
SpmdOpExecutor::hasTensor(const std::string &name) const
{
    const int id = idByName(name);
    return id >= 0 && !stores[id].empty();
}

TensorRef
SpmdOpExecutor::refByName(const std::string &name) const
{
    const int id = idByName(name);
    if (id < 0)
        PRIMEPAR_PANIC("operator ", op.name, " has no tensor named ",
                       name);
    return {id / 2, id % 2 == 1};
}

Tensor
SpmdOpExecutor::gatherByName(const std::string &name) const
{
    return gather(refByName(name));
}

SliceSet
SpmdOpExecutor::slices(const std::string &name) const
{
    return slicesOf(refByName(name));
}

TrainStepResult
SpmdOpExecutor::run(const std::map<std::string, Tensor> &inputs)
{
    reset();

    for (std::size_t p = 0; p < op.passes.size(); ++p)
        runPass(static_cast<int>(p), inputs);

    TrainStepResult result;
    result.output = gather({op.outputTensor, false});
    const TensorRef d_input{op.inputTensor, true};
    if (!stores[tensorId(d_input)].empty())
        result.d_input = gather(d_input);
    for (const auto &pass : op.passes) {
        if (pass.output.grad && pass.output.tensor != op.inputTensor &&
            op.tensors[pass.output.tensor].isParameter) {
            result.d_weight = gather(pass.output);
        }
    }
    return result;
}

Tensor
SpmdOpExecutor::sgdUpdateAndGather(double lr)
{
    // Find the parameter and its gradient stores.
    int param = -1;
    for (std::size_t t = 0; t < op.tensors.size(); ++t) {
        if (op.tensors[t].isParameter)
            param = static_cast<int>(t);
    }
    PRIMEPAR_ASSERT(param >= 0, "operator ", op.name,
                    " has no parameter");
    TensorStore &w = stores[tensorId({param, false})];
    const TensorStore &g = stores[tensorId({param, true})];
    PRIMEPAR_ASSERT(!w.empty() && !g.empty(),
                    "run() must precede sgdUpdateAndGather()");
    for (std::int64_t dev = 0; dev < dsiTable.numDevices(); ++dev) {
        // The update is local only if W and dW ended co-located —
        // exactly the paper's feature-3 weight alignment.
        PRIMEPAR_ASSERT(w[dev].tuple == g[dev].tuple,
                        "W/dW misaligned on device ", dev,
                        "; local SGD update impossible");
        if (!ownsDev(dev))
            continue;
        Tensor scaled = g[dev].data;
        scaled.scale(static_cast<float>(-lr));
        w[dev].data.add(scaled);
    }
    return gather({param, false});
}

TrainStepResult
referenceTrainStep(const OpSpec &op,
                   const std::map<std::string, Tensor> &inputs)
{
    // A single emulated device with the empty partition sequence runs
    // the unpartitioned computation through the same machinery.
    SpmdOpExecutor single(op, PartitionSeq{}, 0);
    return single.run(inputs);
}

} // namespace primepar
