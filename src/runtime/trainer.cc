#include "trainer.hh"

#include <utility>

#include "support/logging.hh"
#include "support/rng.hh"
#include "transformer_runtime.hh"

namespace primepar {

std::vector<PartitionSeq>
defaultBlockPlan(const CompGraph &graph, int bits)
{
    std::vector<PartitionSeq> plan;
    plan.reserve(static_cast<std::size_t>(graph.numNodes()));
    for (int n = 0; n < graph.numNodes(); ++n) {
        const OpSpec &op = graph.node(n);
        PartitionSeq seq;
        if (bits >= 2 && op.psquare.has_value())
            seq.push(PartitionStep::pSquare(1));

        auto dimByName = [&](const char *name) -> int {
            for (std::size_t d = 0; d < op.dims.size(); ++d) {
                if (op.dims[d].name == name)
                    return static_cast<int>(d);
            }
            return -1;
        };
        std::vector<int> preferred;
        auto prefer = [&](int d) {
            if (d < 0)
                return;
            for (int have : preferred) {
                if (have == d)
                    return;
            }
            preferred.push_back(d);
        };
        prefer(dimByName("B"));
        if (op.kind == "matmul" || op.kind == "softmax")
            prefer(dimByName("Hd"));
        prefer(dimByName("M"));
        for (std::size_t d = 0; d < op.dims.size(); ++d)
            prefer(static_cast<int>(d));

        // Greedy fill of the remaining bits: first preferred dim whose
        // additional halving the operator still validates.
        while (seq.numBits() < bits) {
            bool placed = false;
            for (int d : preferred) {
                PartitionSeq trial = seq;
                trial.push(PartitionStep::byDim(d));
                if (trial.validate(op).empty()) {
                    seq = std::move(trial);
                    placed = true;
                    break;
                }
            }
            PRIMEPAR_ASSERT(placed,
                            "defaultBlockPlan: no partitionable dim of ",
                            op.name, " can consume bit ", seq.numBits(),
                            " of ", bits);
        }
        plan.push_back(std::move(seq));
    }
    return plan;
}

BlockTrainer::BlockTrainer(TrainerOptions opts_in)
    : opts(std::move(opts_in)),
      graph(buildTransformerBlock(opts.model, opts.batch))
{
    bits_ = opts.runtime.numBits;
    strategies = opts.replanner ? opts.replanner(graph, bits_)
                                : defaultBlockPlan(graph, bits_);
    if (opts.runtime.faults.enabled())
        injector = std::make_shared<FaultInjector>(opts.runtime.faults);
    health_.guard = opts.runtime.guard;
    if (!opts.transportFactory) {
        // Uniform construction path: in-process training is just the
        // default factory, not a special case in buildExecutor.
        opts.transportFactory =
            [topts = opts.runtime.transport](
                int, const DeviceFailedError *,
                std::shared_ptr<FaultInjector> inj,
                RuntimeHealth *h) -> std::unique_ptr<Transport> {
            return std::make_unique<InProcessTransport>(topts, inj, h);
        };
    }
    Rng rng(opts.seed | 1);
    params = randomBlockParams(graph, rng);
    buildExecutor();
}

BlockTrainer::~BlockTrainer() = default;

void
BlockTrainer::buildExecutor(const DeviceFailedError *cause)
{
    // A fresh transport per (re-)build: a degraded grid renumbers the
    // devices, so the old dead-set must not carry over. The injector
    // *is* shared, so scheduled faults keep their consumed budget.
    // Built before the executors: their device span is the transport's.
    transport = opts.transportFactory(bits_, cause, injector, &health_);
    RuntimeOptions rt = opts.runtime;
    rt.numBits = bits_;
    exec = std::make_unique<SpmdGraphExecutor>(graph, strategies, rt,
                                               transport.get());
    // One sink serves the whole stack; its address is stable, so
    // observers attached later still reach a rebuilt executor.
    exec->setHealth(&health_);
}

void
BlockTrainer::addObserver(RuntimeObserver *o)
{
    health_.addObserver(o);
}

GraphIO
BlockTrainer::makeBatch(std::int64_t step) const
{
    // Batches are a pure function of (seed, step): a resumed run
    // regenerates the exact inputs of the interrupted one.
    Rng rng((opts.seed ^ (0x9e3779b97f4a7c15ull *
                          static_cast<std::uint64_t>(step + 1))) |
            1);
    const Shape shape{opts.batch, opts.model.seqLength,
                      opts.model.hiddenSize};
    GraphIO io;
    io.input = Tensor::random(shape, rng);
    io.d_output = Tensor::random(shape, rng);
    return io;
}

void
BlockTrainer::applyUpdate(const std::map<std::string, Tensor> &d_params)
{
    for (const auto &[name, grad] : d_params) {
        auto wit = params.find(name);
        PRIMEPAR_ASSERT(wit != params.end(),
                        "gradient for unknown parameter ", name);
        Tensor &w = wit->second;
        auto vit = velocity.find(name);
        if (vit == velocity.end())
            vit = velocity.emplace(name, Tensor(w.shape())).first;
        Tensor &v = vit->second;
        v.scale(static_cast<float>(opts.momentum));
        Tensor scaled = grad;
        scaled.scale(static_cast<float>(-opts.lr));
        v.add(scaled);
        w.add(v);
    }
}

StepStats
BlockTrainer::trainStep()
{
    for (;;) {
        const std::int64_t s = step_;
        try {
            const double t0 = health_.clockUs();
            health_.stepBegan(s);
            const GraphIO io = makeBatch(s);
            exec->beginStep(s);
            const GraphResult res =
                exec->run(io.input, params, io.d_output);

            // Probe loss: <O, dO> / numel — cheap, deterministic, and
            // sensitive to any perturbation of output or parameters.
            double loss = 0.0;
            const float *o = res.output.data();
            const float *g = io.d_output.data();
            const std::int64_t numel = res.output.numel();
            for (std::int64_t i = 0; i < numel; ++i)
                loss += static_cast<double>(o[i]) *
                        static_cast<double>(g[i]);
            loss /= static_cast<double>(numel);

            applyUpdate(res.d_params);
            ++step_;
            health_.stepEnded(s, t0);
            const CheckpointOptions &ck = opts.runtime.checkpoint;
            if (!ck.path.empty() && ck.every > 0 &&
                step_ % ck.every == 0) {
                saveCheckpointNow();
            }
            return {s, loss};
        } catch (const DeviceFailedError &err) {
            if (replansDone >= opts.runtime.checkpoint.maxReplans ||
                bits_ <= 0)
                throw;
            degradeAndRestore(err);
        }
    }
}

Checkpoint
BlockTrainer::checkpoint() const
{
    Checkpoint ck;
    ck.step = static_cast<std::uint64_t>(step_);
    ck.params = params;
    ck.optState = velocity;
    return ck;
}

void
BlockTrainer::saveCheckpointNow()
{
    PRIMEPAR_ASSERT(!opts.runtime.checkpoint.path.empty(),
                    "no checkpoint path configured");
    const double t0 = health_.clockUs();
    const Checkpoint ck = checkpoint();
    saveCheckpoint(opts.runtime.checkpoint.path, ck);
    if (opts.runtime.checkpoint.keepHistory)
        saveCheckpoint(opts.runtime.checkpoint.path + ".s" +
                           std::to_string(step_),
                       ck);
    checkpointOnDisk = true;
    health_.checkpointed(true, step_, t0);
}

void
BlockTrainer::restoreFrom(const Checkpoint &ck)
{
    step_ = static_cast<std::int64_t>(ck.step);
    params = ck.params;
    velocity = ck.optState;
}

void
BlockTrainer::resumeFromCheckpointFile()
{
    const double t0 = health_.clockUs();
    restoreFrom(loadCheckpoint(opts.runtime.checkpoint.path));
    checkpointOnDisk = true;
    health_.checkpointed(false, step_, t0);
}

void
BlockTrainer::resyncTo(int newBits)
{
    PRIMEPAR_ASSERT(newBits >= 0, "resyncTo: negative grid bits");
    ++health_.replans;
    bits_ = newBits;
    strategies = opts.replanner ? opts.replanner(graph, bits_)
                                : defaultBlockPlan(graph, bits_);
    buildExecutor(nullptr);
}

void
BlockTrainer::degradeAndRestore(const DeviceFailedError &err)
{
    ++replansDone;
    ++health_.replans;
    bits_ -= 1;
    health_.recordEvent(
        {FaultKind::DeviceFail,
         "device " + std::to_string(err.device) +
             " lost permanently; re-planning for the surviving 2^" +
             std::to_string(bits_) + " grid",
         err.tensor, err.step, err.sender, err.receiver, 0});
    PRIMEPAR_INFORM("device ", err.device, " failed; degrading to 2^",
                    bits_, " devices and restoring last checkpoint");

    strategies = opts.replanner ? opts.replanner(graph, bits_)
                                : defaultBlockPlan(graph, bits_);
    if (checkpointOnDisk && !opts.runtime.checkpoint.path.empty()) {
        resumeFromCheckpointFile();
        ++health_.checkpointRestores;
    } else {
        // Nothing durable yet: cold-restart from the initial state —
        // seeded, so the trajectory is still reproducible.
        Rng rng(opts.seed | 1);
        params = randomBlockParams(graph, rng);
        velocity.clear();
        step_ = 0;
    }
    buildExecutor(&err);
}

} // namespace primepar
