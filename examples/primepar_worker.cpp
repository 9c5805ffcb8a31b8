/**
 * @file
 * `primepar_worker` — multi-process distributed training.
 *
 * One binary, two roles:
 *
 *   primepar_worker --serve --workers 2 [--steps N] [--devices D] ...
 *       Runs the coordinator: waits for --workers registrations,
 *       places the devices, broadcasts the job, then supervises
 *       liveness (heartbeats + connection closure), driving
 *       generation bumps and re-placement when a worker dies.
 *       Prints `PRIMEPAR_COORD_PORT=<port>` on stdout once listening
 *       (scripts parse this to launch the workers), and the final
 *       per-step losses with %.17g precision when the job ends.
 *
 *   primepar_worker --connect HOST:PORT [--threads T]
 *       Runs one worker: registers its data-plane listener with the
 *       coordinator, receives its id / the world / the job document,
 *       and trains over TcpTransport in SPMD lockstep with its peers,
 *       materializing tensor data only for its owned device ranks
 *       (a `--workers 1` job owns every device and is the
 *       bit-identity reference for multi-worker runs). On a permanent
 *       peer failure it consults the coordinator (suspect RPC),
 *       adopts the re-planned world, and resumes from its checkpoint
 *       on the survivors — down to a plain InProcessTransport when it
 *       is the last one standing.
 *       Connecting into a *degraded* job re-joins it: the coordinator
 *       pauses the survivors at a barrier step, grows the grid back,
 *       and the new worker restores a survivor's checkpoint snapshot
 *       so training resumes on the full grid as if never degraded.
 *       A registration whose re-join barrier would fall at or past the
 *       last step is refused: the worker prints `worker not needed:
 *       <reason>` and exits 0.
 *       A worker that trained ends its stdout with `worker N
 *       transfers T bytes B retries R rollbacks K` (its transport's
 *       delivered transfers and bytes, retried attempts and rolled-back
 *       steps or exchanges) and `worker N peak_rss_kb K`, the process's
 *       own peak resident set.
 *
 * Exit codes follow the runtime taxonomy (runtime/errors.hh):
 *   0 ok   1 internal   2 usage   3 transient fault
 *   4 device lost (replan budget exhausted)   5 checkpoint   6 fenced
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "optimizer/segmented_dp.hh"
#include "runtime/coordinator.hh"
#include "runtime/metrics.hh"
#include "runtime/tcp_transport.hh"
#include "runtime/trainer.hh"
#include "support/bits.hh"
#include "support/json.hh"
#include "support/logging.hh"

using namespace primepar;

namespace {

struct Options
{
    bool serve = false;
    std::string connect; // host:port
    int workers = 2;
    int port = 0;
    int steps = 6;
    int devices = 4;
    int threads = 1;
    std::int64_t batch = 2;
    std::int64_t hidden = 32;
    std::int64_t heads = 4;
    std::int64_t ffn = 64;
    std::int64_t seq = 16;
    double lr = 0.01;
    double momentum = 0.9;
    std::uint64_t seed = 1234;
    std::string faultSpec;
    std::string plan = "heuristic";
    std::string checkpointDir;
    int checkpointEvery = 0;
    int heartbeatMs = 100;
    int missLimit = 5;
    /** Workers resume from their own checkpoint file when present. */
    bool resume = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(exitcode::Usage);
            }
            return argv[++i];
        };
        if (arg == "--serve") {
            opts.serve = true;
        } else if (arg == "--connect") {
            opts.connect = next();
        } else if (arg == "--workers") {
            opts.workers = std::atoi(next());
        } else if (arg == "--port") {
            opts.port = std::atoi(next());
        } else if (arg == "--steps") {
            opts.steps = std::atoi(next());
        } else if (arg == "--devices") {
            opts.devices = std::atoi(next());
        } else if (arg == "--threads") {
            opts.threads = std::atoi(next());
        } else if (arg == "--batch") {
            opts.batch = std::atoll(next());
        } else if (arg == "--hidden") {
            opts.hidden = std::atoll(next());
        } else if (arg == "--heads") {
            opts.heads = std::atoll(next());
        } else if (arg == "--ffn") {
            opts.ffn = std::atoll(next());
        } else if (arg == "--seq") {
            opts.seq = std::atoll(next());
        } else if (arg == "--lr") {
            opts.lr = std::atof(next());
        } else if (arg == "--momentum") {
            opts.momentum = std::atof(next());
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--fault-spec") {
            opts.faultSpec = next();
        } else if (arg == "--plan") {
            opts.plan = next();
        } else if (arg == "--checkpoint-dir") {
            opts.checkpointDir = next();
        } else if (arg == "--checkpoint-every") {
            opts.checkpointEvery = std::atoi(next());
        } else if (arg == "--heartbeat-ms") {
            opts.heartbeatMs = std::atoi(next());
        } else if (arg == "--miss-limit") {
            opts.missLimit = std::atoi(next());
        } else if (arg == "--resume") {
            opts.resume = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: primepar_worker --serve --workers N"
                " [--port P] [--steps N]\n"
                "           [--devices D] [--batch B] [--hidden H]"
                " [--heads A] [--ffn F]\n"
                "           [--seq S] [--lr LR] [--momentum M]"
                " [--seed SEED]\n"
                "           [--fault-spec SPEC] [--plan dp|heuristic]\n"
                "           [--checkpoint-dir DIR]"
                " [--checkpoint-every N]\n"
                "           [--heartbeat-ms MS] [--miss-limit N]\n"
                "           [--resume]\n"
                "   or: primepar_worker --connect HOST:PORT"
                " [--threads T]\n"
                "exit codes: 0 ok, 1 internal, 2 usage, 3 transient"
                " fault,\n"
                "            4 device lost, 5 checkpoint, 6 fenced\n");
            std::exit(exitcode::Ok);
        } else {
            std::fprintf(stderr, "unknown argument %s (try --help)\n",
                         arg.c_str());
            std::exit(exitcode::Usage);
        }
    }
    if (opts.serve == !opts.connect.empty()) {
        std::fprintf(stderr,
                     "exactly one of --serve / --connect required\n");
        std::exit(exitcode::Usage);
    }
    if (opts.serve && !isPowerOfTwo(opts.devices)) {
        std::fprintf(stderr, "--devices must be a power of two\n");
        std::exit(exitcode::Usage);
    }
    if (opts.serve && opts.plan != "dp" && opts.plan != "heuristic") {
        std::fprintf(stderr, "--plan must be dp or heuristic\n");
        std::exit(exitcode::Usage);
    }
    return opts;
}

/** This process's own peak resident set (`VmHWM`, KiB), or -1 when
 *  /proc is unavailable. Unlike wait4's ru_maxrss it does not inherit
 *  the forking parent's high-water mark across exec. */
long
ownPeakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atol(line.c_str() + 6);
    }
    return -1;
}

int
log2i(int v)
{
    int bits = 0;
    while ((1 << bits) < v)
        ++bits;
    return bits;
}

// ---------------------------------------------------------------------------
// Coordinator role

int
runCoordinator(const Options &opts)
{
    CoordinatorOptions copts;
    copts.numWorkers = opts.workers;
    copts.numBits = log2i(opts.devices);
    copts.port = opts.port;
    copts.dist.heartbeatMs = opts.heartbeatMs;
    copts.dist.heartbeatMissLimit = opts.missLimit;
    // Re-join needs durable per-step state to redistribute, so it is
    // enabled exactly when the workers keep checkpoint history.
    copts.allowRejoin =
        opts.checkpointEvery > 0 && !opts.checkpointDir.empty();

    JsonValue job = JsonValue::object();
    job.set("steps", JsonValue(static_cast<std::int64_t>(opts.steps)));
    job.set("batch", JsonValue(opts.batch));
    job.set("hidden", JsonValue(opts.hidden));
    job.set("heads", JsonValue(opts.heads));
    job.set("ffn", JsonValue(opts.ffn));
    job.set("seq", JsonValue(opts.seq));
    job.set("lr", JsonValue(opts.lr));
    job.set("momentum", JsonValue(opts.momentum));
    job.set("seed",
            JsonValue(static_cast<std::int64_t>(opts.seed)));
    job.set("fault_spec", JsonValue(opts.faultSpec));
    job.set("plan", JsonValue(opts.plan));
    job.set("checkpoint_dir", JsonValue(opts.checkpointDir));
    job.set("checkpoint_every",
            JsonValue(static_cast<std::int64_t>(opts.checkpointEvery)));
    job.set("resume",
            JsonValue(static_cast<std::int64_t>(opts.resume)));
    JsonValue dist = JsonValue::object();
    dist.set("heartbeat_ms",
             JsonValue(static_cast<std::int64_t>(opts.heartbeatMs)));
    dist.set("miss_limit",
             JsonValue(static_cast<std::int64_t>(opts.missLimit)));
    job.set("dist", std::move(dist));
    copts.job = std::move(job);

    Coordinator coord(std::move(copts));
    MetricsRegistry registry;
    MetricsObserver metrics(&registry);
    coord.health().addObserver(&metrics);
    coord.start();
    // Scripts parse this line to learn the ephemeral port.
    std::printf("PRIMEPAR_COORD_PORT=%d\n", coord.port());
    std::fflush(stdout);

    const int rc = coord.run();
    for (const auto &[step, loss] : coord.losses())
        std::printf("final step %lld loss %.17g\n",
                    static_cast<long long>(step), loss);
    std::printf("coordinator: generation %llu, %d worker(s) lost, "
                "%d divergence(s)\n",
                static_cast<unsigned long long>(coord.generation()),
                coord.workersLost(), coord.divergences());
    if (coord.divergences() > 0)
        return exitcode::Internal;
    return rc == 0 ? exitcode::Ok : exitcode::Internal;
}

// ---------------------------------------------------------------------------
// Worker role

int
runWorker(const Options &opts)
{
    const std::size_t colon = opts.connect.rfind(':');
    if (colon == std::string::npos) {
        std::fprintf(stderr, "--connect wants HOST:PORT\n");
        return exitcode::Usage;
    }
    const std::string host = opts.connect.substr(0, colon);
    const int port = std::atoi(opts.connect.c_str() + colon + 1);

    DistOptions dopts;
    CoordinatorClient client(dopts);
    client.connect(host, port);

    // The data-plane listener outlives every transport rebuild: the
    // port registered with the coordinator stays valid across
    // re-plans.
    NetListener dataListener;
    dataListener.open(0);

    JsonValue welcome;
    try {
        welcome = client.registerWorker(dataListener.port());
    } catch (const RejoinRefusedError &err) {
        // The job ends before a re-join could take effect: nothing to
        // do, and nothing went wrong.
        std::printf("worker not needed: %s\n", err.what());
        return exitcode::Ok;
    }
    const JsonValue &job = welcome.at("job");
    DistWorld world = DistWorld::fromJson(welcome.at("world"));
    world.myWorker = client.workerId();

    auto jobInt = [&](const char *key, std::int64_t dflt) {
        const JsonValue *v = job.find(key);
        return v ? static_cast<std::int64_t>(v->asNumber()) : dflt;
    };
    auto jobNum = [&](const char *key, double dflt) {
        const JsonValue *v = job.find(key);
        return v ? v->asNumber() : dflt;
    };
    auto jobStr = [&](const char *key) {
        const JsonValue *v = job.find(key);
        return v ? v->asString() : std::string();
    };
    if (const JsonValue *d = job.find("dist")) {
        if (const JsonValue *v = d->find("heartbeat_ms"))
            dopts.heartbeatMs = static_cast<int>(v->asNumber());
        if (const JsonValue *v = d->find("miss_limit"))
            dopts.heartbeatMissLimit = static_cast<int>(v->asNumber());
    }
    client.startHeartbeats(dopts.heartbeatMs);

    const std::int64_t steps = jobInt("steps", 6);

    TrainerOptions topts;
    topts.model.name = "dist";
    topts.model.hiddenSize = jobInt("hidden", 32);
    topts.model.numHeads = jobInt("heads", 4);
    topts.model.ffnSize = jobInt("ffn", 64);
    topts.model.seqLength = jobInt("seq", 16);
    topts.model.numLayers = 1;
    topts.batch = jobInt("batch", 2);
    topts.lr = jobNum("lr", 0.01);
    topts.momentum = jobNum("momentum", 0.9);
    topts.seed = static_cast<std::uint64_t>(jobInt("seed", 1234));
    topts.runtime.numBits = world.numBits;
    topts.runtime.execution.numThreads = opts.threads;
    const std::string faultSpec = jobStr("fault_spec");
    if (!faultSpec.empty())
        topts.runtime.faults = FaultSpec::parse(faultSpec);
    const std::string ckDir = jobStr("checkpoint_dir");
    if (!ckDir.empty()) {
        topts.runtime.checkpoint.path =
            ckDir + "/worker" + std::to_string(client.workerId()) +
            ".ckpt";
        topts.runtime.checkpoint.every =
            static_cast<int>(jobInt("checkpoint_every", 0));
        // Re-join donors serve immutable per-step snapshots.
        topts.runtime.checkpoint.keepHistory = true;
    }
    if (jobStr("plan") == "dp") {
        topts.replanner = [](const CompGraph &g, int bits) {
            DpOptions dp;
            dp.numThreads = 0;
            std::vector<PartitionSeq> plan =
                replanForSurvivors(g, 1 << bits, dp).strategies;
            const auto fallback = defaultBlockPlan(g, bits);
            for (int n = 0; n < g.numNodes(); ++n) {
                const OpSpec &op = g.node(n);
                if (op.normalizedDim >= 0 &&
                    plan[n].sliceCounts(op)[op.normalizedDim] > 1)
                    plan[n] = fallback[n];
            }
            return plan;
        };
    }

    // The transport factory: first build uses the welcomed world; a
    // rebuild after a permanent device failure first asks the
    // coordinator about the failed device's owner (suspect RPC) and
    // adopts whatever world comes back.
    auto worldRef = std::make_shared<DistWorld>(world);
    topts.transportFactory =
        [&client, &dataListener, worldRef, dopts,
         transportOpts = topts.runtime.transport](
            int bits, const DeviceFailedError *cause,
            std::shared_ptr<FaultInjector> injector,
            RuntimeHealth *health) -> std::unique_ptr<Transport> {
        if (cause) {
            const std::int64_t owner =
                worldRef->ownerOf(cause->device);
            DistWorld next = (owner >= 0 &&
                              owner != worldRef->myWorker)
                                 ? client.suspect(owner)
                                 : client.fetchWorld();
            next.myWorker = client.workerId();
            *worldRef = next;
        }
        if (!worldRef->find(worldRef->myWorker))
            throw FencedWorkerError(
                "worker " + std::to_string(worldRef->myWorker) +
                    " is not part of generation " +
                    std::to_string(worldRef->generation) +
                    " — superseded",
                worldRef->generation, worldRef->generation);
        if (worldRef->numBits != bits) {
            // The grid shrank without a worker dying (an in-process
            // device failure, emulated identically in every process):
            // same workers, deterministically re-placed.
            worldRef->numBits = bits;
            DistWorld::placeDevices(worldRef->workers, bits);
        }
        if (worldRef->workers.size() <= 1) {
            PRIMEPAR_INFORM("worker ", worldRef->myWorker,
                            ": sole survivor; continuing in-process");
            return std::make_unique<InProcessTransport>(
                transportOpts, injector, health);
        }
        return std::make_unique<TcpTransport>(transportOpts, dopts,
                                              *worldRef,
                                              &dataListener, injector,
                                              health);
    };

    std::printf("worker %lld: %lld devices on %zu workers, %lld"
                " steps\n",
                static_cast<long long>(client.workerId()),
                1ll << world.numBits, world.workers.size(),
                static_cast<long long>(steps));

    BlockTrainer trainer(topts);

    // A re-join welcome carries the resume barrier and the donor
    // whose step-R checkpoint snapshot holds the state to adopt;
    // --resume makes a worker reload its own last checkpoint instead.
    const JsonValue *resumeStep = welcome.find("resume_step");
    if (resumeStep && resumeStep->asNumber() >= 0 && !ckDir.empty()) {
        const std::int64_t rstep =
            static_cast<std::int64_t>(resumeStep->asNumber());
        const std::int64_t donor = static_cast<std::int64_t>(
            welcome.at("restore_from").asNumber());
        const std::string src = ckDir + "/worker" +
                                std::to_string(donor) + ".ckpt.s" +
                                std::to_string(rstep);
        trainer.restoreFrom(loadCheckpoint(src));
        std::printf("worker %lld re-joining at step %lld (restored"
                    " from %s)\n",
                    static_cast<long long>(client.workerId()),
                    static_cast<long long>(rstep), src.c_str());
        std::fflush(stdout);
    } else if (jobInt("resume", 0) != 0 &&
               !topts.runtime.checkpoint.path.empty()) {
        std::ifstream probe(topts.runtime.checkpoint.path,
                            std::ios::binary);
        if (probe.good())
            trainer.resumeFromCheckpointFile();
    }

    double lastLoss = 0.0;
    while (trainer.step() < steps) {
        StepStats stats;
        try {
            stats = trainer.trainStep();
        } catch (const FencedWorkerError &) {
            // A worker may exchange nothing with the peer that died,
            // so the first sign of a degrade is a newer-generation
            // frame from a survivor. Adopt the new world and roll back
            // to the shared checkpoint — lockstep guarantees every
            // survivor's latest checkpoint is at the same step, so the
            // replay stays deterministic.
            if (topts.runtime.checkpoint.path.empty())
                throw;
            DistWorld next = client.fetchWorld();
            next.myWorker = client.workerId();
            if (next.generation <= worldRef->generation ||
                !next.find(next.myWorker))
                throw;
            *worldRef = next;
            trainer.resyncTo(next.numBits);
            trainer.resumeFromCheckpointFile();
            std::printf("worker %lld fence-adopted generation %llu"
                        " (2^%d devices)\n",
                        static_cast<long long>(client.workerId()),
                        static_cast<unsigned long long>(
                            next.generation),
                        trainer.deviceBits());
            std::fflush(stdout);
            continue;
        }
        lastLoss = stats.loss;
        const StepAck ack = client.reportStep(stats.step, stats.loss);
        std::printf("worker %lld step %lld loss %.17g (2^%d"
                    " devices)\n",
                    static_cast<long long>(client.workerId()),
                    static_cast<long long>(stats.step), stats.loss,
                    trainer.deviceBits());
        std::fflush(stdout);
        if (ack.pauseAt >= 0 && trainer.step() >= ack.pauseAt &&
            !ckDir.empty()) {
            // A rejoiner is waiting: checkpoint at exactly this step,
            // park at the barrier, and adopt the restored world.
            trainer.saveCheckpointNow();
            const std::uint64_t genBefore = client.generation();
            DistWorld next = client.resync(trainer.step());
            if (next.generation != genBefore) {
                *worldRef = next;
                trainer.resyncTo(next.numBits);
                std::printf("worker %lld resynced to generation %llu"
                            " (2^%d devices)\n",
                            static_cast<long long>(client.workerId()),
                            static_cast<unsigned long long>(
                                next.generation),
                            trainer.deviceBits());
                std::fflush(stdout);
            }
        }
    }
    client.done(trainer.step(), lastLoss);
    client.stopHeartbeats();
    std::printf("worker %lld done\n",
                static_cast<long long>(client.workerId()));
    const RuntimeHealth &health = trainer.health();
    std::printf("worker %lld transfers %lld bytes %lld retries %lld"
                " rollbacks %lld\n",
                static_cast<long long>(client.workerId()),
                static_cast<long long>(health.transfers),
                static_cast<long long>(health.bytesMoved),
                static_cast<long long>(health.retries),
                static_cast<long long>(health.stepRollbacks));
    std::printf("worker %lld peak_rss_kb %ld\n",
                static_cast<long long>(client.workerId()),
                ownPeakRssKb());
    return exitcode::Ok;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    try {
        return opts.serve ? runCoordinator(opts) : runWorker(opts);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "primepar_worker: %s\n", err.what());
        return exitcode::forCurrentException();
    }
}
