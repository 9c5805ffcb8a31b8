/**
 * @file
 * The training workloads.
 *
 * train_block: in-process BlockTrainer on 16 emulated devices with the
 * default heuristic plan (PSquare on the linears, so ring shifts run),
 * one executor thread (kTimedThreads), overlap on, the default
 * fault-tolerant InProcessTransport, no faults, no checkpoints.
 * Compute dominates.
 *
 * train_tcp: the public Coordinator runs in the benchmark process and
 * drives four worker processes (this binary, re-executed in worker
 * mode) with one executor thread each over TcpTransport on loopback;
 * the job is sharded over 16 devices, checkpoints every 15 steps and
 * runs a seeded fault mix: retryable drop/corrupt rates plus scheduled
 * faults that exhaust the retry budget on the checkpoint steps, so step
 * rollbacks run a known number of times. Transport, net, coordinator,
 * checkpoint and rollback dominate.
 *
 * A run is a fixed number of jobs, each a fresh trainer (its
 * construction is the set-up time) running a fixed number of steps.
 * Losses are checked bit for bit: train_block against references
 * stored from runs on all host threads, train_tcp against an
 * in-process run of the same config and seed. Exact counts (transfers,
 * bytes, retries, rollbacks) must repeat from job to job and match the
 * stored ones.
 */

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "comm/redistribution.hh"
#include "graph/transformer.hh"
#include "runtime/coordinator.hh"
#include "runtime/tcp_transport.hh"
#include "runtime/trainer.hh"
#include "sim/model_sim.hh"
#include "tensor/buffer_pool.hh"

namespace perfbench {

using namespace primepar;

namespace {

/** One training workload's fixed configuration. */
struct TrainSpec
{
    const char *name;
    ModelConfig model;
    std::int64_t batch;
    int bits;
    /**
     * The trainers' default lr (1e-2) diverges at the train_block
     * size: the loss went NaN by step 6, and by step 16 at 1e-3. At
     * 1e-4 RuntimeHealth reports no anomaly over a whole job, so the
     * program measured is the healthy one, not the guard's recovery
     * path.
     */
    double lr;
    int stepsPerJob;
    /** Nominal wall time of one job on a 4-core host: a run of
     *  --seconds makes seconds / nominalJobS jobs. */
    double nominalJobS;
    std::string faults;
    int checkpointEvery;
};

ModelConfig
benchModel(const char *name, std::int64_t hidden, std::int64_t ffn,
           std::int64_t seq)
{
    ModelConfig m;
    m.name = name;
    m.hiddenSize = hidden;
    m.numHeads = 8;
    m.ffnSize = ffn;
    m.seqLength = seq;
    m.numLayers = 1;
    return m;
}

const TrainSpec &
blockSpec()
{
    static const TrainSpec spec{"train_block",
                                benchModel("bench-block", 256, 1024, 128),
                                8,
                                4,
                                1e-4,
                                10,
                                6.0,
                                "",
                                0};
    return spec;
}

const TrainSpec &
tcpSpec()
{
    // Retryable drop/corrupt plus two faults that exhaust the 4-attempt
    // retry budget on a fixed step and device. They hit the checkpoint
    // steps, so a job has two slow steps, not four: with fewer than ten
    // per run, the tail percentile falls among ordinary steps instead of
    // on the edge between two kinds of slow step.
    static const TrainSpec spec{
        "train_tcp",
        benchModel("bench-tcp", 128, 512, 64),
        8,
        4,
        1e-4,
        30,
        4.6,
        "drop=0.01,corrupt=0.005,corrupt@step=14:dev=5:fires=4,"
        "corrupt@step=29:dev=10:fires=4",
        15};
    return spec;
}

constexpr int kTrainerBuilds = 5;

/** Stored references cover this many data seeds; --seed picks one. */
constexpr std::uint64_t kDataSeeds = 8;

std::uint64_t
dataSeed(std::uint64_t seed)
{
    return 1 + seed % kDataSeeds;
}

TrainerOptions
trainerOptions(const TrainSpec &spec, std::uint64_t seed, int threads)
{
    TrainerOptions t;
    t.model = spec.model;
    t.batch = spec.batch;
    t.lr = spec.lr;
    t.momentum = 0.9;
    t.seed = seed;
    t.runtime.numBits = spec.bits;
    t.runtime.execution.numThreads = threads;
    return t;
}

/** Analytic FLOPs of one training step (all passes of every node). */
double
stepFlops(const TrainSpec &spec)
{
    const CompGraph graph = buildTransformerBlock(spec.model, spec.batch);
    double flops = 0.0;
    for (int n = 0; n < graph.numNodes(); ++n)
        for (const PassSpec &pass : graph.node(n).passes)
            flops += graph.node(n).passFlops(pass);
    return flops;
}

/**
 * Bytes the cost model charges per step for moving tensors across op
 * boundaries (Eqs. 8-9): planRedistribution over every edge of the
 * training plan, forward and backward, at 4 bytes per element — the
 * same layouts ModelSimulator prices.
 */
double
redistModelBytes(const TrainSpec &spec)
{
    const CompGraph graph = buildTransformerBlock(spec.model, spec.batch);
    const std::vector<PartitionSeq> plan =
        defaultBlockPlan(graph, spec.bits);
    const ClusterTopology topo = ClusterTopology::paperCluster(1 << spec.bits);
    const ModelSimulator sim(topo, graph, plan);
    double elements = 0.0;
    for (const GraphEdge &e : graph.edges()) {
        const OpSpec &producer = graph.node(e.src);
        const OpSpec &consumer = graph.node(e.dst);
        const DsiTable &pdsi = sim.plan(e.src).dsi;
        const DsiTable &cdsi = sim.plan(e.dst).dsi;
        const auto sizes = graph.transferSizes(e);
        EdgeDimMap producer_map(sizes.size(), -1);
        for (std::size_t i = 0; i < e.dimMap.size(); ++i)
            producer_map[i] = e.dimMap[i];
        EdgeDimMap consumer_map;
        for (int d : consumer.tensors[e.dstTensor].dims)
            consumer_map.push_back(d);
        const TensorLayout fwd_have = layoutOf(
            producer, pdsi, {producer.outputTensor, false}, Phase::Forward,
            pdsi.steps() - 1, producer_map, sizes);
        const TensorLayout fwd_need =
            layoutOf(consumer, cdsi, {e.dstTensor, false}, Phase::Forward, 0,
                     consumer_map, sizes);
        const TensorLayout bwd_have = layoutOf(
            consumer, cdsi, {e.dstTensor, true}, Phase::Backward,
            cdsi.steps() - 1, consumer_map, sizes);
        const TensorLayout bwd_need = layoutOf(
            producer, pdsi, {producer.outputTensor, true}, Phase::Backward,
            0, producer_map, sizes);
        elements += static_cast<double>(
            planRedistribution(fwd_have, fwd_need, &topo).totalElements +
            planRedistribution(bwd_have, bwd_need, &topo).totalElements);
    }
    return elements * 4.0;
}

/** What one job produced. */
struct JobResult
{
    /** Set-up seconds and step milliseconds, scaled to host speed and
     *  raw. */
    RunTimes scaled, raw;
    double probeSumS = 0.0;
    double probes = 0.0;
    std::vector<double> losses;
    /** Steps with a NaN/Inf/explosion finding. */
    std::vector<bool> anomalous;
    /** Exact counts that must repeat: transfers, bytes, retries,
     *  rollbacks. */
    JsonValue counts = JsonValue::object();
    double poolHits = 0.0;
    double poolAcquires = 0.0;
    double poolRetainedMb = 0.0;
    double peakRssMb = 0.0;
    ProbeTotals probe;
    // train_tcp only.
    double registerMs = 0.0;
    double reportMs = 0.0;
    double cpuS = 0.0;
    double wallS = 0.0;
};

JsonValue
healthCounts(const RuntimeHealth &h)
{
    JsonValue c = JsonValue::object();
    c.set("transfers", JsonValue(h.transfers));
    c.set("bytes", JsonValue(h.bytesMoved));
    c.set("retries", JsonValue(h.retries));
    c.set("rollbacks", JsonValue(h.stepRollbacks));
    return c;
}

JsonValue
addCounts(const JsonValue &a, const JsonValue &b)
{
    JsonValue c = JsonValue::object();
    for (const auto &[k, v] : b.members()) {
        const JsonValue *x = a.find(k);
        c.set(k, JsonValue(static_cast<std::int64_t>(
                     (x ? x->asNumber() : 0.0) + v.asNumber())));
    }
    return c;
}

JsonValue
lossesJson(const std::vector<double> &losses)
{
    JsonValue a = JsonValue::array();
    for (double l : losses)
        a.push(JsonValue(exactDouble(l)));
    return a;
}

/** Per-channel transfers and bytes of a traced job (exact). */
JsonValue
channelCounts(const ProbeTotals &t)
{
    JsonValue transfers = JsonValue::object(), bytes = JsonValue::object();
    for (const auto &[ch, n] : t.transfers)
        transfers.set(ch, JsonValue(static_cast<std::int64_t>(n)));
    for (const auto &[ch, n] : t.bytes)
        bytes.set(ch, JsonValue(static_cast<std::int64_t>(n)));
    JsonValue c = JsonValue::object();
    c.set("transfers", std::move(transfers));
    c.set("bytes", std::move(bytes));
    return c;
}

/** Run one in-process job of @p steps steps. */
JobResult
blockJob(const TrainSpec &spec, std::uint64_t seed, int threads, int steps,
         bool traced)
{
    JobResult r;
    HostSpeed speed;
    std::vector<std::size_t> setupOps, stepOps;
    // Construction takes milliseconds; its median over several builds
    // is the set-up time.
    std::unique_ptr<BlockTrainer> built;
    for (int i = 0; i < kTrainerBuilds; ++i) {
        built.reset();
        speed.probe();
        const double t0 = nowS();
        built = std::make_unique<BlockTrainer>(
            trainerOptions(spec, seed, threads));
        setupOps.push_back(speed.add(nowS() - t0));
    }
    BlockTrainer &trainer = *built;
    SpanProbe probe;
    if (traced)
        trainer.addObserver(&probe);
    BufferPool::global().resetStats();
    for (int k = 0; k < steps; ++k) {
        const std::int64_t before = trainer.health().anomalies.total();
        speed.probe();
        const double s0 = nowS();
        const StepStats st = trainer.trainStep();
        stepOps.push_back(speed.add(nowS() - s0));
        r.losses.push_back(st.loss);
        r.anomalous.push_back(trainer.health().anomalies.total() != before);
    }
    speed.probe();
    for (std::size_t op : setupOps) {
        r.scaled.setupS.push_back(speed.scaledS(op));
        r.raw.setupS.push_back(speed.rawS(op));
    }
    for (std::size_t op : stepOps) {
        r.scaled.opMs.push_back(speed.scaledS(op) * 1e3);
        r.raw.opMs.push_back(speed.rawS(op) * 1e3);
    }
    r.probeSumS = speed.meanProbeS() * static_cast<double>(speed.probes());
    r.probes = static_cast<double>(speed.probes());
    r.counts = healthCounts(trainer.health());
    const BufferPoolStats ps = BufferPool::global().stats();
    r.poolHits = static_cast<double>(ps.poolHits);
    r.poolAcquires = static_cast<double>(ps.acquires);
    r.poolRetainedMb = static_cast<double>(ps.bytesRetained) / (1 << 20);
    if (traced)
        r.probe = probe.totals();
    return r;
}

std::string
selfExe()
{
    return std::filesystem::read_symlink("/proc/self/exe").string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Run one distributed job: coordinator here, four worker processes. */
JobResult
tcpJob(const TrainSpec &spec, std::uint64_t seed, const std::string &dir,
       bool traced, std::map<std::int64_t, double> &losses)
{
    constexpr int kWorkers = 4;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    CoordinatorOptions copts;
    copts.numWorkers = kWorkers;
    copts.numBits = spec.bits;
    JsonValue job = JsonValue::object();
    job.set("steps", JsonValue(spec.stepsPerJob));
    job.set("batch", JsonValue(spec.batch));
    job.set("hidden", JsonValue(spec.model.hiddenSize));
    job.set("heads", JsonValue(spec.model.numHeads));
    job.set("ffn", JsonValue(spec.model.ffnSize));
    job.set("seq", JsonValue(spec.model.seqLength));
    job.set("lr", JsonValue(spec.lr));
    job.set("momentum", JsonValue(0.9));
    job.set("seed", JsonValue(static_cast<std::int64_t>(seed)));
    job.set("fault_spec",
            JsonValue(spec.faults + ",seed=" + std::to_string(seed)));
    job.set("checkpoint_dir", JsonValue(dir));
    job.set("checkpoint_every", JsonValue(spec.checkpointEvery));
    job.set("trace", JsonValue(traced ? 1 : 0));
    copts.job = std::move(job);

    Coordinator coord(std::move(copts));
    coord.start();
    const std::string exe = selfExe();
    const std::string connect = "127.0.0.1:" + std::to_string(coord.port());
    std::vector<std::string> results;
    std::vector<pid_t> pids;
    HostSpeed speed;
    speed.probe();
    const double tFork = nowS();
    for (int w = 0; w < kWorkers; ++w) {
        results.push_back(dir + "/result" + std::to_string(w) + ".json");
        std::vector<std::string> argv_s = {exe, "--tcp-worker", connect,
                                           "--result", results.back()};
        std::vector<char *> argv;
        for (std::string &s : argv_s)
            argv.push_back(s.data());
        argv.push_back(nullptr);
        const pid_t pid = fork();
        if (pid < 0)
            throw std::runtime_error("fork failed");
        if (pid == 0) {
            // Die with the benchmark: no worker outlives a failed run.
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            // Worker logs go to stderr: stdout carries the result.
            dup2(STDERR_FILENO, STDOUT_FILENO);
            execv(argv[0], argv.data());
            _exit(127);
        }
        pids.push_back(pid);
    }
    const int rc = coord.run();
    bool workersOk = true;
    for (pid_t pid : pids) {
        int status = 0;
        waitpid(pid, &status, 0);
        workersOk = workersOk && WIFEXITED(status) &&
                    WEXITSTATUS(status) == 0;
    }
    if (rc != 0 || !workersOk || coord.divergences() != 0 ||
        coord.workersLost() != 0)
        throw std::runtime_error(
            "train_tcp job failed (coordinator rc " + std::to_string(rc) +
            ", divergences " + std::to_string(coord.divergences()) +
            ", workers lost " + std::to_string(coord.workersLost()) + ")");
    losses = coord.losses();

    JobResult r;
    r.raw.opMs.assign(spec.stepsPerJob, 0.0);
    r.anomalous.assign(spec.stepsPerJob, false);
    // Workers step in lockstep: a step takes as long as the slowest
    // worker's, at the host speed all four probed around it.
    std::vector<double> stepProbeMs(spec.stepsPerJob, 0.0);
    double ready = tFork, cpu = 0.0, wall = 0.0;
    std::vector<double> reg;
    for (const std::string &path : results) {
        const JsonValue w = parseJson(readFile(path));
        ready = std::max(ready, w.at("t_ready").asNumber());
        reg.push_back(w.at("register_ms").asNumber());
        const auto &steps = w.at("step_ms").items();
        const auto &probes = w.at("step_probe_ms").items();
        const auto &anom = w.at("anomalous").items();
        for (int k = 0; k < spec.stepsPerJob; ++k) {
            r.raw.opMs[k] = std::max(r.raw.opMs[k], steps.at(k).asNumber());
            stepProbeMs[k] += probes.at(k).asNumber() / kWorkers;
            r.anomalous[k] = r.anomalous[k] || anom.at(k).asBool();
        }
        r.counts = addCounts(r.counts, w.at("counts"));
        r.poolHits += w.at("pool_hits").asNumber();
        r.poolAcquires += w.at("pool_acquires").asNumber();
        r.poolRetainedMb =
            std::max(r.poolRetainedMb, w.at("pool_retained_mb").asNumber());
        r.peakRssMb = std::max(r.peakRssMb, w.at("peak_rss_mb").asNumber());
        r.reportMs += w.at("report_ms").asNumber() / kWorkers;
        cpu += w.at("cpu_s").asNumber();
        r.probeSumS += w.at("probe_sum_s").asNumber();
        r.probes += w.at("probes").asNumber();
        wall += w.at("wall_s").asNumber();
        if (traced)
            r.probe.add(ProbeTotals::fromJson(w.at("probe")));
    }
    // Workers run in lockstep: per-step quantities were summed over
    // the four; a step is one step.
    r.probe.steps /= kWorkers;
    // The first step dials every peer (TcpTransport connects lazily):
    // connection set-up, not the cost of a training step. Its loss is
    // still checked.
    for (int k = 1; k < spec.stepsPerJob; ++k)
        r.scaled.opMs.push_back(r.raw.opMs[k] * kProbeNominalS * 1e3 /
                                stepProbeMs[k]);
    r.raw.opMs.erase(r.raw.opMs.begin());
    const std::size_t setupOp = speed.add(ready - tFork);
    speed.probe();
    r.raw.setupS = {speed.rawS(setupOp)};
    r.scaled.setupS = {speed.scaledS(setupOp)};
    r.registerMs = median(reg);
    r.cpuS = cpu;
    r.wallS = wall;
    std::filesystem::remove_all(dir);
    return r;
}

/** Operations per second of operation time. */
double
opsPerS(const std::vector<double> &ms)
{
    double total = 0.0;
    for (double m : ms)
        total += m;
    return total > 0.0 ? static_cast<double>(ms.size()) / (total / 1e3)
                       : 0.0;
}

void
append(std::vector<double> &to, const std::vector<double> &from)
{
    to.insert(to.end(), from.begin(), from.end());
}

/** Shared bookkeeping of both training workloads. */
struct TrainRun
{
    /** Every job's set-up and steps; a job is a group. */
    RunTimes scaled, raw;
    /** Scaled step times of traced and untraced jobs. */
    std::vector<double> tracedMs, untracedMs;
    std::vector<double> jobP50;
    double probeSumS = 0.0, probes = 0.0;
    ProbeTotals probe;
    double poolHits = 0.0, poolAcquires = 0.0, poolRetainedMb = 0.0;
    double peakRssMb = 0.0;
    /** Exact counts of the first job (channels: first traced job). */
    JsonValue firstCounts, firstChannels;
    std::vector<double> registerMs, reportMs;
    double cpuS = 0.0, wallS = 0.0;

    void
    add(const JobResult &r, bool traced, Outcome &out, const char *what)
    {
        for (auto [to, from] : {std::pair{&scaled, &r.scaled},
                                std::pair{&raw, &r.raw}}) {
            append(to->setupS, from->setupS);
            append(to->opMs, from->opMs);
            to->groupOps.push_back(opsPerS(from->opMs));
        }
        jobP50.push_back(median(r.scaled.opMs));
        append(traced ? tracedMs : untracedMs, r.scaled.opMs);
        probeSumS += r.probeSumS;
        probes += r.probes;
        if (traced)
            probe.add(r.probe);
        poolHits += r.poolHits;
        poolAcquires += r.poolAcquires;
        poolRetainedMb = std::max(poolRetainedMb, r.poolRetainedMb);
        peakRssMb = std::max(peakRssMb, r.peakRssMb);
        registerMs.push_back(r.registerMs);
        reportMs.push_back(r.reportMs);
        cpuS += r.cpuS;
        wallS += r.wallS;
        out.attempted += static_cast<std::int64_t>(r.anomalous.size());
        repeats(firstCounts, r.counts, out, what);
        if (traced)
            repeats(firstChannels, channelCounts(r.probe), out, what);
    }

    /** Exact counts must repeat from job to job. */
    static void
    repeats(JsonValue &first, const JsonValue &got, Outcome &out,
            const char *what)
    {
        if (first.isNull())
            first = got;
        else if (first.toString(0) != got.toString(0))
            out.mismatch(std::string(what) +
                         " exact counts differ between jobs: " +
                         got.toString(0) + " vs " + first.toString(0));
    }
};

/** A step fails when its loss is not the expected one bit for bit or
 *  the guard found a NaN/Inf/explosion in it. */
void
checkStep(Outcome &out, const char *what, std::size_t step, bool loss_ok,
          bool anomalous)
{
    if (loss_ok && !anomalous)
        return;
    ++out.failed;
    out.mismatch(std::string(what) + " step " + std::to_string(step) +
                 (loss_ok ? " reported a numeric anomaly"
                          : " loss differs from the expected one"));
}

/** Metrics and record shared by both training workloads. */
void
finishTrain(const TrainSpec &spec, const Args &args, const JsonValue &want,
            TrainRun &run, int jobs, Outcome &out)
{
    // The stored counts come from runs on all host threads: across runs
    // and thread counts they must agree.
    auto stored = [&](const JsonValue &got, const char *key) {
        if (got.toString(0) != want.at(key).toString(0))
            out.mismatch(std::string(spec.name) + " " + key + " " +
                         got.toString(0) + " differ from the stored " +
                         want.at(key).toString(0));
    };
    stored(run.firstCounts, "counts");
    if (args.trace)
        stored(run.firstChannels, "channels");
    // A count mismatch fails the run even when every loss matched.
    if (!out.mismatches.empty() && out.failed == 0)
        out.failed = 1;
    timeMetrics(out, run.scaled, run.raw, run.probeSumS / run.probes);
    const double tokens =
        static_cast<double>(spec.batch * spec.model.seqLength);
    out.record.set("op", JsonValue("training step"));
    out.record.set("tokens_per_s",
                   JsonValue(out.metrics.at("ops_per_s") * tokens));
    out.record.set("jobs",
                   JsonValue(static_cast<std::int64_t>(run.jobP50.size())));
    out.record.set("jobs_planned", JsonValue(jobs));
    JsonValue perJob = JsonValue::array();
    for (double ms : run.jobP50)
        perJob.push(JsonValue(ms));
    out.record.set("job_p50_ms", std::move(perJob));
    out.record.set("data_seed",
                   JsonValue(static_cast<std::int64_t>(dataSeed(args.seed))));
    out.record.set("exact_counts_per_job", run.firstCounts);
    if (args.trace)
        out.record.set("exact_channel_counts_per_job", run.firstChannels);

    if (args.trace) {
        probeMetrics(run.probe, stepFlops(spec), out);
        out.metrics["transport.retries"] =
            run.firstCounts.at("retries").asNumber();
        out.metrics["transport.rollbacks"] =
            run.firstCounts.at("rollbacks").asNumber();
        out.metrics["comm.redist_model_bytes"] = redistModelBytes(spec);
        out.metrics["tensor.pool_hit_pct"] =
            run.poolAcquires > 0.0 ? 100.0 * run.poolHits / run.poolAcquires
                                   : 0.0;
        out.metrics["tensor.pool_retained_mb"] = run.poolRetainedMb;
        const double untraced = opsPerS(run.untracedMs);
        out.metrics["trace.overhead_pct"] =
            untraced > 0.0
                ? 100.0 * (untraced - opsPerS(run.tracedMs)) / untraced
                : 0.0;
    }
}

/** Jobs a run of @p seconds makes: the same number on every host, so
 *  the tail percentile falls at the same place. Traced runs alternate
 *  untraced and traced jobs, so they need at least two. */
int
jobCount(const TrainSpec &spec, const Args &args)
{
    const int n = std::max(
        1, static_cast<int>(std::lround(args.seconds / spec.nominalJobS)));
    return args.trace ? std::max(n, 2) : n;
}

/**
 * Whether job @p j of @p jobs starts. On a host whose CPUs are being
 * stolen, jobs ran up to three times their nominal time (train_tcp
 * worst); a run stops starting jobs once it has taken twice --seconds,
 * so it still ends well within its time limit.
 */
bool
startJob(int j, int jobs, double start, const Args &args)
{
    if (j >= jobs)
        return false;
    if (j < (args.trace ? 2 : 1))
        return true;
    return nowS() - start < 2.0 * args.seconds;
}

const JsonValue &
referenceFor(const JsonValue &ref, std::uint64_t seed)
{
    return ref.at(std::to_string(dataSeed(seed)));
}

} // namespace

void
runTrainBlock(const Args &args, const JsonValue &ref, Outcome &out)
{
    const TrainSpec &spec = blockSpec();
    const std::uint64_t seed = dataSeed(args.seed);
    const JsonValue &want = referenceFor(ref, args.seed);
    const int jobs = jobCount(spec, args);
    // Two untimed steps first fill the process-wide BufferPool, which a
    // long training run fills once; without them the first job ran up
    // to a third slower than the rest.
    blockJob(spec, seed, kTimedThreads, 2, false);
    TrainRun run;
    const double start = nowS();
    for (int j = 0; startJob(j, jobs, start, args); ++j) {
        const bool traced = args.trace && j % 2 == 1;
        const JobResult r =
            blockJob(spec, seed, kTimedThreads, spec.stepsPerJob, traced);
        run.add(r, traced, out, "train_block");
        const auto &ref_losses = want.at("losses").items();
        for (std::size_t k = 0; k < r.losses.size(); ++k) {
            const bool lossOk =
                k < ref_losses.size() &&
                ref_losses[k].asString() == exactDouble(r.losses[k]);
            checkStep(out, "train_block", k, lossOk, r.anomalous[k]);
        }
    }
    run.peakRssMb = peakRssMb();
    finishTrain(spec, args, want, run, jobs, out);
    finishOutcome(out, run.peakRssMb);
}

void
runTrainTcp(const Args &args, const JsonValue &ref, Outcome &out)
{
    const TrainSpec &spec = tcpSpec();
    const std::uint64_t seed = dataSeed(args.seed);
    const JsonValue &want = referenceFor(ref, args.seed);

    // The in-process run of the same config and seed, without faults:
    // every TCP step must reproduce its loss.
    std::vector<double> inproc =
        blockJob(spec, seed, kTimedThreads, spec.stepsPerJob, false)
            .losses;

    const int jobs = jobCount(spec, args);
    TrainRun run;
    const double start = nowS();
    for (int j = 0; startJob(j, jobs, start, args); ++j) {
        const bool traced = args.trace && j % 2 == 1;
        std::map<std::int64_t, double> losses;
        const JobResult r =
            tcpJob(spec, seed, args.workdir + "/tcp_job", traced, losses);
        run.add(r, traced, out, "train_tcp");
        for (std::size_t k = 0; k < inproc.size(); ++k) {
            const auto it = losses.find(static_cast<std::int64_t>(k));
            const bool lossOk = it != losses.end() &&
                                exactDouble(it->second) ==
                                    exactDouble(inproc[k]);
            checkStep(out, "train_tcp", k, lossOk, r.anomalous[k]);
        }
    }
    finishTrain(spec, args, want, run, jobs, out);
    finishOutcome(out, run.peakRssMb);
    if (args.trace) {
        out.metrics["coordinator.register_ms"] = median(run.registerMs);
        out.metrics["coordinator.report_step_ms"] =
            median(run.reportMs) / spec.stepsPerJob;
        out.metrics["net.worker_cpu_pct"] =
            run.wallS > 0.0 ? 100.0 * run.cpuS / run.wallS : 0.0;
    }
}

int
tcpWorkerMain(const std::string &connect, const std::string &result)
{
    const double tStart = nowS();
    const std::size_t colon = connect.rfind(':');
    if (colon == std::string::npos)
        throw std::runtime_error("--tcp-worker wants HOST:PORT");
    DistOptions dopts;
    CoordinatorClient client(dopts);
    client.connect(connect.substr(0, colon),
                   std::atoi(connect.c_str() + colon + 1));
    NetListener dataListener;
    dataListener.open(0);
    const double tReg = nowS();
    const JsonValue welcome = client.registerWorker(dataListener.port());
    const double registerMs = (nowS() - tReg) * 1e3;
    const JsonValue &job = welcome.at("job");
    DistWorld world = DistWorld::fromJson(welcome.at("world"));
    world.myWorker = client.workerId();
    client.startHeartbeats(dopts.heartbeatMs);

    auto num = [&](const char *key) { return job.at(key).asNumber(); };
    TrainerOptions topts;
    topts.model = benchModel("bench-tcp",
                             static_cast<std::int64_t>(num("hidden")),
                             static_cast<std::int64_t>(num("ffn")),
                             static_cast<std::int64_t>(num("seq")));
    topts.model.numHeads = static_cast<std::int64_t>(num("heads"));
    topts.batch = static_cast<std::int64_t>(num("batch"));
    topts.lr = num("lr");
    topts.momentum = num("momentum");
    topts.seed = static_cast<std::uint64_t>(num("seed"));
    topts.runtime.numBits = world.numBits;
    topts.runtime.execution.numThreads = 1;
    topts.runtime.faults = FaultSpec::parse(job.at("fault_spec").asString());
    const std::string ckDir = job.at("checkpoint_dir").asString();
    topts.runtime.checkpoint.path =
        ckDir + "/worker" + std::to_string(client.workerId()) + ".ckpt";
    topts.runtime.checkpoint.every = static_cast<int>(num("checkpoint_every"));
    topts.runtime.checkpoint.keepHistory = true;
    topts.transportFactory =
        [&dataListener, world, dopts,
         transportOpts = topts.runtime.transport](
            int, const DeviceFailedError *cause,
            std::shared_ptr<FaultInjector> injector,
            RuntimeHealth *health) -> std::unique_ptr<Transport> {
        if (cause)
            throw std::runtime_error(
                "device failure in a job that injects none");
        return std::make_unique<TcpTransport>(transportOpts, dopts, world,
                                              &dataListener, injector,
                                              health);
    };
    BlockTrainer trainer(topts);
    const double tReady = nowS();

    const WorkerInfo *me = world.find(world.myWorker);
    SpanProbe probe(DeviceSpan{me->firstDevice, me->numDevices});
    const bool traced = num("trace") != 0.0;
    if (traced)
        trainer.addObserver(&probe);
    BufferPool::global().resetStats();

    const auto steps = static_cast<std::int64_t>(num("steps"));
    JsonValue anomalous = JsonValue::array();
    double reportS = 0.0, lastLoss = 0.0;
    HostSpeed speed;
    std::vector<std::size_t> stepOps;
    while (trainer.step() < steps) {
        const std::int64_t before = trainer.health().anomalies.total();
        speed.probe();
        const double t0 = nowS();
        const StepStats st = trainer.trainStep();
        const double t1 = nowS();
        client.reportStep(st.step, st.loss);
        const double t2 = nowS();
        reportS += t2 - t1;
        lastLoss = st.loss;
        stepOps.push_back(speed.add(t2 - t0));
        anomalous.push(
            JsonValue(trainer.health().anomalies.total() != before));
    }
    speed.probe();
    JsonValue stepMs = JsonValue::array(), probeMs = JsonValue::array();
    for (std::size_t op : stepOps) {
        stepMs.push(JsonValue(speed.rawS(op) * 1e3));
        probeMs.push(JsonValue(speed.aroundS(op) * 1e3));
    }
    client.done(trainer.step(), lastLoss);
    client.stopHeartbeats();

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const BufferPoolStats ps = BufferPool::global().stats();
    JsonValue o = JsonValue::object();
    o.set("t_ready", JsonValue(tReady));
    o.set("register_ms", JsonValue(registerMs));
    o.set("step_ms", std::move(stepMs));
    o.set("step_probe_ms", std::move(probeMs));
    o.set("anomalous", std::move(anomalous));
    o.set("report_ms", JsonValue(reportS * 1e3));
    o.set("counts", healthCounts(trainer.health()));
    o.set("pool_hits", JsonValue(ps.poolHits));
    o.set("pool_acquires", JsonValue(ps.acquires));
    o.set("pool_retained_mb",
          JsonValue(static_cast<double>(ps.bytesRetained) / (1 << 20)));
    o.set("peak_rss_mb", JsonValue(static_cast<double>(ru.ru_maxrss) / 1024));
    o.set("cpu_s", JsonValue(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
                             (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                                 1e6));
    o.set("wall_s", JsonValue(nowS() - tStart));
    o.set("probe_sum_s", JsonValue(speed.meanProbeS() *
                                   static_cast<double>(speed.probes())));
    o.set("probes", JsonValue(static_cast<std::int64_t>(speed.probes())));
    if (traced)
        o.set("probe", probe.totals().toJson());
    saveJsonFile(result, o);
    return 0;
}

JsonValue
makeTrainReference(const std::string &workdir)
{
    // Traced, so the per-channel counts are stored too; the probe does
    // not change what moves.
    JsonValue block = JsonValue::object(), tcp = JsonValue::object();
    auto entry = [](const JobResult &r) {
        JsonValue e = JsonValue::object();
        e.set("counts", r.counts);
        e.set("channels", channelCounts(r.probe));
        return e;
    };
    for (std::uint64_t s = 1; s <= kDataSeeds; ++s) {
        // All host threads: runs use one, so the reference also pins
        // thread-count invariance.
        const JobResult b = blockJob(blockSpec(), s, hostThreads(),
                                     blockSpec().stepsPerJob, true);
        JsonValue e = entry(b);
        e.set("losses", lossesJson(b.losses));
        block.set(std::to_string(s), std::move(e));

        std::map<std::int64_t, double> losses;
        tcp.set(std::to_string(s),
                entry(tcpJob(tcpSpec(), s, workdir + "/tcp_job", true,
                             losses)));
    }
    JsonValue o = JsonValue::object();
    o.set("train_block", std::move(block));
    o.set("train_tcp", std::move(tcp));
    return o;
}

} // namespace perfbench
