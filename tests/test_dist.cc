/**
 * @file
 * Distributed-runtime tests, two layers:
 *
 *  - In-process units: DistWorld placement / JSON round-trip, the wire
 *    frame codec over a real loopback socket (including truncation and
 *    garbage detection), and malformed-world errors.
 *
 *  - Process-level scenarios (labelled `dist` in CMake, with a hard
 *    timeout): the test forks the real `primepar_worker` binary — a
 *    coordinator plus N workers on localhost — and asserts on the
 *    coordinator's printed per-step losses. Covers the two acceptance
 *    criteria: TCP lockstep is bit-identical to the in-process
 *    transport, and a worker killed mid-run degrades the job onto the
 *    survivors (re-plan + checkpoint restore) instead of failing it.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include "runtime/errors.hh"
#include "runtime/fault.hh"
#include "runtime/net.hh"
#include "runtime/tcp_transport.hh"
#include "support/json.hh"

#ifndef PRIMEPAR_WORKER_BIN
#error "PRIMEPAR_WORKER_BIN must point at the primepar_worker binary"
#endif

namespace primepar {
namespace {

// ---------------------------------------------------------------------------
// DistWorld units

TEST(DistWorld, PlacesDevicesContiguously)
{
    std::vector<WorkerInfo> workers(3);
    for (int i = 0; i < 3; ++i)
        workers[static_cast<std::size_t>(i)].worker = i;
    DistWorld::placeDevices(workers, 3); // 8 devices over 3 workers

    EXPECT_EQ(workers[0].firstDevice, 0);
    std::int64_t total = 0;
    for (std::size_t i = 0; i < workers.size(); ++i) {
        EXPECT_GT(workers[i].numDevices, 0);
        if (i > 0) {
            EXPECT_EQ(workers[i].firstDevice,
                      workers[i - 1].firstDevice +
                          workers[i - 1].numDevices);
        }
        total += workers[i].numDevices;
    }
    EXPECT_EQ(total, 8);

    DistWorld w;
    w.numBits = 3;
    w.workers = workers;
    for (std::int64_t d = 0; d < 8; ++d) {
        const std::int64_t owner = w.ownerOf(d);
        ASSERT_GE(owner, 0) << "device " << d;
        const WorkerInfo *info = w.find(owner);
        ASSERT_NE(info, nullptr);
        EXPECT_GE(d, info->firstDevice);
        EXPECT_LT(d, info->firstDevice + info->numDevices);
    }
    EXPECT_EQ(w.ownerOf(8), -1);
    EXPECT_EQ(w.ownerOf(-1), -1);
}

TEST(DistWorld, JsonRoundTripsAndRejectsMalformedDocs)
{
    DistWorld w;
    w.generation = 3;
    w.numBits = 2;
    w.workers.resize(2);
    w.workers[0] = {0, "127.0.0.1", 1111, 0, 2};
    w.workers[1] = {5, "127.0.0.1", 2222, 2, 2};

    const DistWorld got = DistWorld::fromJson(w.toJson());
    EXPECT_EQ(got.generation, 3u);
    EXPECT_EQ(got.numBits, 2);
    ASSERT_EQ(got.workers.size(), 2u);
    EXPECT_EQ(got.workers[1].worker, 5);
    EXPECT_EQ(got.workers[1].port, 2222);
    EXPECT_EQ(got.workers[1].firstDevice, 2);

    EXPECT_THROW(DistWorld::fromJson(parseJson("{}")), InputError);
    EXPECT_THROW(DistWorld::fromJson(parseJson("[1,2]")), InputError);
    EXPECT_THROW(
        DistWorld::fromJson(parseJson(
            "{\"generation\":0,\"bits\":1,\"workers\":[{}]}")),
        InputError);
}

// ---------------------------------------------------------------------------
// Frame codec over a real loopback connection

struct LoopbackPair
{
    LoopbackPair()
    {
        listener.open(0);
        a = netConnect("127.0.0.1", listener.port(), 2000);
        b = listener.accept(2000);
        EXPECT_TRUE(a.valid());
        EXPECT_TRUE(b.valid());
    }
    NetListener listener;
    NetSocket a, b;
};

TEST(WireFrame, RoundTripsAllHeaderFieldsAndPayload)
{
    LoopbackPair io;
    WireFrame f;
    f.type = FrameType::Data;
    f.status = FrameStatus::Ok;
    f.generation = 7;
    f.seq = 123456789;
    f.trainStep = 42;
    f.phase = 2;
    f.temporalStep = 9;
    f.sender = 3;
    f.receiver = 1;
    f.channel = "ring";
    f.tensor = "attn.QK^T";
    f.payload = {1, 2, 3, 250, 251, 252};
    f.checksum = checksumBytes(f.payload.data(), f.payload.size());

    ASSERT_EQ(writeFrame(io.a, f), IoResult::Ok);
    WireFrame got;
    ASSERT_EQ(readFrame(io.b, got, 2000), IoResult::Ok);
    EXPECT_EQ(got.type, FrameType::Data);
    EXPECT_EQ(got.generation, 7u);
    EXPECT_EQ(got.seq, 123456789u);
    EXPECT_EQ(got.trainStep, 42);
    EXPECT_EQ(got.phase, 2u);
    EXPECT_EQ(got.temporalStep, 9u);
    EXPECT_EQ(got.sender, 3);
    EXPECT_EQ(got.receiver, 1);
    EXPECT_EQ(got.channel, "ring");
    EXPECT_EQ(got.tensor, "attn.QK^T");
    EXPECT_EQ(got.payload, f.payload);
    EXPECT_EQ(got.checksum, f.checksum);
    EXPECT_EQ(checksumBytes(got.payload.data(), got.payload.size()),
              got.checksum);
}

TEST(WireFrame, TruncatedFrameIsDetectedNeverConsumed)
{
    // A frame cut mid-payload (the NetTruncate fault) followed by the
    // connection closing must surface as Closed / Timeout — the reader
    // must never deliver a partial frame as if it were complete.
    LoopbackPair io;
    WireFrame f;
    f.payload.assign(1024, 0xab);
    f.checksum = checksumBytes(f.payload.data(), f.payload.size());
    const std::vector<std::uint8_t> encoded = encodeFrame(f);
    // A truncated write never reports success.
    EXPECT_NE(writeFrame(io.a, f, 2000,
                         static_cast<std::int64_t>(encoded.size() / 2)),
              IoResult::Ok);
    io.a.close();
    WireFrame got;
    const IoResult r = readFrame(io.b, got, 2000);
    EXPECT_NE(r, IoResult::Ok);
}

TEST(WireFrame, WriteToStalledPeerTimesOutInsteadOfHanging)
{
    // Regression: writeExact used to ignore the caller's deadline —
    // on EAGAIN it polled 1000 ms and looped forever, so a peer that
    // stopped draining its receive buffer could hang a coordinator
    // heartbeat or worker send indefinitely. The peer here never
    // reads: once the kernel buffers fill, the write must report
    // Timeout within the deadline.
    LoopbackPair io;
    const int small = 8 * 1024;
    ::setsockopt(io.a.fd(), SOL_SOCKET, SO_SNDBUF, &small,
                 sizeof(small));
    ::setsockopt(io.b.fd(), SOL_SOCKET, SO_RCVBUF, &small,
                 sizeof(small));

    WireFrame f;
    f.payload.assign(64 * 1024 * 1024, 0x5a); // dwarfs both buffers
    f.checksum = checksumBytes(f.payload.data(), f.payload.size());

    const auto t0 = std::chrono::steady_clock::now();
    const IoResult r = writeFrame(io.a, f, 300);
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(r, IoResult::Timeout);
    EXPECT_GE(elapsed_ms, 250);
    EXPECT_LT(elapsed_ms, 5000) << "deadline was not honored";
}

TEST(WireFrame, GarbageBytesAreMalformedNotAFrame)
{
    LoopbackPair io;
    std::vector<std::uint8_t> junk(96, 0x58); // 'X', wrong magic
    ASSERT_EQ(::send(io.a.fd(), junk.data(), junk.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(junk.size()));
    WireFrame got;
    EXPECT_EQ(readFrame(io.b, got, 2000), IoResult::Malformed);
}

// ---------------------------------------------------------------------------
// Process-level scenarios: coordinator + workers on localhost

struct JobResult
{
    int rc = -1;
    std::string out;
};

/** Launch `primepar_worker --serve <args>` plus @p numWorkers workers
 *  on its ephemeral port; stream and return the coordinator output.
 *  @p onLine (optional) sees every coordinator output line as it
 *  arrives, with the control port — the re-join test uses it to
 *  launch a late worker the moment a loss is reported. */
JobResult
runJob(const std::string &serveArgs, int numWorkers,
       const std::string &dir,
       const std::function<void(const std::string &, int)> &onLine =
           {})
{
    const std::string cmd = std::string(PRIMEPAR_WORKER_BIN) +
                            " --serve " + serveArgs + " 2>&1";
    FILE *coord = popen(cmd.c_str(), "r");
    if (!coord) {
        ADD_FAILURE() << "cannot launch coordinator";
        return {};
    }
    JobResult result;
    char line[1024];
    int port = -1;
    while (std::fgets(line, sizeof line, coord)) {
        result.out += line;
        if (std::sscanf(line, "PRIMEPAR_COORD_PORT=%d", &port) == 1)
            break;
    }
    if (port <= 0) {
        ADD_FAILURE() << "no PRIMEPAR_COORD_PORT line:\n"
                      << result.out;
        pclose(coord);
        return {};
    }
    for (int w = 0; w < numWorkers; ++w) {
        const std::string wcmd =
            std::string(PRIMEPAR_WORKER_BIN) +
            " --connect 127.0.0.1:" + std::to_string(port) + " > " +
            dir + "/worker" + std::to_string(w) + ".log 2>&1 &";
        if (std::system(wcmd.c_str()) != 0)
            ADD_FAILURE() << "cannot launch worker " << w;
    }
    while (std::fgets(line, sizeof line, coord)) {
        result.out += line;
        if (onLine)
            onLine(line, port);
    }
    const int status = pclose(coord);
    result.rc = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

/** The coordinator's authoritative per-step loss lines, verbatim. */
std::vector<std::string>
finalLossLines(const std::string &out)
{
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < out.size()) {
        std::size_t end = out.find('\n', pos);
        if (end == std::string::npos)
            end = out.size();
        const std::string l = out.substr(pos, end - pos);
        if (l.rfind("final step ", 0) == 0)
            lines.push_back(l);
        pos = end + 1;
    }
    return lines;
}

std::string
freshDir(const char *name)
{
    const std::string dir = testing::TempDir() + name;
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

const char *kTinyJob = "--devices 4 --steps 3 --batch 2 --hidden 16 "
                       "--heads 2 --ffn 32 --seq 8";

TEST(DistJob, TcpLockstepIsBitIdenticalToInProcess)
{
    const std::string dir = freshDir("dist_bitident");
    // One worker owns everything -> plain InProcessTransport; two
    // workers really cross TCP for every cut transfer. The printed
    // %.17g losses must match to the last bit.
    const JobResult solo =
        runJob(std::string("--workers 1 ") + kTinyJob, 1, dir);
    const JobResult duo =
        runJob(std::string("--workers 2 ") + kTinyJob, 2, dir);
    EXPECT_EQ(solo.rc, 0) << solo.out;
    EXPECT_EQ(duo.rc, 0) << duo.out;
    const auto ref = finalLossLines(solo.out);
    const auto got = finalLossLines(duo.out);
    ASSERT_EQ(ref.size(), 3u) << solo.out;
    EXPECT_EQ(got, ref) << "TCP losses diverge from in-process:\n"
                        << duo.out;
}

TEST(DistJob, SurvivesInjectedSocketFaultsBitIdentically)
{
    const std::string dir = freshDir("dist_netfaults");
    // The one-worker run owns every device and is the oracle; each
    // seeded fault mix must leave the two-worker losses bit-identical.
    const JobResult clean =
        runJob(std::string("--workers 1 ") + kTinyJob, 1, dir);
    EXPECT_EQ(clean.rc, 0) << clean.out;
    const auto ref = finalLossLines(clean.out);
    ASSERT_EQ(ref.size(), 3u) << clean.out;
    for (const char *seed : {"5", "11"}) {
        SCOPED_TRACE(std::string("fault seed ") + seed);
        const JobResult faulty = runJob(
            std::string("--workers 2 ") + kTinyJob +
                " --fault-spec netdrop=0.05,nettrunc=0.03,"
                "netdelay=0.05,seed=" +
                seed,
            2, dir);
        EXPECT_EQ(faulty.rc, 0) << faulty.out;
        EXPECT_EQ(finalLossLines(faulty.out), ref)
            << "socket faults changed the trajectory:\n"
            << faulty.out;
    }
}

TEST(DistJob, RejectsRemovedReplicatedFlag)
{
    // Every multi-worker run is sharded; the old full-replication
    // switch is a usage error, not a silently ignored option. The
    // timeout bounds a coordinator that accepts the flag and then
    // waits for a worker that never comes.
    const std::string cmd = std::string("timeout 60 ") +
                            PRIMEPAR_WORKER_BIN +
                            " --serve --workers 1 --replicated " +
                            kTinyJob + " 2>&1";
    FILE *proc = popen(cmd.c_str(), "r");
    ASSERT_NE(proc, nullptr);
    std::string out;
    char line[1024];
    while (std::fgets(line, sizeof line, proc))
        out += line;
    const int status = pclose(proc);
    ASSERT_TRUE(WIFEXITED(status)) << out;
    EXPECT_EQ(WEXITSTATUS(status), exitcode::Usage) << out;
    EXPECT_NE(out.find("unknown argument"), std::string::npos) << out;
}

TEST(DistJob, WorkerKillMidRunDegradesOntoSurvivors)
{
    const std::string dir = freshDir("dist_kill");
    const std::string ckDir = freshDir("dist_kill_ck");
    // Worker 1 exits abruptly (the kill fault calls _Exit) at step 2;
    // worker 0 must escalate the dead connection, get the re-planned
    // world from the coordinator, restore its checkpoint, and finish
    // all 5 steps alone.
    const JobResult job = runJob(
        std::string("--workers 2 --devices 4 --steps 5 --batch 2 "
                    "--hidden 16 --heads 2 --ffn 32 --seq 8 "
                    "--fault-spec kill@step=2:dev=1 "
                    "--checkpoint-every 1 --checkpoint-dir ") +
            ckDir,
        2, dir);
    EXPECT_EQ(job.rc, 0) << job.out;
    EXPECT_EQ(finalLossLines(job.out).size(), 5u) << job.out;
    EXPECT_NE(job.out.find("1 worker(s) lost"), std::string::npos)
        << job.out;
    EXPECT_NE(job.out.find("generation 1"), std::string::npos)
        << job.out;
}

TEST(DistJob, KillRejoinResumesWithLossParity)
{
    const std::string dir = freshDir("dist_rejoin");
    const std::string ckDir = freshDir("dist_rejoin_ck");
    const std::string ck2Dir = freshDir("dist_rejoin_ck2");
    const long long steps = 30;
    const std::string jobArgs =
        "--devices 4 --steps 30 --batch 2 --hidden 16 --heads 2 "
        "--ffn 32 --seq 8 --seed 77 --heartbeat-ms 50";

    // Worker 2 is killed at step 2; the survivors degrade onto 2^1
    // devices and keep training. The moment the coordinator reports
    // the loss, a fourth worker connects — it must be folded back in:
    // survivors pause at the barrier step R, the grid grows back to
    // 2^2, and the rejoiner restores a survivor's step-R checkpoint.
    bool launched = false;
    const JobResult job = runJob(
        std::string("--workers 3 ") + jobArgs +
            " --fault-spec kill@step=2:dev=2 --checkpoint-every 1"
            " --checkpoint-dir " +
            ckDir,
        3, dir, [&](const std::string &l, int port) {
            if (launched || l.find(" lost (") == std::string::npos)
                return;
            launched = true;
            const std::string wcmd =
                std::string(PRIMEPAR_WORKER_BIN) +
                " --connect 127.0.0.1:" + std::to_string(port) +
                " > " + dir + "/worker3.log 2>&1 &";
            if (std::system(wcmd.c_str()) != 0)
                ADD_FAILURE() << "cannot launch rejoin worker";
        });
    EXPECT_TRUE(launched) << job.out;
    EXPECT_EQ(job.rc, 0) << job.out;
    EXPECT_NE(job.out.find("re-joined"), std::string::npos) << job.out;
    ASSERT_EQ(finalLossLines(job.out).size(),
              static_cast<std::size_t>(steps))
        << job.out;

    // The resume barrier R, from the coordinator's re-join line.
    const std::size_t rpos = job.out.find("resuming at step ");
    ASSERT_NE(rpos, std::string::npos) << job.out;
    const long long r = std::atoll(
        job.out.c_str() + rpos + std::strlen("resuming at step "));
    ASSERT_GT(r, 0) << job.out;
    ASSERT_LT(r, steps) << job.out;

    // Reference: an undisturbed single-worker job restored from the
    // very checkpoint snapshot the rejoiner adopted (worker 0 is
    // always the donor — the lowest-id survivor). Its steps R..29
    // must match the re-joined run's bit for bit.
    {
        std::ifstream src(ckDir + "/worker0.ckpt.s" +
                              std::to_string(r),
                          std::ios::binary);
        ASSERT_TRUE(src.good()) << "donor snapshot missing";
        std::ofstream dst(ck2Dir + "/worker0.ckpt",
                          std::ios::binary);
        dst << src.rdbuf();
    }
    const JobResult ref = runJob(
        std::string("--workers 1 --resume ") + jobArgs +
            " --checkpoint-dir " + ck2Dir,
        1, dir);
    EXPECT_EQ(ref.rc, 0) << ref.out;

    auto fromStep = [](const std::vector<std::string> &lines,
                       long long first) {
        std::vector<std::string> keep;
        for (const std::string &l : lines) {
            long long s = -1;
            if (std::sscanf(l.c_str(), "final step %lld", &s) == 1 &&
                s >= first)
                keep.push_back(l);
        }
        return keep;
    };
    const auto want = finalLossLines(ref.out);
    ASSERT_EQ(want.size(), static_cast<std::size_t>(steps - r))
        << ref.out;
    EXPECT_EQ(fromStep(finalLossLines(job.out), r), want)
        << "re-joined run diverges from the undisturbed resume:\n"
        << job.out;
}

} // namespace
} // namespace primepar
