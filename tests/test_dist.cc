/**
 * @file
 * Distributed-runtime tests, two layers:
 *
 *  - In-process units: DistWorld placement / JSON round-trip, the wire
 *    frame encoding over a real loopback socket (including truncation
 *    and garbage detection), malformed-world errors, a TcpTransport
 *    receive against a raw socket peer, and the coordinator's re-join
 *    barrier against in-process clients.
 *
 *  - Process-level scenarios (labelled `dist` in CMake, with a hard
 *    timeout): the test forks the real `primepar_worker` binary — a
 *    coordinator plus N workers on localhost — and asserts on the
 *    coordinator's printed per-step losses. Covers the two acceptance
 *    criteria: TCP lockstep is bit-identical to the in-process
 *    transport, and a worker killed mid-run degrades the job onto the
 *    survivors (re-plan + checkpoint restore) instead of failing it.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/wait.h>

#include "runtime/coordinator.hh"
#include "runtime/errors.hh"
#include "runtime/fault.hh"
#include "runtime/net.hh"
#include "runtime/observer.hh"
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
// Frame encoding over a real loopback connection

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
// TcpTransport receive path against a raw socket peer

TEST(TcpTransport, ShortPayloadIsRejectedAndDstLeftUntouched)
{
    // The payload-size check is the only bound on the copy into the
    // destination: a frame whose header and checksum verify but whose
    // payload is 4 bytes short must be NACKed, never delivered.
    NetListener listener;
    listener.open(0);
    DistWorld world;
    world.generation = 1;
    world.myWorker = 1;
    world.numBits = 1;
    world.workers.resize(2);
    world.workers[0].worker = 0;
    world.workers[0].firstDevice = 0;
    world.workers[0].numDevices = 1;
    world.workers[1].worker = 1;
    world.workers[1].port = listener.port();
    world.workers[1].firstDevice = 1;
    world.workers[1].numDevices = 1;
    TransportOptions topts;
    topts.maxAttempts = 1; // the short frame exhausts the budget
    DistOptions dopts;
    dopts.transferDeadlineMs = 5000;
    dopts.connectTimeoutMs = 5000;
    RuntimeHealth health;
    TcpTransport transport(topts, dopts, world, &listener, nullptr,
                           &health);

    TransferTag tag;
    tag.tensor = "X";
    tag.channel = "ring";
    tag.sender = 0;
    tag.receiver = 1;
    const std::int64_t n = 16;
    const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(float);
    std::vector<float> src(bytes / sizeof(float));
    for (std::int64_t i = 0; i < n; ++i)
        src[static_cast<std::size_t>(i)] = 0.25f * static_cast<float>(i);
    auto dataFrame = [&](std::size_t size) {
        WireFrame f;
        f.type = FrameType::Data;
        f.generation = world.generation;
        f.sender = tag.sender;
        f.receiver = tag.receiver;
        f.channel = tag.channel;
        f.tensor = tag.tensor;
        const auto *raw = reinterpret_cast<const std::uint8_t *>(src.data());
        f.payload.assign(raw, raw + size);
        f.checksum = checksumBytes(f.payload.data(), f.payload.size());
        return f;
    };

    // Worker 0 is a raw socket: handshake, the short frame, then (after
    // the receiver's NACK and Abort) the correct frame.
    WireFrame helloAck, shortAck, abort, fullAck;
    std::thread peer([&] {
        NetSocket s = netConnect("127.0.0.1", listener.port(), 5000);
        WireFrame hello;
        hello.type = FrameType::Hello;
        hello.generation = world.generation;
        hello.sender = 0;
        hello.receiver = 1;
        if (writeFrame(s, hello) != IoResult::Ok ||
            readFrame(s, helloAck, 5000) != IoResult::Ok ||
            writeFrame(s, dataFrame(bytes - 4)) !=
                IoResult::Ok ||
            readFrame(s, shortAck, 5000) != IoResult::Ok ||
            readFrame(s, abort, 5000) != IoResult::Ok ||
            writeFrame(s, dataFrame(bytes)) != IoResult::Ok)
            return;
        readFrame(s, fullAck, 5000);
    });

    // A sharded receive: no local payload, a pre-sized destination.
    Tensor dst(Shape{n});
    for (std::int64_t i = 0; i < n; ++i)
        dst.data()[i] = -404.0f;
    const float *storage = dst.data();
    EXPECT_THROW(transport.transferInto(tag, Tensor{}, dst),
                 TransientFaultError);
    EXPECT_EQ(health.headerMismatches, 1);
    EXPECT_EQ(health.corruptionsDetected, 0);
    EXPECT_EQ(health.transfers, 0);
    for (std::int64_t i = 0; i < n; ++i)
        EXPECT_EQ(dst.data()[i], -404.0f) << "i=" << i;

    EXPECT_NO_THROW(transport.transferInto(tag, Tensor{}, dst));
    peer.join();
    EXPECT_EQ(helloAck.type, FrameType::HelloAck);
    EXPECT_EQ(shortAck.type, FrameType::Ack);
    EXPECT_EQ(shortAck.status, FrameStatus::Reject);
    EXPECT_EQ(abort.type, FrameType::Abort);
    EXPECT_EQ(fullAck.type, FrameType::Ack);
    EXPECT_EQ(fullAck.status, FrameStatus::Ok);
    EXPECT_EQ(health.transfers, 1);
    EXPECT_EQ(health.bytesMoved, n * 4);
    EXPECT_EQ(dst.data(), storage);
    for (std::int64_t i = 0; i < n; ++i)
        EXPECT_EQ(dst.data()[i], src[static_cast<std::size_t>(i)]);
}

/** What one worker of a loopback all-gather saw. */
struct GatherSide
{
    /** Per round, the slices of the other devices in device order. */
    std::vector<std::vector<float>> received;
    std::vector<std::uint64_t> wireSeq; ///< with each worker
    std::int64_t transfers = 0, bytes = 0, retries = 0, drops = 0,
                 rollbacks = 0;
};

/** Worker @p w's slice of round @p round (one device per worker). */
Tensor
gatherSlice(int round, std::int64_t w)
{
    Tensor t(Shape{257});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t.data()[i] = 0.5f * static_cast<float>(round * 10000 + w * 1000 + i);
    return t;
}

/**
 * @p rounds all-gathers over a 4-worker loopback world, one device per
 * worker, under @p faults (each worker enacts its own copy). Every
 * worker lists each round's transfers in ascending device order — its
 * own slice to the three others, one receive per other device — and
 * runs them either as one exchange or one transferInto at a time. A
 * retry-budget exhaustion is rolled back the way the executor does:
 * counted, then the exchange (or the transfer) is issued again.
 */
std::vector<GatherSide>
loopbackGather(bool exchange, const std::string &faults, int rounds)
{
    constexpr int kWorkers = 4;
    std::vector<NetListener> listeners(kWorkers);
    DistWorld world;
    world.generation = 1;
    world.numBits = 2;
    for (int w = 0; w < kWorkers; ++w) {
        listeners[static_cast<std::size_t>(w)].open(0);
        world.workers.push_back(
            {w, "127.0.0.1", listeners[static_cast<std::size_t>(w)].port(),
             w, 1});
    }
    TransportOptions topts;
    DistOptions dopts;
    dopts.transferDeadlineMs = 5000;
    dopts.connectTimeoutMs = 5000;

    std::vector<GatherSide> sides(kWorkers);
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w) {
        threads.emplace_back([&, w] {
            DistWorld mine = world;
            mine.myWorker = w;
            RuntimeHealth health;
            auto injector = std::make_shared<FaultInjector>(
                FaultSpec::parse(faults));
            TcpTransport transport(topts, dopts, mine,
                                   &listeners[static_cast<std::size_t>(w)],
                                   injector, &health);
            GatherSide &side = sides[static_cast<std::size_t>(w)];
            for (int round = 0; round < rounds; ++round) {
                const Tensor own = gatherSlice(round, w);
                std::vector<Tensor> slots(kWorkers, Tensor(Shape{257}));
                std::vector<ExchangeOp> ops;
                for (std::int64_t dev = 0; dev < kWorkers; ++dev) {
                    ExchangeOp op;
                    op.tag.tensor = "O";
                    op.tag.channel = "gather";
                    op.tag.temporalStep = round;
                    op.tag.sender = dev;
                    if (dev == w) {
                        op.payload = &own;
                        for (std::int64_t r = 0; r < kWorkers; ++r)
                            if (r != w) {
                                op.tag.receiver = r;
                                ops.push_back(op);
                            }
                    } else {
                        op.tag.receiver = w;
                        op.dst = &slots[static_cast<std::size_t>(dev)];
                        ops.push_back(op);
                    }
                }
                Tensor scratch;
                for (ExchangeOp &op : ops) {
                    while (!op.done) {
                        try {
                            if (exchange)
                                transport.exchange(ops);
                            else if (op.payload)
                                transport.transferInto(op.tag, *op.payload,
                                                       scratch);
                            else
                                transport.transferInto(op.tag, Tensor{},
                                                       *op.dst);
                            op.done = true;
                        } catch (const TransientFaultError &) {
                            ++side.rollbacks;
                        }
                    }
                }
                for (std::int64_t dev = 0; dev < kWorkers; ++dev)
                    if (dev != w) {
                        const Tensor &got =
                            slots[static_cast<std::size_t>(dev)];
                        side.received.emplace_back(
                            got.data(), got.data() + got.numel());
                    }
            }
            for (int peer = 0; peer < kWorkers; ++peer)
                side.wireSeq.push_back(transport.wireSeqWith(peer));
            side.transfers = health.transfers;
            side.bytes = health.bytesMoved;
            side.retries = health.retries;
            side.drops = health.dropsDetected;
        });
    }
    for (std::thread &t : threads)
        t.join();
    return sides;
}

TEST(TcpTransport, ExchangeKeepsEveryPairSequence)
{
    // Four workers all-gather one slice each, per round as one exchange
    // and as one transfer at a time. Every worker must get every
    // owner's bytes, and the exchange must leave the same per-pair wire
    // seqs and the same transfer, byte, retry, drop and rollback counts
    // as the sequential transfers — also when socket faults hit at
    // random, when a scheduled drop hits device 2 twice (attempts 0 and
    // 1 of each worker's first transfer with it), and when four such
    // drops exhaust those transfers' retry budgets, so every worker
    // rolls an exchange back.
    const int rounds = 16;
    const std::string mix = "netdrop=0.1,nettrunc=0.05,netdelay=0.1,seed=3";
    for (const std::string &faults :
         {std::string(), std::string("netdrop@dev=2:fires=2,seed=3"),
          mix + ",netdrop@dev=2:fires=2",
          mix + ",netdrop@dev=2:fires=4"}) {
        SCOPED_TRACE("faults '" + faults + "'");
        const auto seq = loopbackGather(false, faults, rounds);
        const auto ex = loopbackGather(true, faults, rounds);
        for (int w = 0; w < 4; ++w) {
            SCOPED_TRACE("worker " + std::to_string(w));
            const GatherSide &got = ex[static_cast<std::size_t>(w)];
            ASSERT_EQ(got.received.size(),
                      static_cast<std::size_t>(3 * rounds));
            std::size_t k = 0;
            for (int round = 0; round < rounds; ++round)
                for (std::int64_t dev = 0; dev < 4; ++dev) {
                    if (dev == w)
                        continue;
                    const Tensor want = gatherSlice(round, dev);
                    ASSERT_TRUE(std::equal(got.received[k].begin(),
                                           got.received[k].end(),
                                           want.data()))
                        << "round " << round << " device " << dev;
                    ++k;
                }
            for (int peer = 0; peer < 4; ++peer)
                EXPECT_EQ(got.wireSeq[static_cast<std::size_t>(peer)],
                          peer == w ? 0u
                                    : static_cast<std::uint64_t>(2 * rounds));
            const GatherSide &a = seq[static_cast<std::size_t>(w)];
            EXPECT_EQ(got.wireSeq, a.wireSeq);
            EXPECT_EQ(got.transfers, a.transfers);
            EXPECT_EQ(got.bytes, a.bytes);
            EXPECT_EQ(got.retries, a.retries);
            EXPECT_EQ(got.drops, a.drops);
            EXPECT_EQ(got.rollbacks, a.rollbacks);
            EXPECT_EQ(got.transfers, 6 * rounds);
        }
        if (!faults.empty()) {
            EXPECT_GT(ex[0].retries + ex[2].retries, 0)
                << "no fault ever fired";
        }
        if (faults.find("fires=4") != std::string::npos) {
            for (int w = 0; w < 4; ++w)
                EXPECT_GT(ex[static_cast<std::size_t>(w)].rollbacks, 0)
                    << "worker " << w;
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator control plane against in-process clients

TEST(Coordinator, PendingRejoinerOutlivesTheHeartbeatBudget)
{
    // A rejoiner sends no heartbeats while it waits in its
    // registration RPC for the survivors to reach the barrier. However
    // long they take, it must stay pending, not be dropped as stale.
    CoordinatorOptions opts;
    opts.numWorkers = 2;
    opts.numBits = 1;
    opts.allowRejoin = true;
    opts.dist.heartbeatMs = 20;
    opts.dist.heartbeatMissLimit = 10; // stale after 200 ms
    Coordinator coord(opts);
    coord.start();
    int rc = -1;
    std::thread server([&] { rc = coord.run(); });

    CoordinatorClient survivor(opts.dist);
    auto doomed = std::make_unique<CoordinatorClient>(opts.dist);
    survivor.connect("127.0.0.1", coord.port());
    doomed->connect("127.0.0.1", coord.port());
    std::thread doomedRegister([&] { doomed->registerWorker(0); });
    survivor.registerWorker(0);
    doomedRegister.join();
    survivor.startHeartbeats(opts.dist.heartbeatMs);
    survivor.reportStep(0, 0.5);
    doomed.reset(); // its connection closes: the job degrades
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (coord.generation() < 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(coord.generation(), 1u);

    CoordinatorClient rejoiner(opts.dist);
    rejoiner.connect("127.0.0.1", coord.port());
    JsonValue welcome;
    bool welcomed = false;
    std::thread rejoin([&] {
        try {
            welcome = rejoiner.registerWorker(0);
            welcomed = true;
        } catch (const RuntimeError &) {
        }
    });
    // Seven miss budgets pass with the survivor short of the barrier
    // R = 0 + 2.
    std::this_thread::sleep_for(std::chrono::milliseconds(1400));
    EXPECT_EQ(survivor.reportStep(1, 0.25).pauseAt, 2);
    const DistWorld world = survivor.resync(2);
    survivor.done(2, 0.25);
    rejoin.join();
    EXPECT_TRUE(welcomed) << "the rejoiner was never welcomed";
    if (welcomed) {
        EXPECT_EQ(world.generation, 2u);
        EXPECT_EQ(world.numBits, 1);
        EXPECT_EQ(welcome.at("resume_step").asNumber(), 2);
        rejoiner.done(2, 0.25);
    }
    server.join();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(coord.workersLost(), 1);
}

TEST(Coordinator, RefusesARejoinWhoseBarrierIsPastTheLastStep)
{
    // The survivor reported step 1 of a 3-step job, so a re-join
    // barrier would be step 3, which no survivor executes. The late
    // registration must get an explicit refusal at once (not block
    // until the job closes), and the job must finish as usual.
    CoordinatorOptions opts;
    opts.numWorkers = 2;
    opts.numBits = 1;
    opts.allowRejoin = true;
    opts.job = parseJson("{\"steps\": 3}");
    opts.dist.heartbeatMs = 20;
    opts.dist.heartbeatMissLimit = 10;
    Coordinator coord(opts);
    coord.start();
    int rc = -1;
    std::thread server([&] { rc = coord.run(); });

    CoordinatorClient survivor(opts.dist);
    auto doomed = std::make_unique<CoordinatorClient>(opts.dist);
    survivor.connect("127.0.0.1", coord.port());
    doomed->connect("127.0.0.1", coord.port());
    std::thread doomedRegister([&] { doomed->registerWorker(0); });
    survivor.registerWorker(0);
    doomedRegister.join();
    survivor.startHeartbeats(opts.dist.heartbeatMs);
    survivor.reportStep(0, 0.5);
    survivor.reportStep(1, 0.25);
    doomed.reset();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (coord.generation() < 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(coord.generation(), 1u);

    CoordinatorClient late(opts.dist);
    late.connect("127.0.0.1", coord.port());
    const auto t0 = std::chrono::steady_clock::now();
    bool refused = false;
    std::string what = "welcomed";
    try {
        late.registerWorker(0);
    } catch (const WorkerNotNeededError &err) {
        refused = true;
        what = err.what();
    } catch (const RuntimeError &err) {
        what = err.what();
    }
    EXPECT_TRUE(refused) << what;
    EXPECT_NE(what.find("step 3"), std::string::npos) << what;
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));

    EXPECT_EQ(survivor.reportStep(2, 0.125).pauseAt, -1);
    survivor.done(3, 0.125);
    server.join();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(coord.workersLost(), 1);
    EXPECT_EQ(coord.generation(), 1u);
    EXPECT_EQ(coord.losses().size(), 3u);
}

/** The worker events a coordinator reports to its health sink. They
 *  arrive under the coordinator's lock from its own threads. */
struct WorkerEventLog : RuntimeObserver
{
    std::mutex mu;
    std::vector<std::int64_t> up;
    std::vector<std::int64_t> lost;
    int faults = 0;

    void
    onWorkerUp(std::int64_t worker, std::uint64_t) override
    {
        std::lock_guard<std::mutex> lock(mu);
        up.push_back(worker);
    }
    void
    onWorkerLost(std::int64_t worker, std::uint64_t,
                 const std::string &) override
    {
        std::lock_guard<std::mutex> lock(mu);
        lost.push_back(worker);
    }
    void
    onFault(const FaultEvent &) override
    {
        std::lock_guard<std::mutex> lock(mu);
        ++faults;
    }
};

TEST(Coordinator, HealthSinkSeesEachWorkerUpAndEachKillLost)
{
    CoordinatorOptions opts;
    opts.numWorkers = 3;
    opts.numBits = 2;
    opts.dist.heartbeatMs = 20;
    opts.dist.heartbeatMissLimit = 10;
    Coordinator coord(opts);
    WorkerEventLog log;
    coord.health().addObserver(&log);
    coord.start();
    int rc = -1;
    std::thread server([&] { rc = coord.run(); });

    std::vector<std::unique_ptr<CoordinatorClient>> clients;
    std::vector<std::thread> registering;
    for (int i = 0; i < opts.numWorkers; ++i) {
        clients.push_back(std::make_unique<CoordinatorClient>(opts.dist));
        clients.back()->connect("127.0.0.1", coord.port());
    }
    for (auto &c : clients)
        registering.emplace_back([&c] { c->registerWorker(0); });
    for (std::thread &t : registering)
        t.join();
    std::vector<std::int64_t> ids;
    for (auto &c : clients) {
        ids.push_back(c->workerId());
        c->startHeartbeats(opts.dist.heartbeatMs);
    }

    // Kill two workers, one generation apart.
    const std::vector<std::int64_t> killed = {ids[1], ids[2]};
    for (const std::uint64_t gen : {1u, 2u}) {
        clients[gen].reset();
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (coord.generation() < gen &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ASSERT_EQ(coord.generation(), gen);
    }
    clients[0]->done(0, 0.5);
    server.join();
    EXPECT_EQ(rc, 0);

    std::vector<std::int64_t> up, lost;
    int faults = 0;
    {
        std::lock_guard<std::mutex> lock(log.mu);
        up = log.up;
        lost = log.lost;
        faults = log.faults;
    }
    std::sort(up.begin(), up.end());
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(up, ids);
    EXPECT_EQ(lost, killed);
    EXPECT_EQ(faults, 0);
    EXPECT_EQ(coord.workersLost(), 2);
    EXPECT_EQ(coord.health().workersLost, 2);
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
 *  launch a late worker the moment a loss is reported. Worker w's
 *  command line gets @p workerArgs(w) (optional), its output goes to
 *  @p dir/worker<w>.log. */
JobResult
runJob(const std::string &serveArgs, int numWorkers,
       const std::string &dir,
       const std::function<void(const std::string &, int)> &onLine =
           {},
       const std::function<std::string(int)> &workerArgs = {})
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
            " --connect 127.0.0.1:" + std::to_string(port) +
            (workerArgs ? " " + workerArgs(w) : std::string()) + " > " +
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

/** A fresh directory per test, removed with its contents when the
 *  test ends, so no run sees a previous run's worker logs or
 *  checkpoints. */
struct ScratchDir
{
    explicit ScratchDir(const char *name)
    {
        std::string tmpl = testing::TempDir() + "primepar_" + name + ".XXXXXX";
        if (const char *dir = ::mkdtemp(tmpl.data()))
            path = dir;
        EXPECT_FALSE(path.empty()) << "mkdtemp " << tmpl;
    }
    ~ScratchDir()
    {
        std::error_code ec;
        if (!path.empty())
            std::filesystem::remove_all(path, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    std::string path;
};

const char *kTinyJob = "--devices 4 --steps 3 --batch 2 --hidden 16 "
                       "--heads 2 --ffn 32 --seq 8";

TEST(DistJob, TcpLockstepIsBitIdenticalToInProcess)
{
    const ScratchDir dirScratch("dist_bitident");
    const std::string &dir = dirScratch.path;
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
    const ScratchDir dirScratch("dist_netfaults");
    const std::string &dir = dirScratch.path;
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

/** The lines holding @p needle in the first @p numWorkers logs runJob
 *  wrote to @p dir, sorted. A worker prints its last lines after its
 *  last word to the coordinator, so they may still be on their way
 *  when the coordinator exits: wait up to 10 s for @p want of them. */
std::vector<std::string>
workerLines(const std::string &dir, int numWorkers, const char *needle,
            int want)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::vector<std::string> lines;
    do {
        lines.clear();
        for (int w = 0; w < numWorkers; ++w) {
            std::ifstream log(dir + "/worker" + std::to_string(w) + ".log");
            std::string l;
            while (std::getline(log, l))
                if (l.find(needle) != std::string::npos)
                    lines.push_back(l);
        }
        if (static_cast<int>(lines.size()) >= want)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } while (std::chrono::steady_clock::now() < deadline);
    std::sort(lines.begin(), lines.end());
    return lines;
}

/** Every worker's `worker N transfers ... rollbacks K` line (see
 *  workerLines), i.e. sorted by worker id. */
std::vector<std::string>
workerCountLines(const std::string &dir, int numWorkers)
{
    return workerLines(dir, numWorkers, " transfers ", numWorkers);
}

TEST(DistJob, FourWorkerGathersSurviveSocketFaultsWithPinnedCounts)
{
    // With four workers every pair of workers exchanges its slices of
    // each op-boundary all-gather at once. Under the socket fault
    // mixes, and with a scheduled drop that exhausts the 4-attempt
    // retry budget of a step-1 gather transfer to device 2 in every
    // worker (each process enacts its own copy of the schedule, so
    // each rolls one exchange back), the losses must equal the
    // one-worker oracle's and each worker's transfers, bytes, retries
    // and rollbacks the counts of one send per peer. Those were read
    // with sequential sends: the mixes alone at the commit before
    // multicast, the scheduled runs on that commit plus the gather
    // rollback (without it the exhausted gather ends the worker).
    const ScratchDir dirScratch("dist_netfaults4");
    const std::string &dir = dirScratch.path;
    const JobResult clean =
        runJob(std::string("--workers 1 ") + kTinyJob, 1, dir);
    EXPECT_EQ(clean.rc, 0) << clean.out;
    const auto ref = finalLossLines(clean.out);
    ASSERT_EQ(ref.size(), 3u) << clean.out;

    struct Case
    {
        std::string faults;
        int retries[4];
        int rollbacks;
    };
    const std::string mix = "netdrop=0.05,nettrunc=0.03,netdelay=0.05";
    const std::string exhaust = ",netdrop@step=1:dev=2:fires=4";
    const Case cases[] = {
        {mix + ",seed=5", {37, 20, 20, 6}, 0},
        {mix + ",seed=11", {64, 67, 12, 49}, 0},
        {mix + ",seed=5" + exhaust, {40, 23, 23, 9}, 1},
        {mix + ",seed=11" + exhaust, {67, 70, 15, 52}, 1},
    };
    for (const Case &want : cases) {
        SCOPED_TRACE("faults " + want.faults);
        const JobResult job = runJob(std::string("--workers 4 ") +
                                         kTinyJob + " --fault-spec " +
                                         want.faults,
                                     4, dir);
        EXPECT_EQ(job.rc, 0) << job.out;
        EXPECT_EQ(finalLossLines(job.out), ref)
            << "socket faults changed the trajectory:\n"
            << job.out;
        std::vector<std::string> expected;
        for (int w = 0; w < 4; ++w)
            expected.push_back(
                "worker " + std::to_string(w) + " transfers " +
                (w == 0 ? "876 bytes 293376" : "852 bytes 291840") +
                " retries " + std::to_string(want.retries[w]) +
                " rollbacks " + std::to_string(want.rollbacks));
        EXPECT_EQ(workerCountLines(dir, 4), expected) << job.out;
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
    const ScratchDir dirScratch("dist_kill");
    const std::string &dir = dirScratch.path;
    const ScratchDir ckDirScratch("dist_kill_ck");
    const std::string &ckDir = ckDirScratch.path;
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

TEST(DistJob, SurplusSurvivorRetiresAfterADegrade)
{
    // Four workers on four devices; worker 3 dies at step 1 and the
    // grid halves to two devices, one fewer than the survivors. No
    // survivor may be placed on zero devices: one is retired and exits
    // 0 with "worker not needed", and the other two finish the job.
    // Step 0 ran on the full grid, so it must equal the one-worker
    // oracle's step 0; steps 1 and 2 ran on the halved grid from the
    // step-1 checkpoint, so they must equal a one-worker job on two
    // devices resumed from that snapshot.
    const ScratchDir dirScratch("dist_surplus");
    const std::string &dir = dirScratch.path;
    const ScratchDir ckScratch("dist_surplus_ck");
    const ScratchDir refScratch("dist_surplus_ref");
    const std::string tiny = "--steps 3 --batch 2 --hidden 16 --heads 2 "
                             "--ffn 32 --seq 8";
    const JobResult job = runJob(
        "--workers 4 --devices 4 " + tiny +
            " --fault-spec kill@step=1:dev=3 --checkpoint-every 1"
            " --checkpoint-dir " +
            ckScratch.path,
        4, dir);
    EXPECT_EQ(job.rc, 0) << job.out;
    EXPECT_NE(job.out.find("1 worker(s) lost"), std::string::npos)
        << job.out;
    EXPECT_NE(job.out.find(" retired"), std::string::npos) << job.out;
    EXPECT_EQ(workerLines(dir, 4, "worker not needed: ", 1).size(), 1u)
        << job.out;
    const auto got = finalLossLines(job.out);
    ASSERT_EQ(got.size(), 3u) << job.out;

    const JobResult full =
        runJob("--workers 1 --devices 4 " + tiny, 1, dir);
    EXPECT_EQ(full.rc, 0) << full.out;
    const auto want0 = finalLossLines(full.out);
    ASSERT_EQ(want0.size(), 3u) << full.out;
    EXPECT_EQ(got[0], want0[0]);

    {
        std::ifstream src(ckScratch.path + "/worker0.ckpt.s1",
                          std::ios::binary);
        ASSERT_TRUE(src.good()) << "step-1 snapshot missing";
        std::ofstream dst(refScratch.path + "/worker0.ckpt",
                          std::ios::binary);
        dst << src.rdbuf();
    }
    const JobResult half = runJob("--workers 1 --devices 2 --resume " +
                                      tiny + " --checkpoint-dir " +
                                      refScratch.path,
                                  1, dir);
    EXPECT_EQ(half.rc, 0) << half.out;
    const auto want12 = finalLossLines(half.out);
    EXPECT_EQ(std::vector<std::string>(got.begin() + 1, got.end()), want12)
        << job.out;
}

TEST(DistJob, RefusesMoreWorkersThanDevices)
{
    const std::string cmd = std::string(PRIMEPAR_WORKER_BIN) +
                            " --serve --workers 4 --devices 2 2>&1";
    FILE *proc = popen(cmd.c_str(), "r");
    ASSERT_NE(proc, nullptr);
    std::string out;
    char line[1024];
    while (std::fgets(line, sizeof line, proc))
        out += line;
    const int status = pclose(proc);
    ASSERT_TRUE(WIFEXITED(status)) << out;
    EXPECT_EQ(WEXITSTATUS(status), exitcode::Usage) << out;
}

TEST(DistJob, WorkerTraceShowsTheGatherAsRedistSpans)
{
    // Each worker of a two-worker job writes its own Chrome trace and
    // metrics file. Its all-gathers of op-boundary tensors appear as
    // Redist spans labelled "<op> gather <tensor>".
    const ScratchDir dirScratch("dist_trace");
    const std::string &dir = dirScratch.path;
    const JobResult job = runJob(
        std::string("--workers 2 ") + kTinyJob, 2, dir, {}, [&](int w) {
            return "--trace-out " + dir + "/trace" + std::to_string(w) +
                   ".json --metrics-out " + dir + "/metrics" +
                   std::to_string(w) + ".json";
        });
    EXPECT_EQ(job.rc, 0) << job.out;
    for (int w = 0; w < 2; ++w) {
        SCOPED_TRACE("worker " + std::to_string(w));
        const JsonValue trace =
            loadJsonFile(dir + "/trace" + std::to_string(w) + ".json");
        int gathers = 0;
        for (const JsonValue &span : trace.items())
            if (span.at("cat").asString() == "redist" &&
                span.at("name").asString().find(" gather ") !=
                    std::string::npos) {
                ++gathers;
                EXPECT_GE(span.at("dur").asNumber(), 0.0);
            }
        EXPECT_GT(gathers, 0) << "no gather spans";
        const JsonValue metrics =
            loadJsonFile(dir + "/metrics" + std::to_string(w) + ".json");
        EXPECT_EQ(metrics.at("schema").asString(), "primepar-metrics-v1");
    }
}

TEST(DistJob, KillRejoinResumesWithLossParity)
{
    const ScratchDir dirScratch("dist_rejoin");
    const std::string &dir = dirScratch.path;
    const ScratchDir ckDirScratch("dist_rejoin_ck");
    const std::string &ckDir = ckDirScratch.path;
    const ScratchDir ck2DirScratch("dist_rejoin_ck2");
    const std::string &ck2Dir = ck2DirScratch.path;
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
