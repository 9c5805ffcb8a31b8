#include "tcp_transport.hh"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include <poll.h>

#include "errors.hh"
#include "observer.hh"
#include "support/logging.hh"

namespace primepar {

namespace {

std::string
transferContext(const TransferTag &tag)
{
    std::ostringstream os;
    os << tag.channel << " transfer of '" << tag.tensor << "' "
       << tag.sender << "->" << tag.receiver << " ("
       << phaseName(tag.phase) << " t=" << tag.temporalStep
       << ", train step " << tag.trainStep << ")";
    return os.str();
}

void
sleepUs(double us)
{
    if (us > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(us));
    }
}

} // namespace

// ---------------------------------------------------------------------
// DistWorld
// ---------------------------------------------------------------------

std::int64_t
DistWorld::ownerOf(std::int64_t device) const
{
    for (const WorkerInfo &w : workers) {
        if (device >= w.firstDevice &&
            device < w.firstDevice + w.numDevices)
            return w.worker;
    }
    return -1;
}

const WorkerInfo *
DistWorld::find(std::int64_t worker) const
{
    for (const WorkerInfo &w : workers) {
        if (w.worker == worker)
            return &w;
    }
    return nullptr;
}

void
DistWorld::placeDevices(std::vector<WorkerInfo> &workers, int bits)
{
    PRIMEPAR_ASSERT(!workers.empty(), "placing devices on no workers");
    const std::int64_t devices = std::int64_t{1} << bits;
    // No worker is placed on zero devices: past one worker per device,
    // the rest are left out.
    if (static_cast<std::int64_t>(workers.size()) > devices)
        workers.resize(static_cast<std::size_t>(devices));
    const std::int64_t n = static_cast<std::int64_t>(workers.size());
    const std::int64_t base = devices / n;
    const std::int64_t rem = devices % n;
    std::int64_t cursor = 0;
    for (std::int64_t i = 0; i < n; ++i) {
        workers[static_cast<std::size_t>(i)].firstDevice = cursor;
        workers[static_cast<std::size_t>(i)].numDevices =
            base + (i < rem ? 1 : 0);
        cursor += workers[static_cast<std::size_t>(i)].numDevices;
    }
}

JsonValue
DistWorld::toJson() const
{
    JsonValue doc = JsonValue::object();
    doc.set("generation", static_cast<std::int64_t>(generation));
    doc.set("numBits", numBits);
    JsonValue arr = JsonValue::array();
    for (const WorkerInfo &w : workers) {
        JsonValue jw = JsonValue::object();
        jw.set("worker", w.worker);
        jw.set("host", w.host);
        jw.set("port", w.port);
        jw.set("firstDevice", w.firstDevice);
        jw.set("numDevices", w.numDevices);
        arr.push(std::move(jw));
    }
    doc.set("workers", std::move(arr));
    return doc;
}

DistWorld
DistWorld::fromJson(const JsonValue &v)
{
    try {
        DistWorld world;
        world.generation = static_cast<std::uint64_t>(
            v.at("generation").asNumber());
        world.numBits =
            static_cast<int>(v.at("numBits").asNumber());
        for (const JsonValue &jw : v.at("workers").items()) {
            WorkerInfo w;
            w.worker = static_cast<std::int64_t>(
                jw.at("worker").asNumber());
            w.host = jw.at("host").asString();
            w.port = static_cast<int>(jw.at("port").asNumber());
            w.firstDevice = static_cast<std::int64_t>(
                jw.at("firstDevice").asNumber());
            w.numDevices = static_cast<std::int64_t>(
                jw.at("numDevices").asNumber());
            world.workers.push_back(std::move(w));
        }
        return world;
    } catch (const JsonError &e) {
        throw InputError(std::string("malformed world document: ") +
                         e.what());
    }
}

// ---------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------

/** One wire transfer as its sender sees it: its transfer tag and owning worker. */
struct TcpTransport::Leg
{
    TransferTag tag;
    std::int64_t peer = -1;
};

TcpTransport::TcpTransport(TransportOptions opts_in, DistOptions dist_in,
                           DistWorld world_in, NetListener *listener_in,
                           std::shared_ptr<FaultInjector> injector_in,
                           RuntimeHealth *health_in)
    : opts(opts_in), dist(dist_in), world_(std::move(world_in)),
      listener(listener_in), injector(std::move(injector_in)),
      health(health_in)
{
    PRIMEPAR_ASSERT(listener != nullptr && listener->valid(),
                    "TcpTransport needs a bound listener");
    PRIMEPAR_ASSERT(world_.find(world_.myWorker) != nullptr,
                    "worker ", world_.myWorker,
                    " is not part of the world");
    inner = std::make_unique<InProcessTransport>(opts, injector, health);
}

TcpTransport::~TcpTransport() = default;

void
TcpTransport::beginStep(std::int64_t step)
{
    trainStep = step;
    inner->beginStep(step);
    if (injector &&
        injector->consumeWorkerKill(step, world_.myWorker)) {
        PRIMEPAR_INFORM("worker ", world_.myWorker,
                        ": scheduled kill at step ", step,
                        " — exiting abruptly");
        std::_Exit(137);
    }
}

void
TcpTransport::throwFenced(std::uint64_t theirGeneration)
{
    throw FencedWorkerError(
        "worker " + std::to_string(world_.myWorker) +
            " fenced: its generation " +
            std::to_string(world_.generation) +
            " was superseded by generation " +
            std::to_string(theirGeneration) +
            " — a re-planned job is running without it",
        world_.generation, theirGeneration);
}

void
TcpTransport::dropPeer(std::int64_t peer)
{
    auto it = conns.find(peer);
    if (it != conns.end())
        conns.erase(it);
}

NetSocket &
TcpTransport::ensurePeer(std::int64_t peer, const TransferTag &tag)
{
    auto it = conns.find(peer);
    if (it != conns.end() && it->second.valid())
        return it->second;

    const WorkerInfo *info = world_.find(peer);
    PRIMEPAR_ASSERT(info != nullptr, "unknown peer worker ", peer);
    const bool initiator = world_.myWorker < peer;
    const int budget = std::max(1, dist.reconnectAttempts);

    for (int attempt = 0; attempt < budget; ++attempt) {
        if (attempt > 0) {
            sleepUs(retryBackoffUs(
                opts, static_cast<std::uint64_t>(peer) + 0x77, attempt - 1));
        }
        NetSocket s;
        if (initiator) {
            s = netConnect(info->host, info->port,
                           dist.connectTimeoutMs);
            if (!s.valid())
                continue;
            WireFrame hello;
            hello.type = FrameType::Hello;
            hello.generation = world_.generation;
            hello.sender = world_.myWorker;
            hello.receiver = peer;
            if (writeFrame(s, hello, dist.connectTimeoutMs) !=
                IoResult::Ok)
                continue;
            WireFrame ack;
            if (readFrame(s, ack, dist.connectTimeoutMs) !=
                    IoResult::Ok ||
                ack.type != FrameType::HelloAck)
                continue;
            if (ack.status == FrameStatus::Fenced)
                throwFenced(ack.generation);
            if (ack.status != FrameStatus::Ok)
                continue;
        } else {
            auto st = stash.find(peer);
            if (st != stash.end()) {
                s = std::move(st->second);
                stash.erase(st);
            } else {
                s = listener->accept(dist.connectTimeoutMs);
                if (!s.valid())
                    continue;
                WireFrame hello;
                if (readFrame(s, hello, dist.connectTimeoutMs) !=
                        IoResult::Ok ||
                    hello.type != FrameType::Hello)
                    continue;
                if (hello.generation > world_.generation)
                    throwFenced(hello.generation);
                WireFrame ack;
                ack.type = FrameType::HelloAck;
                ack.generation = world_.generation;
                ack.sender = world_.myWorker;
                ack.receiver = hello.sender;
                if (hello.generation < world_.generation) {
                    // A zombie from a superseded generation: tell it
                    // so, then refuse the connection.
                    ack.status = FrameStatus::Fenced;
                    if (health)
                        health->fenced(
                            {FaultKind::None,
                             "fenced stale-generation worker " +
                                 std::to_string(hello.sender),
                             tag.tensor, tag.trainStep, hello.sender,
                             world_.myWorker, attempt});
                    writeFrame(s, ack, dist.connectTimeoutMs);
                    continue;
                }
                ack.status = FrameStatus::Ok;
                if (writeFrame(s, ack, dist.connectTimeoutMs) !=
                    IoResult::Ok)
                    continue;
                if (hello.sender != peer) {
                    // A different peer dialed first; keep its
                    // handshaken connection for when it is needed.
                    stash[hello.sender] = std::move(s);
                    continue;
                }
            }
        }
        if (health && everConnected[peer])
            health->reconnected();
        everConnected[peer] = true;
        conns[peer] = std::move(s);
        return conns[peer];
    }

    // The peer would not talk to us within the reconnect budget:
    // treat its endpoint device as permanently failed so the trainer
    // degrades the grid.
    const std::int64_t peerDevice =
        world_.ownerOf(tag.sender) == peer ? tag.sender : tag.receiver;
    if (health) {
        health->faultDetected(
            &RuntimeHealth::deviceFailures,
            FaultEvent::at(tag, FaultKind::DeviceFail,
                           "worker " + std::to_string(peer) +
                               " unreachable after " +
                               std::to_string(budget) +
                               " connect attempts",
                           0));
        health->workerLost(peer, world_.generation,
                           "unreachable: connect budget exhausted");
    }
    throw DeviceFailedError(
        "worker " + std::to_string(peer) +
            " (owner of device " + std::to_string(peerDevice) +
            ") is unreachable during " + transferContext(tag),
        tag.tensor, tag.sender, tag.receiver, tag.trainStep,
        peerDevice);
}

void
TcpTransport::transferInto(const TransferTag &tag_in,
                           const Tensor &payload, Tensor &dst)
{
    TransferTag tag = tag_in;
    tag.trainStep = trainStep;
    const std::int64_t senderOwner = world_.ownerOf(tag.sender);
    const std::int64_t receiverOwner = world_.ownerOf(tag.receiver);
    PRIMEPAR_ASSERT(senderOwner >= 0 && receiverOwner >= 0,
                    "transfer endpoints ", tag.sender, "->",
                    tag.receiver, " outside the placed device range");

    if (senderOwner != world_.myWorker &&
        receiverOwner != world_.myWorker) {
        // Both endpoints live on other workers: the owners move the
        // bytes without this process (the executor's span-aware paths
        // should not even issue it — this is the safe no-op).
        return;
    }
    if (senderOwner == receiverOwner) {
        // Both endpoints live here: delegate to the in-process
        // transport.
        inner->transferInto(tag_in, payload, dst);
    } else if (world_.myWorker == senderOwner) {
        const double t0 = health ? health->clockUs() : 0.0;
        WireFrame f = dataFrame(tag, payload);
        sendLoop(f, {tag, receiverOwner}, 0, std::nullopt, t0);
    } else {
        recvWire(tag, payload, dst, senderOwner);
    }
}

DeviceSpan
TcpTransport::ownedDevices() const
{
    const WorkerInfo *me = world_.find(world_.myWorker);
    PRIMEPAR_ASSERT(me != nullptr, "worker ", world_.myWorker,
                    " is not part of the world");
    return {me->firstDevice, me->numDevices};
}

std::vector<DeviceSpan>
TcpTransport::peerSpans() const
{
    std::vector<DeviceSpan> spans;
    for (const WorkerInfo &w : world_.workers) {
        if (w.worker == world_.myWorker || w.numDevices <= 0)
            continue;
        spans.push_back({w.firstDevice, w.numDevices});
    }
    return spans;
}

std::uint64_t
TcpTransport::wireSeqWith(std::int64_t peer) const
{
    const auto it = wireSeq.find(peer);
    return it == wireSeq.end() ? 0 : it->second;
}

WireFrame
TcpTransport::dataFrame(const TransferTag &tag, const Tensor &payload) const
{
    const std::size_t bytes =
        static_cast<std::size_t>(payload.numel()) * sizeof(float);
    WireFrame f;
    f.type = FrameType::Data;
    f.generation = world_.generation;
    f.trainStep = tag.trainStep;
    f.phase = static_cast<std::uint32_t>(tag.phase);
    f.temporalStep = static_cast<std::uint32_t>(tag.temporalStep);
    f.sender = tag.sender;
    f.channel = tag.channel;
    f.tensor = tag.tensor;
    f.payload.resize(bytes);
    f.checksum = checksumCopyBytes(f.payload.data(), payload.data(), bytes);
    return f;
}

void
TcpTransport::exchange(std::vector<ExchangeOp> &ops)
{
    const double t0 = health ? health->clockUs() : 0.0;
    // One leg per op left to run, in list order; consecutive sends of
    // one payload share a frame.
    struct Xfer
    {
        ExchangeOp *op;
        Leg leg;
        std::size_t frame;
        std::optional<FaultKind> drawn;
    };
    std::vector<Xfer> xs;
    std::vector<WireFrame> frames;
    const ExchangeOp *framed = nullptr;
    for (ExchangeOp &op : ops) {
        if (op.done)
            continue;
        Xfer x{&op, {op.tag, -1}, 0, std::nullopt};
        x.leg.tag.trainStep = trainStep;
        const std::int64_t local =
            op.payload ? op.tag.sender : op.tag.receiver;
        x.leg.peer =
            world_.ownerOf(op.payload ? op.tag.receiver : op.tag.sender);
        PRIMEPAR_ASSERT(world_.ownerOf(local) == world_.myWorker &&
                            x.leg.peer >= 0 &&
                            x.leg.peer != world_.myWorker,
                        "exchange transfer ", op.tag.sender, "->",
                        op.tag.receiver, " is no wire transfer of worker ",
                        world_.myWorker);
        if (op.payload) {
            const bool shared =
                framed && framed->payload == op.payload &&
                framed->tag.sender == op.tag.sender &&
                framed->tag.tensor == op.tag.tensor &&
                framed->tag.channel == op.tag.channel &&
                framed->tag.phase == op.tag.phase &&
                framed->tag.temporalStep == op.tag.temporalStep;
            if (!shared)
                frames.push_back(dataFrame(x.leg.tag, *op.payload));
            framed = &op;
            x.frame = frames.size() - 1;
        }
        xs.push_back(std::move(x));
    }

    // Attempt-0 draws in list order, as sequential sends take them, up
    // to the first fault. The loop runs the ops before it, and before
    // the first op whose peer has no live connection: connecting
    // blocks, so it happens in list order.
    std::size_t cut = xs.size();
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (!xs[i].op->payload)
            continue;
        xs[i].drawn = injector ? injector->decideNet(xs[i].leg.tag, 0)
                               : FaultKind::None;
        if (*xs[i].drawn != FaultKind::None) {
            cut = i;
            break;
        }
    }
    for (std::size_t i = 0; i < cut; ++i) {
        const auto it = conns.find(xs[i].leg.peer);
        if (it == conns.end() || !it->second.valid()) {
            cut = i;
            break;
        }
    }

    // One socket per peer: its ops in list order, the current one's
    // stage, and its frame in and out.
    enum class Stage { Idle, Writing, Acking };
    struct PeerIo
    {
        std::int64_t peer;
        std::vector<std::size_t> queue;
        std::size_t next = 0;
        Stage stage = Stage::Idle;
        double t0 = 0.0;
        FrameWriter out;
        FrameReader in;
        std::optional<Inbound> got;

        bool busy() const { return next < queue.size(); }
    };
    std::vector<PeerIo> pairs;
    auto pairOf = [&pairs](std::int64_t peer) -> PeerIo * {
        for (PeerIo &p : pairs)
            if (p.peer == peer)
                return &p;
        return nullptr;
    };
    for (std::size_t i = 0; i < cut; ++i) {
        PeerIo *p = pairOf(xs[i].leg.peer);
        if (!p) {
            pairs.emplace_back();
            p = &pairs.back();
            p->peer = xs[i].leg.peer;
            p->t0 = t0;
        }
        p->queue.push_back(i);
    }

    // Advance @p p as far as its socket allows without blocking; false
    // hands the exchange over to the sequential paths. @p readable:
    // a frame may be waiting (no read is tried when none can be).
    const auto pump = [&](PeerIo &p, bool readable) {
        while (p.busy()) {
            // Looked up afresh: a failed ack write drops the socket.
            const auto conn = conns.find(p.peer);
            if (conn == conns.end() || !conn->second.valid())
                return false;
            NetSocket &s = conn->second;
            Xfer &x = xs[p.queue[p.next]];
            if (x.op->payload && p.stage == Stage::Idle) {
                WireFrame &f = frames[x.frame];
                f.seq = wireSeq[p.peer];
                f.receiver = x.leg.tag.receiver;
                p.out.start(f);
                p.stage = Stage::Writing;
            }
            if (p.stage == Stage::Writing) {
                const IoResult w = p.out.step(s);
                if (w == IoResult::Timeout)
                    return true;
                if (w != IoResult::Ok)
                    return false;
                p.stage = Stage::Acking;
                readable = false; // the peer has yet to read it
            }
            if (!readable)
                return true;
            WireFrame f;
            const IoResult r = p.in.step(s, f);
            if (r == IoResult::Timeout)
                return true;
            const std::uint64_t seq = wireSeq[p.peer];
            const bool clean =
                r == IoResult::Ok &&
                (x.op->payload
                     ? f.type == FrameType::Ack &&
                           f.status == FrameStatus::Ok && f.seq == seq
                     : expectedData(f, x.leg.tag, p.peer,
                                    static_cast<std::size_t>(
                                        x.op->dst->numel()) *
                                        sizeof(float)));
            if (!clean) {
                p.got = Inbound{r, std::move(f)};
                return false;
            }
            // After its ack the peer may have sent its next frame at
            // once; after ours it waits for us.
            readable = x.op->payload != nullptr;
            if (x.op->payload) {
                delivered(x.leg, frames[x.frame].payload.size(), 0, p.t0);
            } else {
                std::memcpy(x.op->dst->data(), f.payload.data(),
                            f.payload.size());
                sendAck(p.peer, seq, FrameStatus::Ok);
                ++wireSeq[p.peer];
                if (health)
                    health->transferred(
                        x.leg.tag,
                        static_cast<std::int64_t>(f.payload.size()), 1,
                        p.t0);
            }
            x.op->done = true;
            ++p.next;
            p.stage = Stage::Idle;
            p.t0 = health ? health->clockUs() : 0.0;
        }
        return true;
    };

    try {
        bool looping = true;
        for (PeerIo &p : pairs)
            looping = looping && pump(p, true);
        std::vector<pollfd> fds;
        std::vector<PeerIo *> polled;
        while (looping) {
            fds.clear();
            polled.clear();
            for (PeerIo &p : pairs) {
                if (!p.busy())
                    continue;
                // Nothing is read before our frame is out (the peer
                // sends only after reading it), so a writer waits for
                // room alone; a closed socket still wakes it.
                const short events =
                    p.stage == Stage::Writing ? POLLOUT : POLLIN;
                fds.push_back({conns[p.peer].fd(), events, 0});
                polled.push_back(&p);
            }
            if (fds.empty())
                break;
            // A stall past the transfer deadline hands over too: the
            // sequential paths then time out, report and retry.
            const int n = ::poll(fds.data(), fds.size(),
                                 dist.transferDeadlineMs);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            for (std::size_t k = 0; k < fds.size() && looping; ++k)
                if (fds[k].revents != 0)
                    looping = pump(*polled[k],
                                   fds[k].revents & (POLLIN | POLLERR |
                                                     POLLHUP));
        }

        // What is left runs in list order through the sequential
        // paths, from where the loop stopped: a half-sent frame is
        // finished, a pending ack or a half-read frame is read on.
        for (std::size_t i = 0; i < xs.size(); ++i) {
            Xfer &x = xs[i];
            if (x.op->done)
                continue;
            PeerIo *p = i < cut ? pairOf(x.leg.peer) : nullptr;
            if (p && p->queue[p->next] != i)
                p = nullptr; // not started: no state to carry on
            Inbound read;
            Inbound *first = nullptr;
            if (p && p->got) {
                read = std::move(*p->got);
                p->got.reset();
                first = &read;
            } else if (p && p->in.started()) {
                read.result = p->in.finish(conns[x.leg.peer], read.frame,
                                           dist.transferDeadlineMs);
                first = &read;
            }
            const double started =
                p ? p->t0 : health ? health->clockUs() : 0.0;
            if (!x.op->payload) {
                recvWire(x.leg.tag, Tensor{}, *x.op->dst, x.leg.peer,
                         first);
            } else if (!p || p->stage == Stage::Idle) {
                sendLoop(frames[x.frame], x.leg, 0, x.drawn, started);
            } else {
                WireFrame &f = frames[x.frame];
                bool sent = true;
                if (p->stage == Stage::Writing &&
                    p->out.finish(conns[x.leg.peer],
                                  dist.transferDeadlineMs) != IoResult::Ok) {
                    sent = false;
                    if (health)
                        health->faultDetected(
                            &RuntimeHealth::dropsDetected,
                            FaultEvent::at(x.leg.tag, FaultKind::NetDrop,
                                           "send failed: connection lost",
                                           0));
                    dropPeer(x.leg.peer);
                }
                p->stage = Stage::Idle;
                if (sent && awaitAck(x.leg, wireSeq[x.leg.peer], 0, first))
                    delivered(x.leg, f.payload.size(), 0, started);
                else
                    sendLoop(f, x.leg, 1, std::nullopt, started);
            }
            x.op->done = true;
            if (p) {
                ++p->next;
                p->t0 = health ? health->clockUs() : 0.0;
            }
        }
    } catch (...) {
        // A frame left half sent or half read, or read and not yet
        // handled, would desynchronize its stream: close the socket, so
        // both ends see a lost connection and retry.
        for (PeerIo &p : pairs)
            if ((p.stage == Stage::Writing && p.out.started() &&
                 !p.out.done()) ||
                p.in.started() || p.got)
                dropPeer(p.peer);
        throw;
    }
}

void
TcpTransport::delivered(const Leg &leg, std::size_t bytes, int attempt,
                        double t0)
{
    // Acknowledged delivery: advance the pair seq. The receiver is the
    // only process materializing this value.
    ++wireSeq[leg.peer];
    if (health)
        health->transferred(leg.tag, static_cast<std::int64_t>(bytes),
                            attempt + 1, t0);
}

bool
TcpTransport::awaitAck(const Leg &leg, std::uint64_t seq, int attempt,
                       Inbound *first)
{
    const TransferTag &tag = leg.tag;
    const std::int64_t peer = leg.peer;
    NetSocket &s = conns[peer];
    for (;;) {
        WireFrame ack;
        IoResult r;
        if (first) {
            r = first->result;
            ack = std::move(first->frame);
            first = nullptr;
        } else {
            r = readFrame(s, ack, dist.transferDeadlineMs);
        }
        if (r != IoResult::Ok) {
            if (health)
                health->faultDetected(
                    &RuntimeHealth::dropsDetected,
                    FaultEvent::at(tag, FaultKind::NetDrop,
                                   r == IoResult::Timeout
                                       ? "ack deadline passed"
                                       : "connection lost awaiting ack",
                                   attempt));
            dropPeer(peer);
            return false;
        }
        if (ack.type == FrameType::Abort) {
            if (ack.seq >= wireSeq[peer]) {
                // The peer rolled its step back; do the same so both
                // re-issue the identical transfer sequence.
                throw TransientFaultError(
                    "peer worker " + std::to_string(peer) +
                        " aborted at seq " + std::to_string(ack.seq) +
                        " during " + transferContext(tag),
                    tag.tensor, tag.sender, tag.receiver, tag.trainStep);
            }
            continue; // stale abort
        }
        if (ack.type != FrameType::Ack) {
            dropPeer(peer);
            return false;
        }
        if (ack.status == FrameStatus::Fenced)
            throwFenced(ack.generation);
        if (ack.seq != seq)
            continue; // stale ack of an earlier seq
        if (ack.status == FrameStatus::Reject) {
            if (health)
                health->faultDetected(
                    &RuntimeHealth::corruptionsDetected,
                    FaultEvent::at(tag, FaultKind::Corrupt,
                                   "receiver rejected frame (NACK)",
                                   attempt));
            return false;
        }
        return true;
    }
}

void
TcpTransport::sendLoop(WireFrame &f, const Leg &leg, int first_attempt,
                       std::optional<FaultKind> drawn, double t0)
{
    const TransferTag &tag = leg.tag;
    const std::int64_t peer = leg.peer;
    for (int attempt = first_attempt; attempt < opts.maxAttempts;
         ++attempt) {
        if (attempt > 0) {
            if (health)
                health->retried();
            sleepUs(retryBackoffUs(opts, wireSeq[peer], attempt - 1));
        }
        FaultKind net = FaultKind::None;
        if (drawn) {
            net = *drawn;
            drawn.reset();
        } else if (injector) {
            net = injector->decideNet(tag, attempt);
        }
        if (net == FaultKind::NetDrop) {
            if (health)
                health->faultDetected(
                    &RuntimeHealth::dropsDetected,
                    FaultEvent::at(tag, net,
                                   "injected connection drop before send",
                                   attempt));
            dropPeer(peer);
            continue;
        }
        if (net == FaultKind::NetDelay) {
            if (health)
                health->faultDetected(
                    &RuntimeHealth::stragglers,
                    FaultEvent::at(tag, net,
                                   "injected link stall before send",
                                   attempt),
                    8.0 * opts.backoffUs);
            sleepUs(8.0 * opts.backoffUs);
        }

        f.seq = wireSeq[peer];
        f.receiver = tag.receiver;
        std::int64_t truncate_to = -1;
        if (net == FaultKind::NetTruncate) {
            truncate_to = static_cast<std::int64_t>(
                              80 + f.channel.size() + f.tensor.size() +
                              f.payload.size()) /
                          2;
        }

        NetSocket &s = ensurePeer(peer, tag);
        const IoResult wrote = writeFrame(
            s, f, dist.transferDeadlineMs, truncate_to);
        if (net == FaultKind::NetTruncate) {
            if (health)
                health->faultDetected(
                    &RuntimeHealth::dropsDetected,
                    FaultEvent::at(tag, net, "injected truncated frame",
                                   attempt));
            dropPeer(peer);
            continue;
        }
        if (wrote != IoResult::Ok) {
            if (health)
                health->faultDetected(
                    &RuntimeHealth::dropsDetected,
                    FaultEvent::at(tag, FaultKind::NetDrop,
                                   "send failed: connection lost",
                                   attempt));
            dropPeer(peer);
            continue;
        }
        if (awaitAck(leg, f.seq, attempt)) {
            delivered(leg, f.payload.size(), attempt, t0);
            return;
        }
    }

    // Budget exhausted: tell the peer we are rolling back (best
    // effort — if the frame is lost, the peer's own deadline lands it
    // in the same TransientFaultError), then escalate.
    auto it = conns.find(peer);
    if (it != conns.end() && it->second.valid()) {
        WireFrame abort;
        abort.type = FrameType::Abort;
        abort.generation = world_.generation;
        abort.seq = wireSeq[peer];
        abort.sender = world_.myWorker;
        abort.receiver = peer;
        writeFrame(it->second, abort, dist.transferDeadlineMs);
    }
    throw TransientFaultError(
        "wire retry budget (" + std::to_string(opts.maxAttempts) +
            " attempts) exhausted for " + transferContext(tag),
        tag.tensor, tag.sender, tag.receiver, tag.trainStep);
}

bool
TcpTransport::expectedData(const WireFrame &f, const TransferTag &tag,
                           std::int64_t peer, std::size_t bytes) const
{
    const auto seq = wireSeq.find(peer);
    return f.type == FrameType::Data &&
           f.generation == world_.generation &&
           f.seq == (seq == wireSeq.end() ? 0 : seq->second) &&
           f.trainStep == tag.trainStep &&
           f.phase == static_cast<std::uint32_t>(tag.phase) &&
           f.temporalStep == static_cast<std::uint32_t>(tag.temporalStep) &&
           f.sender == tag.sender && f.receiver == tag.receiver &&
           f.tensor == tag.tensor && f.channel == tag.channel &&
           f.payload.size() == bytes &&
           checksumBytes(f.payload.data(), f.payload.size()) == f.checksum;
}

void
TcpTransport::sendAck(std::int64_t peer, std::uint64_t seq,
                      FrameStatus status)
{
    WireFrame ack;
    ack.type = FrameType::Ack;
    ack.status = status;
    ack.generation = world_.generation;
    ack.seq = seq;
    ack.sender = world_.myWorker;
    ack.receiver = peer;
    if (writeFrame(conns[peer], ack, dist.transferDeadlineMs) !=
        IoResult::Ok)
        dropPeer(peer);
}

void
TcpTransport::recvWire(const TransferTag &tag, const Tensor &payload,
                       Tensor &dst, std::int64_t peer, Inbound *first)
{
    const double t0 = health ? health->clockUs() : 0.0;
    // Sharded receives pass an empty payload (this process has no
    // local copy of the sender's value); the pre-sized destination
    // then defines the expected element count.
    const std::int64_t elems =
        payload.numel() > 0 ? payload.numel() : dst.numel();
    PRIMEPAR_ASSERT(elems > 0, "wire receive with no sized "
                               "destination for ",
                    tag.tensor);
    const std::size_t payload_bytes =
        static_cast<std::size_t>(elems) * sizeof(float);

    for (int attempt = 0; attempt < opts.maxAttempts; ++attempt) {
        NetSocket &s = ensurePeer(peer, tag);
        WireFrame f;
        IoResult r;
        if (first) {
            r = first->result;
            f = std::move(first->frame);
            first = nullptr;
        } else {
            r = readFrame(s, f, dist.transferDeadlineMs);
        }
        if (r == IoResult::Timeout) {
            if (health)
                health->faultDetected(
                    &RuntimeHealth::dropsDetected,
                    FaultEvent::at(tag, FaultKind::Drop,
                                   "transfer deadline passed (dropped?)",
                                   attempt));
            continue;
        }
        if (r != IoResult::Ok) {
            if (health)
                health->faultDetected(
                    &RuntimeHealth::dropsDetected,
                    FaultEvent::at(tag, FaultKind::NetDrop,
                                   r == IoResult::Closed
                                       ? "connection closed mid-transfer"
                                       : "malformed frame on the wire",
                                   attempt));
            dropPeer(peer);
            continue;
        }
        if (f.type == FrameType::Abort) {
            if (f.seq >= wireSeq[peer]) {
                throw TransientFaultError(
                    "peer worker " + std::to_string(peer) +
                        " aborted at seq " + std::to_string(f.seq) +
                        " during " + transferContext(tag),
                    tag.tensor, tag.sender, tag.receiver,
                    tag.trainStep);
            }
            --attempt; // stale abort does not consume the budget
            continue;
        }
        if (f.type != FrameType::Data)
            continue;

        if (f.generation < world_.generation) {
            if (health)
                health->fenced(FaultEvent::at(
                    tag, FaultKind::None,
                    "fenced frame of stale generation " +
                        std::to_string(f.generation),
                    attempt));
            sendAck(peer, f.seq, FrameStatus::Fenced);
            continue;
        }
        if (f.generation > world_.generation)
            throwFenced(f.generation);

        if (f.seq < wireSeq[peer]) {
            // Duplicate of an already delivered frame (the ack was
            // lost with the connection): re-acknowledge, idempotent.
            sendAck(peer, f.seq, FrameStatus::Ok);
            --attempt;
            continue;
        }
        const bool headerOk =
            f.seq == wireSeq[peer] && f.trainStep == tag.trainStep &&
            f.phase == static_cast<std::uint32_t>(tag.phase) &&
            f.temporalStep ==
                static_cast<std::uint32_t>(tag.temporalStep) &&
            f.sender == tag.sender && f.receiver == tag.receiver &&
            f.tensor == tag.tensor && f.channel == tag.channel;
        if (!headerOk) {
            if (health)
                health->faultDetected(
                    &RuntimeHealth::headerMismatches,
                    FaultEvent::at(tag, FaultKind::Corrupt,
                                   "frame header does not match the "
                                   "expected transfer",
                                   attempt));
            sendAck(peer, f.seq, FrameStatus::Reject);
            continue;
        }
        if (checksumBytes(f.payload.data(), f.payload.size()) !=
            f.checksum) {
            if (health)
                health->faultDetected(
                    &RuntimeHealth::corruptionsDetected,
                    FaultEvent::at(tag, FaultKind::Corrupt,
                                   "payload checksum mismatch", attempt));
            sendAck(peer, f.seq, FrameStatus::Reject);
            continue;
        }
        if (f.payload.size() != payload_bytes) {
            if (health)
                health->faultDetected(
                    &RuntimeHealth::headerMismatches,
                    FaultEvent::at(tag, FaultKind::Corrupt,
                                   "payload size does not match the "
                                   "tensor",
                                   attempt));
            sendAck(peer, f.seq, FrameStatus::Reject);
            continue;
        }

        // Verified: the wire bytes are authoritative — deliver them,
        // not any local copy. An empty payload (sharded) keeps the
        // caller's pre-sized destination shape.
        if (payload.numel() > 0 && dst.shape() != payload.shape())
            dst = Tensor::uninitialized(payload.shape());
        std::memcpy(dst.data(), f.payload.data(), payload_bytes);
        sendAck(peer, f.seq, FrameStatus::Ok);
        ++wireSeq[peer];
        if (health)
            health->transferred(
                tag, static_cast<std::int64_t>(payload_bytes),
                attempt + 1, t0);
        return;
    }

    auto it = conns.find(peer);
    if (it != conns.end() && it->second.valid()) {
        WireFrame abort;
        abort.type = FrameType::Abort;
        abort.generation = world_.generation;
        abort.seq = wireSeq[peer];
        abort.sender = world_.myWorker;
        abort.receiver = peer;
        writeFrame(it->second, abort, dist.transferDeadlineMs);
    }
    throw TransientFaultError(
        "wire receive budget (" + std::to_string(opts.maxAttempts) +
            " attempts) exhausted for " + transferContext(tag),
        tag.tensor, tag.sender, tag.receiver, tag.trainStep);
}

} // namespace primepar
