#include "tcp_transport.hh"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "errors.hh"
#include "observer.hh"
#include "support/logging.hh"
#include "tensor/buffer_pool.hh"

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

/** Per-channel wire codec, with the all-gather pinned to the
 *  identity codec: a gathered slice must reproduce the owner's bytes
 *  exactly (the owner keeps its local copy un-decoded), or a lossy
 *  codec would make a multi-worker gather diverge from a one-worker
 *  run's. */
CodecKind
wireCodec(const TransportOptions &opts, const std::string &channel)
{
    if (channel == "gather")
        return CodecKind::None;
    return opts.codec.forChannel(channel.c_str());
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
    if (health)
        health->workerLost(
            FaultEvent::at(tag, FaultKind::DeviceFail,
                           "worker " + std::to_string(peer) +
                               " unreachable after " +
                               std::to_string(budget) +
                               " connect attempts",
                           0),
            peer, world_.generation,
            "unreachable: connect budget exhausted");
    throw DeviceFailedError(
        "worker " + std::to_string(peer) +
            " (owner of device " + std::to_string(peerDevice) +
            ") is unreachable during " + transferContext(tag),
        tag.tensor, tag.sender, tag.receiver, tag.trainStep,
        peerDevice);
}

TransferReceipt
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
        return {};
    }
    if (senderOwner == receiverOwner) {
        // Both endpoints live here: delegate to the in-process
        // transport.
        return inner->transferInto(tag_in, payload, dst);
    }
    if (world_.myWorker == senderOwner)
        return sendWire(tag, payload, receiverOwner);
    return recvWire(tag, payload, dst, senderOwner);
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

TransferReceipt
TcpTransport::sendWire(const TransferTag &tag, const Tensor &payload,
                       std::int64_t peer)
{
    const double t0 = health ? health->clockUs() : 0.0;
    const CodecKind codec = wireCodec(opts, tag.channel);
    const std::size_t payload_bytes =
        static_cast<std::size_t>(payload.numel()) * sizeof(float);
    Workspace scratch(
        codec != CodecKind::None
            ? static_cast<std::int64_t>(
                  (codecBound(codec, payload.numel()) + 3) / 4)
            : 0);

    for (int attempt = 0; attempt < opts.maxAttempts; ++attempt) {
        if (attempt > 0) {
            if (health)
                health->retried();
            sleepUs(retryBackoffUs(opts, wireSeq[peer], attempt - 1));
        }
        const FaultKind net =
            injector ? injector->decideNet(tag, attempt)
                     : FaultKind::None;
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

        WireFrame f;
        f.type = FrameType::Data;
        f.generation = world_.generation;
        f.seq = wireSeq[peer];
        f.trainStep = tag.trainStep;
        f.phase = static_cast<std::uint32_t>(tag.phase);
        f.temporalStep = static_cast<std::uint32_t>(tag.temporalStep);
        f.sender = tag.sender;
        f.receiver = tag.receiver;
        f.channel = tag.channel;
        f.tensor = tag.tensor;
        if (codec != CodecKind::None) {
            std::uint8_t *const wire =
                reinterpret_cast<std::uint8_t *>(scratch.data());
            const std::size_t wire_bytes = codecEncode(
                codec, payload.data(), payload.numel(), wire);
            f.payload.assign(wire, wire + wire_bytes);
        } else {
            const std::uint8_t *raw =
                reinterpret_cast<const std::uint8_t *>(payload.data());
            f.payload.assign(raw, raw + payload_bytes);
        }
        f.checksum = checksumBytes(f.payload.data(), f.payload.size());

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

        // Await the acknowledgement for this seq.
        bool nextAttempt = false;
        while (!nextAttempt) {
            WireFrame ack;
            const IoResult r =
                readFrame(s, ack, dist.transferDeadlineMs);
            if (r != IoResult::Ok) {
                if (health)
                    health->faultDetected(
                        &RuntimeHealth::dropsDetected,
                        FaultEvent::at(
                            tag, FaultKind::NetDrop,
                            r == IoResult::Timeout
                                ? "ack deadline passed"
                                : "connection lost awaiting ack",
                            attempt));
                dropPeer(peer);
                nextAttempt = true;
                break;
            }
            if (ack.type == FrameType::Abort) {
                if (ack.seq >= wireSeq[peer]) {
                    // The peer rolled its step back; do the same so
                    // both re-issue the identical transfer sequence.
                    throw TransientFaultError(
                        "peer worker " + std::to_string(peer) +
                            " aborted at seq " +
                            std::to_string(ack.seq) + " during " +
                            transferContext(tag),
                        tag.tensor, tag.sender, tag.receiver,
                        tag.trainStep);
                }
                continue; // stale abort
            }
            if (ack.type != FrameType::Ack) {
                dropPeer(peer);
                nextAttempt = true;
                break;
            }
            if (ack.status == FrameStatus::Fenced)
                throwFenced(ack.generation);
            if (ack.seq != f.seq)
                continue; // stale ack of an earlier seq
            if (ack.status == FrameStatus::Reject) {
                if (health)
                    health->faultDetected(
                        &RuntimeHealth::corruptionsDetected,
                        FaultEvent::at(tag, FaultKind::Corrupt,
                                       "receiver rejected frame (NACK)",
                                       attempt));
                nextAttempt = true;
                break;
            }

            // Acknowledged delivery: advance the pair seq. The
            // receiver is the only process materializing this value.
            ++wireSeq[peer];
            const TransferReceipt receipt{
                static_cast<std::int64_t>(payload_bytes),
                static_cast<std::int64_t>(f.payload.size())};
            if (health)
                health->transferred(tag, receipt.rawBytes,
                                    receipt.wireBytes, attempt + 1, t0);
            return receipt;
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

TransferReceipt
TcpTransport::recvWire(const TransferTag &tag, const Tensor &payload,
                       Tensor &dst, std::int64_t peer)
{
    const double t0 = health ? health->clockUs() : 0.0;
    const CodecKind codec = wireCodec(opts, tag.channel);
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

    auto sendAck = [&](NetSocket &s, std::uint64_t seq,
                       FrameStatus status) {
        WireFrame ack;
        ack.type = FrameType::Ack;
        ack.status = status;
        ack.generation = world_.generation;
        ack.seq = seq;
        ack.sender = world_.myWorker;
        ack.receiver = peer;
        if (writeFrame(s, ack, dist.transferDeadlineMs) !=
            IoResult::Ok)
            dropPeer(peer);
    };

    for (int attempt = 0; attempt < opts.maxAttempts; ++attempt) {
        NetSocket &s = ensurePeer(peer, tag);
        WireFrame f;
        const IoResult r = readFrame(s, f, dist.transferDeadlineMs);
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
            sendAck(s, f.seq, FrameStatus::Fenced);
            continue;
        }
        if (f.generation > world_.generation)
            throwFenced(f.generation);

        if (f.seq < wireSeq[peer]) {
            // Duplicate of an already delivered frame (the ack was
            // lost with the connection): re-acknowledge, idempotent.
            sendAck(s, f.seq, FrameStatus::Ok);
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
            sendAck(s, f.seq, FrameStatus::Reject);
            continue;
        }
        if (checksumBytes(f.payload.data(), f.payload.size()) !=
            f.checksum) {
            if (health)
                health->faultDetected(
                    &RuntimeHealth::corruptionsDetected,
                    FaultEvent::at(tag, FaultKind::Corrupt,
                                   "payload checksum mismatch", attempt));
            sendAck(s, f.seq, FrameStatus::Reject);
            continue;
        }
        if (codec == CodecKind::None &&
            f.payload.size() != payload_bytes) {
            if (health)
                health->faultDetected(
                    &RuntimeHealth::headerMismatches,
                    FaultEvent::at(tag, FaultKind::Corrupt,
                                   "payload size does not match the "
                                   "tensor",
                                   attempt));
            sendAck(s, f.seq, FrameStatus::Reject);
            continue;
        }

        // Verified: the wire bytes are authoritative — deliver them,
        // not any local copy. An empty payload (sharded) keeps the
        // caller's pre-sized destination shape.
        if (payload.numel() > 0 && dst.shape() != payload.shape())
            dst = Tensor::uninitialized(payload.shape());
        if (codec != CodecKind::None) {
            codecDecode(codec, f.payload.data(), f.payload.size(),
                        dst.data(), elems);
        } else {
            std::memcpy(dst.data(), f.payload.data(), payload_bytes);
        }
        sendAck(s, f.seq, FrameStatus::Ok);
        ++wireSeq[peer];
        const TransferReceipt receipt{
            static_cast<std::int64_t>(payload_bytes),
            static_cast<std::int64_t>(f.payload.size())};
        if (health)
            health->transferred(tag, receipt.rawBytes, receipt.wireBytes,
                                attempt + 1, t0);
        return receipt;
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
