#include "transport.hh"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "errors.hh"
#include "observer.hh"
#include "support/logging.hh"
#include "tensor/buffer_pool.hh"

namespace primepar {

namespace {

/** The wire framing of one in-process message. The payload itself is
 *  materialized directly in the receiver's buffer. */
struct Message
{
    std::uint64_t seq = 0;
    std::int64_t trainStep = 0;
    int phase = 0;
    int temporalStep = 0;
    std::uint64_t checksum = 0;
};

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

} // namespace

double
retryBackoffUs(const TransportOptions &opts, std::uint64_t streamId,
               int attempt)
{
    if (opts.backoffUs <= 0.0 || attempt < 0)
        return 0.0;
    // splitmix64 of (seed, stream, attempt) -> jitter in [0.5, 1.0).
    std::uint64_t x =
        opts.backoffJitterSeed ^ (streamId * 0x9e3779b97f4a7c15ull) ^
        (static_cast<std::uint64_t>(attempt) + 1);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    const double jitter =
        0.5 + 0.5 * (static_cast<double>(x >> 11) / 9007199254740992.0);
    const int exp = attempt < 30 ? attempt : 30;
    const double wait =
        opts.backoffUs * static_cast<double>(1u << exp) * jitter;
    return opts.backoffCapUs > 0.0 ? std::min(wait, opts.backoffCapUs)
                                   : wait;
}

InProcessTransport::InProcessTransport(
    TransportOptions opts_in, std::shared_ptr<FaultInjector> injector_in,
    RuntimeHealth *health_in)
    : opts(opts_in), injector(std::move(injector_in)), health(health_in)
{
    PRIMEPAR_ASSERT(opts.maxAttempts >= 1,
                    "transport needs at least one attempt");
}

TransferReceipt
InProcessTransport::transferInto(const TransferTag &tag_in,
                                 const Tensor &payload, Tensor &dst)
{
    TransferTag tag = tag_in;
    tag.trainStep = trainStep;
    const CodecKind codec = opts.codec.forChannel(tag.channel);

    auto failDevice = [&](std::int64_t device) -> void {
        dead.insert(device);
        if (health)
            health->faultDetected(
                &RuntimeHealth::deviceFailures,
                FaultEvent::at(tag, FaultKind::DeviceFail,
                               "permanent device failure", 0));
        throw DeviceFailedError(
            "device " + std::to_string(device) +
                " failed permanently during " + transferContext(tag),
            tag.tensor, tag.sender, tag.receiver, tag.trainStep,
            device);
    };

    if (dead.count(tag.sender))
        failDevice(tag.sender);
    if (dead.count(tag.receiver))
        failDevice(tag.receiver);

    const std::size_t payload_bytes =
        static_cast<std::size_t>(payload.numel()) * sizeof(float);
    const double t0 = health ? health->clockUs() : 0.0;

    // Pooled scratch holding the encoded stream when this channel has
    // a codec; the steady state recycles the same buffer every step.
    Workspace scratch(
        codec != CodecKind::None
            ? static_cast<std::int64_t>(
                  (codecBound(codec, payload.numel()) + 3) / 4)
            : 0);
    std::uint8_t *const wire =
        reinterpret_cast<std::uint8_t *>(scratch.data());
    std::size_t wire_bytes = payload_bytes;

    for (int attempt = 0; attempt < opts.maxAttempts; ++attempt) {
        // The previous attempt failed a check: account its backoff.
        if (attempt > 0 && health)
            health->retried(retryBackoffUs(opts, nextSeq, attempt - 1));
        const FaultKind fault =
            injector ? injector->decide(tag, attempt) : FaultKind::None;

        if (fault == FaultKind::DeviceFail) {
            // The fault hits whichever endpoint the schedule named;
            // default to the sender for probability-driven failures.
            failDevice(tag.sender);
        }
        if (fault == FaultKind::Drop) {
            // The message never arrives; the receiver times out.
            if (health)
                health->faultDetected(
                    &RuntimeHealth::dropsDetected,
                    FaultEvent::at(tag, fault,
                                   "transfer timed out (dropped)",
                                   attempt));
            continue;
        }

        // Build the message. Codec-free path: one payload copy into
        // the receiver's buffer (exactly what the transport-free path
        // performed) plus the header; the send checksum is computed
        // inside the copy pass, so the payload is read from memory
        // once, not twice, and a same-shape destination recycles its
        // storage. Codec path: encode into the wire scratch — the
        // encoded bytes are the message body, so they are what gets
        // checksummed, corrupted, verified, and only then decoded.
        Message msg;
        msg.seq = nextSeq;
        msg.trainStep = tag.trainStep;
        msg.phase = static_cast<int>(tag.phase);
        msg.temporalStep = tag.temporalStep;
        if (codec != CodecKind::None) {
            // Re-encoded per attempt so a corrupted retry starts from
            // pristine bytes; extra attempts only occur under injected
            // faults.
            wire_bytes = codecEncode(codec, payload.data(),
                                     payload.numel(), wire);
            msg.checksum = checksumBytes(wire, wire_bytes);
        } else {
            if (dst.shape() != payload.shape())
                dst = Tensor::uninitialized(payload.shape());
            msg.checksum = checksumCopyBytes(
                dst.data(), payload.data(), payload_bytes);
        }

        if (fault == FaultKind::Delay) {
            // Straggler: delivery succeeds but late. Track the delay;
            // the simulator's FaultSimModel mirrors it in latency.
            if (health)
                health->faultDetected(
                    &RuntimeHealth::stragglers,
                    FaultEvent::at(tag, fault, "straggling transfer",
                                   attempt),
                    8.0 * opts.backoffUs);
        } else if (fault == FaultKind::Corrupt) {
            // Corrupt either the payload or the header tags — the low
            // hash bit picks which, so both detection paths run. With
            // a codec the *encoded* bytes are flipped: detection must
            // work on what the wire actually carries.
            const bool header = (msg.seq ^ static_cast<std::uint64_t>(
                                               attempt)) & 1;
            if (header || payload_bytes == 0 ||
                (codec != CodecKind::None && wire_bytes == 0)) {
                msg.trainStep ^= 0x40;
                msg.seq ^= 0x1000;
            } else if (codec != CodecKind::None) {
                wire[msg.seq % wire_bytes] ^= 0x2a;
            } else {
                const std::int64_t victim =
                    static_cast<std::int64_t>(msg.seq) % dst.numel();
                dst.data()[victim] += 1.0f;
            }
        }

        // ---- Delivery-side verification ----
        if (msg.trainStep != tag.trainStep || msg.seq != nextSeq ||
            msg.phase != static_cast<int>(tag.phase) ||
            msg.temporalStep != tag.temporalStep) {
            if (health)
                health->faultDetected(
                    &RuntimeHealth::headerMismatches,
                    FaultEvent::at(tag, fault,
                                   "stale or misordered message rejected",
                                   attempt));
            continue;
        }
        const std::uint64_t got =
            codec != CodecKind::None
                ? checksumBytes(wire, wire_bytes)
                : checksumBytes(dst.data(), payload_bytes);
        if (got != msg.checksum) {
            if (health)
                health->faultDetected(
                    &RuntimeHealth::corruptionsDetected,
                    FaultEvent::at(tag, fault, "payload checksum mismatch",
                                   attempt));
            continue;
        }

        // Verified frame: unpack the encoded stream into the
        // receiver's buffer (every element is written, so recycled
        // pool storage needs no zeroing).
        if (codec != CodecKind::None) {
            if (dst.shape() != payload.shape())
                dst = Tensor::uninitialized(payload.shape());
            codecDecode(codec, wire, wire_bytes, dst.data(),
                        payload.numel());
        }

        // Emulated wire time: latency plus serialization of the
        // post-codec bytes. Spent as a real sleep — a link's
        // in-flight time costs no host CPU, which is precisely the
        // window the async executor's compute can fill.
        if (opts.linkLatencyUs > 0.0 || opts.linkBytesPerUs > 0.0) {
            double us = std::max(0.0, opts.linkLatencyUs);
            if (opts.linkBytesPerUs > 0.0)
                us += static_cast<double>(wire_bytes) /
                      opts.linkBytesPerUs;
            if (us > 0.0) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::micro>(us));
            }
        }

        ++nextSeq;
        const TransferReceipt receipt{
            static_cast<std::int64_t>(payload_bytes),
            static_cast<std::int64_t>(wire_bytes)};
        if (health)
            health->transferred(tag, receipt.rawBytes, receipt.wireBytes,
                                attempt + 1, t0);
        return receipt;
    }

    throw TransientFaultError(
        "retry budget (" + std::to_string(opts.maxAttempts) +
            " attempts) exhausted for " + transferContext(tag),
        tag.tensor, tag.sender, tag.receiver, tag.trainStep);
}

} // namespace primepar
