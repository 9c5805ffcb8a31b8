/**
 * @file
 * Pluggable transport between the SPMD executors and the tensor stores.
 *
 * Every inter-device movement of tensor values — ring shifts,
 * accumulator migrations, transition shifts, grouped all-reduce
 * gathers and broadcasts — goes through a Transport. The default
 * in-process implementation frames each transfer as a message with a
 * sequence number, the training step / phase / temporal step it
 * belongs to, and a checksum of the payload, then verifies all of them
 * on delivery. That turns silent corruption and misordering into
 * *detected* faults that are retried with (simulated) backoff; a
 * retry budget exhausted escalates to TransientFaultError, which the
 * executor answers with a step rollback, and a permanently failed
 * device raises DeviceFailedError for the runtime to degrade on.
 *
 * A FaultInjector, when attached, perturbs messages deterministically
 * (drop / corrupt payload / corrupt header / delay / kill device), so
 * every detection and recovery path is exercised by tests rather than
 * trusted.
 *
 * A transport reports each delivery, detection, retry and device
 * failure once, to the RuntimeHealth it was constructed with
 * (observer.hh), which counts the event and forwards it to the
 * attached observers. That constructor argument is the only way to
 * attach one.
 */

#ifndef PRIMEPAR_RUNTIME_TRANSPORT_HH
#define PRIMEPAR_RUNTIME_TRANSPORT_HH

#include <memory>
#include <set>
#include <vector>

#include "fault.hh"
#include "tensor/tensor.hh"

namespace primepar {

class RuntimeHealth;

/** Behavior knobs of the default transport. Header tags and the
 *  payload checksum are always verified on delivery. */
struct TransportOptions
{
    /** Transfer attempts before escalating to TransientFaultError. */
    int maxAttempts = 4;
    /** Base of the exponential retry backoff. Attempt k waits
     *  base * 2^k scaled by decorrelated jitter (see retryBackoffUs);
     *  InProcessTransport accounts the wait in health, TcpTransport
     *  really sleeps it. */
    double backoffUs = 50.0;
    /** Ceiling of one backoff wait after jitter. */
    double backoffCapUs = 5000.0;
    /** Seed of the deterministic jitter hash (so fault tests replay). */
    std::uint64_t backoffJitterSeed = 0x6a177e5ull;
    /** Emulated per-transfer link latency in microseconds, spent as a
     *  real sleep on the delivering thread. 0 disables (default).
     *  Unlike the checksum/copy cost, in-flight wire time consumes no
     *  host CPU — it is exactly what the async executor hides under
     *  compute. */
    double linkLatencyUs = 0.0;
    /** Emulated link bandwidth in bytes per microsecond (1000 =
     *  1 GB/s); adds payload bytes / linkBytesPerUs of in-flight time
     *  per transfer. <= 0 means an infinitely fast link (default). */
    double linkBytesPerUs = 0.0;
};

/**
 * A contiguous range of device ranks one participant materializes.
 * The default-constructed span means "all devices" — the single-owner
 * mode every single-process transport runs in. A TcpTransport reports
 * the owning worker's slice of the DistWorld placement, and
 * the executors then allocate tensor data, journal snapshots and
 * BufferPool storage only for ranks inside the span (partition tuples
 * stay global: they are a few int64s per device and every transfer
 * endpoint needs them).
 */
struct DeviceSpan
{
    std::int64_t first = 0;
    /** Number of owned ranks; -1 = every device. */
    std::int64_t count = -1;

    bool all() const { return count < 0; }

    bool owns(std::int64_t device) const
    {
        return all() || (device >= first && device < first + count);
    }
};

/**
 * Exponential backoff with decorrelated jitter for retry @p attempt
 * (0-based: the wait before attempt 1 is the first backoff) of the
 * stream identified by @p streamId. The wait is
 * base * 2^attempt scaled into [0.5, 1.0) by a hash of
 * (jitter seed, streamId, attempt), capped at backoffCapUs.
 * Deterministic — the same options and stream replay the same waits —
 * but decorrelated: concurrent streams that failed together do not
 * retry in lockstep.
 */
double retryBackoffUs(const TransportOptions &opts,
                      std::uint64_t streamId, int attempt);

/** One transfer of Transport::exchange: a send of *payload when it
 *  is set, else a receive into the pre-sized *dst. */
struct ExchangeOp
{
    TransferTag tag;
    const Tensor *payload = nullptr; ///< send: the value (not owned)
    Tensor *dst = nullptr;           ///< receive: its slot (not owned)
    bool done = false;               ///< set once delivered
};

/** Moves tensor values between emulated devices. */
class Transport
{
  public:
    virtual ~Transport() = default;

    /**
     * Move one tensor value sender -> receiver, delivering into
     * @p dst (which must not alias @p payload; its storage is reused
     * when the shapes already match, so steady-state transfers touch
     * no allocator). The payload travels as its raw fp32 bytes.
     * Throws TransientFaultError when the retry budget is exhausted
     * and DeviceFailedError when an endpoint is dead; on throw @p dst
     * is unspecified and the caller's journal rollback discards it.
     */
    virtual void transferInto(const TransferTag &tag,
                              const Tensor &payload, Tensor &dst) = 0;

    /**
     * Run every op of @p ops not yet done — one collective, e.g. an
     * all-gather — marking each done once delivered. @p ops is in the
     * order every participant lists it, so each pair of endpoints sees
     * its transfers in the same order on both ends. The default issues
     * one transferInto per op in list order; a transport may overlap
     * ops of different pairs (see TcpTransport::exchange). On
     * TransientFaultError the done ops stay delivered: the caller rolls
     * back and calls again with the same list, which re-issues only
     * the rest.
     */
    virtual void exchange(std::vector<ExchangeOp> &ops);

    /** Convenience wrapper returning the delivered copy. */
    Tensor transfer(const TransferTag &tag, const Tensor &payload)
    {
        Tensor out;
        transferInto(tag, payload, out);
        return out;
    }

    /** Advance the training-step counter stamped on every message. */
    virtual void beginStep(std::int64_t step) { (void)step; }

    /** True when faults can occur, i.e. the executor should journal
     *  temporal steps for rollback. */
    virtual bool faultTolerant() const { return false; }

    /** Device ranks this participant materializes locally. The
     *  default span owns every rank (single-owner execution); a
     *  multi-process transport narrows it to the local worker's
     *  placement slice and the executors skip allocating data for
     *  the rest. */
    virtual DeviceSpan ownedDevices() const { return {}; }

    /** The other participants' owned spans (empty when this transport
     *  is the only participant). Used by the executors to address
     *  all-gather traffic at one representative rank per peer. */
    virtual std::vector<DeviceSpan> peerSpans() const { return {}; }
};

/**
 * The default transport: in-process value copies framed with
 * seq/step/checksum verification, optional fault injection, and retry-with-backoff. Transfers are
 * issued one at a time — from the executor's serial barrier sections,
 * or from its single comm worker while compute overlaps, with a join
 * between the two regimes — never concurrently, so no internal
 * locking is needed and the injected fault pattern is deterministic
 * at any thread count.
 */
class InProcessTransport : public Transport
{
  public:
    /** @p health receives every event (not owned; nullptr = none). */
    explicit InProcessTransport(
        TransportOptions opts = {},
        std::shared_ptr<FaultInjector> injector = nullptr,
        RuntimeHealth *health = nullptr);

    void transferInto(const TransferTag &tag, const Tensor &payload,
                      Tensor &dst) override;

    void beginStep(std::int64_t step) override { trainStep = step; }

    bool faultTolerant() const override { return injector != nullptr; }

    const std::set<std::int64_t> &deadDevices() const { return dead; }

  private:
    TransportOptions opts;
    std::shared_ptr<FaultInjector> injector;
    RuntimeHealth *health = nullptr;
    std::int64_t trainStep = 0;
    std::uint64_t nextSeq = 0;
    std::set<std::int64_t> dead;
};

} // namespace primepar

#endif // PRIMEPAR_RUNTIME_TRANSPORT_HH
