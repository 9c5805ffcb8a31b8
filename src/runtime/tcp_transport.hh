/**
 * @file
 * The multi-process transport: sharded SPMD over real sockets.
 *
 * ## Execution model
 *
 * Every worker process runs the *same* deterministic training step —
 * batches are a pure function of (seed, step) — and each worker *owns*
 * a contiguous device range (DistWorld). A transfer whose endpoints
 * are owned by the same worker is delegated to an internal
 * InProcessTransport. A transfer whose endpoints are owned by
 * *different* workers really crosses TCP: the sender's owner encodes
 * and ships the payload, the receiver's owner delivers the wire bytes
 * as authoritative (it does not shortcut to a local copy — that is
 * what makes the checksum, sequence numbers and generation fencing
 * load-bearing, and the bit-identical-to-InProcess acceptance test a
 * real test).
 *
 * Each worker materializes tensor data only for its owned ranks
 * (Transport::ownedDevices narrows the executors' span), so per-worker
 * resident memory shrinks as W grows. Transfers between two other workers do
 * not involve this process at all; gathers of full tensors all-gather
 * the non-local slices over the codec-exempt "gather" channel, so
 * gathered bytes equal the owners' exactly. A one-worker run owns
 * every device and is the bit-identity oracle for multi-worker runs.
 *
 * ## Lockstep rollback
 *
 * Transfers are issued serially in the same global order by every
 * worker, so each wire transfer is a rendezvous of exactly two
 * processes. The wire sequence number per peer pair advances only on
 * acknowledged delivery, identically on both ends. When one side
 * exhausts its retry budget it best-effort sends an Abort frame and
 * throws TransientFaultError; its peer either sees the Abort (and
 * throws too) or times out into the same error. Both roll the temporal
 * step back through the executor journal and re-issue the identical
 * transfer sequence, so the wire seqs realign without negotiation.
 *
 * ## Failure escalation
 *
 *   socket timeout / closed / NACK .. retry (jittered exp. backoff)
 *   retry budget exhausted .......... Abort + TransientFaultError
 *   reconnect budget exhausted ...... DeviceFailedError(peer device)
 *   stale generation (either side) .. FencedWorkerError / Ack(Fenced)
 *
 * so SpmdOpExecutor's journal rollback and BlockTrainer's
 * degrade-and-restore drive recovery across processes unchanged.
 */

#ifndef PRIMEPAR_RUNTIME_TCP_TRANSPORT_HH
#define PRIMEPAR_RUNTIME_TCP_TRANSPORT_HH

#include <map>
#include <memory>

#include "net.hh"
#include "options.hh"
#include "support/json.hh"
#include "transport.hh"

namespace primepar {

/** One worker's placement in the distributed job. */
struct WorkerInfo
{
    std::int64_t worker = 0;
    std::string host = "127.0.0.1";
    int port = 0;             ///< the worker's data-plane listener
    std::int64_t firstDevice = 0;
    std::int64_t numDevices = 0;
};

/**
 * The distributed job's world: who participates, which contiguous
 * device range each worker owns, and the generation number that fences
 * superseded processes. Serialized over the control plane as JSON.
 */
struct DistWorld
{
    std::uint64_t generation = 0;
    std::int64_t myWorker = 0; ///< local only; not serialized
    int numBits = 0;           ///< 2^numBits devices in this generation
    std::vector<WorkerInfo> workers; ///< ascending worker id

    /** Owning worker of @p device; -1 when unplaced. */
    std::int64_t ownerOf(std::int64_t device) const;

    const WorkerInfo *find(std::int64_t worker) const;

    JsonValue toJson() const;
    /** Parse; myWorker is left at 0 for the caller to fill. Throws
     *  InputError on a malformed document. */
    static DistWorld fromJson(const JsonValue &v);

    /** Contiguous placement of 2^bits devices over @p workers (their
     *  first/numDevice fields are overwritten in id order). */
    static void placeDevices(std::vector<WorkerInfo> &workers, int bits);
};

/**
 * Transport implementation over TCP (see file comment). Not
 * thread-safe by design: the executors issue transfers one at a time,
 * which is also what makes the global transfer order a lockstep
 * rendezvous.
 */
class TcpTransport : public Transport
{
  public:
    /**
     * @p listener is the worker's data-plane listener (not owned; it
     * outlives transport rebuilds so the port registered with the
     * coordinator stays valid across re-plans). @p health receives
     * every wire and in-process event (not owned; nullptr = none).
     */
    TcpTransport(TransportOptions opts, DistOptions dist,
                 DistWorld world, NetListener *listener,
                 std::shared_ptr<FaultInjector> injector = nullptr,
                 RuntimeHealth *health = nullptr);
    ~TcpTransport() override;

    TransferReceipt transferInto(const TransferTag &tag,
                                 const Tensor &payload,
                                 Tensor &dst) override;

    /**
     * Advance the step counter; also where a scheduled
     * `kill@step=S:dev=<worker>` fault fires — the process exits
     * immediately (std::_Exit), modeling abrupt worker death.
     */
    void beginStep(std::int64_t step) override;

    /** Real sockets can always fail: journaling is always on. */
    bool faultTolerant() const override { return true; }

    /** The local worker's contiguous DistWorld slice — the executors
     *  materialize tensor data only for those ranks. */
    DeviceSpan ownedDevices() const override;

    /** The other alive workers' placement slices in world order. */
    std::vector<DeviceSpan> peerSpans() const override;

    const DistWorld &world() const { return world_; }

  private:
    NetSocket &ensurePeer(std::int64_t peer, const TransferTag &tag);
    void dropPeer(std::int64_t peer);
    TransferReceipt sendWire(const TransferTag &tag,
                             const Tensor &payload, std::int64_t peer);
    TransferReceipt recvWire(const TransferTag &tag,
                             const Tensor &payload, Tensor &dst,
                             std::int64_t peer);
    void throwFenced(std::uint64_t theirGeneration);

    TransportOptions opts;
    DistOptions dist;
    DistWorld world_;
    NetListener *listener;
    std::shared_ptr<FaultInjector> injector;
    RuntimeHealth *health = nullptr;
    std::int64_t trainStep = 0;
    /** Per-peer wire sequence, advanced on acknowledged delivery. */
    std::map<std::int64_t, std::uint64_t> wireSeq;
    std::map<std::int64_t, NetSocket> conns;
    /** Accepted-but-unexpected connections, keyed by Hello sender. */
    std::map<std::int64_t, NetSocket> stash;
    std::map<std::int64_t, bool> everConnected;
    /** Transfers with both endpoints on this worker route through
     *  this, so classic injected faults behave as in-process. */
    std::unique_ptr<InProcessTransport> inner;
};

} // namespace primepar

#endif // PRIMEPAR_RUNTIME_TCP_TRANSPORT_HH
