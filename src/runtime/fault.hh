/**
 * @file
 * Fault taxonomy, deterministic fault injection, and the payload
 * checksum.
 *
 * PrimePar's spatial-temporal primitive makes every training step a
 * long chain of per-step ring shifts and grouped all-reduces, so the
 * runtime must *verify* its communication substrate rather than assume
 * it. This module provides:
 *
 *  - the fault taxonomy (drop, corrupt, delay/straggler, permanent
 *    device failure) and a parseable FaultSpec combining per-kind
 *    probabilities with an explicit (step, device) schedule;
 *  - FaultInjector, a seedable injector whose probabilistic decisions
 *    are a pure hash of (seed, transfer identity, attempt), so a fault
 *    pattern replays identically at any thread count;
 *  - FaultEvent, one logged detection or recovery, and GuardOptions,
 *    the NaN/Inf/explosion guard's settings (RuntimeHealth, the sink
 *    both feed, lives in observer.hh);
 *  - the payload checksum the transports verify on delivery.
 */

#ifndef PRIMEPAR_RUNTIME_FAULT_HH
#define PRIMEPAR_RUNTIME_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "partition/op_spec.hh"

namespace primepar {

/**
 * What can go wrong with one transfer. The first group is the classic
 * in-process taxonomy; the Net* group models socket-level faults that
 * only the distributed TcpTransport can enact (a dropped connection, a
 * stalled link, a frame cut short mid-write), and WorkerKill makes a
 * whole worker process exit abruptly so liveness detection and
 * survivor re-planning are exercised for real.
 */
enum class FaultKind {
    None,
    Drop,
    Corrupt,
    Delay,
    DeviceFail,
    NetDrop,     ///< close the connection before sending
    NetDelay,    ///< stall the send past the transfer deadline budget
    NetTruncate, ///< write a partial frame, then close
    WorkerKill,  ///< the owning worker process exits immediately
};

const char *faultKindName(FaultKind kind);

/** Identity of one transfer attempt, as seen by the transport. */
struct TransferTag
{
    std::string tensor;         ///< logical tensor name ("W", "dO"...)
    const char *channel = "";   ///< "ring" | "acc" | "allreduce"
    Phase phase = Phase::Forward;
    int temporalStep = 0;       ///< t within the pass
    std::int64_t sender = 0;
    std::int64_t receiver = 0;
    std::int64_t trainStep = 0; ///< stamped by the transport
};

/** One explicitly scheduled fault. */
struct ScheduledFault
{
    FaultKind kind = FaultKind::None;
    /** Training step to fire at; -1 matches any step. */
    std::int64_t step = -1;
    /** Device (sender or receiver) to hit; -1 matches any device. */
    std::int64_t device = -1;
    /** Matching transfer attempts left to hit. Setting this to the
     *  transport's retry budget forces a step rollback; the default 1
     *  is absorbed by an in-transport retry. */
    int fires = 1;
};

/** Complete fault-injection configuration. */
struct FaultSpec
{
    double dropProb = 0.0;
    double corruptProb = 0.0;
    double delayProb = 0.0;
    /** Socket-level probabilities, enacted by the wire *sender* only
     *  (so the deterministic decision is made exactly once per
     *  attempt, by one process). No-ops on InProcessTransport. */
    double netDropProb = 0.0;
    double netDelayProb = 0.0;
    double netTruncateProb = 0.0;
    std::uint64_t seed = 0x5eedf417ull;
    std::vector<ScheduledFault> schedule;

    /** True if any fault can ever fire. */
    bool enabled() const;

    /**
     * Parse a --fault-spec string, e.g.
     *   "drop=0.01,corrupt=0.005,delay=0.02,seed=7"
     *   "netdrop=0.01,nettrunc=0.005,netdelay=0.02"
     *   "fail@step=3:dev=2"  "corrupt@step=5:dev=1:fires=4"
     *   "kill@step=4:dev=1"  (dev = worker id, distributed runs only)
     * Comma-separated tokens; `kind@key=value:key=value` schedules a
     * fault, plain `key=value` sets a probability or the seed.
     * Throws InputError on malformed input.
     */
    static FaultSpec parse(const std::string &text);

    std::string toString() const;
};

/**
 * Deterministic, seedable fault source consulted by the transport for
 * every transfer attempt. Probabilistic decisions are pure hashes;
 * scheduled faults consume their `fires` budget in transfer order
 * (transfers happen in the executor's serial barrier sections, so the
 * order — and therefore the injected pattern — is deterministic).
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultSpec spec) : spec_(std::move(spec)) {}

    /** Decide the fate of one transfer attempt (classic kinds). */
    FaultKind decide(const TransferTag &tag, int attempt);

    /**
     * Decide the socket-level fate of one wire transfer attempt.
     * Called by the TcpTransport *sender* only, exactly once per
     * attempt, so scheduled net-fault budgets are consumed by the one
     * process that enacts them. Returns None or a Net* kind.
     */
    FaultKind decideNet(const TransferTag &tag, int attempt);

    /**
     * True if a scheduled `kill@step=S:dev=W` fault matches (and
     * consumes its budget). Checked by each worker at the start of a
     * training step against its own worker id.
     */
    bool consumeWorkerKill(std::int64_t step, std::int64_t worker);

    const FaultSpec &spec() const { return spec_; }

  private:
    FaultSpec spec_;
};

/** One noteworthy event, kept in RuntimeHealth's bounded log. */
struct FaultEvent
{
    FaultKind kind = FaultKind::None;
    std::string detail;
    std::string tensor;
    std::int64_t step = 0;
    std::int64_t sender = -1;
    std::int64_t receiver = -1;
    int attempt = 0;

    /** The @p kind event of attempt @p attempt of transfer @p tag. */
    static FaultEvent
    at(const TransferTag &tag, FaultKind kind, std::string detail,
       int attempt)
    {
        return {kind,       std::move(detail), tag.tensor, tag.trainStep,
                tag.sender, tag.receiver,      attempt};
    }
};

/** Numeric anomaly guard configuration (RuntimeHealth::guard). */
struct GuardOptions
{
    bool enabled = true;
    /** |x| beyond this counts as an explosion. */
    float explosionThreshold = 1e6f;
};

/**
 * Fast 64-bit checksum over a byte range: eight additive 64-bit lanes
 * (TCP-style, so the hot loop vectorizes to near-memcpy throughput)
 * mixed through an FNV avalanche. Order-insensitive within a lane —
 * transfer ordering is protected by the message header tags, not the
 * payload checksum. Any single corrupted word is always detected.
 */
std::uint64_t checksumBytes(const void *data, std::size_t bytes);

/**
 * Copy @p bytes from @p src to @p dst and return the checksum of the
 * copied bytes in one fused pass — same result as checksumBytes(src),
 * but the data is only read from memory once. This is the transport's
 * send path: a separate checksum pass over a multi-megabyte payload
 * would double its memory traffic.
 */
std::uint64_t checksumCopyBytes(void *dst, const void *src,
                                std::size_t bytes);

} // namespace primepar

#endif // PRIMEPAR_RUNTIME_FAULT_HH
