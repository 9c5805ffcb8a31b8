/**
 * @file
 * Minimal POSIX socket layer for the distributed runtime.
 *
 * Everything the TcpTransport and the Coordinator put on a wire is one
 * *frame*: a fixed 80-byte header (magic, type, generation, seq, the
 * TransferTag identity fields, payload length, payload checksum)
 * followed by two short strings (channel, tensor/verb) and the payload
 * bytes. Length-prefixed framing over a byte stream means a truncated
 * or half-open connection is always *detected* — a read either yields
 * a complete frame, times out, or reports the stream closed — and the
 * caller maps each outcome onto the existing fault taxonomy instead of
 * hanging.
 *
 * All reads and writes take a deadline (poll + recv / poll + send).
 * The protocol never has both ends of a connection blocked writing to
 * each other (data frames are acknowledged one at a time), but a
 * stalled peer that stops draining its receive buffer would otherwise
 * wedge a sender forever — the write deadline turns that into a
 * Timeout the caller maps onto the transient-fault path. Byte order is
 * host order: the emulated cluster spans processes on one
 * architecture, and the header magic doubles as an endianness check.
 */

#ifndef PRIMEPAR_RUNTIME_NET_HH
#define PRIMEPAR_RUNTIME_NET_HH

#include <cstdint>
#include <string>
#include <vector>

namespace primepar {

/** Outcome of one socket operation with a deadline. */
enum class IoResult { Ok, Timeout, Closed, Malformed };

const char *ioResultName(IoResult r);

/** RAII file-descriptor wrapper (move-only). */
class NetSocket
{
  public:
    NetSocket() = default;
    explicit NetSocket(int fd_in) : fd_(fd_in) {}
    ~NetSocket() { close(); }

    NetSocket(NetSocket &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }
    NetSocket &
    operator=(NetSocket &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }
    NetSocket(const NetSocket &) = delete;
    NetSocket &operator=(const NetSocket &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }
    void close();

  private:
    int fd_ = -1;
};

/** Listening TCP socket bound to 127.0.0.1 (port 0 = ephemeral). */
class NetListener
{
  public:
    NetListener() = default;

    /** Bind + listen; throws RuntimeError on failure. */
    void open(int port = 0);

    bool valid() const { return sock.valid(); }
    /** The actually bound port (after open). */
    int port() const { return boundPort; }

    /** Accept one connection within @p deadline_ms; an invalid socket
     *  means the deadline passed. */
    NetSocket accept(int deadline_ms);

  private:
    NetSocket sock;
    int boundPort = 0;
};

/** Connect to host:port within @p deadline_ms; invalid on failure. */
NetSocket netConnect(const std::string &host, int port,
                     int deadline_ms);

/** Frame types of the distributed runtime's single wire format. */
enum class FrameType : std::uint8_t {
    Hello = 1,     ///< data-plane handshake (sender = worker id)
    HelloAck = 2,  ///< handshake accepted
    Data = 3,      ///< one tensor transfer (payload = raw fp32 bytes)
    Ack = 4,       ///< answer to Data (status field)
    Heartbeat = 5, ///< worker liveness beacon (control plane)
    Ctrl = 6,      ///< control request (tensor = verb, payload = JSON)
    CtrlResp = 7,  ///< control response (tensor = verb, payload = JSON)
    Abort = 8,     ///< "I am rolling this step back" (seq = where)
};

/** Ack / handshake status codes. */
enum class FrameStatus : std::uint32_t {
    Ok = 0,
    Reject = 1, ///< frame verification failed, retransmit
    Fenced = 2, ///< your generation is stale — stop participating
};

/**
 * One wire frame. Data frames carry the full TransferTag identity so
 * the receiver verifies *what* arrived against what it expects, not
 * just that bytes arrived; control frames reuse `tensor` as the verb
 * and `payload` as a JSON body.
 */
struct WireFrame
{
    FrameType type = FrameType::Data;
    FrameStatus status = FrameStatus::Ok;
    std::uint64_t generation = 0;
    std::uint64_t seq = 0;
    std::int64_t trainStep = 0;
    std::uint32_t phase = 0;
    std::uint32_t temporalStep = 0;
    std::int64_t sender = 0;   ///< device id (worker id on ctrl plane)
    std::int64_t receiver = 0; ///< device id
    std::string channel;
    std::string tensor;
    std::uint64_t checksum = 0; ///< of payload bytes
    std::vector<std::uint8_t> payload;
};

/** Serialize @p f into its wire bytes. */
std::vector<std::uint8_t> encodeFrame(const WireFrame &f);

/** Default bound on one frame write when the caller has no tighter
 *  deadline — large enough for any healthy peer, finite so a stalled
 *  one cannot wedge a sender forever. */
constexpr int kDefaultWriteDeadlineMs = 30000;

/**
 * Write one frame within @p deadline_ms. Timeout means the peer
 * stopped draining its receive buffer before the frame fit (a stalled
 * process — the write-side analogue of a silent sender); Closed covers
 * socket errors. @p truncate_to, when >= 0, deliberately stops after
 * that many bytes of the encoding (the NetTruncate fault: the receiver
 * must detect the short frame when the connection closes, never
 * consume it) and reports Closed.
 */
IoResult writeFrame(NetSocket &sock, const WireFrame &f,
                    int deadline_ms = kDefaultWriteDeadlineMs,
                    std::int64_t truncate_to = -1);

/**
 * Read one complete frame within @p deadline_ms. Malformed means the
 * stream produced bytes that cannot be a frame (bad magic, insane
 * lengths) — the connection is unusable and should be dropped.
 */
IoResult readFrame(NetSocket &sock, WireFrame &out, int deadline_ms);

/**
 * One frame written piecewise, so a poll loop can feed several sockets
 * without blocking on any. The payload leaves from the frame passed to
 * start(), which must outlive the write. writeFrame() is start() plus
 * finish().
 */
class FrameWriter
{
  public:
    /** Encode @p f's header; @p truncate_to as in writeFrame(). */
    void start(const WireFrame &f, std::int64_t truncate_to = -1);

    /** True once any byte of the frame has left: the socket then
     *  holds part of a frame until the rest follows. */
    bool started() const { return sent > 0; }
    bool done() const { return sent == limit; }
    /** The frame stops short of its end (the NetTruncate fault). */
    bool truncated() const { return limit < total; }

    /** Send what the socket takes now: Ok once the frame is out,
     *  Timeout while some of it is left, Closed on a socket error. */
    IoResult step(NetSocket &sock);

    /** Send the rest within @p deadline_ms. */
    IoResult finish(NetSocket &sock, int deadline_ms);

  private:
    std::vector<std::uint8_t> head;
    const std::uint8_t *payload = nullptr;
    std::size_t sent = 0, limit = 0, total = 0;
};

/**
 * One frame read piecewise (the reading side of FrameWriter). It never
 * reads past the frame's end, so the next frame stays in the socket
 * for whoever reads next. readFrame() is finish() on a fresh reader.
 */
class FrameReader
{
  public:
    /** True once any byte of the next frame has been consumed. */
    bool started() const { return got > 0; }

    /** Read what the socket holds of the frame: Ok with @p out filled
     *  once it is complete, Timeout while it is not, Closed or
     *  Malformed as readFrame(). */
    IoResult step(NetSocket &sock, WireFrame &out);

    /** Read the rest within @p deadline_ms. */
    IoResult finish(NetSocket &sock, WireFrame &out, int deadline_ms);

  private:
    std::uint8_t hdr[80]; ///< the fixed header (see file comment)
    std::vector<std::uint8_t> names;
    WireFrame frame;
    std::size_t got = 0, total = 0;
};

} // namespace primepar

#endif // PRIMEPAR_RUNTIME_NET_HH
