#include "net.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "errors.hh"
#include "support/logging.hh"

namespace primepar {

namespace {

constexpr std::uint32_t kFrameMagic = 0x50504631u; // "PPF1"
constexpr std::size_t kHeaderBytes = 80;
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 31;
constexpr std::uint32_t kMaxNameBytes = 4096;

/** Monotonic milliseconds for deadline arithmetic. */
std::int64_t
nowMs()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1000 + ts.tv_nsec / 1000000;
}

/** Wait until @p fd is readable; false on timeout/error. */
bool
waitReadable(int fd, int deadline_ms)
{
    struct pollfd pfd{fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, deadline_ms < 0 ? -1 : deadline_ms);
    return r > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR));
}

/** Wait until @p fd is writable; false on timeout/error. */
bool
waitWritable(int fd, int deadline_ms)
{
    struct pollfd pfd{fd, POLLOUT, 0};
    const int r = ::poll(&pfd, 1, deadline_ms < 0 ? -1 : deadline_ms);
    return r > 0 && (pfd.revents & (POLLOUT | POLLHUP | POLLERR));
}

template <typename T>
void
put(std::vector<std::uint8_t> &buf, T v)
{
    const std::uint8_t *p = reinterpret_cast<const std::uint8_t *>(&v);
    buf.insert(buf.end(), p, p + sizeof(T));
}

template <typename T>
T
get(const std::uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

/** The wire bytes of @p f before its payload: header, channel, tensor. */
std::vector<std::uint8_t>
encodeHead(const WireFrame &f)
{
    PRIMEPAR_ASSERT(f.channel.size() <= kMaxNameBytes &&
                        f.tensor.size() <= kMaxNameBytes,
                    "frame name too long");
    std::vector<std::uint8_t> buf;
    buf.reserve(kHeaderBytes + f.channel.size() + f.tensor.size());
    put<std::uint32_t>(buf, kFrameMagic);
    put<std::uint8_t>(buf, static_cast<std::uint8_t>(f.type));
    put<std::uint8_t>(buf, 0); // flags (reserved)
    put<std::uint16_t>(buf,
                       static_cast<std::uint16_t>(f.channel.size()));
    put<std::uint64_t>(buf, f.generation);
    put<std::uint64_t>(buf, f.seq);
    put<std::int64_t>(buf, f.trainStep);
    put<std::uint32_t>(buf, f.phase);
    put<std::uint32_t>(buf, f.temporalStep);
    put<std::int64_t>(buf, f.sender);
    put<std::int64_t>(buf, f.receiver);
    put<std::uint32_t>(buf,
                       static_cast<std::uint32_t>(f.tensor.size()));
    put<std::uint32_t>(buf, static_cast<std::uint32_t>(f.status));
    put<std::uint64_t>(buf,
                       static_cast<std::uint64_t>(f.payload.size()));
    put<std::uint64_t>(buf, f.checksum);
    PRIMEPAR_ASSERT(buf.size() == kHeaderBytes,
                    "frame header layout drifted");
    buf.insert(buf.end(), f.channel.begin(), f.channel.end());
    buf.insert(buf.end(), f.tensor.begin(), f.tensor.end());
    return buf;
}

} // namespace

const char *
ioResultName(IoResult r)
{
    switch (r) {
    case IoResult::Ok:
        return "ok";
    case IoResult::Timeout:
        return "timeout";
    case IoResult::Closed:
        return "closed";
    case IoResult::Malformed:
        return "malformed";
    }
    return "?";
}

void
NetSocket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
NetListener::open(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw RuntimeError(std::string("socket(): ") +
                           std::strerror(errno));
    NetSocket s(fd);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0)
        throw RuntimeError(std::string("bind(127.0.0.1:") +
                           std::to_string(port) +
                           "): " + std::strerror(errno));
    if (::listen(fd, 64) != 0)
        throw RuntimeError(std::string("listen(): ") +
                           std::strerror(errno));
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr *>(&addr),
                      &len) != 0)
        throw RuntimeError(std::string("getsockname(): ") +
                           std::strerror(errno));
    boundPort = ntohs(addr.sin_port);
    sock = std::move(s);
}

NetSocket
NetListener::accept(int deadline_ms)
{
    PRIMEPAR_ASSERT(sock.valid(), "accept on closed listener");
    if (!waitReadable(sock.fd(), deadline_ms))
        return NetSocket();
    const int fd = ::accept(sock.fd(), nullptr, nullptr);
    if (fd < 0)
        return NetSocket();
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return NetSocket(fd);
}

NetSocket
netConnect(const std::string &host, int port, int deadline_ms)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return NetSocket();
    NetSocket s(fd);
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        return NetSocket();

    // Non-blocking connect so the deadline is honored.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    const int rc = ::connect(
        fd, reinterpret_cast<struct sockaddr *>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS)
        return NetSocket();
    if (rc != 0) {
        struct pollfd pfd{fd, POLLOUT, 0};
        if (::poll(&pfd, 1, deadline_ms) <= 0)
            return NetSocket();
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
            err != 0)
            return NetSocket();
    }
    ::fcntl(fd, F_SETFL, flags);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return s;
}

std::vector<std::uint8_t>
encodeFrame(const WireFrame &f)
{
    std::vector<std::uint8_t> buf = encodeHead(f);
    buf.insert(buf.end(), f.payload.begin(), f.payload.end());
    return buf;
}

IoResult
writeFrame(NetSocket &sock, const WireFrame &f, int deadline_ms,
           std::int64_t truncate_to)
{
    FrameWriter w;
    w.start(f, truncate_to);
    const IoResult r = w.finish(sock, deadline_ms);
    if (r != IoResult::Ok)
        return r;
    // A deliberately truncated frame (NetTruncate fault) is a send
    // failure from the caller's point of view: the peer can never
    // consume it.
    return w.truncated() ? IoResult::Closed : IoResult::Ok;
}

IoResult
readFrame(NetSocket &sock, WireFrame &out, int deadline_ms)
{
    FrameReader r;
    return r.finish(sock, out, deadline_ms);
}

void
FrameWriter::start(const WireFrame &f, std::int64_t truncate_to)
{
    head = encodeHead(f);
    payload = f.payload.data();
    total = head.size() + f.payload.size();
    limit = truncate_to >= 0
                ? std::min(total, static_cast<std::size_t>(truncate_to))
                : total;
    sent = 0;
}

IoResult
FrameWriter::step(NetSocket &sock)
{
    if (!sock.valid())
        return IoResult::Closed;
    while (sent < limit) {
        // Header and payload leave in one gather write per wakeup, so
        // a small frame is one segment; the payload is sent in place.
        struct iovec parts[2];
        std::size_t count = 0;
        const std::size_t head_end = std::min(head.size(), limit);
        if (sent < head_end)
            parts[count++] = {head.data() + sent, head_end - sent};
        if (limit > head.size()) {
            const std::size_t from = std::max(sent, head.size()) - head.size();
            parts[count++] = {const_cast<std::uint8_t *>(payload) + from,
                              limit - head.size() - from};
        }
        struct msghdr msg{};
        msg.msg_iov = parts;
        msg.msg_iovlen = count;
        const ssize_t r =
            ::sendmsg(sock.fd(), &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return IoResult::Timeout;
            return IoResult::Closed;
        }
        sent += static_cast<std::size_t>(r);
    }
    return IoResult::Ok;
}

IoResult
FrameWriter::finish(NetSocket &sock, int deadline_ms)
{
    // A peer that stops draining its receive buffer (a stalled or
    // wedged process) would block the write forever; the deadline
    // bounds it the way it bounds a read from a silent sender.
    const std::int64_t deadline_at = nowMs() + deadline_ms;
    for (;;) {
        const IoResult r = step(sock);
        if (r != IoResult::Timeout)
            return r;
        const std::int64_t left = deadline_at - nowMs();
        if (left <= 0 || !waitWritable(sock.fd(), static_cast<int>(left)))
            return IoResult::Timeout;
    }
}

IoResult
FrameReader::step(NetSocket &sock, WireFrame &out)
{
    if (!sock.valid())
        return IoResult::Closed;
    const auto fail = [this](IoResult r) {
        got = total = 0;
        return r;
    };
    for (;;) {
        if (total > 0 && got == total) {
            const std::size_t channel_len = get<std::uint16_t>(hdr + 6);
            frame.channel.assign(names.begin(),
                                 names.begin() +
                                     static_cast<std::ptrdiff_t>(channel_len));
            frame.tensor.assign(names.begin() +
                                    static_cast<std::ptrdiff_t>(channel_len),
                                names.end());
            out = std::move(frame);
            frame = WireFrame{};
            got = total = 0;
            return IoResult::Ok;
        }
        // Read no further than this frame's end.
        std::uint8_t *dst;
        std::size_t want;
        if (got < kHeaderBytes) {
            dst = hdr + got;
            want = kHeaderBytes - got;
        } else if (got < kHeaderBytes + names.size()) {
            dst = names.data() + (got - kHeaderBytes);
            want = kHeaderBytes + names.size() - got;
        } else {
            const std::size_t off = got - kHeaderBytes - names.size();
            dst = frame.payload.data() + off;
            want = frame.payload.size() - off;
        }
        const ssize_t r = ::recv(sock.fd(), dst, want, MSG_DONTWAIT);
        if (r == 0)
            return fail(IoResult::Closed);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return IoResult::Timeout;
            return fail(IoResult::Closed);
        }
        got += static_cast<std::size_t>(r);
        if (got < kHeaderBytes || total > 0)
            continue;

        if (get<std::uint32_t>(hdr) != kFrameMagic)
            return fail(IoResult::Malformed);
        frame.type = static_cast<FrameType>(get<std::uint8_t>(hdr + 4));
        const std::uint16_t channel_len = get<std::uint16_t>(hdr + 6);
        frame.generation = get<std::uint64_t>(hdr + 8);
        frame.seq = get<std::uint64_t>(hdr + 16);
        frame.trainStep = get<std::int64_t>(hdr + 24);
        frame.phase = get<std::uint32_t>(hdr + 32);
        frame.temporalStep = get<std::uint32_t>(hdr + 36);
        frame.sender = get<std::int64_t>(hdr + 40);
        frame.receiver = get<std::int64_t>(hdr + 48);
        const std::uint32_t tensor_len = get<std::uint32_t>(hdr + 56);
        frame.status =
            static_cast<FrameStatus>(get<std::uint32_t>(hdr + 60));
        const std::uint64_t payload_len = get<std::uint64_t>(hdr + 64);
        frame.checksum = get<std::uint64_t>(hdr + 72);
        if (channel_len > kMaxNameBytes || tensor_len > kMaxNameBytes ||
            payload_len > kMaxPayloadBytes)
            return fail(IoResult::Malformed);
        names.resize(channel_len + tensor_len);
        frame.payload.resize(payload_len);
        total = kHeaderBytes + names.size() + payload_len;
    }
}

IoResult
FrameReader::finish(NetSocket &sock, WireFrame &out, int deadline_ms)
{
    const std::int64_t deadline_at = nowMs() + deadline_ms;
    for (;;) {
        const IoResult r = step(sock, out);
        if (r != IoResult::Timeout)
            return r;
        const std::int64_t left = deadline_at - nowMs();
        if (left <= 0 || !waitReadable(sock.fd(), static_cast<int>(left)))
            return IoResult::Timeout;
    }
}

} // namespace primepar
