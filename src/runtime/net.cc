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

/** Read exactly @p n bytes before the deadline. */
IoResult
readExact(int fd, std::uint8_t *out, std::size_t n,
          std::int64_t deadline_at)
{
    std::size_t got = 0;
    while (got < n) {
        const std::int64_t left = deadline_at - nowMs();
        if (left <= 0)
            return IoResult::Timeout;
        if (!waitReadable(fd, static_cast<int>(left)))
            return IoResult::Timeout;
        const ssize_t r = ::recv(fd, out + got, n - got, 0);
        if (r == 0)
            return IoResult::Closed;
        if (r < 0) {
            if (errno == EINTR || errno == EAGAIN)
                continue;
            return IoResult::Closed;
        }
        got += static_cast<std::size_t>(r);
    }
    return IoResult::Ok;
}

/**
 * Write the @p count buffers of @p parts back to back, in full, before
 * the deadline (one gather write per wakeup, so a frame's header and
 * payload leave in one segment). A peer that stops draining its
 * receive buffer (a stalled or wedged process) makes sendmsg() block /
 * return EAGAIN forever; the deadline bounds that the same way
 * readExact bounds a silent sender, so the caller maps the outcome
 * onto the fault taxonomy instead of hanging.
 */
IoResult
writeExact(int fd, struct iovec *parts, int count, std::int64_t deadline_at)
{
    while (count > 0 && parts->iov_len == 0) {
        ++parts;
        --count;
    }
    while (count > 0) {
        const std::int64_t left = deadline_at - nowMs();
        if (left <= 0)
            return IoResult::Timeout;
        if (!waitWritable(fd, static_cast<int>(left)))
            return IoResult::Timeout;
        struct msghdr msg{};
        msg.msg_iov = parts;
        msg.msg_iovlen = static_cast<std::size_t>(count);
        const ssize_t r =
            ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (r < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            return IoResult::Closed;
        }
        auto sent = static_cast<std::size_t>(r);
        while (count > 0 && sent >= parts->iov_len) {
            sent -= parts->iov_len;
            ++parts;
            --count;
        }
        if (count > 0) {
            parts->iov_base = static_cast<std::uint8_t *>(parts->iov_base) +
                              sent;
            parts->iov_len -= sent;
        }
    }
    return IoResult::Ok;
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
    if (!sock.valid())
        return IoResult::Closed;
    // The payload leaves from the frame itself, not from a copy: a
    // frame written to several peers copies its payload no more.
    std::vector<std::uint8_t> head = encodeHead(f);
    struct iovec parts[2] = {
        {head.data(), head.size()},
        {const_cast<std::uint8_t *>(f.payload.data()), f.payload.size()}};
    const std::size_t total = head.size() + f.payload.size();
    std::size_t n = total;
    if (truncate_to >= 0 && static_cast<std::size_t>(truncate_to) < n) {
        n = static_cast<std::size_t>(truncate_to);
        parts[0].iov_len = std::min(parts[0].iov_len, n);
        parts[1].iov_len = n - parts[0].iov_len;
    }
    const IoResult r = writeExact(sock.fd(), parts, 2, nowMs() + deadline_ms);
    if (r != IoResult::Ok)
        return r;
    // A deliberately truncated frame (NetTruncate fault) is a send
    // failure from the caller's point of view: the peer can never
    // consume it.
    return n == total ? IoResult::Ok : IoResult::Closed;
}

IoResult
readFrame(NetSocket &sock, WireFrame &out, int deadline_ms)
{
    if (!sock.valid())
        return IoResult::Closed;
    const std::int64_t deadline_at = nowMs() + deadline_ms;
    std::uint8_t hdr[kHeaderBytes];
    IoResult r = readExact(sock.fd(), hdr, kHeaderBytes, deadline_at);
    if (r != IoResult::Ok)
        return r;
    if (get<std::uint32_t>(hdr) != kFrameMagic)
        return IoResult::Malformed;
    out.type = static_cast<FrameType>(get<std::uint8_t>(hdr + 4));
    const std::uint16_t channel_len = get<std::uint16_t>(hdr + 6);
    out.generation = get<std::uint64_t>(hdr + 8);
    out.seq = get<std::uint64_t>(hdr + 16);
    out.trainStep = get<std::int64_t>(hdr + 24);
    out.phase = get<std::uint32_t>(hdr + 32);
    out.temporalStep = get<std::uint32_t>(hdr + 36);
    out.sender = get<std::int64_t>(hdr + 40);
    out.receiver = get<std::int64_t>(hdr + 48);
    const std::uint32_t tensor_len = get<std::uint32_t>(hdr + 56);
    out.status = static_cast<FrameStatus>(get<std::uint32_t>(hdr + 60));
    const std::uint64_t payload_len = get<std::uint64_t>(hdr + 64);
    out.checksum = get<std::uint64_t>(hdr + 72);
    if (channel_len > kMaxNameBytes || tensor_len > kMaxNameBytes ||
        payload_len > kMaxPayloadBytes)
        return IoResult::Malformed;

    std::vector<std::uint8_t> names(channel_len + tensor_len);
    if (!names.empty()) {
        r = readExact(sock.fd(), names.data(), names.size(),
                      deadline_at);
        if (r != IoResult::Ok)
            return r;
    }
    out.channel.assign(names.begin(), names.begin() + channel_len);
    out.tensor.assign(names.begin() + channel_len, names.end());
    out.payload.resize(payload_len);
    if (payload_len > 0) {
        r = readExact(sock.fd(), out.payload.data(), payload_len,
                      deadline_at);
        if (r != IoResult::Ok)
            return r;
    }
    return IoResult::Ok;
}

} // namespace primepar
