#include "net/client.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/logging.hh"

namespace specpmt::net
{

namespace
{

std::string
errnoText(const char *call)
{
    return std::string(call) + ": " + std::strerror(errno);
}

} // namespace

bool
BlockingClient::connect(const std::string &host, std::uint16_t port,
                        std::string &error, int timeoutMs)
{
    close();
    decoder_ = FrameDecoder();
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        error = "not an IPv4 address: " + host;
        return false;
    }
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        return fail(error, errnoText("socket"));
    // On Linux SO_SNDTIMEO bounds connect() as well as send().
    timeval tv{};
    tv.tv_sec = timeoutMs / 1000;
    tv.tv_usec = (timeoutMs % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        return fail(error, errnoText("connect"));
    return true;
}

bool
BlockingClient::hello(std::uint32_t desired, std::uint32_t &shards,
                      std::uint32_t &bound, std::string &error)
{
    std::vector<std::uint8_t> out;
    appendHello(out, 0, desired);
    Frame frame;
    if (!sendAll(out, error) || !recvFrame(frame, error))
        return false;
    if (!parseHelloOk(frame, shards, bound))
        return fail(error, "unexpected HELLO response");
    return true;
}

bool
BlockingClient::sendAll(const std::vector<std::uint8_t> &bytes,
                        std::string &error)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd_, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return fail(error, errnoText("send"));
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
BlockingClient::recvFrame(Frame &frame, std::string &error)
{
    for (;;) {
        std::string decode_error;
        switch (decoder_.next(frame, decode_error)) {
        case FrameDecoder::Status::Frame:
            return true;
        case FrameDecoder::Status::Error:
            return fail(error, "protocol error: " + decode_error);
        case FrameDecoder::Status::NeedMore:
            break;
        }
        std::uint8_t buf[16 * 1024];
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n == 0)
            return fail(error, "peer closed");
        if (n < 0)
            return fail(error, errnoText("recv"));
        decoder_.feed(buf, static_cast<std::size_t>(n));
    }
}

int
BlockingClient::releaseNonBlocking()
{
    SPECPMT_ASSERT(decoder_.buffered() == 0);
    const int fd = fd_;
    fd_ = -1;
    if (fd >= 0)
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    return fd;
}

void
BlockingClient::resetHard()
{
    if (fd_ < 0)
        return;
    linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    close();
}

void
BlockingClient::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

bool
BlockingClient::fail(std::string &error, std::string why)
{
    error = std::move(why);
    close();
    return false;
}

} // namespace specpmt::net
