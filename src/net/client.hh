/**
 * @file
 * The one blocking client of the speckv wire protocol.
 *
 * Every tool and test that talks to a KV server over TCP opens its
 * connection here: connect with TCP_NODELAY and bounded send/receive
 * timeouts (a server that accepts but never answers — SIGSTOPped,
 * wedged, or not a speckv server at all — fails the call within the
 * timeout instead of hanging it), the HELLO shard-binding handshake,
 * send-all, and receive-one-frame through a FrameDecoder. Callers that
 * pipeline on an event loop (net/loadgen) dial and handshake here,
 * then take the descriptor over in non-blocking mode with
 * releaseNonBlocking().
 *
 * Any failed call closes the connection; connected() turns false and
 * the error string says why.
 */

#ifndef SPECPMT_NET_CLIENT_HH
#define SPECPMT_NET_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hh"

namespace specpmt::net
{

class BlockingClient
{
  public:
    /** Default bound on connect, each send and each receive. */
    static constexpr int kDefaultTimeoutMs = 5000;

    BlockingClient() = default;
    ~BlockingClient() { close(); }

    BlockingClient(const BlockingClient &) = delete;
    BlockingClient &operator=(const BlockingClient &) = delete;

    /**
     * Open a TCP connection to @p host (dotted IPv4) : @p port. No
     * protocol bytes are exchanged; see hello().
     */
    bool connect(const std::string &host, std::uint16_t port,
                 std::string &error, int timeoutMs = kDefaultTimeoutMs);

    /**
     * HELLO handshake asking for @p desired (kAnyShard = any); on
     * success @p shards and @p bound hold the server's answer.
     */
    bool hello(std::uint32_t desired, std::uint32_t &shards,
               std::uint32_t &bound, std::string &error);

    /** Write all of @p bytes. */
    bool sendAll(const std::vector<std::uint8_t> &bytes,
                 std::string &error);

    /**
     * Block until one whole frame is decoded into @p frame. Fails on
     * EOF, on a receive timeout, and on a protocol error
     * (protocolError() then turns true).
     */
    bool recvFrame(Frame &frame, std::string &error);

    /**
     * Hand the descriptor to a non-blocking owner: switch it to
     * O_NONBLOCK and forget it (the caller closes it). Only valid
     * between frames, with nothing received but not yet decoded.
     */
    int releaseNonBlocking();

    /**
     * Abortive close: SO_LINGER with a zero timeout makes close()
     * send RST instead of FIN, so the server's next write on this
     * connection fails hard (ECONNRESET / EPIPE).
     */
    void resetHard();

    /** Orderly close; no-op when not connected. */
    void close();

    bool connected() const { return fd_ >= 0; }

    /** True once a received byte stream failed to decode. */
    bool protocolError() const { return decoder_.failed(); }

  private:
    bool fail(std::string &error, std::string why);

    int fd_ = -1;
    FrameDecoder decoder_;
};

} // namespace specpmt::net

#endif // SPECPMT_NET_CLIENT_HH
