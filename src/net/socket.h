// RAII POSIX sockets for the live (non-simulated) coscheduling daemons.
//
// Scope is deliberately small: local stream sockets (socketpair) and
// localhost TCP — enough to run two real resource-manager daemons speaking
// the coordination protocol on one machine, which is what the examples and
// tests exercise.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace cosched {

/// Outcome of a deadline-bounded receive.
enum class RecvStatus {
  kData,     ///< the whole span was filled
  kEof,      ///< clean EOF at a message boundary (0 bytes read)
  kTimeout,  ///< the deadline expired before the span was filled
};

/// Owning wrapper around a socket file descriptor.
///
/// Thread safety: the only shared state is fd_, an atomic (close() may race
/// a blocked recv() during shutdown).  There is no mutex here, so nothing
/// for -Wthread-safety to track; see src/util/thread_annotations.h for the
/// annotated-mutex convention used by the stateful classes (WirePeer,
/// RpcDedup).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_.exchange(-1)) {}
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd() >= 0; }
  int fd() const { return fd_.load(std::memory_order_relaxed); }

  /// Creates a connected pair of local stream sockets.
  static std::pair<Socket, Socket> pair();

  /// Sends the whole buffer; throws Error on failure and TimeoutError if a
  /// deadline is set and the peer stops draining before it elapses.
  void send_all(std::span<const std::uint8_t> data);

  /// Receives exactly n bytes into out.  Returns false on clean EOF at a
  /// message boundary (0 bytes read); throws Error on partial EOF or error.
  bool recv_exact(std::span<std::uint8_t> out);

  /// Deadline-bounded receive: like recv_exact but gives up after
  /// `deadline_ms` milliseconds measured across the whole span (poll-based,
  /// so a peer trickling one byte per interval cannot extend it forever).
  /// deadline_ms <= 0 blocks indefinitely.  Timeouts are reported as a
  /// status, never an exception — a hung remote maps to "remote unknown",
  /// not a dead serve loop.  `got_out` (optional) receives the number of
  /// bytes consumed, letting framing layers tell an idle boundary timeout
  /// (0 bytes) from a desynchronizing partial read.
  RecvStatus recv_exact_deadline(std::span<std::uint8_t> out, int deadline_ms,
                                 std::size_t* got_out = nullptr);

  /// Deadline applied by send_all (milliseconds; <= 0 = block forever).
  /// Also installs SO_SNDTIMEO as a backstop for the final send call.
  void set_send_deadline_ms(int deadline_ms);

  void close();

 private:
  /// Atomic so close() from one thread (waking a peer blocked in accept or
  /// recv via shutdown) is not a data race with the blocked thread's fd
  /// reads.  Single-writer otherwise; relaxed ordering suffices.
  std::atomic<int> fd_{-1};
  int send_deadline_ms_ = 0;
  bool rcvtimeo_armed_ = false;  ///< SO_RCVTIMEO currently installed
};

/// Listening TCP socket bound to 127.0.0.1.
class TcpListener {
 public:
  /// Binds to 127.0.0.1:port (port 0 = ephemeral).  Throws Error on failure.
  explicit TcpListener(std::uint16_t port);

  /// The actually bound port.
  std::uint16_t port() const { return port_; }

  /// Blocks until a client connects.
  Socket accept();

  /// Closes the listening socket; a blocked accept() fails with Error.
  /// Lets another thread shut an accept loop down (daemon crash/restart).
  /// The socket is shut down before closing: on Linux, plain close() leaves
  /// a concurrently blocked accept() sleeping forever.
  void close();

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:port.  Throws Error on failure.
Socket tcp_connect(std::uint16_t port);

}  // namespace cosched
