// Length-prefixed message framing over a stream socket.
//
// Frame layout: 4-byte big-endian payload length, then the payload.
// A length above kMaxFrame is rejected — a corrupted peer must not make a
// daemon allocate gigabytes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/socket.h"
#include "util/error.h"

namespace cosched {

/// Deadline expiry *inside* a frame: the stream is desynchronized (remaining
/// payload bytes would be misread as the next header), so unlike a boundary
/// timeout the channel cannot be reused.
class MidFrameTimeout final : public TimeoutError {
 public:
  explicit MidFrameTimeout(const std::string& what) : TimeoutError(what) {}
};

class FramedChannel {
 public:
  static constexpr std::size_t kMaxFrame = 1 << 20;  // 1 MiB

  explicit FramedChannel(Socket socket) : socket_(std::move(socket)) {}

  /// Sends one frame.  Throws Error on transport failure (TimeoutError if a
  /// send deadline is configured on the socket and expires).
  void write_frame(std::span<const std::uint8_t> payload);

  /// Receives one frame; nullopt on clean EOF.  Throws Error on transport
  /// failure or oversize frames, and TimeoutError when a read deadline is
  /// set and the peer hangs (before or mid-frame).  After a mid-frame
  /// timeout the stream is desynchronized; callers must drop the channel.
  std::optional<std::vector<std::uint8_t>> read_frame();

  /// Bounds every subsequent read_frame (milliseconds; 0 = block forever).
  void set_read_deadline_ms(int deadline_ms) {
    read_deadline_ms_ = deadline_ms;
  }
  int read_deadline_ms() const { return read_deadline_ms_; }

  /// Bounds every subsequent write_frame (milliseconds; 0 = block forever).
  void set_write_deadline_ms(int deadline_ms) {
    socket_.set_send_deadline_ms(deadline_ms);
  }

  Socket& socket() { return socket_; }

 private:
  Socket socket_;
  int read_deadline_ms_ = 0;
};

}  // namespace cosched
