#include "net/rpc.h"

#include <algorithm>
#include <thread>

#include "util/log.h"

namespace cosched {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

WirePeer::WirePeer(FramedChannel channel, WirePeerConfig config)
    : config_(config),
      channel_(std::move(channel)),
      jitter_rng_(config.jitter_seed) {
  channel_->set_read_deadline_ms(config_.call_deadline_ms);
  channel_->set_write_deadline_ms(config_.call_deadline_ms);
}

WirePeer::WirePeer(ChannelFactory factory, WirePeerConfig config)
    : config_(config),
      factory_(std::move(factory)),
      jitter_rng_(config.jitter_seed) {}

bool WirePeer::healthy() const {
  MutexLock lock(mutex_);
  return state_ == BreakerState::kClosed;
}

BreakerState WirePeer::breaker_state() const {
  MutexLock lock(mutex_);
  return state_;
}

WirePeer::TransportStats WirePeer::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

std::optional<std::uint64_t> WirePeer::server_incarnation() const {
  MutexLock lock(mutex_);
  return server_incarnation_;
}

bool WirePeer::ensure_channel() {
  if (!channel_) {
    if (!factory_) return false;
    auto fresh = factory_();
    if (!fresh) return false;
    channel_.emplace(std::move(*fresh));
    channel_->set_read_deadline_ms(config_.call_deadline_ms);
    channel_->set_write_deadline_ms(config_.call_deadline_ms);
    ++stats_.reconnects;
    hello_done_ = false;
  }
  // Incarnation handshake, once per connection, before any protocol call.
  // Learning the server's incarnation here is what lets attempt() reject
  // stale replies if the server restarts mid-conversation.
  if (config_.incarnation != 0 && !hello_done_) {
    ++stats_.hellos;
    const Message hello = make_hello_req(next_rid_++, config_.incarnation);
    Message reply;
    if (!attempt(hello, reply)) return false;  // the channel is dropped
    if (reply.type != MsgType::kHelloResp) {
      COSCHED_LOG(kWarn) << "wire peer: hello not answered";
      drop_channel();
      return false;
    }
    server_incarnation_ = reply.incarnation;
    hello_done_ = true;
  }
  return true;
}

void WirePeer::drop_channel() {
  channel_.reset();
  hello_done_ = false;
}

int WirePeer::backoff_ms(int attempt) {
  // Exponential: base * 2^(attempt-1), capped, with +/- jitter so a fleet of
  // peers retrying against one recovering daemon does not stampede in sync.
  double ms = static_cast<double>(config_.retry.base_backoff_ms);
  for (int i = 1; i < attempt; ++i) ms *= 2.0;
  ms = std::min(ms, static_cast<double>(config_.retry.max_backoff_ms));
  const double j = config_.retry.jitter;
  if (j > 0.0) ms *= jitter_rng_.uniform(1.0 - j, 1.0 + j);
  return std::max(0, static_cast<int>(ms));
}

void WirePeer::record_failure() {
  ++stats_.failed_calls;
  if (state_ == BreakerState::kHalfOpen) {
    // Probe failed: back to open for another cooldown.
    state_ = BreakerState::kOpen;
    ++stats_.breaker_opens;
    open_until_ = Clock::now() +
                  std::chrono::milliseconds(config_.breaker.open_cooldown_ms);
    return;
  }
  ++consecutive_failures_;
  // With no reconnect path a lost channel can never heal on its own, so the
  // breaker opens immediately rather than burning the remaining threshold.
  const bool unrecoverable = !channel_ && !factory_;
  if (consecutive_failures_ >= config_.breaker.failure_threshold ||
      unrecoverable) {
    state_ = BreakerState::kOpen;
    ++stats_.breaker_opens;
    open_until_ = Clock::now() +
                  std::chrono::milliseconds(config_.breaker.open_cooldown_ms);
  }
}

void WirePeer::record_success() {
  consecutive_failures_ = 0;
  if (state_ != BreakerState::kClosed) {
    state_ = BreakerState::kClosed;
    ++stats_.breaker_closes;
  }
}

bool WirePeer::attempt(const Message& req, Message& reply) {
  ++stats_.attempts;
  try {
    channel_->write_frame(req.encode());
    const auto frame = channel_->read_frame();
    if (!frame) {
      COSCHED_LOG(kWarn) << "wire peer: connection closed by remote";
      drop_channel();
      return false;
    }
    reply = Message::decode(*frame);
    if (reply.request_id != req.request_id) {
      // A reply to another request means the stream lost call/response
      // alignment (e.g. a late answer to a timed-out request); only a fresh
      // connection restores it.  A reply of another *type* to this request
      // (an error reply, say) is aligned: it answers the call.
      COSCHED_LOG(kWarn) << "wire peer: response id mismatch";
      drop_channel();
      return false;
    }
    // Even a well-aligned reply is stale if the server restarted since this
    // connection's hello: its verdict belongs to a dead incarnation's state.
    // Drop the channel so the next attempt re-handshakes.
    if (config_.incarnation != 0 && hello_done_ &&
        reply.incarnation != *server_incarnation_) {
      ++stats_.stale_rejected;
      COSCHED_LOG(kWarn) << "wire peer: stale response (server incarnation "
                         << reply.incarnation << " != handshaken "
                         << *server_incarnation_ << ")";
      drop_channel();
      return false;
    }
    return true;
  } catch (const TimeoutError& e) {
    ++stats_.timeouts;
    COSCHED_LOG(kWarn) << "wire peer: " << e.what();
    // The reply may still arrive later and would desync the next call.
    drop_channel();
    return false;
  } catch (const std::exception& e) {
    COSCHED_LOG(kWarn) << "wire peer: transport failure: " << e.what();
    drop_channel();
    return false;
  }
}

bool WirePeer::exchange(Message& req, Message& reply) {
  MutexLock lock(mutex_);
  ++stats_.calls;
  // One id per call, stamped under the mutex: a retry resends it, so the
  // server's exactly-once cache answers the retry instead of re-executing.
  req.request_id = next_rid_++;
  req.incarnation = config_.incarnation;

  bool probing = false;
  if (state_ == BreakerState::kOpen) {
    if (Clock::now() < open_until_) {
      ++stats_.fast_fails;
      return false;  // fast fail: remote is known-down
    }
    state_ = BreakerState::kHalfOpen;
    probing = true;
  } else if (state_ == BreakerState::kHalfOpen) {
    probing = true;
  }

  // Half-open admits exactly one attempt: either it heals the breaker or it
  // re-opens for another cooldown.
  const int max_attempts =
      probing ? 1 : std::max(1, config_.retry.max_attempts);
  for (int att = 1; att <= max_attempts; ++att) {
    if (att > 1) {
      ++stats_.retries;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(backoff_ms(att - 1)));
    }
    if (!ensure_channel()) {
      if (!factory_) break;  // nothing to retry against
      continue;
    }
    if (attempt(req, reply)) {
      record_success();
      return true;
    }
  }
  record_failure();
  return false;
}

void serve_channel(FramedChannel& channel, CoschedService& service,
                   DispatcherConfig config) {
  ServiceDispatcher dispatcher(service, config);
  for (;;) {
    std::optional<std::vector<std::uint8_t>> frame;
    try {
      frame = channel.read_frame();
    } catch (const MidFrameTimeout& e) {
      // Stream desynchronized: further reads would parse garbage.
      COSCHED_LOG(kWarn) << "serve_channel: " << e.what();
      return;
    } catch (const TimeoutError&) {
      continue;  // idle client at a frame boundary; keep serving
    } catch (const std::exception& e) {
      COSCHED_LOG(kWarn) << "serve_channel: read failure: " << e.what();
      return;
    }
    if (!frame) return;  // clean EOF
    try {
      channel.write_frame(dispatcher.dispatch(*frame));
    } catch (const std::exception& e) {
      COSCHED_LOG(kWarn) << "serve_channel: write failure: " << e.what();
      return;
    }
  }
}

}  // namespace cosched
