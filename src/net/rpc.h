// Blocking request/response endpoints binding the coordination protocol to
// a framed stream channel — the live-daemon transport.
//
// Failure handling implements the paper's §IV-C rule mechanically: any
// transport problem (hang, disconnect, garbage) surfaces to the caller as
// nullopt ("remote unknown"), so Algorithm 1 starts the local job instead of
// waiting.  Recovery is automatic: a circuit breaker fast-fails calls while
// the remote is down and periodically probes (reconnecting through the
// channel factory) until the remote answers again.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "net/framed.h"
#include "proto/peer.h"
#include "proto/service.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace cosched {

/// Bounded-retry policy for one protocol call.
struct RetryConfig {
  int max_attempts = 3;       ///< total tries per call (>= 1)
  int base_backoff_ms = 10;   ///< sleep before the 2nd attempt
  int max_backoff_ms = 500;   ///< exponential backoff ceiling
  double jitter = 0.25;       ///< +/- fraction applied to each backoff
};

/// Circuit breaker guarding a flaky remote.
struct BreakerConfig {
  /// Consecutive *failed calls* (each already retried) that open the
  /// breaker.  A lost channel with no reconnect path opens it immediately.
  int failure_threshold = 3;
  /// While open, calls fast-fail (nullopt) without touching the network
  /// until this cooldown elapses; then one half-open probe is admitted.
  int open_cooldown_ms = 200;
};

struct WirePeerConfig {
  /// Per-attempt receive deadline (ms) for the response frame; also bounds
  /// sends.  0 disables — only safe on loopback test links.
  int call_deadline_ms = 2000;
  RetryConfig retry;
  BreakerConfig breaker;
  /// Seed for backoff jitter (deterministic, per-peer stream).
  std::uint64_t jitter_seed = 0x77199db5u;
  /// This client's incarnation, stamped on every request (scopes request
  /// ids for the server's exactly-once dedup) and exchanged via a hello
  /// handshake on every (re)connection; responses whose server incarnation
  /// differs from the handshaken one are rejected as stale.  0 disables
  /// incarnation semantics entirely (legacy/loopback behaviour).
  std::uint64_t incarnation = 1;
};

enum class BreakerState : std::uint8_t {
  kClosed = 0,
  kOpen = 1,
  kHalfOpen = 2
};

const char* to_string(BreakerState s);

/// Socket transport for the protocol stub: one request in flight at a time
/// (the protocol is strictly call/response).  Thread-safe; transport errors
/// report as nullopt ("remote unknown") after bounded retries, matching the
/// paper's fault-tolerance rule that a job never waits on a dead remote.
/// When constructed with a channel factory the peer re-establishes the
/// connection on the next (half-open) probe after a failure.
class WirePeer final : public ProtocolPeer {
 public:
  /// Returns a fresh connected channel, or nullopt if the remote is
  /// unreachable right now.  Must not block unboundedly.
  using ChannelFactory = std::function<std::optional<FramedChannel>()>;

  explicit WirePeer(FramedChannel channel, WirePeerConfig config = {});

  /// Reconnecting peer: dials lazily on first use and re-dials after
  /// failures (half-open probes).
  explicit WirePeer(ChannelFactory factory, WirePeerConfig config = {});

  /// True while the breaker is closed (remote believed reachable).
  bool healthy() const;
  BreakerState breaker_state() const;

  /// Degraded-mode accounting for metrics/reporting.
  struct TransportStats {
    std::uint64_t calls = 0;            ///< protocol calls issued
    std::uint64_t failed_calls = 0;     ///< calls left with no reply
    std::uint64_t attempts = 0;         ///< wire round-trips attempted
    std::uint64_t retries = 0;          ///< attempts beyond the first
    std::uint64_t timeouts = 0;         ///< attempts lost to the deadline
    std::uint64_t reconnects = 0;       ///< successful factory re-dials
    std::uint64_t breaker_opens = 0;    ///< closed/half-open -> open
    std::uint64_t breaker_closes = 0;   ///< half-open probe succeeded
    std::uint64_t fast_fails = 0;       ///< calls rejected while open
    std::uint64_t hellos = 0;           ///< incarnation handshakes sent
    std::uint64_t stale_rejected = 0;   ///< responses dropped: wrong server
                                        ///< incarnation (server restarted)
  };
  TransportStats stats() const;

  /// Server incarnation learned from the last completed hello handshake
  /// (nullopt before the first handshake or with incarnation semantics
  /// disabled).
  std::optional<std::uint64_t> server_incarnation() const;

 private:
  /// One protocol call under the breaker and retry policy.  Stamps the
  /// request id and this client's incarnation; a retry resends the same id.
  bool exchange(Message& req, Message& reply) override EXCLUDES(mutex_);
  /// One wire attempt on the current channel.  False = transport failure
  /// (the channel has been dropped).
  bool attempt(const Message& req, Message& reply) REQUIRES(mutex_);
  bool ensure_channel() REQUIRES(mutex_);
  /// Forgets the connection: the next attempt dials and says hello anew.
  void drop_channel() REQUIRES(mutex_);
  void record_failure() REQUIRES(mutex_);
  void record_success() REQUIRES(mutex_);
  int backoff_ms(int attempt) REQUIRES(mutex_);

  mutable Mutex mutex_;
  WirePeerConfig config_;  ///< immutable after construction
  ChannelFactory factory_ GUARDED_BY(mutex_);
  std::optional<FramedChannel> channel_ GUARDED_BY(mutex_);
  Rng jitter_rng_ GUARDED_BY(mutex_);
  /// Request ids are monotone for the lifetime of this peer (one client
  /// incarnation) and are never reset on reconnect: the server's
  /// exactly-once cache is keyed (client incarnation, rid), so a reused rid
  /// after a reconnect would alias a *different* logical call into an old
  /// verdict.  Response/request matching is instead scoped per connection
  /// plus the server incarnation learned from that connection's hello.
  std::uint64_t next_rid_ GUARDED_BY(mutex_) = 1;
  /// True once the hello handshake completed on the *current* channel;
  /// cleared whenever the channel drops.
  bool hello_done_ GUARDED_BY(mutex_) = false;
  std::optional<std::uint64_t> server_incarnation_ GUARDED_BY(mutex_);

  BreakerState state_ GUARDED_BY(mutex_) = BreakerState::kClosed;
  int consecutive_failures_ GUARDED_BY(mutex_) = 0;
  std::chrono::steady_clock::time_point open_until_ GUARDED_BY(mutex_){};

  TransportStats stats_ GUARDED_BY(mutex_);
};

/// Serves protocol requests from one channel until EOF or a fatal transport
/// error.  Malformed payloads are answered with kErrorResp (the dispatcher's
/// job); read deadlines configured on the channel are treated as "still
/// idle", not as errors, so a quiet client never kills the loop.
/// Runs on the caller's thread; intended for a dedicated server thread.
/// `config` carries the server incarnation and optional exactly-once cache
/// (RpcDedup is internally synchronized, so one cache may be shared by all
/// of a daemon's channel threads).
void serve_channel(FramedChannel& channel, CoschedService& service,
                   DispatcherConfig config = {});

}  // namespace cosched
