// Deterministic fault injection for inter-domain protocol links.
//
// The paper's fault-tolerance rule (§IV-C) — remote down or mate dead means
// status `unknown`, and the local job starts normally rather than waiting
// forever — deserves more exercise than a binary down/up toggle.  FaultPlan
// describes a *seedable chaos schedule* for one directed link: per-RPC drop
// probability, a latency distribution checked against an RPC deadline,
// scheduled outage windows, periodic flapping, and reply corruption.  The
// same seed always yields the same fault sequence, so chaos runs are exactly
// as reproducible as fault-free ones (DeterminismGuard covers both).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "proto/peer.h"
#include "sim/engine.h"
#include "util/rng.h"
#include "util/types.h"

namespace cosched {

/// Chaos schedule for one directed peer link.  All probabilities are per
/// RPC; all times are engine (simulated) time.
struct FaultPlan {
  /// Substream seed: identical plans with identical seeds produce identical
  /// fault sequences (and therefore identical SimResults).
  std::uint64_t seed = 0x0fa417ULL;

  /// Probability that a call is dropped outright (request or reply lost).
  double drop_probability = 0.0;

  /// Probability that a reply arrives corrupted.  A corrupt reply fails to
  /// parse, which the peer layer maps to "remote unknown" — semantically a
  /// failed call, but accounted separately.
  double corrupt_probability = 0.0;

  /// Per-call latency model: base + uniform jitter in [0, latency_jitter).
  /// A sampled latency above `rpc_deadline` (when nonzero) times the call
  /// out — the remote answered too late to matter.
  Duration latency_base = 0;
  Duration latency_jitter = 0;
  Duration rpc_deadline = 0;

  /// Probability that the *reply* is lost after the remote processed the
  /// call.  Unlike drop_probability (request lost, remote never acted) the
  /// side effect happens and only the caller is left in the dark — the
  /// asymmetric half of a partition, and the scenario fencing exists for.
  double reply_drop_probability = 0.0;

  /// Hard outage windows: the link is down for t in [start, end).
  struct Window {
    Time start = 0;
    Time end = 0;
  };
  std::vector<Window> outages;

  /// One-way partition windows: requests still reach the remote (and take
  /// effect there), but every reply is lost for t in [start, end).  The
  /// reverse link typically keeps working — set these on one direction only
  /// to model an asymmetric partition.
  std::vector<Window> reply_outages;

  /// Periodic flapping: down for `flap_down_for` at the start of every
  /// `flap_period` (phase-shifted by `flap_phase`).  0 period disables.
  Duration flap_period = 0;
  Duration flap_down_for = 0;
  Time flap_phase = 0;

  /// When a call fails and this is nonzero, the injector schedules one
  /// coalesced engine event this far in the future that re-runs the caller's
  /// scheduling iteration — modeling an agent that re-examines its queue
  /// after the transport deadline instead of forgetting the job until the
  /// next natural event.
  Duration retry_backoff = 0;

  bool has_faults() const {
    return drop_probability > 0.0 || corrupt_probability > 0.0 ||
           reply_drop_probability > 0.0 ||
           (rpc_deadline > 0 && latency_base + latency_jitter > rpc_deadline) ||
           !outages.empty() || !reply_outages.empty() || flap_period > 0;
  }
};

/// Per-link fault accounting (degraded-mode observability).
struct FaultStats {
  std::uint64_t calls = 0;           ///< calls reaching the injector
  std::uint64_t delivered = 0;       ///< passed through to the real peer
  std::uint64_t dropped = 0;         ///< lost to drop_probability
  std::uint64_t timed_out = 0;       ///< sampled latency > rpc_deadline
  std::uint64_t corrupted = 0;       ///< reply corrupted -> unknown
  std::uint64_t reply_lost = 0;      ///< executed remotely, reply dropped
  std::uint64_t outage_blocked = 0;  ///< down window / flap / manual / crash
  /// Summed injected latency over delivered calls (simulated seconds).
  std::uint64_t total_latency = 0;

  std::uint64_t failed() const {
    return dropped + timed_out + corrupted + reply_lost + outage_blocked;
  }

  FaultStats& operator+=(const FaultStats& o) {
    calls += o.calls;
    delivered += o.delivered;
    dropped += o.dropped;
    timed_out += o.timed_out;
    corrupted += o.corrupted;
    reply_lost += o.reply_lost;
    outage_blocked += o.outage_blocked;
    total_latency += o.total_latency;
    return *this;
  }
};

/// Wraps another peer and injects failures per a FaultPlan.  With the
/// default (empty) plan and `down == false` it is a transparent
/// pass-through, byte-for-byte identical in behavior to the wrapped peer.
/// Models the paper's fault-tolerance scenarios — remote system down, link
/// degraded, mate job failed — plus whole-domain crash/restart (driven by
/// CoupledSim).
class FaultInjectingPeer final : public PeerClient {
 public:
  /// `engine` (optional) supplies the clock for outage windows/flapping and
  /// the event queue for retry_backoff injection; without it only
  /// probability-based faults and the manual toggle apply.
  explicit FaultInjectingPeer(std::unique_ptr<PeerClient> inner,
                              Engine* engine = nullptr)
      : inner_(std::move(inner)), engine_(engine) {}

  /// Manual toggle (back-compat with the pre-plan API).
  void set_down(bool down) { down_ = down; }
  bool down() const { return down_; }

  /// Crash marker — like set_down but tracked separately so a domain crash
  /// is distinguishable from a link outage in the accounting.
  void set_crashed(bool crashed) { crashed_ = crashed; }
  bool crashed() const { return crashed_; }

  /// Installs a chaos schedule and reseeds the fault stream from plan.seed.
  void set_plan(FaultPlan plan);
  const FaultPlan& plan() const { return plan_; }

  /// Appends an outage window to the installed plan *without* reseeding the
  /// fault stream — mid-run partition scripting stays stream-stable.
  void add_outage(Time start, Time end) {
    plan_.outages.push_back({start, end});
  }
  /// Same for a one-way (reply-only) window.
  void add_reply_outage(Time start, Time end) {
    plan_.reply_outages.push_back({start, end});
  }

  const FaultStats& stats() const { return stats_; }

  /// Invoked (coalesced, retry_backoff after a failed call) so the calling
  /// domain can re-run a scheduling iteration.  Wired by CoupledSim.
  void set_retry_listener(std::function<void()> fn) {
    retry_listener_ = std::move(fn);
  }

  /// The wrapped transport (for statistics inspection).
  PeerClient& inner() { return *inner_; }
  const PeerClient& inner() const { return *inner_; }

  std::optional<std::optional<JobId>> get_mate_job(GroupId group,
                                                   JobId asking) override;
  std::optional<MateStatus> get_mate_status(JobId mate) override;
  std::optional<bool> try_start_mate(JobId mate) override;
  std::optional<bool> start_job(JobId job) override;
  std::optional<bool> gang_prepare(JobId job, GroupId group) override;
  std::optional<bool> gang_commit(JobId job, GroupId group) override;
  std::optional<bool> gang_abort(JobId job, GroupId group) override;
  std::optional<bool> gang_victim(JobId job, GroupId group) override;
  std::optional<HeartbeatInfo> heartbeat(const HeartbeatInfo& mine) override;
  void set_fence_token(std::uint64_t token) override {
    inner_->set_fence_token(token);
  }

 private:
  /// Outcome of applying the plan to one call.  kCorrupt and kDropReply
  /// both deliver the call to the wrapped peer (the remote *did* process
  /// it) but discard the reply — the partial-failure case where e.g. a mate
  /// was actually started yet the caller only learns "unknown".
  enum class Verdict : std::uint8_t { kFail, kDeliver, kCorrupt, kDropReply };

  Verdict verdict();
  /// Sends one call through verdict(): `call` reaches the wrapped peer
  /// unless the request is lost, and its answer returns only when the reply
  /// is delivered too.
  template <typename Call>
  auto forward(Call call);
  bool in_outage(Time now) const;
  bool in_reply_outage(Time now) const;
  void on_failed_call();

  std::unique_ptr<PeerClient> inner_;
  Engine* engine_ = nullptr;
  FaultPlan plan_;
  Rng rng_{0x0fa417ULL};
  bool down_ = false;
  bool crashed_ = false;
  bool retry_pending_ = false;
  std::function<void()> retry_listener_;
  FaultStats stats_;
};

}  // namespace cosched
