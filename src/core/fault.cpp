#include "core/fault.h"

namespace cosched {

void FaultInjectingPeer::set_plan(FaultPlan plan) {
  plan_ = std::move(plan);
  rng_ = Rng(plan_.seed);
}

bool FaultInjectingPeer::in_outage(Time now) const {
  for (const auto& w : plan_.outages)
    if (now >= w.start && now < w.end) return true;
  if (plan_.flap_period > 0) {
    const Duration p = plan_.flap_period;
    const Time phase = (((now - plan_.flap_phase) % p) + p) % p;
    if (phase < plan_.flap_down_for) return true;
  }
  return false;
}

bool FaultInjectingPeer::in_reply_outage(Time now) const {
  for (const auto& w : plan_.reply_outages)
    if (now >= w.start && now < w.end) return true;
  return false;
}

void FaultInjectingPeer::on_failed_call() {
  // Coalesce: one pending re-examination per link regardless of how many
  // calls failed in this iteration — mirrors an agent rechecking its queue
  // once per backoff period, not per lost packet.
  if (engine_ == nullptr || plan_.retry_backoff <= 0 || !retry_listener_ ||
      retry_pending_)
    return;
  retry_pending_ = true;
  engine_->schedule_in(plan_.retry_backoff, EventPriority::kSchedule, [this] {
    retry_pending_ = false;
    retry_listener_();
  });
}

FaultInjectingPeer::Verdict FaultInjectingPeer::verdict() {
  ++stats_.calls;
  if (down_ || crashed_ ||
      (engine_ != nullptr && in_outage(engine_->now()))) {
    ++stats_.outage_blocked;
    on_failed_call();
    return Verdict::kFail;
  }
  // Each fault dimension draws from the stream only when enabled, so a plan
  // that adds (say) corruption leaves the drop/latency sub-sequences of an
  // otherwise identical plan unchanged.
  if (plan_.drop_probability > 0.0 && rng_.chance(plan_.drop_probability)) {
    ++stats_.dropped;
    on_failed_call();
    return Verdict::kFail;
  }
  if (plan_.latency_base > 0 || plan_.latency_jitter > 0) {
    Duration latency = plan_.latency_base;
    if (plan_.latency_jitter > 0)
      latency += rng_.uniform_int(0, plan_.latency_jitter - 1);
    if (plan_.rpc_deadline > 0 && latency > plan_.rpc_deadline) {
      ++stats_.timed_out;
      on_failed_call();
      return Verdict::kFail;
    }
    stats_.total_latency += static_cast<std::uint64_t>(latency);
  }
  if (plan_.corrupt_probability > 0.0 &&
      rng_.chance(plan_.corrupt_probability)) {
    ++stats_.corrupted;
    on_failed_call();
    return Verdict::kCorrupt;
  }
  // Reply-path faults come last: the request has survived the request path,
  // so the remote executes — only the answer is lost.  The window check
  // draws nothing; the probability draw happens only when enabled, keeping
  // pre-existing plans' fault streams unchanged.
  if (engine_ != nullptr && in_reply_outage(engine_->now())) {
    ++stats_.reply_lost;
    on_failed_call();
    return Verdict::kDropReply;
  }
  if (plan_.reply_drop_probability > 0.0 &&
      rng_.chance(plan_.reply_drop_probability)) {
    ++stats_.reply_lost;
    on_failed_call();
    return Verdict::kDropReply;
  }
  ++stats_.delivered;
  return Verdict::kDeliver;
}

template <typename Call>
auto FaultInjectingPeer::forward(Call call) {
  using Answer = decltype(call(*inner_));
  const Verdict v = verdict();
  if (v == Verdict::kFail) return Answer();
  Answer answer = call(*inner_);
  return v == Verdict::kDeliver ? answer : Answer();
}

std::optional<std::optional<JobId>> FaultInjectingPeer::get_mate_job(
    GroupId group, JobId asking) {
  return forward([&](PeerClient& p) { return p.get_mate_job(group, asking); });
}

std::optional<MateStatus> FaultInjectingPeer::get_mate_status(JobId mate) {
  return forward([&](PeerClient& p) { return p.get_mate_status(mate); });
}

std::optional<bool> FaultInjectingPeer::try_start_mate(JobId mate) {
  return forward([&](PeerClient& p) { return p.try_start_mate(mate); });
}

std::optional<bool> FaultInjectingPeer::start_job(JobId job) {
  return forward([&](PeerClient& p) { return p.start_job(job); });
}

std::optional<bool> FaultInjectingPeer::gang_prepare(JobId job,
                                                     GroupId group) {
  return forward([&](PeerClient& p) { return p.gang_prepare(job, group); });
}

std::optional<bool> FaultInjectingPeer::gang_commit(JobId job, GroupId group) {
  return forward([&](PeerClient& p) { return p.gang_commit(job, group); });
}

std::optional<bool> FaultInjectingPeer::gang_abort(JobId job, GroupId group) {
  return forward([&](PeerClient& p) { return p.gang_abort(job, group); });
}

std::optional<bool> FaultInjectingPeer::gang_victim(JobId job, GroupId group) {
  return forward([&](PeerClient& p) { return p.gang_victim(job, group); });
}

std::optional<HeartbeatInfo> FaultInjectingPeer::heartbeat(
    const HeartbeatInfo& mine) {
  return forward([&](PeerClient& p) { return p.heartbeat(mine); });
}

}  // namespace cosched
