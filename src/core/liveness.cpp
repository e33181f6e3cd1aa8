#include "core/liveness.h"

#include "util/error.h"

namespace cosched {

const char* to_string(PeerHealth h) {
  switch (h) {
    case PeerHealth::kAlive: return "alive";
    case PeerHealth::kSuspect: return "suspect";
    case PeerHealth::kDead: return "dead";
  }
  return "?";
}

FailureDetector::FailureDetector(Duration expected_interval, Time epoch)
    : expected_interval_(expected_interval > 0 ? expected_interval : 1),
      epoch_(epoch) {}

void FailureDetector::mark_probe(Time now) {
  if (probed_) return;
  probed_ = true;
  if (last_heard_ == kNoTime && now > epoch_) epoch_ = now;
}

void FailureDetector::record_heartbeat(Time now) {
  if (last_heard_ != kNoTime && now > last_heard_) {
    gaps_.push_back(now - last_heard_);
    while (gaps_.size() > kWindow) gaps_.pop_front();
  }
  if (last_heard_ == kNoTime || now > last_heard_) last_heard_ = now;
  ++heartbeats_seen_;
}

double FailureDetector::mean_interval() const {
  // The configured period contributes one virtual sample so a single
  // anomalous gap cannot whipsaw a cold detector.
  Duration sum = expected_interval_;
  for (const Duration g : gaps_) sum += g;
  return static_cast<double>(sum) / static_cast<double>(gaps_.size() + 1);
}

double FailureDetector::phi(Time now) const {
  // Nothing heard AND nothing asked: no basis for suspicion yet.
  if (last_heard_ == kNoTime && !probed_) return 0.0;
  const Time since = last_heard_ != kNoTime ? last_heard_ : epoch_;
  const Time silence = now - since;
  if (silence <= 0) return 0.0;
  // -log10 P(gap > silence) for exponential arrivals: log10(e) * t / mean.
  return 0.4342944819032518 * static_cast<double>(silence) / mean_interval();
}

PeerHealth FailureDetector::health(Time now, double phi_suspect,
                                   double phi_confirm) const {
  const double p = phi(now);
  if (p >= phi_confirm) return PeerHealth::kDead;
  if (p >= phi_suspect) return PeerHealth::kSuspect;
  return PeerHealth::kAlive;
}

}  // namespace cosched
