// Liveness layer: accrual failure detection and leased holds with fencing.
//
// The paper's fault rule (§IV-C) maps "remote down" to mate status `unknown`
// so a job never waits forever on a dead peer — but the transport breaker
// that used to be the only evidence source sees connection failures, not
// asymmetric partitions, silent hangs, or a reachable-yet-stale peer.  This
// module supplies the principled version:
//
//   FailureDetector  phi-accrual-style detector fed by heartbeat arrivals.
//                    phi ~ -log10 P(peer still alive given the silence so
//                    far); crossing `phi_suspect` demotes a peer to
//                    kSuspect, crossing `phi_confirm` to kDead — which
//                    Cluster maps to mate status `suspected` / `unknown`.
//
//   HoldLease        a hold's nodes are occupied under a lease: granted
//                    with an expiry and a fencing token, renewed by
//                    evidence of mate-domain liveness, auto-expiring into
//                    yield-or-unsync-start when renewal stops.  The fencing
//                    token (built on the incarnation plane of the recovery
//                    subsystem) makes late side-effecting calls from a
//                    partitioned-then-healed peer detectably stale.
//
// Everything here runs on simulated time and is purely deterministic: the
// detector's state is a bounded window of observed inter-arrival gaps, and
// both types are durable through their field lists (proto/durable.h).
#pragma once

#include <cstdint>
#include <deque>

#include "util/error.h"
#include "util/fields.h"
#include "util/types.h"
#include "workload/job.h"

namespace cosched {

/// Detector output for one remote domain.
enum class PeerHealth : std::uint8_t {
  kAlive = 0,    ///< heartbeats arriving on schedule
  kSuspect = 1,  ///< phi >= suspect threshold: stop renewing leases
  kDead = 2,     ///< phi >= confirm threshold: treat mate as `unknown`
};

const char* to_string(PeerHealth h);

/// Phi-accrual-style failure detector for one remote domain.
///
/// Classic phi-accrual fits a distribution to observed heartbeat
/// inter-arrival times and reports phi = -log10 P(arrival gap > silence).
/// With exponentially distributed arrivals that collapses to the closed
/// form used here:
///
///   phi(now) = 0.4343 * (now - last_heard) / mean_interval
///
/// (0.4343 = log10 e).  The mean interval is estimated over a bounded
/// window of recent gaps, seeded with the configured heartbeat period so
/// the detector is usable from the first probe.  Integer sim time in,
/// double phi out — no wall clock, no randomness, fully replayable.
class FailureDetector {
 public:
  /// `expected_interval` seeds the gap estimate (the heartbeat period).
  /// `epoch` is the time the detector went live: before anything is heard,
  /// silence is measured from here rather than reporting forever-dead.
  FailureDetector(Duration expected_interval, Time epoch);

  /// Marks that probing has begun: the first call re-baselines the silence
  /// clock to `now`, so a peer is never judged by silence accumulated
  /// before anyone ever asked it anything.  Idempotent.
  void mark_probe(Time now);

  /// Records evidence of life (a heartbeat response arriving at `now`).
  void record_heartbeat(Time now);

  /// Suspicion level given the current time.  0 when just heard from.
  double phi(Time now) const;

  /// Classifies phi(now) against the two thresholds.
  PeerHealth health(Time now, double phi_suspect, double phi_confirm) const;

  Time last_heard() const { return last_heard_; }
  std::uint64_t heartbeats_seen() const { return heartbeats_seen_; }

  /// Mean inter-arrival estimate over the window (simulated seconds).
  double mean_interval() const;

 private:
  /// Gap window size: big enough to smooth jitter, small enough to adapt
  /// within a few minutes of simulated time at a 30 s period.
  static constexpr std::size_t kWindow = 16;

  Duration expected_interval_;
  Time epoch_;                       ///< silence baseline before first probe
  Time last_heard_ = kNoTime;
  bool probed_ = false;              ///< mark_probe() has run
  std::uint64_t heartbeats_seen_ = 0;
  std::deque<Duration> gaps_;        ///< recent inter-arrival gaps

  COSCHED_FIELDS(FailureDetector, expected_interval_, epoch_, last_heard_,
                 probed_, heartbeats_seen_, gaps_)
  friend void check_durable(const FailureDetector& d) {
    if (d.gaps_.size() > kWindow)
      throw ParseError("liveness: detector window overflow");
  }
};

/// One granted hold lease: `job` occupies its assigned nodes waiting for
/// the mate domain at peer index `peer`, valid until `expires_at` unless
/// renewed.  `token` is the fencing token the grant was announced under.
struct HoldLease {
  JobId job = kNoJob;
  std::int32_t peer = -1;      ///< blocking peer index (-1 = none)
  Time granted_at = 0;
  Time expires_at = 0;
  std::uint64_t token = 0;
  std::uint32_t renewals = 0;

  bool operator==(const HoldLease&) const = default;
  COSCHED_FIELDS(HoldLease, job, peer, granted_at, expires_at, token, renewals)
  /// Decoded lease times lie in the durable range, so the expiry checks'
  /// differences cannot overflow.
  friend void check_durable(const HoldLease& l) {
    check_durable_time(l.granted_at);
    check_durable_time(l.expires_at);
  }
  /// The lease table is keyed by job, so it stores the leases alone.
  friend JobId durable_key(const HoldLease& l) { return l.job; }
};

/// Fencing tokens order lease epochs across restarts: the incarnation (the
/// recovery plane's restart counter) forms the high 32 bits, a per-epoch
/// counter the low 32.  Any token minted after a restart or a lease expiry
/// therefore compares greater than every token handed out before it.
inline std::uint64_t make_fence_token(std::uint64_t incarnation,
                                      std::uint32_t epoch) {
  return (incarnation << 32) | epoch;
}

}  // namespace cosched
