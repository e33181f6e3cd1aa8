// Server side of the coordination protocol.
//
// A scheduling domain implements CoschedService; ServiceDispatcher turns
// encoded request bytes into service calls and encoded responses.  The same
// dispatcher backs the in-process loopback peer and the socket daemons.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "proto/message.h"
#include "util/mutex.h"

namespace cosched {

/// The operations a domain must answer for its peers (paper Algorithm 1's
/// remote.* calls, seen from the receiving side).
class CoschedService {
 public:
  virtual ~CoschedService() = default;

  /// Finds the local member of coscheduling group `group`.  `asking` is the
  /// remote job that asks (for logging/validation).  nullopt = not found,
  /// which the asker treats as "no mate; start normally".
  virtual std::optional<JobId> get_mate_job(GroupId group, JobId asking) = 0;

  /// Reports the scheduling status of a local job.
  virtual MateStatus get_mate_status(JobId job) = 0;

  /// Runs an additional scheduling iteration trying to start `job`;
  /// true only if the job actually started (paper line 12).
  virtual bool try_start_mate(JobId job) = 0;

  /// Starts a local *holding* job whose mate is now ready (paper line 8).
  virtual bool start_job(JobId job) = 0;

  /// Answers a liveness probe: `from` is the prober's payload; the return is
  /// this domain's own.  Default nullopt = liveness not implemented (the
  /// dispatcher then answers with an error, which the prober's detector
  /// treats the same as a lost probe).
  virtual std::optional<HeartbeatInfo> heartbeat(const HeartbeatInfo& from) {
    (void)from;
    return std::nullopt;
  }

  /// Two-phase gang costart (k >= 3 domains).  Prepare places the local
  /// member of `group` into a fenced, leased hold and answers true only if
  /// the member is holding afterwards; commit starts a prepared (holding)
  /// member; abort releases a prepared hold without starting it; victim
  /// orders a deadlock-cycle victim to yield its hold and back off before
  /// re-preparing.  Defaults preserve legacy two-domain behaviour: the
  /// dispatcher answers false and nothing mutates.
  virtual bool gang_prepare(JobId job, GroupId group) {
    (void)job;
    (void)group;
    return false;
  }
  virtual bool gang_commit(JobId job, GroupId group) {
    (void)job;
    (void)group;
    return false;
  }
  virtual bool gang_abort(JobId job, GroupId group) {
    (void)job;
    (void)group;
    return false;
  }
  virtual bool gang_victim(JobId job, GroupId group) {
    (void)job;
    (void)group;
    return false;
  }

  /// Fencing gate for the side-effecting calls.  `fence` is the caller's
  /// view of this domain's fencing epoch (0 = unfenced legacy caller, always
  /// admitted).  False rejects the call without executing it: the caller
  /// observed an epoch that has since advanced — it was partitioned while
  /// this domain expired the relevant lease — so acting on its behalf could
  /// double-start a mate.  Default true preserves pre-liveness behaviour.
  virtual bool admit_fence(JobId job, std::uint64_t fence) {
    (void)job;
    (void)fence;
    return true;
  }
};

/// Exactly-once verdict cache for the six side-effecting calls
/// (tryStartMate, startJob and the four gang calls).  A retried request —
/// same (client incarnation, request id) — returns the recorded verdict
/// instead of re-running the scheduling iteration, so a lost response can
/// never double-start a mate.
///
/// Keys are (client incarnation, request id).  Request ids are monotone per
/// client incarnation and never reused (see net/rpc.h), so an entry is hit
/// only by a genuine retry of the same logical call.  The persist hook fires
/// *before* record() returns; the owner journals a kDedup record and commits
/// it, making the verdict durable before the reply leaves the daemon.
///
/// Thread-safe: one cache is shared by every dispatcher (= connection) of a
/// daemon, and connection threads overlap during client reconnects.  The
/// persist hook runs under the lock, serializing journal appends too.
class RpcDedup {
 public:
  struct Entry {
    MsgType op = MsgType::kErrorResp;
    bool verdict = false;
  };

  explicit RpcDedup(std::size_t max_entries = 4096)
      : max_entries_(max_entries) {}

  /// Recorded verdict of a completed call, or nullopt if never executed
  /// (or evicted — the call then re-executes, degrading to at-least-once).
  std::optional<Entry> lookup(std::uint64_t client_incarnation,
                              std::uint64_t rid) const {
    MutexLock lock(mutex_);
    auto it = entries_.find({client_incarnation, rid});
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  /// Records a verdict and fires the persist hook (durable-before-reply).
  void record(std::uint64_t client_incarnation, std::uint64_t rid, MsgType op,
              bool verdict) {
    MutexLock lock(mutex_);
    insert_locked(client_incarnation, rid, op, verdict);
    if (persist_) persist_(client_incarnation, rid, op, verdict);
  }

  /// Inserts without persisting — journal replay during recovery.
  void insert_restored(std::uint64_t client_incarnation, std::uint64_t rid,
                       MsgType op, bool verdict) {
    MutexLock lock(mutex_);
    insert_locked(client_incarnation, rid, op, verdict);
  }

  /// Hello from a (re)connecting client: drops entries of *older*
  /// incarnations of the same client.  "Same client" = same high 32 bits of
  /// the incarnation; deployments with several clients should allocate
  /// incarnations as (client_id << 32) | restart_count.  The all-low-bits
  /// counters used by the simulator collapse every client into id 0, which
  /// is fine there: a restart wipes the whole simulated coupled system.
  void on_hello(std::uint64_t client_incarnation) {
    MutexLock lock(mutex_);
    const std::uint64_t client = client_incarnation >> 32;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if ((it->first.first >> 32) == client &&
          it->first.first < client_incarnation)
        it = entries_.erase(it);
      else
        ++it;
    }
  }

  void set_persist(std::function<void(std::uint64_t, std::uint64_t, MsgType,
                                      bool)> fn) {
    MutexLock lock(mutex_);
    persist_ = std::move(fn);
  }

  std::size_t size() const {
    MutexLock lock(mutex_);
    return entries_.size();
  }

 private:
  using Key = std::pair<std::uint64_t, std::uint64_t>;

  void insert_locked(std::uint64_t client_incarnation, std::uint64_t rid,
                     MsgType op, bool verdict) REQUIRES(mutex_) {
    const Key key{client_incarnation, rid};
    if (entries_.emplace(key, Entry{op, verdict}).second) {
      order_.push_back(key);
      while (order_.size() > max_entries_) {
        entries_.erase(order_.front());
        order_.pop_front();
      }
    }
  }

  std::size_t max_entries_;
  mutable Mutex mutex_;
  std::map<Key, Entry> entries_ GUARDED_BY(mutex_);
  std::deque<Key> order_ GUARDED_BY(mutex_);
  std::function<void(std::uint64_t, std::uint64_t, MsgType, bool)> persist_
      GUARDED_BY(mutex_);
};

/// Server-side identity and exactly-once wiring for a dispatcher.
struct DispatcherConfig {
  /// This daemon's incarnation, stamped on every response (0 = loopback,
  /// no incarnation semantics).
  std::uint64_t incarnation = 0;
  /// Optional exactly-once cache; consulted only for side-effecting calls
  /// from clients that declare an incarnation.
  RpcDedup* dedup = nullptr;
};

/// Decodes a request, invokes the service, encodes the response.
/// Malformed requests produce a kErrorResp rather than an exception so a
/// bad peer cannot crash a daemon.
class ServiceDispatcher {
 public:
  explicit ServiceDispatcher(CoschedService& service,
                             DispatcherConfig config = {})
      : service_(service), config_(config) {}

  /// Writes the encoded response into `out`, which the caller may reuse
  /// across calls.  `request` is read only before the service runs, and
  /// `out` is cleared only right before the response is encoded, so a
  /// service that calls back through the same buffers (a nested round trip
  /// over one loopback link) leaves this call's reply intact.
  void dispatch(std::span<const std::uint8_t> request, WireWriter& out);
  /// The same response in a vector of its own.
  std::vector<std::uint8_t> dispatch(std::span<const std::uint8_t> request);

 private:
  CoschedService& service_;
  DispatcherConfig config_;
};

}  // namespace cosched
