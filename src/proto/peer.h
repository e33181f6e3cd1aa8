// Client side of the coordination protocol.
//
// The coscheduling agent talks to each remote domain through PeerClient.
// Every method returns nullopt on *transport* failure — the condition
// Algorithm 1 maps to mate status "unknown" (start the local job normally;
// a job never waits forever for a dead peer).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "proto/message.h"
#include "proto/service.h"

namespace cosched {

class PeerClient {
 public:
  virtual ~PeerClient() = default;

  /// nullopt = remote unreachable.  An unreachable remote means "no mate
  /// found" at line 2 of Algorithm 1: the ready job starts immediately.
  virtual std::optional<std::optional<JobId>> get_mate_job(GroupId group,
                                                           JobId asking) = 0;
  virtual std::optional<MateStatus> get_mate_status(JobId mate) = 0;
  virtual std::optional<bool> try_start_mate(JobId mate) = 0;
  virtual std::optional<bool> start_job(JobId job) = 0;

  /// Two-phase gang costart calls (k >= 3 domains).  All side-effecting:
  /// fenced and deduped like tryStartMate/startJob.  nullopt = transport
  /// failure (the coordinator treats an unanswered prepare/commit as a
  /// reason to abort the round).  Defaults keep legacy peers compiling and
  /// report "remote cannot gang-start".
  virtual std::optional<bool> gang_prepare(JobId job, GroupId group) {
    (void)job;
    (void)group;
    return std::optional<bool>(false);
  }
  virtual std::optional<bool> gang_commit(JobId job, GroupId group) {
    (void)job;
    (void)group;
    return std::optional<bool>(false);
  }
  virtual std::optional<bool> gang_abort(JobId job, GroupId group) {
    (void)job;
    (void)group;
    return std::optional<bool>(false);
  }
  virtual std::optional<bool> gang_victim(JobId job, GroupId group) {
    (void)job;
    (void)group;
    return std::optional<bool>(false);
  }

  /// Liveness probe carrying the local domain's payload; the remote's
  /// payload comes back.  nullopt = unreachable OR the remote predates the
  /// liveness protocol — either way no evidence of life.  Default keeps
  /// legacy peers compiling.
  virtual std::optional<HeartbeatInfo> heartbeat(const HeartbeatInfo& mine) {
    (void)mine;
    return std::nullopt;
  }

  /// Sets the fencing token stamped on subsequent side-effecting calls
  /// (tryStartMate/startJob): the remote's fencing epoch as last learned
  /// from its heartbeats.  Default no-op for legacy peers (token 0 =
  /// unfenced, always admitted).
  virtual void set_fence_token(std::uint64_t token) { (void)token; }
};

/// In-process peer: encodes each call, runs it through a ServiceDispatcher,
/// and decodes the response — the full wire path without a socket, so every
/// simulation exercises the protocol encoding.  The request and the reply
/// go through two writers the peer owns and reuses for every call, so a
/// warm round trip allocates nothing.
///
/// Thread safety: confined to the simulation thread — the counters are
/// plain integers on purpose.  No mutex, so no GUARDED_BY members; the
/// annotated-mutex convention lives in src/util/thread_annotations.h.
class LoopbackPeer final : public PeerClient {
 public:
  explicit LoopbackPeer(CoschedService& service) : dispatcher_(service) {}

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
  void set_fence_token(std::uint64_t token) override { fence_token_ = token; }

  /// Total protocol round-trips performed (for the overhead accounting).
  std::uint64_t calls() const { return calls_; }

  /// Total encoded request/response bytes — quantifies the paper's
  /// "lightweight protocol" claim.
  std::uint64_t request_bytes() const { return request_bytes_; }
  std::uint64_t response_bytes() const { return response_bytes_; }

 private:
  std::optional<Message> round_trip(const Message& req, MsgType expect);

  ServiceDispatcher dispatcher_;
  WireWriter request_;
  WireWriter reply_;
  std::uint64_t next_rid_ = 1;
  std::uint64_t fence_token_ = 0;
  std::uint64_t calls_ = 0;
  std::uint64_t request_bytes_ = 0;
  std::uint64_t response_bytes_ = 0;
};

}  // namespace cosched
