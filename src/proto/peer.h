// Client side of the coordination protocol.
//
// The coscheduling agent talks to each remote domain through PeerClient.
// Every method returns nullopt on *transport* failure — the condition
// Algorithm 1 maps to mate status "unknown" (start the local job normally;
// a job never waits forever for a dead peer).
#pragma once

#include <atomic>
#include <cstdint>
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
  /// reason to abort the round).
  virtual std::optional<bool> gang_prepare(JobId job, GroupId group) = 0;
  virtual std::optional<bool> gang_commit(JobId job, GroupId group) = 0;
  virtual std::optional<bool> gang_abort(JobId job, GroupId group) = 0;
  virtual std::optional<bool> gang_victim(JobId job, GroupId group) = 0;

  /// Liveness probe carrying the local domain's payload; the remote's
  /// payload comes back.  nullopt = unreachable OR the remote predates the
  /// liveness protocol — either way no evidence of life.
  virtual std::optional<HeartbeatInfo> heartbeat(const HeartbeatInfo& mine) = 0;

  /// Sets the fencing token stamped on subsequent side-effecting calls
  /// (tryStartMate, startJob and the gang calls): the remote's fencing
  /// epoch as last learned from its heartbeats (0 = unfenced, always
  /// admitted).
  virtual void set_fence_token(std::uint64_t token) = 0;
};

/// The nine typed calls, written once over one transport method.  Each call
/// builds its request, stamps the fencing token on the six side-effecting
/// ones, and accepts only the reply type that answers the request
/// (response_type): any other reply, an error reply included, reads as
/// nullopt ("remote unknown") on every transport.
///
/// Thread safety: the fencing token is atomic, because a heartbeat thread
/// may set it while call threads stamp it; requests and replies live on
/// each call's stack, so what else is shared is the transport's business.
class ProtocolPeer : public PeerClient {
 public:
  std::optional<std::optional<JobId>> get_mate_job(GroupId group,
                                                   JobId asking) final;
  std::optional<MateStatus> get_mate_status(JobId mate) final;
  std::optional<bool> try_start_mate(JobId mate) final;
  std::optional<bool> start_job(JobId job) final;
  std::optional<bool> gang_prepare(JobId job, GroupId group) final;
  std::optional<bool> gang_commit(JobId job, GroupId group) final;
  std::optional<bool> gang_abort(JobId job, GroupId group) final;
  std::optional<bool> gang_victim(JobId job, GroupId group) final;
  std::optional<HeartbeatInfo> heartbeat(const HeartbeatInfo& mine) final;
  void set_fence_token(std::uint64_t token) final { fence_token_ = token; }

 protected:
  /// The transport: stamps `req` with a request id of its own as it sends
  /// it, and decodes the answer into `reply`.  False = no reply to this
  /// request came back.  A reply of any type counts as an answer.
  virtual bool exchange(Message& req, Message& reply) = 0;

 private:
  /// exchange() that accepts only the reply type answering `req`.
  bool call(Message& req, Message& reply);
  /// A side-effecting call: fenced, answered by the reply's verdict.
  std::optional<bool> fenced(Message req);

  std::atomic<std::uint64_t> fence_token_{0};
};

/// In-process transport: encodes each request, runs it through a
/// ServiceDispatcher, and decodes the response — the full wire path without
/// a socket, so every simulation exercises the protocol encoding.  The
/// request and the reply go through two writers the peer owns and reuses for
/// every call, so a warm round trip allocates nothing.
///
/// Thread safety: confined to the simulation thread — the request-id
/// counter and the counters are plain integers on purpose.  No mutex, so no
/// GUARDED_BY members; the annotated-mutex convention lives in
/// src/util/thread_annotations.h.
class LoopbackPeer final : public ProtocolPeer {
 public:
  explicit LoopbackPeer(CoschedService& service) : dispatcher_(service) {}

  /// Total protocol round-trips performed (for the overhead accounting).
  std::uint64_t calls() const { return calls_; }

  /// Total encoded request/response bytes — quantifies the paper's
  /// "lightweight protocol" claim.
  std::uint64_t request_bytes() const { return request_bytes_; }
  std::uint64_t response_bytes() const { return response_bytes_; }

 private:
  bool exchange(Message& req, Message& reply) override;

  ServiceDispatcher dispatcher_;
  WireWriter request_;
  WireWriter reply_;
  std::uint64_t next_rid_ = 1;
  std::uint64_t calls_ = 0;
  std::uint64_t request_bytes_ = 0;
  std::uint64_t response_bytes_ = 0;
};

}  // namespace cosched
