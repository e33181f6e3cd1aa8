// The coscheduling coordination protocol (paper §IV-C, Algorithm 1).
//
// Exactly the four remote calls of the paper:
//   getMateJob(group, asking_job) -> mate job id (or none)
//   getMateStatus(mate)           -> holding | queuing | unsubmitted |
//                                    starting | running | finished | unknown
//   tryStartMate(mate)            -> did the remote scheduling iteration
//                                    start the mate?
//   startJob(job)                 -> start a remote *holding* mate
//
// `starting` is the commit marker a domain reports for a job that initiated
// tryStartMate and is waiting for the answer: the remote Run_Job sees the
// asking job as ready, preventing mutual-query recursion.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "proto/wire.h"
#include "util/fields.h"
#include "util/types.h"
#include "workload/job.h"

namespace cosched {

enum class MateStatus : std::uint8_t {
  kHolding = 0,      ///< occupying nodes, waiting for the asking job
  kQueuing = 1,      ///< submitted, waiting in queue
  kUnsubmitted = 2,  ///< not yet submitted on the remote domain
  kStarting = 3,     ///< committed to start right now (treated like holding)
  kRunning = 4,      ///< already running (treated as unknown by Algorithm 1)
  kFinished = 5,     ///< already done (treated as unknown by Algorithm 1)
  kUnknown = 6,      ///< remote cannot answer (job failed / not tracked)
  kSuspected = 7,    ///< failure detector suspects the remote domain; not yet
                     ///< confirmed dead (holds persist, leases stop renewing)
};

const char* to_string(MateStatus s);

enum class MsgType : std::uint8_t {
  kGetMateJobReq = 1,
  kGetMateJobResp = 2,
  kGetMateStatusReq = 3,
  kGetMateStatusResp = 4,
  kTryStartMateReq = 5,
  kTryStartMateResp = 6,
  kStartJobReq = 7,
  kStartJobResp = 8,
  /// Incarnation handshake, sent once per (re)connection before any call:
  /// the request carries the client's incarnation, the response the
  /// server's.  Responses whose incarnation no longer matches the
  /// handshaken value are stale (the server restarted) and are rejected.
  kHelloReq = 9,
  kHelloResp = 10,
  /// Periodic liveness probe (both directions carry the same payload): the
  /// sender's incarnation, fencing epoch, queue depth, and holding fraction.
  /// A response is direct evidence the peer's scheduler loop is alive —
  /// the failure detector feeds on response arrivals, and hold leases renew
  /// on them.
  kHeartbeatReq = 11,
  kHeartbeatResp = 12,
  /// Two-phase gang costart (k >= 3 domains).  Prepare asks the member
  /// domain to place the gang job into a fenced, leased hold; commit starts
  /// a prepared (holding) member; abort releases a prepared hold.  Victim
  /// orders a deadlock-cycle victim to yield its hold with backoff.  All
  /// four are side-effecting: they carry the coordinator's fence token and
  /// go through the exactly-once dedup plane.
  kGangPrepareReq = 13,
  kGangPrepareResp = 14,
  kErrorResp = 15,
  kGangCommitReq = 16,
  kGangCommitResp = 17,
  kGangAbortReq = 18,
  kGangAbortResp = 19,
  kGangVictimReq = 20,
  kGangVictimResp = 21,
};

/// A protocol message; the union of all request/response payload fields.
/// Encoded fields are selected by `type`.
struct Message {
  MsgType type = MsgType::kErrorResp;
  std::uint64_t request_id = 0;

  /// Incarnation of the sender: the client's on requests (scopes request
  /// ids for exactly-once dedup), the server's on responses (rejects stale
  /// replies across a server restart).  0 = no incarnation semantics (the
  /// in-process loopback path).
  std::uint64_t incarnation = 0;

  GroupId group = kNoGroup;     // GetMateJobReq
  JobId job = kNoJob;           // asking/mate/target job id
  bool found = false;           // GetMateJobResp
  MateStatus status = MateStatus::kUnknown;  // GetMateStatusResp
  bool ok = false;              // TryStartMateResp / StartJobResp
  std::string error;            // kErrorResp

  /// Fencing token.  On TryStartMateReq/StartJobReq: the sender's view of
  /// the receiver's fencing epoch (0 = no fencing; pre-liveness client).
  /// On Heartbeat*: the sender's own current epoch, which is how peers
  /// learn it.  A side-effecting request carrying a stale nonzero token is
  /// rejected — the partitioned-then-healed-peer double-start guard.
  std::uint64_t fence = 0;
  /// Heartbeat*: the sender's scheduler incarnation.  Distinct from
  /// `incarnation` above, which the dispatcher overwrites on responses with
  /// the daemon identity (0 on the in-process loopback path).
  std::uint64_t hb_incarnation = 0;
  std::uint64_t queue_depth = 0;  // Heartbeat*: jobs waiting in queue
  double hold_fraction = 0.0;     // Heartbeat*: fraction of nodes held

  /// Appends the compact wire form to `w`.
  void encode(WireWriter& w) const;
  /// The same bytes in a vector of their own.
  std::vector<std::uint8_t> encode() const;

  /// Parses a wire message into `out`, assigning every field: those its
  /// type carries from the wire, the rest their defaults, so `out` ends
  /// equal to a fresh decode whatever it held (an error string keeps its
  /// buffer).  Throws ParseError on malformed input, leaving `out` partly
  /// overwritten.
  static void decode(std::span<const std::uint8_t> data, Message& out);
  /// The same into a Message of its own.
  static Message decode(std::span<const std::uint8_t> data) {
    Message m;
    decode(data, m);
    return m;
  }

  bool operator==(const Message&) const = default;
};

/// The response type that answers request type `req`: the next enumerator.
/// No request maps to kErrorResp, which answers any request that failed.
constexpr MsgType response_type(MsgType req) {
  return static_cast<MsgType>(static_cast<std::uint8_t>(req) + 1);
}

// Convenience constructors for each call.  The request and response
// builders are inline: every simulated call runs one of each.

namespace detail {
/// A request naming a job (and, for the gang calls, its group).
inline Message make_job_req(MsgType type, std::uint64_t rid, JobId job,
                            GroupId group = kNoGroup) {
  Message m;
  m.type = type;
  m.request_id = rid;
  m.job = job;
  m.group = group;
  return m;
}
}  // namespace detail

/// The reply to any of the six side-effecting requests (tryStartMate,
/// startJob and the four gang calls) of type `req`: its response_type,
/// carrying the verdict `ok`.
inline Message make_verdict_resp(MsgType req, std::uint64_t rid, bool ok) {
  Message m;
  m.type = response_type(req);
  m.request_id = rid;
  m.ok = ok;
  return m;
}

inline Message make_get_mate_job_req(std::uint64_t rid, GroupId group,
                                     JobId asking) {
  return detail::make_job_req(MsgType::kGetMateJobReq, rid, asking, group);
}
inline Message make_get_mate_job_resp(std::uint64_t rid,
                                      std::optional<JobId> mate) {
  Message m;
  m.type = MsgType::kGetMateJobResp;
  m.request_id = rid;
  m.found = mate.has_value();
  m.job = mate.value_or(kNoJob);
  return m;
}
inline Message make_get_mate_status_req(std::uint64_t rid, JobId mate) {
  return detail::make_job_req(MsgType::kGetMateStatusReq, rid, mate);
}
inline Message make_get_mate_status_resp(std::uint64_t rid,
                                         MateStatus status) {
  Message m;
  m.type = MsgType::kGetMateStatusResp;
  m.request_id = rid;
  m.status = status;
  return m;
}
inline Message make_try_start_mate_req(std::uint64_t rid, JobId mate) {
  return detail::make_job_req(MsgType::kTryStartMateReq, rid, mate);
}
inline Message make_try_start_mate_resp(std::uint64_t rid, bool started) {
  return make_verdict_resp(MsgType::kTryStartMateReq, rid, started);
}
inline Message make_start_job_req(std::uint64_t rid, JobId job) {
  return detail::make_job_req(MsgType::kStartJobReq, rid, job);
}
inline Message make_start_job_resp(std::uint64_t rid, bool ok) {
  return make_verdict_resp(MsgType::kStartJobReq, rid, ok);
}
Message make_hello_req(std::uint64_t rid, std::uint64_t client_incarnation);
Message make_hello_resp(std::uint64_t rid, std::uint64_t server_incarnation);
Message make_error_resp(std::uint64_t rid, std::string error);

// Gang costart calls.  Requests carry (job, fence, group); responses carry
// the boolean outcome.
inline Message make_gang_prepare_req(std::uint64_t rid, JobId job,
                                     GroupId group) {
  return detail::make_job_req(MsgType::kGangPrepareReq, rid, job, group);
}
inline Message make_gang_prepare_resp(std::uint64_t rid, bool ok) {
  return make_verdict_resp(MsgType::kGangPrepareReq, rid, ok);
}
inline Message make_gang_commit_req(std::uint64_t rid, JobId job,
                                    GroupId group) {
  return detail::make_job_req(MsgType::kGangCommitReq, rid, job, group);
}
inline Message make_gang_commit_resp(std::uint64_t rid, bool ok) {
  return make_verdict_resp(MsgType::kGangCommitReq, rid, ok);
}
inline Message make_gang_abort_req(std::uint64_t rid, JobId job,
                                   GroupId group) {
  return detail::make_job_req(MsgType::kGangAbortReq, rid, job, group);
}
inline Message make_gang_abort_resp(std::uint64_t rid, bool ok) {
  return make_verdict_resp(MsgType::kGangAbortReq, rid, ok);
}
inline Message make_gang_victim_req(std::uint64_t rid, JobId job,
                                    GroupId group) {
  return detail::make_job_req(MsgType::kGangVictimReq, rid, job, group);
}
inline Message make_gang_victim_resp(std::uint64_t rid, bool ok) {
  return make_verdict_resp(MsgType::kGangVictimReq, rid, ok);
}

/// Liveness payload exchanged in both directions of a heartbeat.
struct HeartbeatInfo {
  std::uint64_t incarnation = 0;  ///< sender's incarnation
  std::uint64_t fence = 0;        ///< sender's current fencing epoch
  std::uint64_t queue_depth = 0;  ///< jobs waiting in the sender's queue
  double hold_fraction = 0.0;     ///< fraction of the sender's nodes held

  bool operator==(const HeartbeatInfo&) const = default;
  COSCHED_FIELDS(HeartbeatInfo, incarnation, fence, queue_depth,
                 hold_fraction)
};

Message make_heartbeat_req(std::uint64_t rid, const HeartbeatInfo& info);
Message make_heartbeat_resp(std::uint64_t rid, const HeartbeatInfo& info);

}  // namespace cosched
