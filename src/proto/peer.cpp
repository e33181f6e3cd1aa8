#include "proto/peer.h"

#include "util/error.h"
#include "util/log.h"

namespace cosched {

std::optional<Message> LoopbackPeer::round_trip(const Message& req,
                                                MsgType expect) {
  ++calls_;
  request_.clear();
  req.encode(request_);
  request_bytes_ += request_.bytes().size();
  // The service may call back through this peer; the dispatcher has decoded
  // the request before then and clears reply_ only after, so both writers
  // are free for the nested call.
  dispatcher_.dispatch(request_.bytes(), reply_);
  response_bytes_ += reply_.bytes().size();
  Message resp;
  try {
    resp = Message::decode(reply_.bytes());
  } catch (const ParseError& e) {
    COSCHED_LOG(kError) << "loopback peer: bad response: " << e.what();
    return std::nullopt;
  }
  if (resp.type != expect) {
    if (resp.type == MsgType::kErrorResp)
      COSCHED_LOG(kWarn) << "loopback peer: remote error: " << resp.error;
    return std::nullopt;
  }
  if (resp.request_id != req.request_id) {
    COSCHED_LOG(kError) << "loopback peer: response id mismatch";
    return std::nullopt;
  }
  return resp;
}

std::optional<std::optional<JobId>> LoopbackPeer::get_mate_job(GroupId group,
                                                               JobId asking) {
  const auto resp = round_trip(make_get_mate_job_req(next_rid_++, group, asking),
                               MsgType::kGetMateJobResp);
  if (!resp) return std::nullopt;
  // in_place distinguishes "reachable, no mate" from transport failure:
  // optional<optional<T>>(nullopt) would construct an *empty outer*.
  if (!resp->found)
    return std::optional<std::optional<JobId>>(std::in_place, std::nullopt);
  return std::optional<std::optional<JobId>>(std::in_place, resp->job);
}

std::optional<MateStatus> LoopbackPeer::get_mate_status(JobId mate) {
  const auto resp = round_trip(make_get_mate_status_req(next_rid_++, mate),
                               MsgType::kGetMateStatusResp);
  if (!resp) return std::nullopt;
  return resp->status;
}

std::optional<bool> LoopbackPeer::try_start_mate(JobId mate) {
  auto req = make_try_start_mate_req(next_rid_++, mate);
  req.fence = fence_token_;
  const auto resp = round_trip(req, MsgType::kTryStartMateResp);
  if (!resp) return std::nullopt;
  return resp->ok;
}

std::optional<bool> LoopbackPeer::start_job(JobId job) {
  auto req = make_start_job_req(next_rid_++, job);
  req.fence = fence_token_;
  const auto resp = round_trip(req, MsgType::kStartJobResp);
  if (!resp) return std::nullopt;
  return resp->ok;
}

std::optional<bool> LoopbackPeer::gang_prepare(JobId job, GroupId group) {
  auto req = make_gang_prepare_req(next_rid_++, job, group);
  req.fence = fence_token_;
  const auto resp = round_trip(req, MsgType::kGangPrepareResp);
  if (!resp) return std::nullopt;
  return resp->ok;
}

std::optional<bool> LoopbackPeer::gang_commit(JobId job, GroupId group) {
  auto req = make_gang_commit_req(next_rid_++, job, group);
  req.fence = fence_token_;
  const auto resp = round_trip(req, MsgType::kGangCommitResp);
  if (!resp) return std::nullopt;
  return resp->ok;
}

std::optional<bool> LoopbackPeer::gang_abort(JobId job, GroupId group) {
  auto req = make_gang_abort_req(next_rid_++, job, group);
  req.fence = fence_token_;
  const auto resp = round_trip(req, MsgType::kGangAbortResp);
  if (!resp) return std::nullopt;
  return resp->ok;
}

std::optional<bool> LoopbackPeer::gang_victim(JobId job, GroupId group) {
  auto req = make_gang_victim_req(next_rid_++, job, group);
  req.fence = fence_token_;
  const auto resp = round_trip(req, MsgType::kGangVictimResp);
  if (!resp) return std::nullopt;
  return resp->ok;
}

std::optional<HeartbeatInfo> LoopbackPeer::heartbeat(
    const HeartbeatInfo& mine) {
  const auto resp = round_trip(make_heartbeat_req(next_rid_++, mine),
                               MsgType::kHeartbeatResp);
  if (!resp) return std::nullopt;
  HeartbeatInfo theirs;
  theirs.incarnation = resp->hb_incarnation;
  theirs.fence = resp->fence;
  theirs.queue_depth = resp->queue_depth;
  theirs.hold_fraction = resp->hold_fraction;
  return theirs;
}

}  // namespace cosched
