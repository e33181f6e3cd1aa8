#include "proto/peer.h"

#include "util/error.h"
#include "util/log.h"

namespace cosched {

bool ProtocolPeer::call(Message& req, Message& reply) {
  if (!exchange(req, reply)) return false;
  if (reply.type == response_type(req.type)) return true;
  if (reply.type == MsgType::kErrorResp)
    COSCHED_LOG(kWarn) << "peer: remote error: " << reply.error;
  else
    COSCHED_LOG(kWarn) << "peer: unexpected response type "
                       << static_cast<int>(reply.type);
  return false;
}

std::optional<bool> ProtocolPeer::fenced(Message req) {
  req.fence = fence_token_;
  Message reply;
  if (!call(req, reply)) return std::nullopt;
  return reply.ok;
}

std::optional<std::optional<JobId>> ProtocolPeer::get_mate_job(GroupId group,
                                                               JobId asking) {
  Message req = make_get_mate_job_req(0, group, asking);
  Message reply;
  if (!call(req, reply)) return std::nullopt;
  // in_place distinguishes "reachable, no mate" from transport failure:
  // optional<optional<T>>(nullopt) would construct an *empty outer*.
  if (!reply.found)
    return std::optional<std::optional<JobId>>(std::in_place, std::nullopt);
  return std::optional<std::optional<JobId>>(std::in_place, reply.job);
}

std::optional<MateStatus> ProtocolPeer::get_mate_status(JobId mate) {
  Message req = make_get_mate_status_req(0, mate);
  Message reply;
  if (!call(req, reply)) return std::nullopt;
  return reply.status;
}

std::optional<bool> ProtocolPeer::try_start_mate(JobId mate) {
  return fenced(make_try_start_mate_req(0, mate));
}

std::optional<bool> ProtocolPeer::start_job(JobId job) {
  return fenced(make_start_job_req(0, job));
}

std::optional<bool> ProtocolPeer::gang_prepare(JobId job, GroupId group) {
  return fenced(make_gang_prepare_req(0, job, group));
}

std::optional<bool> ProtocolPeer::gang_commit(JobId job, GroupId group) {
  return fenced(make_gang_commit_req(0, job, group));
}

std::optional<bool> ProtocolPeer::gang_abort(JobId job, GroupId group) {
  return fenced(make_gang_abort_req(0, job, group));
}

std::optional<bool> ProtocolPeer::gang_victim(JobId job, GroupId group) {
  return fenced(make_gang_victim_req(0, job, group));
}

std::optional<HeartbeatInfo> ProtocolPeer::heartbeat(
    const HeartbeatInfo& mine) {
  Message req = make_heartbeat_req(0, mine);
  Message reply;
  if (!call(req, reply)) return std::nullopt;
  return HeartbeatInfo{reply.hb_incarnation, reply.fence, reply.queue_depth,
                       reply.hold_fraction};
}

bool LoopbackPeer::exchange(Message& req, Message& reply) {
  ++calls_;
  req.request_id = next_rid_++;
  request_.clear();
  req.encode(request_);
  request_bytes_ += request_.bytes().size();
  // The service may call back through this peer; the dispatcher has decoded
  // the request before then and clears reply_ only after, so both writers
  // are free for the nested call.
  dispatcher_.dispatch(request_.bytes(), reply_);
  response_bytes_ += reply_.bytes().size();
  try {
    Message::decode(reply_.bytes(), reply);
  } catch (const ParseError& e) {
    COSCHED_LOG(kError) << "loopback peer: bad response: " << e.what();
    return false;
  }
  if (reply.request_id == req.request_id) return true;
  COSCHED_LOG(kError) << "loopback peer: response id mismatch";
  return false;
}

}  // namespace cosched
