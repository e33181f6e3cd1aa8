#include "proto/message.h"

#include "proto/wire.h"

namespace cosched {

const char* to_string(MateStatus s) {
  switch (s) {
    case MateStatus::kHolding: return "holding";
    case MateStatus::kQueuing: return "queuing";
    case MateStatus::kUnsubmitted: return "unsubmitted";
    case MateStatus::kStarting: return "starting";
    case MateStatus::kRunning: return "running";
    case MateStatus::kFinished: return "finished";
    case MateStatus::kUnknown: return "unknown";
    case MateStatus::kSuspected: return "suspected";
  }
  return "?";
}

std::vector<std::uint8_t> Message::encode() const {
  WireWriter w;
  encode(w);
  return w.take();
}

void Message::encode(WireWriter& w) const {
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u64(request_id);
  w.put_u64(incarnation);
  switch (type) {
    case MsgType::kGetMateJobReq:
      w.put_i64(group);
      w.put_i64(job);
      break;
    case MsgType::kGetMateJobResp:
      w.put_bool(found);
      w.put_i64(job);
      break;
    case MsgType::kGetMateStatusReq:
      w.put_i64(job);
      break;
    case MsgType::kGetMateStatusResp:
      w.put_u8(static_cast<std::uint8_t>(status));
      break;
    case MsgType::kTryStartMateReq:
    case MsgType::kStartJobReq:
      w.put_i64(job);
      w.put_u64(fence);
      break;
    case MsgType::kGangPrepareReq:
    case MsgType::kGangCommitReq:
    case MsgType::kGangAbortReq:
    case MsgType::kGangVictimReq:
      w.put_i64(job);
      w.put_u64(fence);
      w.put_i64(group);
      break;
    case MsgType::kTryStartMateResp:
    case MsgType::kStartJobResp:
    case MsgType::kGangPrepareResp:
    case MsgType::kGangCommitResp:
    case MsgType::kGangAbortResp:
    case MsgType::kGangVictimResp:
      w.put_bool(ok);
      break;
    case MsgType::kHelloReq:
    case MsgType::kHelloResp:
      break;  // the incarnation field is the whole payload
    case MsgType::kHeartbeatReq:
    case MsgType::kHeartbeatResp:
      w.put_u64(hb_incarnation);
      w.put_u64(fence);
      w.put_u64(queue_depth);
      w.put_double(hold_fraction);
      break;
    case MsgType::kErrorResp:
      w.put_string(error);
      break;
  }
}

Message Message::decode(std::span<const std::uint8_t> data) {
  WireReader r(data);
  Message m;
  const std::uint8_t t = r.get_u8();
  switch (t) {
    case 1: case 2: case 3: case 4: case 5: case 6: case 7: case 8:
    case 9: case 10: case 11: case 12: case 13: case 14: case 15:
    case 16: case 17: case 18: case 19: case 20: case 21:
      m.type = static_cast<MsgType>(t);
      break;
    default:
      throw ParseError("message: unknown type " + std::to_string(t));
  }
  m.request_id = r.get_u64();
  m.incarnation = r.get_u64();
  switch (m.type) {
    case MsgType::kGetMateJobReq:
      m.group = r.get_i64();
      m.job = r.get_i64();
      break;
    case MsgType::kGetMateJobResp:
      m.found = r.get_bool();
      m.job = r.get_i64();
      break;
    case MsgType::kGetMateStatusReq:
      m.job = r.get_i64();
      break;
    case MsgType::kGetMateStatusResp: {
      const std::uint8_t s = r.get_u8();
      if (s > static_cast<std::uint8_t>(MateStatus::kSuspected))
        throw ParseError("message: bad mate status " + std::to_string(s));
      m.status = static_cast<MateStatus>(s);
      break;
    }
    case MsgType::kTryStartMateReq:
    case MsgType::kStartJobReq:
      m.job = r.get_i64();
      m.fence = r.get_u64();
      break;
    case MsgType::kGangPrepareReq:
    case MsgType::kGangCommitReq:
    case MsgType::kGangAbortReq:
    case MsgType::kGangVictimReq:
      m.job = r.get_i64();
      m.fence = r.get_u64();
      m.group = r.get_i64();
      break;
    case MsgType::kTryStartMateResp:
    case MsgType::kStartJobResp:
    case MsgType::kGangPrepareResp:
    case MsgType::kGangCommitResp:
    case MsgType::kGangAbortResp:
    case MsgType::kGangVictimResp:
      m.ok = r.get_bool();
      break;
    case MsgType::kHelloReq:
    case MsgType::kHelloResp:
      break;
    case MsgType::kHeartbeatReq:
    case MsgType::kHeartbeatResp:
      m.hb_incarnation = r.get_u64();
      m.fence = r.get_u64();
      m.queue_depth = r.get_u64();
      m.hold_fraction = r.get_double();
      break;
    case MsgType::kErrorResp:
      m.error = r.get_string();
      break;
  }
  if (!r.exhausted()) throw ParseError("message: trailing bytes");
  return m;
}

namespace {
Message make_job_req(MsgType type, std::uint64_t rid, JobId job,
                     GroupId group = kNoGroup) {
  Message m;
  m.type = type;
  m.request_id = rid;
  m.job = job;
  m.group = group;
  return m;
}
}  // namespace

Message make_get_mate_job_req(std::uint64_t rid, GroupId group, JobId asking) {
  return make_job_req(MsgType::kGetMateJobReq, rid, asking, group);
}

Message make_get_mate_job_resp(std::uint64_t rid, std::optional<JobId> mate) {
  Message m;
  m.type = MsgType::kGetMateJobResp;
  m.request_id = rid;
  m.found = mate.has_value();
  m.job = mate.value_or(kNoJob);
  return m;
}

Message make_get_mate_status_req(std::uint64_t rid, JobId mate) {
  return make_job_req(MsgType::kGetMateStatusReq, rid, mate);
}

Message make_get_mate_status_resp(std::uint64_t rid, MateStatus status) {
  Message m;
  m.type = MsgType::kGetMateStatusResp;
  m.request_id = rid;
  m.status = status;
  return m;
}

Message make_try_start_mate_req(std::uint64_t rid, JobId mate) {
  return make_job_req(MsgType::kTryStartMateReq, rid, mate);
}

Message make_try_start_mate_resp(std::uint64_t rid, bool started) {
  return make_verdict_resp(MsgType::kTryStartMateReq, rid, started);
}

Message make_start_job_req(std::uint64_t rid, JobId job) {
  return make_job_req(MsgType::kStartJobReq, rid, job);
}

Message make_start_job_resp(std::uint64_t rid, bool ok) {
  return make_verdict_resp(MsgType::kStartJobReq, rid, ok);
}

Message make_hello_req(std::uint64_t rid, std::uint64_t client_incarnation) {
  Message m;
  m.type = MsgType::kHelloReq;
  m.request_id = rid;
  m.incarnation = client_incarnation;
  return m;
}

Message make_hello_resp(std::uint64_t rid, std::uint64_t server_incarnation) {
  Message m;
  m.type = MsgType::kHelloResp;
  m.request_id = rid;
  m.incarnation = server_incarnation;
  return m;
}

Message make_error_resp(std::uint64_t rid, std::string error) {
  Message m;
  m.type = MsgType::kErrorResp;
  m.request_id = rid;
  m.error = std::move(error);
  return m;
}

Message make_verdict_resp(MsgType req, std::uint64_t rid, bool ok) {
  Message m;
  m.type = response_type(req);
  m.request_id = rid;
  m.ok = ok;
  return m;
}

Message make_gang_prepare_req(std::uint64_t rid, JobId job, GroupId group) {
  return make_job_req(MsgType::kGangPrepareReq, rid, job, group);
}
Message make_gang_prepare_resp(std::uint64_t rid, bool ok) {
  return make_verdict_resp(MsgType::kGangPrepareReq, rid, ok);
}
Message make_gang_commit_req(std::uint64_t rid, JobId job, GroupId group) {
  return make_job_req(MsgType::kGangCommitReq, rid, job, group);
}
Message make_gang_commit_resp(std::uint64_t rid, bool ok) {
  return make_verdict_resp(MsgType::kGangCommitReq, rid, ok);
}
Message make_gang_abort_req(std::uint64_t rid, JobId job, GroupId group) {
  return make_job_req(MsgType::kGangAbortReq, rid, job, group);
}
Message make_gang_abort_resp(std::uint64_t rid, bool ok) {
  return make_verdict_resp(MsgType::kGangAbortReq, rid, ok);
}
Message make_gang_victim_req(std::uint64_t rid, JobId job, GroupId group) {
  return make_job_req(MsgType::kGangVictimReq, rid, job, group);
}
Message make_gang_victim_resp(std::uint64_t rid, bool ok) {
  return make_verdict_resp(MsgType::kGangVictimReq, rid, ok);
}

namespace {
Message make_heartbeat(MsgType type, std::uint64_t rid,
                       const HeartbeatInfo& info) {
  Message m;
  m.type = type;
  m.request_id = rid;
  m.hb_incarnation = info.incarnation;
  m.fence = info.fence;
  m.queue_depth = info.queue_depth;
  m.hold_fraction = info.hold_fraction;
  return m;
}
}  // namespace

Message make_heartbeat_req(std::uint64_t rid, const HeartbeatInfo& info) {
  return make_heartbeat(MsgType::kHeartbeatReq, rid, info);
}

Message make_heartbeat_resp(std::uint64_t rid, const HeartbeatInfo& info) {
  return make_heartbeat(MsgType::kHeartbeatResp, rid, info);
}

}  // namespace cosched
