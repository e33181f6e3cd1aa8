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

void Message::decode(std::span<const std::uint8_t> data, Message& out) {
  WireReader r(data);
  const std::uint8_t t = r.get_u8();
  if (t < static_cast<std::uint8_t>(MsgType::kGetMateJobReq) ||
      t > static_cast<std::uint8_t>(MsgType::kGangVictimResp))
    throw ParseError("message: unknown type " + std::to_string(t));
  out.type = static_cast<MsgType>(t);
  out.request_id = r.get_u64();
  out.incarnation = r.get_u64();
  // The payload fields this type does not carry take their defaults.
  out.group = kNoGroup;
  out.job = kNoJob;
  out.found = false;
  out.status = MateStatus::kUnknown;
  out.ok = false;
  out.fence = 0;
  out.hb_incarnation = 0;
  out.queue_depth = 0;
  out.hold_fraction = 0.0;
  switch (out.type) {
    case MsgType::kGetMateJobReq:
      out.group = r.get_i64();
      out.job = r.get_i64();
      break;
    case MsgType::kGetMateJobResp:
      out.found = r.get_bool();
      out.job = r.get_i64();
      break;
    case MsgType::kGetMateStatusReq:
      out.job = r.get_i64();
      break;
    case MsgType::kGetMateStatusResp: {
      const std::uint8_t s = r.get_u8();
      if (s > static_cast<std::uint8_t>(MateStatus::kSuspected))
        throw ParseError("message: bad mate status " + std::to_string(s));
      out.status = static_cast<MateStatus>(s);
      break;
    }
    case MsgType::kTryStartMateReq:
    case MsgType::kStartJobReq:
      out.job = r.get_i64();
      out.fence = r.get_u64();
      break;
    case MsgType::kGangPrepareReq:
    case MsgType::kGangCommitReq:
    case MsgType::kGangAbortReq:
    case MsgType::kGangVictimReq:
      out.job = r.get_i64();
      out.fence = r.get_u64();
      out.group = r.get_i64();
      break;
    case MsgType::kTryStartMateResp:
    case MsgType::kStartJobResp:
    case MsgType::kGangPrepareResp:
    case MsgType::kGangCommitResp:
    case MsgType::kGangAbortResp:
    case MsgType::kGangVictimResp:
      out.ok = r.get_bool();
      break;
    case MsgType::kHelloReq:
    case MsgType::kHelloResp:
      break;
    case MsgType::kHeartbeatReq:
    case MsgType::kHeartbeatResp:
      out.hb_incarnation = r.get_u64();
      out.fence = r.get_u64();
      out.queue_depth = r.get_u64();
      out.hold_fraction = r.get_double();
      break;
    case MsgType::kErrorResp:
      out.error.assign(r.get_string_view());
      break;
  }
  if (out.type != MsgType::kErrorResp) out.error.clear();
  if (!r.exhausted()) throw ParseError("message: trailing bytes");
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
