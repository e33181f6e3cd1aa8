#include "proto/service.h"

#include "util/error.h"
#include "util/log.h"

namespace cosched {

std::vector<std::uint8_t> ServiceDispatcher::dispatch(
    std::span<const std::uint8_t> request) {
  WireWriter out;
  dispatch(request, out);
  return out.take();
}

void ServiceDispatcher::dispatch(std::span<const std::uint8_t> request,
                                 WireWriter& out) {
  Message req;
  // Every response carries this daemon's incarnation so clients can reject
  // replies that straddle a server restart.  `out` is cleared here, after
  // the service call, never on entry: a nested call through the same link
  // has already written (and its caller decoded) its own reply there.
  const auto finish = [this, &out](Message resp) {
    resp.incarnation = config_.incarnation;
    out.clear();
    resp.encode(out);
  };
  try {
    Message::decode(request, req);
  } catch (const ParseError& e) {
    COSCHED_LOG(kWarn) << "dispatcher: malformed request: " << e.what();
    return finish(make_error_resp(0, e.what()));
  }

  // The one path of the six side-effecting requests.  A retry from an
  // incarnated client is answered from the dedup cache instead of
  // re-executing.  The fence check comes after the dedup lookup: a retried
  // call that already executed keeps its recorded verdict even if the epoch
  // has since advanced.  A rejection is NOT recorded — the caller may
  // legitimately retry with a refreshed token.  An executed call's verdict
  // is recorded, and the cache's persist hook journals it, before the reply
  // is built.
  const auto exactly_once = [this, &req, &finish](auto call) {
    const bool dedupable = config_.dedup != nullptr && req.incarnation != 0;
    if (dedupable) {
      if (auto hit = config_.dedup->lookup(req.incarnation, req.request_id))
        return finish(
            make_verdict_resp(req.type, req.request_id, hit->verdict));
    }
    if (!service_.admit_fence(req.job, req.fence))
      return finish(make_verdict_resp(req.type, req.request_id, false));
    const bool ok = call();
    if (dedupable)
      config_.dedup->record(req.incarnation, req.request_id, req.type, ok);
    return finish(make_verdict_resp(req.type, req.request_id, ok));
  };

  try {
    switch (req.type) {
      case MsgType::kGetMateJobReq:
        return finish(make_get_mate_job_resp(
            req.request_id, service_.get_mate_job(req.group, req.job)));
      case MsgType::kGetMateStatusReq:
        return finish(make_get_mate_status_resp(
            req.request_id, service_.get_mate_status(req.job)));
      case MsgType::kTryStartMateReq:
        return exactly_once([&] { return service_.try_start_mate(req.job); });
      case MsgType::kStartJobReq:
        return exactly_once([&] { return service_.start_job(req.job); });
      case MsgType::kGangPrepareReq:
        return exactly_once(
            [&] { return service_.gang_prepare(req.job, req.group); });
      case MsgType::kGangCommitReq:
        return exactly_once(
            [&] { return service_.gang_commit(req.job, req.group); });
      case MsgType::kGangAbortReq:
        return exactly_once(
            [&] { return service_.gang_abort(req.job, req.group); });
      case MsgType::kGangVictimReq:
        return exactly_once(
            [&] { return service_.gang_victim(req.job, req.group); });
      case MsgType::kHelloReq:
        if (config_.dedup && req.incarnation != 0)
          config_.dedup->on_hello(req.incarnation);
        return finish(make_hello_resp(req.request_id, config_.incarnation));
      case MsgType::kHeartbeatReq: {
        HeartbeatInfo from;
        from.incarnation = req.hb_incarnation;
        from.fence = req.fence;
        from.queue_depth = req.queue_depth;
        from.hold_fraction = req.hold_fraction;
        if (auto mine = service_.heartbeat(from))
          return finish(make_heartbeat_resp(req.request_id, *mine));
        return finish(
            make_error_resp(req.request_id, "liveness not supported"));
      }
      // A response sent as a request.
      case MsgType::kGetMateJobResp:
      case MsgType::kGetMateStatusResp:
      case MsgType::kTryStartMateResp:
      case MsgType::kStartJobResp:
      case MsgType::kHelloResp:
      case MsgType::kHeartbeatResp:
      case MsgType::kGangPrepareResp:
      case MsgType::kErrorResp:
      case MsgType::kGangCommitResp:
      case MsgType::kGangAbortResp:
      case MsgType::kGangVictimResp:
        break;
    }
    return finish(make_error_resp(req.request_id, "unexpected message type"));
  } catch (const std::exception& e) {
    COSCHED_LOG(kError) << "dispatcher: service error: " << e.what();
    return finish(make_error_resp(req.request_id, e.what()));
  }
}

}  // namespace cosched
