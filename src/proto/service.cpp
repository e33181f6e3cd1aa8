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

  try {
    switch (req.type) {
      case MsgType::kGetMateJobReq:
        return finish(make_get_mate_job_resp(
            req.request_id, service_.get_mate_job(req.group, req.job)));
      case MsgType::kGetMateStatusReq:
        return finish(make_get_mate_status_resp(
            req.request_id, service_.get_mate_status(req.job)));
      case MsgType::kTryStartMateReq:
      case MsgType::kStartJobReq:
      case MsgType::kGangPrepareReq:
      case MsgType::kGangCommitReq:
      case MsgType::kGangAbortReq:
      case MsgType::kGangVictimReq: {
        // Exactly-once: a retry from an incarnated client is answered from
        // the dedup cache instead of re-executing.
        const bool dedupable = config_.dedup != nullptr && req.incarnation != 0;
        if (dedupable) {
          if (auto hit = config_.dedup->lookup(req.incarnation, req.request_id))
            return finish(
                make_verdict_resp(req.type, req.request_id, hit->verdict));
        }
        // Fence check after the dedup lookup: a retried call that already
        // executed must keep its recorded verdict even if the epoch has
        // since advanced.  A rejection is NOT recorded — the caller may
        // legitimately retry with a refreshed token.
        const bool admitted = service_.admit_fence(req.job, req.fence);
        bool ok = false;
        if (admitted) {
          switch (req.type) {
            case MsgType::kTryStartMateReq:
              ok = service_.try_start_mate(req.job);
              break;
            case MsgType::kStartJobReq:
              ok = service_.start_job(req.job);
              break;
            case MsgType::kGangPrepareReq:
              ok = service_.gang_prepare(req.job, req.group);
              break;
            case MsgType::kGangCommitReq:
              ok = service_.gang_commit(req.job, req.group);
              break;
            case MsgType::kGangAbortReq:
              ok = service_.gang_abort(req.job, req.group);
              break;
            case MsgType::kGangVictimReq:
              ok = service_.gang_victim(req.job, req.group);
              break;
            // The enclosing arm admits only the six requests above.
            case MsgType::kGetMateJobReq:
            case MsgType::kGetMateJobResp:
            case MsgType::kGetMateStatusReq:
            case MsgType::kGetMateStatusResp:
            case MsgType::kTryStartMateResp:
            case MsgType::kStartJobResp:
            case MsgType::kHelloReq:
            case MsgType::kHelloResp:
            case MsgType::kHeartbeatReq:
            case MsgType::kHeartbeatResp:
            case MsgType::kGangPrepareResp:
            case MsgType::kErrorResp:
            case MsgType::kGangCommitResp:
            case MsgType::kGangAbortResp:
            case MsgType::kGangVictimResp:
              COSCHED_CHECK_MSG(false, "not a side-effecting request");
          }
          if (dedupable)
            config_.dedup->record(req.incarnation, req.request_id, req.type,
                                  ok);
        }
        return finish(make_verdict_resp(req.type, req.request_id, ok));
      }
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
