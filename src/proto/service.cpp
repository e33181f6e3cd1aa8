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
    req = Message::decode(request);
  } catch (const ParseError& e) {
    COSCHED_LOG(kWarn) << "dispatcher: malformed request: " << e.what();
    return finish(make_error_resp(0, e.what()));
  }

  // Exactly-once: side-effecting calls from incarnated clients are answered
  // from the dedup cache on retry instead of re-executing.
  const bool dedupable = config_.dedup != nullptr && req.incarnation != 0 &&
                         (req.type == MsgType::kTryStartMateReq ||
                          req.type == MsgType::kStartJobReq ||
                          req.type == MsgType::kGangPrepareReq ||
                          req.type == MsgType::kGangCommitReq ||
                          req.type == MsgType::kGangAbortReq ||
                          req.type == MsgType::kGangVictimReq);
  if (dedupable) {
    if (auto hit = config_.dedup->lookup(req.incarnation, req.request_id)) {
      switch (req.type) {
        case MsgType::kTryStartMateReq:
          return finish(make_try_start_mate_resp(req.request_id, hit->verdict));
        case MsgType::kGangPrepareReq:
          return finish(make_gang_prepare_resp(req.request_id, hit->verdict));
        case MsgType::kGangCommitReq:
          return finish(make_gang_commit_resp(req.request_id, hit->verdict));
        case MsgType::kGangAbortReq:
          return finish(make_gang_abort_resp(req.request_id, hit->verdict));
        case MsgType::kGangVictimReq:
          return finish(make_gang_victim_resp(req.request_id, hit->verdict));
        default:
          return finish(make_start_job_resp(req.request_id, hit->verdict));
      }
    }
  }

  try {
    switch (req.type) {
      case MsgType::kGetMateJobReq:
        return finish(make_get_mate_job_resp(
            req.request_id, service_.get_mate_job(req.group, req.job)));
      case MsgType::kGetMateStatusReq:
        return finish(make_get_mate_status_resp(
            req.request_id, service_.get_mate_status(req.job)));
      case MsgType::kTryStartMateReq: {
        // Fence check after the dedup lookup: a retried call that already
        // executed must keep its recorded verdict even if the epoch has
        // since advanced.  A rejection is NOT recorded — the caller may
        // legitimately retry with a refreshed token.
        const bool admitted = service_.admit_fence(req.job, req.fence);
        const bool started = admitted && service_.try_start_mate(req.job);
        if (dedupable && admitted)
          config_.dedup->record(req.incarnation, req.request_id, req.type,
                                started);
        return finish(make_try_start_mate_resp(req.request_id, started));
      }
      case MsgType::kStartJobReq: {
        const bool admitted = service_.admit_fence(req.job, req.fence);
        const bool ok = admitted && service_.start_job(req.job);
        if (dedupable && admitted)
          config_.dedup->record(req.incarnation, req.request_id, req.type, ok);
        return finish(make_start_job_resp(req.request_id, ok));
      }
      case MsgType::kGangPrepareReq: {
        const bool admitted = service_.admit_fence(req.job, req.fence);
        const bool ok = admitted && service_.gang_prepare(req.job, req.group);
        if (dedupable && admitted)
          config_.dedup->record(req.incarnation, req.request_id, req.type, ok);
        return finish(make_gang_prepare_resp(req.request_id, ok));
      }
      case MsgType::kGangCommitReq: {
        const bool admitted = service_.admit_fence(req.job, req.fence);
        const bool ok = admitted && service_.gang_commit(req.job, req.group);
        if (dedupable && admitted)
          config_.dedup->record(req.incarnation, req.request_id, req.type, ok);
        return finish(make_gang_commit_resp(req.request_id, ok));
      }
      case MsgType::kGangAbortReq: {
        const bool admitted = service_.admit_fence(req.job, req.fence);
        const bool ok = admitted && service_.gang_abort(req.job, req.group);
        if (dedupable && admitted)
          config_.dedup->record(req.incarnation, req.request_id, req.type, ok);
        return finish(make_gang_abort_resp(req.request_id, ok));
      }
      case MsgType::kGangVictimReq: {
        const bool admitted = service_.admit_fence(req.job, req.fence);
        const bool ok = admitted && service_.gang_victim(req.job, req.group);
        if (dedupable && admitted)
          config_.dedup->record(req.incarnation, req.request_id, req.type, ok);
        return finish(make_gang_victim_resp(req.request_id, ok));
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
      default:
        return finish(
            make_error_resp(req.request_id, "unexpected message type"));
    }
  } catch (const std::exception& e) {
    COSCHED_LOG(kError) << "dispatcher: service error: " << e.what();
    return finish(make_error_resp(req.request_id, e.what()));
  }
}

}  // namespace cosched
