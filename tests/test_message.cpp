#include "proto/message.h"

#include <gtest/gtest.h>

#include "core/liveness.h"
#include "util/error.h"

namespace cosched {
namespace {

void expect_round_trip(const Message& m) {
  const auto bytes = m.encode();
  const Message back = Message::decode(bytes);
  EXPECT_EQ(back, m);
}

TEST(Message, GetMateJobReqRoundTrip) {
  expect_round_trip(make_get_mate_job_req(7, 42, 1001));
}

TEST(Message, GetMateJobRespRoundTrip) {
  expect_round_trip(make_get_mate_job_resp(7, JobId{55}));
  expect_round_trip(make_get_mate_job_resp(8, std::nullopt));
}

TEST(Message, GetMateStatusRoundTrip) {
  expect_round_trip(make_get_mate_status_req(1, 99));
  for (auto s : {MateStatus::kHolding, MateStatus::kQueuing,
                 MateStatus::kUnsubmitted, MateStatus::kStarting,
                 MateStatus::kRunning, MateStatus::kFinished,
                 MateStatus::kUnknown, MateStatus::kSuspected})
    expect_round_trip(make_get_mate_status_resp(2, s));
}

TEST(Message, TryStartMateRoundTrip) {
  expect_round_trip(make_try_start_mate_req(3, 12));
  expect_round_trip(make_try_start_mate_resp(3, true));
  expect_round_trip(make_try_start_mate_resp(4, false));
}

TEST(Message, StartJobRoundTrip) {
  expect_round_trip(make_start_job_req(5, 77));
  expect_round_trip(make_start_job_resp(5, true));
}

TEST(Message, ErrorRespRoundTrip) {
  expect_round_trip(make_error_resp(6, "no such job"));
}

TEST(Message, NegativeIdsSurvive) {
  expect_round_trip(make_get_mate_job_req(1, kNoGroup, kNoJob));
}

TEST(Message, UnknownTypeRejected) {
  std::vector<std::uint8_t> bytes = {99, 0};
  EXPECT_THROW(Message::decode(bytes), ParseError);
}

TEST(Message, TrailingBytesRejected) {
  auto bytes = make_try_start_mate_resp(1, true).encode();
  bytes.push_back(0);
  EXPECT_THROW(Message::decode(bytes), ParseError);
}

TEST(Message, TruncatedPayloadRejected) {
  auto bytes = make_get_mate_job_req(7, 42, 1001).encode();
  bytes.resize(bytes.size() - 1);
  EXPECT_THROW(Message::decode(bytes), ParseError);
}

TEST(Message, BadStatusValueRejected) {
  auto bytes = make_get_mate_status_resp(1, MateStatus::kUnknown).encode();
  bytes.back() = 200;  // not a valid MateStatus
  EXPECT_THROW(Message::decode(bytes), ParseError);
}

TEST(Message, StatusNames) {
  EXPECT_STREQ(to_string(MateStatus::kHolding), "holding");
  EXPECT_STREQ(to_string(MateStatus::kQueuing), "queuing");
  EXPECT_STREQ(to_string(MateStatus::kUnsubmitted), "unsubmitted");
  EXPECT_STREQ(to_string(MateStatus::kStarting), "starting");
  EXPECT_STREQ(to_string(MateStatus::kUnknown), "unknown");
  EXPECT_STREQ(to_string(MateStatus::kSuspected), "suspected");
}

TEST(Message, HeartbeatRoundTrip) {
  HeartbeatInfo info;
  info.incarnation = 3;
  info.fence = make_fence_token(3, 17);
  info.queue_depth = 42;
  info.hold_fraction = 0.375;  // doubles travel as exact bit patterns
  expect_round_trip(make_heartbeat_req(9, info));
  expect_round_trip(make_heartbeat_resp(9, info));
  // All-zero payload (cold daemon) survives too.
  expect_round_trip(make_heartbeat_req(10, HeartbeatInfo{}));
}

TEST(Message, FencedSideEffectingCallsRoundTrip) {
  // The fencing token rides on the two side-effecting requests; 0 means an
  // unfenced (pre-liveness) caller and must survive unchanged.
  Message try_start = make_try_start_mate_req(3, 12);
  try_start.fence = make_fence_token(2, 5);
  expect_round_trip(try_start);
  Message start = make_start_job_req(4, 77);
  start.fence = make_fence_token(1, 0xFFFFFFFFu);
  expect_round_trip(start);
  expect_round_trip(make_start_job_req(5, 78));  // fence defaults to 0
}

TEST(Message, GangCallsRoundTrip) {
  expect_round_trip(make_gang_prepare_req(11, 42, 7));
  expect_round_trip(make_gang_prepare_resp(11, true));
  expect_round_trip(make_gang_commit_req(12, 42, 7));
  expect_round_trip(make_gang_commit_resp(12, false));
  expect_round_trip(make_gang_abort_req(13, 42, 7));
  expect_round_trip(make_gang_abort_resp(13, true));
  expect_round_trip(make_gang_victim_req(14, 42, 7));
  expect_round_trip(make_gang_victim_resp(14, true));
  // Sentinel ids survive.
  expect_round_trip(make_gang_prepare_req(15, kNoJob, kNoGroup));
}

TEST(Message, GangRequestsCarryTheFence) {
  // All four gang calls are side-effecting, so the fencing token must ride
  // on (and survive) each request.
  for (Message m : {make_gang_prepare_req(1, 5, 9), make_gang_commit_req(2, 5, 9),
                    make_gang_abort_req(3, 5, 9), make_gang_victim_req(4, 5, 9)}) {
    m.fence = make_fence_token(3, 21);
    expect_round_trip(m);
  }
}

TEST(Message, TruncatedGangRequestRejected) {
  auto bytes = make_gang_commit_req(9, 123456789, 42).encode();
  bytes.resize(bytes.size() - 1);
  EXPECT_THROW(Message::decode(bytes), ParseError);
}

TEST(Message, TruncatedHeartbeatRejected) {
  HeartbeatInfo info;
  info.incarnation = 1;
  info.fence = make_fence_token(1, 1);
  auto bytes = make_heartbeat_resp(2, info).encode();
  bytes.resize(bytes.size() - 4);  // chop into the hold_fraction bits
  EXPECT_THROW(Message::decode(bytes), ParseError);
}

TEST(Message, EveryRequestMapsToTheResponseThatAnswersIt) {
  // A peer accepts only response_type(request); anything else, an error
  // reply included, reads as "remote unknown".
  const std::pair<MsgType, MsgType> pairs[] = {
      {MsgType::kGetMateJobReq, MsgType::kGetMateJobResp},
      {MsgType::kGetMateStatusReq, MsgType::kGetMateStatusResp},
      {MsgType::kTryStartMateReq, MsgType::kTryStartMateResp},
      {MsgType::kStartJobReq, MsgType::kStartJobResp},
      {MsgType::kHelloReq, MsgType::kHelloResp},
      {MsgType::kHeartbeatReq, MsgType::kHeartbeatResp},
      {MsgType::kGangPrepareReq, MsgType::kGangPrepareResp},
      {MsgType::kGangCommitReq, MsgType::kGangCommitResp},
      {MsgType::kGangAbortReq, MsgType::kGangAbortResp},
      {MsgType::kGangVictimReq, MsgType::kGangVictimResp},
  };
  for (const auto& [req, resp] : pairs) {
    EXPECT_EQ(response_type(req), resp) << static_cast<int>(req);
    EXPECT_NE(response_type(req), MsgType::kErrorResp);
  }
  // The verdict reply of each side-effecting request has the same type.
  for (MsgType req : {MsgType::kTryStartMateReq, MsgType::kStartJobReq,
                      MsgType::kGangPrepareReq, MsgType::kGangCommitReq,
                      MsgType::kGangAbortReq, MsgType::kGangVictimReq}) {
    const Message m = make_verdict_resp(req, 3, true);
    EXPECT_EQ(m.type, response_type(req));
    EXPECT_EQ(m.request_id, 3u);
    EXPECT_TRUE(m.ok);
  }
}

TEST(Message, EncodingIsCompact) {
  // A status request is a type byte + small varints: a handful of bytes,
  // befitting the paper's "lightweight protocol".
  EXPECT_LE(make_get_mate_status_req(1, 42).encode().size(), 4u);
}

}  // namespace
}  // namespace cosched
