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
  for (Message m :
       {make_gang_prepare_req(1, 5, 9), make_gang_commit_req(2, 5, 9),
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

// One message of each of the 21 types, in type order, with multi-byte
// varints (request id and incarnation 300, jobs 70,000 and -2, fence 2^40)
// and a non-empty error string.
std::vector<Message> one_of_each_type() {
  constexpr std::uint64_t kFence = std::uint64_t{1} << 40;
  const auto fenced = [](Message m) {
    m.fence = kFence;
    return m;
  };
  HeartbeatInfo info;
  info.incarnation = 3;
  info.fence = kFence;
  info.queue_depth = 70000;
  info.hold_fraction = 0.375;
  std::vector<Message> out = {
      make_get_mate_job_req(300, 9, 70000),
      make_get_mate_job_resp(300, JobId{70000}),
      make_get_mate_status_req(300, -2),
      make_get_mate_status_resp(300, MateStatus::kSuspected),
      fenced(make_try_start_mate_req(300, 70000)),
      make_try_start_mate_resp(300, true),
      fenced(make_start_job_req(300, -2)),
      make_start_job_resp(300, false),
      make_hello_req(300, kFence),
      make_hello_resp(300, 5),
      make_heartbeat_req(300, info),
      make_heartbeat_resp(300, info),
      fenced(make_gang_prepare_req(300, 70000, 9)),
      make_gang_prepare_resp(300, true),
      make_error_resp(300, "no such job"),
      fenced(make_gang_commit_req(300, -2, 70000)),
      make_gang_commit_resp(300, false),
      fenced(make_gang_abort_req(300, 70000, -2)),
      make_gang_abort_resp(300, true),
      fenced(make_gang_victim_req(300, -2, 9)),
      make_gang_victim_resp(300, true),
  };
  // Hello's incarnation is its payload; every other header gets 300 too.
  for (Message& m : out)
    if (m.type != MsgType::kHelloReq && m.type != MsgType::kHelloResp)
      m.incarnation = 300;
  return out;
}

// one_of_each_type()'s bytes, recorded from the field-by-field encoder the
// cursor writer replaced: the wire format of every message type is fixed, so
// these bytes never move.
std::vector<std::vector<std::uint8_t>> pinned_wire_images() {
  return {
      {0x01, 0xac, 0x02, 0xac, 0x02, 0x12, 0xe0, 0xc5, 0x08},
      {0x02, 0xac, 0x02, 0xac, 0x02, 0x01, 0xe0, 0xc5, 0x08},
      {0x03, 0xac, 0x02, 0xac, 0x02, 0x03},
      {0x04, 0xac, 0x02, 0xac, 0x02, 0x07},
      {0x05, 0xac, 0x02, 0xac, 0x02, 0xe0, 0xc5, 0x08, 0x80, 0x80, 0x80, 0x80,
       0x80, 0x20},
      {0x06, 0xac, 0x02, 0xac, 0x02, 0x01},
      {0x07, 0xac, 0x02, 0xac, 0x02, 0x03, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20},
      {0x08, 0xac, 0x02, 0xac, 0x02, 0x00},
      {0x09, 0xac, 0x02, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20},
      {0x0a, 0xac, 0x02, 0x05},
      {0x0b, 0xac, 0x02, 0xac, 0x02, 0x03, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20,
       0xf0, 0xa2, 0x04, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0xec, 0x3f},
      {0x0c, 0xac, 0x02, 0xac, 0x02, 0x03, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20,
       0xf0, 0xa2, 0x04, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0xec, 0x3f},
      {0x0d, 0xac, 0x02, 0xac, 0x02, 0xe0, 0xc5, 0x08, 0x80, 0x80, 0x80, 0x80,
       0x80, 0x20, 0x12},
      {0x0e, 0xac, 0x02, 0xac, 0x02, 0x01},
      {0x0f, 0xac, 0x02, 0xac, 0x02, 0x0b, 0x6e, 0x6f, 0x20, 0x73, 0x75, 0x63,
       0x68, 0x20, 0x6a, 0x6f, 0x62},
      {0x10, 0xac, 0x02, 0xac, 0x02, 0x03, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20,
       0xe0, 0xc5, 0x08},
      {0x11, 0xac, 0x02, 0xac, 0x02, 0x00},
      {0x12, 0xac, 0x02, 0xac, 0x02, 0xe0, 0xc5, 0x08, 0x80, 0x80, 0x80, 0x80,
       0x80, 0x20, 0x03},
      {0x13, 0xac, 0x02, 0xac, 0x02, 0x01},
      {0x14, 0xac, 0x02, 0xac, 0x02, 0x03, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20,
       0x12},
      {0x15, 0xac, 0x02, 0xac, 0x02, 0x01},
  };
}

TEST(Message, EveryTypeEncodesToItsPinnedBytes) {
  const std::vector<std::vector<std::uint8_t>> pinned = pinned_wire_images();
  const std::vector<Message> messages = one_of_each_type();
  ASSERT_EQ(messages.size(), pinned.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    SCOPED_TRACE(static_cast<int>(messages[i].type));
    EXPECT_EQ(static_cast<std::size_t>(messages[i].type), i + 1);
    EXPECT_EQ(messages[i].encode(), pinned[i]);
    EXPECT_EQ(Message::decode(pinned[i]), messages[i]);
  }
}

TEST(Message, DecodeIntoAUsedMessageEqualsAFreshDecode) {
  // In-place decode assigns every field: whatever type and payload the
  // target last held, a non-empty error included, it ends equal to a
  // decode into a Message of its own.
  const std::vector<Message> messages = one_of_each_type();
  for (const std::vector<std::uint8_t>& bytes : pinned_wire_images()) {
    SCOPED_TRACE(static_cast<int>(bytes[0]));
    const Message fresh = Message::decode(bytes);
    for (const Message& previous : messages) {
      if (previous.type == fresh.type) continue;
      Message used = previous;
      used.error = "left over from the previous call";
      Message::decode(bytes, used);
      EXPECT_EQ(used, fresh) << "after type "
                             << static_cast<int>(previous.type);
    }
  }
}

TEST(Message, EncodingIsCompact) {
  // A status request is a type byte + small varints: a handful of bytes,
  // befitting the paper's "lightweight protocol".
  EXPECT_LE(make_get_mate_status_req(1, 42).encode().size(), 4u);
}

}  // namespace
}  // namespace cosched
