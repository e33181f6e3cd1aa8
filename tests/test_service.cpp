#include "proto/service.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/fault.h"
#include "proto/peer.h"
#include "util/error.h"

namespace cosched {
namespace {

/// Scripted service used to test dispatch and the loopback peer.
class FakeService : public CoschedService {
 public:
  std::map<GroupId, JobId> mates;
  std::map<JobId, MateStatus> statuses;
  std::map<JobId, bool> try_results;
  std::map<JobId, bool> start_results;
  bool throw_on_try = false;
  int try_calls = 0;
  /// When set, try_start_mate first asks for the job's status back through
  /// this peer, the way a remote Run_Job queries its asker mid-call.
  LoopbackPeer* call_back = nullptr;
  std::optional<MateStatus> nested_status;

  std::optional<JobId> get_mate_job(GroupId group, JobId) override {
    auto it = mates.find(group);
    if (it == mates.end()) return std::nullopt;
    return it->second;
  }
  MateStatus get_mate_status(JobId job) override {
    auto it = statuses.find(job);
    return it == statuses.end() ? MateStatus::kUnknown : it->second;
  }
  bool try_start_mate(JobId job) override {
    ++try_calls;
    if (call_back != nullptr) nested_status = call_back->get_mate_status(job);
    if (throw_on_try) throw Error("scheduler exploded");
    auto it = try_results.find(job);
    return it != try_results.end() && it->second;
  }
  bool start_job(JobId job) override {
    auto it = start_results.find(job);
    return it != start_results.end() && it->second;
  }
};

TEST(Dispatcher, RoutesAllFourCalls) {
  FakeService svc;
  svc.mates[5] = 101;
  svc.statuses[101] = MateStatus::kHolding;
  svc.try_results[101] = true;
  svc.start_results[101] = true;
  ServiceDispatcher d(svc);

  {
    const auto resp = Message::decode(
        d.dispatch(make_get_mate_job_req(1, 5, 7).encode()));
    EXPECT_EQ(resp.type, MsgType::kGetMateJobResp);
    EXPECT_TRUE(resp.found);
    EXPECT_EQ(resp.job, 101);
    EXPECT_EQ(resp.request_id, 1u);
  }
  {
    const auto resp = Message::decode(
        d.dispatch(make_get_mate_status_req(2, 101).encode()));
    EXPECT_EQ(resp.status, MateStatus::kHolding);
  }
  {
    const auto resp = Message::decode(
        d.dispatch(make_try_start_mate_req(3, 101).encode()));
    EXPECT_TRUE(resp.ok);
  }
  {
    const auto resp =
        Message::decode(d.dispatch(make_start_job_req(4, 101).encode()));
    EXPECT_TRUE(resp.ok);
  }
}

TEST(Dispatcher, MalformedRequestYieldsErrorResp) {
  FakeService svc;
  ServiceDispatcher d(svc);
  const std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef};
  const auto resp = Message::decode(d.dispatch(garbage));
  EXPECT_EQ(resp.type, MsgType::kErrorResp);
}

TEST(Dispatcher, ResponseTypeRequestRejected) {
  FakeService svc;
  ServiceDispatcher d(svc);
  const auto resp = Message::decode(
      d.dispatch(make_start_job_resp(9, true).encode()));
  EXPECT_EQ(resp.type, MsgType::kErrorResp);
}

TEST(Dispatcher, ServiceExceptionBecomesErrorResp) {
  FakeService svc;
  svc.throw_on_try = true;
  ServiceDispatcher d(svc);
  const auto resp = Message::decode(
      d.dispatch(make_try_start_mate_req(5, 1).encode()));
  EXPECT_EQ(resp.type, MsgType::kErrorResp);
  EXPECT_NE(resp.error.find("exploded"), std::string::npos);
}

TEST(LoopbackPeer, FullRoundTrips) {
  FakeService svc;
  svc.mates[8] = 202;
  svc.statuses[202] = MateStatus::kQueuing;
  svc.try_results[202] = false;
  LoopbackPeer peer(svc);

  const auto mate = peer.get_mate_job(8, 1);
  ASSERT_TRUE(mate.has_value());
  ASSERT_TRUE(mate->has_value());
  EXPECT_EQ(**mate, 202);

  const auto none = peer.get_mate_job(99, 1);
  ASSERT_TRUE(none.has_value());
  EXPECT_FALSE(none->has_value());

  EXPECT_EQ(peer.get_mate_status(202), MateStatus::kQueuing);
  EXPECT_EQ(peer.try_start_mate(202), false);
  EXPECT_EQ(peer.start_job(202), false);
  EXPECT_EQ(peer.calls(), 5u);
}

// The peer reuses one request and one reply writer for every call.  A
// service that calls back through the same link writes the nested reply
// into that writer while the outer call is still being served; the outer
// reply must still arrive whole.
TEST(LoopbackPeer, NestedCallThroughSameLinkKeepsBothReplies) {
  FakeService svc;
  svc.statuses[303] = MateStatus::kHolding;
  svc.try_results[303] = true;
  LoopbackPeer peer(svc);
  svc.call_back = &peer;

  EXPECT_EQ(peer.try_start_mate(303), true);
  EXPECT_EQ(svc.nested_status, MateStatus::kHolding);
  EXPECT_EQ(svc.try_calls, 1);

  // The outer call takes request id 1, the nested one id 2.
  const Message outer = make_try_start_mate_req(1, 303);
  const Message nested = make_get_mate_status_req(2, 303);
  const Message outer_reply = make_try_start_mate_resp(1, true);
  const Message nested_reply =
      make_get_mate_status_resp(2, MateStatus::kHolding);
  const auto bytes = [](const Message& m) { return m.encode().size(); };
  EXPECT_EQ(peer.calls(), 2u);
  EXPECT_EQ(peer.request_bytes(), bytes(outer) + bytes(nested));
  EXPECT_EQ(peer.response_bytes(), bytes(outer_reply) + bytes(nested_reply));
}

TEST(LoopbackPeer, ServiceErrorMapsToNullopt) {
  FakeService svc;
  svc.throw_on_try = true;
  LoopbackPeer peer(svc);
  EXPECT_EQ(peer.try_start_mate(1), std::nullopt);
}

TEST(FaultInjectingPeer, DownMeansNullopt) {
  FakeService svc;
  svc.mates[8] = 202;
  svc.statuses[202] = MateStatus::kQueuing;
  auto inner = std::make_unique<LoopbackPeer>(svc);
  FaultInjectingPeer peer(std::move(inner));

  EXPECT_TRUE(peer.get_mate_status(202).has_value());
  peer.set_down(true);
  EXPECT_EQ(peer.get_mate_job(8, 1), std::nullopt);
  EXPECT_EQ(peer.get_mate_status(202), std::nullopt);
  EXPECT_EQ(peer.try_start_mate(202), std::nullopt);
  EXPECT_EQ(peer.start_job(202), std::nullopt);
  peer.set_down(false);
  EXPECT_EQ(peer.get_mate_status(202), MateStatus::kQueuing);
}

/// Every FaultStats counter in declaration order, so a mismatch names them.
std::vector<std::uint64_t> counters(const FaultStats& s) {
  return {s.calls,     s.delivered,  s.dropped,        s.timed_out,
          s.corrupted, s.reply_lost, s.outage_blocked, s.total_latency};
}

TEST(FaultInjectingPeer, CleanLinkAnswersLikeItsInnerPeer) {
  FakeService svc;
  svc.mates[8] = 202;
  svc.statuses[202] = MateStatus::kQueuing;
  svc.try_results[202] = true;
  LoopbackPeer direct(svc);
  FaultInjectingPeer peer(std::make_unique<LoopbackPeer>(svc));
  for (std::uint64_t round = 1; round <= 3; ++round) {
    EXPECT_EQ(peer.get_mate_job(8, 1), direct.get_mate_job(8, 1));
    EXPECT_EQ(peer.get_mate_job(9, 1), direct.get_mate_job(9, 1));
    EXPECT_EQ(peer.get_mate_status(202), direct.get_mate_status(202));
    EXPECT_EQ(peer.try_start_mate(202), direct.try_start_mate(202));
    EXPECT_EQ(peer.start_job(202), direct.start_job(202));
    // Each call is counted, and delivered, as it passes.
    EXPECT_EQ(counters(peer.stats()),
              counters(FaultStats{5 * round, 5 * round}));
  }
  // The wrapped loopback carried the same calls and bytes as the bare one.
  const auto& inner = static_cast<const LoopbackPeer&>(peer.inner());
  EXPECT_EQ(inner.calls(), direct.calls());
  EXPECT_EQ(inner.request_bytes(), direct.request_bytes());
  EXPECT_EQ(inner.response_bytes(), direct.response_bytes());
}

TEST(FaultInjectingPeer, EveryFaultSetterFailsTheNextCall) {
  // One delivered call, then the setter, then a call that must fail with
  // the counts its fault gives; set_plan(FaultPlan{}) (or lifting the
  // toggle) makes the link deliver again.
  struct Case {
    const char* name;
    std::function<void(FaultInjectingPeer&)> set;
    std::function<void(FaultInjectingPeer&)> lift;
    FaultStats after_fault;
    int remote_calls;  ///< tryStartMate calls the service ran by then
  };
  const auto clear_plan = [](FaultInjectingPeer& p) {
    p.set_plan(FaultPlan{});
  };
  FaultPlan drops;
  drops.drop_probability = 1.0;
  // Engine time is 50 when the setter runs, so [40, 60) covers now.
  const Case cases[] = {
      {"set_down", [](FaultInjectingPeer& p) { p.set_down(true); },
       [](FaultInjectingPeer& p) { p.set_down(false); },
       {.calls = 2, .delivered = 1, .outage_blocked = 1}, 1},
      {"set_crashed", [](FaultInjectingPeer& p) { p.set_crashed(true); },
       [](FaultInjectingPeer& p) { p.set_crashed(false); },
       {.calls = 2, .delivered = 1, .outage_blocked = 1}, 1},
      {"set_plan with drops",
       [&drops](FaultInjectingPeer& p) { p.set_plan(drops); }, clear_plan,
       {.calls = 2, .delivered = 1, .dropped = 1}, 1},
      {"add_outage", [](FaultInjectingPeer& p) { p.add_outage(40, 60); },
       clear_plan, {.calls = 2, .delivered = 1, .outage_blocked = 1}, 1},
      // A lost reply still runs the call remotely.
      {"add_reply_outage",
       [](FaultInjectingPeer& p) { p.add_reply_outage(40, 60); }, clear_plan,
       {.calls = 2, .delivered = 1, .reply_lost = 1}, 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FakeService svc;
    svc.try_results[202] = true;
    Engine engine;
    engine.run_until(50);
    FaultInjectingPeer peer(std::make_unique<LoopbackPeer>(svc), &engine);
    EXPECT_EQ(peer.try_start_mate(202), true);
    c.set(peer);
    EXPECT_EQ(peer.try_start_mate(202), std::nullopt);
    EXPECT_EQ(counters(peer.stats()), counters(c.after_fault));
    EXPECT_EQ(svc.try_calls, c.remote_calls);
    c.lift(peer);
    EXPECT_EQ(peer.try_start_mate(202), true);
    FaultStats healed = c.after_fault;
    ++healed.calls;
    ++healed.delivered;
    EXPECT_EQ(counters(peer.stats()), counters(healed));
  }
}

}  // namespace
}  // namespace cosched
