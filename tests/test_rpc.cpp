// End-to-end protocol over real sockets: WirePeer <-> serve_channel.
#include "net/rpc.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <thread>
#include <variant>

namespace cosched {
namespace {

class FakeService : public CoschedService {
 public:
  std::map<GroupId, JobId> mates;
  std::map<JobId, MateStatus> statuses;
  std::map<JobId, bool> try_results;

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
    auto it = try_results.find(job);
    return it != try_results.end() && it->second;
  }
  bool start_job(JobId) override { return true; }
};

struct Harness {
  FakeService service;
  std::thread server;
  std::unique_ptr<WirePeer> peer;

  Harness() {
    auto [client_sock, server_sock] = Socket::pair();
    peer = std::make_unique<WirePeer>(FramedChannel(std::move(client_sock)));
    server = std::thread(
        [this, s = std::make_shared<Socket>(std::move(server_sock))]() mutable {
          FramedChannel channel(std::move(*s));
          serve_channel(channel, service);
        });
  }
  ~Harness() {
    peer.reset();  // closes client socket -> server sees EOF
    server.join();
  }
};

TEST(WireRpc, AllFourCallsOverSocket) {
  Harness h;
  h.service.mates[3] = 30;
  h.service.statuses[30] = MateStatus::kHolding;
  h.service.try_results[30] = true;

  const auto mate = h.peer->get_mate_job(3, 1);
  ASSERT_TRUE(mate.has_value());
  ASSERT_TRUE(mate->has_value());
  EXPECT_EQ(**mate, 30);

  EXPECT_EQ(h.peer->get_mate_status(30), MateStatus::kHolding);
  EXPECT_EQ(h.peer->try_start_mate(30), true);
  EXPECT_EQ(h.peer->start_job(30), true);
  EXPECT_TRUE(h.peer->healthy());
}

TEST(WireRpc, MissingMateOverSocket) {
  Harness h;
  const auto mate = h.peer->get_mate_job(99, 1);
  ASSERT_TRUE(mate.has_value());
  EXPECT_FALSE(mate->has_value());
}

TEST(WireRpc, ManySequentialCalls) {
  Harness h;
  h.service.statuses[7] = MateStatus::kQueuing;
  for (int i = 0; i < 500; ++i)
    ASSERT_EQ(h.peer->get_mate_status(7), MateStatus::kQueuing);
}

TEST(WireRpc, ServerGoneMeansUnknownNotCrash) {
  FakeService service;
  std::unique_ptr<WirePeer> peer;
  {
    auto [client_sock, server_sock] = Socket::pair();
    peer = std::make_unique<WirePeer>(FramedChannel(std::move(client_sock)));
    // server_sock dropped here: connection closed before any reply.
  }
  EXPECT_EQ(peer->get_mate_status(1), std::nullopt);
  EXPECT_FALSE(peer->healthy());
  // Subsequent calls short-circuit.
  EXPECT_EQ(peer->try_start_mate(1), std::nullopt);
}

TEST(WireRpc, HungServerTimesOutInsteadOfBlocking) {
  // The far end accepts the connection but never answers: the call must
  // come back as unknown within the deadline, not hang the caller.
  auto [client_sock, server_sock] = Socket::pair();
  WirePeerConfig cfg;
  cfg.call_deadline_ms = 100;
  cfg.retry.max_attempts = 1;
  WirePeer peer(FramedChannel(std::move(client_sock)), cfg);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(peer.get_mate_status(1), std::nullopt);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_GE(peer.stats().timeouts, 1u);
  // A timed-out reply may still arrive later and desync the stream, so the
  // channel is abandoned; with no factory to re-dial, the breaker opens
  // immediately rather than burning the remaining threshold.
  EXPECT_FALSE(peer.healthy());
  (void)server_sock;  // held open: the "hung" remote
}

TEST(WireRpc, BreakerOpensFastFailsProbesAndCloses) {
  FakeService service;
  service.statuses[1] = MateStatus::kQueuing;
  std::atomic<bool> good{false};
  std::vector<std::thread> servers;

  WirePeerConfig cfg;
  cfg.call_deadline_ms = 2000;
  cfg.retry.max_attempts = 1;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.open_cooldown_ms = 30;
  auto peer = std::make_unique<WirePeer>(
      [&]() -> std::optional<FramedChannel> {
        auto [c, s] = Socket::pair();
        if (good) {
          auto sp = std::make_shared<Socket>(std::move(s));
          servers.emplace_back([&service, sp]() mutable {
            FramedChannel ch(std::move(*sp));
            serve_channel(ch, service);
          });
        }
        // When !good the server end drops here: instant EOF, like a daemon
        // that died between accept and serve.
        return FramedChannel(std::move(c));
      },
      cfg);

  EXPECT_EQ(peer->get_mate_status(1), std::nullopt);  // failure 1
  EXPECT_EQ(peer->breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(peer->get_mate_status(1), std::nullopt);  // failure 2 -> open
  EXPECT_EQ(peer->breaker_state(), BreakerState::kOpen);
  EXPECT_FALSE(peer->healthy());

  EXPECT_EQ(peer->get_mate_status(1), std::nullopt);  // inside cooldown
  EXPECT_GE(peer->stats().fast_fails, 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(peer->get_mate_status(1), std::nullopt);  // probe fails
  EXPECT_EQ(peer->breaker_state(), BreakerState::kOpen);

  good = true;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(peer->get_mate_status(1), MateStatus::kQueuing);  // probe heals
  EXPECT_TRUE(peer->healthy());
  EXPECT_EQ(peer->breaker_state(), BreakerState::kClosed);
  EXPECT_GE(peer->stats().breaker_opens, 2u);
  EXPECT_GE(peer->stats().breaker_closes, 1u);

  peer.reset();  // close the live channel so the serve thread sees EOF
  for (auto& t : servers) t.join();
}

TEST(WireRpc, RestartedServerIsRediscovered) {
  // Regression for the sticky healthy_ flag: a daemon crash must not mark
  // the peer down for the life of the process.  After the daemon restarts
  // (same port), the breaker probe reconnects and service resumes.
  FakeService service;
  service.statuses[9] = MateStatus::kHolding;

  auto listener = std::make_unique<TcpListener>(0);
  const std::uint16_t port = listener->port();
  // First incarnation: answers the incarnation hello plus exactly one
  // request, then "crashes" (socket and listener closed below).
  std::thread first([&service, l = listener.get()] {
    Socket s = l->accept();
    FramedChannel ch(std::move(s));
    ServiceDispatcher d(service);
    for (int i = 0; i < 2; ++i)
      if (auto f = ch.read_frame()) ch.write_frame(d.dispatch(*f));
  });

  WirePeerConfig cfg;
  cfg.call_deadline_ms = 2000;
  cfg.retry.max_attempts = 2;
  cfg.retry.base_backoff_ms = 1;
  cfg.breaker.failure_threshold = 1;
  cfg.breaker.open_cooldown_ms = 30;
  auto peer = std::make_unique<WirePeer>(
      [port]() -> std::optional<FramedChannel> {
        try {
          return FramedChannel(tcp_connect(port));
        } catch (const std::exception&) {
          return std::nullopt;  // daemon down: nothing listening
        }
      },
      cfg);

  EXPECT_EQ(peer->get_mate_status(9), MateStatus::kHolding);
  EXPECT_TRUE(peer->healthy());

  first.join();
  listener->close();  // daemon fully gone: connects are refused

  EXPECT_EQ(peer->get_mate_status(9), std::nullopt);
  EXPECT_FALSE(peer->healthy());

  // Daemon restarts on the same port.
  listener = std::make_unique<TcpListener>(port);
  std::thread second([&service, l = listener.get()] {
    Socket s = l->accept();
    FramedChannel ch(std::move(s));
    serve_channel(ch, service);
  });

  // After the open cooldown the next call probes, reconnects, and heals.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(peer->get_mate_status(9), MateStatus::kHolding);
  EXPECT_TRUE(peer->healthy());
  EXPECT_GE(peer->stats().reconnects, 2u);  // initial dial + rediscovery

  peer.reset();
  second.join();
}

TEST(WireRpc, ErrorReplyKeepsAFixedChannel) {
  // FakeService has no liveness, so the dispatcher answers a heartbeat with
  // an error reply.  That is an answer on an aligned stream: the call reads
  // unknown, and the only connection stays up.
  Harness h;
  h.service.statuses[4] = MateStatus::kQueuing;
  EXPECT_EQ(h.peer->heartbeat(HeartbeatInfo{}), std::nullopt);
  EXPECT_EQ(h.peer->get_mate_status(4), MateStatus::kQueuing);
  EXPECT_TRUE(h.peer->healthy());
  EXPECT_EQ(h.peer->stats().breaker_opens, 0u);
}

TEST(WireRpc, ErrorReplyNeitherRedialsNorRetries) {
  FakeService service;
  service.statuses[4] = MateStatus::kQueuing;
  std::vector<std::thread> servers;
  auto peer = std::make_unique<WirePeer>([&]() -> std::optional<FramedChannel> {
    auto [c, s] = Socket::pair();
    servers.emplace_back(
        [&service, sp = std::make_shared<Socket>(std::move(s))]() mutable {
          FramedChannel ch(std::move(*sp));
          serve_channel(ch, service);
        });
    return FramedChannel(std::move(c));
  });

  ASSERT_EQ(peer->get_mate_status(4), MateStatus::kQueuing);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(peer->heartbeat(HeartbeatInfo{}), std::nullopt);
  const WirePeer::TransportStats stats = peer->stats();
  EXPECT_EQ(stats.reconnects, 1u);  // the first dial only
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.failed_calls, 0u);
  EXPECT_EQ(peer->breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(peer->get_mate_status(4), MateStatus::kQueuing);

  peer.reset();
  for (auto& t : servers) t.join();
}

/// Answers all nine calls from their arguments, and records the fencing
/// token that reaches the service with each call.
class FullService : public CoschedService {
 public:
  std::vector<std::uint64_t> admitted_fences;  // side-effecting calls
  std::vector<std::uint64_t> heartbeat_fences;

  std::optional<JobId> get_mate_job(GroupId group, JobId) override {
    return group * 10;
  }
  MateStatus get_mate_status(JobId job) override {
    return static_cast<MateStatus>(job % 8);
  }
  bool try_start_mate(JobId job) override { return job % 2 == 1; }
  bool start_job(JobId job) override { return job % 2 == 1; }
  bool gang_prepare(JobId job, GroupId group) override { return job > group; }
  bool gang_commit(JobId job, GroupId group) override { return job > group; }
  bool gang_abort(JobId job, GroupId group) override { return job > group; }
  bool gang_victim(JobId job, GroupId group) override { return job > group; }
  std::optional<HeartbeatInfo> heartbeat(const HeartbeatInfo& from) override {
    heartbeat_fences.push_back(from.fence);
    return HeartbeatInfo{from.incarnation + 1, 77, from.queue_depth * 2, 0.25};
  }
  bool admit_fence(JobId, std::uint64_t fence) override {
    admitted_fences.push_back(fence);
    return true;
  }
};

using Answer =
    std::variant<std::optional<std::optional<JobId>>, std::optional<MateStatus>,
                 std::optional<bool>, std::optional<HeartbeatInfo>>;

struct CallCase {
  MsgType request;
  std::function<Answer(PeerClient&)> call;
  Answer expected;
};

std::vector<CallCase> all_nine_calls() {
  const HeartbeatInfo mine{5, 0, 3, 0.5};
  return {
      {MsgType::kGetMateJobReq,
       [](PeerClient& p) -> Answer { return p.get_mate_job(3, 1); },
       std::optional<std::optional<JobId>>(std::in_place, 30)},
      {MsgType::kGetMateStatusReq,
       [](PeerClient& p) -> Answer { return p.get_mate_status(9); },
       std::optional<MateStatus>(MateStatus::kQueuing)},
      {MsgType::kTryStartMateReq,
       [](PeerClient& p) -> Answer { return p.try_start_mate(31); },
       std::optional<bool>(true)},
      {MsgType::kStartJobReq,
       [](PeerClient& p) -> Answer { return p.start_job(32); },
       std::optional<bool>(false)},
      {MsgType::kGangPrepareReq,
       [](PeerClient& p) -> Answer { return p.gang_prepare(40, 4); },
       std::optional<bool>(true)},
      {MsgType::kGangCommitReq,
       [](PeerClient& p) -> Answer { return p.gang_commit(2, 4); },
       std::optional<bool>(false)},
      {MsgType::kGangAbortReq,
       [](PeerClient& p) -> Answer { return p.gang_abort(41, 4); },
       std::optional<bool>(true)},
      {MsgType::kGangVictimReq,
       [](PeerClient& p) -> Answer { return p.gang_victim(3, 4); },
       std::optional<bool>(false)},
      {MsgType::kHeartbeatReq,
       [mine](PeerClient& p) -> Answer { return p.heartbeat(mine); },
       std::optional<HeartbeatInfo>(HeartbeatInfo{6, 77, 6, 0.25})},
  };
}

TEST(WireRpc, AllNineCallsAnswerAlikeOverLoopbackAndSocket) {
  constexpr std::uint64_t kToken = 0xfe9ce;
  const std::set<MsgType> side_effecting = {
      MsgType::kTryStartMateReq, MsgType::kStartJobReq,
      MsgType::kGangPrepareReq,  MsgType::kGangCommitReq,
      MsgType::kGangAbortReq,    MsgType::kGangVictimReq};
  const std::vector<CallCase> cases = all_nine_calls();
  FullService service;

  LoopbackPeer loopback(service);
  loopback.set_fence_token(kToken);
  for (const CallCase& c : cases)
    EXPECT_EQ(c.call(loopback), c.expected)
        << "loopback, request type " << static_cast<int>(c.request);
  EXPECT_EQ(loopback.calls(), cases.size());

  // The same calls over a socket, with the server recording every request
  // as it decodes it.
  std::vector<Message> requests;
  auto [client_sock, server_sock] = Socket::pair();
  std::thread server(
      [&, sp = std::make_shared<Socket>(std::move(server_sock))]() mutable {
        FramedChannel ch(std::move(*sp));
        ServiceDispatcher dispatcher(service);
        while (auto frame = ch.read_frame()) {
          requests.push_back(Message::decode(*frame));
          ch.write_frame(dispatcher.dispatch(*frame));
        }
      });
  auto wire = std::make_unique<WirePeer>(FramedChannel(std::move(client_sock)));
  wire->set_fence_token(kToken);
  for (const CallCase& c : cases)
    EXPECT_EQ(c.call(*wire), c.expected)
        << "wire, request type " << static_cast<int>(c.request);
  EXPECT_TRUE(wire->healthy());
  wire.reset();
  server.join();

  // The hello, then the nine calls in order, with rising request ids.
  ASSERT_EQ(requests.size(), cases.size() + 1);
  EXPECT_EQ(requests[0].type, MsgType::kHelloReq);
  EXPECT_EQ(requests[0].fence, 0u);
  for (std::size_t i = 1; i < requests.size(); ++i) {
    const Message& req = requests[i];
    EXPECT_EQ(req.type, cases[i - 1].request);
    if (i > 1) {
      EXPECT_GT(req.request_id, requests[i - 1].request_id);
    }
    EXPECT_EQ(req.fence, side_effecting.count(req.type) ? kToken : 0u)
        << "request type " << static_cast<int>(req.type);
  }
  // Both transports brought the token to each of the six side-effecting
  // calls and nowhere else.
  EXPECT_EQ(service.admitted_fences, std::vector<std::uint64_t>(12, kToken));
  EXPECT_EQ(service.heartbeat_fences, std::vector<std::uint64_t>(2, 0u));
}

TEST(WireRpc, ConcurrentClientsSerialized) {
  Harness h;
  h.service.statuses[5] = MateStatus::kQueuing;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i)
        if (h.peer->get_mate_status(5) != MateStatus::kQueuing) ++failures;
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace cosched
