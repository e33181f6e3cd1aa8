// Live (wall-clock, non-simulated) coscheduling daemons over real sockets,
// including a mid-run daemon crash and restart.
//
// Two resource-manager daemons run in separate threads connected by
// localhost TCP, speaking the binary coordination protocol end to end —
// the deployment shape the paper targets ("jobs submitted to a compute
// resource running LSF can be coscheduled with jobs submitted to an analysis
// resource running PBS").  Each daemon owns a real Scheduler; Run_Job applies
// Algorithm 1 with the hold scheme.
//
// Timeline (wall-clock milliseconds standing in for minutes):
//   phase 1: compute receives paired job C1 -> mate not ready -> HOLD;
//            analysis receives mate A1 -> both START together.
//   phase 2: the analysis daemon is killed (listener and every connection
//            torn down).  Compute submits paired job C2: the peer call
//            fails, the circuit breaker opens, and per the paper's §IV-C
//            rule C2 starts immediately, uncoordinated, instead of waiting
//            on a dead remote.
//   phase 3: a fresh analysis daemon restarts on the same port.  After the
//            breaker cooldown the next call probes, reconnects through the
//            channel factory, and pair C3/A3 co-starts again.
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "net/rpc.h"
#include "proto/peer.h"
#include "sched/scheduler.h"
#include "util/log.h"

using namespace cosched;

namespace {

std::mutex g_print_mutex;

void say(const std::string& who, const std::string& what) {
  std::lock_guard<std::mutex> lock(g_print_mutex);
  std::cout << "[" << who << "] " << what << std::endl;
}

/// A minimal live resource manager: one Scheduler + Algorithm 1, clocked by
/// wall time.  Thread-safe: the RPC server thread and the local submit path
/// both lock the daemon.
class LiveDaemon : public CoschedService {
 public:
  LiveDaemon(std::string name, NodeCount capacity)
      : name_(std::move(name)),
        sched_(capacity, make_policy("fcfs")) {}

  void set_peer(PeerClient* peer) {
    std::lock_guard<std::mutex> lock(mutex_);
    peer_ = peer;
  }

  void register_mate(GroupId group, JobId job) {
    std::lock_guard<std::mutex> lock(mutex_);
    groups_[group] = job;
  }

  void submit(const JobSpec& spec) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (spec.is_paired()) groups_[spec.group] = spec.id;
    sched_.submit(spec, now());
    say(name_, "job " + std::to_string(spec.id) + " submitted");
    iterate_locked();
  }

  bool running(JobId id) {
    std::lock_guard<std::mutex> lock(mutex_);
    const RuntimeJob* j = sched_.find(id);
    return j && j->state == JobState::kRunning;
  }

  Time start_time(JobId id) {
    std::lock_guard<std::mutex> lock(mutex_);
    const RuntimeJob* j = sched_.find(id);
    return j ? j->start : kNoTime;
  }

  // -- CoschedService (called from the RPC server thread) ---------------
  std::optional<JobId> get_mate_job(GroupId group, JobId) override {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = groups_.find(group);
    if (it == groups_.end()) return std::nullopt;
    return it->second;
  }
  MateStatus get_mate_status(JobId job) override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (committing_.count(job)) return MateStatus::kStarting;
    const RuntimeJob* j = sched_.find(job);
    if (!j) return MateStatus::kUnsubmitted;
    switch (j->state) {
      case JobState::kQueued: return MateStatus::kQueuing;
      case JobState::kHolding: return MateStatus::kHolding;
      case JobState::kRunning: return MateStatus::kRunning;
      case JobState::kFinished: return MateStatus::kFinished;
    }
    return MateStatus::kUnknown;
  }
  bool try_start_mate(JobId job) override {
    std::lock_guard<std::mutex> lock(mutex_);
    return sched_.try_start_specific(job, now(), [this](RuntimeJob& j) {
      return run_job_locked(j, /*try_context=*/true);
    });
  }
  bool start_job(JobId job) override {
    std::lock_guard<std::mutex> lock(mutex_);
    const RuntimeJob* j = sched_.find(job);
    if (!j || j->state != JobState::kHolding) return false;
    sched_.start_holding(job, now());
    say(name_,
        "holding job " + std::to_string(job) + " started (woken by mate)");
    return true;
  }

 private:
  static Time now() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void iterate_locked() {
    sched_.iterate(now(), [this](RuntimeJob& j) {
      return run_job_locked(j, /*try_context=*/false);
    });
  }

  // Algorithm 1, two-domain form, against the live peer.
  RunDecision run_job_locked(RuntimeJob& job, bool try_context) {
    if (!job.spec.is_paired() || peer_ == nullptr) {
      say(name_, "job " + std::to_string(job.spec.id) + " started");
      return RunDecision::kStart;
    }
    committing_.insert(job.spec.id);
    struct Uncommit {
      LiveDaemon* d;
      JobId id;
      ~Uncommit() { d->committing_.erase(id); }
    } uncommit{this, job.spec.id};

    const auto mate = peer_->get_mate_job(job.spec.group, job.spec.id);
    if (!mate) {
      say(name_, "job " + std::to_string(job.spec.id) +
                     " peer unreachable -> mate unknown -> start"
                     " uncoordinated (degraded)");
      return RunDecision::kStart;
    }
    if (!*mate) {
      say(name_, "job " + std::to_string(job.spec.id) +
                     " has no registered mate -> start normally");
      return RunDecision::kStart;
    }
    const MateStatus status =
        peer_->get_mate_status(**mate).value_or(MateStatus::kUnknown);
    say(name_, "job " + std::to_string(job.spec.id) + " mate status: " +
                   to_string(status));
    switch (status) {
      case MateStatus::kHolding:
        peer_->start_job(**mate);
        [[fallthrough]];
      case MateStatus::kStarting:
      case MateStatus::kRunning:
      case MateStatus::kFinished:
      case MateStatus::kUnknown:
        say(name_, "job " + std::to_string(job.spec.id) + " started");
        return RunDecision::kStart;
      case MateStatus::kQueuing:
      case MateStatus::kUnsubmitted:
      case MateStatus::kSuspected:
        if (peer_->try_start_mate(**mate).value_or(false)) {
          say(name_, "job " + std::to_string(job.spec.id) +
                         " started (mate started via tryStartMate)");
          return RunDecision::kStart;
        }
        if (try_context) return RunDecision::kSkip;
        say(name_, "job " + std::to_string(job.spec.id) +
                       " HOLDING for its mate");
        return RunDecision::kHold;
    }
    return RunDecision::kStart;
  }

  std::string name_;
  std::mutex mutex_;
  Scheduler sched_;
  PeerClient* peer_ = nullptr;
  std::map<GroupId, JobId> groups_;
  std::set<JobId> committing_;
};

/// Serves a LiveDaemon over localhost TCP: an accept loop spawning one
/// serve_channel thread per connection.  kill() models a daemon crash
/// (`kill -9`): the listener closes and every accepted connection is shut
/// down, so peers observe hard transport failures mid-conversation.
/// `dispatch` carries the daemon's incarnation and exactly-once cache,
/// shared by every connection it serves.
class DaemonHost {
 public:
  DaemonHost(CoschedService& daemon, std::uint16_t port,
             DispatcherConfig dispatch = {})
      : daemon_(daemon), dispatch_(dispatch), listener_(port) {
    accept_thread_ = std::thread([this] { accept_loop(); });
  }
  ~DaemonHost() { kill(); }

  std::uint16_t port() const { return listener_.port(); }

  void kill() {
    listener_.close();  // blocked accept() fails -> accept loop exits
    if (accept_thread_.joinable()) accept_thread_.join();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    for (auto& t : serve_threads_) t.join();
    serve_threads_.clear();
  }

 private:
  void accept_loop() {
    for (;;) {
      Socket s;
      try {
        s = listener_.accept();
      } catch (const std::exception&) {
        return;  // listener closed: the daemon is dead
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        live_fds_.push_back(s.fd());
      }
      serve_threads_.emplace_back(
          [this, sp = std::make_shared<Socket>(std::move(s))]() mutable {
            const int fd = sp->fd();
            FramedChannel ch(std::move(*sp));
            serve_channel(ch, daemon_, dispatch_);
            // Deregister before the channel closes the fd so kill() never
            // shuts down a recycled descriptor.
            std::lock_guard<std::mutex> lock(mutex_);
            live_fds_.erase(
                std::remove(live_fds_.begin(), live_fds_.end(), fd),
                live_fds_.end());
          });
    }
  }

  CoschedService& daemon_;
  DispatcherConfig dispatch_;
  TcpListener listener_;
  std::thread accept_thread_;
  std::vector<std::thread> serve_threads_;
  std::mutex mutex_;
  std::vector<int> live_fds_;
};

JobSpec make_job(JobId id, NodeCount nodes, GroupId group) {
  JobSpec j;
  j.id = id;
  j.submit = 0;
  j.runtime = 3600;
  j.walltime = 7200;
  j.nodes = nodes;
  j.group = group;
  return j;
}

WirePeer::ChannelFactory dial(std::uint16_t port) {
  return [port]() -> std::optional<FramedChannel> {
    try {
      return FramedChannel(tcp_connect(port));
    } catch (const std::exception&) {
      return std::nullopt;  // daemon down: nothing listening
    }
  };
}

void banner(const std::string& text) {
  std::lock_guard<std::mutex> lock(g_print_mutex);
  std::cout << "\n--- " << text << " ---\n";
}

}  // namespace

int main() {
  std::cout << "Live coscheduling daemons over localhost TCP, with a"
               " mid-run daemon crash and restart\n";

  // Tight fault-handling knobs so the whole demo runs in under a second:
  // half-second call deadline, two attempts, breaker opens on the first
  // failed call and probes again 50 ms later.
  WirePeerConfig cfg;
  cfg.call_deadline_ms = 500;
  cfg.retry.max_attempts = 2;
  cfg.retry.base_backoff_ms = 5;
  cfg.breaker.failure_threshold = 1;
  cfg.breaker.open_cooldown_ms = 50;

  // Incarnations are (daemon id << 32) | restart count, so a restarted
  // daemon's hello evicts only its own stale dedup entries on the server.
  constexpr std::uint64_t kComputeInc = (1ull << 32) | 1;
  constexpr std::uint64_t kAnalysisInc1 = (2ull << 32) | 1;
  constexpr std::uint64_t kAnalysisInc2 = (2ull << 32) | 2;

  LiveDaemon compute("compute ", 1024);
  RpcDedup compute_dedup;
  DaemonHost compute_host(compute, /*port=*/0,
                          DispatcherConfig{kComputeInc, &compute_dedup});

  auto analysis = std::make_unique<LiveDaemon>("analysis", 64);
  RpcDedup analysis_dedup;
  auto analysis_host = std::make_unique<DaemonHost>(
      *analysis, /*port=*/0, DispatcherConfig{kAnalysisInc1, &analysis_dedup});
  const std::uint16_t analysis_port = analysis_host->port();

  // Reconnecting peers: each daemon dials the other lazily and re-dials
  // after failures (the breaker's half-open probe goes through the factory).
  WirePeerConfig compute_cfg = cfg;
  compute_cfg.incarnation = kComputeInc;
  WirePeer compute_to_analysis(dial(analysis_port), compute_cfg);
  compute.set_peer(&compute_to_analysis);
  WirePeerConfig analysis_cfg = cfg;
  analysis_cfg.incarnation = kAnalysisInc1;
  auto analysis_to_compute =
      std::make_unique<WirePeer>(dial(compute_host.port()), analysis_cfg);
  analysis->set_peer(analysis_to_compute.get());

  // -- Phase 1: both daemons healthy -> paired start is synchronized.
  banner("phase 1: healthy co-start");
  analysis->register_mate(/*group=*/7, /*job=*/2001);
  compute.submit(make_job(1001, 512, 7));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  analysis->submit(make_job(2001, 32, 7));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const bool phase1 = compute.running(1001) && analysis->running(2001);
  say("driver  ", std::string("pair C1/A1 co-started: ") +
                      (phase1 ? "yes" : "NO") + " (skew " +
                      std::to_string(std::llabs(compute.start_time(1001) -
                                                analysis->start_time(2001))) +
                      " ms)");

  // -- Phase 2: kill the analysis daemon mid-run.  The next paired submit
  // on compute degrades per §IV-C: peer calls fail, the breaker opens, and
  // the job starts uncoordinated instead of waiting forever.
  banner("phase 2: analysis daemon killed");
  analysis->set_peer(nullptr);
  analysis_to_compute.reset();
  analysis_host->kill();
  analysis_host.reset();
  analysis.reset();

  compute.submit(make_job(1002, 256, 8));
  const bool phase2 =
      compute.running(1002) && !compute_to_analysis.healthy();
  say("driver  ", std::string("C2 started uncoordinated with breaker ") +
                      to_string(compute_to_analysis.breaker_state()) + ": " +
                      (phase2 ? "yes" : "NO"));

  // -- Phase 3: restart the analysis daemon on the same port.  After the
  // cooldown the next call probes, the factory reconnects, the breaker
  // closes, and coscheduling resumes.
  banner("phase 3: analysis daemon restarted");
  auto analysis2 = std::make_unique<LiveDaemon>("analysis", 64);
  RpcDedup analysis2_dedup;
  analysis_host = std::make_unique<DaemonHost>(
      *analysis2, analysis_port,
      DispatcherConfig{kAnalysisInc2, &analysis2_dedup});
  WirePeerConfig analysis2_cfg = cfg;
  analysis2_cfg.incarnation = kAnalysisInc2;
  auto analysis2_to_compute =
      std::make_unique<WirePeer>(dial(compute_host.port()), analysis2_cfg);
  analysis2->set_peer(analysis2_to_compute.get());
  analysis2->register_mate(/*group=*/9, /*job=*/2003);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(cfg.breaker.open_cooldown_ms + 30));

  compute.submit(make_job(1003, 128, 9));  // probe reconnects -> HOLD
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  analysis2->submit(make_job(2003, 16, 9));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const bool phase3 = compute.running(1003) && analysis2->running(2003) &&
                      compute_to_analysis.healthy();
  say("driver  ", std::string("pair C3/A3 co-started after restart: ") +
                      (phase3 ? "yes" : "NO") + " (skew " +
                      std::to_string(std::llabs(compute.start_time(1003) -
                                                analysis2->start_time(2003))) +
                      " ms)");

  const auto st = compute_to_analysis.stats();
  {
    std::lock_guard<std::mutex> lock(g_print_mutex);
    std::cout << "\ncompute->analysis transport: " << st.calls << " calls, "
              << st.failed_calls << " failed, " << st.reconnects
              << " reconnects, " << st.breaker_opens << " breaker opens, "
              << st.breaker_closes << " breaker closes\n";
  }

  const bool ok = phase1 && phase2 && phase3;
  std::cout << "\nDegradation and re-sync demonstrated: " << (ok ? "yes" : "NO")
            << "\n";

  // Orderly teardown: drop the client peers first so serve loops see EOF.
  compute.set_peer(nullptr);
  analysis2->set_peer(nullptr);
  analysis2_to_compute.reset();
  analysis_host.reset();
  analysis2.reset();
  return ok ? 0 : 1;
}
