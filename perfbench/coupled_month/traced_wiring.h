// The benchmark's own copy of CoupledSim's wiring, with a tracing decorator
// at every public layer boundary.
//
// CoupledSim builds its domains, peers and journals privately, so a span
// cannot be put around those calls from outside.  TracedCoupled rebuilds the
// same object graph from the same public pieces (Cluster, LoopbackPeer,
// FaultInjectingPeer, Journal) and slots a forwarding decorator in at each
// interface:
//
//   Cluster --PeerClient--> TracedPeer(kCall)        Algorithm 1's view
//             FaultInjectingPeer                     fault plane
//             TracedPeer(kRoundtrip)
//             LoopbackPeer                           encode/dispatch/decode
//             TracedService(kService)
//             remote Cluster                         remote handler
//
// plus TracedPolicy around each domain's PriorityPolicy and TracedSink around
// each journal's MemoryJournalSink.  The decorators forward every call
// unchanged, so a traced month yields the same job-outcome fingerprint as
// CoupledSim on the same inputs; the benchmark checks that on every run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/cluster.h"
#include "core/coupled_sim.h"
#include "core/fault.h"
#include "core/journal.h"
#include "proto/peer.h"
#include "sched/policy.h"
#include "sim/engine.h"
#include "tracer.h"
#include "workload/trace.h"

namespace perfbench {

/// Everything a month is configured with besides its traces.  Applied the
/// same way to CoupledSim (configure) and to TracedCoupled.
struct MonthConfig {
  std::vector<cosched::DomainSpec> specs;
  std::optional<cosched::CoschedConfig::Liveness> liveness;
  std::optional<cosched::FaultPlan> faults;  ///< installed on every link
  bool journaling = false;
  std::uint64_t compact_every = 0;
};

/// Applies `cfg`'s liveness, fault plan and journaling to `sim`, in that
/// order (the order TracedCoupled uses too).
void configure(cosched::CoupledSim& sim, const MonthConfig& cfg);

class TracedPolicy final : public cosched::PriorityPolicy {
 public:
  TracedPolicy(std::unique_ptr<cosched::PriorityPolicy> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  double score(const cosched::RuntimeJob& job, cosched::Time now) const override {
    ScopedSpan span(tracer_, SpanKind::kScore);
    return inner_->score(job, now);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<cosched::PriorityPolicy> inner_;
  Tracer* tracer_;
};

/// Per-operation call counts seen by one TracedPeer.
struct PeerCallCounts {
  std::uint64_t get_mate_job = 0;
  std::uint64_t get_mate_status = 0;
  std::uint64_t try_start_mate = 0;
  std::uint64_t try_start_started = 0;  ///< answered "the mate started"
  std::uint64_t start_job = 0;
  std::uint64_t heartbeat = 0;
  std::uint64_t gang = 0;  ///< prepare + commit + abort + victim

  std::uint64_t total() const {
    return get_mate_job + get_mate_status + try_start_mate + start_job +
           heartbeat + gang;
  }
  PeerCallCounts& operator+=(const PeerCallCounts& o);
};

class TracedPeer final : public cosched::PeerClient {
 public:
  TracedPeer(std::unique_ptr<cosched::PeerClient> inner, Tracer* tracer,
             SpanKind kind)
      : inner_(std::move(inner)), tracer_(tracer), kind_(kind) {}

  const PeerCallCounts& counts() const { return counts_; }

  std::optional<std::optional<cosched::JobId>> get_mate_job(
      cosched::GroupId group, cosched::JobId asking) override;
  std::optional<cosched::MateStatus> get_mate_status(
      cosched::JobId mate) override;
  std::optional<bool> try_start_mate(cosched::JobId mate) override;
  std::optional<bool> start_job(cosched::JobId job) override;
  std::optional<bool> gang_prepare(cosched::JobId job,
                                   cosched::GroupId group) override;
  std::optional<bool> gang_commit(cosched::JobId job,
                                  cosched::GroupId group) override;
  std::optional<bool> gang_abort(cosched::JobId job,
                                 cosched::GroupId group) override;
  std::optional<bool> gang_victim(cosched::JobId job,
                                  cosched::GroupId group) override;
  std::optional<cosched::HeartbeatInfo> heartbeat(
      const cosched::HeartbeatInfo& mine) override;
  void set_fence_token(std::uint64_t token) override {
    inner_->set_fence_token(token);
  }

 private:
  std::unique_ptr<cosched::PeerClient> inner_;
  Tracer* tracer_;
  SpanKind kind_;
  PeerCallCounts counts_;
};

class TracedService final : public cosched::CoschedService {
 public:
  TracedService(cosched::CoschedService& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::optional<cosched::JobId> get_mate_job(cosched::GroupId group,
                                             cosched::JobId asking) override;
  cosched::MateStatus get_mate_status(cosched::JobId job) override;
  bool try_start_mate(cosched::JobId job) override;
  bool start_job(cosched::JobId job) override;
  std::optional<cosched::HeartbeatInfo> heartbeat(
      const cosched::HeartbeatInfo& from) override;
  bool gang_prepare(cosched::JobId job, cosched::GroupId group) override;
  bool gang_commit(cosched::JobId job, cosched::GroupId group) override;
  bool gang_abort(cosched::JobId job, cosched::GroupId group) override;
  bool gang_victim(cosched::JobId job, cosched::GroupId group) override;
  bool admit_fence(cosched::JobId job, std::uint64_t fence) override;

 private:
  cosched::CoschedService& inner_;
  Tracer* tracer_;
};

class TracedSink final : public cosched::JournalSink {
 public:
  TracedSink(std::unique_ptr<cosched::JournalSink> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void append(std::span<const std::uint8_t> frame) override;
  void commit() override;
  void reset(std::vector<std::uint8_t> contents) override;
  std::vector<std::uint8_t> contents() const override;

  std::uint64_t append_bytes() const { return append_bytes_; }
  std::uint64_t contents_bytes() const { return contents_bytes_; }

 private:
  std::unique_ptr<cosched::JournalSink> inner_;
  Tracer* tracer_;
  std::uint64_t append_bytes_ = 0;
  mutable std::uint64_t contents_bytes_ = 0;
};

/// CoupledSim's wiring with the decorators above.  Serial engine only.
class TracedCoupled {
 public:
  TracedCoupled(const MonthConfig& cfg,
                const std::vector<cosched::Trace>& traces, Tracer* tracer);

  /// Runs to completion (or past `max_time`, 0 = unlimited), each
  /// Engine::step inside a span.  True when every job finished.
  bool run(cosched::Time max_time = 0);

  /// Job-outcome fingerprint, computed the way
  /// cosched::determinism_fingerprint computes it for a CoupledSim.
  std::uint64_t fingerprint() const;

  cosched::Engine& engine() { return engine_; }
  std::size_t size() const { return clusters_.size(); }
  cosched::Cluster& cluster(std::size_t i) { return *clusters_.at(i); }

  /// Sums over every directed link / journal.
  PeerCallCounts call_counts() const;
  cosched::FaultStats fault_stats() const;
  cosched::CoupledSim::ProtocolStats protocol_stats() const;
  std::uint64_t journal_append_bytes() const;
  std::uint64_t journal_contents_bytes() const;

 private:
  struct Link {
    std::unique_ptr<TracedPeer> outer;  ///< owns the whole chain below
    cosched::FaultInjectingPeer* fault = nullptr;
    cosched::LoopbackPeer* loopback = nullptr;
  };

  Tracer* tracer_;
  cosched::Engine engine_;
  std::vector<std::unique_ptr<cosched::Cluster>> clusters_;
  std::vector<std::unique_ptr<TracedService>> services_;
  std::vector<Link> links_;
  std::vector<std::unique_ptr<cosched::Journal>> journals_;
  std::vector<TracedSink*> sinks_;  ///< owned by journals_
};

}  // namespace perfbench
