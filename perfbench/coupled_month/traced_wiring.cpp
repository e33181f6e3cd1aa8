#include "traced_wiring.h"

#include <algorithm>
#include <utility>

#include "util/error.h"
#include "util/rng.h"

namespace perfbench {

using namespace cosched;

void configure(CoupledSim& sim, const MonthConfig& cfg) {
  if (cfg.liveness) sim.set_liveness_all(*cfg.liveness);
  if (cfg.faults) sim.set_fault_plan_all(*cfg.faults);
  if (cfg.journaling) sim.enable_journaling(cfg.compact_every);
}

// -- decorators ---------------------------------------------------------------

PeerCallCounts& PeerCallCounts::operator+=(const PeerCallCounts& o) {
  get_mate_job += o.get_mate_job;
  get_mate_status += o.get_mate_status;
  try_start_mate += o.try_start_mate;
  try_start_started += o.try_start_started;
  start_job += o.start_job;
  heartbeat += o.heartbeat;
  gang += o.gang;
  return *this;
}

std::optional<std::optional<JobId>> TracedPeer::get_mate_job(GroupId group,
                                                             JobId asking) {
  ++counts_.get_mate_job;
  ScopedSpan span(tracer_, kind_);
  return inner_->get_mate_job(group, asking);
}

std::optional<MateStatus> TracedPeer::get_mate_status(JobId mate) {
  ++counts_.get_mate_status;
  ScopedSpan span(tracer_, kind_);
  return inner_->get_mate_status(mate);
}

std::optional<bool> TracedPeer::try_start_mate(JobId mate) {
  ++counts_.try_start_mate;
  std::optional<bool> started;
  {
    ScopedSpan span(tracer_, kind_);
    started = inner_->try_start_mate(mate);
  }
  if (started.value_or(false)) ++counts_.try_start_started;
  return started;
}

std::optional<bool> TracedPeer::start_job(JobId job) {
  ++counts_.start_job;
  ScopedSpan span(tracer_, kind_);
  return inner_->start_job(job);
}

std::optional<bool> TracedPeer::gang_prepare(JobId job, GroupId group) {
  ++counts_.gang;
  ScopedSpan span(tracer_, kind_);
  return inner_->gang_prepare(job, group);
}

std::optional<bool> TracedPeer::gang_commit(JobId job, GroupId group) {
  ++counts_.gang;
  ScopedSpan span(tracer_, kind_);
  return inner_->gang_commit(job, group);
}

std::optional<bool> TracedPeer::gang_abort(JobId job, GroupId group) {
  ++counts_.gang;
  ScopedSpan span(tracer_, kind_);
  return inner_->gang_abort(job, group);
}

std::optional<bool> TracedPeer::gang_victim(JobId job, GroupId group) {
  ++counts_.gang;
  ScopedSpan span(tracer_, kind_);
  return inner_->gang_victim(job, group);
}

std::optional<HeartbeatInfo> TracedPeer::heartbeat(const HeartbeatInfo& mine) {
  ++counts_.heartbeat;
  ScopedSpan span(tracer_, kind_);
  return inner_->heartbeat(mine);
}

std::optional<JobId> TracedService::get_mate_job(GroupId group, JobId asking) {
  ScopedSpan span(tracer_, SpanKind::kService);
  return inner_.get_mate_job(group, asking);
}

MateStatus TracedService::get_mate_status(JobId job) {
  ScopedSpan span(tracer_, SpanKind::kService);
  return inner_.get_mate_status(job);
}

bool TracedService::try_start_mate(JobId job) {
  ScopedSpan span(tracer_, SpanKind::kService);
  return inner_.try_start_mate(job);
}

bool TracedService::start_job(JobId job) {
  ScopedSpan span(tracer_, SpanKind::kService);
  return inner_.start_job(job);
}

std::optional<HeartbeatInfo> TracedService::heartbeat(
    const HeartbeatInfo& from) {
  ScopedSpan span(tracer_, SpanKind::kService);
  return inner_.heartbeat(from);
}

bool TracedService::gang_prepare(JobId job, GroupId group) {
  ScopedSpan span(tracer_, SpanKind::kService);
  return inner_.gang_prepare(job, group);
}

bool TracedService::gang_commit(JobId job, GroupId group) {
  ScopedSpan span(tracer_, SpanKind::kService);
  return inner_.gang_commit(job, group);
}

bool TracedService::gang_abort(JobId job, GroupId group) {
  ScopedSpan span(tracer_, SpanKind::kService);
  return inner_.gang_abort(job, group);
}

bool TracedService::gang_victim(JobId job, GroupId group) {
  ScopedSpan span(tracer_, SpanKind::kService);
  return inner_.gang_victim(job, group);
}

bool TracedService::admit_fence(JobId job, std::uint64_t fence) {
  ScopedSpan span(tracer_, SpanKind::kService);
  return inner_.admit_fence(job, fence);
}

void TracedSink::append(std::span<const std::uint8_t> frame) {
  append_bytes_ += frame.size();
  ScopedSpan span(tracer_, SpanKind::kJournalAppend);
  inner_->append(frame);
}

void TracedSink::commit() {
  ScopedSpan span(tracer_, SpanKind::kJournalCommit);
  inner_->commit();
}

void TracedSink::reset(std::vector<std::uint8_t> contents) {
  ScopedSpan span(tracer_, SpanKind::kJournalReset);
  inner_->reset(std::move(contents));
}

std::vector<std::uint8_t> TracedSink::contents() const {
  std::vector<std::uint8_t> out;
  {
    ScopedSpan span(tracer_, SpanKind::kJournalContents);
    out = inner_->contents();
  }
  contents_bytes_ += out.size();
  return out;
}

// -- wiring -------------------------------------------------------------------

namespace {

std::uint64_t outcome_fingerprint(const std::vector<const Cluster*>& clusters) {
  struct Rec {
    JobId id;
    Time start, end;
    int yields, releases;
  };
  std::vector<Rec> recs;
  for (const Cluster* c : clusters) {
    c->scheduler().for_each_job([&](JobId id, const RuntimeJob& j) {
      recs.push_back(Rec{id, j.start, j.end, j.yield_count, j.forced_releases});
    });
  }
  std::sort(recs.begin(), recs.end(),
            [](const Rec& a, const Rec& b) { return a.id < b.id; });
  auto fnv = [](std::uint64_t h, std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
    return h;
  };
  std::uint64_t h = 1469598103934665603ULL;
  for (const Rec& r : recs) {
    h = fnv(h, static_cast<std::uint64_t>(r.id));
    h = fnv(h, static_cast<std::uint64_t>(r.start));
    h = fnv(h, static_cast<std::uint64_t>(r.end));
    h = fnv(h, static_cast<std::uint64_t>(r.yields));
    h = fnv(h, static_cast<std::uint64_t>(r.releases));
  }
  return h;
}

}  // namespace

TracedCoupled::TracedCoupled(const MonthConfig& cfg,
                             const std::vector<Trace>& traces, Tracer* tracer)
    : tracer_(tracer) {
  const std::vector<DomainSpec>& specs = cfg.specs;
  COSCHED_CHECK_MSG(specs.size() == traces.size(),
                    "specs/traces arity mismatch");
  COSCHED_CHECK(!specs.empty());

  // Same construction order as CoupledSim: domains, links (row-major over
  // ordered pairs sharing a coupling group), lanes, then traces.
  for (const DomainSpec& spec : specs) {
    clusters_.push_back(std::make_unique<Cluster>(
        engine_, spec.name, spec.capacity,
        std::make_unique<TracedPolicy>(make_policy(spec.policy), tracer),
        spec.cosched, spec.sched, spec.alloc));
    services_.push_back(
        std::make_unique<TracedService>(*clusters_.back(), tracer));
  }
  for (std::size_t from = 0; from < specs.size(); ++from) {
    for (std::size_t to = 0; to < specs.size(); ++to) {
      if (from == to) continue;
      if (specs[from].coupling_group != specs[to].coupling_group) continue;
      auto loopback = std::make_unique<LoopbackPeer>(*services_[to]);
      Link link;
      link.loopback = loopback.get();
      auto fault = std::make_unique<FaultInjectingPeer>(
          std::make_unique<TracedPeer>(std::move(loopback), tracer,
                                       SpanKind::kRoundtrip),
          &engine_);
      link.fault = fault.get();
      fault->set_retry_listener(
          [cluster = clusters_[from].get()] { cluster->request_iteration(); });
      link.outer = std::make_unique<TracedPeer>(std::move(fault), tracer,
                                                SpanKind::kCall);
      clusters_[from]->add_peer(*link.outer);
      engine_.add_dependency(clusters_[from]->source(),
                             clusters_[to]->source());
      links_.push_back(std::move(link));
    }
  }
  engine_.build_clusters();
  for (std::size_t i = 0; i < traces.size(); ++i)
    clusters_[i]->load_trace(traces[i]);

  if (cfg.liveness) {
    for (auto& c : clusters_) {
      CoschedConfig cc = c->config();
      cc.liveness = *cfg.liveness;
      c->set_config(cc);
    }
  }
  if (cfg.faults) {
    // CoupledSim::set_fault_plan_all: one substream per ordered pair, drawn
    // in row-major order whether or not the pair is linked.
    SplitMix64 mix(cfg.faults->seed);
    std::size_t next_link = 0;
    for (std::size_t from = 0; from < specs.size(); ++from) {
      for (std::size_t to = 0; to < specs.size(); ++to) {
        if (from == to) continue;
        FaultPlan p = *cfg.faults;
        p.seed = mix.next() ^ (static_cast<std::uint64_t>(from) << 32 | to);
        if (specs[from].coupling_group == specs[to].coupling_group)
          links_[next_link++].fault->set_plan(std::move(p));
      }
    }
  }
  if (cfg.journaling) {
    for (auto& c : clusters_) {
      auto sink = std::make_unique<TracedSink>(
          std::make_unique<MemoryJournalSink>(), tracer);
      sinks_.push_back(sink.get());
      journals_.push_back(std::make_unique<Journal>(std::move(sink)));
      c->set_journal(journals_.back().get(), cfg.compact_every);
    }
  }
}

bool TracedCoupled::run(Time max_time) {
  for (;;) {
    bool more = false;
    {
      ScopedSpan span(tracer_, SpanKind::kStep);
      more = engine_.step();
    }
    if (!more) break;
    if (max_time > 0 && engine_.now() > max_time) break;
  }
  bool finished = true;
  for (const auto& c : clusters_) {
    c->scheduler().for_each_job([&](JobId, const RuntimeJob& job) {
      if (job.state != JobState::kFinished) finished = false;
    });
  }
  return finished;
}

std::uint64_t TracedCoupled::fingerprint() const {
  std::vector<const Cluster*> view;
  for (const auto& c : clusters_) view.push_back(c.get());
  return outcome_fingerprint(view);
}

PeerCallCounts TracedCoupled::call_counts() const {
  PeerCallCounts sum;
  for (const Link& l : links_) sum += l.outer->counts();
  return sum;
}

FaultStats TracedCoupled::fault_stats() const {
  FaultStats sum;
  for (const Link& l : links_) sum += l.fault->stats();
  return sum;
}

CoupledSim::ProtocolStats TracedCoupled::protocol_stats() const {
  CoupledSim::ProtocolStats s;
  for (const Link& l : links_) {
    s.calls += l.loopback->calls();
    s.request_bytes += l.loopback->request_bytes();
    s.response_bytes += l.loopback->response_bytes();
  }
  return s;
}

std::uint64_t TracedCoupled::journal_append_bytes() const {
  std::uint64_t n = 0;
  for (const TracedSink* s : sinks_) n += s->append_bytes();
  return n;
}

std::uint64_t TracedCoupled::journal_contents_bytes() const {
  std::uint64_t n = 0;
  for (const TracedSink* s : sinks_) n += s->contents_bytes();
  return n;
}

}  // namespace perfbench
