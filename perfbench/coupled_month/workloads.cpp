#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "core/coupled_sim.h"
#include "metrics/report.h"

namespace perfbench {

using namespace cosched;

namespace {

double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ULL;
  return h;
}

struct GroupCount {
  std::size_t total = 0;
  std::size_t together = 0;
};

/// CoupledSim::run's group accounting: a group co-started when every member
/// started at one instant.
GroupCount count_groups(const std::vector<const Cluster*>& clusters) {
  std::map<GroupId, std::vector<Time>> starts;
  for (const Cluster* c : clusters) {
    c->scheduler().for_each_job([&](JobId, const RuntimeJob& job) {
      if (job.spec.is_paired()) starts[job.spec.group].push_back(job.start);
    });
  }
  GroupCount g;
  for (const auto& [group, s] : starts) {
    ++g.total;
    if (std::find(s.begin(), s.end(), kNoTime) != s.end()) continue;
    const auto [lo, hi] = std::minmax_element(s.begin(), s.end());
    if (*lo == *hi) ++g.together;
  }
  return g;
}

std::uint64_t case_digest(std::uint64_t events, std::size_t groups_total,
                          std::size_t groups_together, double wait_a,
                          double wait_b) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv(h, events);
  h = fnv(h, groups_total);
  h = fnv(h, groups_together);
  h = fnv(h, std::bit_cast<std::uint64_t>(wait_a));
  h = fnv(h, std::bit_cast<std::uint64_t>(wait_b));
  return h;
}

bool fault_free(Workload w) { return w != Workload::kDurableMonth; }

/// Fills every counter of `raw` from a finished traced month (the tracer
/// is already filled by the run itself).
void capture_layers(TracedCoupled& sim, LayerRaw& raw) {
  Engine& e = sim.engine();
  raw.events = e.executed();
  raw.scheduled = e.scheduled_total();
  raw.cancelled = e.cancelled_total();
  raw.tombstones = e.tombstones_skipped();
  raw.peak_pending = e.peak_pending();
  std::vector<const Cluster*> view;
  for (std::size_t i = 0; i < sim.size(); ++i) {
    const Cluster& c = sim.cluster(i);
    view.push_back(&c);
    raw.iterations += c.iterations_run();
    raw.heartbeats_sent += c.heartbeats_sent();
    raw.heartbeats_acked += c.heartbeats_acked();
    raw.lease_grants += c.lease_grants();
    raw.lease_renewals += c.lease_renewals();
    raw.lease_expiries += c.lease_expiries();
  }
  raw.calls = sim.call_counts();
  raw.faults = sim.fault_stats();
  raw.proto = sim.protocol_stats();
  raw.journal_append_bytes = sim.journal_append_bytes();
  raw.journal_contents_bytes = sim.journal_contents_bytes();
  const GroupCount g = count_groups(view);
  raw.groups_total = g.total;
  raw.groups_together = g.together;
}

/// Runs fn(i) for i in [0, n) on `workers` threads.
void parallel_for(std::size_t n, unsigned workers,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr err;
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < std::max(1U, workers); ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (err) std::rethrow_exception(err);
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "base_month") return Workload::kBaseMonth;
  if (name == "yy_month") return Workload::kYyMonth;
  if (name == "durable_month") return Workload::kDurableMonth;
  if (name == "fig_grid") return Workload::kFigGrid;
  return std::nullopt;
}

MonthInputs make_month_inputs(Workload w, std::uint64_t seed) {
  const bench::CoupledWorkload cw =
      w == Workload::kDurableMonth ? bench::make_load_workload(0.50, seed)
                                   : bench::make_proportion_workload(0.33, seed);
  MonthInputs in;
  in.traces = {cw.intrepid, cw.eureka};
  in.paired_fraction = cw.paired_fraction;
  in.jobs = cw.intrepid.size() + cw.eureka.size();
  return in;
}

MonthConfig month_config(Workload w) {
  MonthConfig cfg;
  switch (w) {
    case Workload::kBaseMonth:
      // The figure harness's "base" series: scheme irrelevant when off.
      cfg.specs = make_coupled_specs("intrepid", 40960, "eureka", 100, kHH,
                                     /*cosched_enabled=*/false);
      break;
    case Workload::kYyMonth:
      cfg.specs = make_coupled_specs("intrepid", 40960, "eureka", 100, kYY);
      break;
    case Workload::kDurableMonth: {
      cfg.specs = make_coupled_specs("intrepid", 40960, "eureka", 100, kHH);
      CoschedConfig::Liveness live;
      live.enabled = true;
      live.heartbeat_period = 30 * kSecond;
      live.lease_duration = 5 * kMinute;
      cfg.liveness = live;
      FaultPlan plan;
      plan.seed = 0xd0ab1eULL;
      plan.drop_probability = 0.01;
      plan.latency_base = 1;
      plan.latency_jitter = 50;
      plan.rpc_deadline = 49;  // 1 + U[0, 50) > 49: 2% of calls time out
      plan.retry_backoff = 1 * kMinute;
      cfg.faults = plan;
      cfg.journaling = true;
      cfg.compact_every = 4096;
      break;
    }
    case Workload::kFigGrid:
      break;
  }
  return cfg;
}

MonthOutcome run_month(Workload w, std::uint64_t seed) {
  MonthOutcome out;
  const MonthConfig cfg = month_config(w);

  const std::int64_t w0 = monotonic_ns(), p0 = process_cpu_ns();
  const MonthInputs in = make_month_inputs(w, seed);
  const std::int64_t w1 = monotonic_ns();
  CoupledSim sim(cfg.specs, in.traces);
  configure(sim, cfg);
  const std::int64_t w2 = monotonic_ns(), c2 = thread_cpu_ns();
  const SimResult r = sim.run(kGuard);
  const std::int64_t w3 = monotonic_ns(), c3 = thread_cpu_ns();
  const std::int64_t p3 = process_cpu_ns();
  double recovery_cpu_s = 0.0;
  out.fingerprint = determinism_fingerprint(sim);
  if (cfg.journaling) {
    const std::int64_t r0 = monotonic_ns(), q0 = process_cpu_ns();
    for (std::size_t i = 0; i < sim.size(); ++i) {
      sim.journal(i).reopen();
      const Cluster::RecoveryStats st =
          sim.cluster(i).recover_from_journal(sim.journal(i));
      out.records_replayed += st.records_replayed;
      out.bytes_scanned += st.bytes_scanned;
      if (st.data_loss_reported())
        out.problems.push_back("recovery of domain " + std::to_string(i) +
                               " reported data loss");
    }
    out.recovery_s = seconds_between(r0, monotonic_ns());
    recovery_cpu_s = seconds_between(q0, process_cpu_ns());
    if (determinism_fingerprint(sim) != out.fingerprint)
      out.problems.push_back("fingerprint changed across journal recovery");
  }

  out.gen_s = seconds_between(w0, w1);
  out.setup_s = seconds_between(w0, w2);
  out.month_s = seconds_between(w2, w3);
  out.month_cpu_s = seconds_between(c2, c3);
  out.grid_s = out.setup_s + out.month_s + out.recovery_s;
  out.grid_cpu_s = seconds_between(p0, p3) + recovery_cpu_s;
  out.events = sim.engine().executed();
  out.jobs = in.jobs;
  out.paired_fraction = in.paired_fraction;

  if (!r.completed) out.problems.push_back("month did not complete");
  if (!r.invariants.ok())
    out.problems.push_back("invariant violated: " +
                           r.invariants.violations.front());
  if (fault_free(w) && cfg.specs.front().cosched.enabled &&
      r.groups.groups_started_together != r.groups.groups_total)
    out.problems.push_back(
        std::to_string(r.groups.groups_total -
                       r.groups.groups_started_together) +
        " of " + std::to_string(r.groups.groups_total) +
        " groups did not co-start");
  return out;
}

TracedOutcome run_traced_month(Workload w, std::uint64_t seed) {
  TracedOutcome out;
  const MonthConfig cfg = month_config(w);
  const MonthInputs in = make_month_inputs(w, seed);
  TracedCoupled sim(cfg, in.traces, &out.layers.tracer);
  const std::int64_t t0 = monotonic_ns();
  const bool completed = sim.run(kGuard);
  out.month_s = seconds_between(t0, monotonic_ns());
  out.fingerprint = sim.fingerprint();
  capture_layers(sim, out.layers);
  if (!completed) out.problems.push_back("traced month did not complete");
  if (out.layers.tracer.open_spans() != 0)
    out.problems.push_back("traced month left spans open");
  return out;
}

void LayerRaw::add(const LayerRaw& o) {
  tracer.merge(o.tracer);
  events += o.events;
  scheduled += o.scheduled;
  cancelled += o.cancelled;
  tombstones += o.tombstones;
  peak_pending = std::max(peak_pending, o.peak_pending);
  iterations += o.iterations;
  calls += o.calls;
  faults += o.faults;
  proto.calls += o.proto.calls;
  proto.request_bytes += o.proto.request_bytes;
  proto.response_bytes += o.proto.response_bytes;
  heartbeats_sent += o.heartbeats_sent;
  heartbeats_acked += o.heartbeats_acked;
  lease_grants += o.lease_grants;
  lease_renewals += o.lease_renewals;
  lease_expiries += o.lease_expiries;
  journal_append_bytes += o.journal_append_bytes;
  journal_contents_bytes += o.journal_contents_bytes;
  groups_total += o.groups_total;
  groups_together += o.groups_together;
}

std::map<std::string, double> layer_metrics(const LayerRaw& raw) {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto d = [](auto v) { return static_cast<double>(v); };
  const Tracer& t = raw.tracer;
  const SpanTotals step = t.totals(SpanKind::kStep);
  const SpanTotals score = t.totals(SpanKind::kScore);
  const SpanTotals call = t.totals(SpanKind::kCall);
  const SpanTotals rt = t.totals(SpanKind::kRoundtrip);
  const SpanTotals service = t.totals(SpanKind::kService);
  const SpanTotals append = t.totals(SpanKind::kJournalAppend);
  const SpanTotals commit = t.totals(SpanKind::kJournalCommit);
  const SpanTotals reset = t.totals(SpanKind::kJournalReset);
  const SpanTotals contents = t.totals(SpanKind::kJournalContents);

  std::map<std::string, double> m;
  m["sim.events"] = d(raw.events);
  m["sim.scheduled"] = d(raw.scheduled);
  m["sim.cancelled"] = d(raw.cancelled);
  m["sim.tombstones"] = d(raw.tombstones);
  m["sim.peak_pending"] = d(raw.peak_pending);
  m["sim.step_ns"] = d(step.total_ns);
  m["sim.step_self_ns"] = d(step.self_ns);

  m["sched.iterations"] = d(raw.iterations);
  m["sched.score_calls"] = d(score.count);
  m["sched.score_ns"] = d(score.total_ns);
  m["sched.scores_per_iteration"] = ratio(d(score.count), d(raw.iterations));

  m["core.alg1.calls.get_mate_job"] = d(raw.calls.get_mate_job);
  m["core.alg1.calls.get_mate_status"] = d(raw.calls.get_mate_status);
  m["core.alg1.calls.try_start_mate"] = d(raw.calls.try_start_mate);
  m["core.alg1.calls.start_job"] = d(raw.calls.start_job);
  m["core.alg1.calls.heartbeat"] = d(raw.calls.heartbeat);
  m["core.alg1.call_ns"] = d(call.total_ns);
  m["core.alg1.service_calls"] = d(service.count);
  m["core.alg1.service_ns"] = d(service.self_ns);
  m["core.alg1.calls_per_event"] = ratio(d(raw.calls.total()), d(raw.events));
  m["core.alg1.try_start_ok_ratio"] =
      ratio(d(raw.calls.try_start_started), d(raw.calls.try_start_mate));
  m["core.alg1.co_started_ratio"] =
      ratio(d(raw.groups_together), d(raw.groups_total));

  // The outer peer span's only child is the loopback span, so its self time
  // is the fault plane's verdict and bookkeeping.
  m["core.fault.self_ns"] = d(call.self_ns);
  m["core.fault.dropped"] = d(raw.faults.dropped);
  m["core.fault.timed_out"] = d(raw.faults.timed_out);
  m["core.fault.delivered_ratio"] =
      ratio(d(raw.faults.delivered), d(raw.faults.calls));

  m["proto.roundtrips"] = d(raw.proto.calls);
  m["proto.request_bytes"] = d(raw.proto.request_bytes);
  m["proto.response_bytes"] = d(raw.proto.response_bytes);
  m["proto.codec_ns"] = d(rt.self_ns);
  m["proto.ns_per_roundtrip"] = ratio(d(rt.self_ns), d(raw.proto.calls));

  m["core.liveness.heartbeats_sent"] = d(raw.heartbeats_sent);
  m["core.liveness.heartbeats_acked"] = d(raw.heartbeats_acked);
  m["core.liveness.lease_grants"] = d(raw.lease_grants);
  m["core.liveness.lease_renewals"] = d(raw.lease_renewals);
  m["core.liveness.lease_expiries"] = d(raw.lease_expiries);

  m["core.journal.appends"] = d(append.count);
  m["core.journal.append_bytes"] = d(raw.journal_append_bytes);
  m["core.journal.append_ns"] = d(append.total_ns);
  m["core.journal.commits"] = d(commit.count);
  m["core.journal.commit_ns"] = d(commit.total_ns);
  m["core.journal.compactions"] = d(reset.count);
  m["core.journal.compaction_ns"] = d(reset.total_ns);
  m["core.journal.contents_calls"] = d(contents.count);
  m["core.journal.contents_bytes"] = d(raw.journal_contents_bytes);
  m["core.journal.bytes_per_event"] =
      ratio(d(raw.journal_append_bytes), d(raw.events));
  return m;
}

// -- fig_grid -------------------------------------------------------------------

std::vector<GridCase> grid_cases() {
  std::vector<GridCase> cases;
  const auto add_series = [&](bool by_load, double x) {
    cases.push_back({by_load, x, kHH, false});
    for (const SchemeCombo& combo : {kHY, kYH, kYY})
      cases.push_back({by_load, x, combo, true});
  };
  for (double load : bench::kEurekaLoads) add_series(true, load);
  for (double prop : bench::kPairedProportions) add_series(false, prop);
  return cases;
}

namespace {

CaseOutcome run_grid_case(const GridCase& gc, std::uint64_t seed, bool traced,
                          LayerRaw* layers) {
  CaseOutcome out;
  const std::int64_t w0 = monotonic_ns(), c0 = thread_cpu_ns();
  const bench::CoupledWorkload w = gc.by_load
                                       ? bench::make_load_workload(gc.x, seed)
                                       : bench::make_proportion_workload(gc.x, seed);
  const std::int64_t w1 = monotonic_ns(), c1 = thread_cpu_ns();
  out.gen_s = seconds_between(w0, w1);
  out.jobs = w.intrepid.size() + w.eureka.size();
  out.paired_fraction = w.paired_fraction;

  std::size_t groups_total = 0, groups_together = 0;
  if (!traced) {
    const bench::CaseMetrics m = bench::run_case(w, gc.combo, gc.enabled);
    out.events = m.events;
    groups_total = m.groups.groups_total;
    groups_together = m.groups.groups_started_together;
    out.digest = case_digest(m.events, groups_total, groups_together,
                             m.intrepid.avg_wait_minutes,
                             m.eureka.avg_wait_minutes);
  } else {
    // run_case's configuration, through the traced wiring.
    MonthConfig cfg;
    cfg.specs = make_coupled_specs("intrepid", 40960, "eureka", 100, gc.combo,
                                   gc.enabled);
    TracedCoupled sim(cfg, {w.intrepid, w.eureka}, &layers->tracer);
    if (!sim.run(kGuard)) out.problems.push_back("traced case stalled");
    capture_layers(sim, *layers);
    out.events = layers->events;
    groups_total = layers->groups_total;
    groups_together = layers->groups_together;
    const Time end = sim.engine().now();
    out.digest = case_digest(
        out.events, groups_total, groups_together,
        collect_metrics(sim.cluster(0).scheduler(), end, "intrepid")
            .avg_wait_minutes,
        collect_metrics(sim.cluster(1).scheduler(), end, "eureka")
            .avg_wait_minutes);
  }
  const std::int64_t w2 = monotonic_ns(), c2 = thread_cpu_ns();
  out.wall_s = seconds_between(w0, w2);
  out.cpu_s = seconds_between(c0, c2);
  out.run_cpu_s = seconds_between(c1, c2);
  if (gc.enabled && groups_together != groups_total)
    out.problems.push_back("case left groups not co-started");
  return out;
}

}  // namespace

GridOutcome run_grid(std::uint64_t seed, unsigned workers, bool traced,
                     HostSpeedProbe* probe) {
  const std::vector<GridCase> cases = grid_cases();
  GridOutcome out;
  out.cases.resize(cases.size());
  std::vector<LayerRaw> layers(traced ? cases.size() : 0);
  // Task j is a kernel run when j % 3 == 2, else case j - j / 3.
  const std::size_t kernel_tasks = probe != nullptr ? cases.size() / 2 : 0;
  out.kernel_runs.resize(kernel_tasks);
  const std::int64_t w0 = monotonic_ns(), p0 = process_cpu_ns();
  parallel_for(cases.size() + kernel_tasks, workers, [&](std::size_t j) {
    if (kernel_tasks > 0 && j % 3 == 2) {
      out.kernel_runs[j / 3] = probe->measure();
      return;
    }
    const std::size_t i = kernel_tasks > 0 ? j - j / 3 : j;
    try {
      out.cases[i] = run_grid_case(cases[i], seed, traced,
                                   traced ? &layers[i] : nullptr);
    } catch (const std::exception& e) {
      out.cases[i].problems.push_back(std::string("case threw: ") + e.what());
    }
  });
  out.wall_s = seconds_between(w0, monotonic_ns());
  out.cpu_s = seconds_between(p0, process_cpu_ns());
  for (const CaseOutcome& c : out.cases) out.case_cpu_s += c.cpu_s;
  for (const LayerRaw& l : layers) out.layers.add(l);
  return out;
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  return std::max(1U, std::thread::hardware_concurrency());
}

}  // namespace perfbench
