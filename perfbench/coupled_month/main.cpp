// coupled_month: the coupled-month benchmark program.
//
//   coupled_month --workload <base_month|yy_month|durable_month|fig_grid>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// Runs the workload's operation (one month, or one fig_grid pass) back to
// back, one in flight, until --seconds have elapsed, checks every output,
// and prints as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics (untraced).  --trace 1 spends
// half the time untraced and half on traced copies of the same operation,
// and reports the per-layer metrics.  Exits 1 when any output check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "host_speed.h"
#include "summary.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

/// Checked-output tally plus the metrics of the final JSON line.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::map<std::string, std::string> inputs;  ///< sizes, as JSON values

  /// Counts one checked operation; `problems` empty means it passed.
  void check(const std::string& what, const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    for (const std::string& p : problems)
      std::cerr << "output check failed: " << what << ": " << p << "\n";
  }
  double failed_frac() const {
    return static_cast<double>(failed) / static_cast<double>(attempted);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
  }
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Distinct inputs each run measures, derived from --seed: one month's run
/// time moves by up to 30% from one seed to the next (yy_month: 0.75-1.16 s
/// over 16 seeds), and the mean over inputs averages that out.  Each input
/// runs at least once and the first at least twice, so the repetition check
/// always runs; a yy_month round of 16 inputs takes 14-24 s.
std::size_t inputs_per_run(Workload w) {
  switch (w) {
    case Workload::kBaseMonth: return 16;
    case Workload::kYyMonth: return 16;
    case Workload::kDurableMonth: return 8;
    case Workload::kFigGrid: return 4;
  }
  return 1;
}

/// The input seeds of one run: `n` consecutive seeds starting at seed * n,
/// so runs with different --seed values share no input.
std::vector<std::uint64_t> input_seeds(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(seed * n + i);
  return out;
}

/// Calls op(k) for k = 0, 1, ... until `seconds` have elapsed and at least
/// `min_calls` calls ran.
void repeat_for(double seconds, std::size_t min_calls,
                const std::function<void(std::size_t)>& op) {
  const std::int64_t start = monotonic_ns();
  for (std::size_t k = 0;; ++k) {
    if (k >= min_calls &&
        static_cast<double>(monotonic_ns() - start) * 1e-9 >= seconds)
      return;
    op(k);
  }
}

template <class T, class F>
std::vector<double> collect(const std::vector<T>& xs, F f) {
  std::vector<double> out;
  out.reserve(xs.size());
  for (const T& x : xs) out.push_back(f(x));
  return out;
}

template <class T, class F>
double mean(const std::vector<T>& xs, F f) {
  double sum = 0.0;
  for (const T& x : xs) sum += f(x);
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

/// End-to-end timings of one operation: a month, or one fig_grid pass.
struct OpTimes {
  double setup_s = 0.0;
  double month_s = 0.0;
  double month_cpu_s = 0.0;
  double grid_s = 0.0;
  double grid_cpu_s = 0.0;
};

OpTimes times_of(const MonthOutcome& m) {
  return {m.setup_s, m.month_s, m.month_cpu_s, m.grid_s, m.grid_cpu_s};
}

/// A grid's month is one of its cases: the mean case of the pass, with the
/// case's workload generation counted as its set-up.  (The median case of a
/// heavy-tailed mix jumps from one case to another between inputs.)
OpTimes times_of(const GridOutcome& g) {
  OpTimes t;
  t.setup_s = mean(g.cases, [](auto& c) { return c.gen_s; });
  t.month_s = mean(g.cases, [](auto& c) { return c.wall_s - c.gen_s; });
  t.month_cpu_s = mean(g.cases, [](auto& c) { return c.run_cpu_s; });
  t.grid_s = g.wall_s;
  t.grid_cpu_s = g.case_cpu_s;
  return t;
}

/// Which host slowdown a timing is divided by.
enum class Clock { kWall, kCpu };

double slowdown_on(const Slowdown& s, Clock c) {
  return c == Clock::kWall ? s.wall : s.cpu;
}

/// One untraced operation: its input, its timings, and the host slowdown
/// measured around it (see host_speed.h).
struct TimedOp {
  std::size_t input = 0;
  OpTimes times;
  Slowdown slowdown;
};

/// Runs the months op(input) round robin over `inputs` until `seconds` have
/// elapsed and every input ran once and the first twice, timing the
/// reference kernel between months.
std::vector<TimedOp> run_timed(HostSpeedProbe& probe, double seconds,
                               std::size_t inputs,
                               const std::function<OpTimes(std::size_t)>& op) {
  std::vector<TimedOp> out;
  KernelTimes before = probe.measure();
  repeat_for(seconds, inputs + 1, [&](std::size_t k) {
    const std::size_t i = k % inputs;
    const OpTimes t = op(i);
    const KernelTimes after = probe.measure();
    out.push_back({i, t, slowdown_of({before, after})});
    before = after;
  });
  return out;
}

/// Mean over inputs of each input's median `field`, each repetition divided
/// by the host slowdown of `clock` around it (no clock: as measured).
double per_input(const std::vector<TimedOp>& ops, std::size_t inputs,
                 double OpTimes::*field, std::optional<Clock> clock) {
  std::vector<std::vector<double>> by_input(inputs);
  for (const TimedOp& op : ops)
    by_input[op.input].push_back(op.times.*field /
                                 (clock ? slowdown_on(op.slowdown, *clock) : 1.0));
  return mean(by_input, [](const std::vector<double>& v) { return median(v); });
}

void add_end_to_end(Report& rep, const std::vector<TimedOp>& ops,
                    std::size_t inputs) {
  const auto normalized = [&](double OpTimes::*field, Clock clock) {
    return per_input(ops, inputs, field, clock);
  };
  rep.add("month_s", normalized(&OpTimes::month_s, Clock::kWall), "s");
  rep.add("month_cpu_s", normalized(&OpTimes::month_cpu_s, Clock::kCpu), "s");
  rep.add("setup_s", normalized(&OpTimes::setup_s, Clock::kWall), "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("grid_s", normalized(&OpTimes::grid_s, Clock::kWall), "s");
  rep.add("grid_cpu_s", normalized(&OpTimes::grid_cpu_s, Clock::kCpu), "s");
  rep.inputs["host_slowdown_wall"] =
      num(median(collect(ops, [](const TimedOp& op) { return op.slowdown.wall; })));
  rep.inputs["host_slowdown_cpu"] =
      num(median(collect(ops, [](const TimedOp& op) { return op.slowdown.cpu; })));
  rep.inputs["month_s_as_measured"] =
      num(per_input(ops, inputs, &OpTimes::month_s, std::nullopt));
}

/// Means over traced operations of each per-layer metric.
std::map<std::string, double> mean_layers(
    const std::vector<std::map<std::string, double>>& ops) {
  std::map<std::string, double> out;
  for (const auto& [name, v] : ops.front()) {
    (void)v;
    out[name] = mean(ops, [&](const auto& m) { return m.at(name); });
  }
  return out;
}

/// Adds every per-layer metric, in BENCHMARK.json order, from `layers`
/// (counter-derived, see layer_metrics) and `extra` (timing-derived).
void add_layer_metrics(Report& rep, const std::map<std::string, double>& layers,
                       const std::map<std::string, double>& extra) {
  static const std::vector<std::pair<const char*, const char*>> kUnits = {
      {"sim.events", "count"},
      {"sim.scheduled", "count"},
      {"sim.cancelled", "count"},
      {"sim.tombstones", "count"},
      {"sim.peak_pending", "count"},
      {"sim.step_ns", "ns"},
      {"sim.step_self_ns", "ns"},
      {"sim.events_per_s", "1/s"},
      {"sched.iterations", "count"},
      {"sched.score_calls", "count"},
      {"sched.score_ns", "ns"},
      {"sched.scores_per_iteration", "ratio"},
      {"core.alg1.calls.get_mate_job", "count"},
      {"core.alg1.calls.get_mate_status", "count"},
      {"core.alg1.calls.try_start_mate", "count"},
      {"core.alg1.calls.start_job", "count"},
      {"core.alg1.calls.heartbeat", "count"},
      {"core.alg1.call_ns", "ns"},
      {"core.alg1.service_calls", "count"},
      {"core.alg1.service_ns", "ns"},
      {"core.alg1.calls_per_event", "ratio"},
      {"core.alg1.try_start_ok_ratio", "ratio"},
      {"core.alg1.co_started_ratio", "ratio"},
      {"core.fault.self_ns", "ns"},
      {"core.fault.dropped", "count"},
      {"core.fault.timed_out", "count"},
      {"core.fault.delivered_ratio", "ratio"},
      {"proto.roundtrips", "count"},
      {"proto.request_bytes", "B"},
      {"proto.response_bytes", "B"},
      {"proto.codec_ns", "ns"},
      {"proto.ns_per_roundtrip", "ns"},
      {"core.liveness.heartbeats_sent", "count"},
      {"core.liveness.heartbeats_acked", "count"},
      {"core.liveness.lease_grants", "count"},
      {"core.liveness.lease_renewals", "count"},
      {"core.liveness.lease_expiries", "count"},
      {"core.journal.appends", "count"},
      {"core.journal.append_bytes", "B"},
      {"core.journal.append_ns", "ns"},
      {"core.journal.commits", "count"},
      {"core.journal.commit_ns", "ns"},
      {"core.journal.compactions", "count"},
      {"core.journal.compaction_ns", "ns"},
      {"core.journal.contents_calls", "count"},
      {"core.journal.contents_bytes", "B"},
      {"core.journal.bytes_per_event", "B"},
      {"core.recovery.records_replayed", "count"},
      {"core.recovery.bytes_scanned", "B"},
      {"core.recovery.records_per_s", "1/s"},
      {"recovery_s", "s"},
      {"workload.gen_s", "s"},
      {"workload.jobs", "count"},
      {"workload.paired_fraction", "ratio"},
      {"trace.overhead_frac", "ratio"},
      {"failed_frac", "ratio"},
      {"harness.cases", "count"},
      {"harness.case_cpu_s", "s"},
      {"harness.cpu_over_wall", "ratio"},
      {"harness.longest_case_share", "ratio"},
  };
  for (const auto& [name, unit] : kUnits) {
    double v = 0.0;
    if (auto it = layers.find(name); it != layers.end()) v = it->second;
    if (auto it = extra.find(name); it != extra.end()) v = it->second;
    rep.add(name, v, unit);
  }
}

void run_month_workload(Workload w, const Args& a, HostSpeedProbe& probe,
                        Report& rep, Tracer& spans) {
  const std::vector<std::uint64_t> seeds = input_seeds(a.seed, inputs_per_run(w));
  std::vector<std::optional<MonthOutcome>> first(seeds.size());
  /// Runs and checks one untraced month on input i.
  const auto month = [&](std::size_t i) {
    MonthOutcome m = run_month(w, seeds[i]);
    if (first[i] && m.fingerprint != first[i]->fingerprint)
      m.problems.push_back("fingerprint differs from the first repetition");
    rep.check("month on seed " + std::to_string(seeds[i]), m.problems);
    if (!first[i]) first[i] = m;
    return m;
  };
  const auto sizes = [&] {
    std::vector<MonthOutcome> seen;
    for (const auto& m : first)
      if (m) seen.push_back(*m);
    rep.inputs["input_months"] = std::to_string(seen.size());
    rep.inputs["jobs_per_month"] = num(mean(seen, [](auto& m) { return m.jobs; }));
    rep.inputs["events_per_month"] =
        num(mean(seen, [](auto& m) { return m.events; }));
    rep.inputs["paired_fraction"] =
        num(mean(seen, [](auto& m) { return m.paired_fraction; }));
    return seen;
  };

  if (!a.trace) {
    const std::vector<TimedOp> ops =
        run_timed(probe, a.seconds, seeds.size(),
                  [&](std::size_t i) { return times_of(month(i)); });
    sizes();
    rep.inputs["months"] = std::to_string(rep.attempted);
    add_end_to_end(rep, ops, seeds.size());
    return;
  }

  // Traced run: each traced month follows an untraced month on the same
  // input, which it must reproduce exactly.
  std::vector<MonthOutcome> untraced;
  std::vector<TracedOutcome> traced;
  repeat_for(a.seconds, 2, [&](std::size_t k) {
    const std::size_t i = k % seeds.size();
    untraced.push_back(month(i));
    TracedOutcome t = run_traced_month(w, seeds[i]);
    if (t.fingerprint != untraced.back().fingerprint)
      t.problems.push_back("traced fingerprint differs from CoupledSim's");
    rep.check("traced month on seed " + std::to_string(seeds[i]), t.problems);
    traced.push_back(std::move(t));
  });
  const std::vector<MonthOutcome> seen = sizes();
  rep.inputs["traced_months"] = std::to_string(traced.size());
  std::vector<std::map<std::string, double>> layer_ops;
  for (const TracedOutcome& t : traced) layer_ops.push_back(layer_metrics(t.layers));
  spans = traced.front().layers.tracer;

  const auto total = [](const auto& xs, auto f) {
    return mean(xs, f) * static_cast<double>(xs.size());
  };
  const double recovery_s = mean(untraced, [](auto& m) { return m.recovery_s; });
  const double records = mean(untraced, [](auto& m) {
    return static_cast<double>(m.records_replayed);
  });
  std::map<std::string, double> extra = {
      {"sim.events_per_s",
       total(untraced, [](auto& m) { return static_cast<double>(m.events); }) /
           total(untraced, [](auto& m) { return m.month_cpu_s; })},
      {"core.recovery.records_replayed", records},
      {"core.recovery.bytes_scanned", mean(untraced, [](auto& m) {
         return static_cast<double>(m.bytes_scanned);
       })},
      {"core.recovery.records_per_s", recovery_s > 0 ? records / recovery_s : 0.0},
      {"recovery_s", recovery_s},
      {"workload.gen_s", mean(untraced, [](auto& m) { return m.gen_s; })},
      {"workload.jobs", mean(seen, [](auto& m) { return m.jobs; })},
      {"workload.paired_fraction",
       mean(seen, [](auto& m) { return m.paired_fraction; })},
      {"trace.overhead_frac",
       total(traced, [](auto& t) { return t.month_s; }) /
               total(untraced, [](auto& m) { return m.month_s; }) -
           1.0},
      {"failed_frac", rep.failed_frac()},
  };
  add_layer_metrics(rep, mean_layers(layer_ops), extra);
}

void run_grid_workload(const Args& a, HostSpeedProbe& probe, Report& rep,
                       Tracer& spans) {
  const unsigned workers = available_cpus();
  const std::vector<std::uint64_t> seeds =
      input_seeds(a.seed, inputs_per_run(Workload::kFigGrid));
  std::vector<std::vector<std::uint64_t>> digests(seeds.size());
  /// Runs and checks one grid pass on input i; every case's digest must
  /// match the input's first untraced pass.
  const auto grid = [&](std::size_t i, bool traced, HostSpeedProbe* in_pool) {
    GridOutcome g = run_grid(seeds[i], workers, traced, in_pool);
    const bool first_pass = digests[i].empty();
    for (std::size_t c = 0; c < g.cases.size(); ++c) {
      CaseOutcome& out = g.cases[c];
      if (first_pass)
        digests[i].push_back(out.digest);
      else if (digests[i][c] != out.digest)
        out.problems.push_back(traced ? "traced digest differs from run_case's"
                                      : "digest differs from the first pass");
      rep.check(std::string(traced ? "traced " : "") + "case " +
                    std::to_string(c) + " on seed " + std::to_string(seeds[i]),
                out.problems);
    }
    return g;
  };
  std::vector<GridOutcome> untraced;
  /// A per-case quantity summed over a pass, averaged over untraced passes.
  const auto per_grid = [&](auto f) {
    return mean(untraced, [&](const GridOutcome& g) {
      double sum = 0.0;
      for (const CaseOutcome& c : g.cases) sum += f(c);
      return sum;
    });
  };
  const auto sizes = [&] {
    rep.inputs["cases"] = std::to_string(untraced.front().cases.size());
    rep.inputs["workers"] = std::to_string(workers);
    rep.inputs["jobs_per_grid"] =
        num(per_grid([](const CaseOutcome& c) { return c.jobs; }));
    rep.inputs["events_per_grid"] =
        num(per_grid([](const CaseOutcome& c) { return c.events; }));
    rep.inputs["grids"] = std::to_string(untraced.size());
  };

  if (!a.trace) {
    // Each pass measures the host's speed inside its own pool.
    std::vector<TimedOp> ops;
    repeat_for(a.seconds, seeds.size() + 1, [&](std::size_t k) {
      const std::size_t i = k % seeds.size();
      untraced.push_back(grid(i, false, &probe));
      ops.push_back({i, times_of(untraced.back()),
                     slowdown_of(untraced.back().kernel_runs)});
    });
    sizes();
    rep.inputs["input_grids"] = std::to_string(seeds.size());
    add_end_to_end(rep, ops, seeds.size());
    return;
  }

  std::vector<GridOutcome> traced;
  repeat_for(a.seconds, 1, [&](std::size_t k) {
    const std::size_t i = k % seeds.size();
    untraced.push_back(grid(i, false, nullptr));
    traced.push_back(grid(i, true, nullptr));
  });
  sizes();
  rep.inputs["traced_grids"] = std::to_string(traced.size());
  std::vector<std::map<std::string, double>> layer_ops;
  for (const GridOutcome& g : traced) layer_ops.push_back(layer_metrics(g.layers));
  spans = traced.front().layers.tracer;

  const std::size_t cases = untraced.front().cases.size();
  std::map<std::string, double> extra = {
      {"sim.events_per_s",
       per_grid([](const CaseOutcome& c) { return c.events; }) /
           per_grid([](const CaseOutcome& c) { return c.run_cpu_s; })},
      {"workload.gen_s", mean(untraced, [](auto& g) { return times_of(g).setup_s; })},
      {"workload.jobs", per_grid([](const CaseOutcome& c) { return c.jobs; })},
      {"workload.paired_fraction",
       per_grid([](const CaseOutcome& c) { return c.paired_fraction; }) /
           static_cast<double>(cases)},
      // Thread CPU, not wall: pool contention would swamp the difference.
      {"trace.overhead_frac",
       mean(traced, [](auto& g) { return times_of(g).month_cpu_s; }) /
               mean(untraced, [](auto& g) { return times_of(g).month_cpu_s; }) -
           1.0},
      {"failed_frac", rep.failed_frac()},
      // The case-level pool exists only here.
      {"harness.cases", static_cast<double>(cases)},
      {"harness.case_cpu_s", mean(untraced, [](auto& g) { return g.case_cpu_s; })},
      {"harness.cpu_over_wall",
       mean(untraced, [](auto& g) { return g.cpu_s / g.wall_s; })},
      {"harness.longest_case_share", mean(untraced, [](const GridOutcome& g) {
         double longest = 0.0;
         for (const CaseOutcome& c : g.cases) longest = std::max(longest, c.wall_s);
         return longest / g.wall_s;
       })},
  };
  add_layer_metrics(rep, mean_layers(layer_ops), extra);
}

int run(const Args& a) {
  const std::optional<Workload> w = parse_workload(a.workload);
  if (!w) {
    std::cerr << "unknown workload '" << a.workload << "'\n";
    return 2;
  }
  HostSpeedProbe probe;  // forked before any simulator state exists
  Report rep;
  Tracer spans;
  if (*w == Workload::kFigGrid)
    run_grid_workload(a, probe, rep, spans);
  else
    run_month_workload(*w, a, probe, rep, spans);

  if (a.trace) {
    // The aggregated span table of one traced operation.
    std::cout << "spans of one traced " << (*w == Workload::kFigGrid ? "grid" : "month")
              << ":\n";
    spans.write_table(std::cout);
  }

  std::ostringstream info;
  info << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
       << ", \"seconds\": " << num(a.seconds) << ", \"trace\": " << a.trace
       << ", \"machine\": {\"cpus\": " << std::thread::hardware_concurrency()
       << ", \"nproc\": " << available_cpus() << ", \"compiler\": \""
       << PERFBENCH_COMPILER << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
       << "\"}, \"inputs\": {";
  const char* sep = "";
  for (const auto& [k, v] : rep.inputs) {
    info << sep << "\"" << k << "\": " << v;
    sep = ", ";
  }
  info << "}}";
  std::cout << info.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\": " << (rep.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
      << ", \"metrics\": {";
  sep = "";
  for (const auto& [name, value] : rep.metrics) {
    out << sep << "\"" << name << "\": {\"value\": " << num(value.first)
        << ", \"unit\": \"" << value.second << "\"}";
    sep = ", ";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return rep.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: coupled_month --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "coupled_month: " << e.what() << "\n";
    return 1;
  }
}
