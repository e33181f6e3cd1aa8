#include "common.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "util/csv.h"
#include "util/error.h"
#include "workload/pairing.h"
#include "workload/scaling.h"
#include "workload/synth.h"

namespace cosched::bench {

namespace {

constexpr std::size_t kIntrepidJobs = 9219;  // the paper's month of Intrepid
constexpr double kIntrepidLoad = 0.68;       // "high and stable"
constexpr Duration kSpan = 30 * kDay;
constexpr double kProximityTargetFraction = 0.075;  // paper: 5-10%

Trace make_intrepid(std::uint64_t seed) {
  SynthParams p;
  p.job_count = static_cast<std::size_t>(
      static_cast<double>(kIntrepidJobs) * scale());
  p.span = static_cast<Duration>(static_cast<double>(kSpan) * scale());
  p.offered_load = kIntrepidLoad;
  p.seed = seed;
  return generate_trace(intrepid_model(), p);
}

struct CaseResult {
  CaseMetrics metrics;
  double paired_fraction = 0.0;
};

CaseResult compute_one(const SeriesSpec& spec, std::uint64_t seed) {
  const CoupledWorkload w = spec.by_load
                                ? make_load_workload(spec.x, seed)
                                : make_proportion_workload(spec.x, seed);
  return {run_case(w, spec.combo, spec.enabled, spec.tweak),
          w.paired_fraction};
}

}  // namespace

int positive_int_setting(const char* name, const char* value, int fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  const char* end = value + std::strlen(value);
  int out = 0;
  const auto [stop, ec] = std::from_chars(value, end, out);
  if (ec != std::errc() || stop != end || out <= 0) {
    std::ostringstream msg;
    msg << name << "='" << value << "': expected a whole positive number";
    throw Error(msg.str());
  }
  return out;
}

double positive_real_setting(const char* name, const char* value,
                             double fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  const char* end = value + std::strlen(value);
  double out = 0;
  const auto [stop, ec] = std::from_chars(value, end, out);
  if (ec != std::errc() || stop != end || !std::isfinite(out) || out <= 0) {
    std::ostringstream msg;
    msg << name << "='" << value << "': expected a positive finite number";
    throw Error(msg.str());
  }
  return out;
}

int runs() {
  return positive_int_setting("COSCHED_BENCH_RUNS",
                              std::getenv("COSCHED_BENCH_RUNS"), 3);
}

double scale() {
  return positive_real_setting("COSCHED_BENCH_SCALE",
                               std::getenv("COSCHED_BENCH_SCALE"), 1.0);
}

int hardware_cpus() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int threads() {
  return positive_int_setting("COSCHED_BENCH_THREADS",
                              std::getenv("COSCHED_BENCH_THREADS"),
                              hardware_cpus());
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads()), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Indices go out in order and no worker takes one after a failure, so
  // every index below the lowest failure has run and that failure is the
  // same whatever the thread count or timing.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::size_t err_index = n;
  std::exception_ptr err;
  auto worker = [&] {
    while (!failed.load()) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(err_mu);
        if (i < err_index) {
          err_index = i;
          err = std::current_exception();
        }
        failed.store(true);
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (err) std::rethrow_exception(err);
}

CoupledWorkload make_load_workload(double eureka_load, std::uint64_t seed) {
  CoupledWorkload w;
  w.intrepid = make_intrepid(seed);

  // Eureka trace scaled to the requested offered load, spanning the same
  // window as the Intrepid trace (the paper packs months into one by
  // scaling interarrival times — generate_trace does exactly that).
  SynthParams p;
  p.span = w.intrepid.stats().span > 0 ? w.intrepid.stats().span
                                       : static_cast<Duration>(kSpan * scale());
  p.offered_load = eureka_load;
  p.seed = seed + 0x9e3779b9ULL;
  w.eureka = generate_trace(eureka_model(), p);
  for (auto& j : w.eureka.jobs()) j.id += 10000000;

  pair_by_submit_proximity(w.intrepid, w.eureka, 2 * kMinute);
  w.paired_fraction = thin_pairs(w.intrepid, w.eureka,
                                 kProximityTargetFraction, seed + 17);
  return w;
}

CoupledWorkload make_proportion_workload(double proportion,
                                         std::uint64_t seed) {
  CoupledWorkload w;
  w.intrepid = make_intrepid(seed);

  // §V-E: "a special workload that has the same number of jobs and is within
  // the same time span as the Intrepid trace", Eureka utilization ~0.5.
  // Holding job count, span, AND load fixed pins the mean per-job work, so
  // the runtime scale must be derived rather than taken from the default
  // Eureka model (otherwise the generator stretches the span instead).
  SynthParams p;
  p.job_count = w.intrepid.size();
  p.span = w.intrepid.stats().span;
  p.offered_load = 0.5;
  p.seed = seed + 0x51ed2701ULL;
  SystemModel special = eureka_model();
  {
    double mean_nodes = 0, total_w = 0;
    for (const auto& b : special.sizes) {
      mean_nodes += b.weight * static_cast<double>(b.nodes);
      total_w += b.weight;
    }
    mean_nodes /= total_w;
    const double target_mean_runtime =
        p.offered_load * static_cast<double>(special.capacity) *
        static_cast<double>(p.span) /
        (static_cast<double>(p.job_count) * mean_nodes);
    // Untruncated lognormal mean = exp(mu + sigma^2/2).
    special.runtime_log_mean =
        std::log(target_mean_runtime) -
        special.runtime_log_sigma * special.runtime_log_sigma / 2.0;
  }
  w.eureka = generate_trace(special, p);
  for (auto& j : w.eureka.jobs()) j.id += 10000000;

  const PairingResult r =
      pair_by_proportion(w.intrepid, w.eureka, proportion, seed + 23);
  w.paired_fraction = r.paired_fraction;
  return w;
}

CaseMetrics run_case(const CoupledWorkload& w, SchemeCombo combo,
                     bool enabled, const CoschedConfig& tweak) {
  auto specs = make_coupled_specs("intrepid", 40960, "eureka", 100, combo,
                                  enabled, tweak.hold_release_period);
  for (auto& s : specs) {
    s.policy = "wfp";
    s.cosched.max_hold_fraction = tweak.max_hold_fraction;
    s.cosched.max_yield_before_hold = tweak.max_yield_before_hold;
    s.cosched.yield_priority_boost = tweak.yield_priority_boost;
    s.cosched.yield_retry_period = tweak.yield_retry_period;
  }

  const auto t0 = std::chrono::steady_clock::now();
  CoupledSim sim(specs, {w.intrepid, w.eureka});
  const Time guard = 24 * 30 * kDay;  // two simulated years
  const SimResult r = sim.run(guard);
  const auto t1 = std::chrono::steady_clock::now();
  if (!r.completed)
    throw Error("bench case stalled (possible deadlock): combo=" +
                std::string(combo.label));

  CaseMetrics out;
  out.intrepid = r.systems[0];
  out.eureka = r.systems[1];
  out.groups = r.groups;
  out.completed = r.completed;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.events = sim.engine().executed();
  return out;
}

void Series::add(const CaseMetrics& m, double paired_frac) {
  intrepid_wait.add(m.intrepid.avg_wait_minutes);
  eureka_wait.add(m.eureka.avg_wait_minutes);
  intrepid_slow.add(m.intrepid.avg_slowdown);
  eureka_slow.add(m.eureka.avg_slowdown);
  intrepid_sync.add(m.intrepid.avg_sync_minutes);
  eureka_sync.add(m.eureka.avg_sync_minutes);
  intrepid_loss_nh.add(m.intrepid.held_node_hours);
  eureka_loss_nh.add(m.eureka.held_node_hours);
  intrepid_loss_frac.add(m.intrepid.held_fraction);
  eureka_loss_frac.add(m.eureka.held_fraction);
  paired_fraction.add(paired_frac);
  pairs_total += m.groups.groups_total;
  pairs_synced += m.groups.groups_started_together;
  sim_wall_seconds += m.wall_seconds;
  events += m.events;
}

std::string series_label(const SeriesSpec& s) {
  std::string label = s.by_load ? "load=" + format_double(s.x, 2)
                                : "prop=" + format_percent(s.x, 1);
  label += "/";
  label += s.combo.label;
  if (!s.enabled) label += "/base";
  // Distinguish ablation tweaks from the defaults compactly.
  const CoschedConfig def{};
  if (s.tweak.hold_release_period != def.hold_release_period)
    label += "/rel=" + std::to_string(s.tweak.hold_release_period) + "s";
  if (s.tweak.max_hold_fraction != def.max_hold_fraction)
    label += "/holdfrac=" + format_double(s.tweak.max_hold_fraction, 2);
  if (s.tweak.max_yield_before_hold != def.max_yield_before_hold)
    label += "/maxyield=" + std::to_string(s.tweak.max_yield_before_hold);
  if (s.tweak.yield_priority_boost != def.yield_priority_boost)
    label += "/boost=" + format_double(s.tweak.yield_priority_boost, 2);
  if (s.tweak.yield_retry_period != def.yield_retry_period)
    label += "/retry=" + std::to_string(s.tweak.yield_retry_period) + "s";
  return label;
}

std::vector<Series> run_series(const std::vector<SeriesSpec>& specs) {
  const auto per = static_cast<std::size_t>(runs());
  std::vector<CaseResult> results(specs.size() * per);
  parallel_for(results.size(), [&](std::size_t i) {
    const SeriesSpec& spec = specs[i / per];
    const auto seed = static_cast<std::uint64_t>(1000 * (i % per) + 1);
    try {
      results[i] = compute_one(spec, seed);
    } catch (const Error& e) {
      throw Error(series_label(spec) + " seed " + std::to_string(seed) +
                  ": " + e.what());
    }
  });
  // Adding up after the fan-out, in index order, keeps each series' runs in
  // seed order whatever the thread count.
  std::vector<Series> series(specs.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    series[i / per].add(results[i].metrics, results[i].paired_fraction);
  return series;
}

// -- JSON emission ------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream o;
  o << std::setprecision(12) << v;
  return o.str();
}

}  // namespace

BenchJsonFile::BenchJsonFile(std::string bench_name, int runs_per_case)
    : name_(std::move(bench_name)), runs_(runs_per_case) {}

void BenchJsonFile::add_case(const std::string& case_name, double wall_seconds,
                             std::uint64_t events,
                             std::vector<Metric> metrics) {
  cases_.push_back(Case{case_name, wall_seconds, events, std::move(metrics)});
}

void BenchJsonFile::write() {
  if (written_) return;
  written_ = true;
  const char* dir = std::getenv("COSCHED_BENCH_JSON_DIR");
  const std::string path = std::string(dir && *dir ? dir : ".") + "/BENCH_" +
                           name_ + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return;
  }
  double wall_total = 0;
  for (const Case& c : cases_) wall_total += c.wall_seconds;
  out << "{\n"
      << "  \"bench\": \"" << json_escape(name_) << "\",\n"
      << "  \"runs\": " << runs_ << ",\n"
      << "  \"scale\": " << json_num(scale()) << ",\n"
      << "  \"threads\": " << threads() << ",\n"
      << "  \"machine\": {\"cpus\": " << hardware_cpus()
      << ", \"threads_used\": " << threads() << "},\n"
      << "  \"wall_seconds_total\": " << json_num(wall_total) << ",\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases_.size(); ++i) {
    const Case& c = cases_[i];
    const double rate = c.wall_seconds > 0
                            ? static_cast<double>(c.events) / c.wall_seconds
                            : 0.0;
    out << "    {\"case\": \"" << json_escape(c.name) << "\", "
        << "\"runs\": " << runs_ << ", "
        << "\"wall_seconds\": " << json_num(c.wall_seconds) << ", "
        << "\"events\": " << c.events << ", "
        << "\"events_per_sec\": " << json_num(rate) << ", "
        << "\"metrics\": {";
    for (std::size_t m = 0; m < c.metrics.size(); ++m) {
      const Metric& mt = c.metrics[m];
      out << (m ? ", " : "") << "\"" << json_escape(mt.name)
          << "\": {\"mean\": " << json_num(mt.mean)
          << ", \"stddev\": " << json_num(mt.stddev) << "}";
    }
    out << "}}" << (i + 1 < cases_.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "(machine-readable results: " << path << ")\n";
}

BenchJsonFile::~BenchJsonFile() { write(); }

void write_series_json(const std::string& name,
                       const std::vector<SeriesSpec>& specs,
                       const std::vector<Series>& series) {
  BenchJsonFile json(name);
  const auto metric = [](const char* n, const RunningStats& st) {
    return BenchJsonFile::Metric{n, st.mean(), st.stddev()};
  };
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Series& s = series[i];
    json.add_case(
        series_label(specs[i]), s.sim_wall_seconds, s.events,
        {metric("intrepid_wait_min", s.intrepid_wait),
         metric("eureka_wait_min", s.eureka_wait),
         metric("intrepid_slowdown", s.intrepid_slow),
         metric("eureka_slowdown", s.eureka_slow),
         metric("intrepid_sync_min", s.intrepid_sync),
         metric("eureka_sync_min", s.eureka_sync),
         metric("intrepid_loss_node_hours", s.intrepid_loss_nh),
         metric("eureka_loss_node_hours", s.eureka_loss_nh),
         metric("intrepid_loss_fraction", s.intrepid_loss_frac),
         metric("eureka_loss_fraction", s.eureka_loss_frac),
         metric("paired_fraction", s.paired_fraction)});
  }
  json.write();
}

// -- chaos families -----------------------------------------------------

int ChaosFamily::seeds() const { return std::max(runs(), min_seeds); }

std::vector<std::string> ChaosFamily::count_names() const {
  std::vector<std::string> names = counts;
  names.push_back("invariant_violations");
  names.push_back("incomplete");
  names.insert(names.end(), gate.begin(), gate.end());
  return names;
}

namespace {

std::size_t declared_index(const ChaosFamily& family,
                           const std::vector<std::string>& names,
                           const std::string& name) {
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end())
    throw Error("chaos family " + family.bench + " reports undeclared '" +
                name + "'");
  return static_cast<std::size_t>(it - names.begin());
}

}  // namespace

std::vector<ChaosCase> run_chaos(const ChaosFamily& family) {
  const auto seeds = static_cast<std::size_t>(family.seeds());
  std::vector<ChaosRun> results(family.cases.size() * seeds);
  std::vector<double> wall(results.size());
  parallel_for(results.size(), [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    results[i] = family.run(i / seeds, i % seeds);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - t0;
    wall[i] = took.count();
  });

  const std::vector<std::string> count_names = family.count_names();
  std::vector<ChaosCase> cases(
      family.cases.size(),
      ChaosCase{std::vector<RunningStats>(family.samples.size()),
                std::vector<std::size_t>(count_names.size())});
  for (std::size_t i = 0; i < results.size(); ++i) {
    ChaosCase& c = cases[i / seeds];
    for (const auto& [name, x] : results[i].samples)
      c.samples[declared_index(family, family.samples, name)].add(x);
    for (const auto& [name, n] : results[i].counts)
      c.counts[declared_index(family, count_names, name)] += n;
    c.wall_seconds += wall[i];
    c.events += results[i].events;
  }
  return cases;
}

std::string chaos_gate_failures(const ChaosFamily& family,
                                const std::vector<ChaosCase>& cases) {
  const std::vector<std::string> names = family.count_names();
  std::ostringstream out;
  for (std::size_t c = 0; c < cases.size(); ++c)
    for (std::size_t k = family.counts.size(); k < names.size(); ++k)
      if (cases[c].counts[k] > 0)
        out << family.bench << " case " << family.cases[c] << ": "
            << names[k] << " = " << cases[c].counts[k] << "\n";
  return out.str();
}

bool report_chaos(const ChaosFamily& family,
                  const std::vector<ChaosCase>& cases) {
  const int seeds = family.seeds();
  std::cout << "\n== " << family.bench << ": " << family.title << "\n"
            << family.cases.size() << " cases x " << seeds
            << " seeds, scale=" << scale() << ", threads=" << threads()
            << "\n";

  const std::vector<std::string> names = family.count_names();
  std::vector<std::string> header = {"case"};
  header.insert(header.end(), family.samples.begin(), family.samples.end());
  header.insert(header.end(), family.counts.begin(), family.counts.end());
  Table table(std::move(header));
  BenchJsonFile json(family.bench, seeds);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    std::vector<std::string> row = {family.cases[c]};
    std::vector<BenchJsonFile::Metric> metrics;
    for (std::size_t s = 0; s < family.samples.size(); ++s) {
      const RunningStats& st = cases[c].samples[s];
      row.push_back(format_double(st.mean()));
      metrics.push_back({family.samples[s], st.mean(), st.stddev()});
    }
    for (std::size_t k = 0; k < names.size(); ++k) {
      if (k < family.counts.size())
        row.push_back(std::to_string(cases[c].counts[k]));
      metrics.push_back({names[k], static_cast<double>(cases[c].counts[k]),
                         0.0});
    }
    table.add_row(std::move(row));
    json.add_case(family.cases[c], cases[c].wall_seconds, cases[c].events,
                  std::move(metrics));
  }
  table.print(std::cout);
  maybe_export_csv(family.csv, table);
  json.write();

  const std::string failures = chaos_gate_failures(family, cases);
  std::cout << family.bench << " gate: "
            << (failures.empty() ? "PASS" : "FAILED") << "\n";
  std::cerr << failures;
  return failures.empty();
}

void maybe_export_csv(const std::string& name, const Table& table) {
  const char* dir = std::getenv("COSCHED_BENCH_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  CsvWriter csv(std::string(dir) + "/" + name + ".csv");
  table.write_csv(csv);
  std::cout << "(series exported to $COSCHED_BENCH_CSV_DIR/" << name
            << ".csv)\n";
}

void print_header(const std::string& figure, const std::string& what) {
  const char* const rule =
      "==============================================================\n";
  std::cout << rule
            << figure << " — " << what << "\n"
            << "Tang et al., \"Job Coscheduling on Coupled High-End Computing"
               " Systems\" (ICPP'11)\n"
            << "runs/case=" << runs() << " (paper: 10), scale=" << scale()
            << ", threads=" << threads()
            << ", schedulers: WFP + EASY backfill, hold release = 20 min\n"
            << rule;
}

}  // namespace cosched::bench
