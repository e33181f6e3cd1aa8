// Shared machinery for the figure-reproduction benches.
//
// Experiment design follows the paper's §V-A/§V-D/§V-E:
//  * Intrepid: 40,960 nodes, one month, 9,219 jobs, WFP + backfilling.
//  * Eureka: 100 nodes, WFP + backfilling.
//  * Load experiments (Figs. 3-6): Intrepid trace fixed, Eureka offered load
//    in {0.25, 0.50, 0.75}; jobs paired by 2-minute submit proximity, then
//    thinned to the paper's 5-10% paired share (we target 7.5%).
//  * Proportion experiments (Figs. 7-10): Eureka trace with the same job
//    count and span as Intrepid, offered load 0.5; paired proportion in
//    {2.5, 5, 10, 20, 33}%.
//  * Hold-release period 20 minutes; each case averaged over
//    COSCHED_BENCH_RUNS seeds (default 3; the paper used 10).
//
// Execution model: a bench declares every series it needs in one list, and
// run_series fans the (series x seed) cases out over COSCHED_BENCH_THREADS
// workers and adds the runs up afterwards in seed order — results are
// identical to a serial run.  The figure runner also emits a machine-readable
// BENCH_<name>.json per figure (per-case mean/stddev, wall seconds, simulated
// events/sec) for CI and regression tracking.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/coupled_sim.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/trace.h"

namespace cosched::bench {

inline constexpr double kEurekaLoads[] = {0.25, 0.50, 0.75};
inline constexpr double kPairedProportions[] = {0.025, 0.05, 0.10, 0.20,
                                                0.33};

/// A COSCHED_BENCH_* setting: `fallback` when `value` is null or empty,
/// otherwise `value` must be a whole positive number with nothing around
/// it.  Anything else throws Error naming the variable and the value, so a
/// typo fails the bench instead of running it with the default.
int positive_int_setting(const char* name, const char* value, int fallback);

/// As positive_int_setting, for a positive finite real number.
double positive_real_setting(const char* name, const char* value,
                             double fallback);

/// Number of repetitions per case: COSCHED_BENCH_RUNS (default 3).
int runs();

/// Workload size multiplier: COSCHED_BENCH_SCALE scales the job counts /
/// span down for quick smoke runs (default 1.0 = paper scale).
double scale();

/// Host CPUs (hardware concurrency, at least 1) — recorded in bench JSON so
/// speedup numbers can be judged against the machine they ran on.
int hardware_cpus();

/// Worker threads for batched case execution: COSCHED_BENCH_THREADS
/// (default: hardware concurrency, at least 1).
int threads();

/// Runs fn(i) for i in [0, n) on up to threads() workers (serially when
/// threads() == 1), handing the indices out in order.  After a task throws
/// no worker takes another index; once the running tasks finish, the
/// exception of the lowest failed index is rethrown, so every index below
/// it has run and the same failure is reported whatever the timing.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

struct CoupledWorkload {
  Trace intrepid;
  Trace eureka;
  double paired_fraction = 0.0;
};

/// Figs. 3-6 workload (Eureka load on the x-axis).
CoupledWorkload make_load_workload(double eureka_load, std::uint64_t seed);

/// Figs. 7-10 workload (paired proportion on the x-axis).
CoupledWorkload make_proportion_workload(double proportion,
                                         std::uint64_t seed);

struct CaseMetrics {
  SystemMetrics intrepid;
  SystemMetrics eureka;
  GroupStartStats groups;
  bool completed = false;
  /// Host wall time of the simulation (excludes workload generation).
  double wall_seconds = 0.0;
  /// Engine events executed by the simulation.
  std::uint64_t events = 0;
};

/// Runs one coupled simulation.  `enabled` false gives the paper's "base"
/// series.  Throws if the simulation stalls past its guard time.
CaseMetrics run_case(const CoupledWorkload& w, SchemeCombo combo,
                     bool enabled, const CoschedConfig& tweak = {});

/// Mean of a metric over `runs()` seeds of the same case.
struct Series {
  RunningStats intrepid_wait, eureka_wait;
  RunningStats intrepid_slow, eureka_slow;
  RunningStats intrepid_sync, eureka_sync;
  RunningStats intrepid_loss_nh, eureka_loss_nh;
  RunningStats intrepid_loss_frac, eureka_loss_frac;
  RunningStats paired_fraction;
  std::size_t pairs_total = 0;
  std::size_t pairs_synced = 0;
  /// Summed simulation wall time / engine events across the seeds.
  double sim_wall_seconds = 0.0;
  std::uint64_t events = 0;

  void add(const CaseMetrics& m, double paired_frac);
};

/// One declared series: a (workload family, x value, scheme combo, enabled,
/// tweak) case to be averaged over runs() seeds.
struct SeriesSpec {
  bool by_load = true;
  double x = 0.0;
  SchemeCombo combo = kHH;
  bool enabled = true;
  CoschedConfig tweak = {};
};

/// Canonical case label, e.g. "load=0.50/HY" or "prop=5.0%/HH/base".
std::string series_label(const SeriesSpec& spec);

/// Runs every (series, seed) case of `specs` on threads() workers and adds
/// each series' runs up in seed order: one Series per spec, in input order.
/// A case that throws Error (a stall, say) is rethrown as Error naming the
/// series label and the seed.
std::vector<Series> run_series(const std::vector<SeriesSpec>& specs);

/// Machine-readable per-bench output: BENCH_<name>.json written into
/// COSCHED_BENCH_JSON_DIR (default: current directory).  Schema:
///   { "bench": ..., "runs": N, "scale": S, "threads": T,
///     "machine": { "cpus": hardware concurrency, "threads_used": T },
///     "cases": [ { "case": label, "runs": N, "wall_seconds": W,
///                  "events": E, "events_per_sec": R,
///                  "metrics": { name: {"mean": M, "stddev": D}, ... } } ] }
/// N is the number of seeds each case ran.
class BenchJsonFile {
 public:
  struct Metric {
    std::string name;
    double mean = 0.0;
    double stddev = 0.0;
  };

  explicit BenchJsonFile(std::string bench_name,
                         int runs_per_case = bench::runs());

  void add_case(const std::string& case_name, double wall_seconds,
                std::uint64_t events, std::vector<Metric> metrics);

  /// Writes the file (idempotent; also invoked by the destructor).
  void write();
  ~BenchJsonFile();

 private:
  struct Case {
    std::string name;
    double wall_seconds;
    std::uint64_t events;
    std::vector<Metric> metrics;
  };
  std::string name_;
  int runs_;
  std::vector<Case> cases_;
  bool written_ = false;
};

/// Writes BENCH_<name>.json with one case per series, series[i] being the
/// result for specs[i].
void write_series_json(const std::string& name,
                       const std::vector<SeriesSpec>& specs,
                       const std::vector<Series>& series);

// -- chaos families -------------------------------------------------------
//
// A chaos family sweeps one kind of fault over cases x seeds.  Each
// (case, seed) run reports named samples and named counts; run_chaos adds
// the runs up per case in seed order, so results do not depend on
// threads().  Every count named in the family's gate must total zero in
// every case.

/// What one (case, seed) run of a chaos family reports.
struct ChaosRun {
  /// Adds one observation to `name`'s per-case mean and stddev.
  void sample(std::string name, double x) {
    samples.emplace_back(std::move(name), x);
  }
  /// Adds `n` to `name`'s per-case total.
  void count(std::string name, std::size_t n = 1) {
    counts.emplace_back(std::move(name), n);
  }

  std::vector<std::pair<std::string, double>> samples;
  std::vector<std::pair<std::string, std::size_t>> counts;
  /// Engine events executed by the run's simulations.
  std::uint64_t events = 0;
};

/// One row of the chaos runner's table.
struct ChaosFamily {
  std::string bench;  ///< writes BENCH_<bench>.json
  std::string csv;    ///< exports its table as <csv>.csv
  std::string title;
  std::vector<std::string> cases;  ///< case labels, in report order
  /// Seeds per case: max(runs(), min_seeds), numbered from 0.
  int min_seeds = 1;
  std::vector<std::string> samples;  ///< reported as mean and stddev
  std::vector<std::string> counts;   ///< reported as totals
  /// Gated counts beyond invariant_violations and incomplete, which every
  /// family reports and gates.
  std::vector<std::string> gate;
  std::function<ChaosRun(std::size_t case_index, std::uint64_t seed)> run;

  int seeds() const;
  /// counts, invariant_violations, incomplete, then gate: the order of
  /// ChaosCase::counts.
  std::vector<std::string> count_names() const;
};

/// One case of a family, added up over its seeds.
struct ChaosCase {
  std::vector<RunningStats> samples;  ///< parallel to ChaosFamily::samples
  std::vector<std::size_t> counts;    ///< parallel to count_names()
  /// Summed host wall time of the case's runs, workload generation included.
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
};

/// Runs every (case, seed) of `family` on threads() workers and adds the
/// runs up per case in seed order.  Throws Error on a sample or count the
/// family does not declare.
std::vector<ChaosCase> run_chaos(const ChaosFamily& family);

/// "" when every gate count of every case is zero; otherwise one line per
/// nonzero count, naming the case and the counter.
std::string chaos_gate_failures(const ChaosFamily& family,
                                const std::vector<ChaosCase>& cases);

/// Prints the family's table and gate, writes BENCH_<bench>.json and the
/// CSV, and returns whether the gate passed.
bool report_chaos(const ChaosFamily& family,
                  const std::vector<ChaosCase>& cases);

/// Standard preamble: experiment title + configuration echo.
void print_header(const std::string& figure, const std::string& what);

/// Writes the table as <name>.csv if COSCHED_BENCH_CSV_DIR is set.
void maybe_export_csv(const std::string& name, const Table& table);

}  // namespace cosched::bench
