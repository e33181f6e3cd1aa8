// Workloads of the coupled-month benchmark and the per-layer ledger.
//
// A month workload is one coupled Intrepid (40,960 nodes) + Eureka (100
// nodes) month; one month is one operation.  fig_grid is the fig3 + fig7
// series grid (32 cases) run through the figure harness's
// make_*_workload + run_case path on a pool of workers.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "host_speed.h"
#include "traced_wiring.h"

namespace perfbench {

enum class Workload { kBaseMonth, kYyMonth, kDurableMonth, kFigGrid };

std::optional<Workload> parse_workload(const std::string& name);

/// Traces of one month: Intrepid and Eureka, paired.
struct MonthInputs {
  std::vector<cosched::Trace> traces;
  double paired_fraction = 0.0;
  std::size_t jobs = 0;
};

MonthInputs make_month_inputs(Workload w, std::uint64_t seed);
MonthConfig month_config(Workload w);

/// Simulated-time guard; a month that runs past it counts as stalled.
inline constexpr cosched::Time kGuard = 24 * 30 * cosched::kDay;

/// Timings and output checks of one untraced month (through CoupledSim).
struct MonthOutcome {
  double gen_s = 0.0;       ///< trace generation and pairing
  double setup_s = 0.0;     ///< gen_s + CoupledSim construction, load_trace
  double month_s = 0.0;     ///< CoupledSim::run, wall
  double month_cpu_s = 0.0; ///< CoupledSim::run, thread CPU
  double recovery_s = 0.0;  ///< journal recovery of every domain, wall
  double grid_s = 0.0;      ///< setup + month + recovery, wall
  double grid_cpu_s = 0.0;  ///< the same, process CPU
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  std::size_t jobs = 0;
  double paired_fraction = 0.0;
  std::size_t records_replayed = 0;
  std::size_t bytes_scanned = 0;
  /// Failed output checks (empty = correct).
  std::vector<std::string> problems;
};

MonthOutcome run_month(Workload w, std::uint64_t seed);

/// Raw per-layer counters of traced months; summable across months.
struct LayerRaw {
  Tracer tracer;
  std::uint64_t events = 0, scheduled = 0, cancelled = 0, tombstones = 0;
  std::uint64_t peak_pending = 0;  ///< max, not sum
  std::uint64_t iterations = 0;
  PeerCallCounts calls;
  cosched::FaultStats faults;
  cosched::CoupledSim::ProtocolStats proto;
  std::uint64_t heartbeats_sent = 0, heartbeats_acked = 0, lease_grants = 0,
                lease_renewals = 0, lease_expiries = 0;
  std::uint64_t journal_append_bytes = 0, journal_contents_bytes = 0;
  std::uint64_t groups_total = 0, groups_together = 0;

  void add(const LayerRaw& o);
};

/// One traced month through TracedCoupled.
struct TracedOutcome {
  double month_s = 0.0;
  std::uint64_t fingerprint = 0;
  LayerRaw layers;
  std::vector<std::string> problems;
};

TracedOutcome run_traced_month(Workload w, std::uint64_t seed);

/// Per-layer metrics derivable from raw counters alone (names as in
/// BENCHMARK.json).
std::map<std::string, double> layer_metrics(const LayerRaw& raw);

// -- fig_grid ------------------------------------------------------------------

struct GridCase {
  bool by_load = true;
  double x = 0.0;
  cosched::SchemeCombo combo = cosched::kHH;
  bool enabled = true;
};

/// fig3 (3 loads) and fig7 (5 proportions), each with HY/YH/YY + base.
/// The hold-hold series is left out: on about one seed in fifteen an HH
/// case at load 0.75 or proportion 0.33 never drains (it runs into the
/// two-year guard despite the 20-minute hold release), and a benchmark
/// input must not fail.  One hold side per pair cannot deadlock.
std::vector<GridCase> grid_cases();

struct CaseOutcome {
  double gen_s = 0.0;  ///< workload generation, wall
  double wall_s = 0.0; ///< generation + run_case, wall
  double cpu_s = 0.0;  ///< generation + run_case, thread CPU
  double run_cpu_s = 0.0;  ///< run_case alone, thread CPU
  std::uint64_t digest = 0;  ///< events, group starts and waits
  std::uint64_t events = 0;
  std::size_t jobs = 0;
  double paired_fraction = 0.0;
  std::vector<std::string> problems;
};

struct GridOutcome {
  double wall_s = 0.0;
  double cpu_s = 0.0;       ///< process CPU
  double case_cpu_s = 0.0;  ///< thread CPU of every case, summed
  std::vector<CaseOutcome> cases;
  std::vector<KernelTimes> kernel_runs;  ///< the probe's, inside the pool
  LayerRaw layers;     ///< summed over cases (traced grids only)
};

/// Runs every grid case once on `workers` threads.  `traced` routes each
/// case through TracedCoupled instead of run_case.  A non-null `probe` also
/// gets one reference-kernel task after every two cases.
GridOutcome run_grid(std::uint64_t seed, unsigned workers, bool traced,
                     HostSpeedProbe* probe = nullptr);

/// CPUs this process may run on.
unsigned available_cpus();

}  // namespace perfbench
