// §V-B capability validation: a grid of simulation cases over scheme
// combinations x Eureka loads x paired proportions.  For every case, all
// paired jobs must start at the same time as their mates.  Additionally,
// hold-hold *without* the release enhancement must deadlock on spans over
// ~10 days, and never with it.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "core/deadlock.h"
#include "util/error.h"
#include "workload/pairing.h"

using namespace cosched;
using namespace cosched::bench;

namespace {

struct GridCase {
  SchemeCombo combo;
  double load;
  double prop;
  CaseMetrics metrics;
  bool stalled = false;
  std::string label() const {
    return std::string(combo.label) + " load=" + format_double(load, 2) +
           " prop=" + format_percent(prop, 0);
  }
};

}  // namespace

int main() {
  print_header("Validation (§V-B)", "coscheduling capability grid");

  // Part 1: the full capability grid, executed case-parallel.
  std::vector<GridCase> cases;
  for (const SchemeCombo& combo : kAllCombos)
    for (double load : kEurekaLoads)
      for (double prop : {0.05, 0.20})
        cases.push_back(GridCase{combo, load, prop, {}, false});

  parallel_for(cases.size(), [&](std::size_t i) {
    GridCase& c = cases[i];
    CoupledWorkload w = make_load_workload(c.load, 7);
    // Re-pair at the requested proportion for the grid.
    pair_by_proportion(w.intrepid, w.eureka, c.prop, 13);
    try {
      c.metrics = run_case(w, c.combo, true);
    } catch (const Error&) {
      c.stalled = true;
    }
  });

  Table grid({"case", "pairs", "started together", "max skew (s)",
              "deadlock", "result"});
  BenchJsonFile json("validation_capability");
  int failures = 0;
  for (const GridCase& c : cases) {
    const bool ok = !c.stalled &&
                    c.metrics.groups.groups_started_together ==
                        c.metrics.groups.groups_total &&
                    c.metrics.groups.max_start_skew == 0;
    if (!ok) ++failures;
    grid.add_row({c.label(),
                  format_count(static_cast<long long>(
                      c.metrics.groups.groups_total)),
                  format_count(static_cast<long long>(
                      c.metrics.groups.groups_started_together)),
                  std::to_string(c.metrics.groups.max_start_skew),
                  c.stalled ? "YES" : "no", ok ? "PASS" : "FAIL"});
    json.add_case(
        c.label(), c.metrics.wall_seconds, c.metrics.events,
        {{"pairs_total",
          static_cast<double>(c.metrics.groups.groups_total), 0.0},
         {"pairs_started_together",
          static_cast<double>(c.metrics.groups.groups_started_together), 0.0},
         {"max_start_skew_s",
          static_cast<double>(c.metrics.groups.max_start_skew), 0.0},
         {"stalled", c.stalled ? 1.0 : 0.0, 0.0},
         {"pass", ok ? 1.0 : 0.0, 0.0}});
  }
  grid.print(std::cout);

  // Part 2: deadlock with/without the release enhancement (hold-hold).
  std::cout << "\nDeadlock study (hold-hold, paired proportion 20%, "
               "Eureka load 0.75):\n";
  Table dl({"release enhancement", "completed", "hold-wait cycle observed"});
  for (bool with_release : {false, true}) {
    CoupledWorkload w = make_load_workload(0.75, 3);
    pair_by_proportion(w.intrepid, w.eureka, 0.20, 5);
    auto specs = make_coupled_specs(
        "intrepid", 40960, "eureka", 100, kHH, true,
        with_release ? 20 * kMinute : Duration{0});
    for (auto& s : specs) s.policy = "wfp";
    CoupledSim sim(specs, {w.intrepid, w.eureka});
    const auto t0 = std::chrono::steady_clock::now();
    const SimResult r = sim.run(24 * 30 * kDay);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;
    const bool cycle =
        has_hold_wait_cycle({&sim.cluster(0), &sim.cluster(1)});
    dl.add_row({with_release ? "20 min" : "disabled",
                r.completed ? "yes" : "NO (stalled)",
                cycle ? "YES" : "no"});
    json.add_case(std::string("deadlock_study/release=") +
                      (with_release ? "20min" : "off"),
                  wall.count(), sim.engine().executed(),
                  {{"completed", r.completed ? 1.0 : 0.0, 0.0},
                   {"hold_wait_cycle", cycle ? 1.0 : 0.0, 0.0}});
    if (with_release && !r.completed) ++failures;
    if (!with_release && r.completed)
      std::cout << "  note: this seed completed without the enhancement; "
                   "the paper observed deadlocks as *highly likely*, not "
                   "certain.\n";
  }
  dl.print(std::cout);
  json.write();

  std::cout << (failures == 0 ? "\nVALIDATION PASSED" : "\nVALIDATION FAILED")
            << " (" << failures << " failing cases)\n";
  return failures == 0 ? 0 : 1;
}
