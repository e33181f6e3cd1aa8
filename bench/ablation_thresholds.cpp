// Ablation: the §IV-E2 enhancements — maximum hold-node fraction,
// maximum-yield-before-hold, and per-yield priority boost.  The paper found
// these optional for correctness; this table quantifies their effect on the
// cost metrics.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

using namespace cosched;
using namespace cosched::bench;

int main() {
  print_header("Ablation", "enhancement thresholds (load 0.50, ~7.5% paired)");

  std::vector<std::string> labels;
  std::vector<SeriesSpec> specs;
  const auto add = [&](std::string label, SchemeCombo combo,
                       CoschedConfig tweak) {
    labels.push_back(std::move(label));
    specs.push_back({/*by_load=*/true, 0.50, combo, true, tweak});
  };
  add("HH, no caps", kHH, {});
  for (double cap : {0.5, 0.2, 0.05}) {
    CoschedConfig tweak;
    tweak.max_hold_fraction = cap;
    add("HH, hold cap " + format_percent(cap, 0), kHH, tweak);
  }
  add("YY, no escalation", kYY, {});
  for (int max_yield : {5, 20}) {
    CoschedConfig tweak;
    tweak.max_yield_before_hold = max_yield;
    add("YY, hold after " + std::to_string(max_yield) + " yields", kYY, tweak);
  }
  {
    CoschedConfig tweak;
    tweak.yield_priority_boost = 1e6;  // strong boost per yield
    add("YY, priority boost", kYY, tweak);
  }

  Table t({"configuration", "intrepid wait (min)", "intrepid sync (min)",
           "eureka sync (min)", "intrepid loss (node-h)",
           "eureka loss (node-h)", "pairs synced"});
  const std::vector<Series> series = run_series(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Series& s = series[i];
    t.add_row({labels[i], format_double(s.intrepid_wait.mean()),
               format_double(s.intrepid_sync.mean()),
               format_double(s.eureka_sync.mean()),
               format_count(static_cast<long long>(s.intrepid_loss_nh.mean())),
               format_count(static_cast<long long>(s.eureka_loss_nh.mean())),
               format_count(static_cast<long long>(s.pairs_synced))});
  }
  t.print(std::cout);
  std::cout << "\nExpectation: hold caps trade sync time for less node-hour"
               " loss; yield escalation/boost trades loss for sync time."
               "\nSynchronization stays perfect in every configuration.\n";
  return 0;
}
