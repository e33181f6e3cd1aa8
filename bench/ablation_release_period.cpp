// Ablation: sensitivity to the hold-release period (the paper fixes it at
// 20 minutes and notes it "can be tuned freely by system owners").
// Shorter periods bound the deadlock-wait but churn holders; longer periods
// waste more node-hours per hold episode.
#include <iostream>
#include <vector>

#include "common.h"
#include "workload/pairing.h"

using namespace cosched;
using namespace cosched::bench;

int main() {
  print_header("Ablation", "hold-release period sweep (hold-hold, load 0.50)");

  Table t({"release period", "intrepid wait (min)", "eureka wait (min)",
           "intrepid sync (min)", "intrepid loss (node-h)", "pairs synced"});

  std::vector<SeriesSpec> specs;
  for (Duration period : {5 * kMinute, 10 * kMinute, 20 * kMinute,
                          40 * kMinute, 80 * kMinute}) {
    CoschedConfig tweak;
    tweak.hold_release_period = period;
    specs.push_back({/*by_load=*/true, 0.50, kHH, true, tweak});
  }
  const std::vector<Series> series = run_series(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Duration period = specs[i].tweak.hold_release_period;
    const Series& s = series[i];
    t.add_row({format_double(static_cast<double>(period) / kMinute, 0) + " min",
               format_double(s.intrepid_wait.mean()),
               format_double(s.eureka_wait.mean()),
               format_double(s.intrepid_sync.mean()),
               format_count(static_cast<long long>(s.intrepid_loss_nh.mean())),
               format_count(static_cast<long long>(s.pairs_synced))});
  }
  t.print(std::cout);
  std::cout << "\nExpectation: synchronization still perfect at every period;"
               "\n  node-hour loss and waits shift moderately with the "
               "period.\n";
  return 0;
}
