// Figures 3-10 of the paper's evaluation (§V), one row of the table below
// each.  Every figure is a view over one of two case grids, the Eureka load
// grid (Figs. 3-6) or the paired-proportion grid (Figs. 7-10), so the union
// of the series the figures read is run once; then each figure prints its
// Intrepid and Eureka panels, exports them as CSV and writes
// BENCH_fig<n>.json.  A case that stalls is named on stderr, exit status 1.
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "util/error.h"

using namespace cosched;
using namespace cosched::bench;

namespace {

/// How a figure reads its grid.
enum class View {
  kVsBase,       ///< value, base and difference per combo (Figs. 3, 4, 7, 8)
  kHoldVsYield,  ///< local hold vs local yield by remote scheme (Figs. 5, 9)
  kHoldLoss,     ///< the hold side's loss by remote scheme (Figs. 6, 10)
};

/// A metric as the two panels read it: (a) Intrepid's member, (b) Eureka's.
struct Metric {
  RunningStats Series::*intrepid;
  RunningStats Series::*eureka;
};

constexpr Metric kWait{&Series::intrepid_wait, &Series::eureka_wait};
constexpr Metric kSlowdown{&Series::intrepid_slow, &Series::eureka_slow};
constexpr Metric kSync{&Series::intrepid_sync, &Series::eureka_sync};
constexpr Metric kLossNodeHours{&Series::intrepid_loss_nh,
                                &Series::eureka_loss_nh};
constexpr Metric kLossFraction{&Series::intrepid_loss_frac,
                               &Series::eureka_loss_frac};

struct Figure {
  int number;  ///< "Figure <n>", BENCH_fig<n>.json, fig<n>_*.csv
  const char* title;
  bool by_load;  ///< the load grid, else the proportion grid
  View view;
  Metric metric;  ///< the plotted value; kHoldLoss: node-hours lost
  Metric share;   ///< kHoldLoss only: the lost share of the machine
  std::vector<std::string> columns;
  const char* panel;  ///< "(a) Intrepid <panel>" and "(b) Eureka <panel>"
  const char* csv;    ///< fig<n>_intrepid_<csv> and fig<n>_eureka_<csv>
  const char* shape;  ///< the paper's shape claims, printed last
};

const std::vector<Figure> kFigures = {
    {3, "scheduling performance (avg. wait) by Eureka load", true,
     View::kVsBase, kWait, {},
     {"eureka load", "scheme", "avg wait (min)", "base (min)", "difference"},
     "avg. wait", "wait",
     "differences grow with Eureka load;"
     "\n  hold-based combos cost more than yield-based at high load;"
     "\n  Eureka differences stay small (single-digit minutes)."},
    {4, "scheduling performance (avg. slowdown) by Eureka load", true,
     View::kVsBase, kSlowdown, {},
     {"eureka load", "scheme", "avg slowdown", "base", "difference"},
     "avg. slowdown", "slowdown",
     "slowdown trend mirrors waiting time;"
     "\n  only the high Eureka load shows a notable Intrepid increase; Eureka"
     " base slowdown itself grows with load."},
    {5, "average paired-job synchronization time by load", true,
     View::kHoldVsYield, kSync, {},
     {"eureka load / remote scheme", "local=hold (min)", "local=yield (min)"},
     "avg. job synchronization time", "sync",
     "sync time grows with Eureka load;"
     "\n  hold as the local scheme costs less sync time than yield under the"
     " same remote scheme and load."},
    {6, "service-unit loss by Eureka load (hold side)", true, View::kHoldLoss,
     kLossNodeHours, kLossFraction,
     {"eureka load / remote scheme", "node-hours lost", "lost sys. util."},
     "loss of service unit", "loss",
     "Intrepid losses grow with Eureka load (135K -> 1.2M node-hours,"
     " 0.46% -> 4.6% in the paper);"
     "\n  Eureka losses are a few percent of its month and less"
     " load-correlated."},
    {7, "average waiting times by paired-job proportion", false,
     View::kVsBase, kWait, {},
     {"proportion", "scheme", "avg wait (min)", "base (min)", "difference"},
     "avg. wait (minutes)", "wait",
     "extra wait grows with the paired proportion; modest up to 20%; at 33%"
     " the hold-based combos degrade markedly while yield-based stay near"
     " the 20% level."},
    {8, "average slowdowns by paired-job proportion", false, View::kVsBase,
     kSlowdown, {},
     {"proportion", "scheme", "avg slowdown", "base", "difference"},
     "avg. slowdown", "slowdown",
     "single-digit differences for the first three proportions; double-digit"
     " growth at 20-33% with hold-hold the worst case."},
    {9, "paired-job average synchronization time by proportion", false,
     View::kHoldVsYield, kSync, {},
     {"proportion / remote scheme", "local=hold (min)", "local=yield (min)"},
     "avg. job synchronization time", "sync",
     "sync time is less sensitive to the proportion than to the load (narrow"
     " range across proportions); local hold costs less sync time than"
     " local yield."},
    {10, "service-unit loss by paired-job proportion", false, View::kHoldLoss,
     kLossNodeHours, kLossFraction,
     {"proportion / remote scheme", "node-hours lost", "lost sys. util."},
     "loss of service unit", "loss",
     "loss increases with the paired proportion on both machines (0.7% ->"
     " 9.3% on Intrepid, 1% -> 21% on Eureka in the paper); acceptable below"
     " ~10-20% pairing, problematic at 33%."},
};

std::span<const double> grid(const Figure& f) {
  if (f.by_load) return kEurekaLoads;
  return kPairedProportions;
}

std::string x_label(const Figure& f, double x) {
  return f.by_load ? format_double(x, 2) : format_percent(x, 1);
}

/// The combo in which one machine uses `local` and its mate `remote`.
SchemeCombo combo_for(bool intrepid_side, Scheme local, Scheme remote) {
  for (const SchemeCombo& c : kAllCombos) {
    const Scheme c_local = intrepid_side ? c.first : c.second;
    const Scheme c_remote = intrepid_side ? c.second : c.first;
    if (c_local == local && c_remote == remote) return c;
  }
  return kHH;
}

/// The series a figure reads, in the order its BENCH file lists them.
std::vector<SeriesSpec> specs_of(const Figure& f) {
  std::vector<SeriesSpec> out;
  for (double x : grid(f)) {
    if (f.view == View::kVsBase) out.push_back({f.by_load, x, kHH, false});
    for (const SchemeCombo& c : kAllCombos) {
      // Only a machine that holds loses service units.
      const bool holds = c.first == Scheme::kHold || c.second == Scheme::kHold;
      if (f.view != View::kHoldLoss || holds)
        out.push_back({f.by_load, x, c, true});
    }
  }
  return out;
}

/// Series keyed by their labels, which name the figures' specs uniquely.
using Results = std::map<std::string, Series>;

/// One panel of a figure: Intrepid's when `intrepid`, else Eureka's.
Table panel(const Figure& f, bool intrepid, const Results& results) {
  const auto value = intrepid ? f.metric.intrepid : f.metric.eureka;
  const auto share = intrepid ? f.share.intrepid : f.share.eureka;
  Table t(f.columns);
  for (double x : grid(f)) {
    const std::string xl = x_label(f, x);
    const auto series = [&](SchemeCombo c, bool enabled = true)
        -> const Series& {
      return results.at(series_label({f.by_load, x, c, enabled}));
    };
    if (f.view == View::kVsBase) {
      // One base per point (coscheduling off), as in the paper's per-group
      // baselines.
      const double base = (series(kHH, false).*value).mean();
      for (const SchemeCombo& c : kAllCombos) {
        const double v = (series(c).*value).mean();
        t.add_row({xl, c.label, format_double(v), format_double(base),
                   format_double(v - base)});
      }
      t.add_separator();
      continue;
    }
    for (Scheme remote : {Scheme::kHold, Scheme::kYield}) {
      const std::string row = xl + "/" + (remote == Scheme::kHold ? 'H' : 'Y');
      const Series& hold =
          series(combo_for(intrepid, Scheme::kHold, remote));
      if (f.view == View::kHoldLoss) {
        t.add_row({row,
                   format_count(static_cast<long long>((hold.*value).mean())),
                   format_percent((hold.*share).mean())});
      } else {
        const Series& yield =
            series(combo_for(intrepid, Scheme::kYield, remote));
        t.add_row({row, format_double((hold.*value).mean()),
                   format_double((yield.*value).mean())});
      }
    }
  }
  return t;
}

void run() {
  // Every series some figure reads, run once.
  Results results;
  std::vector<SeriesSpec> all;
  for (const Figure& f : kFigures)
    for (const SeriesSpec& s : specs_of(f))
      if (results.emplace(series_label(s), Series{}).second) all.push_back(s);
  const std::vector<Series> series = run_series(all);
  for (std::size_t i = 0; i < all.size(); ++i)
    results[series_label(all[i])] = series[i];

  for (const Figure& f : kFigures) {
    const std::string bench = "fig" + std::to_string(f.number);
    print_header("Figure " + std::to_string(f.number), f.title);
    for (bool intrepid : {true, false}) {
      const Table t = panel(f, intrepid, results);
      std::cout << (intrepid ? "\n(a) Intrepid " : "\n(b) Eureka ") << f.panel
                << "\n";
      t.print(std::cout);
      maybe_export_csv(bench + (intrepid ? "_intrepid_" : "_eureka_") + f.csv,
                       t);
    }
    const std::vector<SeriesSpec> specs = specs_of(f);
    std::vector<Series> read;
    for (const SeriesSpec& s : specs)
      read.push_back(results.at(series_label(s)));
    write_series_json(bench, specs, read);
    std::cout << "\nShape check (paper): " << f.shape << "\n";
  }
}

}  // namespace

int main() {
  try {
    run();
  } catch (const Error& e) {
    std::cerr << "figures: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
