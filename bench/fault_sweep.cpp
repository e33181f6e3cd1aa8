// Fault sweep: coscheduling quality under a degraded inter-domain link.
//
// Sweeps the chaos dimensions the resilience layer models:
//   (a) link availability (per-RPC drop probability = 1 - availability)
//       across the HH/HY/YH/YY scheme grid, and
//   (b) injected RPC latency against a fixed protocol deadline.
// For each case we report the paper's sync-overhead metric next to the
// degraded-mode accounting: co-start capability retained, unknown-status
// decisions, unsynchronized starts, and fault-attributable forced releases.
// Every run also passes the post-run invariant checker; any violation fails
// the bench (nonzero exit), making this a chaos regression gate.
#include <chrono>
#include <iostream>
#include <mutex>

#include "common.h"
#include "workload/pairing.h"
#include "workload/synth.h"

using namespace cosched;
using namespace cosched::bench;

namespace {

struct SweepCase {
  std::string label;
  FaultPlan plan;
  SchemeCombo combo = kHH;
};

struct CaseAccum {
  RunningStats sync_minutes;      // mean of both domains' avg sync time
  RunningStats costart_fraction;  // groups co-started / groups total
  RunningStats held_node_hours;   // loss of capability (service units)
  RunningStats unknown_decisions;
  RunningStats unsync_starts;
  RunningStats degraded_releases;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::size_t invariant_violations = 0;
  std::size_t incomplete = 0;
};

struct RunOutcome {
  double sync_minutes = 0.0;
  double costart_fraction = 1.0;
  double held_node_hours = 0.0;
  double unknown_decisions = 0.0;
  double unsync_starts = 0.0;
  double degraded_releases = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::size_t invariant_violations = 0;
  bool completed = false;
};

/// Two coupled 100-node domains (eureka model), ~2 simulated days, 20% of
/// jobs paired — small enough that the full grid runs in seconds at default
/// settings, faulty enough that every chaos dimension gets exercised.
RunOutcome run_one(const SweepCase& c, std::uint64_t seed) {
  SynthParams pa;
  pa.span = static_cast<Duration>(2 * kDay * scale());
  pa.offered_load = 0.7;
  pa.seed = 100 + seed;
  Trace a = generate_trace(eureka_model(), pa);
  pa.seed = 200 + seed;
  Trace b = generate_trace(eureka_model(), pa);
  for (auto& j : b.jobs()) j.id += 1000000;
  pair_by_proportion(a, b, 0.20, 11 + seed);

  auto specs = make_coupled_specs("alpha", 100, "beta", 100, c.combo);
  CoupledSim sim(specs, {a, b});
  FaultPlan plan = c.plan;
  plan.seed = 0x5eedf001ULL + seed;  // chaos varies with the workload seed
  sim.set_fault_plan_all(plan);

  const auto t0 = std::chrono::steady_clock::now();
  const SimResult r = sim.run(120 * kDay);
  const auto t1 = std::chrono::steady_clock::now();

  RunOutcome out;
  out.completed = r.completed;
  out.invariant_violations = r.invariants.violations.size();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.events = sim.engine().executed();
  for (const SystemMetrics& m : r.systems) {
    out.sync_minutes += m.avg_sync_minutes / static_cast<double>(r.systems.size());
    out.held_node_hours += m.held_node_hours;
    out.unknown_decisions += static_cast<double>(m.unknown_status_decisions);
    out.unsync_starts += static_cast<double>(m.unsync_starts);
    out.degraded_releases += static_cast<double>(m.degraded_forced_releases);
  }
  if (r.groups.groups_total > 0)
    out.costart_fraction = static_cast<double>(r.groups.groups_started_together) /
                           static_cast<double>(r.groups.groups_total);
  return out;
}

}  // namespace

int main() {
  print_header("Fault sweep",
               "sync overhead and loss of capability vs link degradation");

  std::vector<SweepCase> cases;
  // (a) Availability grid: drop probability = 1 - availability.
  for (const SchemeCombo& combo : kAllCombos) {
    for (double avail : {1.0, 0.9, 0.5, 0.0}) {
      SweepCase c;
      c.combo = combo;
      c.plan.drop_probability = 1.0 - avail;
      c.label = "avail=" + format_double(avail, 2) + "/" + combo.label;
      cases.push_back(std::move(c));
    }
  }
  // (b) Latency vs a 120 s protocol deadline (HY, the paper's recommended
  // production combo).  60 s fits; 90±60 s straddles; 180 s always times out.
  for (Duration latency : {Duration{60}, Duration{90}, Duration{180}}) {
    SweepCase c;
    c.combo = kHY;
    c.plan.latency_base = latency;
    c.plan.latency_jitter = latency == 90 ? 60 : 0;
    c.plan.rpc_deadline = 120;
    c.label = "latency=" + std::to_string(latency) + "s/deadline=120s/HY";
    cases.push_back(std::move(c));
  }

  const std::size_t n_runs = static_cast<std::size_t>(runs());
  std::vector<std::vector<RunOutcome>> outcomes(
      cases.size(), std::vector<RunOutcome>(n_runs));
  parallel_for(cases.size() * n_runs, [&](std::size_t i) {
    const std::size_t ci = i / n_runs;
    const std::uint64_t seed = i % n_runs;
    outcomes[ci][seed] = run_one(cases[ci], seed);
  });

  // Aggregate in deterministic (case, seed) order.
  std::vector<CaseAccum> accums(cases.size());
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    for (const RunOutcome& o : outcomes[ci]) {
      CaseAccum& acc = accums[ci];
      acc.sync_minutes.add(o.sync_minutes);
      acc.costart_fraction.add(o.costart_fraction);
      acc.held_node_hours.add(o.held_node_hours);
      acc.unknown_decisions.add(o.unknown_decisions);
      acc.unsync_starts.add(o.unsync_starts);
      acc.degraded_releases.add(o.degraded_releases);
      acc.wall_seconds += o.wall_seconds;
      acc.events += o.events;
      acc.invariant_violations += o.invariant_violations;
      if (!o.completed) ++acc.incomplete;
    }
  }

  Table table({"case", "sync (min)", "co-start %", "held (nh)", "unknown",
               "unsync", "deg. releases"});
  BenchJsonFile json("fault_sweep");
  std::size_t total_violations = 0, total_incomplete = 0;
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const CaseAccum& acc = accums[ci];
    table.add_row({cases[ci].label, format_double(acc.sync_minutes.mean()),
                   format_double(100.0 * acc.costart_fraction.mean(), 1),
                   format_double(acc.held_node_hours.mean(), 1),
                   format_double(acc.unknown_decisions.mean(), 1),
                   format_double(acc.unsync_starts.mean(), 1),
                   format_double(acc.degraded_releases.mean(), 1)});
    json.add_case(
        cases[ci].label, acc.wall_seconds, acc.events,
        {{"sync_minutes", acc.sync_minutes.mean(), acc.sync_minutes.stddev()},
         {"costart_fraction", acc.costart_fraction.mean(),
          acc.costart_fraction.stddev()},
         {"held_node_hours", acc.held_node_hours.mean(),
          acc.held_node_hours.stddev()},
         {"unknown_status_decisions", acc.unknown_decisions.mean(),
          acc.unknown_decisions.stddev()},
         {"unsync_starts", acc.unsync_starts.mean(),
          acc.unsync_starts.stddev()},
         {"degraded_forced_releases", acc.degraded_releases.mean(),
          acc.degraded_releases.stddev()}});
    total_violations += acc.invariant_violations;
    total_incomplete += acc.incomplete;
  }

  table.print(std::cout);
  maybe_export_csv("fault_sweep", table);
  json.write();

  std::cout << "\nShape check: sync overhead and co-start capability fall as"
               "\n  availability drops; at avail=0 every pair start is"
               " unsynchronized\n  (pure §IV-C unknown rule) and held time"
               " collapses to ~0.\n";
  if (total_violations > 0 || total_incomplete > 0) {
    std::cerr << "FAULT SWEEP FAILED: " << total_violations
              << " invariant violations, " << total_incomplete
              << " incomplete runs\n";
    return 1;
  }
  std::cout << "Invariant gate: PASS (0 violations, 0 incomplete)\n";
  return 0;
}
