// Mesh-partition chaos sweep: the k-of-N gang costart under partial
// connectivity.
//
// Two sweeps share the zero-violation gate:
//
//  * Mesh chaos — k in {3,4,5} coupled domains running a grouped synthetic
//    workload with the two-phase gang costart and the liveness layer on,
//    against the HH/HY/YH/YY scheme grid.  Each seeded run cuts a random
//    subset of directed mesh links (symmetric, one-way, or reply-loss
//    shapes, all healing), so gang rounds abort mid-prepare, leases expire,
//    and coordinators re-prepare across the healed mesh.
//  * Gang-deadlock cycles — a ring of k two-domain gangs each holding a
//    full machine while waiting on the next domain: a length-k circular
//    wait no pairwise breaker sees.  With cycle resolution armed, the
//    deterministic victim order must break every ring.
//
// Gate (nonzero exit on failure): every run completes — no gang waits
// forever — with zero invariant violations; in particular
// gang_atomicity_violations == 0 (a committed gang may never strand a
// member) and no start executes under a stale fencing token.
#include <algorithm>
#include <chrono>
#include <iostream>

#include "common.h"
#include "util/rng.h"
#include "workload/pairing.h"
#include "workload/synth.h"

using namespace cosched;
using namespace cosched::bench;

namespace {

struct RunOutcome {
  double gangs_prepared = 0.0;
  double gangs_committed = 0.0;
  double gangs_aborted = 0.0;
  double gangs_victimized = 0.0;
  double unsync_starts = 0.0;
  double costart_fraction = 1.0;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::size_t atomicity_violations = 0;
  std::size_t invariant_violations = 0;
  bool completed = false;
};

std::vector<DomainSpec> mesh_domains(std::size_t k, SchemeCombo combo) {
  // Map the pairwise scheme grid onto k domains: the combo's first scheme
  // drives domain 0, its second every other domain (HY = one holder among
  // yielders, YH = one yielder among holders, ...).
  std::vector<DomainSpec> specs(k);
  for (std::size_t i = 0; i < k; ++i) {
    std::string name = "m";
    name += std::to_string(i);
    specs[i].name = std::move(name);
    specs[i].capacity = 100;
    specs[i].cosched.scheme = i == 0 ? combo.first : combo.second;
    specs[i].cosched.hold_release_period = 20 * kMinute;
    specs[i].cosched.gang.two_phase = true;
  }
  return specs;
}

/// k coupled 100-node domains, ~2 simulated days, 15% of jobs grouped
/// across the whole mesh, with 1..k seeded healing link outages.
RunOutcome run_mesh(std::size_t k, SchemeCombo combo, std::uint64_t seed) {
  std::vector<Trace> traces;
  std::vector<Trace*> ptrs;
  SynthParams p;
  p.span = static_cast<Duration>(2 * kDay * scale());
  p.offered_load = 0.6;
  for (std::size_t d = 0; d < k; ++d) {
    p.seed = 500 + seed * 10 + d;
    traces.push_back(generate_trace(eureka_model(), p));
    for (auto& j : traces.back().jobs())
      j.id += static_cast<JobId>(1000000 * (d + 1));
  }
  for (auto& t : traces) ptrs.push_back(&t);
  group_by_proportion(ptrs, 0.15, 17 + seed);

  CoupledSim sim(mesh_domains(k, combo), traces);
  CoschedConfig::Liveness liveness;
  liveness.enabled = true;
  liveness.heartbeat_period = 30 * kSecond;
  liveness.lease_duration = 5 * kMinute;
  sim.set_liveness_all(liveness);

  // Partial connectivity: cut 1..k random directed mesh links with healing
  // outages — the rest of the mesh keeps working, so some gang rounds see a
  // reachable-but-unpreparable mesh rather than a clean island.
  SplitMix64 mix(0x3E5427ULL + seed * 1000003ULL + k * 7919ULL);
  const std::size_t cuts = 1 + static_cast<std::size_t>(mix.next() % k);
  for (std::size_t c = 0; c < cuts; ++c) {
    const std::size_t from = static_cast<std::size_t>(mix.next() % k);
    std::size_t to = static_cast<std::size_t>(mix.next() % (k - 1));
    if (to >= from) ++to;
    const Time onset =
        4 * kHour + static_cast<Time>(mix.next() % (8ULL * kHour));
    const Time heal =
        onset + kHour + static_cast<Time>(mix.next() % (5ULL * kHour));
    switch (mix.next() % 3) {
      case 0: sim.add_partition(from, to, onset, heal); break;
      case 1: sim.add_one_way_partition(from, to, onset, heal); break;
      default: sim.add_reply_partition(from, to, onset, heal); break;
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  const SimResult r = sim.run(120 * kDay);
  const auto t1 = std::chrono::steady_clock::now();

  RunOutcome out;
  out.completed = r.completed;
  out.gangs_prepared = static_cast<double>(r.gangs_prepared);
  out.gangs_committed = static_cast<double>(r.gangs_committed);
  out.gangs_aborted = static_cast<double>(r.gangs_aborted);
  out.gangs_victimized = static_cast<double>(r.gangs_resolved_by_victim);
  out.atomicity_violations = r.invariants.gang_atomicity_violations;
  out.invariant_violations = r.invariants.violations.size();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.events = sim.engine().executed();
  for (std::size_t i = 0; i < sim.size(); ++i)
    out.unsync_starts += static_cast<double>(sim.cluster(i).unsync_starts());
  if (r.groups.groups_total > 0)
    out.costart_fraction =
        static_cast<double>(r.groups.groups_started_together) /
        static_cast<double>(r.groups.groups_total);
  return out;
}

/// A ring of k full-machine gangs: domain i holds group i+1 at t=0 while
/// its member of group i sits queued behind domain i's holder — a length-k
/// circular wait that only the cycle-resolution victim order can break.
RunOutcome run_cycle(std::size_t k, std::uint64_t seed) {
  std::vector<DomainSpec> specs(k);
  std::vector<Trace> traces(k);
  const Duration runtime = 600 + static_cast<Duration>(60 * seed);
  for (std::size_t i = 0; i < k; ++i) {
    std::string name = "r";
    name += std::to_string(i);
    specs[i].name = std::move(name);
    specs[i].capacity = 6;
    specs[i].policy = "fcfs";
    specs[i].cosched.scheme = Scheme::kHold;
    specs[i].cosched.hold_release_period = 0;  // no pairwise breaker
    specs[i].cosched.gang.two_phase = true;
    JobSpec holder;  // holds group i+1 from t=0
    holder.id = static_cast<JobId>(i + 1);
    holder.submit = 0;
    holder.runtime = holder.walltime = runtime;
    holder.nodes = 6;
    holder.group = static_cast<GroupId>(i + 1);
    traces[i].add(holder);
    JobSpec member;  // member of group i (wrapping), queued behind holder
    member.id = static_cast<JobId>(100 + i);
    member.submit = 10;
    member.runtime = member.walltime = runtime;
    member.nodes = 6;
    member.group = static_cast<GroupId>(i == 0 ? k : i);
    traces[i].add(member);
  }
  CoupledSim sim(specs, traces);
  sim.enable_gang_resolution(5 * kMinute);

  const auto t0 = std::chrono::steady_clock::now();
  const SimResult r = sim.run(120 * kDay);
  const auto t1 = std::chrono::steady_clock::now();

  RunOutcome out;
  out.completed = r.completed;
  out.gangs_prepared = static_cast<double>(r.gangs_prepared);
  out.gangs_committed = static_cast<double>(r.gangs_committed);
  out.gangs_aborted = static_cast<double>(r.gangs_aborted);
  out.gangs_victimized = static_cast<double>(r.gangs_resolved_by_victim);
  out.atomicity_violations = r.invariants.gang_atomicity_violations;
  out.invariant_violations = r.invariants.violations.size();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.events = sim.engine().executed();
  if (r.groups.groups_total > 0)
    out.costart_fraction =
        static_cast<double>(r.groups.groups_started_together) /
        static_cast<double>(r.groups.groups_total);
  return out;
}

struct SweepCase {
  std::size_t k = 3;
  bool cycle = false;
  SchemeCombo combo = kHH;
  std::string label;
};

}  // namespace

int main() {
  print_header("Mesh-partition sweep",
               "k-of-N gang costart under partial mesh connectivity");

  std::vector<SweepCase> cases;
  for (std::size_t k : {3u, 4u, 5u}) {
    for (const SchemeCombo& combo : kAllCombos) {
      SweepCase c;
      c.k = k;
      c.combo = combo;
      c.label = "mesh/k=" + std::to_string(k) + "/" + combo.label;
      cases.push_back(std::move(c));
    }
    SweepCase c;
    c.k = k;
    c.cycle = true;
    c.label = "cycle/k=" + std::to_string(k);
    cases.push_back(std::move(c));
  }

  // >= 3 seeds per case so the sweep always covers >= 45 distinct seeded
  // mesh outage schedules, whatever COSCHED_BENCH_RUNS says.
  const std::size_t n_runs =
      std::max<std::size_t>(static_cast<std::size_t>(runs()), 3);
  std::vector<std::vector<RunOutcome>> outcomes(
      cases.size(), std::vector<RunOutcome>(n_runs));
  parallel_for(cases.size() * n_runs, [&](std::size_t i) {
    const std::size_t ci = i / n_runs;
    const std::uint64_t seed = i % n_runs;
    outcomes[ci][seed] = cases[ci].cycle
                             ? run_cycle(cases[ci].k, seed)
                             : run_mesh(cases[ci].k, cases[ci].combo, seed);
  });

  Table table({"case", "prepared", "committed", "aborted", "victimized",
               "co-start %", "unsync", "atomicity"});
  BenchJsonFile json("mesh_partition");
  std::size_t total_violations = 0, total_incomplete = 0;
  std::size_t total_atomicity = 0;
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    RunningStats prepared, committed, aborted, victimized, costart, unsync;
    double wall = 0.0;
    std::uint64_t events = 0;
    std::size_t violations = 0, atomicity = 0, incomplete = 0;
    for (const RunOutcome& o : outcomes[ci]) {
      prepared.add(o.gangs_prepared);
      committed.add(o.gangs_committed);
      aborted.add(o.gangs_aborted);
      victimized.add(o.gangs_victimized);
      costart.add(o.costart_fraction);
      unsync.add(o.unsync_starts);
      wall += o.wall_seconds;
      events += o.events;
      violations += o.invariant_violations;
      atomicity += o.atomicity_violations;
      if (!o.completed) ++incomplete;
    }
    table.add_row({cases[ci].label, format_double(prepared.mean(), 1),
                   format_double(committed.mean(), 1),
                   format_double(aborted.mean(), 1),
                   format_double(victimized.mean(), 1),
                   format_double(100.0 * costart.mean(), 1),
                   format_double(unsync.mean(), 1),
                   std::to_string(atomicity)});
    json.add_case(
        cases[ci].label, wall, events,
        {{"gangs_prepared", prepared.mean(), prepared.stddev()},
         {"gangs_committed", committed.mean(), committed.stddev()},
         {"gangs_aborted", aborted.mean(), aborted.stddev()},
         {"gangs_resolved_by_victim", victimized.mean(), victimized.stddev()},
         {"costart_fraction", costart.mean(), costart.stddev()},
         {"unsync_starts", unsync.mean(), unsync.stddev()},
         {"gang_atomicity_violations", static_cast<double>(atomicity), 0.0},
         {"invariant_violations", static_cast<double>(violations), 0.0}});
    total_violations += violations;
    total_atomicity += atomicity;
    total_incomplete += incomplete;
  }

  table.print(std::cout);
  maybe_export_csv("mesh_partition_sweep", table);
  json.write();

  std::cout << "\nSchedules swept: " << cases.size() * n_runs << " ("
            << cases.size() << " cases x " << n_runs << " seeds)\n"
            << "Gate: a committed gang must fully start"
               " (gang_atomicity_violations == 0),\n  every ring resolves"
               " via the deterministic victim, and no run stalls.\n";
  if (total_violations > 0 || total_atomicity > 0 || total_incomplete > 0) {
    std::cerr << "MESH PARTITION SWEEP FAILED: " << total_violations
              << " invariant violations (" << total_atomicity
              << " gang atomicity), " << total_incomplete
              << " incomplete runs\n";
    return 1;
  }
  std::cout << "Invariant gate: PASS (0 violations, 0 incomplete)\n";
  return 0;
}
