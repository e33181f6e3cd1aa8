// Ablation: scheduler-policy and mechanism alternatives —
//  * WFP vs FCFS queue policies (the paper notes FCFS-family policies
//    guarantee yield-yield progress);
//  * backfilling on/off;
//  * BG/P partition-rounding allocation on Intrepid;
//  * the advance co-reservation baseline (related work the paper rejects).
#include <iostream>

#include "common.h"
#include "core/coreservation.h"
#include "workload/pairing.h"

using namespace cosched;
using namespace cosched::bench;

namespace {

CaseMetrics run_variant(const CoupledWorkload& w, const std::string& policy,
                        bool backfill, bool partition_alloc) {
  auto specs =
      make_coupled_specs("intrepid", 40960, "eureka", 100, kHY, true);
  for (auto& s : specs) {
    s.policy = policy;
    s.sched.backfill = backfill;
  }
  if (partition_alloc)
    specs[0].alloc = std::make_shared<PartitionAllocation>(
        PartitionAllocation::intrepid());
  CoupledSim sim(specs, {w.intrepid, w.eureka});
  const SimResult r = sim.run(24 * 30 * kDay);
  CaseMetrics out;
  out.completed = r.completed;
  out.intrepid = r.systems[0];
  out.eureka = r.systems[1];
  out.groups = r.groups;
  return out;
}

}  // namespace

int main() {
  print_header("Ablation",
               "policy/backfill/allocation variants + co-reservation baseline"
               " (HY, load 0.50)");

  Table t({"variant", "intrepid wait (min)", "eureka wait (min)",
           "intrepid slowdown", "intrepid util", "pairs synced / total"});

  const CoupledWorkload w = make_load_workload(0.50, 11);

  struct Variant {
    const char* label;
    const char* policy;
    bool backfill;
    bool partition;
  };
  for (const Variant& v :
       {Variant{"WFP + backfill (paper)", "wfp", true, false},
        Variant{"FCFS + backfill", "fcfs", true, false},
        Variant{"WFP, no backfill", "wfp", false, false},
        Variant{"WFP + backfill + BG/P partitions", "wfp", true, true}}) {
    const CaseMetrics m = run_variant(w, v.policy, v.backfill, v.partition);
    t.add_row({v.label, format_double(m.intrepid.avg_wait_minutes),
               format_double(m.eureka.avg_wait_minutes),
               format_double(m.intrepid.avg_slowdown),
               format_percent(m.intrepid.utilization),
               format_count(static_cast<long long>(
                   m.groups.groups_started_together)) +
                   " / " +
                   format_count(
                       static_cast<long long>(m.groups.groups_total))});
  }

  // Co-reservation baseline (conservative, walltime-based, no backfill over
  // reservations): the related-work approach the paper argues against.
  {
    auto specs =
        make_coupled_specs("intrepid", 40960, "eureka", 100, kHY, true);
    const CoReservationResult r =
        simulate_co_reservation(specs, {w.intrepid, w.eureka});
    t.add_row({"advance co-reservation (HARC/GARA-like)",
               format_double(r.systems[0].avg_wait_minutes),
               format_double(r.systems[1].avg_wait_minutes),
               format_double(r.systems[0].avg_slowdown),
               format_percent(r.systems[0].utilization),
               "n/a (reserved)"});
    std::cout << "co-reservation fragmentation: "
              << format_count(
                     static_cast<long long>(r.fragmentation_node_hours[0]))
              << " node-hours reserved-but-unused on Intrepid, "
              << format_count(
                     static_cast<long long>(r.fragmentation_node_hours[1]))
              << " on Eureka\n";
  }

  t.print(std::cout);
  std::cout << "\nExpectation: coscheduling synchronizes under every policy"
               " variant; disabling backfill hurts waits badly; the"
               " co-reservation baseline shows the temporal-fragmentation"
               " cost the paper cites (§III).\n";
  return 0;
}
