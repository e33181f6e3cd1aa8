// Chaos runner: the invariants around the paper's fault rule (§IV-C: an
// unreachable remote or a dead mate reads as `unknown`, so the local job
// starts instead of waiting forever) and its periodic hold release, under
// five fault families.  Each family below is one row of the runner's table
// (ChaosFamily, bench/common.h); all of them share one gate, and the
// process exits nonzero if any case has a nonzero gate count.
#include <algorithm>
#include <cstdint>
#include <iostream>

#include "common.h"
#include "core/storage_fault.h"
#include "util/error.h"
#include "util/rng.h"
#include "workload/pairing.h"
#include "workload/synth.h"

using namespace cosched;
using namespace cosched::bench;

namespace {

/// Reports `sim`'s run to the sweep guard: events, invariant violations and
/// completion.
SimResult run_sim(CoupledSim& sim, ChaosRun& out) {
  const SimResult r = sim.run(120 * kDay);
  out.events += sim.engine().executed();
  out.count("invariant_violations", r.invariants.violations.size());
  out.count("incomplete", r.completed ? 0 : 1);
  return r;
}

/// Groups co-started over groups total; 1 for a run without groups.
double costart_fraction(const SimResult& r) {
  if (r.groups.groups_total == 0) return 1.0;
  return static_cast<double>(r.groups.groups_started_together) /
         static_cast<double>(r.groups.groups_total);
}

/// Two coupled 100-node domains (eureka model), ~2 simulated days at load
/// 0.7, 20% of jobs paired: small enough that a family's grid runs in
/// seconds, busy enough that every fault lands on active holds.
std::vector<Trace> two_domain_traces(std::uint64_t seed_a,
                                     std::uint64_t seed_b,
                                     std::uint64_t pair_seed) {
  SynthParams p;
  p.span = static_cast<Duration>(2 * kDay * scale());
  p.offered_load = 0.7;
  p.seed = seed_a;
  Trace a = generate_trace(eureka_model(), p);
  p.seed = seed_b;
  Trace b = generate_trace(eureka_model(), p);
  for (auto& j : b.jobs()) j.id += 1000000;
  pair_by_proportion(a, b, 0.20, pair_seed);
  return {std::move(a), std::move(b)};
}

std::vector<DomainSpec> two_domain_specs(SchemeCombo combo) {
  return make_coupled_specs("alpha", 100, "beta", 100, combo);
}

/// The three ways a link between two domains can be cut.
using Cut = void (CoupledSim::*)(std::size_t, std::size_t, Time, Time);
constexpr Cut kCuts[] = {&CoupledSim::add_partition,
                         &CoupledSim::add_one_way_partition,
                         &CoupledSim::add_reply_partition};

// -- fault: a degraded inter-domain link ----------------------------------
//
// Link availability across the HH/HY/YH/YY grid, and RPC latency against
// the protocol deadline.  Sync overhead and co-start capability fall as
// availability drops; at avail=0 every pair start is unsynchronized (the
// pure §IV-C unknown rule) and held time collapses to ~0.

ChaosFamily fault_family() {
  struct Case {
    SchemeCombo combo;
    FaultPlan plan;
  };
  std::vector<Case> cases;
  ChaosFamily f;
  f.bench = "fault_sweep";
  f.csv = "fault_sweep";
  f.title = "sync overhead and loss of capability vs link degradation";
  for (const SchemeCombo& combo : kAllCombos) {
    for (double avail : {1.0, 0.9, 0.5, 0.0}) {
      Case c{combo, {}};
      c.plan.drop_probability = 1.0 - avail;
      cases.push_back(c);
      f.cases.push_back("avail=" + format_double(avail, 2) + "/" +
                        combo.label);
    }
  }
  // HY is the paper's recommended production combo.  60 s fits the
  // deadline, 90±60 s straddles it, 180 s always times out.
  for (Duration latency : {Duration{60}, Duration{90}, Duration{180}}) {
    Case c{kHY, {}};
    c.plan.latency_base = latency;
    c.plan.latency_jitter = latency == 90 ? 60 : 0;
    c.plan.rpc_deadline = 120;
    cases.push_back(c);
    f.cases.push_back("latency=" + std::to_string(latency) +
                      "s/deadline=120s/HY");
  }
  f.samples = {"sync_minutes",    "costart_fraction",
               "held_node_hours", "unknown_status_decisions",
               "unsync_starts",   "degraded_forced_releases"};
  f.run = [cases](std::size_t i, std::uint64_t seed) {
    CoupledSim sim(two_domain_specs(cases[i].combo),
                   two_domain_traces(100 + seed, 200 + seed, 11 + seed));
    FaultPlan plan = cases[i].plan;
    plan.seed = 0x5eedf001ULL + seed;  // chaos varies with the workload seed
    sim.set_fault_plan_all(plan);
    ChaosRun out;
    const SimResult r = run_sim(sim, out);
    double sync = 0, held = 0, unknown = 0, unsync = 0, degraded = 0;
    for (const SystemMetrics& m : r.systems) {
      sync += m.avg_sync_minutes / static_cast<double>(r.systems.size());
      held += m.held_node_hours;
      unknown += static_cast<double>(m.unknown_status_decisions);
      unsync += static_cast<double>(m.unsync_starts);
      degraded += static_cast<double>(m.degraded_forced_releases);
    }
    out.sample("sync_minutes", sync);
    out.sample("costart_fraction", costart_fraction(r));
    out.sample("held_node_hours", held);
    out.sample("unknown_status_decisions", unknown);
    out.sample("unsync_starts", unsync);
    out.sample("degraded_forced_releases", degraded);
    return out;
  };
  return f;
}

// -- partition: the liveness layer under partitions ------------------------
//
// Partition shapes against the scheme grid, with heartbeats, the
// phi-accrual detector and leased holds on at their defaults (30 s
// heartbeats, 5-minute leases).  Each (shape, combo, seed) draws its own
// onset and outage, so 5 seeds make 120 seeded schedules.  Healing
// partitions recover co-start capability; permanent ones turn holds into
// lease expiries and unsynchronized starts, with MTTR (minutes from onset
// to the first unsynchronized start) on the order of the lease duration.

ChaosFamily partition_family() {
  struct Shape {
    const char* name;
    Cut cut;  ///< nullptr: a healthy network
    bool heals;
  };
  static constexpr Shape kShapes[] = {
      {"none", nullptr, true},
      {"2way-heal", kCuts[0], true},
      {"2way-perm", kCuts[0], false},
      {"1way-heal", kCuts[1], true},
      {"1way-perm", kCuts[1], false},
      {"reply-heal", kCuts[2], true},
  };
  struct Case {
    SchemeCombo combo;
    Shape shape;
  };
  std::vector<Case> cases;
  ChaosFamily f;
  f.bench = "partition";
  f.csv = "partition_sweep";
  f.title = "liveness layer (detector + leased holds) vs partition shape";
  for (const SchemeCombo& combo : kAllCombos) {
    for (const Shape& shape : kShapes) {
      cases.push_back({combo, shape});
      f.cases.push_back(std::string("shape=") + shape.name + "/" +
                        combo.label);
    }
  }
  f.min_seeds = 5;
  f.samples = {"mttr_minutes",          "costart_fraction",
               "unsync_starts",         "lease_grants",
               "lease_expiries",        "suspected_status_decisions",
               "stale_fence_rejections"};
  f.run = [cases](std::size_t i, std::uint64_t seed) {
    const Shape& shape = cases[i].shape;
    CoupledSim sim(two_domain_specs(cases[i].combo),
                   two_domain_traces(300 + seed, 400 + seed, 17 + seed));
    sim.set_liveness_all({.enabled = true});

    // The schedule is a pure function of (shape, seed): onset in hours
    // 6-18, outage 1-7 h when the shape heals, open-ended otherwise.
    SplitMix64 mix(0xBADC0FFEEULL + seed * 1000003ULL);
    const Time onset =
        6 * kHour + static_cast<Time>(mix.next() % (12ULL * kHour));
    const Time heal =
        onset + kHour + static_cast<Time>(mix.next() % (6ULL * kHour));
    if (shape.cut != nullptr)
      (sim.*shape.cut)(0, 1, onset, shape.heals ? heal : onset + 100 * kDay);
    EventLog& log = sim.enable_event_log();

    ChaosRun out;
    const SimResult r = run_sim(sim, out);
    double unsync = 0, grants = 0, expiries = 0, suspected = 0, fenced = 0;
    for (std::size_t d = 0; d < sim.size(); ++d) {
      const Cluster& cl = sim.cluster(d);
      unsync += static_cast<double>(cl.unsync_starts());
      grants += static_cast<double>(cl.lease_grants());
      expiries += static_cast<double>(cl.lease_expiries());
      suspected += static_cast<double>(cl.suspected_status_decisions());
      fenced += static_cast<double>(cl.stale_fence_rejections());
    }
    out.sample("costart_fraction", costart_fraction(r));
    out.sample("unsync_starts", unsync);
    out.sample("lease_grants", grants);
    out.sample("lease_expiries", expiries);
    out.sample("suspected_status_decisions", suspected);
    out.sample("stale_fence_rejections", fenced);
    if (shape.cut == nullptr) return out;
    for (const JobEvent& e : log.events()) {  // in time order
      if (e.kind != JobEventKind::kUnsyncStart || e.time < onset) continue;
      out.sample("mttr_minutes",
                 static_cast<double>(e.time - onset) / double(kMinute));
      break;
    }
    return out;
  };
  return f;
}

// -- mesh: k-of-N gang costart under partial connectivity -----------------
//
// Mesh chaos: k in {3,4,5} domains with the two-phase gang costart and
// liveness on, against the scheme grid, each seeded run cutting 1..k
// directed links (healing), so gang rounds abort mid-prepare and
// coordinators re-prepare across the healed mesh.  Gang cycles: a ring of
// k two-domain gangs, each holding a full machine while waiting on the
// next domain, a length-k circular wait no pairwise breaker sees; the
// deterministic victim order must break every ring.  A committed gang may
// never strand a member (gang_atomicity_violations).

/// Runs `sim` and reports its gang outcomes.
ChaosRun run_gangs(CoupledSim& sim) {
  ChaosRun out;
  const SimResult r = run_sim(sim, out);
  double unsync = 0;
  for (std::size_t d = 0; d < sim.size(); ++d)
    unsync += static_cast<double>(sim.cluster(d).unsync_starts());
  out.sample("gangs_prepared", static_cast<double>(r.gangs_prepared));
  out.sample("gangs_committed", static_cast<double>(r.gangs_committed));
  out.sample("gangs_aborted", static_cast<double>(r.gangs_aborted));
  out.sample("gangs_resolved_by_victim",
             static_cast<double>(r.gangs_resolved_by_victim));
  out.sample("costart_fraction", costart_fraction(r));
  out.sample("unsync_starts", unsync);
  out.count("gang_atomicity_violations",
            r.invariants.gang_atomicity_violations);
  return out;
}

/// k coupled 100-node domains, ~2 simulated days at load 0.6 on each, 15%
/// of jobs grouped across the whole mesh, with 1..k seeded healing link
/// outages.  The combo's first scheme drives domain 0, its second every
/// other domain (HY = one holder among yielders, ...).
ChaosRun run_mesh(std::size_t k, SchemeCombo combo, std::uint64_t seed) {
  std::vector<DomainSpec> specs(k);
  std::vector<Trace> traces;
  SynthParams p;
  p.span = static_cast<Duration>(2 * kDay * scale());
  p.offered_load = 0.6;
  for (std::size_t d = 0; d < k; ++d) {
    std::string name = "m";
    name += std::to_string(d);
    specs[d].name = std::move(name);
    specs[d].capacity = 100;
    specs[d].cosched.scheme = d == 0 ? combo.first : combo.second;
    specs[d].cosched.gang.two_phase = true;
    p.seed = 500 + seed * 10 + d;
    traces.push_back(generate_trace(eureka_model(), p));
    for (auto& j : traces.back().jobs())
      j.id += static_cast<JobId>(1000000 * (d + 1));
  }
  std::vector<Trace*> ptrs;
  for (auto& t : traces) ptrs.push_back(&t);
  group_by_proportion(ptrs, 0.15, 17 + seed);

  CoupledSim sim(specs, traces);
  sim.set_liveness_all({.enabled = true});

  // Partial connectivity: the rest of the mesh keeps working, so some gang
  // rounds see a reachable-but-unpreparable mesh rather than a clean island.
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
    (sim.*kCuts[mix.next() % 3])(from, to, onset, heal);
  }
  return run_gangs(sim);
}

/// Domain i holds group i+1 at t=0 while its member of group i sits queued
/// behind that holder.
ChaosRun run_cycle(std::size_t k, std::uint64_t seed) {
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
    JobSpec holder;
    holder.id = static_cast<JobId>(i + 1);
    holder.runtime = holder.walltime = runtime;
    holder.nodes = 6;
    holder.group = static_cast<GroupId>(i + 1);
    traces[i].add(holder);
    JobSpec member;
    member.id = static_cast<JobId>(100 + i);
    member.submit = 10;
    member.runtime = member.walltime = runtime;
    member.nodes = 6;
    member.group = static_cast<GroupId>(i == 0 ? k : i);
    traces[i].add(member);
  }
  CoupledSim sim(specs, traces);
  sim.enable_gang_resolution(5 * kMinute);
  return run_gangs(sim);
}

ChaosFamily mesh_family() {
  struct Case {
    std::size_t k;
    bool cycle;
    SchemeCombo combo;
  };
  std::vector<Case> cases;
  ChaosFamily f;
  f.bench = "mesh_partition";
  f.csv = "mesh_partition_sweep";
  f.title = "k-of-N gang costart under partial mesh connectivity";
  for (std::size_t k : {3u, 4u, 5u}) {
    for (const SchemeCombo& combo : kAllCombos) {
      cases.push_back({k, false, combo});
      f.cases.push_back("mesh/k=" + std::to_string(k) + "/" + combo.label);
    }
    cases.push_back({k, true, kHH});
    f.cases.push_back("cycle/k=" + std::to_string(k));
  }
  f.min_seeds = 3;  // 15 cases x 3 = 45 seeded outage schedules
  f.samples = {"gangs_prepared",           "gangs_committed",  "gangs_aborted",
               "gangs_resolved_by_victim", "costart_fraction", "unsync_starts"};
  f.gate = {"gang_atomicity_violations"};
  f.run = [cases](std::size_t i, std::uint64_t seed) {
    const Case& c = cases[i];
    return c.cycle ? run_cycle(c.k, seed) : run_mesh(c.k, c.combo, seed);
  };
  return f;
}

// -- recovery: kill-anywhere crash and replay -----------------------------
//
// For every scheme combo x compaction setting: an uncrashed journaled
// baseline, then the same workload re-run with one domain crashed
// in-process at seeded points across the baseline's committed journal
// (alternating which domain dies).  Every crashed run must replay to the
// baseline's exact per-job fingerprint and end time.  The samples are the
// recovery costs: MTTR (wall-clock wipe + replay) and replay throughput.
// Compaction caps the replayed records (the snapshot swallows the prefix).

/// Crash points as fractions of the baseline's final committed sequence
/// number; odd indices kill the other domain.
constexpr double kRecoveryCrashes[] = {0.20, 0.50, 0.85};

ChaosFamily recovery_family() {
  struct Case {
    SchemeCombo combo;
    std::uint64_t compact_every;  ///< 0 = never compact (pure WAL replay)
  };
  std::vector<Case> cases;
  ChaosFamily f;
  f.bench = "recovery";
  f.csv = "recovery_sweep";
  f.title = "kill-anywhere crash/replay equivalence gate + MTTR";
  for (const SchemeCombo& combo : kAllCombos) {
    for (std::uint64_t compact : {std::uint64_t{0}, std::uint64_t{128}}) {
      cases.push_back({combo, compact});
      f.cases.push_back(std::string(combo.label) + "/" +
                        (compact == 0 ? "wal-only"
                                      : "compact=" + std::to_string(compact)));
    }
  }
  f.samples = {"mttr_ms", "replay_records", "replay_records_per_sec",
               "replay_mb_per_sec", "journal_kb"};
  f.counts = {"crashes"};
  f.gate = {"fingerprint_mismatches", "recovery_missing"};
  f.run = [cases](std::size_t i, std::uint64_t seed) {
    const Case& c = cases[i];
    const auto specs = two_domain_specs(c.combo);
    const auto traces = two_domain_traces(100 + seed, 200 + seed, 11 + seed);
    ChaosRun out;
    CoupledSim base(specs, traces);
    base.enable_journaling(c.compact_every);
    const SimResult b = run_sim(base, out);
    const std::uint64_t base_fp = determinism_fingerprint(base);

    for (std::size_t fi = 0; fi < std::size(kRecoveryCrashes); ++fi) {
      const std::size_t domain = fi % 2;
      const double last_seq =
          static_cast<double>(base.journal(domain).last_committed_seq());
      const std::uint64_t at_seq = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(kRecoveryCrashes[fi] * last_seq));
      CoupledSim sim(specs, traces);
      sim.enable_journaling(c.compact_every);
      sim.schedule_crash_recovery(domain, at_seq);
      const SimResult r = run_sim(sim, out);
      out.count("crashes");
      if (determinism_fingerprint(sim) != base_fp || r.end_time != b.end_time)
        out.count("fingerprint_mismatches");
      const auto& rec = sim.last_recovery(domain);
      if (!rec.has_value()) {
        out.count("recovery_missing");
        continue;
      }
      out.sample("mttr_ms", rec->replay_seconds * 1e3);
      out.sample("replay_records", static_cast<double>(rec->records_replayed));
      out.sample("journal_kb",
                 static_cast<double>(rec->bytes_scanned) / 1024.0);
      if (rec->replay_seconds > 0.0) {
        out.sample("replay_records_per_sec",
                   static_cast<double>(rec->records_replayed) /
                       rec->replay_seconds);
        out.sample("replay_mb_per_sec",
                   static_cast<double>(rec->bytes_scanned) /
                       (1024.0 * 1024.0) / rec->replay_seconds);
      }
    }
    return out;
  };
  return f;
}

// -- storage: at-rest corruption and ENOSPC --------------------------------
//
// For every scheme combo x corruption class: an uncrashed journaled
// baseline, then the same workload re-run with one domain crashed at seeded
// points and its durable image corrupted between crash and recovery.  One
// more class drives the ENOSPC degradation ladder through
// FaultyJournalSink's byte quota.  Every crashed run is exact (bit-identical
// to the baseline), reported (RecoveryStats itemizes the damage), loud
// (recovery refused to proceed) or silent (diverged with a clean
// RecoveryStats).  Corruption may cost data, but never quietly: silent_loss
// gates.

/// Crash points as fractions of the baseline's final committed sequence
/// number; odd indices kill the other domain.
constexpr double kStorageCrashes[] = {0.25, 0.55, 0.85};

/// Snapshot every this many records: the image carries generations, so the
/// fallback path is reachable when the damage lands in the newest snapshot.
constexpr std::uint64_t kCompactEvery = 96;

/// Byte quota for the ENOSPC class: generous enough for the attach
/// snapshot, far too small for the full run.
constexpr std::uint64_t kQuotaBytes = 8 * 1024;

struct CorruptionClass {
  const char* name;
  /// Mutates the durable image; `where` in [0,1) picks the damage site.
  void (*mutate)(std::vector<std::uint8_t>&, double where);
};

std::size_t site(const std::vector<std::uint8_t>& b, double where) {
  return std::min(b.size() - 1, static_cast<std::size_t>(
                                    where * static_cast<double>(b.size())));
}

const CorruptionClass kClasses[] = {
    {"bit-flip",
     [](std::vector<std::uint8_t>& b, double where) {
       const std::size_t at = site(b, where);
       b[at] ^= static_cast<std::uint8_t>(1u << (at % 8));
     }},
    {"zero-run",
     [](std::vector<std::uint8_t>& b, double where) {
       const std::size_t at = site(b, where);
       const std::size_t end = std::min(b.size(), at + 24);
       std::fill(b.begin() + static_cast<std::ptrdiff_t>(at),
                 b.begin() + static_cast<std::ptrdiff_t>(end),
                 std::uint8_t{0});
     }},
    {"excise",
     [](std::vector<std::uint8_t>& b, double where) {
       const std::size_t at = site(b, where * 0.9);
       const std::size_t end = std::min(b.size(), at + 12);
       b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
               b.begin() + static_cast<std::ptrdiff_t>(end));
     }},
    {"torn-tail",
     [](std::vector<std::uint8_t>& b, double where) {
       b.resize(std::max<std::size_t>(1, site(b, 0.5 + where / 2)));
     }},
};

ChaosFamily storage_family() {
  struct Case {
    SchemeCombo combo;
    const CorruptionClass* cls;  ///< nullptr = the ENOSPC class
  };
  std::vector<Case> cases;
  ChaosFamily f;
  f.bench = "storage_faults";
  f.csv = "storage_fault_sweep";
  f.title = "at-rest corruption + ENOSPC recovery, zero-silent-loss gate";
  for (const SchemeCombo& combo : kAllCombos) {
    for (const CorruptionClass& cls : kClasses) {
      cases.push_back({combo, &cls});
      f.cases.push_back(std::string(combo.label) + "/" + cls.name);
    }
    cases.push_back({combo, nullptr});
    f.cases.push_back(std::string(combo.label) + "/enospc-quota");
  }
  f.samples = {"mttr_ms", "corrupt_regions", "records_dropped"};
  f.counts = {"crashes",       "exact_replays",      "reported_loss",
              "loud_failures", "snapshot_fallbacks", "enospc_events"};
  f.gate = {"silent_loss"};
  f.run = [cases](std::size_t i, std::uint64_t seed) {
    const Case& c = cases[i];
    const auto specs = two_domain_specs(c.combo);
    const auto traces = two_domain_traces(300 + seed, 400 + seed, 17 + seed);
    ChaosRun out;
    CoupledSim base(specs, traces);
    base.enable_journaling(kCompactEvery);
    const SimResult b = run_sim(base, out);
    const std::uint64_t base_fp = determinism_fingerprint(base);
    auto exact = [&](CoupledSim& sim, const SimResult& r) {
      return r.completed && determinism_fingerprint(sim) == base_fp &&
             r.end_time == b.end_time;
    };

    if (c.cls == nullptr) {
      // No crash: the quota forces the degradation ladder mid-run, and the
      // ladder itself must never change scheduling results.
      CoupledSim sim(specs, traces);
      sim.enable_faulty_journaling(
          {.seed = seed, .capacity_bytes = kQuotaBytes}, kCompactEvery);
      const SimResult r = run_sim(sim, out);
      out.count("crashes");
      out.count("enospc_events", r.invariants.storage_enospc_events);
      out.count(exact(sim, r) ? "exact_replays" : "silent_loss");
      return out;
    }

    for (std::size_t fi = 0; fi < std::size(kStorageCrashes); ++fi) {
      const std::size_t domain = fi % 2;
      const double last_seq =
          static_cast<double>(base.journal(domain).last_committed_seq());
      const std::uint64_t at_seq = std::max<std::uint64_t>(
          2, static_cast<std::uint64_t>(kStorageCrashes[fi] * last_seq));
      // The damage site sweeps the image as the crash point sweeps the run.
      const double where =
          (static_cast<double>(fi) + static_cast<double>(seed % 3) / 3.0) /
          static_cast<double>(std::size(kStorageCrashes));
      CoupledSim sim(specs, traces);
      sim.enable_journaling(kCompactEvery);
      sim.schedule_crash_recovery(domain, at_seq,
                                  [&c, where](std::vector<std::uint8_t>& b) {
                                    if (!b.empty()) c.cls->mutate(b, where);
                                  });
      out.count("crashes");
      SimResult r;
      try {
        r = sim.run(120 * kDay);
      } catch (const Error&) {
        out.count("loud_failures");
        continue;
      }
      // Not `incomplete`: completion is part of the class.  A recovery that
      // reports its loss may diverge, a stall included (the corrupt-anywhere
      // tests allow the same); a stall without a report is a silent loss.
      out.events += sim.engine().executed();
      out.count("invariant_violations", r.invariants.violations.size());
      const auto& rec = sim.last_recovery(domain);
      if (exact(sim, r))
        out.count("exact_replays");
      else if (rec.has_value() && (rec->data_loss_reported() || rec->tail_torn))
        out.count("reported_loss");
      else
        out.count("silent_loss");
      if (!rec.has_value()) continue;
      out.sample("mttr_ms", rec->replay_seconds * 1e3);
      out.sample("corrupt_regions", static_cast<double>(rec->corrupt_regions));
      out.sample("records_dropped", static_cast<double>(rec->records_missing +
                                                        rec->records_dropped));
      if (rec->snapshot_fallback) out.count("snapshot_fallbacks");
    }
    return out;
  };
  return f;
}

}  // namespace

int main() {
  bool pass = true;
  for (const ChaosFamily& family :
       {fault_family(), partition_family(), mesh_family(), recovery_family(),
        storage_family()})
    pass = report_chaos(family, run_chaos(family)) && pass;
  std::cout << (pass ? "\nChaos gate: PASS\n" : "\nChaos gate: FAILED\n");
  return pass ? 0 : 1;
}
