// Multi-domain coscheduling simulation — the repo's top-level API.
//
// CoupledSim wires N Cluster domains onto one event engine, connects every
// ordered pair of domains with a protocol peer (loopback + fault injection),
// loads each domain's trace, runs to completion, and extracts the paper's
// metrics plus pair-start consistency checks.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/config.h"
#include "core/fault.h"
#include "core/journal.h"
#include "core/storage_fault.h"
#include "metrics/report.h"
#include "sim/engine.h"
#include "workload/trace.h"

namespace cosched {

/// Static description of one scheduling domain.
struct DomainSpec {
  std::string name;
  NodeCount capacity = 0;
  /// Priority policy name: "wfp" (production default) or "fcfs".
  std::string policy = "wfp";
  CoschedConfig cosched;
  SchedulerConfig sched;
  /// Optional request→charge model (e.g. PartitionAllocation::intrepid()).
  std::shared_ptr<const AllocationModel> alloc;
  /// Coupling group: protocol links are only built between domains sharing
  /// a group.  The default — every domain in group 0 — reproduces the
  /// legacy all-to-all topology.
  int coupling_group = 0;
};

/// Group start synchronization outcome (the §V-B capability check).  Groups
/// span 2..N domains; "gang" refers to groups of three or more members
/// driven by the two-phase costart protocol.
struct GroupStartStats {
  std::size_t groups_total = 0;
  /// Groups in which every member started at the identical instant.
  std::size_t groups_started_together = 0;
  /// Groups with at least one member that never started.
  std::size_t groups_unstarted = 0;
  /// Largest start-time skew among fully started groups (0 = perfect).
  Duration max_start_skew = 0;
  /// Start-time skew of each fully started group (max start - min start).
  std::map<GroupId, Duration> skew_by_group;
};

/// Post-run consistency checks.  A violation means the *simulator* (not the
/// policy under test) broke an invariant — except waits_forever, which also
/// fires on genuine policy deadlocks (e.g. hold-hold without the release
/// enhancement), where it is the expected deadlock signal.
struct InvariantReport {
  std::size_t jobs_waiting_forever = 0;  ///< queued/holding after drain
  std::size_t node_accounting_leaks = 0; ///< pool busy/held != live jobs' sum
  std::size_t double_starts = 0;         ///< a job logged >1 start event
  /// Leases more than two heartbeat periods past expiry while the job still
  /// holds nodes (lease-expiry-respected; only populated with liveness on).
  std::size_t lease_expiry_violations = 0;
  /// Starts executed despite a stale fencing token (no-start-with-stale-
  /// fence; the Cluster-side tripwire must stay zero).
  std::size_t stale_fence_starts = 0;
  /// Groups where some member started through a gang commit while another
  /// member never started by a non-aborted drain (k-of-N atomicity: a
  /// committed gang must fully start).
  std::size_t gang_atomicity_violations = 0;

  // -- storage fault plane (informational, not violations) ----------------
  // Nonzero values mean the ENOSPC degradation ladder ran; whether that is a
  // problem depends on the scenario, so they never populate `violations`.
  std::size_t storage_enospc_events = 0;         ///< ENOSPC ladder entries
  std::size_t storage_emergency_compactions = 0; ///< successful rung-2 saves
  std::size_t storage_degraded_domains = 0;      ///< journals now memory-only

  std::vector<std::string> violations;   ///< human-readable details
  bool ok() const { return violations.empty(); }
};

struct SimResult {
  std::vector<SystemMetrics> systems;
  GroupStartStats groups;
  /// Gang costart counters aggregated over every domain (all zero unless
  /// CoschedConfig::Gang::two_phase is enabled somewhere).
  std::uint64_t gangs_prepared = 0;
  std::uint64_t gangs_committed = 0;
  std::uint64_t gangs_aborted = 0;
  std::uint64_t gangs_resolved_by_victim = 0;
  /// All jobs finished.
  bool completed = false;
  /// Simulation drained (or hit max_time) with unfinished jobs — for
  /// hold-hold without the release enhancement this is the deadlock signal.
  bool deadlocked = false;
  Time end_time = 0;
  InvariantReport invariants;
};

class CoupledSim {
 public:
  /// `specs[i]` hosts `traces[i]`.  Traces and specs must align.
  CoupledSim(std::vector<DomainSpec> specs, const std::vector<Trace>& traces);

  /// Runs to completion.  `max_time` (0 = unlimited) aborts runaway
  /// simulations and reports them as deadlocked.
  SimResult run(Time max_time = 0);

  std::size_t size() const { return clusters_.size(); }
  Cluster& cluster(std::size_t i) { return *clusters_.at(i); }
  Engine& engine() { return engine_; }

  /// The fault injector on the peer link domain `from` uses to reach
  /// domain `to` (from != to; the domains must share a coupling group).
  /// Lets tests take a remote "down".
  FaultInjectingPeer& link(std::size_t from, std::size_t to);

  /// Installs a chaos schedule on one directed link.  Call before run().
  void set_fault_plan(std::size_t from, std::size_t to, FaultPlan plan);

  /// Installs the same plan on every inter-domain link, reseeding each link
  /// from plan.seed so the links draw independent fault streams.
  void set_fault_plan_all(const FaultPlan& plan);

  /// Enables the liveness layer (heartbeats, failure detector, leased
  /// holds) on every domain with the given settings.  Call before run().
  void set_liveness_all(const CoschedConfig::Liveness& liveness);

  /// Enables the two-phase gang costart on every domain with the given
  /// settings.  Call before run().
  void set_gang_all(const CoschedConfig::Gang& gang);

  /// Arms a periodic wait-for-graph scan (every `scan_period`) that
  /// resolves multi-domain hold deadlock cycles: the deterministic victim —
  /// lowest-priority gang in the cycle, ties toward the lowest job id — is
  /// ordered to yield over the mesh link of the domain waiting on it, so
  /// the order crosses the fault plane and the fence gate like any other
  /// side-effecting call.  Call before run().  Idempotent.
  void enable_gang_resolution(Duration scan_period);

  /// Symmetric partition: domains `a` and `b` cannot exchange any message
  /// during [start, end).  Layered on top of any installed fault plan.
  void add_partition(std::size_t a, std::size_t b, Time start, Time end);

  /// One-way partition: messages *from* `from` *to* `to` are lost during
  /// [start, end) while the reverse direction keeps working — `from`
  /// suspects `to`, but `to` still trusts `from`.
  void add_one_way_partition(std::size_t from, std::size_t to, Time start,
                             Time end);

  /// Asymmetric reply loss: during [start, end), `to` receives and executes
  /// the calls `from` sends, but every reply is lost on the way back (the
  /// nastiest shape: side effects happen, the caller sees only failure).
  void add_reply_partition(std::size_t from, std::size_t to, Time start,
                           Time end);

  /// Crash domain `domain` at time `at`: every link to or from it goes down
  /// and (when `kill_running`) its running and holding jobs die.  At
  /// `restart_at` (0 = never) the links come back and all domains re-run a
  /// scheduling iteration.  Call before run().
  void schedule_domain_crash(std::size_t domain, Time at, Time restart_at,
                             bool kill_running = true);

  /// Aggregate fault-injection accounting over all links.
  FaultStats fault_stats() const;

  /// Enables per-job lifecycle logging into the returned shared log
  /// (idempotent).  Call before run().
  EventLog& enable_event_log();

  /// Aggregate coordination-protocol traffic over all inter-domain links.
  struct ProtocolStats {
    std::uint64_t calls = 0;
    std::uint64_t request_bytes = 0;
    std::uint64_t response_bytes = 0;
  };
  ProtocolStats protocol_stats() const;

  // -- crash recovery ----------------------------------------------------

  /// Attaches one in-memory write-ahead journal per domain (idempotent).
  /// Call before run().  `compact_every` > 0 also enables periodic
  /// compaction (see Cluster::set_journal).
  void enable_journaling(std::uint64_t compact_every = 0);
  /// Like enable_journaling(), but each domain's in-memory sink is wrapped
  /// in a FaultyJournalSink injecting storage faults per `plan` (the same
  /// plan, but domain `i` draws from `plan.seed + i` so the domains corrupt
  /// independently).  Idempotent with enable_journaling(): whichever runs
  /// first wins.
  void enable_faulty_journaling(const StorageFaultPlan& plan,
                                std::uint64_t compact_every = 0);
  bool journaling_enabled() const { return !journals_.empty(); }
  Journal& journal(std::size_t i) { return *journals_.at(i); }
  /// Domain `i`'s fault injector: nullptr unless enable_faulty_journaling,
  /// and nullptr once domain `i`'s journal has degraded to memory, since
  /// Journal::degrade_to_memory destroys the injector with the sink it
  /// replaces.
  FaultyJournalSink* faulty_sink(std::size_t i) {
    FaultyJournalSink* sink = faulty_sinks_.at(i);
    return sink != nullptr && journal(i).degraded() ? nullptr : sink;
  }

  /// Mutates a journal's raw durable image between crash and recovery (the
  /// corrupt-anywhere harness hook).
  using JournalCorruptor = std::function<void(std::vector<std::uint8_t>&)>;

  /// Schedules an in-process crash + journal recovery of `domain`, fired by
  /// the first commit whose durable sequence number reaches `at_seq`.  The
  /// crash cancels the domain's tracked timers, wipes its state, and
  /// rebuilds it from the journal — peers observe no outage (the recovery
  /// itself is instantaneous in simulated time).  Requires
  /// enable_journaling(); at most one trigger per domain at a time.
  /// `corrupt`, if given, runs once on the durable image after the crash
  /// and before recovery — simulated at-rest corruption.
  void schedule_crash_recovery(std::size_t domain, std::uint64_t at_seq,
                               JournalCorruptor corrupt = nullptr);

  /// Stats of the most recent journal recovery of domain `i`
  /// (nullopt = that domain never recovered).
  const std::optional<Cluster::RecoveryStats>& last_recovery(
      std::size_t i) const {
    return recoveries_.at(i);
  }

  /// Serializes the simulation clock plus every domain's state.  Call only
  /// between events (before run(), or from a paused engine).
  void snapshot(WireWriter& w) const;

  /// Restores a snapshot() image into a freshly constructed CoupledSim
  /// built with the same specs and traces: wipes each domain, applies its
  /// snapshot, advances the engine to the snapshot time (pre-snapshot trace
  /// submits re-fire as guarded no-ops), and re-arms all timers.
  void restore(WireReader& r);

  /// Invariants computed when run() aborts by exception (nullopt = the last
  /// run() returned normally).
  const std::optional<InvariantReport>& abort_invariants() const {
    return abort_invariants_;
  }

 private:
  void check_invariants(SimResult& result, bool aborted) const;
  void crash_and_recover(std::size_t domain);
  void gang_resolution_body();

  Engine engine_;
  std::vector<std::unique_ptr<Cluster>> clusters_;
  /// links_[from][to] (nullptr on the diagonal).
  std::vector<std::vector<std::unique_ptr<FaultInjectingPeer>>> links_;
  std::unique_ptr<EventLog> event_log_;
  std::vector<std::unique_ptr<Journal>> journals_;  ///< empty unless enabled
  /// Per-domain fault injectors (nullptr entries unless faulty journaling);
  /// the sinks are owned by journals_, these are observation pointers that
  /// dangle once their journal degrades to memory (faulty_sink() checks).
  std::vector<FaultyJournalSink*> faulty_sinks_;
  /// Per-domain at-rest corruptors armed by schedule_crash_recovery
  /// (consumed by the first crash of that domain).
  std::vector<JournalCorruptor> corruptors_;
  std::vector<std::optional<Cluster::RecoveryStats>> recoveries_;
  std::optional<InvariantReport> abort_invariants_;
  Duration gang_scan_period_ = 0;  ///< 0 = deadlock resolution disabled
};

/// Order-independent FNV-1a fingerprint over every job's observable outcome
/// (id, start, end, yields, forced releases).  Byte-identical fingerprints
/// mean byte-identical scheduling results.
std::uint64_t determinism_fingerprint(CoupledSim& sim);

/// Convenience for the common two-domain experiments: builds DomainSpecs for
/// a compute machine and an analysis machine with the given scheme combo.
std::vector<DomainSpec> make_coupled_specs(
    const std::string& name_a, NodeCount capacity_a, const std::string& name_b,
    NodeCount capacity_b, SchemeCombo combo, bool cosched_enabled = true,
    Duration hold_release_period = 20 * kMinute);

}  // namespace cosched
