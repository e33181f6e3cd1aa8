// cosched_sim — the full coupled-system simulator as a command-line tool.
//
// Reads a deployment-style config file describing the scheduling domains
// (see src/core/config_io.h for the format), loads each domain's workload
// (SWF file or synth spec), runs the coupled simulation, and reports the
// paper's metrics.  Optionally writes the per-job lifecycle log and a CSV
// metric summary.
//
//   cosched_sim coupled.conf
//   cosched_sim coupled.conf --max-days 365 --event-log run.log --csv m.csv
//
// Example config:
//   [domain intrepid]
//   capacity = 40960
//   policy = wfp
//   scheme = hold
//   allocation = bgp-partitions
//   trace = synth:intrepid?load=0.68&days=30&jobs=9219&seed=1
//
//   [domain eureka]
//   capacity = 100
//   policy = wfp
//   scheme = yield
//   trace = synth:eureka?load=0.5&days=30&seed=2
#include <fstream>
#include <iostream>

#include "core/config_io.h"
#include "core/coupled_sim.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/pairing.h"

using namespace cosched;

int main(int argc, char** argv) {
  Flags flags;
  flags.define("max-days", "0",
               "abort after this many simulated days (0 = off)");
  flags.define("event-log", "", "write the per-job lifecycle log to this file");
  flags.define("csv", "", "write per-domain metrics as CSV to this file");
  flags.define("pair-proportion", "0",
               "randomly pair this fraction of jobs across the first two "
               "domains (applied after loading traces)");
  flags.define("pair-seed", "1", "seed for --pair-proportion");

  std::vector<std::string> args;
  try {
    args = flags.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << flags.usage(argv[0]);
    return 2;
  }
  if (args.size() != 1) {
    std::cerr << "usage: cosched_sim <config-file> [flags]\n"
              << flags.usage(argv[0]);
    return 2;
  }

  try {
    const auto configs = read_domain_configs(args[0]);
    if (configs.empty()) {
      std::cerr << "config declares no domains\n";
      return 1;
    }

    std::vector<DomainSpec> specs;
    std::vector<Trace> traces;
    for (const DomainConfig& c : configs) {
      specs.push_back(c.spec);
      traces.push_back(load_trace_source(c.trace_source, c.spec));
      traces.back().validate(c.spec.capacity);
    }

    const double pair_prop = flags.get_double("pair-proportion");
    if (pair_prop > 0 && traces.size() >= 2) {
      const PairingResult r = pair_by_proportion(
          traces[0], traces[1], pair_prop,
          static_cast<std::uint64_t>(flags.get_int("pair-seed")));
      std::cout << "paired " << r.pairs_made << " job pairs ("
                << format_percent(r.paired_fraction) << " of all jobs)\n";
    }

    CoupledSim sim(specs, traces);
    const std::string log_path = flags.get("event-log");
    if (!log_path.empty()) sim.enable_event_log();

    const SimResult r = sim.run(flags.get_int("max-days") * kDay);

    Table t({"domain", "jobs", "finished", "paired", "avg wait (min)",
             "avg slowdown", "avg sync (min)", "loss (node-h)",
             "utilization"});
    for (const SystemMetrics& m : r.systems) {
      t.add_row({m.system,
                 format_count(static_cast<long long>(m.jobs_total)),
                 format_count(static_cast<long long>(m.jobs_finished)),
                 format_count(static_cast<long long>(m.paired_jobs)),
                 format_double(m.avg_wait_minutes),
                 format_double(m.avg_slowdown),
                 format_double(m.avg_sync_minutes),
                 format_count(static_cast<long long>(m.held_node_hours)),
                 format_percent(m.utilization)});
    }
    t.print(std::cout);
    std::cout << "simulated " << format_double(to_hours(r.end_time) / 24, 1)
              << " days; " << (r.completed ? "all jobs finished" : "STALLED")
              << "; coupled groups: " << r.groups.groups_started_together
              << "/" << r.groups.groups_total << " co-started (max skew "
              << r.groups.max_start_skew << " s)\n";

    if (!log_path.empty()) {
      std::ofstream out(log_path);
      if (!out) throw Error("cannot write event log: " + log_path);
      sim.enable_event_log().write_text(out);
      std::cout << "event log written to " << log_path << "\n";
    }
    const std::string csv_path = flags.get("csv");
    if (!csv_path.empty()) {
      CsvWriter csv(csv_path);
      csv.write_row({"domain", "jobs", "finished", "paired",
                     "avg_wait_min", "avg_slowdown", "avg_sync_min",
                     "loss_node_hours", "utilization"});
      for (const SystemMetrics& m : r.systems)
        csv.write_row({m.system, std::to_string(m.jobs_total),
                       std::to_string(m.jobs_finished),
                       std::to_string(m.paired_jobs),
                       format_double(m.avg_wait_minutes, 4),
                       format_double(m.avg_slowdown, 4),
                       format_double(m.avg_sync_minutes, 4),
                       format_double(m.held_node_hours, 2),
                       format_double(m.utilization, 6)});
      std::cout << "metrics written to " << csv_path << "\n";
    }
    return r.completed ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
