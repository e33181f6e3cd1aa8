// cosched-lint: determinism checks the compiler cannot express.
//
// Each file's comments and strings are blanked into a code view, and the
// rules run over those lines.  They enforce the determinism contract that
// the fingerprint tests only catch when a seeded run happens to hit it:
//
//   banned-call            no rand()/srand()/system_clock/argless time() in
//                          the deterministic core (core, sched, sim,
//                          workload) — wall clocks and libc PRNGs break
//                          replay and fingerprint equality
//   unordered-iter         no iteration over unordered_{map,set} without an
//                          explicit `// cosched-lint: ordered(<reason>)`
//                          waiver — hash order leaking into fingerprints,
//                          metrics, or wire output is the classic silent
//                          determinism bug
//
// What the compiler or a test checks instead: -Werror=switch makes the
// journal replay, the record names and the RPC dispatcher name every
// record kind and message type; an apply is a method of Cluster::Durable,
// which holds only snapshotted state and is the only holder of a mutable
// Scheduler and lease table; the dispatcher runs every side-effecting
// request through one exactly-once path; Journal::compact refuses to
// splice out uncommitted records; the JournalFormatGuard tests write every
// named record kind.  docs/STATIC_ANALYSIS.md has the table.
//
// Escape hatches (same line or the line above the finding):
//   // cosched-lint: ordered(<why hash order cannot leak>)   unordered-iter
//   // cosched-lint: allow(<rule>) <why>                      any rule
// Waivers are counted and reported so a review can see the debt.
#pragma once

#include <string>
#include <vector>

namespace cosched::lint {

struct Finding {
  std::string file;
  int line = 0;          ///< 1-based
  std::string rule;      ///< rule id, e.g. "unordered-iter"
  std::string message;
};

struct SourceFile {
  std::string path;                 ///< as reported in findings
  std::vector<std::string> lines;   ///< raw file lines
};

struct Report {
  std::vector<Finding> findings;        ///< unwaived — these fail the run
  std::vector<Finding> waived;          ///< suppressed by ordered()/allow()
  int ordered_waivers_used = 0;
  int allow_waivers_used = 0;
  std::size_t files_scanned = 0;
  /// Waiver comments that suppressed nothing this run (rule "unused-waiver",
  /// line = the comment's line).  Reported, never failing — the signal that
  /// drives waiver audits.
  std::vector<Finding> unused_waivers;
};

/// Splits file contents into lines (tolerates missing trailing newline).
std::vector<std::string> split_lines(const std::string& contents);

/// Runs every rule over `files`.  Cross-file context (unordered member
/// declarations in a .cpp's same-stem header, unordered-returning accessor
/// names from any header) is gathered from the same set, so callers should
/// pass headers and sources together.
Report run_lint(const std::vector<SourceFile>& files);

/// Loads every *.h / *.cpp under each root (recursively; a root may also be
/// a single file) and lints them.  `error` receives a message on I/O
/// failure.
bool lint_paths(const std::vector<std::string>& roots, Report& out,
                std::string& error);

/// Formats one finding as "file:line: [rule] message".
std::string to_string(const Finding& f);

/// Renders the full report as JSON with stable key and array order:
/// files_scanned / ordered_waivers / allow_waivers, the three finding
/// arrays (each sorted by file, line, rule), and a per-rule
/// {findings, waived} tally covering every known rule id.
std::string to_json(const Report& r);

}  // namespace cosched::lint
