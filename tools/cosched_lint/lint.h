// cosched-lint: domain-rule static checks the compiler cannot express.
//
// Every file is parsed once by a lightweight tokenizer into a shared project
// index (index.h): code views, function definitions and unordered-container
// declarations; the rules run over that index.  They enforce the invariants
// the runtime defenses (TSan, invariant reports, kill-anywhere recovery)
// only catch when a test happens to hit them:
//
//   mutate-in-apply        no Cluster method outside the recovery path
//                          (restore_/wipe_/recover_/rearm_/replay/write_/
//                          snapshot) calls a scheduler mutator or writes the
//                          lease table (durable_.lease_table.leases): every
//                          such change goes through the apply_* method of
//                          its record kind on Cluster::Durable, which journal
//                          replay runs too, so live and replayed state
//                          cannot drift apart
//   dedup-before-reply     RpcDedup verdicts are recorded (and thereby
//                          journaled durable) before the dispatcher builds
//                          the reply
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
// which holds only snapshotted state; Journal::compact refuses to splice
// out uncommitted records; the JournalFormatGuard tests write every named
// record kind.  docs/STATIC_ANALYSIS.md has the table.
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
