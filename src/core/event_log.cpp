#include "core/event_log.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/error.h"

namespace cosched {

const char* to_string(JobEventKind k) {
  switch (k) {
    case JobEventKind::kSubmit: return "submit";
    case JobEventKind::kReady: return "ready";
    case JobEventKind::kStart: return "start";
    case JobEventKind::kHold: return "hold";
    case JobEventKind::kHoldRelease: return "hold-release";
    case JobEventKind::kYield: return "yield";
    case JobEventKind::kFinish: return "finish";
    case JobEventKind::kUnsyncStart: return "unsync-start";
    case JobEventKind::kLeaseExpire: return "lease-expire";
    case JobEventKind::kFenceReject: return "fence-reject";
  }
  return "?";
}

namespace {

JobEventKind parse_kind(const std::string& s) {
  for (auto k : {JobEventKind::kSubmit, JobEventKind::kReady,
                 JobEventKind::kStart, JobEventKind::kHold,
                 JobEventKind::kHoldRelease, JobEventKind::kYield,
                 JobEventKind::kFinish, JobEventKind::kUnsyncStart,
                 JobEventKind::kLeaseExpire, JobEventKind::kFenceReject})
    if (s == to_string(k)) return k;
  throw ParseError("event log: unknown event kind '" + s + "'");
}

// Parses "key=value" whose value is, in full, a signed 64-bit integer.
std::int64_t parse_field(const std::string& token, const char* key) {
  const std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0)
    throw ParseError("event log: expected '" + prefix + "...', got '" +
                     token + "'");
  const char* first = token.data() + prefix.size();
  const char* last = token.data() + token.size();
  std::int64_t value = 0;
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || end != last)
    throw ParseError("event log: expected a 64-bit integer in '" + token +
                     "'");
  return value;
}

}  // namespace

std::vector<JobEvent> EventLog::of_kind(JobEventKind kind) const {
  std::vector<JobEvent> out;
  for (const JobEvent& e : events_)
    if (e.kind == kind) out.push_back(e);
  return out;
}

void EventLog::write_text(std::ostream& os) const {
  for (const JobEvent& e : events_) {
    os << e.time << ' ' << e.system << ' ' << to_string(e.kind)
       << " job=" << e.job << " group=" << e.group << " nodes=" << e.nodes
       << '\n';
  }
}

EventLog EventLog::read_text(std::istream& is) {
  EventLog log;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    JobEvent e;
    std::string kind, job_f, group_f, nodes_f;
    if (!(ls >> e.time >> e.system >> kind >> job_f >> group_f >> nodes_f))
      throw ParseError("event log line " + std::to_string(lineno) +
                       ": malformed");
    e.kind = parse_kind(kind);
    e.job = parse_field(job_f, "job");
    e.group = parse_field(group_f, "group");
    e.nodes = parse_field(nodes_f, "nodes");
    log.record(std::move(e));
  }
  return log;
}

CoStartReport verify_co_starts(const EventLog& log) {
  // Group membership is inferred from submit events; a member that never
  // logged a start leaves the group incomplete.
  std::map<GroupId, std::size_t> members;
  for (const JobEvent& e : log.events())
    if (e.kind == JobEventKind::kSubmit && e.group != kNoGroup)
      ++members[e.group];

  std::map<GroupId, std::vector<Time>> starts;
  for (const JobEvent& e : log.events())
    if (e.kind == JobEventKind::kStart && e.group != kNoGroup)
      starts[e.group].push_back(e.time);

  CoStartReport report;
  report.groups_total = members.size();
  for (const auto& [group, expected] : members) {
    auto it = starts.find(group);
    if (it == starts.end() || it->second.size() < expected) {
      ++report.groups_incomplete;
      continue;
    }
    const auto [lo, hi] =
        std::minmax_element(it->second.begin(), it->second.end());
    const Duration skew = *hi - *lo;
    report.max_skew = std::max(report.max_skew, skew);
    if (skew == 0) ++report.groups_co_started;
  }
  return report;
}

}  // namespace cosched
