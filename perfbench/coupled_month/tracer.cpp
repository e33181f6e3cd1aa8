#include "tracer.h"

#include <time.h>

#include <cassert>
#include <iomanip>

namespace perfbench {

namespace {

std::int64_t read_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

}  // namespace

std::int64_t monotonic_ns() { return read_clock(CLOCK_MONOTONIC); }
std::int64_t thread_cpu_ns() { return read_clock(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return read_clock(CLOCK_PROCESS_CPUTIME_ID); }

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kStep: return "engine.step";
    case SpanKind::kScore: return "policy.score";
    case SpanKind::kCall: return "peer.call";
    case SpanKind::kRoundtrip: return "peer.roundtrip";
    case SpanKind::kService: return "service.handle";
    case SpanKind::kJournalAppend: return "journal.append";
    case SpanKind::kJournalCommit: return "journal.commit";
    case SpanKind::kJournalReset: return "journal.reset";
    case SpanKind::kJournalContents: return "journal.contents";
  }
  return "?";
}

void Tracer::end() {
  assert(!stack_.empty());
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = clock_() - f.start;
  const std::size_t parent =
      stack_.empty() ? kRoot : static_cast<std::size_t>(stack_.back().kind);
  SpanTotals& t = edges_[static_cast<std::size_t>(f.kind)][parent];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - f.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

SpanTotals Tracer::totals(SpanKind kind) const {
  SpanTotals sum;
  for (const SpanTotals& t : edges_[static_cast<std::size_t>(kind)]) sum += t;
  return sum;
}

const SpanTotals& Tracer::edge(SpanKind kind, const SpanKind* parent) const {
  const std::size_t p =
      parent == nullptr ? kRoot : static_cast<std::size_t>(*parent);
  return edges_[static_cast<std::size_t>(kind)][p];
}

void Tracer::merge(const Tracer& other) {
  assert(stack_.empty() && other.stack_.empty());
  for (std::size_t k = 0; k < kSpanKinds; ++k)
    for (std::size_t p = 0; p <= kSpanKinds; ++p)
      edges_[k][p] += other.edges_[k][p];
}

void Tracer::write_table(std::ostream& out) const {
  out << std::left << std::setw(18) << "span" << std::setw(18) << "parent"
      << std::right << std::setw(12) << "count" << std::setw(16) << "total_ns"
      << std::setw(16) << "self_ns" << "\n";
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    for (std::size_t p = 0; p <= kSpanKinds; ++p) {
      const SpanTotals& t = edges_[k][p];
      if (t.count == 0) continue;
      out << std::left << std::setw(18)
          << span_name(static_cast<SpanKind>(k)) << std::setw(18)
          << (p == kRoot ? "-" : span_name(static_cast<SpanKind>(p)))
          << std::right << std::setw(12) << t.count << std::setw(16)
          << t.total_ns << std::setw(16) << t.self_ns << "\n";
    }
  }
}

}  // namespace perfbench
