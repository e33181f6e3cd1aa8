// Span tracer for the coupled-month benchmark.
//
// Spans are opened and closed around calls at the simulator's public layer
// boundaries (Engine::step, PriorityPolicy, PeerClient, CoschedService,
// JournalSink).  A month produces millions of spans, so they are not kept
// one by one: each close is folded into a per-(span, parent) aggregate of
// count, total time and self time, where self time is the span's duration
// minus the time covered by its direct children.  The aggregate table is
// written when the run ends.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

/// Nanosecond clock.  Injected so tests can drive the tracer with synthetic
/// timestamps.
using ClockFn = std::int64_t (*)();

std::int64_t monotonic_ns();
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();

/// Layer boundaries the benchmark records spans at.
enum class SpanKind : std::uint8_t {
  kStep,             ///< Engine::step (one event)
  kScore,            ///< PriorityPolicy::score
  kCall,             ///< PeerClient as Algorithm 1 calls it (fault plane in)
  kRoundtrip,        ///< PeerClient under the fault plane (loopback codec)
  kService,          ///< CoschedService handler on the remote domain
  kJournalAppend,    ///< JournalSink::append
  kJournalCommit,    ///< JournalSink::commit
  kJournalReset,     ///< JournalSink::reset (compaction rewrite)
  kJournalContents,  ///< JournalSink::contents
};
inline constexpr std::size_t kSpanKinds = 9;

const char* span_name(SpanKind kind);

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;

  SpanTotals& operator+=(const SpanTotals& o) {
    count += o.count;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
    return *this;
  }
};

class Tracer {
 public:
  explicit Tracer(ClockFn clock = monotonic_ns) : clock_(clock) {}

  void begin(SpanKind kind) { stack_.push_back({kind, clock_(), 0}); }
  void end();

  /// Totals of every span of `kind`, whatever its parent.
  SpanTotals totals(SpanKind kind) const;

  /// Totals of the spans of `kind` opened directly under a `parent` span;
  /// `parent` == nullptr selects root spans.
  const SpanTotals& edge(SpanKind kind, const SpanKind* parent) const;

  std::size_t open_spans() const { return stack_.size(); }

  /// Adds another tracer's aggregates (both must have no open spans).
  void merge(const Tracer& other);

  /// One line per (span, parent) pair with count, total and self time.
  void write_table(std::ostream& out) const;

 private:
  struct Frame {
    SpanKind kind;
    std::int64_t start;
    std::int64_t child_ns;
  };
  static constexpr std::size_t kRoot = kSpanKinds;

  ClockFn clock_;
  std::vector<Frame> stack_;
  /// edges_[kind][parent], parent == kRoot for spans opened at the top.
  std::array<std::array<SpanTotals, kSpanKinds + 1>, kSpanKinds> edges_{};
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(kind);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
