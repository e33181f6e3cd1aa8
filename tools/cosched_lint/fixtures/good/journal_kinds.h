// journal-coverage good fixture: every kind has a writer, a replay arm, a
// name-table entry, and its replay-arm state is snapshotted.
#pragma once

enum class JournalRecordKind : std::uint8_t {
  kAlphaMark = 1,
  kBetaNote = 2,
};

class Ledger {
 public:
  void mark(std::int64_t t) {
    journal_->append(JournalRecordKind::kAlphaMark, encode(t));
  }
  void note(std::int64_t t) {
    journal_->append(JournalRecordKind::kBetaNote, encode(t));
  }

  const char* to_string(JournalRecordKind k) {
    switch (k) {
      case JournalRecordKind::kAlphaMark:
        return "alpha";
      case JournalRecordKind::kBetaNote:
        return "beta";
    }
    return "?";
  }

  void apply_record(const Record& r) {
    switch (r.kind) {
      case JournalRecordKind::kAlphaMark:
        alpha_at_ = r.value;
        break;
      case JournalRecordKind::kBetaNote:
        beta_count_ += 1;
        break;
    }
  }

  auto snapshot_fields() { return std::tie(alpha_at_, beta_count_); }

 private:
  Journal* journal_ = nullptr;
  std::int64_t alpha_at_ = 0;
  std::int64_t beta_count_ = 0;
};
