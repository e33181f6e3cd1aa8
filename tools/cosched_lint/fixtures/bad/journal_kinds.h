// journal-coverage bad fixture: kDeltaNote has a writer and a name but its
// replay arm was deleted, and kGammaMark's replay arm rebuilds state that
// never reaches the snapshot field list.
#pragma once

enum class JournalRecordKind : std::uint8_t {
  kGammaMark = 1,
  kDeltaNote = 2,
};

class LossyLedger {
 public:
  void mark(std::int64_t t) {
    journal_->append(JournalRecordKind::kGammaMark, encode(t));
  }
  void note(std::int64_t t) {
    journal_->append(JournalRecordKind::kDeltaNote, encode(t));
  }

  const char* to_string(JournalRecordKind k) {
    switch (k) {
      case JournalRecordKind::kGammaMark:
        return "gamma";
      case JournalRecordKind::kDeltaNote:
        return "delta";
    }
    return "?";
  }

  void apply_record(const Record& r) {
    switch (r.kind) {
      case JournalRecordKind::kGammaMark:
        gamma_seen_ = r.value;
        break;
    }
  }

  auto snapshot_fields() { return std::tie(base_); }

 private:
  Journal* journal_ = nullptr;
  std::int64_t gamma_seen_ = 0;
  std::int64_t base_ = 0;
};
