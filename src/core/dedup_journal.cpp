#include "core/dedup_journal.h"

#include <cstdint>

#include "proto/durable.h"

namespace cosched {

namespace {

/// A kDedup record's payload.
struct DedupRecord {
  std::uint64_t incarnation = 0;
  std::uint64_t rid = 0;
  MsgType op = MsgType::kErrorResp;
  bool verdict = false;
  COSCHED_FIELDS(DedupRecord, incarnation, rid, op, verdict)
};

}  // namespace

void bind_dedup_journal(RpcDedup& dedup, Journal& journal) {
  dedup.set_persist([&journal](std::uint64_t inc, std::uint64_t rid,
                               MsgType op, bool verdict) {
    WireWriter w;
    put(w, DedupRecord{inc, rid, op, verdict});
    journal.append(JournalRecordKind::kDedup, w.bytes());
    // Commit here, not at the entry-point boundary: the dispatcher builds
    // the reply as soon as record() returns, so this is the last point
    // before the verdict becomes externally visible.
    journal.commit();
  });
}

void apply_dedup_record(RpcDedup& dedup, const JournalRecord& rec) {
  WireReader r(rec.payload);
  DedupRecord d;
  get(r, d);
  dedup.insert_restored(d.incarnation, d.rid, d.op, d.verdict);
}

}  // namespace cosched
