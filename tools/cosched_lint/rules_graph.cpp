// The cross-file analyses of cosched_lint v2: journal-coverage,
// dispatch-exhaustiveness and lock-order.  All three run over the project
// index built by index.cpp; none of them re-reads source lines except to
// anchor findings.
#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "rules.h"

namespace cosched::lint {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string site(const ProjectIndex& ix, int file, int line) {
  return (*ix.files)[file].path + ":" + std::to_string(line);
}

/// Transitive closure of project functions reachable from `start`.
std::set<int> reachable(const ProjectIndex& ix, int start) {
  std::set<int> seen;
  std::deque<int> work{start};
  while (!work.empty()) {
    const int cur = work.front();
    work.pop_front();
    if (!seen.insert(cur).second) continue;
    for (const CallSite& c : ix.functions[cur].calls) {
      const int g = resolve_call(ix, c.name, ix.functions[cur].cls, c.receiver);
      if (g >= 0 && seen.count(g) == 0) work.push_back(g);
    }
  }
  return seen;
}

// -- rule: journal-coverage --------------------------------------------------
//
// Every JournalRecordKind enumerator must have (a) an append()/frame()
// writer site, (b) a replay case in apply_record/recover_from_journal,
// (c) a to_string name-table entry.  Additionally, any member a replay arm
// mutates, itself or through the methods of its own class it reaches (the
// applies the arms call), must appear in the class's snapshot field list
// (snapshot_fields, which the snapshot writer and reader share) —
// otherwise the state the record re-creates is silently dropped across a
// compaction.  That the writer and the reader agree, and that a list names
// every member of the types it holds, the compiler checks.
// Each category is gated on at least one enumerator of the enum having a
// site of that category, so a partially-modeled snippet set (unit-test
// fragments without a to_string) is not drowned in noise while a single
// missing kind in a fully-modeled tree is still caught.

void rule_journal_coverage_impl(const ProjectIndex& ix, RuleSink& sink) {
  // Writer sites: `JournalRecordKind::kX` appearing as an argument of an
  // append(...), commit(...), frame(...), or encode_frame(...) call (the
  // frame encoders cover the compaction/salvage paths that emit kSnapshot
  // directly).
  std::set<std::string> writers;
  for (const FileModel& fm : ix.file_model) {
    const std::vector<Token>& toks = fm.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].text != "JournalRecordKind" || toks[i + 1].text != "::" ||
          toks[i + 2].kind != Token::kIdent)
        continue;
      if (i >= 1 && toks[i - 1].text == "case") continue;
      if (i >= 2 && toks[i - 2].text == "case") continue;
      const std::size_t lo = i >= 8 ? i - 8 : 0;
      for (std::size_t k = lo; k < i; ++k) {
        if (toks[k].kind == Token::kIdent &&
            (toks[k].text == "append" || toks[k].text == "commit" ||
             toks[k].text == "frame" || toks[k].text == "encode_frame") &&
            k + 1 < toks.size() && toks[k + 1].text == "(") {
          writers.insert(toks[i + 2].text);
          break;
        }
      }
    }
  }

  std::set<std::string> replay_arms, name_arms;
  bool have_snapshot_fields = false;
  std::set<std::string> snapshot_tokens;
  for (const FunctionInfo& f : ix.functions) {
    // The salvage/fallback helpers carved out of recover_from_journal are
    // replay context too: a kind they route (or deliberately skip) counts.
    const bool is_replay =
        f.name == "apply_record" || f.name == "recover_from_journal" ||
        f.name == "apply_verified_snapshot" ||
        f.name == "replay_salvaged_tail";
    const bool is_name = f.name == "to_string";
    for (const CaseSite& cs : f.cases) {
      if (cs.enum_name != "JournalRecordKind") continue;
      if (is_replay) replay_arms.insert(cs.enumerator);
      if (is_name) name_arms.insert(cs.enumerator);
    }
    if (f.name == "snapshot_fields") {
      const std::vector<Token>& toks = ix.file_model[f.file].tokens;
      for (std::size_t t = f.body_begin; t < f.body_end && t < toks.size();
           ++t)
        if (toks[t].kind == Token::kIdent) snapshot_tokens.insert(toks[t].text);
      have_snapshot_fields = true;
    }
  }

  std::set<std::string> all_kinds;
  for (const EnumInfo& e : ix.enums) {
    if (e.name != "JournalRecordKind") continue;
    for (const Enumerator& en : e.enumerators) all_kinds.insert(en.name);

    const auto any_in = [&](const std::set<std::string>& s) {
      return std::any_of(e.enumerators.begin(), e.enumerators.end(),
                         [&](const Enumerator& en) {
                           return s.count(en.name) != 0;
                         });
    };
    const bool gate_writer = any_in(writers);
    const bool gate_replay = any_in(replay_arms);
    const bool gate_name = any_in(name_arms);

    for (const Enumerator& en : e.enumerators) {
      if (gate_writer && writers.count(en.name) == 0)
        sink.emit(e.file, en.line - 1, "journal-coverage",
                  "journal kind '" + en.name +
                      "' has no append() writer site anywhere in the scanned "
                      "tree — a dead record kind or a missing producer; add "
                      "the writer or waive with allow(journal-coverage)",
                  /*accepts_ordered=*/false);
      if (gate_replay && replay_arms.count(en.name) == 0)
        sink.emit(e.file, en.line - 1, "journal-coverage",
                  "journal kind '" + en.name +
                      "' has no replay case in apply_record/"
                      "recover_from_journal — a journaled record of this "
                      "kind would be dropped on recovery; add the arm or "
                      "waive with allow(journal-coverage)",
                  /*accepts_ordered=*/false);
      if (gate_name && name_arms.count(en.name) == 0)
        sink.emit(e.file, en.line - 1, "journal-coverage",
                  "journal kind '" + en.name +
                      "' is missing from the to_string() name table; add the "
                      "entry or waive with allow(journal-coverage)",
                  /*accepts_ordered=*/false);
    }
  }

  // Snapshot coverage of replay-arm state: the arm's own writes, and those
  // of every method of its class the arm reaches.
  if (!have_snapshot_fields) return;
  std::set<std::tuple<int, int, std::string>> reported;  // (file, line, member)
  for (const FunctionInfo& f : ix.functions) {
    if (f.name != "apply_record") continue;
    for (const CaseSite& cs : f.cases) {
      if (cs.enum_name != "JournalRecordKind" ||
          all_kinds.count(cs.enumerator) == 0)
        continue;
      const auto in_arm = [&cs](std::size_t token) {
        return token > cs.token && token < cs.arm_end;
      };
      std::vector<std::pair<int, const MutationSite*>> writes;  // (file, site)
      for (const MutationSite& m : f.mutations)
        if (in_arm(m.token)) writes.emplace_back(f.file, &m);
      std::set<int> applies;
      for (const CallSite& c : f.calls) {
        if (!in_arm(c.token)) continue;
        const int g = resolve_call(ix, c.name, f.cls, c.receiver);
        if (g < 0) continue;
        for (const int r : reachable(ix, g))
          if (ix.functions[r].cls == f.cls) applies.insert(r);
      }
      for (const int r : applies)
        for (const MutationSite& m : ix.functions[r].mutations)
          writes.emplace_back(ix.functions[r].file, &m);
      for (const auto& [file, site] : writes) {
        const MutationSite& m = *site;
        if (snapshot_tokens.count(m.member) != 0) continue;
        if (!reported.insert({file, m.line, m.member}).second) continue;
        sink.emit(file, m.line - 1, "journal-coverage",
                  "replay arm for '" + cs.enumerator + "' mutates '" +
                      m.member +
                      "' which never appears in snapshot_fields — state "
                      "rebuilt during replay would be lost across a "
                      "compaction; snapshot it or waive with "
                      "allow(journal-coverage)",
                  /*accepts_ordered=*/false);
      }
    }
  }

  // Snapshot-generation discipline: compaction rewrites the journal from its
  // *durable* image, so a function that rolls a new generation (calls both
  // write_snapshot and compact) with appended-but-uncommitted records still
  // buffered would silently splice them out of the log.  Require a commit
  // call before the compact in the same body.  set_journal (initial attach:
  // nothing buffered yet) and emergency_compact (runs *at* the commit
  // boundary, where a commit may be what just failed) are the two legitimate
  // commit-free shapes.
  for (const FunctionInfo& f : ix.functions) {
    if (f.name == "set_journal" || f.name == "emergency_compact") continue;
    const CallSite* compact_call = nullptr;
    bool writes_snapshot = false;
    bool committed_first = false;
    for (const CallSite& c : f.calls) {
      if (c.name == "write_snapshot") writes_snapshot = true;
      if (c.name == "compact" && compact_call == nullptr) compact_call = &c;
      if ((c.name == "commit" || c.name == "journal_commit") &&
          (compact_call == nullptr || c.token < compact_call->token))
        committed_first = true;
    }
    if (compact_call == nullptr || !writes_snapshot || committed_first)
      continue;
    std::string message = "'";
    message += f.qualified();
    message +=
        "' writes a snapshot generation (compact) without committing the "
        "journal first — compaction rewrites the durable image, so buffered "
        "records would be silently spliced out; commit() before compact() "
        "or waive with allow(journal-coverage)";
    sink.emit(f.file, compact_call->line - 1, "journal-coverage",
              std::move(message), /*accepts_ordered=*/false);
  }
}

// -- rule: dispatch-exhaustiveness -------------------------------------------
//
// Every k*Req enumerator of MsgType must have a `case` arm in a dispatch()
// function, and any arm whose effect is reached *through a helper call*
// (the direct-call case is dedup-before-reply's) must still record a dedup
// verdict somewhere on that path before the reply.

bool call_is_effectful(const CallSite& c) {
  if (c.receiver.find("service") == std::string::npos) return false;
  return c.name == "try_start_mate" || c.name == "start_job" ||
         c.name.rfind("gang_", 0) == 0;
}

void rule_dispatch_exhaustiveness_impl(const ProjectIndex& ix,
                                       RuleSink& sink) {
  std::set<std::string> arms;
  std::vector<int> dispatchers;
  for (std::size_t i = 0; i < ix.functions.size(); ++i) {
    const FunctionInfo& f = ix.functions[i];
    if (f.name != "dispatch") continue;
    dispatchers.push_back(static_cast<int>(i));
    for (const CaseSite& cs : f.cases)
      if (cs.enum_name == "MsgType") arms.insert(cs.enumerator);
  }

  for (const EnumInfo& e : ix.enums) {
    if (e.name != "MsgType") continue;
    const bool gate =
        std::any_of(e.enumerators.begin(), e.enumerators.end(),
                    [&](const Enumerator& en) {
                      return ends_with(en.name, "Req") &&
                             arms.count(en.name) != 0;
                    });
    if (!gate) continue;
    for (const Enumerator& en : e.enumerators) {
      if (!ends_with(en.name, "Req") || arms.count(en.name) != 0) continue;
      sink.emit(e.file, en.line - 1, "dispatch-exhaustiveness",
                "message type '" + en.name +
                    "' has no case arm in any dispatch() — requests of this "
                    "type fall through without dedup/fencing treatment; add "
                    "the dispatcher arm or waive with "
                    "allow(dispatch-exhaustiveness)",
                /*accepts_ordered=*/false);
    }
  }

  // Helper-mediated effects: a dispatcher arm that reaches try_start_mate /
  // start_job / gang_* through a called function must record a verdict
  // either in the arm or inside the helper chain.
  for (const int di : dispatchers) {
    const FunctionInfo& f = ix.functions[di];
    for (const CaseSite& cs : f.cases) {
      if (cs.enumerator == "default") continue;
      bool direct_effect = false, direct_record = false;
      std::vector<const CallSite*> arm_calls;
      for (const CallSite& c : f.calls) {
        if (c.token <= cs.token || c.token >= cs.arm_end) continue;
        if (call_is_effectful(c)) direct_effect = true;
        if (c.name == "record") direct_record = true;
        arm_calls.push_back(&c);
      }
      if (direct_effect) continue;  // dedup-before-reply owns this shape
      bool trans_effect = false, trans_record = direct_record;
      std::string via;
      for (const CallSite* c : arm_calls) {
        const int g = resolve_call(ix, c->name, f.cls, c->receiver);
        if (g < 0) continue;
        for (const int r : reachable(ix, g)) {
          for (const CallSite& rc : ix.functions[r].calls) {
            if (call_is_effectful(rc) && !trans_effect) {
              trans_effect = true;
              via = c->name;
            }
            if (rc.name == "record") trans_record = true;
          }
        }
      }
      if (trans_effect && !trans_record)
        sink.emit(f.file, cs.line - 1, "dispatch-exhaustiveness",
                  "dispatcher arm for '" + cs.enumerator +
                      "' reaches a side-effecting service call through '" +
                      via +
                      "' without recording a dedup verdict before the "
                      "reply; call RpcDedup::record on the path or waive "
                      "with allow(dispatch-exhaustiveness)",
                  /*accepts_ordered=*/false);
    }
  }
}

// -- rule: lock-order --------------------------------------------------------
//
// Builds the mutex acquisition graph: an edge A -> B when B is acquired
// (directly, or transitively through a resolvable call) while A is held —
// held meaning an enclosing MutexLock scope or a REQUIRES(A) annotation on
// the function.  Any cycle is a potential deadlock.

struct EdgeSite {
  int file = 0;
  int line = 0;
};

void rule_lock_order_impl(const ProjectIndex& ix, RuleSink& sink) {
  const std::size_t n = ix.functions.size();

  // Transitive may-acquire sets, propagated to a fixpoint over resolvable
  // call edges (the graph is tiny; iterate until stable).
  std::vector<std::set<std::string>> acq(n);
  for (std::size_t i = 0; i < n; ++i)
    for (const LockSite& l : ix.functions[i].locks) acq[i].insert(l.mutex);
  bool changed = true;
  for (int pass = 0; changed && pass < 64; ++pass) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      for (const CallSite& c : ix.functions[i].calls) {
        const int g = resolve_call(ix, c.name, ix.functions[i].cls, c.receiver);
        if (g < 0) continue;
        for (const std::string& m : acq[g])
          if (acq[i].insert(m).second) changed = true;
      }
    }
  }

  std::map<std::pair<std::string, std::string>, EdgeSite> edges;
  const auto add_edge = [&](const std::string& from, const std::string& to,
                            int file, int line) {
    edges.emplace(std::make_pair(from, to), EdgeSite{file, line});
  };

  for (std::size_t i = 0; i < n; ++i) {
    const FunctionInfo& f = ix.functions[i];
    for (const LockSite& l : f.locks) {
      for (const LockSite& l2 : f.locks)
        if (l2.token > l.token && l2.token <= l.scope_end)
          add_edge(l.mutex, l2.mutex, f.file, l2.line);
      for (const CallSite& c : f.calls) {
        if (c.token <= l.token || c.token > l.scope_end) continue;
        const int g = resolve_call(ix, c.name, f.cls, c.receiver);
        if (g < 0) continue;
        for (const std::string& m : acq[g])
          add_edge(l.mutex, m, f.file, c.line);
      }
    }
    // REQUIRES(A): everything this function acquires is acquired with A
    // already held by the caller.
    auto [lo, hi] = ix.requires_mutexes.equal_range(f.qualified());
    for (auto it = lo; it != hi; ++it) {
      for (const LockSite& l : f.locks)
        add_edge(it->second, l.mutex, f.file, l.line);
      for (const CallSite& c : f.calls) {
        const int g = resolve_call(ix, c.name, f.cls, c.receiver);
        if (g < 0) continue;
        for (const std::string& m : acq[g])
          add_edge(it->second, m, f.file, c.line);
      }
    }
  }

  // Cycle detection over the edge set (nodes iterated in sorted order for
  // deterministic reports; each distinct node set reported once).
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [edge, _] : edges) adj[edge.first].push_back(edge.second);
  for (auto& [_, outs] : adj) std::sort(outs.begin(), outs.end());

  std::set<std::string> reported_cycles;
  std::map<std::string, int> color;  // 0 = new, 1 = on stack, 2 = done
  std::vector<std::string> stack;

  const std::function<void(const std::string&)> dfs =
      [&](const std::string& node) {
        color[node] = 1;
        stack.push_back(node);
        for (const std::string& next : adj[node]) {
          if (color[next] == 1) {
            // Found a cycle: node path from `next` to the stack top.
            const auto begin =
                std::find(stack.begin(), stack.end(), next);
            std::vector<std::string> cycle(begin, stack.end());
            std::vector<std::string> key = cycle;
            std::sort(key.begin(), key.end());
            std::string key_str;
            for (const std::string& k : key) key_str += k + "|";
            if (!reported_cycles.insert(key_str).second) continue;

            // Compose the report: each edge of the cycle with its site;
            // anchor at the smallest (file, line) edge site.
            std::string desc;
            int anchor_file = -1, anchor_line = 0;
            for (std::size_t ci = 0; ci < cycle.size(); ++ci) {
              const std::string& from = cycle[ci];
              const std::string& to = cycle[(ci + 1) % cycle.size()];
              const auto it = edges.find({from, to});
              if (it == edges.end()) continue;
              if (!desc.empty()) desc += "; ";
              desc += to + " acquired at " +
                      site(ix, it->second.file, it->second.line) +
                      " while holding " + from;
              if (anchor_file < 0 ||
                  std::make_pair((*ix.files)[it->second.file].path,
                                 it->second.line) <
                      std::make_pair((*ix.files)[anchor_file].path,
                                     anchor_line)) {
                anchor_file = it->second.file;
                anchor_line = it->second.line;
              }
            }
            std::string names;
            for (const std::string& cn : cycle) names += cn + " -> ";
            names += cycle.front();
            if (anchor_file >= 0)
              sink.emit(anchor_file, anchor_line - 1, "lock-order",
                        "mutex acquisition cycle " + names + " (" + desc +
                            ") — lock both in one fixed order or waive "
                            "with allow(lock-order)",
                        /*accepts_ordered=*/false);
            continue;
          }
          if (color[next] == 0) dfs(next);
        }
        stack.pop_back();
        color[node] = 2;
      };
  for (const auto& [node, _] : adj)
    if (color[node] == 0) dfs(node);
}

}  // namespace

void rule_journal_coverage(const ProjectIndex& index, RuleSink& sink) {
  rule_journal_coverage_impl(index, sink);
}

void rule_dispatch_exhaustiveness(const ProjectIndex& index, RuleSink& sink) {
  rule_dispatch_exhaustiveness_impl(index, sink);
}

void rule_lock_order(const ProjectIndex& index, RuleSink& sink) {
  rule_lock_order_impl(index, sink);
}

}  // namespace cosched::lint
