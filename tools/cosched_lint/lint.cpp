// cosched_lint driver: blanks each file's comments and strings into a code
// view, gathers the unordered-container declarations the rules resolve
// names against, runs the rules through one waiver-aware sink, and renders
// text/JSON reports.
#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace cosched::lint {

namespace {

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Blanks // comments and string/char literal contents: rules must never
/// fire on prose.
std::string code_view(const std::string& raw) {
  std::string out = raw;
  bool in_str = false, in_chr = false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    if (in_str) {
      if (c == '\\') {
        if (i + 1 < out.size()) out[i + 1] = ' ';
        out[i] = ' ';
        ++i;
      } else if (c == '"') {
        in_str = false;
      } else {
        out[i] = ' ';
      }
    } else if (in_chr) {
      if (c == '\\') {
        if (i + 1 < out.size()) out[i + 1] = ' ';
        out[i] = ' ';
        ++i;
      } else if (c == '\'') {
        in_chr = false;
      } else {
        out[i] = ' ';
      }
    } else if (c == '"') {
      in_str = true;
    } else if (c == '\'' && i > 0 && !is_ident_char(out[i - 1])) {
      in_chr = true;
    } else if (c == '/' && i + 1 < out.size() && out[i + 1] == '/') {
      out.resize(i);
      break;
    } else if (c == '/' && i + 1 < out.size() && out[i + 1] == '*') {
      // Blank a same-line /*...*/ span, so an inline argument comment does
      // not hide the rest of the line; an unterminated block comment
      // truncates it.
      const std::size_t close = out.find("*/", i + 2);
      if (close == std::string::npos) {
        out.resize(i);
        break;
      }
      for (std::size_t k = i; k < close + 2; ++k) out[k] = ' ';
      i = close + 1;
    }
  }
  return out;
}

/// Names of variables declared with an unordered container type, and names
/// of accessor functions returning references to one (or, for
/// `ordered_accessors`, to an ordered container).
struct UnorderedDecls {
  std::set<std::string> vars;
  std::set<std::string> accessors;
  std::set<std::string> ordered_accessors;
};

void scan_container_decls(const std::vector<std::string>& code,
                          const char* const* types, std::size_t n_types,
                          std::set<std::string>* vars,
                          std::set<std::string>* accessors) {
  for (const std::string& codeline : code) {
    for (std::size_t t = 0; t < n_types; ++t) {
      const char* type = types[t];
      std::size_t pos = 0;
      while ((pos = codeline.find(type, pos)) != std::string::npos) {
        // Identifier boundary so "map" never matches inside "unordered_map".
        if (pos > 0 && is_ident_char(codeline[pos - 1])) {
          pos += 1;
          continue;
        }
        std::size_t i = pos + std::string(type).size();
        pos = i;
        if (i >= codeline.size() || codeline[i] != '<') continue;
        int depth = 0;
        for (; i < codeline.size(); ++i) {
          if (codeline[i] == '<') ++depth;
          if (codeline[i] == '>' && --depth == 0) break;
        }
        if (i >= codeline.size()) continue;  // args continue on the next line
        ++i;
        while (i < codeline.size() &&
               (is_space(codeline[i]) || codeline[i] == '&' ||
                codeline[i] == '*'))
          ++i;
        std::size_t name_begin = i;
        while (i < codeline.size() && is_ident_char(codeline[i])) ++i;
        if (i == name_begin) continue;  // e.g. "#include <unordered_map>"
        const std::string name = codeline.substr(name_begin, i - name_begin);
        while (i < codeline.size() && is_space(codeline[i])) ++i;
        if (i < codeline.size() && codeline[i] == '(') {
          if (accessors != nullptr) accessors->insert(name);
        } else {
          if (vars != nullptr) vars->insert(name);
        }
      }
    }
  }
}

void scan_unordered_decls(const std::vector<std::string>& code,
                          UnorderedDecls& out) {
  static const char* kUnordered[] = {"unordered_map", "unordered_set",
                                     "unordered_multimap",
                                     "unordered_multiset"};
  static const char* kOrdered[] = {"vector",   "map",   "set",   "multimap",
                                   "multiset", "deque", "array", "list"};
  scan_container_decls(code, kUnordered, std::size(kUnordered), &out.vars,
                       &out.accessors);
  scan_container_decls(code, kOrdered, std::size(kOrdered), nullptr,
                       &out.ordered_accessors);
}

/// One waiver comment found in the tree.  `used` flips when a finding is
/// suppressed by it; the driver reports the leftovers so stale waivers are
/// visible (the ordered()-audit workflow).
struct WaiverRecord {
  int file = 0;
  int line0 = 0;  ///< 0-based line holding the comment
  bool ordered = false;
  std::string rule;  ///< for allow(<rule>) waivers
  bool used = false;
};

/// Central finding sink: applies waiver lookup (same line or line above),
/// splits findings/waived, and marks consumed waivers.
struct RuleSink {
  const std::vector<SourceFile>* files = nullptr;
  Report* report = nullptr;
  std::vector<WaiverRecord>* waivers = nullptr;

  void emit(int file, int line0, const std::string& rule, std::string message,
            bool accepts_ordered);
};

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// True when `token` occurs in `code` with no identifier character
/// immediately before it (so "rand(" does not match "srand(").
bool has_token(const std::string& code, const std::string& token) {
  std::size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    if (pos == 0 || !is_ident_char(code[pos - 1])) return true;
    pos += 1;
  }
  return false;
}

std::string file_stem(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

bool has_component(const std::string& path, const std::string& dir) {
  const std::filesystem::path p(path);
  return std::any_of(p.begin(), p.end(),
                     [&dir](const auto& part) { return part == dir; });
}

/// Scans the tree for waiver comments up front, so the sink can both apply
/// them (finding line or the line directly above) and report the ones
/// nothing consumed.
std::vector<WaiverRecord> scan_waivers(const std::vector<SourceFile>& files) {
  std::vector<WaiverRecord> out;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::vector<std::string>& raw = files[fi].lines;
    for (std::size_t li = 0; li < raw.size(); ++li) {
      const std::string& line = raw[li];
      if (line.find("cosched-lint: ordered(") != std::string::npos) {
        WaiverRecord w;
        w.file = static_cast<int>(fi);
        w.line0 = static_cast<int>(li);
        w.ordered = true;
        out.push_back(std::move(w));
      }
      const std::size_t a = line.find("cosched-lint: allow(");
      if (a != std::string::npos) {
        const std::size_t open = a + std::string("cosched-lint: allow(").size();
        const std::size_t close = line.find(')', open);
        if (close != std::string::npos) {
          WaiverRecord w;
          w.file = static_cast<int>(fi);
          w.line0 = static_cast<int>(li);
          w.rule = line.substr(open, close - open);
          out.push_back(std::move(w));
        }
      }
    }
  }
  return out;
}

/// Extracts the sequence expression of a single-line range-for, or "" when
/// the line is not one.
std::string range_for_sequence(const std::string& code) {
  std::size_t f = code.find("for (");
  if (f == std::string::npos) f = code.find("for(");
  if (f == std::string::npos) return "";
  const std::size_t open = code.find('(', f);
  if (open == std::string::npos) return "";
  int depth = 0;
  std::size_t close = std::string::npos, colon = std::string::npos;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '(') ++depth;
    if (code[i] == ')' && --depth == 0) {
      close = i;
      break;
    }
    // A range-for colon: top-level inside the for parens, not "::", not "?:"
    // (the tree has no ternaries in for headers).
    if (code[i] == ':' && depth == 1) {
      const bool scope = (i + 1 < code.size() && code[i + 1] == ':') ||
                         (i > 0 && code[i - 1] == ':');
      if (!scope && colon == std::string::npos) colon = i;
    }
  }
  if (close == std::string::npos || colon == std::string::npos) return "";
  return trim(code.substr(colon + 1, close - colon - 1));
}

/// Trailing call name of "obj.name()" / "obj->name()" / "name()", else "".
std::string trailing_call_name(const std::string& seq) {
  if (seq.size() < 3 || seq.substr(seq.size() - 2) != "()") return "";
  std::size_t e = seq.size() - 2;
  std::size_t b = e;
  while (b > 0 && is_ident_char(seq[b - 1])) --b;
  if (b == e) return "";
  return seq.substr(b, e - b);
}

/// Per-file context for the line rules.
struct FileContext {
  int file = 0;
  const SourceFile* src = nullptr;
  const std::vector<std::string>* code = nullptr;  ///< code_view lines
  /// Unordered variables declared in any file sharing this one's stem.
  const std::set<std::string>* vars = nullptr;
  /// Accessors returning an unordered container, from every file.
  const std::set<std::string>* accessors = nullptr;
};

// -- rule: banned-call -------------------------------------------------------

void rule_banned_call(const FileContext& ctx, RuleSink& sink) {
  static const char* kDirs[] = {"core", "sched", "sim", "workload"};
  const bool in_scope = std::any_of(
      std::begin(kDirs), std::end(kDirs),
      [&](const char* d) { return has_component(ctx.src->path, d); });
  if (!in_scope) return;
  for (std::size_t i = 0; i < ctx.code->size(); ++i) {
    const std::string& code = (*ctx.code)[i];
    if (has_token(code, "rand(") || has_token(code, "srand"))
      sink.emit(ctx.file, static_cast<int>(i), "banned-call",
                "libc PRNG breaks deterministic replay; use util/rng.h",
                /*accepts_ordered=*/false);
    if (code.find("system_clock") != std::string::npos)
      sink.emit(ctx.file, static_cast<int>(i), "banned-call",
                "wall clock in deterministic code; use engine time or "
                "steady_clock",
                /*accepts_ordered=*/false);
    if (has_token(code, "time(")) {
      // Only the wall-clock forms: time(), time(nullptr), time(NULL), time(0).
      std::size_t pos = code.find("time(");
      while (pos != std::string::npos) {
        if (pos == 0 || !is_ident_char(code[pos - 1])) {
          const std::size_t close = code.find(')', pos);
          if (close != std::string::npos) {
            const std::string arg = trim(code.substr(pos + 5, close - pos - 5));
            if (arg.empty() || arg == "nullptr" || arg == "NULL" ||
                arg == "0") {
              sink.emit(ctx.file, static_cast<int>(i), "banned-call",
                        "wall clock in deterministic code; use engine time",
                        /*accepts_ordered=*/false);
              break;
            }
          }
        }
        pos = code.find("time(", pos + 1);
      }
    }
  }
}

// -- rule: unordered-iter ----------------------------------------------------

void rule_unordered_iter(const FileContext& ctx, RuleSink& sink) {
  for (std::size_t i = 0; i < ctx.code->size(); ++i) {
    const std::string& code = (*ctx.code)[i];

    const std::string seq = range_for_sequence(code);
    if (!seq.empty()) {
      bool hit = false;
      if (std::all_of(seq.begin(), seq.end(), is_ident_char) &&
          ctx.vars->count(seq)) {
        hit = true;
      } else {
        const std::string call = trailing_call_name(seq);
        if (!call.empty() && ctx.accessors->count(call)) hit = true;
      }
      if (hit)
        sink.emit(ctx.file, static_cast<int>(i), "unordered-iter",
                  "iteration over unordered container '" + seq +
                      "' — hash order may leak into fingerprints/metrics/"
                      "output; sort first or waive with ordered(<reason>)",
                  /*accepts_ordered=*/true);
    }

    for (const std::string& var : *ctx.vars) {
      const std::string pat = var + ".begin(";
      std::size_t pos = 0;
      bool flagged = false;
      while (!flagged && (pos = code.find(pat, pos)) != std::string::npos) {
        if (pos == 0 || !is_ident_char(code[pos - 1])) {
          sink.emit(ctx.file, static_cast<int>(i), "unordered-iter",
                    "iterator range over unordered container '" + var +
                        "' — sort first or waive with ordered(<reason>)",
                    /*accepts_ordered=*/true);
          flagged = true;
        }
        pos += 1;
      }
    }
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void json_findings(std::ostringstream& os, const char* key,
                   const std::vector<Finding>& v) {
  os << "  \"" << key << "\": [";
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"file\": \"" << json_escape(v[i].file) << "\", \"line\": "
       << v[i].line << ", \"rule\": \"" << json_escape(v[i].rule)
       << "\", \"message\": \"" << json_escape(v[i].message) << "\"}";
  }
  os << (v.empty() ? "]" : "\n  ]");
}

void RuleSink::emit(int file, int line0, const std::string& rule,
                    std::string message, bool accepts_ordered) {
  const std::vector<std::string>& raw = (*files)[file].lines;
  const auto match_line = [&](int li) -> int {
    // Returns 1 for ordered(), 2 for allow(rule), 0 for no waiver.
    if (li < 0 || li >= static_cast<int>(raw.size())) return 0;
    const std::string& line = raw[li];
    if (accepts_ordered &&
        line.find("cosched-lint: ordered(") != std::string::npos)
      return 1;
    if (line.find("cosched-lint: allow(" + rule + ")") != std::string::npos)
      return 2;
    return 0;
  };
  int waiver_line = line0;
  int kind = match_line(line0);
  if (kind == 0) {
    kind = match_line(line0 - 1);
    waiver_line = line0 - 1;
  }

  Finding f{(*files)[file].path, line0 + 1, rule, std::move(message)};
  if (kind == 0) {
    report->findings.push_back(std::move(f));
    return;
  }
  if (kind == 1)
    ++report->ordered_waivers_used;
  else
    ++report->allow_waivers_used;
  report->waived.push_back(std::move(f));
  if (waivers != nullptr) {
    for (WaiverRecord& w : *waivers) {
      if (w.file != file || w.line0 != waiver_line) continue;
      if (kind == 1 && w.ordered) w.used = true;
      if (kind == 2 && !w.ordered && w.rule == rule) w.used = true;
    }
  }
}

}  // namespace

std::vector<std::string> split_lines(const std::string& contents) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : contents) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else if (c != '\r') {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

Report run_lint(const std::vector<SourceFile>& files) {
  Report report;
  report.files_scanned = files.size();

  // Each file's code view and its unordered-container declarations.  The
  // variables are merged by file stem (a .cpp sees its header's members);
  // accessor names apply to every file, except those some file also
  // declares returning an ordered container, which a textual matcher
  // cannot tell apart.
  std::vector<std::vector<std::string>> code(files.size());
  std::map<std::string, std::set<std::string>> vars_by_stem;
  UnorderedDecls all;
  for (std::size_t i = 0; i < files.size(); ++i) {
    code[i].reserve(files[i].lines.size());
    for (const std::string& l : files[i].lines) code[i].push_back(code_view(l));
    UnorderedDecls d;
    scan_unordered_decls(code[i], d);
    vars_by_stem[file_stem(files[i].path)].insert(d.vars.begin(),
                                                  d.vars.end());
    all.accessors.insert(d.accessors.begin(), d.accessors.end());
    all.ordered_accessors.insert(d.ordered_accessors.begin(),
                                 d.ordered_accessors.end());
  }
  for (const std::string& name : all.ordered_accessors)
    all.accessors.erase(name);
  std::vector<WaiverRecord> waivers = scan_waivers(files);

  RuleSink sink;
  sink.files = &files;
  sink.report = &report;
  sink.waivers = &waivers;

  for (std::size_t i = 0; i < files.size(); ++i) {
    FileContext ctx;
    ctx.file = static_cast<int>(i);
    ctx.src = &files[i];
    ctx.code = &code[i];
    ctx.vars = &vars_by_stem[file_stem(files[i].path)];
    ctx.accessors = &all.accessors;

    rule_banned_call(ctx, sink);
    rule_unordered_iter(ctx, sink);
  }

  for (const WaiverRecord& w : waivers) {
    if (w.used) continue;
    report.unused_waivers.push_back(Finding{
        files[w.file].path, w.line0 + 1, "unused-waiver",
        std::string(w.ordered ? "ordered(...)" : "allow(" + w.rule + ")") +
            " waiver suppressed no finding — stale debt; remove it"});
  }

  const auto by_location = [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  };
  std::sort(report.findings.begin(), report.findings.end(), by_location);
  std::sort(report.waived.begin(), report.waived.end(), by_location);
  std::sort(report.unused_waivers.begin(), report.unused_waivers.end(),
            by_location);
  return report;
}

bool lint_paths(const std::vector<std::string>& roots, Report& out,
                std::string& error) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(root, ec)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext == ".h" || ext == ".cpp" || ext == ".cc" || ext == ".hpp")
          paths.push_back(entry.path().string());
      }
      if (ec) {
        error = root + ": " + ec.message();
        return false;
      }
    } else if (fs::is_regular_file(root, ec)) {
      paths.push_back(root);
    } else {
      error = root + ": not a file or directory";
      return false;
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& p : paths) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      error = p + ": cannot open";
      return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    files.push_back(SourceFile{p, split_lines(ss.str())});
  }
  out = run_lint(files);
  return true;
}

std::string to_string(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

std::string to_json(const Report& r) {
  // Per-rule tallies over a stable rule list (plus anything else seen), so
  // CI tables have fixed rows run over run.
  static const char* kKnownRules[] = {"banned-call", "unordered-iter"};
  // rule -> (findings, waived)
  std::map<std::string, std::pair<int, int>> rules;
  for (const char* k : kKnownRules) rules[k] = {0, 0};
  for (const Finding& f : r.findings) ++rules[f.rule].first;
  for (const Finding& f : r.waived) ++rules[f.rule].second;

  std::ostringstream os;
  os << "{\n";
  os << "  \"files_scanned\": " << r.files_scanned << ",\n";
  os << "  \"ordered_waivers\": " << r.ordered_waivers_used << ",\n";
  os << "  \"allow_waivers\": " << r.allow_waivers_used << ",\n";
  json_findings(os, "findings", r.findings);
  os << ",\n";
  json_findings(os, "waived", r.waived);
  os << ",\n";
  json_findings(os, "unused_waivers", r.unused_waivers);
  os << ",\n";
  os << "  \"rules\": {";
  bool first = true;
  for (const auto& [rule, counts] : rules) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    \"" << json_escape(rule) << "\": {\"findings\": "
       << counts.first << ", \"waived\": " << counts.second << "}";
  }
  os << "\n  }\n}\n";
  return os.str();
}

}  // namespace cosched::lint
