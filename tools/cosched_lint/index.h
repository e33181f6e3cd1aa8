// Whole-project model for cosched_lint v2.
//
// Every file is parsed once by a lightweight tokenizer into a shared
// symbol/annotation index; the rules then run over the index instead of
// re-deriving structure from raw lines.  The index records:
//
//   - the token stream of every file (comments/strings blanked),
//   - function definitions with class qualification and body token ranges,
//   - call sites (callee name + receiver chain) inside each body,
//   - `case Enum::kX:` labels with their arm extents (journal replay and
//     message dispatch exhaustiveness),
//   - enum definitions and their enumerators (JournalRecordKind, MsgType),
//   - cosched::MutexLock acquisition sites with block scopes, plus
//     REQUIRES(...) thread-safety annotations (lock-order),
//   - member mutations (`foo_ = / += / ++ ...`, optional one subscript,
//     directly or through a chain of fields: `foo_.a.b = ...`),
//   - unordered-container declarations and accessor names (unordered-iter).
//
// The tokenizer is deliberately not a C++ parser: it is line-oriented on
// top of the same comment/string blanking the v1 linter used, so rule
// behavior over the existing fixtures is preserved while the cross-file
// analyses get real structure to walk.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.h"

namespace cosched::lint {

struct Token {
  enum Kind : std::uint8_t { kIdent, kNumber, kPunct };
  Kind kind = kPunct;
  std::string text;
  int line = 0;  ///< 1-based
  int col = 0;   ///< 0-based column in the code view of that line
};

/// A call site inside a function body: `receiver.name(` / `receiver->name(`
/// / `name(`, or a member-function reference `&Cls::name` (receiver "Cls").
/// The receiver chain is joined verbatim ("config_.dedup", "sched_",
/// "std").
struct CallSite {
  std::string name;
  std::string receiver;
  int line = 0;
  std::size_t token = 0;  ///< index of the name token in the file stream
};

/// A cosched::MutexLock acquisition.  `scope_end` is the token index of the
/// closing brace of the block holding the guard (the lock is held for
/// tokens in (token, scope_end)).
struct LockSite {
  std::string mutex;  ///< qualified, e.g. "WirePeer::mutex_" or "g_sink_mutex"
  int line = 0;
  std::size_t token = 0;
  std::size_t scope_end = 0;
};

/// A write to a `_`-suffixed member through implicit/explicit `this`:
/// an assignment/increment or a mutating method call (`m_.insert(...)`,
/// `m_[k]`), made on the member itself or on one of its fields
/// (`m_.a.insert(...)`, `++m_.a.b`).
struct MutationSite {
  std::string member;
  int line = 0;
  std::size_t token = 0;
};

/// A `case Enum::kX:` (or unscoped `case kX:`) label.  `arm_end` is the
/// token index where the arm's statements end (the next case/default label
/// in the same function, or the function body end).
struct CaseSite {
  std::string enum_name;
  std::string enumerator;
  int line = 0;
  std::size_t token = 0;
  std::size_t arm_end = 0;
};

struct FunctionInfo {
  std::string cls;   ///< qualifying/enclosing class ("" for free functions)
  std::string name;
  int file = -1;     ///< index into the linted file set
  int line = 0;      ///< line of the definition's name token
  int body_first_line = 0;  ///< line of the opening brace
  int body_last_line = 0;   ///< line of the closing brace
  std::size_t body_begin = 0;  ///< token index of '{'
  std::size_t body_end = 0;    ///< token index of matching '}'
  std::vector<CallSite> calls;
  std::vector<LockSite> locks;
  std::vector<MutationSite> mutations;
  std::vector<CaseSite> cases;

  std::string qualified() const {
    return cls.empty() ? name : cls + "::" + name;
  }
};

struct Enumerator {
  std::string name;
  int line = 0;
};

struct EnumInfo {
  std::string name;
  int file = -1;
  int line = 0;
  std::vector<Enumerator> enumerators;
};

/// Names of variables declared with an unordered container type, and names
/// of accessor functions returning references to one (see v1 docs on the
/// ambiguous-accessor skip).
struct UnorderedDecls {
  std::set<std::string> vars;
  std::set<std::string> accessors;
  std::set<std::string> ordered_accessors;
};

struct FileModel {
  std::vector<std::string> code;  ///< comment/string-blanked lines
  std::vector<Token> tokens;
};

struct ProjectIndex {
  const std::vector<SourceFile>* files = nullptr;
  std::vector<FileModel> file_model;
  std::vector<FunctionInfo> functions;
  std::vector<EnumInfo> enums;
  /// function name -> indices into `functions` (resolution helper).
  std::multimap<std::string, int> functions_by_name;
  /// qualified function -> qualified mutex named in its REQUIRES(...) —
  /// the caller-held locks that seed lock-order edges.
  std::multimap<std::string, std::string> requires_mutexes;
  /// Unordered-container declarations by file stem, and project-global
  /// accessor names (see run_lint for the merge rules).
  std::map<std::string, UnorderedDecls> decls_by_stem;
  UnorderedDecls global_decls;
};

/// Blanks // comments and string/char literal contents (v1 semantics —
/// rules must never fire on prose).
std::string code_view(const std::string& raw);

/// True for identifier characters.
bool is_ident_char(char c);

/// Parses every file into the shared project model.
ProjectIndex build_index(const std::vector<SourceFile>& files);

/// Resolves a call to a function definition: prefers a method of
/// `prefer_class`, then a unique project-wide name.  Returns -1 when
/// unknown or ambiguous.  `receiver` is the call's receiver chain; a call
/// through a member/other object ("order_.size()") never resolves to a
/// method of `prefer_class` itself — only implicit/explicit `this` calls
/// do.
int resolve_call(const ProjectIndex& index, const std::string& name,
                 const std::string& prefer_class,
                 const std::string& receiver = std::string());

}  // namespace cosched::lint
