// Whole-project model for cosched_lint.
//
// Every file is parsed once by a lightweight tokenizer into a shared index;
// the rules then run over the index instead of re-deriving structure from
// raw lines.  The index records:
//
//   - the code view of every file (comments/strings blanked) and its token
//     stream,
//   - function definitions with class qualification and body extents
//     (mutate-in-apply),
//   - unordered-container declarations and accessor names (unordered-iter).
//
// The tokenizer is deliberately not a C++ parser: it is line-oriented on
// top of the same comment/string blanking the v1 linter used, so rule
// behavior over the existing fixtures is preserved.
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
};

struct FunctionInfo {
  std::string cls;   ///< qualifying/enclosing class ("" for free functions)
  std::string name;
  int file = -1;     ///< index into the linted file set
  int body_first_line = 0;  ///< line of the opening brace
  int body_last_line = 0;   ///< line of the closing brace
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
  std::vector<FileModel> file_model;
  std::vector<FunctionInfo> functions;
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

}  // namespace cosched::lint
