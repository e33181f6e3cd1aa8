#include "index.h"

#include <algorithm>
#include <cctype>
#include <filesystem>

namespace cosched::lint {

namespace {

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

bool is_digit(char c) {
  return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

/// Multi-character punctuators the extractors care about (qualified
/// names).  Everything else lexes as a single character.
const char* kPuncts[] = {"::", "->"};

bool is_keyword(const std::string& s) {
  static const std::set<std::string> kw = {
      "if",     "for",    "while",  "switch",   "return", "sizeof",
      "catch",  "new",    "delete", "throw",    "case",   "default",
      "do",     "else",   "goto",   "co_await", "co_return",
  };
  return kw.count(s) != 0;
}

/// ALL_CAPS identifiers are attribute/annotation macros (REQUIRES,
/// ACQUIRE, GUARDED_BY, COSCHED_*) when they appear between a parameter
/// list and a function body.
bool is_annotation_macro(const std::string& s) {
  if (s.size() < 2) return false;
  bool has_alpha = false;
  for (char c : s) {
    if (std::islower(static_cast<unsigned char>(c)) != 0) return false;
    if (std::isupper(static_cast<unsigned char>(c)) != 0) has_alpha = true;
  }
  return has_alpha;
}

bool is_specifier(const std::string& s) {
  static const std::set<std::string> spec = {"const",   "noexcept", "override",
                                             "final",   "mutable",  "try",
                                             "volatile"};
  return spec.count(s) != 0;
}

void tokenize_file(const std::vector<std::string>& code,
                   std::vector<Token>& out) {
  // `continuation` marks lines swallowed by a backslash-continued #directive.
  bool continuation = false;
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& line = code[li];
    std::size_t first = 0;
    while (first < line.size() && is_space(line[first])) ++first;
    const bool directive = first < line.size() && line[first] == '#';
    if (directive || continuation) {
      // Preprocessor lines are skipped so unbalanced macro bodies cannot
      // desynchronize brace tracking; line rules still see them.
      continuation = !line.empty() && line.back() == '\\';
      continue;
    }
    continuation = false;
    for (std::size_t i = 0; i < line.size();) {
      const char c = line[i];
      if (is_space(c)) {
        ++i;
        continue;
      }
      if (is_ident_char(c)) {
        std::size_t b = i;
        while (i < line.size() && is_ident_char(line[i])) ++i;
        Token t;
        t.kind = is_digit(c) ? Token::kNumber : Token::kIdent;
        t.text = line.substr(b, i - b);
        t.line = static_cast<int>(li + 1);
        out.push_back(std::move(t));
        continue;
      }
      std::string text(1, c);
      for (const char* p : kPuncts) {
        const std::size_t n = std::string(p).size();
        if (line.compare(i, n, p) == 0) {
          text = p;
          break;
        }
      }
      Token t;
      t.kind = Token::kPunct;
      t.text = text;
      t.line = static_cast<int>(li + 1);
      out.push_back(std::move(t));
      i += text.size();
    }
  }
}

/// Index of the '(' matching the ')' at `close`, or npos.
std::size_t match_back(const std::vector<Token>& toks, std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (toks[i].text == ")") ++depth;
    if (toks[i].text == "(" && --depth == 0) return i;
  }
  return std::string::npos;
}

struct BraceInfo {
  enum Kind { kNamespace, kClass, kFunction, kOther } kind = kOther;
  std::string name;  // class/function name
  std::string cls;   // explicit A::B qualifier on a function definition
};

/// Classifies the '{' at token index `t` given the statement context.  Only
/// called at namespace/class/global scope — braces inside function bodies
/// are plain blocks.
BraceInfo classify_brace(const std::vector<Token>& toks, std::size_t t) {
  BraceInfo info;
  // Statement start: just after the previous ';', '{' or '}'.
  std::size_t s = 0;
  for (std::size_t i = t; i-- > 0;) {
    const std::string& x = toks[i].text;
    if (x == ";" || x == "{" || x == "}") {
      s = i + 1;
      break;
    }
  }
  for (std::size_t i = s; i < t; ++i) {
    if (toks[i].text == "namespace") {
      info.kind = BraceInfo::kNamespace;
      return info;
    }
  }

  // Class/struct definition: the keyword is present and no parameter list
  // precedes the brace (a `struct Foo make() {` function falls through).
  {
    bool has_paren = false;
    std::size_t kw = std::string::npos;
    for (std::size_t i = s; i < t; ++i) {
      if (toks[i].text == "(") has_paren = true;
      if (toks[i].text == "class" || toks[i].text == "struct") kw = i;
    }
    if (kw != std::string::npos && !has_paren) {
      info.kind = BraceInfo::kClass;
      if (kw + 1 < t && toks[kw + 1].kind == Token::kIdent)
        info.name = toks[kw + 1].text;
      return info;
    }
  }

  // Function definition: walk back from '{' over trailing specifiers and
  // annotation-macro calls to the parameter list, then read the (possibly
  // qualified) name.  Constructor initializer lists are stepped over.
  std::size_t i = t;
  while (i > s) {
    --i;
    const Token& tok = toks[i];
    if (tok.kind == Token::kIdent && is_specifier(tok.text)) continue;
    if (tok.text != ")") break;
    const std::size_t open = match_back(toks, i);
    if (open == std::string::npos || open == 0 || open <= s) break;
    const Token& before = toks[open - 1];
    if (before.kind != Token::kIdent) break;
    if (is_annotation_macro(before.text) || before.text == "noexcept" ||
        before.text == "decltype") {
      i = open - 1;
      continue;
    }
    if (is_keyword(before.text)) break;
    // Candidate name at open-1; resolve an explicit A::B:: qualifier chain.
    std::size_t chain_start = open - 1;  // first token of Cls::name chain
    std::string cls;
    if (chain_start >= s + 2 && toks[chain_start - 1].text == "::" &&
        toks[chain_start - 2].kind == Token::kIdent) {
      cls = toks[chain_start - 2].text;  // innermost qualifier wins
      chain_start -= 2;
      while (chain_start >= s + 2 && toks[chain_start - 1].text == "::" &&
             toks[chain_start - 2].kind == Token::kIdent)
        chain_start -= 2;  // skip any outer namespace qualifiers
    }
    // Constructor initializer-list entry?  `Foo::Foo(...) : a_(x), b_(y) {`
    // walking back lands on `b_` — hop to the ')' of the real parameter
    // list (the one preceding the ':' that introduces the list).
    if (chain_start > s) {
      const std::string& p = toks[chain_start - 1].text;
      if (p == "," || p == ":") {
        bool hopped = false;
        int depth = 0;
        for (std::size_t m = chain_start - 1; m-- > s;) {
          const std::string& x = toks[m].text;
          if (x == ")" || x == "]" || x == "}") ++depth;
          if (x == "(" || x == "[" || x == "{") --depth;
          if (depth == 0 && x == ":" && m > s && toks[m - 1].text == ")") {
            i = m;  // next loop iteration steps onto the ')'
            hopped = true;
            break;
          }
        }
        if (hopped) continue;
        break;
      }
    }
    info.kind = BraceInfo::kFunction;
    info.name = before.text;
    info.cls = cls;
    return info;
  }
  return info;
}

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

std::string file_stem(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

struct Scope {
  BraceInfo::Kind kind = BraceInfo::kOther;
  std::string name;
  int func = -1;  // index into index.functions for a function's own body
};

/// Extracts the function definitions from one file's token stream.
void extract_file(ProjectIndex& index, int file) {
  const std::vector<Token>& toks = index.file_model[file].tokens;
  std::vector<Scope> stack;

  const auto in_function = [&stack] {
    for (std::size_t i = stack.size(); i-- > 0;) {
      if (stack[i].kind == BraceInfo::kFunction) return true;
      if (stack[i].kind == BraceInfo::kClass ||
          stack[i].kind == BraceInfo::kNamespace)
        return false;
    }
    return false;
  };
  const auto enclosing_class = [&stack]() -> std::string {
    for (std::size_t i = stack.size(); i-- > 0;)
      if (stack[i].kind == BraceInfo::kClass) return stack[i].name;
    return "";
  };

  for (std::size_t t = 0; t < toks.size(); ++t) {
    const Token& tok = toks[t];
    if (tok.text == "{") {
      // Braces inside a function body are plain blocks.
      Scope s;
      if (!in_function()) {
        const BraceInfo info = classify_brace(toks, t);
        s.kind = info.kind;
        s.name = info.name;
        if (info.kind == BraceInfo::kFunction) {
          FunctionInfo f;
          f.cls = !info.cls.empty() ? info.cls : enclosing_class();
          f.name = info.name;
          f.file = file;
          f.body_first_line = tok.line;
          index.functions.push_back(std::move(f));
          s.func = static_cast<int>(index.functions.size() - 1);
        }
      }
      stack.push_back(std::move(s));
    } else if (tok.text == "}" && !stack.empty()) {
      if (stack.back().func >= 0)
        index.functions[stack.back().func].body_last_line = tok.line;
      stack.pop_back();
    }
  }
  // Functions left open by lexing imprecision end at the last token.
  for (const Scope& s : stack)
    if (s.func >= 0) index.functions[s.func].body_last_line = toks.back().line;
}

}  // namespace

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

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
      // Blank a same-line /*...*/ span (inline argument comments must not
      // hide the rest of the line from brace tracking); an unterminated
      // block comment still truncates, v1-style.
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

ProjectIndex build_index(const std::vector<SourceFile>& files) {
  ProjectIndex index;
  index.file_model.resize(files.size());

  for (std::size_t i = 0; i < files.size(); ++i) {
    FileModel& fm = index.file_model[i];
    fm.code.reserve(files[i].lines.size());
    for (const std::string& l : files[i].lines) fm.code.push_back(code_view(l));
    tokenize_file(fm.code, fm.tokens);
  }

  for (std::size_t i = 0; i < files.size(); ++i)
    extract_file(index, static_cast<int>(i));

  // Unordered-container declaration context (v1 semantics): a .cpp sees its
  // own declarations plus those of any file sharing its stem; accessor
  // names apply globally, with ordered/unordered-ambiguous names skipped.
  for (std::size_t i = 0; i < files.size(); ++i) {
    UnorderedDecls d;
    scan_unordered_decls(index.file_model[i].code, d);
    UnorderedDecls& slot = index.decls_by_stem[file_stem(files[i].path)];
    slot.vars.insert(d.vars.begin(), d.vars.end());
    slot.accessors.insert(d.accessors.begin(), d.accessors.end());
    index.global_decls.accessors.insert(d.accessors.begin(),
                                        d.accessors.end());
    index.global_decls.ordered_accessors.insert(d.ordered_accessors.begin(),
                                                d.ordered_accessors.end());
  }
  for (const std::string& name : index.global_decls.ordered_accessors)
    index.global_decls.accessors.erase(name);

  return index;
}

}  // namespace cosched::lint
