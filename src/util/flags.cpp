#include "util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/error.h"

namespace cosched {

void Flags::define(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  COSCHED_CHECK_MSG(!entries_.count(name), "duplicate flag --" << name);
  entries_[name] = Entry{default_value, default_value, help, false};
}

std::vector<std::string> Flags::parse(int argc, const char* const* argv) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = body.find('='); eq != std::string::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_value = true;
    }
    // Boolean negation: --no-name.
    if (!has_value && body.rfind("no-", 0) == 0) {
      const std::string positive = body.substr(3);
      if (auto it = entries_.find(positive); it != entries_.end()) {
        it->second.value = "false";
        it->second.provided = true;
        continue;
      }
    }
    auto it = entries_.find(body);
    if (it == entries_.end()) throw ParseError("unknown flag --" + body);
    if (!has_value) {
      // Bool flags may omit the value; others take the next argument.
      const std::string& def = it->second.default_value;
      const bool is_bool = (def == "true" || def == "false");
      if (is_bool) {
        value = "true";
      } else {
        if (i + 1 >= argc)
          throw ParseError("flag --" + body + " requires a value");
        value = argv[++i];
      }
    }
    it->second.value = value;
    it->second.provided = true;
  }
  return positional;
}

std::string Flags::get(const std::string& name) const {
  auto it = entries_.find(name);
  COSCHED_CHECK_MSG(it != entries_.end(), "undeclared flag --" << name);
  return it->second.value;
}

std::int64_t Flags::get_int(const std::string& name) const {
  const std::string v = get(name);
  char* end = nullptr;
  errno = 0;
  const long long out = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE)
    throw ParseError("flag --" + name + " expects an integer, got '" + v + "'");
  return out;
}

double Flags::get_double(const std::string& name) const {
  const std::string v = get(name);
  char* end = nullptr;
  errno = 0;
  const double out = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(out))
    throw ParseError("flag --" + name + " expects a finite number, got '" + v +
                     "'");
  return out;
}

bool Flags::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw ParseError("flag --" + name + " expects a boolean, got '" + v + "'");
}

bool Flags::provided(const std::string& name) const {
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.provided;
}

std::string Flags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, e] : entries_) {
    os << "  --" << name << " (default: " << e.default_value << ")\n      "
       << e.help << '\n';
  }
  return os.str();
}

}  // namespace cosched
