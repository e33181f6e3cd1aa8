// A tiny command-line flag parser for the example and bench binaries.
//
// Supports --name=value, --name value, and boolean --name / --no-name.
// Unknown flags raise an error so typos do not silently alter experiments.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cosched {

class Flags {
 public:
  /// Declares a flag with a default value and help text.
  void define(const std::string& name, const std::string& default_value,
              const std::string& help);

  /// Parses argv.  Throws ParseError on unknown flags or missing values.
  /// Returns remaining positional arguments.
  std::vector<std::string> parse(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  /// Throw ParseError unless the whole value is a number in range (for
  /// get_double: finite, neither overflowing nor underflowing).
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// True when the user supplied the flag explicitly.
  bool provided(const std::string& name) const;

  /// Renders a usage message listing all declared flags.
  std::string usage(const std::string& program) const;

 private:
  struct Entry {
    std::string value;
    std::string default_value;
    std::string help;
    bool provided = false;
  };
  std::map<std::string, Entry> entries_;
};

}  // namespace cosched
