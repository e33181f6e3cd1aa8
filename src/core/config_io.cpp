#include "core/config_io.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <sstream>

#include "util/error.h"
#include "workload/swf.h"
#include "workload/synth.h"

namespace cosched {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

/// `where` names the input position ("config line 7", "synth spec days").
[[noreturn]] void fail(const std::string& where, const std::string& what) {
  throw ParseError(where + ": " + what);
}

double to_double(const std::string& v, const std::string& where) {
  char* end = nullptr;
  errno = 0;
  const double out = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(out))
    fail(where, "expected finite number: " + v);
  return out;
}

std::int64_t to_int(const std::string& v, const std::string& where) {
  char* end = nullptr;
  errno = 0;
  const long long out = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE)
    fail(where, "expected integer: " + v);
  return out;
}

bool to_bool(const std::string& v, const std::string& where) {
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  fail(where, "expected boolean: " + v);
}

void apply_key(DomainConfig& d, const std::string& key,
               const std::string& value, const std::string& where) {
  DomainSpec& s = d.spec;
  if (key == "capacity") {
    s.capacity = to_int(value, where);
  } else if (key == "policy") {
    make_policy(value);  // validate eagerly so errors carry a line number
    s.policy = value;
  } else if (key == "scheme") {
    s.cosched.scheme = parse_scheme(value);
  } else if (key == "enabled") {
    s.cosched.enabled = to_bool(value, where);
  } else if (key == "hold-release-min") {
    s.cosched.hold_release_period = to_int(value, where) * kMinute;
  } else if (key == "max-hold-fraction") {
    s.cosched.max_hold_fraction = to_double(value, where);
  } else if (key == "max-yield-before-hold") {
    s.cosched.max_yield_before_hold =
        static_cast<int>(to_int(value, where));
  } else if (key == "yield-boost") {
    s.cosched.yield_priority_boost = to_double(value, where);
  } else if (key == "yield-retry-min") {
    s.cosched.yield_retry_period = to_int(value, where) * kMinute;
  } else if (key == "backfill") {
    if (value == "easy") {
      s.sched.backfill = true;
      s.sched.conservative = false;
    } else if (value == "conservative") {
      s.sched.backfill = true;
      s.sched.conservative = true;
    } else if (value == "none") {
      s.sched.backfill = false;
    } else {
      fail(where, "backfill must be easy|conservative|none, got " + value);
    }
  } else if (key == "allocation") {
    if (value == "plain") {
      s.alloc = nullptr;
    } else if (value == "bgp-partitions") {
      s.alloc = std::make_shared<PartitionAllocation>(
          PartitionAllocation::intrepid());
    } else {
      fail(where, "allocation must be plain|bgp-partitions, got " + value);
    }
  } else if (key == "trace") {
    d.trace_source = value;
  } else {
    fail(where, "unknown key '" + key + "'");
  }
}

}  // namespace

std::vector<DomainConfig> parse_domain_configs(std::istream& in) {
  std::vector<DomainConfig> domains;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    const std::string where = "config line " + std::to_string(++lineno);
    // Strip comments.
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') fail(where, "unterminated section header");
      std::istringstream hs(line.substr(1, line.size() - 2));
      std::string kind, name;
      hs >> kind >> name;
      if (kind != "domain" || name.empty())
        fail(where, "expected [domain <name>]");
      DomainConfig d;
      d.spec.name = name;
      domains.push_back(std::move(d));
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(where, "expected key = value");
    if (domains.empty()) fail(where, "key outside of a [domain] section");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    apply_key(domains.back(), key, value, where);
  }

  for (const DomainConfig& d : domains)
    if (d.spec.capacity <= 0)
      throw ParseError("domain '" + d.spec.name +
                       "' is missing a positive capacity");
  return domains;
}

std::vector<DomainConfig> read_domain_configs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open config file: " + path);
  return parse_domain_configs(in);
}

Trace load_trace_source(const std::string& source, const DomainSpec& spec) {
  if (source.empty()) return Trace{};

  constexpr const char* kSynthPrefix = "synth:";
  if (source.rfind(kSynthPrefix, 0) != 0)
    return read_swf_file(source, spec.name);

  // synth:<model>?key=value&key=value
  std::string body =
      source.substr(std::char_traits<char>::length(kSynthPrefix));
  std::string model_name = body;
  std::map<std::string, std::string> params;
  if (const auto q = body.find('?'); q != std::string::npos) {
    model_name = body.substr(0, q);
    std::istringstream ps(body.substr(q + 1));
    std::string kv;
    while (std::getline(ps, kv, '&')) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos)
        throw ParseError("synth spec: expected key=value in '" + kv + "'");
      params[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
  }

  SystemModel model;
  if (model_name == "intrepid") model = intrepid_model();
  else if (model_name == "eureka") model = eureka_model();
  else
    throw ParseError("synth spec: unknown model '" + model_name + "'");
  // The model generates for the configured machine: rescale its capacity
  // and drop size buckets that no longer fit.
  if (spec.capacity > 0 && spec.capacity != model.capacity) {
    model.capacity = spec.capacity;
    std::erase_if(model.sizes, [&](const SizeBucket& b) {
      return b.nodes > model.capacity;
    });
    if (model.sizes.empty())
      throw ParseError("synth spec: no job sizes fit capacity " +
                       std::to_string(spec.capacity));
  }

  SynthParams p;
  for (const auto& [key, value] : params) {
    const std::string where = "synth spec " + key;
    if (key == "load") {
      p.offered_load = to_double(value, where);
      if (p.offered_load <= 0)
        fail(where, "must be a positive number, got " + value);
    } else if (key == "days") {
      const std::int64_t days = to_int(value, where);
      if (days <= 0 || days > std::numeric_limits<Duration>::max() / kDay)
        fail(where, "must be a positive day count, got " + value);
      p.span = days * kDay;
    } else if (key == "jobs") {
      const std::int64_t jobs = to_int(value, where);
      if (jobs < 0) fail(where, "must not be negative, got " + value);
      p.job_count = static_cast<std::size_t>(jobs);
    } else if (key == "seed") {
      const std::int64_t seed = to_int(value, where);
      if (seed < 0) fail(where, "must not be negative, got " + value);
      p.seed = static_cast<std::uint64_t>(seed);
    } else {
      fail("synth spec", "unknown key '" + key + "'");
    }
  }
  return generate_trace(model, p);
}

}  // namespace cosched
