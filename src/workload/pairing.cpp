#include "workload/pairing.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.h"
#include "util/hashed.h"
#include "util/rng.h"

namespace cosched {

namespace {

// Uniformly samples `k` indices out of [0, n) in sorted order.
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k,
                                        Rng& rng) {
  COSCHED_CHECK(k <= n);
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  // Partial Fisher-Yates.
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(n - 1)));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace

void clear_pairs(Trace& trace) {
  for (JobSpec& j : trace.jobs()) j.group = kNoGroup;
}

PairingResult pair_by_submit_proximity(Trace& a, Trace& b, Duration window,
                                       GroupId first_group) {
  COSCHED_CHECK(window >= 0);
  COSCHED_CHECK(a.is_sorted() && b.is_sorted());
  PairingResult result;
  GroupId next = first_group;
  auto& ja = a.jobs();
  auto& jb = b.jobs();
  std::size_t ib = 0;
  for (auto& x : ja) {
    if (x.is_paired()) continue;
    // Advance past b-jobs too old to match.
    while (ib < jb.size() &&
           (jb[ib].is_paired() || jb[ib].submit < x.submit - window))
      ++ib;
    if (ib >= jb.size()) break;
    if (jb[ib].submit <= x.submit + window) {
      x.group = next;
      jb[ib].group = next;
      ++next;
      ++result.pairs_made;
      ++ib;
    }
  }
  const std::size_t total = ja.size() + jb.size();
  result.paired_fraction =
      total ? 2.0 * static_cast<double>(result.pairs_made) /
                  static_cast<double>(total)
            : 0.0;
  return result;
}

PairingResult pair_by_proportion(Trace& a, Trace& b, double proportion,
                                 std::uint64_t seed, Duration jitter,
                                 GroupId first_group) {
  COSCHED_CHECK(proportion >= 0.0 && proportion <= 1.0);
  clear_pairs(a);
  clear_pairs(b);
  PairingResult result;
  const std::size_t n = std::min(a.size(), b.size());
  const auto k = static_cast<std::size_t>(
      std::llround(proportion * static_cast<double>(n)));
  if (k == 0) return result;

  Rng rng(seed);
  const auto idx_a = sample_indices(a.size(), k, rng);
  const auto idx_b = sample_indices(b.size(), k, rng);
  GroupId next = first_group;
  for (std::size_t i = 0; i < k; ++i) {
    JobSpec& xa = a.jobs()[idx_a[i]];
    JobSpec& xb = b.jobs()[idx_b[i]];
    xa.group = next;
    xb.group = next;
    // Align mate submission as coupled applications do: both sides submitted
    // within the pairing window of each other.
    xb.submit = xa.submit + (jitter > 0 ? rng.uniform_int(0, jitter) : 0);
    ++next;
    ++result.pairs_made;
  }
  b.sort_by_submit();
  const std::size_t total = a.size() + b.size();
  result.paired_fraction =
      total ? 2.0 * static_cast<double>(result.pairs_made) /
                  static_cast<double>(total)
            : 0.0;
  return result;
}

std::size_t group_by_proportion(std::vector<Trace*> traces, double proportion,
                                std::uint64_t seed, Duration jitter,
                                GroupId first_group) {
  COSCHED_CHECK(traces.size() >= 2);
  COSCHED_CHECK(proportion >= 0.0 && proportion <= 1.0);
  for (Trace* t : traces) {
    COSCHED_CHECK(t != nullptr);
    clear_pairs(*t);
  }
  std::size_t n = traces.front()->size();
  for (Trace* t : traces) n = std::min(n, t->size());
  const auto k = static_cast<std::size_t>(
      std::llround(proportion * static_cast<double>(n)));
  if (k == 0) return 0;

  Rng rng(seed);
  std::vector<std::vector<std::size_t>> picks;
  picks.reserve(traces.size());
  for (Trace* t : traces) picks.push_back(sample_indices(t->size(), k, rng));

  GroupId next = first_group;
  for (std::size_t i = 0; i < k; ++i) {
    const JobSpec& anchor = traces.front()->jobs()[picks.front()[i]];
    const Time anchor_submit = anchor.submit;
    for (std::size_t s = 0; s < traces.size(); ++s) {
      JobSpec& j = traces[s]->jobs()[picks[s][i]];
      j.group = next;
      if (s != 0)
        j.submit =
            anchor_submit + (jitter > 0 ? rng.uniform_int(0, jitter) : 0);
    }
    ++next;
  }
  for (std::size_t s = 1; s < traces.size(); ++s) traces[s]->sort_by_submit();
  return k;
}

double thin_pairs(Trace& a, Trace& b, double target_fraction,
                  std::uint64_t seed) {
  COSCHED_CHECK(target_fraction >= 0.0 && target_fraction <= 1.0);
  std::vector<GroupId> groups;
  for (const JobSpec& j : a.jobs())
    if (j.is_paired()) groups.push_back(j.group);

  const std::size_t total = a.size() + b.size();
  if (total == 0) return 0.0;
  const auto keep_target = static_cast<std::size_t>(
      target_fraction * static_cast<double>(total) / 2.0);
  if (groups.size() <= keep_target)
    return 2.0 * static_cast<double>(groups.size()) /
           static_cast<double>(total);

  // Shuffle and unpair the surplus groups.
  Rng rng(seed);
  for (std::size_t i = groups.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i - 1)));
    std::swap(groups[i - 1], groups[j]);
  }
  HashSet<GroupId> drop;
  drop.reserve(groups.size() - keep_target);
  for (std::size_t i = keep_target; i < groups.size(); ++i)
    drop.insert(groups[i]);
  for (Trace* t : {&a, &b})
    for (JobSpec& j : t->jobs())
      if (j.is_paired() && drop.contains(j.group)) j.group = kNoGroup;
  return 2.0 * static_cast<double>(keep_target) / static_cast<double>(total);
}

}  // namespace cosched
