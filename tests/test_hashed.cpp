// Hash tables whose walks are ascending (util/hashed.h), and the snapshot
// codec over them: each walk comes out ascending whatever the insertion
// order, and a map or set whose bytes repeat a key does not decode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "proto/durable.h"
#include "util/error.h"
#include "util/hashed.h"
#include "util/job_id_set.h"
#include "workload/job.h"

namespace cosched {
namespace {

using Dependents = HashMultiMap<JobId, std::pair<JobId, Duration>>;

template <class T>
std::vector<std::uint8_t> encode(const T& v) {
  WireWriter w;
  put(w, v);
  return w.take();
}

TEST(Hashed, WalksAreAscendingWhateverTheInsertionOrder) {
  std::vector<JobId> ascending(500);
  std::iota(ascending.begin(), ascending.end(), 1);
  std::vector<JobId> shuffled = ascending;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(7));
  const std::vector<JobId> descending(ascending.rbegin(), ascending.rend());
  const std::vector<JobId> tens = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};

  for (const std::vector<JobId>& order : {ascending, descending, shuffled}) {
    HashMap<JobId, JobId> map;
    HashSet<JobId> set;
    Dependents multi;  // ten keys, fifty values each
    std::map<JobId, JobId> ordered_map;
    std::vector<std::pair<JobId, std::pair<JobId, Duration>>> multi_entries;
    for (JobId id : order) {
      map.emplace(id, -id);
      set.insert(id);
      multi.emplace(id % 10, std::make_pair(id, Duration{id % 3}));
      ordered_map.emplace(id, -id);
      multi_entries.emplace_back(id % 10, std::make_pair(id, id % 3));
    }
    std::sort(multi_entries.begin(), multi_entries.end());

    EXPECT_EQ(map.sorted_keys(), ascending);
    EXPECT_EQ(set.sorted_keys(), ascending);
    EXPECT_EQ(multi.sorted_keys(), tens);

    // The codec's walk: the bytes of the ordered containers with the same
    // elements.
    EXPECT_EQ(encode(map), encode(ordered_map));
    EXPECT_EQ(encode(set), encode(ascending));
    EXPECT_EQ(encode(multi), encode(multi_entries));

    for (JobId key : tens) {
      std::vector<std::pair<JobId, Duration>> values;
      for (const auto& [k, value] : multi_entries)
        if (k == key) values.push_back(value);
      EXPECT_EQ(multi.sorted_values(key), values) << "key " << key;
    }
  }
}

/// A container's bytes: its count and then each element's.
template <class... E>
std::vector<std::uint8_t> encode_elements(const E&... elements) {
  WireWriter w;
  w.put_u64(sizeof...(E));
  (put(w, elements), ...);
  return w.take();
}

template <class T>
void expect_repeated_key(const std::vector<std::uint8_t>& bytes) {
  T v;
  WireReader r(bytes);
  try {
    get(r, v);
    ADD_FAILURE() << "decoded " << v.size() << " of 2 elements";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "durable: repeated key");
  }
}

TEST(DurableCodec, AMapOrSetThatRepeatsAKeyThrows) {
  const auto pairs = encode_elements(std::pair<JobId, JobId>{7, 1},
                                     std::pair<JobId, JobId>{7, 2});
  expect_repeated_key<std::map<JobId, JobId>>(pairs);
  expect_repeated_key<HashMap<JobId, JobId>>(pairs);
  JobSpec spec;
  spec.id = 7;
  const auto specs = encode_elements(spec, spec);  // keyed by their ids
  expect_repeated_key<std::map<JobId, JobSpec>>(specs);
  expect_repeated_key<HashMap<JobId, JobSpec>>(specs);
  const auto ids = encode_elements(JobId{3}, JobId{3});
  expect_repeated_key<std::set<JobId>>(ids);
  expect_repeated_key<HashSet<JobId>>(ids);
  expect_repeated_key<JobIdSet>(ids);
}

TEST(DurableCodec, AMultimapKeepsARepeatedKey) {
  const std::vector<std::pair<JobId, Duration>> values = {{1, 0}, {2, 30}};
  const auto bytes =
      encode_elements(std::make_pair(JobId{7}, values[0]),
                      std::make_pair(JobId{7}, values[1]));
  Dependents deps;
  WireReader r(bytes);
  get(r, deps);
  EXPECT_EQ(deps.size(), 2u);
  EXPECT_EQ(deps.sorted_values(7), values);
  EXPECT_EQ(encode(deps), bytes);
}

}  // namespace
}  // namespace cosched
