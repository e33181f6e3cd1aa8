#include "util/inline_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

namespace cosched {
namespace {

struct Item {
  int a = 0;
  long b = 0;
};

TEST(InlineList, KeepsOrderAcrossTheSpillToTheHeap) {
  InlineList<Item, 3> list;
  EXPECT_TRUE(list.empty());
  for (int i = 0; i < 10; ++i) {
    list.push_back({i, 10L * i});
    ASSERT_EQ(list.size(), static_cast<std::size_t>(i) + 1);
    for (int j = 0; j <= i; ++j) EXPECT_EQ(list.data()[j].a, j) << i;
  }
  const std::span<const Item> view = list;
  ASSERT_EQ(view.size(), 10u);
  EXPECT_EQ(view.front().b, 0);
  EXPECT_EQ(view.back().b, 90);
  std::sort(list.begin(), list.end(),
            [](const Item& x, const Item& y) { return x.a > y.a; });
  EXPECT_EQ(list.front().a, 9);
  EXPECT_EQ(list.end()[-1].a, 0);
}

}  // namespace
}  // namespace cosched
