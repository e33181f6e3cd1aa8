// Field lists: the durable members of a type, in wire order.
//
// COSCHED_FIELDS(T, a, b, ...) inside struct or class T declares
// durable_fields(t), a tuple of references to every non-static data member
// of `t` in declaration order, which is the order proto/durable.h writes
// and reads them in.  The names bind the whole object in one structured
// binding, so a list that leaves a member out, or names one too many, does
// not compile.  The names are the members' own, for the reader: the
// binding goes by position.
#pragma once

#include <tuple>

#define COSCHED_FIELDS(T, ...)                \
  friend auto durable_fields(T& self) {       \
    auto& [__VA_ARGS__] = self;               \
    return std::tie(__VA_ARGS__);             \
  }                                           \
  friend auto durable_fields(const T& self) { \
    auto& [__VA_ARGS__] = self;               \
    return std::tie(__VA_ARGS__);             \
  }
