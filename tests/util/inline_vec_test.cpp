// Tests for util/inline_vec.h: element order across the inline/heap
// boundary, copies that do not share storage, moves that leave the
// source empty, and clear() keeping a spilled vector usable.
#include "util/inline_vec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace anole {
namespace {

using vec = inline_vec<std::uint64_t, 3>;

std::vector<std::uint64_t> items(const vec& v) { return {v.begin(), v.end()}; }

vec filled(std::uint64_t count) {
    vec v;
    for (std::uint64_t i = 0; i < count; ++i) v.push_back(10 + i);
    return v;
}

TEST(InlineVec, KeepsOrderAcrossTheSpill) {
    for (std::uint64_t count : {0, 1, 3, 4, 9}) {
        const vec v = filled(count);
        EXPECT_EQ(v.size(), count);
        EXPECT_EQ(v.empty(), count == 0);
        EXPECT_EQ(v.spilled(), count > 3);
        std::vector<std::uint64_t> want;
        for (std::uint64_t i = 0; i < count; ++i) want.push_back(10 + i);
        EXPECT_EQ(items(v), want) << count;
    }
    vec v = filled(4);
    ++v.back();
    EXPECT_EQ(items(v), (std::vector<std::uint64_t>{10, 11, 12, 14}));
}

TEST(InlineVec, CopiesAreIndependent) {
    for (std::uint64_t count : {2, 5}) {
        vec a = filled(count);
        vec b = a;
        vec c;
        c = a;
        a.back() = 99;
        EXPECT_EQ(items(b), items(filled(count)));
        EXPECT_EQ(items(c), items(filled(count)));
        EXPECT_NE(items(a), items(b));
    }
}

TEST(InlineVec, MovesLeaveTheSourceEmptyAndReusable) {
    for (std::uint64_t count : {2, 5}) {
        vec a = filled(count);
        vec b = std::move(a);
        EXPECT_EQ(items(b), items(filled(count)));
        EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): documented state
        a.push_back(7);
        EXPECT_EQ(items(a), (std::vector<std::uint64_t>{7}));

        vec c = filled(4);
        c = std::move(b);
        EXPECT_EQ(items(c), items(filled(count)));
        EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)

        vec& alias = c;
        c = std::move(alias);  // self-move keeps the contents
        EXPECT_EQ(items(c), items(filled(count)));
    }
}

TEST(InlineVec, ClearEmptiesASpilledVector) {
    vec v = filled(6);
    v.clear();
    EXPECT_TRUE(v.empty());
    EXPECT_FALSE(v.spilled());
    v.push_back(1);
    v.push_back(2);
    EXPECT_EQ(items(v), (std::vector<std::uint64_t>{1, 2}));
    for (std::uint64_t i = 3; i <= 5; ++i) v.push_back(i);
    EXPECT_EQ(items(v), (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace anole
