// Tests for bench/common.h's dynamics preset list: every name is checked,
// and "all" anywhere in the list yields each preset exactly once.
#include "bench/common.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace anole::bench {
namespace {

std::set<std::string> names(const std::vector<std::pair<std::string, dynamics_spec>>& presets) {
    std::set<std::string> out;
    for (const auto& p : presets) out.insert(p.first);
    return out;
}

TEST(Presets, AllYieldsEveryPresetOnceWhereverItAppears) {
    for (const char* list : {"all", "churn,all", "all,churn", "all,all"}) {
        const auto presets = parse_presets(list, "--dynamics");
        EXPECT_EQ(presets.size(), 11u) << list;
        EXPECT_EQ(names(presets).size(), 11u) << list;
        EXPECT_EQ(names(presets), names(all_dynamics_presets())) << list;
    }
}

TEST(Presets, UnknownNameExitsTwoEvenNextToAll) {
    EXPECT_EXIT((void)parse_presets("all,bogus", "--dynamics"), ::testing::ExitedWithCode(2),
                "unknown dynamics preset 'bogus'");
    EXPECT_EXIT((void)parse_presets("bogus,all", "--dynamics"), ::testing::ExitedWithCode(2),
                "unknown dynamics preset 'bogus'");
    EXPECT_EXIT((void)parse_presets("churn,bogus", "--dynamics"),
                ::testing::ExitedWithCode(2), "unknown dynamics preset 'bogus'");
    EXPECT_EXIT((void)parse_presets(",", "--dynamics"), ::testing::ExitedWithCode(2),
                "expects a comma list");
}

}  // namespace
}  // namespace anole::bench
