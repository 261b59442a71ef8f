// Tests for bench/gate.h, the perf-regression gate behind
// bench_engine_micro and bench_profile: cell parsing, the baseline/3
// ratio floor, identity cells, missing tables and rows, and the flag
// rules the gated binaries share.
#include "bench/gate.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace anole::bench {
namespace {

using row = std::pair<std::string, std::string>;  // workload, speedup

emitted speedup_table(const std::vector<row>& rows, const std::string& same = "yes") {
    text_table t({"workload", "speedup", "same result"});
    for (const auto& [workload, speedup] : rows) t.add_row({workload, speedup, same});
    return emitted{"kernels", t};
}

// Writes `tables` as a --json-out baseline and returns its path.
std::string write_baseline(const std::string& tag, const std::vector<emitted>& tables) {
    const std::string path = ::testing::TempDir() + "anole_gate_" + tag + ".json";
    std::ofstream out(path);
    for (const auto& e : tables) e.table.print_json(out, e.title);
    return path;
}

const std::vector<gate_column> kChecks = {
    {"kernels", "workload", "speedup", false},
    {"kernels", "workload", "same result", true},
};

int check(const std::string& tag, const std::vector<emitted>& baseline,
          const std::vector<emitted>& current) {
    const std::string path = write_baseline(tag, baseline);
    const int rc = run_check(path, current, kChecks);
    std::remove(path.c_str());
    return rc;
}

TEST(Gate, CellNumberParsesFormattedCells) {
    EXPECT_EQ(cell_number("1,234"), 1234.0);
    EXPECT_EQ(cell_number("12.34"), 12.34);
    EXPECT_EQ(cell_number("5.37x"), 5.37);
}

TEST(Gate, RatioFloorIsBaselineOverThree) {
    const auto base = speedup_table({{"a", "3.00x"}});
    EXPECT_EQ(check("at_floor", {base}, {speedup_table({{"a", "1.00x"}})}), 0);
    EXPECT_EQ(check("below_floor", {base}, {speedup_table({{"a", "0.99x"}})}), 1);
    EXPECT_EQ(check("faster", {base}, {speedup_table({{"a", "12.00x"}})}), 0);
}

TEST(Gate, IdentityCellMustReadYes) {
    const auto base = speedup_table({{"a", "3.00x"}});
    EXPECT_EQ(check("ident_no", {base}, {speedup_table({{"a", "3.00x"}}, "NO")}), 1);
    EXPECT_EQ(check("base_ident_no", {speedup_table({{"a", "3.00x"}}, "NO")}, {base}), 1);
}

TEST(Gate, MissingTableFails) {
    const auto table = speedup_table({{"a", "3.00x"}});
    EXPECT_EQ(check("no_current_table", {table}, {}), 1);
    EXPECT_EQ(check("no_baseline_table", {}, {table}), 1);
}

TEST(Gate, UnreadableBaselineFails) {
    EXPECT_EQ(run_check(::testing::TempDir() + "anole_gate_no_such_dir/base.json",
                        {speedup_table({{"a", "3.00x"}})}, kChecks),
              1);
}

TEST(Gate, NewCurrentRowIsNotGated) {
    const auto base = speedup_table({{"a", "3.00x"}});
    const auto cur = speedup_table({{"a", "3.00x"}, {"new", "0.01x"}});
    EXPECT_EQ(check("new_row", {base}, {cur}), 0);
}

TEST(Gate, BaselineRowMissingFromRunFails) {
    const auto base = speedup_table({{"a", "3.00x"}, {"renamed", "3.00x"}});
    const auto cur = speedup_table({{"a", "3.00x"}, {"renamed(2)", "3.00x"}});
    EXPECT_EQ(check("vanished_row", {base}, {cur}), 1);
}

int parse_exit(std::vector<std::string> args, bool takes_jobs) {
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    (void)gate_options::parse(static_cast<int>(argv.size()), argv.data(), takes_jobs);
    return 0;
}

TEST(Gate, FlagsRejectQuickCheckAndMalformedJobs) {
    EXPECT_EQ(parse_exit({"bench", "--quick", "--json-out", "x"}, true), 0);
    EXPECT_EQ(parse_exit({"bench", "--jobs", "4"}, true), 0);
    EXPECT_EXIT(parse_exit({"bench", "--quick", "--check", "b.json"}, true),
                ::testing::ExitedWithCode(2), "--quick");
    EXPECT_EXIT(parse_exit({"bench", "--jobs", "abc"}, true),
                ::testing::ExitedWithCode(2), "expects a number");
    EXPECT_EXIT(parse_exit({"bench", "--jobs", "4x"}, true),
                ::testing::ExitedWithCode(2), "expects a number");
    EXPECT_EXIT(parse_exit({"bench", "--jobs", "-1"}, true),
                ::testing::ExitedWithCode(2), "expects a number");
    EXPECT_EXIT(parse_exit({"bench", "--jobs", " 4"}, true),
                ::testing::ExitedWithCode(2), "expects a number");
    EXPECT_EXIT(parse_exit({"bench", "--jobs", "4"}, false),
                ::testing::ExitedWithCode(2), "unknown flag");
    EXPECT_EXIT(parse_exit({"bench", "--check"}, false), ::testing::ExitedWithCode(2),
                "requires a value");
}

TEST(Gate, FlagsShareTheBenchParserAndRejectUnusedSharedFlags) {
    std::vector<std::string> args = {"bench", "--csv", "--json", "--json-out", "out.json",
                                     "--check", "b.json", "--jobs", "3"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    const gate_options o = gate_options::parse(static_cast<int>(argv.size()), argv.data(), true);
    EXPECT_TRUE(o.csv);
    EXPECT_TRUE(o.json);
    EXPECT_FALSE(o.quick);
    EXPECT_EQ(o.jobs, 3u);
    EXPECT_EQ(o.json_out, "out.json");
    EXPECT_EQ(o.check, "b.json");
    for (const bool takes_jobs : {true, false}) {
        EXPECT_EXIT(parse_exit({"bench", "--full"}, takes_jobs), ::testing::ExitedWithCode(2),
                    "unknown flag '--full'");
        EXPECT_EXIT(parse_exit({"bench", "--seeds", "3"}, takes_jobs),
                    ::testing::ExitedWithCode(2), "unknown flag '--seeds'");
        EXPECT_EXIT(parse_exit({"bench", "--node-jobs", "2"}, takes_jobs),
                    ::testing::ExitedWithCode(2), "unknown flag '--node-jobs'");
        EXPECT_EXIT(parse_exit({"bench", "--bogus"}, takes_jobs),
                    ::testing::ExitedWithCode(2), "unknown flag '--bogus'");
    }
}

}  // namespace
}  // namespace anole::bench
