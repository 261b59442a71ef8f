// Tests for sim/profile_cache.h and the runner's disk-cache layering:
// bitwise round-trips, corrupt/stale entries silently recomputed, and the
// "second campaign is free" contract (fresh_profiles drops to zero).
#include "sim/profile_cache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "sim/runner.h"

namespace anole {
namespace {

std::string temp_path(const std::string& tag) {
    return ::testing::TempDir() + "anole_profile_cache_" + tag + ".jsonl";
}

bool bitwise_equal(const graph_profile& a, const graph_profile& b) {
    return a.n == b.n && a.m == b.m && a.diameter == b.diameter &&
           a.conductance == b.conductance && a.isoperimetric == b.isoperimetric &&
           a.mixing_time == b.mixing_time && a.lambda2 == b.lambda2 &&
           a.diameter_method == b.diameter_method &&
           a.conductance_method == b.conductance_method &&
           a.isoperimetric_method == b.isoperimetric_method &&
           a.mixing_method == b.mixing_method &&
           a.lambda2_converged == b.lambda2_converged;
}

TEST(ProfileCache, RoundTripIsBitwiseIdentical) {
    const std::string path = temp_path("roundtrip");
    std::remove(path.c_str());

    const graph g = make_family(graph_family::dumbbell, 64, 1);
    const graph_profile p = profile(g);
    {
        profile_cache cache(path);
        EXPECT_EQ(cache.size(), 0u);
        cache.store("dumbbell/64/s1/v1", p);
        EXPECT_EQ(cache.size(), 1u);
        const auto hit = cache.lookup("dumbbell/64/s1/v1");
        ASSERT_TRUE(hit.has_value());
        EXPECT_TRUE(bitwise_equal(*hit, p));
    }
    // A fresh instance re-reads the file; doubles must survive the
    // %.17g print → from_chars parse round trip bit-for-bit.
    profile_cache reloaded(path);
    EXPECT_EQ(reloaded.size(), 1u);
    const auto hit = reloaded.lookup("dumbbell/64/s1/v1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(bitwise_equal(*hit, p));
    EXPECT_EQ(hit->to_json(), p.to_json());
    EXPECT_FALSE(reloaded.lookup("dumbbell/64/s2/v1").has_value());
    std::remove(path.c_str());
}

TEST(ProfileCache, LaterLinesWin) {
    const std::string path = temp_path("upsert");
    std::remove(path.c_str());

    graph_profile p1 = profile(make_cycle(16));
    graph_profile p2 = p1;
    p2.mixing_time += 17;
    {
        profile_cache cache(path);
        cache.store("k", p1);
        cache.store("k", p2);
        EXPECT_EQ(cache.size(), 1u);
    }
    profile_cache reloaded(path);
    const auto hit = reloaded.lookup("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->mixing_time, p2.mixing_time);
    std::remove(path.c_str());
}

TEST(ProfileCache, CorruptAndStaleLinesAreSkipped) {
    const std::string path = temp_path("corrupt");
    std::remove(path.c_str());

    const graph_profile good = profile(make_cycle(16));
    {
        profile_cache cache(path);
        cache.store("good", good);
    }
    {
        // Hand-append garbage, a version from the future, a
        // structurally valid object missing required fields, and a tmix
        // method that profile() no longer has.
        std::ofstream out(path, std::ios::app);
        out << "not json at all {{{\n";
        out << "{\"key\":\"stale\",\"version\":999,\"profile\":" << good.to_json()
            << "}\n";
        out << "{\"key\":\"incomplete\",\"version\":" << profile_cache_version
            << ",\"profile\":{\"n\":4}}\n";
        std::string retired = good.to_json();
        const std::string fact = "\"mixing_method\":\"fact\"";
        retired.replace(retired.find(fact), fact.size(), "\"mixing_method\":\"sampled\"");
        out << "{\"key\":\"retired\",\"version\":" << profile_cache_version
            << ",\"profile\":" << retired << "}\n";
    }
    profile_cache reloaded(path);
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_TRUE(reloaded.lookup("good").has_value());
    EXPECT_FALSE(reloaded.lookup("stale").has_value());
    EXPECT_FALSE(reloaded.lookup("incomplete").has_value());
    EXPECT_FALSE(reloaded.lookup("retired").has_value());
    std::remove(path.c_str());
}

TEST(ProfileCache, MissingFileIsEmptyAndUnwritablePathThrows) {
    profile_cache empty(temp_path("never_created_nonexistent"));
    EXPECT_EQ(empty.size(), 0u);

    profile_cache bad("/nonexistent_dir_anole/cache.jsonl");
    EXPECT_THROW(bad.store("k", profile(make_cycle(16))), error);
}

TEST(ProfileCache, StoreRewritesAtomicallyAndHealsCorruptTail) {
    // The pre-fleet append path could leave a torn tail if a writer died
    // mid-line; the rewrite path must both survive loading such a file
    // and produce a clean file on the next store.
    const std::string path = temp_path("heal");
    std::remove(path.c_str());

    const graph_profile good = profile(make_cycle(16));
    {
        profile_cache cache(path);
        cache.store("good", good);
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"key\":\"torn\",\"version\":1,\"prof";  // SIGKILL mid-write
    }
    profile_cache healed(path);
    EXPECT_EQ(healed.size(), 1u);
    const graph_profile other = profile(make_cycle(24));
    healed.store("other", other);

    // Every line of the rewritten file parses; the torn tail is gone.
    std::ifstream in(path);
    std::string line;
    std::size_t parsed = 0;
    while (std::getline(in, line)) {
        EXPECT_FALSE(line.empty());
        EXPECT_EQ(line.back(), '}');
        ++parsed;
    }
    EXPECT_EQ(parsed, 2u);
    // And no lock or temp file is left behind: no `<path>.tmp*` sibling,
    // whatever name the writer gave its temp.
    EXPECT_FALSE(std::ifstream(path + ".lock").good());
    const std::filesystem::path target(path);
    const std::string temp_prefix = target.filename().string() + ".tmp";
    for (const auto& entry :
         std::filesystem::directory_iterator(target.parent_path())) {
        EXPECT_NE(entry.path().filename().string().rfind(temp_prefix, 0), 0u)
            << "leftover temp " << entry.path();
    }

    profile_cache reloaded(path);
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_TRUE(reloaded.lookup("good").has_value());
    EXPECT_TRUE(reloaded.lookup("other").has_value());
    std::remove(path.c_str());
}

TEST(ProfileCache, ConcurrentWritersPreserveAllEntries) {
    // N separate cache instances (separate-process stand-ins) hammer one
    // file; the lock + rewrite protocol must keep every entry.
    const std::string path = temp_path("concurrent");
    std::remove(path.c_str());

    constexpr std::size_t kWriters = 6;
    constexpr std::size_t kPerWriter = 4;
    std::vector<graph_profile> profiles;
    for (std::size_t i = 0; i < kPerWriter; ++i) {
        profiles.push_back(profile(make_cycle(12 + 4 * i)));
    }

    const auto entry_key = [](std::size_t w, std::size_t i) {
        std::string k = "w";
        k += std::to_string(w);
        k += "/k";
        k += std::to_string(i);
        return k;
    };
    std::vector<std::thread> writers;
    for (std::size_t w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            profile_cache cache(path);  // each thread its own instance
            for (std::size_t i = 0; i < kPerWriter; ++i) {
                cache.store(entry_key(w, i), profiles[i]);
            }
        });
    }
    for (auto& t : writers) t.join();

    profile_cache merged(path);
    EXPECT_EQ(merged.size(), kWriters * kPerWriter);
    for (std::size_t w = 0; w < kWriters; ++w) {
        for (std::size_t i = 0; i < kPerWriter; ++i) {
            const auto hit = merged.lookup(entry_key(w, i));
            ASSERT_TRUE(hit.has_value()) << w << "/" << i;
            EXPECT_TRUE(bitwise_equal(*hit, profiles[i]));
        }
    }
    std::remove(path.c_str());
}

TEST(ProfileCacheRunner, SecondRunnerComputesNothing) {
    const std::string path = temp_path("runner");
    std::remove(path.c_str());

    const family_spec spec{graph_family::dumbbell, 64, 1};
    graph_profile first;
    {
        scenario_runner runner(2);
        runner.set_profile_cache(path);
        const graph& g = runner.materialize(spec);
        first = runner.profile_for(g);
        EXPECT_EQ(runner.fresh_profiles(), 1u);
        // Memory hit on repeat: still exactly one fresh compute.
        (void)runner.profile_for(g);
        EXPECT_EQ(runner.fresh_profiles(), 1u);
    }
    {
        // New process stand-in: cold memory, warm disk.
        scenario_runner runner(2);
        runner.set_profile_cache(path);
        const graph_profile& again = runner.profile_for(runner.materialize(spec));
        EXPECT_EQ(runner.fresh_profiles(), 0u);
        EXPECT_TRUE(bitwise_equal(again, first));
    }
    {
        // Without the cache attached the same profile is recomputed —
        // and matches, because profile() is deterministic.
        scenario_runner runner(2);
        const graph_profile& cold = runner.profile_for(runner.materialize(spec));
        EXPECT_EQ(runner.fresh_profiles(), 1u);
        EXPECT_TRUE(bitwise_equal(cold, first));
    }
    std::remove(path.c_str());
}

TEST(ProfileCacheRunner, BorrowedGraphsBypassTheDiskCache) {
    const std::string path = temp_path("borrowed");
    std::remove(path.c_str());

    const graph g = make_cycle(32);
    scenario_runner runner(2);
    runner.set_profile_cache(path);
    (void)runner.profile_for(runner.materialize(&g));
    EXPECT_EQ(runner.fresh_profiles(), 1u);

    // No (family, n, seed) identity → nothing may have been persisted.
    profile_cache disk(path);
    EXPECT_EQ(disk.size(), 0u);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace anole
