// Tests for sim/fleet.h: lease exclusivity and reclaim, multi-worker
// campaigns whose merged ledger is byte-identical to a single-worker
// run, crashed-worker recovery, merge schema rejection/idempotence, and
// the workers' incremental ledger scans.
#include "sim/fleet.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <thread>

#include "sim/runner.h"

namespace anole {
namespace {

campaign_spec tiny_spec(std::string output) {
    campaign_spec spec;
    spec.families = {graph_family::wheel, graph_family::connected_caveman};
    spec.sizes = {16};
    spec.variants = {algo_kind::flood_max, algo_kind::irrevocable};
    spec.seeds = 3;
    spec.base_seed = 10;
    spec.output = std::move(output);
    return spec;
}

std::string temp_path(const char* tag) {
    return ::testing::TempDir() + "anole_fleet_" + tag + ".jsonl";
}

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void wipe(const std::string& ledger) {
    std::error_code ec;
    std::filesystem::remove_all(fleet_paths{ledger}.dir(), ec);
    std::remove(ledger.c_str());
}

TEST(FleetPaths, LayoutAndSanitizedIds) {
    const fleet_paths p{"runs/camp.jsonl"};
    EXPECT_EQ(p.dir(), "runs/camp.jsonl.fleet");
    EXPECT_EQ(p.shard("w1"), "runs/camp.jsonl.fleet/shard-w1.jsonl");
    EXPECT_EQ(p.lease(7), "runs/camp.jsonl.fleet/lease-7.json");

    EXPECT_EQ(sanitize_worker_id("ci-worker.3"), "ci-worker.3");
    EXPECT_EQ(sanitize_worker_id("a/b c"), "a_b_c");
    // Empty falls back to the pid-derived default.
    EXPECT_EQ(sanitize_worker_id(""), fleet_worker_id());
    EXPECT_EQ(fleet_worker_id().front(), 'w');
}

TEST(FleetLease, ExclusiveAcquireAndRoundTrip) {
    const std::string path = temp_path("lease_excl");
    std::remove(path.c_str());

    const lease_info a{"alice", fleet_now(), 60, 3};
    const lease_info b{"bob", fleet_now(), 60, 3};
    bool reclaimed = true;
    ASSERT_TRUE(try_acquire_lease(path, a, &reclaimed));
    EXPECT_FALSE(reclaimed);  // fresh, not reclaimed

    // A live foreign lease is not claimable.
    EXPECT_FALSE(try_acquire_lease(path, b, &reclaimed));
    EXPECT_FALSE(reclaimed);

    // The owner can re-acquire (heartbeat refresh).
    EXPECT_TRUE(try_acquire_lease(path, a));

    const auto read = read_lease(path);
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(read->owner, "alice");
    EXPECT_EQ(read->ttl, 60u);
    EXPECT_EQ(read->group, 3u);

    // Release by a non-owner is a no-op; by the owner deletes the file.
    release_lease(path, "bob");
    EXPECT_TRUE(read_lease(path).has_value());
    release_lease(path, "alice");
    EXPECT_FALSE(read_lease(path).has_value());
}

TEST(FleetLease, ExpiredAndTornLeasesAreReclaimed) {
    const std::string path = temp_path("lease_expired");
    std::remove(path.c_str());

    // A lease whose heartbeat is far in the past (crashed worker).
    const lease_info dead{"crashed", fleet_now() - 1000, 60, 0};
    ASSERT_TRUE(try_acquire_lease(path, dead));

    const lease_info mine{"me", fleet_now(), 60, 0};
    bool reclaimed = false;
    ASSERT_TRUE(try_acquire_lease(path, mine, &reclaimed));
    EXPECT_TRUE(reclaimed);
    ASSERT_TRUE(read_lease(path).has_value());
    EXPECT_EQ(read_lease(path)->owner, "me");
    release_lease(path, "me");

    // A torn lease file (killed mid-write) reads as nullopt and is
    // likewise claimable.
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"owner\":\"half";
    }
    EXPECT_FALSE(read_lease(path).has_value());
    reclaimed = false;
    ASSERT_TRUE(try_acquire_lease(path, mine, &reclaimed));
    EXPECT_TRUE(reclaimed);
    release_lease(path, "me");
    std::remove(path.c_str());
}

TEST(FleetLease, RacingClaimantsGetDisjointLeases) {
    // N threads race create-exclusive on G fresh leases; every lease
    // must end up with exactly one winner.
    const std::string base = ::testing::TempDir() + "anole_fleet_race";
    constexpr std::size_t kClaimants = 8, kGroups = 5;
    for (std::size_t g = 0; g < kGroups; ++g) {
        std::remove((base + std::to_string(g)).c_str());
    }

    std::vector<std::set<std::size_t>> won(kClaimants);
    std::vector<std::thread> claimants;
    for (std::size_t c = 0; c < kClaimants; ++c) {
        claimants.emplace_back([&, c] {
            const std::string id = "racer" + std::to_string(c);
            for (std::size_t g = 0; g < kGroups; ++g) {
                const lease_info mine{id, fleet_now(), 60, g};
                if (try_acquire_lease(base + std::to_string(g), mine)) {
                    won[c].insert(g);
                }
            }
        });
    }
    for (auto& t : claimants) t.join();

    std::size_t total = 0;
    for (const auto& w : won) total += w.size();
    EXPECT_EQ(total, kGroups);  // each group won exactly once
    for (std::size_t g = 0; g < kGroups; ++g) {
        const auto l = read_lease(base + std::to_string(g));
        ASSERT_TRUE(l.has_value());
        EXPECT_TRUE(won[std::stoul(l->owner.substr(5))].count(g));
        std::remove((base + std::to_string(g)).c_str());
    }
}

TEST(FleetWorker, ThreeWorkersMergeByteIdenticalToSingleRun) {
    // The acceptance gate: a 3-worker fleet, merged, must reproduce the
    // single-worker ledger byte for byte.
    const std::string solo_path = temp_path("solo");
    const std::string fleet_path = temp_path("trio");
    wipe(solo_path);
    wipe(fleet_path);

    scenario_runner solo_runner(2);
    const campaign_report solo = run_campaign(tiny_spec(solo_path), solo_runner);
    ASSERT_EQ(solo.executed, 12u);

    std::vector<fleet_report> reports(3);
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < 3; ++w) {
        workers.emplace_back([&, w] {
            scenario_runner runner(2);
            fleet_options opt;
            opt.worker_id = "w" + std::to_string(w);
            reports[w] = run_fleet_worker(tiny_spec(fleet_path), runner, opt);
        });
    }
    for (auto& t : workers) t.join();

    std::size_t executed = 0, failed = 0;
    for (const fleet_report& r : reports) {
        executed += r.executed;
        failed += r.failed;
        // left_leased > 0 is legal mid-fleet: a worker may exit while a
        // live peer still holds a group — that peer finishes it, which
        // the coverage assertion below proves.
    }
    EXPECT_EQ(failed, 0u);
    // Units are deterministic, so racing duplicates are legal — but
    // every unit ran at least once and the fleet as a whole ran them.
    EXPECT_GE(executed, 12u);

    const merge_report merged = merge_fleet(tiny_spec(fleet_path));
    EXPECT_EQ(merged.covered, 12u);
    EXPECT_EQ(merged.total_units, 12u);
    EXPECT_EQ(merged.foreign, 0u);
    EXPECT_EQ(merged.shards, 3u);

    EXPECT_EQ(slurp(fleet_path), slurp(solo_path));

    // Merging again changes nothing (idempotent canonical form).
    const std::string first_merge = slurp(fleet_path);
    (void)merge_fleet(tiny_spec(fleet_path));
    EXPECT_EQ(slurp(fleet_path), first_merge);

    // And the merged ledger satisfies an ordinary resume completely.
    scenario_runner resume_runner(2);
    const campaign_report resumed =
        run_campaign(tiny_spec(fleet_path), resume_runner);
    EXPECT_EQ(resumed.executed, 0u);
    EXPECT_EQ(resumed.skipped, 12u);

    wipe(solo_path);
    wipe(fleet_path);
}

TEST(FleetWorker, KilledWorkersExpiredLeaseIsReclaimed) {
    const std::string ledger = temp_path("reclaim");
    wipe(ledger);

    const campaign_spec spec = tiny_spec(ledger);
    const fleet_paths paths{ledger};
    std::filesystem::create_directories(paths.dir());

    // A "crashed" worker left an expired lease on group 0 and no records.
    const lease_info stale{"deadbeef", fleet_now() - 500, 60, 0};
    ASSERT_TRUE(try_acquire_lease(paths.lease(0), stale));

    scenario_runner runner(2);
    fleet_options opt;
    opt.worker_id = "survivor";
    const fleet_report rep = run_fleet_worker(spec, runner, opt);
    EXPECT_EQ(rep.leases_reclaimed, 1u);
    EXPECT_EQ(rep.executed, 12u);
    EXPECT_EQ(rep.left_leased, 0u);

    const merge_report merged = merge_fleet(spec);
    EXPECT_EQ(merged.covered, 12u);
    wipe(ledger);
}

TEST(FleetWorker, LiveForeignLeaseIsLeftAlone) {
    const std::string ledger = temp_path("live_lease");
    wipe(ledger);

    const campaign_spec spec = tiny_spec(ledger);
    const fleet_paths paths{ledger};
    std::filesystem::create_directories(paths.dir());

    // A live peer holds group 0; this worker must do group 1 only and
    // report the blocked group, not steal or wait for it.
    const lease_info live{"peer", fleet_now(), 3600, 0};
    ASSERT_TRUE(try_acquire_lease(paths.lease(0), live));

    scenario_runner runner(2);
    fleet_options opt;
    opt.worker_id = "patient";
    const fleet_report rep = run_fleet_worker(spec, runner, opt);
    EXPECT_EQ(rep.executed, 6u);  // one of two groups
    EXPECT_EQ(rep.left_leased, 1u);
    EXPECT_EQ(rep.leases_reclaimed, 0u);
    ASSERT_TRUE(read_lease(paths.lease(0)).has_value());
    EXPECT_EQ(read_lease(paths.lease(0))->owner, "peer");
    wipe(ledger);
}

TEST(FleetMerge, RejectsIncompatibleShardSchema) {
    const std::string ledger = temp_path("bad_shard");
    wipe(ledger);

    const campaign_spec spec = tiny_spec(ledger);
    const fleet_paths paths{ledger};
    std::filesystem::create_directories(paths.dir());
    {
        std::ofstream out(paths.shard("future"));
        out << "{\"schema\":\"anole-campaign\",\"version\":42}\n";
    }
    EXPECT_THROW((void)merge_fleet(spec), error);
    wipe(ledger);
}

TEST(FleetMerge, FoldsLegacyHeaderlessLedgerAndKeepsForeignRecords) {
    const std::string ledger = temp_path("legacy");
    wipe(ledger);

    // Run the campaign, then strip the header and append a foreign
    // record (another spec's unit) — merge must keep both.
    scenario_runner runner(2);
    ASSERT_EQ(run_campaign(tiny_spec(ledger), runner).executed, 12u);
    std::vector<std::string> lines;
    {
        std::ifstream in(ledger);
        std::string line;
        while (std::getline(in, line)) {
            if (!parse_campaign_schema_header(line).has_value()) {
                lines.push_back(line);
            }
        }
    }
    ASSERT_EQ(lines.size(), 12u);
    std::string foreign_line = lines[0];
    const std::string from = "\"key\":\"wheel/16/t1/flood_max/10\"";
    const std::string to = "\"key\":\"wheel/999/t1/flood_max/10\"";
    ASSERT_NE(foreign_line.find(from), std::string::npos);
    foreign_line.replace(foreign_line.find(from), from.size(), to);
    {
        std::ofstream out(ledger, std::ios::trunc);
        for (const std::string& l : lines) out << l << "\n";
        out << foreign_line << "\n";
    }

    const merge_report merged = merge_fleet(tiny_spec(ledger));
    EXPECT_EQ(merged.covered, 12u);
    EXPECT_EQ(merged.foreign, 1u);
    EXPECT_EQ(merged.records, 13u);

    // The canonical rewrite gained a header, kept the foreign line at
    // the end, and still resumes clean.
    std::ifstream in(ledger);
    std::string first;
    ASSERT_TRUE(std::getline(in, first));
    EXPECT_EQ(first, campaign_schema_header_line());
    const std::string all = slurp(ledger);
    EXPECT_NE(all.find(to), std::string::npos);

    scenario_runner resume_runner(2);
    const campaign_report resumed =
        run_campaign(tiny_spec(ledger), resume_runner);
    EXPECT_EQ(resumed.executed, 0u);
    EXPECT_EQ(resumed.skipped, 12u);
    wipe(ledger);
}

// --- incremental scans -------------------------------------------------------

// The raw ledger line of expansion unit `i` of tiny_spec.
std::string record_line(std::size_t i) {
    campaign_record rec;
    rec.unit = expand(tiny_spec("")).at(i);
    rec.ok = true;
    return rec.to_json();
}

// A schema header followed by the record lines of `units`.
std::string ledger_text(std::initializer_list<std::size_t> units) {
    std::string text = campaign_schema_header_line() + "\n";
    for (const std::size_t i : units) text += record_line(i) + "\n";
    return text;
}

std::string unit_key(std::size_t i) { return expand(tiny_spec("")).at(i).key(); }

void append(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << bytes;
}

TEST(FleetScan, SeesRecordsPeersAppendBetweenRefreshes) {
    const std::string ledger = temp_path("scan_append");
    wipe(ledger);
    const fleet_paths paths{ledger};
    std::filesystem::create_directories(paths.dir());
    append(ledger, ledger_text({0}));
    append(paths.shard("peer"), ledger_text({1}));

    fleet_scan scan(ledger);
    EXPECT_EQ(scan.refresh(), (std::set<std::string>{unit_key(0), unit_key(1)}));
    EXPECT_EQ(scan.refresh().size(), 2u);  // nothing new: nothing changes

    // A peer appends to its shard, a second peer starts one.
    append(paths.shard("peer"), record_line(2) + "\n");
    append(paths.shard("late"), ledger_text({3}));
    EXPECT_EQ(scan.refresh(), (std::set<std::string>{unit_key(0), unit_key(1),
                                                     unit_key(2), unit_key(3)}));
    wipe(ledger);
}

TEST(FleetScan, TornTailCountsOnlyOnceItsLineIsComplete) {
    const std::string ledger = temp_path("scan_torn");
    wipe(ledger);
    const std::string line = record_line(4);
    append(ledger, ledger_text({0}) + line.substr(0, line.size() / 2));

    fleet_scan scan(ledger);
    EXPECT_EQ(scan.refresh(), (std::set<std::string>{unit_key(0)}));
    // Every byte of the record but its '\n': still a partial line.
    append(ledger, line.substr(line.size() / 2));
    EXPECT_EQ(scan.refresh().count(unit_key(4)), 0u);
    append(ledger, "\n");
    EXPECT_EQ(scan.refresh(), (std::set<std::string>{unit_key(0), unit_key(4)}));
    wipe(ledger);
}

TEST(FleetScan, LedgerReplacedByMergeIsReread) {
    const std::string ledger = temp_path("scan_replaced");
    wipe(ledger);
    const campaign_spec spec = tiny_spec(ledger);
    const fleet_paths paths{ledger};
    std::filesystem::create_directories(paths.dir());
    // Junk lines make the pre-merge ledger longer than the merged one.
    append(ledger, ledger_text({0}) + std::string(4096, 'x') + "\n");
    fleet_scan scan(ledger);
    EXPECT_EQ(scan.refresh(), (std::set<std::string>{unit_key(0)}));

    // A shard the scan never saw is folded in and then removed: the new,
    // shorter ledger is the only place its record lives.
    append(paths.shard("gone"), ledger_text({5}));
    (void)merge_fleet(spec);
    std::filesystem::remove_all(paths.dir());
    EXPECT_EQ(scan.refresh(), (std::set<std::string>{unit_key(0), unit_key(5)}));

    // A longer replacement (new inode) whose new record sits before the
    // old offset is re-read from byte 0 too.
    const std::string tmp = ledger + ".replacement";
    append(tmp, ledger_text({6, 0, 5}) + std::string(8192, 'y') + "\n");
    ASSERT_EQ(std::rename(tmp.c_str(), ledger.c_str()), 0);
    EXPECT_EQ(scan.refresh(), (std::set<std::string>{unit_key(0), unit_key(5),
                                                     unit_key(6)}));
    wipe(ledger);
}

TEST(FleetScan, IncompatibleShardAppearingMidRunThrows) {
    const std::string ledger = temp_path("scan_bad_shard");
    wipe(ledger);
    const fleet_paths paths{ledger};
    std::filesystem::create_directories(paths.dir());
    append(ledger, ledger_text({0}));
    fleet_scan scan(ledger);
    EXPECT_EQ(scan.refresh().size(), 1u);

    append(paths.shard("future"), "{\"schema\":\"anole-campaign\",\"version\":42}\n");
    EXPECT_THROW((void)scan.refresh(), error);

    // And a worker started against that fleet refuses to run.
    scenario_runner runner(1);
    fleet_options opt;
    opt.worker_id = "starter";
    EXPECT_THROW((void)run_fleet_worker(tiny_spec(ledger), runner, opt), error);
    wipe(ledger);
}

}  // namespace
}  // namespace anole
