// Tests for sim/campaign.h (ISSUE 2 satellite): spec expansion,
// JSONL record round-trip, resume-skips-completed, topology/profile
// cache sharing across variants, and byte-identical output regardless
// of --jobs.
#include "sim/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

namespace anole {
namespace {

// Fast spec: two cheap variants on two small topologies.
campaign_spec tiny_spec(std::string output = {}) {
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
    // Tags are unique per test, and gtest runs each test of this binary
    // in its own invocation — no cross-test collisions.
    return ::testing::TempDir() + "anole_campaign_" + tag + ".jsonl";
}

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Campaign, ExpansionIsTheFullCartesianProductWithUniqueKeys) {
    campaign_spec spec = tiny_spec();
    spec.sizes = {16, 32, 64};
    spec.seeds = 5;
    const auto units = expand(spec);
    ASSERT_EQ(units.size(), 2u * 3u * 2u * 5u);
    std::set<std::string> keys;
    for (const auto& u : units) keys.insert(u.key());
    EXPECT_EQ(keys.size(), units.size());
    // Expansion order: topology groups outer, (variant, seed) inner.
    EXPECT_EQ(units[0].key(), "wheel/16/t1/flood_max/10");
    EXPECT_EQ(units[1].key(), "wheel/16/t1/flood_max/11");
    EXPECT_EQ(units[spec.variants.size() * spec.seeds].key(),
              "wheel/32/t1/flood_max/10");
}

TEST(Campaign, SpecFromJsonParsesSchemaAndAliases) {
    const campaign_spec spec = campaign_spec_from_json(
        R"({"families": ["barbell", "ws", "ba"], "sizes": [64, 256],
            "variants": ["revocable", "cautious"], "seeds": 8,
            "base_seed": 3, "topology_seed": 9, "output": "x.jsonl"})");
    ASSERT_EQ(spec.families.size(), 3u);
    EXPECT_EQ(spec.families[1], graph_family::watts_strogatz);
    EXPECT_EQ(spec.families[2], graph_family::barabasi_albert);
    ASSERT_EQ(spec.variants.size(), 2u);
    EXPECT_EQ(spec.variants[1], algo_kind::cautious_broadcast);
    EXPECT_EQ(spec.sizes, (std::vector<std::size_t>{64, 256}));
    EXPECT_EQ(spec.seeds, 8u);
    EXPECT_EQ(spec.base_seed, 3u);
    EXPECT_EQ(spec.topology_seed, 9u);
    EXPECT_EQ(spec.output, "x.jsonl");

    EXPECT_THROW((void)campaign_spec_from_json(R"({"families": ["nope"]})"), error);
    EXPECT_THROW((void)campaign_spec_from_json(R"({"unknown_key": 1})"), error);
    // Valid JSON but an empty sweep axis: rejected by validate().
    EXPECT_THROW((void)campaign_spec_from_json(
                     R"({"families": ["barbell"], "sizes": [], "variants": ["flood"]})"),
                 error);
}

TEST(Campaign, DuplicateAxisEntriesAreRejectedAfterAliasResolution) {
    // JSON path: "flood" and "flood_max" name one variant, "ws" and
    // "watts_strogatz" one family; either pair would expand into units
    // that share one key.
    const auto rejects = [](const std::string& json, const std::string& what) {
        try {
            (void)campaign_spec_from_json(json);
        } catch (const error& e) {
            return std::string(e.what()).find("duplicate " + what) != std::string::npos;
        }
        return false;
    };
    EXPECT_TRUE(rejects(R"({"families": ["ws", "watts_strogatz"], "sizes": [8],
                           "variants": ["flood"]})",
                        "family 'watts_strogatz'"));
    EXPECT_TRUE(rejects(R"({"families": ["cycle"], "sizes": [8, 16, 8],
                           "variants": ["flood"]})",
                        "size '8'"));
    EXPECT_TRUE(rejects(R"({"families": ["cycle"], "sizes": [8],
                           "variants": ["flood", "flood_max"]})",
                        "variant 'flood_max'"));
    // The flag path builds the same spec and validates it before running
    // (bench/CMakeLists.txt also drives bench_campaign's flags).
    campaign_spec spec = tiny_spec();
    spec.families = {graph_family::cycle, graph_family::cycle};
    EXPECT_THROW(spec.validate(), error);
    EXPECT_THROW((void)expand(spec), error);
    spec.families = {graph_family::cycle};
    spec.variants = {algo_kind::flood_max, algo_kind::irrevocable, algo_kind::flood_max};
    EXPECT_THROW(spec.validate(), error);
    spec.variants = {algo_kind::flood_max};
    EXPECT_NO_THROW(spec.validate());
}

TEST(Campaign, CommittedSpecsParseValidateAndExpand) {
    // Every bench/specs/*.json must load the way `bench_campaign --spec`
    // loads it and expand into at least one unit.
    std::size_t specs = 0;
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(ANOLE_SOURCE_DIR) + "/bench/specs")) {
        if (entry.path().extension() != ".json") continue;
        ++specs;
        SCOPED_TRACE(entry.path().filename().string());
        campaign_spec spec;
        ASSERT_NO_THROW(spec = campaign_spec_from_json(slurp(entry.path().string())));
        EXPECT_NO_THROW(spec.validate());
        EXPECT_FALSE(expand(spec).empty());
    }
    EXPECT_GT(specs, 0u);
}

TEST(Campaign, RecordRoundTripsThroughJson) {
    campaign_record rec;
    rec.unit = {graph_family::barabasi_albert, 64, 3, algo_kind::revocable, 17};
    rec.nodes = 64;
    rec.edges = 125;
    rec.phi = 0.25;
    rec.tmix = 33;
    rec.ok = true;
    rec.success = true;
    rec.leaders = 1;
    rec.rounds = 1234;
    rec.messages = 56789;
    rec.bits = 424242;
    rec.congest_rounds = 2345;
    rec.error = "with \"quotes\" and\nnewline";

    const campaign_record back = campaign_record::from_json(rec.to_json());
    EXPECT_EQ(back.unit.key(), rec.unit.key());
    EXPECT_EQ(back.nodes, rec.nodes);
    EXPECT_EQ(back.edges, rec.edges);
    EXPECT_DOUBLE_EQ(back.phi, rec.phi);
    EXPECT_EQ(back.tmix, rec.tmix);
    EXPECT_EQ(back.ok, rec.ok);
    EXPECT_EQ(back.success, rec.success);
    EXPECT_EQ(back.leaders, rec.leaders);
    EXPECT_EQ(back.rounds, rec.rounds);
    EXPECT_EQ(back.messages, rec.messages);
    EXPECT_EQ(back.bits, rec.bits);
    EXPECT_EQ(back.congest_rounds, rec.congest_rounds);
    EXPECT_EQ(back.error, rec.error);
}

TEST(Campaign, RunProducesOneRecordPerUnit) {
    scenario_runner runner(2);
    const campaign_report report = run_campaign(tiny_spec(), runner);
    EXPECT_EQ(report.executed, 12u);
    EXPECT_EQ(report.skipped, 0u);
    EXPECT_EQ(report.failed, 0u);
    ASSERT_EQ(report.records.size(), 12u);
    for (const auto& rec : report.records) {
        EXPECT_TRUE(rec.ok) << rec.unit.key() << ": " << rec.error;
        EXPECT_GT(rec.messages, 0u) << rec.unit.key();
        EXPECT_GT(rec.nodes, 0u);
    }
    // The aggregate table groups by (family, n, variant): 4 cells.
    EXPECT_EQ(campaign_table(report.records).row_count(), 4u);
}

TEST(Campaign, ResumeSkipsEveryCompletedUnit) {
    const std::string path = temp_path("resume");
    std::remove(path.c_str());

    scenario_runner first(2);
    const campaign_report run1 = run_campaign(tiny_spec(path), first);
    EXPECT_EQ(run1.executed, 12u);

    // A second invocation finds every unit recorded: 0 re-runs.
    scenario_runner second(2);
    const campaign_report run2 = run_campaign(tiny_spec(path), second);
    EXPECT_EQ(run2.executed, 0u);
    EXPECT_EQ(run2.skipped, 12u);
    ASSERT_EQ(run2.records.size(), 12u);
    // Loaded records carry the full payload, not just keys.
    for (std::size_t i = 0; i < run2.records.size(); ++i) {
        EXPECT_EQ(run2.records[i].unit.key(), run1.records[i].unit.key());
        EXPECT_EQ(run2.records[i].messages, run1.records[i].messages);
    }
    std::remove(path.c_str());
}

TEST(Campaign, ResumeAfterPartialFileRunsOnlyMissingUnits) {
    // Simulate a SIGKILLed campaign: keep the first 5 recorded lines
    // (including a torn 6th) and resume — exactly the other 7 units run.
    const std::string path = temp_path("partial");
    std::remove(path.c_str());

    scenario_runner first(2);
    const campaign_report full = run_campaign(tiny_spec(path), first);
    ASSERT_EQ(full.executed, 12u);

    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 13u);  // schema header + 12 records
    {
        std::ofstream out(path, std::ios::trunc);
        for (std::size_t i = 0; i < 6; ++i) out << lines[i] << "\n";
        out << lines[6].substr(0, lines[6].size() / 2);  // torn mid-write
    }

    scenario_runner second(2);
    const campaign_report resumed = run_campaign(tiny_spec(path), second);
    EXPECT_EQ(resumed.skipped, 5u);
    EXPECT_EQ(resumed.executed, 7u);
    ASSERT_EQ(resumed.records.size(), 12u);
    // Re-run units reproduce the original numbers (same seeds).
    for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_EQ(resumed.records[i].unit.key(), full.records[i].unit.key());
        EXPECT_EQ(resumed.records[i].messages, full.records[i].messages) << i;
    }

    // The resume must have started a fresh line after the torn fragment
    // (not glued its first record onto it): a third invocation parses
    // the whole file and re-runs nothing.
    scenario_runner third(2);
    const campaign_report settled = run_campaign(tiny_spec(path), third);
    EXPECT_EQ(settled.executed, 0u);
    EXPECT_EQ(settled.skipped, 12u);
    std::remove(path.c_str());
}

TEST(Campaign, DifferentTopologySeedDoesNotReuseRecordedRuns) {
    // --topology-seed resamples the graph instances; records measured on
    // the old instances must not satisfy the new sweep.
    const std::string path = temp_path("topo_seed");
    std::remove(path.c_str());

    scenario_runner first(2);
    ASSERT_EQ(run_campaign(tiny_spec(path), first).executed, 12u);

    campaign_spec resampled = tiny_spec(path);
    resampled.topology_seed = 2;
    scenario_runner second(2);
    const campaign_report rerun = run_campaign(resampled, second);
    EXPECT_EQ(rerun.executed, 12u);
    EXPECT_EQ(rerun.skipped, 0u);
    std::remove(path.c_str());
}

TEST(Campaign, VariantsShareOneGraphAndOneProfilePerTopology) {
    // The whole point of the shared cache: 2 variants x 3 seeds on one
    // (family, n) materialize ONE graph and profile it ONCE.
    scenario_runner runner(2);
    campaign_spec spec = tiny_spec();
    spec.families = {graph_family::watts_strogatz};
    const campaign_report report = run_campaign(spec, runner);
    EXPECT_EQ(report.executed, 6u);
    EXPECT_EQ(runner.cached_graphs(), 1u);
    EXPECT_EQ(runner.cached_profiles(), 1u);
    // And the cached instance is the same const graph* a fresh
    // materialize of the campaign's family_spec returns.
    const graph& g = runner.materialize(
        family_spec{graph_family::watts_strogatz, 16, spec.topology_seed});
    EXPECT_EQ(runner.cached_graphs(), 1u);
    for (const auto& rec : report.records) {
        EXPECT_EQ(rec.nodes, g.num_nodes());
        EXPECT_EQ(rec.edges, g.num_edges());
    }
}

TEST(Campaign, OutputIsByteIdenticalForAnyJobCount) {
    const std::string serial_path = temp_path("serial");
    const std::string wide_path = temp_path("wide");
    std::remove(serial_path.c_str());
    std::remove(wide_path.c_str());

    scenario_runner serial(1), wide(8);
    const campaign_report a = run_campaign(tiny_spec(serial_path), serial);
    const campaign_report b = run_campaign(tiny_spec(wide_path), wide);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(slurp(serial_path), slurp(wide_path));

    // The aggregate tables agree too.
    std::ostringstream ta, tb;
    campaign_table(a.records).print(ta);
    campaign_table(b.records).print(tb);
    EXPECT_EQ(ta.str(), tb.str());
    std::remove(serial_path.c_str());
    std::remove(wide_path.c_str());
}

// Twelve topology groups whose costs differ by ~100x: gilbert on the
// 32-node graphs is slow, everything on the 8-node ones is fast, so with
// several groups in flight later groups finish before earlier ones.
campaign_spec skewed_spec(std::string output) {
    campaign_spec spec;
    spec.families = {graph_family::torus, graph_family::cycle,
                     graph_family::hypercube, graph_family::star,
                     graph_family::watts_strogatz, graph_family::wheel};
    spec.sizes = {32, 8};
    spec.variants = {algo_kind::flood_max, algo_kind::gilbert};
    spec.seeds = 2;
    spec.output = std::move(output);
    return spec;
}

std::vector<std::string> lines_of(const std::string& path) {
    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
}

TEST(Campaign, OverlappedGroupsWriteTheSameBytesForAnyJobCount) {
    const std::string ref_path = temp_path("overlap_ref");
    std::remove(ref_path.c_str());
    scenario_runner serial(1);
    const campaign_report ref = run_campaign(skewed_spec(ref_path), serial);
    ASSERT_EQ(ref.executed, 48u);
    const std::string ref_bytes = slurp(ref_path);

    for (const std::size_t jobs : {2, 3, 8}) {
        const std::string path = temp_path("overlap_wide");
        std::remove(path.c_str());
        scenario_runner wide(jobs);
        const campaign_report rep = run_campaign(skewed_spec(path), wide);
        EXPECT_EQ(rep.executed, ref.executed) << "jobs " << jobs;
        EXPECT_EQ(slurp(path), ref_bytes) << "jobs " << jobs;
        ASSERT_EQ(rep.records.size(), ref.records.size());
        for (std::size_t i = 0; i < rep.records.size(); ++i) {
            EXPECT_EQ(rep.records[i].to_json(), ref.records[i].to_json()) << i;
        }
        std::remove(path.c_str());
    }
    std::remove(ref_path.c_str());
}

TEST(Campaign, ResumeWithGapsRunsOnlyTheMissingGroups) {
    // A ledger holding groups 0 and 2 only: the resume runs groups 1 and
    // 3…11 and appends them in expansion order after what is there.
    const std::string full_path = temp_path("gaps_full");
    const std::string path = temp_path("gaps");
    std::remove(full_path.c_str());
    std::remove(path.c_str());
    scenario_runner first(1);
    const campaign_report full = run_campaign(skewed_spec(full_path), first);
    const std::vector<std::string> lines = lines_of(full_path);
    const std::size_t group = campaign_group_size(skewed_spec(""));
    ASSERT_EQ(lines.size(), 1 + 12 * group);  // schema header + records
    const auto group_lines = [&](std::size_t g) {
        std::string out;
        for (std::size_t i = 0; i < group; ++i) out += lines[1 + g * group + i] + "\n";
        return out;
    };
    const std::string kept = lines[0] + "\n" + group_lines(0) + group_lines(2);
    {
        std::ofstream out(path, std::ios::trunc);
        out << kept;
    }

    scenario_runner second(3);
    const campaign_report resumed = run_campaign(skewed_spec(path), second);
    EXPECT_EQ(resumed.skipped, 2 * group);
    EXPECT_EQ(resumed.executed, 10 * group);
    EXPECT_EQ(second.cached_graphs(), 10u);  // groups 0 and 2 never materialized
    std::string expected = kept + group_lines(1);
    for (std::size_t g = 3; g < 12; ++g) expected += group_lines(g);
    EXPECT_EQ(slurp(path), expected);
    ASSERT_EQ(resumed.records.size(), full.records.size());
    for (std::size_t i = 0; i < full.records.size(); ++i) {
        EXPECT_EQ(resumed.records[i].to_json(), full.records[i].to_json()) << i;
    }
    std::remove(full_path.c_str());
    std::remove(path.c_str());
}

TEST(Campaign, GroupThatFailsToPrepareRethrowsAfterInFlightGroupsFinish) {
    // Group 1 (wheel, n = 0) cannot be generated. With 4 jobs, groups
    // 2, 3 and 4 are in flight when the failure reaches the front: the
    // error surfaces only after they finished (their graphs and profiles
    // are all cached), and the file holds group 0 alone.
    const std::string path = temp_path("prepare_throws");
    std::remove(path.c_str());
    campaign_spec spec = tiny_spec(path);
    spec.families = {graph_family::wheel};
    spec.sizes = {16, 0, 24, 32, 40};
    const std::size_t group = campaign_group_size(spec);

    scenario_runner runner(4);
    try {
        (void)run_campaign(spec, runner);
        ADD_FAILURE() << "expected the n = 0 group to throw";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("n >= 1"), std::string::npos) << e.what();
    }
    EXPECT_EQ(runner.cached_graphs(), 4u);
    EXPECT_EQ(runner.cached_profiles(), 4u);
    EXPECT_EQ(lines_of(path).size(), 1 + group);

    // Exactly group 0 is on file: without the bad size, a resume skips it
    // and runs the rest.
    spec.sizes = {16, 24, 32, 40};
    scenario_runner again(4);
    const campaign_report rep = run_campaign(spec, again);
    EXPECT_EQ(rep.skipped, group);
    EXPECT_EQ(rep.executed, 3 * group);
    std::remove(path.c_str());
}

TEST(Campaign, OneThreadRunnerKeepsOneThreadBusy) {
    // The stream under run_campaign on a one-thread runner: every batch is
    // prepared on the pool's single worker, never on the caller, and no
    // preparation overlaps another or the caller's consume.
    scenario_runner runner(1);
    std::mutex mu;
    std::size_t busy = 0, max_busy = 0;
    std::set<std::thread::id> preparers;
    std::vector<std::size_t> consumed;
    const auto enter = [&] {
        std::lock_guard<std::mutex> lk(mu);
        max_busy = std::max(max_busy, ++busy);
    };
    const auto leave = [&] {
        std::lock_guard<std::mutex> lk(mu);
        --busy;
    };
    runner.run_stream(
        6,
        [&](std::size_t b) {
            enter();
            {
                std::lock_guard<std::mutex> lk(mu);
                preparers.insert(std::this_thread::get_id());
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            std::vector<scenario> batch(1);
            batch[0].topology = family_spec{graph_family::cycle, 8 + b, 1};
            batch[0].repetitions = 2;
            leave();
            return batch;
        },
        [&](std::size_t b, std::vector<scenario_result> results) {
            enter();
            consumed.push_back(b);
            EXPECT_EQ(results.size(), 1u);
            EXPECT_EQ(results[0].runs.size(), 2u);
            leave();
        });
    EXPECT_EQ(max_busy, 1u);
    ASSERT_EQ(preparers.size(), 1u);
    EXPECT_NE(*preparers.begin(), std::this_thread::get_id());
    EXPECT_EQ(consumed, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(Campaign, VariantNamesParseIncludingAliases) {
    EXPECT_EQ(variant_from_string("flood_max"), algo_kind::flood_max);
    EXPECT_EQ(variant_from_string("flood"), algo_kind::flood_max);
    EXPECT_EQ(variant_from_string("gilbert"), algo_kind::gilbert);
    EXPECT_EQ(variant_from_string("irrevocable"), algo_kind::irrevocable);
    EXPECT_EQ(variant_from_string("revocable"), algo_kind::revocable);
    EXPECT_EQ(variant_from_string("cautious"), algo_kind::cautious_broadcast);
    EXPECT_EQ(variant_from_string("cautious_broadcast"), algo_kind::cautious_broadcast);
    EXPECT_FALSE(variant_from_string("nope").has_value());
}

TEST(Campaign, DefaultConfigsCoverEveryVariant) {
    for (const algo_kind k :
         {algo_kind::flood_max, algo_kind::gilbert, algo_kind::irrevocable,
          algo_kind::revocable, algo_kind::cautious_broadcast}) {
        EXPECT_EQ(kind_of(campaign_default_config(k, 64, 128)), k);
    }
    // The revocable round budget shrinks as the graph densifies.
    const auto sparse = std::get<revocable_cfg>(
        campaign_default_config(algo_kind::revocable, 64, 128));
    const auto dense = std::get<revocable_cfg>(
        campaign_default_config(algo_kind::revocable, 256, 16'000));
    EXPECT_GT(sparse.max_rounds, dense.max_rounds);
}

// --- ISSUE 8: oracle columns + adaptive dynamics through the ledger -----------

TEST(Campaign, OracleColumnsRoundTripThroughJsonl) {
    campaign_record rec;
    rec.unit = {graph_family::cycle, 16, 1, algo_kind::flood_max, 7,
                "assassin", *dynamics_preset("assassin")};
    rec.ok = true;
    rec.success = true;
    rec.oracle_ok = false;
    rec.oracle_summary = "VIOLATION multi_leader: 2 leaders with \"distinct\" ids";

    const std::string line = rec.to_json();
    EXPECT_NE(line.find("\"oracle_ok\":false"), std::string::npos);
    const campaign_record back = campaign_record::from_json(line);
    EXPECT_EQ(back.unit.key(), rec.unit.key());
    EXPECT_FALSE(back.oracle_ok);
    EXPECT_EQ(back.oracle_summary, rec.oracle_summary);

    // Healthy records write the flag but omit the summary payload.
    rec.oracle_ok = true;
    rec.oracle_summary.clear();
    const std::string ok_line = rec.to_json();
    EXPECT_NE(ok_line.find("\"oracle_ok\":true"), std::string::npos);
    EXPECT_EQ(ok_line.find("\"oracle\":\""), std::string::npos);
    EXPECT_TRUE(campaign_record::from_json(ok_line).oracle_ok);
}

TEST(Campaign, PreOracleLedgerLinesStillResume) {
    // Ledgers written before the oracle layer carry no oracle_ok key;
    // they must load (oracle_ok defaults true) and satisfy a resume.
    const std::string path = temp_path("pre_oracle");
    std::remove(path.c_str());

    scenario_runner first(2);
    ASSERT_EQ(run_campaign(tiny_spec(path), first).executed, 12u);

    // Rewrite the ledger with the oracle fields stripped AND the schema
    // header dropped, old-schema style (headerless legacy files must
    // keep resuming).
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 13u);  // schema header + 12 records
    {
        std::ofstream out(path, std::ios::trunc);
        for (auto& l : lines) {
            if (parse_campaign_schema_header(l).has_value()) continue;
            const auto pos = l.find(",\"oracle_ok\":");
            ASSERT_NE(pos, std::string::npos);
            const auto end = l.find(',', pos + 1);
            ASSERT_NE(end, std::string::npos);
            out << l.substr(0, pos) + l.substr(end) << "\n";
        }
    }

    scenario_runner second(2);
    const campaign_report resumed = run_campaign(tiny_spec(path), second);
    EXPECT_EQ(resumed.executed, 0u);
    EXPECT_EQ(resumed.skipped, 12u);
    for (const auto& rec : resumed.records) {
        EXPECT_TRUE(rec.oracle_ok) << rec.unit.key();
        EXPECT_TRUE(rec.oracle_summary.empty());
    }
    std::remove(path.c_str());
}

TEST(Campaign, AdaptiveDynamicsAxisResumesFromLedger) {
    // A campaign swept over adaptive presets keys each record with the
    // dynamics name; a re-invocation with the same spec re-runs nothing.
    campaign_spec spec;
    spec.families = {graph_family::wheel};
    spec.sizes = {16};
    spec.variants = {algo_kind::flood_max};
    spec.seeds = 2;
    spec.base_seed = 10;
    spec.dynamics = {{"static", dynamics_spec{}},
                     {"assassin", *dynamics_preset("assassin")},
                     {"frontier", *dynamics_preset("frontier")}};
    const std::string path = temp_path("adaptive_axis");
    std::remove(path.c_str());
    spec.output = path;

    scenario_runner first(2);
    const campaign_report run1 = run_campaign(spec, first);
    EXPECT_EQ(run1.executed, 6u);
    // Keys carry the dynamics suffix, so axes never alias each other.
    EXPECT_EQ(run1.records[2].unit.key(), "wheel/16/t1/flood_max/10/assassin");

    scenario_runner second(2);
    const campaign_report run2 = run_campaign(spec, second);
    EXPECT_EQ(run2.executed, 0u);
    EXPECT_EQ(run2.skipped, 6u);
    std::remove(path.c_str());
}

TEST(Campaign, LedgerStampsSchemaHeader) {
    const std::string path = temp_path("schema_header");
    std::remove(path.c_str());

    scenario_runner runner(2);
    ASSERT_EQ(run_campaign(tiny_spec(path), runner).executed, 12u);

    std::ifstream in(path);
    std::string first_line;
    ASSERT_TRUE(std::getline(in, first_line));
    EXPECT_EQ(first_line, campaign_schema_header_line());
    const auto version = parse_campaign_schema_header(first_line);
    ASSERT_TRUE(version.has_value());
    EXPECT_EQ(*version, campaign_schema_version);
    // Record lines are never mistaken for headers.
    std::string second_line;
    ASSERT_TRUE(std::getline(in, second_line));
    EXPECT_FALSE(parse_campaign_schema_header(second_line).has_value());

    // load_campaign_ledger skips the header and returns only records.
    EXPECT_EQ(load_campaign_ledger(path).size(), 12u);
    std::remove(path.c_str());
}

TEST(Campaign, IncompatibleSchemaVersionRejected) {
    const std::string path = temp_path("schema_reject");
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"schema\":\"anole-campaign\",\"version\":99}\n";
    }
    EXPECT_THROW((void)load_campaign_ledger(path), error);
    scenario_runner runner(2);
    EXPECT_THROW((void)run_campaign(tiny_spec(path), runner), error);
    std::remove(path.c_str());

    // Missing and headerless files pass the check.
    EXPECT_NO_THROW((void)load_campaign_ledger(path));
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"key\":\"not-a-header\"}\n";
    }
    EXPECT_NO_THROW((void)load_campaign_ledger(path));
    std::remove(path.c_str());
}

}  // namespace
}  // namespace anole
