// Tests for sim/campaign.h (ISSUE 2 satellite): spec expansion,
// JSONL record round-trip, resume-skips-completed, topology/profile
// cache sharing across variants, and byte-identical output regardless
// of --jobs.
#include "sim/campaign.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

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
