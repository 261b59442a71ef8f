// Seeded mutation tests for the JSON parser and the line readers built on
// it. Real lines of every JSONL format anole reads back — a campaign
// record, a ledger schema header, a profile-cache entry, a lease body and
// a dynamics trace's header and event lines — are mutated
// deterministically (byte flips, truncations, insertions) and every
// mutant must either parse or throw anole::error: never crash,
// read out of bounds (the sanitizer CI lane runs this suite) or leak any
// other exception type.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/spectral.h"
#include "sim/campaign.h"
#include "sim/dynamics.h"
#include "sim/fleet.h"
#include "sim/profile_cache.h"
#include "sim/trace.h"
#include "util/json.h"
#include "util/rng.h"

namespace anole {
namespace {

constexpr std::size_t kMutantsPerKind = 1500;

// Tokens the insertions draw from half of the time: the parser's
// structural characters and escape openers, so mutants reach its deeper
// states (surrogate pairs, truncated escapes, nesting).
const std::vector<std::string> kTokens = {
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\\"", "\\u", "\\uD83D",
    "\\uDE00", "-", "0", "1e999", ".5", "true", "null", " ", "\x01", "\x7f"};

std::string mutate(const std::string& line, int kind, xoshiro256ss& rng) {
    std::string m = line;
    const auto any_byte = [&] { return static_cast<char>(rng() & 0xFF); };
    switch (kind) {
        case 0:  // flip one to three bytes
            for (std::uint64_t k = 0, n = 1 + rng() % 3; k < n; ++k) {
                m[rng() % m.size()] = any_byte();
            }
            break;
        case 1:  // truncate
            m.resize(rng() % m.size());
            break;
        default:  // insert one to three bytes or tokens
            for (std::uint64_t k = 0, n = 1 + rng() % 3; k < n; ++k) {
                const std::string piece = (rng() & 1)
                                              ? kTokens[rng() % kTokens.size()]
                                              : std::string(1, any_byte());
                m.insert(rng() % (m.size() + 1), piece);
            }
            break;
    }
    return m;
}

// Runs `consume` on every mutant of `line`; each call must return or
// throw anole::error. Returns how many mutants parsed as JSON, so a
// caller can check the mutants reach both outcomes.
std::size_t run_mutants(const std::string& line, std::uint64_t seed,
                        const std::function<void(const std::string&)>& consume) {
    xoshiro256ss rng(seed);
    std::size_t parsed = 0;
    for (int kind = 0; kind < 3; ++kind) {
        for (std::size_t i = 0; i < kMutantsPerKind; ++i) {
            const std::string m = mutate(line, kind, rng);
            try {
                (void)json_parse(m);
                ++parsed;
            } catch (const error&) {
            }
            try {
                consume(m);
            } catch (const error&) {
            }
        }
    }
    return parsed;
}

std::string temp_file(const char* tag) {
    return ::testing::TempDir() + "anole_mutation_" + tag;
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << bytes;
}

TEST(JsonMutation, CampaignRecordLine) {
    campaign_spec spec;
    spec.families = {graph_family::wheel};
    spec.sizes = {16};
    spec.variants = {algo_kind::irrevocable};
    spec.seeds = 1;
    spec.output = temp_file("record.jsonl");
    std::remove(spec.output.c_str());
    scenario_runner runner(1);
    const campaign_report rep = run_campaign(spec, runner);
    ASSERT_EQ(rep.records.size(), 1u);
    // A failed unit's record: its error text puts quote, backslash and
    // \u escapes on the line.
    campaign_record failed = rep.records.front();
    failed.ok = false;
    failed.error = "engine: \"round cap\" hit at C:\\runs\x01";
    const std::string line = failed.to_json();
    std::remove(spec.output.c_str());

    const std::size_t parsed = run_mutants(line, 1, [](const std::string& m) {
        campaign_ledger_reader reader("mutant");
        (void)reader.record(m);
        (void)campaign_record::from_json(m);
    });
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, 3 * kMutantsPerKind);
}

TEST(JsonMutation, SchemaHeaderLine) {
    const std::size_t parsed =
        run_mutants(campaign_schema_header_line(), 2, [](const std::string& m) {
            (void)parse_campaign_schema_header(m);
            campaign_ledger_reader reader("mutant");
            (void)reader.header(m);  // may throw: a mutant can name another version
        });
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, 3 * kMutantsPerKind);
}

TEST(JsonMutation, ProfileCacheLine) {
    const std::string path = temp_file("profile_cache.jsonl");
    std::remove(path.c_str());
    {
        profile_cache cache(path);
        cache.store("wheel/16", profile(make_cycle(16)));
    }
    std::string line;
    {
        std::ifstream in(path);
        ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
    }
    const std::size_t parsed = run_mutants(line, 3, [&](const std::string& m) {
        write_file(path, m + "\n");
        const profile_cache cache(path);  // bad entries are skipped, not fatal
        EXPECT_LE(cache.size(), 1u);
    });
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, 3 * kMutantsPerKind);
    std::remove(path.c_str());
}

TEST(JsonMutation, LeaseBody) {
    const std::string path = temp_file("lease.json");
    const std::string body = lease_info{"worker-7", 1700000000, 60, 12}.to_json();
    const std::size_t parsed = run_mutants(body, 4, [&](const std::string& m) {
        write_file(path, m + "\n");
        (void)read_lease(path);  // torn leases read as nullopt
    });
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, 3 * kMutantsPerKind);
    std::remove(path.c_str());
}

// A trace is a header line plus event lines; each mutant replaces one of
// them in an otherwise valid file. Loading, the footprint check and the
// spec knobs the replay reads must accept it or throw anole::error.
TEST(JsonMutation, TraceLines) {
    const std::string path = temp_file("trace.jsonl");
    dynamics_spec spec;
    spec.loss_prob = 0.25;
    spec.sleep_prob = 0.5;
    spec.strategy = adaptive_kind::cut_churn;
    {
        trace_writer w(path, 8, 16, 8, 0xFEEDFACECAFEBEEFULL, spec.to_json());
        w.record(0, trace_kind::window_reset);
        w.record(0, trace_kind::edge_down, 5);
        w.record(1, trace_kind::loss_kill, 12);
        w.record(2, trace_kind::sleep, 3, 6);
    }
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);) lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 5u);
    for (const std::size_t which : {std::size_t{0}, std::size_t{3}, std::size_t{4}}) {
        const auto consume = [&](const std::string& m) {
            std::string file;
            for (std::size_t i = 0; i < lines.size(); ++i) {
                file += (i == which ? m : lines[i]) + "\n";
            }
            write_file(path, file);
            const trace_log log = trace_log::load(path);
            log.check_against(8, 16, 8);
            (void)dynamics_from_json(log.spec);
        };
        const std::size_t parsed = run_mutants(lines[which], 5 + which, consume);
        EXPECT_GT(parsed, 0u) << "line " << which;
        EXPECT_LT(parsed, 3 * kMutantsPerKind) << "line " << which;
    }
    std::remove(path.c_str());
}

}  // namespace
}  // namespace anole
