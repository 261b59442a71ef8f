// Trace record/replay tests (sim/trace.h): every realized adversary
// schedule is recordable as JSONL and replayable byte-for-byte — same
// node states, same metrics, same dynamics_stats including the
// schedule_digest — across node-jobs 1/2/8 on all 19 topology families.
// Hand-edited traces are rejected with a clear error, and a committed
// fixture (tests/data/) pins a recorded schedule as a regression anchor.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/spectral.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "sim/runner.h"
#include "util/json.h"

namespace anole {
namespace {

struct probe_msg {
    std::uint64_t value = 0;
    [[nodiscard]] std::size_t bit_size() const noexcept { return 8; }
};

// Deterministic chatter (no node RNG): the digest is a pure function of
// what the adversary let through, so replay equality is exactly schedule
// equality.
class chatterbox {
public:
    using message_type = probe_msg;
    explicit chatterbox(std::size_t degree) : degree_(degree) {}
    void on_round(node_ctx<probe_msg>& ctx, inbox_view<probe_msg> inbox) {
        for (const auto& [port, msg] : inbox) {
            digest_ = digest_ * 0x9e3779b97f4a7c15ULL + msg.value + port;
        }
        for (port_id p = 0; p < degree_; ++p) ctx.send(p, probe_msg{ctx.round()});
    }
    std::uint64_t digest_ = 0;

private:
    std::size_t degree_;
};

struct run_digest {
    std::vector<std::uint64_t> node_state;
    phase_counters totals;
    dynamics_stats dynamics;
    bool operator==(const run_digest&) const = default;
};

run_digest run_traced(const graph& g, const dynamics_spec& spec,
                      std::uint64_t seed, std::uint64_t rounds,
                      std::size_t node_jobs = 1) {
    scoped_engine_parallelism par(engine_parallelism{nullptr, node_jobs});
    engine<chatterbox> eng(g, seed);
    eng.set_dynamics(spec, seed);
    eng.spawn(
        [&](std::size_t u) { return chatterbox(g.degree(static_cast<node_id>(u))); });
    eng.run_rounds(rounds);
    run_digest d;
    d.totals = eng.metrics().total();
    d.dynamics = eng.dynamics()->stats();
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        d.node_state.push_back(eng.node(u).digest_);
    }
    return d;
}

// Every event source at once, so traces exercise every record kind.
dynamics_spec everything_spec() {
    dynamics_spec d;
    d.rewire_prob = 0.1;
    d.edge_down_prob = 0.2;
    d.churn_interval = 4;
    d.loss_prob = 0.05;
    d.crash_prob = 0.01;
    d.sleep_prob = 0.02;
    d.sleep_rounds = 3;
    d.leave_prob = 0.02;
    d.join_prob = 0.3;
    // Adaptive without a probe: every sender reads as undecided, so the
    // frontier strategy still emits adaptive_kill events.
    d.strategy = adaptive_kind::target_frontier_loss;
    d.strategy_intensity = 0.05;
    return d;
}

std::string temp_trace(const char* tag) {
    return testing::TempDir() + "anole_trace_" + tag + ".jsonl";
}

std::vector<std::string> read_lines(const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
}

void write_lines(const std::string& path, const std::vector<std::string>& lines) {
    std::ofstream out(path, std::ios::trunc);
    for (const auto& l : lines) out << l << "\n";
}

// --- the acceptance sweep: record -> replay, bitwise, all families ------------

TEST(Trace, RecordThenReplayIsBitwiseOnAllFamilies) {
    for (graph_family f : all_families()) {
        const graph g = make_family(f, 20, 3);
        const std::string path = temp_trace(to_string(f));

        dynamics_spec rec_spec = everything_spec();
        rec_spec.trace_record = path;
        const run_digest recorded = run_traced(g, rec_spec, 17, 40);
        EXPECT_NE(recorded.dynamics.schedule_digest, 0u) << to_string(f);

        dynamics_spec replay_spec;  // all knobs come from the file
        replay_spec.trace_replay = path;
        for (const std::size_t jobs : {1, 2, 8}) {
            const run_digest replayed = run_traced(g, replay_spec, 17, 40, jobs);
            EXPECT_EQ(replayed, recorded)
                << "family: " << to_string(f) << " node_jobs=" << jobs;
        }
        std::remove(path.c_str());
    }
}

// Re-recording a replay reproduces the file's event stream: record ->
// replay+record -> the second trace loads to the same events.
TEST(Trace, ReplayCanReRecordIdentically) {
    const graph g = make_family(graph_family::dumbbell, 24, 1);
    const std::string first = temp_trace("rerecord_a");
    const std::string second = temp_trace("rerecord_b");
    dynamics_spec spec = everything_spec();
    spec.trace_record = first;
    (void)run_traced(g, spec, 23, 30);

    dynamics_spec replay;
    replay.trace_replay = first;
    replay.trace_record = second;
    (void)run_traced(g, replay, 23, 30);

    const trace_log a = trace_log::load(first);
    const trace_log b = trace_log::load(second);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(read_lines(first).front(), read_lines(second).front());  // headers
    std::remove(first.c_str());
    std::remove(second.c_str());
}

// A trace carries its own spec + seed: replaying under a caller spec
// with *different* sampling knobs still reproduces the recorded run.
TEST(Trace, RecordedSpecOverridesCallerKnobs) {
    const graph g = make_cycle(16);
    const std::string path = temp_trace("override");
    dynamics_spec spec = everything_spec();
    spec.trace_record = path;
    const run_digest recorded = run_traced(g, spec, 31, 30);

    dynamics_spec replay;
    replay.loss_prob = 0.9;  // would devastate the run if honored
    replay.crash_prob = 0.9;
    replay.trace_replay = path;
    EXPECT_EQ(run_traced(g, replay, 31, 30), recorded);
    std::remove(path.c_str());
}

// --- probe-driven adversaries --------------------------------------------------

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string outcome_of(const run_record& rec) {
    std::ostringstream os;
    const phase_counters t = rec.totals();
    os << rec.verdict() << " rounds=" << rec.rounds() << " leaders=" << rec.num_leaders()
       << " msgs=" << t.messages << " bits=" << t.bits
       << " congest=" << t.congest_rounds << " oracle=" << rec.oracle().summary();
    return os.str();
}

// The adaptive and membership adversaries under the real drivers, which
// install a status probe: the assassin sees revocable's standing leaders
// and the cut churner sees gilbert's and cautious broadcast's decision
// boundaries, so their traces carry `acrash` and `ckill` lines (the
// probe-less chatterbox runs above only ever emit `akill`). Replaying
// each trace while re-recording it must reproduce the outcome, and the
// second trace file must equal the first byte for byte.
TEST(Trace, ProbeDrivenAdversariesReplayBitwise) {
    auto rv = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    rv.k_cap = 16;
    struct adversary {
        const char* preset;
        std::vector<algo_config> algos;
        std::vector<trace_kind> expected;  // kinds the traces must contain
    };
    const std::vector<adversary> adversaries = {
        {"assassin", {revocable_cfg{rv, false, 200'000}}, {trace_kind::adaptive_crash}},
        {"cutchurn", {gilbert_cfg{}, cautious_cfg{}}, {trace_kind::cut_kill}},
        {"member",
         {flood_cfg{}, revocable_cfg{rv, false, 200'000}},
         {trace_kind::leave, trace_kind::join}},
    };
    for (const adversary& adv : adversaries) {
        std::vector<std::size_t> seen(adv.expected.size(), 0);
        for (const graph_family f : {graph_family::cycle, graph_family::wheel}) {
            const graph g = make_family(f, 12, 2);
            const graph_profile prof = profile(g);
            for (std::size_t a = 0; a < adv.algos.size(); ++a) {
                for (const std::uint64_t seed : {3, 4}) {
                    const std::string tag = std::string(adv.preset) + "_" + to_string(f) +
                                            "_" + std::to_string(a) + "_" +
                                            std::to_string(seed);
                    const std::string first = temp_trace((tag + "_a").c_str());
                    const std::string second = temp_trace((tag + "_b").c_str());
                    dynamics_spec rec = *dynamics_preset(adv.preset);
                    rec.trace_record = first;
                    const run_record recorded =
                        scenario_runner::run_once(g, prof, adv.algos[a], seed, rec);
                    ASSERT_TRUE(recorded.ok) << tag << ": " << recorded.error;

                    dynamics_spec replay;
                    replay.trace_replay = first;
                    replay.trace_record = second;
                    const run_record replayed =
                        scenario_runner::run_once(g, prof, adv.algos[a], seed, replay);
                    ASSERT_TRUE(replayed.ok) << tag << ": " << replayed.error;
                    EXPECT_EQ(outcome_of(replayed), outcome_of(recorded)) << tag;
                    EXPECT_EQ(read_file(second), read_file(first)) << tag;

                    for (const trace_event& ev : trace_log::load(first).events) {
                        for (std::size_t k = 0; k < adv.expected.size(); ++k) {
                            seen[k] += ev.kind == adv.expected[k];
                        }
                    }
                    std::remove(first.c_str());
                    std::remove(second.c_str());
                }
            }
        }
        for (std::size_t k = 0; k < adv.expected.size(); ++k) {
            EXPECT_GT(seen[k], 0u) << adv.preset << " never emitted "
                                   << to_string(adv.expected[k]);
        }
    }
}

// --- pinned spec JSON -----------------------------------------------------------

// Trace headers and campaign resume keys carry dynamics_spec::to_json(),
// so its bytes are pinned: every preset, and one spec with every knob set
// (strings with characters that need escaping included).
TEST(Trace, SpecJsonPinnedForEveryPresetAndKnob) {
    const std::vector<std::pair<std::string, std::string>> pinned = {
        {"static",
         R"({"rewire_prob":0,"rewire_period":0,"edge_down_prob":0,"churn_interval":1,)"
         R"("protect_backbone":true,"loss_prob":0,"crash_prob":0,"sleep_prob":0,)"
         R"("sleep_rounds":4,"strategy":"none","strategy_intensity":1,)"
         R"("strategy_grace":1,"strategy_max_kills":1,"leave_prob":0,"join_prob":0,)"
         R"("seed":0})"},
        {"rewire",
         R"({"rewire_prob":0,"rewire_period":1,"edge_down_prob":0,"churn_interval":1,)"
         R"("protect_backbone":true,"loss_prob":0,"crash_prob":0,"sleep_prob":0,)"
         R"("sleep_rounds":4,"strategy":"none","strategy_intensity":1,)"
         R"("strategy_grace":1,"strategy_max_kills":1,"leave_prob":0,"join_prob":0,)"
         R"("seed":0})"},
        {"churn",
         R"({"rewire_prob":0,"rewire_period":0,"edge_down_prob":0.25,)"
         R"("churn_interval":8,"protect_backbone":true,"loss_prob":0,"crash_prob":0,)"
         R"("sleep_prob":0,"sleep_rounds":4,"strategy":"none","strategy_intensity":1,)"
         R"("strategy_grace":1,"strategy_max_kills":1,"leave_prob":0,"join_prob":0,)"
         R"("seed":0})"},
        {"loss",
         R"({"rewire_prob":0,"rewire_period":0,"edge_down_prob":0,"churn_interval":1,)"
         R"("protect_backbone":true,"loss_prob":0.050000000000000003,"crash_prob":0,)"
         R"("sleep_prob":0,"sleep_rounds":4,"strategy":"none","strategy_intensity":1,)"
         R"("strategy_grace":1,"strategy_max_kills":1,"leave_prob":0,"join_prob":0,)"
         R"("seed":0})"},
        {"crash",
         R"({"rewire_prob":0,"rewire_period":0,"edge_down_prob":0,"churn_interval":1,)"
         R"("protect_backbone":true,"loss_prob":0,"crash_prob":0.001,"sleep_prob":0,)"
         R"("sleep_rounds":4,"strategy":"none","strategy_intensity":1,)"
         R"("strategy_grace":1,"strategy_max_kills":1,"leave_prob":0,"join_prob":0,)"
         R"("seed":0})"},
        {"sleep",
         R"({"rewire_prob":0,"rewire_period":0,"edge_down_prob":0,"churn_interval":1,)"
         R"("protect_backbone":true,"loss_prob":0,"crash_prob":0,"sleep_prob":0.01,)"
         R"("sleep_rounds":8,"strategy":"none","strategy_intensity":1,)"
         R"("strategy_grace":1,"strategy_max_kills":1,"leave_prob":0,"join_prob":0,)"
         R"("seed":0})"},
        {"storm",
         R"({"rewire_prob":0.10000000000000001,"rewire_period":0,)"
         R"("edge_down_prob":0.14999999999999999,"churn_interval":4,)"
         R"("protect_backbone":true,"loss_prob":0.02,"crash_prob":0,)"
         R"("sleep_prob":0.0050000000000000001,"sleep_rounds":4,"strategy":"none",)"
         R"("strategy_intensity":1,"strategy_grace":1,"strategy_max_kills":1,)"
         R"("leave_prob":0,"join_prob":0,"seed":0})"},
        {"frontier",
         R"({"rewire_prob":0,"rewire_period":0,"edge_down_prob":0,"churn_interval":1,)"
         R"("protect_backbone":true,"loss_prob":0,"crash_prob":0,"sleep_prob":0,)"
         R"("sleep_rounds":4,"strategy":"target_frontier_loss",)"
         R"("strategy_intensity":0.5,"strategy_grace":1,"strategy_max_kills":1,)"
         R"("leave_prob":0,"join_prob":0,"seed":0})"},
        {"assassin",
         R"({"rewire_prob":0,"rewire_period":0,"edge_down_prob":0,"churn_interval":1,)"
         R"("protect_backbone":true,"loss_prob":0,"crash_prob":0,"sleep_prob":0,)"
         R"("sleep_rounds":4,"strategy":"leader_assassin","strategy_intensity":1,)"
         R"("strategy_grace":1,"strategy_max_kills":1,"leave_prob":0,"join_prob":0,)"
         R"("seed":0})"},
        {"cutchurn",
         R"({"rewire_prob":0,"rewire_period":0,"edge_down_prob":0,"churn_interval":1,)"
         R"("protect_backbone":true,"loss_prob":0,"crash_prob":0,"sleep_prob":0,)"
         R"("sleep_rounds":4,"strategy":"cut_churn",)"
         R"("strategy_intensity":0.59999999999999998,"strategy_grace":1,)"
         R"("strategy_max_kills":1,"leave_prob":0,"join_prob":0,"seed":0})"},
        {"member",
         R"({"rewire_prob":0,"rewire_period":0,"edge_down_prob":0,"churn_interval":1,)"
         R"("protect_backbone":true,"loss_prob":0,"crash_prob":0,"sleep_prob":0,)"
         R"("sleep_rounds":4,"strategy":"none","strategy_intensity":1,)"
         R"("strategy_grace":1,"strategy_max_kills":1,"leave_prob":0.01,)"
         R"("join_prob":0.050000000000000003,"seed":0})"},
    };
    const auto presets = all_dynamics_presets();
    ASSERT_EQ(presets.size(), pinned.size());
    for (std::size_t i = 0; i < pinned.size(); ++i) {
        EXPECT_EQ(presets[i].first, pinned[i].first);
        EXPECT_EQ(presets[i].second.to_json(), pinned[i].second) << pinned[i].first;
    }

    dynamics_spec d;
    d.rewire_prob = 0.125;
    d.rewire_period = 3;
    d.edge_down_prob = 0.2;
    d.churn_interval = 5;
    d.protect_backbone = false;
    d.loss_prob = 0.05;
    d.crash_prob = 0.001;
    d.sleep_prob = 0.01;
    d.sleep_rounds = 6;
    d.strategy = adaptive_kind::cut_churn;
    d.strategy_intensity = 0.6;
    d.strategy_grace = 2;
    d.strategy_max_kills = 3;
    d.leave_prob = 0.01;
    d.join_prob = 0.05;
    d.trace_record = "rec \"x\".jsonl";
    d.trace_replay = "in\\r.jsonl";
    d.seed = 987654321;
    EXPECT_EQ(d.to_json(),
              R"({"rewire_prob":0.125,"rewire_period":3,)"
              R"("edge_down_prob":0.20000000000000001,"churn_interval":5,)"
              R"("protect_backbone":false,"loss_prob":0.050000000000000003,)"
              R"("crash_prob":0.001,"sleep_prob":0.01,"sleep_rounds":6,)"
              R"("strategy":"cut_churn","strategy_intensity":0.59999999999999998,)"
              R"("strategy_grace":2,"strategy_max_kills":3,"leave_prob":0.01,)"
              R"("join_prob":0.050000000000000003,"trace_record":"rec \"x\".jsonl",)"
              R"("trace_replay":"in\\r.jsonl","seed":987654321})");
    EXPECT_EQ(dynamics_from_json(json_parse(d.to_json())).second, d);
}

// --- tamper rejection ---------------------------------------------------------

// Records a dense trace on a small cycle; every tamper case below edits
// this file and expects a *clear* rejection, not a silent divergence.
std::string record_tamper_base() {
    static const std::string path = [] {
        const graph g = make_cycle(8);
        const std::string p = temp_trace("tamper_base");
        dynamics_spec spec;
        spec.loss_prob = 0.3;
        spec.crash_prob = 0.05;
        spec.trace_record = p;
        (void)run_traced(g, spec, 41, 30);
        return p;
    }();
    return path;
}

void expect_replay_throws(const std::string& path, const char* what_substr) {
    const graph g = make_cycle(8);
    dynamics_spec replay;
    replay.trace_replay = path;
    try {
        (void)run_traced(g, replay, 41, 30);
        FAIL() << "tampered trace accepted (expected: " << what_substr << ")";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find(what_substr), std::string::npos)
            << "actual error: " << e.what();
    }
}

TEST(Trace, TamperedEventOrderIsRejected) {
    auto lines = read_lines(record_tamper_base());
    ASSERT_GT(lines.size(), 3u);
    // Swap the last two event lines: rounds become decreasing (or, for
    // same-round events, the cursor hits a mismatched kind).
    std::swap(lines[lines.size() - 1], lines[lines.size() - 2]);
    const std::string path = temp_trace("tamper_order");
    write_lines(path, lines);
    const graph g = make_cycle(8);
    dynamics_spec replay;
    replay.trace_replay = path;
    // Rejected either at load (round order) or at replay (stale event) —
    // both with a message pointing at the trace.
    try {
        (void)run_traced(g, replay, 41, 30);
        FAIL() << "reordered trace accepted";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("trace"), std::string::npos)
            << "actual error: " << e.what();
    }
    std::remove(path.c_str());
}

TEST(Trace, TamperedNodeIdIsRejected) {
    auto lines = read_lines(record_tamper_base());
    bool edited = false;
    for (auto& l : lines) {
        const auto pos = l.find("\"e\":\"crash\",\"a\":");
        if (pos == std::string::npos) continue;
        l = l.substr(0, pos) + "\"e\":\"crash\",\"a\":9999}";
        edited = true;
        break;
    }
    ASSERT_TRUE(edited) << "base trace recorded no crash events";
    const std::string path = temp_trace("tamper_id");
    write_lines(path, lines);
    expect_replay_throws(path, "out of range");
    std::remove(path.c_str());
}

TEST(Trace, UnknownEventKindIsRejected) {
    auto lines = read_lines(record_tamper_base());
    ASSERT_GT(lines.size(), 2u);
    lines[1] = R"({"r":0,"e":"meteor","a":1})";
    const std::string path = temp_trace("tamper_kind");
    write_lines(path, lines);
    expect_replay_throws(path, "unknown event kind");
    std::remove(path.c_str());
}

// A kill recorded twice names a slot whose message is already gone:
// replay rejects it at the kill itself, not at a later round boundary
// (which the last round of a run never reaches).
TEST(Trace, DuplicatedKillIsRejected) {
    auto lines = read_lines(record_tamper_base());
    std::size_t last_loss = 0;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        if (lines[i].find("\"e\":\"loss\"") != std::string::npos) last_loss = i;
    }
    ASSERT_GT(last_loss, 0u) << "base trace recorded no loss events";
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(last_loss) + 1,
                 lines[last_loss]);
    const std::string path = temp_trace("tamper_dup_kill");
    write_lines(path, lines);
    expect_replay_throws(path, "hits no live message");
    std::remove(path.c_str());
}

TEST(Trace, WrongTopologyIsRejected) {
    // A cycle(8) trace replayed on a torus: the footprint check fires.
    const graph g = make_family(graph_family::torus, 16, 1);
    dynamics_spec replay;
    replay.trace_replay = record_tamper_base();
    engine<chatterbox> eng(g, 41);
    try {
        eng.set_dynamics(replay, 41);
        eng.spawn([&](std::size_t u) {
            return chatterbox(g.degree(static_cast<node_id>(u)));
        });
        eng.run_rounds(5);
        FAIL() << "trace from a different topology accepted";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("trace"), std::string::npos)
            << "actual error: " << e.what();
    }
}

// --- header parsing ------------------------------------------------------------

// Rewrites the tamper base's header line with `edit` and returns the path
// of the edited copy.
std::string edited_header(const char* tag,
                          const std::function<void(std::string&)>& edit) {
    auto lines = read_lines(record_tamper_base());
    edit(lines.front());
    const std::string path = temp_trace(tag);
    write_lines(path, lines);
    return path;
}

run_digest replay_tamper_base(const std::string& path) {
    dynamics_spec replay;
    replay.trace_replay = path;
    return run_traced(make_cycle(8), replay, 41, 30);
}

TEST(Trace, HeaderWithSpacedSpecKeyLoads) {
    const std::string path = edited_header("spaced_spec", [](std::string& h) {
        const auto pos = h.find("\"spec\":");
        ASSERT_NE(pos, std::string::npos);
        h.replace(pos, 7, "\"spec\" : ");
    });
    EXPECT_EQ(replay_tamper_base(path), replay_tamper_base(record_tamper_base()));
    std::remove(path.c_str());
}

TEST(Trace, HeaderSpecStringWithBraceLoadsWhole) {
    const std::string path = edited_header("brace_spec", [](std::string& h) {
        const auto pos = h.find("\"spec\":{");
        ASSERT_NE(pos, std::string::npos);
        h.insert(pos + 8, R"("name":"a}",)");
    });
    const trace_log log = trace_log::load(path);
    EXPECT_EQ(log.spec.at("name").as_string(), "a}");
    EXPECT_EQ(log.spec.at("loss_prob").as_number(), 0.3);
    EXPECT_EQ(replay_tamper_base(path), replay_tamper_base(record_tamper_base()));
    std::remove(path.c_str());
}

TEST(Trace, HeaderSeedMustBePlainDecimal) {
    for (const char* bad : {"12abc", "-1", "", " 12", "+12", "18446744073709551616"}) {
        const std::string path = edited_header("bad_seed", [&](std::string& h) {
            const auto open = h.find("\"seed\":\"");
            ASSERT_NE(open, std::string::npos);
            const auto close = h.find('"', open + 8);
            h.replace(open + 8, close - (open + 8), bad);
        });
        expect_replay_throws(path, "not a plain decimal integer");
        std::remove(path.c_str());
    }
}

// --- the committed regression fixture -----------------------------------------

// tests/data/trace_cycle16.jsonl was recorded once (chatterbox, cycle 16,
// run seed 77, 40 rounds, the everything_spec schedule) and committed.
// Replaying it must reproduce the exact recorded schedule digest — if
// the dynamics layer's event order, digest offsets, or replay semantics
// drift, this constant moves and the test names the regression.
// Recorded 2026-08-08; regenerate with the recipe above if the trace
// format itself changes (and say why in the commit).
constexpr std::uint64_t kFixtureScheduleDigest = 0xe6152d3804782f4aULL;
constexpr std::uint64_t kFixtureNodeFold = 0x9f5272b7681a0308ULL;

TEST(Trace, CommittedFixtureReplaysBitwise) {
    const std::string path =
        std::string(ANOLE_SOURCE_DIR) + "/tests/data/trace_cycle16.jsonl";
    const graph g = make_cycle(16);
    dynamics_spec replay;
    replay.trace_replay = path;
    const run_digest d = run_traced(g, replay, 77, 40);
    EXPECT_EQ(d.dynamics.schedule_digest, kFixtureScheduleDigest);
    std::uint64_t node_fold = 0;
    for (const std::uint64_t s : d.node_state) {
        node_fold = node_fold * 0x9e3779b97f4a7c15ULL + s;
    }
    EXPECT_EQ(node_fold, kFixtureNodeFold);
}

}  // namespace
}  // namespace anole
