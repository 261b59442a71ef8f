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
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "sim/dynamics.h"
#include "sim/engine.h"

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
    EXPECT_EQ(a.spec_json, b.spec_json);
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

// --- tamper rejection ---------------------------------------------------------

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
