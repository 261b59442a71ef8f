// Tests for the engine's sharded parallel rounds: node_jobs 1/2/8 must
// produce bitwise-identical metrics, halting rounds, and final node
// states — on every topology family in the zoo. The flat single-writer
// slot layout plus private per-node RNG streams is what makes this an
// exact (not statistical) guarantee; these tests are the enforcement.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/random_walk.h"
#include "graph/generators.h"
#include "sim/engine.h"
#include "sim/runner.h"

namespace anole {
namespace {

struct probe_msg {
    std::uint64_t value = 0;
    [[nodiscard]] std::size_t bit_size() const noexcept { return 8; }
};

// RNG-dependent chatter: sends a random value on a random subset of
// ports, folds what it hears into a running digest, halts at a per-node
// RNG-drawn round. Exercises randomness, partial sends, and staggered
// halting — everything that could diverge under resharding.
class scrambler {
public:
    using message_type = probe_msg;
    explicit scrambler(std::size_t degree) : degree_(degree) {}

    void on_round(node_ctx<probe_msg>& ctx, inbox_view<probe_msg> inbox) {
        for (const auto& [port, msg] : inbox) {
            digest_ = digest_ * 0x9e3779b97f4a7c15ULL + msg.value + port;
        }
        if (halt_round_ == 0) halt_round_ = 4 + ctx.rng().below(12);
        if (ctx.round() >= halt_round_) {
            ctx.halt();
            return;
        }
        for (port_id p = 0; p < degree_; ++p) {
            if (ctx.rng().bit()) ctx.send(p, probe_msg{ctx.rng()()});
        }
    }

    std::uint64_t digest_ = 0;

private:
    std::size_t degree_;
    std::uint64_t halt_round_ = 0;
};

struct run_digest {
    std::vector<std::uint64_t> node_state;
    std::uint64_t rounds = 0;
    std::size_t halted = 0;
    phase_counters totals;

    bool operator==(const run_digest&) const = default;
};

run_digest run_scrambler(const graph& g, std::size_t node_jobs, std::uint64_t seed) {
    scoped_engine_parallelism par(engine_parallelism{nullptr, node_jobs});
    engine<scrambler> eng(g, seed);
    eng.spawn([&](std::size_t u) { return scrambler(g.degree(static_cast<node_id>(u))); });
    run_digest d;
    d.rounds = eng.run_until_halted(1000);
    d.halted = eng.halted_count();
    d.totals = eng.metrics().total();
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        d.node_state.push_back(eng.node(u).digest_);
    }
    return d;
}

TEST(EngineParallel, ShardedRoundsMatchSerialExactly) {
    const graph g = make_random_regular(64, 4, 11);
    const run_digest serial = run_scrambler(g, 1, 42);
    EXPECT_EQ(run_scrambler(g, 2, 42), serial);
    EXPECT_EQ(run_scrambler(g, 8, 42), serial);
    // More shards than nodes degenerates gracefully.
    EXPECT_EQ(run_scrambler(g, 200, 42), serial);
}

TEST(EngineParallel, WalkEnsembleIdenticalAcrossNodeJobs) {
    const graph g = make_dumbbell(16, 4);
    auto run = [&](std::size_t node_jobs) {
        scoped_engine_parallelism par(engine_parallelism{nullptr, node_jobs});
        return run_walk_ensemble(g, 0, 5000, 64, 7);
    };
    const walk_ensemble_result serial = run(1);
    for (std::size_t k : {2, 8}) {
        const walk_ensemble_result sharded = run(k);
        EXPECT_EQ(sharded.resident, serial.resident) << "node_jobs=" << k;
        EXPECT_EQ(sharded.total_tokens, serial.total_tokens);
        EXPECT_EQ(sharded.totals.messages, serial.totals.messages);
        EXPECT_EQ(sharded.totals.bits, serial.totals.bits);
    }
}

// The acceptance bar: every family in the zoo, parallel == serial.
TEST(EngineParallel, AllTopologyFamiliesIdentical) {
    for (graph_family f : all_families()) {
        const graph g = make_family(f, 20, 3);
        const run_digest serial = run_scrambler(g, 1, 9);
        const run_digest sharded = run_scrambler(g, 3, 9);
        EXPECT_EQ(sharded, serial) << "family: " << to_string(f);
    }
}

TEST(EngineParallel, SharedPoolMatchesOwnedWorkers) {
    const graph g = make_torus(6, 6);
    thread_pool shared(3);
    const run_digest owned = run_scrambler(g, 3, 21);
    scoped_engine_parallelism par(engine_parallelism{&shared, 3});
    engine<scrambler> eng(g, 21);
    eng.spawn([&](std::size_t u) { return scrambler(g.degree(static_cast<node_id>(u))); });
    run_digest d;
    d.rounds = eng.run_until_halted(1000);
    d.halted = eng.halted_count();
    d.totals = eng.metrics().total();
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        d.node_state.push_back(eng.node(u).digest_);
    }
    EXPECT_EQ(d, owned);
}

TEST(EngineParallel, AmbientParallelismScopesAndRestores) {
    ASSERT_EQ(ambient_engine_parallelism().node_jobs, 1u);
    {
        scoped_engine_parallelism outer(engine_parallelism{nullptr, 4});
        EXPECT_EQ(ambient_engine_parallelism().node_jobs, 4u);
        {
            scoped_engine_parallelism inner(engine_parallelism{nullptr, 2});
            EXPECT_EQ(ambient_engine_parallelism().node_jobs, 2u);
        }
        EXPECT_EQ(ambient_engine_parallelism().node_jobs, 4u);
    }
    EXPECT_EQ(ambient_engine_parallelism().node_jobs, 1u);
}

// Protocol exceptions surface from sharded rounds just as from serial
// ones (strict budget violations are model semantics, never demoted).
class oversender {
public:
    using message_type = probe_msg;
    explicit oversender(std::size_t degree) : degree_(degree) {}
    void on_round(node_ctx<probe_msg>& ctx, inbox_view<probe_msg>) {
        for (port_id p = 0; p < degree_; ++p) ctx.send(p, probe_msg{});
    }

private:
    std::size_t degree_;
};

TEST(EngineParallel, StrictBudgetViolationPropagatesFromShards) {
    const graph g = make_cycle(16);
    scoped_engine_parallelism par(engine_parallelism{nullptr, 4});
    engine<oversender> eng(g, 1, congest_budget{budget_mode::strict, 4});  // 4 bits
    eng.spawn([&](std::size_t u) { return oversender(g.degree(static_cast<node_id>(u))); });
    EXPECT_THROW(eng.run_rounds(1), error);
}

// End-to-end through the ScenarioRunner: its node_jobs is a pure
// wall-clock knob — run records match the serial ones field for field.
TEST(EngineParallel, RunnerNodeJobsDoesNotChangeResults) {
    auto sweep = [&](std::size_t node_jobs) {
        scenario s;
        s.topology = family_spec{graph_family::torus, 16, 1};
        s.algo = flood_cfg{};
        s.seed = 5;
        s.repetitions = 3;
        scenario_runner runner(2, node_jobs);
        return runner.run(s);
    };
    const scenario_result serial = sweep(1);
    const scenario_result sharded = sweep(4);
    ASSERT_EQ(sharded.runs.size(), serial.runs.size());
    for (std::size_t r = 0; r < serial.runs.size(); ++r) {
        EXPECT_EQ(sharded.runs[r].ok, serial.runs[r].ok);
        EXPECT_EQ(sharded.runs[r].rounds(), serial.runs[r].rounds());
        EXPECT_EQ(sharded.runs[r].totals().messages, serial.runs[r].totals().messages);
        EXPECT_EQ(sharded.runs[r].totals().bits, serial.runs[r].totals().bits);
        EXPECT_EQ(sharded.runs[r].num_leaders(), serial.runs[r].num_leaders());
    }
}

}  // namespace
}  // namespace anole
