// Determinism tests for the dynamic-network layer (sim/dynamics.h): the
// whole adversary schedule is a pure function of the seed, applied in a
// serial pre-round pass — so runs under dynamics must stay bitwise
// identical across --node-jobs 1/2/8, on every family in the topology
// zoo (the PR that added sharded rounds pinned this for static runs;
// this extends the table to dynamic ones). Also pins the engine-level
// reduction: a full rewire firing before round 0 is indistinguishable
// from running statically on graph::with_permuted_ports.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/generators.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "sim/runner.h"

namespace anole {
namespace {

struct probe_msg {
    std::uint64_t value = 0;
    [[nodiscard]] std::size_t bit_size() const noexcept { return 8; }
};

// The engine_parallel_test scrambler, with arrival ports folded into the
// digest so port-rewiring is observable: random chatter on random port
// subsets, RNG-staggered halting.
class scrambler {
public:
    using message_type = probe_msg;
    explicit scrambler(std::size_t degree) : degree_(degree) {}

    void on_round(node_ctx<probe_msg>& ctx, inbox_view<probe_msg> inbox) {
        for (const auto& [port, msg] : inbox) {
            digest_ = digest_ * 0x9e3779b97f4a7c15ULL + msg.value + port;
        }
        if (halt_round_ == 0) halt_round_ = 6 + ctx.rng().below(14);
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
    dynamics_stats dynamics;  // includes the realized schedule_digest

    bool operator==(const run_digest&) const = default;
};

run_digest run_dynamic(const graph& g, const dynamics_spec& spec,
                       std::size_t node_jobs, std::uint64_t seed) {
    scoped_engine_parallelism par(engine_parallelism{nullptr, node_jobs});
    engine<scrambler> eng(g, seed);
    eng.set_dynamics(spec, seed);
    eng.spawn(
        [&](std::size_t u) { return scrambler(g.degree(static_cast<node_id>(u))); });
    run_digest d;
    d.rounds = eng.run_until_halted(2000);
    d.halted = eng.halted_count();
    d.totals = eng.metrics().total();
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        d.node_state.push_back(eng.node(u).digest_);
    }
    if (eng.dynamics() != nullptr) d.dynamics = eng.dynamics()->stats();
    return d;
}

// Every adversary at once — the spec most likely to expose a schedule
// that depends on thread interleaving.
dynamics_spec storm_spec() {
    dynamics_spec d;
    d.rewire_prob = 0.2;
    d.edge_down_prob = 0.2;
    d.churn_interval = 3;
    d.loss_prob = 0.05;
    d.sleep_prob = 0.02;
    d.sleep_rounds = 3;
    return d;
}

// The acceptance bar: all 19 zoo families, node_jobs 1/2/8, byte-equal
// node states, metrics, AND realized event schedules (schedule_digest).
TEST(DynamicsDeterminism, AllFamiliesIdenticalAcrossNodeJobs) {
    for (graph_family f : all_families()) {
        const graph g = make_family(f, 20, 3);
        const run_digest serial = run_dynamic(g, storm_spec(), 1, 17);
        EXPECT_EQ(run_dynamic(g, storm_spec(), 2, 17), serial)
            << "family: " << to_string(f) << " node_jobs=2";
        EXPECT_EQ(run_dynamic(g, storm_spec(), 8, 17), serial)
            << "family: " << to_string(f) << " node_jobs=8";
    }
}

TEST(DynamicsDeterminism, SameSeedSameSchedule) {
    const graph g = make_family(graph_family::dumbbell, 24, 1);
    const run_digest a = run_dynamic(g, storm_spec(), 1, 5);
    const run_digest b = run_dynamic(g, storm_spec(), 1, 5);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.dynamics.schedule_digest, 0u);  // the storm really fired
}

TEST(DynamicsDeterminism, DifferentSeedDifferentSchedule) {
    const graph g = make_family(graph_family::torus, 16, 1);
    const run_digest a = run_dynamic(g, storm_spec(), 1, 5);
    const run_digest b = run_dynamic(g, storm_spec(), 1, 6);
    EXPECT_NE(a.dynamics.schedule_digest, b.dynamics.schedule_digest);
}

// A deterministic protocol (always sends, never halts): its slot
// liveness is independent of the run seed, so the realized adversary
// schedule is a pure function of the spec seed alone.
class beacon {
public:
    using message_type = probe_msg;
    explicit beacon(std::size_t degree) : degree_(degree) {}
    void on_round(node_ctx<probe_msg>& ctx, inbox_view<probe_msg>) {
        for (port_id p = 0; p < degree_; ++p) ctx.send(p, probe_msg{ctx.round()});
    }

private:
    std::size_t degree_;
};

TEST(DynamicsDeterminism, ExplicitSpecSeedDecouplesScheduleFromRunSeed) {
    const graph g = make_family(graph_family::cycle, 20, 1);
    dynamics_spec d = storm_spec();
    d.seed = 99;  // pinned: the schedule no longer follows the run seed
    auto schedule = [&](std::uint64_t run_seed) {
        engine<beacon> eng(g, run_seed);
        eng.set_dynamics(d, run_seed);
        eng.spawn([&](std::size_t u) {
            return beacon(g.degree(static_cast<node_id>(u)));
        });
        eng.run_rounds(60);
        return eng.dynamics()->stats();
    };
    const dynamics_stats a = schedule(5);
    EXPECT_NE(a.schedule_digest, 0u);
    EXPECT_EQ(a, schedule(6));  // full stats equality, not just the digest
    // An unpinned spec (seed = 0) derives from the run seed instead.
    d.seed = 0;
    engine<beacon> eng(g, 5);
    eng.set_dynamics(d, 5);
    eng.spawn(
        [&](std::size_t u) { return beacon(g.degree(static_cast<node_id>(u))); });
    eng.run_rounds(60);
    EXPECT_NE(eng.dynamics()->stats().schedule_digest, a.schedule_digest);
}

// Engine-level reduction: a rewire_period beyond the run length fires
// exactly once, before round 0 (no messages in flight yet) — the run
// must be byte-identical to a static run on with_permuted_ports of the
// round-0 rewire seed. This is the bridge between the per-round
// adversary and the one-shot anonymity adversary the tests always used.
TEST(DynamicsDeterminism, SingleRewireReducesToWithPermutedPorts) {
    const graph g = make_family(graph_family::watts_strogatz, 32, 7);
    dynamics_spec d;
    d.rewire_period = 1 << 20;  // fires at round 0 only
    d.seed = 4321;
    const run_digest dynamic = run_dynamic(g, d, 1, 77);

    std::vector<std::uint32_t> peer = peer_slots(g);
    const graph permuted =
        g.with_permuted_ports(dynamics_state(g, peer, d, 77).rewire_seed(0));
    engine<scrambler> eng(permuted, 77);
    eng.spawn([&](std::size_t u) {
        return scrambler(permuted.degree(static_cast<node_id>(u)));
    });
    run_digest reference;
    reference.rounds = eng.run_until_halted(2000);
    reference.halted = eng.halted_count();
    reference.totals = eng.metrics().total();
    for (std::size_t u = 0; u < permuted.num_nodes(); ++u) {
        reference.node_state.push_back(eng.node(u).digest_);
    }

    EXPECT_EQ(dynamic.node_state, reference.node_state);
    EXPECT_EQ(dynamic.rounds, reference.rounds);
    EXPECT_EQ(dynamic.totals, reference.totals);
}

// The runner path: scenario::dynamics rides through run()/run_batch()
// and node_jobs stays a pure wall-clock knob under dynamics too.
TEST(DynamicsDeterminism, RunnerNodeJobsInvariantUnderDynamics) {
    auto sweep = [&](std::size_t node_jobs) {
        scenario s;
        s.topology = family_spec{graph_family::torus, 16, 1};
        s.algo = flood_cfg{};
        s.seed = 12;
        s.repetitions = 3;
        s.dynamics = storm_spec();
        scenario_runner runner(2, node_jobs);
        return runner.run(s);
    };
    const scenario_result serial = sweep(1);
    const scenario_result sharded = sweep(4);
    ASSERT_EQ(sharded.runs.size(), serial.runs.size());
    for (std::size_t r = 0; r < serial.runs.size(); ++r) {
        EXPECT_EQ(sharded.runs[r].ok, serial.runs[r].ok);
        EXPECT_EQ(sharded.runs[r].error, serial.runs[r].error);
        EXPECT_EQ(sharded.runs[r].rounds(), serial.runs[r].rounds());
        EXPECT_EQ(sharded.runs[r].totals().messages, serial.runs[r].totals().messages);
        EXPECT_EQ(sharded.runs[r].totals().bits, serial.runs[r].totals().bits);
        EXPECT_EQ(sharded.runs[r].num_leaders(), serial.runs[r].num_leaders());
    }
}

}  // namespace
}  // namespace anole
