// Node join/leave tests (sim/dynamics.h membership churn + engine
// presence tracking): departures release their slot ranges, joiners
// respawn as fresh protocol instances attached on the footprint edges,
// and every driver reaches a *bounded* verdict even when the live set
// empties — the empty-live-set regression pins the `no_live_nodes`
// error, never a hang.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "baseline/flood_max.h"
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

// engine is pinned in place (non-copyable), so tests hold it in a rig.
struct chatter_rig {
    engine<chatterbox> eng;
    chatter_rig(const graph& g, const dynamics_spec& spec, std::uint64_t seed)
        : eng(g, seed) {
        eng.set_dynamics(spec, seed);
        eng.spawn([&](std::size_t u) {
            return chatterbox(g.degree(static_cast<node_id>(u)));
        });
    }
};

// --- leave / join mechanics ---------------------------------------------------

TEST(Membership, LeaversReleaseSlotsAndJoinersReattach) {
    const graph g = make_family(graph_family::torus, 25, 1);
    dynamics_spec spec;
    spec.leave_prob = 0.05;
    spec.join_prob = 0.5;
    chatter_rig rig(g, spec, 7);
    auto& eng = rig.eng;
    eng.run_rounds(60);
    const dynamics_stats st = eng.dynamics()->stats();
    EXPECT_GT(st.leaves, 0u);
    EXPECT_GT(st.joins, 0u);
    // A leaver with traffic in flight takes those messages down with it.
    EXPECT_GT(st.released_messages, 0u);
    // Presence bookkeeping closes: n - (leaves - joins) == present.
    EXPECT_EQ(eng.present_count(),
              g.num_nodes() - static_cast<std::size_t>(st.leaves - st.joins));
    EXPECT_LE(eng.live_count(), eng.present_count());
}

TEST(Membership, JoinRespawnsFreshProtocolInstance) {
    const graph g = make_cycle(12);
    dynamics_spec spec;
    spec.leave_prob = 0.2;
    spec.join_prob = 1.0;  // leavers come straight back
    chatter_rig rig(g, spec, 11);
    auto& eng = rig.eng;
    eng.run_rounds(40);
    const dynamics_stats st = eng.dynamics()->stats();
    ASSERT_GT(st.joins, 0u);
    // Everybody who left is back (join_prob = 1 readmits next round).
    EXPECT_GE(eng.present_count() + 1, g.num_nodes());
    // Respawned chatterboxes restart from digest 0 and keep running.
    EXPECT_EQ(eng.halted_count(), 0u);
}

TEST(Membership, ChurnIsBitwiseIdenticalAcrossNodeJobs) {
    const graph g = make_family(graph_family::dumbbell, 24, 1);
    dynamics_spec spec;
    spec.leave_prob = 0.05;
    spec.join_prob = 0.3;
    spec.loss_prob = 0.05;
    auto digest = [&](std::size_t node_jobs) {
        scoped_engine_parallelism par(engine_parallelism{nullptr, node_jobs});
        engine<chatterbox> eng(g, 5);
        eng.set_dynamics(spec, 5);
        eng.spawn([&](std::size_t u) {
            return chatterbox(g.degree(static_cast<node_id>(u)));
        });
        eng.run_rounds(50);
        std::vector<std::uint64_t> out;
        for (std::size_t u = 0; u < g.num_nodes(); ++u) {
            out.push_back(eng.node(u).digest_);
        }
        out.push_back(eng.dynamics()->stats().schedule_digest);
        return out;
    };
    const auto serial = digest(1);
    EXPECT_EQ(digest(2), serial);
    EXPECT_EQ(digest(8), serial);
}

// --- the empty-live-set regression --------------------------------------------

TEST(Membership, AllNodesLeavingYieldsBoundedNoLiveNodesVerdict) {
    const graph g = make_cycle(8);
    dynamics_spec spec;
    spec.leave_prob = 1.0;  // everyone departs in round 0's pre-pass
    chatter_rig rig(g, spec, 3);
    auto& eng = rig.eng;
    try {
        eng.run_until([] { return false; }, 1000);
        FAIL() << "run_until returned with an empty live set";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("no_live_nodes"), std::string::npos)
            << "actual error: " << e.what();
    }
    EXPECT_EQ(eng.live_count(), 0u);
    EXPECT_EQ(eng.present_count(), 0u);
}

TEST(Membership, FloodOnEmptyLiveSetReportsBoundedFailure) {
    const graph g = make_family(graph_family::star, 16, 1);
    dynamics_spec spec;
    spec.leave_prob = 1.0;
    const graph_profile prof = profile(g);
    const run_record rec =
        scenario_runner::run_once(g, prof, flood_cfg{}, 21, spec);
    EXPECT_FALSE(rec.ok);
    EXPECT_NE(rec.error.find("no_live_nodes"), std::string::npos)
        << "actual error: " << rec.error;
    EXPECT_FALSE(rec.success());
    EXPECT_NE(rec.verdict().find("error:"), std::string::npos);
}

// All-crash is the *other* way to empty the live set; that one resolves
// through run_until_halted's all-halted exit, not an exception.
TEST(Membership, AllCrashedResolvesThroughHaltedExit) {
    const graph g = make_cycle(8);
    dynamics_spec spec;
    spec.crash_prob = 1.0;
    chatter_rig rig(g, spec, 9);
    auto& eng = rig.eng;
    EXPECT_NO_THROW(eng.run_until_halted(1000));
    EXPECT_EQ(eng.live_count(), 0u);
    EXPECT_EQ(eng.present_count(), g.num_nodes());  // crashed, not departed
}

// Flood-max under membership churn: joiners never drew an ID, so they
// must not claim leadership at the final round (id == 0 guard).
TEST(Membership, FloodJoinersNeverClaimLeadership) {
    const graph g = make_family(graph_family::torus, 25, 1);
    dynamics_spec spec;
    spec.leave_prob = 0.05;
    spec.join_prob = 0.8;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const flood_result res = run_flood_max(g, /*diameter=*/8, seed,
                                               congest_budget::strict_log(16), spec);
        for (const oracle_violation& v : res.oracle.violations) {
            EXPECT_NE(v.check, "leader_undecided") << v.detail;
        }
    }
}

}  // namespace
}  // namespace anole
