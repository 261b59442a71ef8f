// Adaptive-adversary tests (sim/dynamics.h adaptive_kind): each built-in
// strategy observes the engine's per-round status snapshot and lands its
// signature attack — the assassin crashes a flag-flying *live* leader
// after its grace period, frontier loss kills only undecided senders'
// traffic, cut_churn kills only boundary-crossing traffic — while the
// schedule stays a pure function of the seed (bitwise identical across
// --node-jobs) and selectable by preset name from campaign specs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baseline/flood_max.h"
#include "core/revocable.h"
#include "graph/generators.h"
#include "sim/campaign.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "util/json.h"

namespace anole {
namespace {

struct probe_msg {
    std::uint64_t value = 0;
    [[nodiscard]] std::size_t bit_size() const noexcept { return 8; }
};

// Minimal protocol with an observable *live* leader: designated chiefs
// raise the flag at round 2 and keep broadcasting forever. (Flood-max
// leaders halt the instant they decide, and the assassin only strikes
// live nodes — so the one-shot election baselines cannot exercise it.)
class standing_leader {
public:
    using message_type = probe_msg;
    standing_leader(std::size_t degree, bool chief) : degree_(degree), chief_(chief) {}

    void on_round(node_ctx<probe_msg>& ctx, inbox_view<probe_msg> inbox) {
        (void)inbox;
        if (chief_ && ctx.round() >= 2) {
            decided_ = true;
            leader_ = true;
        }
        for (port_id p = 0; p < degree_; ++p) ctx.send(p, probe_msg{ctx.round()});
    }

    bool decided_ = false;
    bool leader_ = false;

private:
    std::size_t degree_;
    bool chief_;
};

// engine is pinned in place (non-copyable), so tests hold it in a rig.
struct standing_rig {
    engine<standing_leader> eng;

    template <class Pick>
    standing_rig(const graph& g, const dynamics_spec& spec, std::uint64_t seed,
                 Pick&& is_chief)
        : eng(g, seed) {
        eng.set_dynamics(spec, seed);
        eng.spawn([&](std::size_t u) {
            return standing_leader(g.degree(static_cast<node_id>(u)), is_chief(u));
        });
        eng.set_status_probe([this](std::size_t u) { return status(u); });
    }

    [[nodiscard]] node_status status(std::size_t u) const {
        node_status st;
        st.decided = eng.node(u).decided_;
        st.leader = eng.node(u).leader_;
        st.own_id = u + 1;
        return st;
    }
};

// --- leader_assassin ----------------------------------------------------------

TEST(AdaptiveAdversary, AssassinCrashesTheLeaderAfterGrace) {
    const graph g = make_cycle(12);
    dynamics_spec spec;
    spec.strategy = adaptive_kind::leader_assassin;
    spec.strategy_grace = 1;
    spec.strategy_max_kills = 1;
    standing_rig rig(g, spec, 3, [](std::size_t u) { return u == 0; });
    rig.eng.run_rounds(20);
    // Flag up during round 2, first observed in round 3's pre-pass,
    // struck one grace round later.
    EXPECT_TRUE(rig.eng.node_crashed(0));
    EXPECT_EQ(rig.eng.dynamics()->stats().assassinations, 1u);
    const oracle_report rep =
        run_oracle(rig.eng, [&rig](std::size_t u) { return rig.status(u); });
    EXPECT_EQ(rep.crashed_leaders, 1u);
    EXPECT_EQ(rep.live_leaders, 0u);
    EXPECT_TRUE(rep.pass()) << rep.summary();
}

TEST(AdaptiveAdversary, AssassinHonorsKillBudget) {
    const graph g = make_cycle(12);
    dynamics_spec spec;
    spec.strategy = adaptive_kind::leader_assassin;
    spec.strategy_grace = 1;
    spec.strategy_max_kills = 1;
    // Two standing leaders, budget for one kill: exactly one survives.
    standing_rig rig(g, spec, 5, [](std::size_t u) { return u < 2; });
    rig.eng.run_rounds(30);
    EXPECT_EQ(rig.eng.dynamics()->stats().assassinations, 1u);
    EXPECT_EQ(static_cast<int>(rig.eng.node_crashed(0)) +
                  static_cast<int>(rig.eng.node_crashed(1)),
              1);
}

// Revocable under the assassin: the attack lands (or the run ends before
// a leader ever stood long enough), the oracle never reports a safety
// violation, and every run ends in a bounded verdict.
TEST(AdaptiveAdversary, RevocableSurvivesAssassinationSafely) {
    const graph g = make_cycle(8);
    dynamics_spec spec;
    spec.strategy = adaptive_kind::leader_assassin;
    spec.strategy_grace = 2;
    spec.strategy_max_kills = 1;
    auto params = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    params.k_cap = 16;
    std::uint64_t assassinations = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const revocable_result res =
            run_revocable(g, params, seed, /*max_rounds=*/200'000,
                          congest_budget::fragmenting(16), spec);
        EXPECT_TRUE(res.oracle.pass()) << "seed " << seed << ": "
                                       << res.oracle.summary();
        assassinations += res.oracle.crashed_leaders;
    }
    EXPECT_GT(assassinations, 0u)
        << "no seed ever produced an observable assassination";
}

// --- message-killing strategies ----------------------------------------------

TEST(AdaptiveAdversary, FrontierLossHitsOnlyUndecidedSenders) {
    const graph g = make_family(graph_family::torus, 36, 1);
    dynamics_spec spec;
    spec.strategy = adaptive_kind::target_frontier_loss;
    spec.strategy_intensity = 0.5;
    engine<flood_max_node> eng(g, 7);
    eng.set_dynamics(spec, 7);
    eng.spawn([&](std::size_t u) {
        return flood_max_node(g.degree(static_cast<node_id>(u)),
                              g.num_nodes() * g.num_nodes(), 11);
    });
    eng.set_status_probe([&eng](std::size_t u) {
        node_status st;
        st.decided = eng.node(u).done();
        st.leader = eng.node(u).is_leader();
        st.own_id = eng.node(u).id();
        return st;
    });
    eng.run_until_halted(20);
    const dynamics_stats st = eng.dynamics()->stats();
    EXPECT_GT(st.targeted_losses, 0u);
    EXPECT_EQ(st.cut_losses, 0u);
    EXPECT_EQ(st.lost_messages, 0u);  // no oblivious loss configured
}

TEST(AdaptiveAdversary, CutChurnKillsBoundaryTrafficOnly) {
    // One standing leader makes node 0 permanently decided while the rest
    // never decide: every slot out of / into node 0 crosses the boundary.
    const graph g = make_cycle(12);
    dynamics_spec spec;
    spec.strategy = adaptive_kind::cut_churn;
    spec.strategy_intensity = 1.0;
    standing_rig rig(g, spec, 9, [](std::size_t u) { return u == 0; });
    rig.eng.run_rounds(20);
    const dynamics_stats st = rig.eng.dynamics()->stats();
    EXPECT_GT(st.cut_losses, 0u);
    EXPECT_EQ(st.targeted_losses, 0u);
    // Intensity 1 on a 2-regular cycle: exactly the four boundary slots
    // (0<->1, 0<->11, both directions) die per round once the flag is up,
    // never interior traffic — bounded by 4 per round over 20 rounds.
    EXPECT_LE(st.cut_losses, 4u * 20);
}

// Every round each node tells every neighbour its parity and counts the
// messages it receives from the other parity.
class parity_node {
public:
    using message_type = probe_msg;
    parity_node(std::size_t degree, std::uint64_t parity)
        : degree_(degree), parity_(parity) {}

    void on_round(node_ctx<probe_msg>& ctx, inbox_view<probe_msg> inbox) {
        for (const auto& [port, msg] : inbox) {
            (void)port;
            if (msg.value != parity_) ++crossings_;
        }
        for (port_id p = 0; p < degree_; ++p) ctx.send(p, probe_msg{parity_});
    }

    std::uint64_t crossings_ = 0;

private:
    std::size_t degree_;
    std::uint64_t parity_;
};

// Regression: cut_churn must judge a slot's receiver through the peer
// table as the latest rewire left it. With the odd nodes decided, every
// cross-parity message is boundary traffic, so intensity 1 kills all of
// it even while every node's ports are relabeled each round.
TEST(AdaptiveAdversary, CutChurnJudgesLiveReceiversUnderRewire) {
    const graph g = make_complete(8);
    dynamics_spec spec;
    spec.rewire_period = 1;
    spec.strategy = adaptive_kind::cut_churn;
    spec.strategy_intensity = 1.0;
    engine<parity_node> eng(g, 5);
    eng.set_dynamics(spec, 5);
    eng.spawn([&](std::size_t u) {
        return parity_node(g.degree(static_cast<node_id>(u)), u % 2);
    });
    eng.set_status_probe([](std::size_t u) {
        node_status st;
        st.decided = u % 2 == 1;
        return st;
    });
    eng.run_rounds(50);
    std::uint64_t crossings = 0;
    for (std::size_t u = 0; u < g.num_nodes(); ++u) crossings += eng.node(u).crossings_;
    EXPECT_EQ(crossings, 0u);
    EXPECT_GT(eng.dynamics()->stats().cut_losses, 0u);
}

// --- determinism: adaptivity must not break node-jobs identity ----------------

TEST(AdaptiveAdversary, BitwiseIdenticalAcrossNodeJobs) {
    const graph g = make_family(graph_family::watts_strogatz, 32, 3);
    for (const adaptive_kind k :
         {adaptive_kind::target_frontier_loss, adaptive_kind::leader_assassin,
          adaptive_kind::cut_churn}) {
        dynamics_spec spec;
        spec.strategy = k;
        spec.strategy_intensity = 0.4;
        auto run = [&](std::size_t node_jobs) {
            scoped_engine_parallelism par(engine_parallelism{nullptr, node_jobs});
            engine<flood_max_node> eng(g, 13);
            eng.set_dynamics(spec, 13);
            eng.spawn([&](std::size_t u) {
                return flood_max_node(g.degree(static_cast<node_id>(u)),
                                      g.num_nodes() * g.num_nodes(), 12);
            });
            eng.set_status_probe([&eng](std::size_t u) {
                node_status st;
                st.decided = eng.node(u).done();
                st.leader = eng.node(u).is_leader();
                st.own_id = eng.node(u).id();
                return st;
            });
            eng.run_until_halted(20);
            return eng.dynamics()->stats();
        };
        const dynamics_stats serial = run(1);
        EXPECT_EQ(run(2), serial) << to_string(k) << " node_jobs=2";
        EXPECT_EQ(run(8), serial) << to_string(k) << " node_jobs=8";
    }
}

// --- spec plumbing ------------------------------------------------------------

TEST(AdaptiveAdversary, StrategyNamesRoundTrip) {
    for (const adaptive_kind k :
         {adaptive_kind::none, adaptive_kind::target_frontier_loss,
          adaptive_kind::leader_assassin, adaptive_kind::cut_churn}) {
        const auto back = adaptive_from_string(to_string(k));
        ASSERT_TRUE(back.has_value()) << to_string(k);
        EXPECT_EQ(*back, k);
    }
    EXPECT_FALSE(adaptive_from_string("nope").has_value());
}

TEST(AdaptiveAdversary, PresetsSelectableAndJsonRoundTrips) {
    for (const char* name : {"frontier", "assassin", "cutchurn", "member"}) {
        const auto preset = dynamics_preset(name);
        ASSERT_TRUE(preset.has_value()) << name;
        ASSERT_TRUE(preset->enabled()) << name;
        // to_json -> dynamics_from_json is the identity on every knob.
        const json_value v = json_parse(preset->to_json());
        const auto [rt_name, rt_spec] = dynamics_from_json(v);
        (void)rt_name;
        EXPECT_EQ(rt_spec, *preset) << name;
    }
}

TEST(AdaptiveAdversary, CampaignSpecParsesAdaptiveAxis) {
    const campaign_spec spec = campaign_spec_from_json(R"({
        "families": ["cycle"], "sizes": [16], "variants": ["flood"],
        "seeds": 1,
        "dynamics": ["assassin",
                     {"name": "hard_frontier",
                      "strategy": "target_frontier_loss",
                      "strategy_intensity": 0.9}]
    })");
    ASSERT_EQ(spec.dynamics.size(), 2u);
    EXPECT_EQ(spec.dynamics[0].second.strategy, adaptive_kind::leader_assassin);
    EXPECT_EQ(spec.dynamics[1].first, "hard_frontier");
    EXPECT_EQ(spec.dynamics[1].second.strategy,
              adaptive_kind::target_frontier_loss);
    EXPECT_DOUBLE_EQ(spec.dynamics[1].second.strategy_intensity, 0.9);
}

}  // namespace
}  // namespace anole
