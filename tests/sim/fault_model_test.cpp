// Statistical and equivalence tests for the fault models of
// sim/dynamics.h: chi-squared validation that realized message-loss and
// crash rates match the configured Bernoulli parameters (same style and
// thresholds as rng_test's LazyWalkStep checks), zero-effect dynamics bitwise
// identical to static runs, budget accounting under loss, and the
// acceptance sweep — all five algorithms reach a verdict (success or
// bounded failure, never a hang) under every dynamics preset on cycle,
// dumbbell and torus.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/generators.h"
#include "sim/campaign.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "sim/runner.h"

namespace anole {
namespace {

struct probe_msg {
    std::uint64_t value = 0;
    [[nodiscard]] std::size_t bit_size() const noexcept { return 8; }
};

// Maximal chatter: every node sends on every port every round and never
// halts — so with no churn/crash every one of the 2m slots is live every
// round, making the per-run delivery count a constant and the realized
// loss count an exact Binomial(deliveries, loss_prob) sample.
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

dynamics_stats run_chatter(const graph& g, const dynamics_spec& spec,
                           std::uint64_t seed, std::uint64_t rounds) {
    engine<chatterbox> eng(g, seed);
    eng.set_dynamics(spec, seed);
    eng.spawn(
        [&](std::size_t u) { return chatterbox(g.degree(static_cast<node_id>(u))); });
    eng.run_rounds(rounds);
    return eng.dynamics()->stats();
}

// rng_test's generous threshold: df + 5·sqrt(2·df) is far past
// the 99.9th percentile; with fixed seeds the statistic is deterministic
// anyway — the margin guards against resampling churn.
double chi2_threshold(std::size_t df) {
    return static_cast<double>(df) + 5.0 * std::sqrt(2.0 * static_cast<double>(df));
}

// One-sample chi-squared of integer samples against Binomial(n, p),
// bucketed over mean ± 4σ with the outermost buckets absorbing tails.
void expect_binomial_match(const std::vector<std::uint64_t>& samples,
                           std::uint64_t n, double p) {
    const double nd = static_cast<double>(n);
    const double mean = nd * p;
    const double sd = std::sqrt(nd * p * (1 - p));
    const int buckets = 12;
    const double lo = mean - 4 * sd, hi = mean + 4 * sd;
    const double width = (hi - lo) / buckets;
    auto bucket_of = [&](double k) {
        const int i = static_cast<int>((k - lo) / width);
        return i < 0 ? 0 : (i >= buckets ? buckets - 1 : i);
    };
    std::vector<double> expected(buckets, 0.0);
    const double logn1 = std::lgamma(nd + 1);
    for (std::uint64_t k = 0; k <= n; ++k) {
        const double kd = static_cast<double>(k);
        const double logpmf = logn1 - std::lgamma(kd + 1) -
                              std::lgamma(nd - kd + 1) + kd * std::log(p) +
                              (nd - kd) * std::log(1 - p);
        expected[bucket_of(kd)] += std::exp(logpmf) * static_cast<double>(samples.size());
    }
    std::vector<int> observed(buckets, 0);
    for (const std::uint64_t s : samples) {
        ++observed[bucket_of(static_cast<double>(s))];
    }
    // Pool sparse buckets (tails) so every cell has healthy mass.
    std::vector<double> pe, po;
    double ce = 0, co = 0;
    for (int i = 0; i < buckets; ++i) {
        ce += expected[i];
        co += observed[i];
        if (ce >= 10) {
            pe.push_back(ce);
            po.push_back(co);
            ce = co = 0;
        }
    }
    if (ce > 0 && !pe.empty()) {
        pe.back() += ce;
        po.back() += co;
    }
    ASSERT_GE(pe.size(), 3u);
    double chi2 = 0;
    for (std::size_t i = 0; i < pe.size(); ++i) {
        const double d = po[i] - pe[i];
        chi2 += d * d / pe[i];
    }
    EXPECT_LT(chi2, chi2_threshold(pe.size() - 1));
}

// --- loss rate ----------------------------------------------------------------

TEST(FaultModel, LossRateMatchesConfiguredBernoulli) {
    const graph g = make_cycle(16);  // 32 directed slots, all live per round
    const std::uint64_t rounds = 30;
    const double p = 0.05;
    dynamics_spec spec;
    spec.loss_prob = p;
    std::vector<std::uint64_t> losses;
    std::uint64_t deliveries = 0;
    for (std::uint64_t run = 0; run < 200; ++run) {
        const dynamics_stats st = run_chatter(g, spec, 9000 + run, rounds);
        // Round 0 has nothing in flight; every later round delivers 2m.
        ASSERT_EQ(st.deliveries, 2 * g.num_edges() * (rounds - 1));
        deliveries = st.deliveries;
        losses.push_back(st.lost_messages);
        EXPECT_EQ(st.churned_messages, 0u);
        EXPECT_EQ(st.crashes, 0u);
    }
    expect_binomial_match(losses, deliveries, p);
}

// --- crash rate ---------------------------------------------------------------

TEST(FaultModel, CrashRateMatchesConfiguredBernoulli) {
    const graph g = make_family(graph_family::torus, 36, 1);
    dynamics_spec spec;
    spec.crash_prob = 0.1;
    std::vector<std::uint64_t> crashes;
    for (std::uint64_t run = 0; run < 300; ++run) {
        // One round: every node is live, so crash_trials == n exactly and
        // the crash count is one clean Binomial(n, p) sample per run.
        const dynamics_stats st = run_chatter(g, spec, 500 + run, 1);
        ASSERT_EQ(st.crash_trials, g.num_nodes());
        crashes.push_back(st.crashes);
    }
    expect_binomial_match(crashes, g.num_nodes(), spec.crash_prob);
}

TEST(FaultModel, CrashedNodesStayPermanentlySilent) {
    const graph g = make_cycle(12);
    dynamics_spec spec;
    spec.crash_prob = 0.2;
    engine<chatterbox> eng(g, 3);
    eng.set_dynamics(spec, 3);
    eng.spawn(
        [&](std::size_t u) { return chatterbox(g.degree(static_cast<node_id>(u))); });
    eng.run_rounds(40);
    const dynamics_stats st = eng.dynamics()->stats();
    EXPECT_GT(st.crashes, 0u);  // p=0.2 over 12 nodes x 40 rounds
    EXPECT_EQ(eng.halted_count(), st.crashes);  // crash == engine-halted
    // Trials only ever count live nodes: once everyone crashed, no draws.
    EXPECT_LE(st.crash_trials, 12ull * 40);
}

// --- zero-effect dynamics == static -------------------------------------------

std::vector<std::uint64_t> chatter_digests(const graph& g, std::uint64_t seed,
                                           std::uint64_t rounds,
                                           const dynamics_spec* spec) {
    engine<chatterbox> eng(g, seed);
    if (spec != nullptr) eng.set_dynamics(*spec, seed);
    eng.spawn(
        [&](std::size_t u) { return chatterbox(g.degree(static_cast<node_id>(u))); });
    eng.run_rounds(rounds);
    std::vector<std::uint64_t> out;
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        out.push_back(eng.node(u).digest_);
    }
    return out;
}

TEST(FaultModel, AllZeroSpecIsExactlyStatic) {
    const graph g = make_family(graph_family::dumbbell, 20, 1);
    const dynamics_spec zero;  // enabled() == false
    EXPECT_FALSE(zero.enabled());
    EXPECT_EQ(chatter_digests(g, 11, 25, &zero), chatter_digests(g, 11, 25, nullptr));
}

// Churn machinery running every round with zero possible effect: on a
// tree every edge is in the BFS backbone, so protect_backbone masks the
// entire churn draw and the run must stay bitwise identical to static —
// the strongest "zero realized rate == static" statement, because the
// full per-round fault pass (window redraws, live-slot scan) executes.
TEST(FaultModel, ProtectedBackboneOnTreeIsExactlyStatic) {
    const graph g = make_family(graph_family::binary_tree, 31, 1);
    ASSERT_EQ(g.num_edges(), g.num_nodes() - 1);  // a tree: backbone == all
    dynamics_spec spec;
    spec.edge_down_prob = 0.9;
    spec.churn_interval = 2;
    ASSERT_TRUE(spec.enabled());
    engine<chatterbox> eng(g, 13);
    eng.set_dynamics(spec, 13);
    eng.spawn(
        [&](std::size_t u) { return chatterbox(g.degree(static_cast<node_id>(u))); });
    eng.run_rounds(25);
    const dynamics_stats st = eng.dynamics()->stats();
    EXPECT_EQ(st.churned_messages, 0u);
    EXPECT_EQ(st.edge_down_rounds, 0u);
    std::vector<std::uint64_t> dynamic;
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        dynamic.push_back(eng.node(u).digest_);
    }
    EXPECT_EQ(dynamic, chatter_digests(g, 13, 25, nullptr));
}

TEST(FaultModel, UnprotectedChurnDoesKillMessages) {
    const graph g = make_family(graph_family::binary_tree, 31, 1);
    dynamics_spec spec;
    spec.edge_down_prob = 0.5;
    spec.protect_backbone = false;
    const dynamics_stats st = run_chatter(g, spec, 21, 25);
    EXPECT_GT(st.churned_messages, 0u);
}

// --- budget accounting --------------------------------------------------------

// Loss destroys messages at delivery, after the sender was charged: the
// message/bit budget lines must match the static run exactly (the
// network was paid; delivery failed). docs/DYNAMICS.md pins this rule.
TEST(FaultModel, LossChargesSendersFully) {
    const graph g = make_cycle(16);
    auto totals = [&](const dynamics_spec* spec) {
        engine<chatterbox> eng(g, 7);
        if (spec != nullptr) eng.set_dynamics(*spec, 7);
        eng.spawn([&](std::size_t u) {
            return chatterbox(g.degree(static_cast<node_id>(u)));
        });
        eng.run_rounds(20);
        return eng.metrics().total();
    };
    dynamics_spec lossy;
    lossy.loss_prob = 0.5;
    const phase_counters with_loss = totals(&lossy);
    const phase_counters without = totals(nullptr);
    EXPECT_EQ(with_loss.messages, without.messages);
    EXPECT_EQ(with_loss.bits, without.bits);
}

// --- sleep --------------------------------------------------------------------

TEST(FaultModel, SleepingNodesSkipRoundsAndResume) {
    const graph g = make_cycle(16);
    dynamics_spec spec;
    spec.sleep_prob = 0.1;
    spec.sleep_rounds = 4;
    engine<chatterbox> eng(g, 19);
    eng.set_dynamics(spec, 19);
    eng.spawn(
        [&](std::size_t u) { return chatterbox(g.degree(static_cast<node_id>(u))); });
    eng.run_rounds(50);
    const dynamics_stats st = eng.dynamics()->stats();
    EXPECT_GT(st.sleep_events, 0u);
    // Sleepers send nothing while away, so fewer messages than static...
    EXPECT_LT(eng.metrics().total().messages, 16ull * 2 * 50);
    // ...but nobody halts: every node resumes after its nap.
    EXPECT_EQ(eng.halted_count(), 0u);
}

// --- the acceptance sweep -----------------------------------------------------

// Every preset x {cycle, dumbbell, torus} x all five algorithms: each
// run must come back with a verdict — success, or a captured bounded
// failure (round cap, budget, frozen network) — never a hang. Configs
// are the campaign's bounded defaults, with revocable's round cap pulled
// in further to keep the sweep fast.
TEST(FaultModel, AllAlgorithmsReachVerdictsUnderEveryPreset) {
    scenario_runner runner(0);
    for (const auto& topo :
         {family_spec{graph_family::cycle, 24, 1},
          family_spec{graph_family::dumbbell, 24, 1},
          family_spec{graph_family::torus, 25, 1}}) {
        const graph& g = runner.materialize(topo);
        const graph_profile& prof = runner.profile_for(g);
        for (const auto& [dname, dspec] : all_dynamics_presets()) {
            for (const algo_kind kind :
                 {algo_kind::flood_max, algo_kind::gilbert, algo_kind::irrevocable,
                  algo_kind::revocable, algo_kind::cautious_broadcast}) {
                algo_config cfg =
                    campaign_default_config(kind, g.num_nodes(), g.num_edges());
                if (auto* rv = std::get_if<revocable_cfg>(&cfg)) {
                    rv->max_rounds = 4000;
                }
                const run_record rec = scenario_runner::run_once(g, prof, cfg,
                                                                 31, dspec);
                if (!rec.ok) {
                    EXPECT_FALSE(rec.error.empty())
                        << to_string(kind) << "@" << dname << " on " << g.name();
                }
                SUCCEED() << to_string(kind) << "@" << dname << " on " << g.name()
                          << " reached a verdict";
            }
        }
    }
}

}  // namespace
}  // namespace anole
