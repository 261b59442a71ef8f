// Tests for core/revocable.h: Theorem 3 / Corollary 1's protocol.
// Faithful parameters at tiny n; scaled policy for breadth.
#include "core/revocable.h"

#include <gtest/gtest.h>

#include <type_traits>

#include "graph/generators.h"
#include "graph/properties.h"

namespace anole {
namespace {

// A send moves the payload into its engine slot (sim/engine.h, "message
// transport"); rev_msg owns no heap memory, so a send allocates nothing.
static_assert(std::is_trivially_copyable_v<rev_msg>);

TEST(Revocable, FaithfulBlindOnTinyCycle) {
    graph g = make_cycle(4);
    const auto p = revocable_params::paper_faithful();
    const auto r = run_revocable(g, p, 42, 60'000'000);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.num_leaders, 1u);
    EXPECT_EQ(r.nodes_chose, 4u);
    EXPECT_GT(r.totals.congest_rounds, r.rounds);  // bit-by-bit charging is real
}

TEST(Revocable, FaithfulKnownIsoperimetricOnComplete) {
    graph g = make_complete(6);
    const auto p = revocable_params::paper_faithful(isoperimetric_exact(g));
    const auto r = run_revocable(g, p, 7, 60'000'000);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.nodes_chose, 6u);
    // Degree alarm: nobody can choose while k^{1+ε} < degree+? = 5.
    for (const auto& [k, tr] : r.traces) {
        if (k * k < 5) {
            EXPECT_FALSE(tr.chose_here) << k;
        }
    }
}

TEST(Revocable, KnownIsoperimetricIsCheaperThanBlind) {
    graph g = make_cycle(4);
    const auto blind = revocable_params::paper_faithful();
    const auto informed = revocable_params::paper_faithful(isoperimetric_exact(g));
    const auto rb = run_revocable(g, blind, 3, 60'000'000);
    const auto ri = run_revocable(g, informed, 3, 60'000'000);
    ASSERT_TRUE(rb.success);
    ASSERT_TRUE(ri.success);
    // Theorem 3 vs Corollary 1: knowing i(G) divides the diffusion length.
    EXPECT_LT(ri.rounds, rb.rounds);
    EXPECT_LT(ri.totals.messages, rb.totals.messages);
}

struct scaled_case {
    graph_family family;
    std::size_t n;
};

class RevocableScaled : public ::testing::TestWithParam<scaled_case> {};

TEST_P(RevocableScaled, ElectsStableUniqueLeader) {
    const auto [fam, n] = GetParam();
    graph g = make_family(fam, n, 5);
    double iso = g.num_nodes() <= 20 ? isoperimetric_exact(g) : 0.0;
    auto p = revocable_params::scaled(
        iso > 0 ? std::optional<double>(iso) : std::nullopt, 0.02, 0.12);
    int successes = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto r = run_revocable(g, p, seed, 30'000'000);
        if (r.success) ++successes;
        EXPECT_LE(r.num_leaders, 2u) << to_string(fam);
    }
    EXPECT_GE(successes, 2) << to_string(fam);
}

INSTANTIATE_TEST_SUITE_P(
    Families, RevocableScaled,
    ::testing::Values(scaled_case{graph_family::cycle, 8},
                      scaled_case{graph_family::path, 8},
                      scaled_case{graph_family::complete, 8},
                      scaled_case{graph_family::torus, 16},
                      scaled_case{graph_family::star, 8},
                      scaled_case{graph_family::binary_tree, 9},
                      scaled_case{graph_family::random_regular, 16}),
    [](const auto& info) {
        return std::string(to_string(info.param.family)) + "_" +
               std::to_string(info.param.n);
    });

TEST(Revocable, LeaderHasMaxCertificateMinId) {
    graph g = make_torus(4, 4);
    auto p = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    const auto r = run_revocable(g, p, 21, 30'000'000);
    ASSERT_TRUE(r.success);
    // Verify the dominance rule globally: the elected pair dominates every
    // chosen pair.
    EXPECT_GT(r.leader_certificate, 0u);
    EXPECT_GT(r.leader_id, 0u);
}

TEST(Revocable, RevocationsHappenThenQuiesce) {
    // Multiple nodes choose IDs at the same estimate; early wrong views
    // must be revoked; success implies quiescence afterwards.
    graph g = make_torus(4, 4);
    auto p = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    const auto r = run_revocable(g, p, 31, 30'000'000);
    ASSERT_TRUE(r.success);
    EXPECT_GT(r.total_revocations, 0u);
    EXPECT_LE(r.stable_round, r.rounds);
}

TEST(Revocable, TracesShowLowEstimatesRejected) {
    graph g = make_cycle(4);
    const auto p = revocable_params::paper_faithful();
    const auto r = run_revocable(g, p, 42, 60'000'000);
    ASSERT_TRUE(r.success);
    // Lemma 8-style sanity: every estimate that was fully certified by
    // some node has a trace; iterations count matches f(k) per node.
    for (const auto& [k, tr] : r.traces) {
        EXPECT_GT(tr.iterations, 0u) << k;
        EXPECT_LE(tr.empty_iterations, tr.iterations) << k;
        EXPECT_LE(tr.probing_iterations, tr.iterations) << k;
    }
}

TEST(Revocable, DeterministicInSeed) {
    graph g = make_cycle(8);
    auto p = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    const auto a = run_revocable(g, p, 9, 30'000'000);
    const auto b = run_revocable(g, p, 9, 30'000'000);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.leader_id, b.leader_id);
    EXPECT_EQ(a.totals.messages, b.totals.messages);
}

TEST(Revocable, PortPermutationInvariance) {
    graph g = make_torus(4, 4).with_permuted_ports(55);
    auto p = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    int successes = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        successes += run_revocable(g, p, seed, 30'000'000).success ? 1 : 0;
    }
    EXPECT_GE(successes, 2);
}

TEST(Revocable, KCapStopsEarly) {
    graph g = make_cycle(8);
    auto p = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    p.k_cap = 2;  // give up before anyone can choose
    const auto r = run_revocable(g, p, 3, 30'000'000);
    EXPECT_FALSE(r.success);
    EXPECT_LE(r.final_estimate, 4u);
}

TEST(Revocable, MessageComplexityIsRoundsTimesEdges) {
    // Every node broadcasts every round: messages ≈ 2m · rounds.
    graph g = make_cycle(6);
    auto p = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    const auto r = run_revocable(g, p, 13, 30'000'000);
    ASSERT_TRUE(r.success);
    const double per_round = static_cast<double>(r.totals.messages) /
                             static_cast<double>(r.rounds);
    EXPECT_NEAR(per_round, 2.0 * static_cast<double>(g.num_edges()), 2.0);
}

}  // namespace
}  // namespace anole
