// Tests for core/random_walk.h: token conservation and the mixing
// behaviour Algorithm 5's analysis relies on.
#include "core/random_walk.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "graph/spectral.h"

namespace anole {
namespace {

TEST(WalkEnsemble, TokensAreConserved) {
    for (auto fam : {graph_family::cycle, graph_family::torus,
                     graph_family::complete, graph_family::star}) {
        graph g = make_family(fam, 36, 3);
        const auto r = run_walk_ensemble(g, 0, 500, 64, 7);
        EXPECT_EQ(r.total_tokens, 500u) << to_string(fam);
    }
}

TEST(WalkEnsemble, ZeroTokensZeroMessages) {
    graph g = make_cycle(16);
    const auto r = run_walk_ensemble(g, 0, 0, 32, 3);
    EXPECT_EQ(r.total_tokens, 0u);
    EXPECT_EQ(r.totals.messages, 0u);
}

TEST(WalkEnsemble, MessagesBatchTokens) {
    // Token batching: messages per round <= 2m regardless of token count.
    graph g = make_torus(5, 5);
    const auto r = run_walk_ensemble(g, 0, 10'000, 20, 5);
    EXPECT_LE(r.totals.messages, 2 * g.num_edges() * 21);
    EXPECT_EQ(r.total_tokens, 10'000u);
}

TEST(WalkEnsemble, MixesToStationaryDistribution) {
    // After >= tmix steps, token counts approximate n_tokens * d_v/2m.
    graph g = make_random_regular(64, 4, 9);
    const auto prof = profile(g);
    const std::uint64_t tokens = 100'000;
    const auto r = run_walk_ensemble(g, 0, tokens, 4 * prof.mixing_time, 11);
    const auto target = walk_stationary(g);
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        const double expect = static_cast<double>(tokens) * target[u];
        const double got = static_cast<double>(r.resident[u]);
        // 5-sigma-ish Poisson tolerance.
        EXPECT_NEAR(got, expect, 5.0 * std::sqrt(expect) + 5.0) << u;
    }
}

TEST(WalkEnsemble, StationaryIsDegreeBiasedOnStar) {
    // The hub holds ~half the tokens at stationarity (d_hub = n-1 = m).
    graph g = make_star(17);
    const std::uint64_t tokens = 20'000;
    const auto r = run_walk_ensemble(g, 3, tokens, 200, 13);
    EXPECT_NEAR(static_cast<double>(r.resident[0]),
                static_cast<double>(tokens) / 2.0, 600.0);
}

TEST(WalkEnsemble, ShortWalksStayLocal) {
    // After 2 lazy steps from a cycle node, tokens are within distance 2.
    graph g = make_cycle(32);
    const auto r = run_walk_ensemble(g, 0, 1000, 2, 17);
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        const std::size_t dist = std::min<std::size_t>(u, 32 - u);
        if (dist > 2) {
            EXPECT_EQ(r.resident[u], 0u) << u;
        }
    }
}

TEST(WalkEnsemble, DeterministicInSeed) {
    graph g = make_torus(5, 5);
    const auto a = run_walk_ensemble(g, 3, 777, 50, 23);
    const auto b = run_walk_ensemble(g, 3, 777, 50, 23);
    EXPECT_EQ(a.resident, b.resident);
    EXPECT_EQ(a.totals.messages, b.totals.messages);
}

TEST(WalkEnsemble, SourceOutOfRangeThrows) {
    graph g = make_cycle(8);
    EXPECT_THROW((void)run_walk_ensemble(g, 100, 10, 10, 1), error);
}

TEST(WalkEnsemble, DegreeZeroNodeIsAbsorbing) {
    // The 1-node graph (the only legal degree-0 instance under the
    // connectivity requirement) must keep every token resident instead
    // of sampling a random port — see the precondition note in
    // core/random_walk.h.
    const graph g(1, {}, "singleton");
    const auto r = run_walk_ensemble(g, 0, 250, 20, 5);
    ASSERT_EQ(r.resident.size(), 1u);
    EXPECT_EQ(r.resident[0], 250u);
    EXPECT_EQ(r.total_tokens, 250u);
    EXPECT_EQ(r.totals.messages, 0u);

    // And the n = 1 instances make_family can produce behave the same.
    const graph p1 = make_family(graph_family::path, 1, 1);
    ASSERT_EQ(p1.num_nodes(), 1u);
    EXPECT_EQ(run_walk_ensemble(p1, 0, 7, 5, 1).resident[0], 7u);
}

}  // namespace
}  // namespace anole
