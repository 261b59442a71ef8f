// Tests for baseline/gilbert_le.h (the PODC'18-style comparator).
#include "baseline/gilbert_le.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/spectral.h"

namespace anole {
namespace {

gilbert_params params_for(const graph& g) {
    gilbert_params p;
    p.n = g.num_nodes();
    const auto prof = profile(g);
    p.tmix = std::max<std::uint64_t>(prof.mixing_time, 1);
    return p;
}

TEST(Gilbert, ElectsUniqueLeaderOnWellConnectedFamilies) {
    for (auto fam : {graph_family::complete, graph_family::random_regular,
                     graph_family::hypercube, graph_family::torus}) {
        graph g = make_family(fam, 64, 3);
        const auto p = params_for(g);
        int successes = 0;
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const auto r = run_gilbert(g, p, seed);
            if (r.success) {
                ++successes;
                EXPECT_TRUE(r.max_candidate_won) << to_string(fam);
            }
        }
        EXPECT_GE(successes, 3) << to_string(fam);
    }
}

TEST(Gilbert, Deterministic) {
    graph g = make_random_regular(48, 4, 3);
    const auto p = params_for(g);
    const auto a = run_gilbert(g, p, 5);
    const auto b = run_gilbert(g, p, 5);
    EXPECT_EQ(a.leader_id, b.leader_id);
    EXPECT_EQ(a.totals.messages, b.totals.messages);
}

TEST(Gilbert, TimeIsTwoWalkPhases) {
    graph g = make_torus(6, 6);
    const auto p = params_for(g);
    const auto r = run_gilbert(g, p, 3);
    EXPECT_EQ(r.rounds, p.total_rounds() + 1);
}

TEST(Gilbert, MessageEnvelopeScalesWithTokensTimesLength) {
    // The walk phase dominates: messages = O(#cands · x_g · L).
    graph g = make_random_regular(128, 4, 7);
    const auto p = params_for(g);
    const auto r = run_gilbert(g, p, 3);
    const double envelope = p.cand_c * p.log2n() * 2.0 *
                            static_cast<double>(p.tokens()) *
                            static_cast<double>(p.walk_len());
    EXPECT_LE(static_cast<double>(r.totals.messages), envelope);
    EXPECT_GE(static_cast<double>(r.totals.messages),
              static_cast<double>(p.tokens()) / 4.0);
}

TEST(Gilbert, ZeroCandidatesFailsGracefully) {
    graph g = make_torus(5, 5);
    auto p = params_for(g);
    p.cand_c = 1e-9;
    const auto r = run_gilbert(g, p, 2);
    EXPECT_EQ(r.num_candidates, 0u);
    EXPECT_FALSE(r.success);
}

TEST(Gilbert, UnderTokenedFailsDetectably) {
    // With one token per candidate AND stunted walks, the visited sets
    // rarely intersect on a large expander: some seeds must yield
    // multiple leaders. (On small graphs a full-length walk covers the
    // network and the protocol succeeds despite one token.)
    graph g = make_random_regular(256, 4, 11);
    auto p = params_for(g);
    p.tokens_mult = 1e-9;  // floors to 1 token
    p.c = 0.05;            // stunted walk length
    std::size_t multi = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        if (run_gilbert(g, p, seed).num_leaders > 1) ++multi;
    }
    EXPECT_GE(multi, 1u);
}

TEST(Gilbert, ParamValidation) {
    graph g = make_cycle(8);
    gilbert_params p;
    p.n = 4;  // mismatch
    p.tmix = 8;
    EXPECT_THROW((void)run_gilbert(g, p, 1), error);
}

}  // namespace
}  // namespace anole
