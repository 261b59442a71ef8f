// Tests for core/post_election.h: the §3 extensions (explicit LE,
// broadcast, BFS tree construction) on top of the implicit election.
#include "core/post_election.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/properties.h"
#include "graph/spectral.h"

namespace anole {
namespace {

TEST(Announce, FloodsLeaderToEveryone) {
    for (auto fam : {graph_family::cycle, graph_family::torus, graph_family::star,
                     graph_family::binary_tree, graph_family::random_regular}) {
        graph g = make_family(fam, 48, 3);
        const auto d = diameter_exact(g);
        const auto r = run_announce(g, 0, 424242, d, 5);
        EXPECT_TRUE(r.all_know_leader) << to_string(fam);
        EXPECT_EQ(r.leader_id, 424242u);
    }
}

TEST(Announce, BuildsValidBfsTree) {
    for (auto fam : {graph_family::torus, graph_family::hypercube,
                     graph_family::erdos_renyi}) {
        graph g = make_family(fam, 64, 7);
        const auto d = diameter_exact(g);
        const auto r = run_announce(g, 5, 99, d, 9);
        EXPECT_TRUE(r.bfs_tree_valid) << to_string(fam);
        // Tree depth equals the root's eccentricity (BFS wave property).
        EXPECT_EQ(r.tree_depth, eccentricity(g, 5)) << to_string(fam);
    }
}

TEST(Announce, DepthsMatchBfsDistances) {
    graph g = make_torus(6, 6);
    const auto r = run_announce(g, 7, 11, diameter_exact(g), 3);
    const auto dist = bfs_distances(g, 7);
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        EXPECT_EQ(r.depths[u], dist[u]) << u;
    }
}

TEST(Announce, CostIsDiameterTimeAndLinearMessages) {
    graph g = make_random_regular(128, 4, 3);
    const auto d = diameter_exact(g);
    const auto r = run_announce(g, 0, 7, d, 5);
    EXPECT_LE(r.rounds, d + 5);
    // One announcement per directed edge + one ack per node, no more.
    EXPECT_LE(r.totals.messages, 2 * g.num_edges() + g.num_nodes());
}

TEST(Announce, RejectsBadArguments) {
    graph g = make_cycle(8);
    EXPECT_THROW((void)run_announce(g, 100, 1, 4, 1), error);
    EXPECT_THROW((void)run_announce(g, 0, 0, 4, 1), error);
}

TEST(ExplicitElection, UpgradesImplicitToExplicit) {
    graph g = make_torus(6, 6);
    const auto prof = profile(g);
    irrevocable_params p;
    p.n = g.num_nodes();
    p.tmix = prof.mixing_time;
    p.phi = prof.conductance;
    int ok = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const auto r = run_explicit_irrevocable(g, p, prof.diameter, seed);
        if (!r.election.success) continue;  // implicit layer's whp event
        EXPECT_TRUE(r.success) << seed;
        EXPECT_TRUE(r.announcement.all_know_leader);
        EXPECT_EQ(r.announcement.leader_id, r.election.leader_id);
        EXPECT_TRUE(r.announcement.bfs_tree_valid);
        ++ok;
    }
    EXPECT_GE(ok, 3);
}

TEST(ExplicitElection, FailedElectionShortCircuits) {
    graph g = make_torus(5, 5);
    const auto prof = profile(g);
    irrevocable_params p;
    p.n = g.num_nodes();
    p.tmix = prof.mixing_time;
    p.phi = prof.conductance;
    p.cand_c = 1e-9;  // no candidates -> implicit election fails
    const auto r = run_explicit_irrevocable(g, p, prof.diameter, 3);
    EXPECT_FALSE(r.election.success);
    EXPECT_FALSE(r.success);
    EXPECT_FALSE(r.announcement.all_know_leader);
}

}  // namespace
}  // namespace anole
