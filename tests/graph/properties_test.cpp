// Tests for graph/properties.h: BFS, diameter, cut measures.
#include "graph/properties.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "graph/generators.h"
#include "sim/thread_pool.h"

namespace anole {
namespace {

TEST(Bfs, DistancesOnPath) {
    graph g = make_path(5);
    const auto d = bfs_distances(g, 0);
    for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(d[i], i);
}

TEST(Bfs, DistancesOnCycleWrap) {
    graph g = make_cycle(6);
    const auto d = bfs_distances(g, 0);
    EXPECT_EQ(d[3], 3u);
    EXPECT_EQ(d[5], 1u);
}

TEST(Bfs, Eccentricity) {
    graph g = make_path(7);
    EXPECT_EQ(eccentricity(g, 0), 6u);
    EXPECT_EQ(eccentricity(g, 3), 3u);
}

TEST(Diameter, ExactOnFamilies) {
    EXPECT_EQ(diameter_exact(make_path(10)), 9u);
    EXPECT_EQ(diameter_exact(make_cycle(10)), 5u);
    EXPECT_EQ(diameter_exact(make_complete(10)), 1u);
    EXPECT_EQ(diameter_exact(make_hypercube(5)), 5u);
    EXPECT_EQ(diameter_exact(make_star(10)), 2u);
}

TEST(Diameter, EstimateBracketsExact) {
    for (auto fam : {graph_family::torus, graph_family::binary_tree,
                     graph_family::random_regular, graph_family::lollipop}) {
        const graph g = make_family(fam, 49, 7);
        const auto est = diameter_estimate(g);
        const auto exact = diameter_exact(g);
        EXPECT_LE(est.lower, exact) << to_string(fam);
        EXPECT_GE(est.upper, exact) << to_string(fam);
    }
}

// diameter_exact runs its BFSs 256 sources at a time, one bit per source
// in four 64-bit lanes per node; the sizes straddle every lane and batch
// boundary. The reference is one plain BFS per node.
TEST(Diameter, BitParallelMatchesEveryEccentricity) {
    const auto max_eccentricity = [](const graph& g) {
        std::uint32_t d = 0;
        for (node_id u = 0; u < g.num_nodes(); ++u) d = std::max(d, eccentricity(g, u));
        return d;
    };
    for (graph_family f : all_families()) {
        for (std::size_t n : {2, 3, 63, 64, 65, 255, 256, 257, 600}) {
            const graph g = make_family(f, n, 5);
            EXPECT_EQ(diameter_exact(g), max_eccentricity(g))
                << to_string(f) << " n=" << n << " (built " << g.num_nodes() << ")";
        }
    }
    const graph g =
        make_family(graph_family::random_geometric, 257, 3).with_permuted_ports(11);
    EXPECT_EQ(diameter_exact(g), max_eccentricity(g));
}

// Sharded batches each own their lane arrays and the pool only takes the
// max of their level counts, so every pool size gives the serial answer:
// one batch (256, inline), two (257), four (the 1024-node graphs), and a
// 600-node tail whose only diametral pair, 512 and 599, lies in the last
// batch: the path 512 .. 599, with nodes 0 .. 511 hung off its node 555.
TEST(Properties, DiameterExactIdenticalForEveryPoolSize) {
    const auto max_eccentricity = [](const graph& g) {
        std::uint32_t d = 0;
        for (node_id u = 0; u < g.num_nodes(); ++u) d = std::max(d, eccentricity(g, u));
        return d;
    };
    std::vector<std::pair<node_id, node_id>> edges;
    for (node_id u = 512; u < 599; ++u) edges.emplace_back(u, u + 1);
    for (node_id u = 0; u < 512; ++u) edges.emplace_back(u, 555);
    std::vector<graph> graphs;
    graphs.emplace_back(edges.size() + 1, edges, "tail");
    graphs.push_back(make_family(graph_family::torus, 256, 1));
    graphs.push_back(make_family(graph_family::cycle, 257, 1));
    for (graph_family f : {graph_family::connected_caveman, graph_family::random_geometric,
                           graph_family::barabasi_albert}) {
        graphs.push_back(make_family(f, 1024, 1));
    }
    thread_pool p1(1), p2(2), p8(8);
    for (const graph& g : graphs) {
        const std::uint32_t serial = diameter_exact(g);
        EXPECT_EQ(serial, max_eccentricity(g)) << g.name();
        for (thread_pool* pool : {&p1, &p2, &p8}) {
            EXPECT_EQ(diameter_exact(g, pool), serial)
                << g.name() << " n=" << g.num_nodes() << " pool=" << pool->size();
        }
    }
    EXPECT_EQ(diameter_exact(graphs[0]), 87u);
}

TEST(Degrees, Stats) {
    graph g = make_star(5);
    const auto ds = degrees(g);
    EXPECT_EQ(ds.min, 1u);
    EXPECT_EQ(ds.max, 4u);
    EXPECT_DOUBLE_EQ(ds.mean, 8.0 / 5.0);
}

TEST(Cuts, HandCutOnBarbell) {
    graph g = make_barbell(4);
    // S = first clique: boundary = 1 bridge, |S| = 4, Vol(S) = 3*3+4 = 13.
    std::vector<bool> in_s(8, false);
    for (int i = 0; i < 4; ++i) in_s[i] = true;
    EXPECT_NEAR(cut_conductance(g, in_s), 1.0 / 13.0, 1e-12);
    EXPECT_NEAR(cut_isoperimetric(g, in_s), 1.0 / 4.0, 1e-12);
}

TEST(Cuts, ComplementGivesSameValue) {
    graph g = make_cycle(8);
    std::vector<bool> in_s(8, false);
    in_s[0] = in_s[1] = in_s[2] = true;
    std::vector<bool> comp(8, true);
    comp[0] = comp[1] = comp[2] = false;
    EXPECT_NEAR(cut_conductance(g, in_s), cut_conductance(g, comp), 1e-12);
    EXPECT_NEAR(cut_isoperimetric(g, in_s), cut_isoperimetric(g, comp), 1e-12);
}

TEST(Cuts, ImproperCutThrows) {
    graph g = make_cycle(4);
    EXPECT_THROW((void)cut_conductance(g, std::vector<bool>(4, false)), error);
    EXPECT_THROW((void)cut_conductance(g, std::vector<bool>(4, true)), error);
    EXPECT_THROW((void)cut_isoperimetric(g, std::vector<bool>(3, true)), error);
}

TEST(Cuts, ExactValuesOnKnownGraphs) {
    // Cycle C_8: best cut = contiguous half: 2 boundary edges.
    EXPECT_NEAR(conductance_exact(make_cycle(8)), 2.0 / 8.0, 1e-12);
    EXPECT_NEAR(isoperimetric_exact(make_cycle(8)), 2.0 / 4.0, 1e-12);
    // K_6: (n-s)/(n-1) at s=3 -> 3/5; i = 3.
    EXPECT_NEAR(conductance_exact(make_complete(6)), 3.0 / 5.0, 1e-12);
    EXPECT_NEAR(isoperimetric_exact(make_complete(6)), 3.0, 1e-12);
    // Path P_4: cutting one end edge: 1/1 iso? min over |S|<=2:
    // S={0}: 1/1; S={0,1}: 1/2 -> i = 1/2. Conductance: S={0,1}:
    // boundary 1, vol 3 -> 1/3.
    EXPECT_NEAR(conductance_exact(make_path(4)), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(isoperimetric_exact(make_path(4)), 1.0 / 2.0, 1e-12);
}

// The exact cut minima, computed the slow way: every mask rebuilt as an
// indicator vector and measured by the public single-cut functions.
struct cut_minima {
    double conductance = std::numeric_limits<double>::infinity();
    double isoperimetric = std::numeric_limits<double>::infinity();
};

cut_minima per_mask_minima(const graph& g) {
    const std::size_t n = g.num_nodes();
    cut_minima best;
    std::vector<bool> in_s(n, false);
    for (std::size_t mask = 1; mask < (std::size_t{1} << (n - 1)); ++mask) {
        for (std::size_t b = 0; b + 1 < n; ++b) in_s[b + 1] = ((mask >> b) & 1u) != 0;
        best.conductance = std::min(best.conductance, cut_conductance(g, in_s));
        best.isoperimetric = std::min(best.isoperimetric, cut_isoperimetric(g, in_s));
    }
    return best;
}

TEST(Cuts, GrayCodeMatchesPerMaskRetally) {
    for (graph_family f : all_families()) {
        for (std::size_t n = 2; n <= 16; ++n) {
            const graph g = make_family(f, n, 7);
            ASSERT_LE(g.num_nodes(), 20u) << to_string(f) << " n=" << n;
            const cut_minima want = per_mask_minima(g);
            const double phi = conductance_exact(g);
            const double iso = isoperimetric_exact(g);
            EXPECT_EQ(std::memcmp(&phi, &want.conductance, sizeof phi), 0)
                << to_string(f) << " n=" << n << ": " << phi << " vs "
                << want.conductance;
            EXPECT_EQ(std::memcmp(&iso, &want.isoperimetric, sizeof iso), 0)
                << to_string(f) << " n=" << n << ": " << iso << " vs "
                << want.isoperimetric;
        }
    }
}

TEST(Cuts, ExactLimitedToSmallN) {
    graph g = make_cycle(30);
    EXPECT_THROW((void)conductance_exact(g), error);
    EXPECT_THROW((void)isoperimetric_exact(g), error);
}

TEST(Cuts, SweepIsUpperBoundOfExact) {
    // Sweep cuts (any embedding) can only overestimate the true minimum.
    for (auto fam : {graph_family::cycle, graph_family::barbell,
                     graph_family::star, graph_family::complete}) {
        const graph g = make_family(fam, 12, 3);
        std::vector<double> score(g.num_nodes());
        xoshiro256ss rng(4);
        for (auto& s : score) s = rng.uniform01();
        EXPECT_GE(conductance_sweep(g, score) + 1e-12, conductance_exact(g))
            << to_string(fam);
        EXPECT_GE(isoperimetric_sweep(g, score) + 1e-12, isoperimetric_exact(g))
            << to_string(fam);
    }
}

}  // namespace
}  // namespace anole
