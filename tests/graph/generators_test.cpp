// Tests for graph/generators.h: structure, counts, degrees, analytic
// facts, determinism, parameter validation.
#include "graph/generators.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "graph/properties.h"

namespace anole {
namespace {

TEST(Generators, Path) {
    graph g = make_path(5);
    EXPECT_EQ(g.num_nodes(), 5u);
    EXPECT_EQ(g.num_edges(), 4u);
    EXPECT_EQ(degrees(g).min, 1u);
    EXPECT_EQ(degrees(g).max, 2u);
    EXPECT_EQ(*g.facts().diameter, 4u);
}

TEST(Generators, Cycle) {
    graph g = make_cycle(8);
    EXPECT_EQ(g.num_nodes(), 8u);
    EXPECT_EQ(g.num_edges(), 8u);
    EXPECT_EQ(degrees(g).min, 2u);
    EXPECT_EQ(degrees(g).max, 2u);
    EXPECT_EQ(*g.facts().diameter, 4u);
    EXPECT_THROW(make_cycle(2), error);
}

TEST(Generators, CycleFactsMatchExactComputation) {
    graph g = make_cycle(8);
    EXPECT_EQ(diameter_exact(g), *g.facts().diameter);
    EXPECT_NEAR(conductance_exact(g), *g.facts().conductance, 1e-12);
    EXPECT_NEAR(isoperimetric_exact(g), *g.facts().isoperimetric, 1e-12);
}

TEST(Generators, Complete) {
    graph g = make_complete(7);
    EXPECT_EQ(g.num_edges(), 21u);
    EXPECT_EQ(degrees(g).min, 6u);
    EXPECT_EQ(diameter_exact(g), 1u);
    EXPECT_NEAR(conductance_exact(g), *g.facts().conductance, 1e-12);
    EXPECT_NEAR(isoperimetric_exact(g), *g.facts().isoperimetric, 1e-12);
}

TEST(Generators, Star) {
    graph g = make_star(9);
    EXPECT_EQ(g.num_edges(), 8u);
    EXPECT_EQ(g.degree(0), 8u);
    EXPECT_EQ(diameter_exact(g), 2u);
    EXPECT_NEAR(conductance_exact(g), 1.0, 1e-12);
    EXPECT_NEAR(isoperimetric_exact(g), 1.0, 1e-12);
}

TEST(Generators, Grid) {
    graph g = make_grid2d(3, 4);
    EXPECT_EQ(g.num_nodes(), 12u);
    EXPECT_EQ(g.num_edges(), 3u * 3 + 4u * 2);  // 9 horizontal + 8 vertical
    EXPECT_EQ(diameter_exact(g), 5u);
    EXPECT_EQ(*g.facts().diameter, 5u);
}

TEST(Generators, Torus) {
    graph g = make_torus(4, 6);
    EXPECT_EQ(g.num_nodes(), 24u);
    EXPECT_EQ(g.num_edges(), 48u);  // 2 per node
    EXPECT_EQ(degrees(g).min, 4u);
    EXPECT_EQ(degrees(g).max, 4u);
    EXPECT_EQ(diameter_exact(g), 5u);
    EXPECT_EQ(*g.facts().diameter, 5u);
    EXPECT_THROW(make_torus(2, 5), error);
}

TEST(Generators, Hypercube) {
    graph g = make_hypercube(4);
    EXPECT_EQ(g.num_nodes(), 16u);
    EXPECT_EQ(g.num_edges(), 32u);
    EXPECT_EQ(degrees(g).max, 4u);
    EXPECT_EQ(diameter_exact(g), 4u);
}

TEST(Generators, BinaryTree) {
    graph g = make_binary_tree(7);
    EXPECT_EQ(g.num_edges(), 6u);
    EXPECT_EQ(g.degree(0), 2u);   // root
    EXPECT_EQ(g.degree(6), 1u);   // leaf
    EXPECT_EQ(diameter_exact(g), 4u);
}

TEST(Generators, RandomRegularIsRegular) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        graph g = make_random_regular(50, 4, seed);
        EXPECT_EQ(g.num_nodes(), 50u);
        const auto ds = degrees(g);
        EXPECT_EQ(ds.min, 4u);
        EXPECT_EQ(ds.max, 4u);
    }
}

TEST(Generators, RandomRegularDeterministic) {
    graph a = make_random_regular(30, 4, 9);
    graph b = make_random_regular(30, 4, 9);
    EXPECT_EQ(a.edge_list(), b.edge_list());
}

TEST(Generators, RandomRegularValidation) {
    EXPECT_THROW(make_random_regular(5, 3, 1), error);   // n*d odd
    EXPECT_THROW(make_random_regular(4, 4, 1), error);   // d >= n
}

TEST(Generators, ErdosRenyiConnectedAndDeterministic) {
    graph a = make_erdos_renyi(40, 0.3, 5);
    graph b = make_erdos_renyi(40, 0.3, 5);
    EXPECT_EQ(a.num_nodes(), 40u);
    EXPECT_EQ(a.edge_list(), b.edge_list());
    EXPECT_THROW(make_erdos_renyi(10, 0.0, 1), error);
}

TEST(Generators, ErdosRenyiTooSparseThrows) {
    // p = tiny on 50 nodes: essentially never connected.
    EXPECT_THROW(make_erdos_renyi(50, 0.001, 1, 5), error);
}

TEST(Generators, RingOfCliquesStructure) {
    graph g = make_ring_of_cliques(4, 5);
    EXPECT_EQ(g.num_nodes(), 20u);
    // 4 cliques of C(5,2)=10 edges + 4 bridges.
    EXPECT_EQ(g.num_edges(), 44u);
    // Clique-internal nodes (index 2..4 of each clique) have degree 4.
    EXPECT_EQ(g.degree(2), 4u);
    // Gateways carry one extra edge.
    EXPECT_EQ(g.degree(0), 5u);
}

TEST(Generators, RingOfCliquesDegenerateIsCycle) {
    graph g = make_ring_of_cliques(5, 1);
    EXPECT_EQ(g.num_nodes(), 5u);
    EXPECT_EQ(g.num_edges(), 5u);
    EXPECT_EQ(degrees(g).max, 2u);
}

TEST(Generators, Barbell) {
    graph g = make_barbell(4);
    EXPECT_EQ(g.num_nodes(), 8u);
    EXPECT_EQ(g.num_edges(), 13u);  // 2*C(4,2) + bridge
    EXPECT_EQ(diameter_exact(g), 3u);
    // The bridge cut is the worst: conductance = 1/min Vol = 1/13.
    EXPECT_NEAR(conductance_exact(g), 1.0 / 13.0, 1e-12);
}

TEST(Generators, Lollipop) {
    graph g = make_lollipop(4, 3);
    EXPECT_EQ(g.num_nodes(), 7u);
    EXPECT_EQ(g.num_edges(), 9u);
    EXPECT_EQ(g.degree(6), 1u);  // tail end
}

TEST(Generators, MakeFamilyApproximatesSize) {
    for (graph_family f : all_families()) {
        const graph g = make_family(f, 64, 3);
        EXPECT_GE(g.num_nodes(), 16u) << to_string(f);
        EXPECT_LE(g.num_nodes(), 144u) << to_string(f);
    }
}

TEST(Generators, FamilyNamesUnique) {
    std::set<std::string> names;
    for (graph_family f : all_families()) names.insert(to_string(f));
    EXPECT_EQ(names.size(), all_families().size());
}

TEST(Generators, EdgeListsPinned) {
    // FNV-1a digests over num_nodes() and edge_list() (each value as four
    // little-endian bytes) of every family at n = 16/64/1024, seeds 1 and 2,
    // pinned before the graph constructor and make_random_regular dropped
    // their std::set checks. Any change to a generated graph fails here.
    const auto digest = [](const graph& g) {
        std::uint64_t h = 1469598103934665603ULL;
        const auto mix = [&](std::uint64_t v) {
            for (int b = 0; b < 4; ++b) {
                h ^= (v >> (8 * b)) & 0xff;
                h *= 1099511628211ULL;
            }
        };
        mix(g.num_nodes());
        for (const auto& [u, v] : g.edge_list()) {
            mix(u);
            mix(v);
        }
        return h;
    };
    struct pin {
        graph_family family;
        std::uint64_t digests[6];  // (n, seed) = (16,1) (16,2) (64,1) … (1024,2)
    };
    const pin pins[] = {
        {graph_family::path,
         {0xc8d7389074798e6cULL, 0xc8d7389074798e6cULL, 0xde7176618d62af2cULL,
          0xde7176618d62af2cULL, 0x1a33a0d666e03f85ULL, 0x1a33a0d666e03f85ULL}},
        {graph_family::cycle,
         {0x1d8f1c5c3e6e2873ULL, 0x1d8f1c5c3e6e2873ULL, 0x33929bef30f8ed23ULL,
          0x33929bef30f8ed23ULL, 0x5bf90321b608179fULL, 0x5bf90321b608179fULL}},
        {graph_family::complete,
         {0xd08bb7860c5054c3ULL, 0xd08bb7860c5054c3ULL, 0x3d31be653dff2773ULL,
          0x3d31be653dff2773ULL, 0xa113aeee205e37dfULL, 0xa113aeee205e37dfULL}},
        {graph_family::star,
         {0xbc70a558158e59e3ULL, 0xbc70a558158e59e3ULL, 0x0fcae9f58068df13ULL,
          0x0fcae9f58068df13ULL, 0xb63fc1c304d1c6ffULL, 0xb63fc1c304d1c6ffULL}},
        {graph_family::grid2d,
         {0x52fc18e4c276ba23ULL, 0x52fc18e4c276ba23ULL, 0x701674b87b4f48b3ULL,
          0x701674b87b4f48b3ULL, 0x4b98b63233a3074bULL, 0x4b98b63233a3074bULL}},
        {graph_family::torus,
         {0x0ba89a11bdbdd1e3ULL, 0x0ba89a11bdbdd1e3ULL, 0xe6a29fb4564b9d53ULL,
          0xe6a29fb4564b9d53ULL, 0x585292cd6f75c1b3ULL, 0x585292cd6f75c1b3ULL}},
        {graph_family::hypercube,
         {0x0728acfe0e402f83ULL, 0x0728acfe0e402f83ULL, 0x643e1d2342e78f73ULL,
          0x643e1d2342e78f73ULL, 0xc9c8e8ddb453755fULL, 0xc9c8e8ddb453755fULL}},
        {graph_family::binary_tree,
         {0x62a1064da8d3c264ULL, 0x62a1064da8d3c264ULL, 0x2fc14a9b32e4580cULL,
          0x2fc14a9b32e4580cULL, 0x0ee9c9fec0afac7bULL, 0x0ee9c9fec0afac7bULL}},
        {graph_family::random_regular,
         {0x950a5bf76ad4cda3ULL, 0xf2f6da751314e103ULL, 0x4338469ef1e126e3ULL,
          0x352f93835274e5e3ULL, 0x95dc187ee674ce63ULL, 0x6e0337346998c843ULL}},
        {graph_family::erdos_renyi,
         {0xfa77a368b5e0f0b9ULL, 0x23866799c4d3a715ULL, 0x8532b95b8094f1f9ULL,
          0xaa3ab10f0494035dULL, 0xe73eaece648ef994ULL, 0x39ae3c05e4193f52ULL}},
        {graph_family::ring_of_cliques,
         {0x2a6a92dd58880d13ULL, 0x2a6a92dd58880d13ULL, 0x02981fa0bded8d83ULL,
          0x02981fa0bded8d83ULL, 0x586d45c7b5ec9b67ULL, 0x586d45c7b5ec9b67ULL}},
        {graph_family::barbell,
         {0x1ba8ba3f42606aabULL, 0x1ba8ba3f42606aabULL, 0x3c781014181099f3ULL,
          0x3c781014181099f3ULL, 0xe81a7e1995232cd5ULL, 0xe81a7e1995232cd5ULL}},
        {graph_family::lollipop,
         {0xf6f05ed1469369ccULL, 0xf6f05ed1469369ccULL, 0xbf5b575d1ce7738cULL,
          0xbf5b575d1ce7738cULL, 0x3727fcb2292b41e5ULL, 0x3727fcb2292b41e5ULL}},
        {graph_family::dumbbell,
         {0x98d42d3cfd6fc489ULL, 0x98d42d3cfd6fc489ULL, 0x7fc7466da9ba53bbULL,
          0x7fc7466da9ba53bbULL, 0xfa533d8e7c5515b5ULL, 0xfa533d8e7c5515b5ULL}},
        {graph_family::wheel,
         {0xa4f9345fdbac61c3ULL, 0xa4f9345fdbac61c3ULL, 0xff854e8134c6f893ULL,
          0xff854e8134c6f893ULL, 0x3b8482dde54f0b5bULL, 0x3b8482dde54f0b5bULL}},
        {graph_family::watts_strogatz,
         {0x18e3c06f7db03008ULL, 0xebcc00c17143c72cULL, 0x96609edd86caa23aULL,
          0x153d41f143862944ULL, 0xe0024a62a9d2e36aULL, 0xf167cfd77d80c546ULL}},
        {graph_family::barabasi_albert,
         {0x7127ef307ba6605cULL, 0xd1591f793141263fULL, 0x4bc1d3129f3c1828ULL,
          0x4c39f8c2f5503929ULL, 0xa01ed68b489be718ULL, 0x0e3623a23aecfac9ULL}},
        {graph_family::random_geometric,
         {0x649fc23e839fe773ULL, 0x30458f2a7cc090fbULL, 0x458b34d2b265535bULL,
          0x8b446a9c2a7e1651ULL, 0xb44a7b183c7dc038ULL, 0x797480d6305ab00aULL}},
        {graph_family::connected_caveman,
         {0x78eb050d6c0755f3ULL, 0x78eb050d6c0755f3ULL, 0x20dadf5ae47eb463ULL,
          0x20dadf5ae47eb463ULL, 0x86192594c8e9209fULL, 0x86192594c8e9209fULL}},
    };
    ASSERT_EQ(std::size(pins), all_families().size());
    for (const pin& p : pins) {
        std::size_t k = 0;
        for (const std::size_t n : {16, 64, 1024}) {
            for (const std::uint64_t seed : {1, 2}) {
                EXPECT_EQ(digest(make_family(p.family, n, seed)), p.digests[k++])
                    << to_string(p.family) << " n=" << n << " seed=" << seed;
            }
        }
    }
}

}  // namespace
}  // namespace anole
