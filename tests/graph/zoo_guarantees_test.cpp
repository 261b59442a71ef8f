// Guarantees for the topology-zoo generators (ISSUE 2 tentpole),
// mirroring generator_guarantees_test.cpp for the six new families:
// structural contracts (sizes, degrees, connectivity), the analytic
// facts each generator advertises, and the Φ/tmix regime each family was
// added to stress (low-Φ bottlenecks, heavy tails, clustered meshes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "graph/generators.h"
#include "graph/properties.h"
#include "graph/spectral.h"

namespace anole {
namespace {

bool connected(const graph& g) {
    const auto dist = bfs_distances(g, 0);
    return std::all_of(dist.begin(), dist.end(), [](std::uint32_t d) {
        return d != std::numeric_limits<std::uint32_t>::max();
    });
}

TEST(ZooGuarantees, WattsStrogatzPreservesEdgeCountAcrossBeta) {
    // Rewiring moves endpoints but never adds or removes edges: |E| =
    // n·k/2 for every beta, and the graph stays simple + connected.
    for (const double beta : {0.0, 0.1, 0.5, 1.0}) {
        for (const std::size_t n : {16u, 64u, 200u}) {
            const graph g = make_watts_strogatz(n, 4, beta, 7);
            ASSERT_EQ(g.num_nodes(), n) << "beta=" << beta;
            EXPECT_EQ(g.num_edges(), n * 2) << "beta=" << beta;
            EXPECT_TRUE(connected(g)) << g.name() << " beta=" << beta;
        }
    }
}

TEST(ZooGuarantees, WattsStrogatzBetaZeroIsTheExactLattice) {
    // Every node sees exactly its two nearest neighbors per side.
    const graph g = make_watts_strogatz(32, 4, 0.0, 1);
    for (node_id u = 0; u < 32; ++u) ASSERT_EQ(g.degree(u), 4u);
    // The k=4 lattice's diameter is ⌈(n/2)/2⌉ = n/4.
    EXPECT_EQ(diameter_exact(g), 8u);
}

TEST(ZooGuarantees, WattsStrogatzShortcutsShrinkTheLatticeDiameter) {
    // The small-world effect: 15% shortcuts collapse the Θ(n) lattice
    // diameter to far below the beta = 0 value at the same size.
    const std::size_t n = 256;
    const auto lattice_diam = diameter_exact(make_watts_strogatz(n, 4, 0.0, 3));
    const auto sw_diam = diameter_exact(make_watts_strogatz(n, 4, 0.15, 3));
    EXPECT_EQ(lattice_diam, n / 4);
    EXPECT_LT(sw_diam, lattice_diam / 2);
}

TEST(ZooGuarantees, BarabasiAlbertSizeAndMinimumDegree)
{
    // Seed K_{m+1} plus m edges per later node; every node keeps
    // degree >= m, and the edge count is exact.
    for (const std::size_t m : {1u, 2u, 3u}) {
        for (const std::size_t n : {16u, 64u, 200u}) {
            const graph g = make_barabasi_albert(n, m, 11);
            ASSERT_EQ(g.num_nodes(), n);
            EXPECT_EQ(g.num_edges(), m * (m + 1) / 2 + (n - m - 1) * m);
            for (node_id u = 0; u < n; ++u) {
                ASSERT_GE(g.degree(u), m) << "node " << u << " of " << g.name();
            }
            EXPECT_TRUE(connected(g));
        }
    }
}

TEST(ZooGuarantees, BarabasiAlbertGrowsHubs) {
    // Preferential attachment concentrates degree: the max degree must
    // dwarf both the attachment parameter and the mean degree — the
    // heavy-tail regime no other family provides.
    const graph g = make_barabasi_albert(400, 2, 5);
    const auto d = degrees(g);
    EXPECT_GE(d.max, 20u);            // hub: ~√n scale in expectation
    EXPECT_LT(d.mean, 4.1);           // mean stays ~2m
    EXPECT_GE(d.max, 5 * d.min);
}

TEST(ZooGuarantees, RandomGeometricRadiusSweepsDensity) {
    // Radius √2 covers the whole unit square: the RGG is complete. A
    // moderate radius stays connected (by resampling) but far sparser.
    const graph dense = make_random_geometric(24, 1.5, 3);
    EXPECT_EQ(dense.num_edges(), 24u * 23 / 2);
    const graph sparse = make_random_geometric(64, 0.35, 3);
    EXPECT_TRUE(connected(sparse));
    EXPECT_LT(sparse.num_edges(), 64u * 63 / 2 / 3);
}

TEST(ZooGuarantees, ConnectedCavemanIsRegularAndConnected) {
    // The rewired cave edge keeps every node at degree cave_size - 1 —
    // the property distinguishing it from ring_of_cliques, whose
    // gateways gain degree.
    for (const std::size_t caves : {3u, 5u, 8u}) {
        for (const std::size_t size : {3u, 4u, 7u}) {
            const graph g = make_connected_caveman(caves, size);
            ASSERT_EQ(g.num_nodes(), caves * size);
            for (node_id u = 0; u < g.num_nodes(); ++u) {
                ASSERT_EQ(g.degree(u), size - 1) << "node " << u << " of " << g.name();
            }
            EXPECT_TRUE(connected(g));
        }
    }
}

TEST(ZooGuarantees, DumbbellFactsAndBottleneck) {
    // Advertised diameter is exact, and the bar keeps conductance at the
    // barbell scale or below (the near-zero-Φ corner).
    for (const std::size_t bar : {1u, 4u, 9u}) {
        const graph g = make_dumbbell(6, bar);
        ASSERT_EQ(g.num_nodes(), 12 + bar);
        ASSERT_TRUE(g.facts().diameter.has_value());
        EXPECT_EQ(*g.facts().diameter, bar + 3);
        EXPECT_EQ(diameter_exact(g), bar + 3);
        EXPECT_TRUE(connected(g));
    }
    const double phi = profile(make_dumbbell(8, 4)).conductance;
    EXPECT_LT(phi, 0.05);
    EXPECT_GT(phi, 0.0);
}

TEST(ZooGuarantees, WheelDegreesAndDiameter) {
    for (const std::size_t n : {4u, 9u, 33u}) {
        const graph g = make_wheel(n);
        ASSERT_EQ(g.num_nodes(), n);
        EXPECT_EQ(g.degree(0), n - 1);  // hub
        for (node_id u = 1; u < n; ++u) {
            ASSERT_EQ(g.degree(u), 3u) << "rim node " << u;
        }
        EXPECT_EQ(diameter_exact(g), n == 4 ? 1u : 2u);
        EXPECT_TRUE(connected(g));
    }
}

TEST(ZooGuarantees, ZooCoversBothEndsOfTheConductanceAxis) {
    // The reason these families exist: at comparable sizes the clustered/
    // bottlenecked zoo members sit well below the small-world and
    // heavy-tail members on Φ, giving the campaign sweeps both regimes.
    const double phi_ws = profile(make_watts_strogatz(64, 4, 0.15, 1)).conductance;
    const double phi_ba = profile(make_barabasi_albert(64, 2, 1)).conductance;
    const double phi_dumbbell = profile(make_dumbbell(30, 4)).conductance;
    const double phi_caveman = profile(make_connected_caveman(8, 8)).conductance;
    EXPECT_GT(phi_ws, 5 * phi_dumbbell);
    EXPECT_GT(phi_ba, 5 * phi_dumbbell);
    EXPECT_GT(phi_ws, 3 * phi_caveman);
    EXPECT_GT(phi_ba, 3 * phi_caveman);
}

TEST(ZooGuarantees, MixingTimeOrdersBottleneckVsSmallWorld) {
    // tmix blows up with the bottleneck: dumbbell must mix an order of
    // magnitude slower than the equally-sized small world.
    const auto tmix_sw = profile(make_watts_strogatz(64, 4, 0.15, 1)).mixing_time;
    const auto tmix_db = profile(make_dumbbell(30, 4)).mixing_time;
    EXPECT_GT(tmix_db, 10 * tmix_sw);
}

TEST(ZooGuarantees, FamilyRegistryRoundTripsNamesAndAliases) {
    for (const graph_family f : all_families()) {
        const auto parsed = family_from_string(to_string(f));
        ASSERT_TRUE(parsed.has_value()) << to_string(f);
        EXPECT_EQ(*parsed, f);
    }
    EXPECT_EQ(family_from_string("ws"), graph_family::watts_strogatz);
    EXPECT_EQ(family_from_string("ba"), graph_family::barabasi_albert);
    EXPECT_EQ(family_from_string("rgg"), graph_family::random_geometric);
    EXPECT_EQ(family_from_string("geometric"), graph_family::random_geometric);
    EXPECT_EQ(family_from_string("caveman"), graph_family::connected_caveman);
    EXPECT_EQ(family_from_string("er"), graph_family::erdos_renyi);
    EXPECT_FALSE(family_from_string("no_such_family").has_value());
}

TEST(ZooGuarantees, MakeFamilyHandlesTinySizesForEveryFamily) {
    // The n = 1 and n = 2 requests must produce valid (possibly clamped)
    // instances for every family — the degree-0 corner (single node) is
    // legal for families without a structural minimum.
    for (const graph_family f : all_families()) {
        for (const std::size_t n : {1u, 2u, 5u}) {
            const graph g = make_family(f, n, 3);
            EXPECT_GE(g.num_nodes(), 1u) << to_string(f) << " n=" << n;
            EXPECT_TRUE(connected(g)) << to_string(f) << " n=" << n;
        }
    }
}

}  // namespace
}  // namespace anole
