// Generator guarantees the experiment harness leans on (ISSUE 1
// satellite): regular/grid/expander generators produce connected graphs
// with exactly the advertised degrees across a size sweep, and the
// conductance/mixing estimators return sane values on graphs whose true
// quantities are known in closed form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

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

TEST(GeneratorGuarantees, RandomRegularAdvertisedDegreeAcrossSweep) {
    for (std::size_t d : {3u, 4u, 6u}) {
        for (std::size_t n : {16u, 64u, 200u}) {
            if (n * d % 2 != 0) continue;  // pairing model needs even n·d
            // The pairing model's simple-graph acceptance rate decays like
            // exp((1-d²)/4) — d = 6 needs far more than the default 1000
            // rejection attempts.
            const graph g = make_random_regular(n, d, 99, 200'000);
            ASSERT_EQ(g.num_nodes(), n);
            EXPECT_EQ(g.num_edges(), n * d / 2);
            for (node_id u = 0; u < n; ++u) {
                ASSERT_EQ(g.degree(u), d) << "node " << u << " of " << g.name();
            }
            EXPECT_TRUE(connected(g)) << g.name();
        }
    }
}

TEST(GeneratorGuarantees, TorusIsFourRegularAndConnected) {
    for (std::size_t rows : {3u, 5u, 8u}) {
        const graph g = make_torus(rows, rows + 1);
        for (node_id u = 0; u < g.num_nodes(); ++u) ASSERT_EQ(g.degree(u), 4u);
        EXPECT_TRUE(connected(g));
    }
}

TEST(GeneratorGuarantees, GridDegreesByPosition) {
    // 4-neighborhood without wraparound: corners 2, borders 3, interior 4.
    const std::size_t rows = 5, cols = 7;
    const graph g = make_grid2d(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            const auto u = static_cast<node_id>(r * cols + c);
            const bool rim_r = r == 0 || r == rows - 1;
            const bool rim_c = c == 0 || c == cols - 1;
            const std::size_t expect = 4 - (rim_r ? 1 : 0) - (rim_c ? 1 : 0);
            ASSERT_EQ(g.degree(u), expect) << "(" << r << "," << c << ")";
        }
    }
    EXPECT_TRUE(connected(g));
}

TEST(GeneratorGuarantees, HypercubeIsDimRegular) {
    for (std::size_t dim : {3u, 5u, 7u}) {
        const graph g = make_hypercube(dim);
        ASSERT_EQ(g.num_nodes(), std::size_t{1} << dim);
        for (node_id u = 0; u < g.num_nodes(); ++u) ASSERT_EQ(g.degree(u), dim);
        EXPECT_TRUE(connected(g));
    }
}

TEST(GeneratorGuarantees, ExpanderFamiliesHaveSubstantialConductance) {
    // The "well-connected regime" graphs the Theorem 1 experiments use
    // must keep their measured Φ bounded away from the cycle scale 2/n.
    for (const graph& g : {make_random_regular(128, 4, 5), make_hypercube(7),
                           make_erdos_renyi(128, 0.12, 5)}) {
        const graph_profile prof = profile(g);
        EXPECT_GT(prof.conductance, 0.05) << g.name();
        EXPECT_TRUE(connected(g)) << g.name();
    }
}

TEST(GeneratorGuarantees, ConductanceExactOnClosedFormGraphs) {
    // K_n: the optimum is the balanced cut; volume form gives
    // Φ(K_n) = ⌈n/2⌉ / (n-1) · ... >= 1/2 always.
    EXPECT_GE(conductance_exact(make_complete(8)), 0.5);
    EXPECT_GE(conductance_exact(make_complete(13)), 0.5);
    // Star: every cut separates leaves from the hub side; Φ(S_n) = 1.
    EXPECT_DOUBLE_EQ(conductance_exact(make_star(9)), 1.0);
    // C_n: the optimum cut is an arc of n/2 nodes: |∂S| = 2, Vol = n,
    // so Φ = 2/n (volume form).
    for (std::size_t n : {8u, 12u, 16u}) {
        EXPECT_NEAR(conductance_exact(make_cycle(n)),
                    2.0 / static_cast<double>(n), 1e-12);
    }
}

TEST(GeneratorGuarantees, SweepUpperBoundIsSaneOnKnownGraphs) {
    // The Fiedler sweep cut must stay an upper bound and, on graphs with
    // an obvious bottleneck, land near the truth.
    const graph barbell = make_barbell(8);
    const double exact = conductance_exact(barbell);
    const double sweep = conductance_sweep(barbell, fiedler_vector(barbell));
    EXPECT_GE(sweep, exact - 1e-12);
    EXPECT_LT(sweep, 4 * exact);  // the bottleneck is found, not missed
}

TEST(GeneratorGuarantees, ProfileOrdersMixingTimesSensibly) {
    // tmix(C_32) = Θ(n²) must dwarf tmix(K_32) = O(1)-ish; the profile's
    // simulated values must reflect the ordering by a wide margin.
    const graph_profile cyc = profile(make_cycle(32));
    const graph_profile com = profile(make_complete(32));
    EXPECT_GT(cyc.mixing_time, 10 * com.mixing_time);
    EXPECT_GT(cyc.mixing_time, 100u);  // Θ(n²) scale at n = 32
    // And the profile must agree with generator facts where present.
    EXPECT_NEAR(cyc.conductance, 2.0 / 32.0, 1e-9);
}

TEST(GeneratorGuarantees, RingOfCliquesConductanceScalesWithDial) {
    // The conductance dial: growing the clique size at fixed n must
    // *shrink* Φ (bottleneck stays 2 bridges, volume grows).
    const double phi_many_small =
        profile(make_ring_of_cliques(16, 4)).conductance;
    const double phi_few_big =
        profile(make_ring_of_cliques(4, 16)).conductance;
    EXPECT_GT(phi_many_small, phi_few_big);
    EXPECT_GT(phi_few_big, 0.0);
}

}  // namespace
}  // namespace anole
