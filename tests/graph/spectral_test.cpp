// Tests for graph/spectral.h: lazy-walk evolution, mixing time per the
// paper's §2 definition, eigenvalue estimation, sweep embeddings.
#include "graph/spectral.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/generators.h"
#include "graph/properties.h"
#include "sim/thread_pool.h"

namespace anole {
namespace {

TEST(Walk, StepPreservesMass) {
    graph g = make_torus(4, 4);
    std::vector<double> pi(g.num_nodes(), 0.0);
    pi[3] = 1.0;
    for (int r = 0; r < 50; ++r) {
        pi = walk_distribution_step(g, pi);
        const double mass = std::accumulate(pi.begin(), pi.end(), 0.0);
        ASSERT_NEAR(mass, 1.0, 1e-12);
    }
}

TEST(Walk, StepHandComputedOnPath3) {
    // Path 0-1-2, start at node 1 (degree 2): stay 1/2, 1/4 to each end.
    graph g = make_path(3);
    std::vector<double> pi{0.0, 1.0, 0.0};
    pi = walk_distribution_step(g, pi);
    EXPECT_NEAR(pi[0], 0.25, 1e-15);
    EXPECT_NEAR(pi[1], 0.5, 1e-15);
    EXPECT_NEAR(pi[2], 0.25, 1e-15);
}

TEST(Walk, StationaryIsDegreeProportional) {
    graph g = make_star(5);
    const auto pi = walk_stationary(g);
    EXPECT_NEAR(pi[0], 4.0 / 8.0, 1e-15);  // hub: degree 4, 2m = 8
    EXPECT_NEAR(pi[1], 1.0 / 8.0, 1e-15);
    EXPECT_NEAR(std::accumulate(pi.begin(), pi.end(), 0.0), 1.0, 1e-12);
}

TEST(Walk, StationaryIsFixedPoint) {
    graph g = make_lollipop(5, 3);
    auto pi = walk_stationary(g);
    const auto next = walk_distribution_step(g, pi);
    for (std::size_t i = 0; i < pi.size(); ++i) EXPECT_NEAR(next[i], pi[i], 1e-12);
}

TEST(MixingTime, GrowsWithCycleLength) {
    mixing_time_options opt;
    opt.exhaustive_starts = true;
    const auto t8 = mixing_time_simulated(make_cycle(8), opt);
    const auto t16 = mixing_time_simulated(make_cycle(16), opt);
    const auto t32 = mixing_time_simulated(make_cycle(32), opt);
    EXPECT_LT(t8, t16);
    EXPECT_LT(t16, t32);
    // Θ(n²) shape: quadrupling-ish per doubling.
    EXPECT_GT(static_cast<double>(t32) / static_cast<double>(t16), 2.5);
}

TEST(MixingTime, CompleteGraphMixesFast) {
    mixing_time_options opt;
    opt.exhaustive_starts = true;
    EXPECT_LE(mixing_time_simulated(make_complete(16), opt), 16u);
}

TEST(MixingTime, HeuristicStartsMatchExhaustiveOnCycle) {
    // On vertex-transitive graphs every start is equivalent.
    mixing_time_options ex;
    ex.exhaustive_starts = true;
    mixing_time_options heur;
    heur.exhaustive_starts = false;
    graph g = make_cycle(16);
    EXPECT_EQ(mixing_time_simulated(g, ex), mixing_time_simulated(g, heur));
}

TEST(Lambda2, CompleteGraphClosedForm) {
    // Normalized adjacency of K_n has eigenvalues {1, -1/(n-1)}, so the
    // lazy matrix has second eigenvalue 1/2 - 1/(2(n-1)).
    const std::size_t n = 12;
    const double expect = 0.5 - 0.5 / static_cast<double>(n - 1);
    EXPECT_NEAR(lambda2_lazy(make_complete(n)), expect, 1e-6);
}

TEST(Lambda2, CycleClosedForm) {
    // Lazy cycle eigenvalues: 1/2 + cos(2πk/n)/2; second largest at k=1.
    const std::size_t n = 16;
    const double expect = 0.5 + 0.5 * std::cos(2.0 * M_PI / static_cast<double>(n));
    EXPECT_NEAR(lambda2_lazy(make_cycle(n)), expect, 1e-6);
}

TEST(Lambda2, SpectralBoundDominatesSimulatedTmix) {
    for (auto fam : {graph_family::cycle, graph_family::torus,
                     graph_family::complete, graph_family::star}) {
        const graph g = make_family(fam, 16, 3);
        mixing_time_options opt;
        opt.exhaustive_starts = true;
        graph stripped(g.num_nodes(), g.edge_list());  // drop facts
        EXPECT_GE(mixing_time_spectral_bound(stripped, lambda2_lazy(stripped)) + 1,
                  mixing_time_simulated(stripped, opt))
            << to_string(fam);
    }
}

TEST(Fiedler, SweepFindsBarbellBridge) {
    // The Fiedler embedding must expose the bridge cut exactly.
    graph g = make_barbell(6);
    const auto v = fiedler_vector(g);
    EXPECT_NEAR(conductance_sweep(g, v), conductance_exact(g), 1e-9);
}

TEST(Fiedler, SweepNearExactOnRingOfCliques) {
    graph g = make_ring_of_cliques(4, 3);
    const auto v = fiedler_vector(g);
    const double sweep = conductance_sweep(g, v);
    const double exact = conductance_exact(g);
    EXPECT_GE(sweep + 1e-12, exact);
    EXPECT_LE(sweep, exact * 2.0);  // sweep should be a decent bound here
}

TEST(Profile, HonorsGeneratorFacts) {
    graph g = make_cycle(32);  // has facts: diameter, Φ, i, tmix
    const auto p = profile(g);
    EXPECT_EQ(p.diameter, 16u);
    EXPECT_NEAR(p.conductance, 2.0 / 32.0, 1e-12);
    EXPECT_EQ(p.mixing_time, 32u * 32u);
}

TEST(Profile, ComputesWhenNoFacts) {
    graph g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});  // hand-built C_4
    const auto p = profile(g);
    EXPECT_EQ(p.n, 4u);
    EXPECT_EQ(p.m, 4u);
    EXPECT_EQ(p.diameter, 2u);
    EXPECT_GT(p.conductance, 0.0);
    EXPECT_GT(p.mixing_time, 0u);
    EXPECT_GT(p.lambda2, 0.0);
}

TEST(MixingTime, ExtremalStartsMatchExhaustiveOnIrregularFamilies) {
    // profile()'s estimator above n = 128 — the §2 evaluation from extremal
    // starts only — against every start, on families where starts differ.
    // Same tolerance as bench_profile's agreement gate: max(2 steps, exact/4).
    for (auto fam : {graph_family::dumbbell, graph_family::star,
                     graph_family::connected_caveman, graph_family::watts_strogatz,
                     graph_family::barabasi_albert}) {
        for (const std::size_t n : {32, 64}) {
            const graph g = make_family(fam, n, 1);
            mixing_time_options ex;
            ex.exhaustive_starts = true;
            const auto exact = mixing_time_simulated(g, ex);
            const auto extremal = mixing_time_simulated(g);
            EXPECT_LE(extremal, exact) << to_string(fam) << " n=" << n;  // subset of starts
            EXPECT_LE(exact - extremal, std::max<std::uint64_t>(2, exact / 4))
                << to_string(fam) << " n=" << n << " exact=" << exact
                << " extremal=" << extremal;
        }
    }
}

TEST(MixingTime, SimulatedDeterministicAcrossPools) {
    thread_pool p2(2), p8(8);
    for (const bool exhaustive : {false, true}) {
        const graph g = make_family(graph_family::dumbbell, 48, 1);
        mixing_time_options opt;
        opt.exhaustive_starts = exhaustive;
        const auto serial = mixing_time_simulated(g, opt);
        for (thread_pool* pool : {&p2, &p8}) {
            opt.pool = pool;
            EXPECT_EQ(mixing_time_simulated(g, opt), serial)
                << (exhaustive ? "exhaustive" : "heuristic");
        }
    }
}

TEST(Profile, ProvenanceReportsFacts) {
    const auto p = profile(make_cycle(32));  // generator ships all facts
    EXPECT_EQ(p.diameter_method, profile_method::fact);
    EXPECT_EQ(p.conductance_method, profile_method::fact);
    EXPECT_EQ(p.isoperimetric_method, profile_method::fact);
    EXPECT_EQ(p.mixing_method, profile_method::fact);
}

TEST(Profile, ProvenanceReportsExactOnSmallBareGraph) {
    graph g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
    const auto p = profile(g);
    EXPECT_EQ(p.diameter_method, profile_method::exact);
    EXPECT_EQ(p.conductance_method, profile_method::exact);   // n <= 20
    EXPECT_EQ(p.mixing_method, profile_method::exact);        // exhaustive starts
    EXPECT_TRUE(p.lambda2_converged);
}

TEST(Profile, ProvenanceReportsBoundsOnLargerBareGraph) {
    const graph g = make_family(graph_family::connected_caveman, 200, 1);
    graph stripped(g.num_nodes(), g.edge_list());
    const auto p = profile(stripped);
    EXPECT_EQ(p.conductance_method, profile_method::sweep);  // n > 20
    // n > 128: whatever tmix method the cost model picked, it is not the
    // exhaustive-exact one, and the value must respect the spectral bound.
    EXPECT_NE(p.mixing_method, profile_method::exact);
    EXPECT_NE(p.mixing_method, profile_method::fact);
    EXPECT_LE(p.mixing_time, mixing_time_spectral_bound(stripped, p.lambda2));
}

TEST(Profile, MethodNamesRoundTrip) {
    for (auto m : {profile_method::fact, profile_method::exact,
                   profile_method::sweep, profile_method::simulated,
                   profile_method::spectral}) {
        EXPECT_EQ(profile_method_from_string(to_string(m)), m);
    }
    EXPECT_THROW((void)profile_method_from_string("guesswork"), error);
}

TEST(Profile, ToJsonCarriesProvenance) {
    const auto p = profile(make_cycle(32));
    const std::string j = p.to_json();
    EXPECT_NE(j.find("\"mixing_method\":\"fact\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"diameter_method\":\"fact\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"lambda2_converged\""), std::string::npos) << j;
}

TEST(Profile, BitwiseIdenticalAcrossPools) {
    thread_pool p2(2), p8(8);
    // A fast-mixing family keeps the exhaustive dense tmix cheap; the
    // dumbbell/caveman pooled paths are covered by the dedicated
    // determinism tests above.
    const graph g = make_family(graph_family::watts_strogatz, 128, 1);
    graph stripped(g.num_nodes(), g.edge_list());
    const auto serial = profile(stripped);
    for (thread_pool* pool : {&p2, &p8}) {
        profile_options opt;
        opt.pool = pool;
        const auto p = profile(stripped, opt);
        EXPECT_EQ(p.lambda2, serial.lambda2);  // bitwise
        EXPECT_EQ(p.mixing_time, serial.mixing_time);
        EXPECT_EQ(p.conductance, serial.conductance);
        EXPECT_EQ(p.isoperimetric, serial.isoperimetric);
        EXPECT_EQ(p.diameter, serial.diameter);
        EXPECT_EQ(p.to_json(), serial.to_json());
    }
}

// profile() bytes captured from the per-mask cut re-tally and the
// one-queue-BFS-per-source diameter that the Gray-code and bit-parallel
// kernels replaced. The n = 16 graphs take Φ and i(G) from the exact cut
// enumeration; the n = 1024 graphs take D from the exact diameter.
TEST(Profile, JsonPinnedAcrossKernelRewrite) {
    struct pin {
        graph_family family;
        std::size_t n;
        const char* json;
    };
    const pin pins[] = {
        {graph_family::erdos_renyi, 16,
         R"({"n":16,"m":66,"diameter":2,"conductance":0.39393939393939392,)"
         R"("isoperimetric":3.25,"mixing_time":6,"lambda2":0.6695320883342406,)"
         R"("diameter_method":"exact","conductance_method":"exact",)"
         R"("isoperimetric_method":"exact","mixing_method":"exact",)"
         R"("lambda2_converged":true})"},
        {graph_family::grid2d, 16,
         R"({"n":16,"m":24,"diameter":6,"conductance":0.16666666666666666,)"
         R"("isoperimetric":0.5,"mixing_time":15,"lambda2":0.89086797998528588,)"
         R"("diameter_method":"fact","conductance_method":"exact",)"
         R"("isoperimetric_method":"exact","mixing_method":"exact",)"
         R"("lambda2_converged":true})"},
        {graph_family::barabasi_albert, 16,
         R"({"n":16,"m":29,"diameter":3,"conductance":0.2857142857142857,)"
         R"("isoperimetric":1,"mixing_time":14,"lambda2":0.83351732369417952,)"
         R"("diameter_method":"exact","conductance_method":"exact",)"
         R"("isoperimetric_method":"exact","mixing_method":"exact",)"
         R"("lambda2_converged":true})"},
        {graph_family::random_geometric, 1024,
         R"({"n":1024,"m":7608,"diameter":24,"conductance":0.026769230769230771,)"
         R"("isoperimetric":0.4009216589861751,"mixing_time":5982,)"
         R"("lambda2":0.99740143707822471,"diameter_method":"exact",)"
         R"("conductance_method":"sweep","isoperimetric_method":"sweep",)"
         R"("mixing_method":"spectral","lambda2_converged":true})"},
        {graph_family::connected_caveman, 1024,
         R"({"n":1024,"m":15872,"diameter":48,"conductance":0.00012600806451612903,)"
         R"("isoperimetric":0.00390625,"mixing_time":801525,)"
         R"("lambda2":0.99998183964985432,"diameter_method":"exact",)"
         R"("conductance_method":"sweep","isoperimetric_method":"sweep",)"
         R"("mixing_method":"spectral","lambda2_converged":true})"},
        {graph_family::watts_strogatz, 1024,
         R"({"n":1024,"m":2048,"diameter":15,"conductance":0.090909090909090912,)"
         R"("isoperimetric":0.36363636363636365,"mixing_time":366,)"
         R"("lambda2":0.98666544452043592,"diameter_method":"exact",)"
         R"("conductance_method":"sweep","isoperimetric_method":"sweep",)"
         R"("mixing_method":"simulated","lambda2_converged":true})"},
    };
    for (const pin& p : pins) {
        EXPECT_EQ(profile(make_family(p.family, p.n, 1)).to_json(), p.json)
            << to_string(p.family) << " n=" << p.n;
    }
}

}  // namespace
}  // namespace anole
