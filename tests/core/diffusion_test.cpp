// Tests for core/diffusion.h: conservation, convergence (Lemmas 3-4),
// exact-vs-approx agreement, CONGEST charging.
#include "core/diffusion.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "graph/spectral.h"

namespace anole {
namespace {

using diff_engine = engine<diffusion_node>;

std::unique_ptr<diff_engine> run_diffusion(const graph& g, bool exact,
                                           std::size_t log2_d, std::uint64_t rounds,
                                           double black_fraction, std::uint64_t seed) {
    auto eng = std::make_unique<diff_engine>(g, seed, congest_budget::fragmenting(16));
    xoshiro256ss color_rng(derive_seed(seed, 0, 0xC0102));
    eng->spawn([&](std::size_t u) {
        const double start = color_rng.bernoulli(black_fraction) ? 1.0 : 0.0;
        return diffusion_node(g.degree(static_cast<node_id>(u)), start, exact, log2_d,
                              rounds);
    });
    eng->run_until_halted(rounds + 2);
    return eng;
}

TEST(Diffusion, ExactConservationBitForBit) {
    graph g = make_torus(4, 4);
    auto eng = run_diffusion(g, /*exact=*/true, /*log2_d=*/4, /*rounds=*/24, 0.5, 7);
    dyadic sum;
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        sum += eng->node(u).potential_exact();
    }
    // Σ potentials must still be the integer number of black starters.
    xoshiro256ss color_rng(derive_seed(7, 0, 0xC0102));
    std::uint64_t black = 0;
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        if (color_rng.bernoulli(0.5)) ++black;
    }
    EXPECT_EQ(sum.exponent(), 0u);
    EXPECT_EQ(sum, dyadic(black));
}

TEST(Diffusion, ApproxConservationToFloatTolerance) {
    graph g = make_random_regular(32, 4, 3);
    auto eng = run_diffusion(g, false, 4, 200, 0.5, 9);
    double sum = 0, start_sum = 0;
    for (std::size_t u = 0; u < g.num_nodes(); ++u) sum += eng->node(u).potential();
    // Recompute the initial black count with the same coloring stream.
    xoshiro256ss color_rng(derive_seed(9, 0, 0xC0102));
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        start_sum += color_rng.bernoulli(0.5) ? 1.0 : 0.0;
    }
    EXPECT_NEAR(sum, start_sum, 1e-9);
}

TEST(Diffusion, ConvergesToAverage) {
    // Lemma 3: potentials approach ‖Φ₁‖/n everywhere.
    graph g = make_complete(16);
    const std::uint64_t rounds = 600;
    auto eng = run_diffusion(g, false, 5, rounds, 0.5, 11);
    double sum = 0;
    for (std::size_t u = 0; u < g.num_nodes(); ++u) sum += eng->node(u).potential();
    const double avg = sum / static_cast<double>(g.num_nodes());
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        EXPECT_NEAR(eng->node(u).potential(), avg, 0.02);
    }
}

TEST(Diffusion, Lemma4RoundBoundSuffices) {
    // r >= (2/φ²)·log(n/γ) rounds bring every node within γ relative
    // error of the average, φ = i(G)/D for our share matrix.
    graph g = make_cycle(8);
    const std::size_t log2_d = 4;  // D = 16
    const double i_g = 2.0 / 4.0;  // i(C_8) = 2/⌊n/2⌋
    const double phi = i_g / 16.0;
    const double gamma = 0.05;
    const auto r = static_cast<std::uint64_t>(
        std::ceil(2.0 / (phi * phi) * std::log(8.0 / gamma)));
    auto eng = run_diffusion(g, false, log2_d, r, 0.5, 13);
    double sum = 0;
    for (std::size_t u = 0; u < g.num_nodes(); ++u) sum += eng->node(u).potential();
    const double avg = sum / 8.0;
    if (avg > 0) {
        for (std::size_t u = 0; u < 8; ++u) {
            EXPECT_LE(std::abs(eng->node(u).potential() - avg) / avg, gamma);
        }
    }
}

TEST(Diffusion, ExactAndApproxAgree) {
    graph g = make_torus(4, 4);
    auto ex = run_diffusion(g, true, 4, 20, 0.5, 17);
    auto ap = run_diffusion(g, false, 4, 20, 0.5, 17);
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        EXPECT_NEAR(ex->node(u).potential(), ap->node(u).potential(), 1e-9);
    }
}

TEST(Diffusion, ExactWireBitsGrowWithRounds) {
    // The paper's accounting: potential encodings grow ~log2(D) bits per
    // round. Check monotone growth of charged bits in exact mode.
    graph g = make_cycle(6);
    auto short_run = run_diffusion(g, true, 4, 8, 0.5, 19);
    auto long_run = run_diffusion(g, true, 4, 32, 0.5, 19);
    EXPECT_GT(long_run->metrics().total().bits,
              3 * short_run->metrics().total().bits);
    // Fragmenting budget charges extra congest rounds for the growth.
    EXPECT_GT(long_run->metrics().total().congest_rounds,
              long_run->metrics().total().rounds);
}

TEST(Diffusion, ChargedBitsFormula) {
    EXPECT_EQ(charged_potential_bits(1, 5), 6u);
    EXPECT_EQ(charged_potential_bits(10, 5), 51u);
}

TEST(Diffusion, DegreeBeyondDenominatorThrows) {
    graph g = make_star(20);  // hub degree 19 > D = 16
    auto eng = std::make_unique<diff_engine>(g, 1);
    eng->spawn([&](std::size_t u) {
        return diffusion_node(g.degree(static_cast<node_id>(u)), 1.0, false, 4, 10);
    });
    EXPECT_THROW(eng->run_rounds(3), error);
}

TEST(Diffusion, AllZeroStaysZero) {
    graph g = make_cycle(8);
    auto eng = std::make_unique<diff_engine>(g, 5);
    eng->spawn([&](std::size_t u) {
        return diffusion_node(g.degree(static_cast<node_id>(u)), 0.0, true, 4, 16);
    });
    eng->run_until_halted(20);
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        EXPECT_TRUE(eng->node(u).potential_exact().is_zero());
    }
}

TEST(Diffusion, AllOnesStayOnes) {
    graph g = make_cycle(8);
    auto eng = std::make_unique<diff_engine>(g, 5);
    eng->spawn([&](std::size_t u) {
        return diffusion_node(g.degree(static_cast<node_id>(u)), 1.0, true, 4, 16);
    });
    eng->run_until_halted(20);
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        EXPECT_EQ(eng->node(u).potential_exact(), dyadic::one());
    }
}

}  // namespace
}  // namespace anole
